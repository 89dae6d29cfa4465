"""Persistent, lazily-spawned worker pool shared by every parallel call.

PR 3's runtime created a fresh ``multiprocessing.Pool`` per call, which
bought simplicity at the cost the benchmarks measured: every brute-force
call and every experiment paid pool startup, and on low-core boxes the
startup dominated (the ``BENCH_PR3.json`` 0.76x case).  This module keeps
**one** :class:`concurrent.futures.ProcessPoolExecutor` alive across calls:

* lazily spawned on first use and grown (never shrunk) when a later call
  asks for more workers;
* safe against forks: the executor is keyed to the PID that created it, so
  a process that forked with a stale executor discards it and spawns a
  fresh one instead of deadlocking on inherited pipes;
* safe against nesting: pool workers mark themselves via :func:`in_worker`
  and any parallel request made inside one degrades to serial;
* one submission loop: :meth:`PersistentPool.map` submits chunks in the
  caller's order (best-first for anytime enumerations) and returns their
  results keyed by item index;
* safe against worker death: on :class:`BrokenProcessPool`, the map keeps
  every chunk result already harvested (futures that completed before the
  break retain their values), rebuilds the executor with exponential
  backoff, and resubmits **only the lost chunks** — bounded by :data:`MAP_MAX_RETRIES` rounds before raising
  :class:`PoolDegradedError` carrying the completed work, so the caller can
  finish the remainder serially instead of recomputing everything (results
  are identical either way by the determinism contract);
* stoppable: the map's one stop predicate (its deadline and gap-target
  check, owned by the map engine of :mod:`repro.runtime.parallel`), when
  the map has one, ends chunk submission; in-flight work drains and what
  completed comes back;
* degradable per transport: a worker that cannot attach a shared-memory
  segment (injected or real) returns a :class:`_TransportFailure` marker
  instead of poisoning the pool, and the chunk is resubmitted on the
  caller-provided ``("pickled", ...)`` fallback spec;
* shut down explicitly via :func:`shutdown` (also registered ``atexit``),
  which closes the executor *and* unlinks every cached shared-memory
  publication, tolerating workers the OS already reaped (a crashed or
  OOM-killed worker must not print a spurious traceback at interpreter
  exit).

Every recovery event increments :mod:`repro.runtime.health` counters, and
every degradation path can be driven deterministically in CI through
:mod:`repro.faults` (``REPRO_FAULTS=crash:p=0.05,...``): the injection
points in :func:`_dispatch` fire on a pure hash of the chunk's
``(index, attempt)`` key, so retries re-roll instead of re-crashing
forever.

Dispatch protocol
-----------------
Each work item travels as a small ``(task, payload_spec, item, threshold,
fault_key)`` tuple and comes back as a ``(result, best, violations)``
triple.  ``violations`` are the sanitizer violations the worker recorded
while the chunk ran; the parent records them again as it harvests, so a
worker-side violation fails an armed run like a parent-side one.
``threshold`` is the map's branch-and-bound incumbent
(:mod:`repro.runtime.incumbent`) read at submission: a float, or ``None``
for an unpruned map.  The worker binds a
:class:`~repro.runtime.incumbent.SerialIncumbent` at that value around the
task and returns the handle's final value as ``best``; the parent proposes
``best`` into the map's own incumbent as it harvests, in submission order,
so every later submission carries every improvement harvested so far.
Nothing in the tuple is synchronized, and a worker is a pure function of
``(payload, item, threshold)``: two maps cannot share or clobber each
other's pruning state.  The payload spec is one of

* ``("none",)`` — no payload;
* ``("shm", descriptor)`` — a :class:`~repro.runtime.shm.PayloadDescriptor`
  for payloads containing a ``CostContext``; the worker attaches the
  shared-memory segments, unpickles the payload over read-only views of
  their out-of-band buffers and memoizes it by the descriptor's token (an
  evicted payload's attachments close once its last array is collected);
* ``("pickled", token, blob)`` — for context-free payloads (experiment
  settings), for every payload when shared memory is disabled or
  unavailable, and for chunks whose segment attach failed: the pre-pickled
  payload rides with each item but is unpickled once per worker and
  memoized by its sha1 token.

Both kinds unpickle the same state (a context's ``__getstate__``), so a
worker gets equal objects either way.  Workers therefore receive context
*bytes* at most once each under shared memory — no matter how many chunks
they process or how many calls reuse the same context — and payload
*objects* are materialized once per worker under every transport.
"""

from __future__ import annotations

import atexit
import os
import pickle
import time
from collections import OrderedDict, deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from .. import faults, sanitize
from . import health
from . import incumbent as incumbent_module
from . import shm as shm_module

#: Materialized payloads a worker keeps before evicting least-recently-used.
WORKER_PAYLOAD_CACHE = 4

#: Pool-rebuild rounds a single map survives before degrading to serial.
MAP_MAX_RETRIES = 3

#: First rebuild backoff in seconds; doubles per round up to the cap.  A
#: crashed worker usually died for an environmental reason (OOM pressure,
#: cgroup kill) that an immediate respawn would hit again — but a fork
#: respawn itself is cheap, so the first retry is near-immediate and only
#: repeated failures earn the long sleeps.
MAP_BACKOFF_INITIAL = 0.01
MAP_BACKOFF_CAP = 1.0


class PoolDegradedError(RuntimeError):
    """A map exhausted its pool-rebuild budget.

    Carries ``completed`` — every chunk result harvested before giving up,
    keyed by item index — so the caller finishes only the remainder
    serially instead of recomputing work that already succeeded.
    """

    def __init__(self, message: str, completed: dict[int, Any]) -> None:
        super().__init__(message)
        self.completed = completed


@dataclass(frozen=True)
class _TransportFailure:
    """Worker-side marker: the payload transport failed, the pool is fine.

    A failed shared-memory attach must not look like a task error (which
    would abort the whole map) or kill the worker (which would cost a pool
    rebuild): the worker reports the failure as an ordinary *result* and
    the parent resubmits the chunk on the pickled fallback transport.
    """

    kind: str
    error: str

# -- worker-side state -------------------------------------------------------

_IN_WORKER = False
_PAYLOAD_CACHE: "OrderedDict[str, Any]" = OrderedDict()


def in_worker() -> bool:
    """Whether this process is a pool worker (nested pools degrade to serial)."""
    return _IN_WORKER


def _mark_in_worker() -> None:
    global _IN_WORKER
    _IN_WORKER = True


def _init_pool_worker(sanitizer_names: tuple[str, ...] = (), fault_spec: str = "") -> None:
    """Persistent-pool initializer: mark the worker, arm its configuration.

    Sanitizer names and the armed fault spec ride the initargs channel
    (spawned workers do inherit ``REPRO_SANITIZE`` / ``REPRO_FAULTS`` via
    the environment, but the explicit handoff also covers anything enabled
    programmatically with ``set_enabled`` after import).
    """
    _mark_in_worker()
    sanitize.reset()  # a forked worker starts without the parent's sanitizer history
    sanitize.set_enabled(sanitizer_names)
    faults.set_enabled(fault_spec)


def _cache_payload(token: str, payload: Any) -> None:
    _PAYLOAD_CACHE[token] = payload
    while len(_PAYLOAD_CACHE) > WORKER_PAYLOAD_CACHE:
        _PAYLOAD_CACHE.popitem(last=False)


def _resolve_payload(spec: tuple) -> Any:
    """The payload behind ``spec``, materialized once per worker per token."""
    kind = spec[0]
    if kind == "none":
        return None
    if kind not in ("pickled", "shm"):
        raise ValueError(f"unknown payload spec kind: {kind!r}")
    token = spec[1] if kind == "pickled" else spec[1].token
    if token in _PAYLOAD_CACHE:
        _PAYLOAD_CACHE.move_to_end(token)
        return _PAYLOAD_CACHE[token]
    if kind == "pickled":
        payload = pickle.loads(spec[2])
    else:
        payload = shm_module.materialize_payload(spec[1])
    _cache_payload(token, payload)
    return payload


def _dispatch(args: tuple) -> tuple[Any, float | None, tuple[sanitize.Violation, ...]]:
    """Run one chunk; returns ``(result, best, violations)`` (see the dispatch protocol)."""
    task, spec, item, threshold, fault_key = args
    recorded = len(sanitize.violations())
    # Injection points for the chaos harness: the crash fires before any
    # work happens (the honest worst case — the whole chunk is lost) and
    # both draws are keyed by the chunk's (index, attempt) so a chunk that
    # crashed at attempt 0 re-rolls at attempt 1 instead of killing every
    # rebuilt pool forever.
    faults.inject("crash", "pool.dispatch", token=fault_key)
    faults.inject("slow", "pool.dispatch", token=fault_key)
    handle = None if threshold is None else incumbent_module.SerialIncumbent(threshold)
    with incumbent_module.bound(handle):
        try:
            payload = _resolve_payload(spec)
        except (faults.FaultInjected, OSError) as error:
            if spec[0] == "shm":
                # A failed segment attach degrades this one call to the
                # pickled transport instead of poisoning the pool.
                failure = _TransportFailure(kind=spec[0], error=repr(error))
                return failure, None, sanitize.violations()[recorded:]
            raise
        result = task(payload, item)
    best = None if handle is None else handle.value()
    return result, best, sanitize.violations()[recorded:]


# -- parent-side executor ----------------------------------------------------


def _pool_context():
    """Prefer ``fork`` (cheap startup, inherited modules) where available."""
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class PersistentPool:
    """A grow-only process pool that survives across calls.

    The module-level instance behind :func:`executor` is what the runtime
    uses; standalone instances exist for benchmarks that need to measure
    per-call pool startup against persistent reuse.
    """

    def __init__(self) -> None:
        self._executor: ProcessPoolExecutor | None = None
        self._workers = 0
        self._pid: int | None = None
        self._config: tuple = ()

    @property
    def started(self) -> bool:
        return self._executor is not None and self._pid == os.getpid()

    @property
    def workers(self) -> int:
        return self._workers if self.started else 0

    def ensure(self, workers: int) -> ProcessPoolExecutor:
        """The live executor, (re)spawned or grown to ``workers`` if needed."""
        workers = max(1, int(workers))
        if self._executor is not None and self._pid != os.getpid():
            # Forked child inherited a stale executor: its pipes belong to
            # the parent.  Drop it without joining (the parent owns the
            # worker processes) and spawn fresh ones.
            self._executor = None
            self._workers = 0
        # Sanitizers and fault specs reach workers through initargs, i.e.
        # they are frozen at spawn time: a pool that outlives a
        # set_enabled() call would silently keep the old configuration, so
        # config drift forces a respawn (tests and the chaos bench arm
        # faults programmatically between maps and rely on this).
        config = (sanitize.enabled_names(), faults.enabled_spec())
        if self._executor is not None and (workers > self._workers or config != self._config):
            self.shutdown()
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=_pool_context(),
                initializer=_init_pool_worker,
                initargs=config,
            )
            self._workers = workers
            self._pid = os.getpid()
            self._config = config
        return self._executor

    def map(
        self,
        task: Callable[[Any, Any], Any],
        items: Iterable[Any],
        spec: tuple,
        workers: int,
        incumbent: "incumbent_module.SerialIncumbent | None" = None,
        *,
        fallback_spec: Callable[[], tuple] | None = None,
        order: "list[int] | None" = None,
        stop: Callable[[Iterable[int]], bool] | None = None,
    ) -> dict[int, Any]:
        """``task(payload, item)`` for every item across the pool, keyed by index.

        Chunks are *submitted* in ``order`` (a permutation of the item
        indexes, item order when ``None``) and results come back keyed by
        original index, so the caller's reduction can keep the
        submission-order first-strict-minimum rule.  The pool is grow-only,
        so it may hold more processes than this call requested; at most
        ``workers`` items are kept in flight regardless, keeping ``workers``
        a real concurrency cap per call.  ``incumbent`` is the map's own
        branch-and-bound incumbent (``None`` for an unpruned map): its value
        at submission rides in every dispatch tuple, and every harvested
        chunk's best is proposed back into it (see the dispatch protocol).

        Crash recovery is chunk-granular: when a worker dies mid-map
        (:class:`BrokenProcessPool`), every future that already completed
        keeps its result, only the lost in-flight chunks are requeued (with
        a bumped attempt counter, so injected crashes re-roll), and the
        executor is rebuilt with exponential backoff.  After
        :data:`MAP_MAX_RETRIES` rebuild rounds the map raises
        :class:`PoolDegradedError` carrying the completed results so the
        caller can finish the remainder serially.

        ``fallback_spec`` (lazily called at most once) provides the
        ``("pickled", ...)`` spec a chunk is resubmitted on when its worker
        reports a failed shared-memory attach (:class:`_TransportFailure`),
        whether the report is harvested in order or during crash recovery.
        ``stop`` (the map's stop predicate; ``None`` never stops) receives
        the indexes not yet submitted before each new submission; once it
        returns ``True`` nothing more is submitted, in-flight work drains,
        and the chunks never submitted are absent from the result.
        Task-level exceptions propagate as-is.
        """
        workers = max(1, int(workers))
        executor = self.ensure(workers)
        items = list(items)
        total = len(items)
        results: dict[int, Any] = {}
        #: (index, attempt, spec) triples not yet in flight.
        submission = range(total) if order is None else order
        pending: "deque[tuple[int, int, tuple]]" = deque((i, 0, spec) for i in submission)
        window: "deque[tuple[int, int, tuple, Any]]" = deque()
        rebuilds = 0
        backoff = MAP_BACKOFF_INITIAL
        resolved_fallback: tuple | None = None

        def harvest(
            index: int,
            attempt: int,
            outcome: tuple[Any, float | None, tuple[sanitize.Violation, ...]],
        ) -> None:
            """Keep one chunk's result, or requeue it after a transport failure.

            Either way the violations its worker recorded are recorded here.
            """
            nonlocal resolved_fallback
            value, best, violations = outcome
            for violation in violations:
                sanitize.report_violation(violation.sanitizer, violation.message)
            if isinstance(value, _TransportFailure):
                if fallback_spec is None:
                    raise RuntimeError(
                        f"payload transport ({value.kind}) failed in a worker with no"
                        f" fallback available: {value.error}"
                    )
                if resolved_fallback is None:
                    resolved_fallback = fallback_spec()
                pending.appendleft((index, attempt + 1, resolved_fallback))
                health.record(transport_fallbacks=1, retries=1)
                return
            results[index] = value
            if incumbent is not None and best is not None:
                incumbent.propose(best)
            health.record(chunks_completed=1)

        while pending or window:
            try:
                while pending and len(window) < workers:
                    if stop is not None and stop(entry[0] for entry in pending):
                        # A deadline or gap stop: the never-submitted chunks
                        # are skipped, in-flight work drains.
                        pending.clear()
                        break
                    index, attempt, item_spec = pending.popleft()
                    # Counted before submit(): a broken pool can surface as
                    # a submit-time BrokenProcessPool, and the popped chunk
                    # is then requeued as a retry — the audit identity
                    # (submitted == completed + retries) needs the attempt
                    # on the books either way.
                    health.record(chunks_submitted=1)
                    threshold = None if incumbent is None else incumbent.value()
                    future = executor.submit(
                        _dispatch, (task, item_spec, items[index], threshold, (index, attempt))
                    )
                    window.append((index, attempt, item_spec, future))
                if not window:
                    break  # a stop fired with nothing in flight
                index, attempt, item_spec, future = window.popleft()
                outcome = future.result()
            except BrokenProcessPool:
                # Harvest what survived: completed futures keep their
                # results even after the executor breaks.  Everything else
                # is requeued at the front with a bumped attempt.
                lost = [(index, attempt + 1, item_spec)]
                while window:
                    s_index, s_attempt, s_spec, s_future = window.popleft()
                    if s_future.done() and s_future.exception() is None:
                        harvest(s_index, s_attempt, s_future.result())
                    else:
                        lost.append((s_index, s_attempt + 1, s_spec))
                pending.extendleft(reversed(lost))
                rebuilds += 1
                health.record(pool_rebuilds=1, lost_chunks=len(lost), retries=len(lost))
                self.shutdown()
                if rebuilds > MAP_MAX_RETRIES:
                    raise PoolDegradedError(
                        f"pool broke {rebuilds} times during one map"
                        f" ({len(results)}/{total} chunks completed); degrading to serial",
                        dict(results),
                    ) from None
                time.sleep(backoff)
                backoff = min(backoff * 2.0, MAP_BACKOFF_CAP)
                executor = self.ensure(workers)
                continue
            harvest(index, attempt, outcome)
        return results

    def shutdown(self) -> None:
        """Stop the workers (idempotent).  Cached publications are separate.

        Must tolerate workers the OS already reaped: after an injected
        crash (``os._exit``) or an OOM kill, the executor's process table
        still lists the corpse, and a naive teardown at interpreter exit
        prints a spurious traceback.  State is detached *first* so a
        failure during teardown can never wedge the pool in a half-dead
        state, then any processes the executor failed to reap are
        terminated and joined individually, swallowing races with the OS.
        """
        executor, self._executor = self._executor, None
        self._workers = 0
        if executor is None:
            return
        workers = list((getattr(executor, "_processes", None) or {}).values())
        try:
            executor.shutdown(wait=True, cancel_futures=True)
        except Exception:
            # Executor-level teardown failed (broken pool, interpreter
            # teardown race): reap whatever is still reapable ourselves.
            for process in workers:
                try:
                    if process.is_alive():
                        process.terminate()
                    process.join(timeout=1.0)
                except (OSError, ValueError, AssertionError):  # pragma: no cover
                    pass  # already reaped by the OS — exactly the tolerated case


_POOL = PersistentPool()


def executor() -> PersistentPool:
    """The process-wide persistent pool."""
    return _POOL


def shutdown() -> None:
    """Stop the persistent pool and unlink every shared-memory publication.

    Safe to call at any point; the pool respawns lazily on next use.  This
    is the explicit teardown the shared-memory lifecycle tests exercise —
    after it returns, no repro-owned segments remain in the namespace.
    """
    _POOL.shutdown()
    shm_module.close_all_publications()


atexit.register(shutdown)
