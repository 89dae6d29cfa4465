"""Process-parallel execution runtime: one map engine over the worker pool.

Every enumeration- and trial-heavy path in the repo shares one execution
shape: a *payload* that is expensive to build or ship (an
:class:`~repro.cost.context.CostContext` with its pinned supports and sorted
CDF columns, or an experiment settings object), plus a stream of cheap,
independent *work items* (chunks of candidate subsets, trial descriptors).
One private engine runs that shape serially (``workers <= 1``, the default
— bit-identical to calling the task function in a plain loop) or across the
persistent process pool, and two public adapters expose it:

* :func:`parallel_map` returns a plain list of every result (the trial
  loops, the anytime enumerators' chunk-bound maps and the public API);
* :func:`parallel_map_ordered` returns a :class:`MapOutcome` keyed by item
  index and adds a per-map incumbent, best-first submission order and the
  deadline and gap-target stops (the branch-and-bound enumerators of
  :mod:`repro.baselines.brute_force`).

Payload transport is resolved once per map, one of two:

* **shared memory** (the default for payloads containing a ``CostContext``):
  the payload's arrays are published once to
  :mod:`multiprocessing.shared_memory` via :mod:`repro.runtime.shm`, as the
  out-of-band buffers of its protocol-5 pickle, and each chunk dispatch
  carries only a small descriptor plus its work slice; the persistent
  pool's workers attach zero-copy and memoize the attachment, so repeated
  calls over a memoized context ship the payload **zero** times;
* **pickled** for everything else — context-free payloads such as
  experiment settings, and any payload when shared memory is unavailable or
  disabled: the pre-pickled payload rides with each dispatch but is
  unpickled once per worker, memoized by its sha1.  It is the same pickle
  with its buffers in band.

The pool itself is persistent (:mod:`repro.runtime.pool`): lazily spawned,
grown on demand, reused across brute-force calls and experiment trials, and
shut down explicitly (or at exit).  If a worker dies mid-map, recovery is
**chunk-granular**: completed chunk results are kept, the pool is rebuilt
with bounded retries and backoff, and only the lost chunks are resubmitted;
a map that exhausts its rebuild budget finishes the *remainder* in the
engine's one in-process loop (:class:`~repro.runtime.pool.PoolDegradedError`
carries the completed work).  Results are identical under every degradation
path by the determinism contract below, every recovery event is counted in
:mod:`repro.runtime.health`, and all of it can be driven deterministically
via :mod:`repro.faults`.

Stops (the anytime-solver plumbing)
-----------------------------------
An ordered map may carry two stops: ``time_budget=SECONDS``, a monotonic
deadline from the map's start, and ``gap_target``, reached once the
certified gap between the map's incumbent and the smallest bound over the
chunks still pending is at or below it.  The engine owns both as one stop
predicate, asked before each chunk is run (serially, and in a degraded
map's remainder) or submitted (pooled).  Once it fires no further chunk
starts, in-flight work drains, and the completed chunks come back keyed by
item index (under best-first order they need not form a prefix) with the
flag of the stop that fired.  Callers pair the completed chunks with an
admissible lower bound over the chunks never run to certify ``(cost,
lower_bound, gap)``; see :mod:`repro.baselines.brute_force`.  Truncated
maps are exempt from ``det`` fingerprinting the same way pruned maps are:
*which* chunks complete is timing-dependent by design, while each returned
chunk value is still bit-identical.

Serial fallback
---------------
Requesting ``workers=N`` is an *upper bound*, not a demand: the effective
worker count is clamped to :func:`available_workers`, so on a single-CPU box
every call runs serially and never pays pool or pickling overhead (the
``BENCH_PR3.json`` 0.76x regression).  Work below a threshold (fewer than
:data:`DEFAULT_MIN_ITEMS` items) also runs serially — too few chunks cannot
amortize a dispatch.  The clamp counts items, not the work in them, so a
pooled map of many cheap items (say, mostly pruned chunks) can still run
slower than ``workers=1`` (ROADMAP.md, item 1).  Tests and benchmarks that
must exercise the pool on small machines enable :func:`set_oversubscribe`
(or set ``REPRO_OVERSUBSCRIBE=1``).

Determinism contract
--------------------
``parallel_map(fn, items, workers=w)`` returns ``[fn(payload, item) for item
in items]`` for every ``w``, on every transport: the same chunk boundaries
are used, every chunk is computed by the same NumPy kernels on the same
bytes (shared-memory views alias the publisher's arrays exactly), and the
parent reduces in item order.  Only wall-clock time may differ — never a
returned value.

Pruned ordered maps (``incumbent_seed`` set) relax this one notch by design:
tasks may *skip* work whose admissible lower bound exceeds the map's
incumbent (:mod:`repro.runtime.incumbent`), and which rows get skipped
depends on which chunk results the parent had harvested when it submitted
each chunk — but the callers' reductions are constructed so the reduced
result is still bit-identical at every worker count (see the exactness
contract in :mod:`repro.baselines.brute_force`).  Every map owns its
incumbent: the in-process loop binds it in the calling thread (none for an
unpruned map), so serial skip sets are deterministic too, and a pooled map
relays it through its own dispatches, so concurrent solves never prune
against each other.

Worker memory is bounded by the work-item granularity: the brute-force
shards pass ``chunk_rows`` (default
:data:`repro.cost.context.DEFAULT_CHUNK_ROWS`) through
:func:`iter_chunk_bounds`, so a worker never materializes more than
``chunk_rows`` batch rows at a time regardless of how large the enumeration
is.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar

from .._env import env_flag
from ..sanitize import det_san
from . import health
from . import incumbent as incumbent_module
from . import pool as pool_module
from . import shm as shm_module

T = TypeVar("T")
R = TypeVar("R")


@dataclass
class MapOutcome:
    """What one map produced.

    ``results`` is keyed by *original* item index (whatever the submission
    order was), so reductions can walk ``sorted(results)`` and keep the
    submission-order first-strict-minimum tie rule.  ``deadline_hit`` /
    ``gap_target_hit`` say which stop ended the map early, if one did.
    """

    results: dict[int, Any]
    deadline_hit: bool = False
    gap_target_hit: bool = False


#: Fewest work items worth dispatching to a pool at all.
DEFAULT_MIN_ITEMS = 2

_OVERSUBSCRIBE = env_flag("REPRO_OVERSUBSCRIBE", default=False)
_SHM_DEFAULT = env_flag("REPRO_SHM", default=True)


def set_oversubscribe(enabled: bool) -> bool:
    """Allow pools wider than the CPU count (tests/benchmarks on small boxes).

    Returns the previous setting so callers can restore it.
    """
    global _OVERSUBSCRIBE
    previous = _OVERSUBSCRIBE
    _OVERSUBSCRIBE = bool(enabled)
    return previous


def resolve_workers(workers: int | None) -> int:
    """Normalize a ``--workers`` value: ``None``/``0``/negatives mean serial.

    Inside a pool worker this always returns 1 (no nested pools).
    """
    if pool_module.in_worker() or workers is None:
        return 1
    return max(1, int(workers))


def available_workers() -> int:
    """CPUs the runtime could plausibly use (for defaults and benchmarks)."""
    return max(1, os.cpu_count() or 1)


def effective_workers(workers: int | None, item_count: int) -> int:
    """The worker count a call will actually use after every fallback rule.

    Clamps to the item count and — unless oversubscription is enabled — the
    CPU count, and collapses to serial below :data:`DEFAULT_MIN_ITEMS`
    items.  This is the single place the serial fallback lives.  It reads
    only counts, not the work per item, so it does not keep a pooled map of
    cheap items from running slower than ``workers=1``.
    """
    workers = resolve_workers(workers)
    if workers <= 1 or item_count < DEFAULT_MIN_ITEMS:
        return 1
    if not _OVERSUBSCRIBE:
        workers = min(workers, available_workers())
    return min(workers, item_count)


def parallel_map(
    task: Callable[[Any, T], R],
    items: Sequence[T],
    *,
    payload: Any = None,
    workers: int | None = 1,
    shm: bool | None = None,
) -> list[R]:
    """``[task(payload, item) for item in items]``, optionally across processes.

    Parameters
    ----------
    task:
        A **module-level** function (pool workers import it by reference)
        taking ``(payload, item)``.
    items:
        Picklable work items; results are returned in the same order.
    payload:
        Shipped to the workers once — via a shared-memory descriptor or a
        pickle memoized per worker — never rebuilt per work item.  Build
        expensive state (contexts, pinned supports) here, not per item.
    workers:
        Upper bound on processes; clamped to the CPU count and the item
        count (see the module docstring's serial-fallback rules).  ``<= 1``
        (the default) runs the loop in-process with no multiprocessing
        import cost and bit-identical results.
    shm:
        Force shared-memory payload transport on or off; ``None`` uses the
        default (on, overridable via the ``REPRO_SHM`` environment
        variable).  Results are identical either way.

    Notes
    -----
    Results are deterministic across worker counts and payload transports
    (see the module docstring's determinism contract).  Exceptions raised by
    ``task`` propagate to the caller under every execution mode.  A map that
    needs an incumbent or a stop is :func:`parallel_map_ordered`.
    """
    items = list(items)
    outcome = _Map(task, items, payload, list(range(len(items)))).run(workers, shm, None)
    return [outcome.results[index] for index in range(len(items))]


def parallel_map_ordered(
    task: Callable[[Any, T], R],
    items: Sequence[T],
    *,
    payload: Any = None,
    workers: int | None = 1,
    shm: bool | None = None,
    incumbent_seed: float | None = None,
    time_budget: float | None = None,
    order: Sequence[int] | None = None,
    chunk_bounds: Sequence[float] | None = None,
    gap_target: float | None = None,
) -> MapOutcome:
    """Best-first :func:`parallel_map`: incumbent, priority submission, stops.

    The enumerators' map.  Results come back as a :class:`MapOutcome` keyed
    by item index, with the flags of the stops that fired.

    ``incumbent_seed`` gives this map a branch-and-bound incumbent
    (:mod:`repro.runtime.incumbent`) starting at this value (``inf`` for
    "no heuristic seed").  Chunk tasks reach it via
    :func:`repro.runtime.incumbent.active` to prune work and propose
    achieved costs.  Serial execution binds the map's incumbent around the
    in-process loop; pooled execution sends its current value with each
    chunk and proposes each harvested chunk's best back into it.  ``None``
    (the default) binds no incumbent, so tasks see none.  Pruning changes
    *which* rows tasks evaluate, never the reduced result — see the
    exactness contract in :mod:`repro.baselines.brute_force`.

    ``time_budget`` is a wall-clock budget in seconds for the whole map.
    When it runs out, no further chunk starts, in-flight chunks drain, and
    the completed chunks come back with ``deadline_hit`` set; ``None`` (the
    default) never stops.

    ``order`` is a permutation of item indexes (ascending admissible chunk
    bound — the caller computes the bounds up front; ``None`` submits in
    item order); chunks are *submitted* in that order while results come
    back keyed by original index, so the final reduction is
    order-independent.  ``chunk_bounds[i]`` must lower-bound every solution
    in item ``i``; with ``gap_target`` set (which needs both the bounds and
    an ``incumbent_seed``), the map stops as soon as the certified gap
    between the live incumbent and the smallest bound over the chunks still
    pending reaches the target (:class:`repro.runtime.incumbent.GapTracker`)
    — exactly like a ``time_budget`` deadline, and combinable with one.
    ``task``, ``items``, ``payload``, ``workers`` and ``shm`` mean what they
    mean for :func:`parallel_map`.
    """
    items = list(items)
    total = len(items)
    submission = list(range(total)) if order is None else [int(i) for i in order]
    if len(submission) != total or set(submission) != set(range(total)):
        raise ValueError("order must be a permutation of the item indexes")
    if gap_target is not None and (chunk_bounds is None or incumbent_seed is None):
        raise ValueError("gap_target requires chunk_bounds and an incumbent_seed")
    return _Map(task, items, payload, submission, time_budget, chunk_bounds, gap_target).run(
        workers, shm, incumbent_seed
    )


@dataclass
class _Map:
    """The map engine behind both public adapters: one map and its stops."""

    task: Callable[[Any, Any], Any]
    items: list[Any]
    payload: Any
    submission: list[int]
    time_budget: float | None = None
    chunk_bounds: Sequence[float] | None = None
    gap_target: float | None = None
    handle: "incumbent_module.SerialIncumbent | None" = field(init=False, default=None)
    tracker: "incumbent_module.GapTracker | None" = field(init=False, default=None)
    deadline: float | None = field(init=False, default=None)
    deadline_hit: bool = field(init=False, default=False)

    def run(self, workers: int | None, shm: bool | None, seed: float | None) -> MapOutcome:
        """Arm the map's incumbent and stops, run it, then the shared bookkeeping.

        That is the stop counters and the ``det`` fingerprint of complete
        maps.  ``seed`` is the incumbent seed (``None``: an unpruned map).
        """
        workers = effective_workers(workers, len(self.items))
        if seed is not None:
            self.handle = incumbent_module.SerialIncumbent(seed)
            if self.gap_target is not None:
                self.tracker = incumbent_module.GapTracker(self.gap_target, self.handle)
        if self.time_budget is not None:
            self.deadline = time.monotonic() + float(self.time_budget)
        results = self.finish({}) if workers <= 1 else self.pooled(workers, shm)
        outcome = MapOutcome(
            results, self.deadline_hit, self.tracker is not None and self.tracker.hit
        )
        if outcome.deadline_hit:
            health.record(deadline_hits=1)
        if outcome.gap_target_hit:
            health.record(gap_target_hits=1)
        if len(results) == len(self.items):
            # DET-SAN fingerprints per-chunk results of complete, un-pruned
            # maps so a workers=1 vs workers=N divergence is caught at the
            # first differing chunk; no-op unless REPRO_SANITIZE enables det.
            det_san.record_map(
                self.task,
                self.items,
                self.payload,
                [results[index] for index in range(len(self.items))],
                workers=workers,
                pruned=seed is not None,
            )
        return outcome

    def stop(self, pending: Iterable[int]) -> bool:
        """The map's one stop predicate, asked before each chunk is run or submitted.

        True once the deadline has passed, or once the certified gap between
        the incumbent and the smallest bound over the ``pending`` chunks (not
        yet run or submitted) reaches the gap target.  Both are sticky.
        """
        if self.deadline is not None and time.monotonic() >= self.deadline:
            self.deadline_hit = True
            return True
        if self.tracker is None:
            return False
        assert self.chunk_bounds is not None
        return self.tracker.should_stop(min(float(self.chunk_bounds[i]) for i in pending))

    def pooled(self, workers: int, shm: bool | None) -> dict[int, Any]:
        """The map across the persistent pool, finished here if it degrades.

        The map's incumbent stays in the parent: the pool sends its value
        with each chunk and proposes each harvested chunk's best into it,
        and a degraded remainder keeps pruning against it.
        """
        stoppable = self.deadline is not None or self.tracker is not None
        spec, call_lease, fallback_spec = _resolve_transport(self.payload, shm)
        try:
            return pool_module.executor().map(
                self.task,
                self.items,
                spec,
                workers,
                self.handle,
                fallback_spec=fallback_spec,
                order=self.submission,
                stop=self.stop if stoppable else None,
            )
        except pool_module.PoolDegradedError as degraded:
            # The pool broke more times than the retry budget allows (the
            # map handles every other BrokenProcessPool itself).  Keep every
            # chunk that did complete and finish only the remainder in the
            # parent — identical results by the determinism contract,
            # degraded wall clock, all of it counted.
            health.record(serial_fallbacks=1)
            return self.finish(dict(degraded.completed))
        finally:
            if call_lease is not None:
                call_lease.close()

    def finish(self, completed: dict[int, Any]) -> dict[int, Any]:
        """The one in-process loop: serial maps and degraded maps' remainders.

        Runs the items not yet in ``completed`` in submission order with the
        map's incumbent bound as the calling thread's (for a degraded map,
        already tightened by every chunk the pool harvested; ``None`` for an
        unpruned map), so each chunk sees the improvements of its
        predecessors and no other map's.  :meth:`stop` is asked before each
        item with the items still pending.
        """
        pending = [index for index in self.submission if index not in completed]
        with incumbent_module.bound(self.handle):
            for position, index in enumerate(pending):
                if self.stop(islice(pending, position, None)):
                    break
                completed[index] = self.task(self.payload, self.items[index])
        return completed


def _pickled_spec(payload: Any) -> tuple:
    """``("pickled", sha1, blob)``: the payload bytes, memoized per worker."""
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return ("pickled", hashlib.sha1(blob).hexdigest(), blob)


def _resolve_transport(
    payload: Any, shm: bool | None
) -> tuple[tuple, Any, Callable[[], tuple] | None]:
    """Pick the payload transport: ``(spec, call_lease, fallback_spec)``.

    ``fallback_spec`` builds (lazily, at most once per map) the pickled spec
    a chunk re-rides on when its worker fails to attach a segment.
    """
    if shm is None:
        shm = _SHM_DEFAULT
    if payload is None:
        return ("none",), None, None
    # ``shm=False`` / ``REPRO_SHM=0`` must mean NO shared-memory segments at
    # all (e.g. containers with a tiny /dev/shm); context-free payloads never
    # take a segment either.
    if not (shm and shm_module.shm_available()) or shm_module.find_context(payload) is None:
        return _pickled_spec(payload), None, None
    descriptor, call_lease = shm_module.publish_payload(payload)
    return ("shm", descriptor), call_lease, lambda: _pickled_spec(payload)


def iter_chunk_bounds(total: int, chunk_rows: int) -> Iterator[tuple[int, int]]:
    """``(start, stop)`` bounds carving ``range(total)`` into chunks.

    Shared by the serial and sharded brute-force paths so both score the
    exact same batches — the precondition for bit-identical reductions.
    """
    chunk_rows = max(1, int(chunk_rows))
    for start in range(0, total, chunk_rows):
        yield start, min(start + chunk_rows, total)
