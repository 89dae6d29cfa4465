"""Process-parallel execution runtime: one map engine over the worker pool.

Every enumeration- and trial-heavy path in the repo shares one execution
shape: a *payload* that is expensive to build or ship (an
:class:`~repro.cost.context.CostContext` with its pinned supports and sorted
CDF columns, or an experiment settings object), plus a stream of cheap,
independent *work items* (chunks of candidate subsets, trial descriptors).
One private engine runs that shape serially (``workers <= 1``, the default
— bit-identical to calling the task function in a plain loop) or across the
persistent process pool, and two public adapters expose it:

* :func:`parallel_map` returns a plain list (the trial loops and the public
  API);
* :func:`parallel_map_ordered` returns a :class:`MapOutcome` keyed by item
  index and adds best-first submission order plus a gap-target stop (the
  branch-and-bound enumerators of :mod:`repro.baselines.brute_force`).

Payload transport is resolved once per map, cheapest first:

* **shared memory** (the default for payloads containing a ``CostContext``):
  the payload's arrays are published once to
  :mod:`multiprocessing.shared_memory` via :mod:`repro.runtime.shm` and each
  chunk dispatch carries only a small descriptor plus its work slice; the
  persistent pool's workers attach zero-copy and memoize the attachment, so
  repeated calls over a memoized context ship the payload **zero** times;
* **blob segment** for context-free payloads (experiment settings): the
  pickle bytes sit in one shared-memory segment, unpickled once per worker;
* **pickled** when shared memory is unavailable or disabled: the pre-pickled
  payload rides with each dispatch but is unpickled once per worker, memoized
  by its sha1.

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
``time_budget=SECONDS`` turns a map into an anytime computation: chunk
submission stops once the monotonic deadline passes, in-flight work drains,
and the completed chunks come back (:func:`parallel_map` returns the longest
completed prefix — a short list is how callers detect truncation).  An
ordered map with a ``gap_target`` stops the same way once the certified gap
between the live incumbent and the outstanding chunk bounds reaches the
target.  Callers pair the completed chunks with an admissible lower bound
over the chunks never run to certify ``(cost, lower_bound, gap)``; see
:mod:`repro.baselines.brute_force`.  Both stops behave the same on every
transport, serially and in a degraded map's remainder.  Truncated maps are
exempt from ``det`` fingerprinting the same way pruned maps are: *which*
chunks complete is timing-dependent by design, while each returned chunk
value is still bit-identical.

Serial fallback (never slower than ``workers=1``)
-------------------------------------------------
Requesting ``workers=N`` is an *upper bound*, not a demand: the effective
worker count is clamped to :func:`available_workers`, so on a single-CPU box
every call runs serially and never pays pool or pickling overhead (the
``BENCH_PR3.json`` 0.76x regression).  Work below a threshold
(``len(items) < min_items``) also runs serially — too few chunks cannot
amortize a dispatch.  Tests and benchmarks that must exercise the pool on
small machines enable :func:`set_oversubscribe` (or set
``REPRO_OVERSUBSCRIBE=1``).

Determinism contract
--------------------
``parallel_map(fn, items, workers=w)`` returns ``[fn(payload, item) for item
in items]`` for every ``w``, on every transport: the same chunk boundaries
are used, every chunk is computed by the same NumPy kernels on the same
bytes (shared-memory views alias the publisher's arrays exactly), and the
parent reduces in item order.  Only wall-clock time may differ — never a
returned value.

Pruned maps (``incumbent_seed`` set) relax this one notch by design: tasks
may *skip* work whose admissible lower bound exceeds the shared incumbent
(:mod:`repro.runtime.incumbent`), and which rows get skipped depends on
cross-shard timing — but the callers' reductions are constructed so the
reduced result is still bit-identical at every worker count (see the
exactness contract in :mod:`repro.baselines.brute_force`).  The in-process
loop binds exactly its own map's incumbent in the calling thread (none for
an unpruned map), so serial skip sets are deterministic too, and concurrent
solves in different threads never prune against each other.

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
from typing import Any, Callable, Iterator, Sequence, TypeVar

from .._env import env_flag
from ..sanitize import det_san
from . import health
from . import incumbent as incumbent_module
from . import pool as pool_module
from . import shm as shm_module
from .pool import MapOutcome

T = TypeVar("T")
R = TypeVar("R")

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


def effective_workers(workers: int | None, item_count: int, min_items: int = DEFAULT_MIN_ITEMS) -> int:
    """The worker count a call will actually use after every fallback rule.

    Clamps to the item count and — unless oversubscription is enabled — the
    CPU count, and collapses to serial below the item threshold.  This is
    the single place the "never slower than ``workers=1``" guarantee lives.
    """
    workers = resolve_workers(workers)
    if workers <= 1:
        return 1
    if not _OVERSUBSCRIBE:
        workers = min(workers, available_workers())
    workers = min(workers, item_count)
    if item_count < max(2, int(min_items)):
        return 1
    return max(1, workers)


def parallel_map(
    task: Callable[[Any, T], R],
    items: Sequence[T],
    *,
    payload: Any = None,
    workers: int | None = 1,
    shm: bool | None = None,
    min_items: int = DEFAULT_MIN_ITEMS,
    incumbent_seed: float | None = None,
    time_budget: float | None = None,
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
        Shipped to the workers once — via a shared-memory descriptor, a
        blob segment, or a pickle memoized per worker — never rebuilt per
        work item.  Build expensive state (contexts, pinned supports) here,
        not per item.
    workers:
        Upper bound on processes; clamped to the CPU count and the item
        count (see the module docstring's serial-fallback rules).  ``<= 1``
        (the default) runs the loop in-process with no multiprocessing
        import cost and bit-identical results.
    shm:
        Force shared-memory payload transport on or off; ``None`` uses the
        default (on, overridable via the ``REPRO_SHM`` environment
        variable).  Results are identical either way.
    min_items:
        Fewest items worth dispatching to a pool; below it the call is
        serial.
    incumbent_seed:
        Activate the shared branch-and-bound incumbent
        (:mod:`repro.runtime.incumbent`) for this map, starting at this
        value (``inf`` for "no heuristic seed").  Chunk tasks reach it via
        :func:`repro.runtime.incumbent.active` to prune work and publish
        achieved costs; serial execution threads the identical incumbent
        through the in-process loop.  ``None`` (the default) binds no
        incumbent, so tasks see none.  Pruning changes *which* rows tasks
        evaluate, never the reduced result — see the exactness contract in
        :mod:`repro.baselines.brute_force`.
    time_budget:
        Wall-clock budget in seconds for the whole map.  When it runs out,
        submission stops, in-flight chunks drain, and the longest completed
        *prefix* of results is returned — possibly empty, always shorter
        than ``items`` (which is how callers detect truncation).  ``None``
        (the default) never truncates.

    Notes
    -----
    Results are deterministic across worker counts and payload transports
    (see the module docstring's determinism contract).  Exceptions raised by
    ``task`` propagate to the caller under every execution mode.
    """
    items = list(items)
    outcome = _Map(task, items, payload, list(range(len(items))), time_budget).run(
        workers, shm, min_items, incumbent_seed
    )
    prefix: list[R] = []
    for index in range(len(items)):
        if index not in outcome.results:
            break
        prefix.append(outcome.results[index])
    return prefix


def parallel_map_ordered(
    task: Callable[[Any, T], R],
    items: Sequence[T],
    *,
    payload: Any = None,
    workers: int | None = 1,
    shm: bool | None = None,
    min_items: int = DEFAULT_MIN_ITEMS,
    incumbent_seed: float | None = None,
    time_budget: float | None = None,
    order: Sequence[int] | None = None,
    chunk_bounds: Sequence[float] | None = None,
    gap_target: float | None = None,
) -> MapOutcome:
    """Best-first :func:`parallel_map`: priority submission + gap-target stop.

    The enumerators' map.  ``order`` is a permutation of item indexes
    (ascending admissible chunk bound — the caller computes the bounds up
    front; ``None`` submits in item order); chunks are *submitted* in that
    order while results come back keyed by original index, so the final
    reduction is order-independent.  ``chunk_bounds[i]`` must lower-bound
    every solution in item ``i``; with ``gap_target`` set (which needs both
    the bounds and an ``incumbent_seed``), submission stops as soon as the
    certified gap between the live incumbent and the minimum outstanding
    chunk bound reaches the target
    (:class:`repro.runtime.incumbent.GapTracker`) — exactly like a
    ``time_budget`` deadline, and combinable with one.  Every other
    parameter means what it means for :func:`parallel_map`.
    """
    items = list(items)
    total = len(items)
    submission = list(range(total)) if order is None else [int(i) for i in order]
    if len(submission) != total or set(submission) != set(range(total)):
        raise ValueError("order must be a permutation of the item indexes")
    if gap_target is not None and (chunk_bounds is None or incumbent_seed is None):
        raise ValueError("gap_target requires chunk_bounds and an incumbent_seed")
    return _Map(task, items, payload, submission, time_budget, chunk_bounds, gap_target).run(
        workers, shm, min_items, incumbent_seed
    )


@dataclass
class _Map:
    """The map engine behind both public adapters: one map's fixed inputs."""

    task: Callable[[Any, Any], Any]
    items: list[Any]
    payload: Any
    submission: list[int]
    time_budget: float | None
    chunk_bounds: Sequence[float] | None = None
    gap_target: float | None = None
    deadline: float | None = field(init=False, default=None)

    def run(
        self, workers: int | None, shm: bool | None, min_items: int, seed: float | None
    ) -> MapOutcome:
        """Run serially or pooled, then the bookkeeping every path shares.

        That is the stop counters and the ``det`` fingerprint of complete
        maps.  ``seed`` is the incumbent seed (``None``: an unpruned map).
        """
        workers = effective_workers(workers, len(self.items), min_items)
        if self.time_budget is not None:
            self.deadline = time.monotonic() + float(self.time_budget)
        outcome = self.serial(seed) if workers <= 1 else self.pooled(workers, shm, seed)
        if outcome.deadline_hit:
            health.record(deadline_hits=1)
        if outcome.gap_target_hit:
            health.record(gap_target_hits=1)
        if len(outcome.results) == len(self.items):
            # DET-SAN fingerprints per-chunk results of complete, un-pruned
            # maps so a workers=1 vs workers=N divergence is caught at the
            # first differing chunk; no-op unless REPRO_SANITIZE enables det.
            det_san.record_map(
                self.task,
                self.items,
                self.payload,
                [outcome.results[index] for index in range(len(self.items))],
                workers=workers,
                pruned=seed is not None,
            )
        return outcome

    def _tracker(
        self, handle: "incumbent_module.IncumbentHandle | None"
    ) -> "incumbent_module.GapTracker | None":
        if self.gap_target is None or handle is None:
            return None
        return incumbent_module.GapTracker(self.gap_target, handle)

    def serial(self, seed: float | None) -> MapOutcome:
        """The whole map in-process, under a fresh serial incumbent."""
        handle = None if seed is None else incumbent_module.SerialIncumbent(seed)
        return self.finish({}, handle, self._tracker(handle))

    def pooled(self, workers: int, shm: bool | None, seed: float | None) -> MapOutcome:
        """The map across the persistent pool, finished here if it degrades."""
        token = None if seed is None else incumbent_module.activate(seed)
        handle = incumbent_module.token_handle(token)
        tracker = self._tracker(handle)
        stop_check: Callable[[list[int]], bool] | None = None
        if tracker is not None:
            assert self.chunk_bounds is not None
            bounds: Sequence[float] = self.chunk_bounds
            gap: incumbent_module.GapTracker = tracker

            def _stop_check(pending_indexes: list[int]) -> bool:
                return gap.should_stop(min(float(bounds[i]) for i in pending_indexes))

            stop_check = _stop_check

        spec, call_lease, fallback_spec = _resolve_transport(self.payload, shm)
        try:
            return pool_module.executor().map(
                self.task,
                self.items,
                spec,
                workers,
                token,
                fallback_spec=fallback_spec,
                deadline=self.deadline,
                order=self.submission,
                stop_check=stop_check,
            )
        except pool_module.PoolDegradedError as degraded:
            # The pool broke more times than the retry budget allows (the
            # map handles every other BrokenProcessPool itself).  Keep every
            # chunk that did complete and finish only the remainder in the
            # parent — identical results by the determinism contract,
            # degraded wall clock, all of it counted.
            health.record(serial_fallbacks=1)
            return self.finish(dict(degraded.completed), handle, tracker)
        finally:
            if call_lease is not None:
                call_lease.close()

    def finish(
        self,
        completed: dict[int, Any],
        handle: "incumbent_module.IncumbentHandle | None",
        tracker: "incumbent_module.GapTracker | None",
    ) -> MapOutcome:
        """The one in-process loop: serial maps and degraded maps' remainders.

        Runs the items not yet in ``completed`` in submission order with
        ``handle`` bound as the calling thread's incumbent — a fresh serial
        incumbent for a serial pruned map, the parent's view of the shared
        slot for a degraded one, ``None`` for an unpruned map — so each chunk
        sees exactly the improvements of its predecessors and no other map's.
        The deadline and gap stops fire between chunks.  The outstanding
        bound at each position is the suffix minimum of the chunk bounds,
        which conservatively includes already completed chunks — a smaller
        outstanding bound only *delays* the gap stop, never unsoundly
        triggers it.
        """
        submission = self.submission
        suffix = [float("inf")] * (len(submission) + 1)
        if tracker is not None and self.chunk_bounds is not None:
            for position in range(len(submission) - 1, -1, -1):
                chunk_bound = float(self.chunk_bounds[submission[position]])
                suffix[position] = min(chunk_bound, suffix[position + 1])
        deadline_hit = False
        with incumbent_module.bound(handle):
            for position, index in enumerate(submission):
                if index in completed:
                    continue
                if self.deadline is not None and time.monotonic() >= self.deadline:
                    deadline_hit = True
                    break
                if tracker is not None and tracker.should_stop(suffix[position]):
                    break
                completed[index] = self.task(self.payload, self.items[index])
        return MapOutcome(completed, deadline_hit, tracker is not None and tracker.hit)


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
    # all (e.g. containers with a tiny /dev/shm), not just "no zero-copy
    # context" — every transport below honors it.
    if not (shm and shm_module.shm_available()):
        return _pickled_spec(payload), None, None
    if shm_module.find_context(payload) is not None:
        descriptor, call_lease = shm_module.publish_payload(payload)
        spec: tuple = ("shm", descriptor)
    else:
        # Context-free payload (settings, policies): park the pickle in one
        # segment so its bytes ship once, not once per item.
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        blob_descriptor, call_lease = shm_module.publish_blob(blob)
        spec = ("blob", blob_descriptor)
    return spec, call_lease, lambda: _pickled_spec(payload)


def iter_chunk_bounds(total: int, chunk_rows: int) -> Iterator[tuple[int, int]]:
    """``(start, stop)`` bounds carving ``range(total)`` into chunks.

    Shared by the serial and sharded brute-force paths so both score the
    exact same batches — the precondition for bit-identical reductions.
    """
    chunk_rows = max(1, int(chunk_rows))
    for start in range(0, total, chunk_rows):
        yield start, min(start + chunk_rows, total)
