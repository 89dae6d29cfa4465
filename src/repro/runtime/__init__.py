"""Process-parallel, cache-aware, zero-copy, bound-sharing execution runtime.

Architecture
------------
The runtime is four coordinated tiers behind every heavy loop in the repo —
a **pool** tier that owns processes, a **shared-memory** tier that owns
payload bytes, a **store** tier that owns built-context reuse, and an
**incumbent** tier that owns the cross-shard branch-and-bound state:

* :mod:`repro.runtime.pool` — the persistent worker pool.  One process-wide
  :class:`~repro.runtime.pool.PersistentPool` is spawned lazily on first
  parallel use, grown (never shrunk) when a later call asks for more
  workers, reused across brute-force calls and experiment trials, and shut
  down explicitly via :func:`~repro.runtime.pool.shutdown` (also at
  interpreter exit).  Fork/spawn hazards degrade safely: a stale executor
  inherited through ``fork`` is discarded and respawned, a dead worker
  (:class:`BrokenProcessPool`) costs only its lost chunks — the pool is
  rebuilt and they are resubmitted, and a map that exhausts its rebuild
  budget finishes in-process with identical results — and any parallel
  request made *inside* a worker runs serially.

* :mod:`repro.runtime.shm` — zero-copy payload publication.  The arrays of
  a :class:`~repro.cost.context.CostContext` payload (supports,
  expected-distance matrix, sorted CDF columns, rank-merge tables) are
  flattened into ``multiprocessing.shared_memory`` segments once, described
  by a small picklable descriptor, and attached by workers as read-only
  NumPy views — so a chunk dispatch ships only the descriptor plus its work
  slice instead of a pickled payload.  Segments are refcounted explicitly
  (publisher-owned leases, tracker-registration suppressed on attach) and
  unlinked deterministically on cache eviction, shutdown, or exit — no
  resource-tracker leaks.  Publications are memoized per context (object
  identity + materialized parts + mutation version), so twenty calls over
  one memoized context publish once.

* :mod:`repro.runtime.parallel` — the front door: one map engine behind
  two adapters, :func:`~repro.runtime.parallel.parallel_map` (a result
  list, for trial loops) and
  :func:`~repro.runtime.parallel.parallel_map_ordered` (results by item
  index with best-first submission and a gap-target stop, for the
  enumerators).  The engine picks the cheapest transport (shared memory for
  context payloads, a blob segment for settings, a per-worker-memoized
  pickle with shared memory off), clamps the requested worker count to the
  CPUs actually available and to the amount of work (``workers=N`` is never
  slower than serial on a small box), and runs serial maps and degraded
  maps' remainders through one in-process loop.  Serial (``workers=1``) is
  the default; worker counts and transports change wall clock only, never
  results.

* :mod:`repro.runtime.store` — cross-call and cross-process context reuse.
  :class:`~repro.runtime.store.ContextStore` memoizes ``CostContext``
  instances in a content-fingerprint-keyed LRU and, when a spill directory
  is configured (``spill_dir`` or ``REPRO_CONTEXT_SPILL``), writes built
  contexts through to disk under the same fingerprints so separate
  processes — repeated CLI invocations — reuse each other's builds.  The
  spill directory is bounded by age and total size (``spill_max_bytes`` /
  ``REPRO_CONTEXT_SPILL_MAX``, ``spill_max_age_seconds`` /
  ``REPRO_CONTEXT_SPILL_MAX_AGE``; stat-only, oldest-first) and
  :meth:`~repro.runtime.store.ContextStore.scan_spill_dir` deep-cleans
  corrupt or version-mismatched files via the same tag check the read path
  uses.  Rebuild happens exactly when the dataset or candidate set changes.

* :mod:`repro.runtime.incumbent` — the shared branch-and-bound incumbent.
  One process-wide slot (a ``multiprocessing.Value`` double plus a
  generation counter sharing its lock) is created before the pool spawns —
  inherited by ``fork`` workers, shipped through the pool initializer under
  ``spawn`` — and each pruned pooled map activates a fresh generation
  seeded with a heuristic feasible cost.  The
  shared-incumbent protocol: a small picklable token rides in every chunk
  dispatch tuple; chunk tasks read the threshold **once per chunk** (under
  the slot lock — torn reads could over-prune) and publish achieved costs
  through a lock-light compare-and-swap (unlocked peek, locked re-check
  and write), so one shard's early find shrinks every other shard's work.
  Exactness never depends on freshness: every stored value is an achieved
  feasible cost, i.e. an upper bound on the enumeration optimum, so a
  stale read only prunes less.  Serial maps thread a plain in-process
  incumbent through the identical chunk loop, bound per thread so
  concurrent in-process solves never prune against each other.

Consumers: the three brute-force enumerators (sharded subset/assignment
chunks over shared-memory descriptors, pruned against the shared incumbent
via the admissible bound kernels on
:class:`~repro.cost.context.CostContext` — see
:mod:`repro.bounds.lower_bounds`), the Table-1 / ablation / sensitivity
trial loops (``workers`` field on their settings dataclasses, ``--workers``
on the CLI, ``--no-prune`` to force exhaustive references), and
``wang_zhang_1d``'s store-routed final scoring.  ``python -m repro bench``
measures every tier and writes the cross-PR perf trajectory.
"""

from .incumbent import IncumbentToken, SerialIncumbent, SharedIncumbent
from .parallel import (
    available_workers,
    effective_workers,
    iter_chunk_bounds,
    parallel_map,
    resolve_workers,
    set_oversubscribe,
)
from .pool import PersistentPool, shutdown as shutdown_runtime
from .store import (
    DEFAULT_STORE_SIZE,
    ContextStore,
    candidate_fingerprint,
    dataset_fingerprint,
)

__all__ = [
    "available_workers",
    "effective_workers",
    "iter_chunk_bounds",
    "parallel_map",
    "resolve_workers",
    "set_oversubscribe",
    "PersistentPool",
    "shutdown_runtime",
    "ContextStore",
    "DEFAULT_STORE_SIZE",
    "candidate_fingerprint",
    "dataset_fingerprint",
    "IncumbentToken",
    "SerialIncumbent",
    "SharedIncumbent",
]
