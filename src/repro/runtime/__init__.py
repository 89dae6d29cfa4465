"""Process-parallel, cache-aware, zero-copy execution runtime.

Architecture
------------
The runtime is four coordinated tiers behind every heavy loop in the repo —
a **pool** tier that owns processes, a **shared-memory** tier that owns
context payload bytes, a **store** tier that owns built-context reuse, and an
**incumbent** tier that owns each map's branch-and-bound state:

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

* :mod:`repro.runtime.shm` — zero-copy payload publication.  A
  :class:`~repro.cost.context.CostContext` payload is pickled with protocol
  5 once, its arrays (supports, expected-distance matrix, sorted CDF
  columns, rank-merge tables) going into ``multiprocessing.shared_memory``
  segments as out-of-band buffers; a small picklable descriptor names the
  segments, and workers load the pickle over read-only views of them — so
  a chunk dispatch ships only the descriptor plus its work slice instead of
  a pickled payload.  Pickle is the one serialization: the pickled
  transport loads the same context state from in-band bytes.  Segments are
  refcounted explicitly (publisher-owned leases, tracker-registration
  suppressed on attach) and unlinked deterministically on cache eviction,
  shutdown, or exit — no resource-tracker leaks.  Publications are
  memoized per context (object identity + the version the context bumps
  whenever its state changes), so twenty calls over one memoized context
  publish once.

* :mod:`repro.runtime.parallel` — the front door: one map engine behind
  two adapters, :func:`~repro.runtime.parallel.parallel_map` (a result
  list, for trial loops) and
  :func:`~repro.runtime.parallel.parallel_map_ordered` (results by item
  index with a per-map incumbent, best-first submission and the deadline
  and gap-target stops, for the enumerators).  The engine picks the
  payload transport (shared memory for payloads that contain a context, a
  per-worker-memoized pickle for everything else and whenever shared
  memory is off), clamps the requested worker count to the CPUs actually
  available and to the item count (a one-CPU box or a one-item map runs
  serially; a pooled map of cheap items can still be slower than serial,
  see ROADMAP.md, item 1), and runs serial maps and degraded maps'
  remainders through one in-process loop.  Serial (``workers=1``) is the
  default; worker counts and transports change wall clock only, never
  results.

* :mod:`repro.runtime.store` — cross-call context reuse.
  :class:`~repro.runtime.store.ContextStore` memoizes ``CostContext``
  instances in an in-memory, content-fingerprint-keyed LRU.  Rebuild happens
  exactly when the dataset or candidate set changes.

* :mod:`repro.runtime.incumbent` — the branch-and-bound incumbent.  Each
  pruned map owns one :class:`~repro.runtime.incumbent.SerialIncumbent`,
  seeded with a heuristic feasible cost.  A serial map binds it around its
  in-process loop, per thread, so concurrent in-process solves never prune
  against each other.  A pooled map keeps it in the parent and relays it:
  each chunk dispatch carries its value at submission as a plain float, and
  the parent proposes each harvested chunk's best back into it, so one
  chunk's early find shrinks the work of every chunk submitted after it is
  harvested.  Exactness never depends on freshness: every value is an
  achieved feasible cost, i.e. an upper bound on the enumeration optimum,
  so a stale threshold only prunes less.  No synchronized
  ``multiprocessing`` primitive is involved.

Consumers: the three brute-force enumerators (sharded subset
chunks over shared-memory descriptors, pruned against each map's incumbent
via the admissible bound kernels on
:class:`~repro.cost.context.CostContext` — see
:mod:`repro.bounds.lower_bounds`), the Table-1 / ablation / sensitivity
trial loops (``workers`` field on their settings dataclasses, ``--workers``
on the CLI, ``--no-prune`` to force exhaustive references), and
``wang_zhang_1d``'s store-routed final scoring.  ``python -m repro bench``
measures every tier and writes the cross-PR perf trajectory.
"""

from .incumbent import SerialIncumbent
from .parallel import (
    available_workers,
    effective_workers,
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
    "parallel_map",
    "resolve_workers",
    "set_oversubscribe",
    "PersistentPool",
    "shutdown_runtime",
    "ContextStore",
    "DEFAULT_STORE_SIZE",
    "candidate_fingerprint",
    "dataset_fingerprint",
    "SerialIncumbent",
]
