"""Cross-shard shared incumbent for branch-and-bound pruning.

The pruned brute-force enumerations (:mod:`repro.baselines.brute_force`)
skip a chunk row when an admissible lower bound on its cost exceeds the best
cost any shard has *achieved* so far — the **incumbent**.  Serially that is
one float threaded through the chunk loop; across a worker pool it must be a
value every worker can read cheaply and tighten safely, because one shard
finding a good subset early should shrink every other shard's work.

This module owns that value.  The design constraints:

* **correctness does not depend on freshness** — a stale (too high)
  incumbent only prunes less; exactness needs just one invariant, that every
  value ever stored is a cost *achieved* by a feasible solution (the seed or
  a fully evaluated row), hence an upper bound on the optimum;
* **reads must never tear** — a torn read could yield garbage *below* the
  optimum and over-prune, so the threshold read takes the slot lock.  Chunk
  tasks read once per chunk (``handle.value()``), which keeps the lock out
  of the per-row hot path entirely;
* **writes are lock-light compare-and-swap** — a proposal first peeks at the
  raw value without the lock (a stale peek costs at most one missed
  publication, never correctness) and only acquires the lock to re-check and
  write when it still looks like an improvement.  Improvements are rare by
  construction (costs of enumerated rows rarely descend), so the lock is
  effectively uncontended.

Topology
--------
One process-wide *slot* (a ``multiprocessing.Value('d')`` plus a generation
counter sharing its lock) is created in the parent **before** the persistent
pool spawns, so fork workers inherit it and spawn workers receive it through
the pool initializer (:mod:`repro.runtime.pool` passes
:func:`slot_handles` / :func:`adopt_slot`).  Each pooled map
(:mod:`repro.runtime.parallel`) that wants pruning activates a fresh
*generation* with a seed value and ships a small picklable
:class:`IncumbentToken` inside every chunk dispatch tuple; workers bind the
token to the inherited slot and expose it to the chunk task via
:func:`active`.  A generation mismatch (a stale bind) degrades to the
token's seed — less pruning, identical results.  Serial execution binds a
plain in-process :class:`SerialIncumbent` instead and never touches
``multiprocessing`` at all.  The active handle is **thread-local**: serve
threads run serial solves concurrently in one process, and each must prune
against its own incumbent only.
"""

from __future__ import annotations

import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from ..bounds.lower_bounds import prune_margin
from ..sanitize import lock_san


@dataclass(frozen=True)
class IncumbentToken:
    """Picklable reference to one activation of the shared slot.

    Rides inside every chunk dispatch tuple of a pruned map.  ``seed`` is the
    incumbent value at activation (``inf`` when no heuristic seed exists), a
    floor the handle can always fall back to when the slot is missing or its
    generation moved on.
    """

    generation: int
    seed: float


class SerialIncumbent:
    """In-process incumbent for serial maps: one float, no multiprocessing."""

    __slots__ = ("_best",)

    def __init__(self, seed: float):
        self._best = float(seed)

    def value(self) -> float:
        """The current pruning threshold."""
        return self._best

    def propose(self, cost: float) -> None:
        """Record an achieved cost; keeps the minimum."""
        cost = float(cost)
        if cost < self._best:
            self._best = cost


class SharedIncumbent:
    """Worker-side (or parent-side) view of the shared slot for one token.

    Tracks a process-local best alongside the shared value, so pruning keeps
    working at full strength even if another generation took the slot over.
    """

    __slots__ = ("_slot", "_generation", "_best")

    def __init__(self, slot: "_Slot", token: IncumbentToken):
        self._slot = slot
        self._generation = token.generation
        self._best = float(token.seed)

    def value(self) -> float:
        """The freshest safe threshold: min of local best and the slot.

        Takes the slot lock — torn reads of the double could fabricate a
        value below the optimum and over-prune, which would break exactness.
        Chunk tasks call this once per chunk, so the lock never sits on a
        per-row path.
        """
        slot = self._slot
        # ``Synchronized.value`` would re-acquire the (non-reentrant) slot
        # lock; inside a held-lock section the raw ctypes objects are the
        # right access path.
        with slot.lock:
            if slot.generation.get_obj().value == self._generation:
                shared = slot.value.get_obj().value
            else:  # stale bind: fall back to what this process achieved
                shared = self._best
        if shared < self._best:
            self._best = shared
        return self._best

    def propose(self, cost: float) -> None:
        """Publish an achieved cost if it improves the shared incumbent.

        Lock-light: the unlocked peek may be stale (costing a missed
        publication or a redundant lock acquire) but the write itself
        re-checks under the lock, so the slot only ever decreases and only
        within the right generation.
        """
        cost = float(cost)
        if cost >= self._best:
            return
        self._best = cost
        slot = self._slot
        # repro: noqa[LOCK-DISCIPLINE] -- documented lock-light CAS: a torn/stale peek only costs a redundant lock acquire; the write re-checks under slot.lock below
        raw_value = slot.value.get_obj()
        if cost < raw_value.value:  # unlocked peek: stale is harmless here
            with slot.lock:
                if slot.generation.get_obj().value == self._generation and cost < raw_value.value:
                    raw_value.value = cost


#: Anything chunk tasks can prune against.
IncumbentHandle = SerialIncumbent | SharedIncumbent


def certified_gap(cost: float, outstanding_bound: float) -> float:
    """The sound relative optimality gap ``(cost - lb) / lb``.

    ``lb = min(cost, outstanding_bound) - prune_margin(...)`` is a valid
    lower bound on the optimum whenever ``cost`` is an achieved feasible
    cost and ``outstanding_bound`` lower-bounds every solution not yet
    (fully) evaluated: the optimum either lies in the evaluated set (then
    ``optimum <= cost`` and ``optimum >= `` the evaluated rows' admissible
    bounds, which the enumeration only prunes above ``cost`` + margin) or in
    the outstanding set (then ``optimum >= outstanding_bound``); subtracting
    the :func:`~repro.bounds.lower_bounds.prune_margin` slack absorbs the
    cross-kernel rounding exactly as pruning itself does.  The margin keeps
    the gap strictly positive while anything is outstanding, which is what
    makes ``gap_target=0`` provably never stop early (bit-identity).

    ``inf`` when no incumbent exists yet or the bound is non-positive (a
    non-positive denominator cannot certify a relative gap); ``0.0`` only
    once nothing is outstanding (callers pass ``outstanding_bound=inf``).
    """
    cost = float(cost)
    outstanding_bound = float(outstanding_bound)
    if outstanding_bound == float("inf"):
        # Nothing outstanding: the enumeration is complete, every pruned row
        # provably costs at least the incumbent, so the cost is the optimum.
        return 0.0
    lower = min(cost, outstanding_bound)
    if not math.isfinite(lower):
        return float("inf")
    lower -= prune_margin(lower)
    if cost <= lower:
        return 0.0
    if lower <= 0.0:
        return float("inf")
    return (float(cost) - lower) / lower


class GapTracker:
    """Live optimality-gap monitor for one best-first enumeration.

    Constructed by the map engine of :mod:`repro.runtime.parallel` when a
    ``gap_target`` is set; the submission loop asks :meth:`should_stop` with
    the minimum admissible bound over the chunks not yet submitted.  Stopping
    is sound *at submission time*: in-flight chunks still drain (they can
    only lower the final cost) and the never-submitted chunks are exactly the
    ones the bound covers, so the final ``(cost, lower_bound, gap)``
    certificate is at least as tight as the gap that triggered the stop.
    The gap is monotone in both inputs — the incumbent only decreases and,
    under ascending-bound submission, the outstanding minimum only increases
    — so the first ``True`` stays ``True``.
    """

    __slots__ = ("target", "hit", "_incumbent")

    def __init__(self, target: float, incumbent: IncumbentHandle):
        self.target = float(target)
        self.hit = False
        self._incumbent = incumbent

    def certified(self, outstanding_bound: float) -> float:
        """The gap if submission stopped now (reads the live incumbent)."""
        return certified_gap(self._incumbent.value(), outstanding_bound)

    def should_stop(self, outstanding_bound: float) -> bool:
        """True (sticky) once the certified gap reaches the target."""
        if not self.hit and self.certified(outstanding_bound) <= self.target:
            self.hit = True
        return self.hit


class _Slot:
    """The process-wide shared state: value + generation sharing one lock."""

    __slots__ = ("value", "generation", "lock", "pid")

    def __init__(self, value, generation, lock, pid: int):
        self.value = value
        self.generation = generation
        self.lock = lock
        self.pid = pid


_SLOT: _Slot | None = None
#: Per-thread active handle: serve threads solve concurrently in one process.
_LOCAL = threading.local()


def _fork_preferred_context():
    """Same start-method preference as :mod:`repro.runtime.pool`.

    Duplicated rather than imported to keep this module import-light and
    cycle-free (``pool`` imports ``incumbent``).
    """
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def ensure_slot() -> _Slot:
    """The parent's slot, created lazily and re-created after a fork.

    Must run before the persistent pool spawns (the pool initializer ships
    the slot to the workers); :meth:`repro.runtime.pool.PersistentPool.ensure`
    guarantees that ordering.
    """
    global _SLOT
    if _SLOT is None or _SLOT.pid != os.getpid():
        context = _fork_preferred_context()
        lock = context.Lock()
        # ``Value`` needs the *raw* primitive (multiprocessing internals
        # re-wrap it); only the slot's own ``with slot.lock:`` uses go
        # through the (possibly LOCK-SAN-traced) wrapper.
        value = context.Value("d", float("inf"), lock=lock)
        generation = context.Value("q", 0, lock=lock)
        _SLOT = _Slot(
            value=value,
            generation=generation,
            lock=lock_san.wrap_lock(lock, "incumbent.slot"),
            pid=os.getpid(),
        )
    return _SLOT


def slot_handles() -> tuple:
    """The picklable pieces a pool initializer ships to spawn workers."""
    slot = ensure_slot()
    # Ship the raw lock: the TracedLock proxy is deliberately unpicklable;
    # each worker re-wraps its copy in adopt_slot.
    return (slot.value, slot.generation, lock_san.unwrap_lock(slot.lock))


def adopt_slot(handles: tuple | None) -> None:
    """Worker-side: install the slot received through the pool initializer."""
    global _SLOT
    if handles is None:
        return
    value, generation, lock = handles
    _SLOT = _Slot(
        value=value,
        generation=generation,
        lock=lock_san.wrap_lock(lock, "incumbent.slot"),
        pid=os.getpid(),
    )


def activate(seed: float) -> IncumbentToken:
    """Start a new generation at ``seed``; returns the token chunks carry.

    ``seed`` must be either ``inf`` or a cost achieved by a feasible
    solution of the enumeration being pruned — that is the whole exactness
    contract.
    """
    slot = ensure_slot()
    with slot.lock:
        raw_generation = slot.generation.get_obj()
        raw_generation.value += 1
        slot.value.get_obj().value = float(seed)
        generation = int(raw_generation.value)
    return IncumbentToken(generation=generation, seed=float(seed))


def token_handle(token: IncumbentToken | None) -> IncumbentHandle | None:
    """The handle a chunk task prunes through for ``token`` in this process.

    ``None`` for unpruned maps; a :class:`SharedIncumbent` on the slot when
    this process has one; otherwise a :class:`SerialIncumbent` at the
    token's seed (less pruning, identical results).
    """
    if token is None:
        return None
    if _SLOT is not None:
        return SharedIncumbent(_SLOT, token)
    return SerialIncumbent(token.seed)


def bind_token(token: IncumbentToken | None) -> None:
    """Make ``token`` the calling thread's active incumbent (``None`` unbinds)."""
    _LOCAL.handle = token_handle(token)


def active() -> IncumbentHandle | None:
    """The incumbent handle bound to the calling thread's task, if any."""
    handle: IncumbentHandle | None = getattr(_LOCAL, "handle", None)
    return handle


@contextmanager
def bound(handle: IncumbentHandle | None) -> Iterator[IncumbentHandle | None]:
    """Bind exactly ``handle`` (``None`` included) around a block of tasks.

    The binding is per thread, and whatever was active before is restored on
    exit, so a map nested inside another task (pool workers degrade nested
    maps to serial) cannot clobber the outer incumbent, and concurrent
    solves in different threads (``repro serve``) never see each other's.
    """
    previous = active()
    _LOCAL.handle = handle
    try:
        yield handle
    finally:
        _LOCAL.handle = previous


@contextmanager
def serial_incumbent(seed: float) -> Iterator[SerialIncumbent]:
    """Bind a fresh :class:`SerialIncumbent` around an in-process loop."""
    handle = SerialIncumbent(seed)
    with bound(handle):
        yield handle
