"""Per-map branch-and-bound incumbent for pruning.

The pruned brute-force enumerations (:mod:`repro.baselines.brute_force`)
skip a chunk row when an admissible lower bound on its cost exceeds the best
cost the map has *achieved* so far — the **incumbent**.  Exactness needs one
invariant: every value the incumbent ever holds is a cost achieved by a
feasible solution (the seed or a fully evaluated row), hence an upper bound
on the optimum.  A stale (too high) incumbent only prunes less.

Each map owns one :class:`SerialIncumbent`: a plain float that keeps the
minimum of what is proposed to it.

* A serial map binds it around its in-process loop, so each chunk sees the
  improvements of every chunk before it.
* A pooled map (:mod:`repro.runtime.pool`) keeps it in the parent and
  relays it: every chunk dispatch carries the map's current best as a plain
  float, the worker binds a fresh :class:`SerialIncumbent` at that value
  around the chunk task and returns the handle's final value with the
  result, and the parent proposes each harvested value into the map's
  incumbent.  The parent submits every chunk and harvests every result, so
  it sees every value a worker could publish; a chunk misses only the
  improvements of chunks that finished but are not yet harvested.

Nothing here is shared between processes or between maps: a worker is a
pure function of ``(payload, item, threshold)``.  The active handle is
**thread-local**: serve threads run solves concurrently in one process, and
each must prune against its own incumbent only.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import Iterator

from ..bounds.lower_bounds import prune_margin


class SerialIncumbent:
    """One map's incumbent: a float that keeps the minimum proposed cost."""

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
    ``gap_target`` is set; the map's stop predicate asks :meth:`should_stop`
    with the minimum admissible bound over the chunks still pending (not yet
    run or submitted).  Stopping
    is sound *at submission time*: in-flight chunks still drain (they can
    only lower the final cost) and the never-submitted chunks are exactly the
    ones the bound covers, so the final ``(cost, lower_bound, gap)``
    certificate is at least as tight as the gap that triggered the stop.
    The gap is monotone in both inputs — the incumbent only decreases and,
    under ascending-bound submission, the outstanding minimum only increases
    — so the first ``True`` stays ``True``.
    """

    __slots__ = ("target", "hit", "_incumbent")

    def __init__(self, target: float, incumbent: SerialIncumbent):
        self.target = float(target)
        self.hit = False
        self._incumbent = incumbent

    def certified(self, outstanding_bound: float) -> float:
        """The gap if submission stopped now (reads the map's incumbent)."""
        return certified_gap(self._incumbent.value(), outstanding_bound)

    def should_stop(self, outstanding_bound: float) -> bool:
        """True (sticky) once the certified gap reaches the target."""
        if not self.hit and self.certified(outstanding_bound) <= self.target:
            self.hit = True
        return self.hit


#: Per-thread active handle: serve threads solve concurrently in one process.
_LOCAL = threading.local()


def active() -> SerialIncumbent | None:
    """The incumbent handle bound to the calling thread's task, if any."""
    handle: SerialIncumbent | None = getattr(_LOCAL, "handle", None)
    return handle


@contextmanager
def bound(handle: SerialIncumbent | None) -> Iterator[SerialIncumbent | None]:
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
