"""Lower bounds on the optimal expected cost.

Empirical approximation ratios need a denominator.  Using a *heuristic* "best
found" solution would under-state the ratio, so the experiment harness
divides by provable lower bounds instead; any measured ratio is then an
upper bound on the true ratio and can be compared honestly against the
theorems' guarantees.

The bounds all come from the paper's own lemmas:

* **per-point bound** (Lemma 3.2): for any centers and assignment,
  ``EcostA >= sum_j p_ij d(P_ij, A(P_i)) >= min_q E[d(P_i, q)]`` — the best
  expected distance any single point can achieve, maximised over points.
* **expected-point bound** (Lemma 3.4): ``cost_{P̄}(C) <= EcostA(C)`` for any
  centers/assignment, so the optimal deterministic k-center value of the
  expected points lower-bounds the optimal unrestricted assigned cost.
* **1-center bound** (Lemma 3.6): ``cost_{P̃}(C) <= 2 EcostA(C)``, so half the
  optimal deterministic k-center value of the per-point 1-centers is a lower
  bound in any metric space.

The deterministic optima themselves are lower-bounded by ``r_G / 2`` (the
Gonzalez guarantee) or computed exactly for small instances, keeping the
whole chain a valid bound.

Branch-and-bound subset bounds
------------------------------
The same Lemma 3.2 argument, applied *per candidate subset* instead of per
instance, is what drives the pruned brute-force enumerations
(:mod:`repro.baselines.brute_force`): for any assignment into subset ``S``,
``EcostA(S) >= max_i min_{c in S} E[d(P_i, c)]``, and for the unassigned
objective ``Ecost(S) >= max_i E[min_{c in S} d(P_i, c)]``.  The vectorized
chunk kernels live on :class:`~repro.cost.context.CostContext` (they read
its cached expected matrix / pinned supports); this module re-exports them
under their lemma-facing names together with :func:`prune_margin`, the
floating-point slack every incumbent comparison applies.  A subset (or
assignment row) is pruned only when its bound exceeds the incumbent by more
than the margin, so bound-kernel rounding can only ever *reduce* pruning,
never change a result.
"""

from __future__ import annotations

import numpy as np

from ..cost.context import CostContext

from ..deterministic.exact import (
    MAX_EXACT_PARTITION_POINTS,
    exact_euclidean_kcenter,
)
from ..deterministic.gonzalez import gonzalez_kcenter
from ..geometry.median import median_objective
from ..uncertain.dataset import UncertainDataset
from ..uncertain.reduction import one_center_reduction


def per_point_lower_bound(dataset: UncertainDataset) -> float:
    """``max_i min_q E[d(P_i, q)]`` — Lemma 3.2 applied point-wise.

    For Euclidean-style metrics the inner minimum is the weighted
    Fermat–Weber value (computed by Weiszfeld); for finite metrics it is the
    minimum over all elements.
    """
    metric = dataset.metric
    if metric.supports_expected_point:
        return _median_lower_bound(dataset, one_center_reduction(dataset))
    best = 0.0
    candidates = metric.candidate_centers(dataset.all_locations())
    for point in dataset.points:
        expected = point.expected_distances_to_many(candidates, metric)
        best = max(best, float(expected.min()))
    return best


def _median_lower_bound(dataset: UncertainDataset, medians: np.ndarray) -> float:
    """The Lemma 3.2 bound from each point's weighted geometric median."""
    best = 0.0
    for point, median in zip(dataset.points, medians):
        best = max(best, float(median_objective(point.locations, median, point.probabilities)))
    return best


def _deterministic_lower_bound(points: np.ndarray, k: int, dataset: UncertainDataset) -> float:
    """A lower bound on the deterministic k-center optimum of ``points``."""
    metric = dataset.metric
    if k >= points.shape[0]:
        return 0.0
    if metric.supports_expected_point and points.shape[0] <= MAX_EXACT_PARTITION_POINTS:
        return exact_euclidean_kcenter(points, k).radius
    # Gonzalez guarantee: its radius is at most twice the optimum.
    return gonzalez_kcenter(points, k, metric).radius / 2.0


def expected_point_lower_bound(dataset: UncertainDataset, k: int) -> float:
    """Lemma 3.4 bound: deterministic k-center optimum of the expected points."""
    if not dataset.metric.supports_expected_point:
        return 0.0
    return _deterministic_lower_bound(dataset.expected_points(), k, dataset)


def one_center_representative_lower_bound(dataset: UncertainDataset, k: int) -> float:
    """Lemma 3.6 bound: half the k-center optimum of the per-point 1-centers."""
    representatives = one_center_reduction(dataset)
    return _deterministic_lower_bound(representatives, k, dataset) / 2.0


def assigned_cost_lower_bound(dataset: UncertainDataset, k: int) -> float:
    """Best available lower bound on the optimal unrestricted assigned cost.

    The max of the Lemma 3.2 per-point bound, the Lemma 3.6 1-center bound
    and (for Euclidean-style metrics) the Lemma 3.4 expected-point bound —
    each individually a valid lower bound, so their maximum is too.  In a
    Euclidean-style metric the first two read the same per-point 1-centers
    (weighted geometric medians), so Weiszfeld runs once per point.
    """
    if not dataset.metric.supports_expected_point:
        return max(
            per_point_lower_bound(dataset), one_center_representative_lower_bound(dataset, k)
        )
    medians = one_center_reduction(dataset)
    return max(
        _median_lower_bound(dataset, medians),
        _deterministic_lower_bound(medians, k, dataset) / 2.0,
        expected_point_lower_bound(dataset, k),
    )


# ---------------------------------------------------------------------------
# Per-subset bounds for branch-and-bound pruning
# ---------------------------------------------------------------------------

#: Relative floating-point slack applied to every incumbent comparison.  The
#: bounds are admissible in real arithmetic, but they are computed by
#: different kernels (a gather/min/max over the expected matrix) than the
#: costs they bound (the sorted-sweep ``E[max]`` kernel), so the two may
#: round apart by a few ulps.  Comparing against ``incumbent * (1 + slack)``
#: keeps a pruned row's true cost strictly above the incumbent even under
#: worst-case rounding; the slack is ~1e6 ulps wide — astronomically larger
#: than kernel rounding — while pruning essentially nothing extra.
PRUNE_SLACK = 1e-9


def prune_margin(threshold: float) -> float:
    """The absolute slack added to ``threshold`` before pruning against it.

    The bounds are admissible in *real* arithmetic; this relative slack
    (:data:`PRUNE_SLACK`) absorbs cross-kernel floating-point rounding so a
    row is pruned only when its bound exceeds the incumbent by more than any
    rounding could explain — widening the margin can only reduce pruning,
    never change a result.
    """
    return PRUNE_SLACK * max(1.0, abs(threshold))


def subset_assigned_lower_bounds(context: CostContext, subset_rows: np.ndarray) -> np.ndarray:
    """Lemma 3.2 subset-wise: admissible bounds for any restricted assignment.

    ``EcostA(S) >= max_i min_{c in S} E[d(P_i, c)]`` for every assignment
    rule, so one kernel serves ED, EP, OC, nearest-mode and black-box
    policies alike.  Delegates to
    :meth:`~repro.cost.context.CostContext.subset_assigned_lower_bounds`.
    """
    return context.subset_assigned_lower_bounds(subset_rows)


def subset_unassigned_lower_bounds(context: CostContext, subset_rows: np.ndarray) -> np.ndarray:
    """Admissible per-subset bounds on the unassigned objective.

    ``Ecost(S) >= max_i E[min_{c in S} d(P_i, c)]`` — note ``E[min]``, not
    ``min E``: the assigned-style bound would overshoot here.  Delegates to
    :meth:`~repro.cost.context.CostContext.subset_unassigned_lower_bounds`.
    """
    return context.subset_unassigned_lower_bounds(subset_rows)


def subset_pair_lower_bounds(context: CostContext, subset_rows: np.ndarray) -> np.ndarray:
    """Second-level subset bound: the two-point max of per-point minima.

    Admissible for both objectives because any solution over subset ``S``
    must cover *both* points of any pair: with ``m_i(x) = min_{c in S}
    d(x, c)`` the realized cost is at least ``max(m_i(X_i), m_j(X_j))``
    pointwise — for the unassigned objective directly, and for any
    restricted assignment because ``d(P_i, A(P_i)) >= m_i`` realization-wise
    — so by monotonicity of expectation ``cost(S) >= E[max(m_i(X_i),
    m_j(X_j))]`` for every pair ``(i, j)``.  The kernel evaluates the pair of
    points with the two largest ``E[m_i]`` values (any pair is admissible;
    that one is the strongest candidate) using the exact product-distribution
    expectation under point independence.  Strictly at least the single-point
    ``E[min]`` bound is *not* implied (``E[m_i] <=  min_c E[d(P_i, c)]``),
    which is why :func:`subset_two_level_lower_bounds` maxes the two levels.
    Delegates to
    :meth:`~repro.cost.context.CostContext.subset_pair_lower_bounds`.
    """
    return context.subset_pair_lower_bounds(subset_rows)


def subset_two_level_lower_bounds(
    context: CostContext, subset_rows: np.ndarray, *, objective: str = "assigned"
) -> np.ndarray:
    """Elementwise max of the Lemma 3.2 first-level and pair bounds.

    Each level is individually admissible (the first level is
    :func:`subset_assigned_lower_bounds` or
    :func:`subset_unassigned_lower_bounds` per ``objective``, the second is
    :func:`subset_pair_lower_bounds`), so their pointwise maximum is an
    admissible bound too — this is what the best-first scheduler orders
    chunks by and what the enumerators prune with.  Delegates to
    :meth:`~repro.cost.context.CostContext.subset_two_level_lower_bounds`.
    """
    return context.subset_two_level_lower_bounds(subset_rows, objective=objective)


def assignment_lower_bounds(context: CostContext, candidate_index_rows: np.ndarray) -> np.ndarray:
    """Per-assignment-row bounds on explicit assignments.

    Admissible by the row-wise Lemma 3.2 argument: an assignment's cost
    ``E[max_i d(P_i, c_i)]`` is at least ``max_i E[d(P_i, c_i)]`` (Jensen on
    the max), a gather-max over the cached expected matrix.  Delegates to
    :meth:`~repro.cost.context.CostContext.assignment_lower_bounds`.
    """
    return context.assignment_lower_bounds(candidate_index_rows)
