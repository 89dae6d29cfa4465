"""Uncertain 1-center algorithms (Theorem 2.1 and exact references).

Theorem 2.1: in a Euclidean space, the expected point ``P̄_1`` of *any single*
uncertain point is a 2-approximation of the uncertain 1-center of the whole
dataset (the point minimising ``Ecost(c) = E[max_i d(P̂_i, c)]``), and it is
computable in ``O(z)`` time — independent of ``n``.

Alongside the theorem's construction this module provides stronger (but
slower) references used by the experiments:

* :func:`best_expected_point_one_center` — evaluate all ``n`` expected points
  and keep the cheapest (still a 2-approximation, never worse than the
  theorem's pick);
* :func:`exact_uncertain_one_center_discrete` — the optimal center restricted
  to a finite candidate set, by exhaustive evaluation of the exact expected
  cost (the optimum for finite metrics, a strong reference in Euclidean ones);
* :func:`refined_uncertain_one_center` — numerical descent on the (convex)
  unassigned 1-center objective in Euclidean space, used as the denominator
  when measuring empirical approximation ratios.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_point_array, check_positive_int
from ..cost.expected import expected_one_center_cost
from ..exceptions import NotSupportedError
from ..uncertain.dataset import UncertainDataset
from .factors import ONE_CENTER_EXPECTED_POINT_FACTOR
from .result import UncertainKCenterResult


def expected_point_one_center(dataset: UncertainDataset, point_index: int = 0) -> UncertainKCenterResult:
    """Theorem 2.1: the expected point of one uncertain point as 1-center.

    Parameters
    ----------
    dataset:
        The uncertain dataset (must live in a space supporting expected
        points).
    point_index:
        Which uncertain point's expected point to use.  The guarantee holds
        for every choice; the default mirrors the paper's ``P̄_1``.
    """
    if not dataset.metric.supports_expected_point:
        raise NotSupportedError("Theorem 2.1 requires a normed vector space (expected points)")
    if not 0 <= point_index < dataset.size:
        raise IndexError(f"point_index {point_index} out of range [0, {dataset.size})")
    center = dataset.points[point_index].expected_point()
    cost = expected_one_center_cost(dataset, center)
    return UncertainKCenterResult(
        centers=center.reshape(1, -1),
        expected_cost=cost,
        objective="unassigned",
        guaranteed_factor=ONE_CENTER_EXPECTED_POINT_FACTOR,
        representatives=center.reshape(1, -1),
        metadata={"algorithm": "theorem-2.1", "point_index": point_index},
    )


def best_expected_point_one_center(dataset: UncertainDataset) -> UncertainKCenterResult:
    """Evaluate every point's expected point and keep the cheapest.

    Costs ``O(n)`` expected-cost evaluations instead of Theorem 2.1's
    ``O(z)`` construction, but inherits the same factor-2 guarantee and is
    never worse than :func:`expected_point_one_center`.
    """
    if not dataset.metric.supports_expected_point:
        raise NotSupportedError("expected points require a normed vector space")
    best: UncertainKCenterResult | None = None
    for index in range(dataset.size):
        candidate = expected_point_one_center(dataset, index)
        if best is None or candidate.expected_cost < best.expected_cost:
            best = candidate
    assert best is not None
    return UncertainKCenterResult(
        centers=best.centers,
        expected_cost=best.expected_cost,
        objective="unassigned",
        guaranteed_factor=ONE_CENTER_EXPECTED_POINT_FACTOR,
        representatives=best.representatives,
        metadata={"algorithm": "best-expected-point", "point_index": best.metadata["point_index"]},
    )


def exact_uncertain_one_center_discrete(
    dataset: UncertainDataset,
    candidates: np.ndarray | None = None,
) -> UncertainKCenterResult:
    """Optimal uncertain 1-center restricted to a finite candidate set.

    For a finite metric with ``candidates = all elements`` this is the exact
    optimum.  In Euclidean space it is an upper bound of the cost of the true
    (continuous) optimum, and a strong reference when the candidate set is
    rich (all locations plus all expected points).
    """
    if candidates is None:
        candidates = _default_euclidean_candidates(dataset) if dataset.metric.supports_expected_point else dataset.metric.candidate_centers(dataset.all_locations())
    candidates = as_point_array(candidates, name="candidates")
    best_cost = np.inf
    best_index = 0
    for index in range(candidates.shape[0]):
        cost = expected_one_center_cost(dataset, candidates[index])
        if cost < best_cost:
            best_cost = cost
            best_index = index
    return UncertainKCenterResult(
        centers=candidates[best_index].reshape(1, -1),
        expected_cost=float(best_cost),
        objective="unassigned",
        guaranteed_factor=None,
        metadata={"algorithm": "exact-discrete-1center", "candidate_count": int(candidates.shape[0])},
    )


def refined_uncertain_one_center(
    dataset: UncertainDataset,
    *,
    max_iterations: int = 400,
    restarts: int = 3,
) -> UncertainKCenterResult:
    """Numerical descent on the Euclidean unassigned 1-center objective.

    ``Ecost(c) = E[max_i d(X_i, c)]`` is a convex function of ``c`` in a
    Euclidean space (an expectation of maxima of convex functions), so a
    simple multi-start adaptive coordinate/pattern search converges to the
    optimum.  Used as the strong reference ("opt") in the E1 experiment.
    """
    if not dataset.metric.supports_expected_point:
        raise NotSupportedError("refined 1-center descent requires a Euclidean-style metric")
    check_positive_int(max_iterations, name="max_iterations")
    dim = dataset.dimension
    # Starts in a fixed order, built only as far as ``restarts`` keeps them:
    # P̄_1 (Theorem 2.1's center), the mean location, the best discrete center.
    starts = [dataset.points[0].expected_point()]
    if restarts >= 2:
        starts.append(dataset.all_locations().mean(axis=0))
    if restarts >= 3:
        starts.append(exact_uncertain_one_center_discrete(dataset).centers[0])

    scale = max(float(np.ptp(dataset.all_locations(), axis=0).max()), 1e-9)
    best_center = None
    best_cost = np.inf
    for start in starts:
        center = start.astype(float).copy()
        cost = expected_one_center_cost(dataset, center)
        step = scale / 4.0
        for _ in range(max_iterations):
            improved = False
            for axis in range(dim):
                for direction in (+1.0, -1.0):
                    candidate = center.copy()
                    candidate[axis] += direction * step
                    candidate_cost = expected_one_center_cost(dataset, candidate)
                    if candidate_cost < cost - 1e-15:
                        center, cost = candidate, candidate_cost
                        improved = True
            if not improved:
                step /= 2.0
                if step < 1e-10 * scale:
                    break
        if cost < best_cost:
            best_cost = cost
            best_center = center
    assert best_center is not None
    return UncertainKCenterResult(
        centers=best_center.reshape(1, -1),
        expected_cost=float(best_cost),
        objective="unassigned",
        guaranteed_factor=None,
        metadata={"algorithm": "pattern-search-1center", "restarts": len(starts)},
    )


def _default_euclidean_candidates(dataset: UncertainDataset) -> np.ndarray:
    """All locations plus all expected points (rich Euclidean candidate set)."""
    return np.vstack([dataset.all_locations(), dataset.expected_points()])
