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
from ..cost.expected import expected_one_center_cost, expected_one_center_costs
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

    Costs ``O(n)`` expected-cost evaluations (one batched call) instead of
    Theorem 2.1's ``O(z)`` construction, but inherits the same factor-2
    guarantee and is never worse than :func:`expected_point_one_center`.
    Ties go to the lowest point index.
    """
    if not dataset.metric.supports_expected_point:
        raise NotSupportedError("expected points require a normed vector space")
    expected_points = dataset.expected_points()
    costs = expected_one_center_costs(dataset, expected_points)
    index = int(np.argmin(costs))
    center = expected_points[index].reshape(1, -1)
    return UncertainKCenterResult(
        centers=center,
        expected_cost=float(costs[index]),
        objective="unassigned",
        guaranteed_factor=ONE_CENTER_EXPECTED_POINT_FACTOR,
        representatives=center,
        metadata={"algorithm": "best-expected-point", "point_index": index},
    )


def exact_uncertain_one_center_discrete(
    dataset: UncertainDataset,
    candidates: np.ndarray | None = None,
) -> UncertainKCenterResult:
    """Optimal uncertain 1-center restricted to a finite candidate set.

    For a finite metric with ``candidates = all elements`` this is the exact
    optimum.  In Euclidean space it is an upper bound of the cost of the true
    (continuous) optimum, and a strong reference when the candidate set is
    rich (all locations plus all expected points).  Every candidate is scored
    in one batched call; ties go to the first minimal candidate.
    """
    if candidates is None:
        candidates = _default_euclidean_candidates(dataset) if dataset.metric.supports_expected_point else dataset.metric.candidate_centers(dataset.all_locations())
    candidates = as_point_array(candidates, name="candidates")
    costs = expected_one_center_costs(dataset, candidates)
    best_index = int(np.argmin(costs))
    return UncertainKCenterResult(
        centers=candidates[best_index].reshape(1, -1),
        expected_cost=float(costs[best_index]),
        objective="unassigned",
        guaranteed_factor=None,
        metadata={"algorithm": "exact-discrete-1center", "candidate_count": int(candidates.shape[0])},
    )


class _PatternSearch:
    """One start of the pattern search, advanced one batch of polls at a time.

    An iteration polls ``center +- step e_axis`` for every axis in order
    (axes ascending, ``+`` before ``-``) and moves to each poll that beats
    the current cost by more than ``1e-15``; later polls of the iteration
    start from the moved center.  :meth:`pending` lists the polls left in
    the iteration from the current center.  :meth:`advance` takes their
    costs, accepts the first improving one, and drops the polls after it:
    those are re-polled from the new center.  So any batch split walks the
    same path as polling one center at a time.  An iteration with no move
    halves the step, and the search stops once the step falls below
    ``1e-10 * scale`` or after ``max_iterations`` iterations.
    """

    def __init__(
        self, center: np.ndarray, cost: float, scale: float, max_iterations: int
    ) -> None:
        self.center = center
        self.cost = cost
        self.step = scale / 4.0
        self._min_step = 1e-10 * scale
        self._iterations_left = max_iterations
        self._poll = 0
        self._improved = False
        self.done = False

    def pending(self) -> np.ndarray:
        """The iteration's remaining polls from the current center, in order."""
        polls = np.arange(self._poll, 2 * self.center.shape[0])
        points = np.repeat(self.center[None, :], polls.shape[0], axis=0)
        points[np.arange(polls.shape[0]), polls // 2] += np.where(
            polls % 2 == 0, self.step, -self.step
        )
        return points

    def advance(self, points: np.ndarray, costs: np.ndarray) -> None:
        """Accept the first improving poll of :meth:`pending`, or end the iteration."""
        improving = np.flatnonzero(costs < self.cost - 1e-15)
        if improving.size:
            first = int(improving[0])
            self.center, self.cost = points[first], float(costs[first])
            self._improved = True
            self._poll += first + 1
            if self._poll < 2 * self.center.shape[0]:
                return
        elif not self._improved:
            self.step /= 2.0
            if self.step < self._min_step:
                self.done = True
                return
        self._iterations_left -= 1
        self.done = self._iterations_left == 0
        self._poll = 0
        self._improved = False


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

    ``restarts`` (1 to 3) keeps that many of the starts, in this order:
    ``P̄_1`` (Theorem 2.1's center), the mean location, and the best
    discrete center (:func:`exact_uncertain_one_center_discrete`).  Each
    start runs at most ``max_iterations`` iterations of the search described
    in :class:`_PatternSearch`, and the cheapest end point wins, ties to the
    earlier start.

    The polls are batched without changing the path.  *Speculative polls*:
    one cost call scores all of an iteration's remaining polls, the first
    improving one is accepted, and only the polls after it are scored again
    from the new center.  *Lock-step starts*: the starts advance together,
    so one call carries every live start's pending polls.  Given the same
    cost values, each start visits exactly the centers the one-poll-at-a-time
    loop visits; in dimensions of 2 and up a batched cost can round an ulp
    apart from a one-center cost (see :mod:`repro.cost.expected`).
    """
    if not dataset.metric.supports_expected_point:
        raise NotSupportedError("refined 1-center descent requires a Euclidean-style metric")
    check_positive_int(max_iterations, name="max_iterations")
    check_positive_int(restarts, name="restarts", maximum=3)
    # Starts in a fixed order, built only as far as ``restarts`` keeps them.
    starts = [dataset.points[0].expected_point()]
    if restarts >= 2:
        starts.append(dataset.all_locations().mean(axis=0))
    if restarts >= 3:
        starts.append(exact_uncertain_one_center_discrete(dataset).centers[0])

    scale = max(float(np.ptp(dataset.all_locations(), axis=0).max()), 1e-9)
    start_points = np.vstack(starts).astype(float)
    searches = [
        _PatternSearch(center, float(cost), scale, max_iterations)
        for center, cost in zip(start_points, expected_one_center_costs(dataset, start_points))
    ]
    live = searches
    while live:
        polls = [search.pending() for search in live]
        costs = np.split(
            expected_one_center_costs(dataset, np.vstack(polls)),
            np.cumsum([points.shape[0] for points in polls])[:-1],
        )
        for search, points, poll_costs in zip(live, polls, costs):
            search.advance(points, poll_costs)
        live = [search for search in live if not search.done]
    best = min(searches, key=lambda search: search.cost)
    return UncertainKCenterResult(
        centers=best.center.reshape(1, -1),
        expected_cost=float(best.cost),
        objective="unassigned",
        guaranteed_factor=None,
        metadata={"algorithm": "pattern-search-1center", "restarts": len(starts)},
    )


def _default_euclidean_candidates(dataset: UncertainDataset) -> np.ndarray:
    """All locations plus all expected points (rich Euclidean candidate set)."""
    return np.vstack([dataset.all_locations(), dataset.expected_points()])
