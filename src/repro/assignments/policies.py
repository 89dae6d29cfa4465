"""Concrete assignment policies: ED, EP, OC, nearest-location, and optimal.

* :class:`ExpectedDistanceAssignment` — ``A(P_i) = argmin_c E[d(P_i, c)]``
  (Wang–Zhang's rule; the paper's ``ED``).
* :class:`ExpectedPointAssignment` — ``A(P_i) = argmin_c d(P̄_i, c)``
  (the paper's new ``EP`` rule; Euclidean-style spaces only).
* :class:`OneCenterAssignment` — ``A(P_i) = argmin_c d(P̃_i, c)`` where
  ``P̃_i`` is the per-point 1-center (the paper's new ``OC`` rule; any
  metric).
* :class:`NearestLocationAssignment` — assigns to the center nearest to the
  point's most probable location; a naive comparator, no guarantee.
* :class:`OptimalAssignment` — the assignment minimising the true assigned
  expected cost for the *given* centers, found by local improvement over
  single-point moves (exact for ``n = 1`` trivially; in general a
  high-quality reference used when computing unrestricted optima on small
  instances together with exhaustive search, see
  :mod:`repro.baselines.brute_force`).
"""

from __future__ import annotations

import numpy as np

from ..cost.context import CostContext
from ..cost.expected import expected_distance_matrix
from ..exceptions import NotSupportedError, ValidationError
from ..uncertain.dataset import UncertainDataset
from ..uncertain.reduction import one_center_reduction
from .base import AssignmentPolicy


class ExpectedDistanceAssignment(AssignmentPolicy):
    """Assign each uncertain point to the center of minimum expected distance."""

    name = "expected-distance"

    def assign(self, dataset: UncertainDataset, centers: np.ndarray) -> np.ndarray:
        matrix = expected_distance_matrix(dataset, centers)
        return matrix.argmin(axis=1)

    def candidate_scores(self, dataset: UncertainDataset, candidates: np.ndarray) -> np.ndarray:
        return expected_distance_matrix(dataset, candidates)


class ExpectedPointAssignment(AssignmentPolicy):
    """Assign each uncertain point to the center nearest its expected point."""

    name = "expected-point"

    def assign(self, dataset: UncertainDataset, centers: np.ndarray) -> np.ndarray:
        return self.candidate_scores(dataset, centers).argmin(axis=1)

    def candidate_scores(self, dataset: UncertainDataset, candidates: np.ndarray) -> np.ndarray:
        if not dataset.metric.supports_expected_point:
            raise NotSupportedError(
                "the expected-point assignment needs a normed vector space metric"
            )
        expected_points = dataset.expected_points()
        return dataset.metric.pairwise(expected_points, candidates)


class OneCenterAssignment(AssignmentPolicy):
    """Assign each uncertain point to the center nearest its own 1-center."""

    name = "one-center"

    def __init__(self, candidates: np.ndarray | None = None):
        self._candidates = candidates

    def assign(self, dataset: UncertainDataset, centers: np.ndarray) -> np.ndarray:
        return self.candidate_scores(dataset, centers).argmin(axis=1)

    def candidate_scores(self, dataset: UncertainDataset, candidates: np.ndarray) -> np.ndarray:
        representatives = one_center_reduction(dataset, candidates=self._candidates)
        return dataset.metric.pairwise(representatives, candidates)


class NearestLocationAssignment(AssignmentPolicy):
    """Assign to the center nearest the point's most probable location."""

    name = "nearest-mode-location"

    def assign(self, dataset: UncertainDataset, centers: np.ndarray) -> np.ndarray:
        return self.candidate_scores(dataset, centers).argmin(axis=1)

    def candidate_scores(self, dataset: UncertainDataset, candidates: np.ndarray) -> np.ndarray:
        modes = np.vstack(
            [point.locations[int(np.argmax(point.probabilities))] for point in dataset.points]
        )
        return dataset.metric.pairwise(modes, candidates)


class OptimalAssignment(AssignmentPolicy):
    """Best-response assignment for the *true* assigned expected cost.

    Starts from the expected-distance assignment and repeatedly moves single
    uncertain points to the center that lowers the exact assigned expected
    cost until no single move improves, for at most ``max_rounds`` rounds.
    Because the objective is an expectation of a maximum the best response
    for a point depends on the others; single-move local search converges
    (the cost strictly decreases) but is not guaranteed to reach the global
    optimum — exhaustive search over all ``k^n`` assignments (see the
    brute-force baseline) provides the ground truth on small instances and
    agrees with this policy on every instance in the test suite.

    The loop lives in one place, :meth:`chunk_assignments`: :meth:`assign`
    is its one-row call, and the unrestricted brute-force reference
    polishes its top subsets through it as a black-box enumeration
    (:func:`repro.baselines.brute_force.brute_force_unrestricted_assigned`,
    ``max_rounds=10``).
    """

    name = "optimal-local"

    def __init__(self, max_rounds: int = 20, context: CostContext | None = None):
        self.max_rounds = max_rounds
        self._context = context

    def assign(self, dataset: UncertainDataset, centers: np.ndarray) -> np.ndarray:
        """The one-row :meth:`chunk_assignments` call over every center.

        Runs on the ``context`` given at construction, which must be built
        for exactly this dataset and these centers, or else on a fresh
        :class:`~repro.cost.context.CostContext` over ``centers``.
        """
        context = self._context
        if context is None:
            context = CostContext(dataset, centers)
        elif context.dataset is not dataset or not np.array_equal(context.candidates, centers):
            raise ValidationError(
                "OptimalAssignment needs a CostContext built for exactly this "
                "dataset and these centers (dataset or candidate set mismatch)"
            )
        return self.chunk_assignments(context, np.arange(context.candidate_count)[None, :])[0]

    def chunk_assignments(self, context: CostContext, subset_rows: np.ndarray) -> np.ndarray:
        """Local search for every subset of a chunk over one shared evaluator.

        The context's evaluator takes global column indices, so restricting
        the moves of row ``b`` to ``subset_rows[b]`` is just passing that
        row as the candidate set, and the ED seed of every row comes from
        one batched argmin over the cached expected matrix.  Per row, one
        :class:`~repro.cost.expected.LocalSearchSweep` carries the search:
        each point's rest profile is divided out of the cached union sweep
        (never re-sorted per move), every move is scored by one
        ``move_costs`` call, and an accepted move is spliced in place.  The
        labels depend only on the row's candidates, so a row equals
        :meth:`assign` on a context restricted to them.
        """
        subset_rows = np.atleast_2d(np.asarray(subset_rows, dtype=int))
        assignments = context.ed_assignments(subset_rows)  # (B, n) global columns
        if subset_rows.shape[1] == 1:
            return assignments
        evaluator = context.evaluator
        for row_index, columns in enumerate(subset_rows):
            assignment = assignments[row_index]
            sweep = evaluator.local_search_sweep(assignment)
            best_cost = sweep.cost()
            for _ in range(self.max_rounds):
                improved = False
                for point_index in range(context.size):
                    current = int(assignment[point_index])
                    profile = sweep.rest_profile(point_index)
                    costs = evaluator.move_costs(profile, columns)
                    best_local = int(np.argmin(costs))
                    best_column = int(columns[best_local])
                    # The tolerance is relative: when the maximum is
                    # dominated by one point, moving the others leaves the
                    # cost *exactly* unchanged, and an absolute threshold
                    # below one ulp would accept last-bit noise as an
                    # improvement.
                    tolerance = 1e-12 * max(1.0, abs(best_cost))
                    if best_column != current and costs[best_local] < best_cost - tolerance:
                        assignment[point_index] = best_column
                        sweep.apply_move(point_index, best_column)
                        best_cost = float(costs[best_local])
                        improved = True
                if not improved:
                    break
        return assignments


#: Registry used by the CLI and the experiment harness.
ASSIGNMENT_POLICIES: dict[str, type[AssignmentPolicy]] = {
    ExpectedDistanceAssignment.name: ExpectedDistanceAssignment,
    ExpectedPointAssignment.name: ExpectedPointAssignment,
    OneCenterAssignment.name: OneCenterAssignment,
    NearestLocationAssignment.name: NearestLocationAssignment,
    OptimalAssignment.name: OptimalAssignment,
}
