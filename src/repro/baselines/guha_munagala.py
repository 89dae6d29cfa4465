"""Guha–Munagala-style baseline for the unrestricted assigned problem.

The paper positions its results against Guha and Munagala (PODS 2009), whose
finite-metric algorithm achieves a ``15(1+2ε)`` factor for the unrestricted
assigned k-center problem while preserving the number of centers.  Their
pipeline (truncated expectations + LP rounding) is substantial; for the
head-to-head experiment (E10) we implement a *threshold-greedy* baseline in
the same spirit, which is the standard practical rendition of
"exceeding-expectations" style algorithms on finite metrics:

1. candidate centers are the elements of the finite metric (or every location
   in Euclidean instances);
2. for a guessed cost threshold ``T`` (binary searched over the sorted set of
   per-point best expected distances), process uncertain points greedily:
   an *uncovered* point opens its own best candidate center (the one
   minimising its expected distance) and every point whose expected distance
   to that center is at most ``3T`` joins it — including the opener itself,
   which is served by its own center even when its best expected distance
   exceeds ``3T`` (otherwise a tight threshold would re-open the same
   candidate forever);
3. the smallest ``T`` for which at most ``k`` *distinct* centers open wins;
   points are finally assigned by expected distance.

All expected distances and the final exact assigned cost are served by one
shared :class:`~repro.cost.context.CostContext` over the candidate set — the
matrix is computed once and the chosen configuration is scored through the
cached per-candidate CDF columns.

The baseline preserves ``k``, is an O(1)-approximation in the same regime the
paper targets, and gives the experiments a faithful stand-in comparator
(the paper's baseline replaced by a threshold greedy).
"""

from __future__ import annotations

import numpy as np

from .._validation import as_point_array, check_positive_int
from ..algorithms.result import UncertainKCenterResult
from ..assignments.policies import ExpectedDistanceAssignment
from ..cost.context import CostContext
from ..uncertain.dataset import UncertainDataset


def _greedy_open_centers(expected: np.ndarray, best_candidate: np.ndarray, threshold: float) -> list[int]:
    """Open centers greedily for threshold ``T``; return distinct opened ids.

    The opener is always force-covered by the candidate it opens: when its
    best expected distance exceeds ``3T`` the ``<= 3T`` rule would leave it
    uncovered and the loop would re-open the same candidate forever (the
    historical hang, reproduced by ``expected=[[10, 12]]`` with ``T = 1``).
    Repeated candidate ids are deduplicated so the opened count compared
    against ``k`` is the number of distinct centers.
    """
    n = expected.shape[0]
    uncovered = np.ones(n, dtype=bool)
    opened: list[int] = []
    while uncovered.any():
        point = int(np.flatnonzero(uncovered)[0])
        candidate = int(best_candidate[point])
        if candidate not in opened:
            opened.append(candidate)
        uncovered &= expected[:, candidate] > 3.0 * threshold + 1e-12
        uncovered[point] = False
    return opened


def _top_up_centers(
    chosen: list[int],
    best_candidate: np.ndarray,
    best_values: np.ndarray,
    budget: int,
) -> list[int]:
    """Spend leftover budget on unopened candidates ranked by uncovered demand.

    Demand is measured by the points' best expected distances: the points
    that are hardest to serve (largest ``best_values``) nominate their own
    best candidates first.  Already-open candidate ids are skipped, so the
    result stays deduplicated and never exceeds ``budget``.
    """
    opened = list(chosen)
    for point_index in np.argsort(-best_values):
        if len(opened) >= budget:
            break
        candidate = int(best_candidate[point_index])
        if candidate not in opened:
            opened.append(candidate)
    return opened


def guha_munagala_baseline(
    dataset: UncertainDataset,
    k: int,
    *,
    candidates: np.ndarray | None = None,
) -> UncertainKCenterResult:
    """Threshold-greedy O(1)-style baseline (stand-in for [14])."""
    k = check_positive_int(k, name="k")
    if candidates is None:
        if dataset.metric.supports_expected_point:
            candidates = dataset.all_locations()
        else:
            candidates = dataset.metric.candidate_centers(dataset.all_locations())
    candidates = as_point_array(candidates, name="candidates")

    # Expected-matrix-only consumer over m = sum_i z_i candidates: streaming
    # keeps the context at O(n m) instead of pinning (z_i, m) supports.
    context = CostContext(dataset, candidates, pin_supports=False)
    expected = context.expected  # (n, m)
    best_candidate = expected.argmin(axis=1)
    best_values = expected[np.arange(dataset.size), best_candidate]

    # Thresholds worth trying: every per-point best expected distance plus
    # every entry of the expected-distance matrix (sorted, deduplicated).
    thresholds = np.unique(np.concatenate([best_values, expected.reshape(-1)]))
    low, high = 0, thresholds.shape[0] - 1
    chosen: list[int] | None = None
    while low <= high:
        mid = (low + high) // 2
        opened = _greedy_open_centers(expected, best_candidate, float(thresholds[mid]))
        if len(opened) <= k:
            chosen = opened
            high = mid - 1
        else:
            low = mid + 1
    if chosen is None:
        # Even the largest threshold failed (cannot happen: one center covers
        # everything at T = max expected distance), but guard anyway.
        chosen = [int(best_candidate[0])]

    budget = min(k, candidates.shape[0])
    if len(chosen) < budget:
        chosen = _top_up_centers(chosen, best_candidate, best_values, budget)

    subset = np.asarray(sorted(set(chosen)), dtype=int)
    centers = candidates[subset]
    candidate_indices = context.ed_assignment(subset)
    labels = np.searchsorted(subset, candidate_indices)
    cost = context.assigned_cost(candidate_indices)
    return UncertainKCenterResult(
        centers=centers,
        expected_cost=cost,
        objective="unrestricted-assigned",
        assignment=labels,
        assignment_policy=ExpectedDistanceAssignment.name,
        guaranteed_factor=None,
        metadata={"algorithm": "guha-munagala-style-threshold-greedy", "candidate_count": int(candidates.shape[0])},
    )
