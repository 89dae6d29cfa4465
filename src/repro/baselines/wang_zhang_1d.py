"""Wang–Zhang-style solver for the 1-D restricted assigned problem.

Wang and Zhang (TCS 2015) solve the one-dimensional restricted assigned
k-center problem under the expected-distance assignment exactly in
``O(zn log zn + n log k log n)`` time.  The paper uses that result (through
Theorem 2.3) to obtain a 3-approximation for the unrestricted assigned
problem in R^1 — Table 1's R^1 row.

Their algorithm relies on intricate parametric search machinery.  For the
reproduction we solve the same *objective* with a numerical optimiser whose
output is validated against brute force on small instances:

1. generate a strong initial center set (exact deterministic 1-D k-center of
   the expected points, plus the location multiset);
2. coordinate-descent each center on the exact assigned expected cost under
   the ED assignment (grid line search per coordinate; the cost is piecewise
   smooth and unimodal along a coordinate in practice — the search brackets
   the best of a dense grid plus local refinement to be robust to
   non-convexity);
3. repeat from multiple starts and keep the best.

Cost-context reuse
------------------
Coordinate descent builds **one** :class:`~repro.cost.context.CostContext`
per restart over ``[center columns | coarse grid | fine grid]`` and then
*splices* the moving columns per sweep through
:meth:`CostContext.replace_candidate_columns`: the fine grid (which tracks
the current coordinate) replaces its 21 columns, and an accepted move
replaces the one center column it changed.  Only the replaced CDF columns
are re-sorted — the historical implementation constructed a fresh context
(one metric pass + a sort of every column) per coordinate per round.  Final
and initial costs come from the same context; :func:`_ed_cost` additionally
accepts an existing context or a :class:`~repro.runtime.store.ContextStore`
so external callers stop building throwaway contexts too.

DESIGN.md records this substitution (published parametric-search algorithm →
numerical optimiser of the same objective).  The E8 experiment checks the
solver matches brute force on every micro instance and that the Theorem 2.3
chain (its cost vs the unrestricted optimum) stays within factor 3.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .._validation import check_positive_int
from ..algorithms.result import UncertainKCenterResult
from ..assignments.policies import ExpectedDistanceAssignment
from ..cost.context import CostContext
from ..deterministic.one_dimensional import one_dimensional_kcenter
from ..exceptions import ValidationError
from ..uncertain.dataset import UncertainDataset

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.store import ContextStore

#: Points in the coarse (whole-range) and fine (around the current center)
#: line-search grids of one coordinate-descent step.
_COARSE_GRID_POINTS = 33
_FINE_GRID_POINTS = 21


def _locate_columns(context: CostContext, centers: np.ndarray) -> np.ndarray | None:
    """Column indices of ``centers`` rows inside ``context.candidates``.

    ``None`` when any center is not a candidate of the context (the caller
    then falls back to building a context over exactly ``centers``).
    """
    columns = np.empty(centers.shape[0], dtype=int)
    for row, center in enumerate(centers):
        matches = np.flatnonzero(np.all(context.candidates == center, axis=1))
        if matches.shape[0] == 0:
            return None
        columns[row] = matches[0]
    return columns


def _ed_cost(
    dataset: UncertainDataset,
    centers: np.ndarray,
    *,
    context: CostContext | None = None,
    store: "ContextStore | None" = None,
) -> tuple[float, np.ndarray]:
    """Exact ED-assigned cost of ``centers`` plus the ED labels.

    Routing order: an explicit ``context`` whose candidate set contains every
    center (its cached expected matrix and evaluator columns are reused —
    e.g. the coordinate-descent context, whose first ``k`` columns mirror the
    current centers); a ``store`` (memoized across repeated calls on the same
    pair); else a throwaway :class:`CostContext` as before.
    """
    if context is not None and context.dataset is dataset:
        columns = _locate_columns(context, centers)
        if columns is not None:
            local = context.expected[:, columns].argmin(axis=1)
            cost = context.assigned_cost(columns[local])
            return float(cost), local
    if store is not None:
        context = store.get(dataset, centers)
    else:
        context = CostContext(dataset, centers)
    labels = context.expected.argmin(axis=1)
    return context.assigned_cost(labels), labels


def _coordinate_descent(
    dataset: UncertainDataset, centers: np.ndarray, *, rounds: int = 30
) -> tuple[np.ndarray, float]:
    """Refine 1-D centers one at a time against the exact ED-assigned cost.

    One context serves the whole descent: candidate columns are laid out as
    ``[k centers | coarse grid | fine grid]`` and each step splices only the
    columns that moved (the fine grid before scoring, the accepted center
    after).  Scoring a step is one batched exact-cost call: per grid value
    the allowed columns are the static centers with column ``index`` swapped
    for that grid position, the ED assignment is an argmin over the cached
    expected matrix, and the exact costs come out of one chunked sweep.
    """
    centers = centers.copy()
    k = centers.shape[0]
    all_values = np.sort(dataset.all_locations()[:, 0])
    span = float(all_values[-1] - all_values[0]) if all_values.shape[0] > 1 else 1.0
    coarse = np.linspace(all_values[0], all_values[-1], _COARSE_GRID_POINTS)
    # Fine columns start as placeholders (copies of the first center); they
    # are replaced before the first score, so their initial value never
    # contributes to any cost.
    candidates = np.vstack(
        [centers, coarse.reshape(-1, 1), np.repeat(centers[:1], _FINE_GRID_POINTS, axis=0)]
    )
    context = CostContext(dataset, candidates)
    grid_columns = np.arange(k, k + _COARSE_GRID_POINTS + _FINE_GRID_POINTS)
    fine_columns = grid_columns[_COARSE_GRID_POINTS:]
    batch = grid_columns.shape[0]

    best_cost, _ = _ed_cost(dataset, centers, context=context)
    for _ in range(rounds):
        improved = False
        for index in range(k):
            # Candidate positions: a coarse grid over the data range plus a
            # fine grid around the current position.
            fine = centers[index, 0] + np.linspace(-0.05, 0.05, _FINE_GRID_POINTS) * max(span, 1e-9)
            grid = np.concatenate([coarse, fine])
            context.replace_candidate_columns(fine_columns, fine.reshape(-1, 1))
            allowed = np.tile(np.arange(k), (batch, 1))
            allowed[:, index] = grid_columns
            local = context.expected[:, allowed].argmin(axis=2)  # (n, B)
            candidate_index_rows = np.take_along_axis(allowed, local.T, axis=1)  # (B, n)
            costs = context.assigned_costs(candidate_index_rows)
            winner = int(np.argmin(costs))
            if costs[winner] < best_cost - 1e-15:
                best_cost = float(costs[winner])
                centers[index, 0] = grid[winner]
                context.replace_candidate_columns(
                    np.asarray([index]), centers[index : index + 1]
                )
                improved = True
        if not improved:
            break
    return centers, best_cost


def wang_zhang_1d(
    dataset: UncertainDataset,
    k: int,
    *,
    restarts: int = 2,
    refine_rounds: int = 30,
) -> UncertainKCenterResult:
    """Restricted assigned (ED) k-center on the line (Wang–Zhang objective)."""
    if dataset.dimension != 1:
        raise ValidationError("wang_zhang_1d expects one-dimensional uncertain points")
    k = check_positive_int(k, name="k")

    starts: list[np.ndarray] = []
    expected_points = dataset.expected_points()
    starts.append(one_dimensional_kcenter(expected_points, k).centers)
    locations = dataset.all_locations()
    starts.append(one_dimensional_kcenter(locations, k).centers)
    # Quantile-spread start for robustness on skewed instances.
    quantiles = np.quantile(locations[:, 0], np.linspace(0.1, 0.9, k)).reshape(-1, 1)
    starts.append(quantiles)
    starts = starts[: max(restarts + 1, 1)]

    best_cost = float("inf")
    best_centers: np.ndarray | None = None
    for start in starts:
        centers = start.copy()
        if centers.shape[0] < k:
            # Pad degenerate starts (fewer distinct centers than k).
            extra = np.repeat(centers[-1:], k - centers.shape[0], axis=0)
            centers = np.vstack([centers, extra])
        centers, cost = _coordinate_descent(dataset, centers, rounds=refine_rounds)
        if cost < best_cost:
            best_cost, best_centers = float(cost), centers
    assert best_centers is not None

    policy = ExpectedDistanceAssignment()
    labels = policy(dataset, best_centers)
    return UncertainKCenterResult(
        centers=best_centers,
        expected_cost=float(best_cost),
        objective="restricted-assigned",
        assignment=labels,
        assignment_policy=policy.name,
        guaranteed_factor=None,
        metadata={"algorithm": "wang-zhang-1d-numerical", "restarts": len(starts)},
    )
