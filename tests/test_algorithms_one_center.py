"""Tests for the uncertain 1-center algorithms (Theorem 2.1)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.algorithms.one_center as one_center_module
from repro import UncertainDataset, UncertainPoint
from repro.algorithms import (
    best_expected_point_one_center,
    exact_uncertain_one_center_discrete,
    expected_point_one_center,
    refined_uncertain_one_center,
)
from repro.cost import expected_one_center_cost
from repro.exceptions import NotSupportedError, ValidationError
from repro.workloads import gaussian_clusters
from tests.conftest import make_graph_dataset, make_uncertain_dataset


class TestTheorem21:
    def test_basic_shape_and_metadata(self, euclidean_dataset):
        result = expected_point_one_center(euclidean_dataset)
        assert result.centers.shape == (1, euclidean_dataset.dimension)
        assert result.objective == "unassigned"
        assert result.guaranteed_factor == 2.0
        assert result.metadata["algorithm"] == "theorem-2.1"

    def test_center_is_expected_point_of_chosen_point(self, euclidean_dataset):
        result = expected_point_one_center(euclidean_dataset, point_index=2)
        np.testing.assert_allclose(result.centers[0], euclidean_dataset[2].expected_point())

    def test_cost_matches_engine(self, euclidean_dataset):
        result = expected_point_one_center(euclidean_dataset)
        assert result.expected_cost == pytest.approx(
            expected_one_center_cost(euclidean_dataset, result.centers[0])
        )

    def test_invalid_point_index(self, euclidean_dataset):
        with pytest.raises(IndexError):
            expected_point_one_center(euclidean_dataset, point_index=99)

    def test_rejected_on_graph_metric(self, graph_dataset):
        with pytest.raises(NotSupportedError):
            expected_point_one_center(graph_dataset)

    def test_factor_two_against_refined_optimum(self):
        # Theorem 2.1's guarantee holds for every choice of the anchor point.
        for seed in range(4):
            dataset = make_uncertain_dataset(n=8, z=3, dimension=2, seed=seed, spread=3.0)
            reference = refined_uncertain_one_center(dataset)
            for index in range(dataset.size):
                result = expected_point_one_center(dataset, point_index=index)
                assert result.expected_cost <= 2.0 * reference.expected_cost + 1e-9

    def test_certain_single_point_is_exact(self):
        dataset = UncertainDataset(points=(UncertainPoint.certain([1.0, 2.0]),))
        result = expected_point_one_center(dataset)
        assert result.expected_cost == pytest.approx(0.0, abs=1e-12)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_property_factor_two_vs_discrete_reference(self, seed):
        dataset = make_uncertain_dataset(n=5, z=3, dimension=2, seed=seed)
        reference = exact_uncertain_one_center_discrete(dataset)
        result = expected_point_one_center(dataset)
        # The discrete reference over locations + expected points upper-bounds
        # the true optimum, so the factor-2 guarantee must hold against the
        # true optimum; allow the tiny slack for the candidate discretisation.
        assert result.expected_cost <= 2.0 * reference.expected_cost + 1e-9


class TestStrongerReferences:
    def test_best_expected_point_never_worse_than_default(self, euclidean_dataset):
        default = expected_point_one_center(euclidean_dataset)
        best = best_expected_point_one_center(euclidean_dataset)
        assert best.expected_cost <= default.expected_cost + 1e-12
        assert best.guaranteed_factor == 2.0

    def test_refined_never_worse_than_best_expected_point(self, euclidean_dataset):
        best = best_expected_point_one_center(euclidean_dataset)
        refined = refined_uncertain_one_center(euclidean_dataset)
        assert refined.expected_cost <= best.expected_cost + 1e-9

    def test_discrete_reference_on_graph_metric_is_optimal(self):
        dataset = make_graph_dataset(n=4, z=2, nodes=10, seed=3)
        result = exact_uncertain_one_center_discrete(dataset)
        # Exhaustive check over every node of the graph.
        best = min(
            expected_one_center_cost(dataset, element)
            for element in dataset.metric.all_elements()
        )
        assert result.expected_cost == pytest.approx(best)

    def test_discrete_reference_custom_candidates(self, euclidean_dataset):
        candidates = euclidean_dataset.all_locations()
        result = exact_uncertain_one_center_discrete(euclidean_dataset, candidates=candidates)
        assert any(
            np.allclose(result.centers[0], candidate) for candidate in candidates
        )

    def test_refined_rejected_on_graph_metric(self, graph_dataset):
        with pytest.raises(NotSupportedError):
            refined_uncertain_one_center(graph_dataset)


def _per_poll_search(dataset, max_iterations=400):
    """The one-poll-at-a-time pattern search, kept as the batched search's reference.

    Returns ``(center, cost, cost_calls)``; every cost, the discrete start's
    candidate scan included, is one scalar call.
    """
    calls = [0]

    def cost_of(center):
        calls[0] += 1
        return expected_one_center_cost(dataset, center)

    candidates = np.vstack([dataset.all_locations(), dataset.expected_points()])
    discrete_costs = [cost_of(candidate) for candidate in candidates]
    best_index = 0
    for index, cost in enumerate(discrete_costs):
        if cost < discrete_costs[best_index]:
            best_index = index
    starts = [
        dataset.points[0].expected_point(),
        dataset.all_locations().mean(axis=0),
        candidates[best_index],
    ]
    scale = max(float(np.ptp(dataset.all_locations(), axis=0).max()), 1e-9)
    best_center, best_cost = None, np.inf
    for start in starts:
        center = start.astype(float).copy()
        cost = cost_of(center)
        step = scale / 4.0
        for _ in range(max_iterations):
            improved = False
            for axis in range(dataset.dimension):
                for direction in (+1.0, -1.0):
                    candidate = center.copy()
                    candidate[axis] += direction * step
                    candidate_cost = cost_of(candidate)
                    if candidate_cost < cost - 1e-15:
                        center, cost = candidate, candidate_cost
                        improved = True
            if not improved:
                step /= 2.0
                if step < 1e-10 * scale:
                    break
        if cost < best_cost:
            best_center, best_cost = center, cost
    return best_center, best_cost, calls[0]


class TestBatchedSearch:
    """Speculative polls and lock-step starts walk the per-poll loop's path."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("dimension", [1, 2, 3, 8])
    def test_matches_the_per_poll_loop_on_e1_quick_datasets(self, monkeypatch, dimension, seed):
        dataset, _ = gaussian_clusters(n=25, z=3, dimension=dimension, k_true=1, seed=seed)
        reference_center, reference_cost, reference_calls = _per_poll_search(dataset)
        calls = [0]
        for name in ("expected_one_center_cost", "expected_one_center_costs"):
            cost = getattr(one_center_module, name)

            def counting(*args, cost=cost, **kwargs):
                calls[0] += 1
                return cost(*args, **kwargs)

            monkeypatch.setattr(one_center_module, name, counting)
        result = refined_uncertain_one_center(dataset)
        if dimension == 1:
            # One multiply per distance: batching cannot move a cost.
            assert np.array_equal(result.centers[0], reference_center)
            assert result.expected_cost == reference_cost
        else:
            assert result.expected_cost == pytest.approx(reference_cost, rel=1e-12)
        if (dimension, seed) == (8, 0):
            assert calls[0] * 10 <= reference_calls, (calls[0], reference_calls)

    def test_discrete_reference_keeps_the_first_minimal_candidate(self):
        dataset = UncertainDataset(points=(UncertainPoint.certain([0.0]),))
        # -1 and +1 tie at cost 1; a strict-< scan keeps the first.
        for first in (-1.0, 1.0):
            candidates = np.array([[2.0], [first], [-first], [first]])
            result = exact_uncertain_one_center_discrete(dataset, candidates=candidates)
            assert result.centers[0, 0] == first
            assert result.expected_cost == 1.0

    def test_best_expected_point_keeps_the_first_minimal_point(self):
        for first in (-1.0, 1.0):
            dataset = UncertainDataset(
                points=(UncertainPoint.certain([first]), UncertainPoint.certain([-first]))
            )
            result = best_expected_point_one_center(dataset)
            assert result.metadata["point_index"] == 0
            assert result.centers[0, 0] == first
            assert result.expected_cost == 2.0


class TestRefinedStarts:
    """The pattern search builds only the starts ``restarts`` keeps."""

    @pytest.mark.parametrize("restarts, outside_search_rows", [(1, 0), (2, 0), (3, 100)])
    def test_scalar_calls_outside_the_search(self, monkeypatch, restarts, outside_search_rows):
        # 25 points x 3 locations + 25 expected points = 100 discrete candidates;
        # only the third start (the best discrete center) needs that sweep.
        # Rows count evaluated centers: 1 per scalar call, B per batched call.
        dataset, _ = gaussian_clusters(n=25, z=3, dimension=2, k_true=1, seed=0)
        rows = {"total": 0, "outside": 0}
        inside_helper = [False]

        def counting(cost, rows_of):
            def run(dataset, centers):
                count = rows_of(centers)
                rows["total"] += count
                rows["outside"] += count * inside_helper[0]
                return cost(dataset, centers)

            return run

        def flagged(helper):
            def run(*args, **kwargs):
                inside_helper[0] = True
                try:
                    return helper(*args, **kwargs)
                finally:
                    inside_helper[0] = False

            return run

        monkeypatch.setattr(
            one_center_module,
            "expected_one_center_cost",
            counting(one_center_module.expected_one_center_cost, lambda centers: 1),
        )
        monkeypatch.setattr(
            one_center_module,
            "expected_one_center_costs",
            counting(one_center_module.expected_one_center_costs, lambda centers: len(centers)),
        )
        for name in ("expected_point_one_center", "exact_uncertain_one_center_discrete"):
            monkeypatch.setattr(one_center_module, name, flagged(getattr(one_center_module, name)))
        result = refined_uncertain_one_center(dataset, restarts=restarts)
        assert rows["outside"] == outside_search_rows
        assert rows["total"] > outside_search_rows
        assert result.metadata["restarts"] == restarts

    @pytest.mark.parametrize("restarts", [0, -3, 4, 5, 2.0])
    def test_restarts_out_of_range_rejected(self, euclidean_dataset, restarts):
        # Out-of-range counts used to run one start (<= 0) or three (> 3).
        with pytest.raises(ValidationError):
            refined_uncertain_one_center(euclidean_dataset, restarts=restarts)
