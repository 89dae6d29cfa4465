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
from repro.exceptions import NotSupportedError
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


class TestRefinedStarts:
    """The pattern search builds only the starts ``restarts`` keeps."""

    @pytest.mark.parametrize("restarts, outside_search_calls", [(1, 0), (2, 0), (3, 100)])
    def test_scalar_calls_outside_the_search(self, monkeypatch, restarts, outside_search_calls):
        # 25 points x 3 locations + 25 expected points = 100 discrete candidates;
        # only the third start (the best discrete center) needs that sweep.
        dataset, _ = gaussian_clusters(n=25, z=3, dimension=2, k_true=1, seed=0)
        calls = {"total": 0, "outside": 0}
        inside_helper = [False]
        cost = one_center_module.expected_one_center_cost

        def counting_cost(*args, **kwargs):
            calls["total"] += 1
            calls["outside"] += inside_helper[0]
            return cost(*args, **kwargs)

        def flagged(helper):
            def run(*args, **kwargs):
                inside_helper[0] = True
                try:
                    return helper(*args, **kwargs)
                finally:
                    inside_helper[0] = False

            return run

        monkeypatch.setattr(one_center_module, "expected_one_center_cost", counting_cost)
        for name in ("expected_point_one_center", "exact_uncertain_one_center_discrete"):
            monkeypatch.setattr(one_center_module, name, flagged(getattr(one_center_module, name)))
        result = refined_uncertain_one_center(dataset, restarts=restarts)
        assert calls["outside"] == outside_search_calls
        assert calls["total"] > outside_search_calls
        assert result.metadata["restarts"] == restarts
