"""Tests for the provable lower bounds used as experiment denominators."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.baselines import brute_force_unrestricted_assigned
from repro.bounds import (
    assigned_cost_lower_bound,
    expected_point_lower_bound,
    one_center_representative_lower_bound,
    per_point_lower_bound,
)
from repro.geometry import geometric_median
from tests.conftest import make_graph_dataset, make_uncertain_dataset


class TestPerPointBound:
    def test_positive_for_uncertain_points(self, euclidean_dataset):
        assert per_point_lower_bound(euclidean_dataset) > 0

    def test_zero_for_certain_points(self, certain_dataset):
        assert per_point_lower_bound(certain_dataset) == pytest.approx(0.0, abs=1e-9)

    def test_finite_metric_variant(self, graph_dataset):
        value = per_point_lower_bound(graph_dataset)
        assert value >= 0

    def test_scales_with_spread(self):
        tight = make_uncertain_dataset(n=5, z=3, dimension=2, seed=1, jitter=0.1)
        wide = make_uncertain_dataset(n=5, z=3, dimension=2, seed=1, jitter=2.0)
        assert per_point_lower_bound(wide) > per_point_lower_bound(tight)


class TestCompositeBound:
    @pytest.mark.parametrize("seed", range(4))
    def test_is_a_valid_lower_bound_euclidean(self, seed):
        dataset = make_uncertain_dataset(n=5, z=2, dimension=2, seed=seed)
        reference = brute_force_unrestricted_assigned(dataset, 2, exhaustive_assignment=True)
        bound = assigned_cost_lower_bound(dataset, 2)
        assert bound <= reference.expected_cost + 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_is_a_valid_lower_bound_graph(self, seed):
        dataset = make_graph_dataset(n=5, z=2, nodes=12, seed=seed)
        reference = brute_force_unrestricted_assigned(dataset, 2)
        bound = assigned_cost_lower_bound(dataset, 2)
        assert bound <= reference.expected_cost + 1e-9

    def test_composite_at_least_components(self, euclidean_dataset):
        k = 2
        composite = assigned_cost_lower_bound(euclidean_dataset, k)
        assert composite >= per_point_lower_bound(euclidean_dataset) - 1e-12
        assert composite >= expected_point_lower_bound(euclidean_dataset, k) - 1e-12
        assert composite >= one_center_representative_lower_bound(euclidean_dataset, k) - 1e-12

    @pytest.mark.parametrize("metric", ["euclidean", "graph"])
    def test_composite_is_max_of_components_with_one_median_per_point(
        self, monkeypatch, euclidean_dataset, graph_dataset, metric
    ):
        dataset = euclidean_dataset if metric == "euclidean" else graph_dataset
        components = [
            per_point_lower_bound(dataset),
            one_center_representative_lower_bound(dataset, 2),
            expected_point_lower_bound(dataset, 2),
        ]
        calls = [0]
        original = geometric_median

        def counting(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)

        # Wrap every module-level reference, wherever a bound imported it.
        for module in list(sys.modules.values()):
            if getattr(module, "geometric_median", None) is original:
                monkeypatch.setattr(module, "geometric_median", counting)
        assert assigned_cost_lower_bound(dataset, 2) == max(components)
        # The Lemma 3.2 and 3.6 bounds share one Weiszfeld run per point;
        # finite metrics take the per-element minimum instead.
        assert calls[0] == (dataset.size if metric == "euclidean" else 0)

    def test_expected_point_bound_zero_on_finite_metric(self, graph_dataset):
        assert expected_point_lower_bound(graph_dataset, 2) == 0.0

    def test_bound_decreases_with_more_centers(self, euclidean_dataset):
        few = assigned_cost_lower_bound(euclidean_dataset, 1)
        many = assigned_cost_lower_bound(euclidean_dataset, euclidean_dataset.size)
        assert many <= few + 1e-9

    def test_positive_on_clustered_instance(self):
        dataset = make_uncertain_dataset(n=12, z=3, dimension=2, seed=7, spread=10.0)
        assert assigned_cost_lower_bound(dataset, 2) > 0
