"""Differential tests for incremental candidate-column replacement.

``AssignedCostEvaluator.replace_candidate_columns`` and
``CostContext.replace_candidate_columns`` must be indistinguishable from a
from-scratch build over the modified candidate set —
including after chains of replacements, on zero-probability supports and with
repeated values — and ``wang_zhang_1d`` must exploit them (one context per
restart instead of one per coordinate sweep).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.cost.context as context_module
from repro.cost.context import CostContext
from repro.cost.expected import AssignedCostEvaluator
from repro.baselines.wang_zhang_1d import _ed_cost, wang_zhang_1d
from repro.runtime import ContextStore
from repro.workloads import gaussian_clusters, line_workload


def _random_instance(rng, n=5, z=3, m=6, zero_probability=False):
    supports = [rng.uniform(0.0, 4.0, size=(z, m)) for _ in range(n)]
    probabilities = []
    for _ in range(n):
        weight = rng.uniform(0.1, 1.0, size=z)
        if zero_probability:
            weight[rng.integers(0, z)] = 0.0
        probabilities.append(weight / weight.sum())
    return supports, probabilities


class TestEvaluatorReplaceColumns:
    @pytest.mark.parametrize("zero_probability", [False, True])
    def test_matches_scratch_build(self, zero_probability):
        rng = np.random.default_rng(3)
        supports, probabilities = _random_instance(rng, zero_probability=zero_probability)
        evaluator = AssignedCostEvaluator(supports, probabilities)
        columns = np.asarray([1, 4])
        blocks = [rng.uniform(0.0, 4.0, size=(s.shape[0], 2)) for s in supports]
        evaluator.replace_candidate_columns(columns, blocks)

        replaced = [s.copy() for s in supports]
        for new, block in zip(replaced, blocks):
            new[:, columns] = block
        scratch = AssignedCostEvaluator(replaced, probabilities)

        rows = rng.integers(0, 6, size=(32, len(supports)))
        np.testing.assert_array_equal(evaluator.costs(rows), scratch.costs(rows))

    def test_repeated_values_and_chained_replacements(self):
        rng = np.random.default_rng(11)
        supports, probabilities = _random_instance(rng)
        # Inject repeated values within and across variables.
        for support in supports:
            support[0, :] = support[1, :]
        evaluator = AssignedCostEvaluator(supports, probabilities)
        replaced = [s.copy() for s in supports]
        for step in range(4):
            column = int(rng.integers(0, 6))
            blocks = [rng.uniform(0.0, 4.0, size=(s.shape[0], 1)) for s in supports]
            evaluator.replace_candidate_columns(np.asarray([column]), blocks)
            for new, block in zip(replaced, blocks):
                new[:, column] = block[:, 0]
        scratch = AssignedCostEvaluator(replaced, probabilities)
        rows = rng.integers(0, 6, size=(16, len(supports)))
        np.testing.assert_array_equal(evaluator.costs(rows), scratch.costs(rows))

    def test_single_column_rejects_bad_shapes(self):
        rng = np.random.default_rng(0)
        supports, probabilities = _random_instance(rng)
        evaluator = AssignedCostEvaluator(supports, probabilities)
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError):
            evaluator.replace_candidate_columns(np.asarray([99]), [
                rng.uniform(size=(s.shape[0], 1)) for s in supports
            ])
        with pytest.raises(ValidationError):
            evaluator.replace_candidate_columns(np.asarray([0, 0]), [
                rng.uniform(size=(s.shape[0], 2)) for s in supports
            ])


class TestContextReplaceColumns:
    def test_matches_scratch_context_everywhere(self):
        dataset, _ = gaussian_clusters(n=6, z=3, dimension=2, k_true=2, seed=13)
        candidates = dataset.all_locations()[:8]
        context = CostContext(dataset, candidates)
        context.evaluator  # materialize everything before splicing
        context.expected
        rng = np.random.default_rng(1)
        columns = np.asarray([0, 5])
        replacement = rng.uniform(-2.0, 2.0, size=(2, 2))
        context.replace_candidate_columns(columns, replacement)

        new_candidates = candidates.copy()
        new_candidates[columns] = replacement
        scratch = CostContext(dataset, new_candidates)

        np.testing.assert_allclose(context.expected, scratch.expected, rtol=1e-13)
        rows = rng.integers(0, 8, size=(16, dataset.size))
        np.testing.assert_allclose(
            context.assigned_costs(rows), scratch.assigned_costs(rows), rtol=1e-13
        )
        subsets = np.asarray([[0, 3], [5, 6], [1, 2]])
        np.testing.assert_allclose(
            context.unassigned_costs(subsets), scratch.unassigned_costs(subsets), rtol=1e-13
        )
        np.testing.assert_array_equal(context.ed_assignments(subsets), scratch.ed_assignments(subsets))

    def test_lazy_context_defers_to_fresh_build(self):
        dataset, _ = gaussian_clusters(n=5, z=2, dimension=2, k_true=2, seed=14)
        candidates = dataset.all_locations()[:6]
        context = CostContext(dataset, candidates)
        replacement = np.asarray([[0.25, -0.75]])
        context.replace_candidate_columns(np.asarray([2]), replacement)  # nothing built yet
        new_candidates = candidates.copy()
        new_candidates[2] = replacement
        scratch = CostContext(dataset, new_candidates)
        np.testing.assert_array_equal(context.expected, scratch.expected)


class TestWangZhangIncremental:
    def test_descent_builds_one_context_per_start(self):
        dataset, _ = line_workload(n=6, z=3, segment_count=3, seed=2)
        original_init = context_module.CostContext.__init__
        counter = {"constructions": 0}

        def counting_init(self, *args, **kwargs):
            counter["constructions"] += 1
            return original_init(self, *args, **kwargs)

        context_module.CostContext.__init__ = counting_init
        try:
            result = wang_zhang_1d(dataset, 3, restarts=2, refine_rounds=10)
        finally:
            context_module.CostContext.__init__ = original_init
        # One context per restart (3 starts), none per coordinate sweep: the
        # historical implementation constructed rounds * k contexts per start.
        assert counter["constructions"] == result.metadata["restarts"] == 3

    def test_ed_cost_routes_through_context_and_store(self):
        dataset, _ = line_workload(n=6, z=3, segment_count=2, seed=7)
        centers = dataset.expected_points()[:2]
        baseline_cost, baseline_labels = _ed_cost(dataset, centers)

        superset = np.vstack([centers, dataset.all_locations()[:4]])
        context = CostContext(dataset, superset)
        routed_cost, routed_labels = _ed_cost(dataset, centers, context=context)
        assert routed_cost == pytest.approx(baseline_cost, rel=1e-12)
        np.testing.assert_array_equal(routed_labels, baseline_labels)

        store = ContextStore()
        store_cost, store_labels = _ed_cost(dataset, centers, store=store)
        again_cost, _ = _ed_cost(dataset, centers, store=store)
        assert store_cost == baseline_cost == again_cost
        np.testing.assert_array_equal(store_labels, baseline_labels)
        assert store.hits == 1  # the second call reused the memoized context

    def test_foreign_context_falls_back(self):
        dataset, _ = line_workload(n=5, z=2, segment_count=2, seed=3)
        centers = dataset.expected_points()[:2]
        # A context over unrelated candidates cannot serve these centers.
        context = CostContext(dataset, dataset.all_locations()[:3] + 17.0)
        cost, labels = _ed_cost(dataset, centers, context=context)
        baseline_cost, baseline_labels = _ed_cost(dataset, centers)
        assert cost == baseline_cost
        np.testing.assert_array_equal(labels, baseline_labels)
