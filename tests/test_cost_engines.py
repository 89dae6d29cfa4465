"""Cross-validation of the three expected-cost engines and the cost wrappers."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.assignments import ExpectedDistanceAssignment
from repro.cost import (
    assigned_cost_evaluator,
    distance_supports_for_assignment,
    distance_supports_for_centers,
    enumerate_expected_cost_assigned,
    enumerate_expected_cost_unassigned,
    expected_cost_assigned,
    expected_cost_unassigned,
    expected_distance,
    expected_distance_matrix,
    expected_max_of_independent,
    expected_one_center_cost,
    expected_one_center_costs,
    monte_carlo_cost_assigned,
    monte_carlo_cost_unassigned,
)
import repro.cost.expected as expected_module
from repro.cost.context import CostContext
from repro.exceptions import ValidationError
from tests.conftest import make_graph_dataset, make_ragged_dataset, make_uncertain_dataset


@pytest.fixture
def small_instance():
    dataset = make_uncertain_dataset(n=5, z=3, dimension=2, seed=7)
    rng = np.random.default_rng(3)
    centers = rng.normal(scale=4.0, size=(2, 2))
    assignment = ExpectedDistanceAssignment()(dataset, centers)
    return dataset, centers, assignment


class TestExactVsEnumeration:
    def test_unassigned_agreement(self, small_instance):
        dataset, centers, _ = small_instance
        exact = expected_cost_unassigned(dataset, centers)
        enumerated = enumerate_expected_cost_unassigned(dataset, centers)
        assert exact == pytest.approx(enumerated, rel=1e-10)

    def test_assigned_agreement(self, small_instance):
        dataset, centers, assignment = small_instance
        exact = expected_cost_assigned(dataset, centers, assignment)
        enumerated = enumerate_expected_cost_assigned(dataset, centers, assignment)
        assert exact == pytest.approx(enumerated, rel=1e-10)

    def test_agreement_on_graph_metric(self):
        dataset = make_graph_dataset(n=4, z=2, nodes=12, seed=1)
        centers = dataset.metric.all_elements()[:2]
        assignment = ExpectedDistanceAssignment()(dataset, centers)
        exact = expected_cost_assigned(dataset, centers, assignment)
        enumerated = enumerate_expected_cost_assigned(dataset, centers, assignment)
        assert exact == pytest.approx(enumerated, rel=1e-10)
        exact_u = expected_cost_unassigned(dataset, centers)
        enumerated_u = enumerate_expected_cost_unassigned(dataset, centers)
        assert exact_u == pytest.approx(enumerated_u, rel=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_agreement_random_instances(self, seed):
        dataset = make_uncertain_dataset(n=4, z=3, dimension=2, seed=seed)
        rng = np.random.default_rng(seed + 100)
        centers = rng.normal(scale=5.0, size=(3, 2))
        assignment = rng.integers(0, 3, size=4)
        exact = expected_cost_assigned(dataset, centers, assignment)
        enumerated = enumerate_expected_cost_assigned(dataset, centers, assignment)
        assert exact == pytest.approx(enumerated, rel=1e-10)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("dimension", [1, 8])
    def test_ragged_supports_agree_with_enumeration(self, dimension, seed):
        dataset = make_ragged_dataset(dimension, seed=seed)
        rng = np.random.default_rng(seed + 200)
        centers = rng.normal(scale=3.0, size=(3, dimension))
        assignment = rng.integers(0, 3, size=dataset.size)
        unassigned = expected_cost_unassigned(dataset, centers)
        assigned = expected_cost_assigned(dataset, centers, assignment)
        assert unassigned == pytest.approx(
            enumerate_expected_cost_unassigned(dataset, centers), rel=1e-10
        )
        assert assigned == pytest.approx(
            enumerate_expected_cost_assigned(dataset, centers, assignment), rel=1e-10
        )
        # The per-point supports are views of the very distances the scalar
        # path scores, so re-flattening them reproduces its result exactly.
        unassigned_supports = distance_supports_for_centers(dataset, centers)
        assigned_supports = distance_supports_for_assignment(dataset, centers, assignment)
        assert expected_max_of_independent(*unassigned_supports) == unassigned
        assert expected_max_of_independent(*assigned_supports) == assigned

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("dimension", [1, 8])
    def test_batched_one_center_costs_agree_with_enumeration(self, dimension, seed):
        # Ragged supports with zero probabilities and repeated locations; the
        # dataset's own locations as centers add zero distances and ties.
        dataset = make_ragged_dataset(dimension, seed=seed)
        rng = np.random.default_rng(seed + 300)
        centers = np.vstack(
            [rng.normal(scale=3.0, size=(5, dimension)), dataset.all_locations()[:4]]
        )
        batched = expected_one_center_costs(dataset, centers)
        assert batched.shape == (centers.shape[0],)
        for center, cost in zip(centers, batched):
            assert cost == pytest.approx(
                enumerate_expected_cost_unassigned(dataset, center[None, :]), rel=1e-10
            )
            scalar = expected_one_center_cost(dataset, center)
            assert expected_one_center_costs(dataset, center[None, :])[0] == scalar
            if dimension == 1:
                # One multiply per distance: batching cannot move a distance.
                assert cost == scalar
            else:
                # A many-center BLAS product may round a distance an ulp apart.
                assert cost == pytest.approx(scalar, rel=1e-15, abs=0.0)

    def test_batches_above_the_entry_cap_run_as_separate_blocks(self, monkeypatch):
        dataset = make_ragged_dataset(3, seed=1)
        centers = np.random.default_rng(5).normal(scale=3.0, size=(7, 3))
        entries = dataset.location_layout().owners.shape[0]
        monkeypatch.setattr(expected_module, "BATCH_ENTRY_CAP", 2 * entries + 1)
        widths = []
        pairwise = dataset.metric.pairwise

        def recording(a, b):
            widths.append(np.asarray(b).shape[0])
            return pairwise(a, b)

        monkeypatch.setattr(dataset.metric, "pairwise", recording)
        batched = expected_one_center_costs(dataset, centers)
        assert widths == [2, 2, 2, 1]
        chunks = [centers[first : first + 2] for first in (0, 2, 4, 6)]
        separate = np.concatenate([expected_one_center_costs(dataset, chunk) for chunk in chunks])
        assert np.array_equal(batched, separate)


def _bits(costs) -> np.ndarray:
    return np.asarray(costs, dtype=float).view(np.uint64)


def _ragged_instance(dimension: int, seed: int):
    """A ragged dataset (zero probabilities, repeated locations) and
    candidates with zero distances, ties and two duplicate columns."""
    dataset = make_ragged_dataset(dimension, seed=seed)
    rng = np.random.default_rng(seed + 400)
    locations = dataset.all_locations()
    candidates = np.vstack(
        [locations[:4], rng.normal(scale=3.0, size=(3, dimension)), locations[:2]]
    )
    return dataset, candidates


class TestAssignedRankMerge:
    """``AssignedCostEvaluator.costs`` (the rank merge) against its float-sort
    twin and the scalar ``cost``, compared bit for bit."""

    @staticmethod
    def assert_merge_exact(evaluator, rows, **kwargs):
        merged = evaluator.costs(rows, **kwargs)
        assert evaluator._rank_tables is not None  # the merge scored it
        assert np.array_equal(_bits(merged), _bits(evaluator._costs_float_sort(rows)))
        assert np.array_equal(_bits(merged), _bits([evaluator.cost(row) for row in rows]))
        return merged

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("dimension", [1, 3])
    def test_ragged_supports_and_duplicate_columns(self, dimension, seed):
        dataset, candidates = _ragged_instance(dimension, seed)
        evaluator = assigned_cost_evaluator(dataset, candidates)
        rows = np.random.default_rng(seed).integers(
            0, candidates.shape[0], size=(40, dataset.size)
        )
        # Columns 7 and 8 repeat columns 0 and 1: equal values, other ranks.
        rows[:10] = rows[:10] % 2
        rows[10:20] = rows[:10] + 7
        merged = self.assert_merge_exact(evaluator, rows)
        assert np.array_equal(_bits(merged[:10]), _bits(merged[10:20]))
        for row, cost in zip(rows[:4], merged):
            assert cost == pytest.approx(
                enumerate_expected_cost_assigned(dataset, candidates, row), rel=1e-10
            )

    def test_batches_straddle_block_boundaries(self, monkeypatch):
        dataset, candidates = _ragged_instance(2, 1)
        evaluator = assigned_cost_evaluator(dataset, candidates)
        rows = np.random.default_rng(7).integers(0, candidates.shape[0], size=(23, dataset.size))
        whole = self.assert_merge_exact(evaluator, rows)
        entries = dataset.location_layout().owners.shape[0]
        monkeypatch.setattr(expected_module, "RANK_MERGE_BLOCK_ENTRIES", 3 * entries + 1)
        assert np.array_equal(_bits(self.assert_merge_exact(evaluator, rows)), _bits(whole))
        assert np.array_equal(
            _bits(self.assert_merge_exact(evaluator, rows, chunk_rows=5)), _bits(whole)
        )

    def test_f_ordered_and_strided_rows(self):
        dataset, candidates = _ragged_instance(2, 2)
        evaluator = assigned_cost_evaluator(dataset, candidates)
        rows = np.random.default_rng(9).integers(0, candidates.shape[0], size=(30, dataset.size))
        contiguous = self.assert_merge_exact(evaluator, rows)
        # ``rows[:, owners]`` on such inputs gathers in F order, whose
        # sweep reductions may round an ulp apart; ``take`` keeps C order.
        fortran = np.asfortranarray(rows)
        strided = np.repeat(rows, 2, axis=0)[::2]
        for layout in (fortran, strided):
            assert not layout.flags["C_CONTIGUOUS"]
            assert np.array_equal(_bits(evaluator.costs(layout)), _bits(contiguous))
        reversed_rows = rows[::-1]
        assert np.array_equal(_bits(evaluator.costs(reversed_rows)), _bits(contiguous[::-1]))

    def test_replaced_columns_never_read_stale_tables(self):
        dataset, candidates = _ragged_instance(2, 0)
        context = CostContext(dataset, candidates)
        rows = np.random.default_rng(4).integers(0, candidates.shape[0], size=(20, dataset.size))
        before = self.assert_merge_exact(context.evaluator, rows)
        replaced = np.array([1, 5])
        new_candidates = candidates[replaced] + 0.75
        context.replace_candidate_columns(replaced, new_candidates)
        assert context.evaluator._rank_tables is None
        after = self.assert_merge_exact(context.evaluator, rows)
        fresh = CostContext(dataset, context.candidates).evaluator
        assert np.array_equal(_bits(after), _bits(fresh.costs(rows)))
        moved = np.isin(rows, replaced).any(axis=1)
        assert moved.any() and not np.array_equal(_bits(after[moved]), _bits(before[moved]))
        assert np.array_equal(_bits(after[~moved]), _bits(before[~moved]))

    def test_pickle_round_trip_drops_and_rebuilds_tables(self):
        dataset, candidates = _ragged_instance(2, 1)
        context = CostContext(dataset, candidates)
        rows = np.random.default_rng(5).integers(0, candidates.shape[0], size=(20, dataset.size))
        evaluator = context.evaluator
        unbuilt = pickle.dumps(evaluator)
        merged = self.assert_merge_exact(evaluator, rows)
        assert pickle.dumps(evaluator) == unbuilt  # the tables are never pickled
        for copy in (pickle.loads(unbuilt), pickle.loads(pickle.dumps(context)).evaluator):
            assert copy._rank_tables is None
            assert np.array_equal(_bits(self.assert_merge_exact(copy, rows)), _bits(merged))

    def test_fewer_rows_than_columns_build_no_tables(self):
        dataset, candidates = _ragged_instance(2, 2)
        evaluator = assigned_cost_evaluator(dataset, candidates)
        rows = np.random.default_rng(6).integers(
            0, candidates.shape[0], size=(candidates.shape[0], dataset.size)
        )
        few = evaluator.costs(rows[:-1])
        assert evaluator._rank_tables is None
        assert np.array_equal(_bits(few), _bits(self.assert_merge_exact(evaluator, rows)[:-1]))
        # Once built, the tables serve small batches too.
        assert np.array_equal(_bits(evaluator.costs(rows[:1])), _bits(few[:1]))


class TestMonteCarlo:
    def test_unassigned_statistical_agreement(self, small_instance):
        dataset, centers, _ = small_instance
        exact = expected_cost_unassigned(dataset, centers)
        estimate = monte_carlo_cost_unassigned(dataset, centers, samples=40_000, rng=0)
        assert estimate.within(exact, sigmas=5.0)

    def test_assigned_statistical_agreement(self, small_instance):
        dataset, centers, assignment = small_instance
        exact = expected_cost_assigned(dataset, centers, assignment)
        estimate = monte_carlo_cost_assigned(dataset, centers, assignment, samples=40_000, rng=1)
        assert estimate.within(exact, sigmas=5.0)

    def test_confidence_interval_contains_value(self, small_instance):
        dataset, centers, _ = small_instance
        estimate = monte_carlo_cost_unassigned(dataset, centers, samples=5_000, rng=2)
        low, high = estimate.confidence_interval
        assert low <= estimate.value <= high

    def test_confidence_interval_clamped_at_zero(self):
        from repro.cost import MonteCarloEstimate

        # A noisy estimate near zero must not report a negative lower bound:
        # the cost objectives are expectations of distances.
        estimate = MonteCarloEstimate(value=0.01, standard_error=0.5, samples=10)
        low, high = estimate.confidence_interval
        assert low == 0.0
        assert high == pytest.approx(0.01 + 1.96 * 0.5)

    def test_assignment_length_validated(self, small_instance):
        dataset, centers, _ = small_instance
        with pytest.raises(ValidationError):
            monte_carlo_cost_assigned(dataset, centers, np.array([0]), samples=10)

    def test_seed_reproducibility(self, small_instance):
        dataset, centers, _ = small_instance
        a = monte_carlo_cost_unassigned(dataset, centers, samples=1000, rng=7)
        b = monte_carlo_cost_unassigned(dataset, centers, samples=1000, rng=7)
        assert a.value == pytest.approx(b.value)


class TestCostStructure:
    def test_unassigned_leq_assigned(self, small_instance):
        # Assigning every realization of a point to one fixed center can only
        # increase the expected max compared to always using the nearest center.
        dataset, centers, assignment = small_instance
        assert expected_cost_unassigned(dataset, centers) <= expected_cost_assigned(
            dataset, centers, assignment
        ) + 1e-12

    def test_more_centers_never_hurt_unassigned(self, small_instance):
        dataset, centers, _ = small_instance
        extended = np.vstack([centers, np.array([[50.0, 50.0]])])
        assert expected_cost_unassigned(dataset, extended) <= expected_cost_unassigned(dataset, centers) + 1e-12

    def test_certain_dataset_reduces_to_deterministic_cost(self, certain_dataset):
        centers = certain_dataset.all_locations()[:2]
        assignment = ExpectedDistanceAssignment()(certain_dataset, centers)
        exact = expected_cost_assigned(certain_dataset, centers, assignment)
        # For certain points the expected max equals the deterministic max of
        # the assigned distances.
        metric = certain_dataset.metric
        manual = max(
            metric.distance(point.locations[0], centers[assignment[index]])
            for index, point in enumerate(certain_dataset)
        )
        assert exact == pytest.approx(manual)

    def test_expected_one_center_cost_matches_unassigned(self, small_instance):
        dataset, centers, _ = small_instance
        single = centers[0]
        assert expected_one_center_cost(dataset, single) == pytest.approx(
            expected_cost_unassigned(dataset, single.reshape(1, -1))
        )

    def test_supports_shapes(self, small_instance):
        dataset, centers, assignment = small_instance
        values, probabilities = distance_supports_for_assignment(dataset, centers, assignment)
        assert len(values) == dataset.size
        for point, value, probability in zip(dataset, values, probabilities):
            assert value.shape == (point.support_size,)
            assert probability.shape == (point.support_size,)
        values_u, _ = distance_supports_for_centers(dataset, centers)
        for point, value in zip(dataset, values_u):
            assert value.shape == (point.support_size,)

    def test_assignment_validation(self, small_instance):
        dataset, centers, _ = small_instance
        with pytest.raises(ValidationError):
            expected_cost_assigned(dataset, centers, np.array([0, 1]))
        with pytest.raises(ValidationError):
            expected_cost_assigned(dataset, centers, np.array([0, 1, 5, 0, 1]))

    def test_expected_distance_wrappers(self, small_instance):
        dataset, centers, _ = small_instance
        value = expected_distance(dataset, 0, centers[0])
        manual = dataset[0].expected_distance_to(centers[0], dataset.metric)
        assert value == pytest.approx(manual)
        matrix = expected_distance_matrix(dataset, centers)
        assert matrix.shape == (dataset.size, 2)
        assert matrix[0, 0] == pytest.approx(manual)
        with pytest.raises(ValidationError):
            expected_distance(dataset, 99, centers[0])
