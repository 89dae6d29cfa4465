"""Unit tests for :class:`repro.UncertainDataset` and realization utilities."""

from __future__ import annotations

import pickle
import sys
import threading

import numpy as np
import pytest

from repro import UncertainDataset, UncertainPoint
from repro.cost import (
    expected_cost_assigned,
    expected_cost_unassigned,
    expected_max_of_independent,
)
from repro.exceptions import NotSupportedError, ValidationError
from repro.metrics import ManhattanMetric, MatrixMetric
from repro.runtime.store import dataset_fingerprint
from repro.uncertain import (
    enumerate_realizations,
    iter_realizations,
    realization_probability,
    sample_realizations,
)
from tests.conftest import make_ragged_dataset, make_uncertain_dataset


class TestDatasetBasics:
    def test_properties(self, euclidean_dataset):
        assert euclidean_dataset.size == 6
        assert euclidean_dataset.dimension == 2
        assert euclidean_dataset.max_support_size == 3
        assert euclidean_dataset.total_locations == 18
        assert euclidean_dataset.realization_count == 3**6
        assert len(euclidean_dataset) == 6

    def test_indexing_and_iteration(self, euclidean_dataset):
        assert isinstance(euclidean_dataset[0], UncertainPoint)
        assert len(list(euclidean_dataset)) == 6

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            UncertainDataset(points=())

    def test_mixed_dimensions_rejected(self):
        a = UncertainPoint.certain([0.0, 0.0])
        b = UncertainPoint.certain([0.0, 0.0, 0.0])
        with pytest.raises(ValidationError):
            UncertainDataset(points=(a, b))

    def test_non_point_rejected(self):
        with pytest.raises(ValidationError):
            UncertainDataset(points=("not a point",))

    def test_from_locations_uniform(self):
        dataset = UncertainDataset.from_locations([[[0.0], [1.0]], [[5.0], [6.0]]])
        assert dataset.size == 2
        np.testing.assert_allclose(dataset[0].probabilities, [0.5, 0.5])

    def test_from_locations_with_probabilities(self):
        dataset = UncertainDataset.from_locations(
            [[[0.0], [1.0]]], probabilities=[[0.2, 0.8]], labels=["a"]
        )
        assert dataset[0].label == "a"
        np.testing.assert_allclose(dataset[0].probabilities, [0.2, 0.8])

    def test_from_certain_points(self):
        dataset = UncertainDataset.from_certain_points(np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert dataset.size == 2
        assert all(point.is_certain for point in dataset)

    def test_stacked_views(self, euclidean_dataset):
        locations = euclidean_dataset.all_locations()
        owners = euclidean_dataset.location_owners()
        probabilities = euclidean_dataset.all_probabilities()
        assert locations.shape == (18, 2)
        assert owners.shape == (18,)
        assert probabilities.shape == (18,)
        # Per-point probabilities each sum to one.
        for index in range(euclidean_dataset.size):
            assert probabilities[owners == index].sum() == pytest.approx(1.0)

    def test_expected_points_shape_and_value(self, euclidean_dataset):
        expected = euclidean_dataset.expected_points()
        assert expected.shape == (6, 2)
        manual = (
            euclidean_dataset[0].probabilities[:, None] * euclidean_dataset[0].locations
        ).sum(axis=0)
        np.testing.assert_allclose(expected[0], manual)

    def test_expected_points_rejected_on_finite_metric(self, graph_dataset):
        with pytest.raises(NotSupportedError):
            graph_dataset.expected_points()

    def test_subset_and_with_metric(self, euclidean_dataset):
        subset = euclidean_dataset.subset([0, 2])
        assert subset.size == 2
        matrix = MatrixMetric(np.zeros((1, 1)))
        assert euclidean_dataset.with_metric(matrix).metric is matrix


def _per_point_unassigned_cost(dataset: UncertainDataset, centers: np.ndarray) -> float:
    """The unassigned cost from one metric call per point (no shared layout)."""
    values = [dataset.metric.pairwise(point.locations, centers).min(axis=1) for point in dataset]
    return expected_max_of_independent(values, [point.probabilities for point in dataset])


class TestLocationLayout:
    def test_stacked_views_are_cached_and_read_only(self):
        dataset = make_ragged_dataset(dimension=2, seed=3)
        assert dataset.all_locations() is dataset.all_locations()
        np.testing.assert_array_equal(
            dataset.all_locations(), np.vstack([point.locations for point in dataset])
        )
        np.testing.assert_array_equal(
            dataset.location_owners(),
            np.concatenate([np.full(point.support_size, i) for i, point in enumerate(dataset)]),
        )
        views = (dataset.all_locations(), dataset.all_probabilities(), dataset.location_owners())
        for array in views:
            with pytest.raises(ValueError):
                array[0] = 0

    def test_cost_call_leaves_no_visible_trace(self):
        dataset = make_ragged_dataset(dimension=2, seed=4)
        twin = UncertainDataset(points=dataset.points, metric=dataset.metric)
        centers = np.array([[0.0, 0.0], [2.0, -1.0]])

        def observed(subject: UncertainDataset) -> tuple:
            fingerprint = dataset_fingerprint(subject)
            return pickle.dumps(subject), subject.to_dict(), fingerprint, repr(subject)

        assignment = np.arange(dataset.size) % 2
        before = observed(dataset)
        cost = expected_cost_unassigned(dataset, centers)
        assigned = expected_cost_assigned(dataset, centers, assignment)
        assert observed(dataset) == before == observed(twin)
        assert dataset == twin and twin == dataset
        restored = pickle.loads(pickle.dumps(dataset))
        assert expected_cost_unassigned(restored, centers) == cost
        assert expected_cost_assigned(restored, centers, assignment) == assigned

    def test_subset_and_with_metric_get_their_own_layout(self):
        dataset = make_ragged_dataset(dimension=2, seed=5)
        centers = np.array([[1.0, 0.5], [-2.0, 1.0]])
        expected_cost_unassigned(dataset, centers)  # build the parent's layout first
        for derived in (
            dataset.subset([4, 1, 0]),
            dataset.subset([6, 2]),
            dataset.with_metric(ManhattanMetric()),
        ):
            assert derived.location_layout() is not dataset.location_layout()
            assert expected_cost_unassigned(derived, centers) == pytest.approx(
                _per_point_unassigned_cost(derived, centers), rel=1e-12
            )

    def test_first_calls_from_threads_agree_bit_for_bit(self):
        template = make_ragged_dataset(dimension=8, seed=6)
        centers = np.random.default_rng(6).normal(scale=3.0, size=(3, 8))
        reference = expected_cost_unassigned(
            UncertainDataset(points=template.points, metric=template.metric), centers
        )
        dataset = UncertainDataset(points=template.points, metric=template.metric)
        barrier = threading.Barrier(8)
        results: list[float | None] = [None] * 8

        def first_call(slot: int) -> None:
            barrier.wait(timeout=10)
            results[slot] = expected_cost_unassigned(dataset, centers)

        threads = [threading.Thread(target=first_call, args=(slot,)) for slot in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [reference] * 8


class TestSamplingAndSerialization:
    def test_sample_realization_shape(self, euclidean_dataset):
        realization = euclidean_dataset.sample_realization(rng=0)
        assert realization.shape == (6, 2)

    def test_sample_realizations_shape(self, euclidean_dataset):
        realizations = euclidean_dataset.sample_realizations(10, rng=0)
        assert realizations.shape == (10, 6, 2)

    def test_sampled_locations_are_from_support(self, euclidean_dataset):
        realizations = euclidean_dataset.sample_realizations(20, rng=1)
        for point_index, point in enumerate(euclidean_dataset):
            for sample in realizations[:, point_index, :]:
                assert any(np.allclose(sample, location) for location in point.locations)

    def test_json_round_trip(self, tmp_path, euclidean_dataset):
        path = tmp_path / "dataset.json"
        euclidean_dataset.save_json(path)
        restored = UncertainDataset.load_json(path)
        assert restored.size == euclidean_dataset.size
        np.testing.assert_allclose(restored.all_locations(), euclidean_dataset.all_locations())
        np.testing.assert_allclose(restored.all_probabilities(), euclidean_dataset.all_probabilities())

    def test_from_dict_empty_rejected(self):
        with pytest.raises(ValidationError):
            UncertainDataset.from_dict({"points": []})


class TestRealizations:
    def test_enumeration_count_and_mass(self):
        dataset = make_uncertain_dataset(n=3, z=2, dimension=1, seed=1)
        realizations = enumerate_realizations(dataset)
        assert len(realizations) == 8
        assert sum(r.probability for r in realizations) == pytest.approx(1.0)

    def test_each_realization_picks_one_location_per_point(self):
        dataset = make_uncertain_dataset(n=3, z=2, dimension=2, seed=2)
        for realization in iter_realizations(dataset):
            assert realization.locations.shape == (3, 2)
            for point_index, choice in enumerate(realization.choice_indices):
                np.testing.assert_allclose(
                    realization.locations[point_index], dataset[point_index].locations[choice]
                )

    def test_enumeration_cap(self):
        dataset = make_uncertain_dataset(n=8, z=6, dimension=1, seed=3)
        with pytest.raises(ValidationError):
            enumerate_realizations(dataset, max_realizations=1000)

    def test_realization_probability(self):
        dataset = make_uncertain_dataset(n=2, z=2, dimension=1, seed=4)
        probability = realization_probability(dataset, (0, 1))
        expected = float(dataset[0].probabilities[0] * dataset[1].probabilities[1])
        assert probability == pytest.approx(expected)

    def test_realization_probability_validation(self):
        dataset = make_uncertain_dataset(n=2, z=2, dimension=1, seed=4)
        with pytest.raises(ValidationError):
            realization_probability(dataset, (0,))
        with pytest.raises(ValidationError):
            realization_probability(dataset, (0, 5))

    def test_sample_realizations_helper(self):
        dataset = make_uncertain_dataset(n=3, z=2, dimension=2, seed=5)
        samples = sample_realizations(dataset, 7, rng=0)
        assert samples.shape == (7, 3, 2)
