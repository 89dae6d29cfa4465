"""ContextStore keying, invalidation and LRU behavior."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cost.context import CostContext
from repro.runtime import ContextStore, candidate_fingerprint, dataset_fingerprint
from repro.uncertain import UncertainDataset, UncertainPoint
from repro.workloads import gaussian_clusters


@pytest.fixture()
def instance():
    dataset, _ = gaussian_clusters(n=6, z=3, dimension=2, k_true=2, seed=9)
    return dataset, dataset.expected_points()[:4]


class TestFingerprints:
    def test_dataset_fingerprint_is_content_based(self, instance):
        dataset, _ = instance
        twin = UncertainDataset(points=dataset.points, metric=dataset.metric)
        assert dataset_fingerprint(dataset) == dataset_fingerprint(twin)

    def test_dataset_fingerprint_changes_with_content(self, instance):
        dataset, _ = instance
        points = list(dataset.points)
        moved = points[0].locations.copy()
        moved[0, 0] += 1e-9
        points[0] = UncertainPoint(
            locations=moved, probabilities=points[0].probabilities, label=points[0].label
        )
        perturbed = UncertainDataset(points=tuple(points), metric=dataset.metric)
        assert dataset_fingerprint(dataset) != dataset_fingerprint(perturbed)

    def test_candidate_fingerprint_sensitive_to_values_and_shape(self):
        candidates = np.asarray([[0.0, 1.0], [2.0, 3.0]])
        assert candidate_fingerprint(candidates) == candidate_fingerprint(candidates.copy())
        assert candidate_fingerprint(candidates) != candidate_fingerprint(candidates + 1e-12)
        assert candidate_fingerprint(candidates) != candidate_fingerprint(candidates.reshape(4, 1))


class TestContextStore:
    def test_hit_returns_same_object(self, instance):
        dataset, candidates = instance
        store = ContextStore()
        first = store.get(dataset, candidates)
        second = store.get(dataset, candidates.copy())  # equal content, new array
        assert second is first
        assert (store.hits, store.misses) == (1, 1)

    def test_changed_candidates_rebuild(self, instance):
        dataset, candidates = instance
        store = ContextStore()
        first = store.get(dataset, candidates)
        second = store.get(dataset, candidates + 0.5)
        assert second is not first
        assert store.misses == 2

    def test_changed_dataset_rebuilds(self, instance):
        dataset, candidates = instance
        store = ContextStore()
        store.get(dataset, candidates)
        other, _ = gaussian_clusters(n=6, z=3, dimension=2, k_true=2, seed=10)
        assert store.get(other, candidates) is not store.get(dataset, candidates)
        assert store.misses == 2

    def test_memoized_context_scores_identically(self, instance):
        dataset, candidates = instance
        store = ContextStore()
        labels = np.zeros(dataset.size, dtype=int)
        memoized = store.get(dataset, candidates).assigned_cost(labels)
        fresh = CostContext(dataset, candidates).assigned_cost(labels)
        assert memoized == fresh

    def test_lru_eviction_is_bounded(self, instance):
        dataset, candidates = instance
        store = ContextStore(maxsize=2)
        store.get(dataset, candidates)
        store.get(dataset, candidates + 1.0)
        store.get(dataset, candidates + 2.0)  # evicts the first entry
        assert len(store) == 2
        store.get(dataset, candidates)  # miss again: it aged out
        assert store.misses == 4

    def test_clear_resets_counters(self, instance):
        dataset, candidates = instance
        store = ContextStore()
        store.get(dataset, candidates)
        store.clear()
        assert (len(store), store.hits, store.misses) == (0, 0, 0)
