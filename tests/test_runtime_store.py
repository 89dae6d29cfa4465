"""ContextStore keying, invalidation and LRU behavior."""

from __future__ import annotations

import random
import sys
import threading
from collections import OrderedDict

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


class TestThreadSafety:
    def test_no_eviction_between_lookup_and_move_to_end(self, instance):
        # repro serve calls one store from every solve thread.  Park a hit
        # right after its lookup while a second thread's miss evicts the
        # entry: an unlocked store then fails move_to_end with KeyError.  A
        # locked store blocks the intruder until the hit returns, so the
        # wait below is bounded instead of a deadlock.
        dataset, candidates = instance
        other, _ = gaussian_clusters(n=6, z=3, dimension=2, k_true=2, seed=10)
        store = ContextStore(maxsize=1)
        first = store.get(dataset, candidates)
        intruder_done = threading.Event()
        errors: list[Exception] = []

        def intrude() -> None:
            try:
                store.get(other, candidates)  # a miss that evicts the only entry
            except Exception as error:
                errors.append(error)
            finally:
                intruder_done.set()

        intruder = threading.Thread(target=intrude)

        class ParkingEntries(OrderedDict):
            armed = True

            def get(self, key, default=None):
                entry = super().get(key, default)
                if entry is not None and ParkingEntries.armed:
                    ParkingEntries.armed = False
                    intruder.start()
                    intruder_done.wait(timeout=0.5)
                return entry

        store._entries = ParkingEntries(store._entries)
        assert store.get(dataset, candidates) is first
        intruder.join(timeout=30)
        assert not intruder.is_alive()
        assert errors == []
        assert (store.hits, store.misses) == (1, 2)
        assert len(store) == 1

    def test_concurrent_gets_lose_no_lookup(self, instance):
        # A bounded stress run: more threads than cores, seeded picks over
        # more datasets than slots, so hits and evictions interleave.  Every
        # get is counted exactly once as a hit or a miss, and none raises.
        _, candidates = instance
        datasets = [
            gaussian_clusters(n=6, z=3, dimension=2, k_true=2, seed=seed)[0] for seed in range(3)
        ]
        store = ContextStore(maxsize=2)
        threads, gets = 8, 300
        errors: list[Exception] = []
        start = threading.Barrier(threads)

        def hammer(thread: int) -> None:
            picks = random.Random(thread).choices(datasets, k=gets)
            start.wait()
            try:
                for dataset in picks:
                    store.get(dataset, candidates)
            except Exception as error:
                errors.append(error)

        previous_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=hammer, args=(thread,)) for thread in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(previous_interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        assert store.hits + store.misses == threads * gets
        assert store.hits > 0 and len(store) == 2
