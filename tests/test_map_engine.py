"""The one map engine: per-thread incumbents and stops on every transport.

Two contracts the engine owns beyond plain bit-identity:

* **Per-thread incumbents** — the in-process loop binds exactly its own
  map's incumbent in the calling thread, so concurrent serial solves of
  *different* instances (``repro serve`` answers requests on threads) never
  prune against each other's incumbents, and nothing stays bound after the
  solves return.  Checked in-process and through ``/v1/solve``.
* **Stops on the pickled transport** — with shared memory off, a pooled
  enumeration still honors ``gap_target`` and ``time_budget`` and reports
  them with a sound certificate, whatever the payload size.
"""

from __future__ import annotations

import pickle
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.baselines.brute_force import brute_force_restricted_assigned, brute_force_unassigned
from repro.cost.context import DEFAULT_CHUNK_ROWS, CostContext
from repro.runtime import incumbent as incumbent_module
from repro.runtime import set_oversubscribe, shutdown_runtime
from repro.serve import ReproServer, ServeClient, ServeConfig
from repro.uncertain.dataset import UncertainDataset
from repro.workloads import gaussian_clusters

THREADS = 8
SOLVES_PER_THREAD = 20
INSTANCES = 8


def _instance(seed: int, candidate_count: int = 18):
    dataset, _ = gaussian_clusters(n=12, z=4, dimension=2, k_true=4, seed=seed)
    return dataset, dataset.all_locations()[:candidate_count]


def _solve(dataset, candidates, restricted: bool, chunk_rows: int = 32):
    solver = brute_force_restricted_assigned if restricted else brute_force_unassigned
    return solver(dataset, 4, candidates=candidates, chunk_rows=chunk_rows)


class TestPerThreadIncumbent:
    def test_concurrent_serial_solves_of_distinct_instances_match_serial(self):
        instances = [_instance(seed) for seed in range(INSTANCES)]
        references = {
            (seed, restricted): _solve(*instances[seed], restricted).expected_cost
            for seed in range(INSTANCES)
            for restricted in (True, False)
        }
        start = threading.Barrier(THREADS)

        def worker(thread: int) -> list[tuple[tuple[int, bool], float]]:
            start.wait()
            costs = []
            for solve in range(SOLVES_PER_THREAD):
                seed = (thread + solve) % INSTANCES
                restricted = solve % 2 == 0
                result = _solve(*instances[seed], restricted)
                costs.append(((seed, restricted), result.expected_cost))
            return costs

        previous_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)  # interleave the threads' chunks more often
        try:
            with ThreadPoolExecutor(THREADS) as executor:
                outcomes = [
                    cost for costs in executor.map(worker, range(THREADS)) for cost in costs
                ]
        finally:
            sys.setswitchinterval(previous_interval)
        assert len(outcomes) == THREADS * SOLVES_PER_THREAD
        wrong = [key for key, cost in outcomes if cost != references[key]]
        assert wrong == []
        assert incumbent_module.active() is None

    def test_unpruned_map_binds_no_incumbent_inside_a_pruned_one(self):
        dataset, candidates = _instance(0)
        with incumbent_module.serial_incumbent(0.0):  # would prune everything
            result = brute_force_restricted_assigned(
                dataset, 4, candidates=candidates, chunk_rows=32, prune=False
            )
            assert incumbent_module.active().value() == 0.0
        reference = brute_force_restricted_assigned(
            dataset, 4, candidates=candidates, chunk_rows=32, prune=False
        )
        assert result.expected_cost == reference.expected_cost
        assert result.metadata["evaluated_rows"] == result.metadata["total_rows"]

    def test_concurrent_served_solves_of_distinct_instances_match_serial(self):
        # The server solves with the default chunk size, so a larger candidate
        # set keeps several chunks (several incumbent reads) per solve.
        instances = [_instance(seed, candidate_count=24) for seed in range(INSTANCES)]
        # The server rebuilds datasets from request JSON (a to_dict/from_dict
        # round trip, which can move costs one ulp), so references solve the
        # same reconstruction.
        references = {
            (seed, restricted): _solve(
                UncertainDataset.from_dict(dataset.to_dict()), candidates, restricted,
                chunk_rows=DEFAULT_CHUNK_ROWS,
            ).expected_cost
            for seed, (dataset, candidates) in enumerate(instances)
            for restricted in (True, False)
        }
        server = ReproServer(ServeConfig(port=0, max_inflight=THREADS, workers=1))
        server.start()
        try:
            start = threading.Barrier(THREADS)

            def worker(thread: int) -> list[tuple[tuple[int, bool], float]]:
                client = ServeClient(server.url, max_retries=4, timeout=60.0)
                start.wait()
                costs = []
                for solve in range(SOLVES_PER_THREAD // 2):
                    seed = (thread + solve) % INSTANCES
                    restricted = solve % 2 == 0
                    dataset, candidates = instances[seed]
                    served = client.solve(
                        dataset,
                        4,
                        objective="restricted" if restricted else "unassigned",
                        candidates=candidates,
                    )
                    costs.append(((seed, restricted), served["expected_cost"]))
                return costs

            with ThreadPoolExecutor(THREADS) as executor:
                outcomes = [
                    cost for costs in executor.map(worker, range(THREADS)) for cost in costs
                ]
        finally:
            server.stop()
        assert len(outcomes) == THREADS * (SOLVES_PER_THREAD // 2)
        wrong = [key for key, cost in outcomes if cost != references[key]]
        assert wrong == []


@pytest.fixture()
def pickled_instance():
    """An instance whose restricted payload pickles to more than 64 KB."""
    dataset, _ = gaussian_clusters(n=20, z=8, dimension=2, k_true=4, seed=3)
    candidates = dataset.all_locations()[:22]
    context = CostContext(dataset, candidates)
    context.evaluator
    payload = pickle.dumps((context, context.expected, 32), protocol=pickle.HIGHEST_PROTOCOL)
    assert len(payload) > 65536
    reference = brute_force_restricted_assigned(dataset, 3, candidates=candidates, prune=False)
    previous = set_oversubscribe(True)
    yield dataset, candidates, reference
    set_oversubscribe(previous)
    shutdown_runtime()


class TestStopsWithoutSharedMemory:
    def test_gap_target_stops_a_pooled_pickled_solve(self, pickled_instance):
        dataset, candidates, reference = pickled_instance
        result = brute_force_restricted_assigned(
            dataset, 3, candidates=candidates, workers=2, shm=False, chunk_rows=32,
            gap_target=10.0,
        )
        metadata = result.metadata
        assert metadata["gap_target_hit"] is True
        assert metadata["chunks_completed"] < metadata["chunks_total"]
        certificate = metadata["certificate"]
        assert certificate["lower_bound"] <= reference.expected_cost <= certificate["cost"]
        assert certificate["gap"] <= 10.0
        assert result.expected_cost == certificate["cost"]

    def test_zero_time_budget_stops_a_pooled_pickled_solve(self, pickled_instance):
        dataset, candidates, reference = pickled_instance
        result = brute_force_restricted_assigned(
            dataset, 3, candidates=candidates, workers=2, shm=False, chunk_rows=32,
            time_budget=0.0,
        )
        metadata = result.metadata
        assert metadata["deadline_hit"] is True
        assert metadata["chunks_completed"] < metadata["chunks_total"]
        certificate = metadata["certificate"]
        assert certificate["lower_bound"] <= reference.expected_cost <= certificate["cost"]

    def test_pooled_pickled_solve_matches_serial_bitwise(self, pickled_instance):
        dataset, candidates, reference = pickled_instance
        result = brute_force_restricted_assigned(
            dataset, 3, candidates=candidates, workers=2, shm=False, chunk_rows=32
        )
        assert result.expected_cost == reference.expected_cost
        assert np.array_equal(result.centers, reference.centers)
        assert np.array_equal(result.assignment, reference.assignment)
