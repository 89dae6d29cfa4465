"""The one map engine: per-map incumbents and stops on every transport.

Three contracts the engine owns beyond plain bit-identity:

* **Per-thread incumbents** — the in-process loop binds exactly its own
  map's incumbent in the calling thread, so concurrent serial solves of
  *different* instances (``repro serve`` answers requests on threads) never
  prune against each other's incumbents, and nothing stays bound after the
  solves return.  Checked in-process and through ``/v1/solve``.
* **A relayed incumbent** — a pooled map sends its incumbent's value at
  submission with every chunk and proposes each harvested chunk's best back
  into it, so thresholds never increase, each one is the seed or a value
  harvested before its submission, and an unpruned pooled map binds none.
* **Stops on the pickled transport** — with shared memory off, a pooled
  enumeration still honors ``gap_target`` and ``time_budget`` and reports
  them with a sound certificate, whatever the payload size.
* **Settings flipped mid-solve** — oversubscription and the ``det``
  sanitizer, flipped from another thread between and during maps, change
  no result of concurrent serial solves or of a pooled one.
"""

from __future__ import annotations

import pickle
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import faults, sanitize
from repro.baselines.brute_force import brute_force_restricted_assigned, brute_force_unassigned
from repro.cost.context import DEFAULT_CHUNK_ROWS, CostContext
from repro.runtime import PersistentPool, health, parallel_map, set_oversubscribe, shutdown_runtime
from repro.runtime import incumbent as incumbent_module
from repro.runtime.parallel import parallel_map_ordered
from repro.serve import ReproServer, ServeClient, ServeConfig
from repro.uncertain.dataset import UncertainDataset
from repro.workloads import gaussian_clusters

THREADS = 8
SOLVES_PER_THREAD = 20
INSTANCES = 8


def _instance(seed: int, candidate_count: int = 18):
    dataset, _ = gaussian_clusters(n=12, z=4, dimension=2, k_true=4, seed=seed)
    return dataset, dataset.all_locations()[:candidate_count]


def _solve(dataset, candidates, restricted: bool, chunk_rows: int = 32, workers: int = 1):
    solver = brute_force_restricted_assigned if restricted else brute_force_unassigned
    return solver(dataset, 4, candidates=candidates, chunk_rows=chunk_rows, workers=workers)


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
        with incumbent_module.bound(incumbent_module.SerialIncumbent(0.0)):  # would prune everything
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


#: The relay map's seed and the cost each item proposes: distinct, with
#: later items both above and below earlier ones.
RELAY_SEED = 100.0
RELAY_PROPOSALS = (50.0, 70.0, 40.0, 60.0, 30.0, 55.0, 20.0, 45.0, 10.0, 35.0)


def _relay_task(payload, item):
    """Record the bound threshold, then propose this item's known cost."""
    handle = incumbent_module.active()
    if handle is None:
        return None
    threshold = handle.value()
    handle.propose(RELAY_PROPOSALS[item])
    return threshold


class _RecordingIncumbent(incumbent_module.SerialIncumbent):
    """A map incumbent that logs the parent's reads and proposals in order."""

    __slots__ = ("log",)

    def __init__(self, seed: float):
        super().__init__(seed)
        self.log: list[tuple[str, float]] = []

    def value(self) -> float:
        value = super().value()
        self.log.append(("read", value))
        return value

    def propose(self, cost: float) -> None:
        self.log.append(("propose", float(cost)))
        super().propose(cost)


@pytest.fixture()
def real_pool_without_faults():
    """Pools on 1-CPU boxes, no injected retries (they would re-read)."""
    previous_faults = faults.enabled_spec()
    previous_oversubscribe = set_oversubscribe(True)
    faults.set_enabled(None)
    yield
    set_oversubscribe(previous_oversubscribe)
    faults.set_enabled(previous_faults or None)
    shutdown_runtime()


@pytest.mark.usefixtures("real_pool_without_faults")
class TestIncumbentRelay:
    def test_each_dispatch_carries_the_incumbent_harvested_before_it(self):
        incumbent = _RecordingIncumbent(RELAY_SEED)
        items = list(range(len(RELAY_PROPOSALS)))
        pool = PersistentPool()
        try:
            results = pool.map(_relay_task, items, ("none",), 2, incumbent)
        finally:
            pool.shutdown()
        thresholds = [results[item] for item in items]
        # Every submission read the parent's incumbent once, in item order,
        # and got the least of the seed and every best harvested before it.
        reads = [
            (position, value)
            for position, (kind, value) in enumerate(incumbent.log)
            if kind == "read"
        ]
        assert thresholds == [value for _, value in reads]
        assert thresholds == sorted(thresholds, reverse=True)
        for position, threshold in reads:
            harvested = [value for kind, value in incumbent.log[:position] if kind == "propose"]
            assert threshold == min((RELAY_SEED, *harvested))
        # Item 0 ran at the seed and proposed its own cost; every item
        # submitted after that harvest prunes against it.
        assert thresholds[0] == RELAY_SEED
        first_harvest = incumbent.log.index(("propose", RELAY_PROPOSALS[0]))
        later = [threshold for position, threshold in reads if position > first_harvest]
        assert later
        assert all(threshold <= RELAY_PROPOSALS[0] for threshold in later)
        assert incumbent.value() == min(RELAY_PROPOSALS)

    def test_pruned_pooled_map_relays_thresholds(self):
        items = list(range(len(RELAY_PROPOSALS)))
        before = health.snapshot()
        outcome = parallel_map_ordered(_relay_task, items, workers=2, incumbent_seed=RELAY_SEED)
        assert health.delta(before).chunks_submitted == len(items)  # it took the pool
        thresholds = [outcome.results[item] for item in items]
        assert thresholds == sorted(thresholds, reverse=True)
        for item, threshold in enumerate(thresholds):
            assert threshold in (RELAY_SEED, *RELAY_PROPOSALS[:item])
        # Two in flight and harvested in submission order: the last item is
        # submitted after item 0's harvest.
        assert thresholds[-1] <= RELAY_PROPOSALS[0]

    def test_unpruned_pooled_map_binds_no_incumbent(self):
        before = health.snapshot()
        with incumbent_module.bound(incumbent_module.SerialIncumbent(0.0)):  # the caller's own, not the map's
            thresholds = parallel_map(_relay_task, range(4), workers=2)
        assert health.delta(before).chunks_submitted == 4
        assert thresholds == [None] * 4


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


#: Serial solver threads beside the pooled one, and solves per thread.
FLIP_SERIAL_THREADS = 3
FLIP_SOLVES = 6


@pytest.fixture()
def restore_flipped_settings():
    """Put oversubscription and the sanitizers back, whatever a test flipped."""
    previous_oversubscribe = set_oversubscribe(False)
    previous_sanitizers = sanitize.enabled_names()
    yield
    set_oversubscribe(previous_oversubscribe)
    sanitize.set_enabled(previous_sanitizers)
    shutdown_runtime()


@pytest.mark.usefixtures("restore_flipped_settings")
class TestSettingFlips:
    def test_flips_between_and_during_maps_change_no_result(self):
        """Serve threads read both settings at every map; neither may move a result.

        One thread solves at ``workers=4`` under a lock, as serve's pool gate
        does, the others serially, while another thread keeps flipping
        ``set_oversubscribe`` (which resizes or bypasses the pool) and the
        ``det`` sanitizer (which respawns the pool and fingerprints maps).
        """
        instances = [_instance(seed) for seed in range(3)]
        references = {
            (seed, restricted): _solve(*instances[seed], restricted)
            for seed in range(len(instances))
            for restricted in (True, False)
        }
        pool_gate = threading.Lock()
        solving = threading.Event()
        solving.set()
        flips = 0

        def flipper() -> None:
            nonlocal flips
            while solving.is_set():
                flips += 1
                set_oversubscribe(flips % 2 == 1)
                sanitize.set_enabled(("det",) if flips % 3 else ())
                time.sleep(0.002)

        def solver(thread: int) -> list:
            solved = []
            for solve in range(FLIP_SOLVES):
                key = ((thread + solve) % len(instances), solve % 2 == 0)
                if thread == 0:
                    with pool_gate:
                        result = _solve(*instances[key[0]], key[1], workers=4)
                else:
                    result = _solve(*instances[key[0]], key[1])
                solved.append((key, result))
            return solved

        before = health.snapshot()
        previous_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)  # interleave flips with the solves' chunks more often
        flipping = threading.Thread(target=flipper)
        flipping.start()
        try:
            with ThreadPoolExecutor(1 + FLIP_SERIAL_THREADS) as executor:
                outcomes = [
                    pair
                    for solved in executor.map(solver, range(1 + FLIP_SERIAL_THREADS))
                    for pair in solved
                ]
        finally:
            solving.clear()
            flipping.join(timeout=30.0)
            sys.setswitchinterval(previous_interval)
        assert not flipping.is_alive()
        assert flips >= len(outcomes)  # flipped during maps, not only between solves
        assert health.delta(before).chunks_submitted > 0  # the pooled thread took the pool
        assert len(outcomes) == (1 + FLIP_SERIAL_THREADS) * FLIP_SOLVES
        for key, result in outcomes:
            reference = references[key]
            assert result.expected_cost == reference.expected_cost, key
            assert np.array_equal(result.centers, reference.centers), key
            if reference.assignment is not None:
                assert np.array_equal(result.assignment, reference.assignment), key
