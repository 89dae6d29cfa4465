"""Parallel-determinism tests: ``workers=1`` and ``workers=2+`` must agree.

The runtime's contract (see :mod:`repro.runtime.parallel`) is that worker
counts change wall clock only — every returned value is bit-identical to the
serial path.  These tests pin that for the executor itself, the three
sharded brute-force enumerations (including the batched ``candidate_scores``
policies and the exhaustive-assignment shards), and the experiment records.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.assignments.policies import (
    ExpectedPointAssignment,
    NearestLocationAssignment,
    OptimalAssignment,
)
from repro.baselines.brute_force import (
    brute_force_restricted_assigned,
    brute_force_unassigned,
    brute_force_unrestricted_assigned,
)
from repro.experiments import (
    AblationSettings,
    SensitivitySettings,
    Table1Settings,
    run_assignment_ablation,
    run_e1_one_center,
    run_e8_one_dimensional,
    run_outlier_sensitivity,
    run_representative_ablation,
)
from repro.runtime import (
    effective_workers,
    parallel_map,
    resolve_workers,
    set_oversubscribe,
    shutdown_runtime,
)
from repro.runtime import parallel as parallel_module
from repro.runtime import pool as pool_module
from repro.workloads import gaussian_clusters


@pytest.fixture(autouse=True)
def _pool_on_one_cpu():
    """Exercise real pools even on 1-CPU machines; leave nothing behind."""
    previous = set_oversubscribe(True)
    yield
    set_oversubscribe(previous)
    shutdown_runtime()


def _square(payload, item):
    return payload * item * item


def _fail_on_three(payload, item):
    if item == 3:
        raise ValueError("boom")
    return item


class TestExecutor:
    def test_serial_matches_plain_loop(self):
        assert parallel_map(_square, range(7), payload=2, workers=1) == [2 * i * i for i in range(7)]

    def test_parallel_matches_serial_in_order(self):
        serial = parallel_map(_square, range(11), payload=3, workers=1)
        parallel = parallel_map(_square, range(11), payload=3, workers=2)
        assert parallel == serial

    def test_exceptions_propagate_serially_and_in_parallel(self):
        with pytest.raises(ValueError, match="boom"):
            parallel_map(_fail_on_three, range(5), workers=1)
        with pytest.raises(ValueError, match="boom"):
            parallel_map(_fail_on_three, range(5), workers=2)

    def test_resolve_workers_normalizes(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(0) == 1
        assert resolve_workers(-4) == 1
        assert resolve_workers(3) == 3


class TestSerialFallback:
    """``workers=N`` must never be slower than serial on a small box."""

    def test_clamps_to_available_cpus(self, monkeypatch):
        set_oversubscribe(False)
        monkeypatch.setattr(parallel_module, "available_workers", lambda: 1)
        assert effective_workers(8, item_count=100) == 1

    def test_clamps_to_item_count(self):
        assert effective_workers(8, item_count=3) == 3

    def test_too_few_items_run_serially(self):
        assert effective_workers(4, item_count=1) == 1

    def test_single_cpu_request_never_starts_a_pool(self, monkeypatch):
        set_oversubscribe(False)
        monkeypatch.setattr(parallel_module, "available_workers", lambda: 1)

        def forbidden(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("pool must not start on a 1-CPU box")

        monkeypatch.setattr(pool_module.PersistentPool, "ensure", forbidden)
        result = parallel_map(_square, range(10), payload=2, workers=8)
        assert result == [2 * i * i for i in range(10)]

    def test_oversubscribe_reenables_pools(self, monkeypatch):
        monkeypatch.setattr(parallel_module, "available_workers", lambda: 1)
        set_oversubscribe(True)
        assert effective_workers(4, item_count=16) == 4


class TestShmOptOut:
    """No shared-memory segment for ``shm=False`` or a context-free payload.

    ``shm=False`` must mean no segments of any kind; with shm on (``None``,
    the default) a payload without a ``CostContext`` takes the pickled
    transport, so it creates no segment either.
    """

    @pytest.mark.parametrize("shm", [False, None])
    def test_no_segment_allocation_for_context_free_payload(self, monkeypatch, shm):
        from repro.runtime import shm as shm_module

        leases = []
        original_init = shm_module.SegmentLease.__init__

        def counting_init(self, *args, **kwargs):
            leases.append(self)
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(shm_module.SegmentLease, "__init__", counting_init)
        result = parallel_map(_square, range(8), payload=3, workers=2, shm=shm)
        assert result == [3 * i * i for i in range(8)]
        assert leases == []


@pytest.fixture(scope="module")
def micro_instance():
    dataset, _ = gaussian_clusters(n=7, z=3, dimension=2, k_true=3, seed=4)
    return dataset


class TestBruteForceSharding:
    """workers=2 with small chunks must reproduce the serial result exactly."""

    def test_restricted_ed_identical(self, micro_instance):
        serial = brute_force_restricted_assigned(micro_instance, 3)
        sharded = brute_force_restricted_assigned(micro_instance, 3, workers=2, chunk_rows=32)
        assert sharded.expected_cost == serial.expected_cost
        assert np.array_equal(sharded.centers, serial.centers)
        assert np.array_equal(sharded.assignment, serial.assignment)

    def test_restricted_batched_score_policy_identical(self, micro_instance):
        serial = brute_force_restricted_assigned(
            micro_instance, 2, assignment=ExpectedPointAssignment()
        )
        sharded = brute_force_restricted_assigned(
            micro_instance, 2, assignment=ExpectedPointAssignment(), workers=2, chunk_rows=16
        )
        assert sharded.expected_cost == serial.expected_cost
        assert np.array_equal(sharded.centers, serial.centers)
        serial_nm = brute_force_restricted_assigned(
            micro_instance, 2, assignment=NearestLocationAssignment()
        )
        sharded_nm = brute_force_restricted_assigned(
            micro_instance, 2, assignment=NearestLocationAssignment(), workers=3, chunk_rows=8
        )
        assert sharded_nm.expected_cost == serial_nm.expected_cost

    def test_restricted_blackbox_policy_identical(self, micro_instance):
        candidates = micro_instance.expected_points()
        serial = brute_force_restricted_assigned(
            micro_instance, 2, assignment=OptimalAssignment(), candidates=candidates
        )
        sharded = brute_force_restricted_assigned(
            micro_instance,
            2,
            assignment=OptimalAssignment(),
            candidates=candidates,
            workers=2,
            chunk_rows=8,
        )
        assert sharded.expected_cost == serial.expected_cost
        assert np.array_equal(sharded.centers, serial.centers)

    def test_unrestricted_identical_including_exhaustive_stage(self, micro_instance):
        serial = brute_force_unrestricted_assigned(micro_instance, 2, polish_top=3)
        sharded = brute_force_unrestricted_assigned(
            micro_instance, 2, polish_top=3, workers=2, chunk_rows=16
        )
        assert sharded.expected_cost == serial.expected_cost
        assert np.array_equal(sharded.centers, serial.centers)
        assert np.array_equal(sharded.assignment, serial.assignment)
        assert sharded.metadata["exhaustive_assignment"] == serial.metadata["exhaustive_assignment"]

    def test_unassigned_identical(self, micro_instance):
        serial = brute_force_unassigned(micro_instance, 2)
        sharded = brute_force_unassigned(micro_instance, 2, workers=2, chunk_rows=32)
        assert sharded.expected_cost == serial.expected_cost
        assert np.array_equal(sharded.centers, serial.centers)

    def test_chunk_rows_bounds_do_not_change_results(self, micro_instance):
        baseline = brute_force_restricted_assigned(micro_instance, 2)
        for chunk_rows in (1, 7, 64):
            result = brute_force_restricted_assigned(micro_instance, 2, chunk_rows=chunk_rows)
            assert result.expected_cost == baseline.expected_cost


class TestExperimentDeterminism:
    """Whole experiment records must be equal at workers=1 vs workers=2."""

    def test_table1_records_identical(self):
        settings = Table1Settings(trials=1, n_small=4, n_medium=10, z=2, k=2)
        assert run_e1_one_center(settings) == run_e1_one_center(replace(settings, workers=2))
        assert run_e8_one_dimensional(settings) == run_e8_one_dimensional(
            replace(settings, workers=2)
        )

    def test_e1_quick_records_identical(self):
        # The preset perfbench times: batched one-center searches in every case.
        settings = Table1Settings.quick()
        assert run_e1_one_center(settings) == run_e1_one_center(replace(settings, workers=2))

    def test_ablation_records_identical(self):
        settings = AblationSettings(trials=1, n=10, z=2, k=2)
        parallel = replace(settings, workers=2)
        assert run_representative_ablation(settings) == run_representative_ablation(parallel)
        assert run_assignment_ablation(settings) == run_assignment_ablation(parallel)

    def test_sensitivity_non_timing_fields_identical(self):
        settings = SensitivitySettings(n=10, trials=1, outlier_probabilities=(0.0, 0.1))
        # E13a measures no wall clock, so the whole record must match.
        assert run_outlier_sensitivity(settings) == run_outlier_sensitivity(
            replace(settings, workers=2)
        )
