"""Tier-1 tests for the fault-injection harness and the crash-tolerant runtime.

PR 8's contract, pinned here end to end:

* :mod:`repro.faults` — spec parsing is strict (unknown kinds/keys raise),
  draws are stateless and seed-deterministic, and everything is inert when
  disarmed;
* chunk-granular crash recovery — a worker killed mid-map loses only its
  in-flight chunks: completed chunks are **reused, never recomputed**
  (audited by counting actual task executions on disk), results stay
  bit-identical, and the health counters satisfy
  ``chunks_submitted == chunks_completed + retries``;
* the degraded serial path — a map that exhausts its rebuild budget
  completes serially with bit-identical results, including under the
  determinism sanitizer (``REPRO_SANITIZE=det``);
* deadlines — ``time_budget`` turns the brute-force references into anytime
  solvers returning a feasible incumbent plus a valid ``(cost, lower_bound,
  gap)`` certificate;
* transport fallback — injected shared-memory attach failures degrade to
  the pickled transport with identical results;
* teardown — ``shutdown()`` tolerates workers the OS already reaped.
"""

from __future__ import annotations

import os
import signal
import uuid
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro import faults
from repro.baselines.brute_force import brute_force_restricted_assigned, brute_force_unassigned
from repro.runtime import parallel_map, set_oversubscribe, shutdown_runtime
from repro.runtime import health
from repro.runtime import pool as pool_module
from repro.sanitize import enabled_names as sanitize_enabled_names
from repro.sanitize import set_enabled as sanitize_set_enabled
from repro.workloads import gaussian_clusters


@pytest.fixture(autouse=True)
def _real_pools_and_clean_faults():
    """Real pools on 1-CPU boxes; restore the ambient fault/sanitizer config.

    Restoring (rather than clearing) the armed spec keeps these tests honest
    inside the chaos CI job, where ``REPRO_FAULTS`` is armed process-wide.
    """
    previous_faults = faults.enabled_spec()
    previous_sanitizers = sanitize_enabled_names()
    previous_oversubscribe = set_oversubscribe(True)
    yield
    set_oversubscribe(previous_oversubscribe)
    faults.set_enabled(previous_faults or None)
    sanitize_set_enabled(previous_sanitizers)
    shutdown_runtime()


def _micro_instance(n: int = 10, m: int = 12, k: int = 3, seed: int = 4):
    dataset, _ = gaussian_clusters(n=n, z=6, dimension=2, k_true=k, seed=seed)
    return dataset, dataset.all_locations()[:m]


class TestSpecParsing:
    def test_full_spec_round_trips(self):
        specs = faults.parse_spec("crash:p=0.05,slow:p=0.1:ms=200,shm_attach,serve_reject:p=0.2")
        assert [spec.kind for spec in specs] == list(faults.FAULT_KINDS)
        crash, slow, attach, reject = specs
        assert crash.probability == 0.05
        assert slow.probability == 0.1 and slow.delay_ms == 200
        assert attach.probability == 1.0
        assert reject.probability == 0.2
        faults.set_enabled(specs)
        assert faults.parse_spec(faults.enabled_spec()) == specs

    def test_empty_and_none_mean_disarmed(self):
        assert faults.parse_spec(None) == ()
        assert faults.parse_spec("") == ()
        faults.set_enabled(None)
        assert faults.enabled_spec() == ""
        assert faults.inject("crash", "anywhere") is False

    def test_unknown_kind_is_a_hard_error(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            faults.parse_spec("crsh:p=0.1")

    def test_retired_spill_corrupt_kind_is_rejected(self):
        # The context disk-spill tier it perturbed is gone; the kind is now
        # as unknown as any typo.
        assert "spill_corrupt" not in faults.FAULT_KINDS
        with pytest.raises(ValueError, match="unknown fault kind 'spill_corrupt'"):
            faults.parse_spec("spill_corrupt")

    def test_unknown_parameter_is_a_hard_error(self):
        with pytest.raises(ValueError, match="unknown fault parameter"):
            faults.parse_spec("crash:rate=0.1")

    def test_malformed_parameter_is_a_hard_error(self):
        with pytest.raises(ValueError, match="malformed fault parameter"):
            faults.parse_spec("crash:p")

    def test_probability_out_of_range_is_a_hard_error(self):
        with pytest.raises(ValueError, match="within"):
            faults.parse_spec("crash:p=1.5")

    def test_env_registry_declares_the_variable(self):
        from repro._env import REGISTRY

        assert "REPRO_FAULTS" in REGISTRY


class TestDeterministicDraws:
    def test_draws_are_pure_functions_of_kind_seed_site_token(self):
        spec = faults.FaultSpec("crash", probability=0.3, seed=7)
        pattern = [faults._fires(spec, "pool.dispatch", (i, 0)) for i in range(64)]
        assert pattern == [faults._fires(spec, "pool.dispatch", (i, 0)) for i in range(64)]
        assert any(pattern) and not all(pattern)

    def test_seed_changes_the_pattern(self):
        base = faults.FaultSpec("crash", probability=0.3, seed=0)
        other = faults.FaultSpec("crash", probability=0.3, seed=1)
        tokens = [(i, 0) for i in range(64)]
        assert [faults._fires(base, "s", t) for t in tokens] != [
            faults._fires(other, "s", t) for t in tokens
        ]

    def test_retry_rerolls_via_the_attempt_token(self):
        spec = faults.FaultSpec("crash", probability=0.3, seed=7)
        firing = [i for i in range(64) if faults._fires(spec, "pool.dispatch", (i, 0))]
        assert firing  # at p=0.3 over 64 chunks some fire
        # across attempts the draw is independent, so a firing chunk does
        # not fire on every retry (the property that makes recovery converge)
        assert any(
            not faults._fires(spec, "pool.dispatch", (i, 1)) for i in firing
        )

    def test_probability_extremes_shortcut(self):
        always = faults.FaultSpec("slow", probability=1.0)
        never = faults.FaultSpec("slow", probability=0.0)
        assert faults._fires(always, "s", None) is True
        assert faults._fires(never, "s", None) is False

    def test_inject_semantics_for_non_crash_kinds(self):
        faults.set_enabled("slow:p=1:ms=1,shm_attach")
        assert faults.inject("slow", "site") is True
        with pytest.raises(faults.FaultInjected):
            faults.inject("shm_attach", "site")


#: The item whose first execution kills its worker (mid-map, so chunks on
#: both sides of it exist) and the marker/record layout on disk.
_KILL_ITEM = 7


def _triple(payload, item):
    return item * 3


def _recording_task(payload, item):
    """Record every execution on disk; kill the worker on _KILL_ITEM once."""
    run_dir = Path(payload)
    marker = run_dir / "killed"
    if item == _KILL_ITEM and not marker.exists():
        marker.write_text("x")
        os.kill(os.getpid(), signal.SIGKILL)
    (run_dir / f"exec-{item}-{uuid.uuid4().hex}").touch()
    return item * 3


class TestCrashRecovery:
    def test_completed_chunks_are_reused_not_recomputed(self, tmp_path):
        """The PR-8 regression test: a mid-map worker kill loses only the
        in-flight chunks.  Execution counts on disk prove completed chunks
        never re-ran (the pre-PR-8 behavior — a full serial rerun — would
        re-execute every already-completed chunk).

        The kill is the test's OWN fault source (a planted SIGKILL), so
        ambient injection is disarmed: under the chaos CI job extra
        injected crashes would legitimately push ``lost_chunks`` past the
        bound this test pins for a single worker death."""
        faults.set_enabled(None)
        shutdown_runtime()
        items = list(range(12))
        before = health.snapshot()
        results = parallel_map(_recording_task, items, payload=str(tmp_path), workers=2)
        delta = health.delta(before)

        assert results == [item * 3 for item in items]
        assert delta.pool_rebuilds >= 1
        assert delta.chunks_submitted == delta.chunks_completed + delta.retries

        executions = Counter(
            int(record.name.split("-")[1]) for record in tmp_path.glob("exec-*")
        )
        assert set(executions) == set(items)  # every chunk ran
        total = sum(executions.values())
        # only chunks that were in flight when the worker died may have run
        # twice; everything harvested before the kill ran exactly once
        assert total <= len(items) + delta.lost_chunks
        assert delta.lost_chunks <= 3

    def test_injected_crashes_preserve_bruteforce_results_bitwise(self):
        dataset, candidates = _micro_instance()
        kwargs = dict(candidates=candidates, chunk_rows=16, prune=False)
        clean = brute_force_restricted_assigned(dataset, 3, workers=1, **kwargs)
        faults.set_enabled("crash:p=0.2:seed=3")
        shutdown_runtime()
        faulted = brute_force_restricted_assigned(dataset, 3, workers=2, **kwargs)
        assert faulted.expected_cost == clean.expected_cost
        assert np.array_equal(faulted.centers, clean.centers)
        assert np.array_equal(faulted.assignment, clean.assignment)

    def test_exhausted_rebuild_budget_degrades_to_serial_under_det_sanitizer(self):
        """Crash probability high enough to exhaust the rebuild budget: the
        map degrades to the serial path and stays bit-identical, with the
        determinism sanitizer armed the whole way."""
        dataset, candidates = _micro_instance()
        kwargs = dict(candidates=candidates, chunk_rows=16, prune=False)
        clean = brute_force_restricted_assigned(dataset, 3, workers=1, **kwargs)
        sanitize_set_enabled(("det",))
        faults.set_enabled("crash:p=0.9:seed=1")
        shutdown_runtime()
        before = health.snapshot()
        faulted = brute_force_restricted_assigned(dataset, 3, workers=2, **kwargs)
        delta = health.delta(before)
        assert delta.serial_fallbacks >= 1  # the budget was actually exhausted
        assert faulted.expected_cost == clean.expected_cost
        assert np.array_equal(faulted.centers, clean.centers)
        assert np.array_equal(faulted.assignment, clean.assignment)

    def test_warm_pool_respawns_on_fault_config_drift(self):
        """Arming faults after the pool is warm must reach the workers —
        worker config ships through initargs, frozen at spawn, so drift
        forces a respawn (the first smoke run of PR 8 silently injected
        nothing without this)."""
        pool = pool_module.executor()
        first = pool.ensure(2)
        faults.set_enabled("slow:p=0:ms=1")  # armed, never fires
        second = pool.ensure(2)
        assert second is not first
        faults.set_enabled(None)
        assert pool.ensure(2) is not second


class TestDeadlines:
    def test_generous_budget_matches_unbudgeted_run_bitwise(self):
        dataset, candidates = _micro_instance()
        kwargs = dict(candidates=candidates, chunk_rows=16, workers=1)
        unbudgeted = brute_force_restricted_assigned(dataset, 3, **kwargs)
        budgeted = brute_force_restricted_assigned(dataset, 3, time_budget=300.0, **kwargs)
        assert budgeted.expected_cost == unbudgeted.expected_cost
        assert np.array_equal(budgeted.centers, unbudgeted.centers)
        metadata = budgeted.metadata
        assert metadata["deadline_hit"] is False
        assert metadata["chunks_completed"] == metadata["chunks_total"]
        certificate = metadata["certificate"]
        assert certificate["gap"] == 0.0
        assert certificate["lower_bound"] == certificate["cost"]

    def test_exhausted_budget_returns_feasible_incumbent_with_certificate(self):
        dataset, candidates = _micro_instance()
        result = brute_force_restricted_assigned(
            dataset, 3, candidates=candidates, chunk_rows=16, workers=1, time_budget=1e-9
        )
        metadata = result.metadata
        assert metadata["deadline_hit"] is True
        assert metadata["chunks_completed"] < metadata["chunks_total"]
        assert result.centers.shape == (3, 2)
        assert result.assignment.shape == (dataset.size,)
        certificate = metadata["certificate"]
        assert certificate["cost"] == result.expected_cost
        assert certificate["lower_bound"] <= certificate["cost"]
        assert certificate["gap"] >= 0.0
        # the certificate is sound: the true optimum lies above the bound
        exact = brute_force_restricted_assigned(
            dataset, 3, candidates=candidates, chunk_rows=16, workers=1
        )
        assert certificate["lower_bound"] <= exact.expected_cost
        assert result.expected_cost >= exact.expected_cost

    def test_unassigned_budget_certificate_is_sound_too(self):
        dataset, candidates = _micro_instance()
        result = brute_force_unassigned(
            dataset, 3, candidates=candidates, chunk_rows=16, workers=1, time_budget=1e-9
        )
        exact = brute_force_unassigned(
            dataset, 3, candidates=candidates, chunk_rows=16, workers=1
        )
        certificate = result.metadata["certificate"]
        assert result.metadata["deadline_hit"] is True
        assert certificate["lower_bound"] <= exact.expected_cost
        assert result.expected_cost >= exact.expected_cost

    def test_slow_faults_truncate_a_parallel_map_to_a_prefix(self):
        faults.set_enabled("slow:p=1:ms=40")
        shutdown_runtime()
        items = list(range(20))
        before = health.snapshot()
        results = parallel_map(_triple, items, payload=0, workers=2, time_budget=0.3)
        delta = health.delta(before)
        assert len(results) < len(items)
        assert results == [item * 3 for item in items[: len(results)]]
        assert delta.deadline_hits >= 1


class TestTransportFallback:
    def test_injected_attach_failures_fall_back_to_pickled_transport(self):
        dataset, candidates = _micro_instance()
        kwargs = dict(candidates=candidates, chunk_rows=16, prune=False)
        clean = brute_force_restricted_assigned(dataset, 3, workers=1, **kwargs)
        faults.set_enabled("shm_attach")
        shutdown_runtime()
        before = health.snapshot()
        faulted = brute_force_restricted_assigned(dataset, 3, workers=2, **kwargs)
        delta = health.delta(before)
        assert faulted.expected_cost == clean.expected_cost
        assert np.array_equal(faulted.centers, clean.centers)
        assert delta.transport_fallbacks >= 1

    @pytest.mark.parametrize("seed", range(10))
    def test_attach_failures_harvested_during_crash_recovery_are_requeued(self, seed):
        """A sibling chunk can finish with a failed attach just as another
        worker crashes; crash recovery must requeue that marker on the
        pickled transport like the in-order harvest does, never store it
        as the chunk's result."""
        dataset, _ = gaussian_clusters(n=8, z=3, dimension=2, k_true=2, seed=0)
        kwargs = dict(candidates=dataset.all_locations()[:14], chunk_rows=16, prune=False)
        clean = brute_force_restricted_assigned(dataset, 3, workers=1, **kwargs)
        faults.set_enabled(f"crash:p=0.3:seed={seed},shm_attach")
        shutdown_runtime()
        before = health.snapshot()
        faulted = brute_force_restricted_assigned(dataset, 3, workers=2, **kwargs)
        delta = health.delta(before)
        assert faulted.expected_cost == clean.expected_cost
        assert np.array_equal(faulted.centers, clean.centers)
        assert np.array_equal(faulted.assignment, clean.assignment)
        assert delta.audit_ok()


class TestShutdownTolerance:
    def test_shutdown_tolerates_os_reaped_workers(self):
        pool = pool_module.executor()
        parallel_map(_triple, list(range(8)), payload=0, workers=2)  # spawn workers
        executor = pool.ensure(2)
        victims = list(executor._processes.values())
        assert victims
        os.kill(victims[0].pid, signal.SIGKILL)
        victims[0].join(timeout=10)
        pool.shutdown()  # must not raise on the reaped worker

        # and the pool respawns cleanly afterwards
        results = parallel_map(_triple, list(range(8)), payload=0, workers=2)
        assert results == [item * 3 for item in range(8)]
