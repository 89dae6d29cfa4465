"""Tier-1 tests for the ``repro serve`` server (PR 9).

Coverage, mechanism by mechanism:

* admission control — bounded inflight + bounded queue, 429 with a
  Retry-After derived from observed service time, 413 for oversized
  bodies/instances *before any context build*;
* deadlines — ``deadline_ms`` maps onto the anytime ``time_budget``; a
  zero/expired deadline still answers 200 with a sound ``(cost,
  lower_bound, gap)`` certificate and never hangs, and deadline answers
  are identical at every worker count;
* circuit breaker — trips after repeated runtime degradation events,
  flips ``/readyz`` to 503 while solves keep answering 200 (serial-only),
  half-open probe un-trips after the cooldown;
* single-flight contexts — N concurrent first-touch requests cost one
  context build;
* the retrying client — honors Retry-After on 429/503 rejections,
  survives the ``serve_reject`` admission fault, transport-retries only
  idempotent requests;
* satellites — the health reset-generation guard (no negative windows, the
  audit identity holds per window), the health lock (no increment lost to
  concurrent serve threads) and ``runtime_health_summary``'s ``always``
  flag feeding ``/stats``.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import faults
from repro.experiments.records import runtime_health_summary
from repro.runtime import health, set_oversubscribe, shutdown_runtime
from repro.runtime.store import ContextStore
from repro.sanitize import enabled_names as sanitize_enabled_names
from repro.sanitize import set_enabled as sanitize_set_enabled
from repro.serve import ReproServer, ServeClient, ServeConfig, ServeError
from repro.serve.state import AdmissionGate, CircuitBreaker, LatencyWindow, SingleFlightContexts
from repro.workloads import gaussian_clusters


@pytest.fixture(autouse=True)
def _restore_runtime_config():
    """Restore ambient fault/sanitizer config; allow real pools on 1 CPU."""
    previous_faults = faults.enabled_spec()
    previous_sanitizers = sanitize_enabled_names()
    previous_oversubscribe = set_oversubscribe(True)
    yield
    set_oversubscribe(previous_oversubscribe)
    faults.set_enabled(previous_faults or None)
    sanitize_set_enabled(previous_sanitizers)
    shutdown_runtime()


def _dataset(n: int = 8, z: int = 3, seed: int = 0):
    dataset, _ = gaussian_clusters(n=n, z=z, dimension=2, k_true=2, seed=seed)
    return dataset


@pytest.fixture()
def server():
    instance = ReproServer(ServeConfig(port=0, max_inflight=4))
    instance.start()
    yield instance
    instance.stop()


@pytest.fixture()
def client(server):
    return ServeClient(server.url, max_retries=2, timeout=30.0)


# ---------------------------------------------------------------------------
# unit: admission gate / latency window / breaker / single-flight
# ---------------------------------------------------------------------------


class TestAdmissionGate:
    def test_admits_up_to_max_inflight(self):
        gate = AdmissionGate(max_inflight=2, queue_limit=0, queue_wait_seconds=0.0)
        assert gate.try_enter() and gate.try_enter()
        assert not gate.try_enter()
        gate.exit()
        assert gate.try_enter()

    def test_queue_full_rejects_immediately(self):
        gate = AdmissionGate(max_inflight=1, queue_limit=0, queue_wait_seconds=5.0)
        assert gate.try_enter()
        started = time.monotonic()
        assert not gate.try_enter()
        assert time.monotonic() - started < 1.0  # no slot waiting with a full queue

    def test_queued_request_gets_a_freed_slot(self):
        gate = AdmissionGate(max_inflight=1, queue_limit=1, queue_wait_seconds=5.0)
        assert gate.try_enter()
        outcome: list[bool] = []
        waiter = threading.Thread(target=lambda: outcome.append(gate.try_enter()))
        waiter.start()
        time.sleep(0.05)
        gate.exit()
        waiter.join(timeout=5.0)
        assert outcome == [True]

    def test_queue_wait_budget_expires_as_rejection(self):
        gate = AdmissionGate(max_inflight=1, queue_limit=1, queue_wait_seconds=0.05)
        assert gate.try_enter()
        assert not gate.try_enter()  # waited the budget, no slot

    def test_wait_idle_reports_drain_completion(self):
        gate = AdmissionGate(max_inflight=1, queue_limit=0, queue_wait_seconds=0.0)
        assert gate.wait_idle(0.01)
        assert gate.try_enter()
        assert not gate.wait_idle(0.05)
        gate.exit()
        assert gate.wait_idle(1.0)


class TestLatencyWindow:
    def test_percentiles_over_recorded_samples(self):
        window = LatencyWindow()
        for value in (0.01, 0.02, 0.03, 0.04, 0.10):
            window.record(value)
        assert window.percentile(0.50) == 0.03
        assert window.percentile(0.95) == 0.10
        summary = window.as_dict()
        assert summary["count"] == 5 and summary["p50_ms"] == 30.0

    def test_empty_window_has_no_percentile(self):
        window = LatencyWindow()
        assert window.percentile(0.5) is None
        assert window.as_dict()["p50_ms"] is None


class TestCircuitBreaker:
    def test_trips_after_threshold_in_window(self):
        breaker = CircuitBreaker(window_seconds=10.0, threshold=3, cooldown_seconds=5.0)
        breaker.record_degradation(2, now=0.0)
        assert breaker.state(now=0.0) == "closed" and breaker.allow_parallel(now=0.0)
        breaker.record_degradation(1, now=1.0)
        assert breaker.state(now=1.0) == "open"
        assert not breaker.allow_parallel(now=1.0)

    def test_events_outside_window_do_not_trip(self):
        breaker = CircuitBreaker(window_seconds=1.0, threshold=2, cooldown_seconds=5.0)
        breaker.record_degradation(1, now=0.0)
        breaker.record_degradation(1, now=10.0)  # first event expired
        assert breaker.state(now=10.0) == "closed"

    def test_half_open_probe_untrips_on_success(self):
        breaker = CircuitBreaker(window_seconds=10.0, threshold=1, cooldown_seconds=2.0)
        breaker.record_degradation(1, now=0.0)
        assert not breaker.allow_parallel(now=1.0)  # still cooling down
        assert breaker.allow_parallel(now=3.0)  # this caller is the probe
        assert not breaker.allow_parallel(now=3.0)  # only one probe at a time
        breaker.record_probe_success()
        assert breaker.state(now=3.0) == "closed"
        assert breaker.allow_parallel(now=3.0)

    def test_degraded_probe_reopens(self):
        breaker = CircuitBreaker(window_seconds=10.0, threshold=1, cooldown_seconds=2.0)
        breaker.record_degradation(1, now=0.0)
        assert breaker.allow_parallel(now=3.0)  # probe
        breaker.record_degradation(1, now=3.5)  # probe degraded
        assert breaker.state(now=4.0) == "open"
        assert not breaker.allow_parallel(now=4.0)
        assert breaker.trips == 2


class TestSingleFlightContexts:
    def test_concurrent_first_touch_builds_once(self):
        contexts = SingleFlightContexts(ContextStore(maxsize=4))
        dataset = _dataset()
        candidates = dataset.all_locations()[:6]
        clients = 6
        barrier = threading.Barrier(clients)

        def first_touch(_index: int):
            barrier.wait()
            return contexts.get(dataset, candidates)

        with ThreadPoolExecutor(max_workers=clients) as executor:
            built = list(executor.map(first_touch, range(clients)))
        assert contexts.builds == 1
        assert all(context is built[0] for context in built)  # one shared object
        assert contexts.store.misses == 1


# ---------------------------------------------------------------------------
# unit: configuration
# ---------------------------------------------------------------------------


class TestServeConfig:
    def test_defaults_and_derived_queue_limit(self):
        config = ServeConfig()
        assert config.effective_queue_limit == 2 * config.max_inflight
        assert ServeConfig(queue_limit=0).effective_queue_limit == 0

    def test_validation_rejects_nonsense(self):
        with pytest.raises(ValueError):
            ServeConfig(max_inflight=0)
        with pytest.raises(ValueError):
            ServeConfig(workers=0)
        with pytest.raises(ValueError):
            ServeConfig(drain_seconds=-1.0)

    def test_env_defaults_and_cli_precedence(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_MAX_INFLIGHT", "7")
        monkeypatch.setenv("REPRO_SERVE_MAX_BYTES", "1024")
        monkeypatch.setenv("REPRO_SERVE_DRAIN_SECONDS", "2.5")
        config = ServeConfig.from_env()
        assert config.max_inflight == 7
        assert config.max_body_bytes == 1024
        assert config.drain_seconds == 2.5
        # explicit overrides (CLI flags) beat the environment; None is "unset"
        config = ServeConfig.from_env(max_inflight=2, drain_seconds=None)
        assert config.max_inflight == 2 and config.drain_seconds == 2.5

    def test_garbage_env_reads_as_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_MAX_INFLIGHT", "banana")
        assert ServeConfig.from_env().max_inflight == ServeConfig().max_inflight


# ---------------------------------------------------------------------------
# integration: endpoints over a real socket
# ---------------------------------------------------------------------------


class TestEndpoints:
    def test_solve_score_assign_round_trip(self, server, client):
        dataset = _dataset()
        solved = client.solve(dataset, 2)
        assert solved["objective"] == "unassigned"
        assert solved["deadline_hit"] is False and solved["certificate"] is None
        # score computes through expected_cost_unassigned directly; the solve
        # enumeration reduces in a different order, so agreement is to rounding
        scored = client.score(dataset, solved["centers"])
        assert scored["expected_cost"] == pytest.approx(solved["expected_cost"], rel=1e-12)
        assigned = client.assign(dataset, solved["centers"])
        assert len(assigned["assignment"]) == dataset.size
        assert assigned["assignment_policy"] == "expected-distance"

    def test_restricted_solve_returns_assignment(self, server, client):
        solved = client.solve(_dataset(), 2, objective="restricted")
        assert solved["objective"] == "restricted-assigned"
        assert solved["assignment"] is not None
        assert solved["assignment_policy"] == "expected-distance"

    def test_solve_matches_inprocess_reference_bitwise(self, server, client):
        from repro.baselines.brute_force import brute_force_unassigned
        from repro.uncertain.dataset import UncertainDataset

        dataset = _dataset()
        # The reference must see what the server reconstructs from request
        # JSON: the to_dict/from_dict round trip renormalizes probabilities,
        # which can move costs one ulp.
        reference = brute_force_unassigned(UncertainDataset.from_dict(dataset.to_dict()), 2)
        served = client.solve(dataset, 2)
        assert served["expected_cost"] == reference.expected_cost
        assert np.array_equal(np.asarray(served["centers"]), reference.centers)

    def test_health_ready_stats_shapes(self, server, client):
        healthz = client.healthz()
        assert healthz["status"] == "ok" and healthz["audit_ok"] is True
        assert healthz["breaker"]["state"] == "closed"
        # the always=True summary is present even with zero degradation
        assert set(healthz["runtime_health"]) == {
            field for field in health.RuntimeHealth().as_dict()
        }
        assert client.readyz()["ready"] is True
        stats = client.stats()
        assert stats["admission"]["max_inflight"] == 4
        assert stats["contexts"]["builds"] == 0
        assert stats["runtime_health"] is not None

    def test_each_solve_looks_up_its_context_once(self, server, client):
        dataset = _dataset()
        for _ in range(3):
            client.solve(dataset, 2)
        # The first solve builds the context; each later one hits it once.
        assert client.stats()["contexts"] == {"builds": 1, "hits": 2, "misses": 1}

    def test_unknown_endpoint_and_malformed_json(self, server, client):
        with pytest.raises(ServeError) as outcome:
            client.request("POST", "/v1/nope", {"x": 1})
        assert outcome.value.status == 404
        request = urllib.request.Request(
            server.url + "/v1/solve", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as http_outcome:
            urllib.request.urlopen(request, timeout=10)
        assert http_outcome.value.code == 400

    def test_missing_fields_and_bad_values_are_400(self, server, client):
        for payload in (
            {"k": 2},  # no dataset
            {"dataset": _dataset().to_dict()},  # no k
            {"dataset": _dataset().to_dict(), "k": 0},
            {"dataset": _dataset().to_dict(), "k": 2, "objective": "sideways"},
            {"dataset": _dataset().to_dict(), "k": 2, "deadline_ms": "soon"},
            {"dataset": _dataset().to_dict(), "k": 999},  # k > candidates
        ):
            with pytest.raises(ServeError) as outcome:
                client.request("POST", "/v1/solve", payload)
            assert outcome.value.status == 400, payload

    def test_empty_dataset_reports_validation_error(self, server, client):
        with pytest.raises(ServeError) as outcome:
            client.request("POST", "/v1/solve", {"dataset": {"points": []}, "k": 1})
        assert outcome.value.status == 400


class TestAdmissionOverHttp:
    def test_oversized_body_is_413_before_read(self):
        server = ReproServer(ServeConfig(port=0, max_body_bytes=256))
        server.start()
        try:
            client = ServeClient(server.url, max_retries=0)
            with pytest.raises(ServeError) as outcome:
                client.solve(_dataset(n=10, z=4), 2)
            assert outcome.value.status == 413
        finally:
            server.stop()

    def test_oversized_instance_is_413_before_context_build(self):
        server = ReproServer(ServeConfig(port=0, max_cells=16))
        server.start()
        try:
            client = ServeClient(server.url, max_retries=0)
            with pytest.raises(ServeError) as outcome:
                client.solve(_dataset(), 2)
            assert outcome.value.status == 413
            assert server.state.contexts.builds == 0  # rejected before any build
            assert server.state.contexts.store.misses == 0
        finally:
            server.stop()

    def test_too_many_candidates_is_413(self, server, client):
        dataset = _dataset()
        too_many = np.random.default_rng(0).normal(size=(65, 2))
        with pytest.raises(ServeError) as outcome:
            client.request(
                "POST",
                "/v1/solve",
                {"dataset": dataset.to_dict(), "k": 2, "candidates": too_many.tolist()},
                retry_rejections=False,
            )
        assert outcome.value.status == 413

    def test_full_queue_is_429_with_retry_after(self):
        # One slot, no wait queue: the second request rejects immediately.
        server = ReproServer(ServeConfig(port=0, max_inflight=1, queue_limit=0))
        server.start()
        try:
            assert server.state.gate.try_enter()  # occupy the only slot
            client = ServeClient(server.url, max_retries=0)
            with pytest.raises(ServeError) as outcome:
                client.solve(_dataset(), 2)
            assert outcome.value.status == 429
            assert outcome.value.retry_after is not None and outcome.value.retry_after > 0
        finally:
            server.state.gate.exit()
            server.stop()

    def test_client_retries_429_until_capacity_frees(self):
        server = ReproServer(ServeConfig(port=0, max_inflight=1, queue_limit=0))
        server.start()
        assert server.state.gate.try_enter()  # occupy the only slot
        release = threading.Timer(0.3, server.state.gate.exit)
        release.start()
        try:
            client = ServeClient(
                server.url, max_retries=6, backoff_seconds=0.1, seed=3
            )
            solved = client.solve(_dataset(), 2)
            assert solved["expected_cost"] > 0
            assert client.retries_used >= 1
        finally:
            release.cancel()
            server.stop()

    def test_draining_server_rejects_with_503(self, server, client):
        server.state.draining = True
        assert client.readyz()["ready"] is False
        with pytest.raises(ServeError) as outcome:
            client.request("POST", "/v1/solve", {"dataset": {}, "k": 1}, retry_rejections=False)
        assert outcome.value.status == 503


class TestServeRejectFault:
    def test_always_firing_rejection_exhausts_retries(self, server):
        faults.set_enabled("serve_reject:p=1")
        client = ServeClient(server.url, max_retries=2, backoff_seconds=0.01, seed=1)
        with pytest.raises(ServeError) as outcome:
            client.solve(_dataset(), 2)
        assert outcome.value.status == 503
        assert client.retries_used == 2  # the whole budget was spent backing off
        assert server.state.faults_rejected == 3  # initial attempt + 2 retries

    def test_probabilistic_rejection_is_survived_by_retries(self, server):
        faults.set_enabled("serve_reject:p=0.5:seed=7")
        client = ServeClient(server.url, max_retries=6, backoff_seconds=0.01, seed=2)
        results = [client.solve(_dataset(), 2)["expected_cost"] for _ in range(6)]
        assert len(set(results)) == 1  # rejections never corrupt results
        assert server.state.faults_rejected > 0  # the fault actually fired
        stats = ServeClient(server.url).stats()
        assert stats["faults_rejected"] == server.state.faults_rejected

    def test_rejections_do_not_count_as_service_latency(self, server):
        faults.set_enabled("serve_reject:p=1")
        client = ServeClient(server.url, max_retries=0)
        with pytest.raises(ServeError):
            client.solve(_dataset(), 2)
        window = server.state.endpoint_latency("/v1/solve")
        assert window.count == 0 and window.rejected == 1


# ---------------------------------------------------------------------------
# integration: deadlines (satellite d)
# ---------------------------------------------------------------------------


class TestDeadlines:
    def _assert_sound_certificate(self, served: dict, exact_cost: float) -> None:
        certificate = served["certificate"]
        assert certificate is not None
        assert certificate["gap"] >= 0.0
        assert certificate["lower_bound"] <= exact_cost + 1e-12
        assert certificate["cost"] == served["expected_cost"]

    def test_zero_deadline_answers_with_certificate_not_a_hang(self, server, client):
        from repro.baselines.brute_force import brute_force_unassigned

        dataset = _dataset()
        exact = brute_force_unassigned(dataset, 2).expected_cost
        served = client.solve(dataset, 2, deadline_ms=0)
        assert served["deadline_hit"] is True
        self._assert_sound_certificate(served, exact)
        assert served["expected_cost"] >= exact  # feasible, hence no better than exact

    def test_negative_deadline_is_treated_as_expired(self, server, client):
        served = client.solve(_dataset(), 2, deadline_ms=-50)
        assert served["deadline_hit"] is True
        assert served["certificate"]["gap"] >= 0.0

    def test_generous_deadline_matches_unbudgeted_solve_bitwise(self, server, client):
        dataset = _dataset()
        unbudgeted = client.solve(dataset, 2)
        budgeted = client.solve(dataset, 2, deadline_ms=600_000)
        assert budgeted["deadline_hit"] is False
        assert budgeted["expected_cost"] == unbudgeted["expected_cost"]
        assert budgeted["centers"] == unbudgeted["centers"]

    def test_expired_deadline_parity_across_worker_counts(self):
        """A deadline answer is the same object serially and under a pool."""
        dataset = _dataset()
        answers = []
        for workers in (1, 2):
            server = ReproServer(ServeConfig(port=0, workers=workers))
            server.start()
            try:
                client = ServeClient(server.url, max_retries=2)
                answers.append(client.solve(dataset, 2, deadline_ms=0))
            finally:
                server.stop()
        serial, pooled = answers
        assert serial["expected_cost"] == pooled["expected_cost"]
        assert serial["centers"] == pooled["centers"]
        assert serial["certificate"] == pooled["certificate"]

    def test_deadline_is_never_a_5xx(self, server, client):
        for deadline_ms in (0, 1, 10):
            served = client.solve(_dataset(), 2, deadline_ms=deadline_ms)
            assert served["expected_cost"] > 0  # a 5xx would have raised


# ---------------------------------------------------------------------------
# integration: breaker + degraded mode over HTTP
# ---------------------------------------------------------------------------


class TestBreakerOverHttp:
    def test_open_breaker_flips_readyz_but_solves_still_answer(self, server, client):
        breaker = server.state.breaker
        breaker.record_degradation(breaker.threshold)
        ready = client.readyz()
        assert ready["ready"] is False and "breaker" in ready["reason"]
        served = client.solve(_dataset(), 2)  # degraded mode still answers 200
        assert served["expected_cost"] > 0
        assert client.healthz()["breaker"]["state"] in ("open", "half-open")

    def test_breaker_recovery_restores_readiness(self):
        config = ServeConfig(port=0, breaker_cooldown_seconds=0.05, workers=2)
        server = ReproServer(config)
        server.start()
        try:
            client = ServeClient(server.url, max_retries=2)
            server.state.breaker.record_degradation(config.breaker_threshold)
            assert client.readyz()["ready"] is False
            time.sleep(0.1)  # past the cooldown: next parallel solve is the probe
            served = client.solve(_dataset(), 2)
            assert served["expected_cost"] > 0
            assert client.readyz()["ready"] is True  # clean probe closed the breaker
        finally:
            server.stop()

    def test_raising_probe_still_reports_back(self, monkeypatch):
        """A half-open probe whose solve raises must not leave the breaker probing.

        Otherwise ``allow_parallel`` answers False for good and every later
        solve runs serially.
        """
        import repro.serve.server as server_module

        original = server_module.brute_force_unassigned
        probes = []

        def raise_once(*args, **kwargs):
            if not probes:
                probes.append(kwargs["workers"])
                raise RuntimeError("planted probe failure")
            return original(*args, **kwargs)

        monkeypatch.setattr(server_module, "brute_force_unassigned", raise_once)
        config = ServeConfig(port=0, breaker_cooldown_seconds=0.05, workers=2)
        server = ReproServer(config)
        server.start()
        try:
            client = ServeClient(server.url, max_retries=2)
            server.state.breaker.record_degradation(config.breaker_threshold)
            time.sleep(0.1)  # past the cooldown: the next solve is the probe
            with pytest.raises(ServeError) as failure:
                client.solve(_dataset(), 2)
            assert failure.value.status == 500
            assert probes == [2]  # the raising solve was the pooled probe
            served = client.solve(_dataset(), 2)
            assert served["workers"] == 2
            assert client.stats()["breaker"]["state"] == "closed"
        finally:
            server.stop()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_serial_solve_observes_no_degradation(self, workers):
        """Only the request driving the pool charges the breaker.

        A rebuild planted in the health counters (another request's, as far
        as this one can tell) must not be charged to a serial solve: one on
        a serial server, and one on a pooled server whose pool gate is held.
        """
        server = ReproServer(ServeConfig(port=0, workers=workers))
        server.start()
        try:
            client = ServeClient(server.url, max_retries=2)
            health.record(pool_rebuilds=1)
            with server.state.pool_gate:
                served = client.solve(_dataset(), 2)
            assert served["workers"] == 1
            assert client.stats()["breaker"]["window_events"] == 0
        finally:
            server.stop()


# ---------------------------------------------------------------------------
# lifecycle: prewarm + drain
# ---------------------------------------------------------------------------


class TestLifecycle:
    def test_prewarm_builds_once_and_serves_from_store(self, server, client):
        dataset = _dataset()
        assert server.prewarm([dataset, dataset]) == 1  # single-flight dedupe
        client.solve(dataset, 2)
        assert server.state.contexts.store.misses == 1  # solve hit the warm store

    def test_stop_drains_inflight_requests(self):
        server = ReproServer(ServeConfig(port=0))
        server.start()
        url = server.url
        outcome: dict = {}

        def slow_request():
            client = ServeClient(url, max_retries=0, timeout=60.0)
            outcome["solve"] = client.solve(_dataset(n=10, z=4), 3)

        worker = threading.Thread(target=slow_request)
        worker.start()
        deadline = time.monotonic() + 10.0
        while not server.state.gate.as_dict()["inflight"]:
            assert time.monotonic() < deadline, "request never became in-flight"
            time.sleep(0.005)
        assert server.stop() is True  # drained, not aborted
        worker.join(timeout=30.0)
        assert outcome["solve"]["expected_cost"] > 0  # the in-flight answer landed


# ---------------------------------------------------------------------------
# satellites: health windows + records `always` flag
# ---------------------------------------------------------------------------


class TestHealthGenerations:
    def test_same_generation_delta_is_exact_movement(self):
        baseline = health.snapshot()
        health.record(chunks_submitted=5, chunks_completed=4, retries=1)
        window = health.delta(baseline)
        assert window.chunks_submitted == 5 and window.retries == 1
        assert window.audit_ok()

    def test_concurrent_records_lose_no_increments(self):
        # Serve threads record concurrently (deadline and gap stops of
        # concurrent serial solves); an unlocked read-add-write drops counts.
        threads, rounds = 8, 20_000
        barrier = threading.Barrier(threads)

        def hammer():
            barrier.wait()
            for _ in range(rounds):
                health.record(deadline_hits=1, gap_target_hits=1)

        baseline = health.snapshot()
        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        previous_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60.0)
        finally:
            sys.setswitchinterval(previous_interval)
        assert not any(worker.is_alive() for worker in workers)
        counters = health.delta(baseline)
        assert counters.deadline_hits == threads * rounds
        assert counters.gap_target_hits == threads * rounds

    def test_audit_ok_detects_the_broken_identity(self):
        counters = health.RuntimeHealth(chunks_submitted=3, chunks_completed=2, retries=1)
        assert counters.audit_ok()
        counters.chunks_completed = 1  # a lost, un-retried chunk
        assert not counters.audit_ok()


class TestRuntimeHealthSummary:
    def test_quiet_window_is_none_by_default(self):
        baseline = health.snapshot()
        assert runtime_health_summary(baseline) is None

    def test_always_reports_the_quiet_window(self):
        baseline = health.snapshot()
        summary = runtime_health_summary(baseline, always=True)
        assert summary is not None and summary["retries"] == 0

    def test_degraded_window_is_reported_either_way(self):
        baseline = health.snapshot()
        health.record(serial_fallbacks=1)
        assert runtime_health_summary(baseline)["serial_fallbacks"] == 1
        assert runtime_health_summary(baseline, always=True)["serial_fallbacks"] == 1
