"""Chaos suite for ``repro serve`` (PR 9 acceptance).

The server's whole reason to exist is staying correct while the runtime
underneath it is being killed, so these tests arm the PR-8 fault harness
*around* the HTTP stack and assert the end-to-end contract:

* 50 concurrent solves under ``crash:p=0.1`` (with the shm/det
  sanitizers armed): **zero 5xx**, every response **bit-identical** to the
  fault-free reference, and the ``/healthz`` audit identity
  ``chunks_submitted == chunks_completed + retries`` holding at
  quiescence;
* persistent crashes (``crash:p=1``) trip the circuit breaker — ``/readyz``
  goes 503 while solves keep answering 200 out of serial degraded mode;
* admission-fault chaos (``serve_reject`` + ``crash`` together): retrying
  clients all converge to the same bits;
* SIGTERM against a real ``python -m repro serve`` subprocess with faults
  and sanitizers armed: in-flight work drains, the exit is clean, no
  shared-memory segment outlives the process, no sanitizer report fires.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro import faults
from repro.baselines.brute_force import brute_force_unassigned, default_candidates
from repro.runtime import set_oversubscribe, shutdown_runtime
from repro.runtime import shm as shm_module
from repro.sanitize import enabled_names as sanitize_enabled_names
from repro.sanitize import set_enabled as sanitize_set_enabled
from repro.serve import ReproServer, ServeClient, ServeConfig
from repro.uncertain.dataset import UncertainDataset
from repro.workloads import gaussian_clusters

SRC = Path(__file__).resolve().parents[1] / "src"

#: The acceptance load: this many concurrent solve requests under crashes.
CHAOS_CLIENTS = 50


@pytest.fixture(autouse=True)
def _armed_chaos_environment():
    """Real pools on 1-CPU boxes; restore ambient fault/sanitizer config."""
    previous_faults = faults.enabled_spec()
    previous_sanitizers = sanitize_enabled_names()
    previous_oversubscribe = set_oversubscribe(True)
    yield
    set_oversubscribe(previous_oversubscribe)
    faults.set_enabled(previous_faults or None)
    sanitize_set_enabled(previous_sanitizers)
    shutdown_runtime()


def _chaos_instance():
    """n=10, z=4 -> 40 default candidates; k=3 is 9880 subsets = 5 chunks,
    so a pooled map has real chunk-granular crash surface.

    Canonicalized through ``to_dict``/``from_dict`` (probability
    renormalization shifts one ulp on the round trip), so in-process
    reference solves see byte-for-byte what the server reconstructs from
    request JSON.
    """
    dataset, _ = gaussian_clusters(n=10, z=4, dimension=2, k_true=3, seed=21)
    return UncertainDataset.from_dict(dataset.to_dict())


class TestConcurrentSolvesUnderCrashes:
    def test_fifty_concurrent_solves_zero_5xx_bit_identical(self):
        dataset = _chaos_instance()
        # Fault-free serial reference, computed before arming anything.
        reference = brute_force_unassigned(dataset, 3)
        shutdown_runtime()

        sanitize_set_enabled(("shm", "det"))
        faults.set_enabled("crash:p=0.1:seed=17")
        config = ServeConfig(port=0, max_inflight=CHAOS_CLIENTS, workers=2)
        server = ReproServer(config)
        server.start()
        try:
            def one_solve(index: int) -> dict:
                client = ServeClient(server.url, max_retries=4, seed=index, timeout=120.0)
                return client.solve(dataset, 3)

            with ThreadPoolExecutor(max_workers=CHAOS_CLIENTS) as executor:
                responses = list(executor.map(one_solve, range(CHAOS_CLIENTS)))

            # Zero 5xx attributable to crashes: every request answered 200
            # (a 5xx raises ServeError out of executor.map) with full results.
            assert len(responses) == CHAOS_CLIENTS
            costs = {response["expected_cost"] for response in responses}
            assert costs == {reference.expected_cost}  # bit-identical under crashes
            for response in responses:
                assert np.array_equal(np.asarray(response["centers"]), reference.centers)
                assert response["deadline_hit"] is False

            # The audit identity holds at quiescence, crashes and all.
            monitor = ServeClient(server.url, max_retries=4)
            healthz = monitor.healthz()
            assert healthz["audit_ok"] is True
            stats = monitor.stats()
            assert stats["endpoints"]["/v1/solve"]["errors"] == 0
            assert stats["contexts"]["builds"] == 1  # single-flight held under chaos
        finally:
            assert server.stop() is True
        assert shm_module.live_segments() == []  # nothing leaked into /dev/shm


class TestBreakerUnderPersistentCrashes:
    def test_persistent_crashes_trip_breaker_and_flip_readyz(self):
        dataset = _chaos_instance()
        faults.set_enabled("crash:p=1")
        config = ServeConfig(
            port=0,
            workers=2,
            breaker_threshold=3,
            breaker_window_seconds=60.0,
            breaker_cooldown_seconds=3600.0,  # stay open for the test's lifetime
        )
        server = ReproServer(config)
        server.start()
        try:
            client = ServeClient(server.url, max_retries=2, timeout=120.0)
            # Every pooled map exhausts its rebuild budget (crash:p=1) and
            # completes serially; the rebuilds + serial fallback are >= the
            # threshold, so the very first pooled solve trips the breaker —
            # while still answering 200 with full results.
            first = client.solve(dataset, 3)
            assert first["expected_cost"] > 0
            assert server.state.breaker.state() == "open"
            assert client.readyz()["ready"] is False

            # Open breaker = serial-only degraded mode: still correct, still 200.
            degraded = client.solve(dataset, 3)
            assert degraded["degraded"] is True
            assert degraded["expected_cost"] == first["expected_cost"]
            assert client.healthz()["status"] == "ok"  # alive even when not ready
        finally:
            server.stop()


class TestAdmissionFaultChaos:
    def test_serve_reject_plus_crashes_converge_bitwise(self):
        dataset = _chaos_instance()
        reference = brute_force_unassigned(dataset, 3)
        shutdown_runtime()

        faults.set_enabled("crash:p=0.1:seed=3,serve_reject:p=0.3:seed=5")
        config = ServeConfig(port=0, max_inflight=16, workers=2)
        server = ReproServer(config)
        server.start()
        try:
            def one_solve(index: int) -> float:
                client = ServeClient(
                    server.url,
                    max_retries=8,
                    backoff_seconds=0.02,
                    seed=index,
                    timeout=120.0,
                )
                return float(client.solve(dataset, 3)["expected_cost"])

            with ThreadPoolExecutor(max_workers=16) as executor:
                costs = set(executor.map(one_solve, range(16)))
            assert costs == {reference.expected_cost}
            assert server.state.faults_rejected > 0  # the admission fault fired
        finally:
            server.stop()


class TestSigtermDrain:
    def test_sigterm_drains_inflight_work_and_leaves_no_residue(self, tmp_path):
        """The full acceptance lifecycle against a real subprocess."""
        dataset = _chaos_instance()
        env = {
            **os.environ,
            "PYTHONPATH": str(SRC),
            "REPRO_FAULTS": "crash:p=0.1:seed=29",
            "REPRO_SANITIZE": "shm,det",
            "REPRO_OVERSUBSCRIBE": "1",
        }
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "2"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            ready = json.loads(proc.stdout.readline())
            assert ready["event"] == "ready"
            url = f"http://{ready['host']}:{ready['port']}"

            body = json.dumps({"dataset": dataset.to_dict(), "k": 3}).encode()

            def solve_once() -> dict:
                request = urllib.request.Request(
                    url + "/v1/solve", data=body, headers={"Content-Type": "application/json"}
                )
                with urllib.request.urlopen(request, timeout=120) as response:
                    return json.loads(response.read())

            warm = solve_once()  # also warms the context store
            inflight: dict = {}
            worker = threading.Thread(target=lambda: inflight.update(solve_once()))
            worker.start()
            time.sleep(0.05)  # let the request reach the server
            proc.send_signal(signal.SIGTERM)
            stdout, stderr = proc.communicate(timeout=120)
            worker.join(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30)

        assert proc.returncode == 0, stderr
        stopped = json.loads(stdout.strip().splitlines()[-1])
        assert stopped == {"event": "stopped", "drained": True}
        # The in-flight request drained to a full, correct answer.
        assert inflight.get("expected_cost") == warm["expected_cost"]
        # Clean shutdown: no sanitizer report, no leaked shared memory.
        assert "repro.sanitize:" not in stderr
        leaked = [name for name in os.listdir("/dev/shm") if name.startswith("repro")]
        assert leaked == []
