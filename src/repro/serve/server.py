"""The crash-tolerant solve/score HTTP server (``python -m repro serve``).

Stdlib only (:mod:`http.server` + :mod:`socketserver`): one thread per
connection, JSON in / JSON out.  Endpoints:

========================  ====================================================
``POST /v1/solve``        Exact brute-force solve over a candidate set, with
                          an optional ``deadline_ms`` mapped onto the anytime
                          ``time_budget`` (a timed-out solve still answers 200
                          with a sound ``(cost, lower_bound, gap)``
                          certificate and ``deadline_hit: true``) and an
                          optional ``gap_target`` — the precision analogue:
                          the best-first enumeration stops once the certified
                          relative gap reaches the target, answering 200 with
                          the same certificate and ``gap_target_hit: true``.
``POST /v1/score``        Exact expected cost of given centers (assigned or
                          unassigned objective).
``POST /v1/assign``       Expected-distance assignment of every uncertain
                          point to the nearest given center.
``GET /healthz``          Liveness + runtime health counters + the audit
                          identity ``submitted == completed + retries`` over
                          the server's lifetime window.
``GET /readyz``           Readiness: 503 while draining or while the circuit
                          breaker is open (serial-only degraded mode).
``GET /stats``            Admission gate, per-endpoint p50/p95, breaker,
                          context-store and fault counters.
========================  ====================================================

**Handler rules** (see CONTRIBUTING): handlers *report, never raise*.  Every
failure an endpoint can hit — malformed JSON, oversized instance, a worker
pool crashing mid-map — becomes a JSON response with the right status code;
an exception escaping a handler thread would kill the connection without a
response and show up as exactly the kind of unexplained 5xx the chaos suite
forbids.  Rejections that happen *before* the request body is read (413 on
``Content-Length``, 429 from admission, 503 from drain/fault) answer with
``Connection: close``, because leaving an unread body on a keep-alive socket
desynchronizes the next request.
"""

from __future__ import annotations

import json
import math
import os
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Mapping

import numpy as np

from .. import faults
from ..assignments import ASSIGNMENT_POLICIES
from ..assignments.policies import ExpectedDistanceAssignment
from ..baselines.brute_force import (
    brute_force_restricted_assigned,
    brute_force_unassigned,
    default_candidates,
)
from ..cost.expected import expected_cost_assigned, expected_cost_unassigned
from ..exceptions import ValidationError
from ..experiments.records import runtime_health_summary
from ..runtime import health, shutdown_runtime
from ..uncertain.dataset import UncertainDataset
from .config import ServeConfig
from .state import ServerState


class _Reject(Exception):
    """A request refused by admission/validation: status + JSON error body."""

    def __init__(self, status: int, error: str, *, retry_after: float | None = None) -> None:
        super().__init__(error)
        self.status = status
        self.error = error
        self.retry_after = retry_after


def _require(payload: Mapping[str, Any], key: str) -> Any:
    if key not in payload:
        raise _Reject(400, f"request body is missing required field {key!r}")
    return payload[key]


def _parse_dataset(state: ServerState, payload: Mapping[str, Any]) -> UncertainDataset:
    """Parse and bound-check the instance **before any context build**."""
    raw = _require(payload, "dataset")
    if not isinstance(raw, Mapping):
        raise _Reject(400, "dataset must be a JSON object (UncertainDataset.to_dict form)")
    dataset = UncertainDataset.from_dict(raw)
    cells = sum(point.support_size for point in dataset.points) * dataset.dimension
    if cells > state.config.max_cells:
        raise _Reject(
            413,
            f"instance too large: {cells} support cells exceeds the server bound"
            f" {state.config.max_cells}",
        )
    return dataset


def _parse_points(raw: Any, *, field: str, dimension: int) -> np.ndarray:
    array = np.asarray(raw, dtype=float)
    if array.ndim != 2 or array.shape[0] == 0 or array.shape[1] != dimension:
        raise _Reject(
            400,
            f"{field} must be a non-empty list of {dimension}-dimensional points",
        )
    if not np.isfinite(array).all():
        raise _Reject(400, f"{field} contains non-finite coordinates")
    return array


def _parse_deadline(payload: Mapping[str, Any]) -> float | None:
    """``deadline_ms`` → ``time_budget`` seconds (0 for already-expired)."""
    raw = payload.get("deadline_ms")
    if raw is None:
        return None
    try:
        deadline_ms = float(raw)
    except (TypeError, ValueError):
        raise _Reject(400, "deadline_ms must be a number of milliseconds") from None
    if not np.isfinite(deadline_ms):
        raise _Reject(400, "deadline_ms must be finite")
    # Zero and negative both mean "budget already spent": the solve returns
    # the greedy seed with a certificate instead of hanging or erroring.
    return max(0.0, deadline_ms) / 1000.0


def _parse_gap_target(payload: Mapping[str, Any]) -> float | None:
    """``gap_target`` → certified relative gap at which the solve may stop.

    ``0`` is legal and means "never stop early" (the certified gap stays
    strictly positive while anything is outstanding), so it is the
    bit-identity spelling rather than an error.
    """
    raw = payload.get("gap_target")
    if raw is None:
        return None
    if isinstance(raw, bool):
        raise _Reject(400, "gap_target must be a number (a relative gap, e.g. 0.01)")
    try:
        gap_target = float(raw)
    except (TypeError, ValueError):
        raise _Reject(400, "gap_target must be a number (a relative gap, e.g. 0.01)") from None
    if not np.isfinite(gap_target) or gap_target < 0.0:
        raise _Reject(400, "gap_target must be a finite non-negative relative gap")
    return gap_target


def _subset_count(candidate_count: int, k: int) -> int:
    return math.comb(candidate_count, k) if candidate_count >= k else 0


def _handle_solve(state: ServerState, payload: Mapping[str, Any], request_id: int) -> dict:
    dataset = _parse_dataset(state, payload)
    k = _require(payload, "k")
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise _Reject(400, "k must be a positive integer")
    objective = payload.get("objective", "unassigned")
    if objective not in ("unassigned", "restricted"):
        raise _Reject(400, f"unknown objective {objective!r}: use 'unassigned' or 'restricted'")
    if payload.get("candidates") is not None:
        candidates = _parse_points(
            payload["candidates"], field="candidates", dimension=dataset.dimension
        )
    else:
        candidates = default_candidates(dataset)
    config = state.config
    if candidates.shape[0] > config.max_candidates:
        raise _Reject(
            413,
            f"candidate set too large: {candidates.shape[0]} exceeds the server bound"
            f" {config.max_candidates}",
        )
    if k > candidates.shape[0]:
        raise _Reject(400, f"k={k} exceeds the candidate count {candidates.shape[0]}")
    rows = _subset_count(candidates.shape[0], k)
    if rows > config.max_enumeration_rows:
        raise _Reject(
            413,
            f"solve would enumerate {rows} subsets, over the server bound"
            f" {config.max_enumeration_rows}",
        )
    policy = None
    if objective == "restricted":
        name = payload.get("assignment", "expected-distance")
        if name not in ASSIGNMENT_POLICIES:
            raise _Reject(
                400,
                f"unknown assignment {name!r}: choose one of {sorted(ASSIGNMENT_POLICIES)}",
            )
        policy = ASSIGNMENT_POLICIES[name]()
    time_budget = _parse_deadline(payload)
    gap_target = _parse_gap_target(payload)

    # Single-flight context warm-up: N concurrent requests over the same
    # (dataset, candidates) fingerprints cost one build; the solve below then
    # hits the store.
    state.contexts.get(dataset, candidates)

    # Pool discipline: the worker pool is process-global and not safe for
    # concurrent maps, so at most one request drives it (non-blocking gate);
    # the breaker decides whether parallel execution is allowed at all.
    # Either way the result is bit-identical — serial is a latency fallback,
    # not an approximation.
    workers = 1
    gated = False
    if config.workers > 1 and state.pool_gate.acquire(blocking=False):
        gated = True
        if state.breaker.allow_parallel():
            workers = config.workers
        else:
            state.pool_gate.release()
            gated = False
    try:
        if objective == "restricted":
            result = brute_force_restricted_assigned(
                dataset,
                k,
                assignment=policy,
                candidates=candidates,
                workers=workers,
                store=state.contexts.store,
                time_budget=time_budget,
                gap_target=gap_target,
            )
        else:
            result = brute_force_unassigned(
                dataset,
                k,
                candidates=candidates,
                workers=workers,
                store=state.contexts.store,
                time_budget=time_budget,
                gap_target=gap_target,
            )
    finally:
        if gated:
            # Only the request driving the pool observes the runtime, and
            # before it lets another take the pool: a serial solve cannot
            # rebuild or degrade the pool, so what moved is this request's.
            # A half-open probe reports back here on every exit path, a
            # raising solve included, or the breaker would stay half-open.
            if state.observe_runtime() == 0:
                state.breaker.record_probe_success()
            state.pool_gate.release()
    return {
        "request_id": request_id,
        "objective": result.objective,
        "expected_cost": result.expected_cost,
        "centers": result.centers.tolist(),
        "assignment": None if result.assignment is None else result.assignment.tolist(),
        "assignment_policy": result.assignment_policy,
        "deadline_hit": bool(result.metadata.get("deadline_hit", False)),
        "gap_target_hit": bool(result.metadata.get("gap_target_hit", False)),
        "certificate": result.metadata.get("certificate"),
        "degraded": bool(config.workers > 1 and workers == 1),
        "workers": workers,
        "metadata": result.metadata,
    }


def _handle_score(state: ServerState, payload: Mapping[str, Any], request_id: int) -> dict:
    dataset = _parse_dataset(state, payload)
    centers = _parse_points(
        _require(payload, "centers"), field="centers", dimension=dataset.dimension
    )
    objective = payload.get("objective", "unassigned")
    if objective == "unassigned":
        cost = expected_cost_unassigned(dataset, centers)
        assignment = None
    elif objective == "assigned":
        raw_assignment = payload.get("assignment")
        if raw_assignment is None:
            assignment = ExpectedDistanceAssignment().assign(dataset, centers)
        else:
            assignment = np.asarray(raw_assignment, dtype=int)
            if assignment.shape != (dataset.size,):
                raise _Reject(
                    400, f"assignment must list one center index per point ({dataset.size})"
                )
            if assignment.min() < 0 or assignment.max() >= centers.shape[0]:
                raise _Reject(400, "assignment indexes a center that does not exist")
        cost = expected_cost_assigned(dataset, centers, assignment)
    else:
        raise _Reject(400, f"unknown objective {objective!r}: use 'unassigned' or 'assigned'")
    return {
        "request_id": request_id,
        "objective": objective,
        "expected_cost": float(cost),
        "assignment": None if assignment is None else assignment.tolist(),
    }


def _handle_assign(state: ServerState, payload: Mapping[str, Any], request_id: int) -> dict:
    dataset = _parse_dataset(state, payload)
    centers = _parse_points(
        _require(payload, "centers"), field="centers", dimension=dataset.dimension
    )
    assignment = ExpectedDistanceAssignment().assign(dataset, centers)
    cost = expected_cost_assigned(dataset, centers, assignment)
    return {
        "request_id": request_id,
        "assignment": assignment.tolist(),
        "assignment_policy": ExpectedDistanceAssignment.name,
        "expected_cost": float(cost),
    }


#: POST routes; each handler takes ``(state, payload, request_id)``.
POST_ROUTES: dict[str, Callable[[ServerState, Mapping[str, Any], int], dict]] = {
    "/v1/solve": _handle_solve,
    "/v1/score": _handle_score,
    "/v1/assign": _handle_assign,
}


def _healthz(state: ServerState) -> tuple[int, dict]:
    window = health.delta(state.health_baseline)
    return 200, {
        "status": "ok",
        "uptime_seconds": round(state.uptime_seconds(), 3),
        "draining": state.draining,
        "breaker": state.breaker.as_dict(),
        "runtime_health": runtime_health_summary(state.health_baseline, always=True),
        "audit_ok": window.audit_ok(),
    }


def _readyz(state: ServerState) -> tuple[int, dict]:
    breaker_state = state.breaker.state()
    if state.draining:
        return 503, {"ready": False, "reason": "draining"}
    if breaker_state == "open":
        return 503, {
            "ready": False,
            "reason": "circuit breaker open: worker pool degraded, serial-only mode",
            "breaker": state.breaker.as_dict(),
        }
    return 200, {"ready": True, "breaker": breaker_state}


def _stats(state: ServerState) -> tuple[int, dict]:
    return 200, {
        "uptime_seconds": round(state.uptime_seconds(), 3),
        "draining": state.draining,
        "admission": state.gate.as_dict(),
        "breaker": state.breaker.as_dict(),
        "contexts": state.contexts.as_dict(),
        "endpoints": {
            endpoint: window.as_dict()
            for endpoint, window in sorted(state.latency.items())
        },
        "runtime_health": runtime_health_summary(state.health_baseline, always=True),
        # Goal-fulfilment counter, surfaced on its own: a gap-target early
        # stop is the requested precision being *reached*, not degradation
        # (the breaker's observe_runtime never folds it in).
        "gap_target_stops": health.delta(state.health_baseline).gap_target_hits,
        "faults_rejected": state.faults_rejected,
        "retry_after_seconds": round(state.retry_after_seconds(), 3),
        "config": {
            "max_inflight": state.config.max_inflight,
            "queue_limit": state.config.effective_queue_limit,
            "max_body_bytes": state.config.max_body_bytes,
            "workers": state.config.workers,
        },
    }


GET_ROUTES: dict[str, Callable[[ServerState], tuple[int, dict]]] = {
    "/healthz": _healthz,
    "/readyz": _readyz,
    "/stats": _stats,
}


class _Handler(BaseHTTPRequestHandler):
    """Request handler: admission first, then parse, then execute."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    server: "_Server"

    # -- plumbing -----------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002 - stdlib signature
        if self.server.verbose:
            BaseHTTPRequestHandler.log_message(self, format, *args)

    def _send_json(
        self,
        status: int,
        payload: Mapping[str, Any],
        *,
        retry_after: float | None = None,
        close: bool = False,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", f"{max(retry_after, 0.0):.3f}")
        if close:
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        try:
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):  # client went away: report, never raise
            self.close_connection = True

    # -- GET ----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        route = GET_ROUTES.get(self.path)
        if route is None:
            self._send_json(404, {"error": f"no such endpoint: {self.path}"})
            return
        try:
            status, payload = route(self.server.state)
        except Exception as error:  # report, never raise
            status, payload = 500, {"error": f"{type(error).__name__}: {error}"}
        self._send_json(status, payload)

    # -- POST ---------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        state = self.server.state
        route = POST_ROUTES.get(self.path)
        if route is None:
            self._send_json(404, {"error": f"no such endpoint: {self.path}"})
            return
        window = state.endpoint_latency(self.path)
        request_id = state.next_sequence()

        # -- admission: everything below answers before the body is read, so
        # every rejection closes the connection.
        if state.draining:
            window.record_rejection()
            self._send_json(
                503, {"error": "server is draining", "request_id": request_id}, close=True
            )
            return
        if faults.inject("serve_reject", "serve.admission", request_id):
            # Chaos hook: a deterministic, probabilistic admission rejection
            # (the retrying client's backoff path).  The token is the request
            # sequence number, so a retried request re-rolls the draw.
            state.faults_rejected += 1
            window.record_rejection()
            self._send_json(
                503,
                {"error": "fault-injected rejection", "request_id": request_id},
                retry_after=state.retry_after_seconds(),
                close=True,
            )
            return
        try:
            content_length = int(self.headers.get("Content-Length", ""))
        except ValueError:
            self._send_json(
                411, {"error": "Content-Length required", "request_id": request_id}, close=True
            )
            return
        if content_length > state.config.max_body_bytes:
            window.record_rejection()
            self._send_json(
                413,
                {
                    "error": f"request body of {content_length} bytes exceeds the server"
                    f" bound {state.config.max_body_bytes}",
                    "request_id": request_id,
                },
                close=True,
            )
            return
        if not state.gate.try_enter():
            window.record_rejection()
            self._send_json(
                429,
                {"error": "server at capacity", "request_id": request_id},
                retry_after=state.retry_after_seconds(),
                close=True,
            )
            return

        # -- admitted: read, parse, execute.
        started = time.monotonic()
        try:
            try:
                payload = json.loads(self.rfile.read(content_length))
            except (json.JSONDecodeError, UnicodeDecodeError) as error:
                raise _Reject(400, f"request body is not valid JSON: {error}") from None
            if not isinstance(payload, dict):
                raise _Reject(400, "request body must be a JSON object")
            response = route(state, payload, request_id)
        except _Reject as reject:
            window.record(time.monotonic() - started, error=True)
            self._send_json(
                reject.status,
                {"error": reject.error, "request_id": request_id},
                retry_after=reject.retry_after,
            )
            return
        except ValidationError as error:
            window.record(time.monotonic() - started, error=True)
            self._send_json(400, {"error": str(error), "request_id": request_id})
            return
        except Exception as error:  # report, never raise
            window.record(time.monotonic() - started, error=True)
            self._send_json(
                500, {"error": f"{type(error).__name__}: {error}", "request_id": request_id}
            )
            return
        finally:
            state.gate.exit()
        window.record(time.monotonic() - started)
        self._send_json(200, response)


class _Server(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the shared :class:`ServerState`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, config: ServeConfig, *, verbose: bool = False) -> None:
        super().__init__((config.host, config.port), _Handler)
        self.state = ServerState(config)
        self.verbose = verbose


class ReproServer:
    """Lifecycle wrapper: bind, serve, pre-warm, drain, shut down.

    ``start()``/``stop()`` give tests and benchmarks an in-process server on
    an ephemeral port; ``run()`` is the CLI foreground mode with
    SIGTERM/SIGINT mapped to drain-then-shutdown.
    """

    def __init__(self, config: ServeConfig | None = None, *, verbose: bool = False) -> None:
        self.config = config or ServeConfig.from_env()
        self._httpd = _Server(self.config, verbose=verbose)
        self._thread: threading.Thread | None = None

    @property
    def state(self) -> ServerState:
        return self._httpd.state

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def prewarm(self, datasets: "list[UncertainDataset]") -> int:
        """Build (single-flight) the default-candidate context per dataset.

        Each dataset is canonicalized through the same ``to_dict`` /
        ``from_dict`` round trip a request body takes — ``UncertainPoint``
        renormalizes probabilities on construction, so warming the in-memory
        original could fingerprint one ulp away from what requests actually
        carry, building a context no request would ever hit.  Returns the
        number of context builds that actually ran — repeated fingerprints
        and store hits cost nothing.
        """
        before = self.state.contexts.builds
        for dataset in datasets:
            canonical = UncertainDataset.from_dict(dataset.to_dict(), metric=dataset.metric)
            self.state.contexts.get(canonical, default_candidates(canonical))
        return self.state.contexts.builds - before

    def start(self) -> None:
        """Serve on a background thread (returns once accepting)."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serve",
            daemon=True,
        )
        self._thread.start()

    def drain(self, timeout: float | None = None) -> bool:
        """Stop admitting, wait for in-flight requests; True when idle."""
        self.state.draining = True
        budget = self.config.drain_seconds if timeout is None else timeout
        return self.state.gate.wait_idle(budget)

    def stop(self, *, drain: bool = True) -> bool:
        """Drain (optionally), close the listener, shut the runtime down."""
        drained = self.drain() if drain else True
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        shutdown_runtime()
        return drained

    def run(self) -> int:
        """Foreground mode: serve until SIGTERM/SIGINT, then drain and exit.

        Prints one JSON "ready" line (host, port, pid) to stdout so parent
        processes can discover the bound port when ``--port 0`` was used.
        """
        stop = threading.Event()

        def _on_signal(signum: int, frame: object) -> None:
            stop.set()

        previous = {
            signal.SIGTERM: signal.signal(signal.SIGTERM, _on_signal),
            signal.SIGINT: signal.signal(signal.SIGINT, _on_signal),
        }
        try:
            self.start()
            print(
                json.dumps(
                    {"event": "ready", "host": self.host, "port": self.port, "pid": os.getpid()}
                ),
                flush=True,
            )
            stop.wait()
            drained = self.stop()
            print(
                json.dumps({"event": "stopped", "drained": drained}),
                flush=True,
            )
            return 0 if drained else 1
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)


__all__ = [
    "GET_ROUTES",
    "POST_ROUTES",
    "ReproServer",
]
