"""``serve_mixed``: a closed loop of 2 clients against ``repro serve --workers 1``.

Instances: 8 hot instances (``n=30, z=8, d=2, k_true=3``, generator seeds
0-7, 24 candidate locations, ``k=3``: 2,024 rows, one chunk) whose points
are sent in an order drawn from ``--seed``, and a stream of never-seen cold
instances of the same shape generated from ``--seed``.  Point order changes
neither the answers nor the work; a freshly generated hot set per seed moved
the hot-solve median by up to 2x between seeds.  Every 10 requests
hold 4 hot exact solves (unassigned and restricted alternating), 1 hot solve
with ``gap_target=0.05``, 1 cold solve (a context build beside the store-hit
reads) and 4 ``/v1/score`` calls (the HTTP and JSON floor).  This is the
request-size regime where fixed per-solve overhead dominates and multi-chunk
scheduling is bypassed.  Requests of *different* instances never span more
than one chunk here: concurrent multi-chunk solves share one incumbent.

* set-up: server start until its ``ready`` line (median of 11).
* ``pass_s``: median wall clock of each consecutive 10 completed requests.
* ``op_p50_ms``: client-observed median latency of the hot exact solves.
* checks: every reference is computed on ``UncertainDataset.from_dict`` of
  the very payload sent (the ``to_dict``/``from_dict`` round trip is not
  idempotent); solves must be bit-identical to serial references without
  a store, scores to the same cost functions, gap-target answers must
  carry a sound certificate; ``/healthz`` audit and no leaked segments.
"""

from __future__ import annotations

import json
import random
import select
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from common import ROOT, Run, baseline, leak_and_audit, median, program_env, python, supported_tail

HOT = 8
N, Z, DIMENSION, K_TRUE, CANDIDATES, K = 30, 8, 2, 3, 24, 3
GAP_TARGET = 0.05
CLIENTS = 2
SETUP_REPEATS = 11
READY_TIMEOUT = 60.0
#: One cycle of the mix; ``hot``/``gap``/``cold`` are solves.
MIX = ("hot", "score", "hot", "score", "gap", "score", "hot", "score", "hot", "cold")


@dataclass
class Instance:
    key: str
    payload: dict[str, Any]
    candidates: list[list[float]]

    def decoded(self):
        """The dataset exactly as the server decodes the request body."""
        from repro import UncertainDataset

        return UncertainDataset.from_dict(json.loads(json.dumps(self.payload)))


def _instance(key: str, generator_seed: int, order: np.random.Generator | None = None) -> Instance:
    """One instance; ``order`` shuffles the order its points are sent in."""
    from repro import gaussian_clusters

    dataset, _ = gaussian_clusters(
        n=N, z=Z, dimension=DIMENSION, k_true=K_TRUE, seed=generator_seed
    )
    locations = dataset.all_locations()
    rng = np.random.default_rng(generator_seed)
    chosen = np.sort(rng.choice(locations.shape[0], CANDIDATES, replace=False))
    payload = dataset.to_dict()
    if order is not None:
        payload["points"] = [payload["points"][i] for i in order.permutation(N)]
    return Instance(key, payload, locations[chosen].tolist())


@dataclass
class Request:
    index: int
    kind: str  # hot | gap | cold | score
    objective: str
    instance: Instance
    centers: tuple[int, ...] = ()
    start: float = 0.0
    end: float = 0.0
    response: Any = None
    error: str | None = None


class Plan:
    """The deterministic request sequence for one seed, shared by the clients."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self._seeds = np.random.default_rng(seed)
        self.hot = [_instance(f"hot{i}", i, self._seeds) for i in range(HOT)]
        self._lock = threading.Lock()
        self._index = 0
        self._cold = 0

    def next(self) -> Request:
        with self._lock:
            index = self._index
            self._index += 1
            position = index % len(MIX)
            kind = MIX[position]
            cycle = index // len(MIX)
            rng = self._rng
            if kind == "cold":
                self._cold += 1
                instance = _instance(f"cold{self._cold}", int(self._seeds.integers(0, 2**31 - 1)))
                objective = ("unassigned", "restricted")[cycle % 2]
            else:
                instance = self.hot[rng.randrange(HOT)]
                if kind == "score":
                    objective = ("unassigned", "assigned")[(index // 2) % 2]
                elif kind == "gap":
                    objective = ("restricted", "unassigned")[cycle % 2]
                else:  # the cycle's hot exact solves alternate objectives
                    objective = ("unassigned", "restricted")[MIX[:position].count("hot") % 2]
            centers = tuple(sorted(rng.sample(range(CANDIDATES), K))) if kind == "score" else ()
            return Request(index, kind, objective, instance, centers)


def send(client, request: Request) -> None:
    """Issue one request, timing it as the client sees it."""
    from repro.serve.client import ServeError

    instance = request.instance
    request.start = time.perf_counter()
    try:
        if request.kind == "score":
            request.response = client.score(
                instance.payload, [instance.candidates[c] for c in request.centers],
                objective=request.objective,
            )
        else:
            request.response = client.solve(
                instance.payload, K, objective=request.objective, candidates=instance.candidates,
                gap_target=GAP_TARGET if request.kind == "gap" else None,
            )
    except ServeError as error:
        request.error = str(error)
    request.end = time.perf_counter()


@dataclass
class Window:
    """Requests completed in one uninterrupted stretch of the closed loop."""

    requests: list[Request]
    start: float
    end: float


def closed_loop(url: str, plan: Plan, seconds: float) -> Window:
    """``CLIENTS`` threads, each sending its next request when the last returns."""
    from repro.serve.client import ServeClient

    done: list[list[Request]] = [[] for _ in range(CLIENTS)]
    start = time.perf_counter()
    deadline = start + seconds

    def client_loop(sink: list[Request]) -> None:
        client = ServeClient(url, max_retries=0, timeout=60.0)
        while time.perf_counter() < deadline:
            request = plan.next()
            send(client, request)
            sink.append(request)

    threads = [threading.Thread(target=client_loop, args=(sink,)) for sink in done]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    requests = sorted((r for sink in done for r in sink), key=lambda r: r.end)
    return Window(requests, start, time.perf_counter())


class References:
    """Exact answers, computed on the decoded payloads and cached.

    Solves run serially in this process without a store.  They keep pruning
    on: after an in-process server has run concurrent solves, the program's
    process-wide incumbent slot can be left pointing at a finished solve,
    and an unpruned map (which binds no incumbent of its own) would prune
    against it.
    """

    def __init__(self) -> None:
        self._solves: dict[tuple[str, str], Any] = {}
        self._datasets: dict[str, Any] = {}

    def dataset(self, instance: Instance):
        if instance.key not in self._datasets:
            self._datasets[instance.key] = instance.decoded()
        return self._datasets[instance.key]

    def solve(self, instance: Instance, objective: str):
        from repro import brute_force_restricted_assigned, brute_force_unassigned

        key = (instance.key, objective)
        if key not in self._solves:
            solver = (
                brute_force_restricted_assigned if objective == "restricted"
                else brute_force_unassigned
            )
            self._solves[key] = solver(
                self.dataset(instance), K, candidates=np.asarray(instance.candidates)
            )
        return self._solves[key]

    def score(self, request: Request) -> float:
        from repro.assignments.policies import ExpectedDistanceAssignment
        from repro.cost.expected import expected_cost_assigned, expected_cost_unassigned

        dataset = self.dataset(request.instance)
        centers = np.asarray([request.instance.candidates[c] for c in request.centers])
        if request.objective == "unassigned":
            return float(expected_cost_unassigned(dataset, centers))
        assignment = ExpectedDistanceAssignment().assign(dataset, centers)
        return float(expected_cost_assigned(dataset, centers, assignment))

    def verify(self, request: Request) -> str | None:
        """``None`` when the answer is right, else what is wrong with it."""
        response = request.response
        if request.error is not None:
            return f"request {request.index} failed: {request.error}"
        if request.kind == "score":
            expected = self.score(request)
            if response.get("expected_cost") != expected:
                return f"score {request.index}: {response.get('expected_cost')} != {expected}"
            return None
        reference = self.solve(request.instance, request.objective)
        optimum = reference.expected_cost
        if request.kind == "gap":
            certificate = response.get("certificate") or {}
            lower, cost, gap = (certificate.get(name) for name in ("lower_bound", "cost", "gap"))
            sound = (
                lower is not None and cost is not None and gap is not None
                and lower <= optimum <= cost and gap <= GAP_TARGET
                and response.get("expected_cost") == cost
            )
            return None if sound else f"gap solve {request.index}: unsound {certificate}"
        same = (
            response.get("expected_cost") == optimum
            and response.get("centers") == reference.centers.tolist()
            and (reference.assignment is None
                 or response.get("assignment") == reference.assignment.tolist())
        )
        return None if same else f"{request.kind} solve {request.index} differs from the reference"


def start_server() -> tuple[subprocess.Popen, str, float]:
    """Start ``repro serve`` and wait for its ready line; returns (process, url, seconds)."""
    start = time.perf_counter()
    process = subprocess.Popen(
        [python(), "-m", "repro", "serve", "--workers", "1", "--port", "0"],
        cwd=ROOT, env=program_env(), stdout=subprocess.PIPE, text=True,
    )
    try:
        deadline = start + READY_TIMEOUT
        while True:
            remaining = deadline - time.perf_counter()
            ready, _, _ = select.select([process.stdout], [], [], max(0.0, remaining))
            if not ready:
                raise RuntimeError("server printed no ready line in time")
            line = process.stdout.readline()
            if not line:
                raise RuntimeError(f"server exited before ready (code {process.wait()})")
            event = json.loads(line)
            if event.get("event") == "ready":
                elapsed = time.perf_counter() - start
                return process, f"http://{event['host']}:{event['port']}", elapsed
    except BaseException:
        stop_server(process)
        raise


def stop_server(process: subprocess.Popen) -> None:
    """SIGTERM (the server drains), then wait; kill if it hangs."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    if process.stdout is not None:
        process.stdout.close()


def warm(url: str, plan: Plan) -> list[Request]:
    """One exact solve per hot instance and objective, before timing."""
    from repro.serve.client import ServeClient

    client = ServeClient(url, max_retries=0, timeout=60.0)
    requests = []
    for instance in plan.hot:
        for objective in ("unassigned", "restricted"):
            request = Request(-1, "hot", objective, instance)
            send(client, request)
            requests.append(request)
    return requests


def summarize(window: Window) -> dict[str, tuple[float, str, int]]:
    """The client-side numbers of one timed window."""
    requests = window.requests

    def latencies(*kinds: str) -> list[float]:
        return [(r.end - r.start) * 1000.0 for r in requests if r.kind in kinds]

    hot = latencies("hot")
    label, tail = supported_tail(hot)
    cold = latencies("cold")
    score = latencies("score")
    ends = [window.start] + [r.end for r in requests]
    cycles = [ends[i + len(MIX)] - ends[i] for i in range(0, len(ends) - len(MIX), len(MIX))]
    return {
        "solve_p50_ms": (median(hot), "ms", len(hot)),
        f"solve_{label}_ms": (tail, "ms", len(hot)),
        "cold_solve_p50_ms": (median(cold), "ms", len(cold)),
        "score_p50_ms": (median(score), "ms", len(score)),
        "requests_per_s": (len(requests) / (window.end - window.start), "1/s", len(requests)),
        "cycle_s": (median(cycles), "s", len(cycles)),
    }


def _check_all(result: Run, references: References, requests: list[Request]) -> int:
    wrong = 0
    for request in requests:
        problem = references.verify(request)
        if problem is not None and request.error is None:
            wrong += 1
        result.check(problem is None, problem or "")
    return wrong


def run(seed: int, seconds: float, trace: bool) -> Run:
    from repro.serve.client import ServeClient

    result = Run("serve_mixed")
    since = baseline()
    setups = []
    process = None
    try:
        for _ in range(SETUP_REPEATS):
            if process is not None:
                stop_server(process)
            process, url, elapsed = start_server()
            setups.append(elapsed)
        plan = Plan(seed)
        references = References()
        for instance in plan.hot:
            for objective in ("unassigned", "restricted"):
                references.solve(instance, objective)
        _check_all(result, references, warm(url, plan))
        window = closed_loop(url, plan, seconds / 2 if trace else seconds)
        health_body = ServeClient(url, max_retries=0).healthz()
        result.check(bool(health_body.get("audit_ok")), f"server audit broken: {health_body}")
    finally:
        if process is not None:
            stop_server(process)
    _check_all(result, references, window.requests)
    detail = summarize(window)

    if trace:
        result.layers.update(traced_layers(result, seed, seconds / 2))
    leak_and_audit(result, since)
    result.end_to_end = {
        "setup_s": (median(setups), "s"),
        "pass_s": (detail["cycle_s"][0], "s"),
        "op_p50_ms": (detail["solve_p50_ms"][0], "ms"),
    }
    result.detail = {
        "setup_s": (median(setups), "s", len(setups)),
        **detail,
    }
    return result


@dataclass
class InProcess:
    """One in-process closed-loop window and the server's counters around it."""

    window: Window
    before: dict
    after: dict
    wrong: int

    @property
    def cycle_s(self) -> float:
        return summarize(self.window)["cycle_s"][0]


def in_process(result: Run, seed: int, seconds: float, recorder=None) -> InProcess:
    """Run the mix against a server hosted in this process, optionally traced."""
    import layers
    from repro.serve import ReproServer, ServeConfig
    from repro.serve.client import ServeClient

    server = ReproServer(ServeConfig(port=0, workers=1))
    server.start()
    patcher = layers.install(recorder) if recorder is not None else None
    try:
        plan = Plan(seed)
        warmed = warm(server.url, plan)
        client = ServeClient(server.url, max_retries=0)
        before = client.stats()
        window = closed_loop(server.url, plan, seconds)
        after = client.stats()
    finally:
        if patcher is not None:
            patcher.restore()
        server.stop()
    requests = warmed + window.requests
    return InProcess(window, before, after, _check_all(result, References(), requests))


def traced_layers(result: Run, seed: int, seconds: float) -> dict[str, float]:
    """Per-layer numbers from an in-process server, so the same wrappers apply.

    An untraced and a traced window both run the clients and the server in
    one process; the tracing overhead compares the two.
    """
    import layers
    from spans import SpanRecorder

    baseline = in_process(result, seed, seconds / 2)
    recorder = SpanRecorder()
    traced = in_process(result, seed, seconds / 2, recorder)
    result.recorder = recorder

    children = recorder.children()
    phases: dict[str, list[float]] = {}
    builds = []
    for route in (span for span in recorder.spans if span.name == "serve/v1/solve"):
        inside = list(layers.descendants(route, children))
        if any(span.name == "cost.context.build" for span in inside):
            # A cold solve: the request built its context.
            builds.append(1000.0 * sum(
                span.duration for category, span, _ in layers.classified(route, children)
                if category == layers.CONTEXT
            ))
        elif not (route.info or {}).get("gap"):
            for solve in inside:
                objective = layers.SOLVES.get(solve.name)
                if objective is not None:
                    layers.add_solve(phases, objective, solve, children)
    values = layers.solve_metrics(phases)

    def moved(path: str, key: str) -> float:
        def read(stats: dict) -> float:
            return float((stats["endpoints"].get(path) or {}).get(key) or 0)
        return read(traced.after) - read(traced.before)

    requests = traced.window.requests
    solve_latencies = [(r.end - r.start) * 1000.0 for r in requests if r.kind != "score"]
    service = float(traced.after["endpoints"]["/v1/solve"]["p50_ms"])
    contexts_before, contexts_after = traced.before["contexts"], traced.after["contexts"]
    values.update({
        "store.hits": float(contexts_after["hits"] - contexts_before["hits"]),
        "store.misses": float(contexts_after["misses"] - contexts_before["misses"]),
        "serve.context_builds": float(contexts_after["builds"] - contexts_before["builds"]),
        "context.build_ms": median(builds) if builds else 0.0,
        "serve.service_p50_ms": service,
        "serve.transport_p50_ms": median(solve_latencies[-512:]) - service,
        "serve.rejected": sum(moved(path, "rejected") for path in ("/v1/solve", "/v1/score")),
        "serve.errors": sum(moved(path, "errors") for path in ("/v1/solve", "/v1/score")),
        "serve.wrong_answers": float(baseline.wrong + traced.wrong),
        "serve.gap_target_hits": float(
            traced.after["gap_target_stops"] - traced.before["gap_target_stops"]
        ),
        "trace.overhead": traced.cycle_s / baseline.cycle_s - 1.0,
    })
    return values
