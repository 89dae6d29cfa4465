"""Shared mutable state behind the server: admission, breaker, contexts.

Everything here is the *robustness architecture* of ``repro serve``,
factored out of the HTTP handler so each mechanism is testable without a
socket:

* :class:`AdmissionGate` — the bounded request queue.  ``max_inflight``
  requests execute concurrently; up to ``queue_limit`` more wait (at most
  ``queue_wait_seconds``); everything past that is rejected immediately.
  Backpressure is therefore *explicit*: an overloaded server answers 429
  with a Retry-After derived from the observed p50 service time instead of
  letting latency grow without bound.
* :class:`LatencyWindow` — a bounded reservoir of recent per-endpoint
  service times; p50/p95 for ``/stats`` and the Retry-After estimate.
* :class:`CircuitBreaker` — a sliding-window breaker over runtime
  degradation events (pool rebuilds, serial fallbacks — the
  :mod:`repro.runtime.health` counters PR 8 added).  Tripping flips
  ``/readyz`` to 503 and forces solves into serial-only degraded mode;
  after a cooldown one half-open probe gets the pool back, and a clean
  probe closes the breaker.  Results are bit-identical either way (the
  runtime's determinism contract) — the breaker trades wall clock for not
  hammering a crashing pool.
* :class:`SingleFlightContexts` — one
  :class:`~repro.runtime.store.ContextStore` shared by every request, with
  per-fingerprint single-flight builds: N concurrent requests over the
  same dataset cost **one** context build; the N-1 followers wait for the
  builder instead of duplicating the work (the store alone cannot promise
  that — two threads can both miss before either finishes building).

Thread-safety: the HTTP server handles each request on its own thread, so
every structure here guards its state with a lock; the runtime health
counters are process-global, which is why degradation observation runs
through one :meth:`ServerState.observe_runtime` choke point holding the
state lock (per-request attribution is impossible with concurrent maps,
and the breaker only needs "degradation happened in the window").
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import TYPE_CHECKING

from ..runtime import health
from ..runtime.store import ContextStore, candidate_fingerprint, dataset_fingerprint

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from ..cost.context import CostContext
    from ..uncertain.dataset import UncertainDataset
    from .config import ServeConfig

#: Service times kept per endpoint for the percentile estimates.
LATENCY_WINDOW = 512

#: Retry-After fallback (seconds) before any service time is observed.
DEFAULT_RETRY_AFTER = 1.0


class LatencyWindow:
    """Bounded reservoir of recent service times for one endpoint."""

    def __init__(self, maxlen: int = LATENCY_WINDOW) -> None:
        self._samples: deque[float] = deque(maxlen=maxlen)
        self._lock = threading.Lock()
        self.count = 0
        self.errors = 0
        self.rejected = 0

    def record(self, seconds: float, *, error: bool = False) -> None:
        with self._lock:
            self._samples.append(float(seconds))
            self.count += 1
            if error:
                self.errors += 1

    def record_rejection(self) -> None:
        with self._lock:
            self.rejected += 1

    def percentile(self, fraction: float) -> float | None:
        """The ``fraction`` percentile of the window (``None`` when empty)."""
        with self._lock:
            samples = sorted(self._samples)  # monitoring window, never on a solve path
        if not samples:
            return None
        index = min(len(samples) - 1, int(fraction * len(samples)))
        return samples[index]

    def as_dict(self) -> dict[str, object]:
        p50 = self.percentile(0.50)
        p95 = self.percentile(0.95)
        return {
            "count": self.count,
            "errors": self.errors,
            "rejected": self.rejected,
            "p50_ms": None if p50 is None else round(p50 * 1000.0, 3),
            "p95_ms": None if p95 is None else round(p95 * 1000.0, 3),
        }


class AdmissionGate:
    """Bounded concurrency + bounded wait queue (the 429 source)."""

    def __init__(self, max_inflight: int, queue_limit: int, queue_wait_seconds: float) -> None:
        self.max_inflight = max(1, int(max_inflight))
        self.queue_limit = max(0, int(queue_limit))
        self.queue_wait_seconds = max(0.0, float(queue_wait_seconds))
        self._lock = threading.Lock()
        self._slot_freed = threading.Condition(self._lock)
        self.inflight = 0
        self.waiting = 0

    def try_enter(self) -> bool:
        """Take an execution slot, waiting briefly in the bounded queue.

        Returns ``False`` (reject with 429) when the queue is full or the
        wait budget expires without a slot.
        """
        deadline = time.monotonic() + self.queue_wait_seconds
        with self._lock:
            if self.inflight < self.max_inflight:
                self.inflight += 1
                return True
            if self.waiting >= self.queue_limit:
                return False
            self.waiting += 1
            try:
                while self.inflight >= self.max_inflight:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._slot_freed.wait(timeout=remaining):  # repro: noqa[LOCK-DISCIPLINE] -- Condition.wait releases the lock while blocking; this IS the queue
                        if self.inflight >= self.max_inflight:
                            return False
                self.inflight += 1
                return True
            finally:
                self.waiting -= 1

    def exit(self) -> None:
        with self._lock:
            self.inflight = max(0, self.inflight - 1)
            self._slot_freed.notify()

    def wait_idle(self, timeout: float) -> bool:
        """Block until nothing is in flight (the drain path); True on idle."""
        deadline = time.monotonic() + max(0.0, timeout)
        with self._lock:
            while self.inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._slot_freed.wait(timeout=remaining):  # repro: noqa[LOCK-DISCIPLINE] -- Condition.wait releases the lock while draining waits
                    if self.inflight > 0 and deadline - time.monotonic() <= 0:
                        return False
            return True

    def as_dict(self) -> dict[str, int]:
        with self._lock:
            return {
                "inflight": self.inflight,
                "waiting": self.waiting,
                "max_inflight": self.max_inflight,
                "queue_limit": self.queue_limit,
            }


class CircuitBreaker:
    """Sliding-window breaker over runtime degradation events.

    States: ``closed`` (healthy, parallel allowed) → ``open`` (tripped:
    ``/readyz`` 503, serial-only) after ``threshold`` events inside
    ``window_seconds`` → ``half-open`` after ``cooldown_seconds`` (one
    probe runs parallel again) → ``closed`` on a clean probe, back to
    ``open`` on a degraded one.
    """

    def __init__(self, window_seconds: float, threshold: int, cooldown_seconds: float) -> None:
        self.window_seconds = float(window_seconds)
        self.threshold = max(1, int(threshold))
        self.cooldown_seconds = float(cooldown_seconds)
        self._lock = threading.Lock()
        self._events: deque[float] = deque()
        self._opened_at: float | None = None
        self._probing = False
        self.trips = 0

    def _prune(self, now: float) -> None:
        while self._events and now - self._events[0] > self.window_seconds:
            self._events.popleft()

    def record_degradation(self, events: int, now: float | None = None) -> None:
        """Count ``events`` degradation events at ``now``; may trip the breaker."""
        if events <= 0:
            return
        now = time.monotonic() if now is None else now
        with self._lock:
            if self._probing:
                # The half-open probe degraded: straight back to open.
                self._probing = False
                self._opened_at = now
                self.trips += 1
                return
            self._prune(now)
            self._events.extend([now] * int(events))
            if self._opened_at is None and len(self._events) >= self.threshold:
                self._opened_at = now
                self.trips += 1

    def allow_parallel(self, now: float | None = None) -> bool:
        """Whether a solve may use the worker pool right now.

        Closed: yes.  Open: no — until the cooldown elapses, when exactly
        one caller becomes the half-open probe (and must report back via
        :meth:`record_degradation` / :meth:`record_probe_success`).
        """
        now = time.monotonic() if now is None else now
        with self._lock:
            if self._opened_at is None:
                return True
            if self._probing:
                return False  # someone else is already probing
            if now - self._opened_at >= self.cooldown_seconds:
                self._probing = True
                return True
            return False

    def record_probe_success(self, now: float | None = None) -> None:
        """A clean parallel run: closes the breaker if it was half-open."""
        with self._lock:
            if self._probing:
                self._probing = False
                self._opened_at = None
                self._events.clear()

    def state(self, now: float | None = None) -> str:
        now = time.monotonic() if now is None else now
        with self._lock:
            if self._opened_at is None:
                return "closed"
            if self._probing or now - self._opened_at >= self.cooldown_seconds:
                return "half-open"
            return "open"

    def as_dict(self) -> dict[str, object]:
        now = time.monotonic()
        with self._lock:
            self._prune(now)
            window_events = len(self._events)
        return {
            "state": self.state(now),
            "window_events": window_events,
            "threshold": self.threshold,
            "window_seconds": self.window_seconds,
            "cooldown_seconds": self.cooldown_seconds,
            "trips": self.trips,
        }


class SingleFlightContexts:
    """Per-fingerprint single-flight builds over one shared context store.

    ``get`` collapses N concurrent builds of the same (dataset, candidates)
    pair into one: the first caller builds through the store's in-memory
    LRU, the rest wait on the builder's event and then hit the store.
    ``builds`` counts actual context constructions — the single-flight bench
    asserts it stays at 1 for N concurrent same-fingerprint requests.
    """

    def __init__(self, store: ContextStore) -> None:
        self.store = store
        self._lock = threading.Lock()
        self._inflight: dict[tuple[str, str], threading.Event] = {}
        self.builds = 0
        self.waits = 0

    def get(self, dataset: "UncertainDataset", candidates: "np.ndarray") -> "CostContext":
        key = (dataset_fingerprint(dataset), candidate_fingerprint(candidates))
        while True:
            with self._lock:
                waiter = self._inflight.get(key)
                if waiter is None:
                    event = threading.Event()
                    self._inflight[key] = event
                    break
            self.waits += 1
            waiter.wait()
        try:
            misses_before = self.store.misses
            context = self.store.get(dataset, candidates)
            with self._lock:
                if self.store.misses > misses_before:
                    self.builds += 1
            return context
        finally:
            with self._lock:
                self._inflight.pop(key, None)
            event.set()

    def as_dict(self) -> dict[str, int]:
        return {
            "builds": self.builds,
            "single_flight_waits": self.waits,
            "hits": self.store.hits,
            "misses": self.store.misses,
        }


class ServerState:
    """Everything the handler threads share, composed per server instance."""

    def __init__(self, config: "ServeConfig") -> None:
        self.config = config
        self.started_monotonic = time.monotonic()
        self.gate = AdmissionGate(
            config.max_inflight, config.effective_queue_limit, config.queue_wait_seconds
        )
        self.breaker = CircuitBreaker(
            config.breaker_window_seconds,
            config.breaker_threshold,
            config.breaker_cooldown_seconds,
        )
        self.contexts = SingleFlightContexts(ContextStore(maxsize=config.store_size))
        self.latency: dict[str, LatencyWindow] = {}
        #: At most one request at a time drives the shared worker pool; the
        #: others run serially instead of waiting (identical results, and no
        #: concurrent rebuild races inside PersistentPool).
        self.pool_gate = threading.Lock()
        self.draining = False
        self._lock = threading.Lock()
        self._sequence = 0
        #: Baselines for the lifetime window (/healthz, /stats) and for the
        #: breaker's incremental observation — generation-tagged snapshots,
        #: so a test calling ``health.reset()`` mid-flight re-baselines
        #: instead of producing negative windows.
        self.health_baseline = health.snapshot()
        self._last_observed = health.snapshot()
        self.faults_rejected = 0

    def next_sequence(self) -> int:
        with self._lock:
            self._sequence += 1
            return self._sequence

    def endpoint_latency(self, endpoint: str) -> LatencyWindow:
        with self._lock:
            window = self.latency.get(endpoint)
            if window is None:
                window = self.latency[endpoint] = LatencyWindow()
            return window

    def observe_runtime(self) -> int:
        """Fold runtime health movement since the last observation into the breaker.

        Pool rebuilds and serial fallbacks are the "the pool is crashing
        under me" signals; transport fallbacks and deadline hits are
        expected degradations that must *not* trip the breaker.  Returns the
        number of degradation events observed (0 = this window was clean).
        """
        with self._lock:
            moved = health.delta(self._last_observed)
            self._last_observed = health.snapshot()
        degradations = moved.pool_rebuilds + moved.serial_fallbacks
        self.breaker.record_degradation(degradations)
        return degradations

    def retry_after_seconds(self) -> float:
        """Backpressure hint: observed p50 solve service time x queue depth."""
        p50 = self.endpoint_latency("/v1/solve").percentile(0.50)
        if p50 is None:
            return DEFAULT_RETRY_AFTER
        depth = max(1, self.gate.as_dict()["waiting"] + 1)
        return max(DEFAULT_RETRY_AFTER, p50 * depth)

    def uptime_seconds(self) -> float:
        return time.monotonic() - self.started_monotonic


__all__ = [
    "AdmissionGate",
    "CircuitBreaker",
    "DEFAULT_RETRY_AFTER",
    "LATENCY_WINDOW",
    "LatencyWindow",
    "ServerState",
    "SingleFlightContexts",
]
