"""Shared pieces: the run record, statistics, environment facts, leak checks."""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

#: Repository root (the directory holding ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Where traced runs write their spans; listed in the root ``.gitignore``.
OUT_DIR = ROOT / ".perfbench"


@dataclass
class Run:
    """What one workload run measured and checked.

    ``end_to_end`` holds the contract metrics (``name -> (value, unit)``);
    ``detail`` holds the workload's own user-facing numbers in raw wall
    clock, printed by name with their sample counts; ``layers`` holds the
    traced per-layer metrics.
    """

    workload: str
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    end_to_end: dict[str, tuple[float, str]] = field(default_factory=dict)
    detail: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    #: The traced run's span recorder, written out when the run ends.
    recorder: Any = None

    def check(self, ok: bool, message: str) -> bool:
        """Count one checked operation; remember the first few failures."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(message)
        return ok

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else float("nan")


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in ``(0, 1]``)."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = min(len(ordered), max(1, math.ceil(fraction * len(ordered))))
    return float(ordered[rank - 1])


def supported_tail(values: list[float], beyond: int = 10) -> tuple[str, float]:
    """The highest of p99/p95/p90/p75/p50 with at least ``beyond`` samples past it."""
    for label, fraction in (("p99", 0.99), ("p95", 0.95), ("p90", 0.90), ("p75", 0.75)):
        if len(values) * (1.0 - fraction) >= beyond:
            return label, percentile(values, fraction)
    return "p50", median(values)


def timed(function, *args, **kwargs) -> tuple[Any, float]:
    """``(result, seconds)`` of one call."""
    start = time.perf_counter()
    result = function(*args, **kwargs)
    return result, time.perf_counter() - start


def timed_loop(budget: float, step) -> list:
    """Call ``step()`` until ``budget`` seconds have passed, at least once."""
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < budget:
        results.append(step())
    return results


def program_env() -> dict[str, str]:
    """Environment for child processes that run the program from source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def source_digest() -> str:
    """SHA-256 over the program's source files (the checkout has no git)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_revision() -> str:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def environment() -> dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
    }


def _spin(iterations: int) -> int:
    total = 0
    for value in range(iterations):
        total += value
    return total


def spin_scaling(iterations: int = 3_000_000, repeats: int = 3) -> float:
    """Throughput of a pure-Python spin at 2 processes over 1 process.

    The parallel layer can scale at most this well on this host, so
    ``runtime.speedup`` is read against it.  The pool is warm before timing.
    """
    context = multiprocessing.get_context("spawn")
    ratios = []
    with ProcessPoolExecutor(2, mp_context=context) as pool:
        list(pool.map(_spin, [1, 1]))
        for _ in range(repeats):
            _, single = timed(pool.submit(_spin, iterations).result)
            _, double = timed(lambda: list(pool.map(_spin, [iterations, iterations])))
            ratios.append(2.0 * single / double)
    return median(ratios)


def baseline() -> tuple[Any, set[str]]:
    """What :func:`leak_and_audit` compares against: taken before a workload starts."""
    from repro.runtime import health
    from repro.runtime.shm import live_segments

    return health.snapshot(), set(live_segments())


#: Seconds between host-speed probes while a :class:`HostProbe` is armed.
PROBE_INTERVAL = 0.2
#: What one probe takes on a quiet 2-vCPU x86-64 VM; normalised times read
#: as seconds on such a host.
REFERENCE_PROBE_S = 0.003
_PROBE_POINTS = np.random.default_rng(0).random((64, 2))


def _probe() -> float:
    """Seconds one fixed probe takes: Python bytecode plus small NumPy calls.

    It has the shape of the program's hot paths and touches nothing of the
    program, so a change to the program cannot move it.
    """
    start = time.perf_counter()
    total = 0.0
    for i in range(400):
        distances = np.sqrt(((_PROBE_POINTS[i % 64] - _PROBE_POINTS) ** 2).sum(axis=1))
        total += float(distances.max()) + sum(range(20))
    return time.perf_counter() - start


class HostProbe:
    """Samples the host's speed on a wall-clock interval while armed.

    The machine is a few cores of a shared host whose speed drifts by half
    over minutes and swings faster than that.  A ``SIGALRM`` timer runs a
    fixed probe every :data:`PROBE_INTERVAL` seconds, interleaved with the
    workload, so the probes sample the same stretch of host time the
    workload ran in; :meth:`scale` turns the workload's wall clock into
    seconds at :data:`REFERENCE_PROBE_S`.  On a 12 s serial pass over 4
    minutes this took the interquartile spread from 0.27 to 0.03 of the
    median.  The probes' own time (about 1.5%) stays in the workload's wall
    clock; it is the same on every commit.  Where the workload keeps the
    CPUs busy (pool workers, the server) a probe also shares its CPU with
    that work, so the scale carries that share too: it is steady while the
    workload saturates the CPUs, as all three do, and would make a change
    that leaves them idle more often read slightly slower than it is.
    """

    def __init__(self, interval: float = PROBE_INTERVAL) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self._previous: Any = None
        self._cpus = sorted(os.sched_getaffinity(0))

    def _sample(self) -> None:
        """One probe, on each allowed CPU in turn.

        The work may sit on another CPU than this thread (the server
        subprocess, pool workers), and the host slows its CPUs unevenly.
        """
        os.sched_setaffinity(0, {self._cpus[len(self.samples) % len(self._cpus)]})
        try:
            self.samples.append(_probe())
        finally:
            os.sched_setaffinity(0, self._cpus)

    def _handler(self, signum, frame) -> None:
        self._sample()

    def __enter__(self) -> "HostProbe":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        """Factor from this run's wall clock to seconds at the reference speed."""
        return REFERENCE_PROBE_S / statistics.fmean(self.samples)


def leak_and_audit(run: Run, since: tuple[Any, set[str]]) -> None:
    """After a workload: no shared-memory segment left, chunk audit balanced.

    Both count as operations, so a leak or an unbalanced audit shows up in
    ``failed``.  The pool and publications are shut down first: they are
    meant to live until shutdown, not past it.  ``since`` is the workload's
    :func:`baseline`; segments that were already there are not its leak.
    """
    from repro.runtime import health, shutdown_runtime
    from repro.runtime.shm import live_segments

    shutdown_runtime()
    snapshot, existing = since
    leaked = [name for name in live_segments() if name not in existing]
    run.check(not leaked, f"shared-memory segments left after the workload: {leaked}")
    moved = health.delta(snapshot)
    run.check(
        moved.chunks_submitted == moved.chunks_completed + moved.retries,
        f"chunk audit broken: {moved.as_dict()}",
    )


def python() -> str:
    return sys.executable or "python3"


#: ``prctl`` option that makes orphaned descendants re-parent to the caller.
_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt every orphaned descendant (Linux), so :func:`stop_children` sees it.

    A child that exits before its own helpers do — the server subprocess and
    its multiprocessing resource tracker, say — would otherwise leave them
    running under init, out of this process's reach.
    """
    import ctypes

    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):  # pragma: no cover - not Linux
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _children() -> list[int]:
    """Pids whose parent is this process, read from ``/proc``."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def _reap(pid: int, flags: int) -> None:
    try:
        os.waitpid(pid, flags)
    except ChildProcessError:
        pass


def stop_children(grace: float = 10.0) -> None:
    """Stop every process this one started and wait until each has ended.

    The multiprocessing resource tracker (started by the first shared-memory
    segment or spawn pool) only exits once it notices its parent is gone, so
    it is stopped explicitly; anything still running after ``grace`` seconds
    is killed.  Call after the program's runtime has been shut down: a later
    segment unlink would start a new tracker.
    """
    from multiprocessing import resource_tracker

    try:
        resource_tracker._resource_tracker._stop()
    except (AttributeError, ChildProcessError):  # pragma: no cover - API moved, already reaped
        pass
    deadline = time.monotonic() + grace
    while pids := _children():
        if time.monotonic() >= deadline:
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                _reap(pid, 0)
            return
        for pid in pids:
            _reap(pid, os.WNOHANG)
        time.sleep(0.02)
