"""Repo-wide pytest configuration: per-test timeouts and sanitizer verdicts.

Solver hangs (like the historical threshold-greedy infinite loop in the
Guha–Munagala baseline) must fail fast instead of stalling the whole suite.
When the ``pytest-timeout`` plugin is installed (the ``test`` extra in
``setup.py``) it enforces the default below; otherwise a SIGALRM-based
fallback provides the same behaviour on POSIX.  Individual tests override
the default with ``@pytest.mark.timeout(seconds)``.

A runtime sanitizer (``REPRO_SANITIZE``) only records a violation; it never
raises into the code it watches.  So each test phase here fails when a
violation was recorded during it, which is how an armed run fails on one.
Tests that plant a violation on purpose clear it themselves.  Living at the
repo root this applies to ``tests/`` and ``benchmarks/`` alike.
"""

from __future__ import annotations

import signal
import threading

import pytest

from repro import sanitize

#: Default per-test budget; generous next to the slowest benchmark test but
#: far below "the suite is hanging".
DEFAULT_TEST_TIMEOUT_SECONDS = 300.0

try:  # pragma: no cover - exercised only where the plugin is installed
    import pytest_timeout  # noqa: F401

    _HAVE_PYTEST_TIMEOUT = True
except ImportError:
    _HAVE_PYTEST_TIMEOUT = False


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "timeout(seconds): override the per-test timeout default"
    )
    if _HAVE_PYTEST_TIMEOUT and getattr(config.option, "timeout", None) is None:
        config.option.timeout = DEFAULT_TEST_TIMEOUT_SECONDS


def _timeout_seconds(item) -> float:
    marker = item.get_closest_marker("timeout")
    if marker is None:
        return DEFAULT_TEST_TIMEOUT_SECONDS
    if marker.args:
        return float(marker.args[0])
    # pytest-timeout's keyword is ``timeout=``; accept ``seconds=`` too.
    value = marker.kwargs.get("timeout", marker.kwargs.get("seconds"))
    return float(value) if value is not None else DEFAULT_TEST_TIMEOUT_SECONDS


def _alarm_fallback_active() -> bool:
    return (
        not _HAVE_PYTEST_TIMEOUT
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


def _guarded(item, phase: str):
    """SIGALRM fallback for one test phase when pytest-timeout is unavailable.

    Hangs can occur in fixture setup/teardown as easily as in the test body
    (a solver hang inside a dataset fixture, say), so every phase of the
    runtest protocol gets its own alarm budget.
    """
    if not _alarm_fallback_active():
        return (yield)
    seconds = _timeout_seconds(item)

    def _on_timeout(signum, frame):
        raise TimeoutError(
            f"{item.nodeid} exceeded the {seconds:.0f}s {phase} timeout "
            "(fallback guard; install pytest-timeout for richer reporting)"
        )

    previous = signal.signal(signal.SIGALRM, _on_timeout)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


#: Every violation seen at a phase start, by id.  Holding them keeps their
#: ids unique, so a violation fails only the phase it first appears in, also
#: when a test swaps the sanitizer state out and back in
#: (``tests/test_sanitizers.py``).
_seen_violations: dict[int, sanitize.Violation] = {}


def _phase(item, phase: str):
    """One runtest phase under its timeout, failed by any new sanitizer violation."""
    _seen_violations.update((id(violation), violation) for violation in sanitize.violations())
    result = yield from _guarded(item, phase)
    found = [
        violation for violation in sanitize.violations() if id(violation) not in _seen_violations
    ]
    if found:
        pytest.fail(
            f"{len(found)} sanitizer violation(s) during {phase}:\n"
            + "\n".join(f"  {violation.render()}" for violation in found),
            pytrace=False,
        )
    return result


@pytest.hookimpl(wrapper=True)
def pytest_runtest_setup(item):
    return (yield from _phase(item, "fixture-setup"))


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    return (yield from _phase(item, "test"))


@pytest.hookimpl(wrapper=True)
def pytest_runtest_teardown(item):
    return (yield from _phase(item, "fixture-teardown"))
