"""Tier-1 tests for the runtime sanitizers (``REPRO_SANITIZE=shm,det``).

Each sanitizer gets a *planted bug* it must catch — a leaked/double-unlinked
segment for SHM-SAN, a chunk-level divergence for DET-SAN — plus the
zero-cost-when-disabled contract, the ``REPRO_SANITIZE`` name validation,
and the pool-initargs handoff that enables sanitizers inside worker
processes.  Sanitizers report via :func:`repro.sanitize.violations` (never
by raising into the instrumented path), which is what these tests assert
on.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import sanitize
from repro.runtime import shm as shm_module
from repro.runtime.parallel import parallel_map, set_oversubscribe
from repro.sanitize import det_san, shm_san


@pytest.fixture(autouse=True)
def sanitizers_reset():
    """Every test starts and ends with sanitizers off and state cleared."""
    sanitize.set_enabled(())
    yield
    sanitize.set_enabled(())


def messages() -> list[str]:
    return [violation.render() for violation in sanitize.violations()]


class TestController:
    def test_parse_names_accepts_known_and_strips(self):
        assert sanitize.parse_names("shm,det") == ("shm", "det")
        assert sanitize.parse_names(" shm , det ") == ("shm", "det")
        assert sanitize.parse_names("") == ()
        assert sanitize.parse_names(None) == ()

    def test_parse_names_rejects_typos(self):
        # REPRO_SANITIZE=shmm silently running *nothing* would defeat the
        # point of a sanitizer, so unknown names are a hard error.
        with pytest.raises(ValueError, match="shmm"):
            sanitize.parse_names("shmm")
        with pytest.raises(ValueError, match="valid names"):
            sanitize.parse_names("shm,nope")
        # ``lock`` is no longer a sanitizer: a leftover spelling fails too.
        assert sanitize.SANITIZER_NAMES == ("shm", "det")
        with pytest.raises(ValueError, match="'lock'"):
            sanitize.parse_names("shm,lock,det")

    def test_enabled_names_canonical_order(self):
        sanitize.set_enabled(("det", "shm"))
        assert sanitize.enabled_names() == ("shm", "det")
        assert sanitize.enabled("det") and not sanitize.enabled("lock")

    def test_set_enabled_clears_previous_state(self):
        sanitize.set_enabled(("shm",))
        shm_san.record_create("psm_ghost", "test")
        sanitize.report_violation("shm", "stale")
        sanitize.set_enabled(("shm",))
        assert sanitize.violations() == ()
        assert sanitize.check_exit() == ()  # the ghost create was cleared

    def test_violation_renders_with_sanitizer_tag(self):
        violation = sanitize.Violation(sanitizer="det", message="boom")
        assert violation.render() == "DET-SAN: boom"


class TestShmSan:
    def test_catches_planted_leak(self):
        sanitize.set_enabled(("shm",))
        shm_san.record_create("psm_leaky", "pack_arrays")
        found = sanitize.check_exit()
        assert len(found) == 1
        assert "psm_leaky" in found[0].message
        assert "created by pack_arrays" in found[0].message
        assert "never unlinked" in found[0].message

    def test_balanced_lifecycle_is_clean(self):
        sanitize.set_enabled(("shm",))
        shm_san.record_create("psm_ok", "pack_arrays")
        shm_san.record_unlink("psm_ok")
        assert sanitize.check_exit() == ()

    def test_catches_double_unlink(self):
        sanitize.set_enabled(("shm",))
        shm_san.record_create("psm_twice", "pack_arrays")
        shm_san.record_unlink("psm_twice")
        shm_san.record_unlink("psm_twice")
        assert any("unlinked twice" in message for message in messages())

    def test_disabled_hooks_are_no_ops(self):
        shm_san.record_create("psm_off", "pack_arrays")
        shm_san.record_unlink("psm_off")
        shm_san.record_unlink("psm_off")
        shm_san.check_exit()
        assert sanitize.violations() == ()

    def test_real_segment_lifecycle_end_to_end(self):
        if not shm_module.shm_available():
            pytest.skip("shared memory unavailable")
        sanitize.set_enabled(("shm",))
        arrays = [np.arange(8.0)]
        _descriptor, lease = shm_module.pack_arrays(arrays)
        lease.close()
        assert sanitize.check_exit() == ()  # close() unlinks: clean
        _descriptor, leaked = shm_module.pack_arrays(arrays)
        try:
            found = sanitize.check_exit()
            assert len(found) == 1
            assert "pack_arrays" in found[0].message
            assert "never unlinked" in found[0].message
        finally:
            leaked.close()  # do not actually leak /dev/shm from the suite


def _entropy_chunk(payload, item):
    return os.urandom(8)  # deliberately nondeterministic: the planted bug


def _square_chunk(payload, item):
    return payload * item * item


def _probe_enabled(payload, item):
    return sanitize.enabled_names()


class TestDetSan:
    def test_catches_planted_chunk_divergence(self):
        sanitize.set_enabled(("det",))
        det_san.record_map(
            _square_chunk, [0, 1, 2], None, [10, 11, 12], workers=1, pruned=False
        )
        det_san.record_map(
            _square_chunk, [0, 1, 2], None, [10, 99, 12], workers=4, pruned=False
        )
        found = messages()
        assert len(found) == 1
        assert "diverged at chunk 1" in found[0]
        assert "workers=1" in found[0] and "workers=4" in found[0]

    def test_identical_repeats_are_clean(self):
        sanitize.set_enabled(("det",))
        for workers in (1, 4):
            det_san.record_map(
                _square_chunk, [0, 1], None, [5, 6], workers=workers, pruned=False
            )
        assert sanitize.violations() == ()

    def test_pruned_maps_are_skipped_by_design(self):
        # Branch-and-bound chunks legitimately differ per worker count
        # (incumbent races change skip sets) while reductions stay exact.
        sanitize.set_enabled(("det",))
        det_san.record_map(_square_chunk, [0], None, [1], workers=1, pruned=True)
        det_san.record_map(_square_chunk, [0], None, [2], workers=4, pruned=True)
        assert sanitize.violations() == ()

    def test_unpicklable_payload_is_skipped_not_reported(self):
        sanitize.set_enabled(("det",))
        unpicklable = lambda: None  # noqa: E731
        det_san.record_map(
            _square_chunk, [0], unpicklable, [1], workers=1, pruned=False
        )
        det_san.record_map(
            _square_chunk, [0], unpicklable, [2], workers=4, pruned=False
        )
        assert sanitize.violations() == ()

    def test_parallel_map_divergence_caught_at_first_chunk(self):
        sanitize.set_enabled(("det",))
        parallel_map(_entropy_chunk, range(3), workers=1)
        assert sanitize.violations() == ()  # first run just records
        parallel_map(_entropy_chunk, range(3), workers=1)
        found = messages()
        assert len(found) == 1
        assert "diverged at chunk 0" in found[0]
        assert "_entropy_chunk" in found[0]

    def test_parallel_map_deterministic_task_is_clean(self):
        sanitize.set_enabled(("det",))
        serial = parallel_map(_square_chunk, range(6), payload=3, workers=1)
        repeat = parallel_map(_square_chunk, range(6), payload=3, workers=1)
        assert serial == repeat
        assert sanitize.violations() == ()


class TestWorkerHandoff:
    def test_initargs_carry_enabled_sanitizers_into_workers(self):
        # The persistent pool ships ``sanitize.enabled_names()`` through its
        # initializer arguments — with the armed fault spec — and respawns
        # when they change, so programmatically enabled
        # sanitizers are live inside every worker (here on the pickled
        # transport: a large payload with shm off).
        previous = set_oversubscribe(True)
        try:
            sanitize.set_enabled(("shm", "det"))
            payload = os.urandom(100_000)
            results = parallel_map(
                _probe_enabled, range(4), payload=payload, workers=2, shm=False
            )
        finally:
            set_oversubscribe(previous)
        assert results == [("shm", "det")] * 4
