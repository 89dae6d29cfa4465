"""Tier-1 tests for the runtime sanitizers (``REPRO_SANITIZE=shm,lock,det``).

Each sanitizer gets a *planted bug* it must catch — a leaked/double-unlinked
segment for SHM-SAN, an acquisition-order inversion for LOCK-SAN, a
chunk-level divergence for DET-SAN — plus the zero-cost-when-disabled
contract, the ``REPRO_SANITIZE`` name validation, and the pool-initargs
handoff that enables sanitizers inside worker processes.  Sanitizers report
via :func:`repro.sanitize.violations` (never by raising into the
instrumented path), which is what these tests assert on.
"""

from __future__ import annotations

import os
import pickle
import threading

import numpy as np
import pytest

from repro import sanitize
from repro.runtime import shm as shm_module
from repro.runtime.parallel import parallel_map, set_oversubscribe
from repro.sanitize import det_san, lock_san, shm_san
from repro.workloads import gaussian_clusters


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
        assert sanitize.parse_names("shm,lock,det") == ("shm", "lock", "det")
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
        violation = sanitize.Violation(sanitizer="lock", message="boom")
        assert violation.render() == "LOCK-SAN: boom"


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
        shm_san.record_create("psm_ok", "publish_blob")
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
        arrays = {"x": np.arange(8.0)}
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


class TestLockSan:
    def test_catches_planted_order_inversion(self):
        sanitize.set_enabled(("lock",))
        lock_san.note_acquire("store.lock")
        lock_san.note_acquire("incumbent.slot")
        lock_san.note_release("incumbent.slot")
        lock_san.note_release("store.lock")
        assert sanitize.violations() == ()  # first ordering just records
        lock_san.note_acquire("incumbent.slot")
        lock_san.note_acquire("store.lock")
        found = messages()
        assert len(found) == 1
        assert "lock-order inversion" in found[0]
        assert "store.lock" in found[0] and "incumbent.slot" in found[0]

    def test_consistent_order_is_clean(self):
        sanitize.set_enabled(("lock",))
        for _ in range(2):
            lock_san.note_acquire("store.lock")
            lock_san.note_acquire("incumbent.slot")
            lock_san.note_release("incumbent.slot")
            lock_san.note_release("store.lock")
        assert sanitize.violations() == ()

    def test_catches_reacquisition_of_held_lock(self):
        sanitize.set_enabled(("lock",))
        lock_san.note_acquire("incumbent.slot")
        lock_san.note_acquire("incumbent.slot")
        assert any("not reentrant" in message for message in messages())

    def test_traced_lock_context_manager_records_edges(self):
        sanitize.set_enabled(("lock",))
        first = lock_san.wrap_lock(threading.Lock(), "first")
        second = lock_san.wrap_lock(threading.Lock(), "second")
        assert isinstance(first, lock_san.TracedLock)
        with first:
            with second:
                pass
        assert list(lock_san.observed_edges()) == [("first", "second")]
        with second:
            with first:
                pass
        assert any("lock-order inversion" in message for message in messages())

    def test_wrap_is_identity_when_disabled_and_idempotent_when_on(self):
        raw = threading.Lock()
        assert lock_san.wrap_lock(raw, "noop") is raw
        sanitize.set_enabled(("lock",))
        traced = lock_san.wrap_lock(raw, "slot")
        assert lock_san.wrap_lock(traced, "slot") is traced
        assert lock_san.unwrap_lock(traced) is raw
        assert lock_san.unwrap_lock(raw) is raw

    def test_traced_lock_refuses_to_cross_process_boundaries(self):
        sanitize.set_enabled(("lock",))
        traced = lock_san.wrap_lock(threading.Lock(), "slot")
        # Shipping the proxy through a dispatch tuple would re-introduce
        # exactly the bug class SYNC-IN-DISPATCH exists for; ship .raw and
        # re-wrap on the far side instead.
        with pytest.raises(TypeError, match="must not cross process boundaries"):
            pickle.dumps(traced)


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

    def test_spill_fingerprint_crosscheck_flags_swapped_context(self):
        from repro.cost.context import CostContext
        from repro.runtime.store import candidate_fingerprint, dataset_fingerprint

        dataset, _ = gaussian_clusters(n=6, z=3, dimension=2, k_true=2, seed=9)
        candidates = dataset.expected_points()[:4]
        context = CostContext(dataset, candidates)
        expected_dataset = dataset_fingerprint(dataset)
        expected_candidates = candidate_fingerprint(candidates)
        sanitize.set_enabled(("det",))
        det_san.verify_context_fingerprints(
            context, expected_dataset, expected_candidates, origin="fake.ctx"
        )
        assert sanitize.violations() == ()  # honest spill file
        det_san.verify_context_fingerprints(
            context, "0" * 40, expected_candidates, origin="crosswired.ctx"
        )
        found = messages()
        assert len(found) == 1
        assert "does not match its key" in found[0]
        assert "crosswired.ctx" in found[0]


class TestWorkerHandoff:
    def test_initargs_carry_enabled_sanitizers_into_workers(self):
        # The persistent pool ships ``sanitize.enabled_names()`` through its
        # initializer arguments — the same channel the incumbent handles
        # use — and respawns when they change, so programmatically enabled
        # sanitizers are live inside every worker (here on the pickled
        # transport: a large payload with shm off).
        previous = set_oversubscribe(True)
        try:
            sanitize.set_enabled(("shm", "lock"))
            payload = os.urandom(100_000)
            results = parallel_map(
                _probe_enabled, range(4), payload=payload, workers=2, shm=False
            )
        finally:
            set_oversubscribe(previous)
        assert results == [("shm", "lock")] * 4
