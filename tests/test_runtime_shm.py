"""Shared-memory payload lifecycle: round trips, leaks, crash cleanup.

The zero-copy runtime's contracts (see :mod:`repro.runtime.shm`):

* a published :class:`~repro.cost.context.CostContext` payload materializes
  in another process (or this one) with **every** array byte-identical, and
  field for field equal to what the pickled transport unpickles;
* segments are unlinked deterministically — publication-cache eviction,
  garbage collection of the published context, explicit shutdown — and a
  crashing worker never strands one;
* an attachment stays mapped while any array of its payload lives, so a
  worker-cache eviction never unmaps an array still in use, and unmaps
  once the last one goes;
* brute-force results are bit-identical at every worker count with shared
  memory on or off;
* the worker pool is persistent: repeated calls reuse the same processes and
  the same publication instead of re-shipping the payload.
"""

from __future__ import annotations

import gc
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cost.context import CostContext
from repro.runtime import parallel_map, set_oversubscribe, shutdown_runtime
from repro.runtime import pool as pool_module
from repro.runtime import shm as shm_module
from repro.runtime.shm import (
    live_segments,
    materialize_payload,
    publish_payload,
    shm_available,
)
from repro.baselines.brute_force import (
    brute_force_restricted_assigned,
    brute_force_unassigned,
    brute_force_unrestricted_assigned,
)
from repro.uncertain import UncertainDataset, UncertainPoint
from repro.workloads import gaussian_clusters

from test_bruteforce_pruning import make_ragged_dataset, make_tricky_dataset

pytestmark = pytest.mark.skipif(not shm_available(), reason="shared memory unavailable")

REPO_ROOT = Path(__file__).resolve().parents[1]


def _own_segments() -> list[str]:
    """Segments created by THIS process (names embed the creator pid).

    Scoping the leak scans to our pid keeps them meaningful when another
    repro process (a concurrent bench run, another test session) owns
    segments on the same machine.
    """
    prefix = f"{shm_module.SEGMENT_PREFIX}_{os.getpid()}_"
    return [name for name in live_segments() if name.startswith(prefix)]


@pytest.fixture(autouse=True)
def _pool_on_one_cpu():
    """Exercise real pools even on 1-CPU machines; leave nothing behind."""
    previous = set_oversubscribe(True)
    yield
    set_oversubscribe(previous)
    shutdown_runtime()


@pytest.fixture()
def instance():
    dataset, _ = gaussian_clusters(n=8, z=3, dimension=2, k_true=3, seed=4)
    return dataset, dataset.all_locations()[:16]


def _full_context(dataset, candidates) -> CostContext:
    context = CostContext(dataset, candidates)
    context.supports
    context.expected
    context.evaluator
    context._rank_merge_tables()
    return context


class TestDescriptorRoundTrip:
    def test_every_array_restores_bit_identical(self, instance):
        dataset, candidates = instance
        context = _full_context(dataset, candidates)
        descriptor, call_lease = publish_payload((context, 128))
        assert call_lease is None  # no extra arrays outside the context
        twin, chunk_rows = materialize_payload(descriptor)
        assert chunk_rows == 128
        assert np.array_equal(twin.candidates, context.candidates)
        assert all(
            np.array_equal(a, b) for a, b in zip(twin.probabilities, context.probabilities)
        )
        assert all(np.array_equal(a, b) for a, b in zip(twin.supports, context.supports))
        assert np.array_equal(twin.expected, context.expected)
        for attribute in ("_values", "_cdfs", "_log_deltas", "_zero_deltas"):
            ours = getattr(context.evaluator, attribute)
            theirs = getattr(twin.evaluator, attribute)
            assert all(np.array_equal(a, b) for a, b in zip(ours, theirs))
        ours_rm = context._rank_merge_tables()
        theirs_rm = twin._rank_merge_tables()
        assert np.array_equal(ours_rm.values_by_rank, theirs_rm.values_by_rank)
        for (pa, ra, wa), (pb, rb, wb) in zip(ours_rm.groups, theirs_rm.groups):
            assert np.array_equal(pa, pb)
            assert np.array_equal(ra, rb)
            assert np.array_equal(wa, wb)

    def test_materialized_context_scores_identically(self, instance):
        dataset, candidates = instance
        context = _full_context(dataset, candidates)
        descriptor, _ = publish_payload((context, 64))
        twin = materialize_payload(descriptor)[0]
        labels = np.arange(dataset.size) % candidates.shape[0]
        assert twin.assigned_cost(labels) == context.assigned_cost(labels)
        subsets = np.asarray([[0, 1, 2], [3, 4, 5], [1, 7, 9]])
        assert np.array_equal(twin.unassigned_costs(subsets), context.unassigned_costs(subsets))
        assert np.array_equal(
            twin.assigned_costs(np.tile(labels, (4, 1))),
            context.assigned_costs(np.tile(labels, (4, 1))),
        )

    def test_materialized_views_are_read_only(self, instance):
        dataset, candidates = instance
        context = _full_context(dataset, candidates)
        descriptor, _ = publish_payload((context, 64))
        twin = materialize_payload(descriptor)[0]
        with pytest.raises((ValueError, RuntimeError)):
            twin.expected[0, 0] = 1.0

    def test_extra_arrays_travel_in_per_call_segment(self, instance):
        dataset, candidates = instance
        context = _full_context(dataset, candidates)
        scores = np.random.default_rng(0).random((dataset.size, candidates.shape[0]))
        descriptor, call_lease = publish_payload((context, scores, 32))
        assert call_lease is not None
        payload = materialize_payload(descriptor)
        try:
            assert np.array_equal(payload[1], scores)
        finally:
            call_lease.close()

    def test_descriptor_is_small_and_picklable(self, instance):
        dataset, candidates = instance
        context = _full_context(dataset, candidates)
        payload = (context, 256)
        descriptor, _ = publish_payload(payload)
        payload_bytes = len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        assert descriptor.dispatch_bytes() * 10 <= payload_bytes


def _assert_same_fields(left, right, path="payload"):
    """Equal types and, recursively, equal fields; arrays equal bit for bit."""
    assert type(left) is type(right), path
    if isinstance(left, np.ndarray):
        assert (left.dtype, left.shape) == (right.dtype, right.shape), path
        assert left.tobytes() == right.tobytes(), path
    elif isinstance(left, (list, tuple)):
        assert len(left) == len(right), path
        for index, (a, b) in enumerate(zip(left, right)):
            _assert_same_fields(a, b, f"{path}[{index}]")
    elif isinstance(left, dict):
        assert left.keys() == right.keys(), path
        for key in left:
            _assert_same_fields(left[key], right[key], f"{path}.{key}")
    elif hasattr(left, "__dict__"):
        _assert_same_fields(vars(left), vars(right), path)
    else:
        assert left == right, path


class TestOneSerialization:
    """Shared memory hands workers exactly what the pickled transport does."""

    @pytest.mark.parametrize("make", [make_tricky_dataset, make_ragged_dataset])
    @pytest.mark.parametrize("seed", range(3))
    def test_materialized_payload_equals_unpickled_payload(self, make, seed):
        template = make(seed)
        dataset = UncertainDataset(
            points=tuple(
                UncertainPoint(
                    locations=point.locations,
                    probabilities=point.probabilities,
                    label=f"site-{index}",
                    metadata={"index": index, "tags": ("uncertain", seed)},
                )
                for index, point in enumerate(template.points)
            ),
            metric=template.metric,
        )
        context = _full_context(dataset, dataset.all_locations())
        context._ranks()  # the float-sort tables: never pickled, on either path
        scores = np.random.default_rng(seed).random((dataset.size, context.candidate_count))
        payload = (context, scores, 16)
        descriptor, call_lease = publish_payload(payload)
        materialized = materialize_payload(descriptor)
        try:
            unpickled = pickle.loads(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
            _assert_same_fields(materialized, unpickled)
            twin = materialized[0]
            assert [point.metadata for point in twin.dataset.points] == [
                point.metadata for point in dataset.points
            ]
            assert [point.label for point in twin.dataset.points] == [
                point.label for point in dataset.points
            ]
        finally:
            call_lease.close()


class TestSegmentLifecycle:
    def test_no_segments_after_shutdown(self, instance):
        dataset, candidates = instance
        context = _full_context(dataset, candidates)
        publish_payload((context, 1))
        assert _own_segments()
        shutdown_runtime()
        assert _own_segments() == []

    def test_collected_context_unlinks_eagerly(self, instance):
        dataset, candidates = instance
        context = _full_context(dataset, candidates)
        publish_payload((context, 1))
        assert _own_segments()
        del context
        gc.collect()
        assert _own_segments() == []

    def test_publication_is_memoized_per_context(self, instance):
        dataset, candidates = instance
        context = _full_context(dataset, candidates)
        first, _ = publish_payload((context, 1))
        second, _ = publish_payload((context, 2))
        assert first.segments[0].name == second.segments[0].name
        assert len(_own_segments()) == 1

    def test_mutated_context_is_republished(self, instance):
        dataset, candidates = instance
        context = _full_context(dataset, candidates)
        first, _ = publish_payload((context, 1))
        context.replace_candidate_columns(np.asarray([0]), candidates[:1] + 0.25)
        context._rank_merge_tables()
        second, _ = publish_payload((context, 1))
        assert first.segments[0].name != second.segments[0].name
        assert np.array_equal(materialize_payload(second)[0].candidates, context.candidates)

    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="reads /proc/self/maps")
    def test_array_outlives_its_evicted_payload(self):
        """An attachment stays mapped while an array points into it.

        A worker keeps an array of a cached payload, then caches enough
        other payloads to evict it.  The array must still read its values,
        and its segment must unmap once the array goes.  Run in a fresh
        interpreter because reading an unmapped array kills the process.
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")))
        )
        completed = subprocess.run(
            [sys.executable, "-c", _KEPT_ARRAY_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.split() == ["values", "mapped", "unmapped"]
        assert "BufferError" not in completed.stderr
        assert "Exception ignored" not in completed.stderr


#: Keeps ``context.expected`` of a worker-cached payload past its eviction.
_KEPT_ARRAY_SCRIPT = """
import gc

import numpy as np

from repro.cost.context import CostContext
from repro.runtime import parallel, pool, shm
from repro.workloads import gaussian_clusters

dataset, _ = gaussian_clusters(n=8, z=3, dimension=2, k_true=3, seed=4)
context = CostContext(dataset, dataset.all_locations()[:16])
reference = context.expected.copy()
descriptor, _ = shm.publish_payload((context, 8))
name = descriptor.segments[0].name


def mappings():
    with open("/proc/self/maps") as maps:
        return maps.read().count(name)


published = mappings()
kept = pool._resolve_payload(("shm", descriptor))[0].expected
for value in range(pool.WORKER_PAYLOAD_CACHE):
    pool._resolve_payload(parallel._pickled_spec(value))
assert descriptor.token not in pool._PAYLOAD_CACHE
gc.collect()
print("values" if np.array_equal(kept, reference) else "wrong values")
print("mapped" if mappings() == published + 1 else "not mapped")
del kept
gc.collect()
print("unmapped" if mappings() == published else "still mapped")
"""


def _crash_task(payload, item):
    if item == 2:
        raise RuntimeError("worker crash")
    return item


def _in_worker_task(payload, item):
    # Pure on purpose: under REPRO_SANITIZE=det two runs of one map must agree
    # chunk for chunk, so the probe says whether a pool worker ran it, not which.
    return pool_module.in_worker()


class TestPoolLifecycle:
    def test_crash_in_worker_leaves_no_segments(self, instance):
        dataset, candidates = instance
        context = _full_context(dataset, candidates)
        with pytest.raises(RuntimeError, match="worker crash"):
            parallel_map(_crash_task, range(4), payload=(context, 1), workers=2)
        shutdown_runtime()
        assert _own_segments() == []

    def test_pool_persists_across_calls(self):
        first = parallel_map(_in_worker_task, range(4), workers=2)
        assert pool_module.executor().started
        executor_before = pool_module.executor()._executor
        pids = set(executor_before._processes)
        second = parallel_map(_in_worker_task, range(4), workers=2)
        assert pool_module.executor()._executor is executor_before  # not respawned
        # Every task ran in a pool worker, and the same (at most 2) worker
        # processes served both calls.
        assert first == second == [True] * 4
        assert set(executor_before._processes) == pids
        assert 0 < len(pids) <= 2
        assert os.getpid() not in pids

    def test_pool_restarts_after_shutdown(self):
        parallel_map(_in_worker_task, range(4), workers=2)
        shutdown_runtime()
        assert not pool_module.executor().started
        result = parallel_map(_in_worker_task, range(4), workers=2)
        assert result == [True] * 4


class TestBitIdentityAcrossTransports:
    """workers=1 vs 2+, shm on vs off: every float must match exactly."""

    @pytest.fixture(scope="class")
    def micro(self):
        dataset, _ = gaussian_clusters(n=7, z=3, dimension=2, k_true=3, seed=11)
        return dataset, dataset.all_locations()[:14]

    def test_restricted(self, micro):
        dataset, candidates = micro
        serial = brute_force_restricted_assigned(dataset, 3, candidates=candidates)
        for shm in (True, False):
            sharded = brute_force_restricted_assigned(
                dataset, 3, candidates=candidates, workers=2, chunk_rows=32, shm=shm
            )
            assert sharded.expected_cost == serial.expected_cost
            assert np.array_equal(sharded.centers, serial.centers)
            assert np.array_equal(sharded.assignment, serial.assignment)

    def test_unrestricted_with_exhaustive_stage(self, micro):
        dataset, candidates = micro
        serial = brute_force_unrestricted_assigned(
            dataset, 2, candidates=candidates, polish_top=3
        )
        for shm in (True, False):
            sharded = brute_force_unrestricted_assigned(
                dataset, 2, candidates=candidates, polish_top=3, workers=2, chunk_rows=16, shm=shm
            )
            assert sharded.expected_cost == serial.expected_cost
            assert np.array_equal(sharded.centers, serial.centers)
            assert np.array_equal(sharded.assignment, serial.assignment)

    def test_unassigned_rank_merge_through_workers(self, micro):
        dataset, candidates = micro
        serial = brute_force_unassigned(dataset, 2, candidates=candidates)
        for shm in (True, False):
            sharded = brute_force_unassigned(
                dataset, 2, candidates=candidates, workers=2, chunk_rows=32, shm=shm
            )
            assert sharded.expected_cost == serial.expected_cost
            assert np.array_equal(sharded.centers, serial.centers)
