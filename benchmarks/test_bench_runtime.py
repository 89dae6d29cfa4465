"""Tier-1 guards for the execution runtime: sharded enumeration, the
persistent pool, shared-memory dispatch, memoized contexts, column splices,
the rank-merge unassigned sweep and the branch-and-bound pruning contracts.

Each guard runs one ``python -m repro bench`` registry case through
:func:`repro.runtime.bench.assert_gate`, so the gate it asserts is the one
the case records and every gate number lives once, in
``src/repro/runtime/bench.py``.  A guard here keeps only its test id and its
skip conditions: the parallel speedup needs >= 2 CPUs, the shared-memory
cases need shared memory.  The sharded enumeration keeps a pytest-benchmark
timing with no threshold.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.baselines.brute_force import brute_force_restricted_assigned
from repro.runtime import shm as shm_module
from repro.runtime.bench import assert_gate
from repro.workloads import gaussian_clusters

needs_shm = pytest.mark.skipif(
    not shm_module.shm_available(), reason="shared memory unavailable"
)


def test_bench_sharded_brute_force(benchmark):
    """Sharded enumeration at 2 workers: identical result, timed end to end."""
    dataset, _ = gaussian_clusters(n=30, z=4, dimension=2, k_true=3, seed=7)
    candidates = dataset.all_locations()[:40]
    serial = brute_force_restricted_assigned(
        dataset, 3, candidates=candidates, chunk_rows=256, workers=1
    )
    sharded = benchmark.pedantic(
        lambda: brute_force_restricted_assigned(
            dataset, 3, candidates=candidates, chunk_rows=256, workers=2
        ),
        iterations=1,
        rounds=2,
    )
    assert sharded.expected_cost == serial.expected_cost
    assert np.array_equal(sharded.centers, serial.centers)


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason=f"parallel speedup target needs >= 2 CPUs (found {os.cpu_count()})",
)
def test_bench_parallel_speedup_target():
    """Sharded enumeration at 2 workers against serial wall clock."""
    assert_gate("brute_force_parallel_speedup")


def test_bench_column_splice():
    """Incremental fine-grid splice vs the full rebuild it replaces."""
    assert_gate("wang_zhang_column_splice")


@needs_shm
def test_bench_shm_dispatch_bytes():
    """Chunk dispatch ships the descriptor, not the pickled payload."""
    assert_gate("shm_dispatch_bytes")


@needs_shm
def test_bench_persistent_pool_amortization():
    """Persistent pool + memoized publication beats a fresh pool per call."""
    assert_gate("persistent_pool_amortization")


def test_bench_rank_merge_sweep():
    """Rank-merge unassigned sweep beats the float-sort sweep, bit-identically."""
    assert_gate("unassigned_rank_merge")


def test_bench_pruned_brute_force():
    """Pruned restricted enumeration: identical result, most rows pruned,
    and a wall-clock win over ``prune=False``."""
    assert_gate("brute_force_prune_restricted")


def test_bench_context_store_hit():
    """A store hit must be orders of magnitude cheaper than a cold build."""
    assert_gate("context_store_memoization")


def test_bench_prune_rate_two_level():
    """The two-level bound plus best-first incumbent prunes most subset rows."""
    assert_gate("prune_rate_two_level")


def test_bench_best_first_gap_trajectory():
    """Best-first order certifies a 1% gap in far fewer chunks."""
    assert_gate("best_first_gap_trajectory")
