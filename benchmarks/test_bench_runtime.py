"""Benchmarks for the execution runtime: sharded enumeration, the persistent
pool, shared-memory dispatch, memoized contexts, column splices and the
rank-merge unassigned sweep.

Timing comes from pytest-benchmark; the assertions pin the *quality*
contracts (parallel determinism, splice-vs-rebuild win, store hits,
descriptor-vs-payload dispatch bytes, pool amortization, rank-merge win) and
the wall-clock targets where the hardware can express them — the parallel
speedup target needs >= 2 physical CPUs and is skipped honestly below that
(the 2-vCPU CI runners execute it).  ``python -m repro bench`` records the
same cases (plus environment metadata) to ``BENCH_PR9.json`` for the
cross-PR trajectory; ``--compare BENCH_PR5.json`` diffs documents.
"""

from __future__ import annotations

import os
import pickle
import time

import numpy as np
import pytest

from repro.baselines.brute_force import brute_force_restricted_assigned
from repro.cost.context import CostContext
from repro.runtime import ContextStore, set_oversubscribe, shutdown_runtime
from repro.runtime import shm as shm_module
from repro.runtime.bench import bench_persistent_pool, bench_rank_merge
from repro.workloads import gaussian_clusters, line_workload

#: Wall-clock target for the sharded enumeration at 2+ workers (achievable
#: only with >= 2 physical CPUs).
PARALLEL_SPEEDUP_TARGET = 2.0
#: Wall-clock target for the column splice vs a full context rebuild.
SPLICE_SPEEDUP_TARGET = 1.8
#: Dispatch-bytes reduction the shared-memory chunk protocol must deliver.
SHM_DISPATCH_BYTES_TARGET = 10.0
#: Pool amortization across many small calls (startup is what's measured, so
#: this holds on any core count); the bench JSON targets 2x.
POOL_AMORTIZATION_TARGET = 1.5
#: Rank-merge sweep vs float-sort sweep (slightly under the bench JSON's
#: 1.5x target to absorb shared-machine timing noise in CI).
RANK_MERGE_SPEEDUP_TARGET = 1.3
#: Branch-and-bound pruned restricted brute force vs the exhaustive scan
#: (the bench JSON targets 3x on a quiet box; the CI guard leaves noise
#: headroom).  The >50% prune-rate half of the PR-5 contract is
#: deterministic and asserted exactly.
PRUNE_SPEEDUP_FLOOR = 1.5
PRUNE_RATE_TARGET = 0.5


def _best_of(function, repeats: int = 3) -> float:
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return float(best)


@pytest.fixture(scope="module")
def enumeration_instance():
    dataset, _ = gaussian_clusters(n=30, z=4, dimension=2, k_true=3, seed=7)
    return dataset, dataset.all_locations()[:40]


def test_bench_sharded_brute_force(benchmark, enumeration_instance):
    """Sharded enumeration at 2 workers: identical result, timed end to end."""
    dataset, candidates = enumeration_instance
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
def test_bench_parallel_speedup_target(enumeration_instance):
    """>= 2x wall clock on the enumeration at 2+ workers (ISSUE 3 target)."""
    dataset, candidates = enumeration_instance
    workers = min(4, os.cpu_count() or 2)
    serial_seconds = _best_of(
        lambda: brute_force_restricted_assigned(
            dataset, 3, candidates=candidates, chunk_rows=256, workers=1
        )
    )
    parallel_seconds = _best_of(
        lambda: brute_force_restricted_assigned(
            dataset, 3, candidates=candidates, chunk_rows=256, workers=workers
        )
    )
    speedup = serial_seconds / max(parallel_seconds, 1e-12)
    assert speedup >= PARALLEL_SPEEDUP_TARGET, (
        f"sharded enumeration speedup {speedup:.2f}x at {workers} workers "
        f"below the {PARALLEL_SPEEDUP_TARGET}x target"
    )


def test_bench_column_splice(benchmark):
    """Incremental fine-grid splice vs the full rebuild it replaces."""
    dataset, _ = line_workload(n=100, z=12, segment_count=3, seed=11)
    k = 3
    coarse = np.linspace(-1.0, 1.0, 33)
    fine = np.linspace(-0.05, 0.05, 21)
    centers = dataset.expected_points()[:k]
    candidates = np.vstack([centers, coarse.reshape(-1, 1), fine.reshape(-1, 1)])
    fine_columns = np.arange(k + 33, k + 33 + 21)

    def rebuild() -> None:
        CostContext(dataset, candidates).evaluator

    context = CostContext(dataset, candidates)
    context.evaluator
    shift = [0.0]

    def splice() -> None:
        shift[0] += 1e-4
        context.replace_candidate_columns(fine_columns, (fine + shift[0]).reshape(-1, 1))

    rebuild_seconds = _best_of(rebuild, repeats=5)
    splice_seconds = benchmark(splice)
    splice_seconds = _best_of(splice, repeats=5)
    speedup = rebuild_seconds / max(splice_seconds, 1e-12)
    assert speedup >= SPLICE_SPEEDUP_TARGET, (
        f"column splice speedup {speedup:.2f}x below the {SPLICE_SPEEDUP_TARGET}x target"
    )


def test_bench_shm_dispatch_bytes(enumeration_instance):
    """Chunk dispatch ships >= 10x fewer bytes than pickling the payload."""
    if not shm_module.shm_available():
        pytest.skip("shared memory unavailable")
    dataset, candidates = enumeration_instance
    context = CostContext(dataset, candidates)
    context.evaluator
    context.expected
    payload = (context, context.expected, 256)
    pickled_bytes = len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
    descriptor, call_lease = shm_module.publish_payload(payload)
    try:
        descriptor_bytes = descriptor.dispatch_bytes()
    finally:
        if call_lease is not None:
            call_lease.close()
        shm_module.close_all_publications()
    assert pickled_bytes >= SHM_DISPATCH_BYTES_TARGET * descriptor_bytes, (
        f"descriptor dispatch is {pickled_bytes / descriptor_bytes:.1f}x smaller "
        f"than the pickled payload; target is {SHM_DISPATCH_BYTES_TARGET}x"
    )


def test_bench_persistent_pool_amortization():
    """Persistent pool + memoized publication beats a fresh pool per call."""
    if not shm_module.shm_available():
        pytest.skip("shared memory unavailable")
    record = bench_persistent_pool(calls=20)
    assert record["speedup"] >= POOL_AMORTIZATION_TARGET, (
        f"persistent pool amortization {record['speedup']:.2f}x across "
        f"{record['calls']} calls below the {POOL_AMORTIZATION_TARGET}x floor"
    )


def test_bench_rank_merge_sweep():
    """Rank-merge unassigned sweep beats the float-sort sweep, bit-identically."""
    record = bench_rank_merge()
    assert record["speedup"] >= RANK_MERGE_SPEEDUP_TARGET, (
        f"rank-merge sweep speedup {record['speedup']:.2f}x below the "
        f"{RANK_MERGE_SPEEDUP_TARGET}x floor"
    )


def test_bench_pruned_brute_force():
    """Pruned restricted enumeration: identical result, >50% rows pruned,
    and a real wall-clock win over ``prune=False`` (ISSUE 5 target)."""
    from repro.runtime.bench import bench_prune_restricted

    record = bench_prune_restricted(repeats=3)
    assert record["prune_rate"] > PRUNE_RATE_TARGET, (
        f"prune rate {record['prune_rate']:.0%} below the {PRUNE_RATE_TARGET:.0%} contract"
    )
    assert record["speedup"] >= PRUNE_SPEEDUP_FLOOR, (
        f"pruned brute force speedup {record['speedup']:.2f}x below the "
        f"{PRUNE_SPEEDUP_FLOOR}x CI floor (bench target {record['target']}x)"
    )


def test_bench_context_store_hit(benchmark):
    """A store hit must be orders of magnitude cheaper than a cold build."""
    dataset, _ = gaussian_clusters(n=80, z=6, dimension=2, k_true=4, seed=21)
    candidates = dataset.all_locations()[:64]
    cold_seconds = _best_of(lambda: CostContext(dataset, candidates).evaluator, repeats=3)
    store = ContextStore()
    store.get(dataset, candidates).evaluator
    benchmark(lambda: store.get(dataset, candidates))
    hit_seconds = _best_of(lambda: store.get(dataset, candidates), repeats=3)
    assert store.hits >= 2 and store.misses == 1
    assert cold_seconds / max(hit_seconds, 1e-12) >= 10.0
