"""Machine-readable benchmark runner (``python -m repro bench``).

Times the repo's hot execution paths — including the PR-6 addition: the
``repro lint`` static checker over the whole tree, which gates CI ahead of
tier-1 — and writes one JSON document (``BENCH_PR10.json`` by default) so
future PRs have a perf trajectory to compare against instead of anecdotes.
``--compare`` diffs a run against an earlier document (e.g. the checked-in
``BENCH_PR5.json``): shared ``*_seconds`` metrics get a delta line, cases
present in only one document are *listed* (a PR adding or retiring cases is
normal, not an error), and >20% regressions exit with code 3 so CI can
distinguish "slower" (warn) from "crashed" (fail).  ``--quick`` runs the
fast smoke subset for CI.

Cases
-----
``brute_force_prune_restricted``
    The PR-5 acceptance case: the pruned restricted brute force against
    ``prune=False`` on one n=12, m=16, k=4 instance — identical results,
    recorded ``prune_rate`` / ``evaluated_rows`` / ``pruned_rows``, target
    >= 3x wall clock with > 50% of subset rows pruned.
``brute_force_prune_unassigned``
    The same differential for the unassigned enumeration (the bound
    min-reduces pinned supports instead of the expected matrix).
``brute_force_parallel_speedup``
    Serial vs ``workers>=2`` wall clock of the same restricted brute-force
    enumeration.  On boxes with fewer than 2 CPUs the runtime now *clamps*
    to serial (the PR-3 0.76x regression), so the recorded "parallel" run
    equals serial there and the record says so via ``serial_fallback``.
``best_first_gap_trajectory``
    PR-10 scheduling win: a deterministic replay of the gap-vs-chunks
    curve under submission order and under ascending-bound best-first
    order — best-first must certify a 1% gap in at most half the chunks.
``prune_rate_two_level``
    PR-10 bound win: the two-level (level-1 max pair) bound plus best-first
    incumbent must prune > 80% of the n=12, m=16, k=4 subset rows, with
    results bit-identical to ``prune=False``.
``shm_dispatch_bytes``
    Bytes a chunk dispatch ships under shared memory (descriptor only)
    against pickling the full brute-force payload — the zero-copy win,
    deterministic, target >= 10x.
``persistent_pool_amortization``
    >= 20 small brute-force calls on one memoized context: fresh pool per
    call (PR-3 behavior) vs the persistent pool with memoized shared-memory
    publication.  Target >= 2x.
``context_store_disk_spill``
    Two *separate processes* building the same context through a spill-
    enabled :class:`~repro.runtime.store.ContextStore`: the second process
    must hit the disk tier instead of rebuilding.
``unassigned_rank_merge``
    The rank-merge unassigned sweep against the historical per-row
    float-sort sweep on the same context — bit-identical costs, target
    >= 1.5x.
``wang_zhang_column_splice`` / ``batch_cost_kernel`` / ``local_search_sweep``
    / ``context_store_memoization``
    The PR-1/2/3 guards re-measured so the trajectory stays comparable.
``lint_full_tree``
    ``repro lint`` wall clock over ``src/repro`` (the CI gate's latency) and
    the self-check that the tree lints clean (``findings`` must be 0).
``fault_recovery``
    The PR-8 acceptance case: the restricted brute force under injected
    worker crashes (``crash:p=0.1``) against the fault-free run — results
    bit-identical, completed chunks never recomputed (health-counter
    audit), recovery overhead < 2x.
``serve_latency``
    The PR-9 server over a real socket: p50/p95 service time and req/s for
    ``/v1/solve`` and ``/v1/score``, plus the single-flight contract — N
    concurrent first-touch solves of one instance cost exactly one context
    build and return bit-identical costs.

Every case reports best-of-``repeats`` seconds; timings are environment
dependent by nature, so the document also records the Python/NumPy versions,
CPU count, git revision and an ISO timestamp.
"""

from __future__ import annotations

import datetime
import json
import os
import pickle
import platform
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Callable

import numpy as np

from ..baselines.brute_force import brute_force_restricted_assigned, brute_force_unassigned
from ..cost.context import CostContext
from ..cost.expected import assigned_cost_evaluator
from ..workloads.synthetic import gaussian_clusters, line_workload
from . import pool as pool_module
from . import shm as shm_module
from .incumbent import certified_gap
from .parallel import available_workers, set_oversubscribe
from .store import ContextStore

#: Default output path for the checked-in benchmark trajectory.
DEFAULT_OUTPUT = "BENCH_PR10.json"
#: Wall-clock speedup the pruned restricted brute force targets.
PRUNE_SPEEDUP_TARGET = 3.0
#: Fraction of subset rows the acceptance instance must prune.
PRUNE_RATE_TARGET = 0.5
#: Wall-clock speedup the parallel brute force targets at 2+ workers.
PARALLEL_SPEEDUP_TARGET = 2.0
#: Wall-clock speedup the column splice targets over a full rebuild.
SPLICE_SPEEDUP_TARGET = 2.0
#: Dispatch-bytes reduction the shared-memory protocol targets.
SHM_DISPATCH_BYTES_TARGET = 10.0
#: Wall-clock speedup the persistent pool targets across many small calls.
POOL_AMORTIZATION_TARGET = 2.0
#: Wall-clock speedup the rank-merge sweep targets over the float sort.
RANK_MERGE_SPEEDUP_TARGET = 1.5
#: Chunk-count ratio (best-first / submission order) to reach a 1% certified
#: gap — the best-first scheduler must need at most half the chunks.
BEST_FIRST_CHUNK_RATIO_TARGET = 0.5
#: Fraction of subset rows the two-level bound must prune on the PR-10
#: acceptance instance.
TWO_LEVEL_PRUNE_RATE_TARGET = 0.8
#: Slowdown (new/old) past which ``--compare`` reports a regression.
REGRESSION_TOLERANCE = 1.2
#: Timings below this are dominated by noise; ``--compare`` skips them.
REGRESSION_FLOOR_SECONDS = 1e-3
#: Metrics measuring a deliberately-degraded reference leg (the slow
#: baseline a case exists to beat), shown in the delta table but never
#: flagged as regressions — only product paths gate.
REFERENCE_METRICS = frozenset({"float_sort_seconds", "per_call_pool_seconds"})


@dataclass(frozen=True)
class CompareSpec:
    """Per-case regression gate for ``--compare``.

    The global 1 ms floor + 20% tolerance fit seconds-scale cases but
    misfire on sub-millisecond kernels: their timings sit *below* the
    floor, so real 5x regressions in the hottest inner loops were never
    flagged.  A case registered in :data:`CASE_COMPARE` trades a lower
    floor for a wider tolerance (fast timers jitter proportionally more);
    everything else keeps the historical defaults, byte-for-byte.
    """

    floor_seconds: float = REGRESSION_FLOOR_SECONDS
    tolerance: float = REGRESSION_TOLERANCE


#: Per-case overrides of the ``--compare`` regression gate; cases absent
#: here use ``CompareSpec()`` (the historical global floor + tolerance).
CASE_COMPARE: dict[str, CompareSpec] = {
    # Sub-millisecond kernel sweeps: gate from 10 µs up, with 2x headroom
    # because µs-scale timings jitter far more than the seconds-scale ones
    # the 20% default was tuned for.
    "unassigned_rank_merge": CompareSpec(floor_seconds=1e-5, tolerance=2.0),
    "wang_zhang_column_splice": CompareSpec(floor_seconds=1e-5, tolerance=2.0),
    # Whole-tree lint passes: multi-second and steady, but the dataflow
    # pass scales with tree size — allow 50% so organic repo growth between
    # PRs does not read as a perf regression.
    "lint_full_tree": CompareSpec(floor_seconds=1e-2, tolerance=1.5),
    "lint_dataflow_full_tree": CompareSpec(floor_seconds=1e-2, tolerance=1.5),
}


def compare_spec(case_name: str) -> CompareSpec:
    """The regression gate for one case (default spec unless overridden)."""
    return CASE_COMPARE.get(case_name, CompareSpec())


def _best_of(function: Callable[[], object], repeats: int) -> float:
    best = np.inf
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return float(best)


def _prune_case_fields(pruned_result, unpruned_result, pruned_seconds, no_prune_seconds) -> dict:
    """Shared reporting for the pruning differential cases."""
    assert pruned_result.expected_cost == unpruned_result.expected_cost  # exactness contract
    assert np.array_equal(pruned_result.centers, unpruned_result.centers)
    metadata = pruned_result.metadata
    total = metadata["total_rows"]
    prune_rate = metadata["pruned_rows"] / max(total, 1)
    speedup = no_prune_seconds / max(pruned_seconds, 1e-12)
    return {
        "no_prune_seconds": no_prune_seconds,
        "pruned_seconds": pruned_seconds,
        "total_rows": int(total),
        "evaluated_rows": int(metadata["evaluated_rows"]),
        "pruned_rows": int(metadata["pruned_rows"]),
        "prune_rate": float(prune_rate),
        "speedup": speedup,
        "target": PRUNE_SPEEDUP_TARGET,
        "prune_rate_target": PRUNE_RATE_TARGET,
        "target_met": bool(speedup >= PRUNE_SPEEDUP_TARGET and prune_rate > PRUNE_RATE_TARGET),
        "note": "results are bit-identical; pruning only skips provably losing rows",
    }


def bench_prune_restricted(repeats: int = 5) -> dict:
    """Pruned vs exhaustive restricted brute force (the PR-5 acceptance case).

    n=12, m=16, k=4: C(16, 4) = 1820 subsets, the greedy-seeded incumbent
    plus the Lemma 3.2 subset bound prune ~3/4 of them before the exact
    ``E[max]`` kernel runs.
    """
    dataset, _ = gaussian_clusters(n=12, z=12, dimension=2, k_true=4, seed=9)
    candidates = dataset.all_locations()[:16]
    kwargs = dict(candidates=candidates, workers=1)
    unpruned = brute_force_restricted_assigned(dataset, 4, prune=False, **kwargs)
    pruned = brute_force_restricted_assigned(dataset, 4, **kwargs)
    no_prune_seconds = _best_of(
        lambda: brute_force_restricted_assigned(dataset, 4, prune=False, **kwargs), repeats
    )
    pruned_seconds = _best_of(
        lambda: brute_force_restricted_assigned(dataset, 4, **kwargs), repeats
    )
    return {
        "subsets": comb(candidates.shape[0], 4),
        **_prune_case_fields(pruned, unpruned, pruned_seconds, no_prune_seconds),
    }


def bench_prune_unassigned(repeats: int = 5) -> dict:
    """Pruned vs exhaustive unassigned brute force on the same shape.

    The unassigned bound min-reduces the pinned supports (``E[min]``, not
    ``min E``) so the pruned rows skip the rank-merge union sweep entirely.
    """
    dataset, _ = gaussian_clusters(n=12, z=12, dimension=2, k_true=4, seed=9)
    candidates = dataset.all_locations()[:16]
    kwargs = dict(candidates=candidates, workers=1)
    unpruned = brute_force_unassigned(dataset, 4, prune=False, **kwargs)
    pruned = brute_force_unassigned(dataset, 4, **kwargs)
    no_prune_seconds = _best_of(
        lambda: brute_force_unassigned(dataset, 4, prune=False, **kwargs), repeats
    )
    pruned_seconds = _best_of(lambda: brute_force_unassigned(dataset, 4, **kwargs), repeats)
    fields = _prune_case_fields(pruned, unpruned, pruned_seconds, no_prune_seconds)
    # The restricted case carries the >=3x acceptance target; here the rate
    # is the contract and wall clock is reported (the unassigned sweep's
    # bound is relatively more expensive than the expected-matrix gather).
    fields["target_met"] = bool(fields["prune_rate"] > PRUNE_RATE_TARGET)
    return {
        "subsets": comb(candidates.shape[0], 4),
        **fields,
    }


def bench_brute_force_parallel(repeats: int = 3, workers: int | None = None) -> dict:
    """Serial vs sharded brute-force enumeration on one mid-size instance."""
    dataset, _ = gaussian_clusters(n=30, z=4, dimension=2, k_true=3, seed=7)
    candidates = dataset.all_locations()[:40]
    kwargs = dict(candidates=candidates, chunk_rows=256)
    workers = max(2, int(workers) if workers is not None else 2)
    serial_fallback = available_workers() < 2

    serial = brute_force_restricted_assigned(dataset, 3, workers=1, **kwargs)
    serial_seconds = _best_of(
        lambda: brute_force_restricted_assigned(dataset, 3, workers=1, **kwargs), repeats
    )
    parallel = brute_force_restricted_assigned(dataset, 3, workers=workers, **kwargs)
    parallel_seconds = _best_of(
        lambda: brute_force_restricted_assigned(dataset, 3, workers=workers, **kwargs), repeats
    )
    assert parallel.expected_cost == serial.expected_cost  # determinism contract
    speedup = serial_seconds / max(parallel_seconds, 1e-12)
    return {
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "workers": workers,
        "cpu_count": available_workers(),
        "serial_fallback": serial_fallback,
        "subsets": comb(candidates.shape[0], 3),
        "speedup": speedup,
        "target": PARALLEL_SPEEDUP_TARGET,
        "target_met": bool(speedup >= PARALLEL_SPEEDUP_TARGET),
        "note": (
            "requested workers are clamped to available CPUs, so workers=N is "
            "never slower than serial; the >=2x target needs >=2 physical CPUs "
            "and results are bit-identical at every worker count"
        ),
    }


def _dispatch_payload() -> tuple:
    """The brute-force restricted payload the dispatch benchmarks ship."""
    dataset, _ = gaussian_clusters(n=30, z=4, dimension=2, k_true=3, seed=7)
    candidates = dataset.all_locations()[:40]
    context = CostContext(dataset, candidates)
    context.evaluator
    context.expected
    return (context, context.expected, 256)


def bench_shm_dispatch_bytes() -> dict:
    """Descriptor-dispatch bytes vs pickling the full payload per call."""
    payload = _dispatch_payload()
    # repro: noqa[SPILL-PATH] -- the bench measures the full-payload pickle size to report the descriptor-dispatch win; it never persists the bytes
    pickled_bytes = len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
    descriptor, call_lease = shm_module.publish_payload(payload)
    try:
        descriptor_bytes = descriptor.dispatch_bytes()
    finally:
        if call_lease is not None:
            call_lease.close()
        shm_module.close_all_publications()
    reduction = pickled_bytes / max(descriptor_bytes, 1)
    return {
        "pickled_payload_bytes": pickled_bytes,
        "shm_descriptor_bytes": descriptor_bytes,
        "reduction": reduction,
        "target": SHM_DISPATCH_BYTES_TARGET,
        "target_met": bool(reduction >= SHM_DISPATCH_BYTES_TARGET),
        "note": "per-chunk dispatch ships only the descriptor + work slice",
    }


def bench_best_first_gap_trajectory() -> dict:
    """Chunks to a 1% certified gap: best-first vs submission order.

    A deterministic *replay*, not a timed pool run: the chunk bounds, the
    per-chunk exact minima and the certified gap after each completed chunk
    are all pure functions of the instance, so the case measures exactly
    the scheduling win (how much sooner the ascending-bound order pushes
    the incumbent down and the outstanding bound up) with zero timing
    noise.  The gap fold is the same :func:`~repro.runtime.incumbent.
    certified_gap` the live GapTracker uses.  Target: best-first reaches
    the 1% gap in at most half the chunks submission order needs.
    """
    gap_target = 0.01
    dataset, _ = gaussian_clusters(n=10, z=6, dimension=2, k_true=3, seed=3)
    candidates = dataset.all_locations()[::3][:14]
    context = CostContext(dataset, candidates)
    subsets = np.array(list(combinations(range(candidates.shape[0]), 3)))
    chunk_rows = 16
    chunks = [subsets[start : start + chunk_rows] for start in range(0, len(subsets), chunk_rows)]
    bounds = [
        float(context.subset_two_level_lower_bounds(chunk, objective="unassigned").min())
        for chunk in chunks
    ]
    minima = [float(context.unassigned_costs(chunk).min()) for chunk in chunks]

    def chunks_to_gap(order: list[int]) -> int:
        incumbent = float("inf")
        for completed, index in enumerate(order, 1):
            incumbent = min(incumbent, minima[index])
            outstanding = min((bounds[i] for i in order[completed:]), default=float("inf"))
            if certified_gap(incumbent, outstanding) <= gap_target:
                return completed
        return len(order)

    submission = list(range(len(chunks)))
    best_first = sorted(submission, key=lambda index: (bounds[index], index))
    submission_chunks = chunks_to_gap(submission)
    best_first_chunks = chunks_to_gap(best_first)
    ratio = best_first_chunks / max(submission_chunks, 1)
    return {
        "gap_target": gap_target,
        "chunks_total": len(chunks),
        "submission_chunks_to_gap": submission_chunks,
        "best_first_chunks_to_gap": best_first_chunks,
        "chunk_ratio": ratio,
        "target": BEST_FIRST_CHUNK_RATIO_TARGET,
        "target_met": bool(ratio <= BEST_FIRST_CHUNK_RATIO_TARGET),
        "note": "deterministic replay of both orderings through the live gap fold",
    }


def bench_prune_rate_two_level(repeats: int = 3) -> dict:
    """Two-level (level-1 max pair) bound prune rate on n=12, m=16, k=4.

    The PR-10 acceptance case for the second-level subset bound: with the
    pair bound stacked on the Lemma 3.2 level-1 bound and best-first
    submission feeding the incumbent early, more than 80% of the 1820
    subset rows must be pruned before the exact ``E[max]`` kernel runs.
    Results stay bit-identical to ``prune=False`` (asserted here).
    """
    dataset, _ = gaussian_clusters(n=12, z=4, dimension=2, k_true=4, seed=1)
    candidates = dataset.all_locations()[:16]
    kwargs = dict(candidates=candidates, workers=1)
    unpruned = brute_force_restricted_assigned(dataset, 4, prune=False, **kwargs)
    pruned = brute_force_restricted_assigned(dataset, 4, **kwargs)
    assert pruned.expected_cost == unpruned.expected_cost  # exactness contract
    assert np.array_equal(pruned.centers, unpruned.centers)
    metadata = pruned.metadata
    total = int(metadata["total_rows"])
    prune_rate = metadata["pruned_rows"] / max(total, 1)
    pruned_seconds = _best_of(
        lambda: brute_force_restricted_assigned(dataset, 4, **kwargs), repeats
    )
    return {
        "subsets": comb(candidates.shape[0], 4),
        "total_rows": total,
        "evaluated_rows": int(metadata["evaluated_rows"]),
        "pruned_rows": int(metadata["pruned_rows"]),
        "prune_rate": float(prune_rate),
        "pruned_seconds": pruned_seconds,
        "target": TWO_LEVEL_PRUNE_RATE_TARGET,
        "target_met": bool(prune_rate > TWO_LEVEL_PRUNE_RATE_TARGET),
        "note": "two-level bound + best-first incumbent; bit-identical to prune=False",
    }


def bench_persistent_pool(calls: int = 20, repeats: int = 1) -> dict:
    """Fresh pool per call vs the persistent pool across many small calls.

    The workload is ``calls`` small brute-force enumerations over one
    store-memoized context, each sharded at 2 workers with small chunks.
    The fresh-pool leg runs with ``shm=False`` (the payload bytes ship with
    the dispatch, as pre-shared-memory code did) and shuts the pool down
    between calls, so every call pays worker startup plus payload transfer;
    the persistent leg reuses pool, shared-memory publication and
    worker-side attachment across all calls.  Oversubscription is enabled
    so the comparison exercises real pools even on 1-CPU boxes — startup
    amortization, which is what this measures, does not need parallelism.
    """
    dataset, _ = gaussian_clusters(n=12, z=4, dimension=2, k_true=3, seed=5)
    candidates = dataset.all_locations()[:16]
    store = ContextStore()
    kwargs = dict(candidates=candidates, chunk_rows=32, workers=2, store=store)
    previous = set_oversubscribe(True)
    try:
        serial_reference = brute_force_restricted_assigned(
            dataset, 3, candidates=candidates, chunk_rows=32, workers=1, store=store
        )

        def fresh_pool_calls() -> None:
            for _ in range(calls):
                pool_module.shutdown()
                result = brute_force_restricted_assigned(dataset, 3, shm=False, **kwargs)
                assert result.expected_cost == serial_reference.expected_cost
            pool_module.shutdown()

        def persistent_calls() -> None:
            for _ in range(calls):
                result = brute_force_restricted_assigned(dataset, 3, **kwargs)
                assert result.expected_cost == serial_reference.expected_cost

        fresh_seconds = _best_of(fresh_pool_calls, repeats)
        pool_module.shutdown()
        brute_force_restricted_assigned(dataset, 3, **kwargs)  # warm pool + publication
        persistent_seconds = _best_of(persistent_calls, repeats)
    finally:
        set_oversubscribe(previous)
        pool_module.shutdown()
    speedup = fresh_seconds / max(persistent_seconds, 1e-12)
    return {
        "calls": calls,
        "per_call_pool_seconds": fresh_seconds,
        "persistent_pool_seconds": persistent_seconds,
        "speedup": speedup,
        "target": POOL_AMORTIZATION_TARGET,
        "target_met": bool(speedup >= POOL_AMORTIZATION_TARGET),
        "note": "both legs produce the serial result bit-identically",
    }


_SPILL_SNIPPET = """
import sys, time
from repro.runtime.store import ContextStore
from repro.workloads.synthetic import gaussian_clusters

dataset, _ = gaussian_clusters(n=60, z=6, dimension=2, k_true=4, seed=31)
candidates = dataset.all_locations()[:48]
store = ContextStore(spill_dir=sys.argv[1])
start = time.perf_counter()
context = store.get(dataset, candidates)
context.evaluator
elapsed = time.perf_counter() - start
print(f"{store.misses} {store.disk_hits} {elapsed:.6f}")
"""


def bench_context_store_disk_spill() -> dict:
    """Two separate processes share one context build via the disk tier."""
    with tempfile.TemporaryDirectory(prefix="repro-spill-") as spill_dir:
        runs = []
        for _ in range(2):
            # repro: noqa[ENV-REGISTRY] -- whole-environment copy for a subprocess, not a read of any one repro variable
            env = dict(os.environ)
            src_root = str(Path(__file__).resolve().parents[2])
            env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
            output = subprocess.run(
                [sys.executable, "-c", _SPILL_SNIPPET, spill_dir],
                capture_output=True,
                text=True,
                check=True,
                env=env,
            )
            misses, disk_hits, seconds = output.stdout.split()
            runs.append((int(misses), int(disk_hits), float(seconds)))
    (first_misses, first_disk, first_seconds), (second_misses, second_disk, second_seconds) = runs
    return {
        "first_process": {"misses": first_misses, "disk_hits": first_disk, "seconds": first_seconds},
        "second_process": {
            "misses": second_misses,
            "disk_hits": second_disk,
            "seconds": second_seconds,
        },
        "cross_process_hit": bool(second_disk == 1 and second_misses == 0),
        "target_met": bool(second_disk == 1 and second_misses == 0),
        "note": "the second CLI invocation loads the first one's spilled build",
    }


def bench_rank_merge(repeats: int = 3) -> dict:
    """Rank-merge unassigned sweep vs the historical per-row float sort."""
    from itertools import combinations

    dataset, _ = gaussian_clusters(n=40, z=6, dimension=2, k_true=3, seed=7)
    candidates = dataset.all_locations()[:40]
    context = CostContext(dataset, candidates)
    subset_rows = np.asarray(list(combinations(range(40), 3)))
    merged = context.unassigned_costs(subset_rows)
    float_sorted = context._unassigned_costs_float_sort(subset_rows)
    assert np.array_equal(merged, float_sorted)  # bit-identical by construction
    merge_seconds = _best_of(lambda: context.unassigned_costs(subset_rows), repeats)
    float_seconds = _best_of(
        lambda: context._unassigned_costs_float_sort(subset_rows), repeats
    )
    speedup = float_seconds / max(merge_seconds, 1e-12)
    return {
        "float_sort_seconds": float_seconds,
        "rank_merge_seconds": merge_seconds,
        "subsets": int(subset_rows.shape[0]),
        "speedup": speedup,
        "target": RANK_MERGE_SPEEDUP_TARGET,
        "target_met": bool(speedup >= RANK_MERGE_SPEEDUP_TARGET),
        "note": "costs are bit-identical between the two sweeps",
    }


def bench_column_splice(repeats: int = 5) -> dict:
    """Full context rebuild vs incremental fine-grid column splice."""
    dataset, _ = line_workload(n=100, z=12, segment_count=3, seed=11)
    k = 3
    coarse = np.linspace(-1.0, 1.0, 33)
    fine = np.linspace(-0.05, 0.05, 21)
    centers = dataset.expected_points()[:k]
    candidates = np.vstack([centers, coarse.reshape(-1, 1), fine.reshape(-1, 1)])
    fine_columns = np.arange(k + 33, k + 33 + 21)

    def rebuild() -> None:
        context = CostContext(dataset, candidates)
        context.evaluator  # the per-sweep cost the splice avoids

    context = CostContext(dataset, candidates)
    context.evaluator
    shift = [0.0]

    def splice() -> None:
        shift[0] += 1e-4
        context.replace_candidate_columns(fine_columns, (fine + shift[0]).reshape(-1, 1))

    rebuild_seconds = _best_of(rebuild, repeats)
    splice_seconds = _best_of(splice, repeats)
    speedup = rebuild_seconds / max(splice_seconds, 1e-12)
    return {
        "rebuild_seconds": rebuild_seconds,
        "splice_seconds": splice_seconds,
        "replaced_columns": int(fine_columns.shape[0]),
        "total_columns": int(candidates.shape[0]),
        "speedup": speedup,
        "target": SPLICE_SPEEDUP_TARGET,
        "target_met": bool(speedup >= SPLICE_SPEEDUP_TARGET),
    }


def bench_batch_cost_kernel(repeats: int = 3) -> dict:
    """Batched E[max] kernel vs a scalar per-assignment loop (PR-1 guard)."""
    dataset, _ = gaussian_clusters(n=100, z=6, dimension=2, k_true=4, seed=12)
    centers = dataset.expected_points()[:4]
    evaluator = assigned_cost_evaluator(dataset, centers)
    rng = np.random.default_rng(0)
    column_sets = rng.integers(0, 4, size=(128, dataset.size))
    batch_seconds = _best_of(lambda: evaluator.costs(column_sets), repeats)
    scalar_seconds = _best_of(lambda: [evaluator.cost(row) for row in column_sets], repeats)
    return {
        "batch_seconds": batch_seconds,
        "scalar_seconds": scalar_seconds,
        "rows": 128,
        "speedup": scalar_seconds / max(batch_seconds, 1e-12),
    }


def bench_local_search_sweep(repeats: int = 3) -> dict:
    """Round-amortized rest profiles vs per-point re-sorts (PR-2 guard)."""
    dataset, _ = gaussian_clusters(n=200, z=8, dimension=2, k_true=4, seed=3)
    centers = dataset.expected_points()[:4]
    evaluator = assigned_cost_evaluator(dataset, centers)
    rng = np.random.default_rng(0)
    assignment = rng.integers(0, centers.shape[0], size=dataset.size)
    all_columns = np.arange(centers.shape[0])

    def per_point_round() -> None:
        for point in range(dataset.size):
            profile = evaluator.rest_profile(assignment, point)
            evaluator.move_costs(profile, all_columns)

    sweep = evaluator.local_search_sweep(assignment)

    def amortized_round() -> None:
        for point in range(dataset.size):
            profile = sweep.rest_profile(point)
            evaluator.move_costs(profile, all_columns)

    per_point_seconds = _best_of(per_point_round, repeats)
    amortized_seconds = _best_of(amortized_round, repeats)
    return {
        "per_point_seconds": per_point_seconds,
        "amortized_seconds": amortized_seconds,
        "speedup": per_point_seconds / max(amortized_seconds, 1e-12),
    }


def bench_context_store(repeats: int = 3) -> dict:
    """Cold CostContext build vs a ContextStore hit on the same pair."""
    dataset, _ = gaussian_clusters(n=80, z=6, dimension=2, k_true=4, seed=21)
    candidates = dataset.all_locations()[:64]

    def cold() -> None:
        CostContext(dataset, candidates).evaluator

    store = ContextStore()
    store.get(dataset, candidates).evaluator

    def hit() -> None:
        store.get(dataset, candidates)

    cold_seconds = _best_of(cold, repeats)
    hit_seconds = _best_of(hit, repeats)
    return {
        "cold_build_seconds": cold_seconds,
        "memoized_hit_seconds": hit_seconds,
        "speedup": cold_seconds / max(hit_seconds, 1e-12),
        "hits": store.hits,
        "misses": store.misses,
    }


#: Wall-clock overhead bound for crash recovery (faulted / fault-free).
FAULT_RECOVERY_OVERHEAD_TARGET = 2.0
#: Fault spec the recovery bench arms: every ~10th chunk dispatch kills its
#: worker (deterministic draws — see :mod:`repro.faults`).
FAULT_RECOVERY_SPEC = "crash:p=0.1:seed=10"


def bench_fault_recovery(repeats: int = 1) -> dict:
    """Crash-injected vs fault-free brute force (PR 8): identical results.

    Runs the PR-5 acceptance instance (n=12, m=16, k=4; 29 shared-memory
    chunk dispatches at ``chunk_rows=64``) twice from a cold pool: once
    clean, once with :data:`FAULT_RECOVERY_SPEC` armed so worker processes
    deterministically die mid-map.  The recovery contract under test:

    * costs, centers and assignment are **bit-identical** to the fault-free
      run (chunk-granular recovery preserves submission-order reduction and
      incumbent-token determinism);
    * completed chunks are never recomputed — audited via the health-counter
      identity ``chunks_submitted == chunks_completed + retries`` (every
      pool submission either completes exactly once or is requeued and
      counted as a retry; the old behavior, a full serial re-run, breaks
      the identity because completed chunks get re-executed);
    * recovery overhead stays under
      :data:`FAULT_RECOVERY_OVERHEAD_TARGET` x the fault-free wall clock.

    Both legs pay pool startup (cold pool each run) so the comparison is
    spawn-fair; oversubscription is enabled so 1-CPU boxes still exercise a
    real 2-worker pool.
    """
    from .. import faults
    from . import health

    dataset, _ = gaussian_clusters(n=12, z=12, dimension=2, k_true=4, seed=9)
    candidates = dataset.all_locations()[:16]
    kwargs = dict(candidates=candidates, chunk_rows=64, workers=2, prune=False)
    previous_oversubscribe = set_oversubscribe(True)
    previous_spec = faults.enabled_spec()
    try:

        def cold_run():
            pool_module.shutdown()
            return brute_force_restricted_assigned(dataset, 4, **kwargs)

        fault_free = cold_run()
        fault_free_seconds = _best_of(cold_run, repeats)

        faults.set_enabled(FAULT_RECOVERY_SPEC)
        before = health.snapshot()
        faulted = cold_run()
        recovery = health.delta(before)
        faulted_seconds = _best_of(cold_run, repeats)
    finally:
        faults.set_enabled(previous_spec or None)
        set_oversubscribe(previous_oversubscribe)
        pool_module.shutdown()

    assert faulted.expected_cost == fault_free.expected_cost  # recovery contract
    assert np.array_equal(faulted.centers, fault_free.centers)
    assert np.array_equal(faulted.assignment, fault_free.assignment)
    counters = recovery.as_dict()
    chunk_audit_ok = bool(
        recovery.chunks_submitted == recovery.chunks_completed + recovery.retries
    )
    overhead = faulted_seconds / max(fault_free_seconds, 1e-12)
    return {
        "fault_spec": FAULT_RECOVERY_SPEC,
        "fault_free_seconds": fault_free_seconds,
        "faulted_seconds": faulted_seconds,
        "recovery_overhead": overhead,
        "bit_identical": True,  # asserted above; a mismatch raises
        "chunk_audit_ok": chunk_audit_ok,
        **{f"health_{key}": value for key, value in counters.items()},
        "target": FAULT_RECOVERY_OVERHEAD_TARGET,
        "target_met": bool(
            chunk_audit_ok
            and recovery.pool_rebuilds >= 1
            and overhead < FAULT_RECOVERY_OVERHEAD_TARGET
        ),
        "note": (
            "crash-injected run is bit-identical to fault-free; completed "
            "chunks are never resubmitted (submitted == completed + retries)"
        ),
    }


#: Concurrent first-touch requests the single-flight leg fires.
SERVE_SINGLE_FLIGHT_CLIENTS = 8

#: Sequential requests the latency legs time per endpoint.
SERVE_LATENCY_REQUESTS = 25


def bench_serve_latency(repeats: int = 1) -> dict:
    """End-to-end ``repro serve`` latency over a real socket (PR 9).

    Three legs against one in-process server on an ephemeral port:

    * **single-flight** — :data:`SERVE_SINGLE_FLIGHT_CLIENTS` concurrent
      first-touch solves of the same instance; the contract under test is
      that the shared context is built exactly **once** (the followers wait
      on the builder instead of duplicating the build) and every client
      gets the bit-identical cost;
    * **solve latency** — :data:`SERVE_LATENCY_REQUESTS` sequential warm
      solves; reports the server-observed p50/p95 service time and the
      client-observed requests/second (socket + JSON overhead included);
    * **score latency** — the same for the cheap ``/v1/score`` path, which
      bounds the HTTP floor of the stack.

    Admission is sized so nothing is rejected (``max_inflight`` covers the
    concurrent leg); a 429 here would mean the gate, not the solver, was
    measured.
    """
    from concurrent.futures import ThreadPoolExecutor

    from ..serve import ReproServer, ServeClient, ServeConfig

    dataset, _ = gaussian_clusters(n=8, z=3, dimension=2, k_true=2, seed=11)
    config = ServeConfig(port=0, max_inflight=SERVE_SINGLE_FLIGHT_CLIENTS, workers=1)
    server = ReproServer(config)
    server.start()
    try:
        def first_touch(index: int) -> float:
            client = ServeClient(server.url, max_retries=2, seed=index)
            return float(client.solve(dataset, 2)["expected_cost"])

        with ThreadPoolExecutor(max_workers=SERVE_SINGLE_FLIGHT_CLIENTS) as executor:
            costs = list(executor.map(first_touch, range(SERVE_SINGLE_FLIGHT_CLIENTS)))
        context_builds = server.state.contexts.builds
        single_flight_ok = context_builds == 1 and len(set(costs)) == 1

        client = ServeClient(server.url, max_retries=2)
        centers = client.solve(dataset, 2)["centers"]

        def timed_leg(request: Callable[[], object]) -> float:
            started = time.perf_counter()
            for _ in range(SERVE_LATENCY_REQUESTS):
                request()
            return time.perf_counter() - started

        solve_seconds = min(
            timed_leg(lambda: client.solve(dataset, 2)) for _ in range(repeats)
        )
        score_seconds = min(
            timed_leg(lambda: client.score(dataset, centers)) for _ in range(repeats)
        )
        stats = server.state.latency
        solve_window = stats["/v1/solve"].as_dict()
        score_window = stats["/v1/score"].as_dict()
    finally:
        server.stop()
    return {
        "single_flight_clients": SERVE_SINGLE_FLIGHT_CLIENTS,
        "single_flight_context_builds": context_builds,
        "single_flight_ok": bool(single_flight_ok),
        "bit_identical_costs": len(set(costs)) == 1,
        "solve_latency_seconds": solve_seconds,
        "solve_requests_per_second": SERVE_LATENCY_REQUESTS / max(solve_seconds, 1e-12),
        "solve_p50_ms": solve_window["p50_ms"],
        "solve_p95_ms": solve_window["p95_ms"],
        "score_latency_seconds": score_seconds,
        "score_requests_per_second": SERVE_LATENCY_REQUESTS / max(score_seconds, 1e-12),
        "score_p50_ms": score_window["p50_ms"],
        "score_p95_ms": score_window["p95_ms"],
        "requests": solve_window["count"] + score_window["count"],
        "errors": solve_window["errors"] + score_window["errors"],
        "rejected": solve_window["rejected"] + score_window["rejected"],
        "target_met": bool(single_flight_ok and solve_window["errors"] == 0),
        "note": (
            "one context build for N concurrent first-touch solves "
            "(single-flight); p50/p95 are server-observed service times, "
            "req/s is client-observed over a real socket"
        ),
    }


def bench_lint_full_tree(repeats: int = 3) -> dict:
    """``repro lint`` wall-clock over the whole ``src/repro`` tree (PR 6).

    The lint job gates CI ahead of tier-1, so its latency is part of every
    push's critical path; tracking it here keeps rule authors honest about
    quadratic visitors.  The tree must also lint clean — a nonzero finding
    count in the checked-in document would mean the self-check regressed.
    """
    from ..analysis import all_rules, lint_paths

    tree = Path(__file__).resolve().parents[1]
    report = lint_paths([tree], dataflow=False)

    def lint_tree() -> None:
        lint_paths([tree], dataflow=False)

    seconds = _best_of(lint_tree, repeats)
    return {
        "lint_full_tree_seconds": seconds,
        "files_checked": report.files,
        "rules": len(all_rules()),
        "findings": len(report.findings),
        "suppressed": len(report.suppressed),
    }


def bench_lint_dataflow_full_tree(repeats: int = 3) -> dict:
    """Whole-program (dataflow) lint over ``src/repro`` (PR 7).

    The default lint mode now parses the tree into a project symbol table
    and runs the interprocedural rules on top of the per-module pass; this
    case tracks the *full* pipeline so the dataflow overhead stays visible
    next to ``lint_full_tree``'s intra-module-only timing.  The tree must
    lint clean here too — the acceptance self-check includes the dataflow
    rules.
    """
    from ..analysis import dataflow_rules, lint_paths

    tree = Path(__file__).resolve().parents[1]
    report = lint_paths([tree], dataflow=True)

    def lint_tree() -> None:
        lint_paths([tree], dataflow=True)

    seconds = _best_of(lint_tree, repeats)
    return {
        "lint_dataflow_full_tree_seconds": seconds,
        "files_checked": report.files,
        "dataflow_rules": len(dataflow_rules()),
        "findings": len(report.findings),
        "suppressed": len(report.suppressed),
    }


CASES: dict[str, Callable[[], dict]] = {
    "brute_force_prune_restricted": bench_prune_restricted,
    "brute_force_prune_unassigned": bench_prune_unassigned,
    "brute_force_parallel_speedup": bench_brute_force_parallel,
    "best_first_gap_trajectory": bench_best_first_gap_trajectory,
    "prune_rate_two_level": bench_prune_rate_two_level,
    "shm_dispatch_bytes": bench_shm_dispatch_bytes,
    "persistent_pool_amortization": bench_persistent_pool,
    "context_store_disk_spill": bench_context_store_disk_spill,
    "unassigned_rank_merge": bench_rank_merge,
    "wang_zhang_column_splice": bench_column_splice,
    "batch_cost_kernel": bench_batch_cost_kernel,
    "local_search_sweep": bench_local_search_sweep,
    "context_store_memoization": bench_context_store,
    "fault_recovery": bench_fault_recovery,
    "serve_latency": bench_serve_latency,
    "lint_full_tree": bench_lint_full_tree,
    "lint_dataflow_full_tree": bench_lint_dataflow_full_tree,
}

#: The fast smoke subset ``--quick`` runs (CI's bench step): everything that
#: completes in milliseconds, skipping the subprocess-spawning and
#: many-call amortization cases.
QUICK_CASES: tuple[str, ...] = (
    "brute_force_prune_restricted",
    "brute_force_prune_unassigned",
    "best_first_gap_trajectory",
    "prune_rate_two_level",
    "shm_dispatch_bytes",
    "unassigned_rank_merge",
    "wang_zhang_column_splice",
    "batch_cost_kernel",
    "context_store_memoization",
    "serve_latency",
    "lint_full_tree",
    "lint_dataflow_full_tree",
)


def _git_state() -> tuple[str | None, bool | None]:
    """``(HEAD revision, dirty?)`` of the repo the bench ran in.

    A dirty worktree means the numbers were produced by code *on top of* the
    recorded revision (the usual state when benching right before a commit);
    recording the flag keeps the cross-PR trajectory auditable either way.
    """
    root = Path(__file__).resolve().parents[3]
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            cwd=root,
            timeout=10,
        )
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True,
            text=True,
            cwd=root,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover - no git
        return None, None
    if revision.returncode != 0:
        return None, None
    dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
    return revision.stdout.strip(), dirty


def run_bench(
    output: str | Path | None = DEFAULT_OUTPUT,
    *,
    cases: list[str] | None = None,
    quick: bool = False,
) -> dict:
    """Execute the benchmark cases and (optionally) write the JSON document.

    ``quick`` selects the :data:`QUICK_CASES` smoke subset (explicit
    ``cases`` still win); the document records which preset produced it.
    """
    selected = cases or (list(QUICK_CASES) if quick else list(CASES))
    unknown = [name for name in selected if name not in CASES]
    if unknown:
        raise ValueError(f"unknown benchmark cases: {unknown}; known: {sorted(CASES)}")
    now = time.time()
    revision, dirty = _git_state()
    document = {
        "schema": "repro-bench/1",
        "pr": "PR10",
        "quick": bool(quick and not cases),
        "created_unix": now,
        "created_iso": datetime.datetime.fromtimestamp(
            now, tz=datetime.timezone.utc
        ).isoformat(timespec="seconds"),
        "git_revision": revision,
        "git_dirty": dirty,
        "environment": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "cases": {},
    }
    for name in selected:
        document["cases"][name] = CASES[name]()
    if output is not None:
        Path(output).write_text(json.dumps(document, indent=2) + "\n")
    return document


def compare_documents(new_document: dict, old_document: dict) -> tuple[str, list[str]]:
    """Per-case speedup delta table between two benchmark documents.

    Every ``*_seconds`` key shared by a case in both documents gets a line;
    a metric counts as a regression when the new timing exceeds the case's
    tolerance (:func:`compare_spec` — :data:`REGRESSION_TOLERANCE` unless
    the case is registered in :data:`CASE_COMPARE`), the old timing is above
    the case's noise floor, and the metric is a product path rather than one
    of the :data:`REFERENCE_METRICS` baselines.  Cases (or metrics) present in only
    one document are *reported*, never errors: a PR adding new cases, a
    ``--quick`` run covering a subset, or a retired case are all normal
    states of the trajectory.  Returns the rendered table and the list of
    regression descriptions.
    """
    lines = [
        f"{'case/metric':<58}{'old (s)':>12}{'new (s)':>12}{'new/old':>9}",
        "-" * 91,
    ]
    regressions: list[str] = []
    old_cases = old_document.get("cases", {})
    new_cases = new_document.get("cases", {})
    for case_name in sorted(set(old_cases) & set(new_cases)):
        old_case, new_case = old_cases[case_name], new_cases[case_name]
        if not isinstance(old_case, dict) or not isinstance(new_case, dict):
            continue
        spec = compare_spec(case_name)
        for key in sorted(set(old_case) & set(new_case)):
            if not key.endswith("_seconds"):
                continue
            old_value, new_value = old_case[key], new_case[key]
            if not isinstance(old_value, (int, float)) or not isinstance(new_value, (int, float)):
                continue
            ratio = new_value / max(old_value, 1e-12)
            flag = ""
            if (
                key not in REFERENCE_METRICS
                and old_value >= spec.floor_seconds
                and ratio > spec.tolerance
            ):
                flag = "  << REGRESSION"
                regressions.append(
                    f"{case_name}.{key}: {old_value:.4f}s -> {new_value:.4f}s ({ratio:.2f}x)"
                )
            lines.append(
                f"{case_name + '.' + key:<58}{old_value:>12.5f}{new_value:>12.5f}{ratio:>9.2f}{flag}"
            )
    if len(lines) == 2:
        lines.append("(no comparable *_seconds metrics)")
    only_old = sorted(set(old_cases) - set(new_cases))
    only_new = sorted(set(new_cases) - set(old_cases))
    if only_old:
        lines.append(f"only in baseline (not re-run): {', '.join(only_old)}")
    if only_new:
        lines.append(f"only in this run (no baseline): {', '.join(only_new)}")
    return "\n".join(lines), regressions


#: Exit code :func:`report_comparison` uses for ">20% regression" — distinct
#: from crashes/unreadable baselines (1) so CI can warn on the former while
#: gating on the latter.
REGRESSION_EXIT_CODE = 3


def report_comparison(document: dict, baseline_path: "str | Path") -> int:
    """Print the delta table against a baseline document.

    Returns 0 when clean, :data:`REGRESSION_EXIT_CODE` (3) when shared
    metrics regressed beyond 20%, and 1 when the baseline cannot be read —
    the single implementation behind both ``python -m repro bench
    --compare`` and ``benchmarks/run_bench.py --compare`` (an unreadable or
    malformed baseline is reported as a failure rather than a traceback).
    """
    baseline_path = Path(baseline_path)
    try:
        baseline = json.loads(baseline_path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        print(f"cannot read baseline {baseline_path}: {error}", file=sys.stderr)
        return 1
    table, regressions = compare_documents(document, baseline)
    print(f"\nspeedup deltas vs {baseline_path}:")
    print(table)
    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond 20%:", file=sys.stderr)
        for regression in regressions:
            print(f"  {regression}", file=sys.stderr)
        return REGRESSION_EXIT_CODE
    return 0
