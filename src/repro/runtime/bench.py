"""Machine-readable benchmark runner (``python -m repro bench``).

Times the repo's hot execution paths — including the ``repro lint`` static
checker over the whole tree, which gates CI ahead of tier-1 — and writes
one JSON document (``bench.json`` by default, an untracked name; pass
``--out`` to record a checked-in ``BENCH_PR*.json``) so every change has a perf
trajectory to compare against instead of anecdotes.  ``--compare`` diffs a
run against an earlier document (e.g. the checked-in ``BENCH_PR16.json``
that CI compares against): shared ``*_seconds`` metrics get a delta line,
cases present in only one document are *listed* (a change adding or retiring
cases is normal, not an error), and >20% regressions exit with code 3 so CI
can distinguish "slower" (warn) from "crashed" (fail).  ``--quick`` runs the
fast smoke subset for CI.

Gates and targets
-----------------
A case that holds a contract records up to two numbers for it:

* ``target`` / ``target_met`` — the trend number the document tracks: what
  the case's change promised on a quiet machine;
* ``gate`` / ``gate_met`` — the number CI enforces.  Its tier-1 guard in
  ``benchmarks/`` is one :func:`assert_gate` call, which runs the case and
  fails on ``gate_met``.  The gate is the target where a same-run ratio or a
  deterministic count holds it on shared runners, and a named ``*_GATE``
  constant below the target where timing noise does not.

So each gate number lives once, here.  A new contract adds a case that
records its gate, and its tier-1 guard is one ``assert_gate("<case>")``
call.

Cases
-----
``brute_force_prune_restricted``
    The PR-5 acceptance case: the pruned restricted brute force against
    ``prune=False`` on one n=12, m=16, k=4 instance — identical results,
    recorded ``prune_rate`` / ``evaluated_rows`` / ``pruned_rows``, target
    >= 3x wall clock with > 50% of subset rows pruned; the gate keeps the
    prune rate and asks >= 1.5x.
``brute_force_prune_unassigned``
    The same differential for the unassigned enumeration (the bound
    min-reduces pinned supports instead of the expected matrix).
``brute_force_parallel_speedup``
    Serial vs ``workers>=2`` wall clock of the same restricted brute-force
    enumeration.  On boxes with fewer than 2 CPUs the runtime now *clamps*
    to serial (the PR-3 0.76x regression), so the recorded "parallel" run
    equals serial there and the record says so via ``serial_fallback``.
    Gate and target: >= 2x at 2 workers.
``best_first_gap_trajectory``
    PR-10 scheduling win: a deterministic replay of the gap-vs-chunks
    curve under submission order and under ascending-bound best-first
    order — best-first must certify a 1% gap in at most half the chunks
    (the gate).
``prune_rate_two_level``
    Two plain solves of one n=12, m=16, k=4 instance, bit-identical to
    ``prune=False``.  Its 1,820 rows are one chunk, so each runs one map
    with no bound map.  The restricted solve must prune > 80% of the rows
    (the gate); its expected-distance rows are cut on level 1 against the
    greedy seed alone (about 88%).  The unassigned solve runs the pair
    bound on its level-1 survivors and must prune more rows than level 1
    alone does at the same seed (1,660 against 1,604 here).
``shm_dispatch_bytes``
    Bytes a chunk dispatch ships under shared memory (descriptor only)
    against pickling the full brute-force payload — the zero-copy win,
    deterministic, gate and target >= 10x.
``persistent_pool_amortization``
    >= 20 small brute-force calls on one memoized context: fresh pool per
    call (PR-3 behavior) vs the persistent pool with memoized shared-memory
    publication.  Target >= 2x, gate >= 1.5x.
``unassigned_rank_merge``
    The rank-merge unassigned sweep against the historical per-row
    float-sort sweep on the same context — bit-identical costs, target
    >= 1.5x, gate >= 1.3x.
``assigned_rank_merge``
    The assigned rank merge (:meth:`AssignedCostEvaluator.costs`) against
    its per-row float-sort twin on the ``enum_mid`` shape (n=80, z=16, 36
    candidates, the ED assignments of 2,048 4-subsets), both in the merge's
    block size — bit-identical costs, target >= 3x, gate >= 2x.
``bound_prefix_factor``
    The level-1 unassigned bound over all ``C(24, 4) = 10,626`` subset rows
    (n=40, z=8), prefix-factored against the plain per-point
    ``support[:, rows].min(axis=2)`` gather on the same rows — bit-identical
    bounds, a same-run ratio with gate and target >= 1.5x; the milliseconds
    per call are a trend only.
``level1_cut``
    The unassigned level-1 bound over the 29 chunks of all ``C(36, 4) =
    58,905`` ``enum_mid`` rows (n=80, z=16), one call per chunk, at the
    greedy seed's cut against ``cut=inf`` — equal keep masks and identical
    values at or below the cut, a same-run ratio with gate and target
    >= 1.5x; the milliseconds per pass are a trend only.
``scalar_cost_overhead``
    One ``expected_one_center_cost`` call (n=25, z=3, d=8: an E1 instance)
    divided by the bare ``E[max]`` kernel on the same ``(1, N)`` distances —
    the dispatch and validation a scalar cost pays on top of its arithmetic.
    A same-run ratio, gate and target <= 3x; the per-call microseconds are
    a trend only.
``one_center_batch``
    On the same instance, one ``expected_one_center_costs`` call over the 16
    polls of a pattern-search iteration (``+-`` a step on each of 8 axes)
    against 16 scalar calls on the same centers — values within 1e-15
    relative, a same-run speedup with gate and target >= 3x; the per-call
    microseconds are a trend only.
``wang_zhang_column_splice``
    A fine-grid column splice against the full context rebuild it
    replaces: target >= 2x, gate >= 1.8x.
``batch_cost_kernel``
    The batched ``E[max]`` kernel against a scalar per-assignment loop; a
    trend only.
``local_search_sweep``
    One round of single-point moves (n=200, z=8, k=8, ED assignment): the
    round-amortized rest profiles against per-point re-sorts, with the two
    rounds' move costs agreeing; gate >= 3x.
``context_store_memoization``
    A ``ContextStore`` hit against a cold ``CostContext`` build: one
    miss, then hits; gate >= 10x.
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
import time
from dataclasses import dataclass
from itertools import combinations, islice
from math import comb
from pathlib import Path
from typing import Callable

import numpy as np

from ..assignments import ExpectedDistanceAssignment
from ..baselines.brute_force import (
    UNASSIGNED,
    _iter_subset_chunks,
    _seed_solution,
    brute_force_restricted_assigned,
    brute_force_unassigned,
)
from ..bounds.lower_bounds import prune_margin
from ..cost.context import CostContext
from ..cost.expected import (
    RANK_MERGE_BLOCK_ENTRIES,
    _expected_max_rows,
    assigned_cost_evaluator,
    expected_one_center_cost,
    expected_one_center_costs,
)
from ..workloads.synthetic import gaussian_clusters, line_workload
from . import pool as pool_module
from . import shm as shm_module
from .incumbent import certified_gap
from .parallel import available_workers, set_oversubscribe
from .store import ContextStore

#: Default output path: an untracked name, so a bare run never overwrites a
#: checked-in ``BENCH_PR*.json`` trajectory document.
DEFAULT_OUTPUT = "bench.json"
#: Wall-clock speedup the pruned restricted brute force targets.
PRUNE_SPEEDUP_TARGET = 3.0
#: The pruned restricted brute force's CI gate: shared runners leave noise
#: headroom below the target (the prune-rate half stays exact).
PRUNE_SPEEDUP_GATE = 1.5
#: Fraction of subset rows the acceptance instance must prune.
PRUNE_RATE_TARGET = 0.5
#: Wall-clock speedup the parallel brute force targets at 2+ workers.
PARALLEL_SPEEDUP_TARGET = 2.0
#: Wall-clock speedup the column splice targets over a full rebuild.
SPLICE_SPEEDUP_TARGET = 2.0
#: The column splice's CI gate.
SPLICE_SPEEDUP_GATE = 1.8
#: Dispatch-bytes reduction the shared-memory protocol targets.
SHM_DISPATCH_BYTES_TARGET = 10.0
#: Wall-clock speedup the persistent pool targets across many small calls.
POOL_AMORTIZATION_TARGET = 2.0
#: The persistent pool's CI gate (startup amortization holds on any core
#: count, but pool startup times are noisy on shared runners).
POOL_AMORTIZATION_GATE = 1.5
#: Wall-clock speedup the rank-merge sweep targets over the float sort.
RANK_MERGE_SPEEDUP_TARGET = 1.5
#: The rank-merge sweep's CI gate.
RANK_MERGE_SPEEDUP_GATE = 1.3
#: Speedup the assigned rank merge targets over the per-row float sort.
ASSIGNED_RANK_MERGE_TARGET = 3.0
#: The assigned rank merge's CI gate.
ASSIGNED_RANK_MERGE_GATE = 2.0
#: Speedup a ``ContextStore`` hit must reach over a cold context build.
CONTEXT_STORE_SPEEDUP_GATE = 10.0
#: Speedup the round-amortized local-search sweep must reach over
#: per-point rest-profile re-sorts.
LOCAL_SEARCH_SWEEP_GATE = 3.0
#: Chunk-count ratio (best-first / submission order) to reach a 1% certified
#: gap — the best-first scheduler must need at most half the chunks.
BEST_FIRST_CHUNK_RATIO_TARGET = 0.5
#: Fraction of subset rows the restricted leg of ``prune_rate_two_level``
#: must prune on the PR-10 acceptance instance.
TWO_LEVEL_PRUNE_RATE_TARGET = 0.8
#: Most a scalar ``expected_one_center_cost`` call may take, as a multiple of
#: the bare ``E[max]`` kernel on the same distances.
SCALAR_OVERHEAD_TARGET = 3.0
#: Speedup the prefix-factored level-1 bound must reach over the plain
#: gather on the same subset rows.
BOUND_PREFIX_FACTOR_TARGET = 1.5
#: Speedup one batched one-center cost call over 16 polls must reach over
#: 16 scalar calls on the same centers.
ONE_CENTER_BATCH_TARGET = 3.0
#: Speedup the unassigned level-1 bound at a pruning cut must reach over the
#: same kernel at ``cut=inf`` on the same chunks.
LEVEL1_CUT_TARGET = 1.5
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
    fields = _prune_case_fields(pruned, unpruned, pruned_seconds, no_prune_seconds)
    return {
        "subsets": comb(candidates.shape[0], 4),
        **fields,
        "gate": PRUNE_SPEEDUP_GATE,
        "gate_met": bool(
            fields["speedup"] >= PRUNE_SPEEDUP_GATE and fields["prune_rate"] > PRUNE_RATE_TARGET
        ),
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
    return {
        "subsets": comb(candidates.shape[0], 4),
        **_prune_case_fields(pruned, unpruned, pruned_seconds, no_prune_seconds),
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
    met = bool(speedup >= PARALLEL_SPEEDUP_TARGET)
    return {
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "workers": workers,
        "cpu_count": available_workers(),
        "serial_fallback": serial_fallback,
        "subsets": comb(candidates.shape[0], 3),
        "speedup": speedup,
        "target": PARALLEL_SPEEDUP_TARGET,
        "target_met": met,
        "gate": PARALLEL_SPEEDUP_TARGET,
        "gate_met": met,
        "note": (
            "requested workers are clamped to available CPUs and to the chunk "
            "count, not to the work left after pruning, so this mostly pruned "
            "instance can run slower at 2 workers than serially (ROADMAP.md, "
            "item 1); the >=2x target needs >=2 physical CPUs and results are "
            "bit-identical at every worker count"
        ),
    }


def _dispatch_payload() -> tuple:
    """The brute-force restricted payload the dispatch benchmarks ship.

    The shape a restricted expected-distance solve ships to its subset
    search, ``(context, rule, chunk_rows, top_k)`` with ``rule=None`` (the
    ED matrix rides inside the context) and ``top_k=1``, here at
    ``chunk_rows=256``.
    """
    dataset, _ = gaussian_clusters(n=30, z=4, dimension=2, k_true=3, seed=7)
    candidates = dataset.all_locations()[:40]
    context = CostContext(dataset, candidates)
    context.evaluator
    context.expected
    return (context, None, 256, 1)


def bench_shm_dispatch_bytes() -> dict:
    """Descriptor-dispatch bytes vs pickling the full payload per call."""
    payload = _dispatch_payload()
    # repro: noqa[PICKLE-OWNER] -- the bench measures the full-payload pickle size to report the descriptor-dispatch win; it never persists the bytes
    pickled_bytes = len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
    descriptor, call_lease = shm_module.publish_payload(payload)
    try:
        descriptor_bytes = descriptor.dispatch_bytes()
    finally:
        if call_lease is not None:
            call_lease.close()
        shm_module.close_all_publications()
    reduction = pickled_bytes / max(descriptor_bytes, 1)
    met = bool(reduction >= SHM_DISPATCH_BYTES_TARGET)
    return {
        "pickled_payload_bytes": pickled_bytes,
        "shm_descriptor_bytes": descriptor_bytes,
        "reduction": reduction,
        "target": SHM_DISPATCH_BYTES_TARGET,
        "target_met": met,
        "gate": SHM_DISPATCH_BYTES_TARGET,
        "gate_met": met,
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
    met = bool(ratio <= BEST_FIRST_CHUNK_RATIO_TARGET)
    return {
        "gap_target": gap_target,
        "chunks_total": len(chunks),
        "submission_chunks_to_gap": submission_chunks,
        "best_first_chunks_to_gap": best_first_chunks,
        "chunk_ratio": ratio,
        "target": BEST_FIRST_CHUNK_RATIO_TARGET,
        "target_met": met,
        "gate": BEST_FIRST_CHUNK_RATIO_TARGET,
        "gate_met": met,
        "note": "deterministic replay of both orderings through the live gap fold",
    }


def bench_prune_rate_two_level(repeats: int = 3) -> dict:
    """Prune rates of plain restricted and unassigned solves on n=12, m=16, k=4.

    Two legs over the same 1,820 subset rows, each bit-identical to
    ``prune=False`` (asserted here).  The rows fit in one chunk
    (:data:`~repro.cost.context.DEFAULT_CHUNK_ROWS`) and a solve without a
    stop runs no bound map, so each leg cuts its rows against its greedy
    seed alone.

    * The restricted (expected-distance) leg must prune more than 80% of
      the rows.  A score-matrix rule runs no pair kernel in the chunk, so
      it cuts on the Lemma 3.2 level-1 bound alone (about 88%).
    * The unassigned leg runs the pair kernel on its level-1 survivors and
      must prune more rows than level 1 alone does at the same seed
      threshold, replayed on the solve's own context.  A lost pair bound
      fails this, where a rate gate would not: level 1 alone already
      prunes 1,604 of the rows (0.881).
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

    store = ContextStore()
    unassigned = brute_force_unassigned(dataset, 4, store=store, **kwargs)
    unassigned_unpruned = brute_force_unassigned(dataset, 4, prune=False, **kwargs)
    assert unassigned.expected_cost == unassigned_unpruned.expected_cost
    assert np.array_equal(unassigned.centers, unassigned_unpruned.centers)
    context = store.get(dataset, candidates)
    seed_cost = _seed_solution(context, UNASSIGNED, 4)[0]
    rows = np.asarray(list(combinations(range(candidates.shape[0]), 4)))
    level1 = context.subset_unassigned_lower_bounds(rows)
    level1_pruned = int(np.count_nonzero(level1 > seed_cost + prune_margin(seed_cost)))
    unassigned_pruned = int(unassigned.metadata["pruned_rows"])

    restricted_met = bool(prune_rate > TWO_LEVEL_PRUNE_RATE_TARGET)
    pair_met = unassigned_pruned > level1_pruned
    return {
        "subsets": comb(candidates.shape[0], 4),
        "total_rows": total,
        "evaluated_rows": int(metadata["evaluated_rows"]),
        "pruned_rows": int(metadata["pruned_rows"]),
        "prune_rate": float(prune_rate),
        "pruned_seconds": pruned_seconds,
        "unassigned_pruned_rows": unassigned_pruned,
        "unassigned_level1_pruned_rows": level1_pruned,
        "target": TWO_LEVEL_PRUNE_RATE_TARGET,
        "target_met": restricted_met and pair_met,
        "gate": TWO_LEVEL_PRUNE_RATE_TARGET,
        "gate_met": restricted_met and pair_met,
        "note": (
            "one chunk and no stop, so one map and no bound map: the restricted rows are"
            " cut on level 1 against the greedy seed (rate > gate); the unassigned leg"
            " must prune more rows than level 1 alone at its seed, which only the pair"
            " bound can do; both bit-identical to prune=False"
        ),
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
        "gate": POOL_AMORTIZATION_GATE,
        "gate_met": bool(speedup >= POOL_AMORTIZATION_GATE),
        "note": "both legs produce the serial result bit-identically",
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
        "gate": RANK_MERGE_SPEEDUP_GATE,
        "gate_met": bool(speedup >= RANK_MERGE_SPEEDUP_GATE),
        "note": "costs are bit-identical between the two sweeps",
    }


def bench_assigned_rank_merge(repeats: int = 3) -> dict:
    """Assigned rank merge vs the per-row float sort on the ``enum_mid`` shape.

    ``gaussian_clusters(n=80, z=16, k_true=4, seed=0)`` with its first 36
    locations as candidates, scoring the expected-distance assignments of
    the first 2,048 4-subsets.  Both legs run in blocks of the merge's own
    size (:data:`~repro.cost.expected.RANK_MERGE_BLOCK_ENTRIES` entries).
    The costs must be bit-identical; the same-run ratio is the gate.  The
    merge's rank tables are built by the identity check, before timing.
    """
    dataset, _ = gaussian_clusters(n=80, z=16, dimension=2, k_true=4, seed=0)
    candidates = dataset.all_locations()[:36]
    context = CostContext(dataset, candidates)
    subsets = np.asarray(list(islice(combinations(range(candidates.shape[0]), 4), 2048)))
    rows = context.ed_assignments(subsets)
    evaluator = context.evaluator
    block_rows = RANK_MERGE_BLOCK_ENTRIES // dataset.location_layout().owners.shape[0]
    merged = evaluator.costs(rows)
    float_sorted = evaluator._costs_float_sort(rows, chunk_rows=block_rows)
    assert np.array_equal(merged.view(np.uint64), float_sorted.view(np.uint64))
    merge_seconds = _best_of(lambda: evaluator.costs(rows), repeats)
    float_seconds = _best_of(
        lambda: evaluator._costs_float_sort(rows, chunk_rows=block_rows), repeats
    )
    speedup = float_seconds / max(merge_seconds, 1e-12)
    return {
        "float_sort_seconds": float_seconds,
        "rank_merge_seconds": merge_seconds,
        "rows": int(rows.shape[0]),
        "block_rows": int(block_rows),
        "speedup": speedup,
        "target": ASSIGNED_RANK_MERGE_TARGET,
        "target_met": bool(speedup >= ASSIGNED_RANK_MERGE_TARGET),
        "gate": ASSIGNED_RANK_MERGE_GATE,
        "gate_met": bool(speedup >= ASSIGNED_RANK_MERGE_GATE),
        "note": "costs are bit-identical between the two batch paths",
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
        "gate": SPLICE_SPEEDUP_GATE,
        "gate_met": bool(speedup >= SPLICE_SPEEDUP_GATE),
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


def bench_bound_prefix_factor(repeats: int = 5) -> dict:
    """Prefix-factored level-1 unassigned bound vs the plain gather it replaced.

    All ``C(24, 4) = 10,626`` subset rows of
    ``gaussian_clusters(n=40, z=8, k_true=4, seed=0)`` with its first 24
    locations as candidates, in enumeration order, in one call.  The plain
    leg min-reduces one ``(z_i, B, k)`` gather per point; the factored
    kernel reduces each run of rows sharing their first ``k - 1`` columns
    once, from whole rows of the candidate-major support tables.  The two
    must agree exactly; the ratio, taken within one run, is the gate.
    """
    dataset, _ = gaussian_clusters(n=40, z=8, dimension=2, k_true=4, seed=0)
    candidates = dataset.all_locations()[:24]
    context = CostContext(dataset, candidates)
    rows = np.asarray(list(combinations(range(candidates.shape[0]), 4)))
    supports, weights = context.supports, context.probabilities

    def plain_gather() -> np.ndarray:
        best = np.full(rows.shape[0], -np.inf)
        for support, weight in zip(supports, weights):
            np.maximum(best, weight @ support[:, rows].min(axis=2), out=best)
        return best

    assert np.array_equal(context.subset_unassigned_lower_bounds(rows), plain_gather())
    factored_seconds = _best_of(lambda: context.subset_unassigned_lower_bounds(rows), repeats)
    plain_seconds = _best_of(plain_gather, repeats)
    speedup = plain_seconds / max(factored_seconds, 1e-12)
    met = bool(speedup >= BOUND_PREFIX_FACTOR_TARGET)
    return {
        "factored_call_ms": factored_seconds * 1e3,
        "plain_gather_call_ms": plain_seconds * 1e3,
        "rows": int(rows.shape[0]),
        "speedup": speedup,
        "target": BOUND_PREFIX_FACTOR_TARGET,
        "target_met": met,
        "gate": BOUND_PREFIX_FACTOR_TARGET,
        "gate_met": met,
        "note": "bounds are bit-identical; per-call milliseconds are a trend only, the same-run ratio is the gate",
    }


def bench_level1_cut(repeats: int = 5) -> dict:
    """The unassigned level-1 bound at a pruning cut against ``cut=inf``.

    The ``enum_mid`` instance: ``gaussian_clusters(n=80, z=16, k_true=4,
    seed=0)`` with its first 36 locations as candidates and ``k=4``, all
    ``C(36, 4) = 58,905`` rows in the solve's 29 chunks, one call per chunk.
    The cut is the greedy seed's cost plus its prune margin, the threshold
    a serial solve's first chunk prunes at.  Both legs must give the same
    keep mask ``bounds <= cut``, and the same bits on every row at or below
    the cut; the ratio, taken within one run, is the gate.
    """
    dataset, _ = gaussian_clusters(n=80, z=16, dimension=2, k_true=4, seed=0)
    candidates = dataset.all_locations()[:36]
    context = CostContext(dataset, candidates)
    chunks = list(_iter_subset_chunks(candidates.shape[0], 4))
    seed_cost = _seed_solution(context, UNASSIGNED, 4)[0]
    cut = seed_cost + prune_margin(seed_cost)
    kept = 0
    for chunk in chunks:
        exact = context.subset_unassigned_lower_bounds(chunk)
        partial = context.subset_unassigned_lower_bounds(chunk, cut=cut)
        keep = exact <= cut
        assert np.array_equal(partial <= cut, keep)
        assert np.array_equal(partial[keep].view(np.uint64), exact[keep].view(np.uint64))
        kept += int(keep.sum())

    def full_pass() -> None:
        for chunk in chunks:
            context.subset_unassigned_lower_bounds(chunk)

    def cut_pass() -> None:
        for chunk in chunks:
            context.subset_unassigned_lower_bounds(chunk, cut=cut)

    # Alternate the legs, so a slow spell of a shared host reaches both.
    full_seconds = cut_seconds = np.inf
    for _ in range(repeats):
        full_seconds = min(full_seconds, _best_of(full_pass, 1))
        cut_seconds = min(cut_seconds, _best_of(cut_pass, 1))
    speedup = full_seconds / max(cut_seconds, 1e-12)
    met = bool(speedup >= LEVEL1_CUT_TARGET)
    return {
        "cut_pass_ms": cut_seconds * 1e3,
        "full_pass_ms": full_seconds * 1e3,
        "rows": int(sum(chunk.shape[0] for chunk in chunks)),
        "chunks": len(chunks),
        "kept_rows": kept,
        "speedup": speedup,
        "target": LEVEL1_CUT_TARGET,
        "target_met": met,
        "gate": LEVEL1_CUT_TARGET,
        "gate_met": met,
        "note": (
            "equal keep masks and bit-identical values at or below the cut; per-pass"
            " milliseconds are a trend only, the same-run ratio is the gate"
        ),
    }


def bench_scalar_cost_overhead(repeats: int = 5, calls: int = 200) -> dict:
    """One scalar one-center cost call against the bare kernel it feeds.

    The instance is one of E1's (n=25, z=3, d=8).  The kernel leg runs the
    shared ``E[max]`` row kernel on the very ``(1, N)`` distances the scalar
    call computes, so the ratio is what the scalar path adds on top of the
    ``E[max]`` arithmetic — taken within one run, it does not depend on the
    machine.
    """
    dataset, _ = gaussian_clusters(n=25, z=3, dimension=8, k_true=1, seed=0)
    center = dataset.points[0].expected_point()
    layout = dataset.location_layout()
    values = dataset.metric.pairwise(layout.locations, center.reshape(1, -1)).T

    def kernel() -> float:
        return float(
            _expected_max_rows(values, layout.probabilities, layout.owners, layout.starts)[0]
        )

    assert kernel() == expected_one_center_cost(dataset, center)  # same values, same kernel
    scalar_seconds = _best_of(
        lambda: [expected_one_center_cost(dataset, center) for _ in range(calls)], repeats
    ) / calls
    kernel_seconds = _best_of(lambda: [kernel() for _ in range(calls)], repeats) / calls
    ratio = scalar_seconds / max(kernel_seconds, 1e-12)
    met = bool(ratio <= SCALAR_OVERHEAD_TARGET)
    return {
        "scalar_call_us": scalar_seconds * 1e6,
        "kernel_call_us": kernel_seconds * 1e6,
        "overhead_ratio": ratio,
        "target": SCALAR_OVERHEAD_TARGET,
        "target_met": met,
        "gate": SCALAR_OVERHEAD_TARGET,
        "gate_met": met,
        "note": "per-call microseconds are a trend only; the same-run ratio is the gate",
    }


def bench_one_center_batch(repeats: int = 5, calls: int = 50) -> dict:
    """One batched one-center cost call over 16 polls against 16 scalar calls.

    The polls are one pattern-search iteration on the ``scalar_cost_overhead``
    instance (n=25, z=3, d=8): ``+-`` the search's first step on each axis
    around ``P̄_1``.  The batched call computes its distances in one BLAS
    matrix product where the scalar calls make one matrix-vector product
    each, so the values may differ by ulps; they must agree within 1e-15
    relative.  The speedup, taken within one run, is the gate.
    """
    dataset, _ = gaussian_clusters(n=25, z=3, dimension=8, k_true=1, seed=0)
    center = dataset.points[0].expected_point()
    step = float(np.ptp(dataset.all_locations(), axis=0).max()) / 4.0
    offsets = np.kron(np.eye(dataset.dimension), [[step], [-step]])
    polls = center[None, :] + offsets

    def scalar() -> np.ndarray:
        return np.array([expected_one_center_cost(dataset, poll) for poll in polls])

    batched_costs = expected_one_center_costs(dataset, polls)
    scalar_costs = scalar()
    relative = float(np.max(np.abs(batched_costs - scalar_costs) / scalar_costs))
    assert relative <= 1e-15, relative
    batched_seconds = _best_of(
        lambda: [expected_one_center_costs(dataset, polls) for _ in range(calls)], repeats
    ) / calls
    scalar_seconds = _best_of(lambda: [scalar() for _ in range(calls)], repeats) / calls
    speedup = scalar_seconds / max(batched_seconds, 1e-12)
    met = bool(speedup >= ONE_CENTER_BATCH_TARGET)
    return {
        "batched_call_us": batched_seconds * 1e6,
        "scalar_calls_us": scalar_seconds * 1e6,
        "polls": int(polls.shape[0]),
        "max_relative_difference": relative,
        "speedup": speedup,
        "target": ONE_CENTER_BATCH_TARGET,
        "target_met": met,
        "gate": ONE_CENTER_BATCH_TARGET,
        "gate_met": met,
        "note": "per-call microseconds are a trend only; the same-run ratio is the gate",
    }


def bench_local_search_sweep(repeats: int = 3) -> dict:
    """Round-amortized rest profiles vs per-point re-sorts.

    One full round of single-point moves, the local-search polish sweep, at
    n=200, z=8, k=8 from the expected-distance assignment.  Both rounds'
    move costs must agree (``allclose``); the same-run speedup is the gate.
    """
    dataset, _ = gaussian_clusters(n=200, z=8, dimension=2, k_true=8, seed=7)
    centers = dataset.expected_points()[:8]
    assignment = ExpectedDistanceAssignment()(dataset, centers)
    evaluator = assigned_cost_evaluator(dataset, centers)
    all_columns = np.arange(centers.shape[0])

    def per_point_round() -> np.ndarray:
        costs = np.empty((dataset.size, centers.shape[0]))
        for point in range(dataset.size):
            profile = evaluator.rest_profile(assignment, point)
            costs[point] = evaluator.move_costs(profile, all_columns)
        return costs

    sweep = evaluator.local_search_sweep(assignment)

    def amortized_round() -> np.ndarray:
        costs = np.empty((dataset.size, centers.shape[0]))
        for point in range(dataset.size):
            profile = sweep.rest_profile(point)
            costs[point] = evaluator.move_costs(profile, all_columns)
        return costs

    np.testing.assert_allclose(amortized_round(), per_point_round(), rtol=1e-9, atol=1e-12)
    per_point_seconds = _best_of(per_point_round, repeats)
    amortized_seconds = _best_of(amortized_round, repeats)
    speedup = per_point_seconds / max(amortized_seconds, 1e-12)
    return {
        "per_point_seconds": per_point_seconds,
        "amortized_seconds": amortized_seconds,
        "speedup": speedup,
        "gate": LOCAL_SEARCH_SWEEP_GATE,
        "gate_met": bool(speedup >= LOCAL_SEARCH_SWEEP_GATE),
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
    assert store.misses == 1  # every lookup after the first is a hit
    speedup = cold_seconds / max(hit_seconds, 1e-12)
    return {
        "cold_build_seconds": cold_seconds,
        "memoized_hit_seconds": hit_seconds,
        "speedup": speedup,
        "hits": store.hits,
        "misses": store.misses,
        "gate": CONTEXT_STORE_SPEEDUP_GATE,
        "gate_met": bool(speedup >= CONTEXT_STORE_SPEEDUP_GATE),
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
      run (chunk-granular recovery preserves the submission-order
      reduction; the solve is unpruned, so no incumbent is involved);
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
    "unassigned_rank_merge": bench_rank_merge,
    "assigned_rank_merge": bench_assigned_rank_merge,
    "wang_zhang_column_splice": bench_column_splice,
    "batch_cost_kernel": bench_batch_cost_kernel,
    "bound_prefix_factor": bench_bound_prefix_factor,
    "level1_cut": bench_level1_cut,
    "scalar_cost_overhead": bench_scalar_cost_overhead,
    "one_center_batch": bench_one_center_batch,
    "local_search_sweep": bench_local_search_sweep,
    "context_store_memoization": bench_context_store,
    "fault_recovery": bench_fault_recovery,
    "serve_latency": bench_serve_latency,
    "lint_full_tree": bench_lint_full_tree,
    "lint_dataflow_full_tree": bench_lint_dataflow_full_tree,
}


def assert_gate(name: str) -> None:
    """Run the registry case ``name`` and fail unless its CI gate holds.

    Each tier-1 perf guard in ``benchmarks/`` is one call of this, so the
    gate a guard asserts is the one the case records.  The failure message
    carries the whole case record.
    """
    record = CASES[name]()
    if not record["gate_met"]:
        raise AssertionError(f"{name} missed its gate {record['gate']}: {record}")


#: The fast smoke subset ``--quick`` runs (CI's bench step): everything that
#: completes in milliseconds, skipping the pool-spawning, crash-recovery and
#: many-call amortization cases.
QUICK_CASES: tuple[str, ...] = (
    "brute_force_prune_restricted",
    "brute_force_prune_unassigned",
    "best_first_gap_trajectory",
    "prune_rate_two_level",
    "shm_dispatch_bytes",
    "unassigned_rank_merge",
    "assigned_rank_merge",
    "wang_zhang_column_splice",
    "batch_cost_kernel",
    "bound_prefix_factor",
    "level1_cut",
    "scalar_cost_overhead",
    "one_center_batch",
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
    the implementation behind ``python -m repro bench --compare`` (an
    unreadable or malformed baseline is reported as a failure rather than a
    traceback).
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
