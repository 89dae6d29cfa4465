"""Cost-engine micro-benchmarks (a design-choice ablation of the cost engines).

Times the exact O(N log N) expected-cost engine against Monte-Carlo
estimation and full enumeration on a common instance, and checks they agree.
Also times the batch E[max] kernel and the incremental local-search path
(the hot path of :class:`OptimalAssignment` and the brute-force baselines).
The same-run ratio guards run their ``python -m repro bench`` registry case
through :func:`repro.runtime.bench.assert_gate`, which asserts the gate the
case records.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.assignments import ExpectedDistanceAssignment, OptimalAssignment
from repro.cost import (
    assigned_cost_evaluator,
    enumerate_expected_cost_assigned,
    expected_cost_assigned,
    monte_carlo_cost_assigned,
)
from repro.cost.expected import _expected_max_reference, distance_supports_for_assignment
from repro.runtime.bench import assert_gate
from repro.workloads import gaussian_clusters


@pytest.fixture(scope="module")
def instance():
    dataset, _ = gaussian_clusters(n=10, z=3, dimension=2, k_true=3, seed=5)
    centers = dataset.expected_points()[:3]
    assignment = ExpectedDistanceAssignment()(dataset, centers)
    return dataset, centers, assignment


def test_bench_exact_engine(benchmark, instance):
    dataset, centers, assignment = instance
    value = benchmark(expected_cost_assigned, dataset, centers, assignment)
    assert value > 0


def test_bench_enumeration_engine(benchmark, instance):
    dataset, centers, assignment = instance
    value = benchmark(enumerate_expected_cost_assigned, dataset, centers, assignment)
    exact = expected_cost_assigned(dataset, centers, assignment)
    assert np.isclose(value, exact, rtol=1e-9)


def test_bench_monte_carlo_engine(benchmark, instance):
    dataset, centers, assignment = instance
    estimate = benchmark(monte_carlo_cost_assigned, dataset, centers, assignment, samples=2000, rng=0)
    exact = expected_cost_assigned(dataset, centers, assignment)
    assert estimate.within(exact, sigmas=6.0)


def test_bench_large_exact_engine(benchmark):
    dataset, _ = gaussian_clusters(n=500, z=8, dimension=2, k_true=5, seed=9)
    centers = dataset.expected_points()[:5]
    assignment = ExpectedDistanceAssignment()(dataset, centers)
    value = benchmark(expected_cost_assigned, dataset, centers, assignment)
    assert value > 0


def test_bench_batch_kernel(benchmark):
    """Batch evaluation of 256 assignments through the shared sweep kernel."""
    dataset, _ = gaussian_clusters(n=100, z=6, dimension=2, k_true=4, seed=12)
    centers = dataset.expected_points()[:4]
    evaluator = assigned_cost_evaluator(dataset, centers)
    rng = np.random.default_rng(0)
    column_sets = rng.integers(0, 4, size=(256, dataset.size))
    costs = benchmark(evaluator.costs, column_sets)
    assert costs.shape == (256,)
    spot = int(rng.integers(0, 256))
    assert costs[spot] == pytest.approx(
        expected_cost_assigned(dataset, centers, column_sets[spot]), rel=1e-9
    )


def test_bench_local_search_incremental(benchmark):
    """The ISSUE's target scenario: OptimalAssignment local search at
    n≈200, z≈8 through the incremental evaluator."""
    dataset, _ = gaussian_clusters(n=200, z=8, dimension=2, k_true=4, seed=3)
    centers = dataset.expected_points()[:4]
    labels = benchmark.pedantic(OptimalAssignment(), args=(dataset, centers), iterations=1, rounds=2)
    ed_cost = expected_cost_assigned(dataset, centers, ExpectedDistanceAssignment()(dataset, centers))
    assert expected_cost_assigned(dataset, centers, labels) <= ed_cost + 1e-9


def test_local_search_speedup_over_reference_engine():
    """Speed guard (not a pytest-benchmark case): one local-search round of
    single-point moves via the incremental evaluator must clearly beat the
    same moves re-evaluated from scratch through the historical engine."""
    dataset, _ = gaussian_clusters(n=60, z=8, dimension=2, k_true=4, seed=3)
    centers = dataset.expected_points()[:4]
    assignment = ExpectedDistanceAssignment()(dataset, centers)
    k = centers.shape[0]

    evaluator = assigned_cost_evaluator(dataset, centers)
    start = time.perf_counter()
    for point_index in range(dataset.size):
        profile = evaluator.rest_profile(assignment, point_index)
        evaluator.move_costs(profile, np.arange(k))
    incremental_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for point_index in range(dataset.size):
        for center_index in range(k):
            trial = assignment.copy()
            trial[point_index] = center_index
            values, probabilities = distance_supports_for_assignment(dataset, centers, trial)
            _expected_max_reference(values, probabilities)
    reference_seconds = time.perf_counter() - start

    speedup = reference_seconds / max(incremental_seconds, 1e-9)
    assert speedup >= 5.0, f"incremental path only {speedup:.1f}x faster than reference engine"


def test_scalar_cost_overhead_ratio():
    """Same-run ratio guard: one ``expected_one_center_cost`` call on an E1
    instance (n=25, z=3, d=8) against the bare ``E[max]`` kernel on the same
    distances.  A metric call per uncertain point puts the scalar path near
    15x; one call over the flat location layout, under 2x."""
    assert_gate("scalar_cost_overhead")


def test_one_center_batch_speedup():
    """Same-run ratio guard: one batched one-center cost call over the 16
    polls of a pattern-search iteration (n=25, z=3, d=8) against 16 scalar
    calls on the same centers, with values within 1e-15 relative (the case
    asserts it).  Scoring the polls one call at a time puts the ratio at 1x."""
    assert_gate("one_center_batch")


def test_bound_prefix_factor_ratio():
    """Same-run ratio guard: the prefix-factored level-1 unassigned bound over
    all C(24, 4) subset rows (n=40, z=8) against the plain per-point gather on
    the same rows, with bit-identical bounds (the case asserts equality).
    Gathering every row's full k columns instead of reducing each shared
    (k-1)-prefix once puts the ratio at 1x."""
    assert_gate("bound_prefix_factor")


def test_level1_cut_ratio():
    """Same-run ratio guard: the unassigned level-1 bound at the greedy
    seed's cut against ``cut=inf`` over the 29 chunks of the enum_mid rows
    (n=80, z=16, 36 candidates, k=4), with equal keep masks and identical
    values at or below the cut (the case asserts both).  Reducing every
    point for every row, as ``cut=inf`` does, puts the ratio at 1x."""
    assert_gate("level1_cut")


def test_pair_from_level1_ratio():
    """Same-run ratio guard: the unassigned two-level prune over the same 29
    enum_mid chunks at the same cut, its pair kernel fed level 1's per-point
    E[min] against running its own per-point pass, with equal keep masks
    (the case asserts it).  Recomputing the per-point pass puts the ratio
    at 1x."""
    assert_gate("pair_from_level1")


def test_assigned_rank_merge_speedup():
    """Same-run ratio guard: the assigned rank merge against its per-row
    float-sort twin on the enum_mid shape (n=80, z=16, 36 candidates, the
    ED assignments of 2,048 4-subsets), both in the merge's block size,
    with bit-identical costs (the case asserts it).  Float-sorting every
    row puts the ratio at 1x."""
    assert_gate("assigned_rank_merge")


def test_local_search_sweep_amortization_speedup():
    """The round-amortized LocalSearchSweep against per-point
    ``rest_profile`` re-sorts on one full round of single-point moves
    (n=200, z=8, k=8), with both rounds' move costs agreeing."""
    assert_gate("local_search_sweep")
