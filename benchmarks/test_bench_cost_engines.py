"""Cost-engine micro-benchmarks (design-choice ablation from DESIGN.md §5.4).

Times the exact O(N log N) expected-cost engine against Monte-Carlo
estimation and full enumeration on a common instance, and checks they agree.
Also times the batch E[max] kernel and the incremental local-search path
(the hot path of :class:`OptimalAssignment` and the brute-force baselines).
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
from repro.runtime.bench import (
    BOUND_PREFIX_FACTOR_TARGET,
    ONE_CENTER_BATCH_TARGET,
    SCALAR_OVERHEAD_TARGET,
    bench_bound_prefix_factor,
    bench_one_center_batch,
    bench_scalar_cost_overhead,
)
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
    instance (n=25, z=3, d=8) may take at most 3x the bare ``E[max]`` kernel
    on the same distances.  A metric call per uncertain point puts the
    scalar path near 15x; one call over the flat location layout, under 2x."""
    case = bench_scalar_cost_overhead()
    assert case["overhead_ratio"] <= SCALAR_OVERHEAD_TARGET, case


def test_one_center_batch_speedup():
    """Same-run ratio guard: one batched one-center cost call over the 16
    polls of a pattern-search iteration (n=25, z=3, d=8) must be >= 3x faster
    than 16 scalar calls on the same centers, with values within 1e-15
    relative (the case asserts it).  Scoring the polls one call at a time
    puts the ratio at 1x."""
    case = bench_one_center_batch()
    assert case["speedup"] >= ONE_CENTER_BATCH_TARGET, case


def test_bound_prefix_factor_ratio():
    """Same-run ratio guard: the prefix-factored level-1 unassigned bound over
    all C(24, 4) subset rows (n=40, z=8) must be >= 1.5x faster than the
    plain per-point gather on the same rows, with bit-identical bounds (the
    case asserts equality).  Gathering every row's full k columns instead of
    reducing each shared (k-1)-prefix once puts the ratio at 1x."""
    case = bench_bound_prefix_factor()
    assert case["speedup"] >= BOUND_PREFIX_FACTOR_TARGET, case


def test_local_search_sweep_amortization_speedup():
    """ISSUE 2 guard: the round-amortized LocalSearchSweep must be >= 3x
    faster than per-point ``rest_profile`` re-sorts on the local-search
    polish sweep at n=200, z=8 (one full round of single-point moves)."""
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

    # Warm up once (also checks the two paths agree), then take the best of
    # three timed repeats of each to damp scheduler noise.
    np.testing.assert_allclose(amortized_round(), per_point_round(), rtol=1e-9, atol=1e-12)
    per_point_seconds = min(
        _timed(per_point_round) for _ in range(3)
    )
    amortized_seconds = min(
        _timed(amortized_round) for _ in range(3)
    )
    speedup = per_point_seconds / max(amortized_seconds, 1e-9)
    assert speedup >= 3.0, (
        f"round-amortized sweep only {speedup:.1f}x faster than per-point rest_profile"
    )


def _timed(function) -> float:
    start = time.perf_counter()
    function()
    return time.perf_counter() - start
