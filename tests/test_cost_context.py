"""Differential tests for the shared CostContext cost-evaluation service.

Every path the refactor re-routed through the shared context — assigned
batch scoring, the rank-keyed unassigned evaluator, the round-amortized
local-search sweep, the baselines and the polish path — is compared against
the scratch single-call engines (:func:`expected_cost_assigned` /
:func:`expected_cost_unassigned`) on randomized instances that include
zero-probability support entries and repeated values.  Tolerances are a few
ulps: the shared paths fold the same entries in a different order, which is
the only permitted difference.
"""

from __future__ import annotations

import pickle
from itertools import combinations

import numpy as np
import pytest

import repro.cost.context as context_module
import repro.cost.expected as expected_module
from repro.algorithms.unrestricted import solve_unrestricted_assigned
from repro.assignments import (
    ExpectedDistanceAssignment,
    ExpectedPointAssignment,
    NearestLocationAssignment,
    OneCenterAssignment,
    OptimalAssignment,
)
from repro.baselines import (
    brute_force_restricted_assigned,
    brute_force_unassigned,
    guha_munagala_baseline,
    wang_zhang_1d,
)
from repro.cost import (
    CostContext,
    expected_cost_assigned,
    expected_cost_unassigned,
    expected_max_batch_values,
)
from repro.exceptions import ValidationError
from repro.experiments.ablation import AblationSettings, run_assignment_ablation
from repro.metrics import EuclideanMetric
from repro.uncertain import UncertainDataset, UncertainPoint

from test_best_first import plain_bounds

RTOL = 1e-12
ATOL = 1e-12


def make_tricky_dataset(seed: int, n: int = 5, z: int = 4, dimension: int = 2) -> UncertainDataset:
    """Clustered dataset with zero-probability entries and repeated locations."""
    rng = np.random.default_rng(seed)
    points = []
    for index in range(n):
        base = rng.normal(scale=4.0, size=dimension)
        locations = base + rng.normal(scale=0.8, size=(z, dimension))
        if z > 1 and rng.random() < 0.5:
            locations[rng.integers(1, z)] = locations[0]  # repeated values
        probabilities = rng.dirichlet(np.ones(z))
        if z > 1 and rng.random() < 0.6:
            probabilities[rng.integers(0, z)] = 0.0  # explicit zero mass
            probabilities = probabilities / probabilities.sum()
        points.append(UncertainPoint(locations=locations, probabilities=probabilities))
    return UncertainDataset(points=tuple(points), metric=EuclideanMetric())


class TestAssignedPaths:
    @pytest.mark.parametrize("seed", range(8))
    def test_assigned_costs_match_scratch_engine(self, seed):
        dataset = make_tricky_dataset(seed)
        candidates = np.vstack([dataset.all_locations(), dataset.expected_points()])
        context = CostContext(dataset, candidates)
        rng = np.random.default_rng(seed + 100)
        rows = rng.integers(0, candidates.shape[0], size=(6, dataset.size))
        batch = context.assigned_costs(rows)
        for row, labels in zip(batch, rows):
            scratch = expected_cost_assigned(dataset, candidates[labels], np.arange(dataset.size))
            assert row == pytest.approx(scratch, rel=RTOL, abs=ATOL)
            assert context.assigned_cost(labels) == pytest.approx(scratch, rel=RTOL, abs=ATOL)

    @pytest.mark.parametrize("seed", range(8))
    def test_local_search_sweep_matches_per_point_profiles(self, seed):
        dataset = make_tricky_dataset(seed, n=6, z=3)
        centers = dataset.expected_points()[:3]
        context = CostContext(dataset, centers)
        evaluator = context.evaluator
        rng = np.random.default_rng(seed + 200)
        assignment = rng.integers(0, 3, size=dataset.size)
        sweep = context.local_search_sweep(assignment)
        assert sweep.cost() == pytest.approx(context.assigned_cost(assignment), rel=RTOL, abs=ATOL)
        all_columns = np.arange(3)
        for move in range(6):
            for point in range(dataset.size):
                via_sweep = evaluator.move_costs(sweep.rest_profile(point), all_columns)
                via_profile = evaluator.move_costs(
                    evaluator.rest_profile(assignment, point), all_columns
                )
                np.testing.assert_allclose(via_sweep, via_profile, rtol=1e-9, atol=1e-12)
            point = int(rng.integers(0, dataset.size))
            column = int(rng.integers(0, 3))
            sweep.apply_move(point, column)
            assignment[point] = column
            assert sweep.cost() == pytest.approx(
                context.assigned_cost(assignment), rel=1e-9, abs=1e-12
            )

    def test_expected_matrix_matches_policy_matrix(self):
        dataset = make_tricky_dataset(3)
        candidates = dataset.all_locations()
        context = CostContext(dataset, candidates)
        policy_matrix = ExpectedDistanceAssignment().candidate_scores(dataset, candidates)
        np.testing.assert_array_equal(context.expected, policy_matrix)

    def test_score_assignments_shape_validation(self):
        dataset = make_tricky_dataset(4)
        context = CostContext(dataset, dataset.all_locations())
        with pytest.raises(ValidationError):
            context.score_assignments(np.zeros((2, 2)), np.array([[0, 1]]))


class TestUnassignedPaths:
    @pytest.mark.parametrize("seed", range(8))
    def test_rank_keyed_evaluator_matches_scratch_engine(self, seed):
        dataset = make_tricky_dataset(seed, n=4, z=3)
        candidates = np.vstack([dataset.all_locations(), dataset.expected_points()])
        context = CostContext(dataset, candidates)
        rng = np.random.default_rng(seed + 300)
        subsets = np.array(
            [rng.choice(candidates.shape[0], size=3, replace=False) for _ in range(10)]
        )
        batch = context.unassigned_costs(subsets)
        for row, subset in zip(batch, subsets):
            scratch = expected_cost_unassigned(dataset, candidates[subset])
            assert row == pytest.approx(scratch, rel=RTOL, abs=ATOL)

    @pytest.mark.parametrize("seed", range(4))
    def test_rank_keyed_evaluator_matches_min_reduce_batch(self, seed):
        dataset = make_tricky_dataset(seed, n=4, z=4)
        candidates = dataset.all_locations()
        context = CostContext(dataset, candidates)
        rng = np.random.default_rng(seed + 400)
        subsets = np.array(
            [rng.choice(candidates.shape[0], size=2, replace=False) for _ in range(7)]
        )
        # The historical per-chunk path: min-reduce then re-sort the values.
        value_rows = [support[:, subsets].min(axis=2).T for support in context.supports]
        reference = expected_max_batch_values(value_rows, context.probabilities)
        np.testing.assert_allclose(context.unassigned_costs(subsets), reference, rtol=RTOL)

    def test_empty_subset_rejected(self):
        dataset = make_tricky_dataset(5)
        context = CostContext(dataset, dataset.all_locations())
        with pytest.raises(ValidationError):
            context.unassigned_costs(np.empty((2, 0), dtype=int))

    def test_out_of_range_subset_rejected(self):
        dataset = make_tricky_dataset(6)
        context = CostContext(dataset, dataset.all_locations())
        with pytest.raises(ValidationError):
            context.unassigned_costs(np.array([[0, 999]]))


def make_ragged_dataset(seed: int, n: int = 6) -> UncertainDataset:
    """Points with different support sizes (exercises rank-merge grouping)."""
    rng = np.random.default_rng(seed)
    points = []
    for index in range(n):
        z = int(rng.integers(1, 5))
        locations = rng.normal(scale=3.0, size=(z, 2))
        if z > 1 and rng.random() < 0.5:
            locations[z - 1] = locations[0]  # tied values across locations
        probabilities = rng.dirichlet(np.ones(z))
        if z > 1 and rng.random() < 0.5:
            probabilities[0] = 0.0
            probabilities = probabilities / probabilities.sum()
        points.append(UncertainPoint(locations=locations, probabilities=probabilities))
    return UncertainDataset(points=tuple(points), metric=EuclideanMetric())


class TestRankMergeSweep:
    """The rank-merge sweep must be *bit-identical* to the float-sort sweep.

    The global ranking is a stable sort over the same entry enumeration the
    per-point rankings use, so per-row integer merges reproduce the float
    sort's exact tie order — equality here is ``==``, not ``allclose``.
    """

    @pytest.mark.parametrize("seed", range(8))
    def test_bit_identical_to_float_sort(self, seed, monkeypatch):
        dataset = make_tricky_dataset(seed, n=5, z=4)
        candidates = np.vstack([dataset.all_locations(), dataset.expected_points()])
        context = CostContext(dataset, candidates)
        rng = np.random.default_rng(seed + 500)
        subsets = np.array(
            [rng.choice(candidates.shape[0], size=3, replace=False) for _ in range(40)]
        )
        # 16-row blocks, the twin's block size.
        entries = dataset.all_locations().shape[0]
        monkeypatch.setattr(context_module, "RANK_MERGE_BLOCK_ENTRIES", 16 * entries)
        merged = context.unassigned_costs(subsets)
        float_sorted = context._unassigned_costs_float_sort(subsets, chunk_rows=16)
        assert np.array_equal(merged, float_sorted)

    @pytest.mark.parametrize("seed", range(6))
    def test_bit_identical_on_ragged_supports(self, seed, monkeypatch):
        dataset = make_ragged_dataset(seed)
        candidates = dataset.all_locations()
        context = CostContext(dataset, candidates)
        rng = np.random.default_rng(seed + 600)
        size = min(3, candidates.shape[0])
        subsets = np.array(
            [rng.choice(candidates.shape[0], size=size, replace=False) for _ in range(25)]
        )
        # 7-row blocks, the twin's block size.
        monkeypatch.setattr(context_module, "RANK_MERGE_BLOCK_ENTRIES", 7 * candidates.shape[0])
        merged = context.unassigned_costs(subsets)
        float_sorted = context._unassigned_costs_float_sort(subsets, chunk_rows=7)
        assert np.array_equal(merged, float_sorted)

    def test_single_candidate_subsets(self):
        dataset = make_ragged_dataset(3)
        context = CostContext(dataset, dataset.all_locations())
        subsets = np.arange(context.candidate_count).reshape(-1, 1)
        assert np.array_equal(
            context.unassigned_costs(subsets),
            context._unassigned_costs_float_sort(subsets),
        )

    def test_tables_invalidate_on_column_replacement(self):
        dataset = make_tricky_dataset(9, n=4, z=3)
        candidates = dataset.all_locations()
        context = CostContext(dataset, candidates)
        subsets = np.array([[0, 1], [2, 3], [4, 5]])
        context.unassigned_costs(subsets)  # builds the rank-merge tables
        replacement = candidates[:2] + 0.75
        context.replace_candidate_columns(np.array([0, 1]), replacement)
        fresh = CostContext(dataset, context.candidates.copy())
        assert np.array_equal(
            context.unassigned_costs(subsets), fresh.unassigned_costs(subsets)
        )

    def test_blocks_hold_at_most_the_entry_cap(self, monkeypatch):
        # The unassigned merge blocks by the assigned merge's entry cap,
        # ``cap // sum_i z_i`` rows per sweep whatever the row width; the
        # costs never move.
        dataset = make_tricky_dataset(13, n=5, z=4)
        context = CostContext(dataset, dataset.all_locations())
        rng = np.random.default_rng(91)
        subsets = np.array(
            [rng.choice(context.candidate_count, size=3, replace=False) for _ in range(23)]
        )
        twin = context._unassigned_costs_float_sort(subsets)
        entries = dataset.all_locations().shape[0]
        sweep = context_module._sweep_rows_presorted
        blocks: list[int] = []

        def counting_sweep(positions, *rest):
            blocks.append(positions.shape[0])
            return sweep(positions, *rest)

        monkeypatch.setattr(context_module, "_sweep_rows_presorted", counting_sweep)
        for cap, expected_blocks in (
            (3 * entries + 1, [3] * 7 + [2]),
            (entries - 1, [1] * 23),
            (5 * entries, [5] * 4 + [3]),
            (2**17, [23]),
        ):
            monkeypatch.setattr(context_module, "RANK_MERGE_BLOCK_ENTRIES", cap)
            blocks.clear()
            merged = context.unassigned_costs(subsets)
            assert blocks == expected_blocks
            assert np.array_equal(merged, twin)

    def test_block_rows_do_not_change_results(self, monkeypatch):
        dataset = make_tricky_dataset(11, n=5, z=4)
        context = CostContext(dataset, dataset.all_locations())
        rng = np.random.default_rng(77)
        subsets = np.array(
            [rng.choice(context.candidate_count, size=2, replace=False) for _ in range(23)]
        )
        baseline = context.unassigned_costs(subsets)
        entries = dataset.all_locations().shape[0]
        for block_rows in (1, 5, 23):
            monkeypatch.setattr(context_module, "RANK_MERGE_BLOCK_ENTRIES", block_rows * entries)
            assert np.array_equal(context.unassigned_costs(subsets), baseline)


def assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64))


def bound_rows(candidates: int, k: int, order: str, seed: int) -> np.ndarray:
    """Every ``k``-subset, in lexicographic order or not."""
    rows = np.asarray(list(combinations(range(candidates), k)))
    rng = np.random.default_rng(seed)
    if order == "shuffled":
        return rows[rng.permutation(rows.shape[0])]
    if order == "unsorted-columns":
        return rng.permuted(rows[rng.permutation(rows.shape[0])], axis=1)
    assert order == "lexicographic"
    return rows


class TestCandidateMajorBounds:
    """The bound kernels read candidate-major tables with the plain gather's bits.

    Each candidate's values are one contiguous row of a transposed table,
    and the minima come back as the transpose of a C-order ``(B, r)``
    array, the plain gather's layout, so even the dot products match bit
    for bit.  The unassigned level 1 also takes a ``cut``: the rows it
    keeps carry exactly the ``cut=inf`` bits, and the rows it drops a
    partial maximum above the cut.
    """

    @pytest.mark.parametrize("order", ["lexicographic", "shuffled", "unsorted-columns"])
    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("make", [make_tricky_dataset, make_ragged_dataset])
    @pytest.mark.parametrize("seed", range(2))
    def test_kernels_equal_plain_gather(self, seed, make, k, order):
        dataset = make(seed)
        context = CostContext(dataset, dataset.all_locations()[:9])
        rows = bound_rows(context.candidate_count, k, order, seed)
        for name, reference in plain_bounds(context, rows).items():
            assert_same_bits(getattr(context, name)(rows), reference)

    @pytest.mark.parametrize("where", ["below-all", "above-all", "at-a-row"])
    @pytest.mark.parametrize("make", [make_tricky_dataset, make_ragged_dataset])
    @pytest.mark.parametrize("seed", range(3))
    def test_cut_keeps_exact_bits_and_the_keep_mask(self, seed, make, where):
        # Enough points that rows drop at several of the 1st, 2nd, 4th,
        # 8th, ... visiting checkpoints.
        dataset = make(seed, n=12)
        context = CostContext(dataset, dataset.all_locations()[:10])
        rows = bound_rows(context.candidate_count, 3, "shuffled", seed)
        exact = context.subset_unassigned_lower_bounds(rows)
        cut = {
            "below-all": float(exact.min()) / 2,
            "above-all": float(exact.max()) + 1.0,
            "at-a-row": float(np.sort(exact)[exact.shape[0] // 3]),
        }[where]
        partial = context.subset_unassigned_lower_bounds(rows, cut=cut)
        keep = exact <= cut
        assert np.array_equal(partial <= cut, keep)
        assert np.all(partial <= exact)
        assert np.all(partial[~keep] > cut)
        assert_same_bits(partial[keep], exact[keep])
        if where == "above-all":
            assert_same_bits(partial, exact)

    def test_cut_keeps_bits_where_a_compacted_batch_would_not(self):
        # A BLAS dot product can round a column differently by its position
        # in the batch (a remainder block), so the same row's E[min] over a
        # batch of only the kept rows may differ in the last bit.  On this
        # instance (z=12) it does with OpenBLAS's Haswell kernels; the
        # kernel runs every dot product over the whole batch in the
        # original positions instead.
        dataset = make_tricky_dataset(2, n=30, z=12)
        context = CostContext(dataset, dataset.all_locations()[:20])
        rows = bound_rows(context.candidate_count, 3, "lexicographic", 2)
        rows = rows[np.random.default_rng(2).permutation(rows.shape[0])]
        exact = context.subset_unassigned_lower_bounds(rows)
        cut = float(np.quantile(exact, 0.8))
        partial = context.subset_unassigned_lower_bounds(rows, cut=cut)
        keep = exact <= cut
        assert np.array_equal(partial <= cut, keep)
        assert_same_bits(partial[keep], exact[keep])

    @pytest.mark.parametrize("make", [make_tricky_dataset, make_ragged_dataset])
    def test_tables_follow_replace_candidate_columns(self, make):
        dataset = make(2, n=8)
        candidates = dataset.all_locations()[:9]
        context = CostContext(dataset, candidates)
        rows = bound_rows(candidates.shape[0], 3, "lexicographic", 2)
        for name in plain_bounds(context, rows):
            getattr(context, name)(rows)  # builds the candidate-major tables
        context.replace_candidate_columns(np.array([1, 4]), candidates[[1, 4]] + 0.6)
        fresh = CostContext(dataset, context.candidates.copy())
        assert_same_bits(context.expected, fresh.expected)
        for name, reference in plain_bounds(context, rows).items():
            assert_same_bits(getattr(context, name)(rows), reference)
            assert_same_bits(getattr(context, name)(rows), getattr(fresh, name)(rows))
        cut = float(np.median(fresh.subset_unassigned_lower_bounds(rows)))
        assert_same_bits(
            context.subset_unassigned_lower_bounds(rows, cut=cut),
            fresh.subset_unassigned_lower_bounds(rows, cut=cut),
        )

    @pytest.mark.parametrize("make", [make_tricky_dataset, make_ragged_dataset])
    def test_streamed_splice_keeps_a_rebuilds_bits(self, make):
        # The test above pins the supports (the bound kernels do); a
        # streamed context that built only ``expected`` must match a fresh
        # one too, where dot products over the replaced columns alone
        # differ from a rebuild in the last bit.
        dataset = make(2, n=8)
        candidates = dataset.all_locations()[:9]
        context = CostContext(dataset, candidates, pin_supports=False)
        context.expected
        context.replace_candidate_columns(np.array([1, 4]), candidates[[1, 4]] + 0.6)
        fresh = CostContext(dataset, context.candidates.copy(), pin_supports=False)
        assert_same_bits(context.expected, fresh.expected)

    @pytest.mark.parametrize("make", [make_tricky_dataset, make_ragged_dataset])
    @pytest.mark.parametrize("seed", range(3))
    def test_level1_point_minima_feed_the_pair_kernel(self, seed, make):
        # Level 1 writes every point's E[min] of each row it keeps; the pair
        # kernel fed those columns gives its own first pass's bounds.
        dataset = make(seed, n=12)
        context = CostContext(dataset, dataset.all_locations()[:10])
        rows = bound_rows(context.candidate_count, 3, "shuffled", seed)
        cut = float(np.median(context.subset_unassigned_lower_bounds(rows)))
        point_minima = np.full((dataset.size, rows.shape[0]), np.nan)
        bounds = context.subset_unassigned_lower_bounds(rows, cut=cut, point_minima=point_minima)
        keep = bounds <= cut
        assert keep.any() and not keep.all()
        assert not np.isnan(point_minima[:, keep]).any()
        assert_same_bits(
            context.subset_pair_lower_bounds(rows[keep], point_minima=point_minima[:, keep]),
            context.subset_pair_lower_bounds(rows[keep]),
        )

    def test_tables_are_per_process(self):
        # Derived tables: never pickled, and building them does not change
        # what a shared-memory publication keys on.
        dataset = make_tricky_dataset(3, n=6)
        context = CostContext(dataset, dataset.all_locations()[:8])
        context.expected
        version = context.version
        rows = bound_rows(context.candidate_count, 2, "lexicographic", 3)
        bounds = context.subset_unassigned_lower_bounds(rows)
        context.subset_assigned_lower_bounds(rows)
        assert context.version == version
        loaded = pickle.loads(pickle.dumps(context))
        assert loaded._expected_by_candidate is None
        assert loaded._supports_by_candidate is None
        assert_same_bits(loaded.subset_unassigned_lower_bounds(rows), bounds)


def zero_count_sweep(
    sorted_values: np.ndarray, sorted_log_delta: np.ndarray, sorted_zero_delta: np.ndarray, n: int
) -> np.ndarray:
    """The sweep before first live positions: a zero-mass counter over every position."""
    cumulative_log = np.add.accumulate(sorted_log_delta, axis=1)
    zero_count = float(n) + np.add.accumulate(sorted_zero_delta, axis=1, dtype=float)
    cdf_of_max = np.where(zero_count < 0.5, np.exp(np.minimum(cumulative_log, 0.0)), 0.0)
    increments = cdf_of_max.copy()
    increments[:, 1:] -= cdf_of_max[:, :-1]
    expected = np.einsum("bt,bt->b", sorted_values, increments)
    expected += sorted_values[:, -1] * np.maximum(0.0, 1.0 - cdf_of_max[:, -1])
    return expected


def union_zero_deltas(values: np.ndarray, probabilities: np.ndarray, owners: np.ndarray) -> np.ndarray:
    """``-1`` where each variable first gets mass, in each row's stable union order."""
    order = np.argsort(values, axis=1, kind="stable")
    zero = np.zeros(values.shape)
    for row, row_order in enumerate(order):
        massive = np.flatnonzero(probabilities[row_order] > 0.0)
        first = np.unique(owners[row_order][massive], return_index=True)[1]
        zero[row, massive[first]] = -1.0
    return zero


def layout_values(context: CostContext, rows: np.ndarray, *, assigned: bool) -> np.ndarray:
    """``(B, N)`` values a kernel sweeps, in layout order: assigned columns or subset minima."""
    flat = np.concatenate(context.supports)
    if assigned:
        owners = context.dataset.location_layout().owners
        return flat[np.arange(flat.shape[0]), rows[:, owners]]
    return flat[:, rows].min(axis=2).T


class TestFirstLivePosition:
    """Each kernel's first live position is where today's zero-mass counter reaches 0.

    The zero-count sweep below is the one every kernel ran before: it folds
    a ``-1`` per variable's first mass over every position.  Swapping it in
    for a kernel's sweep, with the transitions of each row's stable union
    order, must give the kernel's costs bit for bit, and the kernel's first
    live positions must be where that counter reaches 0.
    """

    @staticmethod
    def through_zero_count(monkeypatch, module, kernel, zero: np.ndarray, n: int):
        """``kernel()`` with ``module``'s sweep swapped for :func:`zero_count_sweep`."""
        first_live: list[np.ndarray] = []

        def sweep(positions, values, sorted_log_delta, live):
            start = sum(block.shape[0] for block in first_live)
            first_live.append(live)
            return zero_count_sweep(
                values.take(positions), sorted_log_delta, zero[start : start + live.shape[0]], n
            )

        with monkeypatch.context() as patch:
            patch.setattr(module, "_sweep_rows_presorted", sweep)
            costs = kernel()
        return costs, np.concatenate(first_live)

    @staticmethod
    def counted_first_live(zero: np.ndarray, n: int) -> np.ndarray:
        zero_count = n + np.add.accumulate(zero, axis=1)
        return np.count_nonzero(zero_count >= 0.5, axis=1)

    @pytest.mark.parametrize("live", ["random", "from-zero", "never"])
    @pytest.mark.parametrize("seed", range(4))
    def test_sweep_equals_zero_count_sweep(self, seed, live):
        rng = np.random.default_rng(seed)
        batch, total = 9, int(rng.integers(1, 40))
        n = int(rng.integers(1, total + 1))
        values = np.sort(rng.integers(0, 6, size=(batch, total)).astype(float), axis=1)
        log_delta = np.log(rng.uniform(0.5, 1.0, size=(batch, total)))
        zero = np.zeros((batch, total))
        for row in zero:
            row[rng.choice(total, size=n, replace=False)] = -1.0
        if live == "from-zero":
            zero[:] = 0.0
            zero[:, 0] = -n
        elif live == "never":
            zero[np.arange(batch), zero.argmin(axis=1)] = 0.0  # one variable never gets mass
        first_live = self.counted_first_live(zero, n)
        positions = np.arange(batch * total).reshape(batch, total)
        assert_same_bits(
            expected_module._sweep_rows_presorted(positions, values.ravel(), log_delta, first_live),
            zero_count_sweep(values, log_delta, zero, n),
        )

    @pytest.mark.parametrize("make", [make_tricky_dataset, make_ragged_dataset])
    @pytest.mark.parametrize("seed", range(4))
    def test_assigned_merge(self, seed, make, monkeypatch):
        dataset = make(seed)
        context = CostContext(dataset, dataset.all_locations()[:7])
        rows = np.random.default_rng(seed).integers(0, 7, size=(40, dataset.size))
        evaluator = context.evaluator
        evaluator._ranked_entries()
        monkeypatch.setattr(expected_module, "RANK_MERGE_BLOCK_ENTRIES", 9 * len(dataset.all_locations()))
        layout = dataset.location_layout()
        zero = union_zero_deltas(
            layout_values(context, rows, assigned=True), layout.probabilities, layout.owners
        )
        today, first_live = self.through_zero_count(
            monkeypatch, expected_module, lambda: evaluator.costs(rows), zero, dataset.size
        )
        assert_same_bits(evaluator.costs(rows), today)
        assert np.array_equal(first_live, self.counted_first_live(zero, dataset.size))

    @pytest.mark.parametrize("make", [make_tricky_dataset, make_ragged_dataset])
    @pytest.mark.parametrize("seed", range(4))
    def test_unassigned_merge(self, seed, make, monkeypatch):
        dataset = make(seed)
        context = CostContext(dataset, dataset.all_locations()[:8])
        rows = np.asarray(list(combinations(range(8), 3)))
        monkeypatch.setattr(context_module, "RANK_MERGE_BLOCK_ENTRIES", 9 * len(dataset.all_locations()))
        layout = dataset.location_layout()
        zero = union_zero_deltas(
            layout_values(context, rows, assigned=False), layout.probabilities, layout.owners
        )
        today, first_live = self.through_zero_count(
            monkeypatch, context_module, lambda: context.unassigned_costs(rows), zero, dataset.size
        )
        assert_same_bits(context.unassigned_costs(rows), today)
        assert np.array_equal(first_live, self.counted_first_live(zero, dataset.size))

    @pytest.mark.parametrize("massless", [False, True], ids=["all-mass", "massless"])
    @pytest.mark.parametrize("points", [1, 2, 5])
    @pytest.mark.parametrize("seed", range(4))
    def test_expected_max_rows(self, seed, points, massless, monkeypatch):
        # Small integer values tie within and across variables, at first
        # mass too; a zeroed probability moves a variable's first mass off
        # its smallest entry; one variable is live from position 0.  A
        # variable with no mass at all leaves its rows no live position.
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 5, size=points)
        probabilities = np.concatenate([rng.dirichlet(np.ones(z)) for z in sizes])
        starts = np.cumsum(sizes)[:-1]
        for first, size in zip(np.r_[0, starts], sizes):
            if size > 1 and rng.random() < 0.7:
                probabilities[first + rng.integers(0, size)] = 0.0
        if massless:
            probabilities[: sizes[0]] = 0.0
        owners = np.repeat(np.arange(points), sizes)
        values = rng.integers(0, 4, size=(25, owners.shape[0])).astype(float)
        zero = union_zero_deltas(values, probabilities, owners)
        kernel = lambda: expected_module._expected_max_rows(values, probabilities, owners, starts)  # noqa: E731
        today, first_live = self.through_zero_count(monkeypatch, expected_module, kernel, zero, points)
        assert_same_bits(kernel(), today)
        assert np.array_equal(first_live, self.counted_first_live(zero, points))
        if massless:
            assert np.all(first_live == owners.shape[0])
        elif points == 1 and probabilities[0] > 0.0:
            assert np.all(first_live[values[:, 0] == values.min(axis=1)] == 0)

    def test_first_mass_table_rebuilds_and_is_never_pickled(self):
        dataset = make_tricky_dataset(4, n=6)
        candidates = dataset.all_locations()[:9]
        context = CostContext(dataset, candidates)
        rows = np.random.default_rng(4).integers(0, 9, size=(30, dataset.size))
        evaluator = context.evaluator
        payload = pickle.dumps(context, protocol=5)
        costs = context.assigned_costs(rows)
        table = evaluator._ranked_entries().first_mass
        assert pickle.dumps(context, protocol=5) == payload
        loaded = pickle.loads(payload)
        assert loaded.evaluator._rank_tables is None
        assert_same_bits(loaded.assigned_costs(rows), costs)
        assert np.array_equal(loaded.evaluator._ranked_entries().first_mass, table)
        context.replace_candidate_columns(np.array([0, 5]), candidates[[0, 5]] + 0.4)
        assert evaluator._rank_tables is None
        spliced = context.assigned_costs(rows)
        fresh = CostContext(dataset, context.candidates.copy())
        assert_same_bits(spliced, fresh.assigned_costs(rows))
        assert np.array_equal(
            evaluator._ranked_entries().first_mass, fresh.evaluator._ranked_entries().first_mass
        )


class TestCandidateScores:
    @pytest.mark.parametrize(
        "policy",
        [
            ExpectedDistanceAssignment(),
            ExpectedPointAssignment(),
            OneCenterAssignment(),
            NearestLocationAssignment(),
        ],
        ids=lambda policy: policy.name,
    )
    def test_argmin_of_scores_reproduces_assign(self, policy):
        dataset = make_tricky_dataset(7)
        centers = dataset.expected_points()[:3]
        scores = policy.candidate_scores(dataset, centers)
        assert scores is not None and scores.shape == (dataset.size, 3)
        np.testing.assert_array_equal(scores.argmin(axis=1), policy(dataset, centers))

    def test_optimal_assignment_is_black_box(self):
        dataset = make_tricky_dataset(8)
        centers = dataset.expected_points()[:2]
        assert OptimalAssignment().candidate_scores(dataset, centers) is None

    def test_optimal_assignment_rejects_mismatched_context(self):
        dataset = make_tricky_dataset(9)
        centers = dataset.expected_points()[:2]
        context = CostContext(dataset, dataset.all_locations())
        with pytest.raises(ValidationError):
            OptimalAssignment(context=context)(dataset, centers)

    def test_optimal_assignment_rejects_context_for_other_dataset(self):
        dataset_a = make_tricky_dataset(9)
        dataset_b = make_tricky_dataset(10)
        centers = dataset_a.expected_points()[:2]
        context = CostContext(dataset_a, centers)
        with pytest.raises(ValidationError):
            OptimalAssignment(context=context)(dataset_b, centers)


class TestLazyStructure:
    def test_streaming_context_never_pins_supports(self):
        dataset = make_tricky_dataset(12)
        candidates = dataset.all_locations()
        # The threshold-greedy shape: expected matrix + one final score over
        # a huge candidate set must not pin the (z_i, m) supports or the
        # per-candidate sorted columns.
        context = CostContext(dataset, candidates, pin_supports=False)
        matrix = context.expected
        assert matrix.shape == (dataset.size, candidates.shape[0])
        labels = matrix.argmin(axis=1)
        cost = context.assigned_cost(labels)
        assert context._supports is None and context._evaluator is None
        scratch = expected_cost_assigned(dataset, candidates[labels], np.arange(dataset.size))
        assert cost == pytest.approx(scratch, rel=RTOL, abs=ATOL)

    def test_default_context_pins_supports_once_for_expected(self):
        dataset = make_tricky_dataset(12)
        candidates = dataset.all_locations()
        context = CostContext(dataset, candidates)
        context.expected
        # Batch consumers read expected then score: the supports the matrix
        # derived from are pinned so the evaluator reuses the same pass.
        assert context._supports is not None

    def test_single_score_paths_agree_with_evaluator_path(self):
        dataset = make_tricky_dataset(13)
        candidates = dataset.all_locations()
        rng = np.random.default_rng(0)
        labels = rng.integers(0, candidates.shape[0], size=dataset.size)
        lazy = CostContext(dataset, candidates).assigned_cost(labels)
        eager = CostContext(dataset, candidates)
        eager.evaluator  # force the cached-columns path
        assert lazy == pytest.approx(eager.assigned_cost(labels), rel=RTOL, abs=ATOL)

    def test_single_score_validates_assignment(self):
        dataset = make_tricky_dataset(14)
        context = CostContext(dataset, dataset.all_locations())
        with pytest.raises(ValidationError):
            context.assigned_cost(np.zeros(dataset.size + 1, dtype=int))
        with pytest.raises(ValidationError):
            context.assigned_cost(np.full(dataset.size, 999))


class TestRefactoredLayersAgainstScratchEngine:
    """The bit-level differential suite: every refactored layer's reported
    cost must equal the scratch engine's score of its own output."""

    @pytest.mark.parametrize("seed", range(6))
    def test_guha_munagala_cost_is_scratch_cost(self, seed):
        dataset = make_tricky_dataset(seed, n=6, z=3)
        result = guha_munagala_baseline(dataset, 2)
        scratch = expected_cost_assigned(dataset, result.centers, result.assignment)
        assert result.expected_cost == pytest.approx(scratch, rel=RTOL, abs=ATOL)

    @pytest.mark.parametrize("seed", range(6))
    def test_polish_path_cost_is_scratch_cost(self, seed):
        dataset = make_tricky_dataset(seed, n=6, z=3)
        result = solve_unrestricted_assigned(dataset, 2, polish_assignment=True)
        scratch = expected_cost_assigned(dataset, result.centers, result.assignment)
        assert result.expected_cost == pytest.approx(scratch, rel=RTOL, abs=ATOL)
        unpolished = solve_unrestricted_assigned(dataset, 2, polish_assignment=False)
        assert result.expected_cost <= unpolished.expected_cost + ATOL

    @pytest.mark.parametrize("seed", range(3))
    def test_brute_force_restricted_policies_match_per_subset_loop(self, seed):
        dataset = make_tricky_dataset(seed, n=4, z=2)
        candidates = dataset.all_locations()[:6]
        for policy_type in (ExpectedDistanceAssignment, ExpectedPointAssignment):
            result = brute_force_restricted_assigned(
                dataset, 2, assignment=policy_type(), candidates=candidates
            )
            # Reference: the pre-refactor per-subset loop over scratch calls.
            from itertools import combinations

            best = np.inf
            for subset in combinations(range(candidates.shape[0]), 2):
                centers = candidates[list(subset)]
                labels = policy_type()(dataset, centers)
                best = min(best, expected_cost_assigned(dataset, centers, labels))
            assert result.expected_cost == pytest.approx(best, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_brute_force_unassigned_matches_per_subset_loop(self, seed):
        dataset = make_tricky_dataset(seed, n=4, z=2)
        candidates = dataset.all_locations()[:6]
        result = brute_force_unassigned(dataset, 2, candidates=candidates)
        from itertools import combinations

        best = np.inf
        for subset in combinations(range(candidates.shape[0]), 2):
            best = min(best, expected_cost_unassigned(dataset, candidates[list(subset)]))
        assert result.expected_cost == pytest.approx(best, rel=1e-9, abs=1e-9)

    def test_wang_zhang_cost_is_scratch_cost(self):
        dataset = make_tricky_dataset(11, n=5, z=2, dimension=1)
        result = wang_zhang_1d(dataset, 2)
        scratch = expected_cost_assigned(dataset, result.centers, result.assignment)
        assert result.expected_cost == pytest.approx(scratch, rel=1e-9, abs=1e-9)

    def test_assignment_ablation_rows_are_scratch_costs(self):
        # Re-run one ablation configuration and check each batched cost
        # equals the scratch engine's score of the same (centers, labels).
        settings = AblationSettings(trials=1, n=8, z=3, k=2)
        record = run_assignment_ablation(settings)
        from repro.deterministic.gonzalez import gonzalez_kcenter
        from repro.uncertain.reduction import reduce_dataset
        from repro.workloads.synthetic import gaussian_clusters

        dataset, spec = gaussian_clusters(n=settings.n, z=settings.z, dimension=2, seed=settings.seed + 50)
        representatives = reduce_dataset(dataset, "expected-point")
        centers = gonzalez_kcenter(representatives, settings.k, dataset.metric).centers
        row = next(r for r in record.rows if r.configuration == spec.describe())
        for policy in (
            ExpectedDistanceAssignment(),
            ExpectedPointAssignment(),
            OneCenterAssignment(),
            NearestLocationAssignment(),
        ):
            labels = policy(dataset, centers)
            scratch = expected_cost_assigned(dataset, centers, labels)
            measured = row.measured[f"cost_{policy.name.replace('-', '_')}"]
            assert measured == pytest.approx(scratch, rel=RTOL, abs=ATOL)
