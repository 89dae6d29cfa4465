"""Branch-and-bound pruning: exactness, determinism, and the counters.

The contract under test (see :mod:`repro.baselines.brute_force`): pruning
changes *which* rows pay the exact kernels, never the returned subset,
assignment, or cost — ``prune=True`` must be bit-identical to the
``prune=False`` exhaustive reference on every instance shape (ties,
zero-probability masses, ragged supports, ``k >= m`` clamping), at every
worker count, with shared memory on or off.  The admissibility of the bound
kernels (bound <= exact cost for every subset / assignment row) is what the
exactness proof rests on, so it gets its own differential suite; the
``evaluated_rows`` / ``pruned_rows`` counters are asserted to actually drop
on a seeded adversarial instance — pruning that never prunes would pass
every equality test.  The one subset chunk task's per-chunk top-k lists and
the greedy seed it scores are pinned against rows scored directly, and the
unrestricted reference's exact polish rule against plain product scans.
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb

import numpy as np
import pytest

from repro.assignments.policies import (
    ExpectedPointAssignment,
    NearestLocationAssignment,
    OptimalAssignment,
)
import repro.baselines.brute_force as brute_force
from repro.baselines.brute_force import (
    UNASSIGNED,
    _ExactAssignment,
    _greedy_seed_columns,
    _iter_subset_chunks,
    _seed_solution,
    _subset_chunk_task,
    _subset_rows,
    brute_force_restricted_assigned,
    brute_force_unassigned,
    brute_force_unrestricted_assigned,
)
from repro.bounds.lower_bounds import prune_margin
from repro.cost.context import DEFAULT_CHUNK_ROWS, CostContext
from repro.exceptions import ValidationError
from repro.metrics import EuclideanMetric
from repro.runtime import incumbent as incumbent_module
from repro.runtime import set_oversubscribe, shutdown_runtime
from repro.uncertain import UncertainDataset, UncertainPoint
from repro.workloads import gaussian_clusters


def make_tricky_dataset(
    seed: int, n: int = 6, z: int = 4, jitter: float = 0.8
) -> UncertainDataset:
    """Clustered instance with repeated locations and explicit zero masses."""
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(n):
        base = rng.normal(scale=4.0, size=2)
        locations = base + rng.normal(scale=jitter, size=(z, 2))
        if z > 1 and rng.random() < 0.5:
            locations[rng.integers(1, z)] = locations[0]  # exact ties
        probabilities = rng.dirichlet(np.ones(z))
        if z > 1 and rng.random() < 0.6:
            probabilities[rng.integers(0, z)] = 0.0  # zero-probability mass
            probabilities = probabilities / probabilities.sum()
        points.append(UncertainPoint(locations=locations, probabilities=probabilities))
    return UncertainDataset(points=tuple(points), metric=EuclideanMetric())


def make_ragged_dataset(seed: int, n: int = 6) -> UncertainDataset:
    """Points with different support sizes (exercises the grouped kernels)."""
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(n):
        z = int(rng.integers(1, 5))
        locations = rng.normal(scale=3.0, size=(z, 2))
        if z > 1 and rng.random() < 0.5:
            locations[z - 1] = locations[0]
        probabilities = rng.dirichlet(np.ones(z))
        if z > 1 and rng.random() < 0.5:
            probabilities[0] = 0.0
            probabilities = probabilities / probabilities.sum()
        points.append(UncertainPoint(locations=locations, probabilities=probabilities))
    return UncertainDataset(points=tuple(points), metric=EuclideanMetric())


def assert_same_result(pruned, reference):
    assert pruned.expected_cost == reference.expected_cost
    assert np.array_equal(pruned.centers, reference.centers)
    if reference.assignment is not None:
        assert np.array_equal(pruned.assignment, reference.assignment)
    assert pruned.metadata["requested_k"] == reference.metadata["requested_k"]
    assert pruned.metadata["effective_k"] == reference.metadata["effective_k"]


def assert_counter_invariants(result):
    metadata = result.metadata
    assert metadata["evaluated_rows"] + metadata["pruned_rows"] == metadata["total_rows"]
    assert metadata["evaluated_rows"] >= 1  # a winner was evaluated


class TestSubsetRows:
    """The enumeration's rows: every ``k``-subset, in ``combinations`` order."""

    def test_rows_equal_combinations(self):
        for m in range(1, 13):
            for k in range(1, m + 1):
                rows = _subset_rows(m, k)
                reference = np.asarray(list(combinations(range(m), k)))
                assert rows.dtype == reference.dtype and rows.flags.c_contiguous
                assert np.array_equal(rows, reference), (m, k)

    def test_chunks_are_consecutive_slices(self):
        chunks = list(_iter_subset_chunks(9, 4, chunk_rows=10))
        assert [chunk.shape[0] for chunk in chunks] == [10] * 12 + [6]
        assert np.array_equal(np.concatenate(chunks), _subset_rows(9, 4))

    def test_cap_raises_before_anything_is_allocated(self, monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated before the cap check")

        for name in ("arange", "repeat", "concatenate", "column_stack"):
            monkeypatch.setattr(np, name, no_allocation)
        with pytest.raises(ValidationError, match="cap is"):
            _subset_rows(400, 200)  # C(400, 200) rows could never be allocated
        monkeypatch.setattr(brute_force, "MAX_CENTER_SUBSETS", comb(10, 3) - 1)
        with pytest.raises(ValidationError, match="cap is"):
            _subset_rows(10, 3)


class TestBoundAdmissibility:
    """bound <= exact cost, row by row — the root of the exactness proof."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("make", [make_tricky_dataset, make_ragged_dataset])
    def test_subset_assigned_bound_below_every_rule(self, seed, make):
        dataset = make(seed)
        candidates = dataset.all_locations()[:10]
        context = CostContext(dataset, candidates)
        rng = np.random.default_rng(seed + 50)
        rows = np.stack(
            [rng.choice(candidates.shape[0], size=3, replace=False) for _ in range(12)]
        )
        bounds = context.subset_assigned_lower_bounds(rows)
        # The bound must sit below the cost of ANY assignment into the
        # subset, not just the cost-minimizing one.
        for scores_name in ("ed", "random"):
            if scores_name == "ed":
                assignments = context.ed_assignments(rows)
            else:
                local = rng.integers(0, rows.shape[1], size=(rows.shape[0], dataset.size))
                assignments = np.take_along_axis(rows, local, axis=1)
            costs = context.assigned_costs(assignments)
            slack = 1e-12 * np.maximum(1.0, np.abs(costs))
            assert np.all(bounds <= costs + slack), scores_name

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("make", [make_tricky_dataset, make_ragged_dataset])
    def test_subset_unassigned_bound_below_cost(self, seed, make):
        dataset = make(seed)
        candidates = dataset.all_locations()[:10]
        context = CostContext(dataset, candidates)
        rng = np.random.default_rng(seed + 60)
        rows = np.stack(
            [rng.choice(candidates.shape[0], size=3, replace=False) for _ in range(12)]
        )
        bounds = context.subset_unassigned_lower_bounds(rows)
        costs = context.unassigned_costs(rows)
        slack = 1e-12 * np.maximum(1.0, np.abs(costs))
        assert np.all(bounds <= costs + slack)

    @pytest.mark.parametrize("seed", range(4))
    def test_assignment_row_bound_below_cost(self, seed):
        dataset = make_tricky_dataset(seed)
        candidates = dataset.all_locations()[:8]
        context = CostContext(dataset, candidates)
        rng = np.random.default_rng(seed + 70)
        rows = rng.integers(0, candidates.shape[0], size=(16, dataset.size))
        bounds = context.assignment_lower_bounds(rows)
        costs = context.assigned_costs(rows)
        slack = 1e-12 * np.maximum(1.0, np.abs(costs))
        assert np.all(bounds <= costs + slack)


class TestDifferentialPrunedVsReference:
    """prune=True must be bit-identical to the prune=False reference."""

    @pytest.mark.parametrize("seed", range(8))
    def test_restricted_ed_randomized(self, seed):
        dataset = make_tricky_dataset(seed)
        reference = brute_force_restricted_assigned(dataset, 3, prune=False)
        pruned = brute_force_restricted_assigned(dataset, 3, prune=True)
        assert_same_result(pruned, reference)
        assert_counter_invariants(pruned)

    @pytest.mark.parametrize("seed", range(6))
    def test_restricted_ed_ragged(self, seed):
        dataset = make_ragged_dataset(seed)
        reference = brute_force_restricted_assigned(dataset, 2, prune=False)
        pruned = brute_force_restricted_assigned(dataset, 2, prune=True)
        assert_same_result(pruned, reference)

    @pytest.mark.parametrize(
        "policy_cls", [ExpectedPointAssignment, NearestLocationAssignment]
    )
    def test_restricted_score_policies(self, policy_cls):
        dataset = make_tricky_dataset(3)
        reference = brute_force_restricted_assigned(
            dataset, 2, assignment=policy_cls(), prune=False
        )
        pruned = brute_force_restricted_assigned(dataset, 2, assignment=policy_cls())
        assert_same_result(pruned, reference)

    def test_restricted_blackbox_policy(self):
        dataset = make_tricky_dataset(5)
        candidates = dataset.expected_points()
        reference = brute_force_restricted_assigned(
            dataset, 2, assignment=OptimalAssignment(), candidates=candidates, prune=False
        )
        pruned = brute_force_restricted_assigned(
            dataset, 2, assignment=OptimalAssignment(), candidates=candidates
        )
        assert_same_result(pruned, reference)
        assert_counter_invariants(pruned)

    @pytest.mark.parametrize("seed", range(6))
    def test_unassigned_randomized_and_ragged(self, seed):
        for make in (make_tricky_dataset, make_ragged_dataset):
            dataset = make(seed)
            reference = brute_force_unassigned(dataset, 2, prune=False)
            pruned = brute_force_unassigned(dataset, 2, prune=True)
            assert_same_result(pruned, reference)
            assert_counter_invariants(pruned)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("polish_top", [1, 3])
    def test_unrestricted_including_exhaustive_stage(self, seed, polish_top):
        dataset = make_tricky_dataset(seed, n=5, z=3)
        reference = brute_force_unrestricted_assigned(
            dataset, 2, polish_top=polish_top, prune=False
        )
        pruned = brute_force_unrestricted_assigned(dataset, 2, polish_top=polish_top)
        assert_same_result(pruned, reference)
        assert (
            pruned.metadata["exhaustive_assignment"]
            == reference.metadata["exhaustive_assignment"]
        )
        assert pruned.metadata["polished_subsets"] == reference.metadata["polished_subsets"]

    def test_unrestricted_local_search_branch(self):
        dataset = make_tricky_dataset(2, n=8, z=3)  # k^n too big -> polish branch
        reference = brute_force_unrestricted_assigned(
            dataset, 3, exhaustive_assignment=False, prune=False
        )
        pruned = brute_force_unrestricted_assigned(dataset, 3, exhaustive_assignment=False)
        assert_same_result(pruned, reference)

    def test_k_at_least_m_clamps_identically(self):
        dataset = make_tricky_dataset(1, n=3, z=2)
        candidates = dataset.expected_points()  # m = 3 < k
        for solver in (brute_force_restricted_assigned, brute_force_unassigned):
            reference = solver(dataset, 7, candidates=candidates, prune=False)
            pruned = solver(dataset, 7, candidates=candidates)
            assert_same_result(pruned, reference)
            assert pruned.metadata["effective_k"] == 3
            assert pruned.metadata["requested_k"] == 7

    @pytest.mark.parametrize("chunk_rows", [1, 7, 64])
    def test_chunk_rows_never_change_pruned_results(self, chunk_rows):
        dataset = make_tricky_dataset(4)
        reference = brute_force_restricted_assigned(dataset, 3, prune=False)
        pruned = brute_force_restricted_assigned(dataset, 3, chunk_rows=chunk_rows)
        assert_same_result(pruned, reference)


class TestPruningCounters:
    """The counters must prove rows were actually skipped."""

    def test_evaluated_rows_strictly_drop_on_adversarial_instance(self):
        # Clustered instance: most subsets miss a cluster entirely, so their
        # bounds sit far above the greedy seed's achieved cost.
        dataset, _ = gaussian_clusters(n=12, z=4, dimension=2, k_true=4, seed=9)
        candidates = dataset.all_locations()[:16]
        result = brute_force_restricted_assigned(dataset, 4, candidates=candidates)
        metadata = result.metadata
        assert metadata["prune"] is True
        assert metadata["pruned_rows"] > 0
        assert metadata["evaluated_rows"] < metadata["total_rows"]
        assert metadata["pruned_rows"] > metadata["total_rows"] // 2  # the bench contract
        assert_counter_invariants(result)

    def test_unpruned_reference_counts_full_enumeration(self):
        dataset = make_tricky_dataset(0)
        result = brute_force_restricted_assigned(dataset, 3, prune=False)
        assert result.metadata["prune"] is False
        assert result.metadata["pruned_rows"] == 0
        assert result.metadata["evaluated_rows"] == result.metadata["total_rows"]

    def test_serial_counts_are_deterministic(self):
        dataset = make_tricky_dataset(7)
        first = brute_force_restricted_assigned(dataset, 3)
        second = brute_force_restricted_assigned(dataset, 3)
        assert first.metadata["evaluated_rows"] == second.metadata["evaluated_rows"]
        assert first.metadata["pruned_rows"] == second.metadata["pruned_rows"]

    def test_unassigned_prunes_on_adversarial_instance(self):
        dataset, _ = gaussian_clusters(n=10, z=4, dimension=2, k_true=3, seed=9)
        candidates = dataset.all_locations()[:14]
        result = brute_force_unassigned(dataset, 3, candidates=candidates)
        assert result.metadata["pruned_rows"] > 0
        assert_counter_invariants(result)


class TestEachRowBoundedOnce:
    """Every subset row gets each bound at most once per solve.

    A plain search runs one map, whose chunks bound their own rows.  An
    anytime search's bound map hands each chunk its per-row level-1 values
    and the pair values its fold computed, so the scoring task never
    recomputes level 1 and runs the pair kernel only on survivors that lack
    one.  In a plain unassigned search the pair kernel also takes level 1's
    per-point ``E[min]`` of the rows it kept, so it never runs its own
    per-point pass.
    """

    LEVEL1 = ("subset_assigned_lower_bounds", "subset_unassigned_lower_bounds")

    @pytest.fixture()
    def counted(self, monkeypatch):
        """Rows passed to the level-1 and pair kernels, as tuples, and the
        pair rows whose per-point ``E[min]`` the pair kernel reduces itself."""
        level1: list[tuple[int, ...]] = []
        pair: list[tuple[int, ...]] = []
        own_pass: list[tuple[int, ...]] = []
        for name in (*self.LEVEL1, "subset_pair_lower_bounds"):
            original = getattr(CostContext, name)
            sink = pair if name == "subset_pair_lower_bounds" else level1

            def wrapped(self, subset_rows, _original=original, _sink=sink, **kwargs):
                rows = [tuple(row) for row in np.atleast_2d(subset_rows).tolist()]
                _sink.extend(rows)
                if _sink is pair and kwargs.get("point_minima") is None:
                    own_pass.extend(rows)
                return _original(self, subset_rows, **kwargs)

            monkeypatch.setattr(CostContext, name, wrapped)
        return level1, pair, own_pass

    @pytest.fixture(scope="class")
    def instance(self):
        dataset, _ = gaussian_clusters(n=12, z=4, dimension=2, k_true=4, seed=9)
        return dataset, dataset.all_locations()[:16]  # C(16, 4) = 1,820 rows

    @pytest.mark.parametrize(
        "solve",
        [
            lambda d, c, **kw: brute_force_restricted_assigned(d, 4, candidates=c, **kw),
            lambda d, c, **kw: brute_force_restricted_assigned(
                d, 4, candidates=c, assignment=NearestLocationAssignment(), **kw
            ),
            lambda d, c, **kw: brute_force_restricted_assigned(
                d, 4, candidates=c, assignment=OptimalAssignment(), **kw
            ),
            lambda d, c, **kw: brute_force_unassigned(d, 4, candidates=c, **kw),
        ],
        ids=["restricted-ed", "restricted-nearest", "restricted-blackbox", "unassigned"],
    )
    def test_subset_solves_bound_each_row_once(self, counted, instance, solve, request):
        dataset, candidates = instance
        level1, pair, own_pass = counted
        result = solve(dataset, candidates, chunk_rows=256)
        total = result.metadata["total_rows"]
        assert total == 1820
        assert result.metadata["pruned_rows"] > 0
        assert len(level1) == total
        assert sorted(level1) == sorted(set(level1))
        assert len(pair) == len(set(pair))
        if request.node.callspec.id == "unassigned":
            # Level 1 reduced every point of every row it kept.
            assert pair and not own_pass
        else:
            assert own_pass == pair
        reference = solve(dataset, candidates, prune=False)
        assert_same_result(result, reference)

    def test_unrestricted_subset_stage_bounds_each_row_once(self, counted):
        dataset, _ = gaussian_clusters(n=5, z=4, dimension=2, k_true=4, seed=9)
        candidates = dataset.all_locations()[:16]
        level1, pair, own_pass = counted
        result = brute_force_unrestricted_assigned(dataset, 4, candidates=candidates, chunk_rows=256)
        assert result.metadata["exhaustive_assignment"] is True
        assert result.metadata["pruned_rows"] > 0
        # One map in enumeration order: the first chunk runs under the
        # stage's infinite seed and bounds nothing, every later row once.
        # The polish is a subset search over the 8 top subsets, one chunk
        # under the stage-1 cost, which bounds those subsets again.
        polished = result.metadata["polished_subsets"]
        assert polished == 8
        stage, polish = level1[:-polished], level1[-polished:]
        first_chunk = set(list(combinations(range(16), 4))[:256])
        assert len(stage) == 1820 - 256
        assert sorted(stage) == sorted(set(stage))
        assert not first_chunk & set(stage)
        assert len(set(polish)) == polished
        assert len(pair) == len(set(pair))
        assert own_pass == pair  # black-box rules: the assigned level 1 has no E[min]

    @pytest.mark.parametrize("chunk_rows", [DEFAULT_CHUNK_ROWS, 256], ids=["1-chunk", "8-chunks"])
    def test_only_a_stop_runs_the_bound_map(self, counted, instance, monkeypatch, chunk_rows):
        import repro.baselines.brute_force as brute_force

        dataset, candidates = instance
        level1, pair, own_pass = counted
        calls = []
        for name in ("parallel_map", "parallel_map_ordered"):

            def counting_map(*args, _name=name, _original=getattr(brute_force, name), **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(brute_force, name, counting_map)
        for solver in (brute_force_restricted_assigned, brute_force_unassigned):
            del level1[:], own_pass[:]
            plain = solver(dataset, 4, candidates=candidates, chunk_rows=chunk_rows)
            assert plain.metadata["pruned_rows"] > 0
            assert calls == ["parallel_map_ordered"]  # one scoring map, no bound map
            assert len(level1) == 1820
            assert not own_pass
            calls.clear()
            for stop in ({"gap_target": 0.0}, {"time_budget": 600.0}):
                del level1[:], pair[:], own_pass[:]
                anytime = solver(dataset, 4, candidates=candidates, chunk_rows=chunk_rows, **stop)
                # The stop reads the chunk bounds before any chunk runs ...
                assert calls == ["parallel_map", "parallel_map_ordered"]
                assert len(level1) == 1820  # ... computed once, in the bound map
                # Level 1 ran in the bound map: the pair kernel keeps its own pass.
                assert own_pass == pair
                calls.clear()
                assert anytime.metadata["certificate"]["gap"] == 0.0
                assert anytime.metadata["deadline_hit"] is False
                assert anytime.metadata.get("gap_target_hit", False) is False
                assert_same_result(anytime, plain)


class TestSubsetChunkTask:
    """The one subset task: per-chunk top-k ranking and the seed it scores."""

    @pytest.mark.parametrize("top_k", [1, 3, 8])
    def test_chunk_top_k_merges_to_the_stable_ranking(self, top_k):
        dataset = make_tricky_dataset(5, n=5, z=3)
        # Every column twice: rows that swap a column for its twin cost
        # exactly the same, and 40-row chunks split such ties apart.
        locations = dataset.all_locations()[:7]
        context = CostContext(dataset, np.vstack([locations, locations]))
        rows = np.array(list(combinations(range(context.candidate_count), 3)))
        chunks = [rows[start : start + 40] for start in range(0, rows.shape[0], 40)]
        direct = context.assigned_costs(context.ed_assignments(rows))
        ranking = np.argsort(direct, kind="stable")
        cheapest = direct[ranking[0]]
        assert len({int(row) // 40 for row in np.flatnonzero(direct == cheapest)}) > 1

        payload = (context, None, top_k)
        tops = []
        for chunk in chunks:
            handle = incumbent_module.SerialIncumbent(np.inf)
            with incumbent_module.bound(handle):
                top, pruned, evaluated = _subset_chunk_task(payload, (chunk, None))
            assert (pruned, evaluated) == (0, chunk.shape[0])
            costs = context.assigned_costs(context.ed_assignments(chunk))
            order = np.argsort(costs, kind="stable")[:top_k]
            # (cost, row) order: the chunk's own stable ranking, head only.
            assert [cost for cost, _, _ in top] == costs[order].tolist()
            assert np.array_equal(np.array([subset for _, subset, _ in top]), chunk[order])
            # The chunk proposes its top_k-th cost, when it has top_k rows.
            expected_incumbent = costs[order[-1]] if chunk.shape[0] >= top_k else np.inf
            assert handle.value() == expected_incumbent
            tops.append(top)

        merged = sorted((row for top in tops for row in top), key=lambda row: row[0])[:top_k]
        assert [cost for cost, _, _ in merged] == direct[ranking[:top_k]].tolist()
        assert np.array_equal(np.array([subset for _, subset, _ in merged]), rows[ranking[:top_k]])
        assert np.array_equal(
            np.array([assignment for _, _, assignment in merged]),
            context.ed_assignments(rows[ranking[:top_k]]),
        )

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        "rule_name",
        ["expected-distance", "expected-point", "nearest", "optimal-local", "unassigned"],
    )
    def test_seed_is_the_task_row_bit_for_bit(self, seed, rule_name):
        dataset = make_tricky_dataset(seed)
        candidates = dataset.all_locations()[:9]
        context = CostContext(dataset, candidates)
        rule = {
            "expected-distance": None,
            "expected-point": ExpectedPointAssignment().candidate_scores(dataset, candidates),
            "nearest": NearestLocationAssignment().candidate_scores(dataset, candidates),
            "optimal-local": OptimalAssignment(),
            "unassigned": UNASSIGNED,
        }[rule_name]
        cost, columns, assignment = _seed_solution(context, rule, 3)
        item = (columns[None, :], None)
        top, pruned, evaluated = _subset_chunk_task((context, rule, 1), item)
        assert (pruned, evaluated) == (0, 1)
        ((row_cost, row_subset, row_assignment),) = top
        assert np.float64(row_cost).tobytes() == np.float64(cost).tobytes()
        assert np.array_equal(row_subset, columns)
        if rule_name == "unassigned":
            assert assignment is None and row_assignment is None
        else:
            assert np.array_equal(row_assignment, assignment)
            assert set(assignment.tolist()) <= set(columns.tolist())


class TestWorkersAndShm:
    """Determinism pinned at workers in {1, 2, 4} x shm on/off."""

    @pytest.fixture(autouse=True)
    def _pool_on_one_cpu(self):
        previous = set_oversubscribe(True)
        yield
        set_oversubscribe(previous)
        shutdown_runtime()

    @pytest.fixture(scope="class")
    def micro(self):
        dataset, _ = gaussian_clusters(n=7, z=3, dimension=2, k_true=3, seed=4)
        return dataset

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("shm", [True, False])
    def test_restricted_pruned_matrix(self, micro, workers, shm):
        reference = brute_force_restricted_assigned(micro, 3, prune=False)
        pruned = brute_force_restricted_assigned(
            micro, 3, workers=workers, shm=shm, chunk_rows=16
        )
        assert_same_result(pruned, reference)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("shm", [True, False])
    def test_unassigned_pruned_matrix(self, micro, workers, shm):
        reference = brute_force_unassigned(micro, 2, prune=False)
        pruned = brute_force_unassigned(micro, 2, workers=workers, shm=shm, chunk_rows=16)
        assert_same_result(pruned, reference)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("shm", [True, False])
    def test_unrestricted_pruned_matrix(self, micro, workers, shm):
        reference = brute_force_unrestricted_assigned(micro, 2, polish_top=3, prune=False)
        pruned = brute_force_unrestricted_assigned(
            micro, 2, polish_top=3, workers=workers, shm=shm, chunk_rows=16
        )
        assert_same_result(pruned, reference)

    @pytest.mark.parametrize(
        "solve",
        [
            lambda d, **kw: brute_force_restricted_assigned(d, 3, **kw),
            lambda d, **kw: brute_force_restricted_assigned(
                d, 3, assignment=NearestLocationAssignment(), **kw
            ),
            lambda d, **kw: brute_force_unassigned(d, 3, **kw),
            lambda d, **kw: brute_force_unrestricted_assigned(d, 2, polish_top=3, **kw),
            lambda d, **kw: brute_force_restricted_assigned(d, 3, gap_target=0.0, **kw),
            lambda d, **kw: brute_force_unassigned(d, 3, gap_target=0.0, **kw),
        ],
        ids=[
            "restricted-ed",
            "restricted-nearest",
            "unassigned",
            "unrestricted",
            "restricted-ed-gap-target",
            "unassigned-gap-target",
        ],
    )
    def test_bound_map_and_scoring_map_publish_the_context_once(
        self, micro, solve, monkeypatch
    ):
        import repro.runtime.shm as shm_module

        published = []
        original = shm_module.pack_arrays

        def counting_pack(arrays):
            # A context segment ends with the context's in-band pickle.
            published.append(b"CostContext" in bytes(arrays[-1]))
            return original(arrays)

        monkeypatch.setattr(shm_module, "pack_arrays", counting_pack)
        result = solve(micro, workers=2, shm=True, chunk_rows=16)
        assert result.metadata["pruned_rows"] > 0
        assert published.count(True) == 1

    def test_blackbox_pruned_under_workers(self, micro):
        candidates = micro.expected_points()
        reference = brute_force_restricted_assigned(
            micro, 2, assignment=OptimalAssignment(), candidates=candidates, prune=False
        )
        pruned = brute_force_restricted_assigned(
            micro,
            2,
            assignment=OptimalAssignment(),
            candidates=candidates,
            workers=2,
            chunk_rows=8,
        )
        assert_same_result(pruned, reference)


def _single_move_polish(context, columns, candidate_indices, max_rounds=10):
    """Single-point reassignment local search over ``columns`` (reference copy)."""
    evaluator = context.evaluator
    assignment = np.array(candidate_indices, dtype=int)
    sweep = evaluator.local_search_sweep(assignment)
    best_cost = sweep.cost()
    for _ in range(max_rounds):
        improved = False
        for point_index in range(assignment.shape[0]):
            original = int(assignment[point_index])
            costs = evaluator.move_costs(sweep.rest_profile(point_index), columns)
            winner = int(np.argmin(costs))
            tolerance = 1e-12 * max(1.0, abs(best_cost))
            if int(columns[winner]) != original and costs[winner] < best_cost - tolerance:
                sweep.apply_move(point_index, int(columns[winner]))
                assignment[point_index] = columns[winner]
                best_cost = float(costs[winner])
                improved = True
        if not improved:
            break
    return assignment


def _serial_polish_reference(dataset, k, candidates, *, polish_top, prune):
    """The unrestricted reference's local-search stage as a serial loop.

    Stage 1 ED-scores every subset; the pruned stage keeps the same
    ``polish_top`` cheapest subsets in the same order, ties in enumeration
    order.  The polish walks them in that order: a subset whose two-level
    bound exceeds a serial incumbent (seeded with the stage-1 winner's cost)
    is skipped, the others get the ED seed, ten rounds of single-move local
    search and an exact cost, which replaces the best only when strictly
    cheaper.  Returns ``(cost, subset, candidate_indices)``.
    """
    context = CostContext(dataset, candidates)
    rows = np.asarray(list(combinations(range(candidates.shape[0]), k)), dtype=int)
    seeds = context.ed_assignments(rows)
    costs = context.assigned_costs(seeds)
    top = np.argsort(costs, kind="stable")[:polish_top]
    best = (float(costs[top[0]]), rows[top[0]], seeds[top[0]])
    with incumbent_module.bound(incumbent_module.SerialIncumbent(best[0])) as handle:
        for index in top:
            columns = rows[index]
            if prune:
                threshold = handle.value()
                bound = float(context.subset_two_level_lower_bounds(columns[None, :])[0])
                if bound > threshold + prune_margin(threshold):
                    continue
            candidate_indices = _single_move_polish(
                context, columns, context.ed_assignment(columns)
            )
            cost = context.assigned_cost(candidate_indices)
            handle.propose(cost)
            if cost < best[0]:
                best = (cost, columns, candidate_indices)
    return best


class TestLocalSearchPolish:
    """The polish stage through the enumeration runner == the serial loop."""

    @pytest.fixture(autouse=True)
    def _pool_on_one_cpu(self):
        previous = set_oversubscribe(True)
        yield
        set_oversubscribe(previous)
        shutdown_runtime()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("prune", [True, False])
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_serial_polish_reference(self, seed, prune, workers):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(9, 14)), int(rng.integers(2, 4))
        # Supports wider than the cluster spacing: the polish beats the
        # stage-1 winner on all 10 instances, 6 times with another subset,
        # taken from each of the three polish chunks; one instance needs a
        # second round of moves.
        dataset = make_tricky_dataset(seed + 40, n=n, z=4, jitter=8.0)
        candidates = dataset.all_locations()[:10]
        result = brute_force_unrestricted_assigned(
            dataset,
            k,
            candidates=candidates,
            exhaustive_assignment=False,
            workers=workers,
            prune=prune,
            polish_top=12,
            chunk_rows=4,
        )
        cost, subset, candidate_indices = _serial_polish_reference(
            dataset, k, candidates, polish_top=12, prune=prune
        )
        assert result.expected_cost == cost
        assert np.array_equal(result.centers, candidates[subset])
        assert np.array_equal(result.assignment, np.searchsorted(subset, candidate_indices))
        assert result.assignment_policy == "optimal-local"
        # Stage-1 pruning counts are timing-dependent under workers; the
        # polish stage adds no rows to any counter.
        subset_total = comb(candidates.shape[0], k)
        subset_pruned = result.metadata["pruned_rows"]
        assert result.metadata == {
            "algorithm": "brute-force-unrestricted",
            "candidate_count": candidates.shape[0],
            "exhaustive_assignment": False,
            "polished_subsets": 12,
            "workers": workers,
            "requested_k": k,
            "effective_k": k,
            "prune": prune,
            "total_rows": subset_total,
            "evaluated_rows": subset_total - subset_pruned,
            "pruned_rows": subset_pruned,
        }
        assert prune or subset_pruned == 0


def _product_scan(context, columns, threshold=np.inf):
    """First cheapest assignment into ``columns`` by a plain product scan.

    Scans ``itertools.product(columns, repeat=n)`` and keeps the assignments
    whose every point's expected distance is within ``threshold`` plus its
    margin.  Returns ``(cost, assignment)``, or ``None`` when none is kept.
    """
    rows = np.asarray(list(product(columns.tolist(), repeat=context.size)), dtype=int)
    cut = threshold + prune_margin(threshold)
    rows = rows[context.expected[np.arange(context.size), rows].max(axis=1) <= cut]
    if rows.shape[0] == 0:
        return None
    costs = context.assigned_costs(rows)
    winner = int(np.argmin(costs))
    return costs[winner], rows[winner]


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


class TestExactAssignment:
    """The exact polish rule and the forced-exact reference against product scans."""

    @pytest.fixture(scope="class")
    def instance(self):
        dataset, _ = gaussian_clusters(n=5, z=3, dimension=2, k_true=3, seed=2)
        candidates = dataset.all_locations()[:7]
        rows = np.asarray(list(combinations(range(candidates.shape[0]), 3)), dtype=int)
        return CostContext(dataset, candidates), rows

    def test_no_incumbent_scans_the_whole_product(self, instance):
        context, rows = instance
        assert incumbent_module.active() is None
        assignments = _ExactAssignment().chunk_assignments(context, rows)
        costs = context.assigned_costs(assignments)
        for row, columns in enumerate(rows):
            cost, assignment = _product_scan(context, columns)
            assert np.array_equal(assignments[row], assignment)
            assert _bits(costs[row]) == _bits(cost)

    @pytest.mark.parametrize("position", ["below-every-bound", "below", "at", "above"])
    def test_incumbent_cuts_only_assignments_that_cannot_win(self, instance, position):
        context, rows = instance
        cut_below_optimum = 0
        for columns in rows:
            optimum, optimal = _product_scan(context, columns)
            # No assignment into the subset has a smaller row bound.
            level1 = context.subset_assigned_lower_bounds(columns[None, :])[0]
            threshold = {
                "below-every-bound": 0.99 * level1,
                "below": 0.5 * (level1 + optimum),
                "at": optimum,
                "above": 1.1 * optimum,
            }[position]
            handle = incumbent_module.SerialIncumbent(threshold)
            with incumbent_module.bound(handle):
                (assignment,) = _ExactAssignment().chunk_assignments(context, columns[None, :])
            cost = context.assigned_costs(assignment[None, :])[0]
            kept = _product_scan(context, columns, threshold)
            assert (kept is None) == (position == "below-every-bound")
            if kept is None:
                # Nothing within the incumbent: the row keeps its ED
                # assignment, which costs more than the incumbent.
                assert np.array_equal(assignment, context.ed_assignment(columns))
                assert cost > threshold
                assert handle.value() == threshold
                continue
            assert np.array_equal(assignment, kept[1])
            assert _bits(cost) == _bits(kept[0])
            assert handle.value() == min(threshold, cost)
            if threshold < optimum:
                cut_below_optimum += 1
                assert cost > threshold
            else:
                # The optimum is within the incumbent, so it is found exactly.
                assert np.array_equal(assignment, optimal)
                assert _bits(cost) == _bits(optimum)
        # A subset whose optimum is its level-1 bound puts "below" at it.
        assert (cut_below_optimum > 0) == (position == "below")

    @pytest.fixture()
    def _pool_on_one_cpu(self):
        previous = set_oversubscribe(True)
        yield
        set_oversubscribe(previous)
        shutdown_runtime()

    @pytest.mark.usefixtures("_pool_on_one_cpu")
    @pytest.mark.parametrize(
        "workers, shm", [(1, None), (2, True), (2, False)], ids=["serial", "shm", "pickled"]
    )
    def test_forced_exact_reference_equals_full_scan(self, instance, workers, shm):
        context, rows = instance
        dataset, candidates = context.dataset, context.candidates
        best = None
        for columns in rows:
            cost, assignment = _product_scan(context, columns)
            if best is None or cost < best[0]:
                best = (cost, assignment)
        result = brute_force_unrestricted_assigned(
            dataset,
            3,
            candidates=candidates,
            polish_top=10_000,
            exhaustive_assignment=True,
            workers=workers,
            shm=shm,
            chunk_rows=8,
        )
        assert result.assignment_policy == "exhaustive"
        assert result.metadata["polished_subsets"] == rows.shape[0]
        assert _bits(result.expected_cost) == _bits(best[0])
        # Subsets that differ only in an unused center tie exactly; each
        # point's center is what the optimum pins.
        assert np.array_equal(result.centers[result.assignment], candidates[best[1]])


class TestIncumbentMachinery:
    def test_serial_incumbent_keeps_minimum(self):
        handle = incumbent_module.SerialIncumbent(10.0)
        assert handle.value() == 10.0
        handle.propose(12.0)
        assert handle.value() == 10.0
        handle.propose(4.0)
        assert handle.value() == 4.0

    def test_serial_incumbent_context_restores_previous(self):
        with incumbent_module.bound(incumbent_module.SerialIncumbent(5.0)) as outer:
            assert incumbent_module.active() is outer
            with incumbent_module.bound(incumbent_module.SerialIncumbent(2.0)) as inner:
                assert incumbent_module.active() is inner
            assert incumbent_module.active() is outer
        assert incumbent_module.active() is None

    def test_greedy_seed_columns_distinct_and_sorted(self):
        dataset = make_tricky_dataset(0)
        context = CostContext(dataset, dataset.all_locations()[:9])
        columns = _greedy_seed_columns(context, 4)
        assert columns.shape == (4,)
        assert np.unique(columns).shape == (4,)
        assert np.all(np.diff(columns) > 0)

    def test_prune_margin_scales_with_threshold(self):
        assert prune_margin(0.0) == pytest.approx(1e-9)
        assert prune_margin(1e6) == pytest.approx(1e-3)
