"""Best-first anytime branch-and-bound (PR 10): bounds, schedule, certificates.

Three contracts under test:

* **Pair-bound admissibility** — the second-level subset bound
  (:meth:`~repro.cost.context.CostContext.subset_pair_lower_bounds`, the
  two-point max of per-point expected minima) sits below the exact cost of
  every subset row under *both* objectives, on instances with exact
  location ties, zero-probability masses and ragged support sizes; the
  two-level max dominates the unassigned first level; the prefix-factored
  bound kernels are bit-identical to the plain ``matrix[:, rows]`` gather
  for any row order; and the per-chunk bound task's lazy fold matches the
  eager per-row pass it replaces.
* **Schedule independence** — best-first submission (``gap_target=0``
  engages the full priority machinery without permitting early stops)
  returns bit-identical results to plain submission-order pruning and to
  the ``prune=False`` exhaustive reference, at workers in {1, 2, 4} with
  shared memory on and off.
* **Certificate soundness** — the ``(cost, lower_bound, gap)`` metadata
  satisfies ``lower_bound <= C* <= cost`` whenever a gap target or
  deadline truncates the run, including under ``crash:p=0.1`` fault
  injection, and ``gap_target_hit`` implies the certified gap met the
  request.  The HTTP surface forwards ``gap_target`` and counts the stop.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from repro import faults
from repro.assignments.policies import (
    ExpectedDistanceAssignment,
    NearestLocationAssignment,
    OptimalAssignment,
)
from repro.baselines.brute_force import (
    UNASSIGNED,
    _best_first_order,
    _check_stops,
    _subset_bound_task,
    brute_force_restricted_assigned,
    brute_force_unassigned,
)
from repro.cost.context import CostContext
from repro.runtime import parallel_map, set_oversubscribe, shutdown_runtime
from repro.serve import ReproServer, ServeClient, ServeConfig, ServeError
from repro.exceptions import ValidationError
from repro.workloads import gaussian_clusters

from test_bruteforce_pruning import (
    assert_same_result,
    make_ragged_dataset,
    make_tricky_dataset,
)


@pytest.fixture(autouse=True)
def _real_pools_and_clean_faults():
    """Real pools on 1-CPU boxes; restore the ambient fault config."""
    previous_faults = faults.enabled_spec()
    previous_oversubscribe = set_oversubscribe(True)
    yield
    set_oversubscribe(previous_oversubscribe)
    faults.set_enabled(previous_faults or None)
    shutdown_runtime()


def random_subset_rows(candidates: int, kk: int, batch: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.stack(
        [rng.choice(candidates, size=kk, replace=False) for _ in range(batch)]
    )


def plain_minima(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The reference gather the prefix-factored kernels must reproduce."""
    return matrix[:, rows].min(axis=2)


def plain_bounds(context: CostContext, rows: np.ndarray) -> dict[str, np.ndarray]:
    """The three subset bound kernels, written over :func:`plain_minima`."""
    supports, weights = context.supports, context.probabilities
    unassigned = np.full(rows.shape[0], -np.inf)
    for support, weight in zip(supports, weights):
        unassigned = np.maximum(unassigned, weight @ plain_minima(support, rows))
    n = context.size
    pair = np.zeros(rows.shape[0])
    if n >= 2 and rows.shape[0]:
        minima = np.stack([weight @ plain_minima(s, rows) for s, weight in zip(supports, weights)])
        top_two = np.argpartition(minima, n - 2, axis=0)[n - 2 :]
        keys = np.minimum(top_two[0], top_two[1]) * n + np.maximum(top_two[0], top_two[1])
        for key in np.unique(keys):
            mask = keys == key
            i, j = divmod(int(key), n)
            joint = np.maximum(
                plain_minima(supports[i], rows[mask])[:, None, :],
                plain_minima(supports[j], rows[mask])[None, :, :],
            )
            pair[mask] = np.einsum("i,j,ijb->b", weights[i], weights[j], joint)
    return {
        "subset_assigned_lower_bounds": plain_minima(context.expected, rows).max(axis=0),
        "subset_unassigned_lower_bounds": unassigned,
        "subset_pair_lower_bounds": pair,
    }


def factoring_rows(shape: str, candidates: int, seed: int) -> np.ndarray:
    """Row batches that exercise the prefix runs: long, none, repeated, degenerate."""
    rng = np.random.default_rng(seed + 1000)
    lexicographic = np.asarray(list(combinations(range(candidates), 3)))
    if shape == "lexicographic":
        return lexicographic
    if shape == "shuffled":
        return lexicographic[rng.permutation(lexicographic.shape[0])]
    if shape == "repeated":
        return np.repeat(lexicographic[::7], 3, axis=0)
    if shape == "unsorted-columns":
        return random_subset_rows(candidates, 3, 40, seed + 1000)
    if shape == "kk=1":
        return np.arange(candidates)[:, None]
    if shape == "kk=m":
        return np.stack([np.arange(candidates), rng.permutation(candidates)])
    assert shape == "empty"
    return np.empty((0, 3), dtype=int)


class TestPairBoundAdmissibility:
    """Second-level bound <= exact cost, on every adversarial instance shape."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("make", [make_tricky_dataset, make_ragged_dataset])
    def test_pair_bound_below_unassigned_cost(self, seed, make):
        dataset = make(seed)
        candidates = dataset.all_locations()[:10]
        context = CostContext(dataset, candidates)
        rows = random_subset_rows(candidates.shape[0], 3, 12, seed + 500)
        bounds = context.subset_pair_lower_bounds(rows)
        costs = context.unassigned_costs(rows)
        slack = 1e-12 * np.maximum(1.0, np.abs(costs))
        assert np.all(bounds <= costs + slack)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("make", [make_tricky_dataset, make_ragged_dataset])
    def test_pair_bound_below_every_assignment_rule(self, seed, make):
        dataset = make(seed)
        candidates = dataset.all_locations()[:10]
        context = CostContext(dataset, candidates)
        rng = np.random.default_rng(seed + 600)
        rows = random_subset_rows(candidates.shape[0], 3, 12, seed + 600)
        bounds = context.subset_pair_lower_bounds(rows)
        # ED assignments and adversarial random assignments both dominate.
        for assignments in (
            context.ed_assignments(rows),
            np.take_along_axis(
                rows, rng.integers(0, rows.shape[1], size=(rows.shape[0], dataset.size)), axis=1
            ),
        ):
            costs = context.assigned_costs(assignments)
            slack = 1e-12 * np.maximum(1.0, np.abs(costs))
            assert np.all(bounds <= costs + slack)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("objective", ["assigned", "unassigned"])
    def test_two_level_dominates_its_levels(self, seed, objective):
        dataset = make_tricky_dataset(seed)
        candidates = dataset.all_locations()[:10]
        context = CostContext(dataset, candidates)
        rows = random_subset_rows(candidates.shape[0], 3, 16, seed + 700)
        two_level = context.subset_two_level_lower_bounds(rows, objective=objective)
        pair = context.subset_pair_lower_bounds(rows)
        level1 = (
            context.subset_assigned_lower_bounds(rows)
            if objective == "assigned"
            else context.subset_unassigned_lower_bounds(rows)
        )
        assert np.array_equal(two_level, np.maximum(level1, pair))
        if objective == "unassigned":
            # Jensen: E[max(Y, Z)] >= max(E[Y], E[Z]) — the pair bound
            # always dominates the unassigned first level.
            assert np.all(pair >= level1 - 1e-12 * np.maximum(1.0, np.abs(level1)))

    def test_pair_bound_degenerate_single_point(self):
        dataset = make_tricky_dataset(0, n=1, z=3)
        candidates = dataset.all_locations()[:3]
        context = CostContext(dataset, candidates)
        rows = np.array([[0, 1], [1, 2]])
        # n < 2: no pair exists, the bound degrades to the trivial zero.
        assert np.array_equal(context.subset_pair_lower_bounds(rows), np.zeros(2))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("make", [make_tricky_dataset, make_ragged_dataset])
    @pytest.mark.parametrize(
        "shape",
        ["lexicographic", "shuffled", "repeated", "unsorted-columns", "kk=1", "kk=m", "empty"],
    )
    def test_factored_kernels_equal_plain_gather(self, seed, make, shape):
        dataset = make(seed)
        candidates = dataset.all_locations()[:10]
        context = CostContext(dataset, candidates)
        rows = factoring_rows(shape, candidates.shape[0], seed)
        for name, reference in plain_bounds(context, rows).items():
            factored = getattr(context, name)(rows)
            assert factored.shape == (rows.shape[0],), name
            assert np.array_equal(factored, reference), name

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("make", [make_tricky_dataset, make_ragged_dataset])
    @pytest.mark.parametrize("objective", ["assigned", "unassigned"])
    def test_lazy_chunk_fold_matches_eager_pass(self, seed, make, objective):
        dataset = make(seed, n=5)
        candidates = dataset.all_locations()[:8]
        context = CostContext(dataset, candidates)
        rows = random_subset_rows(candidates.shape[0], 3, 40, seed + 800)
        # Ragged chunk sizes, including singletons.
        chunks = [rows[:1], rows[1:14], rows[14:15], rows[15:]]
        task = _subset_bound_task
        level1_kernel = (
            context.subset_assigned_lower_bounds
            if objective == "assigned"
            else context.subset_unassigned_lower_bounds
        )
        # The one bound task reads the objective from the search's rule.
        rule = None if objective == "assigned" else UNASSIGNED
        payload = (context, rule, 1)
        lazy = [task(payload, chunk) for chunk in chunks]
        eager = [
            float(context.subset_two_level_lower_bounds(chunk, objective=objective).min())
            for chunk in chunks
        ]
        # Same mathematical value; the fold evaluates pair bounds in other
        # batches than the eager pass, which may shift a BLAS reduction
        # order by an ulp (absorbed by the prune margins), so the
        # comparison is ulp-close, not bitwise.
        np.testing.assert_allclose([bound for bound, _ in lazy], eager, rtol=1e-12, atol=0.0)
        for chunk, (_, (level1, pair)) in zip(chunks, lazy):
            # The per-row level-1 values the task ships are the kernel's.
            assert np.array_equal(level1, level1_kernel(chunk))
            assert pair.shape == level1.shape and not np.isnan(pair).all()
        # ... and the task is deterministic call over call, which is what
        # the det sanitizer holds the schedule to.
        for (bound, row_bounds), (again, row_bounds_again) in zip(
            lazy, [task(payload, chunk) for chunk in chunks]
        ):
            assert bound == again
            assert np.array_equal(row_bounds, row_bounds_again, equal_nan=True)
        # The bound map the runner submits gives identical chunk bounds in
        # the parent and across the pool.
        serial = parallel_map(task, chunks, payload=payload, workers=1)
        pooled = parallel_map(task, chunks, payload=payload, workers=2)
        assert [bound for bound, _ in serial] == [bound for bound, _ in lazy]
        assert [bound for bound, _ in pooled] == [bound for bound, _ in serial]
        for (_, serial_rows), (_, pooled_rows) in zip(serial, pooled):
            assert np.array_equal(serial_rows, pooled_rows, equal_nan=True)

    def test_best_first_order_is_ascending_and_tie_stable(self):
        assert _best_first_order([3.0, 1.0, 2.0, 1.0]) == [1, 3, 2, 0]
        assert _best_first_order([]) == []


class TestBestFirstBitIdentity:
    """The schedule is a performance detail: results never depend on it."""

    @pytest.fixture(scope="class")
    def micro(self):
        # A 10-candidate pool keeps each solve at C(10, 3) = 120 rows so
        # the whole matrix stays cheap under the chaos job's crash:p=0.1
        # retry amplification on small CI boxes.
        dataset, _ = gaussian_clusters(n=7, z=3, dimension=2, k_true=3, seed=4)
        return dataset, dataset.all_locations()[:10]

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("shm", [True, False])
    def test_restricted_best_first_matrix(self, micro, workers, shm):
        dataset, candidates = micro
        reference = brute_force_restricted_assigned(
            dataset, 3, candidates=candidates, prune=False
        )
        plain = brute_force_restricted_assigned(
            dataset, 3, candidates=candidates, workers=workers, shm=shm, chunk_rows=16
        )
        best_first = brute_force_restricted_assigned(
            dataset,
            3,
            candidates=candidates,
            workers=workers,
            shm=shm,
            chunk_rows=16,
            gap_target=0.0,
        )
        assert_same_result(plain, reference)
        assert_same_result(best_first, reference)
        assert best_first.metadata["gap_target_hit"] is False
        assert best_first.metadata["chunks_completed"] == best_first.metadata["chunks_total"]

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("shm", [True, False])
    def test_unassigned_best_first_matrix(self, micro, workers, shm):
        dataset, candidates = micro
        reference = brute_force_unassigned(dataset, 2, candidates=candidates, prune=False)
        best_first = brute_force_unassigned(
            dataset,
            2,
            candidates=candidates,
            workers=workers,
            shm=shm,
            chunk_rows=16,
            gap_target=0.0,
        )
        assert_same_result(best_first, reference)
        assert best_first.metadata["gap_target_hit"] is False

    def test_gap_target_requires_prune(self, micro):
        dataset, candidates = micro
        with pytest.raises(ValidationError):
            brute_force_restricted_assigned(
                dataset, 2, candidates=candidates, prune=False, gap_target=0.1
            )
        with pytest.raises(ValidationError):
            brute_force_unassigned(
                dataset, 2, candidates=candidates, prune=False, gap_target=0.1
            )

    def test_time_budget_requires_prune(self, micro):
        dataset, candidates = micro
        for solver in (brute_force_restricted_assigned, brute_force_unassigned):
            with pytest.raises(ValidationError, match="prune=True"):
                solver(dataset, 2, candidates=candidates, prune=False, time_budget=1.0)

    def test_gap_target_validation(self):
        assert _check_stops(None, None, False) is None
        assert _check_stops(1.0, None, True) is None
        assert _check_stops(None, 0.0, True) == 0.0
        with pytest.raises(ValidationError):
            _check_stops(None, -0.5, True)
        with pytest.raises(ValidationError):
            _check_stops(None, float("nan"), True)


class TestGapCertificateSoundness:
    """lower_bound <= C* <= cost — also when workers crash mid-solve."""

    @pytest.fixture(scope="class")
    def instance(self):
        dataset, _ = gaussian_clusters(n=9, z=3, dimension=2, k_true=3, seed=6)
        candidates = dataset.all_locations()[:12]
        reference = brute_force_restricted_assigned(
            dataset, 3, candidates=candidates, prune=False
        )
        return dataset, candidates, reference

    def assert_sound_certificate(self, result, reference, gap_target):
        certificate = result.metadata["certificate"]
        optimum = reference.expected_cost
        slack = 1e-12 * max(1.0, abs(optimum))
        assert certificate["cost"] == result.expected_cost
        assert certificate["lower_bound"] <= optimum + slack
        assert result.expected_cost >= optimum - slack
        if result.metadata["gap_target_hit"]:
            assert certificate["gap"] <= gap_target

    @pytest.mark.parametrize("gap_target", [0.0, 0.05, 0.5, 10.0])
    def test_certificate_sound_at_every_target(self, instance, gap_target):
        dataset, candidates, reference = instance
        result = brute_force_restricted_assigned(
            dataset, 3, candidates=candidates, chunk_rows=8, gap_target=gap_target
        )
        self.assert_sound_certificate(result, reference, gap_target)
        if gap_target == 0.0:
            # Zero gap can only certify at full completion: bit-identity.
            assert_same_result(result, reference)
            assert result.metadata["gap_target_hit"] is False

    @pytest.mark.parametrize("workers", [2, 4])
    def test_certificate_sound_under_crash_faults(self, instance, workers):
        dataset, candidates, reference = instance
        faults.set_enabled(faults.parse_spec("crash:p=0.1"))
        try:
            result = brute_force_restricted_assigned(
                dataset, 3, candidates=candidates, workers=workers, chunk_rows=8, gap_target=0.3
            )
        finally:
            faults.set_enabled(None)
        self.assert_sound_certificate(result, reference, 0.3)

    def test_loose_target_stops_early_with_certificate(self, instance):
        dataset, candidates, reference = instance
        result = brute_force_restricted_assigned(
            dataset, 3, candidates=candidates, chunk_rows=4, gap_target=10.0
        )
        # A 1000% gap is certified before the enumeration finishes on any
        # non-degenerate instance; the run must say so and stay sound.
        assert result.metadata["gap_target_hit"] is True
        assert result.metadata["chunks_completed"] < result.metadata["chunks_total"]
        self.assert_sound_certificate(result, reference, 10.0)


class TestChunkAssignments:
    """Batched black-box assignments == the per-subset loop they replace."""

    @pytest.mark.parametrize(
        "policy",
        [
            ExpectedDistanceAssignment(),
            NearestLocationAssignment(),
            OptimalAssignment(),  # 20 rounds
            OptimalAssignment(max_rounds=10),  # the unrestricted reference's polish
            OptimalAssignment(max_rounds=1),
        ],
        ids=[
            "ExpectedDistanceAssignment",
            "NearestLocationAssignment",
            "OptimalAssignment",
            "OptimalAssignment-10-rounds",
            "OptimalAssignment-1-round",
        ],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_chunk_matches_per_subset_assign(self, policy, seed):
        dataset = make_tricky_dataset(seed, n=5, z=3)
        candidates = dataset.all_locations()[:8]
        context = CostContext(dataset, candidates)
        rows = random_subset_rows(candidates.shape[0], 3, 10, seed + 900)
        batched = policy.chunk_assignments(context, rows)
        assert batched.shape == (rows.shape[0], dataset.size)
        for b in range(rows.shape[0]):
            local = policy.assign(dataset, candidates[rows[b]])
            assert np.array_equal(batched[b], rows[b][local])


class TestServeGapTarget:
    """The HTTP surface forwards gap_target and counts certified stops."""

    @pytest.fixture()
    def server(self):
        instance = ReproServer(ServeConfig(port=0, max_inflight=4))
        instance.start()
        yield instance
        instance.stop()

    @pytest.fixture()
    def client(self, server):
        return ServeClient(server.url, max_retries=2, timeout=30.0)

    def _dataset(self):
        dataset, _ = gaussian_clusters(n=8, z=3, dimension=2, k_true=2, seed=0)
        return dataset

    def test_gap_target_roundtrip_and_stats(self, client):
        dataset = self._dataset()
        exact = client.solve(dataset, 2, objective="restricted")
        loose = client.solve(dataset, 2, objective="restricted", gap_target=10.0)
        assert exact["gap_target_hit"] is False
        assert loose["gap_target_hit"] is True
        certificate = loose["metadata"]["certificate"]
        assert certificate["lower_bound"] <= exact["expected_cost"]
        assert loose["expected_cost"] >= exact["expected_cost"]
        assert client.stats()["gap_target_stops"] >= 1

    def test_zero_gap_target_is_bit_identical(self, client):
        dataset = self._dataset()
        exact = client.solve(dataset, 2, objective="restricted")
        certified = client.solve(dataset, 2, objective="restricted", gap_target=0.0)
        assert certified["expected_cost"] == exact["expected_cost"]
        assert certified["centers"] == exact["centers"]
        assert certified["gap_target_hit"] is False

    @pytest.mark.parametrize("bad", [-0.1, float("nan"), True, "half"])
    def test_invalid_gap_target_is_400(self, client, bad):
        dataset = self._dataset()
        payload = {"dataset": dataset.to_dict(), "k": 2, "gap_target": bad}
        with pytest.raises(ServeError) as outcome:
            client.request("POST", "/v1/solve", payload)
        assert outcome.value.status == 400
