"""Shared incremental cost-evaluation service for one (dataset, candidates) pair.

Every solver layer that scores more than one candidate configuration —
local-search assignment polish, threshold-greedy baselines, coordinate
descent, brute-force subset enumeration, the experiment sweeps — needs the
same ingredients: per-point distance supports to a fixed candidate set,
expected distances, and the exact ``E[max]`` kernel's per-candidate sorted
CDF columns.  Before this module each layer rebuilt (and often re-sorted)
those from scratch per candidate configuration via
:func:`repro.cost.expected.expected_cost_assigned`.

:class:`CostContext` is built **once per (dataset, candidate-centers) pair**
and caches:

* ``supports[i]`` — the ``(z_i, m)`` distance matrix from point ``i``'s
  locations to every candidate (pinned lazily on first batch use, then one
  metric call per point, ever);
* ``expected`` — the ``(n, m)`` expected-distance matrix (the ED assignment
  rule and the threshold-greedy baseline both argmin over it);
* the lazily built :class:`~repro.cost.expected.AssignedCostEvaluator` with
  its per-candidate sorted CDF columns (batch + incremental assigned costs);
* per-point *global value-rank tables* for the batched unassigned evaluator:
  every support entry's position in the point's value-sorted ``(z_i * m)``
  entry list, computed once.  A subset's min-reduced support is then
  recovered in sorted order from per-location rank minima, keyed on the
  precomputed per-candidate value order — the min-reduced float values
  themselves are never comparison-sorted per chunk (an integer rank sort of
  the same shape replaces it; the union sweep dominates either way).

The cached structure also powers the **admissible lower-bound kernels**
behind the branch-and-bound brute force
(:meth:`CostContext.subset_assigned_lower_bounds`,
:meth:`CostContext.subset_unassigned_lower_bounds`,
:meth:`CostContext.assignment_lower_bounds` — re-exported with their lemma
context by :mod:`repro.bounds.lower_bounds`): pure gathers/min-reductions
over the expected matrix and pinned supports, no sorts, so bounding a chunk
is an order of magnitude cheaper than exactly scoring it.

Consumers: :class:`repro.assignments.policies.OptimalAssignment`, the
``polish_assignment`` path of :mod:`repro.algorithms.unrestricted`, all four
baselines (:mod:`repro.baselines.brute_force`,
:mod:`repro.baselines.guha_munagala`, :mod:`repro.baselines.wang_zhang_1d`,
:mod:`repro.baselines.cormode_mcgregor`) and the ablation/sensitivity
experiment loops.  Rebuild the context whenever the dataset *or* the
candidate set changes; assignments and subsets over a fixed candidate set
never require a rebuild.  Two cheaper-than-rebuild paths exist for the
"candidates changed" case:

* when only *some* candidate rows changed,
  :meth:`CostContext.replace_candidate_columns` (in place) or
  :meth:`CostContext.with_candidates` (copy-on-write) splice the affected
  columns — one metric pass over the replacements and a re-sort of just
  those CDF columns (``wang_zhang_1d``'s coordinate descent runs on this);
* when the *same* pair recurs across calls,
  :class:`repro.runtime.store.ContextStore` memoizes whole contexts by
  content fingerprint (LRU-bounded; a changed dataset or candidate byte is
  a miss and rebuilds).

Contexts with their lazy caches materialized pickle cleanly, which is how
:mod:`repro.runtime.parallel` ships one fully built context to every worker
of a sharded brute-force enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import as_point_array
from ..exceptions import ValidationError
from ..uncertain.dataset import UncertainDataset
from .expected import (
    AssignedCostEvaluator,
    LocalSearchSweep,
    _log_zero_deltas,
    _sweep_rows,
    _sweep_rows_presorted,
    expected_max_of_independent,
)

#: Rows per chunk pushed through the batched sweep kernels.
DEFAULT_CHUNK_ROWS = 2048

#: Internal row blocking of the rank-merge unassigned sweep.  The sweep is
#: cache-bound — a block's working set is several ``(B, sum_i z_i)`` arrays —
#: and 512 rows keeps it inside typical L2/L3 (measured ~40% faster than
#: 2048-row blocks).  Blocking never changes results (rows are independent);
#: callers' ``chunk_rows`` still caps the block as a memory bound.
RANK_MERGE_BLOCK_ROWS = 512


@dataclass
class _RankMergeTables:
    """Global value-rank structure behind the rank-merge unassigned sweep.

    ``values_by_rank[r]`` is the ``r``-th smallest support value across
    **all** points' entries (one stable argsort over the whole instance, ever)
    and each group stacks same-``z`` points' per-entry global ranks into one
    ``(g, z, m)`` integer array (plus the matching ``(g, z)`` probability
    rows), so the per-chunk min-reduction / CDF pass runs as a handful of 3-D
    kernel calls instead of one 2-D call per point.

    Because the global ranking is a stable sort over the same entry
    enumeration every per-point ranking uses, per-point relative orders are
    preserved: sorting a subset's per-location *global* rank minima yields
    exactly the entry order the historical per-row float sort produced — with
    unique integer keys, so the merge can use the default (unstable) sort and
    still be deterministic.
    """

    values_by_rank: np.ndarray
    groups: list[tuple[np.ndarray, np.ndarray, np.ndarray]]  # (points, ranks, weights)


class CostContext:
    """Incremental exact-cost service for a fixed (dataset, candidates) pair."""

    def __init__(
        self,
        dataset: UncertainDataset,
        candidates: np.ndarray,
        *,
        pin_supports: bool = True,
    ) -> None:
        """``pin_supports=False`` keeps ``expected`` reads from caching the
        ``(z_i, m)`` support matrices — for expected-matrix-only consumers
        over huge candidate sets (the threshold-greedy baseline's
        ``m = sum_i z_i``), where pinning would cost ``O((sum_i z_i)^2)``
        memory.  Batch scoring still pins on first use either way."""
        candidates = as_point_array(candidates, name="candidates")
        self.dataset = dataset
        self.candidates = candidates
        self.probabilities = [point.probabilities for point in dataset.points]
        self._pin_supports = pin_supports
        self._supports: list[np.ndarray] | None = None
        self._evaluator: AssignedCostEvaluator | None = None
        self._expected: np.ndarray | None = None
        self._rank_tables: list[tuple[np.ndarray, np.ndarray]] | None = None
        self._rank_merge: _RankMergeTables | None = None
        #: Bumped on every in-place candidate mutation; shared-memory
        #: publications key on it so a spliced context is republished.
        self._version = 0

    # -- cached structure ---------------------------------------------------

    @property
    def size(self) -> int:
        """Number of uncertain points."""
        return self.dataset.size

    @property
    def candidate_count(self) -> int:
        return self.candidates.shape[0]

    @property
    def supports(self) -> list[np.ndarray]:
        """Per-point ``(z_i, m)`` distance matrices; pinned on first use.

        Consumers that never batch over assignments or subsets (e.g. the
        threshold-greedy baseline, which only needs ``expected`` plus one
        final score) never pay the ``O(sum_i z_i * m)`` memory.
        """
        if self._supports is None:
            metric = self.dataset.metric
            self._supports = [
                metric.pairwise(point.locations, self.candidates) for point in self.dataset.points
            ]
        return self._supports

    @property
    def evaluator(self) -> AssignedCostEvaluator:
        """Per-candidate sorted CDF columns; built lazily, sorted once."""
        if self._evaluator is None:
            self._evaluator = AssignedCostEvaluator(self.supports, self.probabilities)
        return self._evaluator

    @property
    def expected(self) -> np.ndarray:
        """``(n, m)`` matrix of ``E[d(P_i, candidates[c])]``.

        Derived from the pinned supports (pinning them on first access, so a
        later batch scorer reuses the same metric pass) unless the context
        was built with ``pin_supports=False``, in which case it is streamed
        one point at a time and keeps ``O(n m)`` memory.
        """
        if self._expected is None:
            if self._pin_supports or self._supports is not None:
                self._expected = np.vstack(
                    [
                        probabilities @ support
                        for probabilities, support in zip(self.probabilities, self.supports)
                    ]
                )
            else:
                metric = self.dataset.metric
                self._expected = np.vstack(
                    [
                        point.probabilities @ metric.pairwise(point.locations, self.candidates)
                        for point in self.dataset.points
                    ]
                )
        return self._expected

    def _ranks(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per point: ``(ranks, values_by_rank)`` over all ``z_i * m`` entries.

        ``ranks[j, c]`` is the position of entry ``(location j, candidate c)``
        in the point's value-sorted flat entry list, and
        ``values_by_rank[r]`` the value at position ``r`` — the key that lets
        subset min-reductions come out presorted.
        """
        if self._rank_tables is None:
            tables = []
            for support in self.supports:
                flat = support.ravel()
                order = np.argsort(flat, kind="stable")
                ranks = np.empty(flat.shape[0], dtype=np.int64)
                ranks[order] = np.arange(flat.shape[0])
                tables.append((ranks.reshape(support.shape), flat[order]))
            self._rank_tables = tables
        return self._rank_tables

    def _rank_merge_tables(self) -> _RankMergeTables:
        """Global rank tables for the rank-merge unassigned sweep; built once.

        One stable argsort over the flattened entries of *every* point yields
        a global value order; each entry's position in it is its global rank.
        Ranks are grouped by support size so the per-chunk work runs as 3-D
        kernels (the same same-``z`` grouping trick
        :meth:`AssignedCostEvaluator.replace_candidate_columns` uses).
        """
        if self._rank_merge is None:
            supports = self.supports
            flat = np.concatenate([support.ravel() for support in supports])
            order = np.argsort(flat, kind="stable")
            values_by_rank = flat[order]
            dtype = np.int32 if flat.shape[0] < 2**31 else np.int64
            ranks_flat = np.empty(flat.shape[0], dtype=dtype)
            ranks_flat[order] = np.arange(flat.shape[0], dtype=dtype)
            per_point = []
            offset = 0
            for support in supports:
                per_point.append(ranks_flat[offset : offset + support.size].reshape(support.shape))
                offset += support.size
            by_size: dict[int, list[int]] = {}
            for index, ranks in enumerate(per_point):
                by_size.setdefault(ranks.shape[0], []).append(index)
            groups = []
            for indices in by_size.values():
                groups.append(
                    (
                        np.asarray(indices, dtype=int),
                        np.stack([per_point[i] for i in indices]),
                        np.stack([self.probabilities[i] for i in indices]),
                    )
                )
            self._rank_merge = _RankMergeTables(values_by_rank=values_by_rank, groups=groups)
        return self._rank_merge

    # -- incremental candidate updates --------------------------------------

    def _new_support_blocks(self, new_candidates: np.ndarray) -> list[np.ndarray]:
        """Per-point ``(z_i, C)`` distance blocks to the replacement candidates.

        One metric call over the stacked locations instead of one per point.
        """
        metric = self.dataset.metric
        stacked = metric.pairwise(self.dataset.all_locations(), new_candidates)
        blocks = []
        offset = 0
        for point in self.dataset.points:
            blocks.append(stacked[offset : offset + point.support_size])
            offset += point.support_size
        return blocks

    def replace_candidate_columns(self, columns: np.ndarray, new_candidates: np.ndarray) -> None:
        """Swap ``candidates[columns]`` for ``new_candidates``, splicing caches.

        Everything already materialized is updated incrementally instead of
        rebuilt: the pinned support matrices get new columns from one metric
        pass, the expected matrix new dot products for those columns only,
        and the evaluator re-sorts just the replaced CDF columns
        (:meth:`AssignedCostEvaluator.replace_candidate_columns`).  The
        unassigned rank tables are global per point, so they are invalidated
        and rebuilt lazily on the next unassigned query.

        This is what lets ``wang_zhang_1d``'s coordinate descent keep one
        context per start and splice the moving grid/center columns per sweep
        instead of constructing a fresh context every sweep.
        """
        columns = np.asarray(columns, dtype=int).reshape(-1)
        new_candidates = as_point_array(new_candidates, name="new_candidates")
        if columns.size == 0:
            return
        if columns.min() < 0 or columns.max() >= self.candidate_count:
            raise ValidationError("candidate column index out of range")
        if np.unique(columns).shape[0] != columns.shape[0]:
            raise ValidationError("replacement column indices must be distinct")
        if new_candidates.shape != (columns.shape[0], self.candidates.shape[1]):
            raise ValidationError(
                f"new_candidates must have shape ({columns.shape[0]}, {self.candidates.shape[1]})"
            )
        self.candidates = self.candidates.copy()
        self.candidates[columns] = new_candidates
        needs_supports = (
            self._supports is not None or self._evaluator is not None or self._expected is not None
        )
        if not needs_supports:
            return
        blocks = self._new_support_blocks(new_candidates)
        if self._supports is not None:
            for support, block in zip(self._supports, blocks):
                support[:, columns] = block
        if self._expected is not None:
            for row, (probabilities, block) in enumerate(zip(self.probabilities, blocks)):
                self._expected[row, columns] = probabilities @ block
        if self._evaluator is not None:
            self._evaluator.replace_candidate_columns(columns, blocks)
        self._rank_tables = None
        self._rank_merge = None
        self._version += 1

    def with_candidates(self, new_candidates: np.ndarray) -> "CostContext":
        """A context over ``new_candidates`` reusing every unchanged column.

        When the new set has the same shape as the current one, the cached
        structure is cloned and only the differing columns are spliced via
        :meth:`replace_candidate_columns`; a changed shape falls back to a
        fresh build.  Returns ``self`` unchanged when nothing differs.
        """
        new_candidates = as_point_array(new_candidates, name="new_candidates")
        if new_candidates.shape != self.candidates.shape:
            return CostContext(self.dataset, new_candidates, pin_supports=self._pin_supports)
        changed = np.flatnonzero(np.any(new_candidates != self.candidates, axis=1))
        if changed.shape[0] == 0:
            return self
        twin = CostContext.__new__(CostContext)
        twin.dataset = self.dataset
        twin.candidates = self.candidates
        twin.probabilities = self.probabilities
        twin._pin_supports = self._pin_supports
        twin._supports = (
            None if self._supports is None else [support.copy() for support in self._supports]
        )
        twin._evaluator = None if self._evaluator is None else self._evaluator.clone()
        twin._expected = None if self._expected is None else self._expected.copy()
        twin._rank_tables = None
        twin._rank_merge = None
        twin._version = 0
        twin.replace_candidate_columns(changed, new_candidates[changed])
        return twin

    # -- assigned objective -------------------------------------------------

    def assigned_cost(self, candidate_indices: np.ndarray) -> float:
        """Exact assigned cost when point ``i`` goes to ``candidate_indices[i]``.

        Scoring a single assignment never *forces* the evaluator build: when
        the per-candidate sorted columns are not pinned yet, the ``k``
        assigned columns are scored directly (distances to the assigned
        candidates only), which keeps one-shot consumers at ``O(n z)`` work.
        """
        candidate_indices = np.asarray(candidate_indices, dtype=int).reshape(-1)
        if self._evaluator is not None:
            return self._evaluator.cost(candidate_indices)
        if candidate_indices.shape[0] != self.size:
            raise ValidationError("assignment must have one entry per uncertain point")
        if candidate_indices.size and (
            candidate_indices.min() < 0 or candidate_indices.max() >= self.candidate_count
        ):
            raise ValidationError("candidate index out of range")
        if self._supports is not None:
            values = [
                support[:, column]
                for support, column in zip(self._supports, candidate_indices)
            ]
        else:
            metric = self.dataset.metric
            values = [
                metric.pairwise(point.locations, self.candidates[column : column + 1]).reshape(-1)
                for point, column in zip(self.dataset.points, candidate_indices)
            ]
        return expected_max_of_independent(values, self.probabilities)

    def assigned_costs(
        self, candidate_index_rows: np.ndarray, *, chunk_rows: int = DEFAULT_CHUNK_ROWS
    ) -> np.ndarray:
        """Exact assigned costs for a ``(B, n)`` batch of assignments."""
        return self.evaluator.costs(candidate_index_rows, chunk_rows=chunk_rows)

    def local_search_sweep(self, candidate_indices: np.ndarray) -> LocalSearchSweep:
        """Round-amortized single-point-move machinery over this context."""
        return self.evaluator.local_search_sweep(candidate_indices)

    # -- restricted assignment rules over candidate subsets -----------------

    def ed_assignment(self, subset: tuple[int, ...] | np.ndarray) -> np.ndarray:
        """Expected-distance assignment restricted to the subset's candidates."""
        columns = np.asarray(subset, dtype=int)
        local = self.expected[:, columns].argmin(axis=1)
        return columns[local]

    def ed_assignments(self, subset_rows: np.ndarray) -> np.ndarray:
        """Expected-distance assignments for a ``(B, kk)`` batch of subsets."""
        return self.score_assignments(self.expected, subset_rows)

    def score_assignments(self, scores: np.ndarray, subset_rows: np.ndarray) -> np.ndarray:
        """Per-subset argmin assignments for any ``(n, m)`` score matrix.

        This is the batched form of every "assign to the candidate minimising
        a per-(point, candidate) score" rule (ED, EP, OC, nearest-mode);
        policies expose their matrix via
        :meth:`repro.assignments.base.AssignmentPolicy.candidate_scores`.
        """
        subset_rows = np.atleast_2d(np.asarray(subset_rows, dtype=int))
        if scores.shape != (self.size, self.candidate_count):
            raise ValidationError(
                f"score matrix must be (n, m) = ({self.size}, {self.candidate_count})"
            )
        local = scores[:, subset_rows].argmin(axis=2)  # (n, B)
        return np.take_along_axis(subset_rows, local.T, axis=1)  # (B, n)

    # -- unassigned objective ------------------------------------------------

    def unassigned_cost(self, subset: tuple[int, ...] | np.ndarray) -> float:
        """Exact unassigned cost of one candidate subset."""
        return float(self.unassigned_costs(np.atleast_2d(np.asarray(subset, dtype=int)))[0])

    def _check_subset_rows(self, subset_rows: np.ndarray) -> np.ndarray:
        subset_rows = np.atleast_2d(np.asarray(subset_rows, dtype=int))
        if subset_rows.size and (
            subset_rows.min() < 0 or subset_rows.max() >= self.candidate_count
        ):
            raise ValidationError("candidate index out of range")
        if subset_rows.shape[1] == 0:
            raise ValidationError("subsets must contain at least one candidate")
        return subset_rows

    def unassigned_costs(
        self, subset_rows: np.ndarray, *, chunk_rows: int = DEFAULT_CHUNK_ROWS
    ) -> np.ndarray:
        """Exact unassigned costs for a ``(B, kk)`` batch of candidate subsets.

        The rank-merge sweep: every support entry's position in the globally
        value-sorted entry list is precomputed once
        (:meth:`_rank_merge_tables`), so for each point a subset's min-reduced
        support is the per-location minimum of *global* ranks, and the union
        of all points' entries comes out in value order by sorting those
        integer ranks — the min-reduced float values are never
        comparison-sorted per row.  The rank keys are distinct (the global
        ranking is a permutation), so the unstable default sort yields the
        exact entry order the historical per-row float sort produced and the
        sweep is bit-identical to :meth:`_unassigned_costs_float_sort`.

        Per-point work runs as same-``z`` grouped 3-D kernels instead of one
        2-D call per point, and each group's sort carries its location index
        in the key's low bits (``rank << shift | location``) so one in-place
        integer sort replaces the argsort-then-gather pair; the location
        bits come back out with a mask to index the probability rows.  The
        low bits never reorder anything — ranks are distinct, so the packed
        order *is* the rank order.
        """
        subset_rows = self._check_subset_rows(subset_rows)
        batch = subset_rows.shape[0]
        tables = self._rank_merge_tables()
        n = self.size
        groups = []
        for _, ranks, weights in tables.groups:
            g, z, _ = ranks.shape
            shift = max(1, int(z - 1).bit_length())
            dtype = (
                np.int32
                if (tables.values_by_rank.shape[0] << shift) < 2**31
                else np.int64
            )
            groups.append((ranks, weights, z, shift, dtype, np.arange(z, dtype=dtype)))
        total_z = sum(weights.shape[0] * weights.shape[1] for _, _, weights in tables.groups)
        block_rows = max(1, min(int(chunk_rows), RANK_MERGE_BLOCK_ROWS))
        out = np.empty(batch)
        for start in range(0, batch, block_rows):
            rows = subset_rows[start : start + block_rows]
            width = rows.shape[0]
            merged_ranks = np.empty((width, total_z), dtype=np.int64)
            log_delta = np.empty((width, total_z))
            zero_delta = np.empty((width, total_z), dtype=np.int32)
            column = 0
            for ranks, weights, z, shift, dtype, locations in groups:
                g = ranks.shape[0]
                span = g * z
                # (B, g, z): per-location global-rank minimum over the subset.
                rank_min = ranks[:, :, rows].min(axis=3).transpose(2, 0, 1)
                packed = (rank_min.astype(dtype) << shift) | locations
                packed.sort(axis=2)  # repro: noqa[FLOAT-SORT-HOTPATH] -- this IS the rank merge: bit-packed integer keys (global rank << shift | location), no float comparisons
                location = packed & ((1 << shift) - 1)
                sorted_probabilities = weights[np.arange(g)[None, :, None], location]
                cdf_after = np.cumsum(sorted_probabilities, axis=2)
                positive = cdf_after > 0.0
                log_after = np.where(positive, np.log(np.where(positive, cdf_after, 1.0)), 0.0)
                log_block = log_after.copy()
                log_block[:, :, 1:] -= log_after[:, :, :-1]
                zero_block = np.zeros((width, g, z), dtype=np.int32)
                zero_block[:, :, 0] -= positive[:, :, 0]
                zero_block[:, :, 1:] -= positive[:, :, 1:] & ~positive[:, :, :-1]
                merged_ranks[:, column : column + span] = (packed >> shift).reshape(width, span)
                log_delta[:, column : column + span] = log_block.reshape(width, span)
                zero_delta[:, column : column + span] = zero_block.reshape(width, span)
                column += span
            final = np.argsort(merged_ranks, axis=1)  # distinct keys: unstable ok
            sorted_values = tables.values_by_rank[np.take_along_axis(merged_ranks, final, axis=1)]
            out[start : start + width] = _sweep_rows_presorted(
                sorted_values,
                np.take_along_axis(log_delta, final, axis=1),
                np.take_along_axis(zero_delta, final, axis=1),
                n,
            )
        return out

    # -- admissible lower bounds (branch-and-bound pruning) ------------------

    def subset_assigned_lower_bounds(self, subset_rows: np.ndarray) -> np.ndarray:
        """``(B,)`` lower bounds on the assigned cost of candidate subsets.

        For any assignment ``A`` into subset ``S`` (any rule — ED, EP, OC,
        nearest-mode, black-box local search):

        ``EcostA(S) = E[max_i d(P_i, A(i))] >= max_i E[d(P_i, A(i))]
        >= max_i min_{c in S} E[d(P_i, c)]``

        — the per-point Lemma 3.2 argument applied subset-wise, so the bound
        is admissible for *every* restricted assignment rule at once.  Reads
        only the cached ``(n, m)`` expected-distance matrix: one gather, one
        min-reduce, one max-reduce per chunk, no sorts and no new memory
        beyond the ``(n, B, kk)`` gather.
        """
        subset_rows = self._check_subset_rows(subset_rows)
        return self.expected[:, subset_rows].min(axis=2).max(axis=0)

    def subset_unassigned_lower_bounds(self, subset_rows: np.ndarray) -> np.ndarray:
        """``(B,)`` lower bounds on the unassigned cost of candidate subsets.

        ``E[max_i min_{c in S} d(P_i, c)] >= max_i E[min_{c in S} d(P_i, c)]``
        (the max of a realization dominates every point's own min-distance,
        then take expectations).  Note the assigned-style bound built on
        ``min_c E[d]`` would *not* be admissible here — ``E[min] <= min E``
        — so this kernel min-reduces the pinned supports before the
        probability dot product.  No sorts; the full union sweep the bound
        replaces is what makes pruned rows cheap.
        """
        subset_rows = self._check_subset_rows(subset_rows)
        best: np.ndarray | None = None
        for support, probabilities in zip(self.supports, self.probabilities):
            reduced = support[:, subset_rows].min(axis=2)  # (z_i, B)
            bounds = probabilities @ reduced
            best = bounds if best is None else np.maximum(best, bounds, out=best)
        assert best is not None
        return best

    def subset_pair_lower_bounds(self, subset_rows: np.ndarray) -> np.ndarray:
        """``(B,)`` second-level bounds: the two-point max of per-point minima.

        Admissible for both objectives: with ``m_i(x) = min_{c in S} d(x, c)``
        any solution over ``S`` costs at least ``max(m_i(X_i), m_j(X_j))``
        realization-wise (the unassigned cost is the max over *all* points'
        minima; a restricted assignment satisfies ``d(P_i, A(P_i)) >= m_i``
        pointwise), so ``cost(S) >= E[max(m_i(X_i), m_j(X_j))]`` for every
        pair ``(i, j)`` — the kernel picks the two points with the largest
        ``E[m_i]`` and evaluates the pair expectation exactly via the
        product distribution (point independence).  Jensen gives
        ``E[max(Y, Z)] >= max(E[Y], E[Z])``, so this always dominates the
        unassigned first-level bound; it is *incomparable* with the assigned
        first-level bound (``E[m_i] <= min_c E[d(P_i, c)]``), which is why
        :meth:`subset_two_level_lower_bounds` maxes the levels.

        Two passes: a per-point min-reduce/dot for the ``(n, B)`` expected
        minima (the same gather the unassigned bound runs), then one
        outer-max expectation per *distinct* top pair — chunked enumerations
        share a handful of pairs, so the quadratic-in-``z`` part runs a few
        times per chunk, not per subset.
        """
        subset_rows = self._check_subset_rows(subset_rows)
        batch = subset_rows.shape[0]
        n = self.size
        if n < 2 or batch == 0:
            return np.zeros(batch)
        supports = self.supports
        expected_minima = np.empty((n, batch))
        for i, (support, weight) in enumerate(zip(supports, self.probabilities)):
            expected_minima[i] = weight @ support[:, subset_rows].min(axis=2)
        top_two = np.argpartition(expected_minima, n - 2, axis=0)[n - 2 :]
        first = np.minimum(top_two[0], top_two[1])
        second = np.maximum(top_two[0], top_two[1])
        pair_keys = first * n + second
        out = np.empty(batch)
        for key in np.unique(pair_keys):
            mask = pair_keys == key
            i, j = int(key) // n, int(key) % n
            rows = subset_rows[mask]
            reduced_i = supports[i][:, rows].min(axis=2)  # (z_i, Bg)
            reduced_j = supports[j][:, rows].min(axis=2)  # (z_j, Bg)
            pairwise_max = np.maximum(reduced_i[:, None, :], reduced_j[None, :, :])
            out[mask] = np.einsum(
                "i,j,ijb->b", self.probabilities[i], self.probabilities[j], pairwise_max
            )
        return out

    def subset_two_level_lower_bounds(
        self, subset_rows: np.ndarray, *, objective: str = "assigned"
    ) -> np.ndarray:
        """``(B,)`` elementwise max of the first-level and pair bounds.

        Each level is individually admissible for the named objective
        (:meth:`subset_assigned_lower_bounds` /
        :meth:`subset_unassigned_lower_bounds` and
        :meth:`subset_pair_lower_bounds`), so the pointwise max is too —
        this is the bound the best-first scheduler orders chunks by.
        """
        if objective == "assigned":
            level1 = self.subset_assigned_lower_bounds(subset_rows)
        elif objective == "unassigned":
            level1 = self.subset_unassigned_lower_bounds(subset_rows)
        else:
            raise ValidationError(f"unknown bound objective {objective!r}")
        return np.maximum(level1, self.subset_pair_lower_bounds(subset_rows))

    def assignment_lower_bounds(self, candidate_index_rows: np.ndarray) -> np.ndarray:
        """``(B,)`` lower bounds on the assigned cost of explicit assignments.

        Admissible by Jensen applied to the max:
        ``E[max_i d(P_i, A(i))] >= max_i E[d(P_i, A(i))]`` — one gather from
        the cached expected matrix and a row max.  This is the per-row form
        the exhaustive-assignment enumeration prunes on (its prefix bound is
        the same quantity with unassigned points relaxed to their subset
        minimum).
        """
        candidate_index_rows = np.atleast_2d(np.asarray(candidate_index_rows, dtype=int))
        if candidate_index_rows.shape[1] != self.size:
            raise ValidationError("assignment rows must have one entry per uncertain point")
        return self.expected[
            np.arange(self.size)[None, :], candidate_index_rows
        ].max(axis=1)

    def _unassigned_costs_float_sort(
        self, subset_rows: np.ndarray, *, chunk_rows: int = DEFAULT_CHUNK_ROWS
    ) -> np.ndarray:
        """The historical per-row float-sort sweep, kept as the reference.

        Differential tests pin :meth:`unassigned_costs` bit-identical to this
        implementation, and the ``unassigned_rank_merge`` benchmark case
        measures the rank merge against it.
        """
        subset_rows = self._check_subset_rows(subset_rows)
        batch = subset_rows.shape[0]
        tables = self._ranks()
        out = np.empty(batch)
        for start in range(0, batch, chunk_rows):
            rows = subset_rows[start : start + chunk_rows]
            value_blocks = []
            log_blocks = []
            zero_blocks = []
            for (ranks, values_by_rank), weight in zip(tables, self.probabilities):
                min_rank = ranks[:, rows].min(axis=2).T  # (B, z_i)
                order = np.argsort(min_rank, axis=1, kind="stable")
                sorted_values = values_by_rank[np.take_along_axis(min_rank, order, axis=1)]
                sorted_probabilities = weight[order]
                cdf_after = np.cumsum(sorted_probabilities, axis=1)
                cdf_before = np.concatenate(
                    [np.zeros((rows.shape[0], 1)), cdf_after[:, :-1]], axis=1
                )
                log_delta, zero_delta = _log_zero_deltas(cdf_after, cdf_before)
                value_blocks.append(sorted_values)
                log_blocks.append(log_delta)
                zero_blocks.append(zero_delta)
            out[start : start + rows.shape[0]] = _sweep_rows(
                np.concatenate(value_blocks, axis=1),
                np.concatenate(log_blocks, axis=1),
                np.concatenate(zero_blocks, axis=1),
                len(tables),
            )
        return out


def cost_context(dataset: UncertainDataset, candidates: np.ndarray) -> CostContext:
    """Build the shared :class:`CostContext` for ``(dataset, candidates)``."""
    return CostContext(dataset, candidates)
