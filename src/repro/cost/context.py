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
  its per-candidate sorted CDF columns (batch + incremental assigned costs).
  :meth:`CostContext.assigned_costs` is its integer rank merge: every entry
  of every sorted column is ranked once, and a batch row's union order comes
  from sorting its entries' integer ranks, bit-identical to the per-row
  float sort it replaced (``_costs_float_sort``, which still scores a call
  that finds no rank tables and has fewer rows than there are candidates);
* per-point *global value-rank tables* for the batched unassigned evaluator:
  every support entry's position in the point's value-sorted ``(z_i * m)``
  entry list, computed once.  A subset's min-reduced support is then
  recovered in sorted order from per-location rank minima, keyed on the
  precomputed per-candidate value order — the min-reduced float values
  themselves are never comparison-sorted per chunk (an integer rank sort of
  the same shape replaces it; the union sweep dominates either way);
* *candidate-major tables* for the subset bound kernels: the ``(m, n)``
  transpose of ``expected`` (read without pinning the supports), each
  point's ``(m, z_i)`` support transpose, and one point order, by
  descending ``E[min over all candidates]``.  A subset's columns are then
  whole contiguous rows of a table.

The cached structure also powers the **admissible lower-bound kernels**
behind the branch-and-bound brute force
(:meth:`CostContext.subset_assigned_lower_bounds`,
:meth:`CostContext.subset_unassigned_lower_bounds`,
:meth:`CostContext.assignment_lower_bounds` — re-exported with their lemma
context by :mod:`repro.bounds.lower_bounds`): pure gathers/min-reductions
over the expected matrix and pinned supports, no sorts, so bounding a chunk
is an order of magnitude cheaper than exactly scoring it.  The subset
kernels are **prefix-factored** (:func:`_subset_minima`): each run of rows
sharing their first ``k - 1`` candidates is min-reduced once, from whole
rows of a candidate-major table, and each row then takes one elementwise
``minimum`` with its last candidate's row.  ``min`` is exact, and the
result is handed back as the transpose of a C-order ``(B, r)`` array, the
plain gather's memory layout, so the bounds and the dot products over them
are bit-identical to the plain gather for any row order.  The unassigned
level 1 also takes a ``cut``: it visits points in the cached order and
stops reducing a row once its running maximum exceeds the cut, which is
all the pruning layer asks of that row.

Consumers: :class:`repro.assignments.policies.OptimalAssignment` (whose
one local-search loop, ``chunk_assignments``, both its own ``assign`` and
the brute-force unrestricted reference's polish stage run through), the
``polish_assignment`` path of :mod:`repro.algorithms.unrestricted`, all four
baselines (:mod:`repro.baselines.brute_force`,
:mod:`repro.baselines.guha_munagala`, :mod:`repro.baselines.wang_zhang_1d`,
:mod:`repro.baselines.cormode_mcgregor`) and the ablation/sensitivity
experiment loops.  Rebuild the context whenever the dataset *or* the
candidate set changes; assignments and subsets over a fixed candidate set
never require a rebuild.  Two paths are cheaper than a rebuild:

* when only *some* candidate rows changed,
  :meth:`CostContext.replace_candidate_columns` splices the affected columns
  in place — one metric pass over the replacements and a re-sort of just
  those CDF columns (``wang_zhang_1d``'s coordinate descent runs on this);
* when the *same* pair recurs across calls,
  :class:`repro.runtime.store.ContextStore` memoizes whole contexts by
  content fingerprint in memory (LRU-bounded; a changed dataset or candidate
  byte is a miss and rebuilds).

A context pickles to a few stacked arrays (:meth:`CostContext.__getstate__`):
the dataset's rows, the candidates and each built cache, with every
per-point list concatenated in layout order and re-sliced on load.  That one
serialization serves both payload transports of :mod:`repro.runtime`: the
pickled transport ships it in band, and shared memory publishes the same
pickle with its arrays as protocol-5 out-of-band buffers
(:mod:`repro.runtime.shm`), which workers load as read-only views.  The
evaluator's rank tables and the candidate-major tables are not pickled:
each process that needs them builds its own on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .._validation import as_point_array
from ..exceptions import ValidationError
from ..uncertain.dataset import UncertainDataset
from .expected import (
    RANK_MERGE_BLOCK_ENTRIES,
    AssignedCostEvaluator,
    LocalSearchSweep,
    _log_zero_deltas,
    _sweep_rows,
    _sweep_rows_presorted,
    expected_cost_assigned,
    expected_max_of_independent,
)

#: Rows per enumeration chunk of the brute-force searches, and so the most
#: rows one batched kernel call scores there; the kernels block a call by
#: entry count themselves (:data:`~repro.cost.expected.RANK_MERGE_BLOCK_ENTRIES`).
DEFAULT_CHUNK_ROWS = 2048


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
    groups: list[tuple[tuple[int, ...], np.ndarray, np.ndarray]]  # (points, ranks, weights)


@dataclass
class _CandidateMajorSupports:
    """The supports laid out for the subset bound kernels.

    ``tables[i]`` is point ``i``'s ``(m, z_i)`` support transpose, so a
    candidate's distances are one contiguous row, and ``order`` lists the
    points by descending ``E[min over all candidates]`` (stable), the order
    in which the unassigned level 1 visits them under a cut.
    """

    tables: list[np.ndarray]
    order: np.ndarray


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
        self._expected_by_candidate: np.ndarray | None = None
        self._supports_by_candidate: _CandidateMajorSupports | None = None
        self._version = 0

    def __getstate__(self) -> dict[str, Any]:
        """Pickled state: the built caches as a few stacked arrays.

        The supports are stacked in layout order like the dataset's rows
        and re-sliced on load.  The evaluator's probability vectors are the
        dataset's, so its state points at the dataset's stacked array and
        pickle writes that once.  The float-sort reference's rank tables,
        the evaluator's assigned rank tables and the candidate-major tables
        are left out; they rebuild on first use.
        """
        layout = self.dataset.location_layout()
        evaluator = None
        if self._evaluator is not None:
            evaluator = {**self._evaluator.__getstate__(), "_probabilities": layout.probabilities}
        return {
            "dataset": self.dataset,
            "candidates": self.candidates,
            "pin_supports": self._pin_supports,
            "supports": None if self._supports is None else np.concatenate(self._supports),
            "expected": self._expected,
            "evaluator": evaluator,
            "rank_merge": self._rank_merge,
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        """Re-slice the stacked caches into per-point views (no copies)."""
        self.dataset = state["dataset"]
        self.candidates = state["candidates"]
        self.probabilities = [point.probabilities for point in self.dataset.points]
        self._pin_supports = state["pin_supports"]
        supports = state["supports"]
        self._supports = None if supports is None else self.dataset.location_layout().split(supports)
        self._expected = state["expected"]
        self._evaluator = None
        if state["evaluator"] is not None:
            self._evaluator = AssignedCostEvaluator.__new__(AssignedCostEvaluator)
            self._evaluator.__setstate__(state["evaluator"])
        self._rank_tables = None
        self._rank_merge = state["rank_merge"]
        self._expected_by_candidate = None
        self._supports_by_candidate = None
        self._version = 0

    # -- cached structure ---------------------------------------------------

    @property
    def version(self) -> int:
        """Bumped whenever the pickled state changes: a cache built, columns spliced.

        Shared-memory publications key on it, so a context is republished
        exactly when its pickle would differ.
        """
        return self._version

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
            self._version += 1
        return self._supports

    @property
    def evaluator(self) -> AssignedCostEvaluator:
        """Per-candidate sorted CDF columns; built lazily, sorted once."""
        if self._evaluator is None:
            self._evaluator = AssignedCostEvaluator(self.supports, self.probabilities)
            self._version += 1
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
            self._version += 1
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
        kernels (the same same-``z`` grouping trick the
        :class:`AssignedCostEvaluator` column pass uses).
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
                        tuple(indices),
                        np.stack([per_point[i] for i in indices]),
                        np.stack([self.probabilities[i] for i in indices]),
                    )
                )
            self._rank_merge = _RankMergeTables(values_by_rank=values_by_rank, groups=groups)
            self._version += 1
        return self._rank_merge

    def _candidate_major_expected(self) -> np.ndarray:
        """The ``(m, n)`` C-order transpose of :attr:`expected`; built once per process.

        Not pickled and not part of :attr:`version`: it is derived from
        ``expected``, so a worker rebuilds it from the shipped matrix.
        """
        if self._expected_by_candidate is None:
            self._expected_by_candidate = np.ascontiguousarray(self.expected.T)
        return self._expected_by_candidate

    def _candidate_major_supports(self) -> _CandidateMajorSupports:
        """Per-point ``(m, z_i)`` support transposes and the visiting order.

        Built once per process like :meth:`_candidate_major_expected`.
        """
        if self._supports_by_candidate is None:
            tables = [np.ascontiguousarray(support.T) for support in self.supports]
            nearest = np.array(
                [
                    probabilities @ table.min(axis=0)
                    for probabilities, table in zip(self.probabilities, tables)
                ]
            )
            self._supports_by_candidate = _CandidateMajorSupports(
                tables=tables, order=np.argsort(-nearest, kind="stable")
            )
        return self._supports_by_candidate

    # -- incremental candidate updates --------------------------------------

    def _new_support_blocks(self, new_candidates: np.ndarray) -> list[np.ndarray]:
        """Per-point ``(z_i, C)`` distance blocks to the replacement candidates.

        One metric call over the stacked locations instead of one per point.
        """
        layout = self.dataset.location_layout()
        return layout.split(self.dataset.metric.pairwise(layout.locations, new_candidates))

    def replace_candidate_columns(self, columns: np.ndarray, new_candidates: np.ndarray) -> None:
        """Swap ``candidates[columns]`` for ``new_candidates``, splicing caches.

        The pinned support matrices get new columns from one metric pass,
        and the evaluator re-sorts just the replaced CDF columns
        (:meth:`AssignedCostEvaluator.replace_candidate_columns`).  The
        expected matrix is dropped and rebuilt lazily on the next read, by
        the product a fresh build runs: a BLAS product rounds a column by
        its position, so dot products over the replaced columns alone could
        differ from a rebuild in the last bit.  The unassigned rank tables
        are global per point, so they are invalidated and rebuilt lazily on
        the next unassigned query, and so are the candidate-major tables of
        the bound kernels.

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
        self._version += 1
        self._expected = None
        self._expected_by_candidate = None
        self._supports_by_candidate = None
        if self._supports is None and self._evaluator is None:
            return
        blocks = self._new_support_blocks(new_candidates)
        if self._supports is not None:
            for support, block in zip(self._supports, blocks):
                support[:, columns] = block
        if self._evaluator is not None:
            self._evaluator.replace_candidate_columns(columns, blocks)
        self._rank_tables = None
        self._rank_merge = None

    # -- assigned objective -------------------------------------------------

    def assigned_cost(self, candidate_indices: np.ndarray) -> float:
        """Exact assigned cost when point ``i`` goes to ``candidate_indices[i]``.

        Scoring a single assignment never *forces* the evaluator build or the
        support pin.  With the sorted columns built it reads them; with only
        the supports pinned it gathers the assigned columns; otherwise it is
        :func:`~repro.cost.expected.expected_cost_assigned` — one metric call
        to just the candidates the assignment uses, so one-shot consumers of
        a huge candidate set stay at ``O(N u)`` work and memory for
        ``N = sum_i z_i`` locations and ``u <= n`` used candidates.
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
        if self._supports is None:
            return expected_cost_assigned(self.dataset, self.candidates, candidate_indices)
        values = [support[:, column] for support, column in zip(self._supports, candidate_indices)]
        return expected_max_of_independent(values, self.probabilities)

    def assigned_costs(self, candidate_index_rows: np.ndarray) -> np.ndarray:
        """Exact assigned costs for a ``(B, n)`` batch of assignments.

        The evaluator's rank merge (:meth:`AssignedCostEvaluator.costs`).
        """
        return self.evaluator.costs(candidate_index_rows)

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

    def unassigned_costs(self, subset_rows: np.ndarray) -> np.ndarray:
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

        The sorted ranks also give each point's first positive-mass rank,
        where its min-reduced CDF first turns positive; a row's first live
        position (:func:`~repro.cost.expected._sweep_rows_presorted`) is the
        count of its ranks below the largest of them, the position the
        twin's zero-mass counter reaches 0 at, so no zero-mass array is
        built.
        """
        subset_rows = self._check_subset_rows(subset_rows)
        batch = subset_rows.shape[0]
        tables = self._rank_merge_tables()
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
        # The sweep is cache-bound — a block's working set is several
        # ``(B, sum_i z_i)`` arrays — so a block holds at most
        # RANK_MERGE_BLOCK_ENTRIES entries, the assigned merge's cap, whatever
        # the row width.  On a 2-vCPU x86 host the ``enum_mid`` shape (1,280
        # entries per row) scored a median 97 µs per row in its 51-row
        # blocks against 114 µs in 102-row blocks (9 alternating repeats
        # over 2,048 rows).  Blocking never changes results (rows are
        # independent).
        block_rows = max(1, RANK_MERGE_BLOCK_ENTRIES // total_z)
        out = np.empty(batch)
        for start in range(0, batch, block_rows):
            rows = subset_rows[start : start + block_rows]
            width = rows.shape[0]
            merged_ranks = np.empty((width, total_z), dtype=np.int64)
            log_delta = np.empty((width, total_z))
            # Per row, the largest rank at which a point first gets mass.
            last_mass = np.zeros(width, dtype=np.int64)
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
                packed >>= shift
                # A dataset point always has mass, so ``argmax`` finds the
                # first positive CDF of every point.
                first_mass = np.take_along_axis(packed, positive.argmax(axis=2)[:, :, None], axis=2)
                np.maximum(last_mass, first_mass.max(axis=(1, 2)), out=last_mass)
                merged_ranks[:, column : column + span] = packed.reshape(width, span)
                log_delta[:, column : column + span] = log_block.reshape(width, span)
                column += span
            final = np.argsort(merged_ranks, axis=1)  # distinct keys: unstable ok
            sorted_ranks = np.take_along_axis(merged_ranks, final, axis=1)
            out[start : start + width] = _sweep_rows_presorted(
                sorted_ranks,
                tables.values_by_rank,
                np.take_along_axis(log_delta, final, axis=1),
                np.count_nonzero(merged_ranks < last_mass[:, None], axis=1),
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
        only the expected-distance matrix, through its candidate-major
        transpose and prefix-factored (:func:`_subset_minima`): one
        min-reduce of whole table rows per run of rows sharing their first
        ``kk - 1`` columns, one ``minimum`` per row with its last column,
        one max-reduce; no sorts.  Bit-identical to the plain ``(n, B, kk)``
        gather for any row order, since ``min`` is exact.
        """
        subset_rows = self._check_subset_rows(subset_rows)
        return _subset_minima(
            self._candidate_major_expected(), _prefix_runs(subset_rows)
        ).max(axis=0)

    def subset_unassigned_lower_bounds(
        self,
        subset_rows: np.ndarray,
        *,
        cut: float = np.inf,
        point_minima: np.ndarray | None = None,
    ) -> np.ndarray:
        """``(B,)`` lower bounds on the unassigned cost of candidate subsets.

        ``E[max_i min_{c in S} d(P_i, c)] >= max_i E[min_{c in S} d(P_i, c)]``
        (the max of a realization dominates every point's own min-distance,
        then take expectations).  Note the assigned-style bound built on
        ``min_c E[d]`` would *not* be admissible here — ``E[min] <= min E``
        — so this kernel min-reduces the pinned supports before the
        probability dot product.  No sorts; the full union sweep the bound
        replaces is what makes pruned rows cheap.  The min-reduce is
        prefix-factored like :meth:`subset_assigned_lower_bounds` (the runs
        are found once per call and reused for every point) and keeps the
        plain gather's memory layout, so even the dot product is
        bit-identical to the unfactored kernel for any row order.

        ``cut`` is the pruning threshold.  Points are visited in the cached
        order (descending ``E[min over all candidates]``), and after the
        1st, 2nd, 4th, 8th, ... point every row whose running maximum
        already exceeds ``cut`` is dropped: no later point is reduced for
        it.  A dropped row returns that partial maximum, which is still
        admissible — it is the same ``max_i E[min_{c in S} d(P_i, c)]``
        over a subset of the points, and each term is a lower bound on the
        cost by the argument above — and it lies above ``cut``, so the
        keep mask ``bounds <= cut`` is exactly the one the full bound
        gives.  A kept row returns the full maximum with the bits the call
        returns at ``cut=inf``, which drops nothing.  Every point's dot
        product runs over the whole batch in its original positions (a
        dropped row reads zeros, below its nonnegative partial maximum), so
        a BLAS reduction that depends on a column's position in the batch
        still sees each kept row where it would without a cut.

        ``point_minima``, an ``(n, B)`` buffer, receives every point's
        ``E[min_{c in S} d(P_i, c)]``: on each kept row (bound at or below
        ``cut``) all ``n`` values, the per-point pass
        :meth:`subset_pair_lower_bounds` would otherwise repeat; the other
        columns hold partial values and are not to be read.
        """
        subset_rows = self._check_subset_rows(subset_rows)
        batch = subset_rows.shape[0]
        prefixes, run_of_row, last = _prefix_runs(subset_rows)
        supports = self._candidate_major_supports()
        best = np.full(batch, -np.inf)
        live: np.ndarray | None = None  # None while no row is dropped
        # Per support size: the (B, z) minima of the live rows in their
        # batch positions, zero on dropped rows.
        minima_by_size: dict[int, np.ndarray] = {}
        for visited, point in enumerate(supports.order, 1):
            minima = _subset_minima(supports.tables[point], (prefixes, run_of_row, last))
            if live is not None:
                size = minima.shape[0]
                if size not in minima_by_size:
                    minima_by_size[size] = np.zeros((batch, size))
                minima_by_size[size][live] = minima.T
                minima = minima_by_size[size].T
            expected_minima = self.probabilities[point] @ minima
            if point_minima is not None:
                point_minima[point] = expected_minima
            np.maximum(best, expected_minima, out=best)
            if visited & (visited - 1) == 0:  # after the 1st, 2nd, 4th, ... point
                keep = (best if live is None else best[live]) <= cut
                if not keep.all():
                    dropped = np.flatnonzero(~keep) if live is None else live[~keep]
                    live = np.flatnonzero(keep) if live is None else live[keep]
                    for positioned in minima_by_size.values():
                        positioned[dropped] = 0.0
                    run_of_row, last = run_of_row[keep], last[keep]
                    if live.size == 0:
                        break
        return best

    def subset_pair_lower_bounds(
        self, subset_rows: np.ndarray, *, point_minima: np.ndarray | None = None
    ) -> np.ndarray:
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
        times per chunk, not per subset.  Both passes min-reduce
        prefix-factored (:func:`_subset_minima`; a pair's rows are a
        subsequence of the batch, so its runs stay contiguous), bit-identical
        to the plain gather for any row order.  ``point_minima`` skips the
        first pass: the ``(n, B)`` expected minima the unassigned level 1
        already wrote for these rows
        (:meth:`subset_unassigned_lower_bounds`).  They only pick each
        row's pair, so the bound stays admissible whatever their last bits.
        """
        subset_rows = self._check_subset_rows(subset_rows)
        batch = subset_rows.shape[0]
        n = self.size
        if n < 2 or batch == 0:
            return np.zeros(batch)
        tables = self._candidate_major_supports().tables
        expected_minima = point_minima
        if expected_minima is None:
            runs = _prefix_runs(subset_rows)
            expected_minima = np.empty((n, batch))
            for i, (table, weight) in enumerate(zip(tables, self.probabilities)):
                expected_minima[i] = weight @ _subset_minima(table, runs)
        top_two = np.argpartition(expected_minima, n - 2, axis=0)[n - 2 :]
        first = np.minimum(top_two[0], top_two[1])
        second = np.maximum(top_two[0], top_two[1])
        pair_keys = first * n + second
        out = np.empty(batch)
        for key in np.unique(pair_keys):
            mask = pair_keys == key
            i, j = int(key) // n, int(key) % n
            group_runs = _prefix_runs(subset_rows[mask])
            reduced_i = _subset_minima(tables[i], group_runs)  # (z_i, Bg)
            reduced_j = _subset_minima(tables[j], group_runs)  # (z_j, Bg)
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
        the cached expected matrix and a row max.  The unrestricted
        reference's exact polish keeps exactly the assignments this bound
        keeps, as a product of per-point allowed candidates
        (:class:`repro.baselines.brute_force._ExactAssignment`).
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


def _prefix_runs(subset_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split a ``(B, kk)`` batch into runs of rows sharing their first ``kk - 1`` columns.

    Returns ``(prefixes, run_of_row, last)``: the ``(R, kk - 1)`` shared
    columns of each run, the run index of every row, and every row's last
    column.  A run is a maximal block of *consecutive* rows, so any row
    order is valid input; :func:`itertools.combinations` emits subsets in
    lexicographic order, where one run holds every subset that differs only
    in its largest candidate.
    """
    head = subset_rows[:, :-1]
    new_run = np.ones(subset_rows.shape[0], dtype=bool)
    np.any(head[1:] != head[:-1], axis=1, out=new_run[1:])
    return head[new_run], np.cumsum(new_run) - 1, subset_rows[:, -1]


def _subset_minima(
    table: np.ndarray, runs: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> np.ndarray:
    """``table.T[:, rows].min(axis=2)`` with each run's shared prefix reduced once.

    ``table`` is candidate-major, ``(m, r)``: row ``c`` holds candidate
    ``c``'s ``r`` values, and ``runs`` is :func:`_prefix_runs` of ``rows``.
    Each run's ``(R, r)`` prefix minima are reduced once from whole table
    rows (``take`` along axis 0 and an elementwise ``minimum`` per prefix
    column), then each row takes one ``minimum`` with its last column's row.
    ``min`` is exact, so the values are bit-identical to the plain gather
    for any row order.  The result is the ``(r, B)`` transpose view of a
    C-order ``(B, r)`` array, which is the plain gather's memory layout
    (fancy indexing along axis 1 puts the row axis outermost), so a dot
    product over it accumulates in the same order and stays bit-identical
    too.
    """
    prefixes, run_of_row, last = runs
    minima = table.take(last, axis=0)
    if prefixes.shape[1]:
        prefix_minima = table.take(prefixes[:, 0], axis=0)
        for column in prefixes.T[1:]:
            np.minimum(prefix_minima, table.take(column, axis=0), out=prefix_minima)
        np.minimum(prefix_minima.take(run_of_row, axis=0), minima, out=minima)
    return minima.T


def cost_context(dataset: UncertainDataset, candidates: np.ndarray) -> CostContext:
    """Build the shared :class:`CostContext` for ``(dataset, candidates)``."""
    return CostContext(dataset, candidates)
