"""Brute-force reference solvers for small uncertain instances.

These produce the "best known" solutions the experiments compare against on
micro instances (and the *exact* optimum when centers are restricted to a
finite candidate set, e.g. in finite metric spaces, and assignments are
enumerated exhaustively).

* :func:`brute_force_restricted_assigned` — best centers from a candidate
  set for a fixed restricted assignment rule.
* :func:`brute_force_unrestricted_assigned` — best centers from a candidate
  set together with the best assignment (exhaustive over the ``k^n``
  assignments when affordable, local-search polish otherwise).
* :func:`brute_force_unassigned` — best centers from a candidate set for the
  unassigned objective.

All of them enumerate ``C(m, k)`` candidate subsets, so they are exponential
in ``k``; a safety cap protects against accidental misuse.  All exact scoring
goes through one shared :class:`~repro.cost.context.CostContext` per call
(memoized across calls when a :class:`~repro.runtime.store.ContextStore` is
passed): assigned costs through its cached per-candidate sorted CDF columns
(batch kernel), unassigned costs through its rank-keyed batched evaluator,
and every "argmin of a score" assignment rule (ED, EP, OC, nearest-mode)
through :meth:`~repro.assignments.base.AssignmentPolicy.candidate_scores`,
which turns the per-subset policy evaluation into one vectorized argmin —
only genuinely black-box rules (local-search optimal assignment) fall back to
a per-subset policy call, and even those are scored through the shared
evaluator rather than a scratch engine invocation.

Branch-and-bound pruning
------------------------
By default (``prune=True``) the enumerations run as best-first
branch-and-bound instead of exhaustive scans:

* an **incumbent** — the best achieved cost so far — is seeded *before*
  enumeration by a greedy cover over the cached expected-distance matrix
  (:func:`_greedy_seed_columns`), scored through the exact kernels, so
  pruning bites from the first chunk;
* every chunk first evaluates a **vectorized admissible lower bound**
  (:meth:`~repro.cost.context.CostContext.subset_assigned_lower_bounds`,
  :meth:`~repro.cost.context.CostContext.subset_unassigned_lower_bounds`, or
  per-assignment-row / shared-prefix bounds for the exhaustive-assignment
  stage) and skips exactly the rows whose bound exceeds the incumbent by
  more than the floating-point slack
  (:func:`repro.bounds.lower_bounds.prune_margin`);
* across worker shards the incumbent is **shared**
  (:mod:`repro.runtime.incumbent`): each chunk refreshes its threshold once
  at chunk start and publishes its achieved minimum through a lock-light
  compare-and-swap, so one shard's early find shrinks every other shard's
  work.

Pruning is **exact**: every value the incumbent ever holds is the cost of a
feasible solution of the same enumeration (the seed subset or a fully
evaluated row), hence an upper bound on the enumeration's optimum ``C*``; a
skipped row has ``cost >= bound > incumbent >= C*`` and therefore can never
win under the first-strict-minimum tie rule.  The returned subset,
assignment, and cost are bit-identical to the unpruned path (``prune=False``
or ``--no-prune``) at every worker count, with shared memory on or off —
only *which* rows pay the exact kernels varies with timing.  Result metadata
records ``evaluated_rows`` / ``pruned_rows`` next to ``requested_k`` /
``effective_k`` so the win is observable (counts are deterministic serially;
under workers they depend on cross-shard timing while results never do).

One enumeration runner
----------------------
Every enumeration is chunked into ``(B, .)`` batches of at most
``chunk_rows`` rows (default :data:`~repro.cost.context.DEFAULT_CHUNK_ROWS`,
which also bounds per-worker batch memory) and run by one runner,
:func:`_enumerate`: the admissible chunk bounds when pruning, then one
:func:`repro.runtime.parallel.parallel_map_ordered` call (best-first when
pruning, enumeration order otherwise), then the completed chunk results by
chunk index.  The five enumerations — restricted score-matrix, restricted
black-box, unassigned, and the unrestricted subset and exhaustive-assignment
stages — differ only in their chunk task and their reduction, and the
anytime ones share one certificate fold (:func:`_certificate_metadata`).

``workers=1`` — the default — runs the identical chunk loop in-process, and
a requested worker count is clamped to the CPUs actually available, so
``workers=N`` is never slower than serial on a small box.  The fully built
context (pinned supports, sorted CDF columns, rank-merge tables where
needed) is published to shared memory once and each chunk dispatch to the
persistent worker pool carries only the descriptor, its work slice and the
incumbent token (``shm=False`` ships the payload pickled instead, unpickled
once per worker); chunks reduce in enumeration order with the same
first-strict-minimum rule serial execution applies, so results are
bit-identical for every worker count, with shared memory on or off.

When ``k`` exceeds the number of available candidates the solvers run with
the largest feasible ``k`` and record both ``requested_k`` and
``effective_k`` in the result metadata instead of silently solving a
different problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from math import comb
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from .._validation import as_point_array, check_positive_int
from ..algorithms.result import UncertainKCenterResult
from ..assignments.base import AssignmentPolicy
from ..assignments.policies import ExpectedDistanceAssignment
from ..bounds.lower_bounds import prune_margin
from ..cost.context import DEFAULT_CHUNK_ROWS, CostContext
from ..exceptions import ValidationError
from ..runtime import incumbent as incumbent_module
from ..runtime.parallel import (
    MapOutcome,
    iter_chunk_bounds,
    parallel_map_ordered,
    resolve_workers,
)
from ..uncertain.dataset import UncertainDataset

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.store import ContextStore

#: Safety cap on the number of candidate subsets a brute-force call may try.
MAX_CENTER_SUBSETS = 300_000
#: Cap on exhaustive assignment enumeration work (subsets * k ** n).
MAX_ASSIGNMENT_ENUMERATION = 250_000


def default_candidates(dataset: UncertainDataset) -> np.ndarray:
    """Reasonable candidate centers: all locations (+ expected points)."""
    if dataset.metric.supports_expected_point:
        return np.vstack([dataset.all_locations(), dataset.expected_points()])
    return dataset.metric.candidate_centers(dataset.all_locations())


def _effective_k(k: int, candidate_count: int) -> tuple[int, dict[str, int]]:
    """Clamp ``k`` to the candidate count, recording the clamp explicitly."""
    effective = min(k, candidate_count)
    metadata = {"requested_k": int(k), "effective_k": int(effective)}
    return effective, metadata


def _checked_subset_count(candidate_count: int, k: int) -> int:
    total = comb(candidate_count, k)
    if total > MAX_CENTER_SUBSETS:
        raise ValidationError(
            f"brute force would enumerate C({candidate_count}, {k}) center subsets; "
            f"cap is {MAX_CENTER_SUBSETS}"
        )
    return total


def _iter_center_subsets(candidate_count: int, k: int):
    _checked_subset_count(candidate_count, k)
    yield from combinations(range(candidate_count), k)


def _iter_index_chunks(iterator, chunk_rows: int = DEFAULT_CHUNK_ROWS):
    """Chunk an iterator of index tuples into ``(B, n)`` int arrays."""
    chunk_rows = max(1, int(chunk_rows))
    while True:
        chunk = list(islice(iterator, chunk_rows))
        if not chunk:
            return
        yield np.asarray(chunk, dtype=int)


def _iter_subset_chunks(candidate_count: int, k: int, chunk_rows: int = DEFAULT_CHUNK_ROWS):
    """Yield ``(B, k)`` arrays of candidate subsets, ``B <= chunk_rows``."""
    yield from _iter_index_chunks(_iter_center_subsets(candidate_count, k), chunk_rows)


def _build_context(
    dataset: UncertainDataset,
    candidates: np.ndarray,
    store: "ContextStore | None",
) -> CostContext:
    if store is not None:
        return store.get(dataset, candidates)
    return CostContext(dataset, candidates)


# ---------------------------------------------------------------------------
# Incumbent seeding and pruning helpers
# ---------------------------------------------------------------------------


def _greedy_seed_columns(context: CostContext, k: int) -> np.ndarray:
    """``k`` distinct candidate columns from a greedy cover, sorted.

    Greedily minimizes ``max_i min_{c in chosen} E[d(P_i, c)]`` over the
    cached expected-distance matrix — exactly the quantity the subset lower
    bound measures, which is what makes this cheap ``O(k n m)`` opener a
    tight incumbent: subsets whose bound cannot beat the greedy cover's
    achieved cost are pruned from the very first chunk.
    """
    expected = context.expected
    chosen: list[int] = []
    per_point = np.full(context.size, np.inf)
    taken = np.zeros(context.candidate_count, dtype=bool)
    for _ in range(min(k, context.candidate_count)):
        candidate_max = np.minimum(per_point[:, None], expected).max(axis=0)
        candidate_max[taken] = np.inf
        column = int(candidate_max.argmin())
        taken[column] = True
        chosen.append(column)
        per_point = np.minimum(per_point, expected[:, column])
    return np.asarray(sorted(chosen), dtype=int)


def _seed_restricted_incumbent(
    context: CostContext,
    scores: np.ndarray | None,
    policy: AssignmentPolicy,
    k: int,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Exact cost of the greedy seed subset under the call's assignment rule.

    Evaluated through the same kernels the enumeration uses, so the value is
    achieved by a feasible enumeration row — the exactness requirement for
    every incumbent value.  Returns ``(cost, columns, candidate_indices)``:
    the full feasible solution, not just its cost, because a
    ``time_budget`` run whose deadline expires before any chunk completes
    falls back to returning the seed solution (with its certificate).
    """
    columns = _greedy_seed_columns(context, k)
    if scores is not None:
        candidate_indices = context.score_assignments(scores, columns[None, :])[0]
        cost = float(context.assigned_costs(candidate_indices[None, :])[0])
        return cost, columns, candidate_indices
    centers = context.candidates[columns]
    labels = np.asarray(policy(context.dataset, centers), dtype=int)
    candidate_indices = columns[labels]
    return float(context.evaluator.cost(candidate_indices)), columns, candidate_indices


def _seed_unassigned_incumbent(
    context: CostContext, k: int
) -> tuple[float, np.ndarray, None]:
    """Exact unassigned cost of the greedy seed subset: ``(cost, columns, None)``.

    The same shape as the restricted seed (no assignment), so both reduce
    through :func:`_reduce_best`.
    """
    columns = _greedy_seed_columns(context, k)
    return float(context.unassigned_cost(columns)), columns, None


def _prune_mask(bounds: np.ndarray, threshold: float) -> np.ndarray | None:
    """Keep-mask for one chunk, or ``None`` when nothing can be pruned.

    A row survives unless its lower bound exceeds the incumbent by more than
    the floating-point slack — so bound-kernel rounding can only reduce
    pruning, never drop a row that ties the optimum.
    """
    if not np.isfinite(threshold):
        return None
    keep = bounds <= threshold + prune_margin(threshold)
    if keep.all():
        return None
    return keep


def _two_level_prune(
    context: CostContext,
    subset_rows: np.ndarray,
    threshold: float,
    *,
    objective: str = "assigned",
) -> np.ndarray | None:
    """Staged two-level keep-mask for one chunk of candidate subsets.

    Level 1 (one vectorized gather over the expected matrix, or the E[min]
    kernel for the unassigned objective) prunes the bulk; the tighter — but
    pricier — two-point subset bound
    (:meth:`~repro.cost.context.CostContext.subset_pair_lower_bounds`) then
    runs only on level-1 survivors.  Both levels are admissible, so the
    staged mask prunes a superset of level 1 alone while keeping the
    branch-and-bound exactness argument untouched.
    """
    if not np.isfinite(threshold):
        return None
    level1 = (
        context.subset_assigned_lower_bounds(subset_rows)
        if objective == "assigned"
        else context.subset_unassigned_lower_bounds(subset_rows)
    )
    cut = threshold + prune_margin(threshold)
    keep = level1 <= cut
    survivors = np.flatnonzero(keep)
    if survivors.size:
        pair = context.subset_pair_lower_bounds(subset_rows[survivors])
        keep[survivors[pair > cut]] = False
    if keep.all():
        return None
    return keep


def _chunk_lower_bounds(
    context: CostContext, chunks: list[np.ndarray], objective: str
) -> list[float]:
    """Certificate-grade admissible lower bound per chunk, computed up front.

    One two-level bound pass over every chunk *before* submission gives the
    best-first scheduler its priorities, the gap tracker its outstanding
    bound, and the anytime certificate its fold — all from the same float64
    numbers, so a gap the tracker certifies is the gap the metadata reports.

    The value per chunk is the exact two-level min — ``min_r max(l1_r, p_r)``
    — but the quadratic pair expectation ``p_r`` is evaluated lazily: a row
    whose first-level bound already meets or exceeds the running chunk min
    satisfies ``max(l1_r, p_r) >= l1_r >= best`` and can never lower it, so
    its pair term is skipped.  Two batched rounds suffice for exactness:
    the argmin-``l1`` row of every chunk (one pair call for all chunks),
    then every row with ``l1`` strictly below its chunk's round-one value
    (one more).  Rows never evaluated are dominated by construction, so the
    result matches the eager per-row ``subset_two_level`` pass to the ulp
    (cross-chunk batching may reorder a BLAS reduction; the prune margins
    absorb that) at a fraction of the gather traffic — and is a
    deterministic function of the chunk list, which is what the schedule
    and the certificate replay on.
    """
    if not chunks:
        return []
    level1_kernel = (
        context.subset_assigned_lower_bounds
        if objective == "assigned"
        else context.subset_unassigned_lower_bounds
    )
    sizes = [chunk.shape[0] for chunk in chunks]
    splits = np.cumsum(sizes)[:-1]
    all_rows = np.concatenate(chunks, axis=0)
    level1 = level1_kernel(all_rows)
    level1_per_chunk = np.split(level1, splits)
    offsets = np.concatenate([[0], splits])

    # Round one: the argmin-l1 row of each chunk, pair-evaluated in a batch.
    seed_rows = np.array(
        [offset + int(np.argmin(l1)) for offset, l1 in zip(offsets, level1_per_chunk)]
    )
    seed_pair = context.subset_pair_lower_bounds(all_rows[seed_rows])
    best = np.maximum(level1[seed_rows], seed_pair)

    # Round two: rows that could still lower a chunk's min, in one batch.
    candidate_mask = level1 < np.repeat(best, sizes)
    candidate_mask[seed_rows] = False
    candidates = np.flatnonzero(candidate_mask)
    if candidates.size:
        pair = context.subset_pair_lower_bounds(all_rows[candidates])
        two_level = np.maximum(level1[candidates], pair)
        chunk_of = np.searchsorted(splits, candidates, side="right")
        np.minimum.at(best, chunk_of, two_level)
    return [float(value) for value in best]


def _best_first_order(chunk_bounds: list[float]) -> list[int]:
    """Ascending-bound submission order; ties keep enumeration order.

    Stability matters for reproducibility of the *schedule* (results are
    order-independent by the reduction contract): equal-bound chunks submit
    in their enumeration positions at every worker count.
    """
    return sorted(range(len(chunk_bounds)), key=lambda index: (chunk_bounds[index], index))


def _check_gap_target(gap_target: float | None, prune: bool) -> float | None:
    """Validate the anytime gap target: needs bounds, hence pruning."""
    if gap_target is None:
        return None
    if not prune:
        raise ValidationError(
            "gap_target needs prune=True: the certified gap is measured against "
            "the admissible chunk bounds the pruning layer computes"
        )
    gap_target = float(gap_target)
    if not gap_target >= 0.0:
        raise ValidationError("gap_target must be a non-negative relative gap")
    return gap_target


def _assignment_prefix_bound(
    context: CostContext, columns: np.ndarray, start: int, stop: int
) -> float:
    """Admissible bound on *every* assignment row in shard ``[start, stop)``.

    Rows are base-``kk`` encodings, most-significant digit first, so the
    digits shared by ``start`` and ``stop - 1`` pin the assignments of a
    prefix of points for the whole shard; those points contribute their
    exact expected distances, the free suffix is relaxed to each point's
    subset minimum.  When the bound already exceeds the incumbent the shard
    is skipped without even decoding its rows.
    """
    n = context.size
    kk = int(columns.shape[0])
    expected = context.expected
    subset_min = expected[:, columns].min(axis=1)
    shared = 0
    while shared < n:
        divisor = kk ** (n - shared - 1)
        if start // divisor != (stop - 1) // divisor:
            break
        shared += 1
    bound = float(subset_min[shared:].max()) if shared < n else -np.inf
    if shared > 0:
        exponents = np.arange(n - 1, n - shared - 1, -1, dtype=np.int64)
        digits = (start // kk ** exponents) % kk
        prefix = expected[np.arange(shared), columns[digits]]
        bound = max(bound, float(prefix.max()))
    return bound


# ---------------------------------------------------------------------------
# The enumeration runner
# ---------------------------------------------------------------------------


@dataclass
class _Enumeration:
    """One driven enumeration: its chunks, their bounds and the map outcome."""

    chunks: list
    bounds: list[float] | None
    outcome: MapOutcome

    def completed(self) -> list:
        """Results of every completed chunk, in enumeration order."""
        return [self.outcome.results[index] for index in sorted(self.outcome.results)]


def _enumerate(
    task: Callable[[Any, Any], Any],
    chunks: list,
    payload: Any,
    *,
    seed: float | None,
    chunk_bounds: Callable[[], list[float]],
    workers: int,
    shm: bool | None,
    time_budget: float | None = None,
    gap_target: float | None = None,
) -> _Enumeration:
    """The one enumeration runner: chunk bounds, one map, results by index.

    With pruning on, ``seed`` is the incumbent's starting value (an achieved
    feasible cost, or ``inf``): the admissible per-chunk bounds are computed
    up front by ``chunk_bounds()`` and the chunks are submitted best-first,
    in ascending-bound order (:func:`_best_first_order`), with the bounds
    doubling as the gap tracker's outstanding bound.  ``seed=None`` runs the
    chunks in enumeration order with no incumbent at all.  Either way the
    reduction walks completed chunks by enumeration index
    (:meth:`_Enumeration.completed`), so the schedule never changes a result.
    """
    bounds = chunk_bounds() if seed is not None else None
    outcome = parallel_map_ordered(
        task,
        chunks,
        payload=payload,
        workers=workers,
        shm=shm,
        incumbent_seed=seed,
        time_budget=time_budget,
        order=None if bounds is None else _best_first_order(bounds),
        chunk_bounds=bounds,
        gap_target=gap_target,
    )
    return _Enumeration(chunks, bounds, outcome)


def _reduce_best(results: list, fallback: tuple | None) -> tuple[tuple, int, int]:
    """First strict minimum over ``(cost, subset, assignment, pruned, evaluated)``.

    ``results`` come in enumeration order, so the first row reaching the
    minimum wins exactly as in a serial scan.  ``fallback`` — the greedy
    seed solution of an anytime run — is a feasible solution evaluated by
    the same kernels; it can only win when a stop skipped every chunk that
    would have beaten it (a completed run always contains the seed's own
    row, so the strict ``<`` is a no-op there).  Returns
    ``((cost, subset, assignment), pruned_rows, evaluated_rows)``.
    """
    best: tuple = (np.inf, None, None)
    pruned_rows = 0
    evaluated_rows = 0
    for cost, subset, assignment, pruned, evaluated in results:
        pruned_rows += pruned
        evaluated_rows += evaluated
        if cost < best[0]:
            best = (float(cost), subset, assignment)
    if fallback is not None and (best[1] is None or fallback[0] < best[0]):
        best = (float(fallback[0]), fallback[1], fallback[2])
    assert best[1] is not None
    return best, pruned_rows, evaluated_rows


def _certificate_metadata(
    context: CostContext,
    run: _Enumeration,
    best_cost: float,
    time_budget: float | None,
    gap_target: float | None,
    objective: str,
) -> dict:
    """The anytime metadata of one driven enumeration, certificate included.

    ``deadline_hit`` / ``gap_target_hit`` say why submission stopped and
    ``chunks_total`` / ``chunks_completed`` how far it got.  ``certificate``
    is ``(cost, lower_bound, gap)``: ``best_cost`` is achieved by a feasible
    solution (an upper bound on the enumeration optimum ``C*``), and every
    skipped chunk contributes the minimum of its admissible per-row lower
    bounds — the runner's chunk bounds when the run pruned, otherwise its
    two-level bound for ``objective`` — so
    ``lower_bound = min(best_cost, min over skipped chunks)`` satisfies
    ``lower_bound <= C* <= cost``: rows pruned inside *completed* chunks had
    ``cost > threshold >= best_cost`` by the branch-and-bound exactness
    argument, so they can never undercut it.  Folded chunk bounds are
    relaxed by the same floating-point slack the pruning layer grants
    (:func:`~repro.bounds.lower_bounds.prune_margin`): the bound kernels
    batch differently than the cost kernels, so a mathematically tight bound
    can land an ulp *above* the achievable cost.  A run that completes every
    chunk certifies ``gap = 0``.
    """
    metadata: dict = {}
    if time_budget is not None:
        metadata["time_budget"] = float(time_budget)
    metadata["deadline_hit"] = bool(run.outcome.deadline_hit)
    if gap_target is not None:
        metadata["gap_target"] = float(gap_target)
        metadata["gap_target_hit"] = bool(run.outcome.gap_target_hit)
    metadata["chunks_total"] = len(run.chunks)
    metadata["chunks_completed"] = len(run.outcome.results)
    skipped = [index for index in range(len(run.chunks)) if index not in run.outcome.results]
    cost = float(best_cost)
    lower_bound = cost
    for index in skipped:
        if run.bounds is not None:
            bound = run.bounds[index]
        else:
            rows = run.chunks[index]
            bound = float(context.subset_two_level_lower_bounds(rows, objective=objective).min())
        lower_bound = min(lower_bound, bound)
    if skipped:
        lower_bound -= prune_margin(lower_bound)
    if lower_bound > 0:
        gap = (cost - lower_bound) / lower_bound
    else:
        gap = 0.0 if cost == lower_bound else float("inf")
    metadata["certificate"] = {"cost": cost, "lower_bound": float(lower_bound), "gap": float(gap)}
    return metadata


# ---------------------------------------------------------------------------
# Chunk tasks (module level so pool workers resolve them by reference)
# ---------------------------------------------------------------------------


def _chunk_best(costs: np.ndarray) -> tuple[int, float]:
    winner = int(np.argmin(costs))
    return winner, float(costs[winner])


def _restricted_chunk_task(payload, subset_rows: np.ndarray):
    """Score one chunk of subsets under a score-matrix assignment rule.

    Returns ``(cost, subset, candidate_indices, pruned, evaluated)``; a
    fully pruned chunk returns ``(inf, None, None, total, 0)``.
    """
    context, scores, chunk_rows = payload
    handle = incumbent_module.active()
    total = subset_rows.shape[0]
    if handle is not None:
        keep = _two_level_prune(context, subset_rows, handle.value())
        if keep is not None:
            subset_rows = subset_rows[keep]
    evaluated = subset_rows.shape[0]
    if evaluated == 0:
        return np.inf, None, None, total, 0
    candidate_index_rows = context.score_assignments(scores, subset_rows)
    costs = context.assigned_costs(candidate_index_rows, chunk_rows=chunk_rows)
    winner, cost = _chunk_best(costs)
    if handle is not None:
        handle.propose(cost)
    return cost, subset_rows[winner], candidate_index_rows[winner], total - evaluated, evaluated


def _blackbox_chunk_task(payload, subset_rows: np.ndarray):
    """Score one chunk of subsets under a black-box assignment policy.

    The subset bound holds for *any* assignment into the subset, so pruning
    here skips whole policy evaluations — the expensive part of this path.
    Surviving rows go through **one**
    :meth:`~repro.assignments.base.AssignmentPolicy.chunk_assignments` call
    for the whole chunk (score-matrix rules pay a single
    ``candidate_scores`` evaluation; local-search rules share one evaluator
    across every row) and one batched exact cost kernel, instead of one
    policy call and one single-row sweep per subset.  Returns
    ``(cost, subset, candidate_indices, pruned, evaluated)`` — the shape of
    :func:`_restricted_chunk_task`, so both reduce the same way.
    """
    context, policy = payload
    handle = incumbent_module.active()
    total = subset_rows.shape[0]
    if handle is not None:
        keep = _two_level_prune(context, subset_rows, handle.value())
        if keep is not None:
            subset_rows = subset_rows[keep]
    evaluated = subset_rows.shape[0]
    if evaluated == 0:
        return np.inf, None, None, total, 0
    candidate_index_rows = policy.chunk_assignments(context, subset_rows)
    costs = context.assigned_costs(candidate_index_rows)
    winner, cost = _chunk_best(costs)
    if handle is not None:
        handle.propose(cost)
    return cost, subset_rows[winner], candidate_index_rows[winner], total - evaluated, evaluated


def _ed_scored_chunk_task(payload, subset_rows: np.ndarray):
    """ED-score one chunk of subsets, returning every surviving row.

    Stage 1 of the unrestricted search keeps a full ranking of the
    ``polish_top`` cheapest subsets, so its incumbent is a *top-K
    threshold*: each chunk publishes its own ``top_k``-th smallest evaluated
    cost (an upper bound on the global ``top_k``-th smallest, since the
    chunk's rows are a subset of all rows) and prunes rows whose lower bound
    exceeds the shared threshold — rows that provably cannot enter the
    global top ``top_k`` nor be the stage winner.  Returns
    ``(kept_indices, costs, assignment_rows, pruned)``.
    """
    context, chunk_rows, top_k = payload
    handle = incumbent_module.active()
    total = subset_rows.shape[0]
    kept = None
    if handle is not None:
        keep = _two_level_prune(context, subset_rows, handle.value())
        if keep is not None:
            kept = np.flatnonzero(keep)
            subset_rows = subset_rows[kept]
    if subset_rows.shape[0] == 0:
        empty_assignments = np.empty((0, context.size), dtype=int)
        return np.empty(0, dtype=int), np.empty(0), empty_assignments, total
    candidate_index_rows = context.ed_assignments(subset_rows)
    costs = context.assigned_costs(candidate_index_rows, chunk_rows=chunk_rows)
    if handle is not None and costs.shape[0] >= top_k:
        handle.propose(float(np.partition(costs, top_k - 1)[top_k - 1]))
    if kept is None:
        kept = np.arange(total)
    return kept, costs, candidate_index_rows, total - subset_rows.shape[0]


def _assignment_rows_slice(columns: np.ndarray, n: int, start: int, stop: int) -> np.ndarray:
    """Rows ``[start, stop)`` of the ``kk ** n`` assignment enumeration.

    Decodes the enumeration indices in base ``kk`` (most-significant digit
    first), which reproduces ``itertools.product(range(kk), repeat=n)`` order
    without iterating from the beginning of the stream — what lets shards
    start mid-enumeration in O(chunk) instead of O(stream prefix).
    """
    kk = columns.shape[0]
    indices = np.arange(start, stop, dtype=np.int64)[:, None]
    powers = kk ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return columns[(indices // powers) % kk]


def _exhaustive_chunk_task(payload, item):
    """Best assignment within one shard of one subset's ``kk ** n`` space.

    Two pruning levels: the shared-prefix bound can drop the whole shard
    before any row is decoded, then per-row bounds (one gather + row max
    over the expected matrix) drop individual assignments.  Returns
    ``(cost, assignment_row, pruned, evaluated)``.
    """
    context, n, chunk_rows = payload
    columns, start, stop = item
    handle = incumbent_module.active()
    total = stop - start
    threshold = handle.value() if handle is not None else np.inf
    if handle is not None and np.isfinite(threshold):
        if _assignment_prefix_bound(context, columns, start, stop) > threshold + prune_margin(
            threshold
        ):
            return np.inf, None, total, 0
    assignment_rows = _assignment_rows_slice(columns, n, start, stop)
    if handle is not None and np.isfinite(threshold):
        keep = _prune_mask(context.assignment_lower_bounds(assignment_rows), threshold)
        if keep is not None:
            assignment_rows = assignment_rows[keep]
    evaluated = assignment_rows.shape[0]
    if evaluated == 0:
        return np.inf, None, total, 0
    costs = context.assigned_costs(assignment_rows, chunk_rows=chunk_rows)
    winner, cost = _chunk_best(costs)
    if handle is not None:
        handle.propose(cost)
    return cost, assignment_rows[winner], total - evaluated, evaluated


def _unassigned_chunk_task(payload, subset_rows: np.ndarray):
    """Score one chunk of subsets on the unassigned objective.

    Returns ``(cost, subset, None, pruned, evaluated)`` — the restricted
    tasks' shape with no assignment — or ``(inf, None, None, total, 0)``
    for a fully pruned chunk.
    """
    context, chunk_rows = payload
    handle = incumbent_module.active()
    total = subset_rows.shape[0]
    if handle is not None:
        keep = _two_level_prune(context, subset_rows, handle.value(), objective="unassigned")
        if keep is not None:
            subset_rows = subset_rows[keep]
    evaluated = subset_rows.shape[0]
    if evaluated == 0:
        return np.inf, None, None, total, 0
    costs = context.unassigned_costs(subset_rows, chunk_rows=chunk_rows)
    winner, cost = _chunk_best(costs)
    if handle is not None:
        handle.propose(cost)
    return cost, subset_rows[winner], None, total - evaluated, evaluated


# ---------------------------------------------------------------------------
# Public solvers
# ---------------------------------------------------------------------------


def brute_force_restricted_assigned(
    dataset: UncertainDataset,
    k: int,
    *,
    assignment: AssignmentPolicy | None = None,
    candidates: np.ndarray | None = None,
    workers: int = 1,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    store: "ContextStore | None" = None,
    shm: bool | None = None,
    prune: bool = True,
    time_budget: float | None = None,
    gap_target: float | None = None,
) -> UncertainKCenterResult:
    """Best candidate centers under a fixed restricted assignment rule.

    This is exact (over the candidate set) because the assignment rule is a
    deterministic function of the centers.  ``workers`` shards the subset
    chunks across processes (``1`` = serial, bit-identical either way);
    ``chunk_rows`` bounds both the shard granularity and per-worker batch
    memory; ``store`` memoizes the cost context across repeated calls on the
    same (dataset, candidates) pair.  ``prune=False`` disables the
    branch-and-bound layer (the CLI's ``--no-prune``) — results are
    bit-identical either way, pruning only skips provably losing rows.

    With pruning on, chunks are scheduled **best-first**: every chunk's
    admissible two-level lower bound is computed up front and chunks are
    submitted in ascending-bound order (:func:`_best_first_order`), so the
    cheapest regions of the subset space are searched first and the
    certified optimality gap shrinks as fast as the bounds allow — while
    the final result stays bit-identical to submission order, because the
    reduction walks completed chunks by enumeration index either way.

    ``time_budget`` (seconds) turns the call into an **anytime** solve: the
    enumeration stops when the budget expires and the best solution found so
    far is returned — never worse than the greedy seed, which is evaluated
    up front exactly so an expired budget still yields a feasible answer —
    together with a ``certificate`` metadata entry,
    ``(cost, lower_bound, gap)``, where the lower bound folds the admissible
    chunk bounds of every subset chunk never run
    (:func:`_certificate_metadata`'s exactness argument).  ``None`` (the
    default) never truncates and adds no metadata.

    ``gap_target`` stops the same way on *precision* instead of time: once
    ``(incumbent - min outstanding chunk bound) / lower <= gap_target``
    (:func:`repro.runtime.incumbent.certified_gap`), no further chunks are
    submitted and the result carries the same sound certificate plus a
    ``gap_target_hit`` metadata flag.  Requires ``prune=True``;
    combinable with ``time_budget`` (whichever fires first).  At
    ``gap_target=0`` the stop never fires and results are bit-identical to
    a full run.
    """
    k = check_positive_int(k, name="k")
    policy = assignment or ExpectedDistanceAssignment()
    if candidates is None:
        candidates = default_candidates(dataset)
    candidates = as_point_array(candidates, name="candidates")
    k, k_metadata = _effective_k(k, candidates.shape[0])
    workers = resolve_workers(workers)

    context = _build_context(dataset, candidates, store)
    if isinstance(policy, ExpectedDistanceAssignment):
        scores = context.expected  # cached; bit-identical to the policy's matrix
    else:
        scores = policy.candidate_scores(dataset, candidates)

    seed_solution = (
        _seed_restricted_incumbent(context, scores, policy, k)
        if prune or time_budget is not None
        else None
    )
    gap_target = _check_gap_target(gap_target, prune)
    anytime = time_budget is not None or gap_target is not None
    total_rows = _checked_subset_count(candidates.shape[0], k)
    chunks = list(_iter_subset_chunks(candidates.shape[0], k, chunk_rows))
    if scores is not None:
        task, payload = _restricted_chunk_task, (context, scores, chunk_rows)
    else:
        # Black-box assignment rule: one batched chunk_assignments call per
        # chunk, with the exact costs still coming from the shared
        # evaluator's cached columns.
        task, payload = _blackbox_chunk_task, (context, policy)
    if scores is None or workers > 1:
        # Build the sorted columns once and ship them to every worker —
        # without this, black-box rules would fall back to the context's
        # lazy single-score path and re-derive distances per subset.
        context.evaluator
    run = _enumerate(
        task,
        chunks,
        payload,
        seed=seed_solution[0] if prune and seed_solution is not None else None,
        chunk_bounds=lambda: _chunk_lower_bounds(context, chunks, "assigned"),
        workers=workers,
        shm=shm,
        time_budget=time_budget,
        gap_target=gap_target,
    )
    (best_cost, best_subset, candidate_indices), pruned_rows, evaluated_rows = _reduce_best(
        run.completed(), seed_solution if anytime else None
    )
    metadata = {
        "algorithm": "brute-force-restricted",
        "candidate_count": int(candidates.shape[0]),
        "workers": int(workers),
        **k_metadata,
        "prune": bool(prune),
        "total_rows": int(total_rows),
        "evaluated_rows": int(evaluated_rows),
        "pruned_rows": int(pruned_rows),
    }
    if anytime:
        metadata.update(
            _certificate_metadata(context, run, best_cost, time_budget, gap_target, "assigned")
        )
    return UncertainKCenterResult(
        centers=candidates[best_subset],
        expected_cost=float(best_cost),
        objective="restricted-assigned",
        assignment=np.asarray(np.searchsorted(best_subset, candidate_indices), dtype=int),
        assignment_policy=policy.name,
        guaranteed_factor=None,
        metadata=metadata,
    )


def brute_force_unrestricted_assigned(
    dataset: UncertainDataset,
    k: int,
    *,
    candidates: np.ndarray | None = None,
    exhaustive_assignment: bool | None = None,
    polish_top: int = 8,
    workers: int = 1,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    store: "ContextStore | None" = None,
    shm: bool | None = None,
    prune: bool = True,
) -> UncertainKCenterResult:
    """Best-known candidate centers together with the best assignment.

    Every ``C(m, k)`` candidate subset is scored with the expected-distance
    assignment (one batched exact cost evaluation per chunk of subsets).  The
    ``polish_top`` cheapest subsets are then re-optimised, either by
    exhaustive assignment enumeration (exact for those subsets; enabled
    automatically when ``polish_top * k ** n`` is small, or forced with
    ``exhaustive_assignment=True``) or by single-move local search through
    the round-amortized sweep.  Both enumeration stages shard their chunks
    across ``workers`` processes with serial-identical reductions.

    With pruning on (the default) the subset stage runs under a shared
    top-``polish_top`` threshold (rows that provably cannot enter the
    polishing pool nor win the stage are skipped — the pool membership and
    order are preserved exactly) and the exhaustive stage under the stage-1
    winner as incumbent with per-row and shared-prefix bounds.  Both stages
    submit their chunks best-first (ascending admissible bound), and the
    local-search polish shares the same incumbent machinery: subsets whose
    admissible bound exceeds the live incumbent skip the polish entirely.

    For an exact optimum over the candidate set pass
    ``polish_top >= C(m, k)`` together with ``exhaustive_assignment=True``
    (micro instances only).
    """
    k = check_positive_int(k, name="k")
    if candidates is None:
        candidates = default_candidates(dataset)
    candidates = as_point_array(candidates, name="candidates")
    k, k_metadata = _effective_k(k, candidates.shape[0])
    n = dataset.size
    workers = resolve_workers(workers)

    context = _build_context(dataset, candidates, store)
    if workers > 1 or prune:
        context.expected  # pin before shipping: workers share, never rebuild
        context.evaluator
    top_k = max(1, int(polish_top))
    subset_chunks = list(_iter_subset_chunks(candidates.shape[0], k, chunk_rows))
    subset_total = sum(chunk.shape[0] for chunk in subset_chunks)
    # Best-first submission tightens the shared top-K threshold early:
    # low-bound chunks hold the cheap subsets, so the threshold other shards
    # prune against drops within the first few completions.
    stage = _enumerate(
        _ed_scored_chunk_task,
        subset_chunks,
        (context, chunk_rows, top_k),
        seed=np.inf if prune else None,
        chunk_bounds=lambda: _chunk_lower_bounds(context, subset_chunks, "assigned"),
        workers=workers,
        shm=shm,
    )
    scored: list[tuple[float, tuple[int, ...], np.ndarray]] = []
    subset_pruned = 0
    for subset_rows, (kept, costs, candidate_index_rows, pruned) in zip(
        subset_chunks, stage.completed()
    ):
        subset_pruned += pruned
        rows = subset_rows[kept]
        scored.extend(
            (float(cost), tuple(int(c) for c in subset), candidate_indices)
            for cost, subset, candidate_indices in zip(costs, rows, candidate_index_rows)
        )
    scored.sort(key=lambda entry: entry[0])

    polish_top = max(1, min(polish_top, len(scored)))
    if exhaustive_assignment is None:
        exhaustive_assignment = polish_top * (k**n) <= MAX_ASSIGNMENT_ENUMERATION

    best_cost, best_subset, best_candidate_indices = scored[0]
    assignment_pruned = 0
    assignment_evaluated = 0
    if exhaustive_assignment:
        items = [
            (np.asarray(subset, dtype=int), start, stop)
            for _, subset, _ in scored[:polish_top]
            for start, stop in iter_chunk_bounds(k**n, chunk_rows)
        ]
        # The shared-prefix bound the shards prune with, computed up front
        # per item, doubles as the best-first priority.
        exhaustive = _enumerate(
            _exhaustive_chunk_task,
            items,
            (context, n, chunk_rows),
            seed=best_cost if prune else None,
            chunk_bounds=lambda: [
                _assignment_prefix_bound(context, columns, start, stop)
                for columns, start, stop in items
            ],
            workers=workers,
            shm=shm,
        )
        for (columns, _, _), (cost, assignment_row, pruned, evaluated) in zip(
            items, exhaustive.completed()
        ):
            assignment_pruned += pruned
            assignment_evaluated += evaluated
            if cost < best_cost:
                best_cost = float(cost)
                best_subset = tuple(int(c) for c in columns)
                best_candidate_indices = assignment_row
    else:
        # The polish stage shares the incumbent machinery with the
        # enumeration stages: polishing a subset cannot beat its admissible
        # lower bound, so candidates whose bound exceeds the live incumbent
        # are skipped without paying the local search — and since a skipped
        # subset's polished cost could never win the strict-< reduction, the
        # result is identical to polishing all of them.
        with incumbent_module.serial_incumbent(float(best_cost)) as handle:
            for cost, subset, _ in scored[:polish_top]:
                columns = np.asarray(subset, dtype=int)
                if prune:
                    threshold = handle.value()
                    bound = float(
                        context.subset_two_level_lower_bounds(columns[None, :])[0]
                    )
                    if bound > threshold + prune_margin(threshold):
                        continue
                candidate_indices = context.ed_assignment(subset)
                candidate_indices = _single_move_polish(context, columns, candidate_indices)
                candidate_cost = context.assigned_cost(candidate_indices)
                handle.propose(float(candidate_cost))
                if candidate_cost < best_cost:
                    best_cost, best_subset, best_candidate_indices = candidate_cost, subset, candidate_indices

    columns = np.asarray(best_subset, dtype=int)
    labels = np.searchsorted(columns, best_candidate_indices)
    return UncertainKCenterResult(
        centers=candidates[list(best_subset)],
        expected_cost=float(best_cost),
        objective="unrestricted-assigned",
        assignment=np.asarray(labels, dtype=int),
        assignment_policy="exhaustive" if exhaustive_assignment else "optimal-local",
        guaranteed_factor=None,
        metadata={
            "algorithm": "brute-force-unrestricted",
            "candidate_count": int(candidates.shape[0]),
            "exhaustive_assignment": bool(exhaustive_assignment),
            "polished_subsets": polish_top,
            "workers": int(workers),
            **k_metadata,
            "prune": bool(prune),
            "total_rows": int(subset_total + (polish_top * (k**n) if exhaustive_assignment else 0)),
            "evaluated_rows": int(subset_total - subset_pruned + assignment_evaluated),
            "pruned_rows": int(subset_pruned + assignment_pruned),
            "subset_pruned_rows": int(subset_pruned),
            "assignment_pruned_rows": int(assignment_pruned),
        },
    )


def _single_move_polish(
    context: CostContext,
    columns: np.ndarray,
    candidate_indices: np.ndarray,
    *,
    max_rounds: int = 10,
) -> np.ndarray:
    """Single-point reassignment local search on the exact assigned cost.

    One :class:`~repro.cost.expected.LocalSearchSweep` carries the whole
    search: each point's rest profile is divided out of the cached union
    sweep (not re-sorted per point) and accepted moves are spliced in
    incrementally.
    """
    evaluator = context.evaluator
    sweep = evaluator.local_search_sweep(candidate_indices)
    best_cost = sweep.cost()
    n = candidate_indices.shape[0]
    for _ in range(max_rounds):
        improved = False
        for point_index in range(n):
            original = sweep.column_of(point_index)
            profile = sweep.rest_profile(point_index)
            costs = evaluator.move_costs(profile, columns)
            winner = int(np.argmin(costs))
            tolerance = 1e-12 * max(1.0, abs(best_cost))
            if int(columns[winner]) != original and costs[winner] < best_cost - tolerance:
                sweep.apply_move(point_index, int(columns[winner]))
                best_cost = float(costs[winner])
                improved = True
        if not improved:
            break
    return sweep.columns


def brute_force_unassigned(
    dataset: UncertainDataset,
    k: int,
    *,
    candidates: np.ndarray | None = None,
    workers: int = 1,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    store: "ContextStore | None" = None,
    shm: bool | None = None,
    prune: bool = True,
    time_budget: float | None = None,
    gap_target: float | None = None,
) -> UncertainKCenterResult:
    """Best candidate centers for the unassigned expected cost (exact over the set).

    ``time_budget`` and ``gap_target`` make the call anytime, exactly like
    :func:`brute_force_restricted_assigned`: with pruning on, chunks run
    best-first in ascending two-level-bound order, and a ``certificate``
    metadata entry reports ``(cost, lower_bound, gap)`` with the lower
    bound folded over the E[min]-based chunk bounds of every skipped chunk;
    an expired budget still returns the greedy seed subset.
    """
    k = check_positive_int(k, name="k")
    if candidates is None:
        candidates = default_candidates(dataset)
    candidates = as_point_array(candidates, name="candidates")
    k, k_metadata = _effective_k(k, candidates.shape[0])
    workers = resolve_workers(workers)

    context = _build_context(dataset, candidates, store)
    if workers > 1:
        context._rank_merge_tables()  # built once, published to every worker
    seed_solution = (
        _seed_unassigned_incumbent(context, k) if prune or time_budget is not None else None
    )
    gap_target = _check_gap_target(gap_target, prune)
    anytime = time_budget is not None or gap_target is not None
    total_rows = _checked_subset_count(candidates.shape[0], k)
    chunks = list(_iter_subset_chunks(candidates.shape[0], k, chunk_rows))
    run = _enumerate(
        _unassigned_chunk_task,
        chunks,
        (context, chunk_rows),
        seed=seed_solution[0] if prune and seed_solution is not None else None,
        chunk_bounds=lambda: _chunk_lower_bounds(context, chunks, "unassigned"),
        workers=workers,
        shm=shm,
        time_budget=time_budget,
        gap_target=gap_target,
    )
    (best_cost, best_subset, _), pruned_rows, evaluated_rows = _reduce_best(
        run.completed(), seed_solution if anytime else None
    )
    metadata = {
        "algorithm": "brute-force-unassigned",
        "candidate_count": int(candidates.shape[0]),
        "workers": int(workers),
        **k_metadata,
        "prune": bool(prune),
        "total_rows": int(total_rows),
        "evaluated_rows": int(evaluated_rows),
        "pruned_rows": int(pruned_rows),
    }
    if anytime:
        metadata.update(
            _certificate_metadata(context, run, best_cost, time_budget, gap_target, "unassigned")
        )
    return UncertainKCenterResult(
        centers=candidates[best_subset],
        expected_cost=float(best_cost),
        objective="unassigned",
        guaranteed_factor=None,
        metadata=metadata,
    )
