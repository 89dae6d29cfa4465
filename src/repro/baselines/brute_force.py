"""Brute-force reference solvers for small uncertain instances.

These produce the "best known" solutions the experiments compare against on
micro instances (and the *exact* optimum when centers are restricted to a
finite candidate set, e.g. in finite metric spaces, and assignments are
enumerated exhaustively).

* :func:`brute_force_restricted_assigned` — best centers from a candidate
  set for a fixed restricted assignment rule.
* :func:`brute_force_unrestricted_assigned` — best centers from a candidate
  set together with the best assignment (the cheapest of a subset's ``k^n``
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
only genuinely black-box rules (local-search optimal assignment, and the
unrestricted reference's exact polish) search per subset, through one
``chunk_assignments`` call per chunk over the shared evaluator.

Branch-and-bound pruning
------------------------
By default (``prune=True``) the enumerations run as branch-and-bound
instead of exhaustive scans:

* an **incumbent** — the best achieved cost so far — is seeded *before*
  enumeration by a greedy cover over the cached expected-distance matrix
  (:func:`_greedy_seed_columns`), scored by the one seed
  (:func:`_seed_solution`) through the same :func:`_score_rows` call the
  enumeration makes, so the seed is a row of the enumeration by
  construction and pruning bites from the first chunk;
* every chunk first evaluates a **vectorized admissible lower bound**
  (:meth:`~repro.cost.context.CostContext.subset_assigned_lower_bounds`,
  :meth:`~repro.cost.context.CostContext.subset_unassigned_lower_bounds`,
  then, for the unassigned and black-box rules, the pair bound on their
  survivors) and skips exactly the rows whose bound exceeds the incumbent
  by more than the floating-point slack
  (:func:`repro.bounds.lower_bounds.prune_margin`); the score-matrix rules,
  whose exact rows are cheap, cut on level 1 and on whatever pair values
  an anytime search's bound map already computed.  The unassigned level 1
  takes that cut: it visits the points farthest-first (by
  ``E[min over all candidates]``) and stops reducing a row once its
  partial bound exceeds the cut (at ``enum_mid``'s greedy-seed cut the
  first point alone settles every row that level 1 cuts);
* each subset row is bounded **once**: the subset kernels min-reduce each
  run of rows sharing their first ``k - 1`` candidates once (the
  enumeration emits rows in such runs), from candidate-major tables whose
  rows are whole candidate columns, and in an anytime search the
  per-row bounds a chunk's bound task computed ride into its scoring task
  with it (:func:`_chunk_bound`, :func:`_two_level_prune`);
* across worker shards the incumbent is **relayed**
  (:mod:`repro.runtime.incumbent`): each chunk dispatch carries the map's
  current incumbent as its threshold, and the parent proposes each
  harvested chunk's achieved value (its ``top_k``-th cheapest cost) back
  into it, so one shard's early find shrinks the work of every chunk
  submitted after it is harvested.

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

One map per plain search
------------------------
Every enumeration is chunked into ``(B, .)`` batches of at most
``chunk_rows`` rows (default :data:`~repro.cost.context.DEFAULT_CHUNK_ROWS`,
which also bounds per-worker batch memory) and run as one
:func:`repro.runtime.parallel.parallel_map_ordered` call in enumeration
order, each chunk bounding its own rows against the relayed incumbent;
the results are read back by chunk index.  Only an **anytime** search (a
``time_budget`` or ``gap_target``, either of which needs pruning on)
reads chunk bounds before its chunks run — the gap stop, the best-first
order and the certificate need them — so only it runs a bound map first, a
:func:`repro.runtime.parallel.parallel_map` of a per-chunk bound task
over the same pool, payload and transport, and then submits its chunks
best-first.

Every enumeration is one **subset search** (:func:`_search_subsets`):
one chunk task (:func:`_subset_chunk_task`) and, for anytime searches,
one bound task (:func:`_subset_bound_task`) over the payload
``(context, rule, top_k)``.  The searches differ only in the *rule* a row
is scored by (:func:`_score_rows`): the unassigned objective
(:data:`UNASSIGNED`), the expected-distance rule (``None``, its matrix
read from ``context.expected``, so nothing extra ships), a shipped
``(n, m)`` score matrix, or a black-box rule.  The rule also picks the
objective the bounds and the certificate use, and whether the pair kernel
runs in the chunk.  Each chunk returns its ``top_k`` cheapest rows in
``(cost, row)`` order: the restricted and unassigned solves run
``top_k=1`` through one body (:func:`_solve_subsets`), and the
unrestricted reference's subset stage runs ``top_k=polish_top`` — a row
of the global top ``polish_top`` is in its own chunk's top
``polish_top``, so one stable sort of the chunks' lists in enumeration
order ranks the polishing pool exactly, while each chunk ships back at
most ``polish_top`` rows.  Its polish is a second subset search over
those subsets, under a black-box rule: the exact one
(:class:`_ExactAssignment`, the cheapest assignment into each subset) or
local search.  The anytime runs share one certificate fold
(:func:`_certificate_metadata`).

``workers=1`` — the default — runs the identical chunk loop in-process, and
a requested worker count is clamped to the CPUs actually available and to
the chunk count, so a lone chunk runs in-process too.  The clamp does not
look at the work: a pooled search whose chunks are mostly pruned pays
more in dispatch than it saves and can run slower than ``workers=1``
(ROADMAP.md, item 1).  The fully built context (pinned supports, sorted
CDF columns, the unassigned rank-merge tables where needed) is published
to shared memory once and each chunk dispatch to the persistent worker
pool carries only the descriptor, its work slice and the incumbent's
current value (``shm=False`` ships the payload pickled instead, unpickled
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
from itertools import islice
from math import comb, prod
from typing import TYPE_CHECKING, Any

import numpy as np

from .._validation import as_point_array, check_positive_int
from ..algorithms.result import UncertainKCenterResult
from ..assignments.base import AssignmentPolicy
from ..assignments.policies import ExpectedDistanceAssignment, OptimalAssignment
from ..bounds.lower_bounds import prune_margin
from ..cost.context import DEFAULT_CHUNK_ROWS, CostContext
from ..exceptions import ValidationError
from ..runtime import incumbent as incumbent_module
from ..runtime.parallel import MapOutcome, parallel_map, parallel_map_ordered, resolve_workers
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


def _subset_rows(candidate_count: int, k: int) -> np.ndarray:
    """All ``C(m, k)`` ``k``-subsets of ``range(m)`` as a ``(C(m, k), k)`` array.

    Rows come in lexicographic order, the order of
    :func:`itertools.combinations`.  The count is checked against the cap
    before anything is allocated.  The array is built from its last column
    back, one column per step: a row whose new first entry is ``a`` ends in
    a subset of ``range(a + 1, m)``, and those subsets are a suffix of the
    previous step's rows, so each column costs one ``repeat`` and one
    ``concatenate``.
    """
    _checked_subset_count(candidate_count, k)
    spare = candidate_count - k
    # Step ``length`` holds every ``length``-subset of range(k - length, m).
    rows = np.arange(k - 1, candidate_count).reshape(-1, 1)
    for length in range(2, k + 1):
        firsts = np.arange(k - length, k - length + spare + 1)
        counts = [comb(candidate_count - 1 - first, length - 1) for first in firsts]
        tails = rows.shape[0]
        rows = np.column_stack(
            [
                np.repeat(firsts, counts),
                np.concatenate([rows[tails - count :] for count in counts]),
            ]
        )
    return rows


def _iter_index_chunks(iterator, chunk_rows: int = DEFAULT_CHUNK_ROWS):
    """Chunk an iterator of index tuples into ``(B, n)`` int arrays."""
    chunk_rows = max(1, int(chunk_rows))
    while True:
        chunk = list(islice(iterator, chunk_rows))
        if not chunk:
            return
        yield np.asarray(chunk, dtype=int)


def _iter_subset_chunks(candidate_count: int, k: int, chunk_rows: int = DEFAULT_CHUNK_ROWS):
    """Yield ``(B, k)`` arrays of candidate subsets, ``B <= chunk_rows``.

    Consecutive slices of :func:`_subset_rows`, in lexicographic order.
    """
    rows = _subset_rows(candidate_count, k)
    chunk_rows = max(1, int(chunk_rows))
    for start in range(0, rows.shape[0], chunk_rows):
        yield rows[start : start + chunk_rows]


def _build_context(
    dataset: UncertainDataset,
    candidates: np.ndarray,
    store: "ContextStore | None",
) -> CostContext:
    if store is not None:
        return store.get(dataset, candidates)
    return CostContext(dataset, candidates)


# ---------------------------------------------------------------------------
# Scoring rules, incumbent seeding and pruning helpers
# ---------------------------------------------------------------------------

#: The scoring rule of the unassigned objective.  The assigned rules of a
#: subset search are ``None`` (expected distance), an ``(n, m)`` score matrix
#: or a black-box rule: an :class:`~repro.assignments.base.AssignmentPolicy`
#: or :class:`_ExactAssignment`.
UNASSIGNED = "unassigned"


def _objective(rule: Any) -> str:
    """The objective ``rule`` scores, which the bounds and certificate follow."""
    return "unassigned" if isinstance(rule, str) else "assigned"


def _score_rows(
    context: CostContext, rule: Any, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """Exact costs of ``(B, kk)`` subset rows under ``rule``, with the assignments.

    The one thing the subset searches differ in.  :data:`UNASSIGNED` scores
    the rank-merge unassigned kernel and has no assignment.  Every other rule
    assigns each point to a candidate of its row — the expected-distance
    rule (``None``, whose matrix is ``context.expected``) and a score matrix
    by one batched argmin, a black-box rule (a policy, or
    :class:`_ExactAssignment`) through one ``chunk_assignments`` call for
    the whole batch (local-search rules share one evaluator across every
    row) — and scores the ``(B, n)`` global-column assignments through the
    shared evaluator's rank merge, one batched kernel instead of one policy
    call and one single-row sweep per subset.
    """
    if isinstance(rule, str):
        return context.unassigned_costs(rows), None
    if rule is None:
        assignments = context.ed_assignments(rows)
    elif isinstance(rule, np.ndarray):
        assignments = context.score_assignments(rule, rows)
    else:
        assignments = rule.chunk_assignments(context, rows)
    return context.assigned_costs(assignments), assignments


class _ExactAssignment:
    """Black-box rule of the exact polish: the cheapest assignment into each subset.

    A row's ``kk ** n`` assignments are searched as the product of per-point
    allowed sets: candidate ``c`` of the row is allowed for point ``i`` when
    ``E[d(P_i, c)]`` is at most the active incumbent plus its
    :func:`~repro.bounds.lower_bounds.prune_margin` — exactly the
    assignments :meth:`~repro.cost.context.CostContext.assignment_lower_bounds`
    keeps, so every skipped one costs more than the incumbent and cannot
    win — and every candidate when no incumbent is bound.  The product is
    scored in the order of the full product, in blocks of
    :data:`~repro.cost.context.DEFAULT_CHUNK_ROWS` rows, and the row keeps
    its first cheapest assignment, whose achieved cost is proposed to the
    incumbent.  A row whose product is empty keeps its ED assignment: some
    point is then farther than the incumbent from every candidate of the
    row, so that assignment costs more than the incumbent too.
    """

    def chunk_assignments(self, context: CostContext, subset_rows: np.ndarray) -> np.ndarray:
        assignments = context.ed_assignments(subset_rows)
        handle = incumbent_module.active()
        expected = context.expected
        points = np.arange(context.size)
        for row, columns in enumerate(subset_rows):
            threshold = np.inf if handle is None else handle.value()
            allowed = expected[:, columns] <= threshold + prune_margin(threshold)
            sizes = allowed.sum(axis=1)
            total = prod(int(size) for size in sizes)
            if total == 0:
                continue
            # Point i's allowed columns first, in row order; the product is
            # decoded in mixed radix, point 0 the most significant digit.
            choices = columns[np.argsort(~allowed, axis=1, kind="stable")]
            strides = np.append(np.cumprod(sizes[:0:-1])[::-1], 1)
            best = np.inf
            for start in range(0, total, DEFAULT_CHUNK_ROWS):
                indices = np.arange(start, min(start + DEFAULT_CHUNK_ROWS, total))
                block = choices[points, indices[:, None] // strides % sizes]
                costs = context.assigned_costs(block)
                winner = int(np.argmin(costs))
                if costs[winner] < best:
                    best = float(costs[winner])
                    assignments[row] = block[winner]
            if handle is not None:
                handle.propose(best)
        return assignments


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


def _seed_solution(
    context: CostContext, rule: Any, k: int
) -> tuple[float, np.ndarray, np.ndarray | None]:
    """Exact cost of the greedy seed subset under the search's rule.

    Scored by the :func:`_score_rows` call the enumeration makes, so the
    value is achieved by a row of the enumeration by construction — a
    black-box policy searches the seed row on the shared context exactly as
    in its chunk — which is the exactness requirement for every incumbent
    value.  Returns ``(cost, columns, candidate_indices)``, the indices
    ``None`` for the unassigned rule: the full feasible solution, not just
    its cost, because a ``time_budget`` run whose deadline expires before
    any chunk completes falls back to returning the seed solution (with its
    certificate) through :func:`_reduce_best`.
    """
    columns = _greedy_seed_columns(context, k)
    costs, assignments = _score_rows(context, rule, columns[None, :])
    return float(costs[0]), columns, None if assignments is None else assignments[0]


def _two_level_prune(
    context: CostContext,
    subset_rows: np.ndarray,
    threshold: float,
    row_bounds: np.ndarray | None,
    *,
    objective: str,
    pair_kernel: bool,
) -> np.ndarray | None:
    """Staged two-level keep-mask for one chunk of candidate subsets.

    Level 1 (one prefix-factored gather over the expected matrix, or the
    E[min] kernel for the unassigned objective) prunes the bulk; the
    tighter — but pricier — two-point subset bound
    (:meth:`~repro.cost.context.CostContext.subset_pair_lower_bounds`) then
    runs only on level-1 survivors.  Both levels are admissible, so the
    staged mask prunes a superset of level 1 alone while keeping the
    branch-and-bound exactness argument untouched.

    ``row_bounds`` is what the chunk's bound task already computed: the
    ``(2, B)`` stack of level-1 and pair values, the pair NaN where its
    lazy fold skipped a row (:func:`_chunk_bound`).  Level 1 is then never
    recomputed and the pair kernel runs only on survivors that lack a pair
    value, so every row is bounded at most once per level.  ``None`` (no
    bound map ran) computes level 1 here, with the cut: the unassigned
    kernel then stops reducing a row once its partial bound exceeds the
    cut, which gives the same keep mask.  The bound map's values stay
    exact, because the certificate reads them.

    ``pair_kernel=False`` runs no pair kernel: a row is cut on level 1 and
    on whatever pair value the fold already computed.  The score-matrix
    rules prune this way, because their exact row, a score argmin and one
    rank-merge sweep, costs little more than the pair kernel it would
    save; the unassigned and black-box rules, whose rows cost far more,
    keep both levels (the predicate lives in :func:`_subset_chunk_task`).
    """
    if not np.isfinite(threshold):
        return None
    cut = threshold + prune_margin(threshold)
    if row_bounds is None:
        level1 = _level1_bounds(context, subset_rows, objective, cut)
        pair = np.full(level1.shape, np.nan)
    else:
        level1, pair = row_bounds
    keep = level1 <= cut
    survivors = np.flatnonzero(keep)
    if survivors.size:
        survivor_pair = pair[survivors]
        missing = np.isnan(survivor_pair)
        if pair_kernel and missing.any():
            survivor_pair[missing] = context.subset_pair_lower_bounds(
                subset_rows[survivors[missing]]
            )
        # A NaN (no pair value) compares False, so its row stays kept.
        keep[survivors[survivor_pair > cut]] = False
    if keep.all():
        return None
    return keep


def _level1_bounds(
    context: CostContext, subset_rows: np.ndarray, objective: str, cut: float = np.inf
) -> np.ndarray:
    """The first-level subset bound of ``objective``, by its traced method name.

    ``cut`` reaches the unassigned kernel, which stops reducing a row once
    its partial bound exceeds it
    (:meth:`~repro.cost.context.CostContext.subset_unassigned_lower_bounds`):
    the values at or below ``cut`` are exact, the others only exceed it.
    """
    if objective == "assigned":
        return context.subset_assigned_lower_bounds(subset_rows)
    return context.subset_unassigned_lower_bounds(subset_rows, cut=cut)


def _chunk_bound(
    context: CostContext, subset_rows: np.ndarray, objective: str
) -> tuple[float, np.ndarray]:
    """One chunk's certificate-grade bound, plus the per-row bounds behind it.

    The chunk bound is the exact two-level minimum ``min_r max(l1_r, p_r)``
    — it orders the best-first schedule, feeds the gap tracker's
    outstanding bound and folds into the anytime certificate — but the
    quadratic pair term ``p_r`` is evaluated lazily: a row whose level-1
    bound already meets or exceeds the running minimum satisfies
    ``max(l1_r, p_r) >= l1_r >= best`` and can never lower it, so its pair
    term is skipped.  Two pair calls suffice: the argmin-``l1`` row, then
    every other row with ``l1`` strictly below that row's two-level value.
    The value is a pure function of the chunk (the whole chunk list is not
    needed), so the pass runs per chunk in the pool.

    Returns ``(bound, row_bounds)``: ``row_bounds`` stacks the per-row
    level-1 values over the pair values the fold computed (NaN where it
    skipped a row), one ``(2, B)`` array that rides into the scoring task
    with the chunk (:func:`_two_level_prune`).
    """
    row_bounds = np.full((2, subset_rows.shape[0]), np.nan)
    level1, pair = row_bounds
    level1[:] = _level1_bounds(context, subset_rows, objective)
    first = int(np.argmin(level1))
    pair[first] = context.subset_pair_lower_bounds(subset_rows[first : first + 1])[0]
    best = max(float(level1[first]), float(pair[first]))
    rest = np.flatnonzero(level1 < best)
    rest = rest[rest != first]
    if rest.size:
        pair[rest] = context.subset_pair_lower_bounds(subset_rows[rest])
        best = min(best, float(np.maximum(level1[rest], pair[rest]).min()))
    return best, row_bounds


def _subset_bound_task(payload, subset_rows: np.ndarray):
    """Bound-map task of an anytime subset search: the chunk bound of the rule's objective.

    Runs over the scoring map's own ``(context, rule, top_k)`` payload, so a
    worker materializes it once for both maps.
    """
    context, rule, _ = payload
    return _chunk_bound(context, subset_rows, _objective(rule))


def _best_first_order(chunk_bounds: list[float]) -> list[int]:
    """Ascending-bound submission order; ties keep enumeration order.

    Stability matters for reproducibility of the *schedule* (results are
    order-independent by the reduction contract): equal-bound chunks submit
    in their enumeration positions at every worker count.
    """
    return sorted(range(len(chunk_bounds)), key=lambda index: (chunk_bounds[index], index))


def _check_stops(
    time_budget: float | None, gap_target: float | None, prune: bool
) -> float | None:
    """Validate the anytime stops and return the gap target.

    Either stop needs bounds, hence pruning: the best-first order, the gap
    and the certificate all read the admissible chunk bounds.
    """
    if not prune and (time_budget is not None or gap_target is not None):
        raise ValidationError(
            "time_budget and gap_target need prune=True: the certificate and the gap "
            "are measured against the admissible chunk bounds the pruning layer computes"
        )
    if gap_target is None:
        return None
    gap_target = float(gap_target)
    if not gap_target >= 0.0:
        raise ValidationError("gap_target must be a non-negative relative gap")
    return gap_target


# ---------------------------------------------------------------------------
# The subset search
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


def _search_subsets(
    chunks: list,
    payload: tuple,
    *,
    seed: float | None,
    workers: int,
    shm: bool | None,
    time_budget: float | None = None,
    gap_target: float | None = None,
) -> _Enumeration:
    """One subset search: :func:`_subset_chunk_task` over ``chunks``, results by index.

    ``payload`` is ``(context, rule, top_k)`` and ``seed`` the incumbent's
    starting value (an achieved feasible cost, or ``inf``); ``seed=None``
    runs the chunks with no incumbent and no bounds at all.  A search
    without a stop is one
    :func:`~repro.runtime.parallel.parallel_map_ordered` call in enumeration
    order: each chunk bounds its own rows against the relayed incumbent.

    A search with a ``time_budget`` or ``gap_target`` (both need a seed)
    reads chunk bounds before its chunks run, so it first runs a bound map — a
    :func:`~repro.runtime.parallel.parallel_map` of
    :func:`_subset_bound_task` over the same payload, pool and transport —
    that returns one ``(bound, row_bounds)`` pair per chunk: an admissible
    lower bound on every row of the chunk, and the per-row bounds computed
    on the way.  The chunks are then submitted best-first, in
    ascending-bound order (:func:`_best_first_order`), with the bounds
    doubling as the gap tracker's outstanding bound and as the certificate's
    bound on chunks never run; each chunk's ``row_bounds`` ride into its
    scoring task with it, so no row is bounded twice.  The bound map takes
    no stop: a certificate needs every chunk's bound, and the deadline
    clock starts with the scoring map.

    Either way every scoring item is ``(chunk, row_bounds)`` (``None``
    without a bound map) and the reduction walks completed chunks by
    enumeration index (:meth:`_Enumeration.completed`), so the schedule
    never changes a result.
    """
    bounds = None
    row_bounds: list = [None] * len(chunks)
    if time_budget is not None or gap_target is not None:
        bounded = parallel_map(
            _subset_bound_task, chunks, payload=payload, workers=workers, shm=shm
        )
        bounds = [bound for bound, _ in bounded]
        row_bounds = [rows for _, rows in bounded]
    outcome = parallel_map_ordered(
        _subset_chunk_task,
        list(zip(chunks, row_bounds)),
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
    """First strict minimum over ``(top, pruned, evaluated)`` chunk results.

    ``results`` come in enumeration order and each ``top`` lists its chunk's
    cheapest rows in ``(cost, row)`` order (:func:`_subset_chunk_task`), so
    the first row reaching the minimum wins exactly as in a serial scan.
    ``fallback`` — the greedy seed solution of an anytime run — is a
    feasible solution evaluated by the same kernels; it can only win when a
    stop skipped every chunk that would have beaten it (a completed run
    always contains the seed's own row, so the strict ``<`` is a no-op
    there).  Returns ``((cost, subset, assignment), pruned_rows,
    evaluated_rows)``.
    """
    best: tuple = (np.inf, None, None)
    pruned_rows = 0
    evaluated_rows = 0
    for top, pruned, evaluated in results:
        pruned_rows += pruned
        evaluated_rows += evaluated
        if top and top[0][0] < best[0]:
            best = top[0]
    if fallback is not None and (best[1] is None or fallback[0] < best[0]):
        best = fallback
    assert best[1] is not None
    return best, pruned_rows, evaluated_rows


def _certificate_metadata(
    run: _Enumeration,
    best_cost: float,
    time_budget: float | None,
    gap_target: float | None,
) -> dict:
    """The anytime metadata of one driven enumeration, certificate included.

    ``deadline_hit`` / ``gap_target_hit`` say why submission stopped and
    ``chunks_total`` / ``chunks_completed`` how far it got.  ``certificate``
    is ``(cost, lower_bound, gap)``: ``best_cost`` is achieved by a feasible
    solution (an upper bound on the enumeration optimum ``C*``), and every
    skipped chunk contributes its bound map's chunk bound, the minimum of
    its admissible per-row lower bounds, so
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
    assert run.bounds is not None
    skipped = [index for index in range(len(run.chunks)) if index not in run.outcome.results]
    cost = float(best_cost)
    lower_bound = min([cost, *(run.bounds[index] for index in skipped)])
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


def _subset_chunk_task(payload, item):
    """Score one chunk of candidate subsets; return its ``top_k`` cheapest rows.

    ``payload`` is ``(context, rule, top_k)`` (the rules are
    :func:`_score_rows`'s) and ``item`` is ``(subset_rows, row_bounds)``
    (:func:`_search_subsets`).  Rows whose bound exceeds the map's incumbent are
    cut first (:func:`_two_level_prune`); the pair kernel runs only for the
    unassigned and black-box rules, whose exact rows cost far more than it
    does.  For a black-box rule the subset bound holds for *any* assignment
    into the subset, so pruning skips whole policy evaluations — the
    expensive part of that path.  The survivors are scored in one
    :func:`_score_rows` call.

    Returns ``(top, pruned, evaluated)``: ``top`` lists the ``top_k``
    cheapest rows as ``(cost, subset, candidate_indices)`` in
    ``(cost, row)`` order, the indices ``None`` for the unassigned rule; a
    fully pruned chunk returns ``([], total, 0)``.  The chunk publishes its
    ``top_k``-th smallest cost as incumbent: an upper bound on the global
    ``top_k``-th smallest, since the chunk's rows are a subset of all rows,
    so a row whose bound exceeds it can neither enter the global top
    ``top_k`` nor win.  Plain solves run ``top_k=1``; stage 1 of the
    unrestricted reference keeps a ranking of its ``polish_top`` cheapest
    subsets and runs ``top_k=polish_top``.
    """
    context, rule, top_k = payload
    subset_rows, row_bounds = item
    handle = incumbent_module.active()
    total = subset_rows.shape[0]
    if handle is not None:
        keep = _two_level_prune(
            context,
            subset_rows,
            handle.value(),
            row_bounds,
            objective=_objective(rule),
            pair_kernel=not (rule is None or isinstance(rule, np.ndarray)),
        )
        if keep is not None:
            subset_rows = subset_rows[keep]
    evaluated = subset_rows.shape[0]
    if evaluated == 0:
        return [], total, 0
    costs, assignments = _score_rows(context, rule, subset_rows)
    order = np.argsort(costs, kind="stable")[:top_k]
    if handle is not None and evaluated >= top_k:
        handle.propose(float(costs[order[-1]]))
    top = [
        (float(costs[row]), subset_rows[row], None if assignments is None else assignments[row])
        for row in order
    ]
    return top, total - evaluated, evaluated


# ---------------------------------------------------------------------------
# Public solvers
# ---------------------------------------------------------------------------


def _solve_subsets(
    dataset: UncertainDataset,
    k: int,
    policy: AssignmentPolicy | None,
    *,
    candidates: np.ndarray | None,
    workers: int,
    chunk_rows: int,
    store: "ContextStore | None",
    shm: bool | None,
    prune: bool,
    time_budget: float | None,
    gap_target: float | None,
) -> UncertainKCenterResult:
    """The one body of the exact subset solvers: one ``top_k=1`` subset search.

    ``policy`` is the restricted assignment rule
    (:func:`brute_force_restricted_assigned`), or ``None`` for the
    unassigned objective (:func:`brute_force_unassigned`); it picks the
    search's rule (:func:`_score_rows`), which is all the two differ in.
    """
    k = check_positive_int(k, name="k")
    if candidates is None:
        candidates = default_candidates(dataset)
    candidates = as_point_array(candidates, name="candidates")
    k, k_metadata = _effective_k(k, candidates.shape[0])
    workers = resolve_workers(workers)

    context = _build_context(dataset, candidates, store)
    rule: Any
    if policy is None:
        rule = UNASSIGNED
        if workers > 1:
            context._rank_merge_tables()  # built once, published to every worker
    else:
        if isinstance(policy, ExpectedDistanceAssignment):
            # The ED matrix travels inside the context; the task reads it there.
            context.expected  # cached; bit-identical to the policy's matrix
            rule = None
        else:
            scores = policy.candidate_scores(dataset, candidates)
            rule = policy if scores is None else scores
        if rule is policy or workers > 1:
            # Build the sorted columns once and ship them to every worker —
            # without this, black-box rules would fall back to the context's
            # lazy single-score path and re-derive distances per subset.
            context.evaluator

    gap_target = _check_stops(time_budget, gap_target, prune)
    anytime = time_budget is not None or gap_target is not None
    seed_solution = _seed_solution(context, rule, k) if prune else None
    total_rows = _checked_subset_count(candidates.shape[0], k)
    run = _search_subsets(
        list(_iter_subset_chunks(candidates.shape[0], k, chunk_rows)),
        (context, rule, 1),
        seed=None if seed_solution is None else seed_solution[0],
        workers=workers,
        shm=shm,
        time_budget=time_budget,
        gap_target=gap_target,
    )
    (best_cost, best_subset, candidate_indices), pruned_rows, evaluated_rows = _reduce_best(
        run.completed(), seed_solution if anytime else None
    )
    metadata = {
        "algorithm": "brute-force-unassigned" if policy is None else "brute-force-restricted",
        "candidate_count": int(candidates.shape[0]),
        "workers": int(workers),
        **k_metadata,
        "prune": bool(prune),
        "total_rows": int(total_rows),
        "evaluated_rows": int(evaluated_rows),
        "pruned_rows": int(pruned_rows),
    }
    if anytime:
        metadata.update(_certificate_metadata(run, best_cost, time_budget, gap_target))
    return UncertainKCenterResult(
        centers=candidates[best_subset],
        expected_cost=float(best_cost),
        objective="unassigned" if policy is None else "restricted-assigned",
        assignment=None
        if policy is None
        else np.asarray(np.searchsorted(best_subset, candidate_indices), dtype=int),
        assignment_policy=None if policy is None else policy.name,
        guaranteed_factor=None,
        metadata=metadata,
    )


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

    With pruning on and no stop, the chunks run in one map, in enumeration
    order, each bounding its own rows against the incumbent.

    ``time_budget`` (seconds) turns the call into an **anytime** solve: the
    enumeration stops when the budget expires and the best solution found so
    far is returned — never worse than the greedy seed, which is evaluated
    up front exactly so an expired budget still yields a feasible answer —
    together with a ``certificate`` metadata entry,
    ``(cost, lower_bound, gap)``, where the lower bound folds the admissible
    chunk bounds of every subset chunk never run
    (:func:`_certificate_metadata`'s exactness argument).  Requires
    ``prune=True``.  ``None`` (the default) never truncates and adds no
    metadata.

    ``gap_target`` stops the same way on *precision* instead of time: once
    ``(incumbent - min outstanding chunk bound) / lower <= gap_target``
    (:func:`repro.runtime.incumbent.certified_gap`), no further chunks are
    submitted and the result carries the same sound certificate plus a
    ``gap_target_hit`` metadata flag.  Requires ``prune=True``;
    combinable with ``time_budget`` (whichever fires first).  At
    ``gap_target=0`` the stop never fires and results are bit-identical to
    a full run.

    Either stop schedules the chunks **best-first**: every
    chunk's admissible two-level lower bound is computed up front, by a
    bound map over the same pool, and chunks are submitted in
    ascending-bound order (:func:`_best_first_order`), so the cheapest
    regions of the subset space are searched first and the certified
    optimality gap shrinks as fast as the bounds allow — while the final
    result stays bit-identical to enumeration order, because the reduction
    walks completed chunks by enumeration index either way.
    """
    return _solve_subsets(
        dataset,
        k,
        assignment or ExpectedDistanceAssignment(),
        candidates=candidates,
        workers=workers,
        chunk_rows=chunk_rows,
        store=store,
        shm=shm,
        prune=prune,
        time_budget=time_budget,
        gap_target=gap_target,
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
    ``polish_top`` cheapest subsets are then re-optimised by a second subset
    search over them, in stage-1 order and in ``chunk_rows`` chunks, under
    a black-box rule: the cheapest assignment into each subset
    (:class:`_ExactAssignment`, exact for those subsets; chosen
    automatically when ``polish_top * k ** n`` is small, or forced with
    ``exhaustive_assignment=True``) or single-move local search
    (:class:`~repro.assignments.policies.OptimalAssignment`, 10 rounds).
    The polish result replaces the stage-1 winner only when strictly
    cheaper, first in stage-1 order.  The subset stage is a subset search
    (:func:`_search_subsets`) whose chunks each return their ``polish_top``
    cheapest rows, and each stage is one map in enumeration order, so both
    shard their chunks across ``workers`` processes with serial-identical
    reductions.  The row counters in the metadata are the subset stage's;
    the polish adds none.

    With pruning on (the default) the subset stage runs under a shared
    top-``polish_top`` threshold, which starts at ``inf`` and drops once
    the first chunk is harvested (rows that provably cannot enter the
    polishing pool nor win the stage are skipped — the pool membership and
    order are preserved exactly), and the polish under the stage-1 winner's
    cost as incumbent: a subset whose two-level bound exceeds the live
    incumbent skips its search entirely, and the exact rule scores only the
    assignments whose per-point expected distances stay within it.

    For an exact optimum over the candidate set pass
    ``polish_top >= C(m, k)`` together with ``exhaustive_assignment=True``
    (micro instances only).
    """
    k = check_positive_int(k, name="k")
    if candidates is None:
        candidates = default_candidates(dataset)
    candidates = as_point_array(candidates, name="candidates")
    k, k_metadata = _effective_k(k, candidates.shape[0])
    workers = resolve_workers(workers)

    context = _build_context(dataset, candidates, store)
    if workers > 1 or prune:
        context.expected  # pin before shipping: workers share, never rebuild
        context.evaluator
    subset_chunks = list(_iter_subset_chunks(candidates.shape[0], k, chunk_rows))
    subset_total = sum(chunk.shape[0] for chunk in subset_chunks)
    stage = _search_subsets(
        subset_chunks,
        (context, None, max(1, int(polish_top))),
        seed=np.inf if prune else None,
        workers=workers,
        shm=shm,
    )
    # Each chunk's top list is in (cost, row) order, so one stable sort of
    # the lists in enumeration order ranks the global top ``polish_top``
    # exactly as a stable sort of every row would (:func:`_subset_chunk_task`).
    scored = sorted((row for top, _, _ in stage.completed() for row in top), key=lambda row: row[0])
    subset_pruned = sum(pruned for _, pruned, _ in stage.completed())

    polish_top = max(1, min(polish_top, len(scored)))
    if exhaustive_assignment is None:
        exhaustive_assignment = polish_top * (k**dataset.size) <= MAX_ASSIGNMENT_ENUMERATION
    rule = _ExactAssignment() if exhaustive_assignment else OptimalAssignment(max_rounds=10)
    best_cost, best_subset, best_candidate_indices = scored[0]
    polish = _search_subsets(
        list(_iter_index_chunks((subset for _, subset, _ in scored[:polish_top]), chunk_rows)),
        (context, rule, 1),
        seed=best_cost if prune else None,
        workers=workers,
        shm=shm,
    )
    # First strict minimum in stage-1 order, so the stage-1 winner keeps ties.
    for top, _, _ in polish.completed():
        if top and top[0][0] < best_cost:
            best_cost, best_subset, best_candidate_indices = top[0]

    return UncertainKCenterResult(
        centers=candidates[best_subset],
        expected_cost=float(best_cost),
        objective="unrestricted-assigned",
        assignment=np.asarray(np.searchsorted(best_subset, best_candidate_indices), dtype=int),
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
            "total_rows": int(subset_total),
            "evaluated_rows": int(subset_total - subset_pruned),
            "pruned_rows": int(subset_pruned),
        },
    )


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
    :func:`brute_force_restricted_assigned` (both need ``prune=True``):
    chunks run best-first in ascending two-level-bound order, and a ``certificate``
    metadata entry reports ``(cost, lower_bound, gap)`` with the lower
    bound folded over the E[min]-based chunk bounds of every skipped chunk;
    an expired budget still returns the greedy seed subset.
    """
    return _solve_subsets(
        dataset,
        k,
        None,
        candidates=candidates,
        workers=workers,
        chunk_rows=chunk_rows,
        store=store,
        shm=shm,
        prune=prune,
        time_budget=time_budget,
        gap_target=gap_target,
    )
