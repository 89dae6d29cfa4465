"""Exact expected-cost computation for uncertain k-center objectives.

The paper's objectives are expectations of a maximum over *independent*
per-point random distances:

* assigned cost: ``EcostA(C) = E[ max_i d(X_i, A(P_i)) ]`` where each
  ``d(X_i, A(P_i))`` is a discrete random variable with support
  ``{d(P_ij, A(P_i))}_j`` and probabilities ``p_ij``;
* unassigned cost: ``Ecost(C) = E[ max_i d(X_i, C) ]`` where the support is
  ``{min_c d(P_ij, c)}_j``.

Although the probability space has ``prod_i z_i`` realizations, the expected
maximum of independent discrete random variables is computable exactly in
``O(N log N)`` time for ``N = sum_i z_i`` total locations:

``E[max] = sum_v v * (F(v) - F(v^-))`` over the sorted union of supports,
with ``F(v) = prod_i F_i(v)`` the CDF of the maximum.

The kernel (:func:`_expected_max_rows`) is fully vectorized and row-wise:
it scores ``B`` rows of values over one entry layout at once.  Each support
entry is turned into a *log-space delta* ``log F_i(after) - log F_i(before)``
of its variable's partial CDF (one stable argsort per row into union-value
order, one stable argsort of the owners in that order to group each
variable's entries, and segment cumulative sums).  A cumulative sum over
the union order then yields ``log F`` at every sweep position — no
Python-level loop over entries or rows.  ``F`` is exactly 0 until every
variable has positive mass, so each row also carries its *first live
position*: the union position of the last variable's *first-mass entry*,
the entry at which its CDF turns positive (not its smallest entry when that
one has probability 0).  The sweep (:func:`_sweep_rows_presorted`)
exponentiates, gathers values and takes CDF increments only from there; on
the rows a mid-size exact enumeration scores, under 2% of the union
positions are live.  Taking the position from the transitions to positive
mass, rather than from which entries have been folded, makes
zero-probability supports correct *by construction*.  This kernel and the
float-sort twins count those transitions with a zero-mass counter
(:func:`_first_live_by_zero_count`); the rank merges read the position off
per-column first-mass ranks they already hold, and the differential tests
hold them to the counter bit for bit.  Every ``E[max]`` here ends in one
reduction (:func:`_cdf_expectation`), and a row's arithmetic never depends
on the other rows of its batch, so a scalar cost is bit-identical to the
same row of a batched call on the same values.

Zero-probability semantics
--------------------------
Explicit zeros in a probability vector are legal (``as_probability_vector``
accepts them and clips tiny negatives to 0).  A zero-probability entry
contributes nothing to its variable's CDF, so the CDF of the maximum stays 0
until every variable has accumulated *positive* mass.  The historical
pure-Python sweep (kept as :func:`_expected_max_reference`) decremented its
zero counter as soon as a variable's smallest entry was folded in, even when
that entry had probability 0, silently corrupting the result; the vectorized
kernels' first-mass entries are exactly the transitions to positive mass.

Batch and incremental APIs
--------------------------
* :func:`expected_max_of_independent` — scalar ``E[max]`` (the ``B = 1`` row
  of the kernel).
* :func:`expected_max_batch` — many assignments against shared per-variable
  candidate supports in one call.
* :func:`expected_max_batch_values` — many rows of arbitrary per-variable
  values (e.g. min-over-subset distances) in one kernel call.
* :class:`AssignedCostEvaluator` — precomputes per-candidate sorted CDF
  structure once and re-evaluates the exact assigned cost after a
  single-point move *without re-sorting the full union* (the unchanged
  points' sorted sweep is cached and the moved point's distribution is
  integrated against it).  Its batch path is an integer rank merge: one
  stable argsort ranks every entry of every presorted column, and a row's
  union order comes from sorting its entries' distinct integer ranks, so no
  row is float-sorted.  The per-row float sort stays as the bit-identical
  reference twin ``_costs_float_sort``, which also scores a call that finds
  no rank tables and has fewer rows than the evaluator has columns: one-shot
  callers never pay for the build.  The tables are built lazily and never
  pickled; re-sorting columns drops them.
* :class:`LocalSearchSweep` — amortizes :meth:`AssignedCostEvaluator.rest_profile`
  across a whole local-search round: the sorted union of *all* variables'
  entries is maintained once per assignment, each point's rest profile is
  derived in ``O(N)`` by dividing that point's contribution out of the cached
  cumulative products, and an accepted move splices the moved variable's
  entries into the union by ``searchsorted`` instead of re-sorting.

Dataset-facing helpers
----------------------
:func:`expected_one_center_costs` scores ``B`` lone centers with one
``metric.pairwise`` call over the dataset's cached flat location layout
(:meth:`repro.uncertain.dataset.UncertainDataset.location_layout`) and one
kernel call over the ``(B, N)`` distances, in blocks of at most
:data:`BATCH_ENTRY_CAP` entries.  :func:`expected_cost_unassigned`,
:func:`expected_cost_assigned` and :func:`expected_one_center_cost` score one
configuration the same way as a ``B = 1`` row — no per-point loop and no
per-call re-validation.  The assigned form measures distances only to the
centers its assignment uses.  :func:`distance_supports_for_centers` and
:func:`distance_supports_for_assignment` return per-point views of those same
distances, so re-flattening them reproduces the scalar cost exactly.

The kernel is exact row by row; the metric may not be.  A Euclidean
``pairwise`` is one BLAS product, and a product against one center (a
matrix-vector call) can round a distance differently from the same center
inside a many-center product (a matrix-matrix call), in dimensions of 2 and
up.  So a batched one-center cost may differ from the scalar cost of the same
center by a few ulps — about 1e-15 relative — while in one dimension (one
multiply per distance) the two are bit-identical.  Likewise one product over
``N`` rows can round differently from ``n`` products over ``z_i`` rows, so a
scalar cost may differ from a per-point computation (or from a pinned
:class:`~repro.cost.context.CostContext` support column) by a few ulps.
Finite-metric distances (a matrix lookup) are unaffected.

Higher layers should not consume these primitives directly when they score
many candidate configurations — :class:`repro.cost.context.CostContext`
bundles them (plus the batched unassigned evaluator) into the shared
per-(dataset, candidate-centers) service the solvers, baselines and
experiments are built on.

This engine is the workhorse every solver, baseline and experiment uses to
report costs, and it is validated against full realization enumeration in the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Sequence

import numpy as np

from .._validation import as_point_array
from ..exceptions import ValidationError
from ..uncertain.dataset import UncertainDataset, split_rows

#: Most layout entries (centers x locations) one :func:`expected_one_center_costs`
#: kernel call holds; larger batches run as consecutive blocks.  The kernel
#: keeps about a dozen ``(B, N)`` arrays alive, so this caps a call near
#: 30 MB whatever the candidate count.
BATCH_ENTRY_CAP = 1 << 18

#: Most layout entries one block of the assigned rank merge
#: (:meth:`AssignedCostEvaluator.costs`) holds, and of the unassigned one
#: (:meth:`repro.cost.context.CostContext.unassigned_costs`).  Both sweeps are
#: cache-bound.  On a 2-vCPU x86 host with 2 MB of L2 per core, 2,048 rows of
#: the ``enum_mid`` shape (1,280 entries per row, 51-row blocks) scored
#: 97 µs per row unassigned and 32 µs assigned in blocks of 2**16 entries,
#: against 114 and 35 µs in blocks of 2**17; the 2,024 rows of a
#: ``serve_mixed`` instance (240 entries per row) scored 20.6 and 5.5 µs
#: against 24.5 and 6.1 µs (medians of 9 alternating repeats).  Blocking
#: never changes a cost.
RANK_MERGE_BLOCK_ENTRIES = 1 << 16


# ---------------------------------------------------------------------------
# Vectorized kernel internals
# ---------------------------------------------------------------------------


def _flatten_variables(
    values_per_point: Sequence[np.ndarray],
    probabilities_per_point: Sequence[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Validate and flatten ragged per-variable supports into entry arrays.

    Returns ``(values, probabilities, owners, starts)``: each variable's
    entries are contiguous and in variable order, and ``starts`` holds the
    first entry of every variable after the first (the layout
    :func:`_expected_max_rows` reads).
    """
    n = len(values_per_point)
    if n == 0:
        raise ValidationError("expected_max_of_independent needs at least one variable")
    if len(probabilities_per_point) != n:
        raise ValidationError("values and probabilities must have the same number of variables")
    owners = []
    values = []
    probabilities = []
    for index in range(n):
        support = np.asarray(values_per_point[index], dtype=float).reshape(-1)
        weight = np.asarray(probabilities_per_point[index], dtype=float).reshape(-1)
        if support.shape[0] != weight.shape[0] or support.shape[0] == 0:
            raise ValidationError(f"variable {index}: support and probabilities must be non-empty and aligned")
        owners.append(np.full(support.shape[0], index))
        values.append(support)
        probabilities.append(weight)
    return (
        np.concatenate(values),
        np.concatenate(probabilities),
        np.concatenate(owners),
        np.cumsum([support.shape[0] for support in values])[:-1],
    )


def _log_zero_deltas(cdf_after: np.ndarray, cdf_before: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-entry log-CDF increments and zero-mass transitions.

    ``log_delta`` is ``log cdf_after - log cdf_before`` where both are
    positive, ``log cdf_after`` where the entry takes its variable's CDF from
    0 to positive, and 0 where the CDF stays 0 (a zero-probability prefix —
    the case the historical implementation mishandled).  ``zero_delta`` is
    ``-1`` exactly on the 0-to-positive transitions.
    """
    positive_after = cdf_after > 0.0
    positive_before = cdf_before > 0.0
    log_after = np.where(positive_after, np.log(np.where(positive_after, cdf_after, 1.0)), 0.0)
    log_before = np.where(positive_before, np.log(np.where(positive_before, cdf_before, 1.0)), 0.0)
    log_delta = log_after - log_before
    zero_delta = -(positive_after & ~positive_before).astype(float)
    return log_delta, zero_delta


def _cdf_expectation(sorted_values: np.ndarray, cdf_tail: np.ndarray) -> np.ndarray:
    """Row-wise ``sum_t v_t (F_t - F_{t-1})`` over union-sorted ``(B, T)`` values.

    ``cdf_tail`` is the last ``T'`` columns of the CDF of the max ``F``, whose
    earlier columns are exact zeros (``T' = T`` passes all of it).  The
    increments are built from the tail alone — before it they are ``0 - 0``,
    and its first one is ``F - 0`` — but the sum runs over the full width.
    The one reduction every ``E[max]`` in this module ends in, so a scalar
    cost and the same row of a batch round alike.  Guards against log-space
    drift: the final CDF must be 1, and any missing mass is conservatively
    placed on the largest value.
    """
    batch, total = sorted_values.shape
    start = total - cdf_tail.shape[1]
    increments = np.zeros((batch, total))
    increments[:, start:] = cdf_tail
    increments[:, start + 1 :] -= cdf_tail[:, :-1]
    expected = np.einsum("bt,bt->b", sorted_values, increments)
    expected += sorted_values[:, -1] * np.maximum(0.0, 1.0 - cdf_tail[:, -1])
    return expected


def _sweep_rows_presorted(
    positions: np.ndarray,
    values: np.ndarray,
    sorted_log_delta: np.ndarray,
    first_live: np.ndarray,
) -> np.ndarray:
    """Row-wise ``E[max]`` for ``(B, T)`` entries already in union-value order.

    Row ``b``'s ``t``-th entry in union order has the value
    ``values[positions[b, t]]`` and the log-CDF delta
    ``sorted_log_delta[b, t]``; ``first_live[b]`` is its *first live
    position*, where the last variable first gets mass (``T`` when one never
    does).  Before it the CDF of the max and its increments are exact
    zeros, so the sweep exponentiates each row only from its first live
    position and gathers values only from the block's earliest one, leaving
    zeros before it; the CDF of the max it hands on is that tail alone.  The
    log-CDF fold stays one sequential accumulate over the whole row and the
    expectation one full-width reduction (:func:`_cdf_expectation`), so every
    cost keeps the bits of a sweep that exponentiates and gathers every
    position.

    The tail of :func:`_sweep_rows` and :func:`_expected_max_rows`, shared
    with both rank merges, the assigned one
    (:meth:`AssignedCostEvaluator.costs`) and the unassigned one
    (:meth:`repro.cost.context.CostContext.unassigned_costs`), which produce
    their sorted entries by sorting integer ranks instead of floats — using
    one helper keeps each merge bit-identical to its float-sort twin by
    construction.
    """
    batch, total = positions.shape
    # ``add.accumulate`` is the arithmetic of ``cumsum`` with less dispatch.
    cumulative_log = np.add.accumulate(sorted_log_delta, axis=1)
    # The block's earliest live position, and the last column always: the
    # missing-mass term reads it.
    start = int(first_live.min(initial=total - 1))
    cdf_tail = np.zeros((batch, total - start))
    np.exp(
        np.minimum(cumulative_log[:, start:], 0.0),
        out=cdf_tail,
        where=np.arange(start, total) >= first_live[:, None],
    )
    sorted_values = np.zeros((batch, total))
    sorted_values[:, start:] = values.take(positions[:, start:])
    return _cdf_expectation(sorted_values, cdf_tail)


def _first_live_by_zero_count(sorted_zero_delta: np.ndarray, n: int) -> np.ndarray:
    """Each row's first live position by the zero-mass counter.

    ``n`` plus the running sum of the ``-1`` zero-mass transitions counts the
    variables that still have no mass; the positions where it is positive
    are a prefix of the row, and its length is the first live position.
    """
    zero_count = float(n) + np.add.accumulate(sorted_zero_delta, axis=1, dtype=float)
    return np.count_nonzero(zero_count >= 0.5, axis=1)


def _sweep_rows(
    values: np.ndarray, log_delta: np.ndarray, zero_delta: np.ndarray, n: int
) -> np.ndarray:
    """Row-wise ``E[max]`` for ``(B, N)`` entry arrays sharing a variable count.

    The float-sort path: one stable argsort per row, and the first live
    position from the zero-mass counter (:func:`_first_live_by_zero_count`).
    """
    order = np.argsort(values, axis=1, kind="stable")
    order += np.arange(0, values.size, values.shape[1])[:, None]
    return _sweep_rows_presorted(
        order,
        values.ravel(),
        log_delta.ravel()[order],
        _first_live_by_zero_count(zero_delta.ravel()[order], n),
    )


def _expected_max_rows(
    values: np.ndarray, probabilities: np.ndarray, owners: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """``(B,)`` exact ``E[max]`` for ``B`` rows of values over one entry layout.

    Row ``b`` gives entry ``r`` the value ``values[b, r]``; every row shares
    the entries' ``probabilities`` and ``owners`` (each variable's entries
    contiguous, in variable order, ``starts`` the first entry of every
    variable after the first).  This is the one entry-delta kernel: every
    scalar cost is its ``B = 1`` row, and each row's arithmetic is
    independent of the others, so a row alone equals the same row in a
    batch bit for bit.

    Per row: one stable float argsort puts the entries in union-value order,
    and one stable argsort of their owners in that order groups each
    variable's entries in value order (ties by entry index — what a lexsort
    on ``(owner, value)`` gives, without its 2-D cost).  A cumulative sum
    over the grouped row minus each variable's running offset gives every
    partial CDF, whose log/zero-mass deltas are scattered back into union
    order; the zero-mass counter turns the latter into the row's first live
    position (:func:`_first_live_by_zero_count`).  Indexing goes through
    flat offsets rather than ``take_along_axis``, which is what keeps the
    ``B = 1`` row cheap.
    """
    batch, total = values.shape
    base = np.arange(0, batch * total, total)[:, None]
    order = np.argsort(values, axis=1, kind="stable")
    # Flat union positions of each row's entries, grouped by owner.
    by_owner = np.argsort(owners[order], axis=1, kind="stable")
    by_owner += base
    running = np.add.accumulate(probabilities[order.ravel()[by_owner]], axis=1)
    offsets = np.zeros((batch, starts.shape[0] + 1))
    offsets[:, 1:] = running[:, starts - 1]
    cdf = running - offsets[:, owners]
    positive = cdf > 0.0
    # Within a variable, an entry's CDF before it is the previous entry's
    # CDF after it, so one log per entry serves both sides of the delta.
    log_after = np.zeros((batch, total))
    np.log(cdf, out=log_after, where=positive)
    log_delta = log_after.copy()
    log_delta[:, 1:] -= log_after[:, :-1]
    log_delta[:, starts] = log_after[:, starts]
    first_mass = positive.copy()
    first_mass[:, 1:] &= ~positive[:, :-1]
    first_mass[:, starts] = positive[:, starts]
    sorted_log = np.empty(batch * total)
    sorted_log[by_owner] = log_delta
    sorted_zero = np.empty(batch * total, dtype=np.int8)
    sorted_zero[by_owner] = -first_mass.view(np.int8)
    return _sweep_rows_presorted(
        order + base,
        values.ravel(),
        sorted_log.reshape(batch, total),
        _first_live_by_zero_count(sorted_zero.reshape(batch, total), starts.shape[0] + 1),
    )


# ---------------------------------------------------------------------------
# Public scalar / batch entry points
# ---------------------------------------------------------------------------


def expected_max_of_independent(
    values_per_point: Sequence[np.ndarray],
    probabilities_per_point: Sequence[np.ndarray],
) -> float:
    """Exact ``E[max_i V_i]`` for independent non-negative discrete variables.

    Parameters
    ----------
    values_per_point:
        ``values_per_point[i]`` is the support of variable ``i``.
    probabilities_per_point:
        Matching probabilities, each summing to one.  Entries may be exactly
        0; they contribute no mass (see the module docstring for the
        zero-probability semantics).

    Notes
    -----
    Runs in ``O(N log N)`` for ``N`` total support points with a bounded
    number of NumPy kernel calls (no Python loop over entries).  Values may
    repeat within and across variables.
    """
    values, probabilities, owners, starts = _flatten_variables(
        values_per_point, probabilities_per_point
    )
    return float(_expected_max_rows(values[None, :], probabilities, owners, starts)[0])


def _expected_max_reference(
    values_per_point: Sequence[np.ndarray],
    probabilities_per_point: Sequence[np.ndarray],
) -> float:
    """Historical pure-Python sweep, kept for differential testing.

    The ``zero_count`` bookkeeping bug is fixed here too: the counter is
    decremented only when a variable's partial CDF actually becomes positive,
    not whenever its smallest entry (possibly of probability 0) is folded in.
    """
    values, probabilities, owners, starts = _flatten_variables(
        values_per_point, probabilities_per_point
    )
    n = starts.shape[0] + 1

    order = np.argsort(values, kind="stable")
    owners = owners[order]
    values = values[order]
    probabilities = probabilities[order]

    partial_cdf = np.zeros(n)
    zero_count = n
    log_sum = 0.0

    expected = 0.0
    previous_cdf_of_max = 0.0
    total = values.shape[0]
    position = 0
    while position < total:
        value = values[position]
        while position < total and values[position] == value:
            owner = owners[position]
            old = partial_cdf[owner]
            new = old + probabilities[position]
            partial_cdf[owner] = new
            if old == 0.0:
                if new > 0.0:
                    zero_count -= 1
                    log_sum += np.log(new)
            else:
                log_sum += np.log(new) - np.log(old)
            position += 1
        cdf_of_max = float(np.exp(log_sum)) if zero_count == 0 else 0.0
        cdf_of_max = min(cdf_of_max, 1.0)
        if cdf_of_max > previous_cdf_of_max:
            expected += float(value) * (cdf_of_max - previous_cdf_of_max)
            previous_cdf_of_max = cdf_of_max
    if previous_cdf_of_max < 1.0 - 1e-9:
        expected += float(values[-1]) * (1.0 - previous_cdf_of_max)
    return float(expected)


def expected_max_batch(
    supports: Sequence[np.ndarray],
    probabilities: Sequence[np.ndarray],
    column_sets: np.ndarray,
) -> np.ndarray:
    """Exact ``E[max]`` for many column selections against shared supports.

    Parameters
    ----------
    supports:
        ``supports[i]`` is a ``(z_i, m)`` matrix whose column ``c`` is the
        support of variable ``i`` under candidate ``c`` (e.g. distances from
        point ``i``'s locations to candidate center ``c``).
    probabilities:
        ``probabilities[i]`` is the ``(z_i,)`` probability vector of variable
        ``i`` (shared by all of its columns).
    column_sets:
        ``(B, n)`` integer array; row ``b`` selects column
        ``column_sets[b, i]`` for variable ``i``.

    Returns
    -------
    ``(B,)`` array of exact expected maxima, one per row of ``column_sets``.
    """
    return AssignedCostEvaluator(supports, probabilities).costs(column_sets)


def expected_max_batch_values(
    values_rows_per_point: Sequence[np.ndarray],
    probabilities_per_point: Sequence[np.ndarray],
) -> np.ndarray:
    """Exact ``E[max]`` for many rows of arbitrary per-variable values.

    ``values_rows_per_point[i]`` is a ``(B, z_i)`` array: row ``b`` holds
    variable ``i``'s support values in problem ``b`` (e.g. min-over-subset
    distances).  Probabilities are shared across rows.  Returns ``(B,)``.
    """
    n = len(values_rows_per_point)
    if n == 0:
        raise ValidationError("expected_max_batch_values needs at least one variable")
    if len(probabilities_per_point) != n:
        raise ValidationError("values and probabilities must have the same number of variables")
    blocks = []
    weights = []
    for index in range(n):
        block = np.asarray(values_rows_per_point[index], dtype=float)
        if block.ndim != 2 or block.shape[1] == 0:
            raise ValidationError(f"variable {index}: values must be a non-empty (B, z) array")
        if blocks and block.shape[0] != blocks[0].shape[0]:
            raise ValidationError("every variable must provide the same number of rows")
        weight = np.asarray(probabilities_per_point[index], dtype=float).reshape(-1)
        if weight.shape[0] != block.shape[1]:
            raise ValidationError(f"variable {index}: support and probabilities must be aligned")
        blocks.append(block)
        weights.append(weight)
    sizes = [block.shape[1] for block in blocks]
    return _expected_max_rows(
        np.concatenate(blocks, axis=1),
        np.concatenate(weights),
        np.repeat(np.arange(n), sizes),
        np.cumsum(sizes)[:-1],
    )


# ---------------------------------------------------------------------------
# Incremental evaluator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RestProfile:
    """Cached sorted sweep of every variable except one.

    ``values`` is the sorted union of the other variables' supports and
    ``products`` the CDF of their maximum after each sorted position (0 while
    any of them still has zero mass).  Both arrays are empty when the
    instance has a single variable.
    """

    point: int
    values: np.ndarray
    products: np.ndarray


#: The per-variable lists of an :class:`AssignedCostEvaluator`, each pickled
#: as one array stacked along the variable axis.
_VARIABLE_LISTS = ("_probabilities", "_values", "_cdfs", "_log_deltas", "_zero_deltas")


@dataclass(frozen=True)
class _AssignedRankTables:
    """Global value ranks of an evaluator's presorted column entries.

    Entry ``e`` is one ``(variable, sorted position)`` pair, stacked in
    variable order (the layout a batch row concatenates), so ``owners[e]``
    is its variable and ``offsets[e] = e * m`` the start of its row in the
    flat ``(N, m)`` entry table.  ``ranks[e * m + c]`` is the position of
    entry ``e`` under column ``c`` in one stable argsort of the whole table,
    and ``values`` / ``log_deltas`` hold each position's entry.  The argsort
    breaks value ties by ``e`` (a row holds each entry once), which is the
    tie order of the per-row stable float sort.  ``first_mass[i, c]`` is the
    rank of the entry where column ``c`` of variable ``i`` first gets mass
    (the entry count, above every rank, if it never does), so a row's first
    live position is the number of its ranks below its largest
    ``first_mass``.
    """

    owners: np.ndarray
    offsets: np.ndarray
    ranks: np.ndarray
    values: np.ndarray
    log_deltas: np.ndarray
    first_mass: np.ndarray


class AssignedCostEvaluator:
    """Batch + incremental exact assigned-cost evaluation on fixed supports.

    The constructor sorts every ``(variable, candidate)`` column once and
    stores its partial CDFs and log/zero deltas.  After that:

    * :meth:`cost` / :meth:`costs` evaluate full assignments from the
      precomputed per-column entries and the shared sweep kernel — the
      per-column sorts are never redone.  :meth:`costs` is an integer rank
      merge: one stable argsort ranks every entry of every presorted column
      once (:class:`_AssignedRankTables`), and each row's union order comes
      from sorting its entries' integer ranks.  :meth:`_costs_float_sort`,
      the per-row stable float argsort, is its bit-identical reference twin,
      and also the path of a call that finds no rank tables built and has
      fewer rows than there are columns, so one-shot callers never pay for
      the build.  The tables are built lazily, never pickled, and dropped
      whenever columns are re-sorted (:meth:`_sort_columns`);
    * :meth:`rest_profile` + :meth:`move_costs` evaluate all single-point
      moves of one variable against the cached sweep of the others, without
      re-sorting the full union: the moved variable's step CDF is integrated
      against the others' cached product via
      ``E[max] = v_max - integral of F(v) dv``.
    """

    def __init__(
        self,
        supports: Sequence[np.ndarray],
        probabilities: Sequence[np.ndarray],
    ) -> None:
        self.n = len(supports)
        if self.n == 0:
            raise ValidationError("AssignedCostEvaluator needs at least one variable")
        if len(probabilities) != self.n:
            raise ValidationError("supports and probabilities must have the same number of variables")
        blocks: list[np.ndarray] = []
        self._probabilities: list[np.ndarray] = []
        self.columns: int | None = None
        for index in range(self.n):
            support = np.asarray(supports[index], dtype=float)
            if support.ndim != 2 or support.shape[0] == 0 or support.shape[1] == 0:
                raise ValidationError(f"variable {index}: support must be a non-empty (z, m) matrix")
            weight = np.asarray(probabilities[index], dtype=float).reshape(-1)
            if weight.shape[0] != support.shape[0]:
                raise ValidationError(f"variable {index}: support and probabilities must be aligned")
            if self.columns is None:
                self.columns = support.shape[1]
            elif support.shape[1] != self.columns:
                raise ValidationError("every variable must offer the same number of candidate columns")
            blocks.append(support)
            self._probabilities.append(weight)
        self._values: list[np.ndarray] = [np.empty(block.shape) for block in blocks]
        self._cdfs: list[np.ndarray] = [np.empty(block.shape) for block in blocks]
        self._log_deltas: list[np.ndarray] = [np.empty(block.shape) for block in blocks]
        self._zero_deltas: list[np.ndarray] = [np.empty(block.shape) for block in blocks]
        self._rank_tables: _AssignedRankTables | None = None
        self._sort_columns(slice(None), blocks)

    def __getstate__(self) -> dict[str, Any]:
        """Pickled state: each per-variable list as one array stacked in variable order.

        ``_probabilities`` is stacked like the sorted columns; a
        :class:`~repro.cost.context.CostContext` swaps in its dataset's
        stacked probabilities, the same values, so its pickle writes them
        once.
        """
        state: dict[str, Any] = {
            name: np.concatenate(getattr(self, name)) for name in _VARIABLE_LISTS
        }
        state["starts"] = list(accumulate(values.shape[0] for values in self._values[:-1]))
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        """Re-slice the stacked lists into per-variable views (no copies).

        The rank tables are not part of the state; they rebuild on first use.
        """
        for name in _VARIABLE_LISTS:
            setattr(self, name, split_rows(state[name], state["starts"]))
        self.n = len(self._values)
        self.columns = state["_values"].shape[1]
        self._rank_tables = None

    # -- batch path ---------------------------------------------------------

    def _check_columns(self, columns: np.ndarray) -> np.ndarray:
        columns = np.asarray(columns, dtype=int)
        if columns.shape[-1] != self.n:
            raise ValidationError(f"expected one column per variable ({self.n}), got {columns.shape[-1]}")
        if columns.size and (columns.min() < 0 or columns.max() >= self.columns):
            raise ValidationError("column index out of range")
        return columns

    def cost(self, columns: np.ndarray) -> float:
        """Exact ``E[max]`` of a single assignment (one column per variable).

        The ``B = 1`` row of :meth:`costs`, gathered with plain column views.
        """
        columns = self._check_columns(np.asarray(columns, dtype=int).reshape(-1))
        values = np.concatenate([self._values[i][:, columns[i]] for i in range(self.n)])
        log_delta = np.concatenate([self._log_deltas[i][:, columns[i]] for i in range(self.n)])
        zero_delta = np.concatenate([self._zero_deltas[i][:, columns[i]] for i in range(self.n)])
        return float(
            _sweep_rows(values[None, :], log_delta[None, :], zero_delta[None, :], self.n)[0]
        )

    def costs(self, column_sets: np.ndarray) -> np.ndarray:
        """Exact ``E[max]`` for a ``(B, n)`` batch of assignments: the rank merge.

        Each block of at most :data:`RANK_MERGE_BLOCK_ENTRIES` layout entries
        gathers its entries' integer ranks (:meth:`_ranked_entries`) and
        sorts them in place.  The
        ranks of one row are distinct, so the unstable sort is exact, and the
        values and deltas gathered by rank are the per-row float sort's union
        order: the costs are bit-identical to :meth:`_costs_float_sort`.  A
        row's first live position is the count of its ranks below the
        largest first-mass rank of its columns, the position the twin's
        zero-mass counter reaches 0 at.  A call that finds no rank tables
        and has fewer rows than there are columns runs that twin instead of
        building them.
        """
        column_sets = self._check_columns(np.atleast_2d(np.asarray(column_sets, dtype=int)))
        batch = column_sets.shape[0]
        if self._rank_tables is None and batch < self._values[0].shape[1]:
            return self._costs_float_sort(column_sets)
        tables = self._ranked_entries()
        block_rows = max(1, RANK_MERGE_BLOCK_ENTRIES // tables.owners.shape[0])
        variables = np.arange(self.n)
        out = np.empty(batch)
        for start in range(0, batch, block_rows):
            rows = column_sets[start : start + block_rows]
            # ``take`` along axis 1 returns C order whatever the input's
            # layout, which keeps every gathered sweep array C-contiguous.
            entries = rows.take(tables.owners, axis=1)
            entries += tables.offsets
            ranks = tables.ranks.take(entries)
            ranks.sort(axis=1)  # repro: noqa[FLOAT-SORT-HOTPATH] -- the assigned rank merge: distinct integer ranks per row, no float comparisons
            last_mass = tables.first_mass[variables, rows].max(axis=1)
            out[start : start + rows.shape[0]] = _sweep_rows_presorted(
                ranks,
                tables.values,
                tables.log_deltas.take(ranks),
                np.count_nonzero(ranks < last_mass[:, None], axis=1),
            )
        return out

    def _ranked_entries(self) -> _AssignedRankTables:
        """The rank tables behind :meth:`costs`; built on first use."""
        if self._rank_tables is None:
            values = np.concatenate(self._values)
            flat = values.ravel()
            order = np.argsort(flat, kind="stable")
            dtype = np.int32 if flat.shape[0] < 2**31 else np.int64
            ranks = np.empty(flat.shape[0], dtype=dtype)
            ranks[order] = np.arange(flat.shape[0], dtype=dtype)
            sizes = [block.shape[0] for block in self._values]
            owners = np.repeat(np.arange(self.n), sizes)
            # A column's one -1 zero delta sits at its first-mass entry.
            entry, column = np.nonzero(np.concatenate(self._zero_deltas) < 0.0)
            first_mass = np.full((self.n, values.shape[1]), flat.shape[0], dtype=dtype)
            first_mass[owners[entry], column] = ranks.reshape(values.shape)[entry, column]
            self._rank_tables = _AssignedRankTables(
                owners=owners,
                offsets=np.arange(0, flat.shape[0], values.shape[1]),
                ranks=ranks,
                values=flat[order],
                log_deltas=np.concatenate(self._log_deltas).ravel()[order],
                first_mass=first_mass,
            )
        return self._rank_tables

    def _costs_float_sort(self, column_sets: np.ndarray, *, chunk_rows: int = 4096) -> np.ndarray:
        """The per-row stable float-sort batch path, kept as the reference.

        Differential tests pin :meth:`costs` bit-identical to it, and the
        ``assigned_rank_merge`` benchmark case measures the merge against it.
        """
        column_sets = self._check_columns(np.atleast_2d(np.asarray(column_sets, dtype=int)))
        batch = column_sets.shape[0]
        out = np.empty(batch)
        for start in range(0, batch, chunk_rows):
            rows = column_sets[start : start + chunk_rows]
            values = np.concatenate([self._values[i][:, rows[:, i]].T for i in range(self.n)], axis=1)
            log_delta = np.concatenate(
                [self._log_deltas[i][:, rows[:, i]].T for i in range(self.n)], axis=1
            )
            zero_delta = np.concatenate(
                [self._zero_deltas[i][:, rows[:, i]].T for i in range(self.n)], axis=1
            )
            out[start : start + rows.shape[0]] = _sweep_rows(values, log_delta, zero_delta, self.n)
        return out

    # -- incremental path ---------------------------------------------------

    def rest_profile(self, columns: np.ndarray, point: int) -> RestProfile:
        """Sorted sweep of every variable except ``point`` under ``columns``."""
        columns = self._check_columns(np.asarray(columns, dtype=int).reshape(-1))
        if not 0 <= point < self.n:
            raise ValidationError(f"point {point} out of range [0, {self.n})")
        others = [i for i in range(self.n) if i != point]
        if not others:
            return RestProfile(point=point, values=np.empty(0), products=np.empty(0))
        values = np.concatenate([self._values[i][:, columns[i]] for i in others])
        log_delta = np.concatenate([self._log_deltas[i][:, columns[i]] for i in others])
        zero_delta = np.concatenate([self._zero_deltas[i][:, columns[i]] for i in others])
        order = np.argsort(values, kind="stable")
        values = values[order]
        cumulative_log = np.cumsum(log_delta[order])
        zero_count = float(len(others)) + np.cumsum(zero_delta[order])
        products = np.where(zero_count < 0.5, np.exp(np.minimum(cumulative_log, 0.0)), 0.0)
        return RestProfile(point=point, values=values, products=products)

    def move_costs(self, profile: RestProfile, candidate_columns: np.ndarray) -> np.ndarray:
        """Exact assigned cost for each candidate column of the profiled point.

        Uses ``E[max] = v_max - integral F(v) dv`` with
        ``F = F_rest * F_point``: the cumulative integral ``G`` of the
        piecewise-constant rest product is built once per profile in ``O(N)``,
        and because the moved point's step CDF is constant between its support
        knots the integral reduces to ``sum_j F_point(s_j) (G(s_{j+1}) -
        G(s_j))`` — only ``z + 1`` evaluations of ``G`` per candidate column,
        located for all columns with one ``searchsorted`` over the shared rest
        values.  No union re-sort happens per move.
        """
        candidate_columns = np.asarray(candidate_columns, dtype=int).reshape(-1)
        if candidate_columns.size and (
            candidate_columns.min() < 0 or candidate_columns.max() >= self.columns
        ):
            raise ValidationError("column index out of range")
        point = profile.point
        rest_values = profile.values
        rest_products = profile.products
        support = self._values[point][:, candidate_columns]  # (z, C)
        cdf = self._cdfs[point][:, candidate_columns]  # (z, C)
        z, width = support.shape
        if width == 0:
            return np.empty(0)
        if rest_values.size == 0:
            # Single-variable instance: E[V] = v_z - sum_j F(s_j) (s_{j+1} - s_j).
            return support[-1] - np.sum(cdf[:-1] * np.diff(support, axis=0), axis=0)
        # ``G(v) = integral of F_rest up to v`` is piecewise linear with slope
        # ``rest_products[t]`` on ``[rest_values[t], rest_values[t+1])`` (and
        # slope ``rest_products[-1] ~= 1`` beyond the last rest value).  It is
        # built once per profile in O(N); each candidate column then needs
        # only its z + 1 step knots evaluated against G, because the point's
        # step CDF is constant between consecutive support values:
        # ``integral F_rest F_point = sum_j F_point(s_j) (G(s_{j+1}) - G(s_j))``.
        g_knots = np.concatenate(([0.0], np.cumsum(rest_products[:-1] * np.diff(rest_values))))
        v_max = np.maximum(support[-1], rest_values[-1])  # (C,)
        queries = np.vstack([support, v_max[None, :]])  # (z + 1, C)
        index = np.searchsorted(rest_values, queries.ravel(), side="right").reshape(z + 1, width) - 1
        clipped = np.clip(index, 0, rest_values.shape[0] - 1)
        g_at_queries = np.where(
            index >= 0,
            g_knots[clipped] + rest_products[clipped] * (queries - rest_values[clipped]),
            0.0,
        )
        return v_max - np.einsum("jc,jc->c", cdf, np.diff(g_at_queries, axis=0))

    def local_search_sweep(self, columns: np.ndarray) -> "LocalSearchSweep":
        """A :class:`LocalSearchSweep` over the current assignment ``columns``."""
        return LocalSearchSweep(self, columns)

    # -- incremental candidate-column updates -------------------------------

    def replace_candidate_columns(
        self, columns: np.ndarray, supports: Sequence[np.ndarray]
    ) -> None:
        """Splice new candidate columns into the cached sorted structure.

        ``supports[i]`` is the ``(z_i, C)`` block of variable ``i``'s
        distances to the ``C`` replacement candidates; column ``c`` of each
        block replaces cached column ``columns[c]``.  Only the replaced
        columns are re-sorted — ``O(n z C log z)`` against the
        ``O(n z m log z)`` full rebuild — and the spliced columns are
        bit-identical to a from-scratch build, which runs the same column
        pass (:meth:`_sort_columns`) over every column.

        In-place: previously derived :class:`RestProfile` /
        :class:`LocalSearchSweep` objects hold copies of the old columns and
        must be rebuilt if they referenced a replaced column.
        """
        columns = np.asarray(columns, dtype=int).reshape(-1)
        if columns.size == 0:
            return
        if columns.min() < 0 or columns.max() >= self.columns:
            raise ValidationError("column index out of range")
        if np.unique(columns).shape[0] != columns.shape[0]:
            raise ValidationError("replacement column indices must be distinct")
        if len(supports) != self.n:
            raise ValidationError(f"expected one support block per variable ({self.n})")
        blocks = []
        for index in range(self.n):
            block = np.asarray(supports[index], dtype=float)
            expected_shape = (self._values[index].shape[0], columns.shape[0])
            if block.shape != expected_shape:
                raise ValidationError(
                    f"variable {index}: replacement block must have shape {expected_shape}"
                )
            blocks.append(block)
        self._sort_columns(columns, blocks)

    def _sort_columns(self, columns: np.ndarray | slice, blocks: Sequence[np.ndarray]) -> None:
        """Sort ``blocks[i]`` into variable ``i``'s cached ``columns``.

        Writes each column's sorted values, partial CDFs and log/zero deltas;
        the constructor passes ``slice(None)`` to build every column.
        Variables are grouped by support size, so each group's sort /
        cumulative-sum / delta pass runs as one 3-D kernel call instead of
        one per variable; every operation is independent along the variable
        and column axes, so a column's result does not depend on its group.
        Drops the rank tables, which rank the columns' old entries.
        """
        self._rank_tables = None
        by_size: dict[int, list[int]] = {}
        for index, block in enumerate(blocks):
            by_size.setdefault(block.shape[0], []).append(index)
        for indices in by_size.values():
            stacked = np.stack([blocks[i] for i in indices])  # (g, z, C)
            weights = np.stack([self._probabilities[i] for i in indices])  # (g, z)
            order = np.argsort(stacked, axis=1, kind="stable")
            sorted_values = np.take_along_axis(stacked, order, axis=1)
            sorted_probabilities = np.take_along_axis(
                np.broadcast_to(weights[:, :, None], stacked.shape), order, axis=1
            )
            cdf_after = np.cumsum(sorted_probabilities, axis=1)
            cdf_before = np.concatenate([np.zeros_like(cdf_after[:, :1]), cdf_after[:, :-1]], axis=1)
            log_delta, zero_delta = _log_zero_deltas(cdf_after, cdf_before)
            for position, index in enumerate(indices):
                self._values[index][:, columns] = sorted_values[position]
                self._cdfs[index][:, columns] = cdf_after[position]
                self._log_deltas[index][:, columns] = log_delta[position]
                self._zero_deltas[index][:, columns] = zero_delta[position]


class LocalSearchSweep:
    """Round-amortized rest profiles for single-point local search.

    :meth:`AssignedCostEvaluator.rest_profile` re-concatenates and re-sorts
    the other ``n - 1`` variables' columns for *every* profiled point, even
    though the ``n`` profiles of one local-search round share all but one
    variable.  This class maintains the sorted union sweep of **all**
    variables under the current assignment (values, per-entry log/zero
    deltas, owners, and their cumulative sums) and derives any point's rest
    profile in ``O(N)`` by subtracting that point's own cumulative
    contribution in log space — with the same explicit zero-mass counter the
    kernel uses, so zero-probability supports stay correct.

    The profile keeps the moved point's entry positions in the sorted union;
    they only add breakpoints on which the rest product is constant, which
    the :meth:`AssignedCostEvaluator.move_costs` integral ignores (zero-width
    or equal-product intervals), so the move costs match the per-point
    profiles to floating-point associativity.

    Accepting a move splices the moved variable's presorted column into the
    union via ``searchsorted`` + ``insert`` — the union is never re-sorted
    from scratch during a round.
    """

    def __init__(self, evaluator: AssignedCostEvaluator, columns: np.ndarray) -> None:
        self._evaluator = evaluator
        columns = evaluator._check_columns(np.asarray(columns, dtype=int).reshape(-1))
        self._columns = columns.copy()
        n = evaluator.n
        values = np.concatenate([evaluator._values[i][:, columns[i]] for i in range(n)])
        log_delta = np.concatenate([evaluator._log_deltas[i][:, columns[i]] for i in range(n)])
        zero_delta = np.concatenate([evaluator._zero_deltas[i][:, columns[i]] for i in range(n)])
        owner = np.concatenate(
            [np.full(evaluator._values[i].shape[0], i) for i in range(n)]
        )
        order = np.argsort(values, kind="stable")
        self._values = values[order]
        self._log_delta = log_delta[order]
        self._zero_delta = zero_delta[order]
        self._owner = owner[order]
        self._refresh()

    def _refresh(self) -> None:
        self._cum_log = np.cumsum(self._log_delta)
        self._cum_zero = np.cumsum(self._zero_delta)

    def cost(self) -> float:
        """Exact ``E[max]`` of the current assignment from the cached sweep."""
        zero_count = float(self._evaluator.n) + self._cum_zero
        cdf_of_max = np.where(zero_count < 0.5, np.exp(np.minimum(self._cum_log, 0.0)), 0.0)
        return float(_cdf_expectation(self._values[None, :], cdf_of_max[None, :])[0])

    def rest_profile(self, point: int) -> RestProfile:
        """Sorted sweep of every variable except ``point`` — no re-sort."""
        n = self._evaluator.n
        if not 0 <= point < n:
            raise ValidationError(f"point {point} out of range [0, {n})")
        if n == 1:
            return RestProfile(point=point, values=np.empty(0), products=np.empty(0))
        mine = self._owner == point
        own_log = np.cumsum(np.where(mine, self._log_delta, 0.0))
        own_zero = np.cumsum(np.where(mine, self._zero_delta, 0.0))
        rest_log = self._cum_log - own_log
        rest_zero_count = float(n - 1) + (self._cum_zero - own_zero)
        products = np.where(rest_zero_count < 0.5, np.exp(np.minimum(rest_log, 0.0)), 0.0)
        return RestProfile(point=point, values=self._values, products=products)

    def apply_move(self, point: int, column: int) -> None:
        """Reassign ``point`` to ``column`` and splice the union in place."""
        evaluator = self._evaluator
        n = evaluator.n
        if not 0 <= point < n:
            raise ValidationError(f"point {point} out of range [0, {n})")
        column = int(column)
        if not 0 <= column < evaluator.columns:
            raise ValidationError("column index out of range")
        if column == int(self._columns[point]):
            return
        keep = self._owner != point
        values = self._values[keep]
        new_values = evaluator._values[point][:, column]
        positions = np.searchsorted(values, new_values, side="left")
        self._values = np.insert(values, positions, new_values)
        self._log_delta = np.insert(
            self._log_delta[keep], positions, evaluator._log_deltas[point][:, column]
        )
        self._zero_delta = np.insert(
            self._zero_delta[keep], positions, evaluator._zero_deltas[point][:, column]
        )
        self._owner = np.insert(self._owner[keep], positions, point)
        self._columns[point] = column
        self._refresh()


# ---------------------------------------------------------------------------
# Dataset-facing helpers (one metric call over the flat location layout)
# ---------------------------------------------------------------------------


def _nearest_center_distances(dataset: UncertainDataset, centers: np.ndarray) -> np.ndarray:
    """``(N,)`` distance from every layout row to its nearest center."""
    centers = as_point_array(centers, name="centers")
    return dataset.metric.pairwise(dataset.location_layout().locations, centers).min(axis=1)


def _assigned_center_distances(
    dataset: UncertainDataset, centers: np.ndarray, assignment: np.ndarray
) -> np.ndarray:
    """``(N,)`` distance from every layout row to its point's assigned center.

    Distances are taken only to the centers the assignment uses, so a
    candidate set as large as every location still costs ``O(N u)`` memory
    for ``u <= n`` used centers.
    """
    centers = as_point_array(centers, name="centers")
    assignment = np.asarray(assignment, dtype=int).reshape(-1)
    if assignment.shape[0] != dataset.size:
        raise ValidationError("assignment must have one entry per uncertain point")
    if assignment.min() < 0 or assignment.max() >= centers.shape[0]:
        raise ValidationError("assignment refers to a center index that does not exist")
    layout = dataset.location_layout()
    used, columns = np.unique(assignment, return_inverse=True)
    distances = dataset.metric.pairwise(layout.locations, centers[used])
    return distances[np.arange(distances.shape[0]), columns[layout.owners]]


def _layout_costs(dataset: UncertainDataset, values: np.ndarray) -> np.ndarray:
    """``(B,)`` ``E[max]`` of the per-point variables, one row of ``(B, N)`` layout values each."""
    layout = dataset.location_layout()
    return _expected_max_rows(values, layout.probabilities, layout.owners, layout.starts)


def distance_supports_for_assignment(
    dataset: UncertainDataset,
    centers: np.ndarray,
    assignment: np.ndarray,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-point distance supports for a fixed assignment.

    ``assignment[i]`` is the index (into ``centers``) each uncertain point is
    assigned to.  The supports are per-point views of the distances
    :func:`expected_cost_assigned` scores.
    """
    layout = dataset.location_layout()
    values = _assigned_center_distances(dataset, centers, assignment)
    return layout.split(values), layout.split(layout.probabilities)


def distance_supports_for_centers(
    dataset: UncertainDataset,
    centers: np.ndarray,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-point distance-to-nearest-center supports (unassigned objective).

    Per-point views of the distances :func:`expected_cost_unassigned` scores.
    """
    layout = dataset.location_layout()
    values = _nearest_center_distances(dataset, centers)
    return layout.split(values), layout.split(layout.probabilities)


def assigned_cost_evaluator(dataset: UncertainDataset, centers: np.ndarray) -> AssignedCostEvaluator:
    """An :class:`AssignedCostEvaluator` over a dataset's center distances.

    Column ``c`` of variable ``i`` is ``d(P_ij, centers[c])``, so assignment
    vectors index centers directly.
    """
    centers = as_point_array(centers, name="centers")
    metric = dataset.metric
    supports = [metric.pairwise(point.locations, centers) for point in dataset.points]
    probabilities = [point.probabilities for point in dataset.points]
    return AssignedCostEvaluator(supports, probabilities)


def expected_cost_assigned(
    dataset: UncertainDataset,
    centers: np.ndarray,
    assignment: np.ndarray,
) -> float:
    """Exact assigned expected cost ``EcostA(c_1 .. c_k)``."""
    values = _assigned_center_distances(dataset, centers, assignment)
    return float(_layout_costs(dataset, values[None, :])[0])


def expected_cost_unassigned(dataset: UncertainDataset, centers: np.ndarray) -> float:
    """Exact unassigned expected cost ``Ecost(c_1 .. c_k)``."""
    values = _nearest_center_distances(dataset, centers)
    return float(_layout_costs(dataset, values[None, :])[0])


def expected_distance(dataset: UncertainDataset, point_index: int, target: np.ndarray) -> float:
    """``E[d(P_i, target)]`` under the dataset's metric."""
    if not 0 <= point_index < dataset.size:
        raise ValidationError(f"point_index {point_index} out of range [0, {dataset.size})")
    return dataset.points[point_index].expected_distance_to(target, dataset.metric)


def expected_distance_matrix(dataset: UncertainDataset, targets: np.ndarray) -> np.ndarray:
    """Matrix ``M[i, j] = E[d(P_i, targets[j])]``.

    This is the quantity the expected-distance assignment minimises per row.
    """
    targets = as_point_array(targets, name="targets")
    matrix = np.empty((dataset.size, targets.shape[0]))
    for index, point in enumerate(dataset.points):
        matrix[index] = point.expected_distances_to_many(targets, dataset.metric)
    return matrix


def expected_one_center_costs(dataset: UncertainDataset, centers: np.ndarray) -> np.ndarray:
    """``(B,)`` unassigned expected cost of each row of ``centers`` as a lone center.

    One ``metric.pairwise`` call over the cached location layout and one
    row-wise ``E[max]`` kernel call per block of at most
    :data:`BATCH_ENTRY_CAP` layout entries (or one center, if its ``N``
    entries exceed the cap), so a call's memory does not grow with the
    number of centers.  A row's value does not depend on which other
    rows share its block, except through the metric: a Euclidean
    ``pairwise`` over several centers is one BLAS matrix product, which can
    round a distance an ulp apart from the one-center product (see the
    module docstring).
    """
    centers = as_point_array(centers, name="centers")
    layout = dataset.location_layout()
    block = max(1, BATCH_ENTRY_CAP // layout.owners.shape[0])
    costs = np.empty(centers.shape[0])
    for first in range(0, centers.shape[0], block):
        distances = dataset.metric.pairwise(layout.locations, centers[first : first + block])
        costs[first : first + block] = _layout_costs(dataset, np.ascontiguousarray(distances.T))
    return costs


def expected_one_center_cost(dataset: UncertainDataset, center: np.ndarray) -> float:
    """Unassigned expected cost of a single center (Theorem 2.1 objective).

    The ``B = 1`` row of :func:`expected_one_center_costs`.
    """
    center = np.asarray(center, dtype=float).reshape(1, -1)
    return float(expected_one_center_costs(dataset, center)[0])
