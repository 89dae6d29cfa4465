"""Reproduction of Table 1: one record per row of the paper's summary.

The paper's evaluation artifact is Table 1 — a summary of approximation
factors and running times for each (objective, metric, assignment) pairing.
Each record here reproduces one row (or a pair of rows sharing a workload)
empirically:

* it solves synthetic instances with the corresponding algorithm,
* divides the achieved expected cost by a *provable lower bound* on the
  relevant optimum (and, on micro instances, by the brute-force best-known
  cost), and
* reports the worst observed ratio next to the paper's guaranteed factor.

A measured ratio at or below the guarantee reproduces the row; ratios are
typically far below it because the guarantees are worst-case.

Rows 2-7 all measure one algorithm, the expected-point reduction of
Theorems 2.2, 2.4 and 2.5, on the same Euclidean micro instances.  So one
trial case per micro dataset (:func:`_micro_case`) yields the rows of all
three records, E2/E3, E4/E5 and E6/E7: one lower bound, one cost context
for the three brute-force references, and one solve per assignment rule
and solver.

Each experiment's independent trial cases are module-level functions mapped
over :func:`repro.runtime.parallel.parallel_map`; ``Table1Settings.workers``
(the CLI's ``--workers``) shards them across processes.  All seven
experiments of a run share the runtime's one persistent pool (spawned on
first use, reused afterwards), and a worker count above the available CPUs
is clamped rather than oversubscribed.  ``workers=1`` (the default) runs the
same cases in the same order in-process, so records are bit-identical for
every worker count — cases regenerate their workloads from fixed seeds and
never share state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..algorithms.factors import RESTRICTED_ED_VS_UNRESTRICTED_FACTOR
from ..algorithms.metric_space import solve_metric_unrestricted
from ..algorithms.one_center import expected_point_one_center, refined_uncertain_one_center
from ..algorithms.restricted import solve_restricted_assigned
from ..algorithms.unrestricted import solve_unrestricted_assigned
from ..assignments.policies import ExpectedDistanceAssignment, ExpectedPointAssignment
from ..baselines.brute_force import (
    brute_force_restricted_assigned,
    brute_force_unrestricted_assigned,
)
from ..baselines.cormode_mcgregor import cormode_mcgregor_baseline
from ..baselines.guha_munagala import guha_munagala_baseline
from ..baselines.wang_zhang_1d import wang_zhang_1d
from ..bounds.lower_bounds import assigned_cost_lower_bound
from ..runtime import health
from ..runtime.parallel import parallel_map
from ..runtime.store import ContextStore
from ..workloads.graphs import graph_uncertain_workload
from ..workloads.synthetic import gaussian_clusters, heavy_tailed, line_workload, uniform_cloud
from .records import ExperimentRecord, ExperimentRow, track_runtime_health, with_runtime_health


@dataclass(frozen=True)
class Table1Settings:
    """Knobs controlling how heavy the Table-1 experiments are.

    ``quick`` presets are used by the pytest-benchmark targets so a full
    benchmark run stays in the minutes range; the defaults are what
    ``python -m repro table1`` reports.  ``workers`` shards each
    experiment's trial cases across processes (1 = serial; results are
    identical either way).
    """

    trials: int = 3
    n_small: int = 6
    n_medium: int = 40
    z: int = 4
    k: int = 3
    epsilon: float = 0.1
    seed: int = 0
    workers: int = 1
    #: Branch-and-bound pruning for the brute-force references (the CLI's
    #: ``--no-prune`` clears it).  Pruned and unpruned references are
    #: bit-identical; the flag exists to measure/debug the pruning layer.
    prune: bool = True
    #: Wall-clock budget in seconds for each brute-force reference solve
    #: (the CLI's ``--time-budget``).  ``None`` (the default) runs to
    #: completion.  With a budget, a reference that runs out of time
    #: returns its best incumbent plus a ``(cost, lower_bound, gap)``
    #: certificate instead of the exact optimum — see
    #: :mod:`repro.baselines.brute_force`.
    time_budget: float | None = None
    #: Certified relative optimality gap at which each brute-force reference
    #: may stop early (the CLI's ``--gap-target``).  ``None`` (the default)
    #: runs to completion; ``0.0`` never stops early (bit-identical to the
    #: exact run).  Requires ``prune`` — the certified gap is measured
    #: against the admissible chunk bounds the pruning layer computes.
    gap_target: float | None = None

    @classmethod
    def quick(cls) -> "Table1Settings":
        """Smaller preset for benchmark harness runs."""
        return cls(trials=2, n_small=5, n_medium=25, z=3, k=2)


def _euclidean_micro_workloads(settings: Table1Settings):
    """Small Euclidean instances where brute force references are affordable."""
    for trial in range(settings.trials):
        yield gaussian_clusters(
            n=settings.n_small,
            z=settings.z,
            dimension=2,
            k_true=settings.k,
            seed=settings.seed + trial,
        )
        yield uniform_cloud(
            n=settings.n_small,
            z=settings.z,
            dimension=2,
            seed=settings.seed + 100 + trial,
        )


def _e1_case(settings: Table1Settings, item: tuple[int, int]) -> tuple[ExperimentRow, float]:
    dimension, trial = item
    dataset, spec = gaussian_clusters(
        n=settings.n_medium,
        z=settings.z,
        dimension=dimension,
        k_true=1,
        seed=settings.seed + trial,
    )
    theorem = expected_point_one_center(dataset)
    reference = refined_uncertain_one_center(dataset)
    ratio = theorem.expected_cost / max(reference.expected_cost, 1e-12)
    row = ExperimentRow(
        configuration=f"{spec.describe()} trial={trial}",
        measured={
            "theorem_2_1_cost": theorem.expected_cost,
            "reference_cost": reference.expected_cost,
            "ratio": ratio,
        },
    )
    return row, ratio


def run_e1_one_center(settings: Table1Settings | None = None) -> ExperimentRecord:
    """E1 — Table 1 row 1: 1-center, Euclidean, factor 2, O(z) time."""
    settings = settings or Table1Settings()
    items = [(dimension, trial) for dimension in (1, 2, 3, 8) for trial in range(settings.trials)]
    cases = parallel_map(_e1_case, items, payload=settings, workers=settings.workers)
    rows = [row for row, _ in cases]
    worst_ratio = max((ratio for _, ratio in cases), default=0.0)
    return ExperimentRecord(
        experiment_id="E1",
        paper_artifact="Table 1 row 1 (1-center, Euclidean)",
        paper_claim="factor 2, O(z) time",
        rows=tuple(rows),
        summary={"worst_ratio": worst_ratio, "bound": 2.0, "within_bound": worst_ratio <= 2.0 + 1e-9},
    )


#: The deterministic solvers every E2–E7 configuration runs.
_SOLVERS = ("gonzalez", "epsilon")

#: E2–E7's records in report order: id, paper artifact, the assignment rule
#: of the solves a record measures, its reference's measured key, and the
#: offset ``a`` of its factors ``a + f`` (Gonzalez ``f = 2``, the (1+eps)
#: solver ``f = 1 + eps``).
_MICRO_RECORDS = (
    ("E2/E3", "Table 1 rows 2-3 (restricted assigned, expected distance)", "expected-distance", "reference_cost", 4.0),
    ("E4/E5", "Table 1 rows 4-5 (restricted assigned, expected point)", "expected-point", "reference_cost", 2.0),
    ("E6/E7", "Table 1 rows 6-7 (unrestricted assigned, Euclidean)", "expected-point", "unrestricted_reference", 2.0),
)


def _micro_case(settings: Table1Settings, item) -> list[list[tuple[str, ExperimentRow]]]:
    """The rows of E2/E3, E4/E5 and E6/E7 on one Euclidean micro dataset.

    One lower bound, one cost context for the three brute-force references,
    and one solve per assignment rule and solver: E4/E5 and E6/E7 measure
    the same expected-point solution against their two references.  Each
    row comes paired with its solver.
    """
    dataset, spec = item
    k = settings.k
    lower_bound = assigned_cost_lower_bound(dataset, k)
    store = ContextStore()
    references = [
        brute_force_restricted_assigned(
            dataset,
            k,
            assignment=policy,
            store=store,
            prune=settings.prune,
            time_budget=settings.time_budget,
            gap_target=settings.gap_target,
        )
        for policy in (ExpectedDistanceAssignment(), ExpectedPointAssignment())
    ]
    references.append(brute_force_unrestricted_assigned(dataset, k, store=store, prune=settings.prune))
    solves = {
        (assignment, solver): solve_restricted_assigned(
            dataset, k, assignment=assignment, solver=solver, epsilon=settings.epsilon
        )
        for assignment in ("expected-distance", "expected-point")
        for solver in _SOLVERS
    }
    per_record = []
    for (_, _, assignment, reference_key, _), reference in zip(_MICRO_RECORDS, references):
        denominator = max(reference.expected_cost, lower_bound, 1e-12)
        rows = []
        for solver in _SOLVERS:
            result = solves[assignment, solver]
            row = ExperimentRow(
                configuration=f"{spec.describe()} solver={solver}",
                measured={
                    "cost": result.expected_cost,
                    reference_key: reference.expected_cost,
                    "lower_bound": lower_bound,
                    "ratio_vs_reference": result.expected_cost / denominator,
                    "guaranteed_factor": result.guaranteed_factor or float("nan"),
                },
            )
            rows.append((solver, row))
        per_record.append(rows)
    return per_record


def _worst_ratios(tagged_rows, tags: Sequence[str]) -> dict[str, float]:
    """Each tag's worst ``ratio_vs_reference`` over ``(tag, row)`` pairs (0 if none)."""
    worst = dict.fromkeys(tags, 0.0)
    for tag, row in tagged_rows:
        worst[tag] = max(worst[tag], row.measured["ratio_vs_reference"])
    return worst


def _micro_records(settings: Table1Settings) -> list[ExperimentRecord]:
    """E2/E3, E4/E5 and E6/E7 from one map of :func:`_micro_case`."""
    cases = parallel_map(
        _micro_case, list(_euclidean_micro_workloads(settings)), payload=settings, workers=settings.workers
    )
    records = []
    for index, (experiment_id, artifact, _, _, offset) in enumerate(_MICRO_RECORDS):
        tagged = [pair for case in cases for pair in case[index]]
        worst = _worst_ratios(tagged, _SOLVERS)
        gonzalez_bound = offset + 2.0
        eps_bound = offset + 1.0 + settings.epsilon
        within = worst["gonzalez"] <= gonzalez_bound + 1e-9 and worst["epsilon"] <= eps_bound + 1e-9
        records.append(
            ExperimentRecord(
                experiment_id=experiment_id,
                paper_artifact=artifact,
                paper_claim=f"factors {gonzalez_bound:g} (Gonzalez) / {eps_bound:g} (1+eps solver)",
                rows=tuple(row for _, row in tagged),
                summary={
                    "worst_ratio_gonzalez": worst["gonzalez"],
                    "worst_ratio_epsilon": worst["epsilon"],
                    "bound_gonzalez": gonzalez_bound,
                    "bound_epsilon": eps_bound,
                    "within_bound": within,
                },
            )
        )
    return records


def run_e2_e3_restricted_expected_distance(settings: Table1Settings | None = None) -> ExperimentRecord:
    """E2/E3 — Table 1 rows 2-3: restricted assigned, ED assignment."""
    return _micro_records(settings or Table1Settings())[0]


def run_e4_e5_restricted_expected_point(settings: Table1Settings | None = None) -> ExperimentRecord:
    """E4/E5 — Table 1 rows 4-5: restricted assigned, EP assignment."""
    return _micro_records(settings or Table1Settings())[1]


def run_e6_e7_unrestricted_euclidean(settings: Table1Settings | None = None) -> ExperimentRecord:
    """E6/E7 — Table 1 rows 6-7: unrestricted assigned, Euclidean."""
    return _micro_records(settings or Table1Settings())[2]


def _e8_case(settings: Table1Settings, trial: int) -> tuple[ExperimentRow, float]:
    dataset, spec = line_workload(
        n=settings.n_small,
        z=settings.z,
        segment_count=settings.k,
        seed=settings.seed + trial,
    )
    solution = wang_zhang_1d(dataset, settings.k)
    reference = brute_force_unrestricted_assigned(dataset, settings.k, prune=settings.prune)
    lower_bound = assigned_cost_lower_bound(dataset, settings.k)
    denominator = max(reference.expected_cost, lower_bound, 1e-12)
    ratio = solution.expected_cost / denominator
    row = ExperimentRow(
        configuration=f"{spec.describe()} trial={trial}",
        measured={
            "wang_zhang_cost": solution.expected_cost,
            "unrestricted_reference": reference.expected_cost,
            "lower_bound": lower_bound,
            "ratio_vs_reference": ratio,
        },
    )
    return row, ratio


def run_e8_one_dimensional(settings: Table1Settings | None = None) -> ExperimentRecord:
    """E8 — Table 1 row 8: R^1 unrestricted assigned via Theorem 2.3."""
    settings = settings or Table1Settings()
    cases = parallel_map(
        _e8_case, list(range(settings.trials)), payload=settings, workers=settings.workers
    )
    rows = [row for row, _ in cases]
    worst_ratio = max((ratio for _, ratio in cases), default=0.0)
    return ExperimentRecord(
        experiment_id="E8",
        paper_artifact="Table 1 row 8 (R^1, unrestricted assigned)",
        paper_claim=f"factor {RESTRICTED_ED_VS_UNRESTRICTED_FACTOR:g} (Theorem 2.3)",
        rows=tuple(rows),
        summary={
            "worst_ratio": worst_ratio,
            "bound": RESTRICTED_ED_VS_UNRESTRICTED_FACTOR,
            "within_bound": worst_ratio <= RESTRICTED_ED_VS_UNRESTRICTED_FACTOR + 1e-9,
        },
    )


#: The assignment rules E9 measures, in row order.
_E9_ASSIGNMENTS = ("one-center", "expected-distance")


def _e9_case(settings: Table1Settings, trial: int) -> list[tuple[str, ExperimentRow]]:
    dataset, spec = graph_uncertain_workload(
        n=settings.n_small + 2,
        z=settings.z,
        node_count=24,
        seed=settings.seed + trial,
    )
    reference = brute_force_unrestricted_assigned(dataset, settings.k, prune=settings.prune)
    lower_bound = assigned_cost_lower_bound(dataset, settings.k)
    denominator = max(reference.expected_cost, lower_bound, 1e-12)
    rows = []
    for assignment in _E9_ASSIGNMENTS:
        result = solve_metric_unrestricted(dataset, settings.k, assignment=assignment)
        row = ExperimentRow(
            configuration=f"{spec.describe()} assignment={assignment}",
            measured={
                "cost": result.expected_cost,
                "unrestricted_reference": reference.expected_cost,
                "lower_bound": lower_bound,
                "ratio_vs_reference": result.expected_cost / denominator,
                "guaranteed_factor": result.guaranteed_factor or float("nan"),
            },
        )
        rows.append((assignment, row))
    return rows


def run_e9_general_metric(settings: Table1Settings | None = None) -> ExperimentRecord:
    """E9 — Table 1 row 9: unrestricted assigned in a general (graph) metric."""
    settings = settings or Table1Settings()
    cases = parallel_map(
        _e9_case, list(range(settings.trials)), payload=settings, workers=settings.workers
    )
    tagged = [pair for case in cases for pair in case]
    worst = _worst_ratios(tagged, _E9_ASSIGNMENTS)
    return ExperimentRecord(
        experiment_id="E9",
        paper_artifact="Table 1 row 9 (any metric, unrestricted assigned)",
        paper_claim="factor 3+2f (OC) / 5+2f (ED); 5+2eps / 7+2eps with a (1+eps) solver",
        rows=tuple(row for _, row in tagged),
        summary={
            "worst_ratio_one_center": worst["one-center"],
            "worst_ratio_expected_distance": worst["expected-distance"],
            "bound_one_center_gonzalez": 3.0 + 2.0 * 2.0,
            "bound_expected_distance_gonzalez": 5.0 + 2.0 * 2.0,
            "within_bound": worst["one-center"] <= 7.0 + 1e-9 and worst["expected-distance"] <= 9.0 + 1e-9,
        },
    )


def _e10_case(settings: Table1Settings, item) -> tuple[ExperimentRow, bool]:
    trial, maker = item
    dataset, spec = maker(n=settings.n_medium, z=settings.z, dimension=2, seed=settings.seed + trial)
    ours = solve_unrestricted_assigned(dataset, settings.k, assignment="expected-point", solver="epsilon")
    gm = guha_munagala_baseline(dataset, settings.k)
    cm = cormode_mcgregor_baseline(dataset, settings.k)
    win = ours.expected_cost <= min(gm.expected_cost, cm.expected_cost) + 1e-12
    row = ExperimentRow(
        configuration=f"{spec.describe()}",
        measured={
            "paper_algorithm_cost": ours.expected_cost,
            "guha_munagala_style_cost": gm.expected_cost,
            "cormode_mcgregor_style_cost": cm.expected_cost,
            "improvement_vs_gm": gm.expected_cost / max(ours.expected_cost, 1e-12),
            "improvement_vs_cm": cm.expected_cost / max(ours.expected_cost, 1e-12),
        },
    )
    return row, win


def run_e10_baseline_comparison(settings: Table1Settings | None = None) -> ExperimentRecord:
    """E10 — abstract claim: improvement over prior constant-factor baselines."""
    settings = settings or Table1Settings()
    items = [
        (trial, maker)
        for trial in range(settings.trials)
        for maker in (gaussian_clusters, heavy_tailed)
    ]
    cases = parallel_map(_e10_case, items, payload=settings, workers=settings.workers)
    rows = [row for row, _ in cases]
    wins = sum(1 for _, win in cases if win)
    total = len(cases)
    return ExperimentRecord(
        experiment_id="E10",
        paper_artifact="Abstract / Section 4 (improvement over [14]; 15+eps -> 5+eps)",
        paper_claim="paper's algorithms should match or beat prior-style baselines",
        rows=tuple(rows),
        summary={"win_fraction": wins / max(total, 1)},
    )


def run_all_table1(settings: Table1Settings | None = None) -> Sequence[ExperimentRecord]:
    """Run every Table-1 experiment and return the records in order.

    E2–E7 come from one map of :func:`_micro_case`; a runtime degradation
    in that map is reported once, on the E2/E3 record.
    """
    settings = settings or Table1Settings()
    e1 = track_runtime_health(run_e1_one_center, settings)
    since = health.snapshot()
    e2_e3, e4_e5, e6_e7 = _micro_records(settings)
    e2_e3 = with_runtime_health(e2_e3, since)
    rest = [
        track_runtime_health(run, settings)
        for run in (run_e8_one_dimensional, run_e9_general_metric, run_e10_baseline_comparison)
    ]
    return (e1, e2_e3, e4_e5, e6_e7, *rest)
