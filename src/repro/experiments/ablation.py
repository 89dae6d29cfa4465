"""Ablation experiments for the paper's design choices.

E12 — representative choice: the paper replaces each uncertain point by its
expected point (Euclidean) or its 1-center (general metric).  The ablation
runs the same pipeline (deterministic solver + assignment + exact cost) with
three different representatives — expected point, per-point 1-center
(weighted geometric median) and medoid — on workloads with and without
heavy-tailed location noise, where the choice actually matters.

A second ablation compares the assignment rules (ED / EP / OC / naive
nearest-mode) on fixed centers, isolating the effect Theorems 2.2 vs 2.5
attribute to the assignment.

Per-(trial, workload) cases are independent, seeded, and mapped over
:func:`repro.runtime.parallel.parallel_map`; ``AblationSettings.workers``
shards them across processes with identical records at every worker count.
The runtime's persistent pool is shared with every other experiment of the
run, and requested counts clamp to the available CPUs — ``--workers 8`` on
a 2-CPU laptop starts 2 worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..assignments.policies import (
    ExpectedDistanceAssignment,
    ExpectedPointAssignment,
    NearestLocationAssignment,
    OneCenterAssignment,
)
from ..cost.context import CostContext
from ..deterministic.gonzalez import gonzalez_kcenter
from ..runtime.parallel import parallel_map
from ..uncertain.reduction import reduce_dataset
from ..workloads.synthetic import gaussian_clusters, heavy_tailed
from .records import ExperimentRecord, ExperimentRow


@dataclass(frozen=True)
class AblationSettings:
    """Knobs for the ablation experiments.

    ``workers`` shards the trial cases across processes (1 = serial).
    """

    trials: int = 3
    n: int = 40
    z: int = 5
    k: int = 3
    seed: int = 0
    workers: int = 1

    @classmethod
    def quick(cls) -> "AblationSettings":
        """Smaller preset for the benchmark harness."""
        return cls(trials=2, n=25, z=4, k=3)


_REPRESENTATIVE_KINDS = ("expected-point", "one-center", "medoid")


def _representative_case(settings: AblationSettings, item) -> tuple[ExperimentRow, dict[str, float]]:
    trial, maker = item
    dataset, spec = maker(n=settings.n, z=settings.z, dimension=2, seed=settings.seed + trial)
    # One shared context over the union of all representatives' center sets
    # scores every configuration in a single batched call, instead of one
    # scratch engine invocation per kind.
    center_sets = []
    for kind in _REPRESENTATIVE_KINDS:
        representatives = reduce_dataset(dataset, kind)
        center_sets.append(gonzalez_kcenter(representatives, settings.k, dataset.metric).centers)
    context = CostContext(dataset, np.vstack(center_sets))
    offsets = np.cumsum([0] + [centers.shape[0] for centers in center_sets])
    candidate_index_rows = np.vstack(
        [
            context.ed_assignment(np.arange(offsets[j], offsets[j + 1]))
            for j in range(len(_REPRESENTATIVE_KINDS))
        ]
    )
    batched_costs = context.assigned_costs(candidate_index_rows)
    costs = {kind: float(cost) for kind, cost in zip(_REPRESENTATIVE_KINDS, batched_costs)}
    row = ExperimentRow(
        configuration=f"{spec.describe()}",
        measured={f"cost_{kind.replace('-', '_')}": cost for kind, cost in costs.items()},
    )
    return row, costs


def run_representative_ablation(settings: AblationSettings | None = None) -> ExperimentRecord:
    """E12a — expected point vs 1-center vs medoid representatives."""
    settings = settings or AblationSettings()
    items = [
        (trial, maker)
        for trial in range(settings.trials)
        for maker in (gaussian_clusters, heavy_tailed)
    ]
    cases = parallel_map(_representative_case, items, payload=settings, workers=settings.workers)
    rows = [row for row, _ in cases]
    aggregates: dict[str, list[float]] = {kind: [] for kind in _REPRESENTATIVE_KINDS}
    for _, costs in cases:
        for kind in _REPRESENTATIVE_KINDS:
            aggregates[kind].append(costs[kind])
    means = {kind: float(np.mean(values)) for kind, values in aggregates.items()}
    return ExperimentRecord(
        experiment_id="E12a",
        paper_artifact="Section 2 design choice: representative construction",
        paper_claim="expected point (Euclidean) / 1-center (metric) representatives suffice",
        rows=tuple(rows),
        summary={f"mean_cost_{kind.replace('-', '_')}": value for kind, value in means.items()},
    )


def _assignment_case(settings: AblationSettings, item) -> tuple[ExperimentRow, dict[str, float]]:
    trial, maker = item
    policies = (
        ExpectedDistanceAssignment(),
        ExpectedPointAssignment(),
        OneCenterAssignment(),
        NearestLocationAssignment(),
    )
    dataset, spec = maker(n=settings.n, z=settings.z, dimension=2, seed=settings.seed + 50 + trial)
    representatives = reduce_dataset(dataset, "expected-point")
    centers = gonzalez_kcenter(representatives, settings.k, dataset.metric).centers
    # Fixed centers, four assignment rules: one context, one batched exact
    # scoring of all four label vectors.
    context = CostContext(dataset, centers)
    label_rows = np.vstack([policy(dataset, centers) for policy in policies])
    batched_costs = context.assigned_costs(label_rows)
    measured = {}
    costs = {}
    for policy, cost in zip(policies, batched_costs):
        measured[f"cost_{policy.name.replace('-', '_')}"] = float(cost)
        costs[policy.name] = float(cost)
    return ExperimentRow(configuration=f"{spec.describe()}", measured=measured), costs


def run_assignment_ablation(settings: AblationSettings | None = None) -> ExperimentRecord:
    """E12b — assignment rules compared on identical centers."""
    settings = settings or AblationSettings()
    policy_names = (
        ExpectedDistanceAssignment.name,
        ExpectedPointAssignment.name,
        OneCenterAssignment.name,
        NearestLocationAssignment.name,
    )
    items = [
        (trial, maker)
        for trial in range(settings.trials)
        for maker in (gaussian_clusters, heavy_tailed)
    ]
    cases = parallel_map(_assignment_case, items, payload=settings, workers=settings.workers)
    rows = [row for row, _ in cases]
    aggregates: dict[str, list[float]] = {name: [] for name in policy_names}
    for _, costs in cases:
        for name in policy_names:
            aggregates[name].append(costs[name])
    means = {name: float(np.mean(values)) for name, values in aggregates.items()}
    return ExperimentRecord(
        experiment_id="E12b",
        paper_artifact="Section 1/2 design choice: assignment rule",
        paper_claim="EP/OC assignments improve on ED (better constants)",
        rows=tuple(rows),
        summary={f"mean_cost_{name.replace('-', '_')}": value for name, value in means.items()},
    )
