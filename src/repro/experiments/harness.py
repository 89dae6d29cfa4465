"""Top-level experiment harness: run every experiment and render the report.

``python -m repro table1`` (or the installed ``uncertain-kcenter`` script)
drives this module.  ``run_everything`` executes every experiment — the
Table-1 rows (E1..E10), the scaling study (E11), the ablations (E12) and
the sensitivity sweeps (E13a/E13b) — and returns the records;
``render_full_report`` turns them into the plain-text report the CLI
prints.  Pass ``workers`` (the CLI's ``--workers``) to shard each
experiment's trial cases across processes; records are identical at every
worker count.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from .ablation import AblationSettings, run_assignment_ablation, run_representative_ablation
from .records import ExperimentRecord, track_runtime_health
from .report import render_records
from .scaling import ScalingSettings, run_scaling
from .sensitivity import (
    SensitivitySettings,
    run_outlier_sensitivity,
    run_support_size_sensitivity,
)
from .table1 import Table1Settings, run_all_table1


def run_everything(
    *,
    table1_settings: Table1Settings | None = None,
    scaling_settings: ScalingSettings | None = None,
    ablation_settings: AblationSettings | None = None,
    sensitivity_settings: SensitivitySettings | None = None,
    include_scaling: bool = True,
    include_ablation: bool = True,
    include_sensitivity: bool = True,
    workers: int | None = None,
    prune: bool | None = None,
) -> Sequence[ExperimentRecord]:
    """Run every experiment (E1..E13).

    ``workers`` overrides the ``workers`` field of every settings object at
    once (the scaling experiment and the timed E13b sweep always run
    serially — they measure wall clock, and contended workers would skew
    the fitted exponents / growth verdicts).  ``prune`` (the CLI's
    ``--no-prune`` maps to ``False``) toggles branch-and-bound pruning in
    the brute-force references; records are bit-identical either way.
    The references always run to completion: each stands in for an optimum
    in a Table-1 ratio, so none takes a deadline or a gap target.

    Every record carries a ``"runtime_health"`` summary entry when the
    runtime degraded during its experiment (pool rebuilds, chunk retries,
    deadline hits, serial fallbacks — see :mod:`repro.runtime.health`);
    clean runs report nothing, keeping records byte-stable.
    """
    table1_settings = table1_settings or Table1Settings()
    ablation_settings = ablation_settings or AblationSettings()
    sensitivity_settings = sensitivity_settings or SensitivitySettings()
    if workers is not None:
        table1_settings = replace(table1_settings, workers=workers)
        ablation_settings = replace(ablation_settings, workers=workers)
        sensitivity_settings = replace(sensitivity_settings, workers=workers)
    if prune is not None:
        table1_settings = replace(table1_settings, prune=prune)
    records = list(run_all_table1(table1_settings))
    if include_scaling:
        records.append(track_runtime_health(run_scaling, scaling_settings))
    if include_ablation:
        records.append(track_runtime_health(run_representative_ablation, ablation_settings))
        records.append(track_runtime_health(run_assignment_ablation, ablation_settings))
    if include_sensitivity:
        records.append(track_runtime_health(run_outlier_sensitivity, sensitivity_settings))
        records.append(track_runtime_health(run_support_size_sensitivity, sensitivity_settings))
    return tuple(records)


def run_quick(
    *, workers: int | None = None, prune: bool | None = None
) -> Sequence[ExperimentRecord]:
    """Lightweight run used by the CLI's ``--quick`` flag and smoke tests."""
    return run_everything(
        table1_settings=Table1Settings.quick(),
        scaling_settings=ScalingSettings.quick(),
        ablation_settings=AblationSettings.quick(),
        sensitivity_settings=SensitivitySettings.quick(),
        workers=workers,
        prune=prune,
    )


def render_full_report(records: Sequence[ExperimentRecord]) -> str:
    """Render all records as the plain-text report ``python -m repro all`` prints."""
    return render_records(records)
