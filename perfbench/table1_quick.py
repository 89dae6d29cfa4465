"""``table1_quick``: ``run_all_table1(Table1Settings.quick())``, serial, in-process.

This is the paper reproduction as users run it (``python -m repro table1
--quick``).  Its time is almost all the scalar ``expected_cost_unassigned``
-> ``EuclideanMetric.pairwise`` path of E1's one-center reference; the
brute-force references are a small share.  Scalar-kernel work shows here;
bound, runtime and serve work must show no change.

The workload is the fixed preset (its own seed 0): ``--seed`` does not
change it.  The preset's work depends strongly on its seed (13.3k to 23.7k
scalar calls over seeds 0-5), which would swamp any regression bound.

* set-up: importing the program in a fresh interpreter (median of 11).
* one pass: one ``run_all_table1`` call; ``pass_s`` and ``op_p50_ms`` are
  both its median wall clock.
* checks: every record with ``within_bound`` holds it; E2-E10 summaries are
  bit-identical to a ``prune=False`` reference run; E1's summary is
  identical on every pass.
"""

from __future__ import annotations

import subprocess
from dataclasses import replace

from common import ROOT, Run, baseline, leak_and_audit, median, program_env, python, timed, timed_loop

IMPORT_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import repro.experiments.table1\n"
    "print(time.perf_counter() - start)\n"
)
SETUP_REPEATS = 11


def import_seconds() -> float:
    """Wall clock of importing the program in a fresh interpreter."""
    completed = subprocess.run(
        [python(), "-c", IMPORT_PROBE], cwd=ROOT, env=program_env(), capture_output=True,
        text=True, timeout=60, check=True,
    )
    return float(completed.stdout.strip().splitlines()[-1])


def _reference(table1, settings) -> dict[str, dict]:
    """E2-E10 summaries with pruning off: an independent path to the same numbers."""
    unpruned = replace(settings, prune=False)
    runs = (
        table1.run_e2_e3_restricted_expected_distance,
        table1.run_e4_e5_restricted_expected_point,
        table1.run_e6_e7_unrestricted_euclidean,
        table1.run_e8_one_dimensional,
        table1.run_e9_general_metric,
        table1.run_e10_baseline_comparison,
    )
    return {record.experiment_id: dict(record.summary) for record in (run(unpruned) for run in runs)}


def _check(run: Run, records, reference: dict[str, dict], first_e1: dict | None) -> dict:
    e1 = None
    for record in records:
        summary = dict(record.summary)
        ok = summary.get("within_bound", True) is not False
        if record.experiment_id == "E1":
            e1 = summary
            ok = ok and (first_e1 is None or summary == first_e1)
        else:
            ok = ok and summary == reference.get(record.experiment_id)
        run.check(ok, f"{record.experiment_id} summary wrong or out of bound: {summary}")
    return e1 if first_e1 is None else first_e1


def run(seed: int, seconds: float, trace: bool) -> Run:
    result = Run("table1_quick")
    setups = [import_seconds() for _ in range(SETUP_REPEATS)]

    from repro.experiments import table1

    since = baseline()
    settings = table1.Table1Settings.quick()
    reference = _reference(table1, settings)
    first_e1: dict | None = None
    budget = seconds / 2 if trace else seconds

    def one_pass() -> float:
        nonlocal first_e1
        records, elapsed = timed(table1.run_all_table1, settings)
        first_e1 = _check(result, records, reference, first_e1)
        return elapsed

    untraced = timed_loop(budget, one_pass)
    if trace:
        import layers
        from spans import SpanRecorder

        recorder = SpanRecorder()
        per_pass: list[dict[str, float]] = []

        def traced_pass() -> float:
            root = recorder.open("experiments.run_all_table1", new_request=True)
            elapsed = one_pass()
            recorder.close(root)
            per_pass.append(layers.table1_layers(recorder, root))
            return elapsed

        patcher = layers.install(recorder)
        try:
            traced = timed_loop(budget, traced_pass)
        finally:
            patcher.restore()
        for name in per_pass[0]:
            result.layers[name] = median([values[name] for values in per_pass])
        result.layers["trace.overhead"] = median(traced) / median(untraced) - 1.0
        result.recorder = recorder

    leak_and_audit(result, since)
    wall = median(untraced)
    result.end_to_end = {
        "setup_s": (median(setups), "s"),
        "pass_s": (wall, "s"),
        "op_p50_ms": (wall * 1000.0, "ms"),
    }
    result.detail = {
        "setup_s": (median(setups), "s", len(setups)),
        "table1_wall_s": (wall, "s", len(untraced)),
    }
    return result
