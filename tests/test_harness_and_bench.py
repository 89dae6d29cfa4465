"""Harness completeness (E13 inclusion) and the benchmark runner contract."""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import (
    AblationSettings,
    SensitivitySettings,
    Table1Settings,
    run_everything,
)
from repro.runtime import bench as bench_module
from repro.runtime.bench import CASES, assert_gate, run_bench


@pytest.fixture(scope="module")
def tiny_kwargs():
    return dict(
        table1_settings=Table1Settings(trials=1, n_small=4, n_medium=10, z=2, k=2),
        ablation_settings=AblationSettings(trials=1, n=8, z=2, k=2),
        sensitivity_settings=SensitivitySettings(
            n=8, trials=1, outlier_probabilities=(0.0, 0.1), support_sizes=(2, 3)
        ),
        include_scaling=False,
    )


class TestRunEverything:
    def test_includes_sensitivity_records(self, tiny_kwargs):
        records = run_everything(**tiny_kwargs)
        identifiers = [record.experiment_id for record in records]
        assert "E13a" in identifiers and "E13b" in identifiers
        # Sensitivity comes after the ablations, in experiment-id order.
        assert identifiers.index("E13a") > identifiers.index("E12b")

    def test_include_sensitivity_flag_excludes(self, tiny_kwargs):
        records = run_everything(**tiny_kwargs, include_sensitivity=False)
        identifiers = [record.experiment_id for record in records]
        assert "E13a" not in identifiers and "E13b" not in identifiers

    def test_workers_override_reaches_every_settings_object(self, tiny_kwargs):
        serial = run_everything(**tiny_kwargs)
        parallel = run_everything(**tiny_kwargs, workers=2)
        # E13b rows carry wall-clock fields; compare everything else exactly.
        for left, right in zip(serial, parallel):
            if left.experiment_id == "E13b":
                assert [row.measured["cost"] for row in left.rows] == [
                    row.measured["cost"] for row in right.rows
                ]
            else:
                assert left == right


class TestCliCommands:
    def test_sensitivity_quick(self, capsys, monkeypatch):
        tiny = SensitivitySettings(
            n=8, trials=1, outlier_probabilities=(0.0, 0.1), support_sizes=(2, 3)
        )
        monkeypatch.setattr(SensitivitySettings, "quick", classmethod(lambda cls: tiny))
        assert main(["sensitivity", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "E13a" in out and "E13b" in out

    def test_ablation_accepts_workers(self, capsys, monkeypatch):
        tiny = AblationSettings(trials=1, n=8, z=2, k=2)
        monkeypatch.setattr(AblationSettings, "quick", classmethod(lambda cls: tiny))
        assert main(["ablation", "--quick", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "E12a" in out and "E12b" in out

    def test_bench_writes_machine_readable_json(self, tmp_path, capsys):
        output = tmp_path / "bench.json"
        assert main(["bench", "--output", str(output), "--case", "wang_zhang_column_splice"]) == 0
        document = json.loads(output.read_text())
        assert document["schema"] == "repro-bench/1"
        assert "cpu_count" in document["environment"]
        case = document["cases"]["wang_zhang_column_splice"]
        assert case["splice_seconds"] > 0 and case["rebuild_seconds"] > 0
        assert "speedup" in case and "target" in case


class TestBenchRunner:
    def test_registry_contains_the_pr3_cases(self):
        assert "brute_force_parallel_speedup" in CASES
        assert "wang_zhang_column_splice" in CASES

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError, match="unknown benchmark cases"):
            run_bench(None, cases=["not-a-case"])

    def test_run_bench_without_output_returns_document(self):
        document = run_bench(None, cases=["batch_cost_kernel"])
        assert set(document["cases"]) == {"batch_cost_kernel"}
        assert document["cases"]["batch_cost_kernel"]["speedup"] > 0

    def test_registry_contains_the_pr4_cases(self):
        for case in (
            "shm_dispatch_bytes",
            "persistent_pool_amortization",
            "unassigned_rank_merge",
        ):
            assert case in CASES

    def test_registry_contains_the_pr5_cases(self):
        from repro.runtime.bench import QUICK_CASES

        assert "brute_force_prune_restricted" in CASES
        assert "brute_force_prune_unassigned" in CASES
        # The quick smoke subset must be real cases and include the prune ones.
        assert set(QUICK_CASES) <= set(CASES)
        assert "brute_force_prune_restricted" in QUICK_CASES

    def test_quick_preset_runs_the_smoke_subset(self):
        document = run_bench(None, cases=["batch_cost_kernel"], quick=True)
        # explicit cases win over --quick, and the flag is recorded honestly
        assert set(document["cases"]) == {"batch_cost_kernel"}
        assert document["quick"] is False

    def test_document_records_audit_metadata(self):
        document = run_bench(None, cases=["batch_cost_kernel"])
        # ISO timestamp parses and matches the unix stamp it sits next to.
        import datetime

        stamp = datetime.datetime.fromisoformat(document["created_iso"])
        assert abs(stamp.timestamp() - document["created_unix"]) < 2.0
        # The revision is HEAD of the tree the package sits in, or None
        # where that tree is not a git checkout (an exported copy).
        root = Path(bench_module.__file__).resolve().parents[3]
        try:
            head = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=root, timeout=10
            )
        except OSError:  # no git binary at all
            expected = None
        else:
            expected = head.stdout.strip() if head.returncode == 0 else None
        assert document["git_revision"] == expected


class TestBenchCompare:
    def _document(self, **seconds):
        return {"cases": {"case": dict(seconds)}}

    def test_bench_out_flag_and_compare_pass(self, tmp_path):
        baseline = tmp_path / "old.json"
        output = tmp_path / "new.json"
        document = run_bench(None, cases=["batch_cost_kernel"])
        # Inflate the baseline timings 10x so machine-load jitter between
        # the two runs can never trip the 20% regression gate here.
        for case in document["cases"].values():
            for key in list(case):
                if key.endswith("_seconds"):
                    case[key] *= 10.0
        baseline.write_text(json.dumps(document))
        assert (
            main(
                [
                    "bench",
                    "--out",
                    str(output),
                    "--case",
                    "batch_cost_kernel",
                    "--compare",
                    str(baseline),
                ]
            )
            == 0
        )
        assert json.loads(output.read_text())["schema"] == "repro-bench/1"

    def test_compare_exits_nonzero_on_regression(self, tmp_path, capsys):
        from repro.runtime.bench import compare_documents

        old = self._document(batch_seconds=0.010)
        new = self._document(batch_seconds=0.013)  # 1.3x slower: regression
        table, regressions = compare_documents(new, old)
        assert "REGRESSION" in table
        assert len(regressions) == 1
        baseline = tmp_path / "old.json"
        baseline.write_text(json.dumps({"cases": {"batch_cost_kernel": {"scalar_seconds": 1e-3}}}))
        # A real run of 128 scalar costs is far slower than 1ms (20-50 ms)
        # -> the CLI must exit nonzero.  The batched leg is not: it scores
        # the 128 rows in 1-3 ms, too close to 1 ms to flag reliably.
        assert (
            main(
                [
                    "bench",
                    "--out",
                    str(tmp_path / "new.json"),
                    "--case",
                    "batch_cost_kernel",
                    "--compare",
                    str(baseline),
                ]
            )
            == 3  # the distinct "regression" exit code; crashes stay nonzero-but-not-3
        )

    def test_unreadable_baseline_is_a_crash_not_a_regression(self, tmp_path, capsys):
        from repro.runtime.bench import report_comparison

        assert report_comparison({"cases": {}}, tmp_path / "missing.json") == 1
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{not json")
        assert report_comparison({"cases": {}}, garbage) == 1

    def test_compare_exit_code_contract(self, tmp_path, capsys):
        """The full 0/3/1 contract of report_comparison in one place.

        0 = identical documents, 3 = >20% regression on a shared product
        metric, 1 = crashed/unreadable baseline — CI warns on 3 and gates
        on 1, so the codes must never collapse into each other.
        """
        from repro.runtime.bench import REGRESSION_EXIT_CODE, report_comparison

        document = {"cases": {"a": {"x_seconds": 0.010}, "b": {"y_seconds": 0.5}}}
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(document))
        assert report_comparison(json.loads(json.dumps(document)), baseline) == 0

        regressed = {"cases": {"a": {"x_seconds": 0.030}, "b": {"y_seconds": 0.5}}}
        assert report_comparison(regressed, baseline) == REGRESSION_EXIT_CODE == 3

        assert report_comparison(document, tmp_path / "nope.json") == 1

    def test_compare_reports_one_sided_cases(self):
        from repro.runtime.bench import compare_documents

        old = {"cases": {"shared": {"x_seconds": 0.01}, "retired": {"x_seconds": 1.0}}}
        new = {"cases": {"shared": {"x_seconds": 0.01}, "fresh": {"x_seconds": 1.0}}}
        table, regressions = compare_documents(new, old)
        assert regressions == []
        assert "only in baseline" in table and "retired" in table
        assert "only in this run" in table and "fresh" in table
        # Disjoint case sets must render a readable report, not crash.
        table, regressions = compare_documents(
            {"cases": {"b": {"x_seconds": 1.0}}}, {"cases": {"a": {"x_seconds": 1.0}}}
        )
        assert regressions == []
        assert "a" in table and "b" in table

    def test_compare_tolerates_noise_and_missing_cases(self):
        from repro.runtime.bench import compare_documents

        old = {"cases": {"a": {"x_seconds": 0.010}, "gone": {"x_seconds": 1.0}}}
        new = {"cases": {"a": {"x_seconds": 0.011}, "added": {"x_seconds": 1.0}}}
        table, regressions = compare_documents(new, old)
        assert regressions == []  # 1.1x is inside the 20% tolerance
        assert "a.x_seconds" in table
        # sub-millisecond metrics are reported but never flagged
        old = {"cases": {"a": {"x_seconds": 1e-6}}}
        new = {"cases": {"a": {"x_seconds": 5e-6}}}
        _, regressions = compare_documents(new, old)
        assert regressions == []

    def test_compare_spec_is_per_case(self):
        """`CASE_COMPARE` pins the per-case floor/tolerance overrides.

        The µs-scale kernel cases gate from 10 µs with 2x headroom; the
        whole-tree lint cases allow 50% for organic tree growth; every
        unregistered case (notably ``batch_cost_kernel``) keeps the
        historical 1 ms floor + 20% tolerance byte-for-byte, so the older
        compare tests in this file double as the default-spec pin.
        """
        from repro.runtime.bench import (
            REGRESSION_FLOOR_SECONDS,
            REGRESSION_TOLERANCE,
            compare_documents,
            compare_spec,
        )

        spec = compare_spec("unassigned_rank_merge")
        assert (spec.floor_seconds, spec.tolerance) == (1e-5, 2.0)
        assert compare_spec("lint_dataflow_full_tree").tolerance == 1.5
        default = compare_spec("batch_cost_kernel")
        assert default.floor_seconds == REGRESSION_FLOOR_SECONDS == 1e-3
        assert default.tolerance == REGRESSION_TOLERANCE == 1.2

        # A 4x slowdown at 50 µs: invisible to the global 1 ms floor, but
        # the rank-merge case's lowered floor flags it.
        old = {"cases": {"unassigned_rank_merge": {"merge_seconds": 5e-5}}}
        new = {"cases": {"unassigned_rank_merge": {"merge_seconds": 2e-4}}}
        _, regressions = compare_documents(new, old)
        assert len(regressions) == 1
        # ...while a 1.8x wobble stays inside the widened 2x tolerance,
        new = {"cases": {"unassigned_rank_merge": {"merge_seconds": 9e-5}}}
        _, regressions = compare_documents(new, old)
        assert regressions == []
        # ...and timings under the 10 µs floor still never gate.
        old = {"cases": {"unassigned_rank_merge": {"merge_seconds": 5e-6}}}
        new = {"cases": {"unassigned_rank_merge": {"merge_seconds": 5e-5}}}
        _, regressions = compare_documents(new, old)
        assert regressions == []

        # The same 4x-at-50µs regression on an unregistered case is below
        # the default floor — reported, never flagged (the historical rule).
        old = {"cases": {"batch_cost_kernel": {"batch_seconds": 5e-5}}}
        new = {"cases": {"batch_cost_kernel": {"batch_seconds": 2e-4}}}
        _, regressions = compare_documents(new, old)
        assert regressions == []

        # Lint cases: 1.4x growth is organic, 1.6x gates.
        old = {"cases": {"lint_dataflow_full_tree": {"lint_dataflow_full_tree_seconds": 0.10}}}
        new = {"cases": {"lint_dataflow_full_tree": {"lint_dataflow_full_tree_seconds": 0.14}}}
        _, regressions = compare_documents(new, old)
        assert regressions == []
        new = {"cases": {"lint_dataflow_full_tree": {"lint_dataflow_full_tree_seconds": 0.16}}}
        _, regressions = compare_documents(new, old)
        assert len(regressions) == 1


class TestAssertGate:
    """The one helper every tier-1 perf guard in ``benchmarks/`` calls."""

    def test_failure_message_carries_the_case_record(self, monkeypatch):
        record = {"speedup": 1.1, "gate": 2.0, "gate_met": False}
        monkeypatch.setitem(CASES, "planted_case", lambda: record)
        with pytest.raises(AssertionError, match="planted_case missed its gate 2.0") as failure:
            assert_gate("planted_case")
        assert str(record) in str(failure.value)

