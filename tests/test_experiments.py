"""Tests for the experiment harness (records, report rendering, runners)."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.baselines.brute_force import default_candidates
from repro.cost.context import CostContext
from repro.experiments import (
    AblationSettings,
    ExperimentRecord,
    ExperimentRow,
    ScalingSettings,
    Table1Settings,
    fit_exponent,
    format_table,
    render_record,
    render_records,
    run_assignment_ablation,
    run_e1_one_center,
    run_e8_one_dimensional,
    run_e9_general_metric,
    run_e10_baseline_comparison,
    run_representative_ablation,
    table1,
)
from repro.runtime.store import candidate_fingerprint, dataset_fingerprint


@pytest.fixture(scope="module")
def tiny_settings() -> Table1Settings:
    return Table1Settings(trials=1, n_small=4, n_medium=12, z=2, k=2)


class TestRecords:
    def test_worst_and_best(self):
        record = ExperimentRecord(
            experiment_id="X",
            paper_artifact="none",
            paper_claim="none",
            rows=(
                ExperimentRow(configuration="a", measured={"ratio": 1.5}),
                ExperimentRow(configuration="b", measured={"ratio": 1.2}),
            ),
        )
        assert record.worst("ratio") == pytest.approx(1.5)
        assert record.best("ratio") == pytest.approx(1.2)

    def test_missing_key_gives_nan(self):
        record = ExperimentRecord(experiment_id="X", paper_artifact="none", paper_claim="none")
        assert np.isnan(record.worst("ratio"))


class TestReportRendering:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1.0], ["longer-name", 123.456]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[2:])
        assert "longer-name" in text

    def test_render_record_contains_claim_and_summary(self):
        record = ExperimentRecord(
            experiment_id="E0",
            paper_artifact="Table 1 row 0",
            paper_claim="factor 2",
            rows=(ExperimentRow(configuration="cfg", measured={"ratio": 1.25}),),
            summary={"worst_ratio": 1.25},
        )
        text = render_record(record)
        assert "E0" in text and "factor 2" in text and "worst_ratio" in text

    def test_render_records_joins(self):
        record = ExperimentRecord(experiment_id="E0", paper_artifact="a", paper_claim="b")
        assert render_records([record, record]).count("E0") == 2


class TestRunners:
    def test_e1_within_bound(self, tiny_settings):
        record = run_e1_one_center(tiny_settings)
        assert record.summary["within_bound"]
        assert record.experiment_id == "E1"
        assert len(record.rows) > 0

    def test_e8_within_bound(self, tiny_settings):
        record = run_e8_one_dimensional(tiny_settings)
        assert record.summary["within_bound"]

    def test_e9_within_bound(self, tiny_settings):
        record = run_e9_general_metric(tiny_settings)
        assert record.summary["within_bound"]

    def test_e10_reports_win_fraction(self, tiny_settings):
        record = run_e10_baseline_comparison(tiny_settings)
        assert 0.0 <= record.summary["win_fraction"] <= 1.0

    def test_quick_settings_factory(self):
        assert Table1Settings.quick().trials <= Table1Settings().trials
        assert ScalingSettings.quick().repeats <= ScalingSettings().repeats
        assert AblationSettings.quick().n <= AblationSettings().n

    def test_e2_to_e7_bound_and_reference_context_once_per_micro_dataset(
        self, tiny_settings, monkeypatch
    ):
        # E2-E7 measure one reduction on the same micro datasets: each
        # dataset's lower bound is computed once, and its three brute-force
        # references share one cost context over the default candidates.
        micro = {
            dataset_fingerprint(dataset): dataset
            for dataset, _ in table1._euclidean_micro_workloads(tiny_settings)
        }
        bound_calls: Counter = Counter()
        context_builds: Counter = Counter()
        real_bound = table1.assigned_cost_lower_bound
        real_init = CostContext.__init__

        def counting_bound(dataset, k):
            bound_calls[dataset_fingerprint(dataset)] += 1
            return real_bound(dataset, k)

        def counting_init(self, dataset, candidates, **kwargs):
            real_init(self, dataset, candidates, **kwargs)
            context_builds[dataset_fingerprint(dataset), candidate_fingerprint(self.candidates)] += 1

        monkeypatch.setattr(table1, "assigned_cost_lower_bound", counting_bound)
        monkeypatch.setattr(CostContext, "__init__", counting_init)
        table1.run_all_table1(tiny_settings)
        assert len(micro) == 2
        for key, dataset in micro.items():
            assert bound_calls[key] == 1
            assert context_builds[key, candidate_fingerprint(default_candidates(dataset))] == 1


class TestScalingFit:
    def test_fit_exponent_linear(self):
        sizes = [100, 200, 400, 800]
        times = [0.01 * s for s in sizes]
        assert fit_exponent(sizes, times) == pytest.approx(1.0, abs=0.01)

    def test_fit_exponent_quadratic(self):
        sizes = [10, 20, 40, 80]
        times = [1e-6 * s**2 for s in sizes]
        assert fit_exponent(sizes, times) == pytest.approx(2.0, abs=0.01)

    def test_fit_exponent_constant(self):
        assert fit_exponent([1, 2, 4], [0.5, 0.5, 0.5]) == pytest.approx(0.0, abs=0.01)


class TestAblations:
    def test_representative_ablation_structure(self):
        record = run_representative_ablation(AblationSettings(trials=1, n=10, z=3, k=2))
        assert record.experiment_id == "E12a"
        assert set(record.summary) == {
            "mean_cost_expected_point",
            "mean_cost_one_center",
            "mean_cost_medoid",
        }
        assert all(value > 0 for value in record.summary.values())

    def test_assignment_ablation_structure(self):
        record = run_assignment_ablation(AblationSettings(trials=1, n=10, z=3, k=2))
        assert record.experiment_id == "E12b"
        assert all(value > 0 for value in record.summary.values())
