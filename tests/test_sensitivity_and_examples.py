"""Tests for the sensitivity experiments and smoke tests for the examples."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import (
    SensitivitySettings,
    run_outlier_sensitivity,
    run_support_size_sensitivity,
)

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def _load_example(name: str):
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(f"examples_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


TINY = SensitivitySettings(n=12, k=2, trials=1, outlier_probabilities=(0.0, 0.2), support_sizes=(2, 4))


class TestSensitivityExperiments:
    def test_outlier_sweep_structure(self):
        record = run_outlier_sensitivity(TINY)
        assert record.experiment_id == "E13a"
        assert len(record.rows) == 2
        assert record.summary["ratio_bounded"]

    def test_outlier_sweep_cost_grows_with_noise(self):
        record = run_outlier_sensitivity(
            SensitivitySettings(n=20, k=2, trials=1, outlier_probabilities=(0.0, 0.3), support_sizes=(2,))
        )
        costs = [row.measured["mean_cost"] for row in record.rows]
        assert costs[-1] >= costs[0]

    def test_support_size_sweep_structure(self):
        record = run_support_size_sensitivity(TINY)
        assert record.experiment_id == "E13b"
        assert len(record.rows) == 2
        assert record.summary["cost_spread"] >= 1.0

    def test_quick_preset_is_smaller(self):
        assert SensitivitySettings.quick().n <= SensitivitySettings().n


class TestExampleScripts:
    """The examples are part of the public deliverable; keep them importable
    and make sure the fast ones run end to end."""

    def test_quickstart_runs(self, capsys):
        module = _load_example("quickstart.py")
        module.main()
        out = capsys.readouterr().out
        assert "unrestricted assigned solution" in out
        assert "empirical ratio" in out

    def test_quickstart_dataset_builder(self):
        module = _load_example("quickstart.py")
        dataset = module.build_dataset()
        assert dataset.size == 6
        assert dataset.dimension == 2

    def test_warehouse_example_runs(self, capsys):
        module = _load_example("warehouse_placement_1d.py")
        module.main()
        out = capsys.readouterr().out
        assert "Wang-Zhang" in out

    def test_other_examples_importable(self):
        for name in ("sensor_network_graph.py", "fleet_tracking_extensions.py"):
            module = _load_example(name)
            assert hasattr(module, "main")

    def test_sensor_network_example_runs(self, capsys):
        # The one shipped run of the reference's local-search polish.
        module = _load_example("sensor_network_graph.py")
        module.main()
        out = capsys.readouterr().out
        assert "brute-force reference cost" in out
        assert "empirical ratio vs reference" in out

    def test_fleet_tracking_example_runs(self, capsys):
        module = _load_example("fleet_tracking_extensions.py")
        module.main()
        out = capsys.readouterr().out
        assert "k-median extension" in out
        assert "serialization round trip via fleet.json: ok" in out
