"""Tests for the command-line interface."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from tests.conftest import make_uncertain_dataset


@pytest.fixture
def dataset_file(tmp_path):
    dataset = make_uncertain_dataset(n=6, z=2, dimension=2, seed=3)
    path = tmp_path / "instance.json"
    dataset.save_json(path)
    return path


class TestSolveCommand:
    def test_unrestricted_text_output(self, dataset_file, capsys):
        exit_code = main(["solve", str(dataset_file), "-k", "2"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "unrestricted-assigned" in captured
        assert "center[0]" in captured

    def test_restricted_json_output(self, dataset_file, capsys):
        exit_code = main(
            ["solve", str(dataset_file), "-k", "2", "--objective", "restricted", "--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["objective"] == "restricted-assigned"
        assert len(payload["centers"]) == 2
        assert payload["guaranteed_factor"] is not None

    def test_metric_objective(self, dataset_file, capsys):
        exit_code = main(["solve", str(dataset_file), "-k", "2", "--objective", "metric", "--json"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["assignment_policy"] == "one-center"

    def test_epsilon_solver_option(self, dataset_file, capsys):
        exit_code = main(
            ["solve", str(dataset_file), "-k", "2", "--solver", "epsilon", "--epsilon", "0.2", "--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["expected_cost"] > 0


class TestOtherCommands:
    def test_demo(self, capsys):
        exit_code = main(["demo", "-n", "12", "-z", "2", "-k", "2"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "workload:" in out and "Ecost" in out

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["bogus"])

    def test_table1_quick_writes_report(self, tmp_path, capsys, monkeypatch):
        # Patch the quick settings to the tiniest possible run so the CLI test
        # stays fast while still exercising the full path.
        from repro.experiments.table1 import Table1Settings

        tiny = Table1Settings(trials=1, n_small=4, n_medium=10, z=2, k=2)
        monkeypatch.setattr(Table1Settings, "quick", classmethod(lambda cls: tiny))
        output = tmp_path / "report.txt"
        exit_code = main(["table1", "--quick", "--output", str(output)])
        assert exit_code == 0
        assert output.exists()
        text = output.read_text()
        assert "E1" in text and "E10" in text


class TestReferencesRunToCompletion:
    """Table-1 references stand in for optima, so nothing can stop them early.

    A reference stopped by a deadline or a gap target is an incumbent at or
    above the optimum, and a ratio over it can only be understated.
    """

    @pytest.mark.parametrize("command", ["table1", "all"])
    @pytest.mark.parametrize("flag", ["--time-budget", "--gap-target"])
    def test_stop_flags_are_usage_errors(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exited:
            main([command, "--quick", flag, "0.5"])
        assert exited.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_settings_and_harness_take_no_stop(self):
        from dataclasses import fields
        from inspect import signature

        from repro.experiments.harness import run_everything, run_quick
        from repro.experiments.table1 import Table1Settings

        stops = {"time_budget", "gap_target"}
        assert not stops & {field.name for field in fields(Table1Settings)}
        for function in (run_everything, run_quick):
            assert not stops & set(signature(function).parameters)
