"""Tier-1 tests for the central environment-variable registry (`repro._env`).

The registry exists to kill two failure modes: knobs nobody declared (reads
of unregistered names now raise) and README drift (the docs table is
generated from the registry, and this file pins the README to it byte for
byte).  The accessor tests pin the *exact* semantics the scattered call
sites had before the refactor — unset-vs-empty flags, garbage-tolerant
positive numbers — so routing through the registry changed no behavior.
"""

from __future__ import annotations

import math
from pathlib import Path

import pytest

from repro._env import (
    REGISTRY,
    EnvVar,
    env_flag,
    env_number,
    env_raw,
    env_str,
    render_readme_table,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


class TestRegistry:
    def test_registers_every_runtime_variable(self):
        assert set(REGISTRY) == {
            "REPRO_SHM",
            "REPRO_OVERSUBSCRIBE",
            "REPRO_SANITIZE",
            "REPRO_FAULTS",
            "REPRO_SERVE_MAX_INFLIGHT",
            "REPRO_SERVE_MAX_BYTES",
            "REPRO_SERVE_DRAIN_SECONDS",
        }
        for variable in REGISTRY.values():
            assert isinstance(variable, EnvVar)
            assert variable.name in variable.usage
            assert variable.effect

    def test_undeclared_reads_are_refused(self):
        with pytest.raises(KeyError, match="not declared"):
            env_raw("REPRO_TOTALLY_NEW_KNOB")
        with pytest.raises(KeyError, match="not declared"):
            env_flag("REPRO_TOTALLY_NEW_KNOB", default=True)
        with pytest.raises(KeyError, match="not declared"):
            env_number("REPRO_TOTALLY_NEW_KNOB", int)


class TestAccessors:
    def test_flag_unset_means_default_but_set_is_explicit(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHM", raising=False)
        assert env_flag("REPRO_SHM", default=True) is True
        assert env_flag("REPRO_SHM", default=False) is False
        # "" and "0" mean off even when the default is on (REPRO_SHM= works).
        for off in ("", "0"):
            monkeypatch.setenv("REPRO_SHM", off)
            assert env_flag("REPRO_SHM", default=True) is False
        for on in ("1", "yes", "anything"):
            monkeypatch.setenv("REPRO_SHM", on)
            assert env_flag("REPRO_SHM", default=False) is True

    def test_str_treats_empty_as_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert env_str("REPRO_SANITIZE") is None
        monkeypatch.setenv("REPRO_SANITIZE", "")
        assert env_str("REPRO_SANITIZE") is None
        monkeypatch.setenv("REPRO_SANITIZE", "shm,det")
        assert env_str("REPRO_SANITIZE") == "shm,det"

    def test_number_accepts_positive_and_rejects_garbage(self, monkeypatch):
        name = "REPRO_SERVE_MAX_BYTES"
        monkeypatch.delenv(name, raising=False)
        assert env_number(name, int) is None
        monkeypatch.setenv(name, "1048576")
        assert env_number(name, int) == 1048576
        monkeypatch.setenv(name, "2.5")
        assert env_number(name, float) == 2.5
        assert env_number(name, int) == 2  # int cast truncates like int(float(raw))
        for bad in ("", "garbage", "-3", "0", "inf", "nan", str(math.inf)):
            monkeypatch.setenv(name, bad)
            assert env_number(name, float) is None, bad


class TestReadmeTable:
    def test_readme_contains_the_generated_table_verbatim(self):
        """README's env-var table is the registry's render, byte for byte.

        Regenerate with ``python -m repro lint --env-table`` after
        registering a variable — this test is the drift alarm the hand-
        maintained table never had.
        """
        readme = (REPO_ROOT / "README.md").read_text()
        assert render_readme_table() in readme

    def test_table_lists_every_registered_variable(self):
        table = render_readme_table()
        assert table.splitlines()[0] == "| Variable | Effect |"
        for variable in REGISTRY.values():
            assert variable.usage in table
