"""Shared configuration for the benchmark harness.

Each benchmark file regenerates one experiment of the harness
(Table 1 rows, the scaling study, the ablations).  pytest-benchmark provides
the timing; the assertions check that the measured quality reproduces the
paper's claim (ratios within the proven factors, baselines not better, the
scaling shape roughly linear).

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import pytest

from repro.experiments.ablation import AblationSettings
from repro.experiments.scaling import ScalingSettings
from repro.experiments.table1 import Table1Settings


@pytest.fixture(scope="session")
def table1_settings() -> Table1Settings:
    """Lightweight settings so a full benchmark run stays fast."""
    return Table1Settings.quick()


@pytest.fixture(scope="session")
def scaling_settings() -> ScalingSettings:
    return ScalingSettings.quick()


@pytest.fixture(scope="session")
def ablation_settings() -> AblationSettings:
    return AblationSettings.quick()
