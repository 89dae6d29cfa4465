"""Shared fixtures and helpers for the test suite.

Per-test default timeouts (so baseline hangs fail fast instead of stalling
the suite) are enforced by the repo-root ``conftest.py``, which prefers the
``pytest-timeout`` plugin from the ``test`` extra in ``setup.py`` and falls
back to SIGALRM; override per test with ``@pytest.mark.timeout(seconds)``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.metrics import EuclideanMetric, GraphMetric
from repro.uncertain import UncertainDataset, UncertainPoint


def make_uncertain_dataset(
    n: int = 6,
    z: int = 3,
    dimension: int = 2,
    *,
    seed: int = 0,
    spread: float = 5.0,
    jitter: float = 0.5,
    metric=None,
) -> UncertainDataset:
    """Small clustered uncertain dataset used across many tests."""
    rng = np.random.default_rng(seed)
    points = []
    for index in range(n):
        base = rng.normal(scale=spread, size=dimension)
        locations = base + rng.normal(scale=jitter, size=(z, dimension))
        probabilities = rng.dirichlet(np.ones(z))
        points.append(UncertainPoint(locations=locations, probabilities=probabilities, label=f"P{index}"))
    return UncertainDataset(points=tuple(points), metric=metric or EuclideanMetric())


def make_ragged_dataset(dimension: int = 2, *, seed: int = 0) -> UncertainDataset:
    """Ragged supports (``z_i`` from 1 to 4) with repeated locations and
    explicit zero probabilities — the shapes the flat location layout must
    keep each point's rows straight for."""
    rng = np.random.default_rng(seed)
    points = []
    for index, z in enumerate((1, 4, 2, 3, 4, 1, 3)):
        locations = rng.normal(scale=3.0, size=(z, dimension))
        probabilities = rng.dirichlet(np.ones(z))
        if z >= 3:
            locations[-1] = locations[0]
        if z >= 2 and index % 2:
            probabilities[1] = 0.0
            probabilities /= probabilities.sum()
        points.append(
            UncertainPoint(locations=locations, probabilities=probabilities, label=f"P{index}")
        )
    return UncertainDataset(points=tuple(points), metric=EuclideanMetric())


def make_graph_dataset(n: int = 6, z: int = 3, nodes: int = 20, *, seed: int = 0) -> UncertainDataset:
    """Small uncertain dataset over a random connected graph metric."""
    import networkx as nx

    graph = nx.connected_watts_strogatz_graph(nodes, 4, 0.3, seed=seed)
    for _, _, data in graph.edges(data=True):
        data["weight"] = 1.0
    metric = GraphMetric(graph)
    rng = np.random.default_rng(seed)
    points = []
    for index in range(n):
        chosen = rng.choice(nodes, size=z, replace=False).astype(float).reshape(-1, 1)
        probabilities = rng.dirichlet(np.ones(z))
        points.append(UncertainPoint(locations=chosen, probabilities=probabilities, label=f"P{index}"))
    return UncertainDataset(points=tuple(points), metric=metric)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def euclidean_dataset() -> UncertainDataset:
    return make_uncertain_dataset()


@pytest.fixture
def line_dataset() -> UncertainDataset:
    return make_uncertain_dataset(n=7, z=3, dimension=1, seed=4)


@pytest.fixture
def graph_dataset() -> UncertainDataset:
    return make_graph_dataset()


@pytest.fixture
def certain_dataset() -> UncertainDataset:
    """A dataset whose points are all deterministic (single location)."""
    rng = np.random.default_rng(9)
    points = rng.normal(scale=3.0, size=(8, 2))
    return UncertainDataset.from_certain_points(points)
