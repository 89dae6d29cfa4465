"""Self-test of the benchmark's span recorder and wrappers.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import layers  # noqa: E402
from spans import Patcher, Span, SpanRecorder, covered, self_time  # noqa: E402


def _span(start: float, end: float, index: int = 0, parent: int | None = None) -> Span:
    span = Span(index, f"s{index}", start, parent, None, 0)
    span.end = end
    return span


def test_covered_merges_nested_sibling_and_overlapping_intervals():
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == pytest.approx(3.0)  # siblings
    assert covered(0.0, 10.0, [(1.0, 8.0), (2.0, 3.0)]) == pytest.approx(7.0)  # nested
    assert covered(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0)]) == pytest.approx(5.0)  # overlapping
    assert covered(2.0, 5.0, [(0.0, 3.0), (4.0, 9.0)]) == pytest.approx(2.0)  # clipped


def test_self_time_subtracts_only_covered_time():
    parent = _span(0.0, 10.0)
    assert self_time(parent, []) == pytest.approx(10.0)
    siblings = [_span(1.0, 3.0, 1, 0), _span(4.0, 5.0, 2, 0)]
    assert self_time(parent, siblings) == pytest.approx(7.0)
    overlapping = [_span(1.0, 6.0, 1, 0), _span(4.0, 8.0, 2, 0)]
    assert self_time(parent, overlapping) == pytest.approx(3.0)
    spilling = [_span(-2.0, 1.0, 1, 0), _span(9.0, 12.0, 2, 0)]
    assert self_time(parent, spilling) == pytest.approx(8.0)


def test_recorder_links_parents_per_thread_and_requests():
    recorder = SpanRecorder()
    outer = recorder.open("outer", new_request=True)
    inner = recorder.open("inner")
    seen = {}

    def other_thread():
        span = recorder.open("elsewhere")
        recorder.close(span)
        seen["span"] = span

    thread = threading.Thread(target=other_thread)
    thread.start()
    thread.join()
    recorder.close(inner)
    recorder.close(outer)
    assert inner.parent == outer.index and inner.request == outer.request == 1
    assert seen["span"].parent is None and seen["span"].request is None
    grouped = recorder.children()
    assert [span.name for span in grouped[outer.index]] == ["inner"]
    assert self_time(outer, grouped[outer.index]) <= outer.duration


def test_wrapper_returns_the_identical_object_and_reraises():
    recorder = SpanRecorder()
    payload = np.arange(5.0)

    def identity(value):
        return value

    def failing():
        raise ValueError("boom")

    assert recorder.wrap("identity", identity)(payload) is payload
    with pytest.raises(ValueError, match="boom"):
        recorder.wrap("failing", failing)()
    assert [span.name for span in recorder.spans] == ["identity", "failing"]
    assert all(span.end is not None for span in recorder.spans)


def _tiny_instance():
    from repro import gaussian_clusters

    dataset, _ = gaussian_clusters(n=8, z=3, dimension=2, k_true=2, seed=3)
    return dataset, dataset.all_locations()[:10]


def test_installed_wrappers_keep_results_bit_identical_and_restore():
    import repro
    import repro.cost.expected as expected
    import repro.serve.server as server

    dataset, candidates = _tiny_instance()
    original = expected.expected_cost_unassigned
    plain_cost = original(dataset, candidates[:2])
    plain_solve = repro.brute_force_restricted_assigned(dataset, 2, candidates=candidates)

    recorder = SpanRecorder()
    patcher = layers.install(recorder)
    try:
        assert server.expected_cost_unassigned is not original  # imported name wrapped too
        assert server.expected_cost_unassigned(dataset, candidates[:2]) == plain_cost
        traced = repro.brute_force_restricted_assigned(dataset, 2, candidates=candidates)
    finally:
        patcher.restore()
    assert expected.expected_cost_unassigned is original
    assert server.expected_cost_unassigned is original
    assert "__wrapped_original__" not in vars(type(dataset.metric).pairwise)
    assert traced.expected_cost == plain_solve.expected_cost
    assert np.array_equal(traced.centers, plain_solve.centers)
    assert np.array_equal(traced.assignment, plain_solve.assignment)

    children = recorder.children()
    (objective, solve), = layers.solves(recorder)
    assert objective == "restricted"
    phases = layers.solve_phases(solve, children)
    assert all(value >= -1e-9 for value in phases.values())
    assert sum(phases.values()) == pytest.approx(solve.duration, rel=1e-6, abs=1e-6)
    counts = layers.solve_counts(solve, children)
    assert counts["total_rows"] == 45 and counts["chunks"] == 1


def test_patcher_wraps_and_restores_registry_entries():
    recorder = SpanRecorder()
    registry = {"route": lambda value: value * 2}
    original = registry["route"]
    patcher = Patcher(recorder)
    patcher.item(registry, "route", "route")
    assert registry["route"](21) == 42 and registry["route"] is not original
    patcher.restore()
    assert registry["route"] is original
