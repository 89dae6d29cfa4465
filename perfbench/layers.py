"""The traced run: which public functions get spans, and what the spans say.

:func:`install` wraps the public functions of ``cost.context``,
``cost.expected``, ``metrics``, ``algorithms``, ``baselines.brute_force``,
``runtime`` and ``serve`` from outside the program.  The analysis helpers
turn the recorded spans into per-layer numbers:

* :func:`solve_phases` splits one ``brute_force_*`` span into the fixed
  solve phases — context, seed, chunk bounds, in-chunk pruning, kernel,
  dispatch/wait and reduce.  Bound calls count as ``chunk_bounds`` when no
  ``parallel_map*`` span is open and as ``in_chunk_prune`` when one is; seed
  and reduce are what the solve spends before and after its map outside
  context and bound calls.  Worker-side time is invisible from the parent,
  so phases are only meaningful for ``workers=1`` solves.
* :func:`table1_layers` sums the scalar cost path and the references.

:data:`LAYER_METRICS` lists every per-layer metric with its unit and the
end-to-end metric (and workload) it should move.
"""

from __future__ import annotations

from typing import Any, Iterable

from common import median
from spans import Patcher, Span, SpanRecorder, covered

#: name -> (unit, which end-to-end number it should move, on which workload)
LAYER_METRICS: dict[str, tuple[str, str]] = {}


def _layer(name: str, unit: str, moves: str) -> None:
    LAYER_METRICS[name] = (unit, moves)


_layer("algorithms.one_center_s", "s", "table1_quick pass_s")
_layer("cost.expected.scalar_calls", "count", "table1_quick pass_s")
_layer("cost.expected.scalar_s", "s", "table1_quick pass_s")
_layer("metrics.pairwise_calls", "count", "table1_quick pass_s")
_layer("metrics.pairwise_s", "s", "table1_quick pass_s")
_layer("baselines.reference_s", "s", "table1_quick pass_s (predicted small)")
PHASES = ("context", "seed", "chunk_bounds", "in_chunk_prune", "kernel", "dispatch_wait", "reduce")
OBJECTIVES = ("restricted", "unassigned")
for _objective in OBJECTIVES:
    for _phase in PHASES:
        _layer(
            f"{_objective}.phase.{_phase}_s", "s",
            f"enum_mid pass_s/op_p50_ms, serve_mixed op_p50_ms ({_objective} solves)",
        )
    for _count in ("total_rows", "evaluated_rows", "pruned_rows", "chunks"):
        _layer(f"{_objective}.{_count}", "count", f"enum_mid pass_s ({_objective})")
    _layer(f"{_objective}.prune_rate", "ratio", f"enum_mid pass_s ({_objective})")
_layer("bounds.rows_per_subset", "ratio", "enum_mid pass_s")
_layer("runtime.map_wall_s", "s", "enum_mid pass_s")
_layer("runtime.speedup", "ratio", "enum_mid pass_s")
for _counter in ("chunks_submitted", "chunks_completed", "retries", "serial_fallbacks",
                 "pool_rebuilds"):
    _layer(f"runtime.{_counter}", "count", "enum_mid pass_s")
_layer("runtime.shm_publish_s", "s", "enum_mid setup_s")
_layer("runtime.shm_bytes", "bytes", "enum_mid setup_s")
_layer("env.spin_scaling", "ratio", "ceiling for runtime.speedup")
_layer("env.nproc", "count", "ceiling for runtime.speedup")
_layer("store.hits", "count", "serve_mixed op_p50_ms")
_layer("store.misses", "count", "serve_mixed pass_s (cold solves)")
_layer("serve.context_builds", "count", "serve_mixed pass_s (cold solves)")
_layer("context.build_ms", "ms", "serve_mixed pass_s (cold solves)")
_layer("serve.service_p50_ms", "ms", "serve_mixed op_p50_ms")
_layer("serve.transport_p50_ms", "ms", "serve_mixed op_p50_ms")
_layer("serve.rejected", "count", "error count")
_layer("serve.errors", "count", "error count")
_layer("serve.wrong_answers", "count", "error count")
_layer("serve.gap_target_hits", "count", "serve_mixed op tail")
_layer("trace.overhead", "ratio", "traced pass_s / untraced pass_s - 1")

CONTEXT = "context"
BOUND = "bound"
KERNEL = "kernel"
MAP = "map"
CONTEXT_PROPERTIES = ("supports", "expected", "evaluator")
BOUND_METHODS = ("subset_assigned_lower_bounds", "subset_unassigned_lower_bounds",
                 "subset_pair_lower_bounds", "subset_two_level_lower_bounds",
                 "assignment_lower_bounds")
KERNEL_METHODS = ("assigned_cost", "assigned_costs", "unassigned_cost", "unassigned_costs",
                  "score_assignments", "ed_assignment", "ed_assignments")
EVALUATOR_METHODS = ("cost", "costs", "move_costs")
MAPS = ("parallel_map", "parallel_map_ordered")
#: span name -> category, for the phase split
CATEGORY: dict[str, str] = {
    "cost.context.build": CONTEXT,
    "runtime.store.get": CONTEXT,
    **{f"cost.context.{name}": CONTEXT for name in CONTEXT_PROPERTIES},
    **{f"cost.context.{name}": BOUND for name in BOUND_METHODS},
    **{f"cost.context.{name}": KERNEL for name in KERNEL_METHODS},
    **{f"cost.expected.AssignedCostEvaluator.{name}": KERNEL for name in EVALUATOR_METHODS},
    **{f"runtime.{name}": MAP for name in MAPS},
}
LEVEL1_BOUNDS = ("cost.context.subset_assigned_lower_bounds",
                 "cost.context.subset_unassigned_lower_bounds")
ONE_CENTER = tuple(
    f"algorithms.{name}"
    for name in ("refined_uncertain_one_center", "expected_point_one_center",
                 "exact_uncertain_one_center_discrete", "best_expected_point_one_center")
)
SCALAR = ("cost.expected.expected_cost_unassigned", "cost.expected.expected_cost_assigned")
SOLVES = {
    "baselines.brute_force_restricted_assigned": "restricted",
    "baselines.brute_force_unassigned": "unassigned",
    "baselines.brute_force_unrestricted_assigned": "unrestricted",
}


def _rows(args: tuple, kwargs: dict) -> dict[str, Any]:
    rows = args[1] if len(args) > 1 else next(iter(kwargs.values()), None)
    return {"rows": int(getattr(rows, "shape", (0,))[0])}


def _items(args: tuple, kwargs: dict) -> dict[str, Any]:
    items = args[1] if len(args) > 1 else kwargs.get("items", ())
    return {"items": len(items)}


def _gap_request(args: tuple, kwargs: dict) -> dict[str, Any]:
    payload = args[1] if len(args) > 1 else {}
    return {"gap": isinstance(payload, dict) and payload.get("gap_target") is not None}


def _result_rows(result: Any) -> dict[str, Any]:
    metadata = getattr(result, "metadata", {}) or {}
    return {key: metadata[key] for key in ("total_rows", "evaluated_rows", "pruned_rows")
            if key in metadata}


def install(recorder: SpanRecorder) -> Patcher:
    """Wrap the program's public layer boundaries; returns the undo handle."""
    import repro.algorithms as algorithms
    import repro.baselines.brute_force as brute_force
    import repro.cost.context as context
    import repro.cost.expected as expected
    import repro.metrics as metrics
    import repro.runtime.parallel as parallel
    import repro.runtime.store as store
    import repro.serve.server as server
    import repro.serve.state as state

    patcher = Patcher(recorder)
    cost_context = context.CostContext
    patcher.method(cost_context, "__init__", "cost.context.build")
    for name in CONTEXT_PROPERTIES:
        patcher.prop(cost_context, name, f"cost.context.{name}")
    for name in BOUND_METHODS:
        patcher.method(cost_context, name, f"cost.context.{name}", measure=_rows)
    for name in KERNEL_METHODS:
        patcher.method(cost_context, name, f"cost.context.{name}")
    for name in EVALUATOR_METHODS:
        patcher.method(expected.AssignedCostEvaluator, name,
                       f"cost.expected.AssignedCostEvaluator.{name}")
    for name in SCALAR:
        patcher.function(getattr(expected, name.rsplit(".", 1)[1]), name)

    wrapped: set[type] = set()
    for name in metrics.__all__:
        for klass in getattr(getattr(metrics, name), "__mro__", ()):
            if "pairwise" in vars(klass) and klass not in wrapped and klass.__module__.startswith(
                "repro.metrics"
            ):
                wrapped.add(klass)
                patcher.method(klass, "pairwise", "metrics.pairwise")

    for name in algorithms.__all__:
        function = getattr(algorithms, name)
        if callable(function) and not isinstance(function, type):
            patcher.function(function, f"algorithms.{name}")
    for name in SOLVES:
        patcher.function(getattr(brute_force, name.split(".", 1)[1]), name, new_request=True,
                         after=_result_rows)
    for name in MAPS:
        patcher.function(getattr(parallel, name), f"runtime.{name}", measure=_items)
    patcher.method(store.ContextStore, "get", "runtime.store.get")
    patcher.method(state.SingleFlightContexts, "get", "serve.contexts.get")
    for route in list(server.POST_ROUTES):
        patcher.item(server.POST_ROUTES, route, f"serve{route}", new_request=True,
                     measure=_gap_request)
    return patcher


# -- analysis --------------------------------------------------------------


def descendants(span: Span, children: dict[int | None, list[Span]]) -> Iterable[Span]:
    stack = list(children.get(span.index, ()))
    while stack:
        current = stack.pop()
        yield current
        stack.extend(children.get(current.index, ()))


def _outermost(span: Span, children: dict[int | None, list[Span]], names: Iterable[str]):
    """Descendants named in ``names`` with no such ancestor below ``span``."""
    wanted = set(names)
    stack = list(children.get(span.index, ()))
    while stack:
        current = stack.pop()
        if current.name in wanted:
            yield current
        else:
            stack.extend(children.get(current.index, ()))


def classified(span: Span, children: dict[int | None, list[Span]], inside_map: bool = False):
    """``(category, span, inside_map)`` for the outermost classified spans.

    Map spans are reported and then descended into, so the bound, kernel and
    context calls a map makes come out flagged ``inside_map``.
    """
    for child in children.get(span.index, ()):
        category = CATEGORY.get(child.name)
        if category == MAP:
            yield MAP, child, inside_map
            yield from classified(child, children, True)
        elif category is not None:
            yield category, child, inside_map
        else:
            yield from classified(child, children, inside_map)


def solve_phases(solve: Span, children: dict[int | None, list[Span]]) -> dict[str, float]:
    """The seven phases of one ``brute_force_*`` span, in seconds.

    They add up to the span's duration when the solve runs one map.
    """
    found = list(classified(solve, children))
    maps = [span for category, span, _ in found if category == MAP]
    phases = dict.fromkeys(PHASES, 0.0)
    outside: list[Span] = []
    for category, span, inside_map in found:
        if category == CONTEXT:
            phases["context"] += span.duration
            if not inside_map:
                outside.append(span)
        elif category == BOUND:
            phases["in_chunk_prune" if inside_map else "chunk_bounds"] += span.duration
            if not inside_map:
                outside.append(span)
        elif category == KERNEL and inside_map:
            phases["kernel"] += span.duration
    for map_span in maps:
        inner = [
            (span.start, span.end)
            for category, span, inside_map in found
            if inside_map and category != MAP and map_span.start <= span.start <= map_span.end
        ]
        phases["dispatch_wait"] += map_span.duration - covered(
            map_span.start, map_span.end, inner
        )
    end = solve.end if solve.end is not None else solve.start
    first = min((span.start for span in maps), default=end)
    last = max((span.end for span in maps if span.end is not None), default=end)
    intervals = [(span.start, span.end) for span in outside]
    phases["seed"] = (first - solve.start) - covered(solve.start, first, intervals)
    phases["reduce"] = (end - last) - covered(last, end, intervals)
    return phases


def solve_counts(solve: Span, children: dict[int | None, list[Span]]) -> dict[str, float]:
    """Rows, chunks and level-1 bound rows of one solve span."""
    info = solve.info or {}
    total = float(info.get("total_rows", 0))
    pruned = float(info.get("pruned_rows", 0))
    maps = [span for span in descendants(solve, children) if CATEGORY.get(span.name) == MAP]
    level1 = sum(
        (span.info or {}).get("rows", 0)
        for span in descendants(solve, children)
        if span.name in LEVEL1_BOUNDS
    )
    return {
        "total_rows": total,
        "evaluated_rows": float(info.get("evaluated_rows", 0)),
        "pruned_rows": pruned,
        "chunks": float(sum((span.info or {}).get("items", 0) for span in maps)),
        "prune_rate": pruned / total if total else 0.0,
        "level1_rows": float(level1),
    }


COUNTS = ("total_rows", "evaluated_rows", "pruned_rows", "chunks", "prune_rate")


def add_solve(
    samples: dict[str, list[float]], objective: str, solve: Span,
    children: dict[int | None, list[Span]],
) -> None:
    """Append one solve's phases and counts to per-metric sample lists."""
    for phase, value in solve_phases(solve, children).items():
        samples.setdefault(f"{objective}.phase.{phase}_s", []).append(value)
    counts = solve_counts(solve, children)
    for name in COUNTS:
        samples.setdefault(f"{objective}.{name}", []).append(counts[name])
    samples.setdefault("level1_rows", []).append(counts["level1_rows"])


def solve_metrics(samples: dict[str, list[float]]) -> dict[str, float]:
    """Medians per solve, plus level-1 bound rows over all enumerated rows."""
    level1 = samples.pop("level1_rows", [])
    total = sum(sum(samples.get(f"{objective}.total_rows", [])) for objective in OBJECTIVES)
    values = {name: median(found) for name, found in samples.items()}
    if total:
        values["bounds.rows_per_subset"] = sum(level1) / total
    return values


def solves(recorder: SpanRecorder, since: int = 0) -> list[tuple[str, Span]]:
    """``(objective, span)`` for every outermost solve recorded after ``since``."""
    found = []
    by_index = recorder.spans
    for span in by_index[since:]:
        objective = SOLVES.get(span.name)
        if objective is None:
            continue
        parent = span.parent
        nested = False
        while parent is not None:
            if by_index[parent].name in SOLVES:
                nested = True
                break
            parent = by_index[parent].parent
        if not nested:
            found.append((objective, span))
    return found


def table1_layers(recorder: SpanRecorder, root: Span) -> dict[str, float]:
    """Scalar-path and reference numbers inside one traced ``run_all_table1``."""
    children = recorder.children()
    one_center = list(_outermost(root, children, ONE_CENTER))
    references = list(_outermost(root, children, SOLVES))
    scalar = list(_outermost(root, children, SCALAR))
    pairwise = list(_outermost(root, children, ("metrics.pairwise",)))
    return {
        "algorithms.one_center_s": sum(span.duration for span in one_center),
        "baselines.reference_s": sum(span.duration for span in references),
        "cost.expected.scalar_calls": float(
            sum(1 for span in descendants(root, children) if span.name in SCALAR)
        ),
        "cost.expected.scalar_s": sum(span.duration for span in scalar),
        "metrics.pairwise_calls": float(len(pairwise)),
        "metrics.pairwise_s": sum(span.duration for span in pairwise),
    }
