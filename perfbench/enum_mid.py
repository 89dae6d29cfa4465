"""``enum_mid``: the mid-size exact enumeration, both objectives, ``workers=2``.

The instance is the ROADMAP's mid-size one: ``gaussian_clusters(n=80, z=16,
d=2, k_true=4)`` (generator seed 0) with its first 36 locations as
candidates and ``k=4`` — ``C(36, 4) = 58,905`` rows in 29 chunks.  The two
objectives split the layers: unassigned is mostly bound computation,
restricted (expected-distance assignment) mostly the ``assigned_costs``
kernel.  Table 1 bypasses all of it.

``--seed`` draws the order in which the 80 points are presented.  Point
order changes neither the optimum nor the work; a freshly generated
instance per seed would (2,050 to 6,545 evaluated restricted rows over
seeds 0-5, a spread far wider than any useful bound).

* set-up: pool spawn, context build and shared-memory publish (median of 21).
* one pass: one restricted and one unassigned solve at ``workers=2``
  through a context store, so the timed solves reuse the built context as a
  long-lived caller would.  ``pass_s`` is the pass median, ``op_p50_ms``
  the restricted solve median.
* checks: cost, centers and assignment bit-identical to a serial solve
  without a store (no pool, no shared memory, no reuse); no shared-memory
  segment left; chunk audit.  Serial ``prune=False`` references would
  triple the run for no extra coverage: pruned and unpruned solves are
  bit-identical by the program's own tested contract.
"""

from __future__ import annotations

import os
import time

import numpy as np

from common import Run, baseline, leak_and_audit, median, timed, timed_loop

N, Z, DIMENSION, K_TRUE, CANDIDATES, K = 80, 16, 2, 4, 36, 4
GENERATOR_SEED = 0
WORKERS = 2
SETUP_REPEATS = 21
SOLVERS = (("restricted", "brute_force_restricted_assigned"),
           ("unassigned", "brute_force_unassigned"))


def instance(seed: int):
    from repro import UncertainDataset, gaussian_clusters

    dataset, _ = gaussian_clusters(
        n=N, z=Z, dimension=DIMENSION, k_true=K_TRUE, seed=GENERATOR_SEED
    )
    candidates = dataset.all_locations()[:CANDIDATES]
    order = np.random.default_rng(seed).permutation(dataset.size)
    shuffled = UncertainDataset(
        points=tuple(dataset.points[index] for index in order), metric=dataset.metric
    )
    return shuffled, candidates


def setup(dataset, candidates):
    """Cold start to ready: spawn the pool, build the context, publish it.

    Returns the store holding the context, the set-up seconds and the
    seconds the shared-memory publish took.
    """
    from repro.runtime import ContextStore, shutdown_runtime
    from repro.runtime import pool, shm
    from repro.cost.context import DEFAULT_CHUNK_ROWS

    shutdown_runtime()
    start = time.perf_counter()
    executor = pool.executor().ensure(WORKERS)
    for future in [executor.submit(os.getpid) for _ in range(WORKERS)]:
        future.result()
    store = ContextStore()
    context = store.get(dataset, candidates)
    context.expected
    context.evaluator
    (_, lease), publish = timed(shm.publish_payload, (context, DEFAULT_CHUNK_ROWS))
    if lease is not None:
        lease.close()
    return store, time.perf_counter() - start, publish


def _same(result, reference) -> bool:
    same = (
        result.expected_cost == reference.expected_cost
        and np.array_equal(result.centers, reference.centers)
    )
    if reference.assignment is not None:
        same = same and np.array_equal(result.assignment, reference.assignment)
    return same


def _pass(result: Run, references, dataset, candidates, workers, store):
    """One restricted and one unassigned solve, each checked; returns their times.

    The solvers are looked up on the package at call time, so a traced pass
    goes through the installed wrappers.
    """
    import repro

    times = []
    for (objective, name), reference in zip(SOLVERS, references):
        solved, elapsed = timed(
            getattr(repro, name), dataset, K, candidates=candidates, workers=workers, store=store
        )
        result.check(_same(solved, reference), f"{objective} solve differs from the reference")
        times.append(elapsed)
    return times


def _segment_bytes() -> float:
    from repro.runtime.shm import live_segments

    return float(sum(os.stat(os.path.join("/dev/shm", name)).st_size for name in live_segments()))


def run(seed: int, seconds: float, trace: bool) -> Run:
    import repro
    from repro.runtime import health

    result = Run("enum_mid")
    dataset, candidates = instance(seed)
    since = baseline()
    setups = [setup(dataset, candidates) for _ in range(SETUP_REPEATS)]
    store = setups[-1][0]

    references = [getattr(repro, name)(dataset, K, candidates=candidates) for _, name in SOLVERS]
    _pass(result, references, dataset, candidates, WORKERS, store)  # warm-up: publishes tables
    budget = seconds / 3 if trace else seconds

    def loop(workers: int) -> list[list[float]]:
        return timed_loop(
            budget, lambda: _pass(result, references, dataset, candidates, workers, store)
        )

    untraced = loop(WORKERS)

    if trace:
        import layers
        from spans import SpanRecorder

        recorder = SpanRecorder()
        patcher = layers.install(recorder)
        try:
            mark = len(recorder.spans)
            before = health.snapshot()
            parallel = loop(WORKERS)
            moved = health.delta(before)
            parallel_spans = recorder.spans[mark:]
            shm_bytes = _segment_bytes()
            mark = len(recorder.spans)
            serial = loop(1)
        finally:
            patcher.restore()
        count = len(parallel)
        children = recorder.children()
        samples: dict[str, list[float]] = {}
        for objective, span in layers.solves(recorder, mark):
            layers.add_solve(samples, objective, span, children)
        result.layers.update(layers.solve_metrics(samples))
        map_wall = sum(
            span.duration for span in parallel_spans if layers.CATEGORY.get(span.name) == "map"
        )
        result.layers.update({
            "runtime.map_wall_s": map_wall / count,
            "runtime.speedup": median([sum(p) for p in serial]) / median([sum(p) for p in parallel]),
            "runtime.chunks_submitted": moved.chunks_submitted / count,
            "runtime.chunks_completed": moved.chunks_completed / count,
            "runtime.retries": moved.retries / count,
            "runtime.serial_fallbacks": moved.serial_fallbacks / count,
            "runtime.pool_rebuilds": moved.pool_rebuilds / count,
            "runtime.shm_publish_s": median([publish for _, _, publish in setups]),
            "runtime.shm_bytes": shm_bytes,
            "trace.overhead": median([sum(p) for p in parallel])
            / median([sum(p) for p in untraced]) - 1.0,
        })
        result.recorder = recorder

    leak_and_audit(result, since)
    setup_s = median([elapsed for _, elapsed, _ in setups])
    pass_s = median([sum(p) for p in untraced])
    restricted = median([p[0] for p in untraced])
    result.end_to_end = {
        "setup_s": (setup_s, "s"),
        "pass_s": (pass_s, "s"),
        "op_p50_ms": (restricted * 1000.0, "ms"),
    }
    result.detail = {
        "setup_s": (setup_s, "s", len(setups)),
        "restricted_solve_s": (restricted, "s", len(untraced)),
        "unassigned_solve_s": (median([p[1] for p in untraced]), "s", len(untraced)),
    }
    return result
