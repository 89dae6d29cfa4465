"""Outside-in benchmark of the uncertain k-center program.

Usage, from the repository root::

    python3 perfbench/run.py --workload enum_mid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

Workloads (see each module's docstring):

* ``table1_quick`` — ``run_all_table1(Table1Settings.quick())``, serial.
* ``enum_mid``     — the mid-size exact enumeration, both objectives, 2 workers.
* ``serve_mixed``  — 2 closed-loop clients against ``repro serve --workers 1``.

Every workload reports the same end-to-end metrics, with tracing off:

* ``setup_s``   — making the program ready for its first timed operation.
* ``pass_s``    — median wall clock of one pass of the workload's unit of work.
* ``op_p50_ms`` — median latency of the workload's headline operation.

These are wall clock times normalised to a reference host speed: a fixed
probe runs every 0.2 s through the whole workload, and each time is scaled by
the reference probe time over this run's mean probe time
(``common.HostProbe``).  The shared host's speed drifts too much for raw
wall clock to repeat between runs.

The lines before the last also print each workload's own numbers by name,
unit and sample count in raw wall clock, the scale applied (``host_scale``),
and the failed/attempted operation count (the error rate).  With ``--trace 1`` a separate run wraps the program's public layer
functions (``layers.py``) and reports the per-layer metrics instead, writing
every span to ``.perfbench/``.  The last line of standard output is always
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Before it exits it stops every process it started — pool workers, the
server, the multiprocessing resource tracker — and waits for each to end.
Run from a directory without the program's source, it exits with status 2
and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import sys

from common import (
    OUT_DIR, SRC, HostProbe, Run, become_subreaper, environment, spin_scaling, stop_children,
)

WORKLOADS = ("table1_quick", "enum_mid", "serve_mixed")


def _print_run(run: Run) -> None:
    print(f"== {run.workload}: {run.failed} failed of {run.attempted} checked operations"
          f" (error_rate {run.error_rate:.6g})")
    for name, (value, unit, samples) in run.detail.items():
        print(f"   {name:<22} {value:>14.6g} {unit:<4} n={samples}")
    for message in run.failures:
        print(f"   FAILED: {message}")


def _normalise(run: Run, probe: HostProbe) -> None:
    """Express the end-to-end times in seconds at the probe's reference speed.

    ``detail`` keeps the raw wall clock; ``host_scale`` is the factor applied.
    """
    scale = probe.scale()
    run.end_to_end = {name: (value * scale, unit) for name, (value, unit) in run.end_to_end.items()}
    run.detail["host_scale"] = (scale, "ratio", len(probe.samples))


def _write_trace(run: Run, seed: int, env: dict) -> None:
    recorder = run.recorder
    if recorder is None:
        return
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{run.workload}-seed{seed}.jsonl.gz"
    recorder.write(str(path), {"workload": run.workload, "seed": seed, "environment": env,
                               "layers": run.layers})
    print(f"   spans written to {path.relative_to(OUT_DIR.parent)} ({len(recorder.spans)} spans)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    become_subreaper()
    # A terminated run unwinds through the clean-up below instead of dying in place.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        return _measure(args)
    finally:
        # Every path out: the pool, its segments, the resource tracker and any
        # orphaned helper of a child are stopped and waited for.
        from repro.runtime import shutdown_runtime

        shutdown_runtime()
        stop_children()


def _measure(args: argparse.Namespace) -> int:
    env = environment()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g}"
          f" trace={args.trace} nproc={env['nproc']} python={env['python']}"
          f" numpy={env['numpy']} git={env['git_revision']}"
          f" source_sha256={env['source_sha256'][:16]}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = []
    for name in names:
        workload = importlib.import_module(name)
        if args.trace and args.workload != "all":
            run = workload.run(args.seed, args.seconds, True)
        else:
            with HostProbe() as probe:
                run = workload.run(args.seed, args.seconds, False)
            _normalise(run, probe)
        _print_run(run)
        if args.trace:
            _write_trace(run, args.seed, env)
        runs.append(run)

    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    if args.workload == "all":
        print(f"{'metric':<24} {'workload':<14} {'value':>14} unit  samples")
        for run in runs:
            rows = [("error_rate", run.error_rate, "ratio", run.attempted)]
            rows += [(key, *row) for key, row in run.detail.items()]
            for key, value, unit, samples in rows:
                print(f"{key:<24} {run.workload:<14} {value:>14.6g} {unit:<5} {samples}")
        metrics = {
            f"{run.workload}.{key}": {"value": value, "unit": unit}
            for run in runs
            for key, (value, unit, _) in run.detail.items()
        }
    elif args.trace:
        import layers

        run = runs[0]
        run.layers["env.nproc"] = float(env["nproc"])
        run.layers["env.spin_scaling"] = spin_scaling()
        metrics = {
            name: {"value": float(run.layers.get(name, 0.0)), "unit": unit}
            for name, (unit, _) in layers.LAYER_METRICS.items()
        }
    else:
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in runs[0].end_to_end.items()
        }
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
