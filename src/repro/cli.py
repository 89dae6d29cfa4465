"""Command-line interface.

Installed as ``uncertain-kcenter`` (also reachable via ``python -m repro``).

Sub-commands
------------
``table1``
    Run the Table-1 reproduction experiments and print the report.
``scaling``
    Run the running-time scaling experiment (E11).
``ablation``
    Run the representative/assignment ablations (E12).
``sensitivity``
    Run the outlier / support-size sensitivity sweeps (E13a/E13b).
``bench``
    Execute the machine-readable benchmark suite and write its JSON document
    (``--out``; by default the untracked ``bench.json``, so a bare run never
    overwrites a checked-in ``BENCH_PR*.json``) — the perf trajectory future
    PRs compare against.  ``--compare BENCH_PR5.json`` prints a per-case
    speedup delta table against an earlier document; exit code 3 flags >20%
    regressions (other nonzero codes are crashes).  ``--quick`` runs the
    fast subset of cases for CI smoke steps.
``lint``
    Run the repo-aware static checker (:mod:`repro.analysis`) over the tree:
    AST rules enforcing the runtime's concurrency, determinism and hot-path
    invariants.  Exit 0 clean, 1 findings (warnings too under ``--strict``),
    2 usage error — suitable for CI gating.  ``--list-rules`` prints every
    rule with the incident that motivated it; ``--env-table`` prints the
    README environment-variable table generated from :mod:`repro._env`.
``solve``
    Solve an uncertain k-center instance stored in a JSON file (the format
    written by :meth:`repro.UncertainDataset.save_json`).
``demo``
    Generate a synthetic workload and solve it end to end, printing the
    solution summary (a smoke test that exercises the whole pipeline).
``serve``
    Run the long-lived crash-tolerant solve/score HTTP server
    (:mod:`repro.serve`): JSON endpoints ``/v1/solve``, ``/v1/score``,
    ``/v1/assign`` plus ``/healthz``, ``/readyz`` and ``/stats``, with
    admission control (429/413), per-request ``deadline_ms`` mapped onto
    the anytime ``time_budget``, a circuit breaker over runtime
    degradation, and SIGTERM/SIGINT drain.

Parallelism
-----------
``table1``, ``all``, ``ablation`` and ``sensitivity`` accept ``--workers N``
to shard their independent trial cases across ``N`` processes
(:mod:`repro.runtime.parallel`; one persistent pool serves every experiment
of a run, and the requested count is clamped to the CPUs actually
available, so over-asking never slows a small box down).  The default is
``1`` — fully serial — and results are **identical at every worker count**;
workers only change wall clock.  The scaling experiment and the timed E13b
support-size sweep always run serially because they measure wall clock
itself.

Pruning
-------
The brute-force reference solvers run with branch-and-bound pruning by
default (admissible lower bounds against each solve's incumbent — see
:mod:`repro.baselines.brute_force`).  ``table1`` and ``all`` accept
``--no-prune`` as an escape hatch that forces the exhaustive scans instead;
results are bit-identical either way (pruning only skips provably losing
rows), so the flag exists for debugging and for measuring the pruning win.
The references always run to completion: each stands in for an optimum in
a Table-1 ratio, and one stopped early could only understate that ratio.
Deadlines and gap targets are for ``serve`` requests (``deadline_ms`` and
``gap_target`` on ``/v1/solve``) and for the brute-force solvers' own
``time_budget=`` and ``gap_target=`` arguments.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .algorithms.metric_space import solve_metric_unrestricted
from .algorithms.restricted import solve_restricted_assigned
from .algorithms.unrestricted import solve_unrestricted_assigned
from .experiments.ablation import AblationSettings, run_assignment_ablation, run_representative_ablation
from .experiments.harness import render_full_report, run_everything, run_quick
from .experiments.report import render_record, render_records
from .experiments.scaling import ScalingSettings, run_scaling
from .experiments.sensitivity import (
    SensitivitySettings,
    run_outlier_sensitivity,
    run_support_size_sensitivity,
)
from .experiments.table1 import Table1Settings, run_all_table1
from .uncertain.dataset import UncertainDataset
from .workloads.synthetic import gaussian_clusters


def _add_workers_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "processes to shard independent trial cases across "
            "(default 1 = serial; any value produces identical results)"
        ),
    )


def _add_no_prune_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--no-prune",
        action="store_true",
        help=(
            "disable branch-and-bound pruning in the brute-force reference "
            "solvers (escape hatch; results are bit-identical with pruning "
            "on, it only skips provably losing rows)"
        ),
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uncertain-kcenter",
        description="k-center clustering for uncertain data (PODS 2018 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    table1 = subparsers.add_parser("table1", help="reproduce the paper's Table 1")
    table1.add_argument("--quick", action="store_true", help="use the lightweight experiment preset")
    table1.add_argument("--output", type=Path, default=None, help="also write the report to this file")
    _add_workers_argument(table1)
    _add_no_prune_argument(table1)

    everything = subparsers.add_parser(
        "all", help="run every experiment (Table 1, scaling, ablations, sensitivity)"
    )
    everything.add_argument("--quick", action="store_true", help="use the lightweight experiment preset")
    everything.add_argument("--output", type=Path, default=None, help="also write the report to this file")
    _add_workers_argument(everything)
    _add_no_prune_argument(everything)

    scaling = subparsers.add_parser("scaling", help="running-time scaling experiment (E11)")
    scaling.add_argument("--quick", action="store_true")

    ablation = subparsers.add_parser("ablation", help="representative / assignment ablations (E12)")
    ablation.add_argument("--quick", action="store_true")
    _add_workers_argument(ablation)

    sensitivity = subparsers.add_parser(
        "sensitivity", help="outlier / support-size sensitivity sweeps (E13)"
    )
    sensitivity.add_argument("--quick", action="store_true")
    _add_workers_argument(sensitivity)

    bench = subparsers.add_parser(
        "bench", help="run the benchmark suite, write machine-readable timings"
    )
    bench.add_argument(
        "--out",
        "--output",
        dest="out",
        type=Path,
        default=Path("bench.json"),
        help=(
            "JSON document to write (default: bench.json, untracked; name a "
            "BENCH_PR*.json here to record a checked-in trajectory point)"
        ),
    )
    bench.add_argument(
        "--compare",
        type=Path,
        default=None,
        help=(
            "earlier benchmark document (e.g. BENCH_PR5.json) to diff against; "
            "prints a per-case speedup delta table (cases present in only one "
            "document are listed, not errors) and exits with code 3 on >20%% "
            "regressions"
        ),
    )
    bench.add_argument(
        "--case",
        action="append",
        default=None,
        help="run only this case (repeatable); default: every case",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="run only the fast smoke subset of cases (CI's bench step)",
    )

    lint = subparsers.add_parser(
        "lint", help="run the repo-aware static checker (runtime invariants)"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        type=Path,
        default=None,
        help="files/directories to check (default: src/ when present, else .)",
    )
    lint.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (json is schema-tagged repro-lint/1)",
    )
    lint.add_argument(
        "--strict",
        action="store_true",
        help="treat warning-severity findings as gating (exit 1)",
    )
    lint.add_argument(
        "--verbose",
        action="store_true",
        help="also list suppressed findings with their justifications",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule (id, severity, motivating incident) and exit",
    )
    lint.add_argument(
        "--env-table",
        action="store_true",
        help="print the README environment-variable table generated from repro._env and exit",
    )
    lint.add_argument(
        "--no-dataflow",
        action="store_true",
        help="skip the whole-program dataflow pass (fast intra-module mode)",
    )
    lint.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="JSON report (--format json output) of known findings to report without gating",
    )

    solve = subparsers.add_parser("solve", help="solve an instance from a JSON dataset file")
    solve.add_argument("dataset", type=Path, help="JSON file written by UncertainDataset.save_json")
    solve.add_argument("-k", type=int, required=True, help="number of centers")
    solve.add_argument(
        "--objective",
        choices=["restricted", "unrestricted", "metric"],
        default="unrestricted",
        help="which problem version to solve",
    )
    solve.add_argument(
        "--assignment",
        default=None,
        help="assignment rule (expected-distance, expected-point, one-center)",
    )
    solve.add_argument("--solver", default="gonzalez", help="deterministic solver (gonzalez, epsilon, ...)")
    solve.add_argument("--epsilon", type=float, default=0.1, help="epsilon for the (1+eps) solver")
    solve.add_argument("--json", action="store_true", help="print machine-readable JSON instead of text")

    demo = subparsers.add_parser("demo", help="generate a synthetic instance and solve it")
    demo.add_argument("-n", type=int, default=40, help="number of uncertain points")
    demo.add_argument("-z", type=int, default=4, help="locations per point")
    demo.add_argument("-k", type=int, default=3, help="number of centers")
    demo.add_argument("--seed", type=int, default=0)

    serve = subparsers.add_parser(
        "serve", help="run the crash-tolerant solve/score HTTP server"
    )
    serve.add_argument("--host", default=None, help="bind address (default 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=None, help="TCP port (default 8765; 0 = ephemeral)"
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes a solve may use (default 1 = serial)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="concurrent-request cap; excess queues briefly then gets 429 + Retry-After"
        " (default 4, or REPRO_SERVE_MAX_INFLIGHT)",
    )
    serve.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="request-body bound; oversized requests get 413 before any work"
        " (default 8 MiB, or REPRO_SERVE_MAX_BYTES)",
    )
    serve.add_argument(
        "--drain-seconds",
        type=float,
        default=None,
        help="budget for draining in-flight requests on SIGTERM/SIGINT"
        " (default 10, or REPRO_SERVE_DRAIN_SECONDS)",
    )
    serve.add_argument(
        "--store-size",
        type=int,
        default=None,
        help="cost contexts kept hot in the shared store (default 16)",
    )
    serve.add_argument(
        "--prewarm",
        action="append",
        type=Path,
        default=None,
        metavar="DATASET.json",
        help="dataset file whose default-candidate context is built before serving"
        " (repeatable; single-flight, so duplicates are free)",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log every request to stderr"
    )
    return parser


def _cmd_table1(args: argparse.Namespace) -> int:
    settings = Table1Settings.quick() if args.quick else Table1Settings()
    settings = replace(settings, workers=args.workers, prune=not args.no_prune)
    report = render_records(run_all_table1(settings))
    print(report)
    if args.output is not None:
        args.output.write_text(report + "\n")
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    run = run_quick if args.quick else run_everything
    records = run(workers=args.workers, prune=not args.no_prune)
    report = render_full_report(records)
    print(report)
    if args.output is not None:
        args.output.write_text(report + "\n")
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    settings = ScalingSettings.quick() if args.quick else ScalingSettings()
    print(render_record(run_scaling(settings)))
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    settings = AblationSettings.quick() if args.quick else AblationSettings()
    settings = replace(settings, workers=args.workers)
    print(render_record(run_representative_ablation(settings)))
    print()
    print(render_record(run_assignment_ablation(settings)))
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    settings = SensitivitySettings.quick() if args.quick else SensitivitySettings()
    settings = replace(settings, workers=args.workers)
    print(render_record(run_outlier_sensitivity(settings)))
    print()
    print(render_record(run_support_size_sensitivity(settings)))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .runtime.bench import report_comparison, run_bench

    document = run_bench(args.out, cases=args.case, quick=args.quick)
    print(json.dumps(document, indent=2))
    print(f"\nwrote {args.out}", file=sys.stderr)
    if args.compare is not None:
        return report_comparison(document, args.compare)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from ._env import render_readme_table
    from .analysis import (
        apply_baseline,
        lint_paths,
        render_json,
        render_rule_table,
        render_text,
    )

    if args.list_rules:
        print(render_rule_table())
        return 0
    if args.env_table:
        print(render_readme_table())
        return 0
    targets = args.paths or ([Path("src")] if Path("src").is_dir() else [Path(".")])
    report = lint_paths(targets, dataflow=not args.no_dataflow)
    if args.baseline is not None:
        try:
            baseline_document = json.loads(args.baseline.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            report.errors.append(f"cannot read baseline {args.baseline}: {error}")
        else:
            apply_baseline(report, baseline_document)
    if args.format == "json":
        print(render_json(report, strict=args.strict))
    else:
        print(render_text(report, strict=args.strict, verbose=args.verbose))
    return report.exit_code(strict=args.strict)


def _cmd_solve(args: argparse.Namespace) -> int:
    dataset = UncertainDataset.load_json(args.dataset)
    if args.objective == "restricted":
        assignment = args.assignment or "expected-distance"
        result = solve_restricted_assigned(
            dataset, args.k, assignment=assignment, solver=args.solver, epsilon=args.epsilon
        )
    elif args.objective == "unrestricted":
        assignment = args.assignment or "expected-point"
        result = solve_unrestricted_assigned(
            dataset, args.k, assignment=assignment, solver=args.solver, epsilon=args.epsilon
        )
    else:
        assignment = args.assignment or "one-center"
        result = solve_metric_unrestricted(
            dataset, args.k, assignment=assignment, solver=args.solver, epsilon=args.epsilon
        )
    if args.json:
        payload = {
            "centers": result.centers.tolist(),
            "expected_cost": result.expected_cost,
            "objective": result.objective,
            "assignment": None if result.assignment is None else result.assignment.tolist(),
            "assignment_policy": result.assignment_policy,
            "guaranteed_factor": result.guaranteed_factor,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(result.summary())
        for index, center in enumerate(result.centers):
            print(f"  center[{index}] = {center.tolist()}")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    dataset, spec = gaussian_clusters(n=args.n, z=args.z, dimension=2, k_true=args.k, seed=args.seed)
    print(f"workload: {spec.describe()}")
    result = solve_unrestricted_assigned(dataset, args.k, assignment="expected-point", solver="epsilon")
    print(result.summary())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import ReproServer, ServeConfig

    config = ServeConfig.from_env(
        host=args.host,
        port=8765 if args.port is None else args.port,
        workers=args.workers,
        max_inflight=args.max_inflight,
        max_body_bytes=args.max_bytes,
        drain_seconds=args.drain_seconds,
        store_size=args.store_size,
    )
    server = ReproServer(config, verbose=args.verbose)
    if args.prewarm:
        datasets = [UncertainDataset.load_json(path) for path in args.prewarm]
        built = server.prewarm(datasets)
        print(f"prewarmed {built} context(s) for {len(datasets)} dataset(s)", file=sys.stderr)
    return server.run()


_COMMANDS = {
    "table1": _cmd_table1,
    "all": _cmd_all,
    "scaling": _cmd_scaling,
    "ablation": _cmd_ablation,
    "sensitivity": _cmd_sensitivity,
    "bench": _cmd_bench,
    "lint": _cmd_lint,
    "solve": _cmd_solve,
    "demo": _cmd_demo,
    "serve": _cmd_serve,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point used by the console script and ``python -m repro``."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
