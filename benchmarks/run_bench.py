#!/usr/bin/env python
"""Standalone entry point for the machine-readable benchmark runner.

Equivalent to ``python -m repro bench``; see :mod:`repro.runtime.bench` for
the case registry.  Writes the untracked ``bench.json`` (name a checked-in
``BENCH_PR*.json`` with ``--out`` to record a trajectory point), and
``--compare`` diffs the fresh run against an earlier document (cases present
in only one document are listed, not errors), exiting with code 3 on >20%
regressions — distinct from crashes so CI can warn on the former and gate on
the latter::

    PYTHONPATH=src python benchmarks/run_bench.py
    PYTHONPATH=src python benchmarks/run_bench.py --compare BENCH_PR5.json
    PYTHONPATH=src python benchmarks/run_bench.py --quick --out /tmp/bench.json
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", "--output", dest="out", default="bench.json", help="JSON document to write"
    )
    parser.add_argument(
        "--compare",
        default=None,
        help="earlier benchmark JSON to diff against (nonzero exit on >20%% regressions)",
    )
    parser.add_argument(
        "--case", action="append", default=None, help="run only this case (repeatable)"
    )
    parser.add_argument(
        "--quick", action="store_true", help="run only the fast smoke subset of cases"
    )
    args = parser.parse_args(argv)

    from repro.runtime.bench import report_comparison, run_bench

    document = run_bench(args.out, cases=args.case, quick=args.quick)
    print(json.dumps(document, indent=2))
    print(f"wrote {args.out}", file=sys.stderr)
    if args.compare is not None:
        return report_comparison(document, args.compare)
    return 0


if __name__ == "__main__":
    sys.exit(main())
