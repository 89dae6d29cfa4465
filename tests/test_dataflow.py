"""Tier-1 tests for the whole-program dataflow pass (`repro lint` PR 7).

Every interprocedural rule gets one *failing* multi-file fixture tree (the
cross-module bug the intra-module rules of PR 6 cannot see — that is the
point of the pass) and one *passing* tree (the sanctioned idiom, which must
stay silent).  On top of the rules: the project model's import resolution,
the suppression contract applied to dataflow findings, the ``--no-dataflow``
fast mode, and the ``--baseline`` warn-first landing path
(:func:`repro.analysis.apply_baseline`).
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.analysis import (
    LintReport,
    apply_baseline,
    lint_paths,
    render_json,
    render_rule_table,
)
from repro.analysis.dataflow import (
    DATAFLOW_RULE_CLASSES,
    NondetFlowRule,
    ShmEscapeRule,
    dataflow_rules,
)
from repro.analysis.dataflow.project import Project
from repro.analysis.core import parse_module
from repro.analysis.rules import RULE_CLASSES
from repro.cli import main


def write_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    for rel_path, source in files.items():
        file = tmp_path / rel_path
        file.parent.mkdir(parents=True, exist_ok=True)
        file.write_text(textwrap.dedent(source))
    return tmp_path


def lint_tree(
    tmp_path: Path, files: dict[str, str], rule=None, *, dataflow: bool = True
) -> LintReport:
    write_tree(tmp_path, files)
    rules = None if rule is None else [rule]
    return lint_paths([tmp_path], rules=rules, dataflow=dataflow)


def rule_ids(report: LintReport) -> list[str]:
    return [finding.rule for finding in report.findings]


#: A solver that reaches an unseeded RNG only through a helper module —
#: invisible to the intra-module NONDET rule, the NONDET-FLOW true positive.
NONDET_CHAIN_TREE = {
    "pkg/helpers.py": """
        from numpy.random import default_rng

        def make_rng():
            return default_rng()

        def fresh_values(count):
            return make_rng().normal(size=count)
        """,
    "algorithms/solver.py": """
        from pkg.helpers import fresh_values

        def solve(points):
            return fresh_values(len(points))
        """,
}

#: The same shape with the seed threaded through every hop — must be silent.
NONDET_SEEDED_TREE = {
    "pkg/helpers.py": """
        from numpy.random import default_rng

        def make_rng(seed):
            return default_rng(seed)

        def fresh_values(count, seed):
            return make_rng(seed).normal(size=count)
        """,
    "algorithms/solver.py": """
        from pkg.helpers import fresh_values

        def solve(points, seed):
            return fresh_values(len(points), seed)
        """,
}


class TestNondetFlowRule:
    def test_flags_cross_module_chain_to_unseeded_rng(self, tmp_path):
        report = lint_tree(tmp_path, NONDET_CHAIN_TREE, NondetFlowRule())
        assert rule_ids(report) == ["NONDET-FLOW"]
        finding = report.findings[0]
        assert finding.path.endswith("algorithms/solver.py")
        message = finding.message
        assert "call to 'fresh_values' reaches an unseeded default_rng()" in message
        # The full witness chain, hop by hop, lands in the message.
        assert "pkg/helpers.py:fresh_values" in message
        assert "pkg/helpers.py:make_rng" in message
        assert "default_rng() at line" in message

    def test_seeded_chain_is_silent(self, tmp_path):
        report = lint_tree(tmp_path, NONDET_SEEDED_TREE, NondetFlowRule())
        assert report.findings == []

    def test_direct_default_rng_left_to_intra_module_rule(self, tmp_path):
        # A direct default_rng() call in a solver file belongs to NONDET,
        # not NONDET-FLOW — no double reporting.
        report = lint_tree(
            tmp_path,
            {
                "algorithms/direct.py": """
                from numpy.random import default_rng

                def solve(points):
                    return default_rng().choice(points)
                """
            },
            NondetFlowRule(),
        )
        assert report.findings == []

    def test_flags_dropped_seed_parameter(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "pkg/sampler.py": """
                from numpy.random import default_rng

                def sample(points, seed):
                    values = default_rng()
                    return values.choice(points)
                """
            },
            NondetFlowRule(),
        )
        assert rule_ids(report) == ["NONDET-FLOW"]
        message = report.findings[0].message
        assert "'sample' accepts 'seed' but never reads it" in message
        assert "the caller's seed cannot reach the generator" in message

    def test_forwarded_seed_parameter_is_silent(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "pkg/sampler.py": """
                from numpy.random import default_rng

                def sample(points, seed):
                    values = default_rng(seed)
                    return values.choice(points)
                """
            },
            NondetFlowRule(),
        )
        assert report.findings == []


#: A lease producer plus a caller that leaks on every call — SHM-ESCAPE's
#: true positive is the *call site*, one module away from the constructor.
SHM_LEAK_TREE = {
    "runtime/shmlib.py": """
        class SegmentLease:
            def __init__(self, segment):
                self.name = segment.name

            def close(self):
                pass

        def pack(arrays, allocate):
            segment = allocate(arrays)
            lease = SegmentLease(segment)
            return ({"name": lease.name}, lease)
        """,
    "experiments/user.py": """
        from runtime.shmlib import pack

        def discards(arrays, allocate):
            pack(arrays, allocate)
            return None

        def binds_and_forgets(arrays, allocate):
            payload, lease = pack(arrays, allocate)
            return payload
        """,
}

#: The sanctioned consumption idiom: bind, use, close in a ``finally``.
SHM_CAREFUL_TREE = {
    "runtime/shmlib.py": SHM_LEAK_TREE["runtime/shmlib.py"],
    "experiments/user.py": """
        from runtime.shmlib import pack

        def careful(arrays, allocate, consume):
            payload, lease = pack(arrays, allocate)
            try:
                return consume(payload)
            finally:
                lease.close()
        """,
}


class TestShmEscapeRule:
    def test_flags_discarded_and_forgotten_leases(self, tmp_path):
        report = lint_tree(tmp_path, SHM_LEAK_TREE, ShmEscapeRule())
        assert rule_ids(report) == ["SHM-ESCAPE", "SHM-ESCAPE"]
        discarded, forgotten = report.findings
        assert discarded.path.endswith("experiments/user.py")
        assert "is discarded" in discarded.message
        assert "the segment can never be unlinked" in discarded.message
        assert "bound to 'lease' but 'lease' is never read afterwards" in forgotten.message

    def test_close_in_finally_is_silent(self, tmp_path):
        report = lint_tree(tmp_path, SHM_CAREFUL_TREE, ShmEscapeRule())
        assert report.findings == []

    def test_rereturning_the_lease_moves_ownership(self, tmp_path):
        # Forwarding the lease to *its own* caller is consumption here; the
        # new call site is then checked in turn (and consumes it properly).
        tree = {
            "runtime/shmlib.py": SHM_LEAK_TREE["runtime/shmlib.py"],
            "experiments/user.py": """
                from runtime.shmlib import pack

                def repack(arrays, allocate):
                    payload, lease = pack(arrays, allocate)
                    return payload, lease

                def top(arrays, allocate):
                    payload, lease = repack(arrays, allocate)
                    lease.close()
                    return payload
                """,
        }
        report = lint_tree(tmp_path, tree, ShmEscapeRule())
        assert report.findings == []


class TestProjectModel:
    def test_resolves_imports_aliases_and_methods(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/impl.py": """
                class Widget:
                    def spin(self):
                        return self.turn()

                    def turn(self):
                        return 1

                def helper():
                    return 2
                """,
                "pkg/front.py": """
                from . import impl
                from .impl import helper as aliased

                def call_both():
                    return impl.helper() + aliased()
                """,
            },
        )
        contexts = {
            str(path): parse_module(path) for path in sorted(tmp_path.rglob("*.py"))
        }
        project = Project(contexts)
        front = next(m for m in project if m.context.path.endswith("front.py"))
        import ast

        calls = [n for n in front.context.walk(ast.Call)]
        resolved = {front.context.call_name(c): project.resolve_call(front, c) for c in calls}
        assert resolved["impl.helper"] is not None
        assert resolved["impl.helper"].qualname == "helper"
        assert resolved["aliased"] is not None
        assert resolved["aliased"].key == resolved["impl.helper"].key
        impl = resolved["aliased"].module
        # self.method resolves against the enclosing class.
        spin = impl.functions["Widget.spin"]
        (turn_call,) = [n for n in ast.walk(spin) if isinstance(n, ast.Call)]
        turn = project.resolve_call(impl, turn_call)
        assert turn is not None and turn.qualname == "Widget.turn"

    def test_dataflow_registry_is_separate_from_intra_module_rules(self):
        # The intra-module registry (PR 6's eight plus PR 8's FAULT-POINT
        # and PR 10's GAP-CERTIFICATE) stays separate from the
        # interprocedural rules, which ship in their own registry and only
        # join in the (default) dataflow mode.
        assert len(RULE_CLASSES) == 10
        assert len(DATAFLOW_RULE_CLASSES) == 2
        assert {rule.id for rule in dataflow_rules()} == {"NONDET-FLOW", "SHM-ESCAPE"}
        table = render_rule_table()
        assert "NONDET-FLOW" in table and "(dataflow)" in table


class TestSuppressionAndModes:
    def test_dataflow_finding_suppressed_with_justification(self, tmp_path):
        tree = dict(NONDET_CHAIN_TREE)
        tree["algorithms/solver.py"] = """
            from pkg.helpers import fresh_values

            def solve(points):
                # repro: noqa[NONDET-FLOW] -- fixture exercising the waiver path
                return fresh_values(len(points))
            """
        report = lint_tree(tmp_path, tree, NondetFlowRule())
        assert report.findings == []
        assert [s.finding.rule for s in report.suppressed] == ["NONDET-FLOW"]
        assert "waiver path" in report.suppressed[0].justification

    def test_no_dataflow_skips_project_pass(self, tmp_path):
        report = lint_tree(tmp_path, NONDET_CHAIN_TREE, dataflow=False)
        assert "NONDET-FLOW" not in rule_ids(report)

    def test_cli_no_dataflow_flag(self, tmp_path, capsys):
        write_tree(tmp_path, NONDET_CHAIN_TREE)
        assert main(["lint", str(tmp_path)]) == 1
        assert main(["lint", str(tmp_path), "--no-dataflow"]) == 0
        capsys.readouterr()


class TestBaseline:
    def test_apply_baseline_moves_known_findings(self, tmp_path, capsys):
        report = lint_tree(tmp_path, NONDET_CHAIN_TREE)
        assert report.exit_code() == 1
        baseline = json.loads(render_json(report))
        fresh = lint_paths([tmp_path])
        apply_baseline(fresh, baseline)
        assert fresh.findings == []
        assert [finding.rule for finding in fresh.baselined] == ["NONDET-FLOW"]
        assert fresh.exit_code() == 0
        assert fresh.exit_code(strict=True) == 0
        assert fresh.counts()["baselined"] == 1

    def test_baseline_budget_is_per_rule_and_path_not_line(self, tmp_path):
        report = lint_tree(tmp_path, NONDET_CHAIN_TREE)
        (finding,) = report.findings
        # Same (rule, path), wrong line: still matches — edits that shift a
        # known finding around the file must not resurrect it.
        budget_entry = {"rule": finding.rule, "path": finding.path, "line": 9999}
        fresh = lint_paths([tmp_path])
        apply_baseline(fresh, {"findings": [budget_entry]})
        assert fresh.findings == [] and len(fresh.baselined) == 1
        # A second finding of the pair would exceed the count-1 budget.
        fresh = lint_paths([tmp_path])
        fresh.findings = fresh.findings * 2
        apply_baseline(fresh, {"findings": [budget_entry]})
        assert len(fresh.baselined) == 1 and len(fresh.findings) == 1

    def test_cli_baseline_warns_first(self, tmp_path, capsys):
        tree_dir = tmp_path / "tree"
        write_tree(tree_dir, NONDET_CHAIN_TREE)
        assert main(["lint", str(tree_dir), "--format", "json"]) == 1
        baseline_file = tmp_path / "baseline.json"
        baseline_file.write_text(capsys.readouterr().out)
        assert main(["lint", str(tree_dir), "--baseline", str(baseline_file)]) == 0
        out = capsys.readouterr().out
        assert "baselined" in out

    def test_unreadable_baseline_is_a_usage_error(self, tmp_path, capsys):
        tree_dir = tmp_path / "tree"
        write_tree(tree_dir, NONDET_SEEDED_TREE)
        assert main(["lint", str(tree_dir), "--baseline", str(tmp_path / "nope.json")]) == 2
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{not json")
        assert main(["lint", str(tree_dir), "--baseline", str(garbage)]) == 2
        capsys.readouterr()


class TestShippedTree:
    def test_shipped_tree_passes_dataflow_lint(self):
        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        report = lint_paths([src])
        assert report.errors == []
        assert report.findings == []
