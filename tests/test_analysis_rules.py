"""Tier-1 tests for the repo-aware static checker (``python -m repro lint``).

Every shipped rule gets one *failing* fixture (a minimal module that must
trigger it — the demonstrated true positive) and one *passing* fixture (the
sanctioned idiom that must stay silent).  Fixture trees mirror the repo
layout (``cost/``, ``runtime/shm.py``, ...) because rules scope themselves
by path parts, so the tmp trees exercise exactly the logic the real tree
does.  On top of the rules: the suppression contract (justification is
mandatory; comment-line-above form; per-rule matching), the JSON reporter
schema, the CLI exit codes, and the self-check that the shipped tree lints
clean.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    LintReport,
    Rule,
    Severity,
    all_rules,
    lint_paths,
    render_json,
    render_rule_table,
    render_text,
)
from repro.analysis.rules import RULE_CLASSES
from repro.analysis.rules.anytime import GapCertificateRule
from repro.analysis.rules.concurrency import (
    LockDisciplineRule,
    PoolOwnerRule,
    ShmLifecycleRule,
)
from repro.analysis.rules.determinism import FloatSortHotpathRule, NondetRule
from repro.analysis.rules.faultpoints import FAULT_KINDS as LINT_FAULT_KINDS, FaultPointRule
from repro.analysis.rules.hygiene import (
    BoundAdmissibleDocRule,
    EnvRegistryRule,
    PickleOwnerRule,
)
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint_fixture(tmp_path: Path, rel_path: str, source: str, rule: Rule | None = None) -> LintReport:
    """Write ``source`` at ``tmp_path/rel_path`` and lint the tree."""
    file = tmp_path / rel_path
    file.parent.mkdir(parents=True, exist_ok=True)
    file.write_text(textwrap.dedent(source))
    rules = None if rule is None else [rule]
    return lint_paths([tmp_path], rules=rules)


def rule_ids(report: LintReport) -> list[str]:
    return [finding.rule for finding in report.findings]


class TestShmLifecycleRule:
    def test_flags_bare_create_outside_owner(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "experiments/grab.py",
            """
            from multiprocessing import shared_memory

            def grab(nbytes):
                return shared_memory.SharedMemory(name="x", create=True, size=nbytes)
            """,
            ShmLifecycleRule(),
        )
        assert rule_ids(report) == ["SHM-LIFECYCLE"]
        assert "outside runtime/shm.py" in report.findings[0].message

    def test_flags_deferred_lease_inside_owner(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "runtime/shm.py",
            """
            from multiprocessing import shared_memory

            def publish(nbytes, blob):
                segment = shared_memory.SharedMemory(name="x", create=True, size=nbytes)
                segment.buf[: len(blob)] = blob  # raises here -> orphaned segment
                lease = SegmentLease(segment)
                return lease
            """,
            ShmLifecycleRule(),
        )
        assert rule_ids(report) == ["SHM-LIFECYCLE"]
        assert "immediately" in report.findings[0].message

    def test_immediate_lease_passes(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "runtime/shm.py",
            """
            from multiprocessing import shared_memory

            def publish(nbytes, blob):
                segment = shared_memory.SharedMemory(name="x", create=True, size=nbytes)
                lease = SegmentLease(segment)
                segment.buf[: len(blob)] = blob
                return lease

            def attach(name):
                # attach (no create=True) is not a lifecycle event
                return shared_memory.SharedMemory(name=name)
            """,
            ShmLifecycleRule(),
        )
        assert report.findings == []


class TestPoolOwnerRule:
    @pytest.mark.parametrize(
        "imports, pool",
        [
            ("from concurrent.futures import ProcessPoolExecutor", "ProcessPoolExecutor(4)"),
            ("import multiprocessing", "multiprocessing.Pool(2)"),
        ],
    )
    def test_flags_pool_outside_owner(self, tmp_path, imports, pool):
        report = lint_fixture(
            tmp_path,
            "experiments/adhoc.py",
            f"""
            {imports}

            def fanout(work):
                with {pool} as pool:
                    return list(pool.map(len, work))
            """,
            PoolOwnerRule(),
        )
        assert rule_ids(report) == ["POOL-OWNER"]
        assert "outside runtime/pool.py" in report.findings[0].message

    def test_owners_pass(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "runtime/pool.py",
            """
            from concurrent.futures import ProcessPoolExecutor

            def build(workers, initializer, initargs):
                return ProcessPoolExecutor(workers, initializer=initializer, initargs=initargs)
            """,
            PoolOwnerRule(),
        )
        assert report.findings == []


class TestLockDisciplineRule:
    def test_flags_blocking_call_under_lock(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "runtime/hold.py",
            """
            import time

            def hold(lock):
                with lock:
                    time.sleep(0.1)
            """,
            LockDisciplineRule(),
        )
        assert rule_ids(report) == ["LOCK-DISCIPLINE"]
        assert "blocking" in report.findings[0].message

    def test_locked_read_passes(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "runtime/peek.py",
            """
            def read(state):
                with state.lock:
                    return dict(state.counts)
            """,
            LockDisciplineRule(),
        )
        assert report.findings == []

    def test_condition_wait_needs_a_justified_suppression(self, tmp_path):
        # Condition.wait releases its lock while it blocks, which the rule
        # cannot see; the admission queue in serve/state.py says so inline.
        source = """
            def admit(self):
                with self._lock:
                    while self.full():
                        self._slot_freed.wait(timeout=1.0){suffix}
            """
        flagged = lint_fixture(
            tmp_path, "serve/state.py", source.format(suffix=""), LockDisciplineRule()
        )
        assert rule_ids(flagged) == ["LOCK-DISCIPLINE"]
        justified = lint_fixture(
            tmp_path,
            "serve/state.py",
            source.format(
                suffix="  # repro: noqa[LOCK-DISCIPLINE] -- Condition.wait releases the lock"
            ),
            LockDisciplineRule(),
        )
        assert justified.findings == []
        assert len(justified.suppressed) == 1


class TestFloatSortHotpathRule:
    def test_flags_sort_in_hot_directory(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "cost/kernel.py",
            """
            def sweep(values):
                values.sort()
                return sorted(values)
            """,
            FloatSortHotpathRule(),
        )
        assert rule_ids(report) == ["FLOAT-SORT-HOTPATH", "FLOAT-SORT-HOTPATH"]

    def test_reference_twin_and_cold_path_pass(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "cost/kernel.py",
            """
            def _sweep_float_sort_reference(values):
                return sorted(values)
            """,
            FloatSortHotpathRule(),
        )
        assert report.findings == []
        report = lint_fixture(
            tmp_path,
            "io/tables.py",
            """
            def render(rows):
                return sorted(rows)
            """,
            FloatSortHotpathRule(),
        )
        assert report.findings == []


class TestNondetRule:
    def test_flags_wall_clock_unseeded_rng_and_set_iteration(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "algorithms/solver.py",
            """
            import time
            import numpy as np

            def solve(options):
                start = time.time()
                rng = np.random.default_rng()
                return start, rng, [item for item in {1, 2, 3}]
            """,
            NondetRule(),
        )
        assert rule_ids(report) == ["NONDET"] * 3
        messages = " ".join(finding.message for finding in report.findings)
        assert "wall clock" in messages and "UNSEEDED" in messages and "hash order" in messages

    def test_seeded_rng_and_monotonic_timing_pass(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "algorithms/solver.py",
            """
            import time
            import numpy as np

            def solve(seed, options):
                start = time.perf_counter()
                rng = np.random.default_rng(seed)
                return start, rng, sorted({1, 2, 3})
            """,
            NondetRule(),
        )
        assert report.findings == []

    def test_outside_solver_directories_is_ignored(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "workloads/noise.py",
            """
            import numpy as np

            def noise():
                return np.random.default_rng()
            """,
            NondetRule(),
        )
        assert report.findings == []


class TestEnvRegistryRule:
    def test_flags_direct_reads_outside_owner(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "runtime/knobs.py",
            """
            import os
            from os import environ

            def knobs():
                return os.environ.get("REPRO_SHM"), os.getenv("REPRO_SHM"), environ["REPRO_SHM"]
            """,
            EnvRegistryRule(),
        )
        assert rule_ids(report) == ["ENV-REGISTRY"] * 3

    def test_owner_passes(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "repro/_env.py",
            """
            import os

            def env_raw(name):
                return os.environ.get(name)
            """,
            EnvRegistryRule(),
        )
        assert report.findings == []


class TestBoundAdmissibleDocRule:
    def test_flags_missing_and_citation_free_docstrings(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "bounds/lower_bounds.py",
            """
            def naked_bound(context):
                return context.best()

            def vague_bound(context):
                '''Returns a pretty good value.'''
                return context.best()
            """,
            BoundAdmissibleDocRule(),
        )
        assert rule_ids(report) == ["BOUND-ADMISSIBLE-DOC"] * 2

    def test_cited_and_private_functions_pass(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "bounds/lower_bounds.py",
            """
            def cited_bound(context):
                '''Admissible by the Lemma 3.2 subset-wise argument.'''
                return context.best()

            def _helper(context):
                return context.best()
            """,
            BoundAdmissibleDocRule(),
        )
        assert report.findings == []

    def test_flags_undocumented_bound_method_in_context(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "cost/context.py",
            """
            class CostContext:
                def subset_fancy_lower_bounds(self, rows):
                    '''Returns a pretty good value.'''
                    return rows

                def subset_cited_lower_bounds(self, rows):
                    '''Admissible by Jensen applied to the max.'''
                    return rows

                def _private_lower_bounds(self, rows):
                    return rows

                def unrelated(self, rows):
                    return rows
            """,
            BoundAdmissibleDocRule(),
        )
        assert rule_ids(report) == ["BOUND-ADMISSIBLE-DOC"]
        assert "subset_fancy_lower_bounds" in report.findings[0].message


class TestGapCertificateRule:
    def test_flags_gap_target_solver_without_certificate(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "baselines/solver.py",
            """
            def solve(dataset, k, *, gap_target=None):
                best = enumerate_everything(dataset, k, gap_target)
                return UncertainKCenterResult(cost=best, metadata={})
            """,
            GapCertificateRule(),
        )
        assert rule_ids(report) == ["GAP-CERTIFICATE"]

    def test_certificate_fold_passes(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "baselines/solver.py",
            """
            def solve(dataset, k, *, gap_target=None):
                best, skipped = enumerate_everything(dataset, k, gap_target)
                metadata = {"certificate": _deadline_certificate(best, skipped)}
                return UncertainKCenterResult(cost=best, metadata=metadata)
            """,
            GapCertificateRule(),
        )
        assert report.findings == []

    def test_functions_without_gap_target_or_result_stay_silent(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "baselines/solver.py",
            """
            def no_gap(dataset, k):
                return UncertainKCenterResult(cost=1.0, metadata={})

            def no_result(dataset, k, *, gap_target=None):
                return enumerate_everything(dataset, k, gap_target)
            """,
            GapCertificateRule(),
        )
        assert report.findings == []


class TestPickleOwnerRule:
    def test_flags_pickle_outside_owners(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "experiments/cache.py",
            """
            import pickle

            def load(root, blob):
                name = root / "payload.ctx"  # a path literal is not a pickle call
                return name, pickle.loads(blob)
            """,
            PickleOwnerRule(),
        )
        assert rule_ids(report) == ["PICKLE-OWNER"]
        assert "pickle.loads()" in report.findings[0].message

    def test_transport_owner_passes(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "runtime/shm.py",
            """
            import pickle

            def describe(structure):
                return pickle.dumps(structure)
            """,
            PickleOwnerRule(),
        )
        assert report.findings == []

    def test_store_is_not_an_owner(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "runtime/store.py",
            """
            import pickle

            def read(path):
                return pickle.loads(path.read_bytes())
            """,
            PickleOwnerRule(),
        )
        assert rule_ids(report) == ["PICKLE-OWNER"]


class TestSuppressions:
    FIXTURE = """
    def sweep(values):
        values.sort(){noqa}
        return values
    """

    def _lint(self, tmp_path, noqa: str) -> LintReport:
        return lint_fixture(
            tmp_path,
            "cost/kernel.py",
            self.FIXTURE.format(noqa=noqa),
            FloatSortHotpathRule(),
        )

    def test_justified_suppression_waives_the_finding(self, tmp_path):
        report = self._lint(
            tmp_path, "  # repro: noqa[FLOAT-SORT-HOTPATH] -- integer keys by construction"
        )
        assert report.findings == []
        assert len(report.suppressed) == 1
        assert report.suppressed[0].justification == "integer keys by construction"
        assert report.exit_code() == 0

    def test_bare_noqa_does_not_suppress(self, tmp_path):
        report = self._lint(tmp_path, "  # repro: noqa[FLOAT-SORT-HOTPATH]")
        assert rule_ids(report) == ["FLOAT-SORT-HOTPATH"]
        assert "missing the required" in report.findings[0].message
        assert report.exit_code() == 1

    def test_wrong_rule_id_does_not_suppress(self, tmp_path):
        report = self._lint(tmp_path, "  # repro: noqa[NONDET] -- wrong rule entirely")
        assert rule_ids(report) == ["FLOAT-SORT-HOTPATH"]

    def test_comment_line_above_applies_to_next_line(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "cost/kernel.py",
            """
            def sweep(values):
                # repro: noqa[FLOAT-SORT-HOTPATH] -- waiver rides above the long call
                values.sort()
                return values
            """,
            FloatSortHotpathRule(),
        )
        assert report.findings == []
        assert len(report.suppressed) == 1


class TestFaultPointRule:
    def test_registered_reachable_runtime_site_is_clean(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "runtime/pool.py",
            """
            from .. import faults

            def _dispatch(args):
                faults.inject("crash", "pool.dispatch", token=args)
                return args

            def run(executor, items):
                return executor.submit(_dispatch, items)
            """,
            FaultPointRule(),
        )
        assert report.findings == []

    def test_unregistered_kind_is_flagged(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "runtime/pool.py",
            """
            from .. import faults

            def run(args):
                faults.inject("meteor", "pool.dispatch")
                return args
            """,
            FaultPointRule(),
        )
        assert rule_ids(report) == ["FAULT-POINT"]
        assert "unregistered" in report.findings[0].message

    def test_non_literal_kind_is_flagged(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "runtime/pool.py",
            """
            from .. import faults

            def run(kind, args):
                faults.inject(kind, "pool.dispatch")
                return args
            """,
            FaultPointRule(),
        )
        assert rule_ids(report) == ["FAULT-POINT"]
        assert "string literal" in report.findings[0].message

    def test_site_outside_runtime_is_flagged(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "cost/kernel.py",
            """
            from .. import faults

            def sweep(values):
                faults.inject("slow", "cost.sweep")
                return values
            """,
            FaultPointRule(),
        )
        assert rule_ids(report) == ["FAULT-POINT"]
        assert "outside repro/runtime" in report.findings[0].message

    def test_unreachable_site_is_flagged(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "runtime/pool.py",
            """
            from .. import faults

            def _orphan(args):
                faults.inject("crash", "pool.orphan")
                return args

            def run(items):
                return list(items)
            """,
            FaultPointRule(),
        )
        assert rule_ids(report) == ["FAULT-POINT"]
        assert "not reachable" in report.findings[0].message

    def test_bare_inject_import_is_recognized(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "runtime/shm.py",
            """
            from ..faults import inject

            def attach(name):
                inject("meteor", "shm.attach")
                return name
            """,
            FaultPointRule(),
        )
        assert rule_ids(report) == ["FAULT-POINT"]

    def test_kinds_mirror_pins_the_faults_registry(self):
        """The linter's stdlib-only mirror must track repro.faults.FAULT_KINDS."""
        from repro.faults import FAULT_KINDS

        assert LINT_FAULT_KINDS == FAULT_KINDS

    def test_shipped_injection_sites_are_reachable_and_registered(self):
        report = lint_paths([REPO_ROOT / "src" / "repro" / "runtime"], rules=[FaultPointRule()])
        assert report.findings == []


class TestEngineAndReporters:
    def test_every_rule_ships_with_id_summary_and_motivation(self):
        assert len(RULE_CLASSES) == 10
        seen = set()
        for rule in all_rules():
            assert rule.id and rule.id not in seen
            seen.add(rule.id)
            assert rule.summary
            assert rule.__class__.__doc__ and "Motivation" in rule.__class__.__doc__
            assert rule.id in render_rule_table()

    def test_json_reporter_schema(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "cost/kernel.py",
            """
            def sweep(values):
                values.sort()
                return sorted(values)  # repro: noqa[FLOAT-SORT-HOTPATH] -- test waiver
            """,
            FloatSortHotpathRule(),
        )
        document = json.loads(render_json(report))
        assert document["schema"] == "repro-lint/1"
        assert document["files"] == 1
        assert document["exit_code"] == 1
        assert document["counts"] == {
            "error": 1,
            "warning": 0,
            "suppressed": 1,
            "baselined": 0,
        }
        (finding,) = document["findings"]
        assert set(finding) == {"rule", "severity", "path", "line", "col", "message"}
        assert finding["rule"] == "FLOAT-SORT-HOTPATH"
        (suppressed,) = document["suppressed"]
        assert suppressed["justification"] == "test waiver"

    def test_exit_codes(self, tmp_path):
        class WarnRule(Rule):
            id = "TEST-WARN"
            severity = Severity.WARNING
            summary = "test-only warning rule"

            def check(self, module):
                for node in module.walk(ast.FunctionDef):
                    yield self.finding(module, node, "warning finding")

        report = lint_fixture(tmp_path, "pkg/mod.py", "def f():\n    return 1\n", WarnRule())
        assert report.exit_code(strict=False) == 0  # warnings do not gate by default
        assert report.exit_code(strict=True) == 1  # --strict promotes them
        missing = lint_paths([tmp_path / "no-such-dir"])
        assert missing.exit_code() == 2

    def test_unparseable_file_is_a_usage_error(self, tmp_path):
        (tmp_path / "broken.py").write_text("def broken(:\n")
        report = lint_paths([tmp_path])
        assert report.errors and report.exit_code() == 2

    def test_text_reporter_mentions_tally_and_clean(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        report = lint_paths([tmp_path])
        text = render_text(report)
        assert "checked 1 file(s)" in text and "clean." in text


class TestCli:
    def test_list_rules_and_env_table(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "FLOAT-SORT-HOTPATH" in out and "Motivation" in out
        assert main(["lint", "--env-table"]) == 0
        out = capsys.readouterr().out
        assert "REPRO_SHM" in out and out.startswith("| Variable")

    def test_lint_json_format_on_fixture(self, tmp_path, capsys):
        file = tmp_path / "cost" / "kernel.py"
        file.parent.mkdir(parents=True)
        file.write_text("def f(values):\n    values.sort()\n")
        assert main(["lint", str(tmp_path), "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro-lint/1"
        assert document["findings"]

    def test_shipped_tree_lints_clean(self):
        """The acceptance self-check: ``python -m repro lint src/`` exits 0."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "src"],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "clean." in result.stdout

    def test_shipped_tree_has_justified_suppressions_only(self):
        """Every waiver in the shipped tree carries its justification."""
        report = lint_paths([REPO_ROOT / "src"])
        assert report.findings == []
        assert report.errors == []
        assert len(report.suppressed) >= 7
        for suppressed in report.suppressed:
            assert suppressed.justification
