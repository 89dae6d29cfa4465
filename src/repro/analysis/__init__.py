"""Repo-aware static analysis: ``python -m repro lint``.

An AST-based rule engine (:mod:`.core`) plus ten repo-specific rules
(:mod:`.rules`) that machine-check the runtime's load-bearing invariants —
shm lifecycle, worker-pool ownership, lock discipline, solver determinism,
hot-path sort policy, env-var registry routing, bound-docstring citations,
the pickle-owner boundary, fault-injection sites and anytime certificates.
Each rule's docstring cites the incident that motivated it;
``python -m repro lint --list-rules`` prints them.

Since PR 7 the default run also assembles every parsed module into a
project symbol table + call graph (:mod:`.dataflow`) and runs two
interprocedural rules — NONDET-FLOW (seeds through call chains) and
SHM-ESCAPE (lease escape analysis); ``--no-dataflow`` preserves the fast
intra-module mode and ``--baseline FILE`` lets new rules land warn-first.

Findings are suppressed per-rule with ``# repro: noqa[RULE-ID] -- why``
comments; the justification text is mandatory.  Exit codes gate CI: 0
clean, 1 findings, 2 usage error.
"""

from .core import (
    Finding,
    LintReport,
    ModuleContext,
    ProjectRule,
    Rule,
    Severity,
    apply_baseline,
    lint_paths,
)
from .dataflow import DATAFLOW_RULE_CLASSES, dataflow_rules
from .reporters import render_json, render_rule_table, render_text
from .rules import RULE_CLASSES, all_rules

__all__ = [
    "DATAFLOW_RULE_CLASSES",
    "Finding",
    "LintReport",
    "ModuleContext",
    "ProjectRule",
    "Rule",
    "RULE_CLASSES",
    "Severity",
    "all_rules",
    "apply_baseline",
    "dataflow_rules",
    "lint_paths",
    "render_json",
    "render_rule_table",
    "render_text",
]
