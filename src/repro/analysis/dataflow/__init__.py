"""Whole-program dataflow pass for ``python -m repro lint``.

Parses the target tree once into a :class:`~.project.Project` (module
table, per-module symbol tables, import-alias resolution, best-effort
call resolution) and runs the interprocedural rules in :mod:`.rules`:
``NONDET-FLOW`` (seeds through call chains) and ``SHM-ESCAPE`` (lease
escape analysis).

These registries are deliberately separate from
``repro.analysis.rules.RULE_CLASSES`` — the intra-module rule set is a
pinned public contract, and ``--no-dataflow`` must be able to drop this
entire pass without touching it.
"""

from .project import Project, ProjectModule, Resolved, module_name_for
from .rules import (
    DATAFLOW_RULE_CLASSES,
    NondetFlowRule,
    ShmEscapeRule,
    dataflow_rules,
)

__all__ = [
    "DATAFLOW_RULE_CLASSES",
    "NondetFlowRule",
    "Project",
    "ProjectModule",
    "Resolved",
    "ShmEscapeRule",
    "dataflow_rules",
    "module_name_for",
]
