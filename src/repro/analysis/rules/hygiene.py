"""Hygiene rules: env registry, bound docstring citations, pickle/spill-path boundary."""

from __future__ import annotations

import ast
import re
from typing import Iterator

from ..core import Finding, ModuleContext, Rule, Severity

#: The one module allowed to read the process environment.
ENV_OWNER = "repro/_env.py"

#: Modules that legitimately serialize runtime payloads.
SERIALIZATION_OWNERS = (
    "runtime/store.py",
    "runtime/shm.py",
    "runtime/pool.py",
    "runtime/parallel.py",
)

#: The one module allowed to touch context files (``*.ctx``) directly.
SPILL_OWNER = "runtime/store.py"

#: What counts as a lemma citation in a bound docstring.
_CITATION_PATTERN = re.compile(r"Lemma\s+\d+\.\d+|[Aa]dmissib")


class EnvRegistryRule(Rule):
    """``ENV-REGISTRY`` — environment reads go through ``repro._env``.

    Motivation: by PR 5 the runtime honored five ``REPRO_*`` variables whose
    only inventory was a hand-maintained README table — the classic setup
    for doc drift and for knobs nobody remembers shipping.  Every read now
    goes through the typed accessors in :mod:`repro._env`, which refuse
    undeclared names; the README table is *generated* from the registry and
    a tier-1 test pins it.  This rule flags any direct ``os.environ`` /
    ``os.getenv`` access outside ``_env.py`` — including reads of variables
    that *are* registered, because the accessor is what keeps the registry
    complete.  Whole-environment copies for subprocess spawning
    (``dict(os.environ)``) are the one legitimate pattern; they carry a
    justified suppression rather than an exemption so each one stays
    visible in review.
    """

    id = "ENV-REGISTRY"
    severity = Severity.ERROR
    summary = "os.environ/os.getenv outside repro/_env.py"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if module.path_endswith(ENV_OWNER):
            return
        bare_imports = self._bare_os_imports(module)
        message = (
            "direct environment access outside repro._env — declare the"
            " variable in the registry and read it through env_flag/env_str/"
            "env_number so the README table cannot drift"
        )
        for node in module.walk(ast.Attribute, ast.Name):
            if isinstance(node, ast.Attribute):
                if module.dotted_name(node) in ("os.environ", "os.getenv"):
                    yield self.finding(module, node, message)
            elif node.id in bare_imports and isinstance(node.ctx, ast.Load):
                yield self.finding(module, node, message)

    @staticmethod
    def _bare_os_imports(module: ModuleContext) -> frozenset[str]:
        """Names bound by ``from os import environ`` / ``getenv``."""
        names: set[str] = set()
        for node in module.walk(ast.ImportFrom):
            if node.module == "os":
                names.update(
                    alias.asname or alias.name
                    for alias in node.names
                    if alias.name in ("environ", "getenv")
                )
        return frozenset(names)


class BoundAdmissibleDocRule(Rule):
    """``BOUND-ADMISSIBLE-DOC`` — bound kernels must cite their lemma.

    Motivation: PR 5's exactness argument rests entirely on the bounds being
    *admissible* — every function ``bounds/lower_bounds.py`` exports is a
    load-bearing piece of a proof, and the reviewer's only defense against a
    plausible-looking inadmissible "bound" sneaking in is the docstring
    stating which lemma makes it one (the Lemma 3.2 subset-wise argument,
    the ``E[min]``-not-``min E`` distinction, the prune-margin slack).  This
    rule requires every public function defined in ``bounds/lower_bounds.py``
    to carry a docstring containing a lemma citation (``Lemma <n>.<m>``) or
    an explicit admissibility statement.

    Since PR 10 the bound *kernels* live on :class:`~repro.cost.context.
    CostContext` (the ``bounds`` module delegates so the bound can read the
    context's cached tables), so the same requirement applies to every
    public ``*_lower_bounds``-named method in ``cost/context.py`` — moving
    a bound behind a method must not move it out from under review.
    """

    id = "BOUND-ADMISSIBLE-DOC"
    severity = Severity.ERROR
    summary = "exported bounds (lower_bounds.py functions, context *_lower_bounds methods) need lemma citations"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if module.path_endswith("bounds/lower_bounds.py"):
            yield from self._check_functions(module, self._top_level_functions(module))
        elif module.path_endswith("cost/context.py"):
            yield from self._check_functions(module, self._bound_methods(module))

    @staticmethod
    def _top_level_functions(module: ModuleContext):
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    @staticmethod
    def _bound_methods(module: ModuleContext):
        for node in module.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if child.name.endswith("_lower_bounds"):
                        yield child

    def _check_functions(self, module: ModuleContext, nodes) -> Iterator[Finding]:
        for node in nodes:
            if node.name.startswith("_"):
                continue
            docstring = ast.get_docstring(node)
            if docstring is None:
                yield self.finding(
                    module,
                    node,
                    f"bound function {node.name}() has no docstring — every"
                    " exported bound must state the lemma that makes it"
                    " admissible (PR 5 exactness contract)",
                )
            elif _CITATION_PATTERN.search(docstring) is None:
                yield self.finding(
                    module,
                    node,
                    f"bound function {node.name}() docstring lacks a lemma"
                    " citation ('Lemma <n>.<m>') or admissibility statement —"
                    " reviewers cannot check exactness without it (PR 5)",
                )


class SpillPathRule(Rule):
    """``SPILL-PATH`` — spill files and payload pickles have one owner each.

    Motivation: PR 4/PR 5's disk-spill tier, whose version-tagged ``*.ctx``
    pickles had a strict read protocol in ``runtime/store.py`` that a direct
    ``open()``/``pickle.load`` anywhere else bypassed.  The tier has since
    been deleted (contexts are reused in memory only); the ``*.ctx`` check
    stays so an ad-hoc on-disk context format cannot reappear outside the
    store.  More broadly, pickle is the repo's *transport* layer (dispatch
    payloads, shm descriptors) and its use is confined to the runtime
    modules that own those protocols — ``pickle.load``/``dump`` anywhere
    else is either a new ad-hoc persistence format or a measurement
    (justify the suppression).
    """

    id = "SPILL-PATH"
    severity = Severity.ERROR
    summary = "*.ctx access outside runtime/store.py; pickle outside the runtime"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not module.path_endswith(SPILL_OWNER):
            for node in module.walk(ast.Constant):
                # repro: noqa[SPILL-PATH] -- the rule's own pattern literal, not a spill-file access
                if isinstance(node.value, str) and node.value.endswith(".ctx"):
                    yield self.finding(
                        module,
                        node,
                        "spill-file path ('*.ctx') referenced outside"
                        " runtime/store.py — go through ContextStore so the"
                        " version-tag and eviction protocol applies (PR 5)",
                    )
        if any(module.path_endswith(owner) for owner in SERIALIZATION_OWNERS):
            return
        for call in module.walk(ast.Call):
            name = module.call_name(call)
            if name in ("pickle.load", "pickle.loads", "pickle.dump", "pickle.dumps"):
                yield self.finding(
                    module,
                    call,
                    f"{name}() outside the runtime serialization owners"
                    f" ({', '.join(SERIALIZATION_OWNERS)}) — pickle is the"
                    " runtime's transport/spill format, not a general"
                    " persistence API (PR 4)",
                )
