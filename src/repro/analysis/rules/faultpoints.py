"""Fault-injection site rule: registered kinds, runtime-owned, reachable."""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import Finding, ModuleContext, Rule, Severity

#: The registered fault kinds, mirrored from :mod:`repro.faults`.  The
#: linter must stay importable with nothing but the stdlib (it runs before
#: the numpy-heavy package in CI), so the kinds are pinned here and a tier-1
#: test asserts this tuple equals ``repro.faults.FAULT_KINDS`` — drift fails
#: the suite, not the lint run.
FAULT_KINDS = ("crash", "slow", "shm_attach", "serve_reject")

#: The module that owns the injection machinery (its own ``inject`` calls
#: are the implementation, not injection sites).
FAULTS_OWNER = "repro/faults.py"

#: Directories allowed to carry injection sites: the runtime tier the fault
#: harness models (worker dispatch, shm attach) and — since PR 9 — the
#: serve tier (admission-path rejections driving client retry).
FAULT_TIERS = ("runtime", "serve")


class FaultPointRule(Rule):
    """``FAULT-POINT`` — ``faults.inject()`` sites are audited chaos hooks.

    Motivation: PR 8's crash-recovery guarantees are only as good as the
    fault-injection points that exercise them.  An injection site naming an
    unregistered kind silently never fires (``inject`` looks the kind up in
    the armed table), so the chaos CI job would green-light a path it never
    actually perturbed; a site buried in dead code is the same lie in a
    different place.  This rule keeps every ``faults.inject(...)`` call
    honest: the kind must be a string literal drawn from the registered
    :data:`FAULT_KINDS`, the site must live in one of the :data:`FAULT_TIERS`
    directories the fault harness models (``runtime/`` — worker dispatch and
    shm attach — and, since PR 9, ``serve/`` for the
    admission-path rejection fault), and the enclosing function must be
    reachable — through the module's own call graph — from a public entry
    point of its module, so armed faults provably sit on live paths.
    """

    id = "FAULT-POINT"
    severity = Severity.ERROR
    summary = "faults.inject() sites: registered kind, runtime/serve-owned, reachable"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if module.path_endswith(FAULTS_OWNER):
            return
        inject_calls = list(self._inject_calls(module))
        if not inject_calls:
            return
        reachable = self._reachable_functions(module)
        in_fault_tier = any(module.in_directory(tier) for tier in FAULT_TIERS)
        for call in inject_calls:
            kind = call.args[0] if call.args else None
            if not (isinstance(kind, ast.Constant) and isinstance(kind.value, str)):
                yield self.finding(
                    module,
                    call,
                    "faults.inject() kind must be a string literal so the"
                    " site is statically auditable (PR 8)",
                )
            elif kind.value not in FAULT_KINDS:
                yield self.finding(
                    module,
                    call,
                    f"faults.inject({kind.value!r}) names an unregistered"
                    f" fault kind — registered kinds: {', '.join(FAULT_KINDS)}."
                    " An unknown kind never fires, so the chaos job would"
                    " exercise nothing here (PR 8)",
                )
            if not in_fault_tier:
                yield self.finding(
                    module,
                    call,
                    "fault injection outside repro/runtime and repro/serve —"
                    " the fault harness models runtime and admission failures"
                    " (worker crashes, shm attach, serve rejects); inject"
                    " at those tier boundaries instead"
                    " (PR 8/PR 9)",
                )
            function = self._outermost_function(module, call)
            if function is not None and function.name not in reachable:
                yield self.finding(
                    module,
                    call,
                    f"faults.inject() inside {function.name}(), which is not"
                    " reachable from any public entry point of this module —"
                    " an injection site on dead code exercises nothing"
                    " (PR 8)",
                )

    # -- helpers ------------------------------------------------------------

    def _inject_calls(self, module: ModuleContext) -> Iterator[ast.Call]:
        """``faults.inject(...)`` calls (and bare ``inject`` imported from it)."""
        bare_aliases = {
            alias.asname or alias.name
            for node in module.walk(ast.ImportFrom)
            if node.module is not None and node.module.split(".")[-1] == "faults"
            for alias in node.names
            if alias.name == "inject"
        }
        for call in module.walk(ast.Call):
            name = module.call_name(call)
            if name is None:
                continue
            if name.split(".")[-2:] == ["faults", "inject"] or name in bare_aliases:
                yield call

    @staticmethod
    def _outermost_function(
        module: ModuleContext, node: ast.AST
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        function = module.enclosing_function(node)
        outermost = function
        while function is not None:
            outermost = function
            function = module.enclosing_function(function)
        return outermost

    @staticmethod
    def _reachable_functions(module: ModuleContext) -> frozenset[str]:
        """Function/method names reachable from the module's public surface.

        Roots are the public top-level functions, the public methods of
        top-level classes, and every definition referenced from module-level
        code.  Edges follow simple name loads and attribute accesses
        (``executor.submit(_dispatch, ...)``, ``self._send_json(...)``)
        whose name matches a known definition — an over-approximation, which
        is the right direction for a reachability *requirement*.
        """
        definitions: dict[str, ast.AST] = {}
        public: list[str] = []
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                definitions[node.name] = node
                if not node.name.startswith("_"):
                    public.append(node.name)
            elif isinstance(node, ast.ClassDef):
                for child in node.body:
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        definitions.setdefault(child.name, child)
                        if not child.name.startswith("_") or child.name.startswith("__"):
                            public.append(child.name)

        def references(node: ast.AST) -> set[str]:
            names: set[str] = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    if sub.id in definitions:
                        names.add(sub.id)
                elif isinstance(sub, ast.Attribute) and sub.attr in definitions:
                    names.add(sub.attr)
            return names

        queue = list(public)
        for statement in module.tree.body:
            if isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            queue.extend(references(statement))
        reachable: set[str] = set()
        while queue:
            name = queue.pop()
            if name in reachable:
                continue
            reachable.add(name)
            queue.extend(references(definitions[name]) - reachable)
        return frozenset(reachable)
