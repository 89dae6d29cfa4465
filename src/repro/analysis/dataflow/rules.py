"""Interprocedural upgrades of the highest-value lint rules.

Each rule here is the whole-program sibling of an intra-module rule from
:mod:`repro.analysis.rules` and cites the same motivating incident; the
difference is that these see across module boundaries through the
:class:`~repro.analysis.dataflow.project.Project` call graph:

* :class:`NondetFlowRule` (``NONDET-FLOW``) — PR 6's lint found the
  unseeded-Generator bug in ``algorithms/extensions.py`` only because the
  ``default_rng()`` call sat in the same file; this rule follows call
  chains so a helper module that constructs an unseeded RNG taints every
  solver-path caller, and a function that accepts a seed but drops it on
  the floor is flagged at its definition.
* :class:`ShmEscapeRule` (``SHM-ESCAPE``) — PR 4's leak-on-error window
  was an intra-function bug; the interprocedural version summarises which
  functions *return* leases (``pack_arrays`` returns ``(descriptor, lease)``)
  and checks every call site for a consumption path, so a caller that
  discards the tuple or binds the lease and never touches it again leaks
  a ``/dev/shm`` segment on every call.
* :class:`LockOrderRule` (``LOCK-ORDER``) — builds the
  lock-acquisition-order graph over ``runtime/`` (nested
  ``with`` blocks plus locks acquired by resolved callees while a lock is
  held) and reports any cycle, including re-acquisition of the same
  canonical lock, before a deadlock ever needs two racing processes to
  reproduce.

All three stay silent on anything they cannot resolve statically — every
reported chain is a concrete static path (see the soundness note in
:mod:`.project`).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import Finding, ProjectRule, Severity
from .project import FunctionNode, Project, ProjectModule, Resolved

#: Mirrors ``repro.analysis.rules.determinism.SOLVER_DIRECTORIES`` — the
#: paths whose results must be bit-deterministic at every worker count.
SOLVER_DIRECTORIES = ("algorithms", "baselines", "experiments")

#: Parameter names that carry caller-supplied randomness.
SEED_PARAMETERS = frozenset({"seed", "rng", "random_state", "generator"})

_FUNCTION_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPE_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _short_location(module: ProjectModule, qualname: str) -> str:
    """Human label for a chain hop: ``runtime/helpers.py:make_rng``."""
    tail = "/".join(module.context.parts[-2:])
    return f"{tail}:{qualname}"


def _is_unseeded_rng_call(module: ProjectModule, call: ast.Call) -> bool:
    """A ``default_rng()`` / ``default_rng(None)`` construction."""
    name = module.context.call_name(call)
    if name is None or not name.split(".")[-1] == "default_rng":
        return False
    if not call.args and not call.keywords:
        return True
    for arg in call.args:
        if isinstance(arg, ast.Constant) and arg.value is None:
            return True
    for keyword in call.keywords:
        if (
            keyword.arg == "seed"
            and isinstance(keyword.value, ast.Constant)
            and keyword.value.value is None
        ):
            return True
    return False


def _function_calls(node: FunctionNode) -> Iterator[ast.Call]:
    """Calls that execute when ``node`` runs (nested defs excluded)."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        current = stack.pop()
        if isinstance(current, _SCOPE_TYPES):
            continue
        if isinstance(current, ast.Call):
            yield current
        stack.extend(ast.iter_child_nodes(current))


def _loaded_names(node: FunctionNode) -> set[str]:
    """Names read anywhere in the function body (nested defs included —
    a closure capturing the seed still *uses* it)."""
    loaded: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            loaded.add(child.id)
    return loaded


class NondetFlowRule(ProjectRule):
    """Seeds must survive every call chain that ends in an RNG.

    PR 2 made every solver accept ``seed`` and PR 3 promised bit-identical
    results at every worker count; PR 6's intra-module NONDET rule guards
    direct ``default_rng()`` calls in solver directories.  This rule closes
    the cross-module hole: a solver-path call that resolves (through any
    number of hops) to a function constructing an unseeded
    ``default_rng()`` is flagged with the full chain, and a function that
    accepts a seed-like parameter, never reads it, yet builds an unseeded
    RNG is flagged at its definition — the caller's seed demonstrably
    cannot reach the generator.
    """

    id = "NONDET-FLOW"
    severity = Severity.ERROR
    summary = (
        "solver-path call chains must not reach an unseeded default_rng(),"
        " and seed parameters must not be dropped"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        memo: dict[tuple[str, str], tuple[str, ...] | None] = {}
        for module in project:
            yield from self._check_seed_drops(module)
            if not module.context.in_directory(*SOLVER_DIRECTORIES):
                continue
            for call in module.context.walk(ast.Call):
                assert isinstance(call, ast.Call)
                name = module.context.call_name(call)
                if name is not None and name.split(".")[-1] == "default_rng":
                    continue  # direct sites belong to the intra-module NONDET rule
                resolved = project.resolve_call(module, call)
                if resolved is None or resolved.kind != "function":
                    continue
                chain = self._rng_chain(project, resolved, memo, set())
                if chain is None:
                    continue
                yield self.finding(
                    module.context,
                    call,
                    f"call to '{name}' reaches an unseeded default_rng() via "
                    + " -> ".join(chain),
                )

    def _rng_chain(
        self,
        project: Project,
        resolved: Resolved,
        memo: dict[tuple[str, str], tuple[str, ...] | None],
        stack: set[tuple[str, str]],
    ) -> tuple[str, ...] | None:
        """Witness chain from ``resolved`` to an unseeded ``default_rng()``."""
        key = resolved.key
        if key in memo:
            return memo[key]
        if key in stack or not isinstance(resolved.node, _FUNCTION_TYPES):
            return None
        stack.add(key)
        label = _short_location(resolved.module, resolved.qualname)
        chain: tuple[str, ...] | None = None
        for call in _function_calls(resolved.node):
            if _is_unseeded_rng_call(resolved.module, call):
                chain = (label, f"default_rng() at line {call.lineno}")
                break
        if chain is None:
            for call in _function_calls(resolved.node):
                callee = project.resolve_call(resolved.module, call)
                if callee is None or callee.kind != "function":
                    continue
                sub = self._rng_chain(project, callee, memo, stack)
                if sub is not None:
                    chain = (label, *sub)
                    break
        stack.discard(key)
        memo[key] = chain
        return chain

    def _check_seed_drops(self, module: ProjectModule) -> Iterator[Finding]:
        for qualname, node in module.functions.items():
            arguments = node.args
            parameters = [
                arg.arg
                for arg in (*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs)
                if arg.arg in SEED_PARAMETERS
            ]
            if not parameters:
                continue
            loaded = _loaded_names(node)
            dropped = [name for name in parameters if name not in loaded]
            if not dropped:
                continue
            for call in _function_calls(node):
                if _is_unseeded_rng_call(module, call):
                    yield self.finding(
                        module.context,
                        node,
                        f"'{qualname}' accepts '{dropped[0]}' but never reads it"
                        f" and constructs an unseeded default_rng()"
                        f" (line {call.lineno}) — the caller's seed cannot"
                        " reach the generator",
                    )
                    break


class ShmEscapeRule(ProjectRule):
    """Leases that escape to a caller must be consumed there.

    PR 4's rule: every shm segment is owned by exactly one
    ``SegmentLease`` and unlinked exactly once.  The intra-module
    SHM-LIFECYCLE rule checks the *creation* site is leased immediately;
    this rule summarises which functions hand leases to their callers
    (``pack_arrays`` returns ``(descriptor, lease)``) and
    verifies each call site actually consumes the lease — binds it and
    uses it again (``close()``, a ``finally``, re-return), stores it, or
    forwards it.  A call whose lease-carrying result is discarded, or
    bound to a name that is never read again, leaks a ``/dev/shm``
    segment per call.
    """

    id = "SHM-ESCAPE"
    severity = Severity.ERROR
    summary = "escaped SegmentLease values must be consumed (closed/stored/forwarded) by the caller"

    #: A return value that *is* a lease (not a tuple position).
    WHOLE = -1

    def check_project(self, project: Project) -> Iterator[Finding]:
        memo: dict[tuple[str, str], frozenset[int] | None] = {}
        for module in project:
            for call in module.context.walk(ast.Call):
                assert isinstance(call, ast.Call)
                summary = self._call_lease_summary(project, module, call, memo)
                if summary is None:
                    continue
                yield from self._check_site(module, call, summary)

    # -- summaries -----------------------------------------------------------

    def _is_lease_constructor(
        self, project: Project, module: ProjectModule, call: ast.Call
    ) -> bool:
        name = module.context.call_name(call)
        if name is not None and name.split(".")[-1].endswith("SegmentLease"):
            return True
        resolved = project.resolve_call(module, call)
        return (
            resolved is not None
            and resolved.kind == "class"
            and resolved.qualname.endswith("SegmentLease")
        )

    def _call_lease_summary(
        self,
        project: Project,
        module: ProjectModule,
        call: ast.Call,
        memo: dict[tuple[str, str], frozenset[int] | None],
    ) -> frozenset[int] | None:
        if self._is_lease_constructor(project, module, call):
            return frozenset({self.WHOLE})
        resolved = project.resolve_call(module, call)
        if resolved is None or resolved.kind != "function":
            return None
        return self._function_summary(project, resolved, memo, set())

    def _function_summary(
        self,
        project: Project,
        resolved: Resolved,
        memo: dict[tuple[str, str], frozenset[int] | None],
        stack: set[tuple[str, str]],
    ) -> frozenset[int] | None:
        """Which parts of ``resolved``'s return value are leases.

        ``{WHOLE}`` — the return value is a lease; ``{1}`` — element 1 of
        the returned tuple is (the ``pack_arrays`` shape); ``None`` — no
        lease escapes.  One forward pass over the body in source order
        tracks lease-tainted locals, which covers the straight-line
        create-then-return shape every real producer has.
        """
        key = resolved.key
        if key in memo:
            return memo[key]
        if key in stack or not isinstance(resolved.node, _FUNCTION_TYPES):
            return None
        stack.add(key)
        module = resolved.module
        tainted: set[str] = set()
        escaping: set[int] = set()

        def expression_taint(expr: ast.expr) -> frozenset[int] | None:
            if isinstance(expr, ast.Name) and expr.id in tainted:
                return frozenset({self.WHOLE})
            if isinstance(expr, ast.Call):
                if self._is_lease_constructor(project, module, expr):
                    return frozenset({self.WHOLE})
                callee = project.resolve_call(module, expr)
                if callee is not None and callee.kind == "function":
                    return self._function_summary(project, callee, memo, stack)
                return None
            if isinstance(expr, ast.Tuple):
                positions = {
                    index
                    for index, element in enumerate(expr.elts)
                    if expression_taint(element) == frozenset({self.WHOLE})
                }
                return frozenset(positions) if positions else None
            return None

        def visit(statements: list[ast.stmt]) -> None:
            for statement in statements:
                if isinstance(statement, ast.Assign) and len(statement.targets) == 1:
                    target = statement.targets[0]
                    taint = expression_taint(statement.value)
                    if isinstance(target, ast.Name) and taint == frozenset({self.WHOLE}):
                        tainted.add(target.id)
                    elif (
                        isinstance(target, ast.Tuple)
                        and taint is not None
                        and self.WHOLE not in taint
                    ):
                        for index in taint:
                            if 0 <= index < len(target.elts):
                                element = target.elts[index]
                                if isinstance(element, ast.Name):
                                    tainted.add(element.id)
                elif isinstance(statement, ast.Return) and statement.value is not None:
                    taint = expression_taint(statement.value)
                    if taint is not None:
                        escaping.update(taint)
                for block in self._child_blocks(statement):
                    visit(block)

        visit(list(resolved.node.body))
        stack.discard(key)
        result = frozenset(escaping) if escaping else None
        memo[key] = result
        return result

    @staticmethod
    def _child_blocks(statement: ast.stmt) -> Iterator[list[ast.stmt]]:
        for name in ("body", "orelse", "finalbody"):
            block = getattr(statement, name, None)
            if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
                yield block
        for handler in getattr(statement, "handlers", []) or []:
            yield handler.body

    # -- call sites ----------------------------------------------------------

    def _check_site(
        self, module: ProjectModule, call: ast.Call, summary: frozenset[int]
    ) -> Iterator[Finding]:
        context = module.context
        statement = context.enclosing_statement(call)
        if statement is None:
            return
        if isinstance(statement, ast.Expr) and statement.value is call:
            yield self.finding(
                context,
                call,
                f"result of '{context.call_name(call)}' carries a SegmentLease"
                " but is discarded — the segment can never be unlinked",
            )
            return
        value = getattr(statement, "value", None)
        if not isinstance(statement, (ast.Assign, ast.AnnAssign)) or value is not call:
            # Returned, yielded, nested in a larger expression, used as a
            # with-context, or forwarded as an argument: ownership moved to
            # a consumer this rule checks (or cannot see) — stay silent.
            return
        targets = (
            statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        )
        if len(targets) != 1:
            return
        target = targets[0]
        lease_names: list[tuple[str, ast.AST]] = []
        if isinstance(target, ast.Name) and self.WHOLE in summary:
            lease_names.append((target.id, target))
        elif isinstance(target, ast.Name):
            # Whole tuple bound to one name: any later use keeps it reachable.
            lease_names.append((target.id, target))
        elif isinstance(target, ast.Tuple):
            for index in summary:
                if 0 <= index < len(target.elts) and isinstance(
                    target.elts[index], ast.Name
                ):
                    element = target.elts[index]
                    assert isinstance(element, ast.Name)
                    lease_names.append((element.id, element))
        else:
            return  # stored on an attribute/subscript — lifetime transferred
        scope = context.enclosing_function(call)
        scope_node: ast.AST = scope if scope is not None else context.tree
        for name, _node in lease_names:
            if not self._used_elsewhere(scope_node, statement, name):
                yield self.finding(
                    context,
                    call,
                    f"SegmentLease from '{context.call_name(call)}' is bound to"
                    f" '{name}' but '{name}' is never read afterwards —"
                    " no close/return/store path exists",
                )

    @staticmethod
    def _used_elsewhere(scope: ast.AST, statement: ast.stmt, name: str) -> bool:
        inside = {id(node) for node in ast.walk(statement)}
        for node in ast.walk(scope):
            if (
                isinstance(node, ast.Name)
                and node.id == name
                and isinstance(node.ctx, ast.Load)
                and id(node) not in inside
            ):
                return True
        return False


class LockOrderRule(ProjectRule):
    """The runtime's locks must have a cycle-free acquisition order.

    PR 5 added the shared-incumbent lock and PR 6's LOCK-DISCIPLINE rule
    polices *how* each lock is taken (``with``, no bare ``acquire``).
    Neither sees ordering: process A taking ``store.lock`` then
    ``slot.lock`` while process B nests them the other way deadlocks only
    under contention.  This rule builds the static acquisition-order graph
    over ``runtime/`` — an edge for every lock acquired (directly or via a
    resolved callee) while another is held — and reports every cycle,
    including same-lock re-acquisition, with the witness site.
    """

    id = "LOCK-ORDER"
    severity = Severity.ERROR
    summary = "static lock-acquisition-order graph over runtime/ must be acyclic"

    def check_project(self, project: Project) -> Iterator[Finding]:
        edges: dict[tuple[str, str], tuple[ProjectModule, ast.AST]] = {}
        acquires_memo: dict[tuple[str, str], frozenset[str]] = {}
        for module in project:
            if not module.context.in_directory("runtime"):
                continue
            for node in module.functions.values():
                self._collect_edges(project, module, node, edges, acquires_memo)
        yield from self._report_cycles(edges)

    # -- graph construction --------------------------------------------------

    @staticmethod
    def _lock_name(module: ProjectModule, expr: ast.expr) -> str | None:
        dotted = module.context.dotted_name(expr)
        if dotted is None or "lock" not in dotted.lower():
            return None
        if dotted.startswith("self."):
            dotted = dotted[len("self.") :]
        return dotted

    def _direct_and_callee_locks(
        self,
        project: Project,
        resolved: Resolved,
        memo: dict[tuple[str, str], frozenset[str]],
        stack: set[tuple[str, str]],
    ) -> frozenset[str]:
        """Every canonical lock ``resolved`` may acquire, transitively."""
        key = resolved.key
        if key in memo:
            return memo[key]
        if key in stack or not isinstance(resolved.node, _FUNCTION_TYPES):
            return frozenset()
        stack.add(key)
        names: set[str] = set()
        for node in ast.walk(resolved.node):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    name = self._lock_name(resolved.module, item.context_expr)
                    if name is not None:
                        names.add(name)
        for call in _function_calls(resolved.node):
            callee = project.resolve_call(resolved.module, call)
            if callee is not None and callee.kind == "function":
                names |= self._direct_and_callee_locks(project, callee, memo, stack)
        stack.discard(key)
        memo[key] = frozenset(names)
        return memo[key]

    def _collect_edges(
        self,
        project: Project,
        module: ProjectModule,
        function: FunctionNode,
        edges: dict[tuple[str, str], tuple[ProjectModule, ast.AST]],
        acquires_memo: dict[tuple[str, str], frozenset[str]],
    ) -> None:
        def note_call(call: ast.Call, held: list[str]) -> None:
            callee = project.resolve_call(module, call)
            if callee is None or callee.kind != "function":
                return
            for name in self._direct_and_callee_locks(
                project, callee, acquires_memo, set()
            ):
                edges.setdefault((held[-1], name), (module, call))

        def visit(node: ast.AST, held: list[str]) -> None:
            if isinstance(node, _SCOPE_TYPES) and node is not function:
                return  # nested defs run later, not under this lock
            if isinstance(node, (ast.With, ast.AsyncWith)):
                inner = list(held)
                for item in node.items:
                    name = self._lock_name(module, item.context_expr)
                    if name is None:
                        visit(item.context_expr, inner)
                        continue
                    if inner:
                        edges.setdefault((inner[-1], name), (module, item.context_expr))
                    inner.append(name)
                for statement in node.body:
                    visit(statement, inner)
                return
            if isinstance(node, ast.Call) and held:
                note_call(node, held)
            for child in ast.iter_child_nodes(node):
                visit(child, held)

        for statement in function.body:
            visit(statement, [])

    # -- cycle detection -----------------------------------------------------

    def _report_cycles(
        self, edges: dict[tuple[str, str], tuple[ProjectModule, ast.AST]]
    ) -> Iterator[Finding]:
        adjacency: dict[str, set[str]] = {}
        for source, target in edges:
            adjacency.setdefault(source, set()).add(target)
        seen: set[frozenset[str]] = set()
        for (source, target), (module, witness) in sorted(
            edges.items(), key=lambda item: item[0]
        ):
            path = self._path(adjacency, target, source)
            if path is None:
                continue
            cycle = [source, *path]
            key = frozenset(cycle)
            if key in seen:
                continue
            seen.add(key)
            # ``path`` runs target..source inclusive, so ``cycle`` already
            # closes the loop: [a, b, a] for a 2-cycle, [a, a] for a self-edge.
            rendered = " -> ".join(cycle)
            yield self.finding(
                module.context,
                witness,
                f"lock acquisition-order cycle: {rendered}"
                " (a process interleaving these orders can deadlock)",
            )

    @staticmethod
    def _path(
        adjacency: dict[str, set[str]], start: str, goal: str
    ) -> list[str] | None:
        """A path ``start .. goal`` through the edge graph (DFS), or None."""
        stack: list[tuple[str, list[str]]] = [(start, [start])]
        visited: set[str] = set()
        while stack:
            node, path = stack.pop()
            if node == goal:
                return path
            if node in visited:
                continue
            visited.add(node)
            for successor in sorted(adjacency.get(node, ())):
                stack.append((successor, [*path, successor]))
        return None


#: Interprocedural rules run by the default (dataflow-enabled) lint pass.
DATAFLOW_RULE_CLASSES: tuple[type[ProjectRule], ...] = (
    NondetFlowRule,
    ShmEscapeRule,
    LockOrderRule,
)


def dataflow_rules() -> list[ProjectRule]:
    return [rule_class() for rule_class in DATAFLOW_RULE_CLASSES]


__all__ = [
    "DATAFLOW_RULE_CLASSES",
    "LockOrderRule",
    "NondetFlowRule",
    "SEED_PARAMETERS",
    "SOLVER_DIRECTORIES",
    "ShmEscapeRule",
    "dataflow_rules",
]
