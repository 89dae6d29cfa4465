"""Determinism rules: bit-identical solver paths, no hot-path float sorts."""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import Finding, ModuleContext, Rule, Severity

#: Directories whose modules feed solver results (the determinism contract:
#: bit-identical output at every worker count, every shm setting).
SOLVER_DIRECTORIES = ("algorithms", "baselines", "experiments")

#: Directories on the hot path (PR 4's rank-merge work removed the last
#: float sort from these; new ones need a reference twin or a waiver).
HOT_DIRECTORIES = ("cost", "runtime", "bounds")

#: The measurement/reporting harness inside ``runtime/`` — it renders tables
#: and sorts case names, never solver data; exempt from the sort rule.
HOT_EXEMPT_FILES = ("runtime/bench.py",)

#: Legacy ``numpy.random`` global-state functions (unseeded by definition).
NUMPY_LEGACY_RANDOM = frozenset(
    {"rand", "randn", "randint", "random", "random_sample", "seed", "choice", "shuffle", "permutation", "uniform", "normal"}
)

#: Order-insensitive consumers: a set flowing straight into these is fine.
ORDER_INSENSITIVE = frozenset({"sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset"})


class NondetRule(Rule):
    """``NONDET`` — solver paths must stay bit-deterministic.

    Motivation: the PR 3 determinism contract (results identical at every
    worker count) and PR 5's exactness proofs both assume solver modules are
    pure functions of their inputs and seeds.  Wall-clock reads
    (``time.time``), global/unseeded RNGs (stdlib ``random``, legacy
    ``np.random.*`` globals, ``np.random.default_rng()`` with a possibly-
    ``None`` seed), entropy sources (``os.urandom``, ``uuid.uuid4``) and
    iteration over ``set``/``frozenset`` (hash order leaks into results)
    inside ``algorithms/``, ``baselines/`` or ``experiments/`` all break
    that silently.  The pre-fix tree had a live instance: passing a
    ``Generator`` as ``seed`` to the k-median/k-means extensions constructed
    ``default_rng(None)`` — a fresh *unseeded* generator — instead of using
    the one supplied.  ``time.perf_counter`` is allowed (monotonic timing is
    what the scaling experiments measure); ``sorted(set(...))`` is allowed
    (the sort restores a canonical order).
    """

    id = "NONDET"
    severity = Severity.ERROR
    summary = "no wall clock, unseeded RNGs, entropy or set-order iteration in solvers"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not module.in_directory(*SOLVER_DIRECTORIES):
            return
        random_imports = self._stdlib_random_imports(module)
        for call in module.walk(ast.Call):
            name = module.call_name(call)
            if name is None:
                continue
            parts = name.split(".")
            tail = parts[-1]
            if name in ("time.time", "os.urandom", "uuid.uuid4") or (
                parts[0] == "secrets" and len(parts) > 1
            ):
                yield self.finding(
                    module,
                    call,
                    f"{name}() in a solver path — wall clock/entropy breaks the"
                    " bit-determinism contract (PR 3); derive values from inputs"
                    " and explicit seeds",
                )
            elif parts[0] == "random" and len(parts) == 2:
                yield self.finding(
                    module,
                    call,
                    f"stdlib global-state {name}() in a solver path — use a"
                    " seeded np.random.Generator threaded through settings",
                )
            elif tail in NUMPY_LEGACY_RANDOM and len(parts) >= 3 and parts[-2] == "random":
                yield self.finding(
                    module,
                    call,
                    f"legacy global-state {name}() in a solver path — use a"
                    " seeded np.random.default_rng(seed) generator instead",
                )
            elif len(parts) == 1 and tail in random_imports:
                yield self.finding(
                    module,
                    call,
                    f"stdlib global-state random.{tail}() (imported bare) in a"
                    " solver path — use a seeded np.random.Generator",
                )
            elif tail == "default_rng" and self._seed_may_be_none(call):
                yield self.finding(
                    module,
                    call,
                    "np.random.default_rng(...) whose seed may be None constructs"
                    " an UNSEEDED generator — pass the seed (or the caller's"
                    " Generator) through explicitly",
                )
        yield from self._check_set_iteration(module)

    @staticmethod
    def _stdlib_random_imports(module: ModuleContext) -> frozenset[str]:
        names: set[str] = set()
        for node in module.walk(ast.ImportFrom):
            if node.module == "random":
                names.update(alias.asname or alias.name for alias in node.names)
        return frozenset(names)

    @staticmethod
    def _seed_may_be_none(call: ast.Call) -> bool:
        if not call.args and not call.keywords:
            return True
        candidates = list(call.args) + [keyword.value for keyword in call.keywords]
        for argument in candidates:
            for node in ast.walk(argument):
                if isinstance(node, ast.Constant) and node.value is None:
                    return True
        return False

    def _check_set_iteration(self, module: ModuleContext) -> Iterator[Finding]:
        for node in module.walk():
            if isinstance(node, (ast.Set, ast.SetComp)):
                set_node: ast.AST = node
            elif (
                isinstance(node, ast.Call)
                and module.call_name(node) in ("set", "frozenset")
            ):
                set_node = node
            else:
                continue
            parent = module.parent(set_node)
            message = (
                "iteration over a set feeds hash order into solver results —"
                " wrap it in sorted(...) to restore a canonical order (PR 3"
                " determinism contract)"
            )
            if isinstance(parent, (ast.For, ast.comprehension)) and parent.iter is set_node:
                yield self.finding(module, set_node, message)
            elif (
                isinstance(parent, ast.Call)
                and module.call_name(parent) in ("list", "tuple", "enumerate", "iter", "zip")
                and set_node in parent.args
            ):
                yield self.finding(module, set_node, message)


class FloatSortHotpathRule(Rule):
    """``FLOAT-SORT-HOTPATH`` — no new float sorts on the hot path.

    Motivation: the two rank merges.  The unassigned sweep's per-row float
    sort over candidate distance columns became an integer rank merge
    (bit-packed global ranks + one unstable integer argsort) for a ~2.2x
    win, keeping the float sort only as the
    ``CostContext._unassigned_costs_float_sort`` differential reference.
    The assigned batch path (``AssignedCostEvaluator.costs``) did the same:
    it sorts each row's global entry ranks in place, about 3x faster than
    the per-row float argsort kept as its reference twin
    ``AssignedCostEvaluator._costs_float_sort``.  A ``sorted``
    /``np.sort``/``.sort()`` call appearing in ``cost/``, ``runtime/`` or
    ``bounds/`` is therefore either a regression in the making or needs the
    same treatment: implement the integer/rank form, keep the float sort as
    a ``*_reference`` twin, or carry a justified suppression explaining why
    the call is not on a solve path.  Functions whose names contain
    ``_reference`` or ``_float_sort`` are exempt (they ARE the reference
    twins); so is ``runtime/bench.py`` (a reporting harness that sorts case
    names, not solver data).
    """

    id = "FLOAT-SORT-HOTPATH"
    severity = Severity.ERROR
    summary = "sorted()/np.sort()/.sort() in cost/, runtime/, bounds/ needs a waiver"

    _EXEMPT_FUNCTION_MARKERS = ("_reference", "_float_sort")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not module.in_directory(*HOT_DIRECTORIES):
            return
        if any(module.path_endswith(exempt) for exempt in HOT_EXEMPT_FILES):
            return
        for call in module.walk(ast.Call):
            name = module.call_name(call)
            tail = name.split(".")[-1] if name else None
            if tail not in ("sort", "sorted"):
                continue
            function = module.enclosing_function(call)
            if function is not None and any(
                marker in function.name for marker in self._EXEMPT_FUNCTION_MARKERS
            ):
                continue
            yield self.finding(
                module,
                call,
                f"{name}() on the hot path ({'/'.join(HOT_DIRECTORIES)}) — hot"
                " sweeps use integer rank merges (PR 4); keep float sorts to"
                " *_reference twins or justify the suppression",
            )
