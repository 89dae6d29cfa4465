"""Concurrency rules: shm lifecycle, dispatch hygiene, lock discipline."""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import Finding, ModuleContext, Rule, Severity

#: The one module allowed to create shared-memory segments.
SHM_OWNER = "runtime/shm.py"

#: The one module allowed to construct worker pools (its initializer is how
#: synchronized primitives legally reach workers under ``spawn``).
POOL_OWNER = "runtime/pool.py"

#: The one module allowed to create multiprocessing synchronized primitives.
SYNC_OWNER = "runtime/incumbent.py"

#: Constructors that produce multiprocessing synchronized primitives.
SYNC_CONSTRUCTORS = frozenset(
    {"Value", "Lock", "RLock", "Array", "Semaphore", "BoundedSemaphore", "Condition", "Event", "Barrier"}
)

#: Call names that ship work (and therefore pickled arguments) to workers.
DISPATCH_CALLS = frozenset(
    {"parallel_map", "parallel_map_ordered", "submit", "apply_async", "map_async"}
)

#: Calls that can block while a lock is held.
BLOCKING_CALLS = frozenset(
    {"sleep", "join", "acquire", "wait", "recv", "result", "communicate", "check_call", "check_output", "run"}
)


def _has_create_true(call: ast.Call) -> bool:
    for keyword in call.keywords:
        if keyword.arg == "create" and isinstance(keyword.value, ast.Constant):
            return bool(keyword.value.value is True)
    return False


class ShmLifecycleRule(Rule):
    """``SHM-LIFECYCLE`` — every shm segment must be leased, immediately.

    Motivation: PR 4's zero-copy runtime.  ``multiprocessing.shared_memory``
    segments outlive their creator unless unlinked exactly once; Python's
    resource tracker double-unlinks segments it did not create (bpo-38119),
    so the repo routes every create through :class:`repro.runtime.shm`'s
    refcounted ``SegmentLease`` machinery (idempotent close+unlink,
    tracker registration suppressed on attach).  A bare
    ``SharedMemory(create=True)`` anywhere else re-opens the leak the PR 4
    tests closed.  Inside ``runtime/shm.py`` itself the lease must be taken
    **immediately** (same statement or the next one): any statement between
    the create and the lease — a copy loop, a buffer write — can raise and
    orphan the segment in ``/dev/shm`` with nothing holding its name.
    """

    id = "SHM-LIFECYCLE"
    severity = Severity.ERROR
    summary = "SharedMemory(create=True) must be leased by runtime/shm.py immediately"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for call in module.walk(ast.Call):
            name = module.call_name(call)
            if name is None or not name.split(".")[-1] == "SharedMemory":
                continue
            if not _has_create_true(call):
                continue
            if not module.path_endswith(SHM_OWNER):
                yield self.finding(
                    module,
                    call,
                    "bare SharedMemory(create=True) outside runtime/shm.py — create"
                    " segments through repro.runtime.shm so they are refcounted,"
                    " leased and unlinked exactly once (PR 4, bpo-38119)",
                )
                continue
            if not self._leased_immediately(module, call):
                yield self.finding(
                    module,
                    call,
                    "segment is not handed to SegmentLease in the same or the"
                    " immediately following statement — an exception in between"
                    " leaks the segment (no owner to unlink it)",
                )

    def _leased_immediately(self, module: ModuleContext, call: ast.Call) -> bool:
        statement = module.enclosing_statement(call)
        if statement is None:
            return False
        # Same-statement wrap: SegmentLease(SharedMemory(create=True, ...)).
        for other in ast.walk(statement):
            if (
                isinstance(other, ast.Call)
                and module.call_name(other) is not None
                and module.call_name(other).split(".")[-1] == "SegmentLease"
            ):
                return True
        # Next-statement wrap: segment = SharedMemory(...); lease = SegmentLease(segment).
        block = module.statement_block(statement)
        if block is None:
            return False
        index = block.index(statement)
        if index + 1 >= len(block):
            return False
        for other in ast.walk(block[index + 1]):
            if (
                isinstance(other, ast.Call)
                and module.call_name(other) is not None
                and module.call_name(other).split(".")[-1] == "SegmentLease"
            ):
                return True
        return False


class SyncInDispatchRule(Rule):
    """``SYNC-IN-DISPATCH`` — synchronized primitives ride initargs, never dispatch.

    Motivation: PR 5's shared incumbent.  ``multiprocessing.Value/Lock/...``
    objects cannot be pickled into pool dispatch tuples (under ``spawn`` they
    raise; under ``fork`` they silently duplicate state) — the incumbent slot
    had to be threaded through the pool *initializer* (``initargs``) for
    exactly this reason, with a small picklable token in the dispatch tuple.
    This rule flags (a) synchronized primitives (or the slot-handle helpers
    that return them) appearing in arguments of ``parallel_map`` /
    ``parallel_map_ordered`` / ``submit``-style dispatch calls, (b) construction of synchronized primitives
    outside ``runtime/incumbent.py`` (the slot owner), and (c) ad-hoc pool
    construction outside ``runtime/pool.py``, because a pool built elsewhere
    bypasses the initializer discipline that makes (a) safe.  Pruning state
    now rides each dispatch tuple as a plain float and ``src/`` constructs
    no synchronized primitive, so the rule guards against one coming back.
    """

    id = "SYNC-IN-DISPATCH"
    severity = Severity.ERROR
    summary = "mp sync primitives must ship via pool initargs, not dispatch tuples"

    #: Functions whose return values contain synchronized primitives.
    _HANDLE_SOURCES = frozenset({"slot_handles", "ensure_slot"})

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        sync_names = self._sync_bound_names(module)
        for call in module.walk(ast.Call):
            name = module.call_name(call)
            tail = name.split(".")[-1] if name else None
            if tail in SYNC_CONSTRUCTORS and self._is_mp_sync_call(module, call):
                if not module.path_endswith(SYNC_OWNER):
                    yield self.finding(
                        module,
                        call,
                        f"multiprocessing.{tail} created outside {SYNC_OWNER} — the"
                        " incumbent slot machinery owns synchronized primitives;"
                        " ad-hoc ones cannot reach pool workers safely (PR 5)",
                    )
            if tail in ("ProcessPoolExecutor", "Pool") and not module.path_endswith(POOL_OWNER):
                yield self.finding(
                    module,
                    call,
                    f"worker pool constructed outside {POOL_OWNER} — pools must"
                    " adopt the incumbent slot through the sanctioned initializer"
                    " (initargs), which ad-hoc pools bypass (PR 5)",
                )
            if tail in DISPATCH_CALLS:
                yield from self._check_dispatch_args(module, call, sync_names)

    def _is_mp_sync_call(self, module: ModuleContext, call: ast.Call) -> bool:
        """Heuristic: constructor reached via multiprocessing/a start-method context."""
        name = module.call_name(call)
        if name is None:
            return False
        parts = name.split(".")
        if len(parts) == 1:
            # Bare ``Lock()``: only multiprocessing-flavored if imported so.
            return self._imported_from_multiprocessing(module, parts[0])
        root = parts[0]
        return root in ("multiprocessing", "mp") or "context" in root or root == "ctx"

    @staticmethod
    def _imported_from_multiprocessing(module: ModuleContext, name: str) -> bool:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module and "multiprocessing" in node.module:
                if any(alias.asname == name or alias.name == name for alias in node.names):
                    return True
        return False

    def _sync_bound_names(self, module: ModuleContext) -> set[str]:
        """Names assigned from sync constructors or slot-handle helpers."""
        names: set[str] = set()
        for node in module.walk(ast.Assign):
            if not isinstance(node.value, ast.Call):
                continue
            call_name = module.call_name(node.value)
            tail = call_name.split(".")[-1] if call_name else None
            if (tail in SYNC_CONSTRUCTORS and self._is_mp_sync_call(module, node.value)) or (
                tail in self._HANDLE_SOURCES
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
                    elif isinstance(target, ast.Tuple):
                        names.update(
                            element.id for element in target.elts if isinstance(element, ast.Name)
                        )
        return names

    def _check_dispatch_args(
        self, module: ModuleContext, call: ast.Call, sync_names: set[str]
    ) -> Iterator[Finding]:
        arguments = list(call.args) + [keyword.value for keyword in call.keywords]
        for argument in arguments:
            for node in ast.walk(argument):
                if isinstance(node, ast.Name) and node.id in sync_names:
                    yield self.finding(
                        module,
                        node,
                        f"synchronized primitive {node.id!r} shipped through a"
                        " dispatch call — pass a picklable token and route the"
                        " primitive via pool initargs (PR 5 incumbent protocol)",
                    )
                elif isinstance(node, ast.Call):
                    name = module.call_name(node)
                    tail = name.split(".")[-1] if name else None
                    if tail in self._HANDLE_SOURCES or (
                        tail in SYNC_CONSTRUCTORS and self._is_mp_sync_call(module, node)
                    ):
                        yield self.finding(
                            module,
                            node,
                            f"{name}() result shipped through a dispatch call —"
                            " synchronized primitives must travel via pool"
                            " initargs, not dispatch tuples (PR 5)",
                        )


class LockDisciplineRule(Rule):
    """``LOCK-DISCIPLINE`` — torn-read and held-lock rules for shared state.

    Motivation: PR 5's incumbent slot, a C double shared across processes.
    An unlocked read of such a value can tear and fabricate one *below* the
    optimum, silently over-pruning — so reads used for decisions go through
    ``get_obj()`` under the lock (and
    ``Synchronized.value`` re-acquires its own non-reentrant lock, which is
    why held-lock sections use ``get_obj()`` directly).  This rule flags
    (a) ``.get_obj()`` access outside a ``with <lock>:`` block — a
    deliberate unlocked peek needs a justified suppression, which is
    exactly the review trail we want — and (b) calls that can block
    (``sleep``, ``join``, ``acquire``, ``result``, ...) inside a held-lock
    block, because a lock on every reader's path stalls them all while its
    holder blocks.  No shared double ships today (pruning state is per map),
    so (a) guards against one coming back and (b) guards every lock.
    """

    id = "LOCK-DISCIPLINE"
    severity = Severity.ERROR
    summary = "shared-state reads under the lock; no blocking calls while held"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        lock_withs = [
            node
            for node in module.walk(ast.With)
            if any(self._is_lock_expr(module, item.context_expr) for item in node.items)
        ]

        def under_lock(node: ast.AST) -> bool:
            current = module.parent(node)
            while current is not None:
                if current in lock_withs:
                    return True
                current = module.parent(current)
            return False

        for call in module.walk(ast.Call):
            name = module.call_name(call)
            tail = name.split(".")[-1] if name else None
            if tail == "get_obj" and not under_lock(call):
                yield self.finding(
                    module,
                    call,
                    "get_obj() outside a `with <lock>:` block — unlocked reads of"
                    " shared doubles can tear and over-prune; read under the slot"
                    " lock (PR 5 torn-read rule)",
                )
            elif tail in BLOCKING_CALLS and under_lock(call):
                yield self.finding(
                    module,
                    call,
                    f"potentially blocking call {name}() inside a held-lock block —"
                    " the slot lock is on every reader's path; move the blocking"
                    " work outside the critical section (PR 5)",
                )

    @staticmethod
    def _is_lock_expr(module: ModuleContext, expression: ast.AST) -> bool:
        name = module.dotted_name(expression)
        if name is None and isinstance(expression, ast.Call):
            name = module.call_name(expression)
        return name is not None and "lock" in name.lower()
