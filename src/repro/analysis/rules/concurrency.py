"""Concurrency rules: shm lifecycle, pool ownership, lock discipline."""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import Finding, ModuleContext, Rule, Severity

#: The one module allowed to create shared-memory segments.
SHM_OWNER = "runtime/shm.py"

#: The one module allowed to construct worker pools.
POOL_OWNER = "runtime/pool.py"

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


class PoolOwnerRule(Rule):
    """``POOL-OWNER`` — worker pools are built by ``runtime/pool.py`` only.

    Motivation: the persistent pool.  One process-wide pool carries the
    worker initializer (the armed fault spec and sanitizer names ride its
    ``initargs``), respawns when those change, and is shut down at exit
    and by ``shutdown_runtime``.  A ``ProcessPoolExecutor`` or
    ``multiprocessing.Pool`` built anywhere else bypasses all of that: its
    workers run without faults or sanitizers, and nothing reaps it.
    """

    id = "POOL-OWNER"
    severity = Severity.ERROR
    summary = "worker pools are constructed only in runtime/pool.py"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if module.path_endswith(POOL_OWNER):
            return
        for call in module.walk(ast.Call):
            name = module.call_name(call)
            tail = name.split(".")[-1] if name else None
            if tail in ("ProcessPoolExecutor", "Pool"):
                yield self.finding(
                    module,
                    call,
                    f"worker pool constructed outside {POOL_OWNER} — the"
                    " persistent pool owns worker startup (fault spec and"
                    " sanitizers ride its initargs) and shutdown; map work"
                    " through repro.runtime.parallel instead",
                )


class LockDisciplineRule(Rule):
    """``LOCK-DISCIPLINE`` — no blocking calls while a lock is held.

    Motivation: the cross-process incumbent's lock once sat on every
    reader's path, and ``repro serve`` guards its admission gate, circuit
    breaker and latency windows with locks of their own.  A call that can
    block (``sleep``, ``join``, ``acquire``, ``result``, ...) inside a
    ``with <lock>:`` block stalls every thread waiting for that lock while
    its holder blocks.  A blocking call that releases the lock, such as
    ``Condition.wait``, needs a justified suppression.
    """

    id = "LOCK-DISCIPLINE"
    severity = Severity.ERROR
    summary = "no blocking calls while a lock is held"

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
            if tail in BLOCKING_CALLS and under_lock(call):
                yield self.finding(
                    module,
                    call,
                    f"potentially blocking call {name}() inside a held-lock block —"
                    " every thread waiting for the lock stalls while its holder"
                    " blocks; move the blocking work outside the critical section",
                )

    @staticmethod
    def _is_lock_expr(module: ModuleContext, expression: ast.AST) -> bool:
        name = module.dotted_name(expression)
        if name is None and isinstance(expression, ast.Call):
            name = module.call_name(expression)
        return name is not None and "lock" in name.lower()
