"""Process-wide degradation telemetry for the crash-tolerant runtime.

PR 8 gave the runtime graceful-degradation paths — chunk-granular crash
recovery with pool rebuilds, per-call transport fallback after a failed
shared-memory attach, deadline-truncated maps, last-resort serial
completion.  Degrading *silently* would be worse than crashing: a solve
that quietly ran serially after five pool rebuilds looks identical to a
healthy one in its results (that is the determinism contract working as
designed) while being 10x slower and masking an environment problem.

This module is the flight recorder: a process-wide :class:`RuntimeHealth`
counter block that every recovery path increments through :func:`record`.
The experiment harness snapshots it around each run and attaches the
*delta* to the record summary when anything fired, and the
``fault_recovery`` bench family uses the same counters to prove completed
chunks are not recomputed after an injected crash
(``chunks_submitted == chunks + retries``).

Counters only ever increase, so :func:`snapshot` + :func:`delta` give
every caller its own interval view — the experiment harness per run, and
``repro serve``'s sliding-window circuit breaker and ``/stats`` endpoint,
which hold their baselines open for minutes — and no window's movement is
ever negative.

Serve threads record concurrently (the deadline and gap stops of
concurrent serial solves), so :func:`record`, :func:`snapshot` and
:func:`delta` all run under one module lock; an unlocked read-add-write
loses increments.  Callers may hold their own locks around
these functions, but this module never takes any lock but its own.
"""

from __future__ import annotations

import dataclasses
import os
import threading
from dataclasses import dataclass


@dataclass
class RuntimeHealth:
    """Counters for every degradation event the runtime can survive."""

    #: Executor rebuilds after a ``BrokenProcessPool`` (one per crash round).
    pool_rebuilds: int = 0
    #: Chunk resubmissions of any kind (crash requeues + transport fallbacks).
    retries: int = 0
    #: In-flight chunk results lost to a pool break and recomputed.
    lost_chunks: int = 0
    #: Chunks resubmitted on the ``("pickled", ...)`` transport after their
    #: worker failed to attach the shared-memory payload.
    transport_fallbacks: int = 0
    #: Maps truncated by a ``time_budget`` deadline (partial results returned).
    deadline_hits: int = 0
    #: Maps that stopped submission early because the certified optimality
    #: gap reached the caller's ``gap_target`` (requested precision attained).
    gap_target_hits: int = 0
    #: Maps that exhausted pool retries and completed serially in the parent.
    serial_fallbacks: int = 0
    #: Chunk dispatches submitted to the pool (includes resubmissions).
    chunks_submitted: int = 0
    #: Chunk results harvested from the pool (completed work kept).
    chunks_completed: int = 0

    def as_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)

    def any(self) -> bool:
        """Whether any degradation fired (submission/completion traffic aside).

        ``gap_target_hits`` is excluded too: stopping because the requested
        precision was *attained* is goal fulfilment, not degradation.
        """
        return any(
            getattr(self, field.name)
            for field in dataclasses.fields(self)
            if field.name
            not in ("chunks_submitted", "chunks_completed", "gap_target_hits")
        )

    def audit_ok(self) -> bool:
        """The audit identity: every submission completed or was retried.

        Holds at quiescence for the whole process and for any window
        (:func:`delta`): a chunk submitted to the pool either comes back
        (``chunks_completed``) or is requeued and counted (``retries``).
        A map with chunks still in flight is legitimately mid-identity, so
        callers should evaluate this between maps — the server's
        ``/healthz`` does it when no request holds the pool.
        """
        return self.chunks_submitted == self.chunks_completed + self.retries


_HEALTH = RuntimeHealth()

#: Guards ``_HEALTH``.
_LOCK = threading.Lock()


def _reinit_lock() -> None:
    # A pool worker forked while another thread held the lock would inherit
    # it locked forever; give the child a fresh one.
    global _LOCK
    _LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reinit_lock)


def record(**counts: int) -> None:
    """Increment named counters; an unknown name is a programming error."""
    with _LOCK:
        for name, amount in counts.items():
            setattr(_HEALTH, name, getattr(_HEALTH, name) + amount)


def snapshot() -> RuntimeHealth:
    """An immutable-by-convention copy of the counters right now."""
    with _LOCK:
        return dataclasses.replace(_HEALTH)


def delta(since: RuntimeHealth) -> RuntimeHealth:
    """Counter movement between ``since`` (an earlier snapshot) and now."""
    current = snapshot()
    return RuntimeHealth(
        **{
            field.name: getattr(current, field.name) - getattr(since, field.name)
            for field in dataclasses.fields(RuntimeHealth)
        }
    )


__all__ = ["RuntimeHealth", "delta", "record", "snapshot"]
