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

Counters only ever increase; :func:`snapshot` + :func:`delta` give
callers interval views without resetting global state under anyone
else's feet (:func:`reset` exists for tests and benchmarks that own the
whole interval).

Long-lived processes (PR 9's ``repro serve``) hold snapshots open for
minutes — a sliding-window circuit breaker and a ``/stats`` endpoint each
keep their own baseline — while tests and benchmarks sharing the process
may call :func:`reset` at any time.  A reset between a window's
``snapshot()`` and its ``delta()`` used to produce *negative* deltas and a
broken audit identity (``submitted == completed + retries`` no longer
held per window).  Snapshots therefore carry a **reset generation**: when
the generation moved, :func:`delta` knows the counters restarted from
zero and re-baselines instead of subtracting a stale snapshot.

Serve threads record concurrently (the deadline and gap stops of
concurrent serial solves), so :func:`record`, :func:`snapshot`,
:func:`delta` and :func:`reset` all run under one module lock; an unlocked
read-add-write loses increments.  Callers may hold their own locks around
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

        Holds at quiescence for the whole process and for any
        generation-consistent window (:func:`delta`): a chunk submitted to
        the pool either comes back (``chunks_completed``) or is requeued
        and counted (``retries``).  A map with chunks still in flight is
        legitimately mid-identity, so callers should evaluate this between
        maps — the server's ``/healthz`` does it when no request holds the
        pool.
        """
        return self.chunks_submitted == self.chunks_completed + self.retries


_HEALTH = RuntimeHealth()

#: Bumped by every :func:`reset`; snapshots remember the generation they
#: were taken in so :func:`delta` can detect a restart-from-zero.
_GENERATION = 0

#: Guards ``_HEALTH`` and ``_GENERATION``.
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


def generation() -> int:
    """The current reset generation (monotone; moves only on :func:`reset`)."""
    return _GENERATION


def snapshot() -> RuntimeHealth:
    """An immutable-by-convention copy of the counters right now.

    The copy is tagged with the current reset generation so a later
    :func:`delta` against it survives an interleaved :func:`reset`.
    """
    with _LOCK:
        return _snapshot_locked()


def _snapshot_locked() -> RuntimeHealth:
    copy = dataclasses.replace(_HEALTH)
    copy._generation = _GENERATION  # type: ignore[attr-defined]
    return copy


def delta(since: RuntimeHealth) -> RuntimeHealth:
    """Counter movement between ``since`` (an earlier snapshot) and now.

    If a :func:`reset` happened after ``since`` was taken, the counters
    restarted from zero: the stale baseline is discarded and the delta is
    everything accumulated in the current generation — never negative, and
    the per-window audit identity (:meth:`RuntimeHealth.audit_ok`) keeps
    holding.  Snapshots from before this API existed carry no generation
    tag and are trusted as current-generation baselines.
    """
    with _LOCK:
        current = _snapshot_locked()
    current_generation = current._generation  # type: ignore[attr-defined]
    if getattr(since, "_generation", current_generation) != current_generation:
        since = RuntimeHealth()
    movement = RuntimeHealth(
        **{
            field.name: getattr(current, field.name) - getattr(since, field.name)
            for field in dataclasses.fields(RuntimeHealth)
        }
    )
    movement._generation = current_generation  # type: ignore[attr-defined]
    return movement


def reset() -> None:
    """Zero every counter (tests/benchmarks that own the whole interval).

    Bumps the reset generation, so windows opened before the reset
    re-baseline at zero instead of going negative (see :func:`delta`).
    """
    global _GENERATION
    with _LOCK:
        _GENERATION += 1
        for field in dataclasses.fields(RuntimeHealth):
            setattr(_HEALTH, field.name, 0)


__all__ = ["RuntimeHealth", "delta", "generation", "record", "reset", "snapshot"]
