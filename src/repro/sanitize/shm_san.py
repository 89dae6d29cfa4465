"""SHM-SAN: dynamic shared-memory segment lifecycle checking.

PR 4's invariant — every segment is owned by exactly one
:class:`~repro.runtime.shm.SegmentLease` and unlinked exactly once — is
checked statically by the SHM-LIFECYCLE and SHM-ESCAPE lint rules; this
sanitizer checks the half no static pass can see: what *actually* happens
at runtime.  :mod:`repro.runtime.shm` calls the three record hooks from
its create/attach/unlink paths; at process exit every segment that was
created but never unlinked is reported as a leak, and a second unlink of
the same name (two leases racing on one segment — the bug class behind
the bpo-38119 workaround) is reported at the moment it happens.

State is per-process by design: a worker that creates a segment and hands
it to the parent for cleanup would be a *protocol* violation the lint
layer flags; at runtime each process only vouches for the segments it
created itself.
"""

from __future__ import annotations

from . import enabled, report_violation

#: Segment name -> short provenance label (e.g. "pack_arrays").
_created: dict[str, str] = {}
#: Names this process attached to (diagnostic context for leak reports).
_attached: set[str] = set()
#: Names already unlinked (for double-unlink detection).
_unlinked: set[str] = set()


def record_create(name: str, where: str) -> None:
    """A segment was created (and leased) by this process."""
    if not enabled("shm"):
        return
    _created[name] = where
    _unlinked.discard(name)


def record_attach(name: str) -> None:
    """This process attached to a segment it did not create."""
    if not enabled("shm"):
        return
    _attached.add(name)


def record_unlink(name: str) -> None:
    """A segment name is being unlinked (lease close)."""
    if not enabled("shm"):
        return
    if name in _unlinked:
        report_violation(
            "shm",
            f"segment '{name}' unlinked twice — two leases claimed ownership"
            " of one segment",
        )
        return
    _unlinked.add(name)
    _created.pop(name, None)


def check_exit() -> None:
    """Report every segment this process created but never unlinked."""
    for name, where in sorted(_created.items()):
        report_violation(
            "shm",
            f"segment '{name}' created by {where} was never unlinked"
            " (leaked /dev/shm memory)",
        )


def reset() -> None:
    _created.clear()
    _attached.clear()
    _unlinked.clear()


__all__ = ["check_exit", "record_attach", "record_create", "record_unlink", "reset"]
