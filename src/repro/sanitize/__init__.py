"""Opt-in runtime sanitizers: the dynamic half of the PR 7 invariant pair.

``python -m repro lint`` proves invariants *statically*; the sanitizers in
this package verify the same invariants *dynamically*, under real
execution, the way production race detectors pair lint rules with runtime
instrumentation.  They are enabled through the :mod:`repro._env` registry::

    REPRO_SANITIZE=shm,det python -m pytest ...

* ``shm`` — :mod:`.shm_san` wraps segment create/attach/unlink and reports
  leaked or double-unlinked ``/dev/shm`` segments at process exit.
* ``det`` — :mod:`.det_san` fingerprints per-chunk ``parallel_map``
  results so a ``workers=1`` vs ``workers=N`` divergence is caught at the
  first differing chunk rather than at final-result comparison.

Everything here is **zero-cost when disabled**: every hook begins with an
``enabled(...)`` check against a plain module-level set, and the runtime
modules only ever call tiny trampoline functions.  Violations are recorded
in-process (:func:`violations`, for tests) and printed to stderr by an
``atexit`` reporter; sanitizers never raise into the instrumented code
path, because a watchdog that crashes the patient is worse than none.

Worker processes receive the enabled-sanitizer names through pool
``initargs`` (with the armed fault spec), so ``shm`` violations inside a
worker are reported on the worker's own stderr at exit; ``det`` runs
entirely in the parent.
"""

from __future__ import annotations

import atexit
import sys
from dataclasses import dataclass

from .._env import env_str

#: Every sanitizer this package ships, in REPRO_SANITIZE spelling.
SANITIZER_NAMES: tuple[str, ...] = ("shm", "det")

_enabled: set[str] = set()
_violations: list["Violation"] = []


@dataclass(frozen=True)
class Violation:
    """One invariant breach observed at runtime."""

    sanitizer: str
    message: str

    def render(self) -> str:
        return f"{self.sanitizer.upper()}-SAN: {self.message}"


def parse_names(raw: str | None) -> tuple[str, ...]:
    """Parse a ``REPRO_SANITIZE`` value; unknown names are a hard error.

    A typo like ``REPRO_SANITIZE=shmm`` silently running nothing would
    defeat the point of a sanitizer, so unknown names raise.
    """
    if not raw:
        return ()
    names = tuple(part.strip() for part in raw.split(",") if part.strip())
    unknown = [name for name in names if name not in SANITIZER_NAMES]
    if unknown:
        raise ValueError(
            f"unknown sanitizer(s) {unknown!r} in REPRO_SANITIZE;"
            f" valid names: {', '.join(SANITIZER_NAMES)}"
        )
    return names


def set_enabled(names: tuple[str, ...] | list[str]) -> None:
    """Enable exactly ``names`` (validated), clearing previous state."""
    parsed = parse_names(",".join(names)) if names else ()
    _enabled.clear()
    _enabled.update(parsed)
    reset()


def enabled(name: str) -> bool:
    return name in _enabled


def enabled_names() -> tuple[str, ...]:
    """The enabled sanitizers in canonical order (for pool initargs)."""
    return tuple(name for name in SANITIZER_NAMES if name in _enabled)


def report_violation(sanitizer: str, message: str) -> None:
    _violations.append(Violation(sanitizer=sanitizer, message=message))


def violations() -> tuple[Violation, ...]:
    return tuple(_violations)


def reset() -> None:
    """Clear recorded violations and every sanitizer's internal state."""
    from . import det_san, shm_san

    _violations.clear()
    shm_san.reset()
    det_san.reset()


def check_exit() -> tuple[Violation, ...]:
    """Run end-of-process checks (shm leaks) and return all violations."""
    from . import shm_san

    if enabled("shm"):
        shm_san.check_exit()
    return violations()


def _atexit_report() -> None:
    if not _enabled:
        return
    found = check_exit()
    if not found:
        return
    print(
        f"repro.sanitize: {len(found)} violation(s) "
        f"({','.join(enabled_names())} enabled):",
        file=sys.stderr,
    )
    for violation in found:
        print(f"  {violation.render()}", file=sys.stderr)


# Registered at import time, i.e. *before* runtime modules register their
# own atexit cleanups (pool shutdown, publication close): atexit runs LIFO,
# so the leak check observes the tree *after* those cleanups ran — a
# segment they correctly unlinked is not a leak.
atexit.register(_atexit_report)

_initial = env_str("REPRO_SANITIZE")
if _initial is not None:
    set_enabled(parse_names(_initial))


__all__ = [
    "SANITIZER_NAMES",
    "Violation",
    "check_exit",
    "enabled",
    "enabled_names",
    "parse_names",
    "report_violation",
    "reset",
    "set_enabled",
    "violations",
]
