"""Central registry of every environment variable the runtime reads.

Scattered ``os.environ.get`` calls are how env-var docs rot: a variable gets
added deep inside :mod:`repro.runtime`, the README table is updated by hand
(or not), and six months later nobody can say which spellings the code still
honors.  This module is the single choke point:

* every variable the package reads is **declared** in :data:`REGISTRY` with
  its type, default and one-line effect description;
* every read goes through the typed accessors below (:func:`env_flag`,
  :func:`env_str`, :func:`env_number`), which refuse undeclared names — an
  unregistered read is a programming error, not a silent new knob;
* the README's "Environment variables" table is **generated** from the
  registry (:func:`render_readme_table`; ``python -m repro lint
  --env-table`` prints it) and a tier-1 test asserts the README matches, so
  docs cannot drift;
* the ``ENV-REGISTRY`` rule of :mod:`repro.analysis` flags any direct
  ``os.environ`` / ``os.getenv`` access outside this module.

Accessor semantics are preserved exactly from the call sites they replaced
(PR 4/PR 5): flags treat an *unset* variable as the default but any set
value — including the empty string — as explicit (``""`` and ``"0"`` mean
off); numbers treat garbage, infinities and non-positive values as unset.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, TypeVar

_N = TypeVar("_N", int, float)


@dataclass(frozen=True)
class EnvVar:
    """Declaration of one environment variable the package honors."""

    name: str
    #: How the README table spells the variable and its argument.
    usage: str
    #: One-line effect description (the README table's second column).
    effect: str


#: Every environment variable the package reads, in README table order.
REGISTRY: dict[str, EnvVar] = {
    variable.name: variable
    for variable in (
        EnvVar(
            name="REPRO_SHM",
            usage="`REPRO_SHM=0`",
            effect="Disable shared-memory payload transport (payloads ship pickled, unpickled once per worker)",
        ),
        EnvVar(
            name="REPRO_OVERSUBSCRIBE",
            usage="`REPRO_OVERSUBSCRIBE=1`",
            effect="Allow pools wider than the CPU count (tests/benchmarks)",
        ),
        EnvVar(
            name="REPRO_CONTEXT_SPILL",
            usage="`REPRO_CONTEXT_SPILL=DIR`",
            effect="Enable the cross-process context disk-spill tier",
        ),
        EnvVar(
            name="REPRO_CONTEXT_SPILL_MAX",
            usage="`REPRO_CONTEXT_SPILL_MAX=BYTES`",
            effect="Bound the spill directory's total size (oldest evicted first)",
        ),
        EnvVar(
            name="REPRO_CONTEXT_SPILL_MAX_AGE",
            usage="`REPRO_CONTEXT_SPILL_MAX_AGE=SECONDS`",
            effect="Evict spill files older than this",
        ),
        EnvVar(
            name="REPRO_SANITIZE",
            usage="`REPRO_SANITIZE=shm,lock,det`",
            effect="Enable runtime sanitizers (shm lifecycle, lock order, chunk determinism)",
        ),
        EnvVar(
            name="REPRO_FAULTS",
            usage="`REPRO_FAULTS=crash:p=0.05,slow:p=0.1:ms=200,shm_attach,spill_corrupt,serve_reject:p=0.2`",
            effect="Arm deterministic fault injection (worker crashes, slow chunks, shm attach failures, spill corruption, admission-path 503s)",
        ),
        EnvVar(
            name="REPRO_SERVE_MAX_INFLIGHT",
            usage="`REPRO_SERVE_MAX_INFLIGHT=N`",
            effect="Default concurrent-request cap for `repro serve` (excess gets 429 + Retry-After)",
        ),
        EnvVar(
            name="REPRO_SERVE_MAX_BYTES",
            usage="`REPRO_SERVE_MAX_BYTES=BYTES`",
            effect="Default per-request body bound for `repro serve` (oversized requests get 413)",
        ),
        EnvVar(
            name="REPRO_SERVE_DRAIN_SECONDS",
            usage="`REPRO_SERVE_DRAIN_SECONDS=SECONDS`",
            effect="Default SIGTERM/SIGINT drain budget for `repro serve` before the runtime shuts down",
        ),
    )
}


def _declared(name: str) -> str:
    if name not in REGISTRY:
        raise KeyError(
            f"environment variable {name!r} is not declared in repro._env.REGISTRY; "
            "register it (name, usage, effect) before reading it"
        )
    return name


def env_raw(name: str) -> str | None:
    """The raw value of a *declared* variable (``None`` when unset)."""
    return os.environ.get(_declared(name))


def env_str(name: str) -> str | None:
    """A declared string variable; unset and empty both read as ``None``."""
    return env_raw(name) or None


def env_flag(name: str, *, default: bool) -> bool:
    """A declared boolean variable.

    Unset means ``default``; any set value is explicit, with ``""`` and
    ``"0"`` meaning off and everything else meaning on (so ``REPRO_SHM=``
    disables shared memory even though the flag defaults on).
    """
    raw = env_raw(name)
    if raw is None:
        return default
    return raw not in ("", "0")


def env_number(name: str, cast: Callable[[float], _N]) -> _N | None:
    """A declared positive-number variable; anything else reads as unset.

    ``cast`` is ``int`` or ``float``; garbage, overflow, infinities and
    non-positive values all mean "no limit" rather than an error, matching
    the spill-bound semantics these variables configure.
    """
    raw = env_raw(name)
    if not raw:
        return None
    try:
        parsed = float(raw)
        if not math.isfinite(parsed):  # inf survives float(); int() would raise
            return None
        value = cast(parsed)
    except (ValueError, OverflowError):  # garbage: treat as unset
        return None
    return value if value > 0 else None


def render_readme_table() -> str:
    """The README "Environment variables" table, generated from the registry.

    A tier-1 test asserts the README contains exactly this block; regenerate
    with ``python -m repro lint --env-table`` after registering a variable.
    """
    lines = ["| Variable | Effect |", "| --- | --- |"]
    for variable in REGISTRY.values():
        lines.append(f"| {variable.usage} | {variable.effect} |")
    return "\n".join(lines)
