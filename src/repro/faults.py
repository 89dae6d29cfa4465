"""Deterministic, seed-driven fault injection for the runtime (REPRO_FAULTS).

The recovery paths PR 8 added to :mod:`repro.runtime` — chunk-granular
crash recovery, transport fallback on a failed shared-memory attach,
deadline truncation — are exactly the paths that never execute on a
healthy box, which means they rot unless CI can trigger them on demand.
This module is the trigger: a registry of *fault kinds* with injection
points inside ``runtime/pool.py``, ``runtime/shm.py`` and ``serve/``, armed
through the :mod:`repro._env` registry::

    REPRO_FAULTS=crash:p=0.05,slow:p=0.1:ms=200,shm_attach,serve_reject

* ``crash`` — the worker process dies with ``os._exit`` (no cleanup, no
  atexit: the honest simulation of an OOM kill) before running a chunk;
* ``slow`` — the chunk dispatch sleeps ``ms`` milliseconds first, which is
  how the ``time_budget`` deadline path gets exercised;
* ``shm_attach`` — a worker's shared-memory segment attach raises
  :class:`FaultInjected`, driving the per-call fallback to the
  ``("pickled", ...)`` transport;
* ``serve_reject`` — the server's admission path (PR 9, :mod:`repro.serve`)
  rejects the request with a 503 + ``Retry-After`` as if overloaded,
  driving the client's retry/backoff machinery deterministically.

Determinism
-----------
Decisions are **stateless and seed-driven**: whether a site fires is a pure
hash of ``(kind, seed, site, token)`` where the token identifies the unit of
work (the pool passes ``(chunk_index, attempt)``).  The same spec therefore
injects the same faults at the same chunks on every run — a chaos CI job is
reproducible — and including the *attempt* in the token is what makes crash
recovery converge: a chunk whose first attempt fires re-rolls on its retry
instead of killing every fresh worker forever.

Like :mod:`repro.sanitize` (the pattern this module follows), everything is
zero-cost when off — every injection point is one trampoline call that
returns immediately while no fault is armed — unknown kinds in the spec are
a hard error rather than a silently ignored typo, and the armed spec
propagates into pool workers through the same initargs channel the
sanitizers use.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import Iterable

from ._env import env_str

#: Every fault kind this module can inject, in REPRO_FAULTS spelling.
FAULT_KINDS: tuple[str, ...] = (
    "crash",
    "slow",
    "shm_attach",
    "serve_reject",
)

#: Exit status an injected crash dies with (any nonzero breaks the pool;
#: a recognizable value keeps post-mortems honest about who killed whom).
CRASH_EXIT_CODE = 70

#: Default injected latency for ``slow`` when the spec names no ``ms``.
DEFAULT_SLOW_MS = 100


class FaultInjected(RuntimeError):
    """Raised by an injection point standing in for a real environment fault."""


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault kind with its firing parameters."""

    kind: str
    #: Probability a site fires, decided by the deterministic hash draw.
    probability: float = 1.0
    #: Injected latency in milliseconds (``slow`` only).
    delay_ms: int = DEFAULT_SLOW_MS
    #: Seed folded into every draw, so distinct chaos runs are cheap.
    seed: int = 0

    def render(self) -> str:
        """The spec in parseable ``kind:p=..`` form (for pool initargs)."""
        parts = [self.kind, f"p={self.probability:g}"]
        if self.kind == "slow":
            parts.append(f"ms={self.delay_ms}")
        if self.seed:
            parts.append(f"seed={self.seed}")
        return ":".join(parts)


_armed: dict[str, FaultSpec] = {}


def parse_spec(raw: str | None) -> tuple[FaultSpec, ...]:
    """Parse a ``REPRO_FAULTS`` value; unknown kinds or keys are hard errors.

    A typo like ``REPRO_FAULTS=crsh:p=0.1`` silently injecting nothing would
    defeat the point of a chaos run, so unknown names raise (the same
    contract as :func:`repro.sanitize.parse_names`).
    """
    if not raw:
        return ()
    specs: list[FaultSpec] = []
    for entry in raw.split(","):
        entry = entry.strip()
        if not entry:
            continue
        kind, _, params = entry.partition(":")
        kind = kind.strip()
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r} in REPRO_FAULTS;"
                f" valid kinds: {', '.join(FAULT_KINDS)}"
            )
        probability = 1.0
        delay_ms = DEFAULT_SLOW_MS
        seed = 0
        for part in params.split(":") if params else ():
            key, separator, value = part.partition("=")
            key = key.strip()
            if not separator:
                raise ValueError(
                    f"malformed fault parameter {part!r} for {kind!r}; expected key=value"
                )
            try:
                if key == "p":
                    probability = float(value)
                elif key == "ms":
                    delay_ms = int(value)
                elif key == "seed":
                    seed = int(value)
                else:
                    raise ValueError(
                        f"unknown fault parameter {key!r} for {kind!r};"
                        " valid parameters: p, ms, seed"
                    )
            except (TypeError, OverflowError) as error:  # pragma: no cover - defensive
                raise ValueError(f"bad fault parameter {part!r} for {kind!r}") from error
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"fault probability must be within [0, 1], got {probability!r}")
        if delay_ms < 0:
            raise ValueError(f"fault delay must be non-negative, got {delay_ms!r}")
        specs.append(
            FaultSpec(kind=kind, probability=probability, delay_ms=delay_ms, seed=seed)
        )
    return tuple(specs)


def set_enabled(spec: str | Iterable[FaultSpec] | None) -> None:
    """Arm exactly the faults in ``spec`` (a raw string or parsed specs).

    ``None`` / ``""`` / ``()`` disarm everything.  This is both the
    programmatic switch (benchmarks, tests) and the worker-side receiver of
    the initargs handoff.
    """
    parsed = parse_spec(spec) if isinstance(spec, str) else tuple(spec or ())
    _armed.clear()
    for fault in parsed:
        _armed[fault.kind] = fault


def enabled(kind: str) -> bool:
    """Whether ``kind`` is armed (injection points never need this directly)."""
    return kind in _armed


def active(kind: str) -> FaultSpec | None:
    """The armed spec for ``kind``, if any."""
    return _armed.get(kind)


def enabled_spec() -> str:
    """The armed faults as one parseable string (for pool initargs)."""
    return ",".join(_armed[kind].render() for kind in FAULT_KINDS if kind in _armed)


def _fires(spec: FaultSpec, site: str, token: object) -> bool:
    """Stateless deterministic draw: pure hash of (kind, seed, site, token)."""
    if spec.probability >= 1.0:
        return True
    if spec.probability <= 0.0:
        return False
    digest = hashlib.sha256(
        f"{spec.kind}|{spec.seed}|{site}|{token!r}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") < spec.probability * 2.0**64


def inject(kind: str, site: str, token: object = None) -> bool:
    """One injection point: fire fault ``kind`` at ``site`` if armed.

    Zero-cost when nothing is armed (one empty-dict lookup).  Returns
    ``True`` when the fault fired and execution continues (``slow``,
    ``serve_reject`` — the caller applies the rejection itself so the fault
    model stays next to the path it perturbs); ``crash`` never returns and
    ``shm_attach`` raises
    :class:`FaultInjected`.  ``token`` identifies the unit of work so
    retries re-roll deterministically.
    """
    spec = _armed.get(kind)
    if spec is None:
        return False
    if not _fires(spec, site, token):
        return False
    if kind == "crash":
        os._exit(CRASH_EXIT_CODE)
    if kind == "slow":
        time.sleep(spec.delay_ms / 1000.0)
        return True
    if kind == "shm_attach":
        raise FaultInjected(f"injected shared-memory attach failure at {site} (token={token!r})")
    return True


_initial = env_str("REPRO_FAULTS")
if _initial is not None:
    set_enabled(parse_spec(_initial))


__all__ = [
    "CRASH_EXIT_CODE",
    "DEFAULT_SLOW_MS",
    "FAULT_KINDS",
    "FaultInjected",
    "FaultSpec",
    "active",
    "enabled",
    "enabled_spec",
    "inject",
    "parse_spec",
    "set_enabled",
]
