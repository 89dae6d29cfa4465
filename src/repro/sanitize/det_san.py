"""DET-SAN: per-chunk determinism fingerprinting.

The runtime's determinism contract (:mod:`repro.runtime.parallel`) says
``parallel_map(task, items)`` returns the same list for every worker
count and payload transport.  The existing tier-1 tests check that at the
*final-result* level; when one breaks, the divergence has already been
reduced away from the chunk that caused it.  This sanitizer fingerprints
the per-chunk results of every un-pruned map, keyed by the map's identity
``(task, items, payload)``, and compares repeat executions — so the run
that diverges (``workers=4`` against an earlier ``workers=1``, shm on
against shm off) is reported **at the first differing chunk**, with the
chunk index and both fingerprints.

Pruned maps (``incumbent_seed`` set) are skipped by design: branch-and-
bound chunks legitimately return timing-dependent *per-chunk* values (the
skip sets depend on which chunks the parent had harvested when it submitted
each one) while the callers' reductions stay exact — fingerprinting them would be pure false-positive.

Fingerprints are SHA-1 of a canonical form's pickle: every array inside
tuples and lists becomes ``(dtype, shape, C-order bytes)``.  Raw pickle
bytes would depend on memory layout — an in-process chunk may return a
non-contiguous view where a worker returns the equal contiguous copy it
unpickled — and report equal values as a divergence.  Anything unpicklable
(or a map whose key cannot be built) is silently skipped rather than
reported.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Any, Callable, Sequence

import numpy as np

from . import enabled, report_violation

#: Distinct map identities remembered; oldest evicted first.  Big enough
#: for a bench run's repeat loops, small enough to bound memory.
MAX_TRACKED_MAPS = 64

#: map key -> (worker-count label, per-chunk fingerprint tuple)
_seen: OrderedDict[str, tuple[str, tuple[str, ...]]] = OrderedDict()


def _canonical(value: Any) -> Any:
    """``value`` with each array in its tuples and lists made layout-free."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes(order="C"))
    if isinstance(value, tuple):
        return tuple(_canonical(item) for item in value)
    if isinstance(value, list):
        return [_canonical(item) for item in value]
    return value


def _fingerprint(value: Any) -> str | None:
    """SHA-1 of ``value``'s canonical form, or ``None`` when unpicklable."""
    import pickle

    try:
        # repro: noqa[PICKLE-OWNER] -- fingerprinting only: bytes are hashed and discarded, never persisted or shipped, so the pickle-confinement rule does not apply
        blob = pickle.dumps(_canonical(value), protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:  # unpicklable values cannot be fingerprinted
        return None
    return hashlib.sha1(blob).hexdigest()


def record_map(
    task: Callable[..., Any],
    items: Sequence[Any],
    payload: Any,
    results: Sequence[Any],
    *,
    workers: int,
    pruned: bool,
) -> None:
    """Fingerprint one ``parallel_map`` execution and diff against history."""
    if not enabled("det") or pruned:
        return
    task_name = f"{getattr(task, '__module__', '?')}.{getattr(task, '__qualname__', '?')}"
    key = _fingerprint((task_name, tuple(items), payload))
    if key is None:
        return
    prints = tuple(_fingerprint(result) or "<unpicklable>" for result in results)
    label = f"workers={workers}"
    prior = _seen.get(key)
    if prior is None:
        _seen[key] = (label, prints)
        _seen.move_to_end(key)
        while len(_seen) > MAX_TRACKED_MAPS:
            _seen.popitem(last=False)
        return
    prior_label, prior_prints = prior
    if prior_prints == prints:
        return
    index = next(
        (
            position
            for position, (old, new) in enumerate(zip(prior_prints, prints))
            if old != new
        ),
        min(len(prior_prints), len(prints)),
    )
    report_violation(
        "det",
        f"map of {task_name} over {len(items)} chunk(s) diverged at chunk"
        f" {index}: {prior_label} produced {prior_prints[index][:12] if index < len(prior_prints) else '<missing>'}…,"
        f" {label} produced {prints[index][:12] if index < len(prints) else '<missing>'}…"
        " — the determinism contract requires bit-identical chunks at every"
        " worker count",
    )


def reset() -> None:
    _seen.clear()


__all__ = [
    "MAX_TRACKED_MAPS",
    "record_map",
    "reset",
]
