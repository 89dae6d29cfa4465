"""Record types shared by the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping, Sequence

from ..runtime import health


@dataclass(frozen=True)
class ExperimentRow:
    """One measured configuration inside an experiment."""

    configuration: str
    measured: Mapping[str, float]


@dataclass(frozen=True)
class ExperimentRecord:
    """Everything the harness reports about one experiment (Table 1 row etc.).

    Attributes
    ----------
    experiment_id:
        Identifier from DESIGN.md's experiment index (``"E1"`` .. ``"E12"``).
    paper_artifact:
        The table/figure (or remark) of the paper being reproduced.
    paper_claim:
        The paper's claim, as a human-readable string (e.g. ``"factor 2"``).
    rows:
        Per-configuration measurements.
    summary:
        Aggregate values (e.g. worst measured ratio) used by EXPERIMENTS.md.
    """

    experiment_id: str
    paper_artifact: str
    paper_claim: str
    rows: Sequence[ExperimentRow] = field(default_factory=tuple)
    summary: Mapping[str, Any] = field(default_factory=dict)

    def worst(self, key: str) -> float:
        """Largest value of ``key`` across the rows (e.g. worst ratio)."""
        values = [row.measured[key] for row in self.rows if key in row.measured]
        return max(values) if values else float("nan")

    def best(self, key: str) -> float:
        """Smallest value of ``key`` across the rows."""
        values = [row.measured[key] for row in self.rows if key in row.measured]
        return min(values) if values else float("nan")


def runtime_health_summary(
    since: health.RuntimeHealth, *, always: bool = False
) -> dict[str, int] | None:
    """The runtime-health window since ``since``, or ``None`` when clean.

    ``always=False`` (the record-attaching default) reports only when a
    degradation counter moved, keeping clean experiment records byte-stable.
    ``always=True`` reports the window unconditionally — zeroed counters
    included — which is what a monitoring surface wants: the server's
    ``/stats`` endpoint uses this so "no degradation" is an explicit row of
    zeros rather than an absent key.
    """
    delta = health.delta(since)
    if not always and not delta.any():
        return None
    return delta.as_dict()


def track_runtime_health(
    run: Callable[..., ExperimentRecord],
    *args: Any,
    always: bool = False,
    **kwargs: Any,
) -> ExperimentRecord:
    """Run one experiment and attach the runtime-health delta to its record.

    Snapshots :mod:`repro.runtime.health` around the call; if any degradation
    counter moved (pool rebuilds, chunk retries, transport fallbacks, deadline
    hits, serial fallbacks), the delta lands in the record's summary under
    ``"runtime_health"``.  Fault-free runs report nothing by default, so
    existing records stay byte-stable; ``always=True`` attaches the (possibly
    all-zero) delta unconditionally for callers that want clean runs to say
    so explicitly.  ``always`` is consumed here — it is never forwarded to
    ``run``.
    """
    before = health.snapshot()
    record = run(*args, **kwargs)
    summary_delta = runtime_health_summary(before, always=always)
    if summary_delta is None:
        return record
    summary = dict(record.summary)
    summary["runtime_health"] = summary_delta
    return replace(record, summary=summary)
