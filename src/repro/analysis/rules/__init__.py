"""The shipped rule set, one plugin module per invariant family.

* :mod:`.concurrency` — shared-memory lifecycle, worker-pool ownership and
  lock discipline (the runtime's process and thread invariants);
* :mod:`.determinism` — bit-determinism of solver paths and the hot-path
  no-float-sort rule;
* :mod:`.hygiene` — env-var registry routing, bound-docstring citations and
  the pickle-owner boundary;
* :mod:`.faultpoints` — fault-injection sites (PR 8/PR 9): registered kinds
  only, owned by the runtime or serve tier, reachable from a public entry
  point;
* :mod:`.anytime` — the PR 10 anytime contract: solvers accepting
  ``gap_target`` must fold a ``(cost, lower_bound, gap)`` certificate into
  the results they construct.

:func:`all_rules` instantiates one of each in stable (report) order; the
engine treats rules as plugins, so a new invariant is one subclass plus a
registry entry here.
"""

from __future__ import annotations

from ..core import Rule
from .anytime import GapCertificateRule
from .concurrency import LockDisciplineRule, PoolOwnerRule, ShmLifecycleRule
from .determinism import FloatSortHotpathRule, NondetRule
from .faultpoints import FaultPointRule
from .hygiene import BoundAdmissibleDocRule, EnvRegistryRule, PickleOwnerRule

RULE_CLASSES: tuple[type[Rule], ...] = (
    ShmLifecycleRule,
    PoolOwnerRule,
    LockDisciplineRule,
    FloatSortHotpathRule,
    NondetRule,
    EnvRegistryRule,
    BoundAdmissibleDocRule,
    PickleOwnerRule,
    FaultPointRule,
    GapCertificateRule,
)


def all_rules() -> list[Rule]:
    """Fresh instances of every shipped rule, in report order."""
    return [rule_class() for rule_class in RULE_CLASSES]
