"""Restricted assigned uncertain k-center in Euclidean-style spaces.

Theorem 2.2 (and Remark 3.1): replace every uncertain point by its expected
point ``P̄_i``, run a deterministic k-center solver with factor ``f`` on the
expected points, and use the resulting centers with the expected-distance or
expected-point assignment.  The expected cost is then within

* ``(4 + f) * optED`` under the expected-distance assignment, and
* ``(2 + f) * optEP`` under the expected-point assignment,

where ``optED`` / ``optEP`` are the best possible costs achievable by *any*
centers under that same (restricted) assignment rule.  With the Gonzalez
solver (``f = 2``) this gives Table 1's factors 6 and 4 with total running
time ``O(nz + n log k)``; with a ``(1+ε)`` solver, ``5 + ε`` and ``3 + ε``.

Theorems 2.4 and 2.5 guarantee the same reduction, with the same factors,
against the unrestricted optimum; :func:`_solve_by_reduction` is the one
body both :func:`solve_restricted_assigned` and
:func:`repro.algorithms.unrestricted.solve_unrestricted_assigned` run.
"""

from __future__ import annotations

from typing import Any

from .._validation import check_positive_int
from ..assignments.base import AssignmentPolicy
from ..assignments.policies import ExpectedDistanceAssignment, ExpectedPointAssignment, OptimalAssignment
from ..cost.context import CostContext
from ..exceptions import NotSupportedError, ValidationError
from ..uncertain.dataset import UncertainDataset
from ..uncertain.reduction import expected_point_reduction
from .factors import restricted_euclidean_factor
from .result import UncertainKCenterResult
from .solvers import DeterministicSolver, resolve_solver

#: Assignment policies covered by Theorems 2.2, 2.4 and 2.5, keyed by their public names.
_POLICIES: dict[str, type[AssignmentPolicy]] = {
    "expected-distance": ExpectedDistanceAssignment,
    "expected-point": ExpectedPointAssignment,
}


def solve_restricted_assigned(
    dataset: UncertainDataset,
    k: int,
    *,
    assignment: str | AssignmentPolicy = "expected-distance",
    solver: str | DeterministicSolver = "gonzalez",
    epsilon: float | None = None,
) -> UncertainKCenterResult:
    """Solve the restricted assigned uncertain k-center problem (Theorem 2.2).

    Parameters
    ----------
    dataset:
        Uncertain points in a space supporting expected points (Euclidean /
        Minkowski).  For general metric spaces use
        :func:`repro.algorithms.metric_space.solve_metric_unrestricted`.
    k:
        Number of centers.
    assignment:
        ``"expected-distance"`` or ``"expected-point"`` (or an
        :class:`AssignmentPolicy` instance of one of those two rules).
    solver:
        Deterministic k-center solver to run on the expected points; a name
        from :data:`repro.algorithms.solvers.DETERMINISTIC_SOLVERS` or a
        callable.  Its certified factor ``f`` determines the guarantee.
    epsilon:
        Slack forwarded to the ``"epsilon"`` solver.
    """
    return _solve_by_reduction(dataset, k, assignment, solver, epsilon, "restricted-assigned")


def _solve_by_reduction(
    dataset: UncertainDataset,
    k: int,
    assignment: str | AssignmentPolicy,
    solver: str | DeterministicSolver,
    epsilon: float | None,
    objective: str,
    polish_assignment: bool = False,
) -> UncertainKCenterResult:
    """The expected-point reduction, guaranteed against ``objective``'s optimum.

    ``"restricted-assigned"`` is Theorem 2.2; ``"unrestricted-assigned"`` is
    Theorems 2.4 / 2.5, whose results also record whether
    ``polish_assignment`` lowered the cost.
    """
    if not dataset.metric.supports_expected_point:
        raise NotSupportedError(
            "the expected-point reduction (Theorems 2.2, 2.4, 2.5) needs expected points;"
            " use solve_metric_unrestricted for general metrics"
        )
    k = check_positive_int(k, name="k")
    policy = _resolve_policy(assignment)
    solve = resolve_solver(solver, epsilon=epsilon)

    representatives = expected_point_reduction(dataset)
    deterministic = solve(representatives, k, dataset.metric)
    centers = deterministic.centers
    labels = policy(dataset, centers)
    # One cost context serves the guaranteed solution's score, the
    # local-search polish and the polished score.  When polishing, pin the
    # supports up front so all three ride one metric pass; without polish
    # the lazy single-score path stays O(nz).
    context = CostContext(dataset, centers)
    if polish_assignment:
        _ = context.supports
    cost = context.assigned_cost(labels)

    polished = False
    if polish_assignment:
        better_labels = OptimalAssignment(context=context)(dataset, centers)
        better_cost = context.assigned_cost(better_labels)
        if better_cost < cost:
            labels, cost, polished = better_labels, better_cost, True

    factor = None
    if deterministic.approximation_factor is not None:
        factor = restricted_euclidean_factor(policy.name, deterministic.approximation_factor)
    metadata: dict[str, Any] = {
        "theorem": "2.2",
        "deterministic": deterministic.metadata.get("algorithm"),
        "deterministic_factor": deterministic.approximation_factor,
        "deterministic_radius": deterministic.radius,
    }
    if objective == "unrestricted-assigned":
        metadata["theorem"] = "2.5" if policy.name == "expected-point" else "2.4"
        metadata["assignment_polished"] = polished
    return UncertainKCenterResult(
        centers=centers,
        expected_cost=cost,
        objective=objective,
        assignment=labels,
        assignment_policy=policy.name,
        guaranteed_factor=factor,
        representatives=representatives,
        metadata=metadata,
    )


def _resolve_policy(assignment: str | AssignmentPolicy) -> AssignmentPolicy:
    if isinstance(assignment, AssignmentPolicy):
        if assignment.name not in _POLICIES:
            raise ValidationError(
                f"Theorems 2.2, 2.4 and 2.5 cover the assignments {sorted(_POLICIES)},"
                f" not {assignment.name!r}"
            )
        return assignment
    if assignment not in _POLICIES:
        raise ValidationError(
            f"unknown assignment {assignment!r}; choose one of {sorted(_POLICIES)}"
        )
    return _POLICIES[assignment]()
