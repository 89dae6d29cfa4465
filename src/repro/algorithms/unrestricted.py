"""Unrestricted assigned uncertain k-center in Euclidean-style spaces.

Theorems 2.4 and 2.5: run a deterministic k-center solver (factor ``f``) on
the expected points and pair the resulting centers with the expected-distance
or expected-point assignment.  The assigned expected cost is within

* ``(4 + f)`` (ED assignment, Theorem 2.4), or
* ``(2 + f)`` (EP assignment, Theorem 2.5)

of the *unrestricted* optimum — i.e. the best possible over all centers *and*
all assignments.  With Gonzalez (``f = 2``) the EP variant gives Table 1's
factor 4 in ``O(nz + n log k)`` time; with a ``(1+ε)`` solver, ``3 + ε``.

The algorithm is Theorem 2.2's expected-point reduction, run by the one
body in :mod:`repro.algorithms.restricted`; only the benchmark it is
guaranteed against differs, which the experiments measure accordingly, and
this entry point can polish the assignment afterwards.
"""

from __future__ import annotations

from ..assignments.base import AssignmentPolicy
from ..uncertain.dataset import UncertainDataset
from .restricted import _solve_by_reduction
from .result import UncertainKCenterResult
from .solvers import DeterministicSolver


def solve_unrestricted_assigned(
    dataset: UncertainDataset,
    k: int,
    *,
    assignment: str | AssignmentPolicy = "expected-point",
    solver: str | DeterministicSolver = "gonzalez",
    epsilon: float | None = None,
    polish_assignment: bool = False,
) -> UncertainKCenterResult:
    """Solve the unrestricted assigned problem via Theorems 2.4 / 2.5.

    Parameters
    ----------
    dataset, k, solver, epsilon:
        As in :func:`repro.algorithms.restricted.solve_restricted_assigned`.
    assignment:
        ``"expected-point"`` (default, Theorem 2.5, factor ``2 + f``) or
        ``"expected-distance"`` (Theorem 2.4, factor ``4 + f``).
    polish_assignment:
        When true, after computing the guaranteed solution run the
        local-search :class:`OptimalAssignment` policy on the same centers.
        The polished assignment can only lower the cost, so the theorem's
        guarantee still holds; the extra work is ``O(rounds * n * k)`` exact
        cost evaluations.
    """
    return _solve_by_reduction(
        dataset, k, assignment, solver, epsilon, "unrestricted-assigned", polish_assignment
    )
