"""Approximation-factor bookkeeping for the paper's theorems.

Every theorem in the paper has the shape "run a deterministic k-center solver
with factor ``f`` on the representatives; the uncertain solution is within
``g(f)`` of the relevant optimum".  This module centralises the ``g``
functions, derived from the proofs in Section 3 so that plugging in any
deterministic factor (``f = 1`` exact, ``f = 1 + ε``, ``f = 2`` Gonzalez)
reproduces every entry of Table 1:

========================================  =================  ==============
Setting                                    formula ``g(f)``   Table 1 value
========================================  =================  ==============
1-center, Euclidean (Thm 2.1)              2                  2
restricted, Euclidean, ED (Thm 2.2)        4 + f              6 / 5+ε
restricted, Euclidean, EP (Thm 2.2)        2 + f              4 / 3+ε
unrestricted vs ED-restricted (Thm 2.3)    3                  3 (R^1 row)
unrestricted, Euclidean, ED (Thm 2.4)      4 + f              —
unrestricted, Euclidean, EP (Thm 2.5)      2 + f              4 / 3+ε
unrestricted, metric, ED (Thm 2.6)         5 + 2f             7+2ε
unrestricted, metric, OC (Thm 2.7)         3 + 2f             5+2ε
========================================  =================  ==============

(Gonzalez: ``f = 2``; the paper's ``(1+ε)`` black box: ``f = 1 + ε``.)
"""

from __future__ import annotations

from ..exceptions import ValidationError

#: Factor of Theorem 2.1 (expected point of any single uncertain point).
ONE_CENTER_EXPECTED_POINT_FACTOR = 2.0

#: Factor of Theorem 2.3 (optimal ED-restricted solution vs unrestricted).
RESTRICTED_ED_VS_UNRESTRICTED_FACTOR = 3.0


def restricted_euclidean_factor(assignment_policy: str, deterministic_factor: float) -> float:
    """Factor of Theorem 2.2 for the given assignment rule.

    ``4 + f`` for the expected-distance rule, ``2 + f`` for the
    expected-point rule.  Theorems 2.4 / 2.5 give the same factors against
    the unrestricted optimum (:data:`unrestricted_euclidean_factor`).
    """
    f = _check_factor(deterministic_factor)
    if assignment_policy == "expected-distance":
        return 4.0 + f
    if assignment_policy == "expected-point":
        return 2.0 + f
    raise ValidationError(
        "Theorems 2.2, 2.4 and 2.5 cover the expected-distance and expected-point"
        f" assignments, not {assignment_policy!r}"
    )


#: Factor of Theorems 2.4 / 2.5 (Euclidean, vs the unrestricted optimum):
#: the same reduction as Theorem 2.2, with the same factors.
unrestricted_euclidean_factor = restricted_euclidean_factor


def unrestricted_metric_factor(assignment_policy: str, deterministic_factor: float) -> float:
    """Factor of Theorems 2.6 / 2.7 (general metric, vs the unrestricted optimum)."""
    f = _check_factor(deterministic_factor)
    if assignment_policy == "expected-distance":
        return 5.0 + 2.0 * f
    if assignment_policy == "one-center":
        return 3.0 + 2.0 * f
    raise ValidationError(
        f"Theorems 2.6/2.7 cover the expected-distance and one-center assignments, not {assignment_policy!r}"
    )


def _check_factor(factor: float) -> float:
    value = float(factor)
    if value < 1.0 - 1e-9:
        raise ValidationError(f"a deterministic approximation factor must be >= 1, got {value}")
    return max(value, 1.0)
