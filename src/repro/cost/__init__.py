"""Expected-cost engines and the shared cost-evaluation service.

Exact kernel (:mod:`repro.cost.expected`)
    ``E[max]`` of independent discrete distances in ``O(N log N)`` with
    correct zero-probability semantics, in three evaluation shapes: scalar
    (:func:`expected_max_of_independent`), batched over assignments, value
    rows or lone centers (:func:`expected_max_batch`,
    :func:`expected_max_batch_values`, :func:`expected_one_center_costs`) and
    incremental single-point moves (:class:`AssignedCostEvaluator` +
    :class:`LocalSearchSweep`).

Shared service (:mod:`repro.cost.context`)
    :class:`CostContext` — built **once per (dataset, candidate-centers)
    pair** — caches what every solver layer re-derives otherwise:

    * per-point ``(z_i, m)`` distance supports (one metric call per point);
    * the ``(n, m)`` expected-distance matrix (ED-style argmin rules);
    * per-candidate sorted CDF columns inside a lazily built
      :class:`AssignedCostEvaluator` for batch/incremental *assigned* costs;
    * per-point global value-rank tables for the batched *unassigned*
      evaluator, which recovers each subset's min-reduced support in value
      order from integer ranks instead of re-sorting the float values per
      chunk.

    Rebuild the context when the dataset or candidate set changes; new
    assignments, subsets or local-search rounds over the same candidates
    reuse the cached structure.  Consumers: ``OptimalAssignment`` (also the
    brute-force unrestricted reference's polish stage), the
    ``polish_assignment`` path of the unrestricted solver, all four
    baselines, and the ablation/sensitivity experiment loops.

Reference engines
    Full realization enumeration (:mod:`repro.cost.enumeration`) and
    Monte-Carlo estimation (:mod:`repro.cost.montecarlo`) validate the exact
    kernel in the test suite.
"""

from .context import CostContext, cost_context
from .enumeration import (
    enumerate_expected_cost_assigned,
    enumerate_expected_cost_unassigned,
    enumerate_expected_max,
)
from .expected import (
    AssignedCostEvaluator,
    LocalSearchSweep,
    RestProfile,
    assigned_cost_evaluator,
    distance_supports_for_assignment,
    distance_supports_for_centers,
    expected_cost_assigned,
    expected_cost_unassigned,
    expected_distance,
    expected_distance_matrix,
    expected_max_batch,
    expected_max_batch_values,
    expected_max_of_independent,
    expected_one_center_cost,
    expected_one_center_costs,
)
from .montecarlo import MonteCarloEstimate, monte_carlo_cost_assigned, monte_carlo_cost_unassigned

__all__ = [
    "expected_max_of_independent",
    "expected_max_batch",
    "expected_max_batch_values",
    "AssignedCostEvaluator",
    "LocalSearchSweep",
    "RestProfile",
    "CostContext",
    "cost_context",
    "assigned_cost_evaluator",
    "expected_cost_assigned",
    "expected_cost_unassigned",
    "expected_distance",
    "expected_distance_matrix",
    "expected_one_center_cost",
    "expected_one_center_costs",
    "distance_supports_for_assignment",
    "distance_supports_for_centers",
    "enumerate_expected_cost_assigned",
    "enumerate_expected_cost_unassigned",
    "enumerate_expected_max",
    "MonteCarloEstimate",
    "monte_carlo_cost_assigned",
    "monte_carlo_cost_unassigned",
]
