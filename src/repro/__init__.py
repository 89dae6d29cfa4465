"""uncertain-kcenter: the k-center problem for uncertain data.

A from-scratch reproduction of *"Improvements on the k-center Problem for
Uncertain Data"* (Alipour & Jafari, PODS 2018): uncertain points are discrete
distributions over possible locations, and the goal is to pick ``k`` centers
minimising the expected maximum distance over realizations.

Quickstart
----------
>>> import numpy as np
>>> from repro import UncertainPoint, UncertainDataset, solve_unrestricted_assigned
>>> points = [
...     UncertainPoint(locations=[[0.0, 0.0], [0.5, 0.2]], probabilities=[0.7, 0.3]),
...     UncertainPoint(locations=[[5.0, 5.0], [5.3, 4.9]], probabilities=[0.5, 0.5]),
...     UncertainPoint(locations=[[0.2, -0.1], [0.1, 0.3]], probabilities=[0.6, 0.4]),
... ]
>>> dataset = UncertainDataset(points=tuple(points))
>>> result = solve_unrestricted_assigned(dataset, k=2)
>>> result.centers.shape
(2, 2)

The public API re-exported here covers the data model, the cost engines, the
paper's algorithms (Theorems 2.1-2.7), the assignment rules, the deterministic
k-center substrate, the baselines, the synthetic workloads and the experiment
harness that regenerates Table 1.
"""

from __future__ import annotations

from .algorithms import (
    DETERMINISTIC_SOLVERS,
    ONE_CENTER_EXPECTED_POINT_FACTOR,
    RESTRICTED_ED_VS_UNRESTRICTED_FACTOR,
    UncertainKCenterResult,
    best_expected_point_one_center,
    exact_uncertain_one_center_discrete,
    expected_point_one_center,
    refined_uncertain_one_center,
    restricted_euclidean_factor,
    solve_facility_restricted,
    solve_metric_unrestricted,
    solve_restricted_assigned,
    solve_uncertain_kmeans,
    solve_uncertain_kmedian,
    solve_unrestricted_assigned,
    unrestricted_euclidean_factor,
    unrestricted_metric_factor,
)
from .assignments import (
    ASSIGNMENT_POLICIES,
    AssignmentPolicy,
    ExpectedDistanceAssignment,
    ExpectedPointAssignment,
    NearestLocationAssignment,
    OneCenterAssignment,
    OptimalAssignment,
)
from .baselines import (
    brute_force_restricted_assigned,
    brute_force_unassigned,
    brute_force_unrestricted_assigned,
    cormode_mcgregor_baseline,
    guha_munagala_baseline,
    wang_zhang_1d,
)
from .bounds import assigned_cost_lower_bound, per_point_lower_bound
from .cost import (
    AssignedCostEvaluator,
    CostContext,
    LocalSearchSweep,
    MonteCarloEstimate,
    assigned_cost_evaluator,
    cost_context,
    enumerate_expected_cost_assigned,
    enumerate_expected_cost_unassigned,
    enumerate_expected_max,
    expected_cost_assigned,
    expected_cost_unassigned,
    expected_distance_matrix,
    expected_max_batch,
    expected_max_batch_values,
    expected_max_of_independent,
    expected_one_center_cost,
    expected_one_center_costs,
    monte_carlo_cost_assigned,
    monte_carlo_cost_unassigned,
)
from .deterministic import (
    KCenterResult,
    epsilon_kcenter,
    exact_discrete_kcenter,
    exact_euclidean_kcenter,
    exact_k_supplier,
    gonzalez_kcenter,
    hochbaum_shmoys_kcenter,
    k_supplier,
    one_dimensional_kcenter,
)
from .exceptions import (
    ConvergenceError,
    DimensionMismatchError,
    InfeasibleError,
    MetricError,
    NotSupportedError,
    ProbabilityError,
    ReproError,
    ValidationError,
)
from .geometry import Ball, geometric_median, smallest_enclosing_ball
from .io import dataset_from_records, dump_location_table, load_location_table
from .metrics import (
    ChebyshevMetric,
    EuclideanMetric,
    GraphMetric,
    ManhattanMetric,
    MatrixMetric,
    Metric,
    MinkowskiMetric,
)
from .runtime import ContextStore, available_workers, parallel_map
from .uncertain import (
    UncertainDataset,
    UncertainPoint,
    enumerate_realizations,
    expected_point_reduction,
    medoid_reduction,
    one_center_reduction,
    reduce_dataset,
    sample_realizations,
)
from .workloads import (
    EUCLIDEAN_WORKLOADS,
    WorkloadSpec,
    anisotropic_clusters,
    gaussian_clusters,
    graph_uncertain_workload,
    heavy_tailed,
    line_workload,
    random_graph_metric,
    uniform_cloud,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # data model
    "UncertainPoint",
    "UncertainDataset",
    "enumerate_realizations",
    "sample_realizations",
    "expected_point_reduction",
    "one_center_reduction",
    "medoid_reduction",
    "reduce_dataset",
    # metrics
    "Metric",
    "EuclideanMetric",
    "ManhattanMetric",
    "ChebyshevMetric",
    "MinkowskiMetric",
    "MatrixMetric",
    "GraphMetric",
    # geometry
    "Ball",
    "smallest_enclosing_ball",
    "geometric_median",
    # deterministic substrate
    "KCenterResult",
    "gonzalez_kcenter",
    "hochbaum_shmoys_kcenter",
    "epsilon_kcenter",
    "exact_discrete_kcenter",
    "exact_euclidean_kcenter",
    "one_dimensional_kcenter",
    "k_supplier",
    "exact_k_supplier",
    # tabular I/O
    "dataset_from_records",
    "load_location_table",
    "dump_location_table",
    # cost engines
    "expected_max_of_independent",
    "expected_max_batch",
    "expected_max_batch_values",
    "AssignedCostEvaluator",
    "CostContext",
    "LocalSearchSweep",
    "assigned_cost_evaluator",
    "cost_context",
    "enumerate_expected_max",
    "expected_cost_assigned",
    "expected_cost_unassigned",
    "expected_one_center_cost",
    "expected_one_center_costs",
    "expected_distance_matrix",
    "enumerate_expected_cost_assigned",
    "enumerate_expected_cost_unassigned",
    "MonteCarloEstimate",
    "monte_carlo_cost_assigned",
    "monte_carlo_cost_unassigned",
    # execution runtime
    "ContextStore",
    "parallel_map",
    "available_workers",
    # assignments
    "AssignmentPolicy",
    "ExpectedDistanceAssignment",
    "ExpectedPointAssignment",
    "OneCenterAssignment",
    "NearestLocationAssignment",
    "OptimalAssignment",
    "ASSIGNMENT_POLICIES",
    # the paper's algorithms
    "UncertainKCenterResult",
    "expected_point_one_center",
    "best_expected_point_one_center",
    "exact_uncertain_one_center_discrete",
    "refined_uncertain_one_center",
    "solve_restricted_assigned",
    "solve_unrestricted_assigned",
    "solve_metric_unrestricted",
    "solve_uncertain_kmedian",
    "solve_uncertain_kmeans",
    "solve_facility_restricted",
    "restricted_euclidean_factor",
    "unrestricted_euclidean_factor",
    "unrestricted_metric_factor",
    "ONE_CENTER_EXPECTED_POINT_FACTOR",
    "RESTRICTED_ED_VS_UNRESTRICTED_FACTOR",
    "DETERMINISTIC_SOLVERS",
    # baselines and bounds
    "brute_force_restricted_assigned",
    "brute_force_unrestricted_assigned",
    "brute_force_unassigned",
    "guha_munagala_baseline",
    "cormode_mcgregor_baseline",
    "wang_zhang_1d",
    "assigned_cost_lower_bound",
    "per_point_lower_bound",
    # workloads
    "WorkloadSpec",
    "gaussian_clusters",
    "uniform_cloud",
    "heavy_tailed",
    "line_workload",
    "anisotropic_clusters",
    "graph_uncertain_workload",
    "random_graph_metric",
    "EUCLIDEAN_WORKLOADS",
    # exceptions
    "ReproError",
    "ValidationError",
    "ProbabilityError",
    "DimensionMismatchError",
    "MetricError",
    "NotSupportedError",
    "ConvergenceError",
    "InfeasibleError",
]
