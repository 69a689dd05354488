"""Core library: the discrete resource-time tradeoff problem with reuse over paths.

This subpackage implements the paper's primary contribution:

* problem modelling -- duration functions (:mod:`~repro.core.duration`),
  activity-on-node DAGs (:mod:`~repro.core.dag`), activity-on-arc DAGs and
  the Section 2 / Section 3.1 transformations (:mod:`~repro.core.arcdag`),
  resource flows (:mod:`~repro.core.flow`);
* the LP-rounding bi-criteria approximation of Theorem 3.4
  (:mod:`~repro.core.lp`, :mod:`~repro.core.rounding`,
  :mod:`~repro.core.minflow`, :mod:`~repro.core.bicriteria`);
* the single-criteria approximations for k-way splitting (Theorem 3.9) and
  recursive binary splitting (Theorems 3.10 and 3.16);
* the exact series-parallel dynamic program of Section 3.4;
* exact solvers and baseline heuristics used by the experiments.
"""

from repro.core.duration import (
    ConstantDuration,
    DurationFunction,
    GeneralStepDuration,
    KWaySplitDuration,
    RecursiveBinarySplitDuration,
    recursive_binary_height_bound,
)
from repro.core.dag import MakespanResult, TradeoffDAG
from repro.core.arcdag import (
    Arc,
    ArcDAG,
    NodeToArcMapping,
    TwoTupleExpansion,
    expand_to_two_tuples,
    node_to_arc_dag,
    section33_binary_tuples,
)
from repro.core.flow import FlowValidationError, ResourceFlow
from repro.core.maxflow import DinicMaxFlow
from repro.core.minflow import (
    InfeasibleFlowError,
    MinFlowNetwork,
    MinFlowResult,
    allocation_min_budget,
    min_flow_with_lower_bounds,
)
from repro.core.lp import (
    LPSolution,
    lp_kernel_counters,
    solve_min_makespan_lp,
    solve_min_resource_lp,
)
from repro.core.rounding import RoundedRequirements, round_lp_solution
from repro.core.problem import MinMakespanProblem, MinResourceProblem, TradeoffSolution
from repro.core.bicriteria import (
    BicriteriaReport,
    solve_min_makespan_bicriteria,
    solve_min_resource_bicriteria,
)
from repro.core.kway_approx import solve_min_makespan_kway
from repro.core.binary_approx import (
    solve_min_makespan_binary,
    solve_min_makespan_binary_improved,
)
from repro.core.series_parallel import (
    SPLeaf,
    SPNode,
    SPParallel,
    SPSeries,
    decompose_series_parallel,
    parallel,
    series,
    sp_exact_min_makespan,
    sp_exact_min_resource,
    sp_min_makespan_table,
)
from repro.core.exact import (
    ExactSearchLimit,
    ExactSearchStats,
    exact_min_makespan,
    exact_min_makespan_arcs,
    exact_min_resource,
    exact_min_resource_arcs,
)
from repro.core.baselines import (
    greedy_global_reuse,
    greedy_no_reuse,
    greedy_path_reuse,
    no_resource_solution,
    peak_resource_usage,
    uniform_split_solution,
)

__all__ = [
    # durations
    "DurationFunction", "GeneralStepDuration", "ConstantDuration",
    "KWaySplitDuration", "RecursiveBinarySplitDuration", "recursive_binary_height_bound",
    # DAGs
    "TradeoffDAG", "MakespanResult", "Arc", "ArcDAG", "NodeToArcMapping",
    "TwoTupleExpansion", "node_to_arc_dag", "expand_to_two_tuples", "section33_binary_tuples",
    # flows
    "ResourceFlow", "FlowValidationError", "DinicMaxFlow",
    "MinFlowResult", "MinFlowNetwork", "InfeasibleFlowError", "min_flow_with_lower_bounds",
    "allocation_min_budget",
    # LP + rounding
    "LPSolution", "solve_min_makespan_lp", "solve_min_resource_lp", "lp_kernel_counters",
    "RoundedRequirements", "round_lp_solution",
    # problems / solutions
    "MinMakespanProblem", "MinResourceProblem", "TradeoffSolution",
    # approximation algorithms
    "BicriteriaReport", "solve_min_makespan_bicriteria", "solve_min_resource_bicriteria",
    "solve_min_makespan_kway", "solve_min_makespan_binary", "solve_min_makespan_binary_improved",
    # series-parallel
    "SPNode", "SPLeaf", "SPSeries", "SPParallel", "series", "parallel",
    "sp_min_makespan_table", "sp_exact_min_makespan", "sp_exact_min_resource",
    "decompose_series_parallel",
    # exact + baselines
    "exact_min_makespan", "exact_min_resource", "exact_min_makespan_arcs",
    "exact_min_resource_arcs", "ExactSearchLimit", "ExactSearchStats",
    "no_resource_solution", "uniform_split_solution", "greedy_path_reuse",
    "greedy_no_reuse", "greedy_global_reuse", "peak_resource_usage",
]
