"""Minimum flow with lower bounds (the integral step of Section 3.1).

After the α-threshold rounding of the LP solution, every arc ``e`` of the
expanded DAG carries an integral resource *requirement* ``f'_e`` (either 0
or ``r_e``).  The final step of the bi-criteria algorithm computes a minimum
source-to-sink flow subject to ``f_e >= f'_e`` on every arc (LP 11-13 in the
paper); because the constraint matrix is a network matrix, the optimum is
integral whenever the lower bounds are -- this is exactly the integrality
argument invoked in Lemma 3.3.

The computation uses the classical reduction to two maximum flows:

1. find *any* feasible circulation respecting the lower bounds by adding a
   super-source/super-sink and an unbounded return arc ``t -> s``;
2. minimise the flow value by pushing as much flow as possible from ``t``
   back to ``s`` in the residual network (never violating the lower bounds,
   which are excluded from the residual capacities).

Both max-flow computations use :class:`repro.core.maxflow.DinicMaxFlow`.
:class:`MinFlowNetwork` lays that network out once per arc DAG, so a caller
that solves many lower-bound sets on one DAG (the exact oracle) pays only
for the two max-flows of each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, Mapping, Optional, Tuple

from repro.core.arcdag import ArcDAG
from repro.core.flow import ResourceFlow
from repro.core.maxflow import INFINITY, DinicMaxFlow
from repro.utils.validation import check_non_negative, require

__all__ = ["MinFlowResult", "MinFlowNetwork", "min_flow_with_lower_bounds",
           "allocation_min_budget"]


class InfeasibleFlowError(ValueError):
    """Raised when no flow satisfies the requested lower bounds."""


@dataclass
class MinFlowResult:
    """Outcome of :func:`min_flow_with_lower_bounds`.

    Attributes
    ----------
    value:
        The minimum feasible flow value (source outflow).
    flow:
        ``arc id -> flow`` achieving that value.
    """

    value: float
    flow: Dict[str, float]

    def as_resource_flow(self, arc_dag: ArcDAG) -> ResourceFlow:
        """Wrap the flow assignment in a :class:`ResourceFlow`."""
        rf = ResourceFlow(arc_dag, dict(self.flow))
        rf.validate()
        return rf


#: Names of the reduction's two extra vertices.
_SUPER_SOURCE = ("__minflow_super_source__",)
_SUPER_SINK = ("__minflow_super_sink__",)


class MinFlowNetwork:
    """The two-max-flow reduction's network for one arc DAG, laid out once.

    The vertices are interned and the edges added once, in the order the
    reduction needs them: one edge per arc in arc order, the ``t -> s``
    return arc, then a super-source edge and a super-sink edge per vertex in
    vertex order.  :meth:`solve` only resets the capacities and reruns the
    two max-flows.  A vertex without excess in a solve keeps its two super
    edges at capacity 0, which Dinic never traverses, so the edges that do
    carry flow sit in the same adjacency order whatever the lower bounds:
    every solve pushes the paths a network built for its lower bounds alone
    would push, and returns the same flow bit for bit.
    """

    def __init__(self, arc_dag: ArcDAG) -> None:
        self.arc_dag = arc_dag
        arcs = arc_dag.arcs
        vertices = arc_dag.vertices
        position = {v: i for i, v in enumerate(vertices)}
        self._arc_ids = [arc.arc_id for arc in arcs]
        self._arc_index = {arc_id: i for i, arc_id in enumerate(self._arc_ids)}
        self._tails = [position[arc.tail] for arc in arcs]
        self._heads = [position[arc.head] for arc in arcs]
        self._num_vertices = len(vertices)

        dinic = DinicMaxFlow()
        for arc in arcs:
            dinic.add_edge(arc.tail, arc.head, INFINITY)
        self._return_arc = dinic.add_edge(arc_dag.sink, arc_dag.source, INFINITY)
        for v in vertices:
            dinic.add_edge(_SUPER_SOURCE, v, 0.0)
            dinic.add_edge(v, _SUPER_SINK, 0.0)
        self._dinic = dinic
        # vertex i's super-source edge is handle _super_base + 2 i, its super-sink edge the next
        self._super_base = self._return_arc + 1

    def solve(self, lower_bounds: Mapping[str, float],
              upper_bounds: Optional[Mapping[str, float]] = None) -> MinFlowResult:
        """The minimum flow meeting ``lower_bounds`` (see :func:`min_flow_with_lower_bounds`)."""
        lower: Dict[str, float] = {}
        for arc_id, lb in lower_bounds.items():
            check_non_negative(lb, f"lower bound for arc {arc_id}")
            lower[arc_id] = lb

        num_arcs = len(self._arc_ids)
        capacities = [INFINITY] * (num_arcs + 1) + [0.0] * (2 * self._num_vertices)
        excess = [0.0] * self._num_vertices
        if upper_bounds:
            arcs = range(num_arcs)
        else:
            # uncapacitated arcs without a lower bound change nothing below
            arcs = sorted(self._arc_index[a] for a in lower if a in self._arc_index)
        for i in arcs:
            arc_id = self._arc_ids[i]
            lb = lower.get(arc_id, 0.0)
            ub = upper_bounds.get(arc_id, INFINITY) if upper_bounds else INFINITY
            if ub < lb - 1e-12:
                raise InfeasibleFlowError(
                    f"arc {arc_id}: upper bound {ub} below lower bound {lb}")
            if not math.isinf(ub):
                capacities[i] = ub - lb
            excess[self._heads[i]] += lb
            excess[self._tails[i]] -= lb

        demand_total = 0.0
        for v, ex in enumerate(excess):
            if ex > 1e-12:
                capacities[self._super_base + 2 * v] = ex
                demand_total += ex
            elif ex < -1e-12:
                capacities[self._super_base + 2 * v + 1] = -ex

        dinic = self._dinic
        dinic.reset(capacities)
        pushed = dinic.max_flow(_SUPER_SOURCE, _SUPER_SINK)
        if pushed + 1e-6 < demand_total:
            raise InfeasibleFlowError(
                f"lower bounds are infeasible: needed {demand_total}, satisfied {pushed}")

        # Feasible flow value currently routed around the t -> s return arc.
        feasible_value = dinic.flow_on(self._return_arc)

        # Remove the return arc and cancel as much circulation as possible by
        # pushing flow from t back to s in the residual network.
        dinic.disable_edge(self._return_arc)
        cancelled = dinic.max_flow(self.arc_dag.sink, self.arc_dag.source)

        flow = {arc_id: lower.get(arc_id, 0.0) + extra
                for arc_id, extra in zip(self._arc_ids, dinic.flows())}
        return MinFlowResult(value=feasible_value - cancelled, flow=flow)


def min_flow_with_lower_bounds(
    arc_dag: ArcDAG,
    lower_bounds: Mapping[str, float],
    upper_bounds: Optional[Mapping[str, float]] = None,
    *,
    network: Optional[MinFlowNetwork] = None,
) -> MinFlowResult:
    """Compute a minimum source-to-sink flow with per-arc lower bounds.

    Parameters
    ----------
    arc_dag:
        The DAG whose arcs the flow lives on.
    lower_bounds:
        ``arc id -> required minimum flow``; arcs not listed have lower
        bound 0.
    upper_bounds:
        Optional ``arc id -> capacity``; arcs not listed are uncapacitated.
    network:
        A :class:`MinFlowNetwork` already laid out for ``arc_dag``, for
        callers that solve many lower-bound sets on one DAG; by default one
        is built for this call.

    Returns
    -------
    MinFlowResult

    Raises
    ------
    InfeasibleFlowError
        If the lower/upper bounds admit no feasible flow (e.g. a lower bound
        exceeds an upper bound, or lower-bounded arcs cannot be routed).
    """
    if network is None:
        network = MinFlowNetwork(arc_dag)
    require(network.arc_dag is arc_dag, "the min-flow network was built for another arc DAG")
    return network.solve(lower_bounds, upper_bounds)


def allocation_min_budget(dag, allocation: Mapping[Hashable, float]) -> Tuple[float, Dict[Hashable, float]]:
    """Minimum budget needed to route ``allocation`` over paths of a node DAG.

    Given a per-job resource allocation on a :class:`~repro.core.dag.TradeoffDAG`,
    the minimum total budget that can realise it (with reuse over paths,
    Question 1.3) is the minimum flow through the node-split arc DAG where
    every job arc has lower bound equal to its allocated resource.

    Returns
    -------
    (budget, job_flow):
        The minimum budget and the realised flow through each job's arc
        (always >= the requested allocation).
    """
    from repro.core.arcdag import node_to_arc_dag

    arc_dag, mapping = node_to_arc_dag(dag)
    lower = {}
    for job, amount in allocation.items():
        check_non_negative(amount, f"allocation for job {job!r}")
        if amount > 0:
            lower[mapping.job_arc[job]] = amount
    result = min_flow_with_lower_bounds(arc_dag, lower)
    job_flow = {job: result.flow.get(arc_id, 0.0) for job, arc_id in mapping.job_arc.items()}
    return result.value, job_flow
