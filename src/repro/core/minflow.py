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
that solves many lower-bound sets on one DAG pays only for the two
max-flows of each.

A search that changes a few lower bounds at a time (the exact oracle) need
not solve at all: :meth:`MinFlowNetwork.warm` updates an optimal flow of
the previous bounds.  It routes each new shortfall along one fixed
source-to-sink path through its arc, then runs the reduction's second phase
on what it has, cancelling flow from the sink back to the source while the
residual network allows.  Its value is the minimum flow value; its flow is
an optimum, though not the one the two max-flows return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Mapping, NamedTuple, Optional, Tuple

from repro.core.arcdag import ArcDAG
from repro.core.flow import ResourceFlow
from repro.core.maxflow import INFINITY, DinicMaxFlow
from repro.utils.validation import ValidationError, check_non_negative, require

__all__ = ["MinFlowResult", "MinFlowNetwork", "WarmFlow", "min_flow_with_lower_bounds",
           "allocation_min_budget", "warm_tolerance", "WARM_TOLERANCE"]

#: How close to a threshold a warm value may fall before a caller comparing
#: it lets the canonical solve decide instead (see :func:`warm_tolerance`).
WARM_TOLERANCE = 1e-7


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


class WarmFlow(NamedTuple):
    """A minimum flow that :meth:`MinFlowNetwork.warm` can update.

    ``flow`` and ``lower`` are indexed like ``arc_dag.arcs``; ``value`` is
    the flow's value, the minimum over every flow meeting ``lower``.  The
    lists are shared between states and never changed in place.
    """

    value: float
    flow: List[float]
    lower: List[float]


def warm_tolerance(lower_bounds: Iterable[float]) -> float:
    """How near a threshold a warm value must be for the canonical solve to decide.

    0 when every lower bound is an integer (and their sum is exactly
    representable): every flow either computation handles is then an
    integer, reached without rounding, so the warm value equals the
    canonical one and decides alone.  :data:`WARM_TOLERANCE` otherwise, far
    above the rounding either computation can accumulate.
    """
    total = 0.0
    for bound in lower_bounds:
        if not float(bound).is_integer():
            return WARM_TOLERANCE
        total += bound
    return 0.0 if total < 2.0 ** 52 else WARM_TOLERANCE


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

    :meth:`warm_start` and :meth:`warm` are the warm path, for uncapacitated
    arcs: a search keeps a :class:`WarmFlow` per node and updates its
    parent's, and solves canonically only the flows it reports.
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
        self._source = position[arc_dag.source]
        self._sink = position[arc_dag.sink]
        self._mutations = arc_dag.mutations
        # the warm path's layout, compiled by the first warm_start()
        self._into: List[List[Tuple[int, int]]] = []
        self._out_of: List[List[Tuple[int, int]]] = []
        self._paths: List[Optional[List[int]]] = []

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

    def arc_index(self, arc_id: str) -> int:
        """The position of ``arc_id`` in ``arc_dag.arcs``, which indexes a :class:`WarmFlow`."""
        return self._arc_index[arc_id]

    def solve(self, lower_bounds: Mapping[str, float],
              upper_bounds: Optional[Mapping[str, float]] = None) -> MinFlowResult:
        """The minimum flow meeting ``lower_bounds`` (see :func:`min_flow_with_lower_bounds`)."""
        index = self._arc_index
        lower: Dict[str, float] = {}
        for arc_id, lb in lower_bounds.items():
            if arc_id not in index:
                raise ValidationError(f"lower bound for arc {arc_id!r}, which the DAG does not have")
            check_non_negative(lb, f"lower bound for arc {arc_id}")
            lower[arc_id] = lb
        for arc_id in upper_bounds or ():
            if arc_id not in index:
                raise ValidationError(f"upper bound for arc {arc_id!r}, which the DAG does not have")

        num_arcs = len(self._arc_ids)
        capacities = [INFINITY] * (num_arcs + 1) + [0.0] * (2 * self._num_vertices)
        excess = [0.0] * self._num_vertices
        if upper_bounds:
            arcs = range(num_arcs)
        else:
            # uncapacitated arcs without a lower bound change nothing below
            arcs = sorted(index[a] for a in lower)
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

    # ------------------------------------------------------------------
    # the warm path
    # ------------------------------------------------------------------
    def warm_start(self) -> WarmFlow:
        """The zero flow of no lower bounds: the state :meth:`warm` updates.

        Validates the DAG (at once when it has not changed since its last
        check): the warm path relies on every vertex lying on a
        source-to-sink path, and on the arcs being uncapacitated.
        """
        arc_dag = self.arc_dag
        require(arc_dag.mutations == self._mutations,
                "the arc DAG changed after its min-flow network was laid out")
        arc_dag.validate()
        if not self._into:
            self._into = [[] for _ in range(self._num_vertices)]
            self._out_of = [[] for _ in range(self._num_vertices)]
            for i, (tail, head) in enumerate(zip(self._tails, self._heads)):
                self._into[head].append((i, tail))
                self._out_of[tail].append((i, head))
            self._paths = [None] * len(self._arc_ids)
        zeros = [0.0] * len(self._arc_ids)
        return WarmFlow(0.0, zeros, zeros)

    def warm(self, state: WarmFlow, changes: Iterable[Tuple[int, float]]) -> WarmFlow:
        """An optimal flow for ``state``'s lower bounds with ``changes`` applied.

        ``changes`` are ``(arc index, new lower bound)`` pairs; a bound may
        rise, fall or return to 0.  Each shortfall (a bound above the arc's
        flow) is routed along :meth:`_path` of its arc, which keeps the flow
        feasible.  Then :meth:`_cancel` pushes flow from the sink back to
        the source while any residual path allows, so the flow is minimal
        again.  A change that the flow already carries, and that lowers no
        bound, leaves the flow optimal: the state keeps it and only records
        the new bound.  ``state`` itself is not changed.
        """
        flow = state.flow
        lower = list(state.lower)
        routed = cancel = False
        for index, bound in changes:
            if not bound >= 0:
                raise ValidationError(
                    f"lower bound for arc {self._arc_ids[index]!r} must be non-negative, "
                    f"got {bound!r}")
            if bound < lower[index]:
                cancel = True
            lower[index] = bound
            shortfall = bound - flow[index]
            if shortfall > 0:
                if not routed:
                    flow = list(flow)
                    routed = cancel = True
                for arc in self._path(index):
                    flow[arc] += shortfall
        if not cancel:
            return WarmFlow(state.value, flow, lower)
        if not routed:
            flow = list(flow)
        self._cancel(flow, lower)
        return WarmFlow(sum(flow[arc] for arc, _head in self._out_of[self._source]), flow, lower)

    def lower_bounds(self, state: WarmFlow) -> Dict[str, float]:
        """``state``'s positive lower bounds by arc id, as :meth:`solve` takes them."""
        return {arc_id: bound for arc_id, bound in zip(self._arc_ids, state.lower) if bound}

    def _path(self, index: int) -> List[int]:
        """Arc ``index`` with the source-to-sink path through it that shortfalls take.

        Compiled once per arc: from its tail, each vertex's first in-arc back
        to the source; from its head, each vertex's first out-arc on to the
        sink.  A validated DAG has both at every vertex but the terminals,
        and acyclicity ends both walks.
        """
        path = self._paths[index]
        if path is None:
            path = [index]
            v = self._tails[index]
            while v != self._source:
                arc = self._into[v][0][0]
                path.append(arc)
                v = self._tails[arc]
            v = self._heads[index]
            while v != self._sink:
                arc = self._out_of[v][0][0]
                path.append(arc)
                v = self._heads[arc]
            self._paths[index] = path
        return path

    def _cancel(self, flow: List[float], lower: List[float]) -> None:
        """Push as much flow as possible from the sink back to the source, in place.

        The reduction's second phase on a flow that meets ``lower``: in the
        residual network an arc can be followed forwards without bound and
        backwards by ``flow - lower``.  Each round a breadth-first search
        from the sink finds a shortest residual path to the source and
        pushes its bottleneck along it; with no path left, no flow of
        smaller value meets ``lower``.
        """
        source, sink = self._source, self._sink
        into, out_of = self._into, self._out_of
        tails, heads = self._tails, self._heads
        while True:
            # via[v]: the arc the search entered v by; ~arc if it went backwards
            via: List[Optional[int]] = [None] * self._num_vertices
            via[sink] = -1
            queue = [sink]
            for v in queue:  # first in, first out: the loop reaches what it appends
                for arc, tail in into[v]:
                    if via[tail] is None and flow[arc] - lower[arc] > 1e-12:
                        via[tail] = ~arc
                        queue.append(tail)
                for arc, head in out_of[v]:
                    if via[head] is None:
                        via[head] = arc
                        queue.append(head)
                if via[source] is not None:
                    break
            else:
                return
            amount = math.inf
            v = source
            while v != sink:
                arc = via[v]
                if arc < 0:
                    arc = ~arc
                    amount = min(amount, flow[arc] - lower[arc])
                    v = heads[arc]
                else:
                    v = tails[arc]
            v = source
            while v != sink:
                arc = via[v]
                if arc < 0:
                    arc = ~arc
                    flow[arc] -= amount
                    v = heads[arc]
                else:
                    flow[arc] += amount
                    v = tails[arc]


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
