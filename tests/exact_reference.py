"""Reference implementation of the exact oracle, kept for differential tests.

These are the exact searches and the min-flow exactly as they were before
the compiled branch and bound: every search node re-sorts the DAG and
re-solves its min-flow from scratch on a freshly built network, and
Dinic's blocking flow recurses once per vertex of the augmenting path.
They are slow by design and live here only so that the tests can check
that the fast oracle in :mod:`repro.core.exact` returns the same optima
and, where promised, the same flows bit for bit.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

from repro.core.arcdag import ArcDAG, node_to_arc_dag
from repro.core.dag import TradeoffDAG
from repro.core.exact import ExactSearchLimit
from repro.core.maxflow import INFINITY, DinicMaxFlow
from repro.core.minflow import InfeasibleFlowError, MinFlowResult
from repro.core.problem import TradeoffSolution
from repro.utils.validation import check_non_negative, require


class RecursiveDinicMaxFlow(DinicMaxFlow):
    """Dinic as it was: a full BFS per phase, and a recursive blocking-flow
    search (one frame per path vertex) restarted from ``s`` for every path."""

    def _reference_levels(self, s, t):
        level = [-1] * self.num_vertices
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for edge in self._graph[u]:
                if edge.cap > 1e-12 and level[edge.to] < 0:
                    level[edge.to] = level[u] + 1
                    queue.append(edge.to)
        return level if level[t] >= 0 else None

    def _dfs_recursive(self, u, t, pushed, level, it):
        if u == t:
            return pushed
        while it[u] < len(self._graph[u]):
            edge = self._graph[u][it[u]]
            if edge.cap > 1e-12 and level[edge.to] == level[u] + 1:
                flow = self._dfs_recursive(edge.to, t, min(pushed, edge.cap), level, it)
                if flow > 1e-12:
                    edge.cap -= flow
                    self._graph[edge.to][edge.rev].cap += flow
                    return flow
            it[u] += 1
        return 0.0

    def max_flow(self, source, sink, limit=INFINITY):
        s, t = self.vertex(source), self.vertex(sink)
        if s == t:
            return 0.0
        total = 0.0
        while total < limit:
            level = self._reference_levels(s, t)
            if level is None:
                break
            it = [0] * self.num_vertices
            while True:
                pushed = self._dfs_recursive(s, t, limit - total, level, it)
                if pushed <= 1e-12:
                    break
                total += pushed
                if total >= limit:
                    break
        return total


def reference_min_flow(arc_dag: ArcDAG, lower_bounds: Mapping[str, float],
                       upper_bounds: Optional[Mapping[str, float]] = None) -> MinFlowResult:
    """The one-shot two-max-flow reduction on a network built for this call."""
    lower: Dict[str, float] = {}
    for arc_id, lb in lower_bounds.items():
        check_non_negative(lb, f"lower bound for arc {arc_id}")
        lower[arc_id] = lb
    upper: Dict[str, float] = dict(upper_bounds or {})

    dinic = RecursiveDinicMaxFlow()
    s, t = arc_dag.source, arc_dag.sink
    super_source = ("__minflow_super_source__",)
    super_sink = ("__minflow_super_sink__",)

    excess: Dict[Hashable, float] = {v: 0.0 for v in arc_dag.vertices}
    handles: Dict[str, int] = {}
    for arc in arc_dag.arcs:
        lb = lower.get(arc.arc_id, 0.0)
        ub = upper.get(arc.arc_id, INFINITY)
        if ub < lb - 1e-12:
            raise InfeasibleFlowError(
                f"arc {arc.arc_id}: upper bound {ub} below lower bound {lb}")
        cap = ub - lb if not math.isinf(ub) else INFINITY
        handles[arc.arc_id] = dinic.add_edge(arc.tail, arc.head, cap)
        excess[arc.head] = excess.get(arc.head, 0.0) + lb
        excess[arc.tail] = excess.get(arc.tail, 0.0) - lb

    return_arc = dinic.add_edge(t, s, INFINITY)

    demand_total = 0.0
    for v, ex in excess.items():
        if ex > 1e-12:
            dinic.add_edge(super_source, v, ex)
            demand_total += ex
        elif ex < -1e-12:
            dinic.add_edge(v, super_sink, -ex)

    pushed = dinic.max_flow(super_source, super_sink)
    if pushed + 1e-6 < demand_total:
        raise InfeasibleFlowError(
            f"lower bounds are infeasible: needed {demand_total}, satisfied {pushed}")
    feasible_value = dinic.flow_on(return_arc)
    dinic.disable_edge(return_arc)
    cancelled = dinic.max_flow(t, s)

    flow: Dict[str, float] = {}
    for arc in arc_dag.arcs:
        flow[arc.arc_id] = lower.get(arc.arc_id, 0.0) + dinic.flow_on(handles[arc.arc_id])
    return MinFlowResult(value=feasible_value - cancelled, flow=flow)


# ----------------------------------------------------------------------
# activity-on-node enumeration
# ----------------------------------------------------------------------
def _candidate_levels(dag: TradeoffDAG, budget: Optional[float]) -> Dict[Hashable, List[float]]:
    levels: Dict[Hashable, List[float]] = {}
    for job in dag.jobs:
        opts = [r for r, _t in dag.duration_function(job).tuples()]
        if budget is not None:
            opts = [r for r in opts if r <= budget] or [0.0]
        levels[job] = opts
    return levels


def reference_exact_min_makespan(dag: TradeoffDAG, budget: float) -> TradeoffSolution:
    """Enumerate every breakpoint combination; ``dag.makespan_value`` each one."""
    dag = dag.ensure_single_source_sink()
    levels = _candidate_levels(dag, budget)
    arc_dag, mapping = node_to_arc_dag(dag)
    jobs = list(levels)
    best: Optional[TradeoffSolution] = None
    for combo in itertools.product(*(levels[j] for j in jobs)):
        allocation = dict(zip(jobs, combo))
        makespan = dag.makespan_value(allocation)
        if best is not None and makespan >= best.makespan:
            continue
        lower = {mapping.job_arc[j]: allocation[j] for j in jobs if allocation[j] > 0}
        try:
            result = reference_min_flow(arc_dag, lower)
        except InfeasibleFlowError:
            continue
        if result.value > budget + 1e-9:
            continue
        best = TradeoffSolution(makespan=makespan, budget_used=result.value,
                                allocation=dict(allocation), algorithm="reference")
    if best is None:
        makespan = dag.makespan_value({})
        best = TradeoffSolution(makespan=makespan, budget_used=0.0, allocation={},
                                algorithm="reference")
    return best


def reference_exact_min_resource(dag: TradeoffDAG, target_makespan: float) -> TradeoffSolution:
    """Enumerate every breakpoint combination meeting the target; least min-flow wins."""
    dag = dag.ensure_single_source_sink()
    levels = _candidate_levels(dag, None)
    arc_dag, mapping = node_to_arc_dag(dag)
    jobs = list(levels)
    best: Optional[TradeoffSolution] = None
    for combo in itertools.product(*(levels[j] for j in jobs)):
        allocation = dict(zip(jobs, combo))
        makespan = dag.makespan_value(allocation)
        if makespan > target_makespan + 1e-9:
            continue
        if best is not None and max(combo, default=0.0) >= best.budget_used:
            continue
        lower = {mapping.job_arc[j]: allocation[j] for j in jobs if allocation[j] > 0}
        try:
            result = reference_min_flow(arc_dag, lower)
        except InfeasibleFlowError:
            continue
        if best is None or result.value < best.budget_used:
            best = TradeoffSolution(makespan=makespan, budget_used=result.value,
                                    allocation=dict(allocation), algorithm="reference")
    if best is None:
        return TradeoffSolution(makespan=math.inf, budget_used=math.inf, allocation={},
                                algorithm="reference")
    return best


# ----------------------------------------------------------------------
# activity-on-arc branch and bound
# ----------------------------------------------------------------------
def _arc_choices(arc_dag: ArcDAG) -> List[Tuple[str, float, float, float]]:
    choices = []
    for arc in arc_dag.arcs:
        tuples = arc.duration.tuples()
        require(len(tuples) <= 2, f"arc {arc.arc_id} has more than two tuples")
        if len(tuples) == 2 and tuples[0][1] > tuples[1][1]:
            choices.append((arc.arc_id, tuples[0][1], tuples[1][1], tuples[1][0]))
    choices.sort(key=lambda c: c[1] - c[2], reverse=True)
    return choices


def _longest_path(arc_dag: ArcDAG, durations: Mapping[str, float]) -> float:
    times: Dict[Hashable, float] = {}
    for v in arc_dag.topological_vertices():
        in_arcs = arc_dag.in_arcs(v)
        if not in_arcs:
            times[v] = 0.0
            continue
        times[v] = max(times[a.tail] + durations.get(a.arc_id, a.base_time) for a in in_arcs)
    return times.get(arc_dag.sink, 0.0)


def reference_exact_min_resource_arcs(arc_dag: ArcDAG, target_makespan: float,
                                      node_limit: int = 2_000_000
                                      ) -> Tuple[float, Dict[str, float], int]:
    """``(budget, flow, explored)`` by the unpruned-by-forced-arcs search."""
    choices = _arc_choices(arc_dag)
    base = {arc.arc_id: arc.base_time for arc in arc_dag.arcs}
    optimistic = dict(base)
    for arc_id, _b, improved, _r in choices:
        optimistic[arc_id] = improved
    if _longest_path(arc_dag, optimistic) > target_makespan + 1e-9:
        return math.inf, {}, 0

    best_value = math.inf
    best_flow: Dict[str, float] = {}
    explored = 0

    def search(index: int, expedited: Dict[str, float], durations: Dict[str, float]) -> None:
        nonlocal best_value, best_flow, explored
        explored += 1
        if explored > node_limit:
            raise ExactSearchLimit(f"branch-and-bound exceeded {node_limit} nodes")
        optimistic_durations = dict(durations)
        for arc_id, _b, improved, _r in choices[index:]:
            optimistic_durations[arc_id] = improved
        if _longest_path(arc_dag, optimistic_durations) > target_makespan + 1e-9:
            return
        try:
            partial = reference_min_flow(arc_dag, expedited)
        except InfeasibleFlowError:
            return
        if partial.value >= best_value - 1e-9:
            return
        if index == len(choices):
            makespan = _longest_path(arc_dag, durations)
            if makespan <= target_makespan + 1e-9 and partial.value < best_value:
                best_value = partial.value
                best_flow = partial.flow
            return
        arc_id, base_time, improved, requirement = choices[index]
        search(index + 1, expedited, {**durations, arc_id: base_time})
        search(index + 1, {**expedited, arc_id: requirement}, {**durations, arc_id: improved})

    search(0, {}, dict(base))
    return best_value, best_flow, explored


def reference_exact_min_makespan_arcs(arc_dag: ArcDAG, budget: float,
                                      node_limit: int = 2_000_000
                                      ) -> Tuple[float, Dict[str, float], int]:
    """``(makespan, flow, explored)`` by the unpruned-by-forced-arcs search."""
    choices = _arc_choices(arc_dag)
    base = {arc.arc_id: arc.base_time for arc in arc_dag.arcs}
    best_value = math.inf
    best_flow: Dict[str, float] = {}
    explored = 0

    def search(index: int, expedited: Dict[str, float], durations: Dict[str, float]) -> None:
        nonlocal best_value, best_flow, explored
        explored += 1
        if explored > node_limit:
            raise ExactSearchLimit(f"branch-and-bound exceeded {node_limit} nodes")
        optimistic_durations = dict(durations)
        for arc_id, _b, improved, _r in choices[index:]:
            optimistic_durations[arc_id] = improved
        if _longest_path(arc_dag, optimistic_durations) >= best_value - 1e-9:
            return
        try:
            partial = reference_min_flow(arc_dag, expedited)
        except InfeasibleFlowError:
            return
        if partial.value > budget + 1e-9:
            return
        if index == len(choices):
            makespan = _longest_path(arc_dag, durations)
            if makespan < best_value:
                best_value = makespan
                best_flow = partial.flow
            return
        arc_id, base_time, improved, requirement = choices[index]
        search(index + 1, {**expedited, arc_id: requirement}, {**durations, arc_id: improved})
        search(index + 1, expedited, {**durations, arc_id: base_time})

    search(0, {}, dict(base))
    if math.isinf(best_value):
        best_value = _longest_path(arc_dag, base)
        best_flow = {}
    return best_value, best_flow, explored
