"""Exact solvers for small instances.

The paper proves the problems strongly NP-hard (Section 4), so no exact
polynomial algorithm exists in general.  This module provides exact solvers
that are practical for the *small* instances used to (a) measure empirical
approximation ratios against the true optimum and (b) verify the hardness
reductions end to end:

* :func:`exact_min_makespan` / :func:`exact_min_resource` -- exhaustive
  enumeration over per-job breakpoint allocations of an activity-on-node
  DAG, with a min-flow feasibility check for each candidate allocation
  (resources are reused over paths, so an allocation is feasible for budget
  ``B`` iff its minimum routing flow is at most ``B``).
* :func:`exact_min_resource_arcs` / :func:`exact_min_makespan_arcs` --
  branch-and-bound over the expedite/not-expedite decisions of the arcs of
  an activity-on-arc DAG whose arcs carry at most two resource-time tuples
  (the natural form of the hardness gadgets).  The search prunes with
  optimistic longest paths and monotone min-flow lower bounds, making the
  1-in-3SAT and Partition constructions of Section 4 tractable for small
  formulas.

Each search compiles its DAG once (topological order, arc index lists, one
min-flow network) and prunes with the arcs every improving completion must
expedite.  Its bounds read warm min-flows: every node updates its parent's
optimal flow (:meth:`~repro.core.minflow.MinFlowNetwork.warm`), and the
canonical solve runs only for a flow or value that leaves the search -- a
new incumbent -- and for a warm value too near the threshold it is compared
with to decide alone.  None of this changes an answer or a returned flow
(see "Exact oracle" in ``docs/performance.md``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.core.arcdag import Arc, ArcDAG, node_to_arc_dag
from repro.core.dag import TradeoffDAG
from repro.core.minflow import (
    MinFlowNetwork,
    MinFlowResult,
    WarmFlow,
    min_flow_with_lower_bounds,
    warm_tolerance,
)
from repro.core.problem import TradeoffSolution
from repro.utils.validation import check_non_negative, require

__all__ = [
    "exact_min_makespan",
    "exact_min_resource",
    "exact_min_resource_arcs",
    "exact_min_makespan_arcs",
    "ExactSearchLimit",
    "ExactSearchStats",
]


class ExactSearchLimit(RuntimeError):
    """Raised when an exhaustive search would exceed its combination limit."""


# ----------------------------------------------------------------------
# activity-on-node exhaustive solvers
# ----------------------------------------------------------------------
def _candidate_levels(dag: TradeoffDAG, budget: Optional[float]
                      ) -> Dict[Hashable, List[Tuple[float, float]]]:
    """Per job, its candidate ``(resource, duration)`` allocations."""
    levels: Dict[Hashable, List[Tuple[float, float]]] = {}
    for job in dag.jobs:
        fn = dag.duration_function(job)
        opts = [r for r, _t in fn.tuples()]
        if budget is not None:
            opts = [r for r in opts if r <= budget]
            if not opts:
                opts = [0.0]
        levels[job] = [(r, fn.duration(r)) for r in opts]
    return levels


def _combination_count(levels: Mapping[Hashable, Sequence[Tuple[float, float]]]) -> int:
    count = 1
    for opts in levels.values():
        count *= len(opts)
        if count > 10 ** 12:
            break
    return count


class _CompiledMakespan:
    """A node DAG's makespan evaluation, with its topological order fixed once.

    :meth:`makespan` takes one duration per job (in ``jobs`` order) and
    returns ``dag.makespan_value`` of the allocation those durations came
    from, with the same float operations in the same order: each job
    finishes at the latest finish of its predecessors plus its duration, and
    the makespan is the latest finish.
    """

    def __init__(self, dag: TradeoffDAG, jobs: Sequence[Hashable]) -> None:
        order = dag.topological_order()
        position = {job: i for i, job in enumerate(order)}
        slot = {job: i for i, job in enumerate(jobs)}
        self._plan = [(slot[job], [position[p] for p in dag.predecessors(job)])
                      for job in order]

    def makespan(self, durations: Sequence[float]) -> float:
        finish: List[float] = []
        for job, predecessors in self._plan:
            start = max([finish[p] for p in predecessors]) if predecessors else 0.0
            finish.append(start + durations[job])
        return max(finish, default=0.0)


class _WarmEnumeration:
    """The min-flow checks of a node enumeration, on one warm flow.

    Each checked combination updates the warm flow of the one checked
    before it, on the job arcs whose allocation changed.  :meth:`check`
    solves canonically only where the warm value does not already reject
    the combination, and then decides by the canonical value, so every
    decision and every reported budget is the canonical solve's.
    """

    def __init__(self, dag: TradeoffDAG, jobs: Sequence[Hashable],
                 levels: Mapping[Hashable, Sequence[Tuple[float, float]]]) -> None:
        arc_dag, mapping = node_to_arc_dag(dag)
        self.arc_dag = arc_dag
        self.network = MinFlowNetwork(arc_dag)
        self.job_arcs = [mapping.job_arc[job] for job in jobs]
        self.indices = [self.network.arc_index(arc_id) for arc_id in self.job_arcs]
        self.state = self.network.warm_start()
        self.tolerance = warm_tolerance(r for opts in levels.values() for r, _t in opts)

    def check(self, combo: Sequence[Tuple[float, float]],
              rejects: Callable[[float], bool]) -> Optional[MinFlowResult]:
        """The canonical min-flow of ``combo``'s allocation, or ``None`` if ``rejects`` its value.

        ``rejects`` must be monotone in the value.  When it rejects the warm
        value even lowered by the tolerance, it rejects the canonical value
        too, and nothing is solved.
        """
        lower = self.state.lower
        self.state = self.network.warm(
            self.state, [(i, r) for i, (r, _t) in zip(self.indices, combo) if r != lower[i]])
        if rejects(self.state.value - self.tolerance):
            return None
        result = min_flow_with_lower_bounds(
            self.arc_dag, {arc: r for arc, (r, _t) in zip(self.job_arcs, combo) if r > 0},
            network=self.network)
        return None if rejects(result.value) else result


def exact_min_makespan(dag: TradeoffDAG, budget: float,
                       max_combinations: int = 200_000) -> TradeoffSolution:
    """Exact minimum makespan under budget ``budget`` (reuse over paths).

    Enumerates every combination of per-job breakpoint allocations, keeps
    those whose minimum routing flow fits in the budget, and returns the
    best makespan.  Raises :class:`ExactSearchLimit` if the number of
    combinations exceeds ``max_combinations``.  One warm min-flow follows
    the checked combinations; only those its value admits are solved
    canonically (see :class:`_WarmEnumeration`).
    """
    check_non_negative(budget, "budget")
    dag = dag.ensure_single_source_sink()
    dag.validate()
    levels = _candidate_levels(dag, budget)
    count = _combination_count(levels)
    if count > max_combinations:
        raise ExactSearchLimit(
            f"{count} allocation combinations exceed the limit of {max_combinations}")

    jobs = list(levels)
    flows = _WarmEnumeration(dag, jobs, levels)
    evaluator = _CompiledMakespan(dag, jobs)
    best: Optional[TradeoffSolution] = None
    pruned = 0
    flow_checks = 0
    for combo in itertools.product(*levels.values()):
        makespan = evaluator.makespan([t for _r, t in combo])
        if best is not None and makespan >= best.makespan:
            pruned += 1
            continue
        flow_checks += 1
        result = flows.check(combo, lambda value: value > budget + 1e-9)
        if result is None:
            continue
        best = TradeoffSolution(
            makespan=makespan,
            budget_used=result.value,
            allocation={job: r for job, (r, _t) in zip(jobs, combo)},
            algorithm="exact-enumeration",
            lower_bound=makespan,
            metadata={"budget": budget, "combinations": count,
                      "pruned": pruned, "flow_checks": flow_checks},
        )
    if best is not None:
        best.metadata["pruned"] = pruned
        best.metadata["flow_checks"] = flow_checks
    if best is None:
        # budget 0 / no feasible routing: the empty allocation is always feasible
        makespan = dag.makespan_value({})
        best = TradeoffSolution(makespan=makespan, budget_used=0.0, allocation={},
                                algorithm="exact-enumeration", lower_bound=makespan,
                                metadata={"budget": budget, "combinations": count})
    return best


def exact_min_resource(dag: TradeoffDAG, target_makespan: float,
                       max_combinations: int = 200_000) -> TradeoffSolution:
    """Exact minimum budget achieving ``makespan <= target_makespan``."""
    check_non_negative(target_makespan, "target_makespan")
    dag = dag.ensure_single_source_sink()
    dag.validate()
    levels = _candidate_levels(dag, None)
    count = _combination_count(levels)
    if count > max_combinations:
        raise ExactSearchLimit(
            f"{count} allocation combinations exceed the limit of {max_combinations}")

    jobs = list(levels)
    flows = _WarmEnumeration(dag, jobs, levels)
    evaluator = _CompiledMakespan(dag, jobs)
    best: Optional[TradeoffSolution] = None
    pruned = 0
    flow_checks = 0
    for combo in itertools.product(*levels.values()):
        makespan = evaluator.makespan([t for _r, t in combo])
        if makespan > target_makespan + 1e-9:
            continue
        # Bound on the running best: every unit allocated to a job must be
        # routed through its arc, so the min-flow value is at least the
        # largest single-job allocation.  A combination whose peak
        # allocation already matches or exceeds the incumbent budget cannot
        # improve it -- skip the (expensive) min-flow computation.
        if best is not None and max([r for r, _t in combo], default=0.0) >= best.budget_used:
            pruned += 1
            continue
        flow_checks += 1
        incumbent = math.inf if best is None else best.budget_used
        result = flows.check(combo, lambda value: not value < incumbent)
        if result is not None:
            best = TradeoffSolution(
                makespan=makespan,
                budget_used=result.value,
                allocation={job: r for job, (r, _t) in zip(jobs, combo)},
                algorithm="exact-enumeration-minresource",
                resource_lower_bound=result.value,
                metadata={"target_makespan": target_makespan, "combinations": count,
                          "pruned": pruned, "flow_checks": flow_checks},
            )
    if best is not None:
        best.metadata["pruned"] = pruned
        best.metadata["flow_checks"] = flow_checks
    if best is None:
        return TradeoffSolution(makespan=math.inf, budget_used=math.inf, allocation={},
                                algorithm="exact-enumeration-minresource",
                                metadata={"status": "infeasible",
                                          "target_makespan": target_makespan})
    return best


# ----------------------------------------------------------------------
# activity-on-arc branch and bound
# ----------------------------------------------------------------------
@dataclass
class ExactSearchStats:
    """What the arc searches did; pass one as ``stats=`` to have it counted.

    The counts add up over every search the object is passed to, and
    counting changes nothing about a search.

    Attributes
    ----------
    explored:
        Search nodes visited (what ``node_limit`` bounds).
    flow_solves:
        Canonical min-flow solves: one per new incumbent, plus one per warm
        value too near its threshold to decide alone.
    flow_reuses:
        Nodes whose min-flow is their parent's flow unchanged.
    flow_updates:
        Warm min-flows updated for a shortfall: an expedite child whose
        parent's flow does not carry its new requirement, or a forced-arc
        bound its node's flow does not meet.
    """

    explored: int = 0
    flow_solves: int = 0
    flow_reuses: int = 0
    flow_updates: int = 0


@dataclass
class _ArcChoice:
    index: int          # of the arc, in ``arc_dag.arcs`` order
    arc_id: str
    base_time: float
    improved_time: float
    requirement: float
    tail: int           # topological positions of the arc's ends
    head: int


def _arc_choices(arcs: Sequence[Arc], position: Mapping[Hashable, int]) -> List[_ArcChoice]:
    """The improvable arcs, by decreasing saving: deciding the most influential
    arcs first tightens the bounds quickly."""
    choices: List[_ArcChoice] = []
    for index, arc in enumerate(arcs):
        tuples = arc.duration.tuples()
        require(len(tuples) <= 2,
                f"arc {arc.arc_id} has more than two tuples; expand_to_two_tuples first")
        if len(tuples) == 2 and tuples[0][1] > tuples[1][1]:
            choices.append(_ArcChoice(index, arc.arc_id, tuples[0][1], tuples[1][1],
                                      tuples[1][0], position[arc.tail], position[arc.head]))
    choices.sort(key=lambda c: c.base_time - c.improved_time, reverse=True)
    return choices


class _ArcSearch:
    """Branch and bound over the expedite decisions of an arc DAG, compiled once.

    Built once per search: the topological order, each vertex's in-arcs and
    out-arcs as index lists, the base times and the min-flow network.  The
    search keeps one list of durations by arc index -- decided arcs at their
    decided time, undecided arcs expedited -- so the optimistic longest path
    of a node is one pass over arrays.  Each node carries a
    :class:`~repro.core.minflow.WarmFlow`, an optimal flow of its committed
    requirements.  Both arc searches run it; they differ in their two
    bounds, their objective and which branch comes first.
    """

    def __init__(self, arc_dag: ArcDAG, node_limit: int) -> None:
        arcs = arc_dag.arcs
        order = arc_dag.topological_vertices()
        position = {v: i for i, v in enumerate(order)}
        into: List[List[Tuple[int, int]]] = [[] for _ in order]
        out_of: List[List[Tuple[int, int]]] = [[] for _ in order]
        for index, arc in enumerate(arcs):
            into[position[arc.head]].append((position[arc.tail], index))
            out_of[position[arc.tail]].append((position[arc.head], index))
        self._into = [(v, pairs) for v, pairs in enumerate(into) if pairs]
        self._out_of = [(v, pairs) for v, pairs in reversed(list(enumerate(out_of))) if pairs]
        self._num_vertices = len(order)
        self.sink = position[arc_dag.sink]
        self.choices = _arc_choices(arcs, position)
        self.base = [arc.base_time for arc in arcs]
        self.arc_dag = arc_dag
        self.network = MinFlowNetwork(arc_dag)
        self.tolerance = warm_tolerance(choice.requirement for choice in self.choices)
        self.node_limit = node_limit
        self.stats = ExactSearchStats()
        self.best_value = math.inf
        self.best_flow: Dict[str, float] = {}

    def optimistic_durations(self) -> List[float]:
        """Base times, with every improvable arc expedited."""
        durations = list(self.base)
        for choice in self.choices:
            durations[choice.index] = choice.improved_time
        return durations

    def event_times(self, durations: Sequence[float]) -> List[float]:
        """Longest path from the source to each vertex (by topological position)."""
        times = [0.0] * self._num_vertices
        for v, pairs in self._into:
            times[v] = max([times[u] + durations[a] for u, a in pairs])
        return times

    def min_flow(self, state: WarmFlow) -> MinFlowResult:
        """The canonical min-flow of ``state``'s lower bounds, solved on the compiled network."""
        self.stats.flow_solves += 1
        return min_flow_with_lower_bounds(self.arc_dag, self.network.lower_bounds(state),
                                          network=self.network)

    def costs_too_much(self, state: WarmFlow, too_costly: Callable[[float], bool]) -> bool:
        """``too_costly`` of the min-flow value of ``state``, as the canonical solve decides it.

        The warm value decides unless moving it by the tolerance either way
        would change the answer; then the canonical value does.
        """
        value = state.value
        if self.tolerance and too_costly(value - self.tolerance) != too_costly(
                value + self.tolerance):
            value = self.min_flow(state).value
        return too_costly(value)

    def forced_arcs_prune(self, index: int, state: WarmFlow, durations: Sequence[float],
                          times: Sequence[float], too_long: Callable[[float], bool],
                          too_costly: Callable[[float], bool]) -> bool:
        """Bound 3: whether the arcs every improving completion must expedite cost too much.

        An undecided arc is forced when the longest path through it at its
        base time, every other undecided arc expedited, is already
        ``too_long``: bound 1 cuts every completion that leaves it as it
        is.  One backward pass gives each vertex's longest path to the sink;
        the path through an arc is its tail's time plus its base time plus
        the rest from its head.  Every completion that can still become the
        incumbent meets the committed requirements plus the forced ones, so
        it costs at least their min-flow.  The bound only cuts subtrees in
        which no incumbent is found, so the incumbents, the optimum and the
        returned flow stay those of the search without it.
        """
        rest = [0.0] * self._num_vertices
        for v, pairs in self._out_of:
            rest[v] = max([durations[a] + rest[w] for w, a in pairs])
        forced = [(choice.index, choice.requirement) for choice in self.choices[index:]
                  if too_long(times[choice.tail] + choice.base_time + rest[choice.head])]
        flow = state.flow
        if all(flow[arc] >= need for arc, need in forced):
            # the node's flow meets them too, and it passed bound 2
            return False
        self.stats.flow_updates += 1
        return self.costs_too_much(self.network.warm(state, forced), too_costly)

    def run(self, too_long: Callable[[float], bool], too_costly: Callable[[float], bool],
            objective: Callable[[float, MinFlowResult], float], expedite_first: bool,
            stats: Optional[ExactSearchStats]) -> None:
        """Search every expedite decision depth first, in ``choices`` order.

        A node is cut when its optimistic makespan is ``too_long`` (bound 1),
        when the min-flow of its committed requirements is ``too_costly``
        (bound 2; it only grows as more arcs are expedited) or by
        :meth:`forced_arcs_prune`.  A leaf that survives is the new
        incumbent, valued by ``objective(makespan, min-flow)`` on its
        canonical min-flow, which is also the flow the search returns.  The
        not-expedite child commits what its parent did and takes the
        parent's flow.  The expedite child takes it too, with the new
        requirement recorded, when that flow already carries it, since the
        flow then stays optimal; otherwise it updates the parent's flow.  An
        update waits until bound 1 has let the child through.  ``stats``
        receives the counts, also when the search stops at ``node_limit``.
        """
        choices = self.choices
        durations = self.optimistic_durations()
        sink = self.sink
        network = self.network
        counts = self.stats

        def visit(index: int, state: WarmFlow, change: Optional[Tuple[int, float]]) -> None:
            counts.explored += 1
            if counts.explored > self.node_limit:
                raise ExactSearchLimit(f"branch-and-bound exceeded {self.node_limit} nodes")

            times = self.event_times(durations)
            if too_long(times[sink]):
                return
            if change is not None:
                arc, need = change
                if state.flow[arc] >= need:
                    counts.flow_reuses += 1
                else:
                    counts.flow_updates += 1
                state = network.warm(state, [change])
            elif index:
                counts.flow_reuses += 1
            if self.costs_too_much(state, too_costly):
                return

            if index == len(choices):
                result = self.min_flow(state)
                self.best_value = objective(times[sink], result)
                self.best_flow = result.flow
                return
            if not math.isinf(self.best_value) and self.forced_arcs_prune(
                    index, state, durations, times, too_long, too_costly):
                return

            choice = choices[index]
            expedite = (index + 1, state, (choice.index, choice.requirement))
            if expedite_first:
                visit(*expedite)
            durations[choice.index] = choice.base_time
            visit(index + 1, state, None)
            durations[choice.index] = choice.improved_time
            if not expedite_first:
                visit(*expedite)

        try:
            visit(0, network.warm_start(), None)
        finally:
            if stats is not None:
                stats.explored += counts.explored
                stats.flow_solves += counts.flow_solves
                stats.flow_reuses += counts.flow_reuses
                stats.flow_updates += counts.flow_updates


def exact_min_resource_arcs(arc_dag: ArcDAG, target_makespan: float,
                            node_limit: int = 2_000_000,
                            stats: Optional[ExactSearchStats] = None
                            ) -> Tuple[float, Dict[str, float]]:
    """Exact minimum budget for an activity-on-arc DAG with <=2-tuple arcs.

    Performs branch and bound over the expedite decisions of the improvable
    arcs; returns ``(budget, flow)`` where ``flow`` realises the optimum, or
    ``(inf, {})`` when the target makespan is unachievable even with every
    arc expedited.

    ``node_limit`` bounds the number of search nodes explored (a
    :class:`ExactSearchLimit` is raised beyond it); ``stats`` collects the
    search's counts.
    """
    check_non_negative(target_makespan, "target_makespan")
    arc_dag.validate()
    search = _ArcSearch(arc_dag, node_limit)
    # Optimistic check: all improvable arcs expedited.
    if search.event_times(search.optimistic_durations())[search.sink] > target_makespan + 1e-9:
        return math.inf, {}
    # The cheaper branch (do not expedite) comes first.
    search.run(too_long=lambda length: length > target_makespan + 1e-9,
               too_costly=lambda value: value >= search.best_value - 1e-9,
               objective=lambda makespan, flow: flow.value,
               expedite_first=False, stats=stats)
    return search.best_value, search.best_flow


def exact_min_makespan_arcs(arc_dag: ArcDAG, budget: float,
                            node_limit: int = 2_000_000,
                            stats: Optional[ExactSearchStats] = None
                            ) -> Tuple[float, Dict[str, float]]:
    """Exact minimum makespan for an activity-on-arc DAG with <=2-tuple arcs.

    Branch and bound over expedite decisions, pruning with (a) the
    optimistic longest path, which lower-bounds every completion of the
    current partial assignment, (b) the monotone min-flow of the
    committed requirements, which must stay within the budget, and (c) the
    min-flow of those requirements plus the arcs every improving completion
    must expedite.  Returns ``(makespan, flow)``; ``stats`` collects the
    search's counts.
    """
    check_non_negative(budget, "budget")
    arc_dag.validate()
    search = _ArcSearch(arc_dag, node_limit)
    search.run(too_long=lambda length: length >= search.best_value - 1e-9,
               too_costly=lambda value: value > budget + 1e-9,
               objective=lambda makespan, flow: makespan,
               expedite_first=True, stats=stats)
    if math.isinf(search.best_value):
        # No allocation at all is always feasible for budget >= 0.
        return search.event_times(search.base)[search.sink], {}
    return search.best_value, search.best_flow
