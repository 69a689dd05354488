"""Differential tests: the fast exact oracle against the reference implementation.

:mod:`exact_reference` (next to this file) holds the searches, the
enumerations and the min-flow as they were before the oracle was compiled:
every node re-sorted the DAG and solved its min-flow from scratch on a
freshly built network.  The fast oracle must give the same optima; on the
repository's gadgets it must give the same flows bit for bit too.  Its
warm min-flows must match the canonical solve, and every search must
explore, prune and check exactly what the canonical search did (the pinned
counts below were recorded with every bound solved canonically).
"""

from __future__ import annotations

import math
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

import repro
from exact_reference import (
    RecursiveDinicMaxFlow,
    reference_exact_min_makespan,
    reference_exact_min_makespan_arcs,
    reference_exact_min_resource,
    reference_exact_min_resource_arcs,
    reference_min_flow,
)
from repro.core.arcdag import ArcDAG, expand_to_two_tuples, node_to_arc_dag
from repro.core.dag import TradeoffDAG
from repro.core.duration import (
    ConstantDuration,
    GeneralStepDuration,
    KWaySplitDuration,
    RecursiveBinarySplitDuration,
)
from repro.core.exact import (
    ExactSearchLimit,
    ExactSearchStats,
    exact_min_makespan,
    exact_min_makespan_arcs,
    exact_min_resource,
    exact_min_resource_arcs,
)
from repro.core.flow import ResourceFlow
from repro.core.maxflow import DinicMaxFlow
from repro.core.minflow import (
    WARM_TOLERANCE,
    InfeasibleFlowError,
    MinFlowNetwork,
    allocation_min_budget,
    min_flow_with_lower_bounds,
    warm_tolerance,
)
from repro.generators import fork_join_dag, layered_random_dag
from repro.hardness import (
    OneInThreeSatInstance,
    PartitionInstance,
    build_partition_dag,
    build_theorem41_dag,
    build_variable_chain,
)
from repro.scenarios import ScenarioSpec


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def small_arc_dags(draw):
    """A DAG of 1-5 internal events whose arcs carry one or two tuples."""
    n = draw(st.integers(1, 5))
    names = ["s"] + [f"v{i}" for i in range(n)] + ["t"]
    pairs = []
    for i in range(1, n + 1):  # every internal event gets an in-arc and an out-arc
        pairs.append((draw(st.integers(0, i - 1)), i))
        pairs.append((i, draw(st.integers(i + 1, n + 1))))
    for _ in range(draw(st.integers(0, 4))):
        tail = draw(st.integers(0, n))
        pairs.append((tail, draw(st.integers(tail + 1, n + 1))))
    dag = ArcDAG()
    for k, (tail, head) in enumerate(pairs):
        base = draw(st.integers(0, 6))
        if base > 0 and draw(st.booleans()):
            duration = GeneralStepDuration([(0, base), (draw(st.integers(1, 3)),
                                                        draw(st.integers(0, base - 1)))])
        else:
            duration = ConstantDuration(float(base))
        dag.add_arc(names[tail], names[head], duration, arc_id=f"e{k}")
    return dag


@st.composite
def random_flow_networks(draw):
    n = draw(st.integers(3, 8))
    edges = []
    for u in range(n):
        for v in range(n):
            if u != v and draw(st.booleans()):
                edges.append((u, v, draw(st.sampled_from([0, 1, 2, 3, 7, 12, 0.5, 2.25]))))
    return n, edges


# ----------------------------------------------------------------------
# Dinic and the compiled min-flow network
# ----------------------------------------------------------------------
class TestIterativeDinic:
    @settings(max_examples=60, deadline=None)
    @given(random_flow_networks())
    def test_pushes_the_recursive_versions_flow(self, network):
        n, edges = network
        iterative, recursive = DinicMaxFlow(), RecursiveDinicMaxFlow()
        for u, v, cap in edges:
            iterative.add_edge(u, v, cap)
            recursive.add_edge(u, v, cap)
        assert iterative.max_flow(0, n - 1) == recursive.max_flow(0, n - 1)
        assert iterative.flows() == recursive.flows()

    def test_long_augmenting_path_does_not_recurse(self):
        dinic = DinicMaxFlow()
        for i in range(5000):
            dinic.add_edge(i, i + 1, 3.0)
        assert dinic.max_flow(0, 5000) == 3.0

    def test_reset_reuses_the_layout(self):
        dinic = DinicMaxFlow()
        first = dinic.add_edge("s", "a", 2)
        dinic.add_edge("a", "t", 5)
        assert dinic.max_flow("s", "t") == 2
        dinic.reset([4, 3])
        assert dinic.max_flow("s", "t") == 3
        assert dinic.flow_on(first) == 3
        with pytest.raises(ValueError):
            dinic.reset([1])
        with pytest.raises(ValueError):
            dinic.reset([1, -1])


class TestMinFlowNetwork:
    @settings(max_examples=40, deadline=None)
    @given(small_arc_dags(), st.data())
    def test_matches_the_one_shot_reduction(self, dag, data):
        network = MinFlowNetwork(dag)
        arc_ids = [arc.arc_id for arc in dag.arcs]
        amounts = st.sampled_from([0, 1, 2, 3, 0.5, 1.75])
        for _ in range(4):  # several solves on one network
            lower = data.draw(st.dictionaries(st.sampled_from(arc_ids), amounts))
            upper = data.draw(st.one_of(st.none(), st.dictionaries(
                st.sampled_from(arc_ids), st.sampled_from([1, 2, 5]))))
            try:
                want = reference_min_flow(dag, lower, upper)
            except InfeasibleFlowError:
                with pytest.raises(InfeasibleFlowError):
                    min_flow_with_lower_bounds(dag, lower, upper, network=network)
                continue
            got = min_flow_with_lower_bounds(dag, lower, upper, network=network)
            assert got.value == want.value
            assert got.flow == want.flow

    def test_network_of_another_dag_is_rejected(self):
        one, other = ArcDAG(), ArcDAG()
        one.add_arc("s", "t", arc_id="e")
        other.add_arc("s", "t", arc_id="e")
        with pytest.raises(Exception, match="another arc DAG"):
            min_flow_with_lower_bounds(other, {"e": 1}, network=MinFlowNetwork(one))

    def test_long_chain_with_one_lower_bound(self):
        dag = TradeoffDAG()
        previous = None
        for i in range(600):
            dag.add_job(i, ConstantDuration(1.0))
            if previous is not None:
                dag.add_edge(previous, i)
            previous = i
        budget, job_flow = allocation_min_budget(dag, {300: 2.0})
        assert budget == 2.0
        assert job_flow[300] == 2.0


class TestWarmMinFlow:
    @settings(max_examples=80, deadline=None)
    @given(small_arc_dags(), st.data())
    def test_updates_match_the_canonical_solve(self, dag, data):
        """Raised, lowered and reset bounds: every state is a minimum flow."""
        network = MinFlowNetwork(dag)
        arcs = dag.arcs
        state = network.warm_start()
        bounds = {}
        amounts = st.sampled_from([0, 1, 2, 3, 0.5, 1.75])
        for _ in range(data.draw(st.integers(1, 8))):
            if bounds and data.draw(st.booleans()):
                changes = [(i, 0) for i, arc in enumerate(arcs) if bounds.get(arc.arc_id)]
            else:
                changes = data.draw(st.lists(
                    st.tuples(st.integers(0, len(arcs) - 1), amounts), min_size=1, max_size=3))
            state = network.warm(state, changes)
            for i, bound in changes:
                bounds[arcs[i].arc_id] = bound
            lower = {arc_id: bound for arc_id, bound in bounds.items() if bound}
            assert network.lower_bounds(state) == lower
            assert abs(state.value - network.solve(lower).value) <= 1e-9

            balance = defaultdict(float)
            for arc, flow, bound in zip(arcs, state.flow, state.lower):
                assert flow >= bound - 1e-9
                balance[arc.tail] -= flow
                balance[arc.head] += flow
            for v in dag.vertices:
                if v not in (dag.source, dag.sink):
                    assert abs(balance[v]) <= 1e-9
            assert abs(-balance[dag.source] - state.value) <= 1e-9

    def test_a_carried_bound_is_recorded(self):
        """A bound the flow already carries changes no flow but stays in the state."""
        dag = ArcDAG()
        dag.add_arc("s", "a", arc_id="in")
        dag.add_arc("a", "t", arc_id="out")
        dag.add_arc("s", "t", arc_id="direct")
        network = MinFlowNetwork(dag)
        first = network.warm(network.warm_start(), [(0, 2.0)])
        carried = network.warm(first, [(1, 1.0)])
        assert carried.flow is first.flow
        assert carried.lower == [2.0, 1.0, 0.0]
        # so dropping the first bound still leaves the second's unit on its arc
        dropped = network.warm(carried, [(0, 0.0)])
        assert dropped.value == 1.0
        assert dropped.flow[1] == 1.0

    def test_inputs_are_checked(self):
        dag = ArcDAG()
        dag.add_arc("s", "t", arc_id="e")
        network = MinFlowNetwork(dag)
        with pytest.raises(Exception, match="non-negative"):
            network.warm(network.warm_start(), [(0, -1.0)])
        dag.add_arc("s", "t", arc_id="late")
        with pytest.raises(Exception, match="changed after"):
            network.warm_start()

    def test_tolerance_is_zero_only_for_integral_bounds(self):
        assert warm_tolerance([0, 1, 2.0, 7]) == 0.0
        assert warm_tolerance([1, 0.5]) == WARM_TOLERANCE
        assert warm_tolerance([math.inf]) == WARM_TOLERANCE
        assert warm_tolerance([2.0 ** 52]) == WARM_TOLERANCE


def test_long_general_chain_solves_end_to_end():
    """A 700-job chain used to overflow the recursive Dinic search."""
    spec = ScenarioSpec("chain", {"lengths": [8] * 700, "family": "general"}, seed=3,
                        budget_rule=("const", 50.5))
    report = repro.solve(spec.materialize())
    assert report.solution.budget_used <= 50.5 + 1e-6
    assert report.makespan > 0


# ----------------------------------------------------------------------
# the arc searches
# ----------------------------------------------------------------------
def _assert_realises_makespan(dag, value, flow, budget):
    """The returned flow routes, fits the budget and achieves ``value``."""
    resource_flow = ResourceFlow(dag, dict(flow))
    resource_flow.validate()
    assert resource_flow.budget_used() <= budget + 1e-9
    assert resource_flow.makespan() == value


class TestArcSearchesAgainstReference:
    @settings(max_examples=80, deadline=None)
    @given(small_arc_dags(), st.integers(0, 6))
    def test_min_makespan(self, dag, budget):
        value, flow = exact_min_makespan_arcs(dag, budget)
        want, want_flow, _explored = reference_exact_min_makespan_arcs(dag, budget)
        assert value == want
        _assert_realises_makespan(dag, value, flow, budget)
        # integral data: the incumbents, and so the flow, are the reference's
        assert flow == want_flow

    @settings(max_examples=80, deadline=None)
    @given(small_arc_dags(), st.integers(0, 12))
    def test_min_resource(self, dag, target):
        value, flow = exact_min_resource_arcs(dag, target)
        want, want_flow, _explored = reference_exact_min_resource_arcs(dag, target)
        assert value == want
        assert flow == want_flow
        if math.isinf(value):
            assert flow == {}
            return
        resource_flow = ResourceFlow(dag, dict(flow))
        resource_flow.validate()
        assert resource_flow.budget_used() == pytest.approx(value)
        assert resource_flow.makespan() <= target + 1e-9


def _expansion_of(dag: TradeoffDAG) -> ArcDAG:
    return expand_to_two_tuples(node_to_arc_dag(dag)[0]).arc_dag


def _small_arc_dag() -> ArcDAG:
    """The DAG of ``TestExactArcSolvers`` in ``test_exact_baselines.py``."""
    dag = ArcDAG()
    dag.add_arc("s", "a", GeneralStepDuration([(0, 4), (2, 0)]), arc_id="e1")
    dag.add_arc("a", "t", GeneralStepDuration([(0, 3), (1, 0)]), arc_id="e2")
    dag.add_arc("s", "b", GeneralStepDuration([(0, 5), (2, 0)]), arc_id="e3")
    dag.add_arc("b", "t", GeneralStepDuration([(0, 1)]), arc_id="e4")
    return dag


def _chain_dag() -> TradeoffDAG:
    """The ``simple_chain_dag`` fixture of ``conftest.py``."""
    dag = TradeoffDAG()
    dag.add_job("s")
    dag.add_job("x", RecursiveBinarySplitDuration(64))
    dag.add_job("y", KWaySplitDuration(36))
    dag.add_job("t")
    dag.add_edge("s", "x")
    dag.add_edge("x", "y")
    dag.add_edge("y", "t")
    return dag


def _theorem41():
    construction = build_theorem41_dag(OneInThreeSatInstance(3, ((-2, -1, -3),)))
    return construction.arc_dag, construction.budget


def _partition(values):
    construction = build_partition_dag(PartitionInstance(values))
    return construction.arc_dag, construction.budget


#: ``(label, arc DAG, budget)`` for the makespan search.
MAKESPAN_GADGETS = [
    ("theorem41-yes", *_theorem41()),
    ("partition-yes-5", *_partition((3, 1, 4, 2, 2))),
    ("partition-no-5", *_partition((1, 1, 1, 2, 9))),
    ("partition-yes-6", *_partition((5, 3, 2, 4, 1, 1))),
    ("partition-no-6", *_partition((2, 2, 2, 2, 2, 3))),
    ("partition-yes-7", *_partition((4, 1, 3, 2, 2, 5, 3))),
    ("partition-no-7", *_partition((9, 1, 1, 1, 1, 1, 2))),
    ("minresource-chain", build_variable_chain(3).arc_dag, 2.0),
    ("small-arc-dag", _small_arc_dag(), 4.0),
    ("chain-expansion", _expansion_of(_chain_dag()), 8.0),
    ("fork-join-expansion", _expansion_of(fork_join_dag(width=3, work=8, family="binary")), 6.0),
]

#: ``(label, arc DAG, target makespan)`` for the resource search.
RESOURCE_GADGETS = [
    ("minresource-chain", build_variable_chain(3).arc_dag, 3.0),
    ("minresource-chain-loose", build_variable_chain(4).arc_dag, 5.0),
    ("small-arc-dag", _small_arc_dag(), 1.0),
    ("chain-expansion", _expansion_of(_chain_dag()), 30.0),
    ("theorem41-yes", _theorem41()[0], 1.0),
]


class TestGadgetsBitForBit:
    @pytest.mark.parametrize("label, dag, budget", MAKESPAN_GADGETS,
                             ids=[g[0] for g in MAKESPAN_GADGETS])
    def test_min_makespan(self, label, dag, budget):
        value, flow = exact_min_makespan_arcs(dag, budget)
        want, want_flow, _explored = reference_exact_min_makespan_arcs(dag, budget)
        assert value == want
        assert flow == want_flow

    @pytest.mark.parametrize("label, dag, target", RESOURCE_GADGETS,
                             ids=[g[0] for g in RESOURCE_GADGETS])
    def test_min_resource(self, label, dag, target):
        value, flow = exact_min_resource_arcs(dag, target)
        want, want_flow, _explored = reference_exact_min_resource_arcs(dag, target)
        assert value == want
        assert flow == want_flow

    def test_partition_gadgets_cover_both_answers(self):
        answers = {PartitionInstance(values).is_partitionable()
                   for values in [(3, 1, 4, 2, 2), (1, 1, 1, 2, 9), (5, 3, 2, 4, 1, 1),
                                  (2, 2, 2, 2, 2, 3), (4, 1, 3, 2, 2, 5, 3),
                                  (9, 1, 1, 1, 1, 1, 2)]}
        assert answers == {True, False}


class TestSearchLimitAndStats:
    def test_limit_still_raised_past_node_limit(self):
        dag, budget = _theorem41()
        stats = ExactSearchStats()
        with pytest.raises(ExactSearchLimit):
            exact_min_makespan_arcs(dag, budget, node_limit=50, stats=stats)
        assert stats.explored == 51
        with pytest.raises(ExactSearchLimit):
            exact_min_resource_arcs(dag, 1.0, node_limit=50)

    def test_theorem41_counts(self):
        dag, budget = _theorem41()
        stats = ExactSearchStats()
        exact_min_makespan_arcs(dag, budget, stats=stats)
        _value, _flow, reference_explored = reference_exact_min_makespan_arcs(dag, budget)
        assert stats.explored < reference_explored
        assert stats.flow_solves <= 750
        assert stats.flow_reuses > 0

    def test_stats_add_up_and_change_nothing(self):
        dag, budget = _partition((3, 1, 4, 2, 2))
        plain = exact_min_makespan_arcs(dag, budget)
        stats = ExactSearchStats()
        assert exact_min_makespan_arcs(dag, budget, stats=stats) == plain
        once = ExactSearchStats(**vars(stats))
        exact_min_makespan_arcs(dag, budget, stats=stats)
        assert stats.explored == 2 * once.explored
        assert stats.flow_solves == 2 * once.flow_solves
        assert stats.flow_updates == 2 * once.flow_updates
        assert stats.flow_reuses == 2 * once.flow_reuses


#: ``explored`` per gadget, recorded with every bound solved canonically.
MAKESPAN_EXPLORED = {
    "theorem41-yes": 793, "partition-yes-5": 87, "partition-no-5": 83,
    "partition-yes-6": 139, "partition-no-6": 179, "partition-yes-7": 213,
    "partition-no-7": 147, "minresource-chain": 19, "small-arc-dag": 7,
    "chain-expansion": 19, "fork-join-expansion": 13,
}
RESOURCE_EXPLORED = {
    "minresource-chain": 19, "minresource-chain-loose": 25, "small-arc-dag": 7,
    "chain-expansion": 29, "theorem41-yes": 321,
}


def _nudge_warm_values(monkeypatch, direction: float = 1.0) -> None:
    """Move every warm value half the tolerance off its flow's true value
    (above it, or below it with ``direction=-1``)."""
    warm = MinFlowNetwork.warm

    def nudged(self, state, changes):
        result = warm(self, state, changes)
        dag = self.arc_dag
        value = sum(flow for arc, flow in zip(dag.arcs, result.flow) if arc.tail == dag.source)
        return result._replace(value=value + direction * WARM_TOLERANCE / 2)

    monkeypatch.setattr(MinFlowNetwork, "warm", nudged)


def _halved(dag: ArcDAG) -> ArcDAG:
    """``dag`` with every resource level halved: the same search on non-integral
    requirements (every min-flow value halves too)."""
    out = ArcDAG(dag.source, dag.sink)
    for v in dag.vertices:
        out.add_vertex(v)
    for arc in dag.arcs:
        out.add_arc(arc.tail, arc.head,
                    GeneralStepDuration([(r / 2, t) for r, t in arc.duration.tuples()]),
                    is_dummy=arc.is_dummy, arc_id=arc.arc_id)
    return out


class TestWarmSearch:
    @pytest.mark.parametrize("label, dag, budget", MAKESPAN_GADGETS,
                             ids=[g[0] for g in MAKESPAN_GADGETS])
    def test_min_makespan_explores_what_the_canonical_search_did(self, label, dag, budget):
        stats = ExactSearchStats()
        exact_min_makespan_arcs(dag, budget, stats=stats)
        assert stats.explored == MAKESPAN_EXPLORED[label]

    @pytest.mark.parametrize("label, dag, target", RESOURCE_GADGETS,
                             ids=[g[0] for g in RESOURCE_GADGETS])
    def test_min_resource_explores_what_the_canonical_search_did(self, label, dag, target):
        stats = ExactSearchStats()
        exact_min_resource_arcs(dag, target, stats=stats)
        assert stats.explored == RESOURCE_EXPLORED[label]

    def test_carried_child_keeps_its_new_requirement(self):
        """An expedite child whose parent's flow carries its requirement records it.

        Its flow stays the parent's, but its state must hold the new bound:
        without it, later updates may cancel that flow, bounds read too low,
        and the search explores more (1,185 nodes here) and returns another
        flow.
        """
        dag, budget = _theorem41()
        stats = ExactSearchStats()
        value, flow = exact_min_makespan_arcs(dag, budget, stats=stats)
        assert stats.explored == 793
        assert stats.flow_reuses > stats.explored // 2  # carried children among them
        want, want_flow, _explored = reference_exact_min_makespan_arcs(dag, budget)
        assert (value, flow) == (want, want_flow)

    def test_only_incumbents_are_solved_canonically(self):
        dag, budget = _theorem41()
        stats = ExactSearchStats()
        exact_min_makespan_arcs(dag, budget, stats=stats)
        assert stats.flow_solves == 3  # the three incumbents
        assert stats.flow_updates > 0

    @pytest.mark.parametrize("search", ["makespan", "resource"])
    def test_values_near_a_threshold_are_decided_canonically(self, search, monkeypatch):
        """The guard: a warm value inside the tolerance defers to the canonical solve.

        Halved, the Theorem 4.1 gadget has non-integral requirements, so
        the tolerance applies, and many of its values tie with the budget
        or the incumbent.  Nudged by half the tolerance towards the other
        side of those thresholds, every warm value still leads to the same
        search; without the guard the nudge changes the search.
        """
        dag, budget = _theorem41()
        dag = _halved(dag)
        if search == "makespan":
            run = lambda stats: exact_min_makespan_arcs(dag, budget / 2, stats=stats)  # noqa: E731
        else:
            run = lambda stats: exact_min_resource_arcs(dag, 1.0, stats=stats)  # noqa: E731
        plain = ExactSearchStats()
        want = run(plain)

        _nudge_warm_values(monkeypatch, 1.0 if search == "makespan" else -1.0)
        guarded = ExactSearchStats()
        assert run(guarded) == want
        assert guarded.explored == plain.explored

        monkeypatch.setattr("repro.core.exact.warm_tolerance", lambda bounds: 0.0)
        unguarded = ExactSearchStats()
        assert (run(unguarded), unguarded.explored) != (want, plain.explored)


# ----------------------------------------------------------------------
# the node-DAG enumerations
# ----------------------------------------------------------------------
ENUMERATION_DAGS = [
    ("chain", _chain_dag()),
    ("fork-join", fork_join_dag(width=3, work=8, family="binary")),
    ("layered-binary", layered_random_dag(2, 3, family="binary", seed=4)),
    ("layered-general", layered_random_dag(2, 2, family="general", seed=9)),
]


#: ``(pruned, flow_checks)`` per enumeration, recorded with every
#: combination solved canonically.
MAKESPAN_ENUMERATION_COUNTS = {
    ("chain", 0): (0, 1), ("chain", 2): (0, 4), ("chain", 4.5): (1, 11), ("chain", 9): (3, 17),
    ("fork-join", 0): (0, 1), ("fork-join", 2): (6, 2), ("fork-join", 4.5): (18, 9),
    ("fork-join", 9): (24, 3),
    ("layered-binary", 0): (0, 1), ("layered-binary", 2): (27, 37),
    ("layered-binary", 4.5): (550, 179), ("layered-binary", 9): (3144, 952),
    ("layered-general", 0): (0, 1), ("layered-general", 2): (1, 1),
    ("layered-general", 4.5): (6, 2), ("layered-general", 9): (30, 18),
}
#: The same per target fraction of the base makespan (infeasible targets report none).
RESOURCE_ENUMERATION_COUNTS = {
    "chain": [(29, 1), (24, 1), (21, 1), (7, 1)],
    "fork-join": [(26, 1), (0, 8), None, None],
    "layered-binary": [(12499, 1), (9652, 28), (2861, 784), (0, 80)],
    "layered-general": [(47, 1), (15, 1), None, None],
}


class TestEnumerationCounts:
    @pytest.mark.parametrize("label, dag", ENUMERATION_DAGS, ids=[d[0] for d in ENUMERATION_DAGS])
    @pytest.mark.parametrize("budget", [0, 2, 4.5, 9])
    def test_min_makespan_prunes_and_checks_as_before(self, label, dag, budget):
        got = exact_min_makespan(dag, budget)
        assert (got.metadata["pruned"], got.metadata["flow_checks"]) == \
            MAKESPAN_ENUMERATION_COUNTS[label, budget]

    @pytest.mark.parametrize("label, dag", ENUMERATION_DAGS, ids=[d[0] for d in ENUMERATION_DAGS])
    def test_min_resource_prunes_and_checks_as_before(self, label, dag):
        base = dag.makespan_value({})
        counts = []
        for target in (base, 0.75 * base, 0.5 * base, 0.25 * base):
            got = exact_min_resource(dag, target)
            counts.append((got.metadata["pruned"], got.metadata["flow_checks"])
                          if "pruned" in got.metadata else None)
        assert counts == RESOURCE_ENUMERATION_COUNTS[label]

    def test_values_near_a_threshold_are_decided_canonically(self, monkeypatch):
        """The enumeration's guard, on a chain whose resources are halved."""
        dag = TradeoffDAG()
        dag.add_job("s")
        dag.add_job("x", GeneralStepDuration([(r / 2, t) for r, t in
                                              RecursiveBinarySplitDuration(64).tuples()]))
        dag.add_job("y", GeneralStepDuration([(r / 2, t) for r, t in
                                              KWaySplitDuration(36).tuples()]))
        dag.add_job("t")
        dag.add_edge("s", "x")
        dag.add_edge("x", "y")
        dag.add_edge("y", "t")
        want = [exact_min_makespan(dag, 2.0), exact_min_resource(dag, 40.0)]

        def summary(solution):
            return (solution.makespan, solution.budget_used, solution.allocation,
                    solution.metadata.get("pruned"), solution.metadata.get("flow_checks"))

        _nudge_warm_values(monkeypatch)
        got = [exact_min_makespan(dag, 2.0), exact_min_resource(dag, 40.0)]
        assert [summary(s) for s in got] == [summary(s) for s in want]
        monkeypatch.setattr("repro.core.exact.warm_tolerance", lambda bounds: 0.0)
        unguarded = [exact_min_makespan(dag, 2.0), exact_min_resource(dag, 40.0)]
        assert [summary(s) for s in unguarded] != [summary(s) for s in want]


class TestEnumerationsAgainstReference:
    @pytest.mark.parametrize("label, dag", ENUMERATION_DAGS, ids=[d[0] for d in ENUMERATION_DAGS])
    @pytest.mark.parametrize("budget", [0, 2, 4.5, 9])
    def test_min_makespan(self, label, dag, budget):
        got = exact_min_makespan(dag, budget)
        want = reference_exact_min_makespan(dag, budget)
        assert (got.makespan, got.budget_used, got.allocation) == \
            (want.makespan, want.budget_used, want.allocation)

    @pytest.mark.parametrize("label, dag", ENUMERATION_DAGS, ids=[d[0] for d in ENUMERATION_DAGS])
    def test_min_resource(self, label, dag):
        base = dag.makespan_value({})
        for target in (base, 0.75 * base, 0.5 * base, 0.25 * base):
            got = exact_min_resource(dag, target)
            want = reference_exact_min_resource(dag, target)
            assert (got.makespan, got.budget_used, got.allocation) == \
                (want.makespan, want.budget_used, want.allocation)
