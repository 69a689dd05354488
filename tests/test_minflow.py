"""Tests for minimum flow with lower bounds (LP 11-13 integral step)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.arcdag import ArcDAG
from repro.core.duration import ConstantDuration
from repro.core.minflow import (
    InfeasibleFlowError,
    allocation_min_budget,
    min_flow_with_lower_bounds,
)
from repro.core.dag import TradeoffDAG
from repro.core.duration import RecursiveBinarySplitDuration
from repro.utils.validation import ValidationError


def build_chain_arcdag(n_arcs: int) -> ArcDAG:
    dag = ArcDAG()
    previous = dag.source
    for i in range(n_arcs - 1):
        nxt = f"v{i}"
        dag.add_arc(previous, nxt, ConstantDuration(0.0), arc_id=f"e{i}")
        previous = nxt
    dag.add_arc(previous, dag.sink, ConstantDuration(0.0), arc_id=f"e{n_arcs - 1}")
    return dag


class TestMinFlowChain:
    def test_chain_reuses_single_bundle(self):
        """On a chain the min flow equals the largest lower bound (perfect reuse)."""
        dag = build_chain_arcdag(4)
        result = min_flow_with_lower_bounds(dag, {"e0": 3, "e1": 1, "e2": 5, "e3": 2})
        assert result.value == 5
        for arc_id in ["e0", "e1", "e2", "e3"]:
            assert result.flow[arc_id] >= {"e0": 3, "e1": 1, "e2": 5, "e3": 2}[arc_id]

    def test_no_lower_bounds_gives_zero_flow(self):
        dag = build_chain_arcdag(3)
        result = min_flow_with_lower_bounds(dag, {})
        assert result.value == 0

    def test_flow_is_integral_for_integral_bounds(self):
        dag = build_chain_arcdag(5)
        result = min_flow_with_lower_bounds(dag, {"e1": 4, "e3": 7})
        assert result.value == 7
        assert all(abs(v - round(v)) < 1e-9 for v in result.flow.values())


class TestMinFlowParallel:
    def test_parallel_branches_sum(self):
        """Parallel lower bounds cannot share units: the min flow is their sum."""
        dag = ArcDAG()
        dag.add_arc("s", "a", arc_id="left1")
        dag.add_arc("a", "t", arc_id="left2")
        dag.add_arc("s", "b", arc_id="right1")
        dag.add_arc("b", "t", arc_id="right2")
        result = min_flow_with_lower_bounds(dag, {"left1": 3, "right1": 4})
        assert result.value == 7

    def test_series_within_branch_still_reuses(self):
        dag = ArcDAG()
        dag.add_arc("s", "a", arc_id="l1")
        dag.add_arc("a", "b", arc_id="l2")
        dag.add_arc("b", "t", arc_id="l3")
        dag.add_arc("s", "c", arc_id="r1")
        dag.add_arc("c", "t", arc_id="r2")
        result = min_flow_with_lower_bounds(dag, {"l1": 2, "l2": 6, "l3": 1, "r2": 3})
        assert result.value == 6 + 3

    def test_upper_bounds_respected(self):
        dag = ArcDAG()
        dag.add_arc("s", "a", arc_id="e1")
        dag.add_arc("a", "t", arc_id="e2")
        with pytest.raises(InfeasibleFlowError):
            min_flow_with_lower_bounds(dag, {"e1": 5}, upper_bounds={"e2": 3})

    def test_upper_equal_lower_is_feasible(self):
        dag = ArcDAG()
        dag.add_arc("s", "a", arc_id="e1")
        dag.add_arc("a", "t", arc_id="e2")
        result = min_flow_with_lower_bounds(dag, {"e1": 5}, upper_bounds={"e1": 5})
        assert result.value == 5

    def test_result_as_resource_flow_validates(self):
        dag = build_chain_arcdag(3)
        result = min_flow_with_lower_bounds(dag, {"e0": 2})
        rf = result.as_resource_flow(dag)
        assert rf.budget_used() == 2


class TestUnknownArcIds:
    """A bound on an arc the DAG does not have is an error, never ignored."""

    @staticmethod
    def _dag() -> ArcDAG:
        dag = ArcDAG()
        dag.add_arc("s", "a", arc_id="e1")
        dag.add_arc("a", "t", arc_id="e2")
        dag.add_arc("s", "t", arc_id="e3")
        return dag

    def test_lower_bound_on_unknown_arc_rejected(self):
        with pytest.raises(ValidationError, match="lower bound for arc 'nope'"):
            min_flow_with_lower_bounds(self._dag(), {"nope": 1.0})

    def test_upper_bound_on_unknown_arc_rejected(self):
        with pytest.raises(ValidationError, match="upper bound for arc 'nope'"):
            min_flow_with_lower_bounds(self._dag(), {"e1": 1.0}, upper_bounds={"nope": 0.5})

    def test_known_arcs_still_solve(self):
        result = min_flow_with_lower_bounds(self._dag(), {"e1": 1.0, "e3": 2.0},
                                            upper_bounds={"e2": 4.0})
        assert result.value == 3.0


class TestAllocationMinBudget:
    def test_chain_allocation(self, simple_chain_dag):
        budget, job_flow = allocation_min_budget(simple_chain_dag, {"x": 8, "y": 6})
        assert budget == 8  # reuse over the path: max of the two
        assert job_flow["x"] >= 8
        assert job_flow["y"] >= 6

    def test_parallel_allocation(self, diamond_dag):
        budget, _ = allocation_min_budget(diamond_dag, {"a1": 4, "b1": 8})
        assert budget == 12  # parallel branches cannot share
        budget2, _ = allocation_min_budget(diamond_dag, {"a1": 4, "a2": 9})
        assert budget2 == 9  # serial jobs on the same branch can

    def test_empty_allocation(self, diamond_dag):
        budget, _ = allocation_min_budget(diamond_dag, {})
        assert budget == 0

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 10), min_size=2, max_size=6))
    def test_chain_property_budget_is_max(self, works):
        """On a pure chain the minimum budget to realise any allocation is its max."""
        dag = TradeoffDAG()
        dag.add_job("source")
        previous = "source"
        allocation = {}
        for idx, amount in enumerate(works):
            name = f"job{idx}"
            dag.add_job(name, RecursiveBinarySplitDuration(64))
            dag.add_edge(previous, name)
            allocation[name] = amount
            previous = name
        dag.add_job("sink")
        dag.add_edge(previous, "sink")
        budget, _ = allocation_min_budget(dag, allocation)
        assert budget == max(works) if works else 0
