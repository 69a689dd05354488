"""Tests for the activity-on-arc DAG and the Section 2 / 3.1 transformations."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.arcdag import (
    ArcDAG,
    expand_to_two_tuples,
    node_to_arc_dag,
    section33_binary_tuples,
)
from repro.core.duration import (
    ConstantDuration,
    GeneralStepDuration,
    RecursiveBinarySplitDuration,
)
from repro.core.dag import TradeoffDAG
from repro.utils.validation import ValidationError


class TestArcDAG:
    def test_basic_construction(self):
        dag = ArcDAG()
        dag.add_arc("s", "a", GeneralStepDuration([(0, 3), (2, 0)]))
        dag.add_arc("a", "t", ConstantDuration(0.0), is_dummy=True)
        dag.validate()
        assert dag.num_vertices == 3
        assert dag.num_arcs == 2
        assert len(dag.job_arcs()) == 1
        assert len(dag.two_tuple_arcs()) == 1

    def test_self_loop_rejected(self):
        dag = ArcDAG()
        with pytest.raises(ValidationError):
            dag.add_arc("a", "a")

    def test_dangling_internal_vertex_rejected(self):
        dag = ArcDAG()
        dag.add_arc("s", "a")
        dag.add_vertex("b")
        dag.add_arc("b", "t")
        dag.add_arc("a", "t")
        with pytest.raises(ValidationError):
            dag.validate()  # b has no incoming arc

    def test_duplicate_arc_id_rejected(self):
        dag = ArcDAG()
        dag.add_arc("s", "a", arc_id="e")
        with pytest.raises(ValidationError, match="duplicate arc id 'e'"):
            dag.add_arc("a", "t", arc_id="e")

    def test_total_finite_base_time_skips_infinities(self):
        dag = ArcDAG()
        dag.add_arc("s", "a", GeneralStepDuration([(0, math.inf), (1, 0)]))
        dag.add_arc("a", "t", GeneralStepDuration([(0, 5)]))
        assert dag.total_finite_base_time() == 5


class TestNodeToArc:
    def test_structure(self, simple_chain_dag):
        arc_dag, mapping = node_to_arc_dag(simple_chain_dag)
        # one job arc per job, one dummy per precedence edge
        assert len(mapping.job_arc) == simple_chain_dag.num_jobs
        assert len(mapping.dummy_arcs) == simple_chain_dag.num_edges
        assert arc_dag.num_arcs == simple_chain_dag.num_jobs + simple_chain_dag.num_edges
        arc_dag.validate()

    def test_durations_preserved(self, simple_chain_dag):
        arc_dag, mapping = node_to_arc_dag(simple_chain_dag)
        for job in simple_chain_dag.jobs:
            arc = arc_dag.arc(mapping.job_arc[job])
            assert arc.duration.base_duration == \
                simple_chain_dag.duration_function(job).base_duration

    def test_job_of_arc_lookup(self, simple_chain_dag):
        arc_dag, mapping = node_to_arc_dag(simple_chain_dag)
        arc_id = mapping.job_arc["x"]
        assert mapping.job_of_arc(arc_id) == "x"
        assert mapping.job_of_arc("nonexistent") is None

    def test_multi_terminal_dag_gets_virtual_terminals(self):
        dag = TradeoffDAG()
        for name in ["a", "b", "c", "d"]:
            dag.add_job(name, GeneralStepDuration([(0, 2)]))
        dag.add_edge("a", "c")
        dag.add_edge("b", "d")
        arc_dag, mapping = node_to_arc_dag(dag)
        arc_dag.validate()
        assert TradeoffDAG.VIRTUAL_SOURCE in [j for j in mapping.job_arc]


class TestTwoTupleExpansion:
    def test_single_tuple_arcs_pass_through_two_tuple_arcs_expand(self):
        dag = ArcDAG()
        dag.add_arc("s", "a", GeneralStepDuration([(0, 3)]))
        improvable = dag.add_arc("a", "t", GeneralStepDuration([(0, 4), (2, 0)]))
        expansion = expand_to_two_tuples(dag)
        # the constant arc is untouched; the improvable arc becomes two chains
        # (the second being the uncapacitated single-tuple pass-through route)
        assert len(expansion.passthrough) == 1
        assert len(expansion.chains) == 1
        pieces = expansion.chains[improvable.arc_id]
        assert len(pieces) == 2
        assert pieces[0].resource_gap == 2
        assert pieces[1].resource_gap is None
        assert expansion.arc_dag.num_arcs == 1 + 4

    def test_multi_tuple_arc_expanded(self):
        dag = ArcDAG()
        fn = GeneralStepDuration([(0, 10), (2, 6), (5, 1)])
        arc = dag.add_arc("s", "t", fn)
        expansion = expand_to_two_tuples(dag)
        pieces = expansion.chains[arc.arc_id]
        assert len(pieces) == 3
        # gaps are the successive resource differences; the last chain has none
        assert pieces[0].resource_gap == 2
        assert pieces[1].resource_gap == 3
        assert pieces[2].resource_gap is None
        assert pieces[0].time_without == 10
        assert pieces[2].time_without == 1
        expansion.arc_dag.validate()
        # every non-dummy arc of the expansion has at most 2 tuples
        for a in expansion.arc_dag.job_arcs():
            assert a.duration.num_tuples() <= 2

    def test_canonical_mapping_back(self):
        """Lemma 3.1: committing resource r_i on the chains yields duration t(r_i)."""
        dag = ArcDAG()
        fn = GeneralStepDuration([(0, 10), (2, 6), (5, 1)])
        arc = dag.add_arc("s", "t", fn)
        expansion = expand_to_two_tuples(dag)
        pieces = expansion.chains[arc.arc_id]
        # give the first chain its full gap: total resource 2, duration should be 6
        flow = {pieces[0].job_arc_id: 2.0}
        assert expansion.original_resource(arc.arc_id, flow) == 2
        assert expansion.original_duration(arc.arc_id, flow) == 6
        # give both improvable chains their gaps: resource 5, duration 1
        flow = {pieces[0].job_arc_id: 2.0, pieces[1].job_arc_id: 3.0}
        assert expansion.original_resource(arc.arc_id, flow) == 5
        assert expansion.original_duration(arc.arc_id, flow) == 1
        # flow in excess of the gap is "passing through" and not attributed
        flow = {pieces[0].job_arc_id: 50.0}
        assert expansion.original_resource(arc.arc_id, flow) == 2

    @given(st.integers(4, 300))
    def test_expansion_of_binary_functions(self, work):
        dag = ArcDAG()
        fn = RecursiveBinarySplitDuration(work)
        arc = dag.add_arc("s", "t", fn)
        expansion = expand_to_two_tuples(dag)
        if fn.num_tuples() < 2:
            assert arc.arc_id in expansion.passthrough
        else:
            pieces = expansion.chains[arc.arc_id]
            assert len(pieces) == fn.num_tuples()
            total_gap = sum(p.resource_gap for p in pieces if p.resource_gap is not None)
            assert total_gap == fn.max_useful_resource()


class TestSection33Tuples:
    def test_structure(self):
        tuples = section33_binary_tuples(64)
        assert tuples[0] == (0.0, 64.0)
        assert tuples[1] == (1.0, 64.0)
        assert tuples[2][0] == 2.0
        # every later breakpoint is 2^j with duration ceil(x / 2^j) + j + 1
        for r, t in tuples[2:]:
            j = int(math.log2(r))
            assert t == math.ceil(64 / 2 ** j) + j + 1
