"""Each model object is validated once per state.

The library's duration functions never change once built, so they run
their checks once; :class:`~repro.core.dag.TradeoffDAG` and
:class:`~repro.core.arcdag.ArcDAG` count their mutations, and
``validate()`` returns at once while nothing changed since the checks last
passed.  Every check still runs: an edit that breaks a DAG still raises,
and the engine's identity caches see every edit, same-shape ones
included.
"""

from __future__ import annotations

import collections
import os
import sys

import pytest

import repro
from repro import MinMakespanProblem
from repro.core.arcdag import ArcDAG, expand_to_two_tuples, node_to_arc_dag
from repro.core.dag import TradeoffDAG
from repro.core.duration import (
    ZERO_DURATION,
    ConstantDuration,
    DurationFunction,
    GeneralStepDuration,
    KWaySplitDuration,
    RecursiveBinarySplitDuration,
)
from repro.engine.batch import get_lp_skeleton
from repro.engine.structure import analyze_dag
from repro.utils.validation import ValidationError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def full_checks(monkeypatch):
    """``id(duration) -> full validations``, counted from now on."""
    counts: collections.Counter = collections.Counter()
    keep = []  # holds each counted object so its id is never reused
    check = DurationFunction.validate

    def counting(self):
        counts[id(self)] += 1
        keep.append(self)
        return check(self)

    monkeypatch.setattr(DurationFunction, "validate", counting)
    return counts


def two_job_dag(first: DurationFunction) -> TradeoffDAG:
    dag = TradeoffDAG()
    dag.add_job("a", first)
    dag.add_job("b", ConstantDuration(6))
    dag.add_edge("a", "b")
    return dag


class TestDurations:
    def test_library_durations_check_once(self, full_checks):
        functions = [GeneralStepDuration([(0, 9), (2, 4)]), ConstantDuration(3.0),
                     KWaySplitDuration(16), RecursiveBinarySplitDuration(40)]
        for fn in functions:
            for _ in range(3):
                fn.validate()
        assert [full_checks[id(fn)] for fn in functions] == [1, 1, 1, 1]

    def test_subclasses_defined_elsewhere_check_every_call(self):
        class Editable(GeneralStepDuration):
            pass

        fn = Editable([(0, 9), (2, 4)])
        fn.validate()
        fn._tuples = [(0, 9), (2, 12)]
        with pytest.raises(ValidationError, match="strictly decrease"):
            fn.validate()

    def test_dummy_arcs_share_one_zero_duration(self):
        dag = two_job_dag(GeneralStepDuration([(0, 10), (2, 4), (3, 1)]))
        arc_dag, mapping = node_to_arc_dag(dag)
        expansion = expand_to_two_tuples(arc_dag)
        dummies = [arc for arc in expansion.arc_dag.arcs if arc.is_dummy]
        assert mapping.dummy_arcs and len(dummies) > len(mapping.dummy_arcs)
        assert all(arc.duration is ZERO_DURATION for arc in dummies)
        assert all(arc_dag.arc(a).duration is ZERO_DURATION for a in mapping.dummy_arcs)
        assert ArcDAG().add_arc("s", "t").duration is ZERO_DURATION
        assert ZERO_DURATION.tuples() == [(0, 0.0)]

    def test_one_cold_pass_checks_each_duration_at_most_once(self, full_checks,
                                                             tmp_path):
        sys.path[:0] = [os.path.join(ROOT, "perfbench")]
        try:
            import workloads
        finally:
            del sys.path[0]
        specs = workloads.cold_sweep_specs(1)
        _seconds, report, _counters = workloads.cold_pass(specs, str(tmp_path), "pass")
        assert len(specs) == 30 and report.stats.computed > 0
        assert full_checks and max(full_checks.values()) == 1


class TestDagMutations:
    def test_every_mutator_counts(self):
        dag = TradeoffDAG()
        dag.add_job("a")
        dag.add_job("b")
        assert dag.mutations == 2
        dag.add_edge("a", "b")
        dag.add_edge("a", "b")  # already there: no change
        assert dag.mutations == 3
        dag.remove_edge("b", "a")  # absent: no change
        dag.remove_edge("a", "b")
        dag.add_job("a", ConstantDuration(1.0))  # re-adding replaces
        assert dag.mutations == 5

        arc_dag = ArcDAG()
        start = arc_dag.mutations
        arc_dag.add_vertex("m")
        arc_dag.add_vertex("m")  # already there: no change
        arc_dag.add_arc("s", "m")
        assert arc_dag.mutations == start + 2

    def test_unchanged_dag_skips_its_checks(self, monkeypatch):
        dag = two_job_dag(GeneralStepDuration([(0, 10), (2, 4)]))
        calls = []
        order = TradeoffDAG.topological_order
        monkeypatch.setattr(TradeoffDAG, "topological_order",
                            lambda self: calls.append(1) or order(self))
        dag.validate()
        dag.validate()
        assert len(calls) == 1
        dag.add_job("c")
        dag.validate()
        assert len(calls) == 2

    def test_cycle_added_after_a_pass_still_raises(self):
        dag = two_job_dag(GeneralStepDuration([(0, 10), (2, 4)]))
        dag.validate()
        dag.add_edge("b", "a")
        with pytest.raises(ValueError, match="cycle"):
            dag.validate()

    def test_arc_dag_edits_after_a_pass_still_raise(self):
        arc_dag, _ = node_to_arc_dag(two_job_dag(GeneralStepDuration([(0, 10), (2, 4)])))
        arc_dag.validate()
        arc_dag.add_vertex("dangling")
        with pytest.raises(ValidationError, match="dangling"):
            arc_dag.validate()

        arc_dag, _ = node_to_arc_dag(two_job_dag(GeneralStepDuration([(0, 10), (2, 4)])))
        arc_dag.validate()
        arc_dag.add_arc(("in", "b"), ("out", "a"))
        with pytest.raises(ValueError, match="cycle"):
            arc_dag.validate()


class TestEditedDagsAreNotStale:
    def test_same_shape_edit_is_solved_afresh(self):
        repro.clear_caches()
        dag = two_job_dag(GeneralStepDuration([(0, 10), (2, 4)]))
        assert repro.solve(MinMakespanProblem(dag, 2.0)).makespan == 10.0
        # Same jobs, same edges: only a duration function changes.
        dag.add_job("a", GeneralStepDuration([(0, 30), (2, 20)]))
        assert repro.solve(MinMakespanProblem(dag, 2.0)).makespan == 26.0

    def test_content_twin_of_an_edited_dag_is_solved_on_its_own_dag(self):
        repro.clear_caches()
        edited = two_job_dag(GeneralStepDuration([(0, 10), (2, 4)]))
        assert repro.solve(MinMakespanProblem(edited, 2.0)).makespan == 10.0
        edited.add_job("a", GeneralStepDuration([(0, 30), (2, 20)]))
        # Same content as `edited` had when it was probed: the cached probe
        # must not hand the solver the edited DAG.
        twin = two_job_dag(GeneralStepDuration([(0, 10), (2, 4)]))
        for method in ("exact-enumeration", "bicriteria-lp"):
            report = repro.solve(MinMakespanProblem(twin, 0.0), method=method)
            assert report.makespan == 16.0, method

    def test_rewired_edge_is_probed_afresh(self):
        dag = TradeoffDAG()
        for job in "sxyt":
            dag.add_job(job, GeneralStepDuration([(0, 5), (1, 2)]))
        for u, v in (("s", "x"), ("s", "y"), ("x", "t"), ("y", "t")):
            dag.add_edge(u, v)
        before = analyze_dag(dag)
        dag.remove_edge("x", "t")
        dag.add_edge("x", "y")  # same job and edge counts
        after = analyze_dag(dag)
        assert after is not before and after.fingerprint != before.fingerprint

    def test_edited_arc_dag_gets_a_new_skeleton(self):
        arc_dag, _ = node_to_arc_dag(two_job_dag(GeneralStepDuration([(0, 10), (2, 4)])))
        arc_dag = expand_to_two_tuples(arc_dag).arc_dag
        skeleton = get_lp_skeleton(arc_dag)
        assert get_lp_skeleton(arc_dag) is skeleton
        arc_dag.add_arc(arc_dag.source, arc_dag.sink, GeneralStepDuration([(0, 50)]))
        edited = get_lp_skeleton(arc_dag)
        assert edited is not skeleton
        assert edited.solve_min_makespan(0.0).makespan == 50.0
