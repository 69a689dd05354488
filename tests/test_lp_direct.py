"""The LP kernel's direct HiGHS call against ``scipy.optimize.linprog``.

:class:`~repro.core.lp.LPModelSkeleton` hands SciPy's private HiGHS wrapper
the arrays ``linprog(method="highs")`` would hand it, and falls back to
``linprog`` itself when the wrapper fails its once-per-process probe.
These tests pin both halves: the arrays (dtypes included) equal what
``linprog`` passes the wrapper for LP (6)-(10) written out row by row, and
the direct path, the fallback and that ``linprog`` call return equal
:class:`~repro.core.lp.LPSolution` objects.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.optimize._linprog_highs as linprog_highs
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

import repro.core.lp as lp
from repro.core.arcdag import expand_to_two_tuples, node_to_arc_dag
from repro.core.lp import LPModelSkeleton, build_relaxed_arcs, lp_kernel_counters
from repro.generators import layered_random_dag, random_sp_tree, staged_fork_join_dag

SRC = str(Path(__file__).resolve().parents[1] / "src")
FAMILIES = ("general", "kway", "binary")


def lp_arc_dag(kind: str, family: str, seed: int):
    """A small expanded arc DAG of one generator and duration family."""
    if kind == "layered":
        dag = layered_random_dag(2 + seed % 2, 2 + seed % 3, family=family,
                                 max_base=20, seed=seed)
    elif kind == "fork-join":
        dag = staged_fork_join_dag([2, 2] if seed % 2 else [3], 6 + seed % 7,
                                   family=family, seed=seed)
    else:
        dag = random_sp_tree(3 + seed % 4, family=family, max_base=20,
                             seed=seed).to_dag()
    arc_dag, _ = node_to_arc_dag(dag)
    return expand_to_two_tuples(arc_dag).arc_dag


def row_by_row(arc_dag, objective: str, value: float) -> dict:
    """``linprog``'s arguments for LP (6)-(10), one dense row per constraint."""
    relaxed = build_relaxed_arcs(arc_dag)
    arcs, vertices = arc_dag.arcs, arc_dag.vertices
    col = {a.arc_id: i for i, a in enumerate(arcs)}
    col.update({v: len(arcs) + j for j, v in enumerate(vertices)})
    n = len(col)
    a_ub, b_ub = [], []
    for arc in arcs:  # precedence, constraint 7
        rel = relaxed[arc.arc_id]
        row = np.zeros(n)
        row[col[arc.tail]] = 1.0
        row[col[arc.head]] = -1.0
        if rel.capped and rel.full_resource > 0:
            t_full = arc.duration.tuples()[1][1]
            row[col[arc.arc_id]] = -((rel.base_time - t_full) / rel.full_resource)
        a_ub.append(row)
        b_ub.append(-rel.base_time)
    source_arcs = [col[a.arc_id] for a in arc_dag.out_arcs(arc_dag.source)]
    c = np.zeros(n)
    if objective == "makespan":  # budget, constraint 9, last
        row = np.zeros(n)
        row[source_arcs] = 1.0
        a_ub.append(row)
        b_ub.append(value)
        c[col[arc_dag.sink]] = 1.0
    else:
        c[source_arcs] = 1.0
    a_eq = []
    for v in vertices:  # conservation, constraint 8
        if v in (arc_dag.source, arc_dag.sink):
            continue
        row = np.zeros(n)
        for a in arc_dag.out_arcs(v):
            row[col[a.arc_id]] += 1.0
        for a in arc_dag.in_arcs(v):
            row[col[a.arc_id]] -= 1.0
        a_eq.append(row)
    bounds = [(0.0, relaxed[a.arc_id].full_resource if relaxed[a.arc_id].capped
               else None) for a in arcs]
    for v in vertices:
        if v == arc_dag.source:
            bounds.append((0.0, 0.0))
        elif v == arc_dag.sink and objective == "resource":
            bounds.append((0.0, value))
        else:
            bounds.append((0.0, None))
    return {"c": c, "A_ub": np.array(a_ub), "b_ub": np.array(b_ub),
            "A_eq": np.array(a_eq) if a_eq else None,
            "b_eq": np.zeros(len(a_eq)) if a_eq else None, "bounds": bounds}


@contextlib.contextmanager
def recorded_wrapper_calls():
    """``(skeleton calls, linprog calls)``: every wrapper call's arguments."""
    direct = lp._direct_highs()
    assert direct is not None, "SciPy's HiGHS wrapper failed the probe"
    skeleton_calls: list = []
    linprog_calls: list = []

    def recording(calls):
        def call(*args):
            calls.append(args)
            return direct.wrapper(*args)
        return call

    lp._DIRECT = direct._replace(wrapper=recording(skeleton_calls))
    linprog_highs._highs_wrapper = recording(linprog_calls)
    try:
        yield skeleton_calls, linprog_calls
    finally:
        lp._DIRECT = direct
        linprog_highs._highs_wrapper = direct.wrapper


def same_array(mine, theirs) -> bool:
    mine, theirs = np.asarray(mine), np.asarray(theirs)
    return (mine.dtype == theirs.dtype and mine.shape == theirs.shape
            and np.array_equal(mine, theirs)
            and (mine.dtype.kind != "f"
                 or np.array_equal(np.signbit(mine), np.signbit(theirs))))


def as_tuple(solution):
    return (solution.status, solution.objective, solution.flows, solution.times,
            solution.makespan, solution.budget_used)


def solve(skeleton, objective, value):
    if objective == "makespan":
        return skeleton.solve_min_makespan(value)
    return skeleton.solve_min_resource(value)


class TestDirectCallIsLinprog:
    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["layered", "fork-join", "sp"]),
           family=st.sampled_from(FAMILIES), seed=st.integers(0, 400))
    def test_arrays_and_answers_match_linprog(self, kind, family, seed):
        arc_dag = lp_arc_dag(kind, family, seed)
        skeleton = LPModelSkeleton(arc_dag)
        unconstrained = skeleton.solve_min_makespan(0.0).makespan
        # Budget 0, a fractional budget, an infeasible target (0 for a DAG
        # with work) and a feasible one.
        cases = [("makespan", 0.0), ("makespan", 2.5),
                 ("resource", 0.0), ("resource", 0.75 * unconstrained)]
        for objective, value in cases:
            with recorded_wrapper_calls() as (skeleton_calls, linprog_calls):
                direct = solve(skeleton, objective, value)
                reference = linprog(method="highs",
                                    **row_by_row(arc_dag, objective, value))
            [mine], [theirs] = skeleton_calls, linprog_calls
            for index, (a, b) in enumerate(zip(mine[:-1], theirs[:-1])):
                assert same_array(a, b), (objective, value, index)
            assert mine[-1] == theirs[-1]  # the option dict
            assert direct.status == ("optimal" if reference.status == 0 else "infeasible")
            if direct.status == "optimal":
                assert direct.objective == reference.fun
                assert list(direct.flows.values()) == [max(v, 0.0) for v in
                                                      reference.x[:len(direct.flows)]]
                assert list(direct.times.values()) == list(reference.x[len(direct.flows):])

    @settings(max_examples=15, deadline=None)
    @given(kind=st.sampled_from(["layered", "fork-join", "sp"]),
           family=st.sampled_from(FAMILIES), seed=st.integers(0, 400))
    def test_fallback_returns_the_direct_answers(self, kind, family, seed):
        skeleton = LPModelSkeleton(lp_arc_dag(kind, family, seed))
        unconstrained = skeleton.solve_min_makespan(0.0).makespan
        cases = [("makespan", 0.0), ("makespan", 3.0),
                 ("resource", 0.0), ("resource", 0.6 * unconstrained)]
        direct = [as_tuple(solve(skeleton, obj, value)) for obj, value in cases]
        saved = lp._DIRECT
        lp._DIRECT = False
        try:
            fallback = [as_tuple(solve(skeleton, obj, value)) for obj, value in cases]
        finally:
            lp._DIRECT = saved
        assert fallback == direct


class TestProbe:
    def test_moved_wrapper_fails_the_probe_and_linprog_answers(self, monkeypatch):
        skeleton = LPModelSkeleton(lp_arc_dag("layered", "general", 3))
        expected = [as_tuple(skeleton.solve_min_makespan(b)) for b in (0.0, 4.0)]
        real, calls = linprog_highs._highs_wrapper, []

        def moved(*args):  # a SciPy whose private wrapper has another signature
            calls.append(len(args))
            return real(*args)

        monkeypatch.setattr(linprog_highs, "_highs_wrapper", moved)
        monkeypatch.setattr(lp, "_DIRECT", None)
        before = lp_kernel_counters()["linprog_fallbacks"]
        got = [as_tuple(skeleton.solve_min_makespan(b)) for b in (0.0, 4.0)]
        assert lp._DIRECT is False
        assert got == expected
        assert len(calls) == 2  # both solves went through linprog
        assert lp_kernel_counters()["linprog_fallbacks"] == before + 2

    def test_fallback_after_failed_probe_keeps_the_answers(self, monkeypatch):
        skeleton = LPModelSkeleton(lp_arc_dag("sp", "binary", 5))
        expected = [as_tuple(skeleton.solve_min_makespan(b)) for b in (0.0, 4.0)]

        def broken_probe():
            raise ImportError("no private HiGHS wrapper in this SciPy")

        monkeypatch.setattr(lp, "_probe_direct_highs", broken_probe)
        monkeypatch.setattr(lp, "_DIRECT", None)
        before = lp_kernel_counters()["linprog_fallbacks"]
        got = [as_tuple(skeleton.solve_min_makespan(b)) for b in (0.0, 4.0)]
        assert got == expected
        assert lp_kernel_counters()["linprog_fallbacks"] == before + 2
        assert lp._DIRECT is False

    def test_probe_is_off_the_import_path(self):
        code = ("import repro, repro.core.lp as lp; "
                "assert lp._DIRECT is None, lp._DIRECT; print('ok')")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=SRC),
                              timeout=120)
        assert done.returncode == 0 and done.stdout.strip() == "ok", done.stderr
