"""Tests for the series-parallel exact DP (Section 3.4) and SP recognition."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dag import TradeoffDAG
from repro.core.duration import GeneralStepDuration, KWaySplitDuration, RecursiveBinarySplitDuration
from repro.core.exact import exact_min_makespan
from repro.core.series_parallel import (
    SPLeaf,
    decompose_series_parallel,
    parallel,
    series,
    sp_exact_min_makespan,
    sp_exact_min_resource,
    sp_min_makespan_table,
)
from repro.generators import balanced_sp_tree, random_sp_tree


def small_tree():
    return series(
        SPLeaf("a", GeneralStepDuration([(0, 10), (2, 4), (4, 1)])),
        parallel(
            SPLeaf("b", GeneralStepDuration([(0, 8), (3, 2)])),
            SPLeaf("c", GeneralStepDuration([(0, 6), (1, 3), (5, 0)])),
        ),
    )


class TestDPRecurrence:
    def test_leaf_table_is_duration(self):
        leaf = SPLeaf("x", GeneralStepDuration([(0, 7), (2, 3)]))
        table = sp_min_makespan_table(leaf, 4)
        assert list(table) == [7, 7, 3, 3, 3]

    def test_series_adds(self):
        tree = series(SPLeaf("a", GeneralStepDuration([(0, 5), (1, 2)])),
                      SPLeaf("b", GeneralStepDuration([(0, 4), (2, 1)])))
        table = sp_min_makespan_table(tree, 3)
        # both jobs see the same lambda units (reuse over the path)
        assert list(table) == [9, 6, 3, 3]

    def test_parallel_splits(self):
        tree = parallel(SPLeaf("a", GeneralStepDuration([(0, 5), (1, 0)])),
                        SPLeaf("b", GeneralStepDuration([(0, 5), (1, 0)])))
        table = sp_min_makespan_table(tree, 2)
        # one unit only helps one branch; two units clear both
        assert list(table) == [5, 5, 0]

    def test_table_is_non_increasing(self):
        table = sp_min_makespan_table(small_tree(), 12)
        assert all(table[i + 1] <= table[i] + 1e-12 for i in range(len(table) - 1))

    def test_matches_exhaustive_exact_solver(self):
        """On the realised DAG the DP optimum equals the enumeration optimum."""
        tree = small_tree()
        dag = tree.to_dag()
        for budget in [0, 2, 4, 6, 9]:
            dp = sp_exact_min_makespan(tree, budget)
            brute = exact_min_makespan(dag, budget)
            assert dp.makespan == pytest.approx(brute.makespan)

    def test_allocation_is_budget_feasible_and_achieves_makespan(self):
        tree = small_tree()
        budget = 6
        solution = sp_exact_min_makespan(tree, budget)
        dag = tree.to_dag()
        assert dag.makespan_value(solution.allocation) <= solution.makespan + 1e-9
        from repro.core.minflow import allocation_min_budget
        needed, _ = allocation_min_budget(dag, solution.allocation)
        assert needed <= budget + 1e-9

    def test_budget_used_is_minimal_for_optimum(self):
        tree = small_tree()
        solution = sp_exact_min_makespan(tree, 20)
        smaller = sp_min_makespan_table(tree, int(solution.budget_used))
        assert smaller[int(solution.budget_used)] == pytest.approx(solution.makespan)
        if solution.budget_used >= 1:
            assert sp_min_makespan_table(tree, int(solution.budget_used) - 1)[-1] \
                > solution.makespan

    def test_min_resource(self):
        tree = small_tree()
        target = 10.0
        solution = sp_exact_min_resource(tree, target)
        assert solution.makespan <= target
        # one unit less cannot achieve the target
        if solution.budget_used >= 1:
            table = sp_min_makespan_table(tree, int(solution.budget_used))
            assert table[int(solution.budget_used) - 1] > target

    def test_min_resource_infeasible_target(self):
        tree = series(SPLeaf("a", GeneralStepDuration([(0, 5)])))
        solution = sp_exact_min_resource(tree, 1.0)
        assert solution.metadata["status"] == "infeasible"

    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 10), st.integers(0, 1000))
    def test_dp_matches_enumeration_on_random_trees(self, jobs, budget, seed):
        tree = random_sp_tree(jobs, family="general", seed=seed, max_base=12)
        dag = tree.to_dag()
        dp = sp_exact_min_makespan(tree, budget)
        brute = exact_min_makespan(dag, budget)
        assert dp.makespan == pytest.approx(brute.makespan)


class TestRecognition:
    def test_round_trip_from_composition(self):
        tree = small_tree()
        dag = tree.to_dag()
        recovered = decompose_series_parallel(dag)
        assert recovered is not None
        # the recovered tree yields the same DP values as the original
        for budget in [0, 3, 6]:
            assert sp_min_makespan_table(recovered, budget)[-1] == \
                pytest.approx(sp_min_makespan_table(tree, budget)[-1])

    def test_balanced_trees_recognised(self):
        tree = balanced_sp_tree(3, family="binary", seed=1)
        assert decompose_series_parallel(tree.to_dag()) is not None

    def test_non_sp_dag_rejected(self):
        """The 'N' DAG (crossing dependency) is not two-terminal series-parallel."""
        dag = TradeoffDAG()
        for name in ["s", "a", "b", "c", "d", "t"]:
            dag.add_job(name, GeneralStepDuration([(0, 1)]))
        for u, v in [("s", "a"), ("s", "b"), ("a", "c"), ("a", "d"), ("b", "d"),
                     ("c", "t"), ("d", "t")]:
            dag.add_edge(u, v)
        assert decompose_series_parallel(dag) is None

    def test_chain_recognised(self, simple_chain_dag):
        assert decompose_series_parallel(simple_chain_dag) is not None

    def test_sp_dag_structure(self):
        tree = parallel(SPLeaf("x", KWaySplitDuration(9)),
                        series(SPLeaf("y", RecursiveBinarySplitDuration(8)),
                               SPLeaf("z", KWaySplitDuration(4))))
        dag = tree.to_dag()
        dag.validate()
        assert set(tree.job_names()) <= set(map(str, dag.jobs)) | set(dag.jobs)


#: Solves each cell given as JSON in argv[1] through the SP DP and prints
#: the stored payloads, ``wall_time`` removed.
_SOLVE_CELLS = """
import json, sys
from repro.engine.core import request_key, solve
from repro.engine.store import report_to_payload
from repro.scenarios import ScenarioSpec
payloads = []
for cell in json.loads(sys.argv[1]):
    problem = ScenarioSpec.from_payload(cell).materialize()
    key = request_key(problem, method="series-parallel-dp")
    payload = report_to_payload(solve(problem, method="series-parallel-dp"), key)
    del payload["wall_time"]
    payloads.append(payload)
print(json.dumps(payloads, sort_keys=True))
"""

SP_CELLS = [
    {"generator": "sp-random", "params": {"num_jobs": 40, "family": "kway"},
     "seed": 0, "budget_rule": ["const", 6.0]},
    {"generator": "sp-random", "params": {"num_jobs": 60, "family": "general"},
     "seed": 1, "budget_rule": ["const", 8.0]},
    {"generator": "sp-balanced", "params": {"depth": 4, "family": "binary"},
     "seed": 2, "budget_rule": ["const", 6.0]},
    {"generator": "staged-fork-join",
     "params": {"stage_widths": [3, 2], "work": 12, "family": "kway"},
     "seed": 3, "budget_rule": ["const", 4.0]},
]


class TestCrossProcessDeterminism:
    def test_stored_reports_do_not_follow_the_hash_seed(self):
        """Two processes store one report under one request key.

        Job ids are strings, whose hashes change with ``PYTHONHASHSEED``;
        recognition must not iterate anything in hash order.
        """
        src = str(Path(__file__).resolve().parents[1] / "src")
        runs = [subprocess.Popen([sys.executable, "-c", _SOLVE_CELLS, json.dumps(SP_CELLS)],
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                 env=dict(os.environ, PYTHONPATH=src,
                                          PYTHONHASHSEED=str(hash_seed)))
                for hash_seed in range(4)]
        outputs = []
        for run in runs:
            stdout, stderr = run.communicate(timeout=300)
            assert run.returncode == 0, stderr
            outputs.append(json.loads(stdout))
        for index, cell in enumerate(SP_CELLS):
            answers = [payloads[index] for payloads in outputs]
            assert answers[0]["solver_id"] == "series-parallel-dp"
            assert all(answer == answers[0] for answer in answers[1:]), cell
