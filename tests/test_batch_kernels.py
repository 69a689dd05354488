"""Kernel-equivalence tests for the batched solve layer (engine/batch.py).

The vectorized DP kernels and the skeleton-backed LP path are pure
performance work: every result must match the pre-existing scalar paths
bit for bit -- merged tables, split indices, LP flows/times and full
solution allocations included.  These property tests pin that contract
across randomized SP trees, duration families and budget sweeps.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.series_parallel as sp
from repro.core.arcdag import ArcDAG, expand_to_two_tuples, node_to_arc_dag
from repro.core.dag import TradeoffDAG
from repro.core.duration import (
    ConstantDuration,
    GeneralStepDuration,
    KWaySplitDuration,
    RecursiveBinarySplitDuration,
)
from repro.core.lp import (
    LPModelSkeleton,
    lp_kernel_counters,
    solve_min_makespan_lp,
    solve_min_resource_lp,
)
from repro.core.problem import MinMakespanProblem, MinResourceProblem
from repro.core.series_parallel import (
    SPLeaf,
    _leaf_table,
    _leaf_table_scalar,
    _parallel_merge,
    _parallel_merge_scalar,
    sp_exact_min_makespan,
)
from repro.engine.batch import get_lp_skeleton, solve_lp_batch
from repro.engine.core import clear_caches, solve
from repro.generators import random_sp_tree


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def non_increasing_table(rng: np.random.RandomState, size: int,
                         with_inf: bool) -> np.ndarray:
    values = rng.uniform(0.0, 50.0, size)
    if with_inf:
        values[rng.uniform(size=size) < 0.2] = np.inf
    if rng.uniform() < 0.3:  # ties exercise first-argmin tie-breaking
        values = np.round(values / 10.0) * 10.0
    return np.maximum.accumulate(values[::-1])[::-1]


def simple_lp_arcdag() -> ArcDAG:
    dag = ArcDAG()
    dag.add_arc("s", "a", GeneralStepDuration([(0, 10), (5, 0)]), arc_id="e1")
    dag.add_arc("s", "b", GeneralStepDuration([(0, 7), (2, 0)]), arc_id="e2")
    dag.add_arc("a", "t", GeneralStepDuration([(0, 6), (3, 0)]), arc_id="e3")
    dag.add_arc("b", "t", GeneralStepDuration([(0, 9), (4, 0)]), arc_id="e4")
    return dag


# ----------------------------------------------------------------------
# DP kernels
# ----------------------------------------------------------------------
class TestParallelMergeEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 80), st.integers(0, 10_000), st.booleans())
    def test_matches_scalar_on_random_tables(self, budget, seed, with_inf):
        rng = np.random.RandomState(seed)
        t1 = non_increasing_table(rng, budget + 1, with_inf)
        t2 = non_increasing_table(rng, budget + 1, with_inf)
        merged_v, split_v = _parallel_merge(t1, t2)
        merged_s, split_s = _parallel_merge_scalar(t1, t2)
        assert np.array_equal(merged_v, merged_s)
        assert np.array_equal(split_v, split_s)

    @pytest.mark.parametrize("budget", [0, 1, 255, 256, 257, 600])
    def test_chunk_boundaries(self, budget):
        """The chunked reduction must be seamless across chunk edges."""
        rng = np.random.RandomState(budget)
        t1 = non_increasing_table(rng, budget + 1, False)
        t2 = non_increasing_table(rng, budget + 1, False)
        assert np.array_equal(_parallel_merge(t1, t2)[0],
                              _parallel_merge_scalar(t1, t2)[0])
        assert np.array_equal(_parallel_merge(t1, t2)[1],
                              _parallel_merge_scalar(t1, t2)[1])

    def test_all_infinite_rows_pick_index_zero(self):
        t1 = np.full(4, np.inf)
        t2 = np.full(4, np.inf)
        merged, split = _parallel_merge(t1, t2)
        merged_s, split_s = _parallel_merge_scalar(t1, t2)
        assert np.array_equal(merged, merged_s)
        assert np.array_equal(split, split_s)
        assert (split == 0).all()


class TestLeafTableEquivalence:
    @pytest.mark.parametrize("duration", [
        ConstantDuration(5.0),
        GeneralStepDuration([(0, 10), (2, 4), (5, 1), (9, 0)]),
        KWaySplitDuration(36),
        RecursiveBinarySplitDuration(64),
        GeneralStepDuration([(0, math.inf), (3, 2)]),
    ])
    @pytest.mark.parametrize("budget", [0, 1, 7, 40])
    def test_matches_scalar_for_every_family(self, duration, budget):
        leaf = SPLeaf("x", duration)
        assert np.array_equal(_leaf_table(leaf, budget),
                              _leaf_table_scalar(leaf, budget))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 50)),
                    min_size=1, max_size=6),
           st.integers(0, 30))
    def test_matches_scalar_on_random_step_functions(self, pairs, budget):
        pairs = [(0, 50)] + [(r, t) for r, t in pairs]
        leaf = SPLeaf("x", GeneralStepDuration(pairs))
        assert np.array_equal(_leaf_table(leaf, budget),
                              _leaf_table_scalar(leaf, budget))


class TestDPEndToEnd:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 7), st.integers(0, 12), st.integers(0, 1000))
    def test_solutions_identical_with_scalar_kernels(self, jobs, budget, seed):
        tree = random_sp_tree(jobs, family="general", seed=seed, max_base=12)
        vectorized = sp_exact_min_makespan(tree, budget)
        # Swap both kernels for their scalar references and re-run.
        original = (sp._parallel_merge, sp._leaf_table)
        sp._parallel_merge = sp._parallel_merge_scalar
        sp._leaf_table = sp._leaf_table_scalar
        try:
            scalar = sp_exact_min_makespan(tree, budget)
        finally:
            sp._parallel_merge, sp._leaf_table = original
        assert vectorized.makespan == scalar.makespan
        assert vectorized.budget_used == scalar.budget_used
        assert vectorized.allocation == scalar.allocation
        assert np.array_equal(vectorized.metadata["table"],
                              scalar.metadata["table"])


# ----------------------------------------------------------------------
# LP skeleton
# ----------------------------------------------------------------------
class TestLPSkeletonEquivalence:
    def test_budget_sweep_matches_fresh_solves(self):
        dag = simple_lp_arcdag()
        skeleton = LPModelSkeleton(dag)
        for budget in [0.0, 1.0, 2.5, 4.0, 8.0, 100.0]:
            reused = skeleton.solve_min_makespan(budget)
            fresh = solve_min_makespan_lp(dag, budget)
            assert reused.status == fresh.status
            assert reused.objective == fresh.objective
            assert reused.flows == fresh.flows
            assert reused.times == fresh.times
            assert reused.makespan == fresh.makespan
            assert reused.budget_used == fresh.budget_used

    def test_target_sweep_matches_fresh_solves(self):
        dag = simple_lp_arcdag()
        skeleton = LPModelSkeleton(dag)
        for target in [0.0, 4.0, 9.5, 16.0, 50.0]:
            reused = skeleton.solve_min_resource(target)
            fresh = solve_min_resource_lp(dag, target)
            assert reused.status == fresh.status
            assert reused.objective == fresh.objective
            assert reused.flows == fresh.flows
            assert reused.times == fresh.times

    def test_infeasible_target_still_infeasible(self):
        dag = ArcDAG()
        dag.add_arc("s", "t", GeneralStepDuration([(0, 5)]), arc_id="e")
        skeleton = LPModelSkeleton(dag)
        assert skeleton.solve_min_resource(1.0).status == "infeasible"
        assert solve_min_resource_lp(dag, 1.0).status == "infeasible"

    def test_infeasible_then_feasible_targets_on_one_skeleton(self):
        dag = ArcDAG()
        dag.add_arc("s", "t", GeneralStepDuration([(0, 5), (3, 1)]), arc_id="e")
        skeleton = LPModelSkeleton(dag)
        solved = [skeleton.solve_min_resource(target) for target in (0.5, 1.0, 5.0)]
        assert [s.status for s in solved] == ["infeasible", "optimal", "optimal"]

    @settings(max_examples=10, deadline=None)
    @given(st.integers(3, 6), st.integers(0, 500))
    def test_random_dags_match(self, jobs, seed):
        tree = random_sp_tree(jobs, family="general", seed=seed, max_base=10)
        arc_dag, _ = node_to_arc_dag(tree.to_dag())
        expanded = expand_to_two_tuples(arc_dag).arc_dag
        skeleton = LPModelSkeleton(expanded)
        for budget in (0.0, 2.0, 5.0):
            reused = skeleton.solve_min_makespan(budget)
            fresh = solve_min_makespan_lp(expanded, budget)
            assert reused.objective == fresh.objective
            assert reused.flows == fresh.flows

    def test_skeleton_cache_shares_models_by_content(self):
        clear_caches()
        a = simple_lp_arcdag()
        b = simple_lp_arcdag()  # distinct object, identical content
        assert get_lp_skeleton(a) is get_lp_skeleton(b)
        assert get_lp_skeleton(a) is get_lp_skeleton(a)  # identity fast path


# ----------------------------------------------------------------------
# the batched entry point
# ----------------------------------------------------------------------
def layered_dag(scale: int) -> TradeoffDAG:
    dag = TradeoffDAG()
    dag.add_job("s")
    dag.add_job("x", GeneralStepDuration([(0, 8 * scale), (2, 3 * scale), (4, scale)]))
    dag.add_job("y", GeneralStepDuration([(0, 6 * scale), (3, 2 * scale)]))
    dag.add_job("t")
    dag.add_edge("s", "x")
    dag.add_edge("s", "y")
    dag.add_edge("x", "t")
    dag.add_edge("y", "t")
    return dag


class TestSolveLpBatch:
    def test_matches_sequential_solve_bit_for_bit(self):
        dag_a, dag_b = layered_dag(1), layered_dag(2)
        problems = [MinMakespanProblem(dag, budget)
                    for dag in (dag_a, dag_b)
                    for budget in (2.0, 4.0, 7.0, 4.0)]  # includes a repeat
        clear_caches()
        batched = solve_lp_batch(problems, method="bicriteria-lp",
                                 options={"alpha": 0.5})
        clear_caches()
        sequential = [solve(p, method="bicriteria-lp", alpha=0.5, use_cache=False)
                      for p in problems]
        assert len(batched) == len(problems)
        for (report, error), reference in zip(batched, sequential):
            assert error is None
            assert report.makespan == reference.makespan
            assert report.budget_used == reference.budget_used
            assert report.allocation == reference.allocation

    def test_one_skeleton_build_per_dag_group(self):
        dag = layered_dag(3)
        groups = [[MinMakespanProblem(dag, b) for b in (1.0, 2.0, 3.0, 4.0, 5.0)],
                  [MinResourceProblem(dag, t) for t in (12.0, 16.0, 20.0, 24.0)]]
        for problems in groups:
            clear_caches()
            solve_lp_batch(problems, method="bicriteria-lp", options={"alpha": 0.5})
            counters = lp_kernel_counters()
            assert counters["skeleton_builds"] == 1
            assert counters["skeleton_solves"] == len(problems)

    def test_certificates_pass_through_cached_backend(self):
        # Every engine LP solve goes through CACHED_LP_BACKEND's skeleton,
        # repeated budgets included.
        dag = layered_dag(2)
        clear_caches()
        for budget in (2.0, 4.0, 7.0, 4.0):
            report = solve(MinMakespanProblem(dag, budget),
                           method="bicriteria-lp", alpha=0.5, use_cache=False)
            assert report.certificate is not None
            assert report.certificate.passed

    def test_content_equal_dag_objects_share_one_group(self):
        # Pickled shard copies of one workload are distinct objects with the
        # same content; the fingerprint grouping must merge them.
        problems = [MinMakespanProblem(layered_dag(1), b) for b in (2.0, 3.0, 5.0)]
        clear_caches()
        solve_lp_batch(problems, method="bicriteria-lp", options={"alpha": 0.5})
        counters = lp_kernel_counters()
        assert counters["skeleton_builds"] == 1
        assert counters["skeleton_solves"] == len(problems)

    def test_per_scenario_errors_are_captured(self):
        dag = layered_dag(1)
        problems = [MinMakespanProblem(dag, 4.0), MinMakespanProblem(dag, 2.5)]
        # Direct dispatch of the SP DP rejects non-integral budgets; the
        # failing scenario must not lose its shard-mate's result.
        results = solve_lp_batch(problems, method="series-parallel-dp")
        assert results[0][0] is not None and results[0][1] is None
        assert results[1][0] is None and "integral budget" in results[1][1]

    def test_bad_scenario_does_not_lose_its_shard_mates(self):
        # A scenario whose DAG fails validation (cycle added after
        # construction) must surface as a per-scenario error while the
        # rest of the shard completes.
        good = MinMakespanProblem(layered_dag(1), 4.0)
        bad = MinMakespanProblem(layered_dag(1), 4.0)
        bad.dag.add_edge("t", "s")  # invalidated after construction
        results = solve_lp_batch([good, bad, good],
                                 method="bicriteria-lp", options={"alpha": 0.5})
        assert results[0][0] is not None and results[0][1] is None
        assert results[1][0] is None and "cycle" in results[1][1]
        assert results[2][0] is not None and results[2][1] is None

    def test_auto_dispatch_results_match_sequential(self):
        problems = [MinMakespanProblem(layered_dag(s), b)
                    for s in (1, 2) for b in (2.0, 6.0)]
        clear_caches()
        batched = solve_lp_batch(problems)
        clear_caches()
        sequential = [solve(p, use_cache=False) for p in problems]
        for (report, error), reference in zip(batched, sequential):
            assert error is None
            assert report.solver_id == reference.solver_id
            assert report.makespan == reference.makespan
            assert report.allocation == reference.allocation
