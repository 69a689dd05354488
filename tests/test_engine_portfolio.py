"""Tests for the parallel portfolio runner (thread executor for speed)."""

from __future__ import annotations

import os
import signal
import socket
import time

import pytest

from repro.core.problem import MinMakespanProblem, MinResourceProblem, TradeoffSolution
from repro.engine import (
    MIN_MAKESPAN,
    Portfolio,
    SolveLimits,
    clear_caches,
    register_solver,
    solve,
    unregister_solver,
)
from repro.generators import get_workload, layered_random_dag
from repro.utils.validation import ValidationError


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


def _problem(name: str) -> MinMakespanProblem:
    workload = get_workload(name)
    return MinMakespanProblem(workload.build(), workload.budget)


def test_portfolio_race_returns_best_feasible():
    problem = _problem("small-layered-binary")
    portfolio = Portfolio(executor="thread")
    result = portfolio.solve(problem)

    assert result.runs, "at least one solver must finish"
    feasible = [r for r in result.runs if r.feasible and r.certificate.passed]
    assert feasible, "the portfolio includes within-budget solvers"
    assert result.makespan == min(r.makespan for r in feasible)
    assert result.best.feasible
    # the race must also never lose to solving with the winner directly
    direct = solve(problem, method=result.solver_id, use_cache=False)
    assert result.makespan == pytest.approx(direct.makespan)


def test_portfolio_explicit_methods_and_errors():
    # exact-enumeration is over its limit and must fail gracefully while
    # the greedy baseline still wins the race.
    dag = layered_random_dag(3, 3, family="general", seed=2)
    problem = MinMakespanProblem(dag, 6.0)
    portfolio = Portfolio(methods=["exact-enumeration", "greedy-path-reuse"],
                          executor="thread",
                          limits=SolveLimits(max_exact_combinations=1))
    result = portfolio.solve(problem)
    assert result.solver_id == "greedy-path-reuse"
    assert "exact-enumeration" in result.errors
    assert "ExactSearchLimit" in result.errors["exact-enumeration"]


def test_portfolio_all_failures_raise():
    dag = layered_random_dag(3, 3, family="general", seed=2)
    problem = MinMakespanProblem(dag, 6.0)
    portfolio = Portfolio(methods=["exact-enumeration"], executor="thread",
                          limits=SolveLimits(max_exact_combinations=1))
    with pytest.raises(ValidationError):
        portfolio.solve(problem)


def test_portfolio_min_resource_prefers_smallest_budget():
    workload = get_workload("small-layered-binary")
    problem = MinResourceProblem(workload.build(), target_makespan=60.0)
    portfolio = Portfolio(executor="thread")
    result = portfolio.solve(problem)
    feasible = [r for r in result.runs if r.feasible and r.certificate.passed]
    if feasible:
        assert result.budget_used == min(r.budget_used for r in feasible)


def test_portfolio_map_preserves_order_and_matches_sequential():
    names = ["small-layered-general", "small-layered-binary", "small-layered-kway",
             "deep-chain-binary"]
    problems = [_problem(name) for name in names]
    sequential = [solve(p, use_cache=False) for p in problems]

    portfolio = Portfolio(executor="thread")
    mapped = portfolio.map(problems)

    assert len(mapped) == len(problems)
    for seq, par in zip(sequential, mapped):
        assert par.solver_id == seq.solver_id
        assert par.makespan == pytest.approx(seq.makespan)
        assert par.budget_used == pytest.approx(seq.budget_used)


def test_portfolio_map_empty_and_invalid_executor():
    assert Portfolio(executor="thread").map([]) == []
    with pytest.raises(ValidationError):
        Portfolio(executor="fiber")


def test_portfolio_time_limit_bounds_the_wait():
    # a deliberately slow solver must not make the race block for its full
    # runtime: the fast baseline's finished run wins at the time limit.
    @register_solver("test-sleeper", summary="sleeps", objectives=(MIN_MAKESPAN,),
                     kind="baseline", theorem="-", guarantee="none", priority=998,
                     can_solve=lambda p, s, lim: True)
    def _sleeper(problem, structure, limits, **options):
        time.sleep(5.0)
        return TradeoffSolution(makespan=0.0, budget_used=0.0, algorithm="test-sleeper")

    try:
        problem = _problem("small-layered-binary")
        portfolio = Portfolio(methods=["test-sleeper", "greedy-path-reuse"],
                              executor="thread", max_workers=2,
                              limits=SolveLimits(time_limit=1.0))
        start = time.perf_counter()
        result = portfolio.solve(problem)
        elapsed = time.perf_counter() - start
        assert elapsed < 4.0, "solve() must not wait for the sleeper to finish"
        assert result.solver_id == "greedy-path-reuse"
        assert "test-sleeper" in result.errors
        assert "unfinished" in result.errors["test-sleeper"]
    finally:
        unregister_solver("test-sleeper")


def test_portfolio_race_filters_solver_specific_options():
    # alpha= belongs to the LP pipeline only; the other raced solvers must
    # not crash on it (options are filtered per solver spec).
    problem = _problem("small-layered-binary")
    result = Portfolio(executor="thread").solve(problem, alpha=0.75)
    assert not result.errors, result.errors
    lp_runs = [r for r in result.runs if r.solver_id == "bicriteria-lp"]
    assert lp_runs and lp_runs[0].solution.metadata["alpha"] == 0.75


def test_portfolio_map_skip_errors_keeps_other_scenarios():
    from repro.core.dag import TradeoffDAG
    from repro.core.duration import ConstantDuration

    # constant durations -> a single enumeration combination, so this one
    # stays solvable even under max_exact_combinations=1
    tiny = TradeoffDAG()
    tiny.add_job("s")
    tiny.add_job("x", ConstantDuration(3.0))
    tiny.add_job("t")
    tiny.add_edge("s", "x")
    tiny.add_edge("x", "t")
    good = MinMakespanProblem(tiny, 2.0)
    bad = MinMakespanProblem(layered_random_dag(3, 3, family="general", seed=2), 6.0)
    portfolio = Portfolio(executor="thread", limits=SolveLimits(max_exact_combinations=1))
    # default: the failing scenario raises
    with pytest.raises(Exception):
        portfolio.map([good, bad, good], method="exact-enumeration")
    # skip_errors: failures become None, the rest of the sweep survives
    results = portfolio.map([good, bad, good], method="exact-enumeration",
                            skip_errors=True)
    assert results[1] is None
    assert results[0] is not None and results[2] is not None
    assert results[0].makespan == results[2].makespan


def test_portfolio_persistent_pool_reused_across_calls():
    problems = [_problem("small-layered-binary"), _problem("small-layered-kway")]
    with Portfolio(executor="thread") as portfolio:
        first_pool = portfolio._pool
        assert first_pool is not None
        a = portfolio.map(problems)
        b = portfolio.map(problems)
        assert portfolio._pool is first_pool
    assert portfolio._pool is None  # closed on exit
    for x, y in zip(a, b):
        assert x.makespan == y.makespan


def test_portfolio_process_executor_round_trips_reports():
    # one tiny problem through a real process pool: SolveReports (and the
    # problems themselves) must survive pickling.
    problem = _problem("small-layered-binary")
    portfolio = Portfolio(methods=["greedy-path-reuse", "bicriteria-lp"],
                          executor="process", max_workers=2)
    result = portfolio.solve(problem)
    assert result.runs and result.best.certificate is not None
    assert result.solver_id in ("greedy-path-reuse", "bicriteria-lp")


def _worker_signal_state():
    import signal
    return (signal.getsignal(signal.SIGINT) is signal.SIG_DFL,
            signal.getsignal(signal.SIGTERM) is signal.SIG_DFL,
            signal.set_wakeup_fd(-1))


@pytest.mark.skipif(not hasattr(socket, "socketpair") or os.name != "posix",
                    reason="needs posix signals")
def test_process_workers_restore_default_signals():
    # What repro.serve's asyncio loop leaves behind before a pool forks: a
    # Python-level SIGTERM handler and a wakeup fd.
    ours, theirs = socket.socketpair()
    ours.setblocking(False)
    previous_handler = signal.signal(signal.SIGTERM, lambda *_args: None)
    previous_fd = signal.set_wakeup_fd(ours.fileno())
    try:
        portfolio = Portfolio(executor="process", max_workers=1).start()
        try:
            state = portfolio.pool.submit(_worker_signal_state).result(timeout=60)
        finally:
            portfolio.close()
    finally:
        signal.set_wakeup_fd(previous_fd)
        signal.signal(signal.SIGTERM, previous_handler)
        ours.close()
        theirs.close()
    assert state == (True, True, -1)
