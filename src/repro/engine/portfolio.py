"""Parallel solver portfolios and multi-scenario sweeps.

Two concurrency patterns cover the experiment workloads:

* :meth:`Portfolio.solve` -- run *several solvers on one problem*
  concurrently and return the best feasible solution found (an algorithm
  portfolio: exact solvers race the approximations, whichever finishes with
  the best certified-feasible makespan wins);
* :meth:`Portfolio.map` -- run *one auto-dispatched solve per scenario*
  concurrently over a list of problems (the scenario-sweep pattern used by
  the benchmarks; with the process executor this parallelises the CPU-bound
  exact searches across cores).

:meth:`Portfolio.map` additionally supports **sharded** execution
(``shard_size=``): consecutive scenarios are grouped into one task per
shard, amortising inter-process pickling over many scenarios -- through
the same shard worker (:meth:`Portfolio.spec_shard_task`) the sweep
services run.

Workers go through :func:`repro.engine.core.solve`, so every result carries
the usual :class:`~repro.engine.core.SolveReport` certificate, and the
process executor requires only that problems are picklable (they are plain
dataclasses over dict-based DAGs).

Usage (thread executor keeps the example light):

>>> from repro.core.dag import TradeoffDAG
>>> from repro.core.duration import GeneralStepDuration
>>> from repro.core.problem import MinMakespanProblem
>>> from repro.engine.portfolio import Portfolio
>>> dag = TradeoffDAG()
>>> for name in ("s", "x", "t"):
...     _ = dag.add_job(name, GeneralStepDuration([(0, 4), (2, 1)]))
>>> dag.add_edge("s", "x"); dag.add_edge("x", "t")
>>> problems = [MinMakespanProblem(dag, budget) for budget in (2.0, 4.0, 6.0)]
>>> reports = Portfolio(executor="thread").map(problems, shard_size=2)
>>> [round(r.makespan, 1) <= 12.0 for r in reports]
[True, True, True]
"""

from __future__ import annotations

import math
import os
import signal
import time
from concurrent.futures import (
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.problem import MinResourceProblem
from repro.engine.core import Problem, SolveLimits, SolveReport, normalize_problem, solve
from repro.engine.registry import MIN_RESOURCE, candidate_solvers, get_solver
from repro.engine.structure import analyze_dag
from repro.scenarios import ScenarioSpec
from repro.utils.validation import ValidationError, require

__all__ = ["Portfolio", "PortfolioReport"]


def _solve_task(problem: Problem, method: str, limits: SolveLimits,
                options: Dict[str, Any]) -> SolveReport:
    """Top-level worker (must be module-level so process pools can pickle it)."""
    return solve(problem, method=method, limits=limits, **options)


def _solve_spec_shard_task(items: Sequence[Any], method: str,
                           limits: SolveLimits, options: Dict[str, Any],
                           validate: bool = True,
                           ) -> List[Tuple[Optional[str], Optional[SolveReport],
                                           Optional[str]]]:
    """The shard worker: one ``(request_key, report, error)`` triple per item.

    An item is a :class:`~repro.scenarios.spec.ScenarioSpec` payload (a
    few hundred bytes), materialized **here**, in the worker, so a sweep's
    peak memory is one shard of DAGs regardless of grid size -- the
    worker learns the cell's request fingerprint as a by-product and
    reports it, and the serving layers use it to persist results and seed
    their spec-key memos/aliases.  Or an item is an already materialized
    problem, whose key the caller holds (``None`` here).  The shard is
    then solved through :func:`repro.engine.batch.solve_lp_batch`, which
    groups it by DAG fingerprint so the structure probe and the LP model
    skeleton are paid once per group.  Failures (unknown generator, bad
    params, solve errors) are captured as text per item, so one bad item
    cannot lose its shard-mates' results.
    """
    from repro.engine.batch import solve_lp_batch
    from repro.engine.core import request_key

    keys: List[Optional[str]] = []
    problems: List[Optional[Problem]] = []
    failures: List[Optional[str]] = []
    for item in items:
        key = failure = None
        problem = item
        if isinstance(item, dict):
            try:
                problem = ScenarioSpec.from_payload(item).materialize()
                key = request_key(problem, method, limits=limits,
                                  validate=validate, **options)
            except Exception as exc:  # noqa: BLE001 - reported per item
                problem, failure = None, f"{type(exc).__name__}: {exc}"
        keys.append(key)
        problems.append(problem)
        failures.append(failure)
    solved = iter(solve_lp_batch([p for p in problems if p is not None],
                                 method=method, limits=limits,
                                 options=options, validate=validate))
    return [(key, *next(solved)) if problem is not None else (None, None, failure)
            for key, problem, failure in zip(keys, problems, failures)]


def _reset_worker_signals() -> None:
    """Process-pool worker initializer: SIGINT and SIGTERM kill the worker.

    A pool forked after ``repro.serve`` installed its asyncio signal
    handlers would inherit them and the loop's wakeup fd, and so ignore
    both signals; this restores the default dispositions instead.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


@dataclass
class PortfolioReport:
    """Outcome of one portfolio race over a single problem.

    ``best`` is the winning :class:`SolveReport` (best certified-feasible
    solution, falling back to the best overall when no run is feasible);
    ``runs`` holds every finished report and ``errors`` maps solver ids to
    the exception text of failed runs.
    """

    best: SolveReport
    runs: List[SolveReport] = field(default_factory=list)
    errors: Dict[str, str] = field(default_factory=dict)
    wall_time: float = 0.0

    # passthrough conveniences mirroring SolveReport
    @property
    def solution(self):
        return self.best.solution

    @property
    def makespan(self) -> float:
        return self.best.makespan

    @property
    def budget_used(self) -> float:
        return self.best.budget_used

    @property
    def solver_id(self) -> str:
        return self.best.solver_id

    def summary(self) -> str:
        """One-line description of the race outcome."""
        tried = ", ".join(sorted(r.solver_id for r in self.runs))
        return (f"portfolio winner {self.best.solver_id} "
                f"(makespan={self.makespan:.3f}, budget={self.budget_used:.3f}) "
                f"out of [{tried}] in {self.wall_time * 1000:.1f}ms")


def _pick_best(objective: str, reports: Sequence[SolveReport]) -> SolveReport:
    require(len(reports) > 0, "portfolio produced no finished run")

    def makespan_key(r: SolveReport):
        return (r.makespan, r.budget_used)

    def budget_key(r: SolveReport):
        return (r.budget_used, r.makespan)

    key = budget_key if objective == MIN_RESOURCE else makespan_key
    feasible = [r for r in reports
                if r.certificate is not None and r.certificate.passed and r.feasible
                and not math.isinf(r.makespan)]
    pool = feasible if feasible else [r for r in reports if not math.isinf(r.makespan)]
    if not pool:
        pool = list(reports)
    return min(pool, key=key)


class Portfolio:
    """A configurable parallel solver portfolio.

    Parameters
    ----------
    methods:
        Solver ids to race in :meth:`solve`.  ``None`` picks every capable
        exact and approximation solver (plus the greedy path-reuse
        baseline) from the registry at call time.
    executor:
        ``"process"`` (default; true parallelism for the CPU-bound exact
        searches) or ``"thread"`` (lower overhead, useful when solvers
        spend their time in scipy).
    max_workers:
        Worker count; defaults to ``min(#tasks, cpu_count)``.
    limits:
        :class:`SolveLimits` forwarded to every worker; its ``time_limit``
        bounds how long :meth:`solve` waits before declaring the best
        finished run the winner (runs still executing keep their worker
        busy but are not waited for).

    A portfolio can also hold a **persistent pool** for serving many
    requests without paying worker start-up per call::

        with Portfolio(executor="process").start() as portfolio:
            portfolio.map(problems)   # reuses warm workers + their caches
    """

    def __init__(self, methods: Optional[Sequence[str]] = None, *,
                 executor: str = "process", max_workers: Optional[int] = None,
                 limits: Optional[SolveLimits] = None):
        require(executor in ("process", "thread"),
                f"executor must be 'process' or 'thread', got {executor!r}")
        self.methods = list(methods) if methods is not None else None
        self.executor = executor
        self.max_workers = max_workers
        self.limits = limits if limits is not None else SolveLimits()
        self._pool: Optional[Executor] = None
        self._closed = False

    # ------------------------------------------------------------------
    # executor lifecycle
    # ------------------------------------------------------------------
    def _new_executor(self, workers: int) -> Executor:
        if self.executor == "process":
            return ProcessPoolExecutor(max_workers=workers,
                                       initializer=_reset_worker_signals)
        return ThreadPoolExecutor(max_workers=workers)

    def start(self) -> "Portfolio":
        """Open a persistent worker pool reused by every solve/map call.

        Worker processes keep their per-process solution caches between
        calls, so repeated scenarios in a sweep are served from memory.
        Pair with :meth:`close` (or use the portfolio as a context
        manager).  Starting a closed portfolio reopens it.
        """
        if self._pool is None:
            self._pool = self._new_executor(self.max_workers or os.cpu_count() or 2)
        self._closed = False
        return self

    def close(self) -> None:
        """Shut the persistent pool down and mark the portfolio closed.

        Queued work is cancelled and the workers are waited for: a
        process that exits right after a shutdown that does not wait can
        lose the workers' stop messages (Python 3.11), leaving them
        running with no parent.  A closed portfolio raises
        :class:`RuntimeError` from every solve/map/shard entry point
        (instead of failing deep inside a shut-down executor);
        :meth:`start` reopens it.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        self._closed = True

    @property
    def closed(self) -> bool:
        """Has :meth:`close` been called (without a :meth:`start` since)?"""
        return self._closed

    def _require_open(self, operation: str) -> None:
        if self._closed:
            raise RuntimeError(
                f"Portfolio is closed; {operation} needs a live portfolio "
                "(call start() to reopen it)")

    @property
    def pool(self) -> Optional[Executor]:
        """The persistent executor opened by :meth:`start` (else ``None``).

        The sweep fronts submit :meth:`spec_shard_task` work to it: the
        sync sweep through ``pool.submit``, the asyncio serving layer
        through ``loop.run_in_executor(portfolio.pool, ...)``.
        """
        return self._pool

    def __enter__(self) -> "Portfolio":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _acquire_executor(self, n_tasks: int):
        """Return ``(executor, transient)``; transient pools are per-call."""
        if self._pool is not None:
            return self._pool, False
        workers = self.max_workers or min(n_tasks, os.cpu_count() or 2)
        workers = max(1, min(workers, n_tasks))
        return self._new_executor(workers), True

    def worker_count(self) -> int:
        """Workers a started pool has (or an unbounded call would get)."""
        return self.max_workers or os.cpu_count() or 2

    @staticmethod
    def shard_plan(n_tasks: int, workers: int, oversubscription: int = 4) -> int:
        """A shard size giving every worker ~``oversubscription`` shards.

        Small shards keep the pool load-balanced; large shards amortise
        pickling.  ``oversubscription`` trades between the two.
        """
        require(workers > 0 and oversubscription > 0,
                "workers and oversubscription must be positive")
        if n_tasks <= 0:
            return 1
        return max(1, math.ceil(n_tasks / (workers * oversubscription)))

    def _methods_for(self, problem: Problem) -> List[str]:
        if self.methods is not None:
            return self.methods
        structure = analyze_dag(problem.dag)
        objective = (MIN_RESOURCE if isinstance(problem, MinResourceProblem)
                     else "min_makespan")
        ids = [spec.solver_id
               for spec in candidate_solvers(problem, structure, self.limits, objective)
               if spec.kind in ("exact", "approximation")]
        if objective != MIN_RESOURCE and "greedy-path-reuse" not in ids:
            ids.append("greedy-path-reuse")
        return ids

    # ------------------------------------------------------------------
    def solve(self, problem: Optional[Problem] = None, *,
              dag=None, budget: Optional[float] = None,
              target_makespan: Optional[float] = None,
              **options: Any) -> PortfolioReport:
        """Race the portfolio's solvers on one problem; return the best run.

        Accepts the same problem forms as :func:`repro.engine.core.solve`.
        Solvers that raise (e.g. :class:`~repro.core.exact.ExactSearchLimit`)
        are recorded in ``errors`` and do not fail the race as long as one
        run finishes.  ``options`` are race-wide hints: each raced solver
        only receives the options it declares (so ``alpha=`` reaches the
        LP pipeline without crashing the DP next to it).  When
        ``limits.time_limit`` elapses, the best *finished* run wins and
        unfinished runs are abandoned (their workers are not waited for).
        """
        self._require_open("solve()")
        problem = normalize_problem(problem, dag=dag, budget=budget,
                                    target_makespan=target_makespan)
        methods = self._methods_for(problem)
        require(len(methods) > 0, "portfolio has no solver to run")
        objective = (MIN_RESOURCE if isinstance(problem, MinResourceProblem)
                     else "min_makespan")

        start = time.perf_counter()
        reports: List[SolveReport] = []
        errors: Dict[str, str] = {}
        pool, transient = self._acquire_executor(len(methods))
        try:
            futures: Dict[Future, str] = {
                pool.submit(_solve_task, problem, method, self.limits,
                            get_solver(method).supported_options(options)): method
                for method in methods
            }
            done, not_done = wait(futures, timeout=self.limits.time_limit)
            for future in done:
                method = futures[future]
                try:
                    reports.append(future.result())
                except Exception as exc:  # noqa: BLE001 - race keeps going
                    errors[method] = f"{type(exc).__name__}: {exc}"
            for future in not_done:
                future.cancel()
                errors.setdefault(futures[future],
                                  f"unfinished at time_limit={self.limits.time_limit}s")
        finally:
            if transient:
                pool.shutdown(wait=False, cancel_futures=True)
        wall_time = time.perf_counter() - start

        if not reports:
            raise ValidationError(
                f"portfolio produced no finished run (errors: {errors})")
        best = _pick_best(objective, reports)
        return PortfolioReport(best=best, runs=reports, errors=errors, wall_time=wall_time)

    # ------------------------------------------------------------------
    def map(self, problems: Sequence[Problem], method: str = "auto",
            skip_errors: bool = False, shard_size: Optional[int] = None,
            **options: Any) -> List[Optional[SolveReport]]:
        """Solve many scenarios concurrently (order-preserving).

        Each problem goes through :func:`repro.engine.core.solve` with the
        given ``method`` (default: auto-dispatch per scenario).  With the
        process executor this is the multi-core scenario sweep used by the
        benchmarks.  A failing scenario raises by default (remaining tasks
        are cancelled); with ``skip_errors=True`` it yields ``None`` in its
        slot and the rest of the sweep completes.

        ``shard_size=k`` groups consecutive scenarios into one task per
        ``k`` scenarios (see :meth:`shard_plan` for a pool-sized choice):
        fewer, larger tasks amortise inter-process pickling on big sweeps.
        Successful results are identical to the unsharded path, and a
        failing scenario in a shard does not lose its shard-mates'
        results.  Error semantics differ in one way: without
        ``skip_errors``, a sharded failure raises
        :class:`~repro.utils.validation.ValidationError` carrying the
        original error as text (the original exception object stays in the
        worker), not the original exception type.
        """
        self._require_open("map()")
        problems = [normalize_problem(p) for p in problems]
        if not problems:
            return []
        if shard_size is not None:
            require(shard_size > 0, "shard_size must be positive")
            shards = [problems[i:i + shard_size]
                      for i in range(0, len(problems), shard_size)]
            pool, transient = self._acquire_executor(len(shards))
            try:
                futures = [pool.submit(_solve_spec_shard_task, shard, method,
                                       self.limits, options)
                           for shard in shards]
                results: List[Optional[SolveReport]] = []
                for future in futures:
                    for _key, report, error in future.result():
                        if error is not None and not skip_errors:
                            raise ValidationError(f"sharded map scenario failed: {error}")
                        results.append(report)
                return results
            finally:
                if transient:
                    pool.shutdown(wait=False, cancel_futures=True)
        pool, transient = self._acquire_executor(len(problems))
        try:
            futures = [pool.submit(_solve_task, p, method, self.limits, options)
                       for p in problems]
            results = []
            for future in futures:
                try:
                    results.append(future.result())
                except Exception:  # noqa: BLE001 - per-scenario tolerance
                    if not skip_errors:
                        raise
                    results.append(None)
            return results
        finally:
            if transient:
                pool.shutdown(wait=False, cancel_futures=True)

    def spec_shard_task(self, items: Sequence[Any], method: str = "auto",
                        validate: bool = True, **options: Any) -> Tuple[Any, Tuple]:
        """Return ``(callable, args)`` solving one scenario shard.

        ``items`` are :class:`~repro.scenarios.spec.ScenarioSpec` objects
        (or their payload dicts), shipped to the worker as plain JSON-able
        dicts -- their DAGs are materialized inside the worker, never
        pickled across -- or materialized problems.  The pair is
        executor-agnostic: pass it to any submission primitive
        (``portfolio.pool.submit(fn, *args)`` in the sync sweep,
        ``loop.run_in_executor(portfolio.pool, fn, *args)`` in the asyncio
        front).  The callable returns ``(request_key, report,
        error_text)`` triples, one per item, in order; ``request_key`` is
        ``None`` for a problem (the caller holds it) and for an item that
        failed before its key was known.
        """
        self._require_open("spec_shard_task()")
        require(len(items) > 0, "spec_shard_task() needs at least one item")
        payloads = [item.to_payload() if isinstance(item, ScenarioSpec)
                    else item for item in items]
        return _solve_spec_shard_task, (payloads, method, self.limits,
                                        options, validate)
