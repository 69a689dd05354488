"""Seeded inputs, timed phases and output checks of the two workloads.

Every input is made from the ``--seed`` here; the program only ever sees
the generated specs, request lines and instances.  Each workload returns an
:class:`Outcome`: raw samples (unit times, request latencies), set-up
times, check counts and -- in traced runs -- the spans and counters that
:mod:`run` turns into per-layer metrics.

Why the shapes are what they are:

* ``cold-compute`` is the in-process compute path.  Each unit sweeps the
  same seeded grid on a fresh empty store, caches cleared, then solves one
  round of fresh seeded Section 4 reductions and exact references.  The
  grid is built so the dispatched solver of every cell does not depend on
  the seed (the LP cells are too large for exact enumeration, the exact
  cells have fixed breakpoint counts), and every oracle round has the same
  make-up, so a unit costs nearly the same across seeds.  It is the only
  workload whose time is spent in the solver kernels and ``core.exact``.
* ``warm-wire`` answers every request from the store: the timed phase is
  the warm read path (plan, store read, report decode/encode, wire).
"""

from __future__ import annotations

import gc
import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.exact import exact_min_makespan, exact_min_resource
from repro.core.bicriteria import (solve_min_makespan_bicriteria,
                                   solve_min_resource_bicriteria)
from repro.core.binary_approx import solve_min_makespan_binary
from repro.core.kway_approx import solve_min_makespan_kway
from repro.core.problem import MinMakespanProblem
from repro.core.series_parallel import (decompose_series_parallel,
                                        sp_exact_min_makespan,
                                        sp_exact_min_resource)
from repro.engine.batch import batch_kernel_info
from repro.engine.certify import certify_solution
from repro.engine.core import clear_caches, exact_reference
from repro.engine.portfolio import Portfolio
from repro.engine.service import SweepService
from repro.engine.store import SolutionStore, report_to_payload
from repro.engine.structure import analyze_dag
from repro.hardness import OneInThreeSatInstance, PartitionInstance
from repro.hardness.verify import verify_partition_reduction, verify_theorem41
from repro.scenarios import Axis, ScenarioGrid, ScenarioSpec

from speed import SpeedMeter
from tracing import Tracer, read_jsonl, within_roots
from wire import SINGLE_THREAD_ENV, LineClient, ServerProcess

#: Seed whose outputs are recorded in ``reference.json``.
DEFAULT_SEED = 1
#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUPS = 3
#: Relative tolerance of every recomputed float comparison.
REL_TOL = 1e-9
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")
#: Seconds of timed phase between two samples of the host's speed.
SAMPLE_EVERY = 2.0

FAMILIES = ["general", "binary", "kway"]


@dataclass
class Context:
    """What a workload needs from the command line."""

    seed: int
    seconds: float
    trace: bool
    tiny: bool
    root: str
    workdir: str
    #: The CPU the run is pinned to.
    cpu: int


@dataclass
class Outcome:
    """Samples and checks of one workload run (see module docstring)."""

    #: Seconds per set-up repetition (a fresh import plus construction
    #: and warm-up).
    setups: List[float] = field(default_factory=list)
    #: Timed units: (seconds, operations answered) per unit or request.
    units: List[Tuple[float, int]] = field(default_factory=list)
    #: Latency samples in seconds (per unit or request).
    latencies: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0
    errors: List[str] = field(default_factory=list)
    #: The host's speed over the run (untraced runs; see :mod:`speed`).
    speed: SpeedMeter = field(default_factory=SpeedMeter)
    #: Printed beside the metrics (e.g. failing certificates the reference
    #: program also produces).
    diagnostics: Dict[str, float] = field(default_factory=dict)
    #: Traced runs: the untraced units measured beside the traced ones,
    #: for the overhead ratio.
    baseline_units: List[Tuple[float, int]] = field(default_factory=list)
    spans: List[dict] = field(default_factory=list)
    #: Per-layer totals measured outside the span set (kernel counter and
    #: ``metrics`` op deltas, the serve residual).
    extra: Dict[str, float] = field(default_factory=dict)
    #: Operations answered in the traced phase (the per-layer divisor).
    traced_ops: int = 0
    #: Set-up phase spans (warm-wire base build), with their cell count.
    setup_spans: List[dict] = field(default_factory=list)
    setup_ops: int = 0

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(message)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


def _load_reference() -> Dict[str, Any]:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _kernel_counters() -> Dict[str, int]:
    info = batch_kernel_info()
    return {"structure.probe_runs": info["structure"]["probe_runs"],
            "lp.skeleton_builds": info["lp"]["skeleton_builds"],
            "lp.simplex_iterations": info["lp"]["simplex_iterations"]}


def _add(target: Dict[str, float], source: Dict[str, float], sign: int = 1) -> None:
    for name, value in source.items():
        target[name] = target.get(name, 0) + sign * value


def fresh_import_seconds(root: str) -> float:
    """Seconds a fresh interpreter takes to import the benchmark and the
    program -- the part of a set-up that one process cannot repeat."""
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "perfbench"),
                                         os.path.join(root, "src")])
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import workloads"], env=env,
                   cwd=root, check=True)
    return time.perf_counter() - start


def _timed_loop(seconds: float, step: Callable[[], None],
                speed: Optional[SpeedMeter] = None) -> None:
    """Run ``step`` until ``seconds`` of it have passed (at least once).

    With ``speed``, the host's speed is sampled before the first step and
    then about every :data:`SAMPLE_EVERY` seconds, between steps, with the
    clock stopped: the samples spread over the whole phase and never
    overlap a step.
    """
    deadline = time.perf_counter() + seconds
    next_sample = 0.0
    while True:
        now = time.perf_counter()
        if speed is not None and now >= next_sample:
            speed.sample()
            resumed = time.perf_counter()
            deadline += resumed - now
            next_sample = resumed + SAMPLE_EVERY
        step()
        if time.perf_counter() >= deadline:
            return


# ---------------------------------------------------------------------------
# the cold grid sweep
# ---------------------------------------------------------------------------

def cold_sweep_specs(seed: int, tiny: bool = False) -> List[ScenarioSpec]:
    """The seeded mixed grid, as the list of specs one pass sweeps.

    Cells by dispatched solver: the layered-random DAGs go to the LP
    pipelines (bicriteria / k-way / binary, by duration family), the
    binary staged fork-joins under non-integral budgets to exact
    enumeration, everything series-parallel under an integral budget to
    the SP DP.  The last grid is the ``min_resource`` slice.
    """
    # 25 and 24 jobs: too many breakpoint combinations for exact
    # enumeration whatever the seed, so these always go to an LP pipeline.
    layered = [{"generator": "layered-random",
                "params": {"num_layers": layers, "jobs_per_layer": jobs,
                           "family": Axis(FAMILIES)}}
               for layers, jobs in ((5, 5), (6, 4))]
    grids = [
        ScenarioGrid(generators=tuple(layered), seeds=seed,
                     budget_rules=(("per-job", 1.0), ("makespan-factor", 0.05))),
        # Integral budgets only: under a fractional one, an sp-random DAG
        # goes to an approximation or, when the seed happens to give it few
        # breakpoint combinations, to exact enumeration at over 100x the cost.
        ScenarioGrid(generators=(
            {"generator": "sp-random",
             "params": {"num_jobs": 12, "family": Axis(["binary", "kway"])}},),
            seeds=seed, budget_rules=(("per-job", 1.0), ("const", 6.0))),
        ScenarioGrid(generators=(
            {"generator": "staged-fork-join",
             "params": {"stage_widths": Axis([[2, 2, 2], [3, 3]]), "work": 8,
                        "family": "binary"}},),
            seeds=seed, budget_rules=(("const", 8.5), ("makespan-factor", 0.3))),
        ScenarioGrid(generators=(
            {"generator": "staged-fork-join",
             "params": {"stage_widths": [3, 3], "work": 8,
                        "family": Axis(["general", "kway"])}},),
            seeds=seed, budget_rules=(("per-job", 1.0), ("const", 6.0))),
        ScenarioGrid(generators=(
            layered[1],
            {"generator": "sp-random",
             "params": {"num_jobs": 10, "family": Axis(FAMILIES)}}),
            seeds=seed, objective="min_resource",
            budget_rules=(("makespan-factor", 0.7),)),
    ]
    specs = [spec for grid in grids for spec in grid.expand()]
    return specs[::5] if tiny else specs


def _warmup_specs(seed: int) -> List[ScenarioSpec]:
    """Five cells of another seed's grid, distinct from the timed cells."""
    return cold_sweep_specs(seed + 100_000)[::6]


def direct_solve(spec: ScenarioSpec, solver_id: str) -> List[Any]:
    """Re-solve one cell by calling ``repro.core`` directly (no engine).

    Returns ``[makespan, budget_used, solver_id, certificate passed]``;
    the certificate is computed the way the engine computes it, on the
    normalised DAG, with allocations restricted to the DAG's jobs.
    """
    problem = spec.materialize()
    dag = problem.dag.ensure_single_source_sink()
    makespan_problem = isinstance(problem, MinMakespanProblem)
    parameter = problem.budget if makespan_problem else problem.target_makespan
    if solver_id == "bicriteria-lp":
        solve = (solve_min_makespan_bicriteria if makespan_problem
                 else solve_min_resource_bicriteria)
        solution = solve(dag, parameter, 0.5)
    elif solver_id == "kway-5approx":
        solution = solve_min_makespan_kway(dag, parameter)
    elif solver_id == "binary-4approx":
        solution = solve_min_makespan_binary(dag, parameter)
    elif solver_id == "series-parallel-dp":
        tree = decompose_series_parallel(dag)
        solution = (sp_exact_min_makespan(tree, int(parameter)) if makespan_problem
                    else sp_exact_min_resource(tree, parameter))
    elif solver_id == "exact-enumeration":
        solve = exact_min_makespan if makespan_problem else exact_min_resource
        solution = solve(dag, parameter)
    else:
        raise ValueError(f"no direct re-solve for solver {solver_id!r}")
    jobs = set(dag.jobs)
    solution.allocation = {job: amount for job, amount in solution.allocation.items()
                           if job in jobs}
    rebuilt = type(problem)(dag, parameter)
    certificate = certify_solution(rebuilt, solution, dag)
    return [solution.makespan, solution.budget_used, solver_id, certificate.passed]


def cold_pass(specs: Sequence[ScenarioSpec], workdir: str, name: str,
               tracer: Optional[Tracer] = None):
    """One cold sweep on a fresh store.

    Returns ``(seconds, SweepReport, kernel counter deltas)``; with a
    tracer the sweep runs inside a ``bench.pass`` root span.
    """
    clear_caches()
    root = os.path.join(workdir, name)
    service = SweepService(store=SolutionStore(os.path.join(root, "store")),
                           portfolio=Portfolio(executor="thread", max_workers=1))
    before = _kernel_counters()
    gc.collect()
    start = time.perf_counter()
    if tracer is None:
        report = service.run(specs, manifest=os.path.join(root, "manifest.json"))
    else:
        with tracer.span("bench.pass", tag=name):
            report = service.run(specs, manifest=os.path.join(root, "manifest.json"))
    elapsed = time.perf_counter() - start
    counters = _kernel_counters()
    _add(counters, before, -1)
    service.close()
    shutil.rmtree(root)
    return elapsed, report, counters


def check_cold_report(report, specs: Sequence[ScenarioSpec],
                      expected: Dict[str, List[Any]], outcome: Outcome) -> None:
    """Count one pass's cells against ``expected`` (digest -> values).

    A cell is right when it was computed and its ``(makespan,
    budget_used, solver, certificate verdict)`` equals the expected
    values.
    """
    for result, spec in zip(report.results, specs):
        outcome.attempted += 1
        digest = spec.cell_digest()
        rep = result.report
        if rep is None or result.source != "computed" or rep.certificate is None:
            outcome.fail(f"cell {digest[:12]}: {result.source} {result.error}")
            continue
        makespan, budget_used, solver_id, passed = expected[digest]
        if not (_close(rep.makespan, makespan) and _close(rep.budget_used, budget_used)
                and rep.solver_id == solver_id and rep.certificate.passed == passed):
            outcome.fail(f"cell {digest[:12]}: got ({rep.makespan}, "
                         f"{rep.budget_used}, {rep.solver_id}, "
                         f"{rep.certificate.passed}), expected ({makespan}, "
                         f"{budget_used}, {solver_id}, {passed})")
        elif not passed:
            outcome.diagnostics["cells_with_failing_certificate"] = (
                outcome.diagnostics.get("cells_with_failing_certificate", 0) + 1)


def cold_expected(report, specs: Sequence[ScenarioSpec], seed: int
                  ) -> Dict[str, List[Any]]:
    """Expected per-cell values: recorded in ``reference.json`` for the
    default seed, else an untimed direct ``repro.core`` re-solve of every
    cell (:func:`direct_solve`) under the solver the engine dispatched."""
    recorded = _load_reference()["cold_sweep"] if seed == DEFAULT_SEED else {}
    expected: Dict[str, List[Any]] = {}
    for result, spec in zip(report.results, specs):
        digest = spec.cell_digest()
        if digest in recorded:
            expected[digest] = recorded[digest]
        elif result.report is not None:
            expected[digest] = direct_solve(spec, result.report.solver_id)
        else:
            expected[digest] = [math.nan, math.nan, "", True]
    return expected


# ---------------------------------------------------------------------------
# the exact oracle
# ---------------------------------------------------------------------------

@dataclass
class OracleInstance:
    """One oracle call and what its answer must be."""

    ident: str
    kind: str            # "partition" | "sat" | "exact"
    payload: Any
    expect_yes: Optional[bool] = None
    problem: Any = None


def _partition_instances(rng: random.Random, plan: Sequence[Tuple[int, int, int]]
                         ) -> List[OracleInstance]:
    out: List[OracleInstance] = []
    for size, yes_count, no_count in plan:
        want = {True: yes_count, False: no_count}
        while want[True] or want[False]:
            values = tuple(rng.randint(1, 9) for _ in range(size))
            yes = PartitionInstance(values).is_partitionable()
            if want[yes]:
                want[yes] -= 1
                out.append(OracleInstance(f"partition-{values}", "partition",
                                          values, expect_yes=yes))
    return out


def _exact_reference_specs(rng: random.Random, count: int) -> List[ScenarioSpec]:
    """Small layered-random DAGs whose breakpoint-combination count lies
    in a fixed band, so the enumeration cost hardly depends on the seed."""
    specs: List[ScenarioSpec] = []
    while len(specs) < count:
        spec = ScenarioSpec("layered-random",
                            {"num_layers": 2, "jobs_per_layer": 3,
                             "family": "binary"},
                            seed=rng.randrange(2 ** 31),
                            budget_rule=("const", 4.5))
        combos = analyze_dag(spec.build_dag()).exact_combinations
        if 300 <= combos <= 700:
            specs.append(spec)
    return specs


#: Rounds per seed; round ``k`` of a run draws list ``k % ORACLE_ROUNDS``.
ORACLE_ROUNDS = 64


def oracle_instances(seed: int, round_index: int, tiny: bool = False
                     ) -> List[OracleInstance]:
    """The seeded instance list of one oracle round, in run order.

    A round is one instance of every kind the oracle checks: a Theorem 4.1
    formula, a 5-, a 6- and a 7-value Partition instance and an
    ``exact_reference`` DAG.  Even rounds take the Partition sizes as (yes,
    no, yes), odd rounds as (no, yes, no), so two rounds cover all six.
    Every round draws fresh instances from the seed, and a round is the
    latency unit: rounds of one fixed make-up cost about the same, where
    single instances spread their cost threefold by kind and values.
    """
    rng = random.Random(f"{seed}/{round_index % ORACLE_ROUNDS}")
    first = round_index % 2 == 0
    plan = ((5, 1, 1),) if tiny else tuple(
        (size, int(yes), int(not yes))
        for size, yes in ((5, first), (6, not first), (7, first)))
    instances = _partition_instances(rng, plan)
    if not tiny:
        # One clause of three negated variables, the seed picking their
        # order: every such formula is 1-in-3 satisfiable (any one variable
        # false), and verify_theorem41 costs the same on each of them within
        # a few percent, where random sign patterns spread its cost by a
        # quarter.
        order = rng.sample([1, 2, 3], 3)
        formula = OneInThreeSatInstance(3, (tuple(-v for v in order),))
        instances.append(OracleInstance(f"sat-{formula.clauses}", "sat",
                                        formula, expect_yes=True))
    for spec in _exact_reference_specs(rng, 1):
        instances.append(OracleInstance(f"exact-{spec.cell_digest()}",
                                        "exact", spec))
    rng.shuffle(instances)
    return instances


def solve_instance(instance: OracleInstance):
    """The timed call for one instance."""
    if instance.kind == "partition":
        return verify_partition_reduction(PartitionInstance(instance.payload))
    if instance.kind == "sat":
        return verify_theorem41(instance.payload)
    return exact_reference(instance.problem)


def check_oracle_answer(instance: OracleInstance, answer: Any,
                        expected: Dict[str, float]) -> Optional[str]:
    """``None`` when the answer is right, else what is wrong with it."""
    if instance.kind in ("partition", "sat"):
        witness_ok = (answer.forward_witness_ok is True if instance.expect_yes
                      else answer.forward_witness_ok is None)
        if answer.agrees and answer.source_yes == instance.expect_yes and witness_ok:
            return None
        return f"{instance.ident}: reduction disagrees ({answer})"
    if answer is None or answer.certificate is None or not answer.certificate.passed:
        return f"{instance.ident}: no certified exact solution"
    if not _close(answer.makespan, expected[instance.ident]):
        return (f"{instance.ident}: optimum {answer.makespan}, expected "
                f"{expected[instance.ident]}")
    return None


def direct_optima(instances: Sequence[OracleInstance]) -> Dict[str, float]:
    """Exact optima of the ``exact_reference`` instances, by a direct
    ``core.exact`` enumeration (no engine)."""
    optima: Dict[str, float] = {}
    for instance in instances:
        if instance.kind == "exact":
            problem = instance.payload.materialize()
            optima[instance.ident] = exact_min_makespan(
                problem.dag.ensure_single_source_sink(), problem.budget).makespan
    return optima


def oracle_round(seed: int, index: int, tiny: bool,
                 tracer: Optional[Tracer] = None):
    """Solve round ``index`` of the seed's oracle instances, engine caches
    cleared first.

    Returns ``(seconds, instances, answers, kernel counter deltas)``; with
    a tracer each instance runs inside a ``bench.instance`` root span.
    """
    instances = oracle_instances(seed, index, tiny)
    for instance in instances:
        if instance.kind == "exact":
            instance.problem = instance.payload.materialize()
    clear_caches()
    before = _kernel_counters()
    gc.collect()
    answers = []
    start = time.perf_counter()
    for instance in instances:
        if tracer is None:
            answers.append(solve_instance(instance))
        else:
            with tracer.span("bench.instance", tag=instance.ident):
                answers.append(solve_instance(instance))
    elapsed = time.perf_counter() - start
    counters = _kernel_counters()
    _add(counters, before, -1)
    return elapsed, instances, answers, counters


# ---------------------------------------------------------------------------
# cold-compute
# ---------------------------------------------------------------------------

def run_cold_compute(ctx: Context) -> Outcome:
    """Unit after unit: one cold sweep of the grid, then one oracle round.

    A unit's operations are the cells swept plus the instances solved;
    each unit uses fresh oracle instances and the same grid.
    """
    outcome = Outcome()
    specs = cold_sweep_specs(ctx.seed, ctx.tiny)
    warmup = _warmup_specs(ctx.seed)
    recorded = (_load_reference()["exact_oracle"]
                if ctx.seed == DEFAULT_SEED and not ctx.tiny else None)
    for index in range(1 if (ctx.trace or ctx.tiny) else SETUPS):
        imported = fresh_import_seconds(ctx.root)
        start = time.perf_counter()
        cold_pass(warmup, ctx.workdir, f"warmup{index}")
        # One small instance of each oracle kind loads every lazy import.
        oracle_round(ctx.seed + 100_000, 0, tiny=True)
        outcome.setups.append(imported + time.perf_counter() - start)

    expected_cells: Optional[Dict[str, List[Any]]] = None
    units = 0

    def one_unit(timed: List[Tuple[float, int]], tracer: Optional[Tracer]) -> None:
        nonlocal expected_cells, units
        index = units
        units += 1
        sweep_s, report, sweep_counters = cold_pass(specs, ctx.workdir,
                                                    f"pass{index}", tracer)
        round_s, instances, answers, round_counters = oracle_round(
            ctx.seed, index, ctx.tiny, tracer)
        if tracer is not None:
            _add(outcome.extra, sweep_counters)
            _add(outcome.extra, round_counters)
        timed.append((sweep_s + round_s, len(specs) + len(instances)))
        outcome.latencies.append(sweep_s + round_s)

        if expected_cells is None:
            expected_cells = cold_expected(report, specs, ctx.seed)
        check_cold_report(report, specs, expected_cells, outcome)
        optima = recorded if recorded is not None else direct_optima(instances)
        for instance, answer in zip(instances, answers):
            outcome.attempted += 1
            problem = check_oracle_answer(instance, answer, optima)
            if problem is not None:
                outcome.fail(problem)

    _measure(ctx, outcome, one_unit)
    outcome.peak_rss_mb = _self_peak_rss_mb()
    return outcome


# ---------------------------------------------------------------------------
# warm-wire
# ---------------------------------------------------------------------------

#: Cells per ``sweep_spec`` request.
REQUEST_CELLS = 16


def warm_wire_specs(seed: int, tiny: bool = False) -> List[ScenarioSpec]:
    """~1,000 cheap SP-DP cells (fork-join / staged fork-join, integral
    budgets): at least twice the engine's 512-entry tier-1 LRU."""
    rng = random.Random(seed)
    staged_seeds = tuple(rng.randrange(2 ** 31) for _ in range(4))
    budgets = tuple(("const", float(b)) for b in (2, 4, 6, 8, 10, 12))
    grids = [
        ScenarioGrid(generators=(
            {"generator": "fork-join",
             "params": {"width": Axis(list(range(2, 10))),
                        "work": Axis([8, 12, 16, 20, 24]),
                        "family": Axis(["binary", "kway"])}},),
            budget_rules=budgets),
        ScenarioGrid(generators=(
            {"generator": "staged-fork-join",
             "params": {"stage_widths": Axis([[2, 2], [2, 3], [3, 3], [2, 2, 2]]),
                        "work": Axis([8, 12, 16]),
                        "family": Axis(["binary", "kway"])}},),
            seeds=staged_seeds, budget_rules=budgets),
    ]
    specs = [spec for grid in grids for spec in grid.expand()]
    return specs[::20] if tiny else specs


def _request_line(request_id: str, specs: Sequence[ScenarioSpec]) -> bytes:
    return (json.dumps({"op": "sweep_spec", "id": request_id,
                        "specs": [spec.to_payload() for spec in specs]})
            + "\n").encode()


def _normalised(payload: Any) -> Any:
    return json.loads(json.dumps(payload))


def build_base_store(specs: Sequence[ScenarioSpec], store_dir: str
                     ) -> Dict[str, Dict[str, Any]]:
    """Solve every cell into a fresh store; return the wire report each
    cell must come back with, keyed by cell digest."""
    service = SweepService(store=SolutionStore(store_dir),
                           portfolio=Portfolio(executor="thread", max_workers=1))
    try:
        report = service.run(list(specs))
    finally:
        service.close()
    expected: Dict[str, Dict[str, Any]] = {}
    for result, spec in zip(report.results, specs):
        if result.report is None:
            raise RuntimeError(f"base build failed on {spec}: {result.error}")
        expected[spec.cell_digest()] = _normalised(
            report_to_payload(result.report, result.key))
    return expected


def check_wire_reply(lines: List[Dict[str, Any]], final: Dict[str, Any],
                     cells: int, expected: Dict[str, Dict[str, Any]],
                     outcome: Outcome) -> None:
    """Count one request's lines: every cell must be a store hit carrying
    the base build's report, and the request must end with ``done``."""
    outcome.attempted += cells
    if not final.get("done") or final.get("count") != cells:
        outcome.fail(f"request {final.get('id')}: ended with {final!r}", cells)
        return
    if len(lines) != cells:
        outcome.fail(f"request {final.get('id')}: {len(lines)} lines for "
                     f"{cells} cells", cells)
        return
    for line in lines:
        want = expected.get(line.get("cell"))
        if line.get("source") != "store" or line.get("error") is not None:
            outcome.fail(f"cell {line.get('cell')}: source {line.get('source')}"
                         f" error {line.get('error')}")
        elif want is None or line.get("report") != want or line.get("key") != want["key"]:
            outcome.fail(f"cell {line.get('cell')}: report differs from the base build")


def _serve_args(store_dir: str, socket_path: str) -> List[str]:
    return ["--executor", "thread", "--workers", "1", "--unix", socket_path,
            "--store", store_dir]


def run_warm_wire(ctx: Context) -> Outcome:
    outcome = Outcome()
    specs = warm_wire_specs(ctx.seed, ctx.tiny)
    rng = random.Random(f"{ctx.seed}/requests")
    # The socket path is relative to the checkout (server cwd and ours), so
    # it stays within the 107-byte unix socket limit wherever that lives.
    relative = os.path.relpath(ctx.workdir, ctx.root)
    # The server shares the benchmark's CPU.  In a closed loop only one of
    # the two runs at a time, so that CPU stays busy; with a CPU each, every
    # request idles a virtual CPU that the host must then wake again, and
    # on a busy host that wait alone made requests three times as slow.
    server_cpu = ctx.cpu
    warm_requests = [(f"w{i}", specs[i:i + REQUEST_CELLS])
                     for i in range(0, len(specs), REQUEST_CELLS)]
    timed_requests = []
    for index in range(4000):
        cells = rng.sample(specs, REQUEST_CELLS)
        timed_requests.append((f"t{index}", _request_line(f"t{index}", cells),
                               len(cells)))

    def start_server(name: str, store_dir: str, trace_out: Optional[str]):
        return ServerProcess(ctx.root, _serve_args(store_dir, os.path.join(
            relative, f"{name}.sock")), cpu=server_cpu, trace_out=trace_out,
            log_path=os.path.join(ctx.workdir, f"{name}.log"))

    def warm_up(server_name: str) -> LineClient:
        client = LineClient(os.path.join(relative, f"{server_name}.sock"))
        warm = Outcome()
        for request_id, cells in warm_requests:
            lines, final = client.request(_request_line(request_id, cells), request_id)
            check_wire_reply(lines, final, len(cells), expected, warm)
        if warm.failed:
            raise RuntimeError(f"warm-up answers are wrong: {warm.errors[:3]}")
        return client

    setups = 1 if (ctx.trace or ctx.tiny) else SETUPS
    setup_tracer = Tracer() if ctx.trace else None
    server = client = None
    store_dir = ""
    cursor = 0
    request_log: List[Tuple[str, float]] = []

    def one_request(active: LineClient, units: List[Tuple[float, int]]) -> None:
        nonlocal cursor
        request_id, line, cells = timed_requests[cursor % len(timed_requests)]
        cursor += 1
        start = time.perf_counter()
        lines, final = active.request(line, request_id)
        elapsed = time.perf_counter() - start
        units.append((elapsed, cells))
        outcome.latencies.append(elapsed)
        request_log.append((request_id, elapsed))
        check_wire_reply(lines, final, cells, expected, outcome)

    try:
        # Each set-up (fresh store, fresh server) is followed by its share
        # of the timed phase, so the timed requests spread over the whole
        # run instead of its last seconds: this host's speed switches
        # between two levels for tens of seconds at a time, and samples
        # spread wider average over more of those switches.
        for index in range(setups):
            if server is not None:
                client.close()
                server.stop()
                shutil.rmtree(store_dir)
            imported = fresh_import_seconds(ctx.root)
            start = time.perf_counter()
            clear_caches()
            store_dir = os.path.join(ctx.workdir, f"store{index}")
            if setup_tracer is not None:
                setup_tracer.install()
                try:
                    with setup_tracer.span("bench.base_build", tag="setup"):
                        expected = build_base_store(specs, store_dir)
                finally:
                    setup_tracer.remove()
            else:
                expected = build_base_store(specs, store_dir)
            server = start_server(f"server{index}", store_dir, None)
            client = warm_up(f"server{index}")
            outcome.setups.append(imported + time.perf_counter() - start)
            if not ctx.trace:
                gc.collect()
                _timed_loop(ctx.seconds / setups,
                            lambda: one_request(client, outcome.units),
                            outcome.speed)
                outcome.peak_rss_mb = max(outcome.peak_rss_mb, server.peak_rss_mb())
        if not ctx.trace:
            return outcome
        outcome.setup_spans = setup_tracer.records()
        outcome.setup_ops = len(specs)

        # Traced run: the untraced server measures the overhead baseline,
        # then a traced server over the same store measures the layers.
        gc.collect()
        _timed_loop(ctx.seconds / 2,
                    lambda: one_request(client, outcome.baseline_units))
        client.close()
        server.stop()
        trace_out = os.path.join(ctx.workdir, "server-spans.jsonl")
        server = start_server("traced", store_dir, trace_out)
        client = warm_up("traced")
        before = _metrics(client, "m0")
        outcome.latencies.clear()
        request_log.clear()
        gc.collect()
        _timed_loop(ctx.seconds / 2, lambda: one_request(client, outcome.units))
        after = _metrics(client, "m1")
        outcome.peak_rss_mb = server.peak_rss_mb()
        client.close()
        client = None
        server.stop()
        server = None
        # Only the timed requests' spans (warm-up and metrics are tagged
        # "w..." and "m...").
        outcome.spans = [span for span in read_jsonl(trace_out)
                         if str(span.get("tag") or "").startswith("t")]
        outcome.traced_ops = sum(cells for _, cells in outcome.units)
        _add(outcome.extra, _metric_counters(after))
        _add(outcome.extra, _metric_counters(before), -1)
        outcome.extra["serve.residual_ms"] = _residual_ms(outcome.spans,
                                                          request_log)
        return outcome
    finally:
        if client is not None:
            client.close()
        if server is not None:
            server.stop()


def _metrics(client: LineClient, request_id: str) -> Dict[str, Any]:
    _lines, final = client.request(
        (json.dumps({"op": "metrics", "id": request_id}) + "\n").encode(),
        request_id)
    return final["metrics"]


def _metric_counters(metrics: Dict[str, Any]) -> Dict[str, float]:
    kernels = metrics["kernels"]
    return {"structure.probe_runs": kernels["structure"]["probe_runs"],
            "lp.skeleton_builds": kernels["lp"]["skeleton_builds"],
            "lp.simplex_iterations": kernels["lp"]["simplex_iterations"],
            "async.store_hits": metrics["service"]["store_hits"],
            "async.computed": metrics["service"]["computed"]}


def _residual_ms(spans: List[dict], request_log: List[Tuple[str, float]]) -> float:
    """Client latency minus the server's ``serve.request`` span, summed
    over the timed requests (ms)."""
    served = {span["tag"]: (span["end_ns"] - span["start_ns"]) / 1e6
              for span in spans if span["name"] == "serve.request"}
    return sum(latency * 1000 - served.get(request_id, latency * 1000)
               for request_id, latency in request_log)


# ---------------------------------------------------------------------------
# shared timed phase
# ---------------------------------------------------------------------------

def _measure(ctx: Context, outcome: Outcome,
             unit: Callable[[List[Tuple[float, int]], Optional[Tracer]], None]) -> None:
    """Run the timed phase: ``unit`` until ``seconds`` have passed.

    A traced run alternates an untraced unit (the overhead baseline) with
    a traced one, so slow drift in the machine hits both alike.
    """
    if not ctx.trace:
        _timed_loop(ctx.seconds, lambda: unit(outcome.units, None),
                    outcome.speed)
        return
    tracer = Tracer()

    def pair() -> None:
        unit(outcome.baseline_units, None)
        tracer.install()
        try:
            unit(outcome.units, tracer)
        finally:
            tracer.remove()

    _timed_loop(ctx.seconds, pair)
    outcome.spans = within_roots(tracer.records())
    outcome.traced_ops = sum(ops for _, ops in outcome.units)


def _self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


WORKLOADS: Dict[str, Callable[[Context], Outcome]] = {
    "cold-compute": run_cold_compute,
    "warm-wire": run_warm_wire,
}
