"""E18 -- batched LP kernels: shared model skeletons vs per-scenario rebuild.

The serving stack funnels scenario sweeps into shards whose scenarios share
one DAG and differ only in the budget.  Before the batched kernel layer,
every scenario rebuilt the LP from scratch -- relaxed arcs, index maps,
sparse constraint matrices, bounds, cost vectors -- even though only the
budget row's RHS differs.  This benchmark measures the elimination on a
same-DAG budget sweep through the bi-criteria LP pipeline:

* **per-scenario rebuild** -- the historical path: a fresh
  :class:`~repro.core.lp.LPModelSkeleton` per scenario (N builds, N solves);
* **shard-batched skeletons** -- :func:`repro.engine.batch.solve_lp_batch`
  with the engine's cached-skeleton backend: the shard groups by DAG
  fingerprint, probes the structure once, builds ONE skeleton and drives it
  across every budget (1 build, N solves).

The gate is **machine-independent**: the kernel work counters
(:func:`~repro.core.lp.lp_kernel_counters`,
:func:`repro.engine.batch.batch_kernel_info`) must show exactly one
skeleton build and one structure probe for the batched sweep, an N-build
rebuild sweep, a >= 3x build-elimination ratio, bit-identical makespans
between the two paths, and no LP solve falling back to ``linprog`` (a
SciPy whose private HiGHS wrapper moved fails here instead of silently
losing the direct call).  Wall-clock speedup is reported for humans but
never gated on.

Run standalone:  python benchmarks/bench_batched_lp.py [--quick] [--json PATH]
"""

from __future__ import annotations

import sys
import time

from repro import MinMakespanProblem, clear_caches, solve_lp_batch
from repro.analysis import format_table
from repro.core.bicriteria import solve_min_makespan_bicriteria
from repro.core.lp import lp_kernel_counters
from repro.engine.batch import batch_kernel_info
from repro.engine.structure import analyze_dag
from repro.generators import get_workload

from bench_common import emit, parse_json_flag, write_json_artifact

WORKLOAD = "medium-layered-general"
BUDGET_FACTORS = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0, 5.0]
QUICK_FACTORS = BUDGET_FACTORS[:6]
ALPHA = 0.5


def build_sweep(factors):
    workload = get_workload(WORKLOAD)
    dag = workload.build()
    budgets = [workload.budget * factor for factor in factors]
    return dag, budgets


def run_rebuild(dag, budgets):
    """The historical per-scenario path: one fresh LP model per budget.

    Transforms are precomputed once (the pre-batching engine already
    memoized those); only the LP model construction is per scenario --
    exactly what the skeleton layer eliminates.
    """
    clear_caches()
    structure = analyze_dag(dag)
    transforms = (structure.arc_form()[0], structure.arc_form()[1],
                  structure.expansion())
    start = time.perf_counter()
    solutions = [solve_min_makespan_bicriteria(structure.dag, budget, ALPHA,
                                               transforms=transforms)
                 for budget in budgets]
    wall = time.perf_counter() - start
    return solutions, lp_kernel_counters(), wall


def run_batched(dag, budgets):
    """The shard path: group by fingerprint, one skeleton, N RHS swaps."""
    clear_caches()
    problems = [MinMakespanProblem(dag, budget) for budget in budgets]
    start = time.perf_counter()
    results = solve_lp_batch(problems, method="bicriteria-lp",
                             options={"alpha": ALPHA})
    wall = time.perf_counter() - start
    assert all(error is None for _report, error in results), results
    reports = [report for report, _error in results]
    return reports, batch_kernel_info(), wall


def run_comparison(factors):
    dag, budgets = build_sweep(factors)
    rebuild_solutions, rebuild_counters, t_rebuild = run_rebuild(dag, budgets)
    batched_reports, batched_info, t_batched = run_batched(dag, budgets)

    identical = all(
        report.makespan == solution.makespan
        and report.budget_used == solution.budget_used
        for report, solution in zip(batched_reports, rebuild_solutions))

    lp = batched_info["lp"]
    structure = batched_info["structure"]
    # Every scenario after a group's first is served a prebuilt skeleton,
    # via the identity fast path or the content-fingerprint LRU.
    skeleton_cache_hits = (batched_info["skeleton_identity"]["hits"]
                           + batched_info["skeletons"]["hits"])
    return {
        "scenarios": len(budgets),
        "rebuild_skeleton_builds": rebuild_counters["skeleton_builds"],
        "rebuild_skeleton_solves": rebuild_counters["skeleton_solves"],
        "batched_skeleton_builds": lp["skeleton_builds"],
        "batched_skeleton_solves": lp["skeleton_solves"],
        "batched_skeleton_cache_hits": skeleton_cache_hits,
        "batched_probe_runs": structure["probe_runs"],
        "identity_hits": structure["identity_hits"],
        "work_elimination": (rebuild_counters["skeleton_builds"]
                             / max(lp["skeleton_builds"], 1)),
        "linprog_fallbacks": (rebuild_counters["linprog_fallbacks"]
                              + lp["linprog_fallbacks"]),
        "identical": identical,
        "t_rebuild_s": t_rebuild,
        "t_batched_s": t_batched,
    }


#: The machine-independent acceptance conditions, shared by the standalone
#: gate and the pytest entry point so the two can never diverge.
GATE_CONDITIONS = [
    ("skeleton path matches the scalar path bit for bit",
     lambda s: s["identical"]),
    ("batched sweep builds exactly one skeleton",
     lambda s: s["batched_skeleton_builds"] == 1),
    ("batched sweep runs one LP solve per scenario",
     lambda s: s["batched_skeleton_solves"] == s["scenarios"]),
    ("every scenario after the first is served a cached skeleton",
     lambda s: s["batched_skeleton_cache_hits"] == s["scenarios"] - 1),
    ("rebuild path builds one model per scenario",
     lambda s: s["rebuild_skeleton_builds"] == s["scenarios"]),
    ("batched sweep probes the shared DAG exactly once",
     lambda s: s["batched_probe_runs"] == 1),
    ("model-build elimination is at least 3x",
     lambda s: s["work_elimination"] >= 3.0),
    ("every LP solve calls HiGHS directly, none falls back to linprog",
     lambda s: s["linprog_fallbacks"] == 0),
]


def gate(stats) -> bool:
    """The machine-independent acceptance predicate (counters only)."""
    return all(condition(stats) for _label, condition in GATE_CONDITIONS)


def render(stats) -> str:
    n = stats["scenarios"]
    rows = [
        ["per-scenario rebuild", str(stats["rebuild_skeleton_builds"]),
         str(stats["rebuild_skeleton_solves"]),
         f"{stats['t_rebuild_s'] * 1000:.0f}", "1.00"],
        ["shard-batched skeleton", str(stats["batched_skeleton_builds"]),
         str(stats["batched_skeleton_solves"]),
         f"{stats['t_batched_s'] * 1000:.0f}",
         f"{stats['t_rebuild_s'] / max(stats['t_batched_s'], 1e-9):.2f}"],
    ]
    header = (f"{n}-budget sweep over one '{WORKLOAD}' DAG "
              f"(identical makespans: {stats['identical']}); "
              f"model-build elimination: {stats['work_elimination']:.0f}x, "
              f"structure probes in the batched sweep: "
              f"{stats['batched_probe_runs']}")
    return header + "\n\n" + format_table(
        ["strategy", "model builds", "LP solves", "wall time (ms)",
         "speedup vs rebuild"], rows)


# ---------------------------------------------------------------------------
# pytest entry points (run in CI with --benchmark-disable)
# ---------------------------------------------------------------------------

def test_batched_skeletons_eliminate_model_rebuilds(benchmark):
    stats = run_comparison(QUICK_FACTORS)
    emit("E18 / batched LP kernels -- shared skeletons vs per-scenario rebuild",
         render(stats))
    for label, condition in GATE_CONDITIONS:
        assert condition(stats), f"{label} (stats: {stats})"

    dag, budgets = build_sweep(QUICK_FACTORS)
    problems = [MinMakespanProblem(dag, budget) for budget in budgets]

    def batched_sweep():
        clear_caches()
        return solve_lp_batch(problems, method="bicriteria-lp",
                              options={"alpha": ALPHA})

    benchmark(batched_sweep)


# ---------------------------------------------------------------------------
# standalone mode
# ---------------------------------------------------------------------------

def main(argv) -> int:
    quick = "--quick" in argv
    json_path = parse_json_flag(
        argv, "bench_batched_lp.py [--quick] [--json PATH]")

    factors = QUICK_FACTORS if quick else BUDGET_FACTORS
    stats = run_comparison(factors)
    print(render(stats))
    ok = gate(stats)
    print(f"\nshard-batched skeletons beat per-scenario rebuild on "
          f"work counters (>=3x build elimination, 1 probe, identical "
          f"results, {stats['linprog_fallbacks']} linprog fallbacks): {ok}")

    if json_path:
        write_json_artifact(json_path, {
            "benchmark": "bench_batched_lp",
            "quick": quick,
            "scenarios": stats["scenarios"],
            "rebuild_skeleton_builds": stats["rebuild_skeleton_builds"],
            "rebuild_skeleton_solves": stats["rebuild_skeleton_solves"],
            "batched_skeleton_builds": stats["batched_skeleton_builds"],
            "batched_skeleton_solves": stats["batched_skeleton_solves"],
            "batched_skeleton_cache_hits": stats["batched_skeleton_cache_hits"],
            "batched_probe_runs": stats["batched_probe_runs"],
            "work_elimination": stats["work_elimination"],
            "linprog_fallbacks": stats["linprog_fallbacks"],
            "identical": stats["identical"],
            "t_rebuild_s": stats["t_rebuild_s"],
            "t_batched_s": stats["t_batched_s"],
            "ok": ok,
        })
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
