"""The unified solver engine: registry, auto-dispatch, two-tier caching,
parallel portfolios and the batched sweep service.

The engine is the single entry point to every solver family of the
reproduction (exact enumeration, the series-parallel DP, the LP bi-criteria
pipeline, the k-way / recursive-binary single-criteria approximations and
the greedy baselines):

>>> import repro
>>> dag = repro.TradeoffDAG()
>>> _ = dag.add_job("s"); _ = dag.add_job("x", repro.RecursiveBinarySplitDuration(32))
>>> _ = dag.add_job("t"); dag.add_edge("s", "x"); dag.add_edge("x", "t")
>>> report = repro.solve(dag=dag, budget=12)               # auto-dispatch
>>> report.makespan <= 32
True
>>> repro.solve(dag=dag, budget=12, method="bicriteria-lp", alpha=0.75)  # doctest: +SKIP

Layers (each its own module; see ``docs/architecture.md`` for the diagram):

* :mod:`~repro.engine.fingerprint` -- content hashes of DAGs/problems/requests
  (cache keys) and the stable JSON serialization of solutions;
* :mod:`~repro.engine.structure`   -- one-shot structure probe with memoized
  activity-on-arc transforms;
* :mod:`~repro.engine.registry`    -- :class:`SolverSpec` capability records and
  the ``@register_solver`` decorator;
* :mod:`~repro.engine.solvers`     -- registration of the five solver families;
* :mod:`~repro.engine.certify`     -- independent certificate checks on solutions;
* :mod:`~repro.engine.core`        -- :func:`solve`, :class:`SolveReport`,
  :class:`SolveLimits` and the two-tier solution cache (LRU + store);
* :mod:`~repro.engine.store`       -- the persistent on-disk
  :class:`SolutionStore` (tier 2, packed record shards);
* :mod:`~repro.engine.batch`       -- batched solve kernels: cached
  :class:`~repro.core.lp.LPModelSkeleton` per arc-DAG fingerprint and the
  :func:`~repro.engine.batch.solve_lp_batch` shard entry point;
* :mod:`~repro.engine.portfolio`   -- :class:`Portfolio` for racing solvers and
  sweeping scenarios concurrently (shard-aware ``map``);
* :mod:`~repro.engine.service`     -- :class:`SweepService`: deduplicated,
  store-backed, resumable batch sweeps with streaming results.
"""

from repro.engine.certify import Certificate, certify_solution
from repro.engine.core import (
    SolveLimits,
    SolveReport,
    cached_solution,
    clear_caches,
    exact_reference,
    get_solution_store,
    normalize_problem,
    request_key,
    set_solution_store,
    solution_cache_info,
    solve,
    warm_solution_cache,
)
from repro.engine.fingerprint import (
    UnserializableSolutionError,
    cached_spec_fingerprint,
    dag_fingerprint,
    problem_fingerprint,
    request_fingerprint,
    solution_from_payload,
    solution_to_payload,
    spec_alias_key,
    spec_fingerprint,
)
from repro.engine.store import STORE_SCHEMA_VERSION, SolutionStore, atomic_write_json
from repro.engine.registry import (
    MIN_MAKESPAN,
    MIN_RESOURCE,
    NoSolverError,
    SolverSpec,
    candidate_solvers,
    get_solver,
    register_solver,
    select_solver,
    solver_ids,
    solver_specs,
    unregister_solver,
)
from repro.engine.structure import ProblemStructure, analyze_dag, structure_cache_info

# Importing the module registers every built-in solver family.
import repro.engine.solvers  # noqa: F401  (side-effect import)

from repro.engine.batch import (
    CACHED_LP_BACKEND,
    batch_kernel_info,
    get_lp_skeleton,
    solve_lp_batch,
)

from repro.engine.plan import (
    PlannedCell,
    SweepPlan,
    build_sweep_plan,
    recommend_shard_size,
)
from repro.engine.portfolio import Portfolio, PortfolioReport
from repro.engine.service import SweepReport, SweepResult, SweepService, SweepStats
from repro.engine.async_service import AsyncSweepService, AsyncSweepStats, SubmitTicket

__all__ = [
    # entry points
    "solve", "exact_reference", "normalize_problem",
    "SolveReport", "SolveLimits",
    # registry
    "SolverSpec", "register_solver", "unregister_solver", "get_solver",
    "solver_ids", "solver_specs",
    "candidate_solvers", "select_solver", "NoSolverError",
    "MIN_MAKESPAN", "MIN_RESOURCE",
    # structure + fingerprints + serialization
    "ProblemStructure", "analyze_dag", "dag_fingerprint", "problem_fingerprint",
    "request_fingerprint", "request_key",
    "spec_fingerprint", "cached_spec_fingerprint", "spec_alias_key",
    "solution_to_payload", "solution_from_payload", "UnserializableSolutionError",
    # certificates
    "Certificate", "certify_solution",
    # planning tier
    "PlannedCell", "SweepPlan", "build_sweep_plan", "recommend_shard_size",
    # portfolio + sweep service (sync and async fronts)
    "Portfolio", "PortfolioReport",
    "SweepService", "SweepReport", "SweepResult", "SweepStats",
    "AsyncSweepService", "AsyncSweepStats", "SubmitTicket",
    # caches (two tiers)
    "clear_caches", "solution_cache_info", "structure_cache_info",
    "SolutionStore", "STORE_SCHEMA_VERSION", "atomic_write_json",
    "set_solution_store", "get_solution_store",
    "cached_solution", "warm_solution_cache",
]
