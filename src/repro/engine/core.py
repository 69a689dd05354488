"""The unified solve entry point: normalize, probe, dispatch, certify, cache.

``repro.solve`` is the single front door to every solver family of the
reproduction::

    from repro import MinMakespanProblem, solve
    report = solve(MinMakespanProblem(dag, budget=12))          # auto-dispatch
    report = solve(dag=dag, budget=12, method="bicriteria-lp")  # named solver
    report = solve(dag=tree, target_makespan=90)                # SP tree input

The pipeline is:

1. **normalize** -- accept a :class:`~repro.core.problem.MinMakespanProblem`
   / :class:`~repro.core.problem.MinResourceProblem`, or raw
   ``dag``/``budget``/``target_makespan`` keywords where ``dag`` may also be
   a series-parallel decomposition tree (:class:`~repro.core.series_parallel.SPNode`);
   terminals are made unique once, up front;
2. **probe** -- structure detection (memoized by DAG fingerprint,
   :mod:`repro.engine.structure`);
3. **dispatch** -- pick a solver from the registry
   (:mod:`repro.engine.registry`): ``method="auto"`` selects the best
   capable candidate, a solver id invokes that solver directly;
4. **certify** -- re-derive the solution's claims independently
   (:mod:`repro.engine.certify`);
5. **cache** -- the :class:`SolveReport` is cached in **two tiers** keyed on
   the :func:`~repro.engine.fingerprint.request_fingerprint` of
   ``(problem fingerprint, method, limits, options, validate)``: an
   in-process LRU (tier 1) and, when installed with
   :func:`set_solution_store`, a persistent on-disk
   :class:`~repro.engine.store.SolutionStore` (tier 2) that survives the
   process and is shared across sweeps.  See ``docs/caching.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Dict, Iterable, Optional, Tuple, Union

from repro.core.dag import TradeoffDAG
from repro.core.problem import MinMakespanProblem, MinResourceProblem, TradeoffSolution
from repro.core.series_parallel import SPNode
from repro.engine.cache import LRUCache
from repro.engine.certify import Certificate, certify_solution
from repro.engine.fingerprint import problem_fingerprint, request_fingerprint
from repro.engine.registry import (
    MIN_MAKESPAN,
    MIN_RESOURCE,
    SolverSpec,
    get_solver,
    select_solver,
)
from repro.engine.store import SolutionStore
from repro.engine.structure import analyze_dag, clear_structure_cache
from repro.utils.validation import ValidationError, require

__all__ = [
    "SolveLimits",
    "SolveReport",
    "solve",
    "normalize_problem",
    "exact_reference",
    "request_key",
    "clear_caches",
    "solution_cache_info",
    "set_solution_store",
    "get_solution_store",
    "cached_solution",
    "warm_solution_cache",
    "solution_cache_capacity",
]

Problem = Union[MinMakespanProblem, MinResourceProblem]


@dataclass(frozen=True)
class SolveLimits:
    """Resource limits steering dispatch and the exact solvers.

    Attributes
    ----------
    max_exact_combinations:
        Auto-dispatch only picks exhaustive enumeration when the instance's
        breakpoint-combination count is at most this.
    max_sp_budget:
        Auto-dispatch only picks the series-parallel DP when the (integral)
        budget is at most this (its table is ``O(m * budget)``).
    exact_node_limit:
        Node cap forwarded to the branch-and-bound arc solvers.
    time_limit:
        Soft wall-clock budget in seconds.  Python solvers cannot be
        preempted mid-run; the limit bounds the *portfolio* runner's wait
        and shrinks ``max_exact_combinations`` during auto-dispatch.
    """

    max_exact_combinations: int = 20_000
    max_sp_budget: int = 4096
    exact_node_limit: int = 2_000_000
    time_limit: Optional[float] = None

    def effective_exact_combinations(self) -> int:
        """Combination cap after applying a tight ``time_limit`` (heuristic)."""
        if self.time_limit is not None and self.time_limit < 1.0:
            return min(self.max_exact_combinations, 2_000)
        return self.max_exact_combinations

    def cache_key(self) -> Tuple:
        return (self.max_exact_combinations, self.max_sp_budget,
                self.exact_node_limit, self.time_limit)

    @cached_property
    def key_repr(self) -> str:
        """``repr(self.cache_key())``, formatted once: the limits are frozen."""
        return repr(self.cache_key())


@dataclass
class SolveReport:
    """The engine's uniform answer record.

    Wraps the produced :class:`~repro.core.problem.TradeoffSolution` with
    the dispatch decision, wall time, the independent certificate and the
    structure summary -- everything a benchmark or analysis script needs
    without re-deriving it.
    """

    solution: TradeoffSolution
    solver_id: str
    method: str
    objective: str
    wall_time: float
    problem_fingerprint: str
    structure: Dict[str, Any] = field(default_factory=dict)
    certificate: Optional[Certificate] = None
    from_cache: bool = False
    #: The problem's budget (min-makespan) or target makespan (min-resource).
    parameter: Optional[float] = None
    #: Which cache tier served the report: ``"memory"`` (LRU), ``"store"``
    #: (persistent store) or ``""`` for a fresh computation.
    cache_tier: str = ""

    @property
    def makespan(self) -> float:
        return self.solution.makespan

    @property
    def budget_used(self) -> float:
        return self.solution.budget_used

    @property
    def allocation(self) -> Dict:
        return self.solution.allocation

    @property
    def lower_bound(self) -> Optional[float]:
        return self.solution.lower_bound

    @property
    def feasible(self) -> bool:
        """Does the solution respect the problem's budget / target?

        Taken from the certificate when one was produced; with
        ``validate=False`` it is recomputed from the recorded problem
        parameter so skipping validation never misreports a
        budget-violating solution as feasible.
        """
        if self.certificate is not None:
            return bool(self.certificate.feasible)
        if self.parameter is None:
            return True
        tol = 1e-6 * max(1.0, self.parameter)
        if self.objective == MIN_RESOURCE:
            return self.makespan <= self.parameter + tol
        return self.budget_used <= self.parameter + tol

    def summary(self) -> str:
        """One-line human-readable description (used by examples)."""
        cert = ""
        if self.certificate is not None:
            cert = f", certified={self.certificate.passed}, feasible={self.certificate.feasible}"
        cached = f", cached[{self.cache_tier or 'memory'}]" if self.from_cache else ""
        return (f"[{self.solver_id}] makespan={self.makespan:.3f}, "
                f"budget_used={self.budget_used:.3f}, "
                f"wall_time={self.wall_time * 1000:.1f}ms{cert}{cached}")


_SOLUTION_CACHE = LRUCache(maxsize=512)

#: Tier-2 persistent store; ``None`` until installed via :func:`set_solution_store`.
_SOLUTION_STORE: Optional[SolutionStore] = None


def set_solution_store(store: Union[SolutionStore, str, None]) -> Optional[SolutionStore]:
    """Install (or remove) the persistent tier-2 solution store.

    ``store`` may be a ready :class:`~repro.engine.store.SolutionStore`, a
    directory path (a store is opened there) or ``None`` to disable the
    tier.  Returns the installed store.  ``solve()`` consults it on every
    LRU miss and persists every fresh cacheable result; see
    ``docs/caching.md`` for the invalidation story.
    """
    global _SOLUTION_STORE
    if isinstance(store, str):
        store = SolutionStore(store)
    require(store is None or isinstance(store, SolutionStore),
            f"store must be a SolutionStore, path or None, got {type(store).__name__}")
    _SOLUTION_STORE = store
    return store


def get_solution_store() -> Optional[SolutionStore]:
    """The currently installed tier-2 store (``None`` when disabled)."""
    return _SOLUTION_STORE


def cached_solution(cache_key: str, tag: Optional[str] = None) -> Optional[SolveReport]:
    """The tier-1 LRU entry for ``cache_key``, as a cache-hit report.

    Returns ``None`` on a miss; a hit comes back defensively copied with
    ``from_cache=True`` / ``cache_tier="memory"``, exactly like the LRU
    branch of :func:`solve`.  With ``tag`` only an entry that
    :func:`warm_solution_cache` installed under that tag counts: the read
    half of the elastic-resize prewarm tier, which the sweep planner
    (:func:`~repro.engine.plan.build_sweep_plan`) consults before any
    store probe.  The mark lives on the LRU entry itself, so the prewarm
    state is bounded by the LRU.
    """
    if tag is not None:
        # Only a marked entry is a lookup: other probes leave the LRU's
        # recency and hit/miss counters alone.
        marked = _SOLUTION_CACHE.peek(cache_key)
        if marked is None or marked.cache_tier != tag:
            return None
    cached = _SOLUTION_CACHE.get(cache_key)
    if cached is None:
        return None
    return _clone_report(cached, from_cache=True, cache_tier="memory")


def warm_solution_cache(items: Iterable[Tuple[str, SolveReport]],
                        tag: str = "") -> int:
    """Bulk-load ``(cache_key, report)`` pairs into the tier-1 LRU.

    The write half of resize prewarming: a joining runner streams its
    acquired key range out of the store (:meth:`SolutionStore.scan_routed
    <repro.engine.store.SolutionStore.scan_routed>`) and installs the
    decoded reports here so its first post-join sweep hits warm memory.
    Entries already cached are not replaced; each installed report is
    defensively copied the same way :func:`solve` stores its own results.
    With ``tag``, every given key's entry is marked for
    ``cached_solution(key, tag)``.  Returns the number of entries actually
    installed.
    """
    count = 0
    for key, report in items:
        cached = _SOLUTION_CACHE.get(key)
        if cached is None:
            cached = _clone_report(report, from_cache=False)
            _SOLUTION_CACHE.put(key, cached)
            count += 1
        if tag:
            cached.cache_tier = tag
    return count


def solution_cache_capacity() -> int:
    """How many reports the tier-1 LRU holds (a bulk warm-up that installs
    more evicts its own first installs)."""
    return _SOLUTION_CACHE.maxsize


def normalize_problem(problem: Optional[Problem] = None, *,
                      dag: Union[TradeoffDAG, SPNode, None] = None,
                      budget: Optional[float] = None,
                      target_makespan: Optional[float] = None) -> Problem:
    """Normalize the accepted input forms into a problem dataclass.

    Exactly one of ``problem`` or ``dag`` must be given.  With ``dag``,
    exactly one of ``budget`` (min-makespan) or ``target_makespan``
    (min-resource) selects the objective; an :class:`SPNode` decomposition
    tree is accepted in place of a DAG and converted via
    :meth:`~repro.core.series_parallel.SPNode.to_dag`.
    """
    if problem is not None:
        require(dag is None and budget is None and target_makespan is None,
                "pass either a problem object or dag/budget/target_makespan keywords, not both")
        require(isinstance(problem, (MinMakespanProblem, MinResourceProblem)),
                f"unsupported problem type {type(problem).__name__}")
        return problem
    require(dag is not None, "solve() needs a problem object or a dag= keyword")
    if isinstance(dag, SPNode):
        dag = dag.to_dag()
    require(isinstance(dag, TradeoffDAG),
            f"dag must be a TradeoffDAG or SPNode, got {type(dag).__name__}")
    require((budget is None) != (target_makespan is None),
            "pass exactly one of budget= (min-makespan) or target_makespan= (min-resource)")
    if budget is not None:
        return MinMakespanProblem(dag, budget)
    return MinResourceProblem(dag, target_makespan)


def _objective_of(problem: Problem) -> str:
    return MIN_MAKESPAN if isinstance(problem, MinMakespanProblem) else MIN_RESOURCE


def _parameter_of(problem: Problem) -> float:
    return problem.budget if isinstance(problem, MinMakespanProblem) else problem.target_makespan


def _plain_option(value: Any) -> bool:
    """Is ``value`` a literal whose ``repr`` is stable and value-defining?

    Cache keys are content hashes over ``repr(options)``; arbitrary
    objects have reprs that either omit state (``Config()``) or embed a
    reusable memory address, both of which could alias distinct requests.
    Only literals (and flat containers of literals) are key-safe.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return True
    if isinstance(value, (tuple, list)):
        return all(_plain_option(v) for v in value)
    return False


def _options_key(options: Dict[str, Any]) -> Tuple:
    if all(_plain_option(v) for v in options.values()):
        return tuple(sorted(options.items()))
    # Non-literal option values disable caching for this call entirely
    # (see `storable` in solve()): an id-based key could falsely hit
    # after the address is recycled, so no key is safe.
    return ("__uncacheable__",)


def _clone_report(report: SolveReport, from_cache: bool,
                  cache_tier: str = "") -> SolveReport:
    """A defensively-copied report, so cache entries stay immutable.

    Callers may edit ``report.allocation`` or metadata in place (some
    solvers do exactly that internally); both the stored entry and every
    cache hit get their own copies of the mutable containers.
    """
    solution = report.solution
    solution_copy = TradeoffSolution(
        makespan=solution.makespan,
        budget_used=solution.budget_used,
        allocation=dict(solution.allocation),
        algorithm=solution.algorithm,
        lower_bound=solution.lower_bound,
        resource_lower_bound=solution.resource_lower_bound,
        metadata=dict(solution.metadata),
    )
    certificate = report.certificate
    if certificate is not None:
        certificate = replace(certificate, checks=dict(certificate.checks),
                              notes=dict(certificate.notes))
    return replace(report, solution=solution_copy, structure=dict(report.structure),
                   certificate=certificate, from_cache=from_cache,
                   cache_tier=cache_tier if from_cache else "")


def _resolve_request(problem: Problem, method: str, limits: SolveLimits,
                     validate: bool, options: Dict[str, Any]):
    """Resolve one solve request into its dispatch decision and cache key.

    The single place where dispatch (including auto-mode option-hint
    filtering) and cache-key derivation happen, shared by :func:`solve`
    and :func:`request_key` so the two can never disagree on a key.

    Returns ``(problem, structure, spec, options, digest, cache_key,
    storable)`` where ``problem`` is rebuilt on the normalized DAG and
    ``options`` are the ones actually forwarded to the solver.
    """
    structure = analyze_dag(problem.dag)
    # Solvers and certificates run on the normalized DAG so virtual-terminal
    # allocations always resolve.
    if structure.dag is not problem.dag:
        problem = (MinMakespanProblem(structure.dag, problem.budget)
                   if isinstance(problem, MinMakespanProblem)
                   else MinResourceProblem(structure.dag, problem.target_makespan))

    objective = _objective_of(problem)
    if method == "auto":
        spec: SolverSpec = select_solver(problem, structure, limits, objective)
        # Under auto-dispatch, options are hints: only the ones the chosen
        # solver understands are forwarded (alpha= is meaningless to the DP).
        options = spec.supported_options(options)
    else:
        spec = get_solver(method)
        require(objective in spec.objectives,
                f"solver {spec.solver_id!r} does not support {objective}")
        unknown = set(options) - set(spec.option_names)
        require(not unknown,
                f"solver {spec.solver_id!r} does not accept options {sorted(unknown)}; "
                f"supported: {sorted(spec.option_names)}")

    digest = problem_fingerprint(structure.dag, objective, _parameter_of(problem),
                                 dag_digest=structure.fingerprint)
    options_key = _options_key(options)
    # Non-literal option values make the request unkeyable by content;
    # callers skip both cache tiers for such requests (a stale or aliased
    # key would return the wrong report).
    storable = not (options_key and options_key[0] == "__uncacheable__")
    cache_key = request_fingerprint(digest, method, limits.cache_key(),
                                    options_key, validate)
    return problem, structure, spec, options, digest, cache_key, storable


def solve(problem: Optional[Problem] = None, method: str = "auto", *,
          dag: Union[TradeoffDAG, SPNode, None] = None,
          budget: Optional[float] = None,
          target_makespan: Optional[float] = None,
          limits: Optional[SolveLimits] = None,
          time_limit: Optional[float] = None,
          use_cache: bool = True,
          validate: bool = True,
          **options: Any) -> SolveReport:
    """Solve a tradeoff problem through the engine (see module docstring).

    Parameters
    ----------
    problem:
        A :class:`MinMakespanProblem` or :class:`MinResourceProblem`
        (alternatively pass ``dag=`` plus ``budget=`` / ``target_makespan=``).
    method:
        ``"auto"`` (capability-based dispatch) or a registered solver id
        from :func:`repro.engine.registry.solver_ids`.
    limits, time_limit:
        Dispatch limits; ``time_limit`` is shorthand for
        ``replace(limits, time_limit=...)``.
    use_cache:
        Reuse (and populate) the LRU solution cache keyed on the problem
        fingerprint.
    validate:
        Run the independent certificate checks on the solution.
    options:
        Solver-specific keyword options (e.g. ``alpha=0.75`` for the
        LP-rounding pipelines).  With an explicit ``method`` unknown
        options raise; under ``method="auto"`` they are treated as hints
        and silently dropped when the dispatched solver does not declare
        them (see :attr:`~repro.engine.registry.SolverSpec.option_names`).

    Returns
    -------
    SolveReport
    """
    problem = normalize_problem(problem, dag=dag, budget=budget,
                                target_makespan=target_makespan)
    limits = limits if limits is not None else SolveLimits()
    if time_limit is not None:
        limits = replace(limits, time_limit=time_limit)

    (problem, structure, spec, options, digest,
     cache_key, storable) = _resolve_request(problem, method, limits,
                                             validate, options)
    objective = _objective_of(problem)
    use_cache = use_cache and storable
    store = _SOLUTION_STORE
    if use_cache:
        cached = _SOLUTION_CACHE.get(cache_key)
        if cached is not None:
            return _clone_report(cached, from_cache=True, cache_tier="memory")
        if store is not None:
            stored = store.get_report(cache_key)
            if stored is not None:
                _SOLUTION_CACHE.put(cache_key, _clone_report(stored, from_cache=False))
                return _clone_report(stored, from_cache=True, cache_tier="store")

    start = time.perf_counter()
    solution = spec.run(problem, structure, limits, **options)
    wall_time = time.perf_counter() - start

    certificate = certify_solution(problem, solution, structure.dag) if validate else None
    report = SolveReport(
        solution=solution,
        solver_id=spec.solver_id,
        method=method,
        objective=objective,
        wall_time=wall_time,
        problem_fingerprint=digest,
        structure=structure.summary(),
        certificate=certificate,
        parameter=_parameter_of(problem),
    )
    if use_cache:
        _SOLUTION_CACHE.put(cache_key, _clone_report(report, from_cache=False))
        if store is not None:
            store.put_report(cache_key, report)
    return report


def exact_reference(problem: Optional[Problem] = None, *,
                    dag: Union[TradeoffDAG, SPNode, None] = None,
                    budget: Optional[float] = None,
                    target_makespan: Optional[float] = None,
                    limits: Optional[SolveLimits] = None) -> Optional[SolveReport]:
    """Solve with an *exact* solver if any can handle the instance.

    Benchmarks measure true approximation ratios only where an exact
    optimum is computable; this helper returns the exact
    :class:`SolveReport` or ``None`` when every exact solver's
    precondition fails (instance too large, not series-parallel, ...).
    """
    from repro.core.exact import ExactSearchLimit
    from repro.engine.registry import candidate_solvers

    problem = normalize_problem(problem, dag=dag, budget=budget,
                                target_makespan=target_makespan)
    limits = limits if limits is not None else SolveLimits()
    structure = analyze_dag(problem.dag)
    objective = _objective_of(problem)
    for spec in candidate_solvers(problem, structure, limits, objective):
        if spec.kind != "exact":
            continue
        try:
            return solve(problem, method=spec.solver_id, limits=limits)
        except (ExactSearchLimit, ValidationError):
            continue
    return None


def request_key(problem: Optional[Problem] = None, method: str = "auto", *,
                dag: Union[TradeoffDAG, SPNode, None] = None,
                budget: Optional[float] = None,
                target_makespan: Optional[float] = None,
                limits: Optional[SolveLimits] = None,
                validate: bool = True,
                **options: Any) -> str:
    """The two-tier cache key :func:`solve` would use for this request.

    Lets batching layers (the sweep service) deduplicate scenarios and
    consult the persistent store without going through ``solve()`` itself.
    Accepts the same problem forms as :func:`solve` and shares its
    dispatch logic (:func:`_resolve_request`), so the key matches
    ``solve()``'s exactly -- including auto-mode option-hint filtering.

    Raises :class:`~repro.utils.validation.ValidationError` for requests
    with non-literal option values: those are exactly the requests
    ``solve()`` refuses to cache (their content cannot be keyed), so no
    valid key exists and pretending otherwise would alias distinct
    requests.
    """
    problem = normalize_problem(problem, dag=dag, budget=budget,
                                target_makespan=target_makespan)
    limits = limits if limits is not None else SolveLimits()
    _, _, _, _, _, cache_key, storable = _resolve_request(
        problem, method, limits, validate, options)
    require(storable,
            "request_key() needs content-keyable options; pass only literal "
            "option values (str/int/float/bool/None and lists/tuples thereof) "
            f"-- got {sorted(options)}")
    return cache_key


def clear_caches(store: bool = False) -> None:
    """Drop the in-process engine caches (structure probes, LP skeletons,
    spec-to-request-key memos and solutions).

    With ``store=True`` the installed persistent
    :class:`~repro.engine.store.SolutionStore` is cleared as well --
    tier-2 survives a plain ``clear_caches()`` on purpose, since outliving
    the process is its job.
    """
    # Imported lazily: batch sits above core in the layer diagram.
    from repro.engine.batch import clear_lp_skeleton_cache
    from repro.engine.fingerprint import clear_spec_key_cache

    _SOLUTION_CACHE.clear()
    clear_structure_cache()
    clear_lp_skeleton_cache()
    clear_spec_key_cache()
    if store and _SOLUTION_STORE is not None:
        _SOLUTION_STORE.clear()


def solution_cache_info() -> dict:
    """Hit/miss statistics of both solution-cache tiers.

    The in-memory LRU's counters stay at the top level (back-compat); the
    ``"store"`` key holds the persistent store's :meth:`~SolutionStore.info`
    dict (decode/scan counters included), or ``None`` when no store is
    installed, and the ``"lp"`` key holds the LP kernel counters
    (:func:`~repro.core.lp.lp_kernel_counters` -- skeleton reuse plus the
    warm-start / simplex-iteration totals), so one call surfaces every
    cache tier a metrics endpoint would export.
    """
    from repro.core.lp import lp_kernel_counters

    info = _SOLUTION_CACHE.info()
    info["store"] = _SOLUTION_STORE.info() if _SOLUTION_STORE is not None else None
    info["lp"] = lp_kernel_counters()
    return info
