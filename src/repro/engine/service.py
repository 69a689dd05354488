"""Batched scenario-sweep serving on top of the engine's two cache tiers.

:class:`SweepService` turns the one-shot :func:`repro.solve` into a system
for *repeated heavy workloads*: a batch of scenarios -- materialized
problems, declarative :class:`~repro.scenarios.spec.ScenarioSpec` records
or a lazily-expanded :class:`~repro.scenarios.spec.ScenarioGrid` -- comes
in, and the service

1. **deduplicates** it by :func:`~repro.engine.core.request_key` (spec
   batches: by spec content, before any DAG exists) -- every distinct
   request is solved (or fetched) exactly once, however often it repeats
   in the batch;
2. **consults the persistent store** -- scenarios already solved by any
   previous run, process or machine sharing the store are answered from
   disk without touching a solver;
3. **shards the rest** -- pending scenarios are partitioned into shards
   sized to the portfolio's worker pool
   (:meth:`~repro.engine.portfolio.Portfolio.shard_plan`) and submitted to
   its *warm* executors; inside each worker the shard is solved through
   :func:`repro.engine.batch.solve_lp_batch`, which groups scenarios by
   DAG fingerprint so the structure probe and the LP model skeleton are
   paid once per group, not once per scenario (see
   ``docs/performance.md``);
4. **streams results** -- :meth:`SweepService.sweep` is a generator
   yielding a :class:`SweepResult` per scenario as soon as its shard
   finishes (store hits first); :meth:`SweepService.run` collects them and
   also drives an optional callback;
5. **records a resumable manifest** -- with ``manifest=path`` the service
   checkpoints completed request keys after every shard, so an interrupted
   sweep restarts from the store instead of recomputing.

Usage:

>>> import tempfile
>>> from repro.core.dag import TradeoffDAG
>>> from repro.core.duration import GeneralStepDuration
>>> from repro.core.problem import MinMakespanProblem
>>> from repro.engine.portfolio import Portfolio
>>> from repro.engine.service import SweepService
>>> from repro.engine.store import SolutionStore
>>> dag = TradeoffDAG()
>>> for name in ("s", "x", "t"):
...     _ = dag.add_job(name, GeneralStepDuration([(0, 4), (2, 1)]))
>>> dag.add_edge("s", "x"); dag.add_edge("x", "t")
>>> scenarios = [MinMakespanProblem(dag, b) for b in (2.0, 4.0, 2.0, 2.0)]
>>> with SweepService(store=SolutionStore(tempfile.mkdtemp()),
...                   portfolio=Portfolio(executor="thread")) as service:
...     cold = service.run(scenarios)
...     warm = service.run(scenarios)
>>> (cold.stats.scenarios, cold.stats.unique, cold.stats.computed)
(4, 2, 2)
>>> (warm.stats.store_hits, warm.stats.computed)
(2, 0)
>>> cold.reports()[0].makespan == warm.reports()[0].makespan
True
"""

from __future__ import annotations

import json
import logging
import os
import time
from concurrent.futures import as_completed
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Union

from repro.engine.core import (
    Problem,
    SolveLimits,
    SolveReport,
    _clone_report,
    get_solution_store,
    normalize_problem,
    request_key,
)
from repro.engine.fingerprint import record_spec_fingerprint, spec_alias_key
from repro.engine.plan import (
    CELL_MANIFEST_DONE,
    build_sweep_plan,
    recommend_shard_size,
)
from repro.engine.portfolio import Portfolio
from repro.engine.store import SolutionStore, atomic_write_json, report_from_bytes
from repro.scenarios import ScenarioGrid, ScenarioSpec
from repro.utils.validation import require

__all__ = ["SweepService", "SweepResult", "SweepStats", "SweepReport",
           "ManifestState", "MANIFEST_SCHEMA_VERSION",
           "load_manifest_done", "load_manifest_state", "write_manifest"]

logger = logging.getLogger(__name__)

#: Version of the manifest file layout.  v2 manifests record, next to the
#: v1-compatible ``done`` token list, a ``cells`` map from each completed
#: cell's spec alias to its content digest and resolved request
#: fingerprint -- the digest-keyed identities that let *any* restarted
#: process (sync service, async service, a killed ``serve`` deployment)
#: resume the same grid payload.  v1 manifests are still readable;
#: unknown future schemas are ignored (the sweep starts fresh), never
#: misread.
MANIFEST_SCHEMA_VERSION = 2

#: Log the first failed manifest checkpoint only (the counter on
#: :class:`SweepStats` / ``AsyncSweepStats`` carries the full tally).
_manifest_write_warned = False


@dataclass
class ManifestState:
    """What a resume manifest knows, normalized across schema versions.

    ``done`` holds the canonical completion tokens exactly as recorded
    (request keys for materialized sweeps, spec alias keys for spec
    sweeps -- both encode the solve context).  ``tokens`` is the expanded
    consultation set: ``done`` plus, from v2 ``cells`` entries, each done
    cell's resolved request fingerprint and -- only when the manifest's
    ``method`` matches, since a bare digest does not encode the method --
    its content digest.  The planning tier matches a cell against *any*
    of its identities (see :func:`repro.engine.plan.build_sweep_plan`);
    writers persist ``done``, never ``tokens``.
    """

    done: set = field(default_factory=set)
    #: Expanded matching tokens (``done`` + per-cell keys/digests).
    tokens: set = field(default_factory=set)
    #: ``{alias: {"cell": digest, "key": request_key}}`` from v2 manifests.
    cells: Dict[str, Dict[str, str]] = field(default_factory=dict)
    completed: bool = False
    schema: int = 0

    def __post_init__(self) -> None:
        self.tokens |= self.done


def load_manifest_state(path: str, method: str) -> ManifestState:
    """Read a v1 or v2 manifest at ``path`` into a :class:`ManifestState`.

    Shared by :class:`SweepService` and the asyncio serving layer
    (:mod:`repro.engine.async_service`).  A missing, torn or incompatible
    manifest contributes nothing -- it must never kill a sweep.  v1
    manifests keep their historical gate (tokens trusted only when the
    ``method`` matches); v2 ``done`` tokens are method-encoded keys or
    aliases and are always trusted, while digest tokens from ``cells``
    are added only same-method.
    """
    if not os.path.exists(path):
        return ManifestState()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return ManifestState()
    if not isinstance(manifest, dict):
        return ManifestState()
    schema = manifest.get("schema")
    done_list = manifest.get("done", [])
    if not isinstance(done_list, list):
        return ManifestState()
    completed = bool(manifest.get("completed", False))
    if schema == 1:
        if manifest.get("method") != method:
            return ManifestState()
        return ManifestState(done=set(done_list), completed=completed,
                             schema=1)
    if schema == MANIFEST_SCHEMA_VERSION:
        done = set(done_list)
        tokens = set(done)
        cells = manifest.get("cells", {})
        if not isinstance(cells, dict):
            cells = {}
        state_cells: Dict[str, Dict[str, str]] = {}
        same_method = manifest.get("method") == method
        for alias, entry in cells.items():
            if not isinstance(entry, dict) or alias not in done:
                continue
            state_cells[alias] = {str(k): str(v) for k, v in entry.items()}
            key = entry.get("key")
            if isinstance(key, str) and key:
                tokens.add(key)
            digest = entry.get("cell")
            if same_method and isinstance(digest, str):
                tokens.add(digest)
        return ManifestState(done=done, tokens=tokens, cells=state_cells,
                             completed=completed,
                             schema=MANIFEST_SCHEMA_VERSION)
    return ManifestState()


def load_manifest_done(path: str, method: str) -> set:
    """Completion tokens of a compatible manifest (compat wrapper)."""
    return load_manifest_state(path, method).tokens


def write_manifest(path: str, method: str, keys: List[str],
                   done: set, completed: bool, *,
                   cells: Optional[Dict[str, Dict[str, str]]] = None,
                   durable: bool = False) -> bool:
    """Atomically checkpoint a sweep manifest (best effort, never raises).

    ``cells`` carries the v2 per-cell identity map (spec sweeps only --
    materialized-problem sweeps have no spec aliases to record).  Returns
    whether the checkpoint landed; a failed write is logged once per
    process and counted by the caller (``manifest_write_errors``), never
    raised.  ``durable=True`` fsyncs the manifest through the rename
    (matching a ``durable`` store), so a crash right after a shard
    completes cannot roll the resume point back past that shard.
    """
    global _manifest_write_warned
    payload: Dict[str, Any] = {
        "schema": MANIFEST_SCHEMA_VERSION,
        "method": method,
        "keys": keys,
        "done": sorted(done),
        "completed": completed,
    }
    if cells:
        payload["cells"] = {alias: dict(entry)
                            for alias, entry in sorted(cells.items())}
    try:
        atomic_write_json(path, payload, fsync=durable)
        return True
    except OSError as exc:
        if not _manifest_write_warned:
            _manifest_write_warned = True
            logger.warning(
                "sweep manifest checkpoint failed (%s: %s); resume state "
                "is stale until a later checkpoint lands -- further "
                "failures are counted, not logged", path, exc)
        return False


@dataclass
class SweepResult:
    """Outcome of one scenario slot in a sweep batch.

    ``index`` is the scenario's position in the submitted batch; duplicate
    scenarios get one result each (sharing the underlying report).
    ``source`` is ``"store"`` (answered from the persistent store),
    ``"computed"`` (solved this sweep) or ``"failed"``.

    A store hit carries the report's stored bytes in ``payload``
    (:meth:`~repro.engine.store.SolutionStore.get_raw_many`) and decodes
    ``report`` from them only when it is first read -- a fresh
    ``SolveReport`` per slot, marked ``from_cache=True`` /
    ``cache_tier="store"``.  A server splices the bytes into its response
    line and never decodes them at all.

    Spec-native sweeps fill ``spec`` instead of ``problem``: a store-hit
    cell was never materialized, so there is no problem object to carry
    (``key`` is still the true request fingerprint -- the one the
    materialized path would use -- except for cells that failed before
    their fingerprint could be learned, which carry their spec alias key).
    """

    index: int
    key: str
    problem: Optional[Problem]
    report: Optional[SolveReport]
    source: str
    error: Optional[str] = None
    #: The declarative cell this result answers (spec-native sweeps only).
    spec: Optional[ScenarioSpec] = None
    #: The stored report bytes of a store hit (``None`` otherwise).
    payload: Optional[bytes] = field(default=None, repr=False)


def _result_report(result: SweepResult) -> Optional[SolveReport]:
    report = result.__dict__.get("_report")
    if report is None and result.payload is not None:
        report = report_from_bytes(result.payload, cache_tier="store")
        result.__dict__["_report"] = report
    return report


def _set_result_report(result: SweepResult, report: Optional[SolveReport]) -> None:
    result.__dict__["_report"] = report


# ``report`` is a dataclass field (a constructor argument) backed by this
# property, so a store hit's bytes are decoded only when someone reads it.
SweepResult.report = property(_result_report, _set_result_report)  # type: ignore[assignment]


@dataclass
class SweepStats:
    """Aggregate accounting of one sweep (see :class:`SweepReport`)."""

    scenarios: int = 0
    unique: int = 0
    duplicates: int = 0
    #: Unique requests answered from the persistent store.
    store_hits: int = 0
    #: Store hits that a resume manifest had marked completed.
    resumed: int = 0
    computed: int = 0
    failed: int = 0
    shards: int = 0
    shard_size: int = 0
    #: Solves short-circuited to a store read because another process
    #: held (or had just released) the solve claim for the same cell.
    dup_solves_avoided: int = 0
    #: Manifest checkpoints that failed to land (write_manifest errors).
    manifest_write_errors: int = 0
    wall_time: float = 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of unique requests served from the store."""
        return self.store_hits / self.unique if self.unique else 0.0

    def summary(self) -> str:
        """One-line human-readable description (used by the benchmarks)."""
        return (f"{self.scenarios} scenarios ({self.unique} unique): "
                f"{self.store_hits} from store ({self.hit_rate:.0%}), "
                f"{self.computed} computed in {self.shards} shards, "
                f"{self.failed} failed, {self.wall_time * 1000:.1f}ms")


@dataclass
class SweepReport:
    """Everything :meth:`SweepService.run` produced, in batch order."""

    results: List[SweepResult] = field(default_factory=list)
    stats: SweepStats = field(default_factory=SweepStats)

    def reports(self) -> List[Optional[SolveReport]]:
        """The per-scenario :class:`SolveReport` list (``None`` on failure)."""
        return [r.report for r in self.results]

    def summary(self) -> str:
        return self.stats.summary()


def _chunk(items: List, size: int) -> List[List]:
    return [items[i:i + size] for i in range(0, len(items), size)]


class SweepService:
    """Deduplicating, store-backed, sharded scenario-sweep runner.

    Parameters
    ----------
    store:
        The persistent :class:`~repro.engine.store.SolutionStore` (or a
        directory path to open one at).  Defaults to the engine's globally
        installed store (:func:`~repro.engine.core.get_solution_store`);
        without one, the service still deduplicates and shards but nothing
        survives the process.
    portfolio:
        The :class:`~repro.engine.portfolio.Portfolio` whose (persistent)
        executor runs the pending shards.  Defaults to a process-pool
        portfolio; the service starts it lazily and closes what it started.
    limits:
        :class:`~repro.engine.core.SolveLimits` forwarded to every solve
        and baked into the request keys.
    oversubscription:
        Target shards per worker when auto-sizing shards
        (:meth:`Portfolio.shard_plan`).
    validate:
        Run certificate checks on computed solutions (part of the key).
    durable:
        Fsync the resume manifest through its atomic rename, and open a
        path-constructed store with ``durable=True`` -- crash-consistent
        checkpoints for deployments that resume sweeps after power loss.
        (A store passed as an object keeps whatever durability it was
        built with.)
    """

    def __init__(self, store: Union[SolutionStore, str, None] = None, *,
                 portfolio: Optional[Portfolio] = None,
                 limits: Optional[SolveLimits] = None,
                 oversubscription: int = 4,
                 validate: bool = True,
                 durable: bool = False):
        require(oversubscription > 0, "oversubscription must be positive")
        self.durable = durable
        if isinstance(store, str):
            store = SolutionStore(store, durable=durable)
        self._explicit_store = store
        self._owns_portfolio = portfolio is None
        self._portfolio = portfolio if portfolio is not None else Portfolio(executor="process")
        self._started_pool = False
        # Request keys and shard execution must agree on the limits: an
        # explicit ``limits`` is pushed into the portfolio, otherwise the
        # portfolio's own limits are adopted.
        if limits is not None:
            self.limits = limits
            self._portfolio.limits = limits
        else:
            self.limits = self._portfolio.limits
        self.oversubscription = oversubscription
        self.validate = validate
        self.last_stats: Optional[SweepStats] = None
        #: The classification of the most recent spec-native sweep
        #: (:class:`~repro.engine.plan.SweepPlan`), for observability.
        self.last_plan = None
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def store(self) -> Optional[SolutionStore]:
        """The store consulted by sweeps (explicit, else the global one)."""
        if self._explicit_store is not None:
            return self._explicit_store
        return get_solution_store()

    @property
    def portfolio(self) -> Portfolio:
        return self._portfolio

    @staticmethod
    def kernel_info() -> dict:
        """Work counters of the batched kernel layer (``docs/performance.md``).

        Counters are per process: with a thread-executor portfolio they
        reflect this service's sweeps directly; with the (default)
        process-executor portfolio the shard work happens in the worker
        processes, so the calling process only sees the skeletons and
        probes it built itself (dedup, store lookups).
        """
        from repro.engine.batch import batch_kernel_info

        return batch_kernel_info()

    def _warm_pool(self) -> Portfolio:
        if self._portfolio.pool is None:
            self._portfolio.start()
            self._started_pool = True
        return self._portfolio

    def close(self) -> None:
        """Shut down the worker pool the service started (if any).

        A closed service raises :class:`RuntimeError` from
        :meth:`sweep`/:meth:`run` instead of failing deep inside (or
        silently restarting) the executor.
        """
        if self._owns_portfolio or self._started_pool:
            self._portfolio.close()
            self._started_pool = False
        self._closed = True

    @property
    def closed(self) -> bool:
        """Has :meth:`close` been called on this service?"""
        return self._closed

    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "SweepService is closed; create a new service (or a new "
                "context manager block) to run further sweeps")

    def __enter__(self) -> "SweepService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # manifest
    # ------------------------------------------------------------------
    def _load_manifest_state(self, path: str, method: str) -> ManifestState:
        """Resume state recorded by a compatible (v1 or v2) manifest."""
        return load_manifest_state(path, method)

    def _write_manifest(self, path: str, method: str, keys: List[str],
                        done: set, completed: bool, *,
                        cells: Optional[Dict[str, Dict[str, str]]] = None,
                        stats: Optional[SweepStats] = None) -> None:
        ok = write_manifest(path, method, keys, done, completed,
                            cells=cells, durable=self.durable)
        if not ok and stats is not None:
            stats.manifest_write_errors += 1

    # ------------------------------------------------------------------
    # sweeping
    # ------------------------------------------------------------------
    def sweep(self, scenarios: Union[Sequence[Problem], Sequence[ScenarioSpec],
                                     ScenarioGrid],
              method: str = "auto", *,
              manifest: Optional[str] = None,
              shard_size: Optional[int] = None,
              **options: Any) -> Iterator[SweepResult]:
        """Stream :class:`SweepResult` objects for a scenario batch.

        ``scenarios`` may be materialized problems, declarative
        :class:`~repro.scenarios.spec.ScenarioSpec` records, or a whole
        :class:`~repro.scenarios.spec.ScenarioGrid` (expanded lazily).
        The spec-native forms deduplicate and consult the store **before
        materialization** -- a store-hit cell never builds its DAG, and
        pending cells are built lazily inside the worker shards, so peak
        memory is one shard of DAGs regardless of grid size.

        Store-served scenarios are yielded first (in batch order), then
        computed ones as their shards finish (shard completion order).
        Closing the generator early cancels unstarted shards and -- with
        ``manifest=`` -- leaves a checkpoint from which the next sweep
        resumes.  The generator's return value is the :class:`SweepStats`
        (collected by :meth:`run`).

        Sweeps are content-addressed, so ``options`` must be literal
        values (:func:`~repro.engine.core.request_key` raises otherwise).
        """
        self._require_open()
        if isinstance(scenarios, ScenarioGrid):
            scenarios = scenarios.expand()
        scenarios = list(scenarios)
        if scenarios and isinstance(scenarios[0], ScenarioSpec):
            require(all(isinstance(s, ScenarioSpec) for s in scenarios),
                    "do not mix ScenarioSpecs and materialized problems in "
                    "one sweep")
            return self._sweep_specs_iter(scenarios, method,
                                          manifest=manifest,
                                          shard_size=shard_size, **options)
        return self._sweep_iter(scenarios, method, manifest=manifest,
                                shard_size=shard_size, **options)

    def _sweep_iter(self, scenarios: Sequence[Problem], method: str, *,
                    manifest: Optional[str], shard_size: Optional[int],
                    **options: Any) -> Iterator[SweepResult]:
        """The generator behind :meth:`sweep` (which checks closed-ness
        eagerly, at call time rather than on first ``next()``)."""
        start_time = time.perf_counter()
        problems = [normalize_problem(p) for p in scenarios]
        stats = SweepStats(scenarios=len(problems))
        self.last_stats = stats

        # -- dedup by request key ---------------------------------------
        keys: List[str] = [
            request_key(p, method, limits=self.limits, validate=self.validate,
                        **options)
            for p in problems
        ]
        groups: Dict[str, List[int]] = {}
        unique_keys: List[str] = []
        for index, key in enumerate(keys):
            if key not in groups:
                groups[key] = []
                unique_keys.append(key)
            groups[key].append(index)
        stats.unique = len(unique_keys)
        stats.duplicates = stats.scenarios - stats.unique

        manifest_done = (self._load_manifest_state(manifest, method).tokens
                         if manifest else set())
        done: set = set()
        store = self.store

        # -- tier-2 lookup (one batched store pass) ---------------------
        pending: List[str] = []
        found = (store.get_raw_many(unique_keys)
                 if store is not None else {})
        try:
            for key in unique_keys:
                _resolved, payload = found.get(key, (None, None))
                if payload is None:
                    pending.append(key)
                    continue
                stats.store_hits += 1
                if key in manifest_done:
                    stats.resumed += 1
                done.add(key)
                for index in groups[key]:
                    yield SweepResult(index=index, key=key,
                                      problem=problems[index], report=None,
                                      source="store", payload=payload)

            # -- shard + compute ------------------------------------------
            if pending:
                portfolio = self._warm_pool()
                size = shard_size or recommend_shard_size(
                    len(pending), portfolio.worker_count(),
                    oversubscription=self.oversubscription,
                    hit_rate=stats.store_hits / stats.unique if stats.unique else 0.0)
                stats.shard_size = size
                shard_keys = _chunk(pending, size)
                futures = {}
                for shard in shard_keys:
                    shard_problems = [problems[groups[key][0]] for key in shard]
                    future = portfolio.submit_shard(shard_problems, method,
                                                    validate=self.validate,
                                                    **options)
                    futures[future] = shard
                stats.shards = len(futures)
                try:
                    for future in as_completed(futures):
                        shard = futures.pop(future)
                        outcomes = list(zip(shard, future.result()))
                        # One bulk store write per completed shard, before
                        # any result is yielded (a consumer closing the
                        # generator must not lose this shard's persistence).
                        if store is not None:
                            store.put_reports([(key, report)
                                               for key, (report, _err) in outcomes
                                               if report is not None])
                        for key, (report, error) in outcomes:
                            problem = problems[groups[key][0]]
                            if report is not None:
                                stats.computed += 1
                                done.add(key)
                                source, err = "computed", None
                            else:
                                stats.failed += 1
                                source, err = "failed", error
                            for index in groups[key]:
                                copy = (_clone_report(report, from_cache=False)
                                        if report is not None else None)
                                yield SweepResult(index=index, key=key,
                                                  problem=problem,
                                                  report=copy, source=source,
                                                  error=err)
                        if manifest:
                            self._write_manifest(manifest, method, unique_keys,
                                                 done, completed=False,
                                                 stats=stats)
                finally:
                    for future in futures:
                        future.cancel()
        finally:
            stats.wall_time = time.perf_counter() - start_time
            if manifest:
                completed = len(done) + stats.failed >= stats.unique
                self._write_manifest(manifest, method, unique_keys, done,
                                     completed=completed, stats=stats)
        return stats

    def _sweep_specs_iter(self, specs: List[ScenarioSpec], method: str, *,
                          manifest: Optional[str], shard_size: Optional[int],
                          **options: Any) -> Iterator[SweepResult]:
        """The spec-native sweep generator (see :meth:`sweep`).

        Phases:

        1. **dedup, no DAGs** -- cells are grouped by
           :func:`~repro.engine.fingerprint.spec_alias_key` (pure spec
           content);
        2. **plan, no DAGs** -- every unique cell is classified in one
           batched store pass (:func:`~repro.engine.plan.build_sweep_plan`)
           into store-hit / alias-hit / manifest-done / pending; done
           cells are yielded immediately, and pending cells are claimed
           against concurrent processes (a contended cell gets one more
           store look -- ``dup_solves_avoided``);
        3. **lazy compute** -- pending cells are sharded *as specs*
           (:meth:`Portfolio.submit_spec_shard`) with a shard size picked
           from the plan's pending count and measured hit rate; workers
           materialize inside their shard and report each cell's request
           fingerprint back, which is persisted as the alias the next
           sweep's plan will hit.
        """
        start_time = time.perf_counter()
        stats = SweepStats(scenarios=len(specs))
        self.last_stats = stats

        aliases: List[str] = [
            spec_alias_key(spec, method, limits=self.limits,
                           validate=self.validate, **options)
            for spec in specs
        ]
        groups: Dict[str, List[int]] = {}
        unique_aliases: List[str] = []
        for index, alias in enumerate(aliases):
            if alias not in groups:
                groups[alias] = []
                unique_aliases.append(alias)
            groups[alias].append(index)
        stats.unique = len(unique_aliases)
        stats.duplicates = stats.scenarios - stats.unique

        manifest_state = (self._load_manifest_state(manifest, method)
                          if manifest else ManifestState())
        done: set = set()
        done_cells: Dict[str, Dict[str, str]] = {}
        store = self.store

        # -- the incremental planning tier: classify every unique cell in
        #    one batched store pass before any shard is formed.
        plan = build_sweep_plan(
            [(alias, specs[groups[alias][0]]) for alias in unique_aliases],
            method, store=store, limits=self.limits, validate=self.validate,
            manifest_done=manifest_state.tokens, **options)
        self.last_plan = plan
        cell_by_alias = {cell.alias: cell for cell in plan.cells}
        claimed: List[str] = []
        try:
            for cell in plan.done:
                stats.store_hits += 1
                if cell.status == CELL_MANIFEST_DONE:
                    stats.resumed += 1
                done.add(cell.alias)
                done_cells[cell.alias] = {"cell": cell.digest,
                                          "key": cell.key or ""}
                for index in groups[cell.alias]:
                    yield SweepResult(index=index, key=cell.key, problem=None,
                                      report=None, source="store",
                                      spec=specs[index], payload=cell.payload)

            pending = [cell.alias for cell in plan.pending]

            # -- cross-process dedup: claim each pending cell; a cell some
            #    live process already claimed gets one more (batched) store
            #    look before we solve it ourselves -- if the claimant
            #    finished, this sweep short-circuits to its report.
            if store is not None and pending:
                contended = {alias for alias in pending
                             if not store.claim_solve(alias)}
                claimed = [alias for alias in pending
                           if alias not in contended]
                if contended:
                    recheck = store.get_raw_many(list(contended))
                    still_pending: List[str] = []
                    for alias in pending:
                        if alias not in contended:
                            still_pending.append(alias)
                            continue
                        true_key, payload = recheck.get(alias, (None, None))
                        if payload is None:
                            # Claimant still running (or died mid-solve):
                            # solving it ourselves stays correct, just not
                            # deduplicated.
                            still_pending.append(alias)
                            continue
                        cell = cell_by_alias[alias]
                        if true_key is not None:
                            record_spec_fingerprint(
                                cell.spec, true_key, method,
                                limits=self.limits, validate=self.validate,
                                **options)
                        stats.store_hits += 1
                        stats.dup_solves_avoided += 1
                        done.add(alias)
                        done_cells[alias] = {"cell": cell.digest,
                                             "key": true_key or ""}
                        for index in groups[alias]:
                            yield SweepResult(
                                index=index, key=true_key or alias,
                                problem=None, report=None, source="store",
                                spec=specs[index], payload=payload)
                    pending = still_pending

            if pending:
                portfolio = self._warm_pool()
                size = shard_size or recommend_shard_size(
                    len(pending), portfolio.worker_count(),
                    oversubscription=self.oversubscription,
                    hit_rate=stats.store_hits / stats.unique if stats.unique else 0.0)
                stats.shard_size = size
                futures = {}
                for shard in _chunk(pending, size):
                    shard_specs = [specs[groups[alias][0]] for alias in shard]
                    future = portfolio.submit_spec_shard(shard_specs, method,
                                                         validate=self.validate,
                                                         **options)
                    futures[future] = shard
                stats.shards = len(futures)
                try:
                    for future in as_completed(futures):
                        shard = futures.pop(future)
                        outcomes = list(zip(shard, future.result()))
                        # Persist reports AND the spec->key aliases before
                        # yielding: the aliases are what make the *next*
                        # sweep's store lookups DAG-free.
                        if store is not None:
                            store.put_reports(
                                [(key, report)
                                 for _alias, (key, report, _err) in outcomes
                                 if report is not None])
                            store.put_many(
                                [(alias, {"alias_of": key})
                                 for alias, (key, report, _err) in outcomes
                                 if report is not None])
                        for alias, (key, report, error) in outcomes:
                            spec = specs[groups[alias][0]]
                            if key is not None:
                                record_spec_fingerprint(
                                    spec, key, method, limits=self.limits,
                                    validate=self.validate, **options)
                            if report is not None:
                                stats.computed += 1
                                done.add(alias)
                                done_cells[alias] = {
                                    "cell": cell_by_alias[alias].digest,
                                    "key": key or ""}
                                source, err = "computed", None
                            else:
                                stats.failed += 1
                                source, err = "failed", error
                            for index in groups[alias]:
                                copy = (_clone_report(report, from_cache=False)
                                        if report is not None else None)
                                yield SweepResult(index=index,
                                                  key=key if key is not None else alias,
                                                  problem=None, report=copy,
                                                  source=source, error=err,
                                                  spec=specs[index])
                        if manifest:
                            self._write_manifest(manifest, method,
                                                 unique_aliases, done,
                                                 completed=False,
                                                 cells=done_cells,
                                                 stats=stats)
                finally:
                    for future in futures:
                        future.cancel()
        finally:
            stats.wall_time = time.perf_counter() - start_time
            if store is not None:
                for alias in claimed:
                    store.release_solve_claim(alias)
            if manifest:
                completed = len(done) + stats.failed >= stats.unique
                self._write_manifest(manifest, method, unique_aliases, done,
                                     completed=completed, cells=done_cells,
                                     stats=stats)
        return stats

    def run(self, scenarios: Union[Sequence[Problem], Sequence[ScenarioSpec],
                                   ScenarioGrid],
            method: str = "auto", *,
            manifest: Optional[str] = None,
            shard_size: Optional[int] = None,
            on_result: Optional[Callable[[SweepResult], None]] = None,
            **options: Any) -> SweepReport:
        """Run a full sweep and collect every result (batch order).

        Accepts the same scenario forms as :meth:`sweep` (problems, specs
        or a :class:`~repro.scenarios.spec.ScenarioGrid`).  ``on_result``
        is invoked on each :class:`SweepResult` as it streams in -- the
        callback API for progress reporting or incremental consumers that
        still want the final report.
        """
        results: List[SweepResult] = []
        generator = self.sweep(scenarios, method, manifest=manifest,
                               shard_size=shard_size, **options)
        while True:
            try:
                result = next(generator)
            except StopIteration as stop:
                stats = stop.value if stop.value is not None else self.last_stats
                break
            results.append(result)
            if on_result is not None:
                on_result(result)
        results.sort(key=lambda r: r.index)
        return SweepReport(results=results, stats=stats)
