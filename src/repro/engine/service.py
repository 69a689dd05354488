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
3. **shards the rest** -- pending scenarios are claimed against other
   processes, partitioned into shards sized from the plan
   (:func:`~repro.engine.plan.recommend_shard_size`) and submitted to the
   portfolio's *warm* executors; inside each worker the shard is solved through
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
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.engine.core import (
    Problem,
    SolveLimits,
    SolveReport,
    _clone_report,
    get_solution_store,
    normalize_problem,
    request_key,
)
from repro.engine.fingerprint import record_alias_fingerprint, spec_alias_key
from repro.engine.plan import (
    CELL_MANIFEST_DONE,
    CELL_MEMORY_HIT,
    PlannedCell,
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


def group_slots(identities: Sequence[str]) -> Dict[str, List[int]]:
    """``{identity: slot indices}`` in first-occurrence order (batch dedup)."""
    groups: Dict[str, List[int]] = {}
    for index, identity in enumerate(identities):
        groups.setdefault(identity, []).append(index)
    return groups


class ResumeManifest:
    """The resume-manifest bookkeeping of one :class:`ShardExecutor`.

    A sweep's manifest (``keys``: that sweep's cell identities) records
    only what the sweep answered; a service-lifetime one (``keys=None``)
    carries the loaded done set forward.  Planning matches cells against
    ``tokens``: the loaded ones plus every identity marked since.
    """

    def __init__(self, path: str, method: str, *, durable: bool,
                 keys: Optional[List[str]] = None):
        state = load_manifest_state(path, method)
        self.path = path
        self.method = method
        self.durable = durable
        self.keys = keys
        self.tokens = set(state.tokens)
        self.done = set() if keys is not None else set(state.done)
        self.cells = {} if keys is not None else dict(state.cells)

    def mark(self, cell: PlannedCell, key: Optional[str]) -> None:
        """Record one answered cell (flushed by the next :meth:`write`)."""
        self.done.add(cell.identity)
        self.tokens.update(t for t in (cell.identity, key, cell.digest) if t)
        if cell.alias is not None:
            self.cells[cell.alias] = {"cell": cell.digest, "key": key or ""}

    def write(self, completed: bool) -> bool:
        keys = self.keys if self.keys is not None else sorted(self.done)
        return write_manifest(self.path, self.method, keys, self.done,
                              completed, cells=self.cells,
                              durable=self.durable)


@dataclass
class CellOutcome:
    """How one planned cell was answered, ready for each of its slots."""

    cell: PlannedCell
    #: ``"memory"``, ``"store"``, ``"computed"`` or ``"failed"``.
    source: str
    #: The request fingerprint (a failed spec cell's alias if never learned).
    key: str
    report: Optional[SolveReport] = None
    payload: Optional[bytes] = field(default=None, repr=False)
    error: Optional[str] = None

    def result(self, index: int, item: Any) -> SweepResult:
        """Slot ``index``'s result; ``item`` is what the slot submitted (a
        problem or a spec).  Each slot gets its own report copy."""
        report = self.report
        if report is not None:
            report = _clone_report(report, from_cache=self.source == "memory",
                                   cache_tier="memory")
        spec = item if isinstance(item, ScenarioSpec) else None
        return SweepResult(index=index, key=self.key,
                           problem=None if spec is not None else item,
                           report=report, source=self.source,
                           error=self.error, spec=spec, payload=self.payload)


class ShardExecutor:
    """Claim, solve, persist: the execution half of both sweep fronts.

    ``front`` is the service (its ``store``, ``portfolio`` and
    ``validate``); counters land on ``stats``.  Every pending cell is
    claimed under its plan identity, a contended cell is re-read from the
    store before anyone solves it again (``dup_solves_avoided``), and a
    solved shard's reports, spec alias entries, spec-key memo entries and
    manifest checkpoint are persisted before any of its results is
    delivered.
    """

    def __init__(self, front: Any, stats: Any,
                 manifest: Optional[ResumeManifest] = None):
        self.front = front
        self.stats = stats
        self.manifest = manifest

    @property
    def store(self) -> Optional[SolutionStore]:
        return self.front.store

    def _settled(self, cell: PlannedCell, source: str, key: str,
                 **fields: Any) -> CellOutcome:
        if self.manifest is not None and source != "failed":
            self.manifest.mark(cell, key)
        return CellOutcome(cell, source, key, **fields)

    def answered(self, cell: PlannedCell) -> CellOutcome:
        """Account one cell the plan answered from memory or the store."""
        if cell.status == CELL_MEMORY_HIT:
            self.stats.prewarm_hits += 1
            return self._settled(cell, "memory", cell.key, report=cell.report)
        self.stats.store_hits += 1
        if cell.status == CELL_MANIFEST_DONE:
            self.stats.resumed += 1
        return self._settled(cell, "store", cell.key, payload=cell.payload)

    def claim(self, cells: Sequence[PlannedCell]
              ) -> Tuple[List[PlannedCell], List[PlannedCell]]:
        """Claim each cell against other processes: ``(claimed, contended)``."""
        store = self.store
        won = [store is None or store.claim_solve(cell.identity) for cell in cells]
        return ([cell for cell, ok in zip(cells, won) if ok],
                [cell for cell, ok in zip(cells, won) if not ok])

    def release(self, cells: Sequence[PlannedCell]) -> None:
        store = self.store
        if store is not None:
            for cell in cells:
                store.release_solve_claim(cell.identity)

    def reread(self, cells: Sequence[PlannedCell]
               ) -> Tuple[List[CellOutcome], List[PlannedCell]]:
        """One batched store read over cells another process may have
        solved since they were planned: ``(answered, still pending)``."""
        store = self.store
        if store is None or not cells:
            return [], list(cells)
        probes = [cell.key if cell.key is not None else cell.identity
                  for cell in cells]
        found = store.get_raw_many(probes)
        answered: List[CellOutcome] = []
        pending: List[PlannedCell] = []
        for cell, probe in zip(cells, probes):
            true_key, payload = found.get(probe, (None, None))
            if payload is None:
                pending.append(cell)
                continue
            if true_key is not None and cell.alias is not None:
                record_alias_fingerprint(cell.alias, true_key)
            self.stats.store_hits += 1
            self.stats.dup_solves_avoided += 1
            answered.append(self._settled(cell, "store",
                                          true_key or cell.key or cell.identity,
                                          payload=payload))
        return answered, pending

    def task(self, cells: Sequence[PlannedCell], method: str,
             options: Dict[str, Any]) -> Tuple[Any, Tuple]:
        """``(callable, args)`` solving one shard in a worker
        (:meth:`Portfolio.spec_shard_task`)."""
        self.stats.shards += 1
        return self.front.portfolio.spec_shard_task(
            [cell.spec if cell.spec is not None else cell.problem
             for cell in cells],
            method, validate=self.front.validate, **options)

    def persist(self, cells: Sequence[PlannedCell],
                triples: Sequence[Tuple[Optional[str], Optional[SolveReport],
                                        Optional[str]]]) -> List[CellOutcome]:
        """Persist one solved shard; its outcomes, ready to deliver."""
        outcomes: List[CellOutcome] = []
        for cell, (key, report, error) in zip(cells, triples):
            if key is not None and cell.alias is not None:
                record_alias_fingerprint(cell.alias, key)
            key = key or cell.key or cell.identity
            if report is None:
                self.stats.failed += 1
                outcomes.append(self._settled(cell, "failed", key, error=error))
            else:
                self.stats.computed += 1
                outcomes.append(self._settled(cell, "computed", key, report=report))
        store = self.store
        if store is not None:
            solved = [o for o in outcomes if o.report is not None]
            store.put_reports([(o.key, o.report) for o in solved])
            # The spec -> fingerprint aliases are what make the next
            # plan's store lookups DAG-free.
            aliases = [(o.cell.alias, {"alias_of": o.key}) for o in solved
                       if o.cell.alias is not None]
            if aliases:
                store.put_many(aliases)
        self.checkpoint(completed=False)
        return outcomes

    def checkpoint(self, completed: bool) -> None:
        """Write the manifest (if any); a failed write is counted."""
        if self.manifest is not None and not self.manifest.write(completed):
            self.stats.manifest_write_errors += 1


class SweepFront:
    """What both sweep fronts share: a store (explicit, a path, or the
    global one), a warm portfolio (owned when not given) and the solve
    context baked into every request key -- an explicit ``limits`` is
    pushed into the portfolio, else the portfolio's own are adopted."""

    def __init__(self, store: Union[SolutionStore, str, None],
                 portfolio: Optional[Portfolio], limits: Optional[SolveLimits],
                 validate: bool, durable: bool):
        self.durable = durable
        if isinstance(store, str):
            store = SolutionStore(store, durable=durable)
        self._explicit_store = store
        self._owns_portfolio = portfolio is None
        self._portfolio = portfolio if portfolio is not None else Portfolio(executor="process")
        self._started_pool = False
        if limits is not None:
            self.limits = limits
            self._portfolio.limits = limits
        else:
            self.limits = self._portfolio.limits
        self.validate = validate
        self._closed = False

    @property
    def store(self) -> Optional[SolutionStore]:
        """The store consulted and fed (explicit, else the global one)."""
        if self._explicit_store is not None:
            return self._explicit_store
        return get_solution_store()

    @property
    def portfolio(self) -> Portfolio:
        return self._portfolio

    @property
    def closed(self) -> bool:
        """Has the front been closed?"""
        return self._closed

    def _warm_pool(self) -> Portfolio:
        if self._portfolio.pool is None:
            self._portfolio.start()
            self._started_pool = True
        return self._portfolio

    def _close_pool(self) -> None:
        """Shut down the worker pool the front owns or started (if any)."""
        if self._owns_portfolio or self._started_pool:
            self._portfolio.close()
            self._started_pool = False

    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                f"{type(self).__name__} is closed; create a new service (or "
                "a new context manager block) to run further sweeps")


class SweepService(SweepFront):
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
        super().__init__(store, portfolio, limits, validate, durable)
        self.oversubscription = oversubscription
        self.last_stats: Optional[SweepStats] = None
        #: The classification of the most recent sweep
        #: (:class:`~repro.engine.plan.SweepPlan`), for observability.
        self.last_plan = None

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

    def close(self) -> None:
        """Shut down the worker pool the service started (if any).

        A closed service raises :class:`RuntimeError` from
        :meth:`sweep`/:meth:`run` instead of failing deep inside (or
        silently restarting) the executor.
        """
        self._close_pool()
        self._closed = True

    def __enter__(self) -> "SweepService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

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
        items: List[Any] = list(scenarios)
        if items and isinstance(items[0], ScenarioSpec):
            require(all(isinstance(s, ScenarioSpec) for s in items),
                    "do not mix ScenarioSpecs and materialized problems in "
                    "one sweep")
        else:
            items = [normalize_problem(p) for p in items]
        return self._sweep(items, method, manifest, shard_size, options)

    def _sweep(self, items: List[Any], method: str, manifest: Optional[str],
               shard_size: Optional[int],
               options: Dict[str, Any]) -> Iterator[SweepResult]:
        """The generator behind :meth:`sweep` (which checks closed-ness
        eagerly, at call time rather than on first ``next()``): group the
        slots by plan identity, plan, yield what the caches answer, then
        claim, shard and persist the rest through the
        :class:`ShardExecutor`."""
        start_time = time.perf_counter()
        stats = SweepStats(scenarios=len(items))
        self.last_stats = stats
        groups = group_slots([
            spec_alias_key(item, method, limits=self.limits,
                           validate=self.validate, **options)
            if isinstance(item, ScenarioSpec)
            else request_key(item, method, limits=self.limits,
                             validate=self.validate, **options)
            for item in items])
        stats.unique = len(groups)
        stats.duplicates = stats.scenarios - stats.unique
        book = (ResumeManifest(manifest, method, durable=self.durable,
                               keys=list(groups)) if manifest else None)
        executor = ShardExecutor(self, stats, book)

        def deliver(outcome: CellOutcome) -> Iterator[SweepResult]:
            for index in groups[outcome.cell.identity]:
                yield outcome.result(index, items[index])

        plan = build_sweep_plan(
            [(identity, items[slots[0]]) for identity, slots in groups.items()],
            method, store=executor.store, limits=self.limits,
            validate=self.validate,
            manifest_done=book.tokens if book is not None else None,
            **options)
        self.last_plan = plan
        claimed: List[PlannedCell] = []
        try:
            for cell in plan.done:
                yield from deliver(executor.answered(cell))
            claimed, contended = executor.claim(plan.pending)
            answered, unsolved = executor.reread(contended)
            for outcome in answered:
                yield from deliver(outcome)
            # A claimant still running (or dead mid-solve) left ``unsolved``:
            # solving those ourselves stays correct, just not deduplicated.
            pending = claimed + unsolved
            if pending:
                portfolio = self._warm_pool()
                size = shard_size or recommend_shard_size(
                    len(pending), portfolio.worker_count(),
                    oversubscription=self.oversubscription,
                    hit_rate=stats.store_hits / stats.unique if stats.unique else 0.0)
                stats.shard_size = size
                futures = {}
                for shard in _chunk(pending, size):
                    fn, args = executor.task(shard, method, options)
                    futures[portfolio.pool.submit(fn, *args)] = shard
                try:
                    for future in as_completed(futures):
                        shard = futures.pop(future)
                        for outcome in executor.persist(shard, future.result()):
                            yield from deliver(outcome)
                finally:
                    for future in futures:
                        future.cancel()
        finally:
            stats.wall_time = time.perf_counter() - start_time
            executor.release(claimed)
            if book is not None:
                executor.checkpoint(
                    completed=len(book.done) + stats.failed >= stats.unique)
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
