"""Asyncio serving front over the store + :class:`Portfolio` machinery.

:class:`~repro.engine.service.SweepService` serves one batch at a time;
:class:`AsyncSweepService` turns the same substrate (persistent
:class:`~repro.engine.store.SolutionStore`, warm
:class:`~repro.engine.portfolio.Portfolio` pools, request-key dedup) into a
**long-running concurrent server**: many clients ``await submit(...)``
scenario batches at once and the service

1. **deduplicates across requests, in flight** -- two concurrent clients
   asking for the same request fingerprint share one solve (tier 0 of the
   cache hierarchy: it answers before a result even exists);
2. **answers from the persistent store** (tier 2) without queueing;
3. **queues the rest with backpressure** -- a bounded :class:`asyncio.Queue`
   blocks producers at the bound, and an :class:`asyncio.Semaphore` caps how
   many shards are in flight on the warm pool at once
   (``loop.run_in_executor`` over :meth:`Portfolio.shard_task`);
4. **survives cancellation** -- a client cancelling its future never corrupts
   the store or the manifest: a shard already running completes, its results
   are persisted, and the other clients deduplicated onto it still get
   their answers;
5. **drains gracefully** -- :meth:`aclose` stops accepting work, waits for
   everything queued to finish, checkpoints the manifest and closes what it
   started.

Declarative scenario batches go through :meth:`AsyncSweepService.submit_specs`
(a :class:`~repro.scenarios.spec.ScenarioGrid` or
:class:`~repro.scenarios.spec.ScenarioSpec` records): dedup, in-flight
sharing and store lookups happen before any DAG exists, and pending cells
materialize lazily inside the worker shards -- the substrate of the
``sweep_spec`` wire op in :mod:`repro.serve`.

Clients receive plain :class:`asyncio.Future` objects (one per scenario
slot, shared per request key) resolving to
:class:`~repro.engine.service.SweepResult`; nothing in the public API
blocks the event loop longer than a store lookup.

Usage:

>>> import asyncio
>>> from repro.core.dag import TradeoffDAG
>>> from repro.core.duration import GeneralStepDuration
>>> from repro.core.problem import MinMakespanProblem
>>> from repro.engine.async_service import AsyncSweepService
>>> from repro.engine.portfolio import Portfolio
>>> dag = TradeoffDAG()
>>> for name in ("s", "x", "t"):
...     _ = dag.add_job(name, GeneralStepDuration([(0, 4), (2, 1)]))
>>> dag.add_edge("s", "x"); dag.add_edge("x", "t")
>>> async def tour():
...     async with AsyncSweepService(portfolio=Portfolio(executor="thread")) as service:
...         ticket = await service.submit(
...             [MinMakespanProblem(dag, b) for b in (2.0, 4.0, 2.0)])
...         results = await ticket.results()
...     return [r.source for r in results], service.stats.computed
>>> asyncio.run(tour())
(['computed', 'computed', 'computed'], 2)
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.engine.core import (
    Problem,
    SolveLimits,
    SolveReport,
    _clone_report,
    cached_solution,
    get_solution_store,
    normalize_problem,
    request_key,
    warm_solution_cache,
)
from repro.engine.fingerprint import record_spec_fingerprint, spec_alias_key
from repro.engine.plan import CELL_MANIFEST_DONE, build_sweep_plan
from repro.engine.portfolio import Portfolio
from repro.engine.service import SweepResult, load_manifest_state, write_manifest
from repro.engine.store import (SolutionStore, _is_alias_payload,
                                report_from_payload)
from repro.scenarios import ScenarioGrid, ScenarioSpec
from repro.utils.validation import ValidationError, require

__all__ = ["AsyncSweepService", "AsyncSweepStats", "SubmitTicket",
           "ASYNC_MANIFEST_METHOD"]

#: ``method`` recorded in the async service's manifest.  One async service
#: may serve mixed methods (each request key already encodes its own), so
#: the manifest is scoped to the service rather than to a single method.
ASYNC_MANIFEST_METHOD = "async-mixed"

#: Longest an async shard waits on another process's solve claim before
#: solving the cell itself anyway (correct either way, just duplicated).
CLAIM_WAIT_SECONDS = 30.0
_CLAIM_POLL_SECONDS = 0.05


@dataclass
class AsyncSweepStats:
    """Rolling counters of one :class:`AsyncSweepService` lifetime.

    Unlike :class:`~repro.engine.service.SweepStats` (one batch), these
    accumulate across every ``submit`` until the service closes.
    """

    #: Scenario slots submitted (duplicates included).
    requests: int = 0
    #: Submit calls served.
    batches: int = 0
    #: Slots answered by sharing an *in-flight* solve (tier-0 hits).
    deduped: int = 0
    #: Slots answered straight from the persistent store (tier-2 hits).
    store_hits: int = 0
    #: Store hits that the resume manifest had marked completed.
    resumed: int = 0
    computed: int = 0
    failed: int = 0
    #: Queued requests dropped because every waiter cancelled before dispatch.
    cancelled: int = 0
    #: Executor shards dispatched to the worker pool.
    shards: int = 0
    #: Solves short-circuited to a store read because another process
    #: solved (or was solving) the same cell concurrently.
    dup_solves_avoided: int = 0
    #: Manifest checkpoints that failed to land (write_manifest errors).
    manifest_write_errors: int = 0
    #: Reports bulk-loaded into the tier-1 LRU by :meth:`warm_cache`
    #: (elastic-resize prewarming), and alias mappings learned alongside.
    prewarmed: int = 0
    prewarmed_aliases: int = 0
    #: Slots answered straight from prewarmed memory (``source="memory"``)
    #: -- warm handoff working: a moved cell that never touched the store.
    prewarm_hits: int = 0

    def summary(self) -> str:
        """One-line human-readable description (used by the benchmarks)."""
        return (f"{self.requests} requests in {self.batches} batches: "
                f"{self.deduped} deduped in flight, {self.store_hits} from "
                f"store, {self.computed} computed in {self.shards} shards, "
                f"{self.failed} failed, {self.cancelled} cancelled")


@dataclass
class _Inflight:
    """One unique queued/solving request and everyone waiting on it.

    Spec-native submissions (:meth:`AsyncSweepService.submit_specs`) fill
    ``spec`` instead of ``problem``; their dedup/in-flight ``key`` is the
    true request fingerprint when already resolved, else the spec alias
    key -- the worker learns the true fingerprint while materializing and
    :meth:`resolve` passes it through to the waiters' results.
    """

    key: str
    problem: Optional[Problem]
    method: str
    options: Dict[str, Any]
    #: The declarative cell (spec-native submissions only).
    spec: Optional[ScenarioSpec] = None
    #: The cell's spec alias key (spec-native submissions only) -- the
    #: persistent dedup identity, kept so shard completion can write the
    #: alias entry and manifest cell without recomputing it.
    alias: Optional[str] = None
    #: ``(slot index, problem-as-submitted, spec-as-submitted, per-slot
    #: future)`` per waiter.  The spec is tracked per waiter, not taken
    #: from the entry: a spec-native waiter may deduplicate onto a
    #: problem-kind in-flight entry (same request fingerprint) and must
    #: still get its spec back on the result.
    waiters: List[Tuple[int, Optional[Problem], Optional[ScenarioSpec],
                        "asyncio.Future[SweepResult]"]] = \
        field(default_factory=list)

    def add_waiter(self, index: int, problem: Optional[Problem],
                   future: "asyncio.Future[SweepResult]",
                   spec: Optional[ScenarioSpec] = None) -> None:
        self.waiters.append((index, problem, spec, future))

    def abandoned(self) -> bool:
        """Has every waiter cancelled (nobody wants the answer anymore)?"""
        return all(future.cancelled() for _, _, _, future in self.waiters)

    def resolve(self, report: Optional[SolveReport], source: str,
                error: Optional[str], key: Optional[str] = None, *,
                payload: Optional[bytes] = None) -> None:
        """Deliver one outcome to every still-listening waiter.

        Each live waiter gets its own defensively-copied report (consumers
        may edit allocations in place; deduplicated slots must not alias)
        -- or, for a store hit, the stored report bytes ``payload``, which
        each result decodes on its own when read.  ``key`` overrides the
        recorded in-flight key in the delivered results (spec entries: the
        worker-reported request fingerprint).
        """
        for index, problem, spec, future in self.waiters:
            if future.done():  # cancelled (or already failed) waiters
                continue
            copy = None
            if report is not None:
                copy = _clone_report(report, from_cache=False)
            future.set_result(SweepResult(index=index,
                                          key=key if key is not None else self.key,
                                          problem=problem, report=copy,
                                          source=source, error=error,
                                          spec=spec, payload=payload))


@dataclass
class SubmitTicket:
    """What one ``await submit(scenarios, ...)`` call hands back.

    ``futures`` has one :class:`asyncio.Future` per scenario slot (batch
    order), each resolving to a :class:`~repro.engine.service.SweepResult`;
    ``per_key`` maps each distinct request key to the future of its first
    slot (the "futures per request key" view -- duplicate slots share the
    same underlying solve).  Failures resolve the future with a
    ``source="failed"`` result; the only exception a waiter sees is its own
    cancellation.
    """

    keys: List[str]
    futures: List["asyncio.Future[SweepResult]"]

    @property
    def per_key(self) -> Dict[str, "asyncio.Future[SweepResult]"]:
        """First slot future per distinct request key."""
        mapping: Dict[str, asyncio.Future] = {}
        for key, future in zip(self.keys, self.futures):
            mapping.setdefault(key, future)
        return mapping

    async def results(self) -> List[SweepResult]:
        """Await every slot and return the results in batch order."""
        return list(await asyncio.gather(*self.futures))

    async def reports(self) -> List[Optional[SolveReport]]:
        """Await every slot; the per-scenario reports (``None`` on failure)."""
        return [result.report for result in await self.results()]

    def cancel(self) -> int:
        """Cancel every unresolved slot future; returns how many were."""
        return sum(1 for future in self.futures if future.cancel())


class AsyncSweepService:
    """Concurrent, deduplicating, store-backed asyncio solve service.

    Parameters
    ----------
    store:
        Persistent :class:`SolutionStore` (or a directory path), defaulting
        to the engine's globally installed store; ``None`` without one.
    portfolio:
        The :class:`Portfolio` whose *persistent* pool runs the shards.
        Defaults to a process-pool portfolio owned (started and closed) by
        the service.
    limits:
        :class:`SolveLimits` baked into every request key and solve.
    max_concurrency:
        Maximum shards in flight on the pool at once (the semaphore bound);
        defaults to the portfolio's worker count.
    queue_size:
        Bound of the internal request queue; ``submit`` blocks (awaits)
        when it is full -- the backpressure contract.
    shard_size:
        Maximum scenarios batched into one executor task.  1 (default)
        optimises latency; larger values amortise pickling on throughput
        workloads.
    validate:
        Run certificate checks on computed solutions (part of the key).
    manifest:
        Optional path checkpointing completed request keys after every
        shard (see :func:`~repro.engine.service.write_manifest`); the store
        stays the source of truth on resume, exactly as for
        :class:`~repro.engine.service.SweepService`.
    durable:
        Fsync manifest checkpoints and open a path-constructed store with
        ``durable=True`` (see :class:`~repro.engine.store.SolutionStore`).
    runner_id:
        Optional stable name of this service inside a multi-runner
        cluster (see :mod:`repro.cluster`); reported by :meth:`snapshot`
        under ``"runner"`` so an aggregating router can attribute
        counters per runner.

    Notes
    -----
    The service is bound to the event loop that first runs it and is not
    thread-safe; share it between coroutines, not between loops.  Request
    keys are computed synchronously on the loop (they run the memoized
    structure probe), as are store lookups -- both are designed to be
    cheap, but extremely large DAGs pay their first probe inline.
    """

    def __init__(self, store: Union[SolutionStore, str, None] = None, *,
                 portfolio: Optional[Portfolio] = None,
                 limits: Optional[SolveLimits] = None,
                 max_concurrency: Optional[int] = None,
                 queue_size: int = 64,
                 shard_size: int = 1,
                 validate: bool = True,
                 manifest: Optional[str] = None,
                 durable: bool = False,
                 runner_id: Optional[str] = None):
        require(queue_size > 0, "queue_size must be positive")
        require(shard_size > 0, "shard_size must be positive")
        require(max_concurrency is None or max_concurrency > 0,
                "max_concurrency must be positive")
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
        self.max_concurrency = max_concurrency
        self.queue_size = queue_size
        self.shard_size = shard_size
        self.validate = validate
        self.manifest = manifest
        self.runner_id = runner_id
        self.stats = AsyncSweepStats()

        self._queue: Optional[asyncio.Queue] = None
        self._semaphore: Optional[asyncio.Semaphore] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._shard_tasks: set = set()
        self._inflight: Dict[str, _Inflight] = {}
        self._manifest_keys: List[str] = []
        self._manifest_done: set = set()
        #: Expanded consultation tokens (done tokens + per-cell
        #: keys/digests); what resume checks match against.
        self._manifest_tokens: set = set()
        #: v2 per-cell identities (``{alias: {"cell", "key"}}``) of every
        #: completed spec cell -- what a restarted deployment resumes from.
        self._manifest_cells: Dict[str, Dict[str, str]] = {}
        #: Prewarm state (:meth:`warm_cache`): alias key -> request
        #: fingerprint mappings learned from warmed alias entries, and the
        #: fingerprints whose reports were streamed into the tier-1 LRU.
        #: Only keys in ``_prewarmed_keys`` are answered from memory at
        #: submission time -- ordinary traffic keeps its store-first
        #: contract (and its store counters) unchanged.
        self._warm_keys: Dict[str, str] = {}
        self._prewarmed_keys: set = set()
        self._closed = False
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
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
        return self._closed

    def queue_depth(self) -> int:
        """Requests queued but not yet dispatched (0 before start)."""
        return self._queue.qsize() if self._queue is not None else 0

    def inflight_count(self) -> int:
        """Unique requests currently queued or solving."""
        return len(self._inflight)

    def snapshot(self) -> Dict[str, Any]:
        """One JSON-safe dict aggregating every counter a deployment has.

        The substrate of the ``metrics`` wire op in :mod:`repro.serve`
        (and of the load harness's before/after deltas in
        :mod:`repro.loadgen`): the service's rolling
        :class:`AsyncSweepStats` plus live queue/in-flight gauges under
        ``"service"``, the persistent store's work counters under
        ``"store"`` (``None`` without a store), the in-memory solution
        LRU under ``"lru"``, the batched-kernel counters (LP skeleton
        cache, warm-start totals, structure probes) under ``"kernels"``
        and the scenario DAG-build counters under ``"materializations"``.

        Every leaf is a number (or a short string), deliberately
        machine-independent: two runs doing the same work report the
        same snapshot deltas whatever the hardware, which is what lets
        the load report reconcile its client-side accounting against the
        server's own counters.
        """
        # Imported lazily: batch and core sit beside/below this module in
        # the engine layering and core's cache state is process-global.
        from repro.engine.batch import batch_kernel_info
        from repro.engine.core import solution_cache_info
        from repro.scenarios.spec import materialization_info

        service = vars(self.stats).copy()
        service["queue_depth"] = self.queue_depth()
        service["inflight"] = self.inflight_count()
        service["queue_size"] = self.queue_size
        lru = solution_cache_info()
        lru.pop("store", None)   # the service's own store is reported below
        lru.pop("lp", None)      # kernels carry the LP counters
        store = self.store
        return {
            "snapshot_schema": 1,
            "runner": self.runner_id,
            "service": service,
            "store": store.counters() if store is not None else None,
            "lru": lru,
            "kernels": batch_kernel_info(),
            "materializations": materialization_info(),
        }

    def warm_cache(self, ring: Any = None, owner: Optional[str] = None, *,
                   limit: Optional[int] = None) -> Dict[str, int]:
        """Bulk-load (part of) the store into the tier-1 LRU before traffic.

        The runner side of an elastic-resize warm handoff (the
        ``warm_cache`` wire op of :mod:`repro.serve`): with ``ring`` (any
        object with ``route(key) -> node``; the router ships a
        :class:`~repro.cluster.ring.HashRing` payload) and ``owner`` (this
        runner's name), only the entries whose route key lands on
        ``owner`` are streamed -- exactly the key range the runner is
        acquiring, via the decode-free
        :meth:`~repro.engine.store.SolutionStore.scan_routed` path.
        Without a ring the whole store is warmed (single-runner restarts).

        Report entries are decoded and installed in the LRU
        (:func:`~repro.engine.core.warm_solution_cache`); alias entries
        cost one dict insert each and let :meth:`submit_specs` resolve a
        spec straight to its warmed fingerprint.  Warmed keys are then
        answered with ``source="memory"`` at submission time, before any
        plan or store probe -- that is the "zero-recompute handoff": the
        first post-join sweep of a moved key range never leaves the
        process.  ``limit`` caps the number of reports installed (alias
        mappings are always collected; they are tiny).

        Synchronous and idempotent; call it before the runner takes
        traffic.  Returns ``{"warmed": installed, "aliases": learned}``.
        """
        store = self.store
        if store is None:
            return {"warmed": 0, "aliases": 0}
        if ring is not None:
            require(owner is not None,
                    "warm_cache(ring=...) needs the owner runner name")
            entries = store.scan_routed(ring, owner, include_aliases=True)
        else:
            entries = store.scan(include_aliases=True)
        reports: List[Tuple[str, SolveReport]] = []
        aliases = 0
        for key, payload in entries:
            if _is_alias_payload(payload):
                self._warm_keys[key] = payload["alias_of"]
                aliases += 1
                continue
            if limit is not None and len(reports) >= limit:
                continue
            try:
                report = report_from_payload(payload)
            except (KeyError, TypeError, ValueError):
                # A foreign/corrupt payload shape is a skip, not a fault:
                # the cell simply stays cold and the store still answers.
                continue
            reports.append((key, report))
        warmed = warm_solution_cache(reports)
        self._prewarmed_keys.update(key for key, _ in reports)
        self.stats.prewarmed += warmed
        self.stats.prewarmed_aliases += aliases
        return {"warmed": warmed, "aliases": aliases}

    async def start(self) -> "AsyncSweepService":
        """Warm the pool and start the dispatcher (idempotent)."""
        self._require_open()
        if self._started:
            return self
        if self._portfolio.pool is None:
            self._portfolio.start()
            self._started_pool = True
        concurrency = self.max_concurrency or self._portfolio.worker_count()
        self._queue = asyncio.Queue(maxsize=self.queue_size)
        self._semaphore = asyncio.Semaphore(concurrency)
        self._dispatcher = asyncio.create_task(self._dispatch_loop(),
                                               name="repro-async-sweep-dispatch")
        if self.manifest:
            state = load_manifest_state(self.manifest, ASYNC_MANIFEST_METHOD)
            self._manifest_done = state.done
            self._manifest_tokens = set(state.tokens)
            self._manifest_cells = dict(state.cells)
            self._manifest_keys = sorted(state.done)
        self._started = True
        return self

    @property
    def resume_cells(self) -> int:
        """Cells the loaded resume manifest already marks as completed.

        Zero until :meth:`start` reads the manifest (or when no manifest
        is configured); grows as further cells finish.
        """
        return len(self._manifest_done)

    async def __aenter__(self) -> "AsyncSweepService":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose()

    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "AsyncSweepService is closed; create a new service to "
                "submit further scenarios")

    def _record_manifest_cell(self, alias: str, digest: str, key: str) -> None:
        """Mark a spec cell done in the in-memory resume state.

        Flushed to disk by the next shard checkpoint (or :meth:`aclose`);
        until then the store itself still answers a restart, so nothing
        is lost if the process dies first.
        """
        if not self.manifest:
            return
        if alias not in self._manifest_done:
            self._manifest_done.add(alias)
            self._manifest_keys.append(alias)
        self._manifest_cells[alias] = {"cell": digest, "key": key}
        self._manifest_tokens.add(alias)
        self._manifest_tokens.add(digest)
        if key:
            self._manifest_tokens.add(key)

    async def drain(self) -> None:
        """Wait until everything queued and in flight has resolved."""
        if self._queue is not None:
            await self._queue.join()
        if self._shard_tasks:
            await asyncio.gather(*list(self._shard_tasks), return_exceptions=True)

    async def aclose(self) -> None:
        """Graceful shutdown: refuse new work, drain, checkpoint, close.

        Every already-accepted future resolves before the pool the service
        started is shut down; calling :meth:`aclose` twice is harmless.
        """
        if self._closed:
            return
        self._closed = True
        dispatcher_error: Optional[BaseException] = None
        try:
            await self.drain()
        finally:
            if self._dispatcher is not None:
                self._dispatcher.cancel()
                try:
                    await self._dispatcher
                except asyncio.CancelledError:
                    pass
                except Exception as exc:  # noqa: BLE001 - re-raised below
                    # A crashed dispatcher is the one diagnostic of why
                    # futures hung; finish cleanup, then surface it.
                    dispatcher_error = exc
                self._dispatcher = None
            if self.manifest:
                ok = write_manifest(self.manifest, ASYNC_MANIFEST_METHOD,
                                    sorted(self._manifest_keys),
                                    self._manifest_done, completed=True,
                                    cells=self._manifest_cells,
                                    durable=self.durable)
                if not ok:
                    self.stats.manifest_write_errors += 1
            if self._owns_portfolio or self._started_pool:
                self._portfolio.close()
                self._started_pool = False
        if dispatcher_error is not None:
            raise dispatcher_error

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    async def submit(self, scenarios: Sequence[Problem], method: str = "auto",
                     **options: Any) -> SubmitTicket:
        """Enqueue a scenario batch; returns futures per slot/request key.

        Resolution order per slot: share an in-flight solve (tier 0), then
        the persistent store (tier 2), else the request is queued --
        awaiting here is the backpressure point when the queue is full.
        ``options`` must be literal values
        (:func:`~repro.engine.core.request_key` raises otherwise).
        """
        self._require_open()
        await self.start()
        loop = asyncio.get_running_loop()
        problems = [normalize_problem(p) for p in scenarios]
        keys = [request_key(p, method, limits=self.limits,
                            validate=self.validate, **options)
                for p in problems]
        self.stats.batches += 1
        store = self.store
        futures: List[asyncio.Future] = []
        # One batched raw store read over the batch's unique keys that no
        # in-flight solve or prewarmed entry answers: duplicate slots share
        # the fetched bytes, and nothing is decoded on the event loop.
        wanted = [key for key in dict.fromkeys(keys)
                  if key not in self._inflight and key not in self._prewarmed_keys]
        fetched: Dict[str, Tuple[Optional[str], Optional[bytes]]] = (
            store.get_raw_many(wanted) if store is not None and wanted else {})
        for index, (key, problem) in enumerate(zip(keys, problems)):
            self.stats.requests += 1
            slot: asyncio.Future = loop.create_future()
            futures.append(slot)
            entry = self._inflight.get(key)
            if entry is not None:
                self.stats.deduped += 1
                entry.add_waiter(index, problem, slot)
                continue
            if key in self._prewarmed_keys:
                report = cached_solution(key)
                if report is not None:
                    self.stats.prewarm_hits += 1
                    if key in self._manifest_tokens:
                        self.stats.resumed += 1
                    slot.set_result(SweepResult(
                        index=index, key=key, problem=problem,
                        report=report, source="memory"))
                    continue
            if key not in fetched:
                # In flight when the batch was read (since resolved), or a
                # prewarmed entry the LRU has evicted: read it on its own.
                fetched.update(store.get_raw_many([key]) if store is not None
                               else {key: (None, None)})
            payload = fetched[key][1]
            if payload is not None:
                self.stats.store_hits += 1
                if key in self._manifest_tokens:
                    self.stats.resumed += 1
                slot.set_result(SweepResult(
                    index=index, key=key, problem=problem, report=None,
                    source="store", payload=payload))
                continue
            entry = _Inflight(key=key, problem=problem, method=method,
                              options=dict(options))
            entry.add_waiter(index, problem, slot)
            self._inflight[key] = entry
            try:
                # Backpressure: a full queue blocks the producer right here.
                await self._queue.put(entry)
            except asyncio.CancelledError:
                # The producer was cancelled at the backpressure point: the
                # entry never reached the queue, so nothing will ever
                # dispatch it.  Retract it -- leaving it in ``_inflight``
                # would dedup every future request for this key onto a dead
                # entry (a permanent hang).  Waiters that deduplicated onto
                # it while we blocked are failed, not hung.
                self._inflight.pop(key, None)
                entry.resolve(None, "failed",
                              "submission cancelled while waiting for queue space")
                raise
        return SubmitTicket(keys=keys, futures=futures)

    async def submit_specs(self, scenarios: Union[ScenarioGrid,
                                                  Sequence[ScenarioSpec]],
                           method: str = "auto",
                           **options: Any) -> SubmitTicket:
        """Enqueue declarative scenario cells; futures per slot, no DAGs.

        The spec-native counterpart of :meth:`submit`: ``scenarios`` is a
        :class:`~repro.scenarios.spec.ScenarioGrid` (expanded lazily) or a
        sequence of :class:`~repro.scenarios.spec.ScenarioSpec` records.
        Dedup, in-flight sharing and store lookups all happen **before
        materialization** -- a cell whose request fingerprint is already
        known (spec-key memo or persistent alias) is answered from the
        store without building its DAG; everything else is queued as a
        spec and materialized inside the worker shard that solves it.

        The ticket's ``keys`` carry each slot's request fingerprint when
        already resolved, else its spec alias key; delivered
        :class:`~repro.engine.service.SweepResult` objects always carry
        the true request fingerprint (learned from the worker), except for
        cells that failed before materializing.
        """
        self._require_open()
        await self.start()
        loop = asyncio.get_running_loop()
        if isinstance(scenarios, ScenarioGrid):
            scenarios = scenarios.expand()
        specs = list(scenarios)
        require(all(isinstance(s, ScenarioSpec) for s in specs),
                "submit_specs() wants ScenarioSpecs (or a ScenarioGrid); "
                "use submit() for materialized problems")
        self.stats.batches += 1
        store = self.store
        keys: List[str] = []
        futures: List[asyncio.Future] = []
        # The incremental planning tier: classify every unique cell of the
        # batch in one batched store pass (store-hit / alias-hit /
        # manifest-done / pending) before walking the slots.
        aliases = [spec_alias_key(spec, method, limits=self.limits,
                                  validate=self.validate, **options)
                   for spec in specs]
        # Prewarm tier: a cell whose alias was learned by warm_cache() and
        # whose report sits in the warmed LRU is answered from memory
        # before the plan is even built -- build_sweep_plan probes the
        # store per cell, so resolving here (not after) is what makes a
        # warm handoff skip the store round-trips too.
        warm_answers: Dict[str, Tuple[str, SolveReport]] = {}
        if self._warm_keys:
            for alias in aliases:
                if alias in warm_answers:
                    continue
                fingerprint = self._warm_keys.get(alias)
                if (fingerprint is None
                        or fingerprint not in self._prewarmed_keys):
                    continue
                report = cached_solution(fingerprint)
                if report is not None:
                    warm_answers[alias] = (fingerprint, report)
        unique: Dict[str, ScenarioSpec] = {}
        for alias, spec in zip(aliases, specs):
            if alias in warm_answers:
                continue
            unique.setdefault(alias, spec)
        plan = build_sweep_plan(list(unique.items()), method, store=store,
                                limits=self.limits, validate=self.validate,
                                manifest_done=self._manifest_tokens, **options)
        cell_by_alias = {cell.alias: cell for cell in plan.cells}
        for index, (alias, spec) in enumerate(zip(aliases, specs)):
            self.stats.requests += 1
            slot: asyncio.Future = loop.create_future()
            futures.append(slot)
            warm = warm_answers.get(alias)
            if warm is not None:
                fingerprint, warm_report = warm
                keys.append(fingerprint)
                self.stats.prewarm_hits += 1
                # The warmed answer carries everything a store hit would
                # have taught us: memoize spec -> fingerprint and mark the
                # manifest cell done, so restarts and grid diffs see it.
                record_spec_fingerprint(spec, fingerprint, method,
                                        limits=self.limits,
                                        validate=self.validate, **options)
                self._record_manifest_cell(alias, spec.cell_digest(),
                                           fingerprint)
                slot.set_result(SweepResult(
                    index=index, key=fingerprint, problem=None,
                    report=_clone_report(warm_report, from_cache=True,
                                         cache_tier="memory"),
                    source="memory", spec=spec))
                continue
            cell = cell_by_alias[alias]
            inflight_key = cell.key if cell.key is not None else alias
            keys.append(inflight_key)
            # Tier 0: share an in-flight solve -- under either identity
            # (an unresolved duplicate queued under its alias, or a
            # resolved one under its true fingerprint).
            entry_inflight = (self._inflight.get(inflight_key)
                              or self._inflight.get(alias))
            if entry_inflight is not None:
                self.stats.deduped += 1
                entry_inflight.add_waiter(index, None, slot, spec=spec)
                continue
            if cell.payload is not None:
                self.stats.store_hits += 1
                if cell.status == CELL_MANIFEST_DONE:
                    self.stats.resumed += 1
                self._record_manifest_cell(alias, cell.digest, cell.key or "")
                slot.set_result(SweepResult(
                    index=index, key=cell.key, problem=None, report=None,
                    source="store", spec=spec, payload=cell.payload))
                continue
            entry = _Inflight(key=inflight_key, problem=None, method=method,
                              options=dict(options), spec=spec, alias=alias)
            entry.add_waiter(index, None, slot, spec=spec)
            self._inflight[inflight_key] = entry
            try:
                # Backpressure: a full queue blocks the producer right here.
                await self._queue.put(entry)
            except asyncio.CancelledError:
                # Same retraction contract as submit(): an entry that never
                # reached the queue must not dedup future requests onto a
                # dead in-flight record.
                self._inflight.pop(inflight_key, None)
                entry.resolve(None, "failed",
                              "submission cancelled while waiting for queue space")
                raise
        return SubmitTicket(keys=keys, futures=futures)

    async def solve(self, problem: Problem, method: str = "auto",
                    **options: Any) -> SolveReport:
        """Submit one scenario and await its report (raises on failure)."""
        ticket = await self.submit([problem], method, **options)
        result = await ticket.futures[0]
        if result.report is None:
            raise ValidationError(f"async solve failed: {result.error}")
        return result.report

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _group_token(self, entry: _Inflight) -> str:
        # Spec entries and materialized entries never share a shard: the
        # executor task shapes differ (spec shards return key triples).
        kind = "spec" if entry.spec is not None else "problem"
        return f"{kind}|{entry.method}|{sorted(entry.options.items())!r}"

    async def _dispatch_loop(self) -> None:
        """Pop requests, batch compatible ones into shards, hand them to
        the pool.  Acquiring the semaphore *before* spawning the shard task
        stalls the popping itself, which fills the bounded queue, which
        blocks producers -- the backpressure chain end to end."""
        while True:
            entry = await self._queue.get()
            batch = [entry]
            while len(batch) < self.shard_size:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            groups: Dict[str, List[_Inflight]] = {}
            for item in batch:
                if item.abandoned():
                    self.stats.cancelled += 1
                    self._inflight.pop(item.key, None)
                    self._queue.task_done()
                    continue
                groups.setdefault(self._group_token(item), []).append(item)
            for shard in groups.values():
                await self._semaphore.acquire()
                task = asyncio.create_task(self._run_shard(shard))
                self._shard_tasks.add(task)
                task.add_done_callback(self._shard_tasks.discard)

    def _resolve_from_store(self, entry: _Inflight, key: str,
                            payload: bytes) -> None:
        """Answer one queued entry from a concurrently-written store row."""
        self.stats.store_hits += 1
        self.stats.dup_solves_avoided += 1
        if entry.spec is not None:
            record_spec_fingerprint(entry.spec, key, entry.method,
                                    limits=self.limits,
                                    validate=self.validate, **entry.options)
            if entry.alias is not None:
                self._record_manifest_cell(entry.alias,
                                           entry.spec.cell_digest(), key)
        entry.resolve(None, "store", None, key=key, payload=payload)

    async def _run_shard(self, entries: List[_Inflight]) -> None:
        """Solve one shard in the pool, persist, then resolve waiters.

        Persistence (store + manifest) happens strictly *before* any waiter
        is resolved, so a client that cancels or crashes the moment its
        future fires can never leave a computed result unpersisted.

        Before dispatching, the shard rechecks the store (one batched
        pass) and claims each still-cold cell: a cell another process
        solved since submission short-circuits to its report, and a cell
        another *live* process is solving right now is waited on
        (bounded by :data:`CLAIM_WAIT_SECONDS`) then re-read -- the
        cross-runner duplicate-compute fix, counted as
        ``dup_solves_avoided``.
        """
        loop = asyncio.get_running_loop()
        store = self.store
        claimed: List[str] = []
        try:
            spec_shard = entries[0].spec is not None
            to_solve: List[_Inflight] = entries
            if store is not None:
                to_solve = []
                contended: List[_Inflight] = []
                recheck = store.get_raw_many([e.key for e in entries])
                for entry in entries:
                    true_key, payload = recheck.get(entry.key, (None, None))
                    if payload is not None:
                        self._resolve_from_store(entry, true_key or entry.key,
                                                 payload)
                    elif store.claim_solve(entry.key):
                        claimed.append(entry.key)
                        to_solve.append(entry)
                    else:
                        contended.append(entry)
                if contended:
                    waited = 0.0
                    while (waited < CLAIM_WAIT_SECONDS
                           and any(store.solve_claim_holder(e.key) is not None
                                   for e in contended)):
                        await asyncio.sleep(_CLAIM_POLL_SECONDS)
                        waited += _CLAIM_POLL_SECONDS
                    recheck = store.get_raw_many([e.key for e in contended])
                    for entry in contended:
                        true_key, payload = recheck.get(entry.key, (None, None))
                        if payload is not None:
                            self._resolve_from_store(
                                entry, true_key or entry.key, payload)
                        else:
                            # Claimant died or overran the wait: solve it
                            # ourselves (correct, just not deduplicated).
                            to_solve.append(entry)
            if not to_solve:
                return
            self.stats.shards += 1
            try:
                if spec_shard:
                    fn, args = self._portfolio.spec_shard_task(
                        [e.spec for e in to_solve], to_solve[0].method,
                        validate=self.validate, **to_solve[0].options)
                else:
                    fn, args = self._portfolio.shard_task(
                        [e.problem for e in to_solve], to_solve[0].method,
                        validate=self.validate, **to_solve[0].options)
                raw = await loop.run_in_executor(self._portfolio.pool,
                                                 fn, *args)
            except asyncio.CancelledError:
                # Shutdown mid-flight: the executor work itself cannot be
                # interrupted (it will finish or die with the pool), but
                # nothing gets recorded as done and waiters learn why.
                for entry in to_solve:
                    entry.resolve(None, "failed", "service shut down")
                raise
            except Exception as exc:  # noqa: BLE001 - reported per request
                raw = None
                error_text = f"{type(exc).__name__}: {exc}"
            # Normalize both shard shapes to (true_key, report, error):
            # spec workers report each cell's request fingerprint learned
            # while materializing; problem shards already know theirs.
            if raw is None:
                outcomes = [(None, None, error_text)] * len(to_solve)
            elif spec_shard:
                outcomes = list(raw)
            else:
                outcomes = [(entry.key, report, error)
                            for entry, (report, error) in zip(to_solve, raw)]

            if store is not None:
                store.put_reports([(key, report)
                                   for key, report, _err in outcomes
                                   if report is not None])
                if spec_shard:
                    # Persist the spec->fingerprint aliases so future spec
                    # submissions resolve store keys without a DAG build.
                    store.put_many(
                        [(entry.alias, {"alias_of": key})
                         for entry, (key, report, _err) in zip(to_solve, outcomes)
                         if report is not None and entry.alias is not None])
            if spec_shard:
                for entry, (key, _report, _err) in zip(to_solve, outcomes):
                    if key is not None:
                        record_spec_fingerprint(entry.spec, key, entry.method,
                                                limits=self.limits,
                                                validate=self.validate,
                                                **entry.options)
            if self.manifest:
                fresh = False
                for entry, (key, report, _err) in zip(to_solve, outcomes):
                    if report is None:
                        continue
                    fresh = True
                    if entry.spec is not None and entry.alias is not None:
                        self._record_manifest_cell(
                            entry.alias, entry.spec.cell_digest(), key or "")
                    elif key is not None and key not in self._manifest_done:
                        self._manifest_done.add(key)
                        self._manifest_tokens.add(key)
                        self._manifest_keys.append(key)
                if fresh:
                    ok = write_manifest(self.manifest, ASYNC_MANIFEST_METHOD,
                                        sorted(self._manifest_keys),
                                        self._manifest_done,
                                        completed=False,
                                        cells=self._manifest_cells,
                                        durable=self.durable)
                    if not ok:
                        self.stats.manifest_write_errors += 1
            for entry, (key, report, error) in zip(to_solve, outcomes):
                if report is not None:
                    self.stats.computed += 1
                    entry.resolve(report, "computed", None, key=key)
                else:
                    self.stats.failed += 1
                    entry.resolve(None, "failed", error, key=key)
        finally:
            if store is not None:
                for key in claimed:
                    store.release_solve_claim(key)
            for entry in entries:
                self._inflight.pop(entry.key, None)
                self._queue.task_done()
            self._semaphore.release()
