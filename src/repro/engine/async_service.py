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
   (``loop.run_in_executor`` over :meth:`Portfolio.spec_shard_task`);
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
``sweep_spec`` wire op in :mod:`repro.serve`.  Both :meth:`submit` and
:meth:`submit_specs` run one submission routine over the sweep planner
(:func:`~repro.engine.plan.build_sweep_plan`), and every shard runs
through the same :class:`~repro.engine.service.ShardExecutor` as
:class:`~repro.engine.service.SweepService`.

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
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.engine.core import (
    Problem,
    SolveLimits,
    SolveReport,
    normalize_problem,
    request_key,
    solution_cache_capacity,
    warm_solution_cache,
)
from repro.engine.fingerprint import record_alias_fingerprint, spec_alias_key
from repro.engine.plan import PlannedCell, build_sweep_plan
from repro.engine.portfolio import Portfolio
from repro.engine.service import (CellOutcome, ResumeManifest, ShardExecutor,
                                  SweepFront, SweepResult, group_slots)
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

#: Source of each service's prewarm mark (see :meth:`AsyncSweepService.warm_cache`).
_PREWARM_TAGS = itertools.count(1)


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
    """One unique queued/solving cell and everyone waiting on it.

    Registered in the service's in-flight table under its plan identity
    and, once known, its request fingerprint too, so a spec submission and
    a materialized one of the same request share one solve.
    """

    cell: PlannedCell
    method: str
    options: Dict[str, Any]
    #: ``(slot index, problem-or-spec as submitted, per-slot future)`` per
    #: waiter.  The item is tracked per waiter, not taken from the entry:
    #: a spec-native waiter may deduplicate onto a problem-kind entry and
    #: must still get its spec back on the result.
    waiters: List[Tuple[int, Any, "asyncio.Future[SweepResult]"]] = \
        field(default_factory=list)

    @property
    def names(self) -> Tuple[str, ...]:
        """The in-flight table keys the entry is registered under."""
        return tuple({self.cell.identity, self.cell.key} - {None})

    def abandoned(self) -> bool:
        """Has every waiter cancelled (nobody wants the answer anymore)?"""
        return all(future.cancelled() for _, _, future in self.waiters)

    def resolve(self, outcome: CellOutcome) -> None:
        """Deliver one outcome to every still-listening waiter."""
        for index, item, future in self.waiters:
            if not future.done():  # cancelled (or already failed) waiters
                future.set_result(outcome.result(index, item))

    def fail(self, error: str) -> None:
        self.resolve(CellOutcome(self.cell, "failed",
                                 self.cell.key or self.cell.identity,
                                 error=error))


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


class AsyncSweepService(SweepFront):
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
        super().__init__(store, portfolio, limits, validate, durable)
        self.max_concurrency = max_concurrency
        self.queue_size = queue_size
        self.shard_size = shard_size
        self.manifest = manifest
        self.runner_id = runner_id
        self.stats = AsyncSweepStats()

        self._queue: Optional[asyncio.Queue] = None
        self._semaphore: Optional[asyncio.Semaphore] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._shard_tasks: set = set()
        self._inflight: Dict[str, _Inflight] = {}
        self._executor = ShardExecutor(self, self.stats)
        #: This service's mark on the LRU entries :meth:`warm_cache`
        #: installed (``None`` until it first warms): only those entries
        #: are answered from memory -- ordinary traffic keeps its
        #: store-first contract (and its store counters) unchanged.
        self._prewarm_tag: Optional[str] = None
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def queue_depth(self) -> int:
        """Requests queued but not yet dispatched (0 before start)."""
        return self._queue.qsize() if self._queue is not None else 0

    def inflight_count(self) -> int:
        """Unique requests currently queued or solving."""
        return len({id(entry) for entry in self._inflight.values()})

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

        Report entries are decoded and installed in the LRU under this
        service's prewarm mark (:func:`~repro.engine.core.warm_solution_cache`);
        alias entries go into the bounded spec-key memo and let
        :meth:`submit_specs` resolve a spec straight to its warmed
        fingerprint.  The planner then answers warmed keys with
        ``source="memory"`` before any store probe -- that is the
        "zero-recompute handoff": the first post-join sweep of a moved key
        range never leaves the process.  At most as many reports as the
        LRU holds are installed (more would evict the call's own first
        installs), and ``limit`` caps them further; the rest are not
        decoded.  Alias mappings are always collected; they are tiny.

        Synchronous and idempotent; call it before the runner takes
        traffic.  Returns ``{"warmed": installed, "aliases": learned}``;
        every installed report is still in the LRU when the call returns.
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
        room = solution_cache_capacity()
        if limit is not None:
            room = min(room, limit)
        reports: List[Tuple[str, SolveReport]] = []
        aliases = 0
        for key, payload in entries:
            if _is_alias_payload(payload):
                record_alias_fingerprint(key, payload["alias_of"])
                aliases += 1
                continue
            if len(reports) >= room:
                continue
            try:
                report = report_from_payload(payload)
            except (KeyError, TypeError, ValueError):
                # A foreign/corrupt payload shape is a skip, not a fault:
                # the cell simply stays cold and the store still answers.
                continue
            reports.append((key, report))
        if self._prewarm_tag is None:
            self._prewarm_tag = f"prewarm-{next(_PREWARM_TAGS)}"
        warmed = warm_solution_cache(reports, tag=self._prewarm_tag)
        self.stats.prewarmed += warmed
        self.stats.prewarmed_aliases += aliases
        return {"warmed": warmed, "aliases": aliases}

    async def start(self) -> "AsyncSweepService":
        """Warm the pool and start the dispatcher (idempotent)."""
        self._require_open()
        if self._started:
            return self
        self._warm_pool()
        concurrency = self.max_concurrency or self._portfolio.worker_count()
        self._queue = asyncio.Queue(maxsize=self.queue_size)
        self._semaphore = asyncio.Semaphore(concurrency)
        self._dispatcher = asyncio.create_task(self._dispatch_loop(),
                                               name="repro-async-sweep-dispatch")
        if self.manifest:
            self._executor.manifest = ResumeManifest(
                self.manifest, ASYNC_MANIFEST_METHOD, durable=self.durable)
        self._started = True
        return self

    @property
    def resume_cells(self) -> int:
        """Cells the loaded resume manifest already marks as completed.

        Zero until :meth:`start` reads the manifest (or when no manifest
        is configured); grows as further cells finish.
        """
        manifest = self._executor.manifest
        return len(manifest.done) if manifest is not None else 0

    async def __aenter__(self) -> "AsyncSweepService":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose()

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
            self._executor.checkpoint(completed=True)
            self._close_pool()
        if dispatcher_error is not None:
            raise dispatcher_error

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    async def submit(self, scenarios: Sequence[Problem], method: str = "auto",
                     **options: Any) -> SubmitTicket:
        """Enqueue a scenario batch; returns futures per slot/request key.

        Resolution order per slot: share an in-flight solve (tier 0), then
        prewarmed memory and the persistent store (tier 2), else the
        request is queued -- awaiting here is the backpressure point when
        the queue is full.  ``options`` must be literal values
        (:func:`~repro.engine.core.request_key` raises otherwise).
        """
        self._require_open()
        return await self._submit([normalize_problem(p) for p in scenarios],
                                  method, options)

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
        if isinstance(scenarios, ScenarioGrid):
            scenarios = scenarios.expand()
        specs = list(scenarios)
        require(all(isinstance(s, ScenarioSpec) for s in specs),
                "submit_specs() wants ScenarioSpecs (or a ScenarioGrid); "
                "use submit() for materialized problems")
        return await self._submit(specs, method, options)

    async def _submit(self, items: List[Any], method: str,
                      options: Dict[str, Any]) -> SubmitTicket:
        """The submission routine behind :meth:`submit` and :meth:`submit_specs`.

        Slots are grouped by plan identity (a spec's alias, a problem's
        request key); a group shares an in-flight solve if one exists,
        the rest are classified in one batched plan (prewarmed memory,
        spec-key memo, store), and each still-pending group is queued as
        one entry.  Every slot after a group's first counts as
        ``deduped``.
        """
        await self.start()
        loop = asyncio.get_running_loop()
        groups = group_slots([
            spec_alias_key(item, method, limits=self.limits,
                           validate=self.validate, **options)
            if isinstance(item, ScenarioSpec)
            else request_key(item, method, limits=self.limits,
                             validate=self.validate, **options)
            for item in items])
        self.stats.batches += 1
        self.stats.requests += len(items)
        futures: List[asyncio.Future] = [loop.create_future() for _ in items]
        keys: List[str] = [""] * len(items)

        def attach(entry: _Inflight, identity: str, owner: bool = False) -> None:
            # Every slot of the group waits on the entry; all but the
            # owner's first slot count as deduplicated.
            slots = groups[identity]
            self.stats.deduped += len(slots) - owner
            for index in slots:
                keys[index] = entry.cell.key or identity
                entry.waiters.append((index, items[index], futures[index]))

        fresh: List[Tuple[str, Any]] = []
        for identity, slots in groups.items():
            entry = self._inflight.get(identity)
            if entry is not None:
                attach(entry, identity)  # tier 0: share the in-flight solve
            else:
                fresh.append((identity, items[slots[0]]))
        manifest = self._executor.manifest
        plan = build_sweep_plan(
            fresh, method, store=self.store, limits=self.limits,
            validate=self.validate,
            manifest_done=manifest.tokens if manifest is not None else None,
            prewarm_tag=self._prewarm_tag, **options)
        for cell in plan.done:
            outcome = self._executor.answered(cell)
            slots = groups[cell.identity]
            self.stats.deduped += len(slots) - 1
            for index in slots:
                keys[index] = outcome.key
                futures[index].set_result(outcome.result(index, items[index]))
        for cell in plan.pending:
            # Re-checked here, not only before planning: a concurrent
            # submission may have queued the cell while we awaited queue
            # space -- under its identity, or (spec vs. problem) its key.
            entry = self._inflight.get(cell.identity) or self._inflight.get(cell.key or "")
            if entry is not None:
                attach(entry, cell.identity)
                continue
            entry = _Inflight(cell=cell, method=method, options=dict(options))
            attach(entry, cell.identity, owner=True)
            for name in entry.names:
                self._inflight[name] = entry
            try:
                # Backpressure: a full queue blocks the producer right here.
                await self._queue.put(entry)
            except asyncio.CancelledError:
                # The producer was cancelled at the backpressure point: the
                # entry never reached the queue, so nothing will ever
                # dispatch it.  Retract it -- leaving it in ``_inflight``
                # would dedup every future request for this cell onto a
                # dead entry (a permanent hang).  Waiters that
                # deduplicated onto it while we blocked are failed, not
                # hung.
                self._retract(entry)
                entry.fail("submission cancelled while waiting for queue space")
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
    def _retract(self, entry: _Inflight) -> None:
        for name in entry.names:
            if self._inflight.get(name) is entry:
                del self._inflight[name]

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
                    self._retract(item)
                    self._queue.task_done()
                    continue
                token = f"{item.method}|{sorted(item.options.items())!r}"
                groups.setdefault(token, []).append(item)
            for shard in groups.values():
                await self._semaphore.acquire()
                task = asyncio.create_task(self._run_shard(shard))
                self._shard_tasks.add(task)
                task.add_done_callback(self._shard_tasks.discard)

    async def _run_shard(self, entries: List[_Inflight]) -> None:
        """Solve one shard in the pool, persist, then resolve waiters.

        Persistence (store + manifest) happens strictly *before* any waiter
        is resolved (:meth:`ShardExecutor.persist
        <repro.engine.service.ShardExecutor.persist>`), so a client that
        cancels or crashes the moment its future fires can never leave a
        computed result unpersisted.

        Before dispatching, the shard rechecks the store (one batched
        pass) and claims each still-cold cell: a cell another process
        solved since submission short-circuits to its report, and a cell
        another *live* process is solving right now is waited on
        (bounded by :data:`CLAIM_WAIT_SECONDS`) then re-read -- the
        cross-runner duplicate-compute fix, counted as
        ``dup_solves_avoided``.
        """
        loop = asyncio.get_running_loop()
        executor = self._executor
        store = executor.store
        by_identity = {entry.cell.identity: entry for entry in entries}
        claimed: List[PlannedCell] = []
        try:
            answered, pending = executor.reread([e.cell for e in entries])
            claimed, contended = executor.claim(pending)
            if contended:
                waited = 0.0
                while (waited < CLAIM_WAIT_SECONDS
                       and any(store.solve_claim_holder(cell.identity) is not None
                               for cell in contended)):
                    await asyncio.sleep(_CLAIM_POLL_SECONDS)
                    waited += _CLAIM_POLL_SECONDS
                # Claimant died or overran the wait: whatever it did not
                # store we solve ourselves (correct, just not deduplicated).
                more, contended = executor.reread(contended)
                answered += more
            for outcome in answered:
                by_identity[outcome.cell.identity].resolve(outcome)
            to_solve = claimed + contended
            if not to_solve:
                return
            method, options = entries[0].method, entries[0].options
            try:
                fn, args = executor.task(to_solve, method, options)
                triples = await loop.run_in_executor(self._portfolio.pool,
                                                     fn, *args)
            except asyncio.CancelledError:
                # Shutdown mid-flight: the executor work itself cannot be
                # interrupted (it will finish or die with the pool), but
                # nothing gets recorded as done and waiters learn why.
                for cell in to_solve:
                    by_identity[cell.identity].fail("service shut down")
                raise
            except Exception as exc:  # noqa: BLE001 - reported per request
                triples = [(None, None, f"{type(exc).__name__}: {exc}")] * len(to_solve)
            for outcome in executor.persist(to_solve, triples):
                by_identity[outcome.cell.identity].resolve(outcome)
        finally:
            executor.release(claimed)
            for entry in entries:
                self._retract(entry)
                self._queue.task_done()
            self._semaphore.release()
