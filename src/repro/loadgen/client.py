"""Open-loop JSON-lines load client for a live :class:`SweepServer`.

The client replays an :class:`~repro.loadgen.arrivals.ArrivalSchedule`
against a running ``python -m repro.serve`` instance: ``connections``
persistent JSON-lines connections, each arrival fired *at its scheduled
time* (open-loop -- a slow server never slows the arrival process, it
just accumulates in-flight requests) as a single-cell ``sweep_spec``
request.  Per request it records

* **latency** -- send to terminating ``done`` line, wall seconds;
* **outcome** -- report delivered / solve failed / admission-rejected /
  connection lost / timed out;
* **stream integrity** -- exactly one per-cell line and a ``done`` line
  with the right count must arrive, in-order reassembly is checked.

Chaos mode (:class:`~repro.loadgen.chaos.ChaosConfig`) replaces selected
arrivals with wire faults on throwaway connections, so a chaos run
exercises the server's degradation paths *while* normal traffic flows on
the persistent connections.

Cluster mode (``cluster=[RunnerAddress, ...]``) drives a whole
:mod:`repro.cluster` deployment instead of one server: the client keeps
one persistent connection per runner and routes every arrival on the same
consistent-hash ring the cluster router uses (key: the cell's spec
digest), so each cell's traffic lands on the runner whose caches are warm
for it; :func:`run_load` then polls and aggregates ``metrics`` across all
runners, and the report reconciles against the cluster-wide sums.

The module also owns :func:`run_load` -- the one-call harness used by
``python -m repro.loadgen``, the benchmark and the tests: poll the
``metrics`` op, replay the schedule, poll again, and hand both snapshots
to :func:`repro.loadgen.report.build_report` so the report can reconcile
client-side accounting against the server's own counters.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.cluster.ring import HashRing
from repro.cluster.runners import RunnerAddress
from repro.loadgen.arrivals import ArrivalSchedule
from repro.loadgen.chaos import (
    FAULT_DISCONNECT,
    FAULT_MALFORMED,
    ChaosConfig,
    malformed_line,
    oversized_line,
)
from repro.loadgen.report import LoadReport, build_report
from repro.scenarios import ScenarioGrid, ScenarioSpec
from repro.serve import LineConnection, request_metrics
from repro.utils.validation import ValidationError, require

__all__ = ["LoadClient", "RequestOutcome", "run_load"]


@dataclass
class RequestOutcome:
    """What one replayed arrival came back as."""

    #: Arrival index in the schedule.
    index: int
    #: Cell index the arrival asked for (-1 for pure wire faults).
    cell: int
    #: ``"sweep"`` for normal traffic, else the injected fault kind.
    kind: str
    #: A report was delivered for the cell.
    ok: bool
    #: The server refused the sweep at its admission limit.
    rejected: bool
    #: Send-to-``done`` wall seconds (faults: send-to-error-line).
    latency_s: float
    #: ``"computed"`` / ``"store"`` from the per-cell line (ok only).
    source: Optional[str] = None
    #: The cell's request fingerprint from the per-cell line (ok only).
    key: Optional[str] = None
    #: Failure/rejection/fault detail.
    error: Optional[str] = None


class LoadClient:
    """Replays arrival schedules against one server (see module docs).

    ``time_scale`` multiplies every scheduled arrival time (0 fires the
    whole schedule as fast as the event loop allows -- maximum stress,
    no realism; 1.0 replays in real time).  ``options`` and ``method``
    are passed through to every ``sweep_spec`` request and therefore
    become part of each cell's request fingerprint.

    With ``cluster=`` the client targets N runners instead of one
    server: one persistent connection per runner, each arrival routed by
    consistent hash of its cell's spec digest (``connections`` is then
    ignored -- the cluster topology decides the connection count).

    Cluster membership is **live**: :meth:`add_runner` and
    :meth:`remove_runner` may be called while :meth:`run` is replaying
    (from another task on the same loop).  Arrivals fired after the call
    route on the resized ring; a removed runner's in-flight requests
    finish on their existing connection, which is retired -- closed at
    the end of the replay, not yanked -- so a graceful leave never
    manufactures client-visible failures.
    """

    def __init__(self, *, host: str = "127.0.0.1",
                 port: Optional[int] = None,
                 unix_socket: Optional[str] = None,
                 connections: int = 4,
                 method: str = "auto",
                 options: Optional[Dict[str, Any]] = None,
                 time_scale: float = 1.0,
                 request_timeout: float = 60.0,
                 chaos: Optional[ChaosConfig] = None,
                 cluster: Optional[Sequence[RunnerAddress]] = None):
        require(connections >= 1, "the load client needs >= 1 connection")
        require(time_scale >= 0, "time_scale must be >= 0")
        require(request_timeout > 0, "request_timeout must be positive")
        require(port is not None or unix_socket is not None
                or cluster is not None,
                "LoadClient needs port=, unix_socket= or cluster=")
        self.cluster = list(cluster) if cluster is not None else None
        self._ring: Optional[HashRing] = None
        #: Live per-runner connections while a cluster replay is running
        #: (``None`` outside :meth:`run`); :meth:`remove_runner` parks a
        #: leaver's connection in ``_retired`` until the replay ends.
        self._by_runner: Optional[Dict[str, LineConnection]] = None
        self._retired: List[LineConnection] = []
        if self.cluster is not None:
            require(len(self.cluster) >= 1, "cluster= needs >= 1 runner")
            names = [r.name for r in self.cluster]
            require(len(set(names)) == len(names),
                    f"duplicate runner names: {sorted(names)}")
            self._ring = HashRing(names)
        self.host = host
        self.port = port
        self.unix_socket = unix_socket
        self.connections = connections
        self.method = method
        self.options = dict(options or {})
        self.time_scale = time_scale
        self.request_timeout = request_timeout
        self.chaos = chaos

    async def _open(self, address: Optional[RunnerAddress] = None
                    ) -> LineConnection:
        if address is not None:
            return await LineConnection.open(**address.client_kwargs)
        return await LineConnection.open(host=self.host, port=self.port,
                                         unix_socket=self.unix_socket)

    def _route(self, spec: ScenarioSpec) -> str:
        """The owning runner's name for one cell (cluster mode only)."""
        assert self._ring is not None
        return self._ring.route(spec.cell_digest())

    # -- live membership -----------------------------------------------
    async def add_runner(self, address: RunnerAddress) -> None:
        """Join one runner mid-replay (or before it): resize the client
        ring and, if a replay is live, open its persistent connection now
        so the very next arrival can route to it.

        Call this *after* the cluster router has prewarmed/admitted the
        runner (:meth:`ClusterClient.add_runner
        <repro.cluster.router.ClusterClient.add_runner>`), so traffic
        only shifts once the runner is warm.
        """
        require(self.cluster is not None,
                "add_runner needs a cluster-mode client")
        assert self._ring is not None
        require(address.name not in {r.name for r in self.cluster},
                f"runner {address.name!r} is already in the cluster")
        if self._by_runner is not None:
            self._by_runner[address.name] = await self._open(address)
        self.cluster.append(address)
        self._ring.add(address.name)

    def remove_runner(self, name: str) -> None:
        """Retire one runner mid-replay: resize the ring so no *new*
        arrival routes to it; its in-flight requests finish on the
        existing connection, which is closed when the replay ends.
        """
        require(self.cluster is not None,
                "remove_runner needs a cluster-mode client")
        assert self._ring is not None
        require(name in {r.name for r in self.cluster},
                f"unknown runner {name!r}")
        require(len(self.cluster) > 1,
                "cannot remove the last runner from the cluster")
        self.cluster = [r for r in self.cluster if r.name != name]
        self._ring.remove(name)
        if self._by_runner is not None:
            self._retired.append(self._by_runner.pop(name))

    # ------------------------------------------------------------------
    async def run(self, schedule: ArrivalSchedule,
                  specs: Sequence[ScenarioSpec]) -> List[RequestOutcome]:
        """Replay ``schedule`` over ``specs``; outcomes in arrival order.

        ``specs`` is the cell universe: arrival ``cell`` indexes into it
        (build it from the same grid every run -- expansion order is
        deterministic -- and fingerprints line up across runs and with
        in-process sweeps).
        """
        specs = list(specs)
        require(schedule.num_cells <= len(specs),
                f"schedule addresses {schedule.num_cells} cells but only "
                f"{len(specs)} specs were provided")
        if self.cluster is not None:
            # One persistent connection per runner; arrivals route by the
            # cell's ring placement (the cluster router's placement law),
            # so each cell's traffic keeps hitting its warm runner.  The
            # map lives on the instance so add_runner/remove_runner can
            # resize it mid-replay.
            self._by_runner = {address.name: await self._open(address)
                               for address in self.cluster}

            def pick(index: int, cell: int) -> LineConnection:
                assert self._by_runner is not None
                return self._by_runner[self._route(specs[cell])]
        else:
            conns = [await self._open() for _ in range(self.connections)]

            def pick(index: int, cell: int) -> LineConnection:
                return conns[index % len(conns)]
        loop = asyncio.get_running_loop()
        started = loop.time()
        tasks: List[asyncio.Task] = []
        try:
            for index, arrival in enumerate(schedule.arrivals):
                delay = (started + arrival.time * self.time_scale
                         - loop.time())
                if delay > 0:
                    await asyncio.sleep(delay)
                fault = (self.chaos.fault_for(index)
                         if self.chaos is not None else None)
                if fault is not None:
                    coro = self._fire_fault(index, arrival.cell, fault,
                                            specs)
                else:
                    coro = self._fire_sweep(pick(index, arrival.cell),
                                            index, arrival.cell,
                                            specs[arrival.cell])
                tasks.append(asyncio.create_task(coro))
            outcomes = list(await asyncio.gather(*tasks))
        finally:
            for task in tasks:
                task.cancel()
            if self.cluster is not None:
                live = self._by_runner or {}
                conns = list(live.values()) + self._retired
                self._by_runner = None
                self._retired = []
            for conn in conns:
                await conn.aclose()
        outcomes.sort(key=lambda outcome: outcome.index)
        return outcomes

    # -- normal traffic ------------------------------------------------
    async def _fire_sweep(self, conn: LineConnection, index: int, cell: int,
                          spec: ScenarioSpec) -> RequestOutcome:
        payload = {"op": "sweep_spec", "id": f"lg-{index}",
                   "specs": [spec.to_payload()],
                   "method": self.method, "options": self.options}
        slots: List[Dict[str, Any]] = []
        start = time.perf_counter()
        try:
            reply = await asyncio.wait_for(
                conn.request(payload, on_line=slots.append),
                self.request_timeout)
        except asyncio.TimeoutError:
            return RequestOutcome(index=index, cell=cell, kind="sweep",
                                  ok=False, rejected=False,
                                  latency_s=time.perf_counter() - start,
                                  error=f"timed out after "
                                        f"{self.request_timeout}s")
        except (ConnectionError, OSError, ValidationError) as exc:
            return RequestOutcome(index=index, cell=cell, kind="sweep",
                                  ok=False, rejected=False,
                                  latency_s=time.perf_counter() - start,
                                  error=f"connection lost: {exc}")
        latency = time.perf_counter() - start
        return self._classify(index, cell, slots, reply, latency)

    @staticmethod
    def _classify(index: int, cell: int, slots: List[Dict[str, Any]],
                  reply: Dict[str, Any], latency: float) -> RequestOutcome:
        """Turn one request's slot lines and final reply into a
        :class:`RequestOutcome`."""
        if reply.get("rejected"):
            return RequestOutcome(index=index, cell=cell, kind="sweep",
                                  ok=False, rejected=True, latency_s=latency,
                                  error=reply.get("error"))
        if reply.get("error"):
            return RequestOutcome(index=index, cell=cell, kind="sweep",
                                  ok=False, rejected=False, latency_s=latency,
                                  error=f"request error: {reply['error']}")
        if not reply.get("done") or len(slots) != 1 \
                or reply.get("count") != 1 or slots[0].get("index") != 0:
            return RequestOutcome(
                index=index, cell=cell, kind="sweep", ok=False,
                rejected=False, latency_s=latency,
                error=f"stream integrity: {len(slots)} slot lines, "
                      f"done={reply!r}")
        slot = slots[0]
        if slot.get("report") is None:
            return RequestOutcome(index=index, cell=cell, kind="sweep",
                                  ok=False, rejected=False, latency_s=latency,
                                  source=slot.get("source"),
                                  key=slot.get("key"),
                                  error=slot.get("error") or "solve failed")
        return RequestOutcome(index=index, cell=cell, kind="sweep", ok=True,
                              rejected=False, latency_s=latency,
                              source=slot.get("source"),
                              key=slot.get("key"))

    # -- chaos traffic -------------------------------------------------
    async def _fire_fault(self, index: int, cell: int, fault: str,
                          specs: Sequence[ScenarioSpec]) -> RequestOutcome:
        """Inject one wire fault on a throwaway connection.

        Malformed/oversized lines expect the server's structured error
        back (the connection surviving is the server's part of the
        contract; the matrix tests assert it).  Disconnects start a real
        sweep and vanish without reading.
        """
        start = time.perf_counter()
        address = None
        if self.cluster is not None:
            # Faults follow the same placement as real traffic: a chaos
            # disconnect's sweep must land on the cell's owning runner.
            address = next(a for a in self.cluster
                           if a.name == self._route(specs[cell]))
        try:
            conn = await self._open(address)
        except (ConnectionError, OSError) as exc:
            return RequestOutcome(index=index, cell=-1, kind=fault, ok=False,
                                  rejected=False,
                                  latency_s=time.perf_counter() - start,
                                  error=f"connect failed: {exc}")
        error: Optional[str] = None
        try:
            if fault == FAULT_DISCONNECT:
                await conn.send({"op": "sweep_spec", "id": f"lg-{index}",
                                 "specs": [specs[cell].to_payload()],
                                 "method": self.method,
                                 "options": self.options})
                # vanish mid-stream: no reads, just drop the connection
            else:
                raw = (malformed_line() if fault == FAULT_MALFORMED
                       else oversized_line(self.chaos.oversize_bytes))
                # the error line comes back under id null
                await asyncio.wait_for(conn.request(raw), self.request_timeout)
        except asyncio.TimeoutError:
            error = "no protocol-error response before timeout"
        except (ConnectionError, OSError, ValidationError) as exc:
            error = f"connection lost mid-fault: {exc}"
        finally:
            await conn.aclose()
        return RequestOutcome(
            index=index, cell=cell if fault == FAULT_DISCONNECT else -1,
            kind=fault, ok=error is None, rejected=False,
            latency_s=time.perf_counter() - start, error=error)


# ---------------------------------------------------------------------------
# the one-call harness
# ---------------------------------------------------------------------------

async def _poll_metrics(host: str, port: Optional[int],
                        unix_socket: Optional[str],
                        cluster: Optional[Sequence[RunnerAddress]]
                        ) -> Dict[str, Any]:
    """One ``metrics`` snapshot: a single server's, or the cluster sum."""
    if cluster is None:
        return await request_metrics(host=host, port=port,
                                     unix_socket=unix_socket)
    # Imported lazily: the router sits above this module in the layering
    # (it routes *sweeps*; the load client only borrows its aggregation).
    from repro.cluster.router import aggregate_metrics

    snapshots = {address.name: await request_metrics(**address.client_kwargs)
                 for address in cluster}
    return aggregate_metrics(snapshots)


async def run_load(schedule: ArrivalSchedule,
                   scenarios: Union[ScenarioGrid, Sequence[ScenarioSpec]], *,
                   host: str = "127.0.0.1", port: Optional[int] = None,
                   unix_socket: Optional[str] = None,
                   connections: int = 4, method: str = "auto",
                   options: Optional[Dict[str, Any]] = None,
                   time_scale: float = 1.0, request_timeout: float = 60.0,
                   chaos: Optional[ChaosConfig] = None,
                   cluster: Optional[Sequence[RunnerAddress]] = None
                   ) -> LoadReport:
    """Metrics-before -> replay -> metrics-after -> reconciled report.

    The returned :class:`~repro.loadgen.report.LoadReport` embeds the
    server's full ``metrics`` snapshot and the before/after counter
    deltas alongside the client-side percentiles, so one object answers
    both "what did clients see" and "what did the server actually do".
    With ``cluster=`` the replay routes across the runners (see
    :class:`LoadClient`) and both snapshots are the cluster-wide
    aggregates -- the reconciliation then checks the *sum* of every
    runner's counters against the client's accounting.
    """
    specs = (list(scenarios.expand())
             if isinstance(scenarios, ScenarioGrid) else list(scenarios))
    client = LoadClient(host=host, port=port, unix_socket=unix_socket,
                        connections=connections, method=method,
                        options=options, time_scale=time_scale,
                        request_timeout=request_timeout, chaos=chaos,
                        cluster=cluster)
    before = await _poll_metrics(host, port, unix_socket, cluster)
    start = time.perf_counter()
    outcomes = await client.run(schedule, specs)
    wall = time.perf_counter() - start
    after = await _poll_metrics(host, port, unix_socket, cluster)
    return build_report(schedule, outcomes, before, after, wall)
