"""The cluster router: placement, fan-out, failover, metric aggregation.

:class:`ClusterClient` is the client-side library form -- callers that
already speak :func:`repro.serve.request_sweep_spec` get the same call
shape against N runners.  One sweep is routed cell-by-cell on a
:class:`~repro.cluster.ring.HashRing` over the runner *names* (the key is
the spec's content digest, so the same cell always lands on the runner
whose LRU and LP-skeleton caches already saw it), fanned out as one
``sweep_spec`` sub-request per runner, and reassembled in expansion order
as the per-cell lines stream back.  A runner that dies mid-sweep fails
over: its *unanswered* cells are re-routed to the next runner in each
cell's ring preference order (deterministic -- exactly where the ring
would place them if the dead runner had left), and the shared
:class:`~repro.engine.store.SolutionStore` makes the recovery cheap --
whatever the dead runner persisted before dying is answered from the
store, not recomputed.

:class:`RouterServer` wraps the same client as a standalone JSON-lines
front (``python -m repro.cluster``), so unmodified single-server clients
(the load harness included) talk to the whole cluster through one socket.

``metrics`` aggregates across runners: :func:`aggregate_metrics` sums
every numeric counter leaf key-by-key and keeps the per-runner snapshots
under ``"runners"`` -- the aggregate has the exact shape one runner's
snapshot has, so everything downstream (the load report's reconciliation,
the benchmark gates) works unchanged against a cluster.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.cluster.ring import (DEFAULT_VNODES, HashRing, moved_key_subset,
                                moved_keys)
from repro.cluster.runners import RunnerAddress
from repro.engine.core import Problem, SolveLimits
from repro.engine.fingerprint import spec_alias_key
from repro.engine.plan import build_sweep_plan
from repro.engine.service import group_slots
from repro.engine.store import SolutionStore
from repro.scenarios import ScenarioGrid, ScenarioSpec
from repro.serve import PROTOCOL_VERSION, parse_sweep_request, problem_to_payload
from repro.utils.validation import ValidationError, require

__all__ = ["ClusterClient", "ClusterStats", "RouterServer",
           "aggregate_metrics", "spec_route_key", "payload_route_key"]

#: ``on_line`` callback: ``(global cell index, per-cell response line)``.
LineCallback = Callable[[int, Dict[str, Any]], Any]


def spec_route_key(spec: ScenarioSpec) -> str:
    """The ring key of one declarative cell: its content digest.

    Deliberately *not* the request fingerprint: the digest needs no DAG
    build and no method/limits context, and it is exactly as stable --
    the same cell payload routes identically from every client process.
    """
    return spec.cell_digest()


def payload_route_key(payload: Dict[str, Any]) -> str:
    """The ring key of one materialized problem payload (content hash)."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class ClusterStats:
    """Rolling counters of one :class:`ClusterClient` lifetime."""

    #: Sweep calls served.
    requests: int = 0
    #: Cells routed (duplicates included).
    cells: int = 0
    #: Cells shipped over the cluster wire (= routed cells; kept as its
    #: own counter so incremental-sweep gates can pin it to 0).
    wire_cells: int = 0
    #: Cells answered client-side from the shared store by the planning
    #: tier -- never shipped to any runner.
    planned_local: int = 0
    #: Cells answered by their ring-primary runner.
    primary_cells: int = 0
    #: Cells re-routed to a failover runner after a runner failure.
    reroutes: int = 0
    #: Runner connection failures observed (connect, mid-stream, timeout).
    runner_errors: int = 0
    #: ``metrics`` aggregation polls served.
    metrics_polls: int = 0
    #: Resize epoch: the full-membership ring's version (0 until the
    #: first live :meth:`ClusterClient.add_runner` / ``remove_runner``).
    ring_version: int = 0
    #: Cells of the most recent sweep whose owner changed across resizes
    #: -- the live measure of the ring's minimal-movement property
    #: (:func:`~repro.cluster.ring.moved_keys` over the retained keys).
    cells_moved: int = 0
    #: Cells answered from a runner's prewarmed memory tier
    #: (``source: "memory"``) -- the warm-handoff payoff counter.
    prewarm_hits: int = 0

    def affinity(self) -> float:
        """Fraction of cells answered by their ring primary (1.0 if none)."""
        return self.primary_cells / self.cells if self.cells else 1.0


class ClusterClient:
    """Consistent-hash router over N serve runners (see module docstring).

    Parameters
    ----------
    runners:
        The runner endpoints.  Ring placement depends only on each
        runner's ``name``; keep names stable across restarts.
    vnodes:
        Virtual nodes per runner on the ring.
    request_timeout:
        Seconds one runner sub-request may take end to end before it is
        treated as a runner failure (and its cells fail over).
    store:
        Optional handle on (or path to) the cluster's **shared**
        :class:`~repro.engine.store.SolutionStore` root.  With it, spec
        sweeps run the incremental planning tier client-side
        (:func:`~repro.engine.plan.build_sweep_plan`): cells the shared
        store already answers are delivered locally (``planned_local``)
        and only pending cells ship over the wire (``wire_cells``).
        Without it every cell routes as before.
    limits / validate:
        The solve context the runners use, baked into every plan lookup
        -- they must match the runners' own configuration or the
        client-side plan simply misses (correct, just not incremental).
    """

    def __init__(self, runners: Sequence[RunnerAddress], *,
                 vnodes: int = DEFAULT_VNODES,
                 request_timeout: float = 60.0,
                 store: Union[SolutionStore, str, None] = None,
                 limits: Optional[SolveLimits] = None,
                 validate: bool = True):
        runners = list(runners)
        require(len(runners) >= 1, "a cluster client needs >= 1 runner")
        names = [r.name for r in runners]
        require(len(set(names)) == len(names),
                f"duplicate runner names: {sorted(names)}")
        require(request_timeout > 0, "request_timeout must be positive")
        self.runners: Dict[str, RunnerAddress] = {r.name: r for r in runners}
        self.ring = HashRing(names, vnodes=vnodes)
        #: The full-membership ring: affinity is always measured against
        #: where a cell *should* live, even while a runner is down.
        self._full_ring = HashRing(names, vnodes=vnodes)
        self.request_timeout = request_timeout
        if isinstance(store, str):
            store = SolutionStore(store)
        self.store = store
        self.limits = limits
        self.validate = validate
        self.stats = ClusterStats()
        self._unhealthy: set = set()
        self._sub_ids = 0
        #: Route keys of the most recent sweep, retained so a resize can
        #: report how many of its cells actually changed owner
        #: (``cells_moved``) without re-asking the caller.
        self._last_keys: List[str] = []

    # ------------------------------------------------------------------
    # health / membership
    # ------------------------------------------------------------------
    @property
    def healthy(self) -> List[str]:
        """Names of runners currently believed reachable."""
        return [name for name in self.runners if name not in self._unhealthy]

    def _mark_unhealthy(self, name: str) -> None:
        if name not in self._unhealthy:
            self._unhealthy.add(name)
            self.stats.runner_errors += 1
            self.ring.remove(name)

    def _mark_healthy(self, name: str) -> None:
        if name in self._unhealthy:
            self._unhealthy.discard(name)
            self.ring.add(name)

    async def _open(self, address: RunnerAddress
                    ) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        if address.unix_socket:
            return await asyncio.open_unix_connection(address.unix_socket)
        return await asyncio.open_connection(address.host, address.port)

    async def check_health(self, timeout: float = 5.0) -> Dict[str, bool]:
        """Ping every registered runner; update ring membership to match.

        A runner that answers rejoins the ring (deterministically regaining
        exactly its old key range); one that does not leaves it.
        """
        async def probe(name: str, address: RunnerAddress) -> bool:
            try:
                reader, writer = await asyncio.wait_for(
                    self._open(address), timeout)
            except (ConnectionError, OSError, asyncio.TimeoutError):
                return False
            try:
                writer.write(json.dumps({"op": "ping", "id": "hc"}).encode()
                             + b"\n")
                await writer.drain()
                line = await asyncio.wait_for(reader.readline(), timeout)
                return bool(line) and bool(json.loads(line).get("pong"))
            except (ConnectionError, OSError, asyncio.TimeoutError,
                    json.JSONDecodeError):
                return False
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

        names = list(self.runners)
        alive = await asyncio.gather(*[probe(n, self.runners[n])
                                       for n in names])
        for name, ok in zip(names, alive):
            if ok:
                self._mark_healthy(name)
            else:
                self._mark_unhealthy(name)
        return dict(zip(names, alive))

    # ------------------------------------------------------------------
    # elastic membership
    # ------------------------------------------------------------------
    def _account_resize(self, old_full: HashRing) -> int:
        """Update resize stats after a membership change; returns the
        number of last-sweep cells whose owner moved."""
        self.stats.ring_version = self._full_ring.version
        moved = 0
        if self._last_keys:
            ranges = moved_keys(old_full, self._full_ring)
            moved = len(moved_key_subset(ranges, self._last_keys))
            self.stats.cells_moved += moved
        return moved

    async def add_runner(self, address: Union[RunnerAddress, str], *,
                         prewarm: bool = True,
                         warm_limit: Optional[int] = None) -> Dict[str, Any]:
        """Join one runner to the *running* cluster -- no restart.

        Ordering is the warm-handoff contract: the runner is registered
        and the full ring resized first, then (with ``prewarm``, the
        default) the joiner is told to bulk-load its acquired key range
        from the shared store via the ``warm_cache`` wire op, and only
        after that warm completes does the *live* routing ring include it
        -- the first cell routed to the joiner finds a warm LRU.  Sweeps
        in flight are untouched: routing rounds capture their assignment
        up front, so the resize applies between rounds.

        A failed warm (connection error, no store on the runner) does not
        fail the join; the runner simply takes traffic cold and the
        shared store answers its misses.  Returns a summary dict
        (``runner``, ``ring_version``, ``cells_moved``, ``warmed``,
        ``aliases``).
        """
        if isinstance(address, str):
            address = RunnerAddress.parse(address)
        require(isinstance(address, RunnerAddress),
                "add_runner() wants a RunnerAddress or a runner spec string")
        require(address.name not in self.runners,
                f"runner {address.name!r} is already registered")
        old_full = self._full_ring.copy()
        self.runners[address.name] = address
        self._full_ring.add(address.name)
        warm = {"warmed": 0, "aliases": 0}
        if prewarm:
            try:
                warm = await self._warm_one(address.name, limit=warm_limit)
            except (ConnectionError, OSError, asyncio.TimeoutError,
                    json.JSONDecodeError, ValidationError) as exc:
                warm = {"warmed": 0, "aliases": 0,
                        "error": f"{type(exc).__name__}: {exc}"}
        self.ring.add(address.name)
        self._unhealthy.discard(address.name)
        moved = self._account_resize(old_full)
        return {"runner": address.name, "action": "add",
                "ring_version": self.stats.ring_version,
                "cells_moved": moved, "warmed": warm.get("warmed", 0),
                "aliases": warm.get("aliases", 0),
                **({"warm_error": warm["error"]} if "error" in warm else {})}

    def remove_runner(self, name: str) -> Dict[str, Any]:
        """Retire one runner from the running cluster (graceful leave).

        The runner leaves both rings and the registry immediately, so no
        *new* cells route to it; a sub-request already streaming from it
        drains normally on the old assignment (routing rounds capture
        their placement up front).  Its key range falls to the ring
        successors, whose misses the shared store answers -- zero
        recompute.  For a *killed* runner no call is needed at all: the
        existing health-based failover re-routes unanswered cells.
        """
        require(name in self.runners, f"unknown runner {name!r}")
        require(len(self.runners) > 1, "cannot remove the last runner")
        old_full = self._full_ring.copy()
        del self.runners[name]
        self._full_ring.remove(name)
        self.ring.remove(name)
        self._unhealthy.discard(name)
        moved = self._account_resize(old_full)
        return {"runner": name, "action": "remove",
                "ring_version": self.stats.ring_version,
                "cells_moved": moved}

    async def _warm_one(self, name: str, *,
                        limit: Optional[int] = None) -> Dict[str, Any]:
        """Tell one runner to prewarm its full-ring key range."""
        address = self.runners[name]
        reader, writer = await self._open(address)
        try:
            payload: Dict[str, Any] = {
                "op": "warm_cache", "id": f"warm-{name}",
                "ring": self._full_ring.to_payload(), "owner": name}
            if limit is not None:
                payload["limit"] = limit
            writer.write(json.dumps(payload).encode() + b"\n")
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(),
                                          self.request_timeout)
            require(bool(line), "runner closed the connection mid-warm")
            response = json.loads(line)
            if response.get("error"):
                raise ValidationError(
                    f"runner {name!r} warm_cache error: {response['error']}")
            return {"warmed": int(response.get("warmed", 0)),
                    "aliases": int(response.get("aliases", 0))}
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # ------------------------------------------------------------------
    # sweeps
    # ------------------------------------------------------------------
    def _next_failover(self, key: str, tried: set) -> Optional[str]:
        """The first healthy, untried runner in ``key``'s preference order."""
        for name in self._full_ring.preference(key):
            if name in tried or name in self._unhealthy:
                continue
            return name
        return None

    async def sweep_specs(self, scenarios: Union[ScenarioGrid,
                                                 Sequence[ScenarioSpec]],
                          method: str = "auto", *,
                          options: Optional[Dict[str, Any]] = None,
                          on_line: Optional[LineCallback] = None,
                          ) -> List[Dict[str, Any]]:
        """Route one spec-native sweep across the cluster.

        Returns the per-cell response dicts in expansion order, each with
        ``"index"`` rewritten to the *global* cell index -- the same shape
        :func:`repro.serve.request_sweep_spec` returns from one runner.
        ``on_line`` (if given) sees each line the moment it arrives, which
        is how :class:`RouterServer` streams.  Raises
        :class:`ValidationError` when a cell exhausts every runner.

        With a shared ``store`` configured, the sweep is planned first:
        store-answered cells are delivered locally (``source: "store"``,
        ``runner: null``) and only pending cells are routed.
        """
        if isinstance(scenarios, ScenarioGrid):
            scenarios = scenarios.expand()
        specs = [s for s in scenarios]
        require(all(isinstance(s, ScenarioSpec) for s in specs),
                "sweep_specs() wants ScenarioSpecs (or a ScenarioGrid)")
        require(len(specs) > 0, "the sweep expands to zero cells")
        # Retain the full sweep's route keys (planned-local cells
        # included): a later resize measures cells_moved against them.
        self._last_keys = [spec_route_key(spec) for spec in specs]

        answered = self._plan_local(specs, method, options or {}, on_line)
        pending = [i for i in range(len(specs)) if i not in answered]
        if not pending:
            self.stats.requests += 1
            return [answered[i] for i in range(len(specs))]

        keys = [spec_route_key(specs[i]) for i in pending]
        payloads = [specs[i].to_payload() for i in pending]

        def remap_line(sub_index: int, line: Dict[str, Any]) -> None:
            line = dict(line, index=pending[sub_index])
            answered[pending[sub_index]] = line
            if on_line is not None:
                on_line(pending[sub_index], line)

        await self._routed_sweep(
            op="sweep_spec", field="specs", payloads=payloads, keys=keys,
            method=method, options=options, on_line=remap_line)
        return [answered[i] for i in range(len(specs))]

    def _plan_local(self, specs: Sequence[ScenarioSpec], method: str,
                    options: Dict[str, Any],
                    on_line: Optional[LineCallback],
                    ) -> Dict[int, Dict[str, Any]]:
        """Answer what the shared store already holds; ``{index: line}``.

        Best-effort by design: without a store handle -- or when the
        sweep's options defeat alias hashing -- nothing is answered and
        every cell routes (correct, just not incremental).
        """
        if self.store is None:
            return {}
        try:
            groups = group_slots([spec_alias_key(spec, method, limits=self.limits,
                                                 validate=self.validate, **options)
                                  for spec in specs])
        except ValidationError:
            return {}
        plan = build_sweep_plan(
            [(alias, specs[slots[0]]) for alias, slots in groups.items()],
            method, store=self.store, limits=self.limits,
            validate=self.validate, **options)
        answered: Dict[int, Dict[str, Any]] = {}
        for cell in plan.done:
            for index in groups[cell.identity]:
                # The stored report as it is -- the same value a runner's
                # spliced line carries, never decoded into a SolveReport.
                answered[index] = {
                    "index": index, "key": cell.key, "source": "store",
                    "error": None, "report": json.loads(cell.payload),
                    "cell": cell.digest, "runner": None}
        self.stats.planned_local += len(answered)
        if on_line is not None:
            for index in sorted(answered):
                on_line(index, answered[index])
        return answered

    async def sweep(self, problems: Sequence[Problem],
                    method: str = "auto", *,
                    options: Optional[Dict[str, Any]] = None,
                    on_line: Optional[LineCallback] = None,
                    ) -> List[Dict[str, Any]]:
        """Route one materialized sweep (payload-content-hash placement)."""
        payloads = [problem_to_payload(p) for p in problems]
        return await self.sweep_payloads(payloads, method,
                                         options=options, on_line=on_line)

    async def sweep_payloads(self, payloads: Sequence[Dict[str, Any]],
                             method: str = "auto", *,
                             options: Optional[Dict[str, Any]] = None,
                             on_line: Optional[LineCallback] = None,
                             ) -> List[Dict[str, Any]]:
        """:meth:`sweep` for already-encoded wire problem payloads."""
        payloads = list(payloads)
        require(len(payloads) > 0, "sweep requests need >= 1 scenario")
        keys = [payload_route_key(p) for p in payloads]
        self._last_keys = list(keys)
        return await self._routed_sweep(
            op="sweep", field="scenarios", payloads=payloads, keys=keys,
            method=method, options=options, on_line=on_line)

    async def _routed_sweep(self, *, op: str, field: str,
                            payloads: List[Dict[str, Any]], keys: List[str],
                            method: str, options: Optional[Dict[str, Any]],
                            on_line: Optional[LineCallback],
                            ) -> List[Dict[str, Any]]:
        self.stats.requests += 1
        self.stats.cells += len(payloads)
        self.stats.wire_cells += len(payloads)
        require(len(self.healthy) > 0, "no healthy runners in the cluster")
        primaries = [self._full_ring.route(key) for key in keys]
        tried: List[set] = [set() for _ in payloads]
        results: Dict[int, Dict[str, Any]] = {}

        def deliver(index: int, runner: str, line: Dict[str, Any]) -> None:
            line = dict(line)
            line["index"] = index
            line.pop("id", None)
            line["runner"] = runner
            results[index] = line
            if runner == primaries[index]:
                self.stats.primary_cells += 1
            if line.get("source") == "memory":
                # Only the runners' prewarm tier emits this source: the
                # cell was answered from a warmed LRU, no store round-trip.
                self.stats.prewarm_hits += 1
            if on_line is not None:
                on_line(index, line)

        # Initial placement on the live ring, then rounds of fan-out;
        # every round re-routes only the cells its dead runner never
        # answered, so one failure costs one extra round, not a restart.
        assignment: Dict[str, List[int]] = {}
        for index, key in enumerate(keys):
            runner = self.ring.route(key)
            assignment.setdefault(runner, []).append(index)
        while assignment:
            pairs = list(assignment.items())
            failures = await asyncio.gather(*[
                self._fan_once(name, indices, payloads, op=op, field=field,
                               method=method, options=options,
                               deliver=deliver)
                for name, indices in pairs])
            assignment = {}
            for (name, indices), failure in zip(pairs, failures):
                if failure is None:
                    continue
                self._mark_unhealthy(name)
                for index in indices:
                    if index in results:
                        continue
                    tried[index].add(name)
                    target = self._next_failover(keys[index], tried[index])
                    if target is None:
                        raise ValidationError(
                            f"cell {index} exhausted every runner "
                            f"(last failure on {name!r}: {failure})")
                    self.stats.reroutes += 1
                    assignment.setdefault(target, []).append(index)
        require(len(results) == len(payloads),
                f"cluster answered {len(results)}/{len(payloads)} cells")
        return [results[i] for i in range(len(payloads))]

    async def _fan_once(self, name: str, indices: List[int],
                        payloads: List[Dict[str, Any]], *, op: str,
                        field: str, method: str,
                        options: Optional[Dict[str, Any]],
                        deliver: Callable[[int, str, Dict[str, Any]], None],
                        ) -> Optional[str]:
        """One sub-request to one runner; ``None`` on success, else the
        failure description (the caller fails the unanswered cells over).

        A *request-level* error line from the runner (bad payload,
        admission rejection) raises -- that is a deterministic answer, not
        a dead runner, and re-routing it would just repeat it elsewhere.
        """
        self._sub_ids += 1
        sub_id = f"cluster-{self._sub_ids}"
        payload = {"op": op, "id": sub_id,
                   field: [payloads[i] for i in indices],
                   "method": method, "options": options or {}}
        try:
            return await asyncio.wait_for(
                self._fan_stream(name, sub_id, payload, indices, deliver),
                self.request_timeout)
        except (ConnectionError, OSError) as exc:
            return f"connection failed: {exc}"
        except asyncio.TimeoutError:
            return f"no answer within {self.request_timeout}s"
        except asyncio.IncompleteReadError:  # pragma: no cover - readline EOF
            return "connection closed mid-stream"

    async def _fan_stream(self, name: str, sub_id: str,
                          payload: Dict[str, Any], indices: List[int],
                          deliver: Callable[[int, str, Dict[str, Any]], None],
                          ) -> Optional[str]:
        reader, writer = await self._open(self.runners[name])
        try:
            writer.write(json.dumps(payload).encode() + b"\n")
            await writer.drain()
            while True:
                line = await reader.readline()
                if not line:
                    return "runner closed the connection mid-sweep"
                response = json.loads(line)
                if response.get("id") != sub_id:
                    continue  # protocol notices ({"id": null, ...})
                if response.get("rejected"):
                    raise ValidationError(
                        f"runner {name!r} rejected the sweep: "
                        f"{response.get('error')}")
                if "index" in response:
                    deliver(indices[response["index"]], name, response)
                    continue
                if response.get("error"):
                    raise ValidationError(
                        f"runner {name!r} request error: {response['error']}")
                if response.get("done"):
                    return None
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    async def metrics(self) -> Dict[str, Any]:
        """Aggregated ``metrics`` across every healthy runner.

        The aggregate sums each numeric counter leaf key-by-key (shape
        identical to one runner's snapshot), adds per-runner snapshots
        under ``"runners"`` and the router's own :class:`ClusterStats`
        under ``"router"``.  A runner that fails the poll is marked
        unhealthy and skipped.
        """
        self.stats.metrics_polls += 1
        snapshots: Dict[str, Dict[str, Any]] = {}
        for name in list(self.healthy):
            try:
                snapshots[name] = await asyncio.wait_for(
                    self._metrics_one(name), self.request_timeout)
            except (ConnectionError, OSError, asyncio.TimeoutError,
                    json.JSONDecodeError):
                self._mark_unhealthy(name)
        require(len(snapshots) > 0, "no healthy runners answered metrics")
        aggregate = aggregate_metrics(snapshots)
        aggregate["router"] = vars(self.stats).copy()
        aggregate["router"]["affinity"] = round(self.stats.affinity(), 6)
        aggregate["router"]["healthy_runners"] = len(self.healthy)
        return aggregate

    async def _metrics_one(self, name: str) -> Dict[str, Any]:
        reader, writer = await self._open(self.runners[name])
        try:
            writer.write(json.dumps({"op": "metrics",
                                     "id": "cluster-metrics"}).encode()
                         + b"\n")
            await writer.drain()
            line = await reader.readline()
            require(bool(line), "runner closed the connection mid-request")
            response = json.loads(line)
            if response.get("error"):
                raise ValidationError(f"runner {name!r} metrics error: "
                                      f"{response['error']}")
            metrics = response.get("metrics")
            require(isinstance(metrics, dict),
                    "metrics reply must carry a 'metrics' object")
            return metrics
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


def _merge_leaves(values: List[Any]) -> Any:
    """Aggregate one leaf position across runner snapshots.

    Numbers sum, bools AND (an aggregate flag holds iff it holds on every
    runner), equal strings pass through, anything mixed degrades to
    ``None`` -- aggregation must never invent a value.
    """
    present = [v for v in values if v is not None]
    if not present:
        return None
    if all(isinstance(v, bool) for v in present):
        return all(present)
    if all(isinstance(v, (int, float)) and not isinstance(v, bool)
           for v in present):
        total = sum(present)
        return round(total, 9) if isinstance(total, float) else total
    if all(isinstance(v, str) for v in present):
        return present[0] if len(set(present)) == 1 else None
    return None


def aggregate_metrics(snapshots: Dict[str, Dict[str, Any]]
                      ) -> Dict[str, Any]:
    """Sum runner ``metrics`` snapshots into one cluster-wide snapshot.

    Dicts merge by key union, recursively; leaves combine via
    :func:`_merge_leaves`.  The per-runner inputs are preserved verbatim
    under ``"runners"`` so nothing is lost to the aggregation.
    """
    require(len(snapshots) > 0, "aggregate_metrics needs >= 1 snapshot")

    def merge(values: List[Any]) -> Any:
        if all(isinstance(v, dict) for v in values if v is not None):
            dicts = [v for v in values if isinstance(v, dict)]
            if dicts:
                merged_keys: List[str] = []
                for d in dicts:
                    for k in d:
                        if k not in merged_keys:
                            merged_keys.append(k)
                return {k: merge([d[k] for d in dicts if k in d])
                        for k in merged_keys}
            return None
        return _merge_leaves(values)

    aggregate = merge([snap for snap in snapshots.values()])
    aggregate["runners"] = {name: snap for name, snap in snapshots.items()}
    return aggregate


# ---------------------------------------------------------------------------
# the standalone router front
# ---------------------------------------------------------------------------

class RouterServer:
    """``python -m repro.cluster``: the router as a JSON-lines server.

    Speaks the same protocol as :class:`~repro.serve.SweepServer` (ops
    ``sweep``, ``sweep_spec``, ``metrics``, ``stats``, ``ping``), so any
    single-server client -- :func:`repro.serve.request_sweep_spec`, the
    load harness -- talks to the whole cluster through one socket.  Sweep
    results stream back per cell as the runners answer, with indices
    already rewritten to the client's cell order.  Two router-only ops
    drive elastic scaling without a restart: ``resize`` (live
    join/retire, see :meth:`_serve_resize`) and ``ring`` (the current
    full-membership ring payload plus the healthy-runner list).
    """

    def __init__(self, client: ClusterClient, *,
                 host: str = "127.0.0.1", port: int = 0,
                 unix_socket: Optional[str] = None,
                 max_line_bytes: int = 1 << 20):
        require(max_line_bytes > 0, "max_line_bytes must be positive")
        self.client = client
        self.host = host
        self.port = port
        self.unix_socket = unix_socket
        self.max_line_bytes = max_line_bytes
        self._server: Optional[asyncio.AbstractServer] = None
        self._request_tasks: set = set()

    async def start(self) -> "RouterServer":
        if self.unix_socket:
            self._server = await asyncio.start_unix_server(
                self._handle_client, path=self.unix_socket,
                limit=self.max_line_bytes + 2)
        else:
            self._server = await asyncio.start_server(
                self._handle_client, host=self.host, port=self.port,
                limit=self.max_line_bytes + 2)
            self.port = self._server.sockets[0].getsockname()[1]
        return self

    @property
    def address(self) -> str:
        if self.unix_socket:
            return self.unix_socket
        return f"{self.host}:{self.port}"

    async def serve_forever(self) -> None:
        require(self._server is not None, "call start() before serve_forever()")
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._request_tasks:
            await asyncio.gather(*list(self._request_tasks),
                                 return_exceptions=True)

    async def __aenter__(self) -> "RouterServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        write_lock = asyncio.Lock()

        async def send(obj: Dict[str, Any]) -> None:
            async with write_lock:
                try:
                    writer.write(json.dumps(obj, sort_keys=True).encode()
                                 + b"\n")
                    await writer.drain()
                except (ConnectionError, RuntimeError, OSError):
                    pass  # client went away; runners finish regardless

        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await send({"id": None,
                                "error": "oversized request line "
                                         f"(> {self.max_line_bytes} bytes)"})
                    break
                except (ConnectionError, OSError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    request = json.loads(line)
                    require(isinstance(request, dict),
                            "request lines must be JSON objects")
                except (json.JSONDecodeError, ValidationError) as exc:
                    await send({"id": None, "error": f"bad request line: {exc}"})
                    continue
                task = asyncio.create_task(self._serve_request(request, send))
                self._request_tasks.add(task)
                task.add_done_callback(self._request_tasks.discard)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_request(self, request: Dict[str, Any], send) -> None:
        request_id = request.get("id")
        op = request.get("op", "sweep")
        try:
            if op == "ping":
                await send({"id": request_id, "pong": True, "router": True})
            elif op == "metrics":
                await send({"id": request_id,
                            "metrics": await self.client.metrics()})
            elif op == "stats":
                stats = vars(self.client.stats).copy()
                stats["affinity"] = round(self.client.stats.affinity(), 6)
                stats["healthy_runners"] = len(self.client.healthy)
                stats["runners"] = {name: name not in self.client._unhealthy
                                    for name in self.client.runners}
                await send({"id": request_id, "stats": stats})
            elif op == "ring":
                await send({"id": request_id,
                            "ring": self.client._full_ring.to_payload(),
                            "healthy": self.client.healthy})
            elif op == "resize":
                await self._serve_resize(request_id, request, send)
            elif op in ("sweep", "sweep_spec"):
                await self._serve_sweep(request_id, op, request, send)
            else:
                await send({"id": request_id, "error": f"unknown op {op!r}"})
        except (ValidationError, ValueError, TypeError, KeyError,
                RuntimeError) as exc:
            await send({"id": request_id,
                        "error": f"{type(exc).__name__}: {exc}"})

    async def _serve_resize(self, request_id: Any,
                            request: Dict[str, Any], send) -> None:
        """Serve one ``resize`` op: live membership change over the wire.

        ``{"op": "resize", "action": "add", "runner": {"name": ...,
        "unix_socket": ...}}`` (or ``"host"``/``"port"``, or a plain
        ``unix:/path`` / ``host:port`` spec string) joins a runner with
        store prewarming (``"prewarm": false`` skips it);
        ``{"action": "remove", "runner": "name"}`` retires one
        gracefully.  Replies with the client's resize summary
        (``ring_version``, ``cells_moved``, warm counts).
        """
        action = request.get("action")
        require(action in ("add", "remove"),
                "resize requests need action 'add' or 'remove'")
        runner = request.get("runner")
        if action == "add":
            if isinstance(runner, dict):
                address = RunnerAddress(
                    name=runner.get("name"),
                    host=runner.get("host", "127.0.0.1"),
                    port=runner.get("port"),
                    unix_socket=runner.get("unix_socket"))
            else:
                require(isinstance(runner, str) and bool(runner),
                        "resize add needs a 'runner' address object or spec")
                address = RunnerAddress.parse(
                    runner, name=request.get("name"))
            outcome = await self.client.add_runner(
                address, prewarm=bool(request.get("prewarm", True)),
                warm_limit=request.get("limit"))
        else:
            require(isinstance(runner, str) and bool(runner),
                    "resize remove needs the runner name")
            outcome = self.client.remove_runner(runner)
        await send({"id": request_id, **outcome})

    async def _serve_sweep(self, request_id: Any, op: str,
                           request: Dict[str, Any], send) -> None:
        items, method, options = parse_sweep_request(op, request)
        loop = asyncio.get_running_loop()
        relay_tasks: List[asyncio.Task] = []

        def on_line(index: int, line: Dict[str, Any]) -> None:
            out = dict(line)
            out["id"] = request_id
            relay_tasks.append(loop.create_task(send(out)))

        if op == "sweep_spec":
            results = await self.client.sweep_specs(
                items, method, options=options, on_line=on_line)
        else:
            results = await self.client.sweep_payloads(
                items, method, options=options, on_line=on_line)
        if relay_tasks:
            await asyncio.gather(*relay_tasks)
        await send({"id": request_id, "done": True, "count": len(results),
                    "protocol": PROTOCOL_VERSION})
