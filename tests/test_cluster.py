"""Tests for the multi-runner sweep cluster (repro.cluster).

The ring, address parsing and metric aggregation are pure computation and
tested exhaustively.  The integration classes run a real 3-runner
unix-socket :class:`~repro.cluster.runners.LocalCluster` (the CI
``cluster-stress`` job's topology) and pin the acceptance contract:
routing affinity, bit-identical results against a single-runner sweep
over the same warm store, runner-kill failover with store-backed
recovery, and store integrity under concurrent writers.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.cluster import (
    ClusterClient,
    HashRing,
    LocalCluster,
    RouterServer,
    RunnerAddress,
    aggregate_metrics,
)
from repro.cluster.router import spec_route_key
from repro.engine import Portfolio, clear_caches, set_solution_store
from repro.engine.async_service import AsyncSweepService
from repro.engine.store import report_to_payload
from repro.scenarios import Axis, ScenarioGrid
import repro.serve as serve_module
from repro.serve import request_metrics, request_sweep_spec
from repro.utils.validation import ValidationError


@pytest.fixture(autouse=True)
def _fresh_engine():
    clear_caches()
    set_solution_store(None)
    yield
    clear_caches()
    set_solution_store(None)


def run_async(coro, timeout: float = 90.0):
    async def _bounded():
        return await asyncio.wait_for(coro, timeout)
    return asyncio.run(_bounded())


async def wait_until(predicate, timeout: float = 30.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        assert loop.time() < deadline, "condition not reached in time"
        await asyncio.sleep(0.005)


GRID = ScenarioGrid(
    generators=({"generator": "fork-join",
                 "params": {"width": Axis([2, 3, 4]),
                            "work": Axis([4, 6])}},),
    budget_rules=(("makespan-factor", 0.5), ("makespan-factor", 0.75)),
)  # 12 cells


# ---------------------------------------------------------------------------
# the ring
# ---------------------------------------------------------------------------

class TestHashRing:
    KEYS = [f"key-{i:04d}" for i in range(400)]

    def test_deterministic_across_instances(self):
        a = HashRing(["r0", "r1", "r2"])
        b = HashRing(["r2", "r0", "r1"])  # insertion order must not matter
        assert [a.route(k) for k in self.KEYS] == \
               [b.route(k) for k in self.KEYS]

    def test_every_node_owns_a_share(self):
        ring = HashRing(["r0", "r1", "r2"])
        shares = ring.shares(self.KEYS)
        assert set(shares) == {"r0", "r1", "r2"}
        assert all(count > 0 for count in shares.values())
        assert sum(shares.values()) == len(self.KEYS)

    def test_remove_moves_only_the_leavers_keys(self):
        ring = HashRing(["r0", "r1", "r2"])
        before = {k: ring.route(k) for k in self.KEYS}
        ring.remove("r1")
        for key in self.KEYS:
            if before[key] != "r1":
                assert ring.route(key) == before[key]
            else:
                assert ring.route(key) in ("r0", "r2")

    def test_preference_is_the_rebalance_rule(self):
        ring = HashRing(["r0", "r1", "r2"])
        prefs = {k: ring.preference(k) for k in self.KEYS}
        for key, order in prefs.items():
            assert order[0] == ring.route(key)
            assert sorted(order) == ["r0", "r1", "r2"]  # distinct, complete
        ring.remove("r0")
        for key in self.KEYS:
            expected = next(n for n in prefs[key] if n != "r0")
            assert ring.route(key) == expected

    def test_add_is_the_inverse_of_remove(self):
        ring = HashRing(["r0", "r1", "r2"])
        before = {k: ring.route(k) for k in self.KEYS}
        ring.remove("r2")
        ring.add("r2")
        assert {k: ring.route(k) for k in self.KEYS} == before

    def test_validation(self):
        with pytest.raises(ValidationError):
            HashRing(vnodes=0)
        with pytest.raises(ValidationError):
            HashRing([""])
        with pytest.raises(ValidationError):
            HashRing().route("anything")
        ring = HashRing(["solo"])
        assert ring.route("k") == "solo"
        assert ring.preference("k", limit=5) == ["solo"]


# ---------------------------------------------------------------------------
# runner addresses
# ---------------------------------------------------------------------------

class TestRunnerAddress:
    def test_parse_forms(self):
        unix = RunnerAddress.parse("unix:/tmp/r.sock")
        assert unix.unix_socket == "/tmp/r.sock" and unix.name == "unix:/tmp/r.sock"
        tcp = RunnerAddress.parse("10.0.0.5:7341", name="r1")
        assert (tcp.host, tcp.port, tcp.name) == ("10.0.0.5", 7341, "r1")
        bare = RunnerAddress.parse("7341")
        assert (bare.host, bare.port) == ("127.0.0.1", 7341)

    def test_validation(self):
        with pytest.raises(ValidationError):
            RunnerAddress.parse("not a spec")
        with pytest.raises(ValidationError):
            RunnerAddress(name="r", port=1, unix_socket="/x")
        with pytest.raises(ValidationError):
            RunnerAddress(name="r")
        with pytest.raises(ValidationError):
            RunnerAddress(name="", port=1)


# ---------------------------------------------------------------------------
# metric aggregation
# ---------------------------------------------------------------------------

class TestAggregateMetrics:
    def test_sums_counters_and_keeps_runners(self):
        merged = aggregate_metrics({
            "r0": {"service": {"requests": 3, "computed": 1}, "ok": True,
                   "runner": "r0"},
            "r1": {"service": {"requests": 5, "computed": 2}, "ok": True,
                   "runner": "r1"},
        })
        assert merged["service"] == {"requests": 8, "computed": 3}
        assert merged["ok"] is True          # bools AND, never sum
        assert merged["runner"] is None      # differing strings degrade
        assert sorted(merged["runners"]) == ["r0", "r1"]
        assert merged["runners"]["r0"]["service"]["requests"] == 3

    def test_key_union_and_missing_sections(self):
        merged = aggregate_metrics({
            "r0": {"store": {"writes": 2}, "schema": "v1"},
            "r1": {"store": None, "schema": "v1"},
        })
        assert merged["store"] == {"writes": 2}
        assert merged["schema"] == "v1"

    def test_needs_at_least_one_snapshot(self):
        with pytest.raises(ValidationError):
            aggregate_metrics({})


# ---------------------------------------------------------------------------
# the live 3-runner cluster
# ---------------------------------------------------------------------------

class TestClusterSweeps:
    def test_routing_affinity_and_stability(self):
        async def body():
            async with LocalCluster(3) as cluster:
                client = ClusterClient(cluster.addresses())
                first = await client.sweep_specs(GRID)
                second = await client.sweep_specs(GRID)
                return client, first, second

        client, first, second = run_async(body())
        assert all(r["report"] is not None for r in first + second)
        # Acceptance gate: every cell reaches its ring-primary runner.
        assert client.stats.affinity() >= 0.95
        assert client.stats.affinity() == 1.0
        assert client.stats.reroutes == 0
        # The same cell lands on the same runner, sweep after sweep.
        assert [r["runner"] for r in first] == [r["runner"] for r in second]
        # Warm pass answers from the shared store.
        assert {r["source"] for r in second} == {"store"}

    def test_placement_agrees_across_client_instances(self):
        addresses = [RunnerAddress(name=f"runner-{i}", port=9000 + i)
                     for i in range(3)]
        a, b = ClusterClient(addresses), ClusterClient(addresses)
        for spec in GRID.expand():
            key = spec_route_key(spec)
            assert a.ring.route(key) == b.ring.route(key)

    def test_cluster_matches_single_runner_bit_for_bit(self, tmp_path):
        store_dir = str(tmp_path / "store")

        async def single():
            service = AsyncSweepService(
                store=store_dir,
                portfolio=Portfolio(executor="thread", max_workers=2))
            async with service:
                ticket = await service.submit_specs(GRID)
                return await ticket.results()

        single_results = run_async(single())
        expected = [(r.key, report_to_payload(r.report, r.key))
                    for r in single_results]

        clear_caches()
        set_solution_store(None)

        async def clustered():
            async with LocalCluster(3, store_root=store_dir) as cluster:
                client = ClusterClient(cluster.addresses())
                return await client.sweep_specs(GRID)

        cluster_results = run_async(clustered())
        # Warm store: every cell is a store hit, and the payloads are the
        # exact bytes the single-runner sweep persisted.
        assert {r["source"] for r in cluster_results} == {"store"}
        got = [(r["key"], r["report"]) for r in cluster_results]
        assert json.dumps(got, sort_keys=True) == \
               json.dumps(expected, sort_keys=True)

    def test_kill_mid_sweep_reroutes_with_store_recovery(self, tmp_path):
        store_dir = str(tmp_path / "store")

        async def body():
            async with LocalCluster(3, store_root=store_dir,
                                    workers=1) as cluster:
                client = ClusterClient(cluster.addresses(),
                                       request_timeout=60.0)
                specs = list(GRID.expand())
                victim = client.ring.route(spec_route_key(specs[0]))
                sweep = asyncio.ensure_future(client.sweep_specs(specs))
                # Kill the victim while it is actually solving its cells.
                await wait_until(lambda: cluster.servers[victim]
                                 .service.inflight_count() > 0)
                cluster.kill(victim)
                results = await sweep
                return client, victim, results

        client, victim, results = run_async(body())
        assert len(results) == GRID.size()
        assert all(r["report"] is not None for r in results)
        assert client.stats.runner_errors == 1
        assert client.stats.reroutes >= 1
        assert victim not in client.healthy
        # The victim's unanswered cells were re-routed deterministically,
        # and everything the dead runner persisted before dying backs the
        # recovery: the shared store ends up with every cell.
        from repro.engine.store import SolutionStore
        view = SolutionStore(store_dir)
        for r in results:
            assert view.get_report(r["key"]) is not None

    def test_dead_runner_at_submit_time_fails_over(self):
        async def body():
            async with LocalCluster(3) as cluster:
                client = ClusterClient(cluster.addresses(),
                                       request_timeout=30.0)
                warm = await client.sweep_specs(GRID)
                victim = warm[0]["runner"]
                cluster.kill(victim)
                again = await client.sweep_specs(GRID)
                return client, victim, warm, again

        client, victim, warm, again = run_async(body())
        assert [r["key"] for r in warm] == [r["key"] for r in again]
        assert victim not in {r["runner"] for r in again}
        assert client.stats.reroutes > 0
        # Store-backed recovery: nothing is recomputed, the failover
        # runners answer the dead runner's cells from the shared store.
        assert {r["source"] for r in again} == {"store"}

    def test_exhausting_every_runner_raises(self):
        async def body():
            async with LocalCluster(2) as cluster:
                client = ClusterClient(cluster.addresses(),
                                       request_timeout=10.0)
                await client.sweep_specs(GRID)
                for name in cluster.runner_names:
                    cluster.kill(name)
                await client.sweep_specs(GRID)

        with pytest.raises(ValidationError, match="exhausted|healthy"):
            run_async(body())

    def test_concurrent_writers_store_integrity(self, tmp_path):
        store_dir = str(tmp_path / "store")

        async def body():
            async with LocalCluster(3, store_root=store_dir) as cluster:
                client = ClusterClient(cluster.addresses())
                specs = list(GRID.expand())
                # Three concurrent sweeps over overlapping cell sets: every
                # runner writes into the shared root at the same time.
                batches = [specs, specs[::-1], specs[::2] + specs[1::2]]
                results = await asyncio.gather(
                    *[client.sweep_specs(batch) for batch in batches])
                metrics = await client.metrics()
                return results, metrics

        results, metrics = run_async(body())
        for batch in results:
            assert all(r["report"] is not None for r in batch)
        # Zero corruption, zero lock-timeout recomputes across all runners.
        store_counters = metrics["store"]
        assert store_counters["lock_timeouts"] == 0
        assert store_counters["corrupt_shards"] == 0
        assert store_counters["lock_acquires"] > 0
        from repro.engine.store import SolutionStore
        view = SolutionStore(store_dir)
        keys = {r["key"] for batch in results for r in batch}
        assert len(keys) == GRID.size()
        for key in keys:
            assert view.get_report(key) is not None

    def test_health_check_updates_membership(self):
        async def body():
            async with LocalCluster(3) as cluster:
                client = ClusterClient(cluster.addresses(),
                                       request_timeout=10.0)
                healthy = await client.check_health()
                victim = cluster.runner_names[0]
                cluster.kill(victim)
                after = await client.check_health()
                return healthy, after, client.healthy

        healthy, after, remaining = run_async(body())
        assert all(healthy.values())
        assert not after["runner-0"]
        assert after["runner-1"] and after["runner-2"]
        assert remaining == ["runner-1", "runner-2"]


class TestClusterMetrics:
    def test_aggregated_metrics_sum_per_runner_work(self):
        async def body():
            async with LocalCluster(3) as cluster:
                client = ClusterClient(cluster.addresses())
                await client.sweep_specs(GRID)
                return await client.metrics()

        metrics = run_async(body())
        per_runner = metrics["runners"]
        assert sorted(per_runner) == ["runner-0", "runner-1", "runner-2"]
        for name, snap in per_runner.items():
            assert snap["runner"] == name
        total = sum(snap["service"]["requests"]
                    for snap in per_runner.values())
        assert metrics["service"]["requests"] == total == GRID.size()
        router = metrics["router"]
        assert router["affinity"] == 1.0
        assert router["healthy_runners"] == 3


class TestRouterServer:
    def test_single_server_clients_work_through_the_router(self, tmp_path):
        sock = str(tmp_path / "router.sock")

        async def body():
            async with LocalCluster(3) as cluster:
                client = ClusterClient(cluster.addresses())
                direct = await client.sweep_specs(GRID)
                async with RouterServer(client, unix_socket=sock):
                    routed = await request_sweep_spec(GRID, unix_socket=sock)
                    metrics = await request_metrics(unix_socket=sock)
                return direct, routed, metrics

        direct, routed, metrics = run_async(body())
        assert [r["key"] for r in routed] == [r["key"] for r in direct]
        assert {r["source"] for r in routed} == {"store"}  # warm second pass
        assert metrics["router"]["healthy_runners"] == 3
        assert metrics["service"]["requests"] == 2 * GRID.size()

    def test_router_protocol_errors_and_stats(self, tmp_path):
        sock = str(tmp_path / "router.sock")

        async def talk(payload: bytes):
            reader, writer = await asyncio.open_unix_connection(sock)
            writer.write(payload)
            await writer.drain()
            line = await reader.readline()
            writer.close()
            await writer.wait_closed()
            return json.loads(line)

        async def body():
            async with LocalCluster(2) as cluster:
                client = ClusterClient(cluster.addresses())
                async with RouterServer(client, unix_socket=sock):
                    bad = await talk(b"this is not json\n")
                    unknown = await talk(json.dumps(
                        {"op": "nope", "id": "x"}).encode() + b"\n")
                    pong = await talk(json.dumps(
                        {"op": "ping", "id": "p"}).encode() + b"\n")
                    stats = await talk(json.dumps(
                        {"op": "stats", "id": "s"}).encode() + b"\n")
                return bad, unknown, pong, stats

        bad, unknown, pong, stats = run_async(body())
        assert bad["id"] is None and "bad request line" in bad["error"]
        assert "unknown op" in unknown["error"]
        assert pong["pong"] is True and pong["router"] is True
        assert stats["stats"]["healthy_runners"] == 2
        assert stats["stats"]["runners"] == {"runner-0": True,
                                             "runner-1": True}
        # the router's own wire counters: the bad line and the unknown op
        assert stats["stats"]["server"]["protocol_errors"] == 2
        assert stats["stats"]["server"]["connections"] == 4

    def test_router_metrics_carry_its_own_wire_counters(self, tmp_path):
        sock = str(tmp_path / "router.sock")

        async def body():
            async with LocalCluster(2) as cluster:
                client = ClusterClient(cluster.addresses())
                async with RouterServer(client, unix_socket=sock):
                    await request_sweep_spec(GRID, unix_socket=sock)
                    routed = await request_metrics(unix_socket=sock)
                # in process: the runners' sum, under "server" too
                return routed, await client.metrics()

        routed, summed = run_async(body())
        # the router's own: one sweep_spec, one metrics, on two connections
        assert routed["server"]["connections"] == 2
        assert routed["server"]["requests"] == 2
        assert sorted(routed["runners"]) == ["runner-0", "runner-1"]
        assert summed["server"]["requests"] == sum(
            snap["server"]["requests"] for snap in summed["runners"].values())

    def test_long_reply_crosses_the_router(self, tmp_path):
        """A reply line past asyncio's 64 KiB default (one allocation
        entry per job) reaches the client; no runner is taken for dead."""
        sock = str(tmp_path / "router.sock")
        wide = ScenarioGrid(
            generators=({"generator": "fork-join",
                         "params": {"width": Axis([3500]), "work": Axis([4])}},),
            budget_rules=(("makespan-factor", 0.5),))

        async def body():
            async with LocalCluster(2) as cluster:
                client = ClusterClient(cluster.addresses())
                async with RouterServer(client, unix_socket=sock):
                    slots = await request_sweep_spec(wide, unix_socket=sock)
                return slots, client

        slots, client = run_async(body())
        assert len(json.dumps(slots[0])) > 1 << 16
        assert slots[0]["report"] is not None
        assert client.healthy == ["runner-0", "runner-1"]
        assert client.stats.runner_errors == client.stats.reroutes == 0

    def test_unreadable_reply_is_a_request_error(self, tmp_path, monkeypatch):
        """A runner reply line the router cannot read fails that request
        only: the runner stays in the ring and the next request works."""
        monkeypatch.setattr(serve_module, "_REPLY_LINE_LIMIT", 4096)
        sock = str(tmp_path / "router.sock")
        wide = ScenarioGrid(
            generators=({"generator": "fork-join",
                         "params": {"width": Axis([400]), "work": Axis([4])}},),
            budget_rules=(("makespan-factor", 0.5),))

        async def body():
            async with LocalCluster(2) as cluster:
                client = ClusterClient(cluster.addresses())
                async with RouterServer(client, unix_socket=sock):
                    with pytest.raises(ValidationError,
                                       match="unreadable reply line"):
                        await request_sweep_spec(wide, unix_socket=sock)
                    slots = await request_sweep_spec(GRID, unix_socket=sock)
                return slots, client

        slots, client = run_async(body())
        assert len(slots) == GRID.size()
        assert client.healthy == ["runner-0", "runner-1"]
        assert client.stats.runner_errors == client.stats.reroutes == 0

    def test_runner_rejection_raises_in_process(self):
        async def body():
            async with LocalCluster(2, admission_limit=0) as cluster:
                client = ClusterClient(cluster.addresses())
                with pytest.raises(ValidationError, match="overloaded"):
                    await client.sweep_specs(GRID)

        run_async(body())


class TestClusterLoadgen:
    def test_cluster_load_run_reconciles(self):
        from repro.loadgen import build_schedule, run_load

        async def body():
            schedule = build_schedule("poisson", rate=300.0, count=36,
                                      num_cells=GRID.size(), skew=1.2,
                                      seed=3)
            async with LocalCluster(3) as cluster:
                return await run_load(schedule, GRID,
                                      cluster=cluster.addresses(),
                                      time_scale=0.0)

        report = run_async(body())
        assert report.reconcile() == []
        assert report.counts["ok"] == 36
        # Ring routing means each unique cell is solved exactly once
        # cluster-wide: the aggregated dedup matches a single runner's.
        assert report.cells_solved == report.schedule["unique_cells"]
