"""Tests for elastic cluster resizing (live join/leave with prewarming).

The ring layer is pinned twice: incremental splicing must be
entry-for-entry identical to a full rebuild, and :func:`moved_keys` must
agree with brute-force per-key route comparison.  The store's
``scan_routed`` and the ``warm_cache`` wire op are tested over a real
populated store.  The integration classes then run live
:class:`~repro.cluster.runners.LocalCluster` resizes: a 3-to-4 join must
move at most its fair share of cells and prewarm the joiner
(``prewarm_hits`` with **zero** recomputes afterwards), a graceful leave
mid-deployment must stay bit-identical to the static run, and the chaos
scenario (join + graceful leave + hard kill under loadgen traffic) must
come through with every request answered and every cell solved exactly
once cluster-wide.
"""

from __future__ import annotations

import asyncio
import json
import math

import pytest

from repro.cluster import (
    ClusterClient,
    HashRing,
    LocalCluster,
    MovedRange,
    RouterServer,
    RunnerAddress,
    moved_keys,
)
from repro.cluster.ring import RING_POSITIONS, _position, moved_key_subset
from repro.cluster.router import spec_route_key
from repro.engine import Portfolio, clear_caches, set_solution_store
from repro.engine.async_service import AsyncSweepService
from repro.engine.store import SolutionStore, report_to_payload
from repro.loadgen.arrivals import Arrival, ArrivalSchedule
from repro.loadgen.client import LoadClient
from repro.scenarios import Axis, ScenarioGrid
from repro.serve import request_warm_cache
from repro.utils.validation import ValidationError


@pytest.fixture(autouse=True)
def _fresh_engine():
    clear_caches()
    set_solution_store(None)
    yield
    clear_caches()
    set_solution_store(None)


def run_async(coro, timeout: float = 120.0):
    async def _bounded():
        return await asyncio.wait_for(coro, timeout)
    return asyncio.run(_bounded())


GRID = ScenarioGrid(
    generators=({"generator": "fork-join",
                 "params": {"width": Axis([2, 3, 4]),
                            "work": Axis([4, 6])}},),
    budget_rules=(("makespan-factor", 0.5), ("makespan-factor", 0.75)),
)  # 12 cells

KEYS = [f"key-{i:04d}" for i in range(2000)]


# ---------------------------------------------------------------------------
# incremental ring mutation == full rebuild
# ---------------------------------------------------------------------------

class TestIncrementalRing:
    def _entries(self, ring: HashRing):
        return list(zip(ring._positions, ring._owners))

    def _rebuilt(self, nodes) -> HashRing:
        """The reference construction: everything sorted at once."""
        ring = HashRing(nodes)
        ring._rebuild()
        return ring

    def test_splice_in_matches_rebuild(self):
        ring = HashRing(["r0", "r1", "r2"])
        ring.add("r3")
        assert self._entries(ring) == \
               self._entries(self._rebuilt(["r0", "r1", "r2", "r3"]))

    def test_splice_out_matches_rebuild(self):
        ring = HashRing(["r0", "r1", "r2", "r3"])
        ring.remove("r1")
        assert self._entries(ring) == \
               self._entries(self._rebuilt(["r0", "r2", "r3"]))

    def test_mutation_chain_matches_rebuild(self):
        ring = HashRing(["r0", "r1"])
        for step in ("add r2", "add r3", "remove r0", "add r4", "remove r2"):
            op, node = step.split()
            getattr(ring, op)(node)
        assert self._entries(ring) == \
               self._entries(self._rebuilt(["r1", "r3", "r4"]))
        assert sorted(ring.nodes) == ["r1", "r3", "r4"]

    def test_version_counts_membership_changes(self):
        ring = HashRing(["r0", "r1"])
        assert ring.version == 0       # construction is epoch zero
        ring.add("r2")
        ring.add("r2")                 # idempotent: no change, no bump
        ring.remove("r1")
        ring.remove("r1")
        assert ring.version == 2

    def test_copy_is_an_independent_snapshot(self):
        ring = HashRing(["r0", "r1", "r2"])
        snap = ring.copy()
        ring.add("r3")
        assert "r3" in ring and "r3" not in snap
        assert snap.version == 0 and ring.version == 1
        assert [snap.route(k) for k in KEYS[:200]] == \
               [HashRing(["r0", "r1", "r2"]).route(k) for k in KEYS[:200]]

    def test_payload_roundtrip_preserves_placement_and_version(self):
        ring = HashRing(["r0", "r1", "r2"], vnodes=32)
        ring.add("r3")
        clone = HashRing.from_payload(
            json.loads(json.dumps(ring.to_payload())))
        assert clone.version == ring.version
        assert [clone.route(k) for k in KEYS[:200]] == \
               [ring.route(k) for k in KEYS[:200]]


# ---------------------------------------------------------------------------
# moved_keys: the resize diff
# ---------------------------------------------------------------------------

class TestMovedKeys:
    def _assert_exact(self, old: HashRing, new: HashRing):
        """moved_keys must agree with per-key route comparison exactly."""
        ranges = moved_keys(old, new)
        moved = set(moved_key_subset(ranges, KEYS))
        for key in KEYS:
            changed = old.route(key) != new.route(key)
            assert changed == (key in moved), key
            assert changed == any(r.contains(key) for r in ranges), key

    def test_join_diff_is_exact(self):
        old = HashRing(["r0", "r1", "r2"])
        new = old.copy()
        new.add("r3")
        self._assert_exact(old, new)
        # Every moved range is acquired by the joiner.
        assert {r.new_owner for r in moved_keys(old, new)} == {"r3"}

    def test_leave_diff_is_exact(self):
        old = HashRing(["r0", "r1", "r2", "r3"])
        new = old.copy()
        new.remove("r1")
        self._assert_exact(old, new)
        assert {r.old_owner for r in moved_keys(old, new)} == {"r1"}

    def test_join_moves_at_most_the_fair_share(self):
        """Acceptance gate: a 3->4 join moves <= 1/4 of keys + vnode slack."""
        old = HashRing(["r0", "r1", "r2"])
        new = old.copy()
        new.add("r3")
        ranges = moved_keys(old, new)
        moved_span = sum(r.span() for r in ranges)
        # The moved fraction of the position space is within a few percent
        # of the ideal 1/n share (vnode placement variance).
        assert moved_span / RING_POSITIONS <= 0.25 + 0.05
        moved = moved_key_subset(ranges, KEYS)
        slack = math.ceil(len(KEYS) * 0.05)
        assert len(moved) <= math.ceil(len(KEYS) / 4) + slack

    def test_identical_rings_move_nothing(self):
        ring = HashRing(["r0", "r1"])
        assert moved_keys(ring, ring.copy()) == []

    def test_moved_range_membership_helpers(self):
        position = _position("some-key")
        covering = MovedRange(position, position, "a", "b")
        assert covering.contains("some-key")
        assert covering.span() == 1
        assert not MovedRange(position + 1, position + 9, "a", "b") \
            .contains("some-key")
        assert moved_key_subset([], KEYS) == []


# ---------------------------------------------------------------------------
# scan_routed: the prewarm feeder
# ---------------------------------------------------------------------------

class TestScanRouted:
    def _populate(self, store_dir: str):
        async def body():
            service = AsyncSweepService(
                store=store_dir,
                portfolio=Portfolio(executor="thread", max_workers=2))
            async with service:
                ticket = await service.submit_specs(GRID)
                await ticket.results()

        run_async(body())
        clear_caches()
        set_solution_store(None)

    def test_partitions_the_store_exactly(self, tmp_path):
        store_dir = str(tmp_path / "store")
        self._populate(store_dir)
        view = SolutionStore(store_dir)
        everything = dict(view.scan(include_aliases=True))
        assert len(everything) == 2 * GRID.size()  # reports + aliases
        ring = HashRing(["r0", "r1", "r2"])
        seen = {}
        for owner in ring.nodes:
            for key, payload in view.scan_routed(ring, owner):
                assert key not in seen, "owners overlapped"
                seen[key] = payload
        assert seen == everything
        assert view.routed_scans == 3
        assert view.routed_entries == len(everything)
        assert view.routed_skips == 2 * len(everything)

    def test_aliases_co_locate_with_their_reports(self, tmp_path):
        """An alias routes by its *target* fingerprint, so every alias an
        owner receives arrives together with the report it points at --
        the pair a prewarmed joiner needs to answer spec traffic."""
        store_dir = str(tmp_path / "store")
        self._populate(store_dir)
        view = SolutionStore(store_dir)
        ring = HashRing(["r0", "r1", "r2"])
        for owner in ring.nodes:
            entries = dict(view.scan_routed(ring, owner))
            targets = {p["alias_of"] for p in entries.values()
                       if set(p) == {"alias_of"}}
            for target in targets:
                assert target in entries
                assert ring.route(target) == owner

    def test_exclude_aliases(self, tmp_path):
        store_dir = str(tmp_path / "store")
        self._populate(store_dir)
        view = SolutionStore(store_dir)
        ring = HashRing(["r0", "r1", "r2"])
        total = 0
        for owner in ring.nodes:
            for _, payload in view.scan_routed(ring, owner,
                                               include_aliases=False):
                assert set(payload) != {"alias_of"}
                total += 1
        assert total == GRID.size()


# ---------------------------------------------------------------------------
# prewarm state lives in the bounded caches
# ---------------------------------------------------------------------------

class TestBoundedPrewarm:
    def test_warm_cache_keeps_every_table_within_the_lru_bounds(self, tmp_path):
        """Warming more reports than the solution LRU holds installs only
        as many as it holds -- ``warmed`` is what stays resident -- while
        every alias is still learned, and no service-side table grows
        past the LRU bounds: the prewarm marks live on the LRU entries,
        the aliases in the bounded memo."""
        from repro.engine import core, fingerprint

        store = SolutionStore(str(tmp_path / "store"))
        spec = next(iter(GRID.expand()))

        async def solve_once():
            async with AsyncSweepService(
                    store=store,
                    portfolio=Portfolio(executor="thread",
                                        max_workers=1)) as service:
                return (await (await service.submit_specs([spec])).results())[0]

        report = run_async(solve_once()).report
        count = core._SOLUTION_CACHE.maxsize + 88
        store.put_many([(f"fake-{i:04d}", report_to_payload(report, f"fake-{i:04d}"))
                        for i in range(count)]
                       + [(f"alias-{i:04d}", {"alias_of": f"fake-{i:04d}"})
                          for i in range(count)])
        clear_caches()
        service = AsyncSweepService(
            store=store, portfolio=Portfolio(executor="thread", max_workers=1))
        outcome = service.warm_cache()
        assert outcome == {"warmed": core._SOLUTION_CACHE.maxsize,
                           "aliases": count + 1}
        assert service.stats.prewarmed == outcome["warmed"]
        resident = [key for key, _payload in store.scan()
                    if core._SOLUTION_CACHE.peek(key) is not None]
        assert len(resident) == outcome["warmed"]
        assert len(core._SOLUTION_CACHE) <= core._SOLUTION_CACHE.maxsize
        assert len(fingerprint._SPEC_KEY_CACHE) <= fingerprint._SPEC_KEY_CACHE.maxsize
        for name, table in vars(service).items():
            if isinstance(table, (dict, set, list)):
                assert len(table) <= core._SOLUTION_CACHE.maxsize, name

    def test_evicted_prewarmed_keys_share_one_batched_store_read(self, tmp_path):
        """A prewarmed key the LRU has since dropped is answered by the
        plan's one batched store read, not by a read of its own."""
        store_dir = str(tmp_path / "store")
        specs = list(GRID.expand())[:3]
        problems = [spec.materialize() for spec in specs]

        async def populate():
            async with AsyncSweepService(
                    store=store_dir,
                    portfolio=Portfolio(executor="thread",
                                        max_workers=1)) as service:
                await (await service.submit(problems)).results()

        run_async(populate())
        clear_caches()
        store = SolutionStore(store_dir)
        reads = []
        real_read = store.get_raw_many
        store.get_raw_many = lambda keys: reads.append(list(keys)) or real_read(keys)

        async def body():
            async with AsyncSweepService(
                    store=store,
                    portfolio=Portfolio(executor="thread",
                                        max_workers=1)) as service:
                assert service.warm_cache()["warmed"] == len(problems)
                clear_caches()  # every prewarmed entry leaves the LRU
                results = await (await service.submit(problems)).results()
                return results, service.stats

        results, stats = run_async(body())
        assert [r.source for r in results] == ["store"] * len(problems)
        assert stats.store_hits == len(problems) and stats.prewarm_hits == 0
        assert len(reads) == 1 and len(reads[0]) == len(problems)


# ---------------------------------------------------------------------------
# the warm_cache wire op
# ---------------------------------------------------------------------------

class TestWarmCacheOp:
    def test_warms_exactly_the_owned_range(self, tmp_path):
        store_dir = str(tmp_path / "store")

        async def populate():
            service = AsyncSweepService(
                store=store_dir,
                portfolio=Portfolio(executor="thread", max_workers=2))
            async with service:
                await (await service.submit_specs(GRID)).results()

        run_async(populate())
        clear_caches()
        set_solution_store(None)

        ring = HashRing(["r0", "r1", "r2"])
        view = SolutionStore(store_dir)
        owned = [key for key, payload in view.scan_routed(ring, "r1")
                 if set(payload) != {"alias_of"}]

        async def body():
            async with LocalCluster(1, store_root=store_dir) as cluster:
                address = cluster.addresses()[0]
                reply = await request_warm_cache(
                    unix_socket=address.unix_socket,
                    ring=ring.to_payload(), owner="r1")
                metrics = cluster.servers["runner-0"].service.snapshot()
                return reply, metrics

        reply, metrics = run_async(body())
        assert reply["warmed"] == len(owned) > 0
        assert reply["aliases"] > 0
        assert metrics["service"]["prewarmed"] == len(owned)

    def test_bad_requests_are_structured_errors(self, tmp_path):
        async def body():
            async with LocalCluster(1) as cluster:
                address = cluster.addresses()[0]
                with pytest.raises(ValidationError, match="owner"):
                    await request_warm_cache(
                        unix_socket=address.unix_socket,
                        ring=HashRing(["r0"]).to_payload(), owner=None)
                with pytest.raises(ValidationError, match="nodes"):
                    await request_warm_cache(
                        unix_socket=address.unix_socket,
                        ring={"nodes": "nope"}, owner="r0")
                # No store configured: warming is a harmless no-op.
                reply = await request_warm_cache(
                    unix_socket=address.unix_socket)
                return reply

        reply = run_async(body())
        assert reply == {"id": "warm-1", "warmed": 0, "aliases": 0,
                         "runner": "runner-0"}


# ---------------------------------------------------------------------------
# live elastic resizes
# ---------------------------------------------------------------------------

class TestElasticLifecycle:
    def test_join_prewarms_and_moves_minimally(self, tmp_path):
        store_dir = str(tmp_path / "store")

        async def body():
            async with LocalCluster(3, store_root=store_dir) as cluster:
                client = ClusterClient(cluster.addresses())
                before = await client.sweep_specs(GRID)
                # Cold the (process-shared) tier-1 LRU so the joiner's
                # prewarm actually installs entries, as it would in a
                # fresh multi-host process.
                clear_caches()
                address = await cluster.start_runner("runner-3")
                outcome = await client.add_runner(address)
                after = await client.sweep_specs(GRID)
                return client, before, outcome, after

        client, before, outcome, after = run_async(body())
        # Minimal movement: a 3->4 join moves at most the fair quarter of
        # the last sweep's cells, plus vnode-placement slack.
        assert outcome["action"] == "add"
        assert outcome["ring_version"] == 1
        assert 1 <= outcome["cells_moved"] <= math.ceil(GRID.size() / 4) + 2
        # The joiner's key range was bulk-loaded before it took traffic.
        assert outcome["warmed"] > 0
        assert outcome["aliases"] > 0
        assert "warm_error" not in outcome
        # Warm handoff: the post-join sweep recomputes nothing -- every
        # cell answers from prewarmed memory or the shared store -- and
        # the results are bit-identical.
        assert [r["key"] for r in after] == [r["key"] for r in before]
        assert json.dumps([r["report"] for r in after], sort_keys=True) == \
               json.dumps([r["report"] for r in before], sort_keys=True)
        assert {r["source"] for r in after} <= {"store", "memory"}
        assert client.stats.prewarm_hits > 0
        assert client.stats.affinity() == 1.0
        assert client.stats.ring_version == 1
        # The joiner serves its acquired share.
        assert "runner-3" in {r["runner"] for r in after}

    def test_join_then_leave_round_trips_placement(self, tmp_path):
        store_dir = str(tmp_path / "store")

        async def body():
            async with LocalCluster(3, store_root=store_dir) as cluster:
                client = ClusterClient(cluster.addresses())
                before = await client.sweep_specs(GRID)
                address = await cluster.start_runner("runner-3")
                await client.add_runner(address, prewarm=False)
                outcome = client.remove_runner("runner-3")
                await cluster.stop_runner("runner-3")
                after = await client.sweep_specs(GRID)
                return client, before, outcome, after

        client, before, outcome, after = run_async(body())
        assert outcome["ring_version"] == 2
        # add then remove is a placement no-op: same runner per cell.
        assert [(r["runner"], r["key"]) for r in after] == \
               [(r["runner"], r["key"]) for r in before]
        assert client.stats.reroutes == 0

    def test_graceful_leave_mid_deployment_is_bit_identical(self, tmp_path):
        """A planned leave must not change a single byte of any report."""
        store_dir = str(tmp_path / "store")

        async def static():
            service = AsyncSweepService(
                store=store_dir,
                portfolio=Portfolio(executor="thread", max_workers=2))
            async with service:
                return await (await service.submit_specs(GRID)).results()

        expected = [(r.key, report_to_payload(r.report, r.key))
                    for r in run_async(static())]
        clear_caches()
        set_solution_store(None)

        async def elastic():
            async with LocalCluster(3, store_root=store_dir) as cluster:
                client = ClusterClient(cluster.addresses())
                await client.sweep_specs(GRID)
                outcome = client.remove_runner("runner-1")
                await cluster.stop_runner("runner-1", graceful=True)
                final = await client.sweep_specs(GRID)
                return client, outcome, final

        client, outcome, final = run_async(elastic())
        assert outcome["action"] == "remove"
        assert outcome["ring_version"] == 1
        assert "runner-1" not in {r["runner"] for r in final}
        assert client.stats.reroutes == 0  # planned, not failover
        got = [(r["key"], r["report"]) for r in final]
        assert json.dumps(got, sort_keys=True) == \
               json.dumps(expected, sort_keys=True)

    def test_remove_guards(self):
        async def body():
            async with LocalCluster(1) as cluster:
                client = ClusterClient(cluster.addresses())
                with pytest.raises(ValidationError, match="unknown"):
                    client.remove_runner("nope")
                with pytest.raises(ValidationError, match="last"):
                    client.remove_runner("runner-0")
                address = cluster.addresses()[0]
                with pytest.raises(ValidationError, match="registered"):
                    await client.add_runner(address)

        run_async(body())

    def test_tcp_transport_runs_the_same_protocol(self, tmp_path):
        """The multi-host shape: everything above over TCP sockets."""
        store_dir = str(tmp_path / "store")

        async def body():
            async with LocalCluster(2, store_root=store_dir,
                                    transport="tcp") as cluster:
                client = ClusterClient(cluster.addresses())
                before = await client.sweep_specs(GRID)
                clear_caches()
                address = await cluster.start_runner("runner-2")
                assert address.port is not None
                outcome = await client.add_runner(address)
                after = await client.sweep_specs(GRID)
                return client, before, outcome, after

        client, before, outcome, after = run_async(body())
        assert outcome["warmed"] > 0
        assert [r["report"] for r in after] == [r["report"] for r in before]
        assert {r["source"] for r in after} <= {"store", "memory"}
        assert client.stats.affinity() == 1.0


class TestRouterResizeOp:
    def test_resize_over_the_wire(self, tmp_path):
        sock = str(tmp_path / "router.sock")
        store_dir = str(tmp_path / "store")

        async def talk(payload):
            reader, writer = await asyncio.open_unix_connection(sock)
            writer.write(json.dumps(payload).encode() + b"\n")
            await writer.drain()
            line = await reader.readline()
            writer.close()
            await writer.wait_closed()
            return json.loads(line)

        async def body():
            async with LocalCluster(3, store_root=store_dir) as cluster:
                client = ClusterClient(cluster.addresses())
                await client.sweep_specs(GRID)
                clear_caches()
                async with RouterServer(client, unix_socket=sock):
                    ring_before = await talk({"op": "ring", "id": "g0"})
                    address = await cluster.start_runner("runner-3")
                    joined = await talk(
                        {"op": "resize", "id": "r1", "action": "add",
                         "runner": {"name": address.name,
                                    "unix_socket": address.unix_socket}})
                    left = await talk(
                        {"op": "resize", "id": "r2", "action": "remove",
                         "runner": "runner-0"})
                    await cluster.stop_runner("runner-0")
                    ring_after = await talk({"op": "ring", "id": "g1"})
                    bad = await talk({"op": "resize", "id": "r3",
                                      "action": "shrinkify"})
                return ring_before, joined, left, ring_after, bad

        ring_before, joined, left, ring_after, bad = run_async(body())
        assert ring_before["ring"]["version"] == 0
        assert sorted(ring_before["ring"]["nodes"]) == \
               ["runner-0", "runner-1", "runner-2"]
        assert joined["action"] == "add" and joined["ring_version"] == 1
        assert joined["warmed"] > 0
        assert left["action"] == "remove" and left["ring_version"] == 2
        assert sorted(ring_after["ring"]["nodes"]) == \
               ["runner-1", "runner-2", "runner-3"]
        assert sorted(ring_after["healthy"]) == \
               ["runner-1", "runner-2", "runner-3"]
        assert "error" in bad and "action" in bad["error"]


# ---------------------------------------------------------------------------
# chaos: resize under live loadgen traffic
# ---------------------------------------------------------------------------

def _wave_schedule(cells: int, waves: int, gap: float = 0.0
                   ) -> ArrivalSchedule:
    """``waves`` full passes over every cell, wave *w* starting at
    ``w * gap`` seconds (0.0 collapses them into one burst)."""
    arrivals = tuple(Arrival(time=w * gap, cell=c)
                     for w in range(waves) for c in range(cells))
    return ArrivalSchedule(process="waves", seed=0, rate=0.0, skew=0.0,
                           num_cells=cells, arrivals=arrivals)


class TestElasticUnderLoad:
    def test_chaos_resize_between_waves(self, tmp_path):
        """Join + graceful leave + hard kill under loadgen traffic.

        Wave 1 replays every cell against the static 3-runner cluster;
        between waves the topology churns (runner-3 joins with an
        explicit prewarm, runner-0 leaves gracefully, runner-1 is
        SIGKILLed after being routed away from); wave 2 replays every
        cell against the survivors.  Every request must succeed, the
        reports must be bit-identical to a static single-runner run, and
        no cell may be computed more than once cluster-wide.
        """
        store_dir = str(tmp_path / "store")

        async def static():
            # The baseline solves into its *own* store: the elastic run
            # below must do (exactly) its own computing.
            service = AsyncSweepService(
                store=str(tmp_path / "baseline"),
                portfolio=Portfolio(executor="thread", max_workers=2))
            async with service:
                return await (await service.submit_specs(GRID)).results()

        baseline = {r.key: report_to_payload(r.report, r.key)
                    for r in run_async(static())}
        clear_caches()
        set_solution_store(None)
        specs = list(GRID.expand())

        async def chaotic():
            async with LocalCluster(3, store_root=store_dir) as cluster:
                client = LoadClient(cluster=cluster.addresses(),
                                    time_scale=0.0)
                wave1 = await client.run(
                    _wave_schedule(len(specs), waves=1), specs)
                snap1 = {
                    name: cluster.servers[name].service.snapshot()["service"]
                    for name in cluster.runner_names}
                # -- the churn ------------------------------------------
                clear_caches()  # cold LRU: the joiner prewarms for real
                address = await cluster.start_runner("runner-3")
                warm = await request_warm_cache(
                    unix_socket=address.unix_socket,
                    ring=HashRing([*cluster.runner_names]).to_payload(),
                    owner="runner-3")
                await client.add_runner(address)
                client.remove_runner("runner-0")
                await cluster.stop_runner("runner-0", graceful=True)
                client.remove_runner("runner-1")
                await cluster.stop_runner("runner-1", graceful=False)
                # -- the survivors take wave 2 --------------------------
                wave2 = await client.run(
                    _wave_schedule(len(specs), waves=2), specs)
                snap2 = {
                    name: cluster.servers[name].service.snapshot()["service"]
                    for name in cluster.runner_names}
                return wave1, snap1, warm, wave2, snap2

        wave1, snap1, warm, wave2, snap2 = run_async(chaotic())
        outcomes = wave1 + wave2
        assert all(o.ok for o in outcomes)
        assert not any(o.rejected for o in outcomes)
        assert warm["warmed"] > 0
        # Zero duplicate compute across the whole churny run: wave 1
        # solved each cell exactly once, everything after is a cache or
        # store answer on whichever runner currently owns the cell.
        assert sum(s["computed"] for s in snap1.values()) == len(specs)
        assert snap2["runner-2"]["computed"] == snap1["runner-2"]["computed"]
        assert snap2["runner-3"]["computed"] == 0
        assert all(o.source in ("store", "memory") for o in wave2)
        # The joiner answered moved cells straight from prewarmed memory.
        assert snap2["runner-3"]["prewarm_hits"] > 0
        # Bit-identical to the static single-runner baseline: the churny
        # cluster persisted byte-for-byte the same report payloads.
        assert {o.key for o in outcomes} == set(baseline)
        view = SolutionStore(store_dir)

        def solved(payload):
            # Everything but the measured wall clock must match exactly.
            return {k: v for k, v in payload.items() if k != "wall_time"}

        for key, expected_payload in baseline.items():
            report = view.get_report(key)
            assert report is not None
            assert solved(report_to_payload(report, key)) == \
                   solved(expected_payload)

    def test_mid_replay_membership_change(self, tmp_path):
        """add_runner/remove_runner while a replay is in flight.

        Wave 1 fires at t=0 on three runners; the membership change runs
        while the replay is live (a joiner enters the client ring, a
        leaver is routed away from); wave 2 fires afterwards and routes
        on the resized ring.  The retired runner's in-flight requests
        finish on their parked connection, so every outcome is ok.
        """
        store_dir = str(tmp_path / "store")
        specs = list(GRID.expand())

        async def body():
            async with LocalCluster(3, store_root=store_dir) as cluster:
                client = LoadClient(cluster=cluster.addresses(),
                                    time_scale=1.0, request_timeout=90.0)
                schedule = _wave_schedule(len(specs), waves=2, gap=2.0)
                replay = asyncio.ensure_future(client.run(schedule, specs))
                # Resize while wave 1 is (or may still be) in flight.
                await asyncio.sleep(0.3)
                address = await cluster.start_runner("runner-3")
                await client.add_runner(address)
                client.remove_runner("runner-0")
                outcomes = await replay
                snapshots = {
                    name: cluster.servers[name].service.snapshot()["service"]
                    for name in ("runner-0", "runner-3")}
                # The leaver only drains after the replay completes.
                await cluster.stop_runner("runner-0", graceful=True)
                return outcomes, snapshots

        outcomes, snapshots = run_async(body())
        assert len(outcomes) == 2 * len(specs)
        assert all(o.ok for o in outcomes)
        # Post-resize traffic routes on the new ring: the joiner served
        # its share of wave 2, the leaver saw nothing past wave 1 (its
        # deterministic share of the original ring is 4 of 12 cells).
        assert snapshots["runner-3"]["requests"] >= 1
        assert snapshots["runner-0"]["requests"] <= 4

    def test_membership_guards(self):
        client = LoadClient(cluster=[RunnerAddress(name="a", port=1),
                                     RunnerAddress(name="b", port=2)])
        single = LoadClient(port=1)

        async def body():
            with pytest.raises(ValidationError, match="cluster"):
                await single.add_runner(RunnerAddress(name="c", port=3))
            with pytest.raises(ValidationError, match="already"):
                await client.add_runner(RunnerAddress(name="a", port=9))
            with pytest.raises(ValidationError, match="unknown"):
                client.remove_runner("zzz")
            client.remove_runner("a")
            with pytest.raises(ValidationError, match="last"):
                client.remove_runner("b")

        run_async(body())
