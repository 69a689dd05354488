"""Tests for the traffic-realism harness (repro.loadgen).

Schedule generation, Zipf skew, percentile math and report round-trips
are pure computation and tested exhaustively; one integration class runs
the full client against a live unix-socket server twice and pins the
acceptance contract: same seed -> identical schedules and identical
machine-independent metrics, with client/server accounting reconciled.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import re

import pytest

from repro.engine import Portfolio, clear_caches, set_solution_store
from repro.loadgen import (
    ARRIVAL_PROCESSES,
    ChaosConfig,
    LoadReport,
    ZipfCells,
    build_report,
    build_schedule,
    percentile,
    render_report,
    run_load,
)
from repro.loadgen.chaos import FAULT_DISCONNECT, FAULT_MALFORMED, FAULT_OVERSIZE
from repro.loadgen.client import RequestOutcome
from repro.scenarios import Axis, ScenarioGrid
from repro.utils.validation import ValidationError


@pytest.fixture(autouse=True)
def _fresh_engine():
    clear_caches()
    set_solution_store(None)
    yield
    clear_caches()
    set_solution_store(None)


def run_async(coro, timeout: float = 60.0):
    async def _bounded():
        return await asyncio.wait_for(coro, timeout)
    return asyncio.run(_bounded())


class TestArrivalSchedules:
    @pytest.mark.parametrize("process", sorted(ARRIVAL_PROCESSES))
    def test_same_seed_same_schedule(self, process):
        a = build_schedule(process, rate=40.0, count=150, num_cells=12,
                           skew=1.2, seed=7)
        b = build_schedule(process, rate=40.0, count=150, num_cells=12,
                           skew=1.2, seed=7)
        c = build_schedule(process, rate=40.0, count=150, num_cells=12,
                           skew=1.2, seed=8)
        assert a.arrivals == b.arrivals
        assert a.signature() == b.signature()
        assert a.signature() != c.signature()

    @pytest.mark.parametrize("process", sorted(ARRIVAL_PROCESSES))
    def test_times_strictly_increasing(self, process):
        schedule = build_schedule(process, rate=100.0, count=300, seed=3)
        times = schedule.times()
        assert len(times) == 300
        assert all(earlier < later
                   for earlier, later in zip(times, times[1:]))
        assert all(0 <= a.cell < schedule.num_cells
                   for a in schedule.arrivals)

    def test_poisson_mean_rate_is_roughly_nominal(self):
        schedule = build_schedule("poisson", rate=200.0, count=4000, seed=1)
        realized = len(schedule) / schedule.duration()
        assert 0.9 * 200.0 < realized < 1.1 * 200.0

    def test_bursty_keeps_the_mean_rate(self):
        schedule = build_schedule("bursty", rate=200.0, count=4000, seed=1)
        realized = len(schedule) / schedule.duration()
        assert 0.85 * 200.0 < realized < 1.15 * 200.0

    def test_skew_never_perturbs_times(self):
        mild = build_schedule("poisson", rate=50.0, count=100, skew=0.2,
                              seed=5, num_cells=32)
        hot = build_schedule("poisson", rate=50.0, count=100, skew=2.0,
                             seed=5, num_cells=32)
        assert mild.times() == hot.times()
        assert mild.cells() != hot.cells()

    def test_skew_concentrates_traffic(self):
        uniform = build_schedule("poisson", rate=50.0, count=120,
                                 num_cells=64, skew=0.0, seed=11)
        skewed = build_schedule("poisson", rate=50.0, count=120,
                                num_cells=64, skew=1.5, seed=11)
        assert skewed.unique_cells() < uniform.unique_cells()
        assert skewed.dedup_ratio() > uniform.dedup_ratio()

    def test_signature_pinned_cross_machine(self):
        # random.Random is the Mersenne Twister, stable by contract: this
        # exact digest must reproduce on any platform/Python build.
        schedule = build_schedule("poisson", rate=10.0, count=8,
                                  num_cells=4, skew=1.0, seed=42)
        assert schedule.signature() == (
            "8fd7705b22fd3097f1caa979927262482ae82c4aaa84afcccc0762185ab45db9")

    def test_validation(self):
        with pytest.raises(ValidationError):
            build_schedule("diurnal")
        with pytest.raises(ValidationError):
            build_schedule("poisson", rate=0.0)
        empty = build_schedule("poisson", count=0)
        assert len(empty) == 0 and empty.duration() == 0.0
        assert empty.dedup_ratio() == 0.0


class TestZipfCells:
    def test_hot_ranks_dominate(self):
        sampler = ZipfCells(16, skew=1.2)
        rng = random.Random(0)
        counts = [0] * 16
        for _ in range(8000):
            counts[sampler.sample(rng)] += 1
        assert counts[0] > counts[4] > counts[15]
        assert counts[0] > 8000 / 16 * 3  # far above the uniform share

    def test_zero_skew_is_uniform(self):
        sampler = ZipfCells(8, skew=0.0)
        rng = random.Random(1)
        counts = [0] * 8
        for _ in range(16000):
            counts[sampler.sample(rng)] += 1
        assert max(counts) < 1.25 * min(counts)

    def test_single_cell_and_validation(self):
        assert ZipfCells(1).sample(random.Random(0)) == 0
        with pytest.raises(ValidationError):
            ZipfCells(0)
        with pytest.raises(ValidationError):
            ZipfCells(4, skew=-0.1)


class TestPercentile:
    def test_nearest_rank_on_known_samples(self):
        samples = list(range(1, 101))  # 1..100
        assert percentile(samples, 50) == 50
        assert percentile(samples, 95) == 95
        assert percentile(samples, 99) == 99
        assert percentile(samples, 100) == 100
        assert percentile(samples, 0) == 1

    def test_order_independent_and_small_samples(self):
        assert percentile([9.0, 1.0, 5.0], 50) == 5.0
        assert percentile([7.5], 99) == 7.5
        assert percentile([3.0, 4.0], 50) == 3.0
        assert percentile([3.0, 4.0], 51) == 4.0

    def test_empty_and_bounds(self):
        assert math.isnan(percentile([], 50))
        with pytest.raises(ValidationError):
            percentile([1.0], 101)


class TestChaosConfig:
    def test_cadence_is_positional(self):
        chaos = ChaosConfig(malformed_every=3)
        hits = [i for i in range(12) if chaos.fault_for(i)]
        assert hits == [2, 5, 8, 11]
        assert chaos.fault_for(2) == FAULT_MALFORMED

    def test_precedence_on_overlap(self):
        chaos = ChaosConfig(malformed_every=4, oversize_every=2,
                            disconnect_every=2)
        assert chaos.fault_for(3) == FAULT_MALFORMED   # both match; fixed order
        assert chaos.fault_for(1) == FAULT_OVERSIZE    # oversize before disconnect
        assert chaos.fault_for(0) is None

    def test_inactive_and_validation(self):
        assert not ChaosConfig().active
        assert ChaosConfig().fault_for(123) is None
        assert ChaosConfig(disconnect_every=5).active
        with pytest.raises(ValidationError):
            ChaosConfig(malformed_every=-1)
        with pytest.raises(ValidationError):
            ChaosConfig(oversize_bytes=8)


def _fake_metrics(requests=0, deduped=0, store_hits=0, computed=0,
                  failed=0, cancelled=0, rejections=0, protocol_errors=0):
    return {
        "snapshot_schema": 1,
        "service": {"requests": requests, "batches": 0, "deduped": deduped,
                    "store_hits": store_hits, "computed": computed,
                    "failed": failed, "cancelled": cancelled, "shards": 0},
        "server": {"connections": 1, "requests": requests,
                   "protocol_errors": protocol_errors, "oversized_lines": 0,
                   "rejections": rejections, "slow_reader_drops": 0},
        "store": {"hits": store_hits, "misses": computed,
                  "writes": computed},
    }


def _outcomes(count, cells, latencies):
    return [RequestOutcome(index=i, cell=cells[i], kind="sweep", ok=True,
                           rejected=False, latency_s=latencies[i],
                           source="computed", key=f"k{cells[i]}")
            for i in range(count)]


class TestReport:
    def _report(self):
        schedule = build_schedule("poisson", rate=50.0, count=6,
                                  num_cells=4, skew=0.0, seed=2)
        cells = schedule.cells()
        unique = schedule.unique_cells()
        outcomes = _outcomes(6, cells, [0.010, 0.020, 0.030, 0.040,
                                        0.050, 0.060])
        before = _fake_metrics()
        after = _fake_metrics(requests=6, computed=unique,
                              deduped=6 - unique)
        return build_report(schedule, outcomes, before, after, wall_s=0.5)

    def test_round_trips_through_payload_json(self):
        report = self._report()
        clone = LoadReport.from_payload(json.loads(report.to_json()))
        assert clone.to_payload() == report.to_payload()
        assert clone.machine_independent() == report.machine_independent()
        assert clone.reconcile() == report.reconcile() == []

    def test_machine_independent_has_no_wall_clock(self):
        metrics = self._report().machine_independent()
        assert metrics["reconciled"] is True
        assert metrics["requests"] == 6
        assert metrics["cells_solved"] == metrics["unique_cells"]
        assert not any("wall" in name or "latency" in name or "_ms" in name
                       for name in metrics)

    def test_reconcile_flags_doctored_counters(self):
        report = self._report()
        report.server_delta["service"]["computed"] += 1
        problems = report.reconcile()
        assert problems and "tiers sum" in problems[0]
        assert report.machine_independent()["reconciled"] is False

    def test_reconcile_flags_missing_rejections(self):
        report = self._report()
        report.counts["rejected"] = 2
        report.counts["requests"] += 2
        assert any("rejections" in problem for problem in report.reconcile())

    def test_latency_percentiles_from_outcomes(self):
        report = self._report()
        assert report.latency_ms["p50"] == 30.0
        assert report.latency_ms["p99"] == 60.0
        assert report.latency_ms["max"] == 60.0
        assert report.counts["ok"] == 6

    def test_schema_guard(self):
        with pytest.raises(ValidationError):
            LoadReport.from_payload({"report_schema": 2})


GRID = ScenarioGrid(
    generators=({"generator": "fork-join",
                 "params": {"width": Axis([2, 3]), "work": 4}},),
    budget_rules=(("makespan-factor", 0.5), ("makespan-factor", 0.75)),
)


class TestLiveLoad:
    def _run_once(self, store_dir, seed=0):
        from repro.engine.async_service import AsyncSweepService
        from repro.serve import SweepServer

        schedule = build_schedule("poisson", rate=200.0, count=30,
                                  num_cells=GRID.size(), skew=1.2, seed=seed)

        async def body():
            service = AsyncSweepService(
                store=str(store_dir),
                portfolio=Portfolio(executor="thread", max_workers=2))
            socket_path = str(store_dir) + ".sock"
            async with SweepServer(service, unix_socket=socket_path):
                return await run_load(schedule, GRID,
                                      unix_socket=socket_path,
                                      connections=3, time_scale=0.0)
        return run_async(body())

    def test_same_seed_runs_reconcile_and_match(self, tmp_path):
        first = self._run_once(tmp_path / "a")
        clear_caches()
        set_solution_store(None)
        second = self._run_once(tmp_path / "b")
        assert first.reconcile() == []
        assert second.reconcile() == []
        assert first.machine_independent() == second.machine_independent()
        assert first.schedule["signature"] == second.schedule["signature"]
        assert first.counts["ok"] == 30
        assert first.cells_solved == first.schedule["unique_cells"]
        lat = first.latency_ms
        assert lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]

    def test_store_aware_router_runs_reconcile_cold_and_warm(self, tmp_path):
        """Through a router planning against the shared store, a warm
        replay is answered by the router itself (``planned_local``): those
        slots count on the server side of the reconciliation, so the cold
        and the warm replay both reconcile."""
        from repro.cluster import ClusterClient, LocalCluster, RouterServer

        schedule = build_schedule("poisson", rate=200.0, count=30,
                                  num_cells=GRID.size(), skew=1.2, seed=3)
        sock = str(tmp_path / "router.sock")

        async def body():
            async with LocalCluster(3, store_root=str(tmp_path / "store")) as cluster:
                client = ClusterClient(cluster.addresses(),
                                       store=cluster.store_view())
                async with RouterServer(client, unix_socket=sock):
                    cold = await run_load(schedule, GRID, unix_socket=sock,
                                          connections=3, time_scale=0.0)
                    warm = await run_load(schedule, GRID, unix_socket=sock,
                                          connections=3, time_scale=0.0)
                return cold, warm

        cold, warm = run_async(body())
        assert cold.reconcile() == [] and warm.reconcile() == []
        assert warm.counts["ok"] == 30
        assert warm.server_delta["router"]["planned_local"] == 30
        assert warm.server_delta["service"]["requests"] == 0
        assert warm.cells_solved == 0
        # Every warm slot was a shared answer -- the router's own.
        assert warm.shared_hits == 30
        assert warm.machine_independent()["shared_hits"] == 30
        assert re.search(r"shared hits \(dedup\+store\+memory\+router\) +\| 30\b",
                         render_report(warm))

    def test_cli_quick_run_exits_clean(self, tmp_path, capsys):
        from repro.loadgen.__main__ import main

        json_path = str(tmp_path / "report.json")
        assert main(["--quick", "--requests", "12", "--json", json_path]) == 0
        out = capsys.readouterr().out
        assert "p99" in out and "reconciliation" in out
        payload = json.load(open(json_path, encoding="utf-8"))
        report = LoadReport.from_payload(payload)
        assert report.reconcile() == []
        assert report.counts["requests"] == 12
