"""Tests for the incremental sweep engine (grid-diff planning, manifest
v2 resume, adaptive sharding, cross-process claims).

Covers the planning tier end to end: ``grid_diff`` set arithmetic
(property-based), ``build_sweep_plan`` classification against the store
and a resume manifest, ``recommend_shard_size`` adaptivity, the v1-to-v2
manifest forward compatibility, store-level solve claims with the
``dup_solves_avoided`` short-circuit, the router's local planning tier
(pending-only cluster wire) and a kill-and-restart ``repro.serve``
resume over a real subprocess.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import ClusterClient, LocalCluster
from repro.engine import Portfolio, clear_caches, set_solution_store
from repro.engine.async_service import AsyncSweepService
from repro.engine.plan import (
    CELL_ALIAS_HIT,
    CELL_MANIFEST_DONE,
    CELL_PENDING,
    CELL_STORE_HIT,
    build_sweep_plan,
    recommend_shard_size,
)
from repro.engine.service import (
    MANIFEST_SCHEMA_VERSION,
    SweepService,
    load_manifest_state,
    write_manifest,
)
from repro.engine import store as store_module
from repro.engine.store import SolutionStore, report_to_payload
from repro.scenarios import (
    Axis,
    ScenarioGrid,
    ScenarioSpec,
    grid_diff,
    materialization_info,
    reset_materialization_counters,
)


@pytest.fixture(autouse=True)
def _fresh_engine():
    clear_caches()
    set_solution_store(None)
    reset_materialization_counters()
    yield
    clear_caches()
    set_solution_store(None)


def run_async(coro, timeout: float = 60.0):
    async def _bounded():
        return await asyncio.wait_for(coro, timeout)
    return asyncio.run(_bounded())


def make_grid(widths, seeds=(0,), budgets=(4.0,)) -> ScenarioGrid:
    return ScenarioGrid(
        generators=({"generator": "fork-join",
                     "params": {"width": Axis(sorted(set(widths))),
                                "work": 8}},),
        seeds=tuple(seeds),
        budget_rules=tuple(("const", float(b)) for b in budgets))


def make_specs(widths, budget=4.0):
    return [ScenarioSpec("fork-join", {"width": w, "work": 8},
                         budget_rule=("const", float(budget)))
            for w in widths]


def thread_service(root, **kwargs) -> SweepService:
    return SweepService(store=SolutionStore(str(root)),
                        portfolio=Portfolio(executor="thread",
                                            max_workers=2),
                        **kwargs)


widths_st = st.lists(st.integers(2, 8), min_size=1, max_size=4,
                     unique=True)
seeds_st = st.lists(st.integers(0, 3), min_size=1, max_size=2,
                    unique=True)


# ---------------------------------------------------------------------------
# grid_diff properties
# ---------------------------------------------------------------------------

class TestGridDiff:
    @settings(deadline=None, max_examples=25)
    @given(widths_st, seeds_st)
    def test_self_diff_is_empty(self, widths, seeds):
        grid = make_grid(widths, seeds)
        diff = grid_diff(grid, grid)
        assert diff.is_empty
        assert not diff.gained and not diff.lost
        assert ({s.cell_digest() for s in diff.shared}
                == set(grid.cells_by_digest()))

    @settings(deadline=None, max_examples=25)
    @given(widths_st, widths_st, seeds_st)
    def test_partition_invariants(self, old_widths, new_widths, seeds):
        old, new = make_grid(old_widths, seeds), make_grid(new_widths, seeds)
        diff = grid_diff(old, new)
        old_digests = set(old.cells_by_digest())
        new_digests = set(new.cells_by_digest())
        gained = {s.cell_digest() for s in diff.gained}
        lost = {s.cell_digest() for s in diff.lost}
        shared = {s.cell_digest() for s in diff.shared}
        assert gained == new_digests - old_digests
        assert lost == old_digests - new_digests
        assert shared == old_digests & new_digests
        assert not gained & lost and not gained & shared and not lost & shared
        assert diff.counts() == {"gained": len(gained), "lost": len(lost),
                                 "shared": len(shared)}

    def test_diff_builds_zero_dags(self):
        reset_materialization_counters()
        diff = grid_diff(make_grid([2, 3, 4]), make_grid([3, 4, 5]))
        assert diff.counts() == {"gained": 1, "lost": 1, "shared": 2}
        assert materialization_info()["dag_builds"] == 0


# ---------------------------------------------------------------------------
# SweepPlan classification
# ---------------------------------------------------------------------------

def _planned(specs, store, manifest_done=None):
    from repro.engine.fingerprint import spec_alias_key
    cells = [(spec_alias_key(s, "auto"), s) for s in specs]
    return build_sweep_plan(cells, "auto", store=store,
                            manifest_done=manifest_done)


class TestSweepPlan:
    def test_cold_store_everything_pending(self, tmp_path):
        store = SolutionStore(str(tmp_path / "store"))
        plan = _planned(make_specs([2, 3, 4]), store)
        assert plan.count(CELL_PENDING) == 3 and not plan.done
        assert plan.hit_rate == 0.0

    def test_no_store_everything_pending(self):
        plan = _planned(make_specs([2, 3]), None)
        assert all(c.status == CELL_PENDING for c in plan.cells)

    def test_warm_store_alias_and_store_hits(self, tmp_path):
        specs = make_specs([2, 3, 4])
        with thread_service(tmp_path / "store") as service:
            service.run(specs)
        store = SolutionStore(str(tmp_path / "store"))
        # Fingerprint memo still warm: the plan probes by request key.
        plan = _planned(specs, store)
        assert plan.count(CELL_STORE_HIT) == 3
        # Fresh process (memo dropped): resolution goes via the persisted
        # spec alias instead, and the plan records the recovered key.
        clear_caches()
        plan = _planned(specs, store)
        assert plan.count(CELL_ALIAS_HIT) == 3
        assert all(c.key and c.report is not None for c in plan.cells)
        assert plan.hit_rate == 1.0

    def test_manifest_tokens_mark_cells_resumed(self, tmp_path):
        specs = make_specs([2, 3])
        with thread_service(tmp_path / "store") as service:
            service.run(specs)
        clear_caches()
        store = SolutionStore(str(tmp_path / "store"))
        from repro.engine.fingerprint import spec_alias_key
        aliases = {spec_alias_key(s, "auto") for s in specs}
        plan = _planned(specs, store, manifest_done=aliases)
        assert plan.count(CELL_MANIFEST_DONE) == 2
        summary = plan.summary()
        assert "2 manifest-done" in summary

    def test_batched_single_store_pass(self, tmp_path):
        specs = make_specs([2, 3, 4, 5])
        with thread_service(tmp_path / "store") as service:
            service.run(specs)
        clear_caches()
        store = SolutionStore(str(tmp_path / "store"))
        before = store.batched_lookups
        _planned(specs, store)
        # Every key went through the batched pass (4 alias probes plus
        # their 4 resolved targets), none through single-key get().
        assert store.batched_lookups == before + 8
        assert store.misses == 0


# ---------------------------------------------------------------------------
# Adaptive shard sizing
# ---------------------------------------------------------------------------

class TestAdaptiveSharding:
    def test_empty_pending_floor(self):
        assert recommend_shard_size(0, 4) == 1

    def test_cold_matches_static_heuristic(self):
        # hit_rate=0, one runner: the historical worker*oversubscription
        # lane count, so cold sweeps shard exactly as before.
        for pending in (1, 7, 32, 1000):
            for workers in (1, 2, 8):
                assert recommend_shard_size(pending, workers) == \
                       max(1, math.ceil(pending / (workers * 4)))

    def test_hit_rate_shrinks_shards(self):
        cold = recommend_shard_size(256, 4, hit_rate=0.0)
        warm = recommend_shard_size(256, 4, hit_rate=0.9)
        assert warm < cold

    def test_runner_count_spreads_shards(self):
        single = recommend_shard_size(256, 4, runner_count=1)
        spread = recommend_shard_size(256, 4, runner_count=4)
        assert spread < single
        assert spread >= 1

    def test_plan_shard_size_uses_measured_hit_rate(self, tmp_path):
        specs = make_specs(range(2, 10))
        with thread_service(tmp_path / "store") as service:
            service.run(specs[:6])
        clear_caches()
        store = SolutionStore(str(tmp_path / "store"))
        plan = _planned(specs, store)
        assert plan.count(CELL_PENDING) == 2
        assert plan.shard_size(4) == recommend_shard_size(
            2, 4, hit_rate=plan.hit_rate)


# ---------------------------------------------------------------------------
# Manifest schema v2 + v1 forward compatibility
# ---------------------------------------------------------------------------

class TestManifestSchema:
    def test_v1_manifest_still_readable(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"schema": 1, "method": "auto",
                       "keys": ["k1", "k2"], "done": ["k1", "k2"],
                       "completed": True}, handle)
        state = load_manifest_state(path, "auto")
        assert state.schema == 1 and state.completed
        assert state.done == {"k1", "k2"} and state.tokens == {"k1", "k2"}
        # The historical gate: a v1 manifest of another method is ignored.
        assert load_manifest_state(path, "greedy").done == set()

    def test_v2_roundtrip_and_digest_gate(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        cells = {"alias-a": {"cell": "digest-a", "key": "key-a"}}
        assert write_manifest(path, "auto", ["alias-a"], {"alias-a"},
                              False, cells=cells)
        state = load_manifest_state(path, "auto")
        assert state.schema == MANIFEST_SCHEMA_VERSION
        assert state.done == {"alias-a"}
        assert {"alias-a", "key-a", "digest-a"} <= state.tokens
        assert state.cells == cells
        # Bare digests do not encode the method, so another method's load
        # trusts the alias and key tokens but not the digest.
        other = load_manifest_state(path, "greedy")
        assert "alias-a" in other.tokens and "key-a" in other.tokens
        assert "digest-a" not in other.tokens

    def test_torn_manifest_contributes_nothing(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"schema": 2, "done": ["x"')
        state = load_manifest_state(path, "auto")
        assert state.done == set() and not state.completed

    def test_write_failure_reported_not_raised(self, tmp_path):
        bad = str(tmp_path / "missing-dir" / "manifest.json")
        assert write_manifest(bad, "auto", [], set(), False) is False

    def test_sweep_counts_manifest_write_errors(self, tmp_path):
        bad = str(tmp_path / "missing-dir" / "manifest.json")
        with thread_service(tmp_path / "store") as service:
            report = service.run(make_specs([2, 3]), manifest=bad)
        assert report.stats.computed == 2
        assert report.stats.manifest_write_errors >= 1


# ---------------------------------------------------------------------------
# Spec-native resume through the sync service
# ---------------------------------------------------------------------------

class TestSyncResume:
    def test_interrupted_grid_resumes_pending_only(self, tmp_path):
        grid = make_grid([2, 3, 4], budgets=(4.0, 8.0))
        specs = list(grid.expand())
        manifest = str(tmp_path / "manifest.json")
        with thread_service(tmp_path / "store") as service:
            first = service.run(specs[:2], manifest=manifest)
        assert first.stats.computed == 2
        # Simulate a process restart: drop every in-memory cache; only
        # the store directory and the manifest survive.
        clear_caches()
        with thread_service(tmp_path / "store") as service:
            report = service.run(grid, manifest=manifest)
        assert report.stats.scenarios == 6
        assert report.stats.resumed == 2
        assert report.stats.computed == 4
        state = load_manifest_state(manifest, "auto")
        assert state.completed and len(state.done) == 6
        assert len(state.cells) == 6

    def test_completed_grid_resweeps_for_free(self, tmp_path):
        grid = make_grid([2, 3], budgets=(4.0,))
        manifest = str(tmp_path / "manifest.json")
        with thread_service(tmp_path / "store") as service:
            service.run(grid, manifest=manifest)
        clear_caches()
        reset_materialization_counters()
        with thread_service(tmp_path / "store") as service:
            report = service.run(grid, manifest=manifest)
        assert report.stats.resumed == 2 and report.stats.computed == 0
        assert materialization_info()["dag_builds"] == 0
        assert all(r.source == "store" for r in report.results)


# ---------------------------------------------------------------------------
# Cross-process claims and dup_solves_avoided
# ---------------------------------------------------------------------------

class TestSolveClaims:
    def test_claim_lifecycle(self, tmp_path):
        store = SolutionStore(str(tmp_path / "store"))
        assert store.claim_solve("cell-1")
        assert store.solve_claim_holder("cell-1") == os.getpid()
        assert not store.claim_solve("cell-1")
        store.release_solve_claim("cell-1")
        assert store.solve_claim_holder("cell-1") is None
        assert store.claim_solve("cell-1")
        store.release_solve_claim("cell-1")

    def test_dead_claimant_is_taken_over(self, tmp_path):
        probe = subprocess.Popen([sys.executable, "-c", "pass"])
        probe.wait()
        store = SolutionStore(str(tmp_path / "store"))
        assert store.claim_solve("cell-1")
        claim_dir = os.path.join(str(tmp_path / "store"), "claims")
        (claim_file,) = [os.path.join(claim_dir, name)
                         for name in os.listdir(claim_dir)]
        with open(claim_file, "w", encoding="utf-8") as handle:
            handle.write(str(probe.pid))
        other = SolutionStore(str(tmp_path / "store"))
        assert other.solve_claim_holder("cell-1") is None
        assert other.claim_solve("cell-1")
        assert other.stale_claims_recovered == 1

    def test_two_takers_of_one_dead_claim_leave_one_claim(self, tmp_path,
                                                           monkeypatch):
        """Both handles read the same dead holder; the first takes the
        claim over between the second's read and its takeover.  The
        second must find the fresh claim live, not unlink it."""
        root = str(tmp_path / "store")
        first, second = SolutionStore(root), SolutionStore(root)
        dead = 4_000_000_007
        os.makedirs(os.path.join(root, "claims"))
        with open(first._claim_path("cell-1"), "w", encoding="utf-8") as handle:
            handle.write(str(dead))
        read = store_module._read_breadcrumb
        raced = []

        def read_then_race(source):
            holder = read(source)
            if holder == dead and not raced:
                raced.append(None)          # race once: first's reads pass
                raced[0] = first.claim_solve("cell-1")
            return holder

        monkeypatch.setattr(store_module, "_pid_alive", lambda pid: pid != dead)
        monkeypatch.setattr(store_module, "_read_breadcrumb", read_then_race)
        raced.append(second.claim_solve("cell-1"))
        assert raced == [True, False]
        assert second.solve_claim_holder("cell-1") == os.getpid()
        assert first.claims_acquired + second.claims_acquired == 1
        assert first.stale_claims_recovered + second.stale_claims_recovered == 1
        assert first.claims_contended + second.claims_contended == 1

    def test_contended_but_unfinished_cell_solved_anyway(self, tmp_path,
                                                         monkeypatch):
        store = SolutionStore(str(tmp_path / "store"))
        monkeypatch.setattr(store, "claim_solve", lambda key: False)
        with SweepService(store=store,
                          portfolio=Portfolio(executor="thread",
                                              max_workers=2)) as service:
            report = service.run(make_specs([2, 3]))
        assert report.stats.computed == 2
        assert report.stats.dup_solves_avoided == 0

    def test_sync_dup_solve_short_circuits_to_store(self, tmp_path,
                                                    monkeypatch):
        specs = make_specs([2, 3])
        with thread_service(tmp_path / "warm") as warm:
            donor = {r.spec.cell_digest(): r.report
                     for r in warm.run(specs).results}
        clear_caches()
        store = SolutionStore(str(tmp_path / "store"))

        def lose_claim_to_a_finisher(alias):
            # Another process claimed this cell and already finished: its
            # report lands in the store between our plan and the recheck.
            for spec in specs:
                from repro.engine.fingerprint import spec_alias_key
                if spec_alias_key(spec, "auto") == alias:
                    store.put(alias, report_to_payload(
                        donor[spec.cell_digest()], alias))
            return False

        monkeypatch.setattr(store, "claim_solve", lose_claim_to_a_finisher)
        with SweepService(store=store,
                          portfolio=Portfolio(executor="thread",
                                              max_workers=2)) as service:
            report = service.run(specs)
        assert report.stats.dup_solves_avoided == 2
        assert report.stats.computed == 0
        assert all(r.source == "store" for r in report.results)

    def test_sync_materialized_dup_solve_short_circuits_to_store(
            self, tmp_path, monkeypatch):
        """The problem-path twin of the spec test above: a materialized
        sweep claims its cells by request key, and one that loses its
        claims to a finisher reads the finisher's reports instead."""
        problems = [spec.materialize() for spec in make_specs([2, 3])]
        with thread_service(tmp_path / "warm") as warm:
            donor = {r.key: r.report for r in warm.run(problems).results}
        clear_caches()
        store = SolutionStore(str(tmp_path / "store"))

        def lose_claim_to_a_finisher(key):
            store.put(key, report_to_payload(donor[key], key))
            return False

        monkeypatch.setattr(store, "claim_solve", lose_claim_to_a_finisher)
        with SweepService(store=store,
                          portfolio=Portfolio(executor="thread",
                                              max_workers=2)) as service:
            report = service.run(problems)
        assert report.stats.dup_solves_avoided == 2
        assert report.stats.computed == 0 and report.stats.store_hits == 2
        assert [r.source for r in report.results] == ["store", "store"]
        assert [r.key for r in report.results] == list(donor)

    def test_claim_name_is_the_plan_identity_whatever_the_memo_knows(
            self, tmp_path, monkeypatch):
        """A spec cell is claimed under its alias whether or not this
        process has memoized its request fingerprint."""
        from repro import request_key
        from repro.engine.fingerprint import (record_spec_fingerprint,
                                              spec_alias_key)

        spec = make_specs([3])[0]
        fingerprint = request_key(spec.materialize())
        asked = {}
        for memo in (False, True):
            clear_caches()
            if memo:
                record_spec_fingerprint(spec, fingerprint)
            store = SolutionStore(str(tmp_path / f"store-{memo}"))
            names = asked[memo] = []
            monkeypatch.setattr(
                store, "claim_solve",
                lambda name, claim=store.claim_solve, names=names:
                    names.append(name) or claim(name))

            async def body(store=store):
                async with AsyncSweepService(
                        store=store,
                        portfolio=Portfolio(executor="thread",
                                            max_workers=1)) as service:
                    return await (await service.submit_specs([spec])).results()

            (result,) = run_async(body())
            assert result.source == "computed" and result.key == fingerprint
        assert asked[False] == asked[True] == [spec_alias_key(spec, "auto")]

    def test_async_contended_cell_waits_then_reads(self, tmp_path):
        spec = make_specs([3])[0]
        with thread_service(tmp_path / "warm") as warm:
            donor = warm.run([spec]).results[0].report
        clear_caches()
        from repro.engine.fingerprint import spec_alias_key
        alias = spec_alias_key(spec, "auto")
        store = SolutionStore(str(tmp_path / "store"))
        assert store.claim_solve(alias)

        def finish_elsewhere():
            time.sleep(0.2)
            store.put(alias, report_to_payload(donor, alias))
            store.release_solve_claim(alias)

        async def body():
            service = AsyncSweepService(
                store=str(tmp_path / "store"),
                portfolio=Portfolio(executor="thread", max_workers=2))
            async with service:
                threading.Thread(target=finish_elsewhere,
                                 daemon=True).start()
                ticket = await service.submit_specs([spec])
                results = await ticket.results()
                return results, service.stats

        results, stats = run_async(body())
        assert results[0].source == "store"
        assert stats.dup_solves_avoided == 1
        assert stats.computed == 0 and stats.shards == 0


# ---------------------------------------------------------------------------
# Router-side planning: only pending cells cross the cluster wire
# ---------------------------------------------------------------------------

class TestClusterPlanning:
    def test_warm_resubmit_sends_zero_wire_cells(self, tmp_path):
        store_dir = str(tmp_path / "store")
        grid = make_grid([2, 3], budgets=(4.0, 8.0))

        async def body():
            async with LocalCluster(2, store_root=store_dir) as cluster:
                client = ClusterClient(cluster.addresses(), store=store_dir)
                cold = await client.sweep_specs(grid)
                cold_wire = client.stats.wire_cells
                clear_caches()   # a fresh client process would start cold
                warm = await client.sweep_specs(grid)
                return cold, cold_wire, warm, client.stats

        cold, cold_wire, warm, stats = run_async(body())
        assert cold_wire == grid.size() == 4
        # Second submit: the router answered every cell from the shared
        # store; nothing crossed the wire to a runner.
        assert stats.wire_cells == cold_wire
        assert stats.planned_local == 4
        assert [r["key"] for r in warm] == [r["key"] for r in cold]
        assert {r["source"] for r in warm} == {"store"}
        assert all(r["report"] is not None for r in warm)

    def test_edited_grid_routes_only_gained_cells(self, tmp_path):
        store_dir = str(tmp_path / "store")
        old = make_grid([2, 3, 4])
        new = make_grid([3, 4, 5])

        async def body():
            async with LocalCluster(2, store_root=store_dir) as cluster:
                client = ClusterClient(cluster.addresses(), store=store_dir)
                await client.sweep_specs(old)
                after_cold = client.stats.wire_cells
                clear_caches()
                results = await client.sweep_specs(new)
                return after_cold, results, client.stats

        after_cold, results, stats = run_async(body())
        assert after_cold == 3
        # Of the edited grid only the genuinely new cell was routed.
        assert stats.wire_cells == after_cold + 1
        assert stats.planned_local == 2
        assert len(results) == 3


# ---------------------------------------------------------------------------
# adversarial-3dm generator
# ---------------------------------------------------------------------------

class TestAdversarial3DM:
    def test_values_are_seeded_and_well_formed(self):
        from repro.scenarios.adversarial import matching3d_values
        assert matching3d_values(3, 6, 7) == matching3d_values(3, 6, 7)
        assert matching3d_values(3, 6, 7) != matching3d_values(3, 6, 8)
        for seed in range(6):
            a, b, c = matching3d_values(3, 6, seed)
            assert len(a) == len(b) == len(c) == 3
            assert all(v >= 1 for v in a + b + c)
            assert (sum(a) + sum(b) + sum(c)) % 3 == 0

    def test_registered_generator_sweeps_in_a_grid(self, tmp_path):
        from repro.scenarios import generator_ids, get_generator
        assert "adversarial-3dm" in generator_ids()
        spec = get_generator("adversarial-3dm")
        assert spec.seeded and spec.adversarial
        grid = ScenarioGrid(
            generators=({"generator": "adversarial-3dm",
                         "params": {"n": 2, "max_value": 5}},),
            seeds=(0, 1),
            budget_rules=(("const", 40.0),))
        with thread_service(tmp_path / "store") as service:
            report = service.run(grid)
        assert report.stats.scenarios == 2
        assert report.stats.failed == 0
        assert all(r.report.solution is not None for r in report.results)

    def test_explicit_values_hook(self):
        from repro.scenarios.adversarial import matching3d_gadget_dag
        dag = matching3d_gadget_dag(values=((2, 2), (3, 3), (4, 4)))
        assert len(dag.jobs) > 2
        dag.validate()


# ---------------------------------------------------------------------------
# Kill-and-restart serve resume (real subprocess, v2 manifest on disk)
# ---------------------------------------------------------------------------

def _wait_for(predicate, timeout=20.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def _spawn_serve(socket_path, store_dir, manifest):
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--unix", socket_path,
         "--store", store_dir, "--manifest", manifest,
         "--executor", "thread", "--workers", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    assert _wait_for(lambda: os.path.exists(socket_path)), \
        "serve subprocess did not bind its socket"
    return process


class TestServeKillRestartResume:
    def test_sigkilled_server_resumes_from_manifest(self, tmp_path):
        from repro.serve import request_metrics, request_sweep_spec
        store_dir = str(tmp_path / "store")
        manifest = str(tmp_path / "manifest.json")
        specs = list(make_grid([2, 3, 4], budgets=(4.0, 8.0)).expand())

        sock1 = str(tmp_path / "serve-1.sock")
        first = _spawn_serve(sock1, store_dir, manifest)
        try:
            partial = run_async(request_sweep_spec(
                specs[:2], unix_socket=sock1))
            assert len(partial) == 2
            assert all(r["error"] is None for r in partial)
            # Fence: the shard checkpoint must be on disk before the kill.
            assert _wait_for(lambda: len(load_manifest_state(
                manifest, "async-mixed").cells) >= 2)
        finally:
            first.kill()
            first.wait(timeout=10)
        assert not os.path.exists(sock1) or first.returncode is not None

        sock2 = str(tmp_path / "serve-2.sock")
        second = _spawn_serve(sock2, store_dir, manifest)
        try:
            results = run_async(request_sweep_spec(
                specs, unix_socket=sock2))
            metrics = run_async(request_metrics(unix_socket=sock2))
        finally:
            second.terminate()
            second.wait(timeout=10)

        assert len(results) == 6
        assert all(r["error"] is None and r["report"] is not None
                   for r in results)
        sources = [r["source"] for r in results]
        assert sources.count("store") == 2
        # The restarted server resumed the interrupted grid: the two
        # pre-kill cells came back from disk, only four were solved.
        assert metrics["service"]["resumed"] == 2
        assert metrics["service"]["computed"] == 4
        assert metrics["service"]["manifest_write_errors"] == 0
        state = load_manifest_state(manifest, "async-mixed")
        assert len(state.cells) == 6
