"""Tests for the asyncio serving front (async_service.py + serve.py).

Thread executors keep the suite light and let tests register controllable
in-process solvers (a ``threading.Event``-gated solver makes concurrency
scenarios -- dedup, backpressure, cancellation mid-shard -- deterministic
instead of timing-dependent).  Every async test body runs under
``asyncio.wait_for``, so a deadlocked queue or semaphore fails the test
quickly even without the pytest-timeout plugin; CI additionally runs this
file under ``pytest --timeout`` (the concurrency stress job).
"""

from __future__ import annotations

import asyncio
import json
import threading
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from repro.core.dag import TradeoffDAG
from repro.core.duration import ConstantDuration, GeneralStepDuration
from repro.core.problem import MinMakespanProblem, MinResourceProblem
from repro.core.problem import TradeoffSolution
from repro.engine import (
    MIN_MAKESPAN,
    AsyncSweepService,
    Portfolio,
    SolutionStore,
    SolveLimits,
    SweepService,
    clear_caches,
    register_solver,
    set_solution_store,
    unregister_solver,
)
from repro.engine.async_service import ASYNC_MANIFEST_METHOD
from repro.engine.service import MANIFEST_SCHEMA_VERSION
from repro.serve import (
    SweepServer,
    problem_from_payload,
    problem_to_payload,
    request_sweep,
)
from repro.utils.validation import ValidationError


@pytest.fixture(autouse=True)
def _fresh_engine():
    clear_caches()
    set_solution_store(None)
    yield
    clear_caches()
    set_solution_store(None)


def run_async(coro, timeout: float = 30.0):
    """Drive one async test body with a hard deadline (deadlock guard)."""
    async def _bounded():
        return await asyncio.wait_for(coro, timeout)
    return asyncio.run(_bounded())


def _chain_dag() -> TradeoffDAG:
    dag = TradeoffDAG()
    previous = None
    for name in ("s", "x", "t"):
        dag.add_job(name, GeneralStepDuration([(0, 4), (2, 1)]))
        if previous is not None:
            dag.add_edge(previous, name)
        previous = name
    return dag


def _scenarios(budgets=(1.0, 2.0, 3.0)):
    dag = _chain_dag()
    return [MinMakespanProblem(dag, b) for b in budgets]


@contextmanager
def blocking_solver(name="test-blocking", hold: float = 10.0):
    """Register an Event-gated solver: signals when it starts, waits for
    ``release`` before answering, and counts its actual runs."""
    started = threading.Event()
    release = threading.Event()
    calls = []
    lock = threading.Lock()

    @register_solver(name, summary="event-gated test solver",
                     objectives=(MIN_MAKESPAN,), kind="baseline",
                     theorem="-", guarantee="none", priority=996,
                     can_solve=lambda p, s, lim: True)
    def _gated(problem, structure, limits, **options):
        with lock:
            calls.append(problem.budget)
        started.set()
        release.wait(hold)
        return TradeoffSolution(makespan=float(problem.budget),
                                budget_used=0.0, algorithm=name)

    try:
        yield SimpleNamespace(name=name, started=started, release=release,
                              calls=calls)
    finally:
        release.set()
        unregister_solver(name)


def _service(tmp_path=None, **kwargs):
    store = SolutionStore(str(tmp_path / "store")) if tmp_path is not None else None
    kwargs.setdefault("portfolio", Portfolio(executor="thread", max_workers=2))
    return AsyncSweepService(store=store, **kwargs)


async def _wait_event(event: threading.Event, timeout: float = 5.0) -> bool:
    return await asyncio.get_running_loop().run_in_executor(
        None, event.wait, timeout)


class TestAsyncBasics:
    def test_submit_resolves_all_futures_in_batch_order(self, tmp_path):
        async def body():
            async with _service(tmp_path) as service:
                ticket = await service.submit(_scenarios((1.0, 2.0, 3.0, 1.0)))
                results = await ticket.results()
            assert [r.index for r in results] == [0, 1, 2, 3]
            assert all(r.report is not None for r in results)
            assert results[0].key == results[3].key
            assert service.stats.computed == 3
            assert service.stats.deduped == 1
            # duplicate slots never alias the same report object
            results[0].report.allocation["mutated"] = 1.0
            assert "mutated" not in results[3].report.allocation
        run_async(body())

    def test_matches_sync_sweep_service(self, tmp_path):
        scenarios = _scenarios((1.0, 2.0, 4.0))

        async def body():
            async with _service(tmp_path) as service:
                return await (await service.submit(scenarios)).reports()

        async_reports = run_async(body())
        clear_caches()
        with SweepService(portfolio=Portfolio(executor="thread")) as sync_service:
            sync_reports = sync_service.run(scenarios).reports()
        for a, s in zip(async_reports, sync_reports):
            assert a.makespan == pytest.approx(s.makespan)
            assert a.solver_id == s.solver_id

    def test_store_hit_skips_queue(self, tmp_path):
        async def body():
            async with _service(tmp_path) as service:
                first = await (await service.submit(_scenarios((2.0,)))).results()
                assert first[0].source == "computed"
                again = await (await service.submit(_scenarios((2.0,)))).results()
                assert again[0].source == "store"
                assert again[0].report.cache_tier == "store"
            assert service.stats.store_hits == 1
            assert service.stats.computed == 1
        run_async(body())

    def test_per_key_view_and_solve_helper(self, tmp_path):
        async def body():
            async with _service(tmp_path) as service:
                ticket = await service.submit(_scenarios((1.0, 2.0, 1.0)))
                assert len(ticket.per_key) == 2
                assert set(ticket.per_key) == set(ticket.keys)
                report = await service.solve(_scenarios((8.0,))[0])
                assert report.makespan >= 0
        run_async(body())

    def test_failed_scenario_resolves_future_with_error(self, tmp_path):
        async def body():
            service = _service(
                tmp_path, limits=SolveLimits(max_exact_combinations=1))
            async with service:
                ticket = await service.submit(_scenarios((2.0,)),
                                              "exact-enumeration")
                result = await ticket.futures[0]
            assert result.source == "failed"
            assert result.report is None
            assert "ExactSearchLimit" in result.error
            assert service.stats.failed == 1
            with pytest.raises(ValidationError):
                async with _service(
                        tmp_path,
                        limits=SolveLimits(max_exact_combinations=1)) as s2:
                    await s2.solve(_scenarios((2.0,))[0], "exact-enumeration")
        run_async(body())


class TestCrossRequestDedup:
    def test_concurrent_clients_share_one_solve(self):
        with blocking_solver() as solver:
            async def body():
                async with _service() as service:
                    first = await service.submit(_scenarios((5.0,)), solver.name)
                    assert await _wait_event(solver.started)
                    # a second client asks for the same fingerprint while
                    # the first is still solving: no new queue entry
                    second = await service.submit(_scenarios((5.0,)), solver.name)
                    solver.release.set()
                    r1 = (await first.results())[0]
                    r2 = (await second.results())[0]
                assert r1.key == r2.key
                assert r1.report.makespan == r2.report.makespan == 5.0
                assert r1.report is not r2.report
                assert service.stats.deduped == 1
                assert service.stats.computed == 1
                assert service.stats.shards == 1
            run_async(body())
        assert solver.calls == [5.0]  # one actual solver run, two futures


class TestCancellation:
    def test_cancel_mid_shard_still_persists_store_and_manifest(self, tmp_path):
        manifest = str(tmp_path / "manifest.json")
        with blocking_solver() as solver:
            async def body():
                service = _service(tmp_path, manifest=manifest)
                async with service:
                    ticket = await service.submit(_scenarios((7.0,)), solver.name)
                    assert await _wait_event(solver.started)
                    assert ticket.cancel() == 1      # client walks away mid-shard
                    solver.release.set()
                    await service.drain()
                    key = ticket.keys[0]
                    assert ticket.futures[0].cancelled()
                    # the shard completed and persisted despite the cancel
                    assert service.store.get_report(key) is not None
                    assert service.stats.computed == 1
                return ticket.keys[0]
            key = run_async(body())
        data = json.load(open(manifest, encoding="utf-8"))
        assert data["schema"] == MANIFEST_SCHEMA_VERSION
        assert data["method"] == ASYNC_MANIFEST_METHOD
        assert key in data["done"]
        assert data["completed"] is True

    def test_cancelled_waiter_does_not_starve_the_other_client(self):
        with blocking_solver() as solver:
            async def body():
                async with _service() as service:
                    first = await service.submit(_scenarios((5.0,)), solver.name)
                    assert await _wait_event(solver.started)
                    second = await service.submit(_scenarios((5.0,)), solver.name)
                    first.cancel()
                    solver.release.set()
                    result = (await second.results())[0]
                assert result.report.makespan == 5.0
                assert first.futures[0].cancelled()
            run_async(body())

    def test_abandoned_queued_request_is_skipped(self):
        with blocking_solver() as solver:
            async def body():
                service = _service(max_concurrency=1, queue_size=4)
                async with service:
                    # occupy the only shard slot...
                    head = await service.submit(_scenarios((1.0,)), solver.name)
                    assert await _wait_event(solver.started)
                    # ...queue a second request and abandon it pre-dispatch
                    queued = await service.submit(_scenarios((2.0,)), solver.name)
                    queued.cancel()
                    solver.release.set()
                    await service.drain()
                    assert (await head.results())[0].report is not None
                assert service.stats.cancelled == 1
                assert solver.calls == [1.0]  # the abandoned solve never ran
            run_async(body())


class TestBackpressure:
    def test_cancelled_producer_does_not_orphan_its_request_key(self):
        # Regression: a submit() cancelled while blocked at the full queue
        # must retract its in-flight entry, or every later submit of the
        # same key would dedup onto a dead entry and hang forever.
        with blocking_solver() as solver:
            async def body():
                service = _service(max_concurrency=1, queue_size=1)
                async with service:
                    # worker busy (1.0), dispatcher stalled (2.0), queue
                    # full (3.0) -- then 4.0 blocks at the backpressure
                    # point and gets cancelled there.
                    await service.submit(_scenarios((1.0, 2.0, 3.0)),
                                         solver.name)
                    assert await _wait_event(solver.started)
                    producer = asyncio.create_task(
                        service.submit(_scenarios((4.0,)), solver.name))
                    await asyncio.sleep(0.2)
                    assert not producer.done()
                    producer.cancel()
                    with pytest.raises(asyncio.CancelledError):
                        await producer
                    assert service.inflight_count() == 3  # 4.0 retracted
                    solver.release.set()
                    # re-submitting the cancelled key must solve, not hang
                    retry = await service.submit(_scenarios((4.0,)),
                                                 solver.name)
                    result = await asyncio.wait_for(retry.futures[0], 10)
                assert result.report.makespan == 4.0
            run_async(body())

    def test_full_queue_blocks_the_producer(self):
        with blocking_solver() as solver:
            async def body():
                service = _service(max_concurrency=1, queue_size=1)
                async with service:
                    # scenario 1 occupies the worker; the dispatcher pops
                    # scenario 2 and stalls on the semaphore; scenario 3
                    # fills the queue; scenario 4 must block the producer.
                    producer = asyncio.create_task(
                        service.submit(_scenarios((1.0, 2.0, 3.0, 4.0)),
                                       solver.name))
                    assert await _wait_event(solver.started)
                    await asyncio.sleep(0.3)
                    assert not producer.done(), \
                        "submit() must block once the bounded queue is full"
                    assert service.queue_depth() == 1
                    solver.release.set()
                    ticket = await producer
                    results = await ticket.results()
                assert [r.report.makespan for r in results] == [1.0, 2.0, 3.0, 4.0]
                assert service.stats.computed == 4
            run_async(body())


class TestGracefulDrain:
    def test_aclose_resolves_everything_then_refuses_work(self, tmp_path):
        async def body():
            service = _service(tmp_path)
            await service.start()
            ticket = await service.submit(_scenarios((1.0, 2.0, 3.0)))
            await service.aclose()   # graceful: drains before shutdown
            results = await ticket.results()
            assert all(r.report is not None for r in results)
            assert service.closed
            with pytest.raises(RuntimeError, match="closed"):
                await service.submit(_scenarios((4.0,)))
            await service.aclose()   # idempotent
        run_async(body())

    def test_drain_then_stats_settle(self, tmp_path):
        async def body():
            async with _service(tmp_path) as service:
                await service.submit(_scenarios((1.0, 2.0)))
                await service.drain()
                assert service.queue_depth() == 0
                assert service.inflight_count() == 0
                assert service.stats.computed == 2
        run_async(body())


class TestClosedStateErrors:
    def test_sweep_service_raises_after_close(self, tmp_path):
        service = SweepService(store=SolutionStore(str(tmp_path / "s")),
                               portfolio=Portfolio(executor="thread"))
        service.run(_scenarios((1.0,)))
        service.close()
        assert service.closed
        with pytest.raises(RuntimeError, match="closed"):
            service.sweep(_scenarios((2.0,)))   # raises at call, not first next()
        with pytest.raises(RuntimeError, match="closed"):
            service.run(_scenarios((2.0,)))

    def test_portfolio_raises_after_close(self):
        portfolio = Portfolio(executor="thread")
        portfolio.start()
        portfolio.close()
        assert portfolio.closed
        problems = _scenarios((1.0,))
        with pytest.raises(RuntimeError, match="closed"):
            portfolio.map(problems)
        with pytest.raises(RuntimeError, match="closed"):
            portfolio.solve(problems[0])
        with pytest.raises(RuntimeError, match="closed"):
            portfolio.spec_shard_task(problems)
        # start() reopens the portfolio for reuse
        portfolio.start()
        try:
            assert portfolio.map(problems)[0].makespan >= 0
        finally:
            portfolio.close()


class TestMetricsSnapshot:
    def test_snapshot_tiers_sum_to_requests_on_mixed_run(self, tmp_path):
        """snapshot(): requests == deduped + store_hits + computed +
        failed + cancelled after a mixed warm/cold submit_specs run."""
        from repro.scenarios import Axis, ScenarioGrid

        grid = ScenarioGrid(
            generators=({"generator": "fork-join",
                         "params": {"width": Axis([2, 3]), "work": 4}},),
            budget_rules=(("makespan-factor", 0.5),))

        async def body():
            service = _service(tmp_path,
                               limits=SolveLimits(max_exact_combinations=1))
            async with service:
                await (await service.submit_specs(grid)).results()  # cold
                await (await service.submit_specs(grid)).results()  # warm
                # in-batch duplicate -> tier-0 dedup
                await (await service.submit(
                    _scenarios((1.0, 2.0, 1.0)))).results()
                # a failing slot -> failed
                failing = await service.submit(_scenarios((9.0,)),
                                               "exact-enumeration")
                assert (await failing.results())[0].source == "failed"
                await service.drain()
                snapshot = service.snapshot()
            stats = snapshot["service"]
            assert stats["requests"] == (
                stats["deduped"] + stats["store_hits"] + stats["computed"]
                + stats["failed"] + stats["cancelled"])
            assert stats["requests"] == 2 * grid.size() + 3 + 1
            assert stats["store_hits"] == grid.size()
            assert stats["computed"] == grid.size() + 2
            assert stats["deduped"] == 1
            assert stats["failed"] == 1
            assert stats["queue_depth"] == 0 and stats["inflight"] == 0
            assert snapshot["snapshot_schema"] == 1
            assert snapshot["store"]["writes"] >= grid.size()
            for section in ("service", "store", "lru", "kernels",
                            "materializations"):
                assert section in snapshot
            # the snapshot is JSON-serializable as-is (the wire contract)
            json.dumps(snapshot)
        run_async(body())


class TestWireProtocol:
    def test_problem_payload_round_trip_preserves_fingerprints(self):
        from repro.engine.fingerprint import dag_fingerprint

        scenarios = _scenarios((1.0, 2)) + [MinResourceProblem(_chain_dag(), 6.0)]
        for problem in scenarios:
            blob = json.dumps(problem_to_payload(problem))
            back = problem_from_payload(json.loads(blob))
            assert type(back) is type(problem)
            assert dag_fingerprint(back.dag) == dag_fingerprint(problem.dag)

    def test_malformed_payload_raises(self):
        with pytest.raises(ValidationError):
            problem_from_payload({"objective": "nope"})
        with pytest.raises(ValidationError):
            problem_from_payload({"objective": "min_makespan",
                                  "parameter": "two", "jobs": [["s", [[0, 1]]]]})
        with pytest.raises(ValidationError):
            problem_from_payload({"objective": "min_makespan",
                                  "parameter": 2.0, "jobs": []})

    def test_server_round_trip_over_tcp(self, tmp_path):
        scenarios = _scenarios((1.0, 2.0, 1.0))

        async def body():
            service = _service(tmp_path)
            async with SweepServer(service, port=0) as server:
                responses = await request_sweep(scenarios, port=server.port)
                assert [r["index"] for r in responses] == [0, 1, 2]
                assert all(r["report"] is not None for r in responses)
                assert (responses[0]["report"]["solution"]["makespan"]
                        == responses[2]["report"]["solution"]["makespan"])
                # second client: same scenarios are now persistent-store hits
                again = await request_sweep(scenarios, port=server.port)
                assert {r["source"] for r in again} == {"store"}
            assert service.closed   # server shutdown closes the service
        run_async(body())

    def test_failed_scenario_is_a_result_slot_not_a_request_error(self, tmp_path):
        # Regression: request_sweep must not mistake a per-scenario failure
        # line for a request-level error (and discard the good results).
        tiny = TradeoffDAG()
        tiny.add_job("s")
        tiny.add_job("x", ConstantDuration(3.0))
        tiny.add_job("t")
        tiny.add_edge("s", "x")
        tiny.add_edge("x", "t")
        good = MinMakespanProblem(tiny, 2.0)
        bad = MinMakespanProblem(_chain_dag(), 2.0)

        async def body():
            service = _service(
                tmp_path, limits=SolveLimits(max_exact_combinations=1))
            async with SweepServer(service, port=0) as server:
                responses = await request_sweep([good, bad, good],
                                                port=server.port,
                                                method="exact-enumeration")
            assert [r["index"] for r in responses] == [0, 1, 2]
            assert responses[0]["report"] is not None
            assert responses[2]["report"] is not None
            assert responses[1]["source"] == "failed"
            assert responses[1]["report"] is None
            assert "ExactSearchLimit" in responses[1]["error"]
        run_async(body())

    def test_server_reports_request_errors(self, tmp_path):
        async def body():
            service = _service(tmp_path)
            async with SweepServer(service, port=0) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                bad = {"op": "sweep", "id": "bad", "scenarios": [{"objective": "nope"}]}
                writer.write((json.dumps(bad) + "\n").encode())
                await writer.drain()
                response = json.loads(await reader.readline())
                assert response["id"] == "bad"
                assert "error" in response
                writer.close()
                await writer.wait_closed()
        run_async(body())
