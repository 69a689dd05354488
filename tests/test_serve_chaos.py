"""Fault-injection matrix for the wire layer (serve.py hardening).

Every test drives a *live* server over a unix socket and injects one of
the production failure modes the protocol must survive -- malformed
JSON, non-object lines, oversized payloads, mid-stream disconnects,
slow readers, admission overload -- then asserts the server (a) stays
up and keeps serving other clients, (b) counts the fault in
``ServerStats``, and (c) leaves store contents and results bit-identical
to a clean run.  The protocol-fault tests run twice, through one
``SweepServer`` and through a ``RouterServer`` over two runners: both
fronts run one server core, so they must answer alike.  CI runs this
file under pytest-timeout in the concurrency-stress job.
"""

from __future__ import annotations

import asyncio
import json
import threading
from contextlib import asynccontextmanager, contextmanager
from types import SimpleNamespace

import pytest

from repro.cluster import ClusterClient, LocalCluster, RouterServer
from repro.core.problem import TradeoffSolution
from repro.engine import (
    MIN_MAKESPAN,
    AsyncSweepService,
    Portfolio,
    clear_caches,
    register_solver,
    set_solution_store,
    unregister_solver,
)
from repro.loadgen.chaos import malformed_line, non_object_line, oversized_line
from repro.scenarios import ScenarioSpec
from repro.serve import SweepServer, request_metrics


@pytest.fixture(autouse=True)
def _fresh_engine():
    clear_caches()
    set_solution_store(None)
    yield
    clear_caches()
    set_solution_store(None)


def run_async(coro, timeout: float = 30.0):
    async def _bounded():
        return await asyncio.wait_for(coro, timeout)
    return asyncio.run(_bounded())


def _spec(width: int = 2) -> ScenarioSpec:
    return ScenarioSpec("fork-join", {"width": width, "work": 4},
                        budget_rule=("makespan-factor", 0.5))


def _service(tmp_path, name="store", **kwargs):
    kwargs.setdefault("portfolio", Portfolio(executor="thread", max_workers=2))
    return AsyncSweepService(store=str(tmp_path / name), **kwargs)


@asynccontextmanager
async def _front(kind, tmp_path, *, max_line_bytes=1 << 20,
                 admission_limit=None):
    """A live JSON-lines front on a unix socket: one ``SweepServer``
    (``kind="server"``) or a ``RouterServer`` over a 2-runner cluster
    whose runners carry the admission limit (``kind="router"``)."""
    sock = str(tmp_path / "front.sock")
    if kind == "server":
        async with SweepServer(_service(tmp_path), unix_socket=sock,
                               max_line_bytes=max_line_bytes,
                               admission_limit=admission_limit) as server:
            yield server
        return
    async with LocalCluster(2, admission_limit=admission_limit) as cluster:
        async with RouterServer(ClusterClient(cluster.addresses()),
                                unix_socket=sock,
                                max_line_bytes=max_line_bytes) as router:
            yield router


@contextmanager
def blocking_solver(name="test-chaos-blocking"):
    """Event-gated solver so tests control exactly when solves finish."""
    started = threading.Event()
    release = threading.Event()

    @register_solver(name, summary="event-gated chaos solver",
                     objectives=(MIN_MAKESPAN,), kind="baseline",
                     theorem="-", guarantee="none", priority=996,
                     can_solve=lambda p, s, lim: True)
    def _gated(problem, structure, limits, **options):
        started.set()
        release.wait(10.0)
        return TradeoffSolution(makespan=float(problem.budget),
                                budget_used=0.0, algorithm=name)

    try:
        yield SimpleNamespace(name=name, started=started, release=release)
    finally:
        release.set()
        unregister_solver(name)


async def _connect(path):
    return await asyncio.open_unix_connection(path)


async def _request(writer, reader, payload):
    """One request -> all its response lines through the ``done`` line."""
    writer.write(json.dumps(payload).encode() + b"\n")
    await writer.drain()
    lines = []
    while True:
        line = json.loads(await reader.readline())
        lines.append(line)
        if (line.get("done") or line.get("rejected") or "pong" in line
                or "stats" in line or "metrics" in line
                or (line.get("error") and "index" not in line)):
            return lines


async def _sweep_lines(path, spec, request_id, method=None):
    reader, writer = await _connect(path)
    payload = {"op": "sweep_spec", "id": request_id,
               "specs": [spec.to_payload()]}
    if method:
        payload["method"] = method
    lines = await _request(writer, reader, payload)
    writer.close()
    await writer.wait_closed()
    return lines


def _strip_timing(slot):
    """A response slot minus its machine-dependent fields."""
    report = dict(slot["report"])
    report.pop("wall_time", None)
    return {"key": slot["key"], "source": slot["source"], "report": report}


class TestProtocolFaults:
    """Protocol faults through one ``SweepServer``; the subclass
    :class:`TestRouterProtocolFaults` runs every test again through a
    ``RouterServer``."""

    front_kind = "server"

    def front(self, tmp_path, **kwargs):
        return _front(self.front_kind, tmp_path, **kwargs)

    @pytest.mark.parametrize("raw, expect", [
        (malformed_line(), "bad request line"),
        (non_object_line(), "bad request line"),
        (b'"just a string"\n', "bad request line"),
    ])
    def test_garbage_line_answered_and_connection_survives(
            self, tmp_path, raw, expect):
        async def body():
            async with self.front(tmp_path) as server:
                reader, writer = await _connect(server.unix_socket)
                writer.write(raw)
                await writer.drain()
                error = json.loads(await reader.readline())
                assert error["id"] is None
                assert expect in error["error"]
                # the same connection keeps serving real traffic
                pong = await _request(writer, reader,
                                      {"op": "ping", "id": "after"})
                assert pong[0]["pong"] is True
                writer.close()
                await writer.wait_closed()
                assert server.stats.protocol_errors == 1
        run_async(body())

    def test_unknown_op_is_a_protocol_error_with_id(self, tmp_path):
        async def body():
            async with self.front(tmp_path) as server:
                reader, writer = await _connect(server.unix_socket)
                lines = await _request(writer, reader,
                                       {"op": "frobnicate", "id": "u1"})
                assert lines[0]["id"] == "u1"
                assert "unknown op" in lines[0]["error"]
                pong = await _request(writer, reader,
                                      {"op": "ping", "id": "u2"})
                assert pong[0]["pong"] is True
                writer.close()
                await writer.wait_closed()
                assert server.stats.protocol_errors == 1
        run_async(body())

    def test_oversized_line_discarded_without_buffering(self, tmp_path):
        async def body():
            async with self.front(tmp_path, max_line_bytes=4096) as server:
                reader, writer = await _connect(server.unix_socket)
                writer.write(oversized_line(64 * 1024))
                await writer.drain()
                error = json.loads(await reader.readline())
                assert error["id"] is None
                assert "oversized" in error["error"]
                # a real sweep still works on the very same connection
                lines = await _request(
                    writer, reader,
                    {"op": "sweep_spec", "id": "r1",
                     "specs": [_spec().to_payload()]})
                slots = [ln for ln in lines if "index" in ln]
                assert slots[0]["report"] is not None
                writer.close()
                await writer.wait_closed()
                assert server.stats.oversized_lines == 1
                assert server.stats.protocol_errors == 1
        run_async(body())

    def test_barely_oversized_line_is_still_rejected(self, tmp_path):
        # Regression: a line that fits in one read() chunk but exceeds the
        # bound must be rejected on length, not parsed because the newline
        # arrived before the buffer check.
        async def body():
            async with self.front(tmp_path, max_line_bytes=2048) as server:
                reader, writer = await _connect(server.unix_socket)
                writer.write(oversized_line(2100))
                await writer.drain()
                error = json.loads(await reader.readline())
                assert "oversized" in error["error"]
                writer.close()
                await writer.wait_closed()
                assert server.stats.oversized_lines == 1
        run_async(body())

    def test_admission_rejection_is_a_rejected_line(self, tmp_path):
        # Through the router the runner refuses; the router relays it as
        # its own rejected line and counts it.
        async def body():
            async with self.front(tmp_path, admission_limit=0) as server:
                reader, writer = await _connect(server.unix_socket)
                lines = await _request(
                    writer, reader, {"op": "sweep_spec", "id": "r1",
                                     "specs": [_spec().to_payload()]})
                assert lines[-1]["id"] == "r1"
                assert lines[-1]["rejected"] is True
                assert "overloaded" in lines[-1]["error"]
                pong = await _request(writer, reader,
                                      {"op": "ping", "id": "after"})
                assert pong[0]["pong"] is True
                writer.close()
                await writer.wait_closed()
                assert server.stats.rejections == 1
        run_async(body())

    def test_aclose_ends_idle_connections(self, tmp_path):
        async def body():
            async with self.front(tmp_path) as server:
                reader, writer = await _connect(server.unix_socket)
                pong = await _request(writer, reader,
                                      {"op": "ping", "id": "idle"})
                assert pong[0]["pong"] is True
                await asyncio.wait_for(server.aclose(), 5.0)
                # the idle client is told, and no handler outlives aclose
                assert await asyncio.wait_for(reader.read(), 2.0) == b""
                handlers = [task for task in asyncio.all_tasks()
                            if not task.done() and "_handle_client"
                            in task.get_coro().__qualname__]
                assert handlers == []
                writer.close()
                await asyncio.wait_for(writer.wait_closed(), 2.0)
        run_async(body())


class TestRouterProtocolFaults(TestProtocolFaults):
    """Every protocol-fault test again, through a ``RouterServer``."""

    front_kind = "router"


class TestDisconnects:
    def test_midstream_disconnect_leaves_results_bit_identical(self, tmp_path):
        """A client vanishing mid-sweep must not corrupt anyone else."""
        victim, bystander = _spec(2), _spec(3)

        async def clean_run():
            async with SweepServer(_service(tmp_path, "clean"),
                                   unix_socket=str(tmp_path / "c.sock")) \
                    as server:
                lines = await _sweep_lines(server.unix_socket, bystander,
                                           "clean-1")
            return [ln for ln in lines if "index" in ln][0]

        async def chaotic_run():
            with blocking_solver() as solver:
                service = _service(tmp_path, "chaos")
                async with SweepServer(service,
                                       unix_socket=str(tmp_path / "x.sock")) \
                        as server:
                    # client A starts a gated sweep, then vanishes
                    reader, writer = await _connect(server.unix_socket)
                    writer.write(json.dumps(
                        {"op": "sweep_spec", "id": "doomed",
                         "specs": [victim.to_payload()],
                         "method": solver.name}).encode() + b"\n")
                    await writer.drain()
                    loop = asyncio.get_running_loop()
                    assert await loop.run_in_executor(
                        None, solver.started.wait, 5.0)
                    writer.close()          # mid-stream disconnect
                    await writer.wait_closed()
                    # client B's concurrent sweep is unaffected
                    lines = await _sweep_lines(server.unix_socket, bystander,
                                               "fine-1")
                    solver.release.set()
                    await service.drain()
                    # the abandoned solve still finished and persisted:
                    # re-asking (same method -> same fingerprint) is a
                    # pure store hit, no recompute
                    check = [ln for ln in await _sweep_lines(
                        server.unix_socket, victim, "check-1",
                        method=solver.name) if "index" in ln][0]
                    assert check["source"] == "store"
                    assert service.store.get_report(check["key"]) is not None
                    assert service.stats.computed == 2
                return [ln for ln in lines if "index" in ln][0]

        chaotic_slot = run_async(chaotic_run())
        clear_caches()
        set_solution_store(None)
        clean_slot = run_async(clean_run())
        assert _strip_timing(chaotic_slot) == _strip_timing(clean_slot)
        assert chaotic_slot["source"] == "computed"


class TestSlowReaders:
    def test_slow_reader_dropped_but_other_clients_served(self, tmp_path):
        async def body():
            server = SweepServer(_service(tmp_path),
                                 unix_socket=str(tmp_path / "s.sock"),
                                 drain_timeout=0.25,
                                 write_buffer_limit=1024,
                                 socket_sndbuf=4096)
            async with server:
                # the stalled client: floods pings whose ids echo back
                # ~8KB each, and never reads a byte
                reader, writer = await _connect(server.unix_socket)
                big_id = "x" * 8192
                for index in range(200):
                    writer.write(json.dumps(
                        {"op": "ping", "id": f"{index}-{big_id}"}).encode()
                        + b"\n")
                    await writer.drain()
                deadline = asyncio.get_running_loop().time() + 10.0
                while (server.stats.slow_reader_drops == 0
                       and asyncio.get_running_loop().time() < deadline):
                    await asyncio.sleep(0.05)
                assert server.stats.slow_reader_drops == 1
                # a well-behaved client is completely unaffected
                lines = await _sweep_lines(server.unix_socket, _spec(),
                                           "healthy-1")
                assert [ln for ln in lines
                        if "index" in ln][0]["report"] is not None
                writer.close()
                await writer.wait_closed()
        run_async(body())


class TestAdmissionControl:
    def test_saturated_server_rejects_then_recovers(self, tmp_path):
        with blocking_solver() as solver:
            async def body():
                service = _service(tmp_path)
                server = SweepServer(service,
                                     unix_socket=str(tmp_path / "s.sock"),
                                     admission_limit=1)
                async with server:
                    reader, writer = await _connect(server.unix_socket)
                    writer.write(json.dumps(
                        {"op": "sweep_spec", "id": "holder",
                         "specs": [_spec(4).to_payload()],
                         "method": solver.name}).encode() + b"\n")
                    await writer.drain()
                    loop = asyncio.get_running_loop()
                    assert await loop.run_in_executor(
                        None, solver.started.wait, 5.0)
                    # while the only slot is held, probes bounce immediately
                    for probe in range(3):
                        lines = await _sweep_lines(server.unix_socket,
                                                   _spec(2 + probe),
                                                   f"probe-{probe}")
                        assert lines[0]["rejected"] is True
                        assert "overloaded" in lines[0]["error"]
                    assert server.stats.rejections == 3
                    solver.release.set()
                    # the holder's sweep still answers on its connection
                    done = []
                    while not done:
                        line = json.loads(await reader.readline())
                        if line.get("done"):
                            done.append(line)
                    await service.drain()
                    # and new traffic is admitted again
                    lines = await _sweep_lines(server.unix_socket, _spec(9),
                                               "after-1")
                    slots = [ln for ln in lines if "index" in ln]
                    assert slots[0]["report"] is not None
                    assert not any(ln.get("rejected") for ln in lines)
                    writer.close()
                    await writer.wait_closed()
            run_async(body())


class TestMetricsOp:
    def test_metrics_snapshot_over_the_wire(self, tmp_path):
        async def body():
            service = _service(tmp_path)
            async with SweepServer(service,
                                   unix_socket=str(tmp_path / "s.sock")) \
                    as server:
                before = await request_metrics(
                    unix_socket=server.unix_socket)
                await _sweep_lines(server.unix_socket, _spec(), "m-1")
                await _sweep_lines(server.unix_socket, _spec(), "m-2")
                after = await request_metrics(
                    unix_socket=server.unix_socket)
            assert before["snapshot_schema"] == 1
            assert after["service"]["requests"] \
                   - before["service"]["requests"] == 2
            assert after["service"]["computed"] == 1
            assert after["service"]["store_hits"] == 1
            assert after["store"]["writes"] >= 1
            assert after["server"]["connections"] >= 4
            assert after["server"]["requests"] >= 4
            for section in ("service", "store", "lru", "kernels",
                            "materializations", "server"):
                assert section in after
        run_async(body())
