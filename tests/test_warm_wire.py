"""The zero-recode warm path: store hits go from shard bytes to socket bytes.

A store hit's report is the stored payload bytes, validated once by the
store and spliced into the response line by ``repro.serve`` -- never
decoded into a ``SolveReport`` and encoded again.  These tests pin the
contract over live unix-socket servers:

* the warm answer equals the cold one (including the solution's
  ``dropped_metadata``, which a decode/encode round trip used to reset)
  and equals what a store-aware router answers locally;
* an all-hit sweep leaves the server in one socket write;
* a stored payload the store cannot vouch for (wrong shape, a newline
  byte, a foreign ``"key"``) is never spliced: the cell recomputes;
* in-process consumers still get a ``SolveReport`` per slot, decoded
  lazily.
"""

from __future__ import annotations

import asyncio
import json
import os

import pytest

from repro.cluster import ClusterClient
from repro.cluster.runners import RunnerAddress
from repro.engine import (
    AsyncSweepService,
    Portfolio,
    SweepService,
    clear_caches,
    set_solution_store,
)
from repro.engine import store as store_module
from repro.engine.store import SolutionStore, _PackedShardReader
from repro.scenarios import ScenarioSpec
from repro.serve import SweepServer


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


#: Solved by ``bicriteria-lp``, whose solution drops its in-memory LP
#: report from the stored metadata (``dropped_metadata: ["report"]``).
LP_SPEC = ScenarioSpec("layered-random",
                       {"num_layers": 5, "jobs_per_layer": 5,
                        "family": "general"},
                       seed=5, budget_rule=("const", 4.5))


def _sp_specs(count: int = 4):
    return [ScenarioSpec("fork-join", {"width": width, "work": 8},
                         budget_rule=("const", 4.0))
            for width in range(2, 2 + count)]


def _server(root: str, sock: str) -> SweepServer:
    service = AsyncSweepService(
        store=SolutionStore(root),
        portfolio=Portfolio(executor="thread", max_workers=1))
    return SweepServer(service, unix_socket=sock)


async def _sweep(sock: str, specs, request_id: str = "r1"):
    """One ``sweep_spec`` request: ``(slot lines in index order, done line)``."""
    reader, writer = await asyncio.open_unix_connection(sock)
    try:
        writer.write(json.dumps({"op": "sweep_spec", "id": request_id,
                                 "specs": [s.to_payload() for s in specs]}
                                ).encode() + b"\n")
        await writer.drain()
        lines = []
        while True:
            line = json.loads(await reader.readline())
            if "index" not in line:
                return sorted(lines, key=lambda item: item["index"]), line
            lines.append(line)
    finally:
        writer.close()
        await writer.wait_closed()


def _without_timing(line):
    report = dict(line["report"])
    report.pop("wall_time")
    return {"key": line["key"], "cell": line["cell"], "report": report}


# ---------------------------------------------------------------------------
# warm answers are the cold answers
# ---------------------------------------------------------------------------

class TestSplicedAnswers:
    def test_cold_warm_and_router_reports_are_equal(self, tmp_path):
        root, sock = str(tmp_path / "store"), str(tmp_path / "s.sock")

        async def body():
            async with _server(root, sock) as server:
                (cold,), _ = await _sweep(sock, [LP_SPEC], "cold")
                (warm,), _ = await _sweep(sock, [LP_SPEC], "warm")
                # A router sharing the store answers the cell itself.
                client = ClusterClient([RunnerAddress("r0", unix_socket=sock)],
                                       store=SolutionStore(root))
                (local,) = await client.sweep_specs([LP_SPEC])
                assert client.stats.planned_local == 1
                return cold, warm, local, server.stats

        cold, warm, local, stats = run_async(body())
        assert cold["source"] == "computed"
        assert cold["report"]["solution"]["dropped_metadata"] == ["report"]
        assert warm["source"] == local["source"] == "store"
        assert warm["report"] == cold["report"]
        assert local["report"] == cold["report"]
        assert warm["key"] == local["key"] == cold["key"]
        assert (stats.reports_encoded, stats.reports_spliced) == (1, 1)

    def test_packed_reader_serves_the_same_bytes(self, tmp_path):
        # A fresh server opens the packed shard the first one wrote: its
        # answer comes straight off the mmapped record table.
        root = str(tmp_path / "store")

        async def body():
            async with _server(root, str(tmp_path / "a.sock")):
                cold, _ = await _sweep(str(tmp_path / "a.sock"),
                                       [LP_SPEC] + _sp_specs())
            clear_caches()
            async with _server(root, str(tmp_path / "b.sock")) as server:
                warm, _ = await _sweep(str(tmp_path / "b.sock"),
                                       [LP_SPEC] + _sp_specs())
                return cold, warm, server.service.store.counters()

        cold, warm, counters = run_async(body())
        assert [line["source"] for line in warm] == ["store"] * 5
        assert [line["report"] for line in warm] == [line["report"] for line in cold]
        assert counters["binary_shard_opens"] >= 1
        assert counters["corrupt_shards"] == 0

    def test_all_hit_sweep_is_one_write(self, tmp_path):
        root, sock = str(tmp_path / "store"), str(tmp_path / "s.sock")
        specs = _sp_specs(6) + _sp_specs(2)       # two duplicate slots

        async def body():
            async with _server(root, sock) as server:
                await _sweep(sock, specs, "cold")
                cold_writes = server.stats.writes
                lines, done = await _sweep(sock, specs, "warm")
                return server.stats, cold_writes, lines, done

        stats, cold_writes, lines, done = run_async(body())
        # cold: every slot streamed as it was computed, then `done`
        assert cold_writes == len(specs) + 1
        assert stats.writes - cold_writes == 1
        assert stats.reports_spliced == len(specs)
        assert stats.reports_encoded == len(specs)   # the cold pass only
        assert [line["index"] for line in lines] == list(range(len(specs)))
        assert done == {"id": "warm", "done": True, "count": len(specs),
                        "protocol": 1}

    def test_resolved_slots_leave_together_then_computed_ones_stream(
            self, tmp_path):
        root, sock = str(tmp_path / "store"), str(tmp_path / "s.sock")
        warm_specs, fresh = _sp_specs(3), _sp_specs(4)[3:]

        async def body():
            async with _server(root, sock) as server:
                await _sweep(sock, warm_specs, "cold")
                before = server.stats.writes
                lines, done = await _sweep(sock, warm_specs + fresh, "mixed")
                return server.stats.writes - before, lines, done

        writes, lines, done = run_async(body())
        # the three hits in one write, the computed cell, then `done`
        assert writes == 3
        assert [line["source"] for line in lines] == ["store"] * 3 + ["computed"]
        assert done["count"] == 4

    def test_materialized_sweep_op_splices_too(self, tmp_path):
        from repro.serve import problem_to_payload

        root, sock = str(tmp_path / "store"), str(tmp_path / "s.sock")
        problems = [spec.materialize() for spec in _sp_specs(3)]
        request = {"op": "sweep", "id": "m",
                   "scenarios": [problem_to_payload(p) for p in problems]}

        async def send(writer, reader):
            writer.write(json.dumps(request).encode() + b"\n")
            await writer.drain()
            lines = []
            while True:
                line = json.loads(await reader.readline())
                if line.get("done"):
                    return sorted(lines, key=lambda item: item["index"])
                lines.append(line)

        async def body():
            async with _server(root, sock) as server:
                reader, writer = await asyncio.open_unix_connection(sock)
                cold = await send(writer, reader)
                writes = server.stats.writes
                warm = await send(writer, reader)
                writer.close()
                await writer.wait_closed()
                return cold, warm, server.stats, server.stats.writes - writes

        cold, warm, stats, warm_writes = run_async(body())
        assert [line["source"] for line in warm] == ["store"] * 3
        assert [line["report"] for line in warm] == [line["report"] for line in cold]
        assert stats.reports_spliced == 3 and warm_writes == 1

    def test_spec_digest_is_computed_once_per_spec(self, tmp_path, monkeypatch):
        root, sock = str(tmp_path / "store"), str(tmp_path / "s.sock")
        specs = [ScenarioSpec("fork-join", {"width": 2 + i % 8, "work": 8},
                              budget_rule=("const", float(2 + i // 8)))
                 for i in range(16)]
        calls = []
        canonical = ScenarioSpec.canonical_json

        def counting(spec):
            calls.append(spec)
            return canonical(spec)

        async def body():
            async with _server(root, sock):
                await _sweep(sock, specs, "cold")
                calls.clear()
                monkeypatch.setattr(ScenarioSpec, "canonical_json", counting)
                lines, _ = await _sweep(sock, specs, "warm")
                return lines

        lines = run_async(body())
        assert {line["source"] for line in lines} == {"store"}
        assert len(calls) == 16        # alias, memo probe, plan and wire share it


# ---------------------------------------------------------------------------
# the corruption contract: bytes the store cannot vouch for never go out
# ---------------------------------------------------------------------------

def _repack(path: str, key: str, mutate) -> None:
    """Rewrite one packed shard with ``mutate(blob)`` as ``key``'s payload."""
    reader = _PackedShardReader(path)
    records = {}
    for index in range(reader.count):
        record_key, seq, blob, flags = reader.record(index)
        records[record_key] = (seq, mutate(blob) if record_key == key else blob,
                               flags)
    reader.buf.close()
    with open(path, "wb") as handle:
        handle.write(store_module._pack_records(records))


def _wrong_shape(root, key):
    store = SolutionStore(root)
    payload = store.get(key)
    payload["solution"] = {"allocation": "nonsense"}
    store.put(key, payload)


def _with_newline(root, key):
    # Whitespace is legal JSON, so the payload still decodes to the very
    # same report -- only the line framing forbids splicing it.
    _repack(os.path.join(root, "shards", f"{key[:2]}.rps"), key,
            lambda blob: blob.replace(b',"method":', b',\n"method":', 1))
    payload = SolutionStore(root).get(key)
    assert payload is not None and payload["key"] == key


def _foreign_key(root, key):
    store = SolutionStore(root)
    payload = store.get(key)
    payload["key"] = "f" * 64
    store.put(key, payload)


class TestCorruptStoredReports:
    @pytest.mark.parametrize("tamper", [_wrong_shape, _with_newline, _foreign_key],
                             ids=["wrong-shape", "newline", "foreign-key"])
    def test_tampered_report_recomputes_and_is_not_spliced(self, tmp_path, tamper):
        root = str(tmp_path / "store")
        specs = _sp_specs(3)

        async def body():
            async with _server(root, str(tmp_path / "a.sock")):
                cold, _ = await _sweep(str(tmp_path / "a.sock"), specs)
            tamper(root, cold[1]["key"])
            async with _server(root, str(tmp_path / "b.sock")) as server:
                warm, _ = await _sweep(str(tmp_path / "b.sock"), specs)
                return cold, warm, server.stats, server.service.store.counters()

        cold, warm, stats, counters = run_async(body())
        assert [line["source"] for line in warm] == ["store", "computed", "store"]
        assert (stats.reports_spliced, stats.reports_encoded) == (2, 1)
        assert counters["corrupt_shards"] >= 1
        assert [_without_timing(line) for line in warm] == \
            [_without_timing(line) for line in cold]
        # the recompute repaired the entry: a third server splices it again
        assert SolutionStore(root).get_raw_many([cold[1]["key"]])[cold[1]["key"]][1]


# ---------------------------------------------------------------------------
# in-process consumers: one lazily decoded SolveReport per slot
# ---------------------------------------------------------------------------

class TestLazyReports:
    def test_store_hits_decode_on_first_read_one_object_per_slot(
            self, tmp_path, monkeypatch):
        specs = _sp_specs(2) + _sp_specs(2)
        root = str(tmp_path / "store")
        portfolio = Portfolio(executor="thread", max_workers=1)
        with SweepService(store=SolutionStore(root), portfolio=portfolio) as service:
            service.run(specs)
        decodes = []
        decode = store_module.solution_from_payload

        def counting(payload):
            decodes.append(payload)
            return decode(payload)

        with SweepService(store=SolutionStore(root), portfolio=portfolio) as service:
            results = service.run(specs).results
            monkeypatch.setattr(store_module, "solution_from_payload", counting)
            assert all(r.source == "store" and r.payload for r in results)
            assert decodes == []                   # nothing decoded yet
            reports = [r.report for r in results]
        assert len(decodes) == len(specs)
        assert reports[0] is results[0].report     # decoded once, kept
        assert all(r.from_cache and r.cache_tier == "store" for r in reports)
        # duplicate slots never share a report object
        reports[0].allocation["mutated"] = 1.0
        assert "mutated" not in reports[2].allocation
        assert reports[0].makespan == reports[2].makespan


# ---------------------------------------------------------------------------
# one spec token per cell
# ---------------------------------------------------------------------------

class TestSpecTokens:
    def test_warm_sweep_spec_builds_one_spec_token_per_cell(
            self, tmp_path, monkeypatch):
        """A warm 16-cell ``sweep_spec`` builds each cell's spec token once,
        for its alias key; the plan probes the spec-key memo by that alias
        instead of building the token again."""
        from repro.engine import fingerprint

        root, sock = str(tmp_path / "store"), str(tmp_path / "s.sock")
        specs = _sp_specs(16)
        build_token = fingerprint._spec_request_token
        calls = []

        def counting_token(*args, **kwargs):
            calls.append(args[0])
            return build_token(*args, **kwargs)

        async def body():
            async with _server(root, sock):
                await _sweep(sock, specs, "cold")
                await _sweep(sock, specs, "warm-up")
                monkeypatch.setattr(fingerprint, "_spec_request_token",
                                    counting_token)
                lines, _ = await _sweep(sock, specs, "warm")
                return lines

        lines = run_async(body())
        assert [line["source"] for line in lines] == ["store"] * 16
        assert len(calls) == 16
        assert sorted(spec.cell_digest() for spec in calls) == \
            sorted(spec.cell_digest() for spec in specs)


# ---------------------------------------------------------------------------
# a runner's own writes are validated once
# ---------------------------------------------------------------------------

class TestSelfWrittenShards:
    def test_each_entry_is_validated_once_per_handle(self, tmp_path, monkeypatch):
        """A handle keeps a reader over the bytes it wrote; each entry's
        report bytes are checked on their first read and reused after, as
        a reader opened from disk does: three warm passes over an 8-cell
        grid the service computed decode 8 solutions, not 24 -- the same
        as a fresh service over the same store."""
        root = str(tmp_path / "store")
        specs = _sp_specs(8)
        decode = store_module.solution_from_payload
        calls = []

        def counting(payload):
            calls.append(payload)
            return decode(payload)

        async def passes(store, cold):
            async with AsyncSweepService(
                    store=store,
                    portfolio=Portfolio(executor="thread",
                                        max_workers=1)) as service:
                if cold:
                    await (await service.submit_specs(specs)).results()
                monkeypatch.setattr(store_module, "solution_from_payload",
                                    counting)
                for _ in range(3):
                    results = await (await service.submit_specs(specs)).results()
                    assert [r.source for r in results] == ["store"] * 8
                    assert all(r.payload is not None for r in results)
                monkeypatch.setattr(store_module, "solution_from_payload", decode)

        run_async(passes(SolutionStore(root), cold=True))
        assert len(calls) == 8
        calls.clear()
        clear_caches()
        run_async(passes(SolutionStore(root), cold=False))
        assert len(calls) == 8

    def test_a_rewritten_entry_is_validated_again(self, tmp_path):
        store = SolutionStore(str(tmp_path / "store"))
        report = _stored_report()
        key = "ab" + "0" * 62
        store.put(key, store_module.report_to_payload(report, key))
        blob = store.get_raw_many([key])[key][1]
        assert blob is not None and store.get_raw_many([key])[key][1] is blob
        store.put(key, {"key": key, "not": "a report"})
        assert store.get_raw_many([key])[key] == (key, None)
        assert store.corrupt_shards == 1


# ---------------------------------------------------------------------------
# one framer per request: the lines json.dumps would write
# ---------------------------------------------------------------------------

#: Request ids and errors that exercise JSON string escaping.
AWKWARD_IDS = ['r"1\\\n é ☃', 7, None, ["a", 1.5], {"b": 1, "a": 'x"'}]
AWKWARD_ERROR = 'ValueError: bad "quote" \\ back\nslash ü ☃'

#: A report payload shaped like the store's (nested, floats, escapes).
REPORT = {"key": "k" * 64, "solver_id": "series-parallel-dp",
          "wall_time": 0.001, "parameter": 4.0, "structure": {"jobs": 3},
          "certificate": {"passed": True, "notes": {"n": 'a "b"\n'}},
          "solution": {"makespan": 2.5, "allocation": [["'s'", 1.0]],
                       "metadata": {"é": 1e-300}}}


def _expected_line(fields, report):
    return json.dumps({**fields, "report": report}, sort_keys=True).encode() + b"\n"


class TestSlotFramer:
    @pytest.mark.parametrize("request_id", AWKWARD_IDS,
                             ids=["escapes", "int", "null", "list", "object"])
    @pytest.mark.parametrize("with_cell", [True, False], ids=["spec", "sweep"])
    def test_lines_are_what_json_dumps_writes(self, request_id, with_cell):
        from types import SimpleNamespace

        from repro.serve import _ENCODER, _SlotFramer

        cells = ["céll-0", 'c"1', "c\\2"] if with_cell else None
        framer = _SlotFramer(request_id, cells)
        stored = json.dumps(REPORT, sort_keys=True,
                            separators=(",", ":")).encode()
        slots = [  # (result, report bytes handed to the framer, report value)
            (SimpleNamespace(key="k" * 64, source="store", error=None),
             stored, REPORT),
            (SimpleNamespace(key="kü", source="computed", error=None),
             _ENCODER.encode(REPORT).encode(), REPORT),
            (SimpleNamespace(key="alias", source="failed", error=AWKWARD_ERROR),
             None, None),
        ]
        for index, (result, report_bytes, report) in enumerate(slots):
            fields = {"id": request_id, "index": index, "key": result.key,
                      "source": result.source, "error": result.error}
            if with_cell:
                fields["cell"] = cells[index]
            line = framer.line(index, result, report_bytes)
            assert line.endswith(b"\n") and line.count(b"\n") == 1
            if report_bytes is stored:
                # Spliced bytes: only the whitespace inside the report differs.
                line = line.replace(stored, json.dumps(REPORT, sort_keys=True).encode())
            assert line == _expected_line(fields, report)

    def test_relay_frames_every_kind_of_slot(self):
        """Through ``_relay_ticket``: a store hit, a computed report and a
        failure, with awkward ids and errors, frame exactly as
        ``json.dumps`` would, and the ``done`` line follows."""
        from types import SimpleNamespace

        from repro.engine.service import SweepResult
        from repro.engine.store import report_from_payload, report_to_payload

        stored_report = _stored_report()
        payload = report_to_payload(stored_report, "k" * 64)
        stored = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        computed = report_from_payload(payload)
        results = [
            SweepResult(index=0, key="k" * 64, problem=None, report=None,
                        source="store", payload=stored),
            SweepResult(index=1, key="k" * 64, problem=None, report=computed,
                        source="computed"),
            SweepResult(index=2, key='a"li\\as', problem=None, report=None,
                        source="failed", error=AWKWARD_ERROR),
        ]
        request_id = AWKWARD_IDS[0]
        cells = ["dé", "x", 'q"']
        sent = []

        async def body():
            loop = asyncio.get_running_loop()
            futures = [loop.create_future() for _ in results]
            for future, result in zip(futures, results):
                future.set_result(result)
            server = SweepServer(AsyncSweepService(
                portfolio=Portfolio(executor="thread", max_workers=1)))

            async def send(message):
                sent.append(message)

            await server._relay_ticket(request_id, SimpleNamespace(futures=futures),
                                       send, cells)
            return server.stats

        stats = run_async(body())
        assert len(sent) == 1                    # all resolved: one write
        lines = sent[0].splitlines(keepends=True)
        expected_reports = [payload, report_to_payload(computed, "k" * 64), None]
        for index, (line, result) in enumerate(zip(lines, results)):
            fields = {"id": request_id, "index": index, "key": result.key,
                      "source": result.source, "error": result.error,
                      "cell": cells[index]}
            line = line.replace(stored, json.dumps(payload, sort_keys=True).encode())
            assert line == _expected_line(fields, expected_reports[index])
        assert lines[3] == json.dumps({"id": request_id, "done": True, "count": 3,
                                       "protocol": 1}, sort_keys=True).encode() + b"\n"
        assert (stats.reports_spliced, stats.reports_encoded) == (1, 1)


def _stored_report():
    """A real report, solved once (a two-job fork-join)."""
    clear_caches()
    with SweepService(portfolio=Portfolio(executor="thread",
                                          max_workers=1)) as service:
        return service.run(_sp_specs(1)).results[0].report
