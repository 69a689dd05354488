"""E22 -- the warm wire path: store bytes become socket bytes.

A served sweep whose cells the store already holds should cost a store
read and a socket write, nothing else.  ``repro.serve`` splices each
store hit's stored report bytes into its response line (the store
validated them once, when its shard reader first served them) and
writes every already-resolved line of a request at once.  This
benchmark pins that path with exact counters.

An in-process :class:`~repro.serve.SweepServer` on a unix socket sweeps
a small seeded grid (fork-join cells solved by the series-parallel DP,
layered-random cells solved by the bicriteria LP) in ``sweep_spec``
requests:

1. **cold** -- a server on an empty store computes every cell; its lines
   are the reference answers;
2. **warm-up** -- a second server on the same store (a fresh process
   would look the same: new store handle, empty caches) answers every
   cell from the store, validating each stored report once;
3. **measured** -- the same requests again.

Gated, exactly, on the measured pass: every report spliced
(``reports_spliced == cells``), none encoded (``reports_encoded == 0``),
one socket write per request (``writes == requests``), zero store payload
decodes, zero DAG builds, and every line equal to the cold answer --
the LP cells' ``dropped_metadata`` included.  Wall-clock seconds are
printed for humans and never gated.

Run standalone:  python benchmarks/bench_warm_wire.py [--quick] [--json PATH]
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import sys
import tempfile
import time

from repro import clear_caches
from repro.analysis import format_table
from repro.engine.async_service import AsyncSweepService
from repro.engine.portfolio import Portfolio
from repro.engine.store import SolutionStore
from repro.scenarios import Axis, ScenarioGrid, materialization_info
from repro.serve import SweepServer

from bench_common import emit, parse_json_flag, write_json_artifact

#: Cells per ``sweep_spec`` request.
REQUEST_CELLS = 8


def build_specs(quick: bool):
    """SP-DP fork-join cells plus bicriteria-LP layered-random cells."""
    sp = ScenarioGrid(generators=(
        {"generator": "fork-join",
         "params": {"width": Axis([2, 3, 4, 5] if quick else list(range(2, 10))),
                    "work": Axis([8, 12])}},),
        budget_rules=(("const", 4.0), ("const", 6.0)))
    lp = ScenarioGrid(generators=(
        {"generator": "layered-random",
         "params": {"num_layers": 4, "jobs_per_layer": 4, "family": "general"}},),
        seeds=(1, 2, 3, 4) if quick else tuple(range(1, 9)),
        budget_rules=(("const", 4.5),))
    return list(sp.expand()) + list(lp.expand())


async def _sweep(sock: str, request_id: str, specs):
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
                return lines, line
            lines.append(line)
    finally:
        writer.close()
        await writer.wait_closed()


async def _pass(sock: str, name: str, requests):
    """Every request once; ``{cell digest: line}`` plus the wall time."""
    answers, done_ok = {}, True
    start = time.perf_counter()
    for index, specs in enumerate(requests):
        lines, done = await _sweep(sock, f"{name}{index}", specs)
        done_ok &= bool(done.get("done")) and done.get("count") == len(specs)
        for line in lines:
            answers[line["cell"]] = line
    return answers, done_ok, time.perf_counter() - start


def _server(root: str, sock: str) -> SweepServer:
    service = AsyncSweepService(
        store=SolutionStore(root),
        portfolio=Portfolio(executor="thread", max_workers=1))
    return SweepServer(service, unix_socket=sock)


async def _run(specs, workdir: str) -> dict:
    root = os.path.join(workdir, "store")
    requests = [specs[i:i + REQUEST_CELLS]
                for i in range(0, len(specs), REQUEST_CELLS)]
    async with _server(root, os.path.join(workdir, "cold.sock")) as cold_server:
        cold, cold_done, t_cold = await _pass(cold_server.unix_socket, "c", requests)
    clear_caches()
    async with _server(root, os.path.join(workdir, "warm.sock")) as server:
        store = server.service.store
        await _pass(server.unix_socket, "w", requests)
        before = (dict(vars(server.stats)), store.payload_decodes,
                  materialization_info()["dag_builds"])
        warm, warm_done, t_warm = await _pass(server.unix_socket, "m", requests)
        stats = vars(server.stats)
        delta = {name: stats[name] - before[0][name]
                 for name in ("reports_spliced", "reports_encoded", "writes")}
        return {
            "cells": len(specs),
            "requests": len(requests),
            "lp_cells": sum(1 for line in cold.values()
                            if line["report"]["solver_id"] == "bicriteria-lp"),
            "dropped_metadata_cells": sum(
                1 for line in cold.values()
                if line["report"]["solution"]["dropped_metadata"]),
            "cold_computed": sum(1 for line in cold.values()
                                 if line["source"] == "computed"),
            "warm_store_hits": sum(1 for line in warm.values()
                                   if line["source"] == "store"),
            **delta,
            "payload_decodes": store.payload_decodes - before[1],
            "dag_builds": materialization_info()["dag_builds"] - before[2],
            "lines_match_cold": warm_done and cold_done and sorted(warm) == sorted(cold)
            and all(warm[cell]["report"] == cold[cell]["report"]
                    and warm[cell]["key"] == cold[cell]["key"] for cell in cold),
            "corrupt_shards": store.corrupt_shards,
            "t_cold_s": t_cold,
            "t_warm_s": t_warm,
        }


def run_warm_wire(quick: bool) -> dict:
    clear_caches()
    workdir = tempfile.mkdtemp(prefix="bench-warm-wire-")
    try:
        stats = asyncio.run(_run(build_specs(quick), workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        clear_caches()
    stats["ok"] = gate(stats)
    return stats


#: The machine-independent acceptance conditions (measured pass), shared
#: by the standalone gate and the pytest entry point.
GATE_CONDITIONS = [
    ("the cold pass computed every cell", lambda s: s["cold_computed"] == s["cells"]),
    ("the grid has LP cells whose solutions drop metadata",
     lambda s: s["lp_cells"] > 0 and s["dropped_metadata_cells"] == s["lp_cells"]),
    ("every warm cell is a store hit", lambda s: s["warm_store_hits"] == s["cells"]),
    ("every report is spliced from the stored bytes",
     lambda s: s["reports_spliced"] == s["cells"]),
    ("no report is encoded again", lambda s: s["reports_encoded"] == 0),
    ("one socket write per request", lambda s: s["writes"] == s["requests"]),
    ("no stored payload is decoded", lambda s: s["payload_decodes"] == 0),
    ("no DAG is built", lambda s: s["dag_builds"] == 0),
    ("every line equals the cold answer", lambda s: s["lines_match_cold"]),
    ("no stored payload is corrupt", lambda s: s["corrupt_shards"] == 0),
]


def gate(stats) -> bool:
    """The machine-independent acceptance predicate (counters only)."""
    return all(condition(stats) for _label, condition in GATE_CONDITIONS)


def render(stats) -> str:
    rows = [[label, "yes" if condition(stats) else "NO"]
            for label, condition in GATE_CONDITIONS]
    header = (f"{stats['cells']} cells ({stats['lp_cells']} LP) in "
              f"{stats['requests']} requests; measured pass: "
              f"{stats['reports_spliced']} spliced, {stats['reports_encoded']} "
              f"encoded, {stats['writes']} writes, {stats['payload_decodes']} "
              f"payload decodes, {stats['dag_builds']} DAG builds; "
              f"cold {stats['t_cold_s'] * 1000:.0f} ms, warm "
              f"{stats['t_warm_s'] * 1000:.0f} ms")
    return header + "\n\n" + format_table(["condition", "holds"], rows)


# ---------------------------------------------------------------------------
# pytest entry point
# ---------------------------------------------------------------------------

def test_warm_wire_splices_and_writes_once():
    stats = run_warm_wire(quick=True)
    emit("E22 / warm wire path -- stored bytes spliced, one write per request",
         render(stats))
    for label, condition in GATE_CONDITIONS:
        assert condition(stats), (label, stats)


# ---------------------------------------------------------------------------
# standalone mode
# ---------------------------------------------------------------------------

def main(argv) -> int:
    quick = "--quick" in argv
    json_path = parse_json_flag(argv, "bench_warm_wire.py [--quick] [--json PATH]")

    stats = run_warm_wire(quick)
    print(render(stats))
    print(f"\nwarm store hits go from stored bytes to one socket write: {stats['ok']}")
    if json_path:
        write_json_artifact(json_path, {"benchmark": "bench_warm_wire",
                                        "quick": quick, **stats})
    return 0 if stats["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
