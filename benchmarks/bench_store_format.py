"""E19 -- packed binary store format: lazy v2 shards vs sharded JSON (v1).

The tier-2 :class:`~repro.engine.store.SolutionStore` used to keep each
shard as one JSON blob: any ``get()`` parsed the whole shard, a bulk table
regeneration re-decoded every alias entry, and 10^7-entry deployments paid
for it.  The packed v2 format puts a fixed-width, key-sorted record table
in front of per-entry payload blobs: ``get()`` binary-searches the table
and decodes ONE payload, alias entries resolve from the record flags with
no JSON decode at all, and :meth:`~repro.engine.store.SolutionStore.scan`
streams the whole store in one pass.  This benchmark measures both layouts
on the same contents (real solved reports + bulk entries + aliases):

* **sharded JSON (v1)** -- the legacy format, which the store still reads
  but no longer writes: this benchmark writes the v1 root itself, and a
  bulk read via ``scan()`` pays one full parse per shard there;
* **packed binary (v2)** -- the same store after ``migrate()``.

The gate is **machine-independent** (the ISSUE 6 acceptance criteria): the
warm bulk scan over v2 performs 0 full-shard JSON parses and 0
alias-payload decodes (one decode per non-alias entry, nothing more), a
cold point ``get()`` decodes exactly one payload, an alias ``get()``
decodes zero, and the v1 -> v2 migration round-trips every payload
bit-identically.  Wall-clock is reported for humans but never gated on.

Run standalone:  python benchmarks/bench_store_format.py [--quick] [--json PATH]
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile
import time

from repro import clear_caches
from repro.analysis import format_table
from repro.analysis.sweep import sweep_records
from repro.core.dag import TradeoffDAG
from repro.core.duration import GeneralStepDuration
from repro.core.problem import MinMakespanProblem
from repro.engine import SolutionStore, request_key
from repro.engine.core import solve
from repro.engine.store import report_to_payload

from bench_common import emit, parse_json_flag, write_json_artifact

#: Bulk synthetic entries (quick / full).  Real solved reports ride along so
#: the migration round-trip covers true SolveReport payloads too.
BULK_ENTRIES = 4000
QUICK_BULK = 400
REPORT_BUDGETS = (1.0, 2.0, 3.0, 4.0)
ALIAS_EVERY = 4  # one alias entry per this many bulk entries


def _chain_problem(budget: float) -> MinMakespanProblem:
    dag = TradeoffDAG()
    for name in ("s", "x", "t"):
        dag.add_job(name, GeneralStepDuration([(0, 4), (2, 1)]))
    dag.add_edge("s", "x")
    dag.add_edge("x", "t")
    return MinMakespanProblem(dag, budget)


def _bulk_key(index: int) -> str:
    return hashlib.sha256(f"bulk:{index}".encode()).hexdigest()


def _bulk_payload(index: int) -> dict:
    return {
        "solver_id": "bench-synthetic",
        "objective": "min_makespan",
        "wall_time": 0.001 * (index % 7),
        "parameter": float(index % 13 + 1),
        "solution": {"makespan": float(index % 97),
                     "budget_used": float(index % 11),
                     "lower_bound": float(index % 97) / 2.0 or None},
    }


def write_v1_root(root: str, entries) -> None:
    """Write ``(key, payload)`` pairs, in insertion order, as a legacy v1
    root: ``shards/<prefix>.json`` = ``{"schema": 1, "entries": {key:
    payload + "__seq__"}}``."""
    shards: dict = {}
    for seq, (key, payload) in enumerate(entries, start=1):
        shards.setdefault(key[:2], {})[key] = {**payload, "__seq__": seq}
    os.makedirs(os.path.join(root, "shards"))
    with open(os.path.join(root, "meta.json"), "w", encoding="utf-8") as handle:
        json.dump({"schema": 1, "shard_width": 2}, handle)
    for shard_id, shard in shards.items():
        with open(os.path.join(root, "shards", f"{shard_id}.json"), "w",
                  encoding="utf-8") as handle:
            json.dump({"schema": 1, "entries": shard}, handle,
                      sort_keys=True, separators=(",", ":"))


def build_v1_store(root: str, bulk: int) -> dict:
    """Populate a legacy sharded-JSON store: reports + bulk + aliases."""
    clear_caches()
    report_keys = [request_key(_chain_problem(budget))
                   for budget in REPORT_BUDGETS]
    reports = [(key, report_to_payload(
        solve(_chain_problem(budget), use_cache=False), key))
        for key, budget in zip(report_keys, REPORT_BUDGETS)]
    items = [(_bulk_key(i), _bulk_payload(i)) for i in range(bulk)]
    aliases = [(hashlib.sha256(f"alias:{i}".encode()).hexdigest(),
                {"alias_of": _bulk_key(i)})
               for i in range(0, bulk, ALIAS_EVERY)]
    write_v1_root(root, reports + items + aliases)
    return {"store": SolutionStore(root), "report_keys": report_keys,
            "non_alias": bulk + len(REPORT_BUDGETS), "aliases": len(aliases)}


def _snapshot(store: SolutionStore) -> str:
    """Canonical JSON of every payload -- the bit-identity yardstick."""
    return json.dumps(dict(store.payloads()), sort_keys=True)


def timed_scan(root: str) -> tuple:
    """Cold-handle bulk scan (the analysis/sweep.py table-regen path)."""
    store = SolutionStore(root)
    start = time.perf_counter()
    records = sweep_records(store)
    wall = time.perf_counter() - start
    return records, store.info(), wall


def run_comparison(bulk: int) -> dict:
    workdir = tempfile.mkdtemp(prefix="bench-store-")
    try:
        seeded = build_v1_store(f"{workdir}/v1", bulk)
        before = _snapshot(seeded["store"])

        json_records, json_info, t_json = timed_scan(f"{workdir}/v1")

        # v1 -> v2 migration on a copy (so both layouts hold the same data)
        shutil.copytree(f"{workdir}/v1", f"{workdir}/v2")
        migration = SolutionStore(f"{workdir}/v2").migrate()
        migrated = SolutionStore(f"{workdir}/v2")
        migration_identical = _snapshot(migrated) == before
        reports_decode = all(migrated.get_report(key) is not None
                             for key in seeded["report_keys"])

        binary_records, binary_info, t_binary = timed_scan(f"{workdir}/v2")

        # cold point lookups on v2: one decode per get, zero for aliases
        point = SolutionStore(f"{workdir}/v2")
        point.get(_bulk_key(1))
        point.get(_bulk_key(2))
        alias_key = hashlib.sha256(b"alias:0").hexdigest()
        point.get(alias_key)
        point_info = point.info()

        return {
            "entries": seeded["non_alias"] + seeded["aliases"],
            "non_alias": seeded["non_alias"],
            "aliases": seeded["aliases"],
            "records_match": json_records == binary_records,
            "json_full_shard_parses": json_info["full_shard_parses"],
            "binary_full_shard_parses": binary_info["full_shard_parses"],
            "binary_payload_decodes": binary_info["payload_decodes"],
            "binary_alias_skips": binary_info["scan_alias_skips"],
            "migration_shards": migration["shards"],
            "migration_failed": migration["failed"],
            "migration_identical": migration_identical,
            "reports_decode": reports_decode,
            "point_payload_decodes": point_info["payload_decodes"],
            "point_alias_fast_hits": point_info["alias_fast_hits"],
            "t_scan_json_s": t_json,
            "t_scan_binary_s": t_binary,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


#: The machine-independent acceptance conditions, shared by the standalone
#: gate and the pytest entry point so the two can never diverge.
GATE_CONDITIONS = [
    ("binary bulk scan performs zero full-shard JSON parses",
     lambda s: s["binary_full_shard_parses"] == 0),
    ("binary bulk scan decodes exactly one payload per non-alias entry",
     lambda s: s["binary_payload_decodes"] == s["non_alias"]),
    ("binary bulk scan skips every alias without decoding it",
     lambda s: s["binary_alias_skips"] == s["aliases"]),
    ("both layouts produce identical sweep records",
     lambda s: s["records_match"]),
    ("v1 -> v2 migration round-trips every payload bit-identically",
     lambda s: s["migration_identical"] and s["migration_failed"] == 0),
    ("migrated SolveReports still decode",
     lambda s: s["reports_decode"]),
    ("a cold point get() decodes exactly one payload",
     lambda s: s["point_payload_decodes"] == 2),
    ("an alias point get() resolves with zero payload decodes",
     lambda s: s["point_alias_fast_hits"] == 1),
    ("the JSON path really was paying full-shard parses",
     lambda s: s["json_full_shard_parses"] > 0),
]


def gate(stats) -> bool:
    """The machine-independent acceptance predicate (counters only)."""
    return all(condition(stats) for _label, condition in GATE_CONDITIONS)


def render(stats) -> str:
    rows = [
        ["sharded JSON (v1)", str(stats["json_full_shard_parses"]), "n/a",
         "n/a", f"{stats['t_scan_json_s'] * 1000:.0f}", "1.00"],
        ["packed binary (v2)", str(stats["binary_full_shard_parses"]),
         str(stats["binary_payload_decodes"]),
         str(stats["binary_alias_skips"]),
         f"{stats['t_scan_binary_s'] * 1000:.0f}",
         f"{stats['t_scan_json_s'] / max(stats['t_scan_binary_s'], 1e-9):.2f}"],
    ]
    header = (f"bulk scan of {stats['entries']} entries "
              f"({stats['non_alias']} payloads + {stats['aliases']} aliases) "
              f"in {stats['migration_shards']} shards; "
              f"migration bit-identical: {stats['migration_identical']}, "
              f"identical records: {stats['records_match']}")
    return header + "\n\n" + format_table(
        ["layout", "full shard parses", "payload decodes", "alias skips",
         "wall time (ms)", "speedup vs JSON"], rows)


# ---------------------------------------------------------------------------
# pytest entry points (run in CI with --benchmark-disable)
# ---------------------------------------------------------------------------

def test_packed_store_scans_without_full_parses(benchmark):
    stats = run_comparison(QUICK_BULK)
    emit("E19 / packed binary store -- lazy v2 shards vs sharded JSON",
         render(stats))
    for label, condition in GATE_CONDITIONS:
        assert condition(stats), f"{label} (stats: {stats})"

    workdir = tempfile.mkdtemp(prefix="bench-store-pytest-")
    try:
        build_v1_store(f"{workdir}/v1", QUICK_BULK)
        SolutionStore(f"{workdir}/v1").migrate()

        def binary_scan():
            return sweep_records(SolutionStore(f"{workdir}/v1"))

        benchmark(binary_scan)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# standalone mode
# ---------------------------------------------------------------------------

def main(argv) -> int:
    quick = "--quick" in argv
    json_path = parse_json_flag(
        argv, "bench_store_format.py [--quick] [--json PATH]")

    stats = run_comparison(QUICK_BULK if quick else BULK_ENTRIES)
    print(render(stats))
    ok = gate(stats)
    print(f"\npacked v2 beats sharded JSON on decode counters (0 full "
          f"parses, 0 alias decodes, bit-identical migration): {ok}")

    if json_path:
        write_json_artifact(json_path, {
            "benchmark": "bench_store_format",
            "quick": quick,
            "entries": stats["entries"],
            "non_alias": stats["non_alias"],
            "aliases": stats["aliases"],
            "binary_full_shard_parses": stats["binary_full_shard_parses"],
            "binary_payload_decodes": stats["binary_payload_decodes"],
            "binary_alias_skips": stats["binary_alias_skips"],
            "json_full_shard_parses": stats["json_full_shard_parses"],
            "records_match": stats["records_match"],
            "migration_identical": stats["migration_identical"],
            "reports_decode": stats["reports_decode"],
            "point_payload_decodes": stats["point_payload_decodes"],
            "point_alias_fast_hits": stats["point_alias_fast_hits"],
            "t_scan_json_s": stats["t_scan_json_s"],
            "t_scan_binary_s": stats["t_scan_binary_s"],
            "ok": ok,
        })
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
