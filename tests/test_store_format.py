"""Tests for the packed binary (v2) SolutionStore shard format.

Covers what ``test_store.py`` cannot from the legacy JSON angle: the
v1 <-> v2 migration (bit-identical round trips), mixed-format stores,
binary corruption decay (truncate / mangle / version-bump -> recompute,
never crash), the lazy ``get()`` / alias fast path and the ``scan()``
bulk iterator, all gated on the store's decode counters.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis.sweep import sweep_records
from repro.core.dag import TradeoffDAG
from repro.core.duration import GeneralStepDuration
from repro.core.problem import MinMakespanProblem
from repro.engine import (
    SolutionStore,
    clear_caches,
    request_key,
    set_solution_store,
    solve,
)
from repro.engine.store import atomic_write_json


@pytest.fixture(autouse=True)
def _fresh_engine():
    clear_caches()
    set_solution_store(None)
    yield
    clear_caches()
    set_solution_store(None)


def _problem(budget: float = 2.0) -> MinMakespanProblem:
    dag = TradeoffDAG()
    for name in ("s", "x", "t"):
        dag.add_job(name, GeneralStepDuration([(0, 4), (2, 1)]))
    dag.add_edge("s", "x")
    dag.add_edge("x", "t")
    return MinMakespanProblem(dag, budget)


def _key(prefix: str, index: int) -> str:
    return prefix + f"{index:0{64 - len(prefix)}d}"


def _shard_path(store: SolutionStore, shard_id: str, ext: str) -> str:
    return os.path.join(store.root, "shards", f"{shard_id}.{ext}")


def _snapshot(store: SolutionStore) -> str:
    """Canonical JSON of every payload -- the bit-identity yardstick."""
    return json.dumps(dict(store.payloads()), sort_keys=True)


# ---------------------------------------------------------------------------
# v1 <-> v2 migration
# ---------------------------------------------------------------------------

class TestMigration:
    def _seed_v1(self, tmp_path) -> SolutionStore:
        store = SolutionStore(str(tmp_path / "s"), shard_format="json")
        for budget in (1.0, 2.0, 3.0):
            problem = _problem(budget)
            store.put_report(request_key(problem), solve(problem, use_cache=False))
        store.put(_key("aa", 7), {"v": 7, "nested": {"xs": [1, 2.5]}})
        store.put(_key("ab", 8), {"alias_of": _key("aa", 7)})
        return store

    def test_v1_to_v2_round_trips_bit_identically(self, tmp_path):
        store = self._seed_v1(tmp_path)
        before = _snapshot(store)
        keys = [key for key, _ in store.payloads()]

        stats = SolutionStore(store.root, shard_format="binary").migrate()
        assert stats["failed"] == 0
        assert stats["entries"] == len(keys) == 5

        migrated = SolutionStore(store.root)
        shard_files = os.listdir(os.path.join(store.root, "shards"))
        assert all(name.endswith(".rps") for name in shard_files)
        assert _snapshot(migrated) == before  # payloads byte-for-byte equal
        # reports still decode into full SolveReports
        report_keys = [k for k in keys
                       if migrated.get(k) and "solution" in migrated.get(k)]
        assert report_keys and all(migrated.get_report(k) is not None
                                   for k in report_keys)
        assert migrated.info()["migrated_shards"] == 0  # counted on the mover
        meta = json.load(open(os.path.join(store.root, "meta.json")))
        assert meta["shard_format"] == "binary"

    def test_v2_to_v1_escape_hatch(self, tmp_path):
        store = SolutionStore(str(tmp_path / "s"))  # binary default
        store.put(_key("aa", 1), {"v": 1})
        before = _snapshot(store)
        handle = SolutionStore(store.root, shard_format="json")
        assert handle.migrate()["shards"] == 1
        shard_files = os.listdir(os.path.join(store.root, "shards"))
        assert shard_files == ["aa.json"]
        assert _snapshot(SolutionStore(store.root)) == before

    def test_migration_preserves_insertion_order(self, tmp_path):
        store = SolutionStore(str(tmp_path / "s"), shard_format="json")
        for index, prefix in enumerate(["dd", "cc", "bb", "aa"]):
            store.put(_key(prefix, index), {"v": index})
        mover = SolutionStore(store.root, shard_format="binary")
        mover.migrate()
        fresh = SolutionStore(store.root)
        assert fresh.compact(2) == 2  # oldest (dd, cc) evicted, not aa/bb
        kept = sorted(key for key, _payload in fresh.payloads())
        assert kept == [_key("aa", 3), _key("bb", 2)]


# ---------------------------------------------------------------------------
# mixed-format stores (per-shard negotiation)
# ---------------------------------------------------------------------------

class TestMixedFormat:
    def test_shards_in_both_formats_coexist(self, tmp_path):
        json_handle = SolutionStore(str(tmp_path / "s"), shard_format="json")
        json_handle.put(_key("aa", 1), {"v": 1})
        binary_handle = SolutionStore(json_handle.root)  # binary default
        binary_handle.put(_key("bb", 2), {"v": 2})

        fresh = SolutionStore(json_handle.root)
        assert fresh.get(_key("aa", 1)) == {"v": 1}
        assert fresh.get(_key("bb", 2)) == {"v": 2}
        assert fresh.entry_count() == 2
        names = sorted(os.listdir(os.path.join(fresh.root, "shards")))
        assert names == ["aa.json", "bb.rps"]

    def test_write_converts_the_touched_shard(self, tmp_path):
        json_handle = SolutionStore(str(tmp_path / "s"), shard_format="json")
        json_handle.put(_key("aa", 1), {"v": 1})
        binary_handle = SolutionStore(json_handle.root)
        binary_handle.put(_key("aa", 2), {"v": 2})  # same shard, new format
        names = os.listdir(os.path.join(json_handle.root, "shards"))
        assert names == ["aa.rps"]  # rewritten + old blob unlinked
        fresh = SolutionStore(json_handle.root)
        assert fresh.get(_key("aa", 1)) == {"v": 1}  # shard-mate carried over
        assert fresh.get(_key("aa", 2)) == {"v": 2}

    def test_both_files_present_merges_by_seq(self, tmp_path):
        # Simulates a crash between a format-converting rewrite and the old
        # file's unlink: both blobs remain; the higher sequence must win.
        store = SolutionStore(str(tmp_path / "s"), shard_format="json")
        store.put(_key("aa", 1), {"v": "old"})
        json_blob = open(_shard_path(store, "aa", "json"), "rb").read()
        binary_handle = SolutionStore(store.root)
        binary_handle.put(_key("aa", 1), {"v": "new"})
        with open(_shard_path(store, "aa", "json"), "wb") as handle:
            handle.write(json_blob)  # resurrect the stale v1 blob

        fresh = SolutionStore(store.root)
        assert fresh.get(_key("aa", 1)) == {"v": "new"}
        assert fresh.entry_count() == 1


# ---------------------------------------------------------------------------
# binary corruption: recompute, never crash
# ---------------------------------------------------------------------------

class TestBinaryCorruption:
    def test_truncated_binary_shard_is_a_miss(self, tmp_path):
        store = SolutionStore(str(tmp_path / "s"))
        key = _key("aa", 1)
        store.put(key, {"v": 1})
        path = _shard_path(store, "aa", "rps")
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        fresh = SolutionStore(store.root)
        assert fresh.get(key) is None
        assert fresh.info()["corrupt_shards"] >= 1
        # the next write repairs the shard
        assert fresh.put(key, {"v": 2})
        assert SolutionStore(store.root).get(key) == {"v": 2}

    def test_mangled_payload_bytes_skip_one_entry(self, tmp_path):
        store = SolutionStore(str(tmp_path / "s"))
        good, bad = _key("aa", 1), _key("aa", 2)
        store.put(good, {"kind": "good"})
        store.put(bad, {"kind": "badx"})
        path = _shard_path(store, "aa", "rps")
        blob = open(path, "rb").read()
        # Corrupt exactly the bad entry's payload blob (same length, so the
        # record table stays valid -- this is per-entry payload damage).
        target = json.dumps({"kind": "badx"}, sort_keys=True,
                            separators=(",", ":")).encode()
        assert blob.count(target) == 1
        with open(path, "wb") as handle:
            handle.write(blob.replace(target, b"}" * len(target)))
        fresh = SolutionStore(store.root)
        assert fresh.get(bad) is None            # corrupted entry: miss
        assert fresh.get(good) == {"kind": "good"}  # shard-mates survive
        assert fresh.info()["corrupt_shards"] == 1

    def test_bad_magic_is_corruption(self, tmp_path):
        store = SolutionStore(str(tmp_path / "s"))
        key = _key("aa", 1)
        store.put(key, {"v": 1})
        path = _shard_path(store, "aa", "rps")
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(b"XXXXXXXX" + blob[8:])
        fresh = SolutionStore(store.root)
        assert fresh.get(key) is None
        assert fresh.info()["corrupt_shards"] == 1

    def test_unknown_binary_version_is_schema_mismatch(self, tmp_path):
        store = SolutionStore(str(tmp_path / "s"))
        key = _key("aa", 1)
        store.put(key, {"v": 1})
        path = _shard_path(store, "aa", "rps")
        blob = bytearray(open(path, "rb").read())
        blob[8] = 99  # the little-endian version field follows the magic
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        fresh = SolutionStore(store.root)
        assert fresh.get(key) is None
        assert fresh.info()["schema_mismatches"] == 1
        assert fresh.info()["corrupt_shards"] == 0


# ---------------------------------------------------------------------------
# lazy get() / alias fast path / scan() -- the decode-counter gates
# ---------------------------------------------------------------------------

class TestLazyDecode:
    def _seed(self, tmp_path) -> SolutionStore:
        store = SolutionStore(str(tmp_path / "s"))
        for index in range(3):
            store.put(_key("aa", index), {"v": index})
        store.put(_key("aa", 90), {"alias_of": _key("aa", 0)})
        store.put(_key("ab", 91), {"alias_of": _key("aa", 1)})
        return store

    def test_get_decodes_exactly_one_payload(self, tmp_path):
        store = self._seed(tmp_path)
        fresh = SolutionStore(store.root)
        assert fresh.get(_key("aa", 1)) == {"v": 1}
        info = fresh.info()
        assert info["payload_decodes"] == 1     # not the whole shard
        assert info["full_shard_parses"] == 0   # no JSON shard touched
        fresh.get(_key("aa", 1))                # repeat: served from memo
        assert fresh.info()["payload_decodes"] == 1

    def test_alias_resolves_without_any_decode(self, tmp_path):
        store = self._seed(tmp_path)
        fresh = SolutionStore(store.root)
        assert fresh.get(_key("aa", 90)) == {"alias_of": _key("aa", 0)}
        info = fresh.info()
        assert info["alias_fast_hits"] == 1
        assert info["payload_decodes"] == 0
        assert info["full_shard_parses"] == 0

    def test_scan_skips_aliases_without_decoding(self, tmp_path):
        store = self._seed(tmp_path)
        fresh = SolutionStore(store.root)
        entries = dict(fresh.scan())
        assert len(entries) == 3
        assert all("alias_of" not in payload for payload in entries.values())
        info = fresh.info()
        assert info["scans"] == 1
        assert info["scan_entries"] == 3
        assert info["scan_alias_skips"] == 2
        assert info["payload_decodes"] == 3     # one per non-alias entry
        assert info["full_shard_parses"] == 0

    def test_scan_can_include_aliases_decode_free(self, tmp_path):
        store = self._seed(tmp_path)
        fresh = SolutionStore(store.root)
        entries = dict(fresh.scan(include_aliases=True))
        assert len(entries) == 5
        assert entries[_key("aa", 90)] == {"alias_of": _key("aa", 0)}
        assert fresh.info()["payload_decodes"] == 3  # aliases still free

    def test_sweep_records_decode_budget(self, tmp_path):
        # The analysis/sweep.py satellite gate: regenerating sweep records
        # from a warm store must decode at most one payload per non-alias
        # entry and never parse a whole shard as JSON.
        store = SolutionStore(str(tmp_path / "s"))
        non_alias = 0
        for budget in (1.0, 2.0, 3.0):
            problem = _problem(budget)
            key = request_key(problem)
            store.put_report(key, solve(problem, use_cache=False))
            store.put(_key("ee", int(budget)), {"alias_of": key})
            non_alias += 1
        fresh = SolutionStore(store.root)
        records = sweep_records(fresh)
        assert len(records) == non_alias
        info = fresh.info()
        assert info["payload_decodes"] <= non_alias
        assert info["full_shard_parses"] == 0
        assert info["scan_alias_skips"] == non_alias


# ---------------------------------------------------------------------------
# the raw report read (get_raw_many): bytes that need no re-encode
# ---------------------------------------------------------------------------

def _seed_reports(store: SolutionStore):
    """Two reports (one LP-solved, whose solution drops metadata) plus an
    alias; returns ``(report keys, alias key)``."""
    keys = []
    for budget, method in ((2.0, "auto"), (3.0, "bicriteria-lp")):
        problem = _problem(budget)
        key = request_key(problem, method)
        assert store.put_report(key, solve(problem, method, use_cache=False))
        keys.append(key)
    alias = _key("ff", 1)
    store.put(alias, {"alias_of": keys[1]})
    return keys, alias


def _layout(tmp_path, layout: str):
    """A store whose report shards are packed, JSON or mixed."""
    root = str(tmp_path / "s")
    keys, alias = _seed_reports(SolutionStore(
        root, shard_format="binary" if layout == "packed" else "json"))
    if layout == "mixed":
        # Both formats on disk for every report shard (a crash between a
        # format-converting rewrite and the old file's unlink).
        for key in keys:
            blob = open(_shard_path(SolutionStore(root), key[:2], "json"), "rb").read()
            SolutionStore(root).put(key[:2] + "0" * 62, {"v": 0})
            with open(_shard_path(SolutionStore(root), key[:2], "json"), "wb") as handle:
                handle.write(blob)
    return SolutionStore(root), keys, alias


class TestRawRead:
    @pytest.mark.parametrize("layout", ["packed", "json", "mixed"])
    def test_raw_bytes_equal_the_decode_encode_round_trip(self, tmp_path, layout):
        from repro.engine.store import report_from_payload, report_to_payload

        store, keys, alias = _layout(tmp_path, layout)
        raw = store.get_raw_many(keys + [alias, _key("ee", 1)])
        assert raw[_key("ee", 1)] == (None, None)
        assert raw[alias] == raw[keys[1]]
        for key in keys:
            true_key, blob = raw[key]
            assert true_key == key and b"\n" not in blob
            stored = json.loads(blob)
            recoded = report_to_payload(report_from_payload(stored), key)
            # The round trip recomputes what the solution dropped; the
            # stored bytes keep it -- exactly what the cold answer said.
            recoded["solution"]["dropped_metadata"] = \
                stored["solution"]["dropped_metadata"]
            assert stored == recoded
            assert store.get_report(key).makespan == \
                store.get_reports_many([key])[key][1].makespan
        assert json.loads(raw[keys[1]][1])["solution"]["dropped_metadata"] == ["report"]
        assert store.info()["corrupt_shards"] == 0

    def test_hits_on_an_open_reader_make_no_stat_calls(self, tmp_path, monkeypatch):
        store, keys, alias = _layout(tmp_path, "packed")
        store.get_raw_many(keys + [alias])          # opens the readers
        stats = []
        real_stat = os.stat

        def counting_stat(path, *args, **kwargs):
            stats.append(path)
            return real_stat(path, *args, **kwargs)

        monkeypatch.setattr(os, "stat", counting_stat)
        for _ in range(5):
            assert all(blob for _key_, blob in
                       store.get_raw_many(keys + [alias]).values())
            assert store.get(keys[0]) is not None
            assert store.get_report(keys[1]) is not None
        assert stats == []
        # A miss still checks its shard's on-disk signature, once.
        assert store.get_raw_many([keys[0][:2] + "f" * 62])
        assert len(stats) == 2                      # .json + .rps stat

    def test_packed_payloads_validated_once_per_open_reader(self, tmp_path):
        store, keys, alias = _layout(tmp_path, "packed")
        for _ in range(3):
            store.get_raw_many(keys + [alias])
            store.get(keys[0])
        info = store.info()
        assert info["payload_decodes"] == len(keys)
        assert info["alias_fast_hits"] == 1
        for reader in store._readers.values():
            assert all(found.entry is None for found in reader.found.values())

    def test_invalid_report_is_a_raw_miss_but_still_a_payload(self, tmp_path):
        store, keys, _alias = _layout(tmp_path, "packed")
        payload = store.get(keys[0])
        payload["key"] = _key("aa", 3)              # not its storage key
        store.put(keys[0], payload)
        fresh = SolutionStore(store.root)
        assert fresh.get_raw_many([keys[0]])[keys[0]] == (keys[0], None)
        assert fresh.get_report(keys[0]) is None
        assert fresh.info()["corrupt_shards"] == 2
        assert fresh.get(keys[0]) == payload        # the generic read is unaffected


# ---------------------------------------------------------------------------
# durability knob
# ---------------------------------------------------------------------------

class TestDurability:
    def test_durable_store_round_trips(self, tmp_path):
        store = SolutionStore(str(tmp_path / "s"), durable=True)
        key = _key("aa", 1)
        assert store.put(key, {"v": 1})
        assert SolutionStore(store.root).get(key) == {"v": 1}
        assert store.info()["durable"] is True

    def test_durable_json_store_round_trips(self, tmp_path):
        store = SolutionStore(str(tmp_path / "s"), shard_format="json",
                              durable=True)
        key = _key("aa", 1)
        assert store.put(key, {"v": 1})
        assert SolutionStore(store.root).get(key) == {"v": 1}

    def test_atomic_write_json_fsync(self, tmp_path):
        path = str(tmp_path / "out.json")
        atomic_write_json(path, {"a": 1}, fsync=True)
        assert json.load(open(path)) == {"a": 1}
        assert not [name for name in os.listdir(tmp_path)
                    if name.startswith(".tmp-")]

    def test_two_tier_solve_on_binary_store(self, tmp_path):
        # End-to-end: the engine's tier-2 path runs unchanged on v2 shards.
        store = set_solution_store(
            SolutionStore(str(tmp_path / "tier2"), durable=True))
        problem = _problem()
        fresh = solve(problem)
        clear_caches()
        from_store = solve(problem)
        assert from_store.from_cache and from_store.cache_tier == "store"
        assert from_store.makespan == pytest.approx(fresh.makespan)
        assert store.info()["shard_format"] == "binary"
