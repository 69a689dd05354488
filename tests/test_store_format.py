"""Tests for the packed binary (v2) SolutionStore shard format.

Covers what ``test_store.py`` cannot from the legacy JSON angle: the
one-way v1 -> v2 migration (bit-identical round trips), mixed-format
stores (v1 fixtures come from ``v1_shards.write_v1_store``),
binary corruption decay (truncate / mangle / version-bump -> recompute,
never crash), the lazy ``get()`` / alias fast path and the ``scan()``
bulk iterator, all gated on the store's decode counters.
"""

from __future__ import annotations

import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

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
from repro.engine.store import atomic_write_json, report_to_payload
from v1_shards import write_v1_store


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


def _shard_path(root: str, shard_id: str, ext: str) -> str:
    return os.path.join(root, "shards", f"{shard_id}.{ext}")


def _snapshot(store: SolutionStore) -> str:
    """Canonical JSON of every payload -- the bit-identity yardstick."""
    return json.dumps(dict(store.payloads()), sort_keys=True)


# ---------------------------------------------------------------------------
# v1 -> v2 migration
# ---------------------------------------------------------------------------

class TestMigration:
    def _seed_v1(self, tmp_path) -> str:
        root = str(tmp_path / "s")
        entries = []
        for budget in (1.0, 2.0, 3.0):
            problem = _problem(budget)
            key = request_key(problem)
            entries.append((key, report_to_payload(solve(problem, use_cache=False), key)))
        entries.append((_key("aa", 7), {"v": 7, "nested": {"xs": [1, 2.5]}}))
        entries.append((_key("ab", 8), {"alias_of": _key("aa", 7)}))
        write_v1_store(root, entries)
        return root

    def test_v1_to_v2_round_trips_bit_identically(self, tmp_path):
        root = self._seed_v1(tmp_path)
        before = _snapshot(SolutionStore(root))
        keys = [key for key, _ in SolutionStore(root).payloads()]

        stats = SolutionStore(root).migrate()
        assert stats["failed"] == 0
        assert stats["entries"] == len(keys) == 5

        migrated = SolutionStore(root)
        shard_files = os.listdir(os.path.join(root, "shards"))
        assert all(name.endswith(".rps") for name in shard_files)
        assert _snapshot(migrated) == before  # payloads byte-for-byte equal
        # reports still decode into full SolveReports
        report_keys = [k for k in keys
                       if migrated.get(k) and "solution" in migrated.get(k)]
        assert report_keys and all(migrated.get_report(k) is not None
                                   for k in report_keys)
        assert migrated.info()["migrated_shards"] == 0  # counted on the mover
        meta = json.load(open(os.path.join(root, "meta.json")))
        assert meta["schema"] == 2 and "shard_format" not in meta

    def test_migration_preserves_insertion_order(self, tmp_path):
        root = str(tmp_path / "s")
        write_v1_store(root, [(_key(prefix, index), {"v": index}) for index, prefix
                              in enumerate(["dd", "cc", "bb", "aa"])])
        SolutionStore(root).migrate()
        fresh = SolutionStore(root)
        assert fresh.compact(2) == 2  # oldest (dd, cc) evicted, not aa/bb
        kept = sorted(key for key, _payload in fresh.payloads())
        assert kept == [_key("aa", 3), _key("bb", 2)]


# ---------------------------------------------------------------------------
# mixed-format stores (per-shard negotiation)
# ---------------------------------------------------------------------------

class TestMixedFormat:
    def test_shards_in_both_formats_coexist(self, tmp_path):
        root = str(tmp_path / "s")
        write_v1_store(root, [(_key("aa", 1), {"v": 1})])
        SolutionStore(root).put(_key("bb", 2), {"v": 2})

        fresh = SolutionStore(root)
        assert fresh.get(_key("aa", 1)) == {"v": 1}
        assert fresh.get(_key("bb", 2)) == {"v": 2}
        assert fresh.entry_count() == 2
        names = sorted(os.listdir(os.path.join(fresh.root, "shards")))
        assert names == ["aa.json", "bb.rps"]

    def test_write_converts_the_touched_shard(self, tmp_path):
        root = str(tmp_path / "s")
        write_v1_store(root, [(_key("aa", 1), {"v": 1})])
        SolutionStore(root).put(_key("aa", 2), {"v": 2})  # same shard
        names = os.listdir(os.path.join(root, "shards"))
        assert names == ["aa.rps"]  # rewritten + old blob unlinked
        fresh = SolutionStore(root)
        assert fresh.get(_key("aa", 1)) == {"v": 1}  # shard-mate carried over
        assert fresh.get(_key("aa", 2)) == {"v": 2}

    def test_both_files_present_merges_by_seq(self, tmp_path):
        # Simulates a crash between a converting rewrite and the old
        # file's unlink: both blobs remain; the higher sequence must win.
        root = str(tmp_path / "s")
        write_v1_store(root, [(_key("aa", 1), {"v": "old"})])
        json_blob = open(_shard_path(root, "aa", "json"), "rb").read()
        SolutionStore(root).put(_key("aa", 1), {"v": "new"})
        with open(_shard_path(root, "aa", "json"), "wb") as handle:
            handle.write(json_blob)  # resurrect the stale v1 blob

        fresh = SolutionStore(root)
        assert fresh.get(_key("aa", 1)) == {"v": "new"}
        assert fresh.entry_count() == 1


# ---------------------------------------------------------------------------
# one representation: writes carry records, never decode them
# ---------------------------------------------------------------------------

#: Keys of three one-character shards (the model's store uses shard_width=1).
MODEL_KEYS = [shard + str(index) for shard in "abc" for index in range(5)]

_model_ops = st.lists(st.one_of(
    st.tuples(st.just("put"), st.sampled_from(MODEL_KEYS), st.integers(0, 99)),
    st.tuples(st.just("alias"), st.sampled_from(MODEL_KEYS),
              st.sampled_from(MODEL_KEYS)),
    st.tuples(st.just("put_many"), st.lists(st.tuples(
        st.sampled_from(MODEL_KEYS), st.integers(0, 99)), max_size=6)),
    st.tuples(st.just("compact"), st.integers(0, 8)),
), max_size=25)


class TestWritesCarryRecords:
    @settings(max_examples=60, deadline=None)
    @given(_model_ops)
    def test_writes_decode_nothing_and_match_a_model(self, operations):
        model = {}              # key -> (insertion seq, payload)
        next_seq = [1]

        def insert(key, payload):
            model[key] = (next_seq[0], payload)
            next_seq[0] += 1

        def evict_oldest(keys, cap):
            while len(keys) > cap:
                oldest = min(keys, key=lambda k: model[k][0])
                keys.remove(oldest)
                del model[oldest]

        def evict_shard(shard):
            evict_oldest([k for k in model if k[0] == shard], 3)

        with tempfile.TemporaryDirectory() as root:
            store = SolutionStore(root, shard_width=1, max_entries_per_shard=3)
            for op, *args in operations:
                if op == "put":
                    key, value = args
                    assert store.put(key, {"v": value})
                    insert(key, {"v": value})
                    evict_shard(key[0])
                elif op == "alias":
                    key, target = args
                    assert store.put(key, {"alias_of": target})
                    insert(key, {"alias_of": target})
                    evict_shard(key[0])
                elif op == "put_many":
                    pairs = [(key, {"v": value}) for key, value in args[0]]
                    assert store.put_many(pairs) == len(pairs)
                    by_shard = {}           # sequences go shard group by group
                    for key, payload in pairs:
                        by_shard.setdefault(key[0], []).append((key, payload))
                    for shard, group in by_shard.items():
                        for key, payload in group:
                            insert(key, payload)
                        evict_shard(shard)
                else:
                    store.compact(args[0])
                    evict_oldest(list(model), args[0])
                assert store.payload_decodes == 0
            expected = {key: payload for key, (_seq, payload) in model.items()}
            assert dict(store.payloads()) == expected
            assert dict(SolutionStore(root).payloads()) == expected


# ---------------------------------------------------------------------------
# binary corruption: recompute, never crash
# ---------------------------------------------------------------------------

class TestBinaryCorruption:
    def test_truncated_binary_shard_is_a_miss(self, tmp_path):
        store = SolutionStore(str(tmp_path / "s"))
        key = _key("aa", 1)
        store.put(key, {"v": 1})
        path = _shard_path(store.root, "aa", "rps")
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
        path = _shard_path(store.root, "aa", "rps")
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
        path = _shard_path(store.root, "aa", "rps")
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
        path = _shard_path(store.root, "aa", "rps")
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

def _report_entries():
    """Two reports (one LP-solved, whose solution drops metadata) plus an
    alias: ``(entries, report keys, alias key)``."""
    entries, keys = [], []
    for budget, method in ((2.0, "auto"), (3.0, "bicriteria-lp")):
        problem = _problem(budget)
        key = request_key(problem, method)
        entries.append((key, report_to_payload(
            solve(problem, method, use_cache=False), key)))
        keys.append(key)
    alias = _key("ff", 1)
    entries.append((alias, {"alias_of": keys[1]}))
    return entries, keys, alias


def _layout(tmp_path, layout: str):
    """A store whose report shards are packed, JSON or mixed."""
    root = str(tmp_path / "s")
    entries, keys, alias = _report_entries()
    if layout == "packed":
        assert SolutionStore(root).put_many(entries) == len(entries)
    else:
        write_v1_store(root, entries)
    if layout == "mixed":
        # Both formats on disk for every report shard (a crash between a
        # converting rewrite and the old file's unlink).
        for key in keys:
            blob = open(_shard_path(root, key[:2], "json"), "rb").read()
            SolutionStore(root).put(key[:2] + "0" * 62, {"v": 0})
            with open(_shard_path(root, key[:2], "json"), "wb") as handle:
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
        assert len(stats) == 1                      # the .rps stat

    def test_packed_payloads_validated_once_per_open_reader(self, tmp_path):
        store, keys, alias = _layout(tmp_path, "packed")
        for _ in range(3):
            store.get_raw_many(keys + [alias])
            store.get(keys[0])
        info = store.info()
        assert info["payload_decodes"] == len(keys)
        assert info["alias_fast_hits"] == 1
        for reader in store._readers.values():     # checked bytes or a target
            assert all((found.blob is None) != (found.alias_of is None)
                       for found in reader.found.values())

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
        assert all(name.endswith(".rps")
                   for name in os.listdir(os.path.join(store.root, "shards")))
