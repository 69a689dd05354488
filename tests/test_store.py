"""Tests for the persistent solution store (tier 2 of the engine cache).

Covers the happy path (round trips, two-tier solve integration), the
stability of the solution serialization, and — most importantly — the
degradation paths: truncated blobs, schema mismatches and hand-mangled
payloads must all decay to *recompute*, never to a crash.
"""

from __future__ import annotations

import json
import math
import os

import pytest

from repro.core.dag import TradeoffDAG
from repro.core.duration import GeneralStepDuration
from repro.core.problem import MinMakespanProblem, TradeoffSolution
from repro.engine import (
    STORE_SCHEMA_VERSION,
    SolutionStore,
    UnserializableSolutionError,
    clear_caches,
    get_solution_store,
    request_key,
    set_solution_store,
    solution_cache_info,
    solution_from_payload,
    solution_to_payload,
    solve,
)
from repro.engine.store import report_from_payload, report_to_payload
from v1_shards import write_v1_store


@pytest.fixture(autouse=True)
def _fresh_engine():
    clear_caches()
    set_solution_store(None)
    yield
    clear_caches()
    set_solution_store(None)


@pytest.fixture()
def store(tmp_path):
    return SolutionStore(str(tmp_path / "store"))


def _chain_dag() -> TradeoffDAG:
    dag = TradeoffDAG()
    for name in ("s", "x", "t"):
        dag.add_job(name, GeneralStepDuration([(0, 4), (2, 1)]))
    dag.add_edge("s", "x")
    dag.add_edge("x", "t")
    return dag


def _problem(budget: float = 2.0) -> MinMakespanProblem:
    return MinMakespanProblem(_chain_dag(), budget)


# ---------------------------------------------------------------------------
# solution serialization (fingerprint module)
# ---------------------------------------------------------------------------

class TestSolutionSerialization:
    def test_round_trip_plain_solution(self):
        solution = TradeoffSolution(
            makespan=12.5, budget_used=3.0,
            allocation={"a": 1.0, "b": 2.0, ("tuple", 3): 0.5},
            algorithm="test", lower_bound=10.0,
            metadata={"alpha": 0.5, "nested": {"xs": [1, 2.5]}})
        restored = solution_from_payload(solution_to_payload(solution))
        assert restored.makespan == solution.makespan
        assert restored.budget_used == solution.budget_used
        assert restored.allocation == solution.allocation
        assert restored.lower_bound == solution.lower_bound
        assert restored.metadata["alpha"] == 0.5
        assert restored.metadata["nested"]["xs"] == [1, 2.5]

    def test_payload_is_json_and_deterministic(self):
        solution = TradeoffSolution(makespan=1.0, budget_used=0.0,
                                    allocation={"b": 1.0, "a": 2.0})
        a = json.dumps(solution_to_payload(solution), sort_keys=True)
        b = json.dumps(solution_to_payload(solution), sort_keys=True)
        assert a == b

    def test_non_finite_floats_round_trip(self):
        solution = TradeoffSolution(makespan=math.inf, budget_used=0.0)
        restored = solution_from_payload(solution_to_payload(solution))
        assert math.isinf(restored.makespan)

    def test_unserializable_allocation_key_raises(self):
        solution = TradeoffSolution(makespan=1.0, budget_used=1.0,
                                    allocation={object(): 1.0})
        with pytest.raises(UnserializableSolutionError):
            solution_to_payload(solution)

    def test_exotic_metadata_is_dropped_not_fatal(self):
        solution = TradeoffSolution(makespan=1.0, budget_used=1.0,
                                    metadata={"ok": 1, "bad": object()})
        payload = solution_to_payload(solution)
        assert payload["metadata"] == {"ok": 1}
        assert payload["dropped_metadata"] == ["bad"]

    def test_sentinel_shaped_metadata_round_trips(self):
        # user dicts that look like the encoder's inf/nan sentinel must
        # survive unchanged, not be decoded as floats (or crash the load)
        solution = TradeoffSolution(
            makespan=1.0, budget_used=1.0,
            metadata={"a": {"__float__": "1.5"}, "b": {"__float__": "abc"},
                      "c": {"__escaped__": {"x": 1}}})
        restored = solution_from_payload(solution_to_payload(solution))
        assert restored.metadata == solution.metadata

    def test_sentinel_shaped_top_level_metadata_round_trips(self):
        # ... including when the *whole* metadata dict has the sentinel shape
        for metadata in ({"__float__": "inf"}, {"__float__": "x"},
                         {"__escaped__": {"y": 2}}):
            solution = TradeoffSolution(makespan=1.0, budget_used=1.0,
                                        metadata=dict(metadata))
            restored = solution_from_payload(solution_to_payload(solution))
            assert restored.metadata == metadata


# ---------------------------------------------------------------------------
# store basics
# ---------------------------------------------------------------------------

class TestStoreBasics:
    def test_put_get_and_stats(self, store):
        key = "ab" + "0" * 62
        assert store.get(key) is None
        assert store.put(key, {"value": 7})
        assert store.get(key) == {"value": 7}
        info = store.info()
        assert (info["hits"], info["misses"], info["writes"]) == (1, 1, 1)
        assert info["entries"] == 1

    def test_persists_across_handles(self, store):
        key = "cd" + "1" * 62
        store.put(key, {"value": 1})
        reopened = SolutionStore(store.root)
        assert reopened.get(key) == {"value": 1}
        assert key in reopened

    def test_sharding_by_prefix(self, store):
        store.put("aa" + "0" * 62, {"v": 1})
        store.put("ab" + "0" * 62, {"v": 2})
        shard_files = os.listdir(os.path.join(store.root, "shards"))
        assert sorted(shard_files) == ["aa.rps", "ab.rps"]

    def test_eviction_keeps_newest(self, tmp_path):
        store = SolutionStore(str(tmp_path / "s"), max_entries_per_shard=3)
        keys = ["aa" + format(i, "062d") for i in range(5)]
        for i, key in enumerate(keys):
            store.put(key, {"i": i})
        assert store.entry_count() == 3
        assert store.info()["evictions"] == 2
        assert store.get(keys[0]) is None  # oldest evicted
        assert store.get(keys[4]) == {"i": 4}  # newest kept

    def test_clear_removes_blobs(self, store):
        store.put("aa" + "0" * 62, {"v": 1})
        store.clear()
        assert store.entry_count() == 0
        assert store.get("aa" + "0" * 62) is None

    def test_payload_iteration(self, store):
        store.put("aa" + "0" * 62, {"v": 1})
        store.put("bb" + "0" * 62, {"v": 2})
        entries = dict(store.payloads())
        assert len(entries) == 2
        assert all("__seq__" not in payload for payload in entries.values())

    def test_unserializable_payload_skipped(self, store):
        assert not store.put("aa" + "0" * 62, {"bad": object()})
        assert store.info()["skipped_writes"] == 1
        assert store.get("aa" + "0" * 62) is None

    def test_put_many_groups_by_shard(self, store):
        items = [("aa" + format(i, "062d"), {"i": i}) for i in range(3)]
        items += [("bb" + "0" * 62, {"i": 99})]
        assert store.put_many(items) == 4
        assert store.entry_count() == 4
        assert store.get("bb" + "0" * 62) == {"i": 99}
        # all three aa-entries landed with distinct, increasing sequences
        reopened = SolutionStore(store.root)
        assert reopened.get(items[2][0]) == {"i": 2}


# ---------------------------------------------------------------------------
# corruption + versioning: recompute, never crash
# ---------------------------------------------------------------------------

class TestStoreCorruption:
    # The hand-editing tests below target legacy v1 JSON shards, written
    # by ``v1_shards.write_v1_store``; the packed v2 equivalents live in
    # test_store_format.py.
    @pytest.fixture()
    def root(self, tmp_path):
        return str(tmp_path / "store")

    def test_truncated_shard_blob_is_a_miss(self, root):
        key = "aa" + "0" * 62
        write_v1_store(root, [(key, {"v": 1})])
        path = os.path.join(root, "shards", "aa.json")
        blob = open(path, encoding="utf-8").read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(blob[: len(blob) // 2])  # truncate mid-JSON
        fresh = SolutionStore(root)
        assert fresh.get(key) is None
        assert fresh.info()["corrupt_shards"] == 1
        # the next write repairs the shard
        assert fresh.put(key, {"v": 2})
        assert SolutionStore(root).get(key) == {"v": 2}

    def test_schema_mismatch_is_a_miss(self, root):
        key = "aa" + "0" * 62
        write_v1_store(root, [(key, {"v": 1})])
        path = os.path.join(root, "shards", "aa.json")
        blob = json.load(open(path, encoding="utf-8"))
        blob["schema"] = STORE_SCHEMA_VERSION + 1
        json.dump(blob, open(path, "w", encoding="utf-8"))
        fresh = SolutionStore(root)
        assert fresh.get(key) is None
        assert fresh.info()["schema_mismatches"] == 1

    def test_malformed_blob_shape_is_a_miss(self, root):
        store = SolutionStore(root)
        path = os.path.join(root, "shards", "aa.json")
        json.dump(["not", "a", "shard"], open(path, "w", encoding="utf-8"))
        assert store.get("aa" + "0" * 62) is None
        assert store.info()["corrupt_shards"] >= 1

    def test_non_dict_entry_values_skipped_not_crash(self, root):
        good = "aa" + "0" * 62
        bad = "aa" + "1" * 62
        write_v1_store(root, [(good, {"v": 1})])
        path = os.path.join(root, "shards", "aa.json")
        blob = json.load(open(path, encoding="utf-8"))
        blob["entries"][bad] = "junk-string-entry"
        json.dump(blob, open(path, "w", encoding="utf-8"))
        fresh = SolutionStore(root)
        assert fresh.get(bad) is None          # corrupted entry: miss
        assert fresh.get(good) == {"v": 1}      # shard-mates survive
        assert fresh.info()["corrupt_shards"] == 1
        assert fresh.put(bad, {"v": 2})         # next write repairs
        assert fresh.get(bad) == {"v": 2}

    def test_mangled_report_payload_recomputes_not_crashes(self, root):
        problem = _problem()
        key = request_key(problem)
        # sabotage the stored solution payload
        payload = report_to_payload(solve(problem, use_cache=False), key)
        payload["solution"] = {"allocation": "nonsense"}
        write_v1_store(root, [(key, payload)])
        assert SolutionStore(root).get_report(key) is None  # decode failure -> miss

    def test_meta_schema_mismatch_counted(self, tmp_path):
        root = tmp_path / "s"
        SolutionStore(str(root))
        meta_path = root / "meta.json"
        meta = json.load(open(meta_path, encoding="utf-8"))
        meta["schema"] = STORE_SCHEMA_VERSION + 7
        json.dump(meta, open(meta_path, "w", encoding="utf-8"))
        reopened = SolutionStore(str(root))
        assert reopened.info()["schema_mismatches"] == 1


# ---------------------------------------------------------------------------
# two-tier integration with solve()
# ---------------------------------------------------------------------------

class TestTwoTierSolve:
    def test_store_hit_after_lru_cleared(self, tmp_path):
        set_solution_store(str(tmp_path / "tier2"))
        problem = _problem()
        fresh = solve(problem)
        assert not fresh.from_cache and fresh.cache_tier == ""
        clear_caches()  # new-process simulation: LRU gone, store not
        from_store = solve(problem)
        assert from_store.from_cache and from_store.cache_tier == "store"
        assert from_store.makespan == pytest.approx(fresh.makespan)
        assert from_store.solver_id == fresh.solver_id
        assert from_store.certificate is not None
        assert from_store.certificate.passed == fresh.certificate.passed
        # promoted into the LRU: third call is a memory hit
        from_memory = solve(problem)
        assert from_memory.cache_tier == "memory"

    def test_report_round_trip_preserves_fields(self):
        problem = _problem()
        report = solve(problem, use_cache=False)
        restored = report_from_payload(report_to_payload(report, "k" * 64))
        assert restored.makespan == pytest.approx(report.makespan)
        assert restored.budget_used == pytest.approx(report.budget_used)
        assert restored.allocation == report.allocation
        assert restored.objective == report.objective
        assert restored.parameter == report.parameter
        assert restored.structure == report.structure
        assert restored.feasible == report.feasible

    def test_clear_caches_store_flag(self, tmp_path):
        store = set_solution_store(str(tmp_path / "tier2"))
        solve(_problem())
        assert store.entry_count() == 1
        clear_caches()  # default: store survives
        assert store.entry_count() == 1
        clear_caches(store=True)
        assert store.entry_count() == 0

    def test_cache_info_reports_store(self, tmp_path):
        assert solution_cache_info()["store"] is None
        set_solution_store(str(tmp_path / "tier2"))
        info = solution_cache_info()
        assert info["store"]["entries"] == 0
        assert get_solution_store() is not None
        # the raw-speed counters a metrics endpoint would scrape
        for counter in ("payload_decodes", "alias_fast_hits", "scans",
                        "full_shard_parses"):
            assert info["store"][counter] == 0
        assert info["lp"]["warm_start_hits"] == 0
        assert "simplex_iterations" in info["lp"]

    def test_distinct_requests_get_distinct_keys(self):
        problem = _problem()
        base = request_key(problem)
        assert request_key(problem) == base  # stable
        assert request_key(_problem(budget=3.0)) != base
        assert request_key(problem, method="bicriteria-lp") != base
        assert request_key(problem, validate=False) != base
        assert request_key(problem, method="bicriteria-lp", alpha=0.75) != \
            request_key(problem, method="bicriteria-lp", alpha=0.5)

    def test_request_key_rejects_non_literal_options(self):
        # solve() refuses to cache such requests, so there is no valid key;
        # colliding digests would let the sweep service serve wrong reports
        from repro.utils.validation import ValidationError

        with pytest.raises(ValidationError, match="content-keyable"):
            request_key(_problem(), method="bicriteria-lp", alpha={"a": 1})

    def test_request_key_matches_solve_auto_hint_filtering(self, tmp_path):
        # auto-dispatch drops option hints the chosen solver does not
        # declare *before* keying; request_key must mirror that, or the
        # service and solve() would read/write the store under different keys
        store = set_solution_store(str(tmp_path / "tier2"))
        problem = _problem()
        solve(problem, alpha=0.75)  # auto picks the DP; alpha is dropped
        clear_caches()
        hit = solve(problem)  # same logical request, no hint
        assert hit.cache_tier == "store"
        assert request_key(problem, alpha=0.75) == request_key(problem)
        assert store.entry_count() == 1  # one key, no duplicate entries

    def test_use_cache_false_skips_both_tiers(self, tmp_path):
        store = set_solution_store(str(tmp_path / "tier2"))
        solve(_problem(), use_cache=False)
        assert store.entry_count() == 0

    def test_object_valued_options_disable_caching(self, tmp_path):
        # objects have reprs that may alias distinct values (or reuse a
        # freed address); such requests must bypass both cache tiers
        from repro.core.problem import TradeoffSolution
        from repro.engine import MIN_MAKESPAN, register_solver, unregister_solver
        from repro.engine.core import _options_key

        assert _options_key({"config": object()}) == ("__uncacheable__",)
        assert _options_key({"alpha": 0.5, "names": ["a", "b"]})[0] != "__uncacheable__"

        calls = []

        @register_solver("test-opt", summary="-", objectives=(MIN_MAKESPAN,),
                         kind="baseline", theorem="-", guarantee="none",
                         priority=996, can_solve=lambda p, s, lim: True,
                         option_names=("config",))
        def _run(problem, structure, limits, **options):
            calls.append(options.get("config"))
            return TradeoffSolution(makespan=0.0, budget_used=0.0, algorithm="test-opt")

        try:
            store = set_solution_store(str(tmp_path / "tier2"))
            problem = _problem()
            solve(problem, method="test-opt", config=object())
            solve(problem, method="test-opt", config=object())
            assert len(calls) == 2  # no false cache hit between the two
            assert store.entry_count() == 0  # never persisted
        finally:
            unregister_solver("test-opt")

    def test_reopen_with_other_shard_width_keeps_entries(self, tmp_path):
        store = SolutionStore(str(tmp_path / "s"), shard_width=2)
        key = "abc" + "0" * 61
        store.put(key, {"v": 1})
        reopened = SolutionStore(store.root, shard_width=3)
        assert reopened.shard_width == 2  # disk layout wins
        assert reopened.get(key) == {"v": 1}


# ---------------------------------------------------------------------------
# compaction / max-entries GC (long-lived deployments)
# ---------------------------------------------------------------------------
class TestStoreCompaction:
    @staticmethod
    def _key(prefix: str, index: int) -> str:
        return prefix + f"{index:0{64 - len(prefix)}d}"

    def test_auto_gc_keeps_newest_entries(self, tmp_path):
        store = SolutionStore(str(tmp_path / "s"), max_total_entries=3)
        for index in range(6):
            store.put(self._key("aa", index), {"v": index})
        assert store.entry_count() == 3
        kept = sorted(key for key, _payload in store.payloads())
        # oldest first: entries 0..2 evicted, 3..5 kept
        assert kept == [self._key("aa", index) for index in (3, 4, 5)]
        info = store.info()
        assert info["evictions"] == 3
        assert info["compactions"] >= 1
        assert info["max_total_entries"] == 3

    def test_eviction_order_is_insertion_order(self, tmp_path):
        store = SolutionStore(str(tmp_path / "s"))
        for index in range(5):
            store.put(self._key("ab", index), {"v": index})
        evicted = store.compact(2)
        assert evicted == 3
        kept = sorted(key for key, _payload in store.payloads())
        assert kept == [self._key("ab", 3), self._key("ab", 4)]
        # repeated compaction below the cap is a no-op (but still counted)
        assert store.compact(2) == 0
        assert store.info()["compactions"] == 2

    def test_compact_spans_shards(self, tmp_path):
        store = SolutionStore(str(tmp_path / "s"))
        for index, prefix in enumerate(["aa", "bb", "cc", "dd"]):
            store.put(self._key(prefix, index), {"v": index})
        assert store.compact(2) == 2
        assert store.entry_count() == 2

    def test_eviction_order_is_global_across_shards(self, tmp_path):
        # Insertion order must win even when it runs *against* shard-id
        # order: writing dd, cc, bb, aa must evict dd and cc first.
        store = SolutionStore(str(tmp_path / "s"))
        for index, prefix in enumerate(["dd", "cc", "bb", "aa"]):
            store.put(self._key(prefix, index), {"v": index})
        assert store.compact(2) == 2
        kept = sorted(key for key, _payload in store.payloads())
        assert kept == [self._key("aa", 3), self._key("bb", 2)]

    def test_insertion_order_survives_reopen(self, tmp_path):
        # The sequence floor is re-established above every persisted entry,
        # so entries written after a reopen are newer than all old ones.
        store = SolutionStore(str(tmp_path / "s"))
        store.put(self._key("zz", 0), {"v": 0})
        reopened = SolutionStore(store.root)
        reopened.put(self._key("aa", 1), {"v": 1})
        assert reopened.compact(1) == 1
        kept = [key for key, _payload in reopened.payloads()]
        assert kept == [self._key("aa", 1)]  # the post-reopen write survives

    def test_compact_requires_a_cap(self, tmp_path):
        store = SolutionStore(str(tmp_path / "s"))
        with pytest.raises(Exception):
            store.compact()

    def test_gc_survives_reopen(self, tmp_path):
        store = SolutionStore(str(tmp_path / "s"), max_total_entries=2)
        for index in range(4):
            store.put(self._key("aa", index), {"v": index})
        reopened = SolutionStore(store.root)
        assert reopened.entry_count() == 2
        assert reopened.get(self._key("aa", 3)) == {"v": 3}

    def test_gc_preserves_reports_end_to_end(self, tmp_path):
        store = set_solution_store(
            SolutionStore(str(tmp_path / "tier2"), max_total_entries=2))
        for budget in (1.0, 2.0, 3.0, 4.0):
            solve(_problem(budget))
        assert store.entry_count() == 2
        # the surviving (newest) entries still decode into full reports
        payload_keys = [key for key, _payload in store.payloads()]
        assert all(store.get_report(key) is not None for key in payload_keys)
