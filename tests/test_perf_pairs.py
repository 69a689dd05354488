"""The verdict rule of ``tools/perf_pairs.py``, on synthetic runs.

No benchmark is started: the pairs below are made up to sit on each side
of every rule (claimed gain met or not, within bound, worse, unresolved).
"""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "perf_pairs", os.path.join(ROOT, "tools", "perf_pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


perf_pairs = _load_tool()

THROUGHPUT = {"name": "throughput_per_s", "better": "higher", "bound": 0.25}
SETUP = {"name": "setup_s", "better": "lower", "bound": 0.25}


def pairs_of(metric, parent, change):
    return [({metric: p}, {metric: c}) for p, c in zip(parent, change)]


class TestClaim:
    PARENT = [100, 102, 98, 101, 99, 103, 97, 100, 101, 99]

    def test_met_with_every_pair_won_and_a_gap_over_the_iqr(self):
        change = [150, 148, 152, 149, 151, 150, 147, 153, 150, 149]
        [summary] = perf_pairs.verdicts(
            pairs_of("throughput_per_s", self.PARENT, change), [THROUGHPUT],
            claim="throughput_per_s")
        assert summary["wins"] == 10 and summary["verdict"] == "met"
        assert summary["median_gap"] == pytest.approx(50.0)

    def test_nine_wins_of_ten_still_meet_it(self):
        change = [150, 148, 152, 149, 151, 150, 147, 153, 150, 95]
        [summary] = perf_pairs.verdicts(
            pairs_of("throughput_per_s", self.PARENT, change), [THROUGHPUT],
            claim="throughput_per_s")
        assert summary["wins"] == 9 and summary["verdict"] == "met"

    def test_eight_wins_of_ten_do_not(self):
        change = [150, 148, 152, 149, 151, 150, 147, 153, 95, 95]
        [summary] = perf_pairs.verdicts(
            pairs_of("throughput_per_s", self.PARENT, change), [THROUGHPUT],
            claim="throughput_per_s")
        assert summary["wins"] == 8 and summary["verdict"] == "not met"

    def test_a_gap_inside_the_parents_iqr_does_not(self):
        # Every pair won, but by less than the parent's own spread.
        change = [p + 1 for p in self.PARENT]
        [summary] = perf_pairs.verdicts(
            pairs_of("throughput_per_s", self.PARENT, change), [THROUGHPUT],
            claim="throughput_per_s")
        assert summary["wins"] == 10
        assert summary["median_gap"] < summary["parent_iqr"]
        assert summary["verdict"] == "not met"


class TestBound:
    def test_a_small_rise_of_a_lower_is_better_metric_is_within_bound(self):
        [summary] = perf_pairs.verdicts(
            pairs_of("setup_s", [10.0, 10.2, 9.9, 10.1, 10.0],
                     [11.0, 11.1, 10.9, 11.2, 11.0]), [SETUP])
        assert summary["relative_change"] == pytest.approx(0.1)
        assert summary["verdict"] == "within bound"

    def test_a_rise_past_the_bound_is_worse(self):
        [summary] = perf_pairs.verdicts(
            pairs_of("setup_s", [10.0, 10.2, 9.9, 10.1, 10.0],
                     [13.0, 13.1, 12.9, 13.2, 13.0]), [SETUP])
        assert summary["verdict"] == "worse" and summary["wins"] == 0

    def test_a_wide_parent_spread_is_unresolved(self):
        # Parent IQR/median 0.5 > bound 0.25: a 30% drop cannot be told
        # from noise, whichever way the median moved.
        parent = [60, 100, 140, 80, 120]
        [summary] = perf_pairs.verdicts(
            pairs_of("throughput_per_s", parent, [70, 70, 100, 50, 90]),
            [THROUGHPUT])
        assert summary["parent_spread"] > THROUGHPUT["bound"]
        assert summary["verdict"] == "unresolved"

    def test_a_wide_parent_spread_dominated_by_the_change_is_resolved(self):
        parent = [60, 100, 140, 80, 120]
        [summary] = perf_pairs.verdicts(
            pairs_of("throughput_per_s", parent, [150, 160, 155, 170, 165]),
            [THROUGHPUT])
        assert summary["verdict"] == "within bound"

    def test_passed_needs_every_metric_settled(self):
        good = {"verdict": "within bound"}
        assert perf_pairs.passed([good, {"verdict": "met"}])
        for bad in ("worse", "unresolved", "not met"):
            assert not perf_pairs.passed([good, {"verdict": bad}])


def test_every_benchmark_metric_gets_a_verdict():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    values = {metric["name"]: 1.0 for metric in metrics}
    summaries = perf_pairs.verdicts([(values, dict(values))] * 3, metrics)
    assert [s["name"] for s in summaries] == [m["name"] for m in metrics]
    assert all(s["verdict"] == "within bound" for s in summaries)
    assert perf_pairs.render(summaries).count("\n") == len(metrics)


class TestWriteTrajectory:
    MACHINE = {"platform": "test-host", "cpu_count": 2, "python": "3.x",
               "numpy": "n", "scipy": "s"}

    def summaries(self, parent, change):
        return perf_pairs.verdicts(pairs_of("throughput_per_s", parent, change),
                                   [THROUGHPUT], claim="throughput_per_s")

    def test_merges_each_workload_and_seed_and_keeps_the_rest(self, tmp_path):
        path = str(tmp_path / "BENCH_n.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"label": "BENCH_n", "gate": "pass"}, handle)
        cold = self.summaries([30, 31, 30, 29], [35, 34, 36, 35])
        perf_pairs.write_trajectory(path, "cold-compute", 1, "HEAD", cold, self.MACHINE)
        perf_pairs.write_trajectory(path, "cold-compute", 7, "HEAD", cold, self.MACHINE)
        warm = self.summaries([100, 101, 99], [100, 102, 98])
        perf_pairs.write_trajectory(path, "warm-wire", 1, "HEAD", warm, self.MACHINE)
        with open(path, encoding="utf-8") as handle:
            entry = json.load(handle)
        assert entry["label"] == "BENCH_n" and entry["gate"] == "pass"
        assert sorted(entry["perf_pairs"]) == ["cold-compute", "warm-wire"]
        assert sorted(entry["perf_pairs"]["cold-compute"]) == ["1", "7"]
        seed1 = entry["perf_pairs"]["cold-compute"]["1"]
        assert seed1["machine"] == self.MACHINE and seed1["pairs"] == 4
        metric = seed1["metrics"]["throughput_per_s"]
        assert metric["verdict"] == "met" and metric["wins"] == 4
        assert metric["parent"]["median"] == 30 and metric["change"]["median"] == 35

    def test_a_new_file_is_created_and_a_rerun_replaces_its_table(self, tmp_path):
        path = str(tmp_path / "fresh.json")
        perf_pairs.write_trajectory(path, "warm-wire", 1, "HEAD~1",
                                    self.summaries([1, 2], [3, 4]), self.MACHINE)
        perf_pairs.write_trajectory(path, "warm-wire", 1, "HEAD",
                                    self.summaries([1, 2, 3], [3, 4, 5]), self.MACHINE)
        with open(path, encoding="utf-8") as handle:
            table = json.load(handle)["perf_pairs"]["warm-wire"]["1"]
        assert table["parent"] == "HEAD" and table["pairs"] == 3

    def test_the_machine_label_names_the_toolchain(self):
        label = perf_pairs.machine_label()
        assert set(label) == {"platform", "cpu_count", "python", "numpy", "scipy"}
        assert label["scipy"] != "absent" and label["cpu_count"] >= 1
