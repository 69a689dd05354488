"""Tests of the benchmark itself (not of the program it measures).

Run with ``python -m pytest perfbench``.  The runs here use ``--tiny``
inputs and one-second phases, so they check shape and checking logic,
never speed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("cold-compute", "warm-wire")


def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(completed):
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    result = _result(_run("--workload", workload, "--seed", "5", "--seconds", "1",
                          "--trace", "0", "--tiny"))
    expected = {m["name"]: m["unit"] for m in _benchmark_spec()["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert result["metrics"]["success_rate"]["value"] == 1.0
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_prints_every_per_layer_metric(workload):
    result = _result(_run("--workload", workload, "--seed", "5", "--seconds", "1",
                          "--trace", "1", "--tiny"))
    expected = {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert result["metrics"]["trace.coverage"]["value"] > 0
    assert result["metrics"]["trace.overhead"]["value"] > 0


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    completed = _run("--workload", "cold-compute", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout


def test_tampered_cold_sweep_cell_fails_its_check(tmp_path):
    specs = workloads.cold_sweep_specs(5, tiny=True)
    _seconds, report, _counters = workloads.cold_pass(specs, str(tmp_path), "t")
    expected = workloads.cold_expected(report, specs, seed=5)
    clean = workloads.Outcome()
    workloads.check_cold_report(report, specs, expected, clean)
    assert clean.failed == 0 and clean.attempted == len(specs)

    report.results[0].report.solution.makespan += 1.0
    flipped = report.results[1].report.certificate
    flipped.passed = not flipped.passed
    tampered = workloads.Outcome()
    workloads.check_cold_report(report, specs, expected, tampered)
    assert tampered.failed == 2


def test_tampered_wire_reply_fails_its_check():
    report = {"key": "k1", "solver_id": "series-parallel-dp"}
    expected = {"cell-a": report}
    good = [{"id": "t0", "index": 0, "cell": "cell-a", "key": "k1",
             "source": "store", "error": None, "report": dict(report)}]
    done = {"id": "t0", "done": True, "count": 1}
    outcome = workloads.Outcome()
    workloads.check_wire_reply(good, done, 1, expected, outcome)
    assert outcome.failed == 0

    for tamper in ({"source": "computed"}, {"report": {**report, "key": "k2"}},
                   {"error": "boom"}):
        outcome = workloads.Outcome()
        workloads.check_wire_reply([{**good[0], **tamper}], done, 1, expected, outcome)
        assert outcome.failed == 1, tamper
    outcome = workloads.Outcome()
    workloads.check_wire_reply(good, {"id": "t0", "error": "late"}, 1, expected, outcome)
    assert outcome.failed == 1


def test_tampered_oracle_answers_fail_their_check():
    instances = workloads.oracle_instances(5, 0, tiny=True)
    optima = workloads.direct_optima(instances)
    for instance in instances:
        if instance.kind == "exact":
            instance.problem = instance.payload.materialize()
        answer = workloads.solve_instance(instance)
        assert workloads.check_oracle_answer(instance, answer, optima) is None
        if instance.kind == "exact":
            answer.solution.makespan += 1.0
        else:
            answer.agrees = not answer.agrees
        assert workloads.check_oracle_answer(instance, answer, optima) is not None


def test_timings_are_given_at_the_reference_speed():
    import run
    import speed

    outcome = workloads.Outcome(setups=[2.0, 3.0, 4.0], units=[(1.0, 10), (1.0, 30)],
                                attempted=40)
    # A host running the speed step twice as fast as the reference one.
    outcome.speed.steps, outcome.speed.seconds = 2 * speed.REFERENCE_RATE, 1.0
    metrics = run.end_to_end(outcome)
    assert metrics["setup_s"] == pytest.approx(6.0)
    assert metrics["throughput_per_s"] == pytest.approx(10.0)

    meter = speed.SpeedMeter()
    meter.sample(seconds=0.01)
    assert meter.rate > 0 and meter.factor > 0


#: Patch points installed beside ``LAYER_TARGETS``.
SPECIAL_TARGETS = (
    ("repro.engine.service", "build_sweep_plan"),
    ("repro.engine.async_service", "build_sweep_plan"),
    ("repro.engine.store", "SolutionStore.get_reports_many"),
    ("repro.engine.store", "SolutionStore.put_many"),
    ("repro.engine.portfolio", "Portfolio.spec_shard_task"),
    ("repro.serve", "SweepServer._serve_request"),
)


def _patched_originals():
    from repro.engine import registry

    originals = {}
    targets = [(module, path) for module, path, _ in tracing.LAYER_TARGETS]
    for module_name, path in targets + list(SPECIAL_TARGETS):
        owner, attr = tracing._resolve(module_name, path)
        originals[(module_name, path)] = owner.__dict__[attr]
    return originals, dict(registry._REGISTRY)


def test_wrappers_return_unchanged_results_and_are_removed():
    from repro.engine import registry
    from repro.engine.core import clear_caches, solve

    specs = workloads.cold_sweep_specs(5, tiny=True)
    clear_caches()
    plain = [solve(spec.materialize()) for spec in specs]
    originals, solvers = _patched_originals()
    callbacks = list(tracing.gc.callbacks)

    tracer = tracing.Tracer().install()
    try:
        patched = _patched_originals()[0]
        assert all(patched[point] is not originals[point] for point in originals)
        clear_caches()
        traced = [solve(spec.materialize()) for spec in specs]
    finally:
        tracer.remove()

    for before, after in zip(plain, traced):
        assert (after.makespan, after.budget_used, after.solver_id,
                after.certificate.passed) == (before.makespan, before.budget_used,
                                              before.solver_id,
                                              before.certificate.passed)
    names = {span["name"] for span in tracer.records()}
    assert {"scenarios.materialize", "structure.analyze", "certify"} <= names
    assert any(name.startswith("core.solve.") for name in names)
    assert _patched_originals() == (originals, solvers)
    assert registry._REGISTRY == solvers
    assert tracing.gc.callbacks == callbacks
