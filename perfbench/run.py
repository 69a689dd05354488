"""Benchmark of the resource-time tradeoff engine, end to end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold-compute --seed 1 --seconds 36 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` is the traced
run, printing every per-layer metric (see ``README.md`` for both lists).
The two timings among the end-to-end metrics, ``setup_s`` and
``throughput_per_s``, are given at a reference speed of the host, measured
beside the program (``speed.py``); the wall-clock figures are printed as
``diagnostic`` lines.

The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The exit code is 0 only when every output checked was right.  The program
under test is the checkout's own ``src/``; without it the benchmark exits
with code 2 and prints no result.
"""

from __future__ import annotations

import time

RUN_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from typing import Dict, Sequence, Tuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Where runs keep their scratch stores and sockets, and traced runs
#: their span files (inside the checkout; ignored by git).
RUN_DIR = os.path.join(ROOT, ".perfbench")

E2E_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "success_rate": "fraction",
    "peak_rss_mb": "MiB",
}

SOLVERS = ("bicriteria-lp", "kway-5approx", "binary-4approx",
           "series-parallel-dp", "exact-enumeration")

#: Per-layer metrics and units.  Times and counts are per operation (a
#: cell swept or an oracle instance solved on cold-compute, a cell answered
#: on warm-wire); the ``setup.`` ones are per base-store cell of the
#: warm-wire set-up.
PER_LAYER_UNITS: Dict[str, str] = {
    "scenarios.materialize.calls": "calls/op",
    "scenarios.materialize.self_ms": "ms/op",
    "scenarios.spec_decode.self_ms": "ms/op",
    "fingerprint.spec_alias.calls": "calls/op",
    "fingerprint.spec_alias.self_ms": "ms/op",
    "fingerprint.payload_decode.calls": "calls/op",
    "fingerprint.payload_decode.self_ms": "ms/op",
    "fingerprint.payload_encode.calls": "calls/op",
    "fingerprint.payload_encode.self_ms": "ms/op",
    "plan.build.self_ms": "ms/op",
    "plan.store_hit_ratio": "ratio",
    "store.get_reports_many.calls": "calls/op",
    "store.get_reports_many.self_ms": "ms/op",
    "store.decodes_per_hit": "ratio",
    "store.put_many.calls": "calls/op",
    "store.put_many.self_ms": "ms/op",
    "store.write_decodes": "count/op",
    "store.full_shard_parses": "count/op",
    **{f"core.solve.{solver}.{field}": unit
       for solver in SOLVERS
       for field, unit in (("calls", "calls/op"), ("self_ms", "ms/op"))},
    "structure.analyze.self_ms": "ms/op",
    "structure.probe_runs": "count/op",
    "lp.solve.calls": "calls/op",
    "lp.solve.self_ms": "ms/op",
    "lp.skeleton_builds": "count/op",
    "lp.simplex_iterations": "count/op",
    "rounding.self_ms": "ms/op",
    "certify.self_ms": "ms/op",
    "sp_dp.self_ms": "ms/op",
    "minflow.calls": "calls/op",
    "minflow.self_ms": "ms/op",
    "exact.branch_bound.self_ms": "ms/op",
    "exact.enumeration.self_ms": "ms/op",
    "arcdag.topological_vertices.calls": "calls/op",
    "hardness.build.self_ms": "ms/op",
    "hardness.brute_force.self_ms": "ms/op",
    "portfolio.shard.self_ms": "ms/op",
    "portfolio.shard.wait_ms": "ms/op",
    "service.manifest.calls": "calls/op",
    "service.manifest.self_ms": "ms/op",
    "async.submit_specs.self_ms": "ms/op",
    "async.store_hits": "count/op",
    "async.computed": "count/op",
    "serve.request.self_ms": "ms/op",
    "serve.residual_ms": "ms/op",
    "python.gc.pause_ms": "ms/op",
    "setup.store.put_many.calls": "calls/op",
    "setup.store.put_many.self_ms": "ms/op",
    "setup.store.write_decodes": "count/op",
    "setup.store.full_shard_parses": "count/op",
    "setup.fingerprint.payload_encode.self_ms": "ms/op",
    "setup.sp_dp.self_ms": "ms/op",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold-compute", "warm-wire"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input and do one set-up; for the "
                             "benchmark's own tests, never for measurements")
    return parser.parse_args(argv)


def _quantile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles`` exclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def throughput(units: Sequence[Tuple[float, int]]) -> float:
    """Operations answered per second of the timed phase."""
    return sum(ops for _, ops in units) / sum(seconds for seconds, _ in units)


def end_to_end(outcome) -> Dict[str, float]:
    """The end-to-end metrics; timings at the reference speed, i.e. wall
    seconds times the run's speed factor (see ``speed.py``)."""
    factor = outcome.speed.factor
    return {
        "setup_s": statistics.median(outcome.setups) * factor,
        "throughput_per_s": throughput(outcome.units) / factor,
        "success_rate": ((outcome.attempted - outcome.failed) / outcome.attempted
                         if outcome.attempted else 0.0),
        "peak_rss_mb": outcome.peak_rss_mb,
    }


def per_layer(outcome, table: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Every per-layer metric from the traced run's ``table`` (see
    :func:`tracing.layer_table`) and its counters."""
    from tracing import BENCH_PREFIX, layer_table

    ops = max(outcome.traced_ops, 1)
    metrics: Dict[str, float] = {name: 0.0 for name in PER_LAYER_UNITS}

    def row(name: str) -> Dict[str, float]:
        return table.get(name, {})

    for name in PER_LAYER_UNITS:
        layer, _, field = name.rpartition(".")
        if field in ("calls", "self_ms") and layer in table and not name.startswith("setup."):
            metrics[name] = table[layer][field] / ops
    plan = row("plan.build")
    metrics["plan.store_hit_ratio"] = (plan["hits"] / plan["planned"]
                                       if plan.get("planned") else 0.0)
    reads, writes = row("store.get_reports_many"), row("store.put_many")
    metrics["store.decodes_per_hit"] = (reads["decodes"] / reads["hits"]
                                        if reads.get("hits") else 0.0)
    metrics["store.write_decodes"] = writes.get("decodes", 0) / ops
    metrics["store.full_shard_parses"] = (reads.get("parses", 0)
                                          + writes.get("parses", 0)) / ops
    metrics["portfolio.shard.wait_ms"] = row("portfolio.shard").get("wait_ms", 0) / ops
    metrics["python.gc.pause_ms"] = row("python.gc").get("self_ms", 0) / ops
    for name, value in outcome.extra.items():
        metrics[name] = value / ops

    if outcome.setup_spans:
        setup = layer_table(outcome.setup_spans)
        base = max(outcome.setup_ops, 1)
        puts = setup.get("store.put_many", {})
        metrics["setup.store.put_many.calls"] = puts.get("calls", 0) / base
        metrics["setup.store.put_many.self_ms"] = puts.get("self_ms", 0) / base
        metrics["setup.store.write_decodes"] = puts.get("decodes", 0) / base
        metrics["setup.store.full_shard_parses"] = (
            puts.get("parses", 0)
            + setup.get("store.get_reports_many", {}).get("parses", 0)) / base
        metrics["setup.fingerprint.payload_encode.self_ms"] = setup.get(
            "fingerprint.payload_encode", {}).get("self_ms", 0) / base
        metrics["setup.sp_dp.self_ms"] = setup.get("sp_dp", {}).get("self_ms", 0) / base

    traced_ms = sum(seconds for seconds, _ in outcome.units) * 1000
    layer_ms = sum(values["self_ms"] for name, values in table.items()
                   if not name.startswith(BENCH_PREFIX))
    metrics["trace.coverage"] = layer_ms / traced_ms if traced_ms else 0.0
    baseline_ops = sum(count for _, count in outcome.baseline_units)
    if baseline_ops and outcome.traced_ops:
        traced_per_op = traced_ms / 1000 / outcome.traced_ops
        baseline_per_op = sum(s for s, _ in outcome.baseline_units) / baseline_ops
        metrics["trace.overhead"] = traced_per_op / baseline_per_op
    return metrics


def _print_layer_table(outcome, table: Dict[str, Dict[str, float]]) -> None:
    traced_ms = sum(seconds for seconds, _ in outcome.units) * 1000 or 1.0
    print(f"per-layer self time over {outcome.traced_ops} ops, "
          f"{traced_ms:.0f} ms traced:")
    for name, values in sorted(table.items(), key=lambda kv: -kv[1]["self_ms"]):
        print(f"  {name:<34} calls {values['calls']:>9}  self "
              f"{values['self_ms']:>10.1f} ms  {values['self_ms'] / traced_ms:6.1%}")


def main(argv: Sequence[str] = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # The whole run stays on one CPU, where the speed samples run too:
    # unpinned, the program could run on another CPU while a slow spell
    # held the sampled one.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    from wire import SINGLE_THREAD_ENV

    os.environ.update(SINGLE_THREAD_ENV)
    import workloads

    import_s = time.perf_counter() - RUN_START
    workdir = os.path.join(RUN_DIR, f"run-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    ctx = workloads.Context(seed=args.seed, seconds=args.seconds,
                            trace=bool(args.trace), tiny=args.tiny, root=ROOT,
                            workdir=workdir, cpu=cpu)
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for error in outcome.errors:
        print(f"WRONG OUTPUT: {error}")
    for name, value in outcome.diagnostics.items():
        print(f"diagnostic {name} {value}")
    if args.trace:
        from tracing import layer_table

        table = layer_table(outcome.spans)
        metrics = per_layer(outcome, table)
        _print_layer_table(outcome, table)
        print(f"trace coverage {metrics['trace.coverage']:.3f}, "
              f"overhead {metrics.get('trace.overhead', 0.0):.3f}")
        traces = os.path.join(RUN_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        path = os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            for span in outcome.setup_spans + outcome.spans:
                handle.write(json.dumps(span) + "\n")
        print(f"spans written to {os.path.relpath(path, ROOT)}")
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(outcome)
        latencies = outcome.latencies
        print(f"{len(outcome.units)} timed units, {len(latencies)} latency "
              f"samples, set-ups {[round(x, 3) for x in outcome.setups]} s "
              f"(this process imported in {import_s:.3f} s)")
        print(f"diagnostic speed_factor {outcome.speed.factor:.4f} "
              f"({outcome.speed.rate:.0f} steps per second)")
        print(f"diagnostic wall_setup_s {statistics.median(outcome.setups):.4f}")
        print(f"diagnostic wall_throughput_per_s {throughput(outcome.units):.4f}")
        # Printed, not held to a bound: on a host whose speed switches
        # between two levels for tens of seconds at a time, a quantile
        # jumps between the levels from run to run (see README.md).
        print(f"diagnostic latency_p50_ms "
              f"{statistics.median(latencies) * 1000:.3f}")
        print(f"diagnostic latency_p90_ms "
              f"{_quantile(latencies, 90) * 1000:.3f}")
        if len(latencies) >= 100:
            print(f"diagnostic latency_p99_ms "
                  f"{_quantile(latencies, 99) * 1000:.3f}")
        units = E2E_UNITS
    correct = outcome.failed == 0 and outcome.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
