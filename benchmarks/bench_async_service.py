"""E18 -- the async serving front: concurrent clients vs serialized sweeps.

The sweep service (E17) serves one batch at a time: a burst of N client
requests is N blocking ``SweepService.run`` calls, one after another, and
scenarios shared between concurrently-arriving clients are recomputed (or
at best re-fetched) once per client.  The asyncio front
(:class:`repro.AsyncSweepService`) overlaps the burst on one warm pool and
deduplicates *in flight*: a hot scenario requested by every client in the
burst is solved exactly once, while it is still being solved.

The workload models that burst: each client submits one private scenario
plus the shared hot set (mixed duration families and shapes).  Both
strategies get the *same* configuration -- one warm process pool, no
persistent store (the serving layer itself is what is measured) -- and the
benchmark asserts

* **wall-clock** -- N concurrent clients through the async front finish
  faster than the same N batches through serialized ``SweepService.run``;
* **work elimination** -- the async front computes each unique scenario
  exactly once (the serialized front computes every slot of every batch);
* **dedup accounting** -- every hot repeat is answered by tier-0 in-flight
  dedup.

Each front is timed ``ROUNDS`` times, the two alternating, and the
wall-clock gate compares the medians: one run of either front takes only
a few hundred milliseconds, so a single pair is at the mercy of whatever
else the host does meanwhile.

Run standalone:  python benchmarks/bench_async_service.py [--quick] [--json PATH]
"""

from __future__ import annotations

import asyncio
import statistics
import sys
import time

from repro import (
    AsyncSweepService,
    MinMakespanProblem,
    Portfolio,
    SweepService,
    clear_caches,
)
from repro.analysis import format_table
from repro.generators import get_workload

from bench_common import emit, parse_json_flag, write_json_artifact

HOT_NAMES = ["medium-layered-general", "medium-layered-binary",
             "medium-layered-kway", "pipeline", "small-layered-general",
             "small-layered-binary"]
CLIENTS = 10
QUICK_HOT = HOT_NAMES[:4]
QUICK_CLIENTS = 6

METHOD = "bicriteria-lp"
OPTIONS = {"alpha": 0.5}
WORKERS = 2
#: Timed runs of each front (odd, so that the median is one of them).
ROUNDS = 3


def build_client_batches(hot_names, clients):
    """One batch per client: a private budget variant + the shared hot set."""
    hot = [MinMakespanProblem(get_workload(name).build(), get_workload(name).budget)
           for name in hot_names]
    batches = []
    for index in range(clients):
        workload = get_workload(hot_names[index % len(hot_names)])
        private = MinMakespanProblem(workload.build(),
                                     workload.budget * (1.11 + 0.07 * index))
        batches.append([private] + hot)
    return batches


def _warmup_problem():
    workload = get_workload("small-layered-kway")
    return MinMakespanProblem(workload.build(), workload.budget * 0.77)


def run_serialized(batches):
    """N blocking ``SweepService.run`` calls on one warm pool (the baseline)."""
    with Portfolio(executor="process", max_workers=WORKERS) as portfolio:
        portfolio.map([_warmup_problem()], method=METHOD, **OPTIONS)
        clear_caches()
        with SweepService(portfolio=portfolio) as service:
            start = time.perf_counter()
            computed = 0
            for batch in batches:
                report = service.run(batch, METHOD, **OPTIONS)
                computed += report.stats.computed
            wall = time.perf_counter() - start
    return wall, computed


async def _run_concurrent(batches):
    service = AsyncSweepService(
        portfolio=Portfolio(executor="process", max_workers=WORKERS))
    async with service:
        await service.solve(_warmup_problem(), METHOD, **OPTIONS)
        clear_caches()
        computed_before = service.stats.computed
        start = time.perf_counter()

        async def client(batch):
            ticket = await service.submit(batch, METHOD, **OPTIONS)
            return await ticket.results()

        results = await asyncio.gather(*[client(batch) for batch in batches])
        wall = time.perf_counter() - start
    stats = service.stats
    return wall, stats.computed - computed_before, stats, results


def run_async_front(batches):
    """The same burst through one :class:`AsyncSweepService` (concurrently)."""
    return asyncio.run(_run_concurrent(batches))


def run_comparison(hot_names, clients):
    """Time both fronts ``ROUNDS`` times each, alternately; report the medians.

    The counters are exact by construction, so every run must report the
    same ones.
    """
    batches = build_client_batches(hot_names, clients)
    unique = len(hot_names) + clients
    serialized_times, async_times, counters = [], [], set()
    reference = {}
    for _ in range(ROUNDS):
        t_serialized, serialized_computed = run_serialized(batches)
        t_async, async_computed, async_stats, results = run_async_front(batches)
        serialized_times.append(t_serialized)
        async_times.append(t_async)
        counters.add((serialized_computed, async_computed, async_stats.deduped,
                      async_stats.store_hits))
        # every run must agree on every scenario's answer
        for client_results in results:
            for result in client_results:
                assert result.report is not None, result.error
                previous = reference.setdefault(result.key, result.report.makespan)
                assert abs(previous - result.report.makespan) < 1e-9

    assert len(counters) == 1, f"counters differ between runs: {sorted(counters)}"
    [(serialized_computed, async_computed, async_deduped, async_store_hits)] = counters
    t_serialized = statistics.median(serialized_times)
    t_async = statistics.median(async_times)
    return {
        "clients": clients,
        "batch_size": 1 + len(hot_names),
        "requests": clients * (1 + len(hot_names)),
        "unique": unique,
        "t_serialized": t_serialized,
        "t_async": t_async,
        "speedup": t_serialized / t_async,
        "serialized_computed": serialized_computed,
        "async_computed": async_computed,
        "async_deduped": async_deduped,
        "async_store_hits": async_store_hits,
    }


def render_comparison(stats) -> str:
    rows = [
        ["serialized SweepService.run x N",
         f"{stats['t_serialized'] * 1000:.0f}", "1.00",
         str(stats["serialized_computed"])],
        ["AsyncSweepService (concurrent clients)",
         f"{stats['t_async'] * 1000:.0f}", f"{stats['speedup']:.2f}",
         str(stats["async_computed"])],
    ]
    header = (f"{stats['clients']} concurrent clients x "
              f"{stats['batch_size']} scenarios "
              f"({stats['unique']} unique of {stats['requests']} requests; "
              f"tier-0 dedup answered {stats['async_deduped']}); wall times are "
              f"medians of {ROUNDS} alternating runs per front")
    return header + "\n\n" + format_table(
        ["strategy", "wall time (ms)", "speedup", "scenarios computed"], rows)


def check(stats) -> bool:
    hot = stats["batch_size"] - 1
    return (stats["t_async"] < stats["t_serialized"]
            and stats["async_computed"] == stats["unique"]
            and stats["serialized_computed"] == stats["requests"]
            and stats["async_deduped"] == (stats["clients"] - 1) * hot)


# ---------------------------------------------------------------------------
# pytest entry points (run in CI with --benchmark-disable)
# ---------------------------------------------------------------------------

def test_async_front_beats_serialized_sweeps(benchmark):
    stats = run_comparison(QUICK_HOT, QUICK_CLIENTS)
    emit("E18 / async serving front -- concurrent clients vs serialized sweeps",
         render_comparison(stats))
    assert stats["t_async"] < stats["t_serialized"], (
        f"async front (median {stats['t_async'] * 1000:.0f}ms) must beat "
        f"{stats['clients']} serialized SweepService.run calls "
        f"(median {stats['t_serialized'] * 1000:.0f}ms)")
    assert stats["async_computed"] == stats["unique"], \
        "the async front must compute each unique scenario exactly once"
    assert stats["serialized_computed"] == stats["requests"]
    benchmark(lambda: stats["speedup"])


def test_inflight_dedup_computes_each_unique_once():
    batches = build_client_batches(QUICK_HOT[:2], 3)
    _, computed, stats, _results = run_async_front(batches)
    assert computed == len(QUICK_HOT[:2]) + 3
    # every hot repeat was answered while its solve was still in flight
    assert stats.deduped == (3 - 1) * len(QUICK_HOT[:2])
    assert stats.failed == 0


# ---------------------------------------------------------------------------
# standalone mode
# ---------------------------------------------------------------------------

def main(argv) -> int:
    quick = "--quick" in argv
    json_path = parse_json_flag(
        argv, "bench_async_service.py [--quick] [--json PATH]")

    hot_names = QUICK_HOT if quick else HOT_NAMES
    clients = QUICK_CLIENTS if quick else CLIENTS

    stats = run_comparison(hot_names, clients)
    print(render_comparison(stats))

    ok = check(stats)
    print(f"\nasync front beats serialized sweeps with exact in-flight "
          f"dedup: {ok}")

    if json_path:
        write_json_artifact(json_path, {
            "benchmark": "bench_async_service",
            "quick": quick,
            "clients": stats["clients"],
            "requests": stats["requests"],
            "unique": stats["unique"],
            "t_serialized_s": stats["t_serialized"],
            "t_async_s": stats["t_async"],
            "speedup": stats["speedup"],
            "serialized_computed": stats["serialized_computed"],
            "async_computed": stats["async_computed"],
            "async_deduped": stats["async_deduped"],
            "ok": ok,
        })
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
