"""E21 -- the exact oracle's search work, counted.

Every hardness check of Section 4 and every approximation ratio rests on
the branch and bound of :mod:`repro.core.exact`.  This benchmark runs it on
the reductions the hardness checks build and reports, per instance, the
optimum and the search's machine-independent counters
(:class:`~repro.core.exact.ExactSearchStats`):

* ``explored`` -- search nodes visited (what ``node_limit`` bounds);
* ``flow_solves`` -- canonical min-flow solves (warm updates not counted);
* ``flow_reuses`` -- nodes that took their parent's min-flow instead.

Instances: the Theorem 4.1 reduction of the one-clause formula
``(~V2 v ~V1 v ~V3)`` (a yes-instance, optimum 1) and the Section 4.3
reduction of a Partition yes/no pair (5 and 6 values); full mode adds the
Theorem 4.3 no-instance ``(V1 v V2 v V3) & (~V1 v ~V2 v ~V3)`` (optimum 2).

The gate is on counts only: every optimum must equal its reduction's known
answer, and ``explored`` and ``flow_solves`` may not rise above the
committed baseline.  Wall-clock seconds are printed for humans and never
gated.

Run standalone:  python benchmarks/bench_exact_oracle.py [--quick] [--json PATH]
"""

from __future__ import annotations

import sys
import time

from repro.analysis import format_table
from repro.core.exact import ExactSearchStats, exact_min_makespan_arcs
from repro.hardness import (
    OneInThreeSatInstance,
    PartitionInstance,
    build_partition_dag,
    build_theorem41_dag,
)

from bench_common import emit, parse_json_flag, write_json_artifact

#: ``(name, builder of the reduction's construction)``.
QUICK_INSTANCES = [
    ("theorem41_yes", lambda: build_theorem41_dag(OneInThreeSatInstance(3, ((-2, -1, -3),)))),
    ("partition_yes", lambda: build_partition_dag(PartitionInstance((7, 8, 2, 8, 5)))),
    ("partition_no", lambda: build_partition_dag(PartitionInstance((9, 1, 7, 4, 8, 8)))),
]
FULL_INSTANCES = QUICK_INSTANCES + [
    ("theorem43_no", lambda: build_theorem41_dag(
        OneInThreeSatInstance(3, ((1, 2, 3), (-1, -2, -3))))),
]

#: The yes/no answer each reduction must give (optimum <= target iff yes).
EXPECT_YES = {"theorem41_yes": True, "partition_yes": True,
              "partition_no": False, "theorem43_no": False}


def run_instances(instances):
    """Solve each instance once; return the flat stats dict."""
    stats = {"instances": len(instances)}
    for name, build in instances:
        construction = build()
        counts = ExactSearchStats()
        start = time.perf_counter()
        optimum, _flow = exact_min_makespan_arcs(construction.arc_dag, construction.budget,
                                                 stats=counts)
        stats[f"{name}_seconds"] = time.perf_counter() - start
        stats[f"{name}_optimum"] = optimum
        stats[f"{name}_target"] = construction.target_makespan
        stats[f"{name}_agrees"] = (EXPECT_YES[name]
                                   == (optimum <= construction.target_makespan + 1e-9))
        stats[f"{name}_explored"] = counts.explored
        stats[f"{name}_flow_solves"] = counts.flow_solves
        stats[f"{name}_flow_reuses"] = counts.flow_reuses
    stats["ok"] = all(stats[f"{name}_agrees"] for name, _build in instances)
    return stats


def render(stats, instances) -> str:
    rows = [[name, f"{stats[f'{name}_optimum']:g}", f"{stats[f'{name}_target']:g}",
             str(stats[f"{name}_agrees"]), str(stats[f"{name}_explored"]),
             str(stats[f"{name}_flow_solves"]), str(stats[f"{name}_flow_reuses"]),
             f"{stats[f'{name}_seconds']:.2f}"]
            for name, _build in instances]
    return format_table(["instance", "optimum", "target", "agrees", "explored",
                         "flow solves", "flow reuses", "wall time (s)"], rows)


# ---------------------------------------------------------------------------
# pytest entry point
# ---------------------------------------------------------------------------

def test_exact_oracle_counts():
    stats = run_instances(QUICK_INSTANCES)
    emit("E21 / exact oracle -- branch-and-bound work per reduction",
         render(stats, QUICK_INSTANCES))
    assert stats["ok"], stats
    assert stats["theorem41_yes_flow_solves"] <= 750


# ---------------------------------------------------------------------------
# standalone mode
# ---------------------------------------------------------------------------

def main(argv) -> int:
    quick = "--quick" in argv
    json_path = parse_json_flag(argv, "bench_exact_oracle.py [--quick] [--json PATH]")

    instances = QUICK_INSTANCES if quick else FULL_INSTANCES
    stats = run_instances(instances)
    print(render(stats, instances))
    print(f"\nevery reduction answers its source instance correctly: {stats['ok']}")
    if json_path:
        write_json_artifact(json_path, {"benchmark": "bench_exact_oracle", "quick": quick,
                                        **stats})
    return 0 if stats["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
