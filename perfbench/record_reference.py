"""Record the default seed's expected outputs into ``reference.json``.

Run from the root of a checkout after a change that is *meant* to alter
results (a new grid, a different solver)::

    python3 perfbench/record_reference.py

It sweeps the cold grid once through the engine to learn each
cell's dispatched solver, re-solves every cell directly through
``repro.core`` and stores ``cell digest -> [makespan, budget_used, solver,
certificate passed]``; every oracle ``exact_reference`` instance of
every round is solved by ``repro.core.exact`` enumeration and stored as
``instance -> optimum``.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main() -> int:
    seed = workloads.DEFAULT_SEED
    specs = workloads.cold_sweep_specs(seed)
    with tempfile.TemporaryDirectory(dir=HERE) as scratch:
        _elapsed, report, _counters = workloads.cold_pass(specs, scratch, "record")
    cold = {}
    for result, spec in zip(report.results, specs):
        if result.report is None:
            raise SystemExit(f"cell {spec} failed: {result.error}")
        cold[spec.cell_digest()] = workloads.direct_solve(
            spec, result.report.solver_id)
    optima = {}
    for round_index in range(workloads.ORACLE_ROUNDS):
        optima.update(workloads.direct_optima(
            workloads.oracle_instances(seed, round_index)))
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump({"seed": seed, "cold_sweep": cold,
                   "exact_oracle": optima},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
