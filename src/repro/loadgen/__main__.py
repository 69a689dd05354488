"""``python -m repro.loadgen`` -- run a load test from the command line.

Without a target flag the harness is fully self-contained: it starts an
in-process :class:`~repro.serve.SweepServer` (thread-portfolio service,
temporary store) on a unix socket, replays the schedule against it, and
prints the reconciled report.  Point ``--unix PATH`` or ``--host/--port``
at an already-running ``python -m repro.serve`` to load-test that
instance instead (it must be started with the same scenario universe
semantics -- the harness only sends ``sweep_spec`` and ``metrics`` ops,
so any server build works).

Exit status is 0 only when client-side accounting reconciles with the
server's counters -- the CLI doubles as a smoke-level SLO check::

    python -m repro.loadgen --quick                 # 40 requests, ~1s
    python -m repro.loadgen --requests 500 --process bursty --skew 1.3
    python -m repro.loadgen --chaos --admission-limit 8
    python -m repro.loadgen --unix /tmp/sweep.sock --time-scale 0
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import sys
import tempfile
from typing import List, Optional

from repro.loadgen.arrivals import ARRIVAL_PROCESSES, build_schedule
from repro.loadgen.chaos import ChaosConfig
from repro.loadgen.client import run_load
from repro.loadgen.report import LoadReport, render_report
from repro.scenarios import Axis, ScenarioGrid


def default_grid() -> ScenarioGrid:
    """The CLI's scenario universe: 12 small fork-join cells.

    Small enough that a quick run solves every unique cell in seconds,
    varied enough (width x work x budget tightness) that latency spreads
    and the Zipf skew has distinct cells to concentrate on.
    """
    return ScenarioGrid(
        generators=({"generator": "fork-join",
                     "params": {"width": Axis([2, 3, 4]),
                                "work": Axis([4, 8])}},),
        budget_rules=(("makespan-factor", 0.5), ("makespan-factor", 0.75)),
    )


async def _run(args: argparse.Namespace) -> LoadReport:
    grid = default_grid()
    schedule = build_schedule(args.process, rate=args.rate,
                              count=args.requests,
                              num_cells=grid.size(), skew=args.skew,
                              seed=args.seed)
    chaos = None
    if args.chaos:
        chaos = ChaosConfig(malformed_every=7, oversize_every=11,
                            disconnect_every=13)
    external = args.unix or args.port
    if external:
        return await run_load(
            schedule, grid, host=args.host, port=args.port,
            unix_socket=args.unix, connections=args.connections,
            time_scale=args.time_scale, chaos=chaos)

    from repro.engine.async_service import AsyncSweepService
    from repro.engine.portfolio import Portfolio
    from repro.serve import SweepServer

    with tempfile.TemporaryDirectory(prefix="loadgen-") as tmp:
        socket_path = f"{tmp}/sweep.sock"
        async with AsyncSweepService(
                store=f"{tmp}/store",
                portfolio=Portfolio(executor="thread", max_workers=2)) \
                as service:
            server_kwargs = {}
            if args.admission_limit:
                server_kwargs["admission_limit"] = args.admission_limit
            async with SweepServer(service, unix_socket=socket_path,
                                   **server_kwargs):
                return await run_load(
                    schedule, grid, unix_socket=socket_path,
                    connections=args.connections,
                    time_scale=args.time_scale, chaos=chaos)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.loadgen",
        description="Replay a seeded open-loop request schedule against a "
                    "SweepServer and print the reconciled SLO report.")
    parser.add_argument("--quick", action="store_true",
                        help="small fast run (40 requests, time-scale 0)")
    parser.add_argument("--requests", type=int, default=200,
                        help="number of arrivals to replay (default 200)")
    parser.add_argument("--rate", type=float, default=50.0,
                        help="mean arrival rate, requests/s (default 50)")
    parser.add_argument("--process", default="poisson",
                        choices=sorted(ARRIVAL_PROCESSES),
                        help="arrival process (default poisson)")
    parser.add_argument("--skew", type=float, default=1.1,
                        help="Zipf hot-key skew over cells (0 = uniform)")
    parser.add_argument("--seed", type=int, default=0,
                        help="schedule seed (same seed -> same schedule)")
    parser.add_argument("--connections", type=int, default=4,
                        help="persistent client connections (default 4)")
    parser.add_argument("--time-scale", type=float, default=None,
                        help="multiply scheduled times (0 = fire "
                             "as fast as possible; default 1.0)")
    parser.add_argument("--chaos", action="store_true",
                        help="inject wire faults (malformed/oversized/"
                             "disconnect) on a deterministic cadence")
    parser.add_argument("--admission-limit", type=int, default=None,
                        help="in-process server admission limit "
                             "(provokes rejections under load)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="external server host (with --port)")
    parser.add_argument("--port", type=int, default=None,
                        help="load an external TCP server instead of "
                             "spinning one up")
    parser.add_argument("--unix", default=None, metavar="PATH",
                        help="load an external unix-socket server")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the full report JSON to PATH")
    args = parser.parse_args(argv)
    if args.quick:
        args.requests = min(args.requests, 40)
        if args.time_scale is None:
            args.time_scale = 0.0
    if args.time_scale is None:
        args.time_scale = 1.0

    report = asyncio.run(_run(args))
    print(render_report(report))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
            handle.write("\n")
        print(f"\nwrote {args.json}")
    return 0 if not report.reconcile() else 1


if __name__ == "__main__":
    with contextlib.suppress(KeyboardInterrupt):
        sys.exit(main())
