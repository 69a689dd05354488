"""``python -m repro.cluster`` -- run the router front of a sweep cluster.

Two deployment shapes:

* ``--spawn N --store DIR`` -- fork N ``python -m repro.serve`` runner
  *subprocesses* on unix sockets sharing ``DIR`` (the store's per-shard
  advisory locking makes their concurrent writes safe), then serve the
  router in front of them.  One command, a whole cluster::

      python -m repro.cluster --spawn 3 --store var/solutions --port 7430

* ``--runner SPEC`` (repeatable) -- front already-running runners
  (``unix:/path``, ``host:port`` or bare ``port``)::

      python -m repro.cluster --runner unix:/tmp/r0.sock \\
                              --runner unix:/tmp/r1.sock --port 7430

``--spawn-transport tcp`` binds each spawned runner to a TCP port
(``--spawn-base-port`` + index) instead of a unix socket -- the multi-host
shape, where every runner is reachable by ``host:port`` from anywhere.

The router listens on TCP (``--port``) or a unix socket (``--unix``) and
speaks the single-server JSON-lines protocol (``docs/serving.md``), so
every existing client works unchanged against the cluster.  Once up, the
deployment resizes **live**: send the router a ``resize`` op to join a
freshly started runner (the router prewarms the joiner's key range before
routing traffic to it) or to retire one, and ``ring`` to inspect the
current membership -- see docs/serving.md ("Elastic scaling").
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import subprocess
import sys
import tempfile
import time
from typing import List, Optional, Sequence

from repro.cluster.router import ClusterClient, RouterServer
from repro.cluster.runners import RunnerAddress
from repro.serve import serve_until_signalled
from repro.utils.validation import require

__all__ = ["main"]

#: Seconds to wait for a spawned runner's socket to appear.
_SPAWN_WAIT = 30.0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description="Consistent-hash router front for N repro.serve runners.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7430,
                        help="router TCP port (0 picks a free one)")
    parser.add_argument("--unix", metavar="PATH", default=None,
                        help="serve the router on a unix socket instead")
    parser.add_argument("--runner", metavar="SPEC", action="append",
                        default=[],
                        help="existing runner endpoint (unix:/path, "
                             "host:port or port); repeatable")
    parser.add_argument("--spawn", type=int, metavar="N", default=0,
                        help="spawn N repro.serve runner subprocesses on "
                             "unix sockets (requires --store)")
    parser.add_argument("--spawn-transport", choices=("unix", "tcp"),
                        default="unix",
                        help="socket family for --spawn runners: unix "
                             "sockets (default) or TCP on 127.0.0.1 -- the "
                             "multi-host shape")
    parser.add_argument("--spawn-base-port", type=int, metavar="PORT",
                        default=7441,
                        help="first TCP port for --spawn-transport tcp "
                             "(runner-i binds PORT+i; default 7441)")
    parser.add_argument("--store", metavar="DIR", default=None,
                        help="shared SolutionStore directory: required for "
                             "--spawn runners, and (either mode) lets the "
                             "router answer already-solved cells locally "
                             "instead of routing them")
    parser.add_argument("--executor", choices=("process", "thread"),
                        default="process",
                        help="executor for --spawn runners")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker pool size per --spawn runner")
    parser.add_argument("--vnodes", type=int, default=128,
                        help="virtual nodes per runner on the hash ring")
    parser.add_argument("--request-timeout", type=float, default=60.0,
                        help="seconds before a runner sub-request fails over")
    return parser


def _tcp_bound(port: int) -> bool:
    """Is something accepting connections on ``127.0.0.1:port``?"""
    import socket

    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.settimeout(0.25)
        return probe.connect_ex(("127.0.0.1", port)) == 0


def _spawn_runners(addresses: Sequence[RunnerAddress], store: str, *,
                   executor: str, workers: Optional[int]
                   ) -> List[subprocess.Popen]:
    """Start one serve subprocess per address; blocks until all bind."""
    processes: List[subprocess.Popen] = []
    for address in addresses:
        command = [sys.executable, "-m", "repro.serve",
                   "--store", store, "--executor", executor,
                   "--runner-id", address.name]
        if address.unix_socket:
            command.extend(["--unix", address.unix_socket])
        else:
            command.extend(["--host", address.host,
                            "--port", str(address.port)])
        if workers is not None:
            command.extend(["--workers", str(workers)])
        processes.append(subprocess.Popen(command))
    deadline = time.monotonic() + _SPAWN_WAIT
    for address, process in zip(addresses, processes):
        while not (os.path.exists(address.unix_socket)
                   if address.unix_socket else _tcp_bound(address.port)):
            require(process.poll() is None,
                    f"{address.name} exited with {process.returncode} "
                    "before binding its socket")
            require(time.monotonic() < deadline,
                    f"{address.name} did not bind {address.endpoint} "
                    f"within {_SPAWN_WAIT}s")
            time.sleep(0.05)
    return processes


async def _run_router(args: argparse.Namespace,
                      addresses: List[RunnerAddress]) -> None:
    client = ClusterClient(addresses, vnodes=args.vnodes,
                           request_timeout=args.request_timeout,
                           store=args.store)
    health = await client.check_health()
    down = sorted(name for name, ok in health.items() if not ok)
    require(len(client.healthy) > 0,
            f"no runner answered the initial health check: {down}")
    router = RouterServer(client, host=args.host, port=args.port,
                          unix_socket=args.unix)
    await router.start()
    print(f"repro.cluster: routing on {router.address} over "
          f"{len(client.healthy)}/{len(addresses)} runners"
          + (f" (down: {', '.join(down)})" if down else ""), flush=True)
    await serve_until_signalled(router, "repro.cluster")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro.cluster``."""
    args = _build_parser().parse_args(argv)
    require(bool(args.runner) != (args.spawn > 0),
            "need exactly one of --runner ... or --spawn N")
    processes: List[subprocess.Popen] = []
    socket_dir: Optional[tempfile.TemporaryDirectory] = None
    if args.spawn:
        require(args.store is not None, "--spawn requires --store DIR")
        if args.spawn_transport == "tcp":
            addresses = [RunnerAddress(name=f"runner-{i}", host="127.0.0.1",
                                       port=args.spawn_base_port + i)
                         for i in range(args.spawn)]
        else:
            socket_dir = tempfile.TemporaryDirectory(prefix="repro-cluster-")
            addresses = [RunnerAddress(name=f"runner-{i}",
                                       unix_socket=os.path.join(
                                           socket_dir.name,
                                           f"runner-{i}.sock"))
                         for i in range(args.spawn)]
        processes = _spawn_runners(addresses, args.store,
                                   executor=args.executor,
                                   workers=args.workers)
    else:
        addresses = [RunnerAddress.parse(spec) for spec in args.runner]
    try:
        asyncio.run(_run_router(args, addresses))
    except KeyboardInterrupt:  # pragma: no cover - Ctrl-C before serving
        print("repro.cluster: shutting down", flush=True)
    finally:
        # A second Ctrl-C (or SIGTERM) must not cut the wait for the
        # runners short: each stops its own pool on the SIGTERM below.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        for process in processes:
            process.terminate()
        for process in processes:
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover
                process.kill()
        if socket_dir is not None:
            socket_dir.cleanup()
    return 0


if __name__ == "__main__":
    sys.exit(main())
