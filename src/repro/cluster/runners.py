"""Runner endpoints and the in-process test/bench cluster.

:class:`RunnerAddress` is the one way every cluster layer names a runner:
a stable ``name`` (the ring token -- routing depends only on it) plus how
to reach the socket.  :class:`LocalCluster` spins N real
:class:`~repro.serve.SweepServer` runners *in one process* over unix
sockets, each with its own :class:`~repro.engine.async_service.
AsyncSweepService` and its own :class:`~repro.engine.store.SolutionStore`
handle onto one shared store root -- the exact topology
``python -m repro.cluster --spawn`` builds with subprocesses, minus the
process boundary, which is what makes it fast enough for CI
(``tests/test_cluster.py``) and the cluster benchmark.  ``kill()`` takes a
runner down the hard way (listener closed, connections reset) so failover
paths are testable deterministically.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.engine.async_service import AsyncSweepService
from repro.engine.portfolio import Portfolio
from repro.engine.store import SolutionStore
from repro.serve import SweepServer
from repro.utils.validation import require

__all__ = ["RunnerAddress", "LocalCluster"]


@dataclass(frozen=True)
class RunnerAddress:
    """One runner endpoint: ring token plus socket coordinates.

    Exactly one of ``unix_socket`` or ``port`` must be set.  ``name`` is
    the consistent-hash token -- keep it stable across restarts or the
    ring will reshuffle the runner's share of the key space.
    """

    name: str
    host: str = "127.0.0.1"
    port: Optional[int] = None
    unix_socket: Optional[str] = None

    def __post_init__(self) -> None:
        require(isinstance(self.name, str) and bool(self.name),
                "runner names must be non-empty strings")
        require((self.port is None) != (self.unix_socket is None),
                f"runner {self.name!r} needs exactly one of port= or "
                f"unix_socket=")

    @classmethod
    def parse(cls, text: str, *, name: Optional[str] = None) -> "RunnerAddress":
        """Parse a CLI runner spec: ``unix:/path``, ``host:port`` or ``port``.

        ``name`` defaults to the spec text itself, which keeps ring
        placement stable for a given flag value.
        """
        require(isinstance(text, str) and bool(text),
                "runner specs must be non-empty strings")
        label = name if name is not None else text
        if text.startswith("unix:"):
            return cls(name=label, unix_socket=text[len("unix:"):])
        host, sep, port_text = text.rpartition(":")
        if not sep:
            host, port_text = "127.0.0.1", text
        require(port_text.isdigit(), f"bad runner spec {text!r} "
                                     "(want unix:/path, host:port or port)")
        return cls(name=label, host=host or "127.0.0.1", port=int(port_text))

    @property
    def endpoint(self) -> str:
        """Human-readable socket coordinates."""
        if self.unix_socket:
            return self.unix_socket
        return f"{self.host}:{self.port}"

    @property
    def client_kwargs(self) -> Dict[str, Any]:
        """The ``host``/``port``/``unix_socket`` keywords of the
        :mod:`repro.serve` client helpers, pointed at this runner."""
        return {"host": self.host, "port": self.port,
                "unix_socket": self.unix_socket}


class LocalCluster:
    """N in-process serve runners (unix-socket or TCP) over one store root.

    Elastic membership: :meth:`start_runner` brings one more runner up on
    the running cluster and :meth:`stop_runner` retires one (gracefully
    or as a crash) -- the runner halves of the router's live
    ``resize`` protocol.

    Parameters
    ----------
    size:
        How many runners to start.
    store_root:
        Shared :class:`~repro.engine.store.SolutionStore` directory.  Each
        runner opens its **own** store handle on it (as separate processes
        would); the store's per-shard advisory locking is what keeps their
        concurrent writes safe.  ``None`` creates a temporary root owned
        (and deleted) by the cluster.
    socket_dir:
        Directory for the unix sockets (``None``: a temp dir).
    executor / workers:
        Portfolio configuration per runner; the thread executor keeps a
        3-runner CI cluster cheap (one process, no pool forking).
    lock_timeout:
        Per-runner store ``lock_timeout`` (seconds).
    admission_limit / queue_size / shard_size:
        Passed through to each runner's server/service.
    transport:
        ``"unix"`` (default) serves each runner on a unix socket;
        ``"tcp"`` binds each runner to ``127.0.0.1`` on an OS-assigned
        port -- the multi-host shape (every runner reachable by
        ``host:port``), so the same elastic resize protocol exercised
        over TCP is exactly what a real multi-machine deployment runs.
    """

    def __init__(self, size: int = 3, *,
                 store_root: Optional[str] = None,
                 socket_dir: Optional[str] = None,
                 executor: str = "thread",
                 workers: Optional[int] = 2,
                 lock_timeout: float = 10.0,
                 admission_limit: Optional[int] = None,
                 queue_size: int = 64,
                 shard_size: int = 1,
                 transport: str = "unix"):
        require(size >= 1, "a cluster needs >= 1 runner")
        require(transport in ("unix", "tcp"),
                f"transport must be 'unix' or 'tcp', got {transport!r}")
        self.size = size
        self.transport = transport
        self._tempdirs: List[tempfile.TemporaryDirectory] = []
        if store_root is None:
            owned = tempfile.TemporaryDirectory(prefix="repro-cluster-store-")
            self._tempdirs.append(owned)
            store_root = owned.name
        if socket_dir is None:
            sockets = tempfile.TemporaryDirectory(prefix="repro-cluster-sock-")
            self._tempdirs.append(sockets)
            socket_dir = sockets.name
        self.store_root = store_root
        self.socket_dir = socket_dir
        self.executor = executor
        self.workers = workers
        self.lock_timeout = lock_timeout
        self.admission_limit = admission_limit
        self.queue_size = queue_size
        self.shard_size = shard_size
        self.servers: Dict[str, SweepServer] = {}
        self._names: List[str] = [f"runner-{i}" for i in range(size)]
        #: Hard-stopped runners kept for service reaping at :meth:`aclose`.
        self._aborted: List[SweepServer] = []
        self._started = False

    # ------------------------------------------------------------------
    @property
    def runner_names(self) -> List[str]:
        """Current membership (grows/shrinks with the elastic calls)."""
        return list(self._names)

    def _socket_path(self, name: str) -> str:
        return os.path.join(self.socket_dir, f"{name}.sock")

    def address_of(self, name: str) -> RunnerAddress:
        """One runner's :class:`RunnerAddress` under the cluster transport.

        Unix-socket addresses are knowable before start; TCP addresses
        only exist once the runner has bound its OS-assigned port.
        """
        if self.transport == "unix":
            return RunnerAddress(name=name,
                                 unix_socket=self._socket_path(name))
        server = self.servers.get(name)
        require(server is not None,
                f"TCP runner {name!r} has no bound port until started")
        return RunnerAddress(name=name, host=server.host, port=server.port)

    def addresses(self) -> List[RunnerAddress]:
        """Every current runner's :class:`RunnerAddress`.

        In TCP mode only started runners are listed (their ports are
        OS-assigned at bind time).
        """
        if self.transport == "unix":
            return [self.address_of(name) for name in self._names]
        return [self.address_of(name) for name in self._names
                if name in self.servers]

    async def _start_one(self, name: str) -> RunnerAddress:
        store = SolutionStore(self.store_root,
                              lock_timeout=self.lock_timeout)
        service = AsyncSweepService(
            store=store,
            portfolio=Portfolio(executor=self.executor,
                                max_workers=self.workers),
            queue_size=self.queue_size,
            shard_size=self.shard_size,
            runner_id=name)
        if self.transport == "unix":
            server = SweepServer(service,
                                 unix_socket=self._socket_path(name),
                                 admission_limit=self.admission_limit,
                                 runner_id=name)
        else:
            server = SweepServer(service, host="127.0.0.1", port=0,
                                 admission_limit=self.admission_limit,
                                 runner_id=name)
        await server.start()
        self.servers[name] = server
        return self.address_of(name)

    async def start(self) -> "LocalCluster":
        """Start every runner (idempotent)."""
        if self._started:
            return self
        for name in list(self._names):
            await self._start_one(name)
        self._started = True
        return self

    async def start_runner(self, name: str) -> RunnerAddress:
        """Start one *additional* runner on the running cluster.

        The runner side of an elastic join: a fresh store handle, service
        and server come up on the shared root (same transport as the
        rest) and its address is returned, ready to hand to
        :meth:`ClusterClient.add_runner
        <repro.cluster.router.ClusterClient.add_runner>`.  The new runner
        serves nothing until the router resizes the ring toward it.
        """
        require(self._started, "start the cluster before adding runners")
        require(name not in self.servers,
                f"runner {name!r} is already running")
        if name not in self._names:
            self._names.append(name)
        self.size = len(self._names)
        return await self._start_one(name)

    async def stop_runner(self, name: str, *, graceful: bool = True) -> None:
        """Retire one runner: drain and close (graceful) or hard-kill.

        Graceful is the planned-leave path (pair it with the router's
        ``remove_runner`` *first* so no new cells route here); in-flight
        requests drain before the listener closes.  ``graceful=False``
        mimics a crash exactly like :meth:`kill` -- connections reset,
        failover takes over -- but also removes the runner from the
        membership list (the service is still reaped at :meth:`aclose`).
        """
        require(name in self.servers, f"unknown runner {name!r}")
        if name in self._names:
            self._names.remove(name)
        self.size = len(self._names)
        server = self.servers.pop(name)
        if graceful:
            await server.aclose()
        else:
            server.abort()
            self._aborted.append(server)

    async def __aenter__(self) -> "LocalCluster":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose()

    def kill(self, name: str) -> None:
        """Hard-kill one runner (listener closed, connections reset).

        The runner's server object stays in :attr:`servers` so
        :meth:`aclose` can still reap its service; clients attempting the
        dead socket get a connection reset/refusal, which is what drives
        the router's failover re-route.
        """
        require(name in self.servers, f"unknown runner {name!r}")
        self.servers[name].abort()

    async def aclose(self) -> None:
        """Close every runner and delete any owned temp directories."""
        for server in list(self.servers.values()) + self._aborted:
            await server.aclose()
        self.servers.clear()
        self._aborted.clear()
        self._started = False
        for tempdir in self._tempdirs:
            tempdir.cleanup()
        self._tempdirs.clear()

    # ------------------------------------------------------------------
    def store_view(self) -> SolutionStore:
        """A fresh read-side store handle on the shared root.

        Integrity checks open their own handle (exactly as an external
        auditor process would) instead of borrowing a runner's.
        """
        return SolutionStore(self.store_root, lock_timeout=self.lock_timeout)
