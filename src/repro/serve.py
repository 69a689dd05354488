"""``python -m repro.serve`` -- a JSON-lines network front for the engine.

A deliberately small, stdlib-only server exposing
:class:`~repro.engine.async_service.AsyncSweepService` over TCP or a unix
socket.  The protocol is newline-delimited JSON, one object per line:

Requests (client -> server)::

    {"op": "sweep", "id": "r1", "scenarios": [<problem payload>, ...],
     "method": "auto", "options": {"alpha": 0.5}}
    {"op": "sweep_spec", "id": "r4", "grid": {<grid payload>},
     "method": "auto"}                          # or "specs": [<spec>, ...]
    {"op": "stats", "id": "r2"}
    {"op": "metrics", "id": "r5"}
    {"op": "ping", "id": "r3"}

Responses (server -> client) -- a ``sweep`` streams one line per scenario
*as each result resolves* (store hits first, computed ones as their shards
finish), then a terminating ``done`` line::

    {"id": "r1", "index": 0, "key": "...", "source": "computed",
     "error": null, "report": {...}}                       # per scenario
    {"id": "r1", "done": true, "count": 3}                 # terminator
    {"id": "r2", "stats": {...}}                           # stats reply
    {"id": "r5", "metrics": {...}}                         # counter snapshot
    {"id": "r3", "pong": true}                             # ping reply
    {"id": "r1", "error": "..."}                           # request error
    {"id": "r1", "rejected": true, "error": "..."}         # admission reject

Protocol faults never tear a connection down: a malformed JSON line, a
non-object line, an unknown ``op`` or a line longer than the server's
``max_line_bytes`` each get a structured ``{"error": ...}`` response (with
``"id": null`` when no id could be parsed) and the connection keeps
serving -- the fault is counted in the server's ``protocol_errors``.  The
``metrics`` op returns the full counter snapshot
(:meth:`~repro.engine.async_service.AsyncSweepService.snapshot` plus the
server's own wire-level counters under ``"server"``); the load harness in
:mod:`repro.loadgen` polls it before and after a run and reconciles the
deltas against its client-side accounting.  With ``admission_limit`` set,
a sweep arriving while that many unique requests are already queued or in
flight is answered immediately with a ``rejected`` line instead of
blocking at the backpressure point -- the overload story for open-loop
traffic (see ``docs/serving.md``).

A *problem payload* mirrors the engine's content model (see
:func:`problem_to_payload`)::

    {"objective": "min_makespan", "parameter": 2.0,
     "jobs": [["s", [[0, 4], [2, 1]]], ["t", [[0, 0]]]],
     "edges": [["s", "t"]]}

``jobs`` pairs a (string) job name with its canonical resource-time
breakpoints; every duration family serialises through its ``tuples()``
view, and decoding rebuilds an equivalent
:class:`~repro.core.duration.GeneralStepDuration` -- equal breakpoints hash
to the same :func:`~repro.engine.fingerprint.dag_fingerprint`, so wire
clients share cache entries with in-process callers.  Reports on the wire
use the same stable encoding as the persistent store
(:func:`~repro.engine.store.report_to_payload`): a store hit's report is
the stored bytes themselves, spliced into its line, and the lines a sweep
has already resolved when it is relayed leave in one socket write.

``sweep_spec`` is the **spec-native** request: instead of materialized
problem payloads the client ships a declarative
:class:`~repro.scenarios.spec.ScenarioGrid` (or a list of
:class:`~repro.scenarios.spec.ScenarioSpec` payloads) -- a few hundred
bytes however many cells it expands to.  The server expands the grid,
deduplicates and answers store-hit cells *before any DAG exists*, and
materializes the rest lazily inside worker shards
(:meth:`~repro.engine.async_service.AsyncSweepService.submit_specs`).
Each per-cell response line carries the cell's true request fingerprint --
the same key a ``sweep`` over the materialized problems would report, so
the two paths are interchangeable and share every cache tier.

Run it::

    python -m repro.serve --port 7341 --store var/solutions
    python -m repro.serve --unix /tmp/repro.sock --executor thread

and talk to it from anything that can write a line of JSON to a socket
(``examples/async_service_tour.py`` shows the asyncio client helper
:func:`request_sweep`; ``benchmarks/bench_async_service.py`` measures the
stack under concurrent clients).

The wire mechanics live here once.  :class:`LineServer` is the server
core that every front runs (:class:`SweepServer` and the cluster's
router), and :class:`LineConnection` is the one client connection, used
by the helpers below, the router's calls to its runners and the load
harness.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import socket
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.dag import TradeoffDAG
from repro.core.duration import ConstantDuration, GeneralStepDuration
from repro.core.problem import MinMakespanProblem, MinResourceProblem
from repro.engine.async_service import AsyncSweepService
from repro.engine.core import Problem, SolveLimits
from repro.engine.portfolio import Portfolio
from repro.engine.store import report_to_payload
from repro.scenarios import ScenarioGrid, ScenarioSpec
from repro.utils.validation import ValidationError, require

__all__ = [
    "PROTOCOL_VERSION",
    "problem_to_payload",
    "problem_from_payload",
    "ServerStats",
    "Rejected",
    "LineServer",
    "LineConnection",
    "SweepServer",
    "request_sweep",
    "request_sweep_spec",
    "request_metrics",
    "request_warm_cache",
    "main",
]

#: Version of the wire protocol; echoed in every ``done`` line.
PROTOCOL_VERSION = 1

#: Read granularity of the bounded line reader (bytes per ``read`` call).
_READ_CHUNK = 65536

#: Longest reply line a :class:`LineConnection` reads.  A report carries
#: one allocation entry per job (~20 bytes each), so a reply can be far
#: longer than asyncio's 64 KiB default and than the request it answers.
_REPLY_LINE_LIMIT = 1 << 26

MIN_MAKESPAN_WIRE = "min_makespan"
MIN_RESOURCE_WIRE = "min_resource"


def _wire_number(value: Any) -> Union[int, float]:
    """Validate a wire number, preserving its exact type (int stays int)."""
    require(isinstance(value, (int, float)) and not isinstance(value, bool),
            f"expected a number, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# problem wire codec
# ---------------------------------------------------------------------------

def problem_to_payload(problem: Problem) -> Dict[str, Any]:
    """Encode a problem as the wire's JSON-safe dict.

    Wire problems are restricted to string job names (the network client
    chooses its own names; anything hashable-but-exotic stays in-process).
    Duration functions serialise as their canonical breakpoints.  Numeric
    types are preserved exactly (JSON keeps ``2`` and ``2.0`` distinct),
    because the engine's content fingerprints hash breakpoint ``repr``s --
    coercing to float would silently split the cache key space between
    wire clients and in-process callers.
    """
    problem = _normalize(problem)
    dag = problem.dag
    jobs = []
    for job in dag.jobs:
        require(isinstance(job, str),
                f"wire problems need string job names, got {job!r}")
        jobs.append([job, [[_wire_number(r), _wire_number(t)]
                           for r, t in dag.duration_function(job).tuples()]])
    if isinstance(problem, MinMakespanProblem):
        objective, parameter = MIN_MAKESPAN_WIRE, problem.budget
    else:
        objective, parameter = MIN_RESOURCE_WIRE, problem.target_makespan
    return {
        "objective": objective,
        "parameter": _wire_number(parameter),
        "jobs": jobs,
        "edges": [[u, v] for u, v in dag.edges],
    }


def problem_from_payload(payload: Dict[str, Any]) -> Problem:
    """Inverse of :func:`problem_to_payload` (raises ``ValidationError``)."""
    require(isinstance(payload, dict), "problem payload must be an object")
    objective = payload.get("objective")
    require(objective in (MIN_MAKESPAN_WIRE, MIN_RESOURCE_WIRE),
            f"unknown objective {objective!r}")
    parameter = payload.get("parameter")
    require(isinstance(parameter, (int, float)),
            "problem payload needs a numeric 'parameter'")
    jobs = payload.get("jobs")
    require(isinstance(jobs, list) and jobs,
            "problem payload needs a non-empty 'jobs' list")
    dag = TradeoffDAG()
    for item in jobs:
        require(isinstance(item, (list, tuple)) and len(item) == 2,
                "each job must be a [name, tuples] pair")
        name, tuples = item
        require(isinstance(name, str), f"job names must be strings, got {name!r}")
        require(isinstance(tuples, list) and tuples,
                f"job {name!r} needs a non-empty breakpoint list")
        points = [(_wire_number(r), _wire_number(t)) for r, t in tuples]
        if len(points) == 1 and points[0][0] == 0:
            dag.add_job(name, ConstantDuration(points[0][1]))
        else:
            dag.add_job(name, GeneralStepDuration(points))
    for edge in payload.get("edges", []):
        require(isinstance(edge, (list, tuple)) and len(edge) == 2,
                "each edge must be a [u, v] pair")
        dag.add_edge(edge[0], edge[1])
    dag.validate()
    if objective == MIN_MAKESPAN_WIRE:
        return MinMakespanProblem(dag, _wire_number(parameter))
    return MinResourceProblem(dag, _wire_number(parameter))


def _normalize(problem: Problem) -> Problem:
    require(isinstance(problem, (MinMakespanProblem, MinResourceProblem)),
            f"unsupported problem type {type(problem).__name__}")
    return problem


# ---------------------------------------------------------------------------
# the server
# ---------------------------------------------------------------------------

def parse_sweep_request(op: str, request: Dict[str, Any]
                        ) -> Tuple[List[Any], str, Dict[str, Any]]:
    """``(items, method, options)`` of one ``sweep`` / ``sweep_spec`` line.

    ``sweep`` items are the wire problem payloads, still encoded;
    ``sweep_spec`` items are the decoded :class:`ScenarioSpec` cells of
    exactly one of ``grid`` or ``specs``.  Shared by the server and the
    cluster router, so both fronts accept and refuse the same requests.
    """
    options = request.get("options") or {}
    require(isinstance(options, dict), "'options' must be an object")
    method = request.get("method", "auto")
    if op == "sweep":
        scenarios = request.get("scenarios")
        require(isinstance(scenarios, list) and scenarios,
                "sweep requests need a non-empty 'scenarios' list")
        return scenarios, method, options
    grid_payload = request.get("grid")
    spec_payloads = request.get("specs")
    require((grid_payload is None) != (spec_payloads is None),
            "sweep_spec requests need exactly one of 'grid' or 'specs'")
    if grid_payload is not None:
        specs = list(ScenarioGrid.from_payload(grid_payload).expand())
    else:
        require(isinstance(spec_payloads, list) and spec_payloads,
                "'specs' must be a non-empty list of spec payloads")
        specs = [ScenarioSpec.from_payload(p) for p in spec_payloads]
    require(len(specs) > 0, "the grid expands to zero cells")
    return specs, method, options


#: The encoder of every response line and value not spliced from stored
#: bytes, built once: ``_ENCODER.encode(x)`` is ``json.dumps(x,
#: sort_keys=True)``.
_ENCODER = json.JSONEncoder(sort_keys=True)
_encode_str = json.encoder.encode_basestring_ascii


def _encode_line(message: Dict[str, Any]) -> bytes:
    """One response line: sorted keys, newline-terminated."""
    return _ENCODER.encode(message).encode() + b"\n"


def _encode_value(value: Any) -> str:
    """One JSON value, exactly as :func:`_encode_line` writes it."""
    if type(value) is str:
        return _encode_str(value)
    if value is None:
        return "null"
    if type(value) is int:
        return int.__repr__(value)
    return _ENCODER.encode(value)


class _SlotFramer:
    """Frames the per-slot response lines of one sweep request.

    A slot's line is :func:`_encode_line` of its fields -- ``cell`` (spec
    path only), ``error``, ``id``, ``index``, ``key``, ``report`` and
    ``source``, in that sorted order -- written from one fixed template,
    with the report put in as bytes: a store hit's stored JSON bytes as
    they are (the store validated them: a report stored under the line's
    key, no newline byte), or a computed report's encoding.  Only the
    whitespace inside a stored report differs.  The request id is encoded
    once per request, each slot's values once per slot.
    """

    def __init__(self, request_id: Any, cells: Optional[Sequence[str]] = None):
        self.cells = cells
        self._id_index = ', "id": ' + _encode_value(request_id) + ', "index": '

    def line(self, index: int, result: Any, report: Optional[bytes]) -> bytes:
        """Slot ``index``'s line: ``result``'s fields around ``report``
        (stored or freshly encoded report bytes; ``None`` for no report)."""
        cell = ("" if self.cells is None
                else '"cell": ' + _encode_value(self.cells[index]) + ", ")
        head = (f'{{{cell}"error": {_encode_value(result.error)}{self._id_index}'
                f'{index}, "key": {_encode_value(result.key)}, "report": ')
        tail = f', "source": {_encode_value(result.source)}}}\n'
        return b"".join((head.encode(), b"null" if report is None else report,
                         tail.encode()))


@dataclass
class ServerStats:
    """Wire-level counters of one :class:`LineServer` lifetime.

    These sit *in front* of the service's
    :class:`~repro.engine.async_service.AsyncSweepStats`: everything the
    service never sees (protocol faults, admission rejections, dropped
    slow readers) is only visible here.  Exported by the ``stats`` and
    ``metrics`` ops under ``"server"``.
    """

    #: Client connections accepted.
    connections: int = 0
    #: Request lines parsed well enough to dispatch an op.
    requests: int = 0
    #: Wire-protocol faults answered with a structured error line
    #: (malformed JSON, non-object line, unknown op, oversized line).
    protocol_errors: int = 0
    #: The subset of ``protocol_errors`` caused by lines longer than
    #: ``max_line_bytes`` (their bytes are discarded, never parsed).
    oversized_lines: int = 0
    #: Sweeps refused at the admission limit (``rejected`` lines sent).
    rejections: int = 0
    #: Connections aborted because the client stalled reading past
    #: ``drain_timeout`` while the server had responses to flush.
    slow_reader_drops: int = 0
    #: Per-slot lines whose report is a store hit's stored bytes, spliced
    #: in as they are (never decoded or encoded again).
    reports_spliced: int = 0
    #: Per-slot lines whose report was encoded from a ``SolveReport``
    #: (computed and memory-tier answers).
    reports_encoded: int = 0
    #: Socket writes (``writer.write`` calls): one per all-hit sweep, since
    #: the lines already resolved when a sweep is relayed leave together.
    writes: int = 0


class Rejected(ValidationError):
    """A request refused at an admission limit.

    Raised inside a :class:`LineServer`, it becomes the request's
    ``{"rejected": true}`` line (counted in ``ServerStats.rejections``);
    the client helpers raise it when such a line comes back.
    """


class LineServer:
    """The JSON-lines server core under every front.

    :class:`SweepServer` and the cluster's
    :class:`~repro.cluster.router.RouterServer` only serve ops, in
    ``_serve_request(request, send)``.  The wire is here, once: binding,
    the bounded line reader, the per-connection ``send`` (write lock,
    drain timeout, slow-reader drop), one task per request line, and the
    replies to protocol faults and to what ``_serve_request`` raises --
    :class:`Rejected` as a ``rejected`` line, a request error as an
    ``error`` line -- each counted in :attr:`stats`.  The parameters are
    :class:`SweepServer`'s.
    """

    def __init__(self, *, host: str, port: int, unix_socket: Optional[str],
                 max_line_bytes: int, drain_timeout: Optional[float] = None,
                 write_buffer_limit: Optional[int] = None,
                 socket_sndbuf: Optional[int] = None):
        require(max_line_bytes > 0, "max_line_bytes must be positive")
        require(drain_timeout is None or drain_timeout > 0,
                "drain_timeout must be positive (or None)")
        self.host = host
        self.port = port
        self.unix_socket = unix_socket
        self.max_line_bytes = max_line_bytes
        self.drain_timeout = drain_timeout
        self.write_buffer_limit = write_buffer_limit
        self.socket_sndbuf = socket_sndbuf
        self.stats = ServerStats()
        self._server: Optional[asyncio.AbstractServer] = None
        self._request_tasks: set = set()
        #: Live connections: each one's writer and the task handling it.
        self._connections: Dict[asyncio.StreamWriter, asyncio.Task] = {}

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> "LineServer":
        """Bind the listening socket."""
        if self.unix_socket:
            self._server = await asyncio.start_unix_server(
                self._handle_client, path=self.unix_socket)
        else:
            self._server = await asyncio.start_server(
                self._handle_client, host=self.host, port=self.port)
            # With port=0 the OS picked one; expose it for clients.
            self.port = self._server.sockets[0].getsockname()[1]
        return self

    @property
    def address(self) -> str:
        """Human-readable bound address (``host:port`` or the socket path)."""
        if self.unix_socket:
            return self.unix_socket
        return f"{self.host}:{self.port}"

    async def serve_forever(self) -> None:
        """Serve until cancelled; the caller then runs :meth:`aclose`.

        The listener already accepts since :meth:`start`.  This does not
        await ``asyncio.Server.serve_forever``: cancelled, that one waits
        for every client to leave, which Python 3.12 does for as long as
        one stays connected.
        """
        require(self._server is not None, "call start() before serve_forever()")
        await asyncio.get_running_loop().create_future()

    def abort(self) -> None:
        """Hard-stop, as if the runner process died: no drain, no goodbyes.

        Closes the listener and severs every live connection at the
        transport (clients see a reset, not EOF).  Shards already running
        in the pool still finish and persist -- exactly the store-backed
        recovery a cluster router relies on when it re-routes the cells
        this runner never answered.  The failover tests in
        ``tests/test_cluster.py`` are the contract.
        """
        if self._server is not None:
            self._server.close()
        for writer in list(self._connections):
            transport = writer.transport
            if transport is not None:
                transport.abort()

    async def aclose(self) -> None:
        """Stop accepting, finish in-flight requests, close every connection.

        Each live connection is closed once its in-flight requests have
        answered, and its handler is awaited: an idle client reads EOF,
        and no handler task outlives the server.
        """
        if self._server is not None:
            self._server.close()
        await asyncio.gather(*self._request_tasks, return_exceptions=True)
        handlers = list(self._connections.values())
        for writer in list(self._connections):
            writer.close()
        await asyncio.gather(*handlers, return_exceptions=True)
        # Requests the clients sent while the first ones were finishing.
        await asyncio.gather(*self._request_tasks, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self):
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose()

    # -- request handling ----------------------------------------------
    async def _next_line(self, reader: asyncio.StreamReader,
                         buffer: bytearray) -> Tuple[Optional[bytes], bool]:
        """The next newline-terminated line, bounded by ``max_line_bytes``.

        Returns ``(line, oversized)``; ``(None, _)`` on EOF (or a dead
        transport).  An oversized line is *discarded as it streams in* --
        its bytes are never accumulated past the bound nor parsed -- and
        reported as ``(b"", True)`` once its terminating newline arrives,
        so the caller can answer with a structured error and keep the
        connection alive.
        """
        oversized = False
        while True:
            newline = buffer.find(b"\n")
            if newline >= 0:
                line = bytes(buffer[:newline])
                del buffer[:newline + 1]
                if oversized or len(line) > self.max_line_bytes:
                    return b"", True
                return line, False
            if len(buffer) > self.max_line_bytes:
                oversized = True
                del buffer[:]
            try:
                chunk = await reader.read(_READ_CHUNK)
            except (ConnectionError, OSError):
                return None, oversized
            if not chunk:
                return None, oversized
            buffer.extend(chunk)

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        self.stats.connections += 1
        self._connections[writer] = asyncio.current_task()
        if self.socket_sndbuf is not None:
            sock = writer.get_extra_info("socket")
            if sock is not None:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF,
                                self.socket_sndbuf)
        if self.write_buffer_limit is not None:
            writer.transport.set_write_buffer_limits(
                high=self.write_buffer_limit)
        write_lock = asyncio.Lock()
        alive = True

        async def send(message: Union[Dict[str, Any], bytes]) -> None:
            """Write one response object, or ready-encoded response lines."""
            nonlocal alive
            if not alive:
                return  # dropped/dead connection; results stay persisted
            if not isinstance(message, bytes):
                message = _encode_line(message)
            async with write_lock:
                if not alive:
                    return
                try:
                    writer.write(message)
                    self.stats.writes += 1
                    if self.drain_timeout is not None:
                        await asyncio.wait_for(writer.drain(),
                                               self.drain_timeout)
                    else:
                        await writer.drain()
                except asyncio.TimeoutError:
                    # The client stalled reading while we had output to
                    # flush: drop it rather than pin buffers forever.
                    alive = False
                    self.stats.slow_reader_drops += 1
                    writer.transport.abort()
                except (ConnectionError, RuntimeError):
                    alive = False  # client went away; results stay persisted

        buffer = bytearray()
        try:
            while True:
                raw, oversized = await self._next_line(reader, buffer)
                if raw is None:
                    break
                if oversized:
                    self.stats.protocol_errors += 1
                    self.stats.oversized_lines += 1
                    await send({"id": None,
                                "error": "oversized request line "
                                         f"(> {self.max_line_bytes} bytes)"})
                    continue
                line = raw.strip()
                if not line:
                    continue
                try:
                    request = json.loads(line)
                    require(isinstance(request, dict),
                            "request lines must be JSON objects")
                except (json.JSONDecodeError, ValidationError) as exc:
                    self.stats.protocol_errors += 1
                    await send({"id": None, "error": f"bad request line: {exc}"})
                    continue
                task = asyncio.create_task(self._answer(request, send))
                self._request_tasks.add(task)
                task.add_done_callback(self._request_tasks.discard)
        finally:
            self._connections.pop(writer, None)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _answer(self, request: Dict[str, Any], send) -> None:
        """Serve one request line; what it raises becomes its reply."""
        self.stats.requests += 1
        try:
            await self._serve_request(request, send)
        except Rejected as exc:
            self.stats.rejections += 1
            await send({"id": request.get("id"), "rejected": True,
                        "error": str(exc)})
        except (ValidationError, ValueError, TypeError, KeyError,
                RuntimeError) as exc:
            await send({"id": request.get("id"),
                        "error": f"{type(exc).__name__}: {exc}"})

    async def _serve_request(self, request: Dict[str, Any], send) -> None:
        """Serve one request's op; a subclass's whole protocol."""
        raise NotImplementedError

    async def _unknown_op(self, request_id: Any, op: Any, send) -> None:
        """Answer an op this server does not serve: a protocol fault."""
        self.stats.protocol_errors += 1
        await send({"id": request_id, "error": f"unknown op {op!r}"})


class SweepServer(LineServer):
    """Newline-delimited-JSON front end over an :class:`AsyncSweepService`.

    One server wraps one service; connections are handled concurrently and
    every request line inside a connection is served concurrently too
    (responses are tagged with the request's ``id`` and may interleave --
    per-scenario results stream back the moment their futures resolve).
    The wire itself is :class:`LineServer`'s.

    Parameters
    ----------
    max_line_bytes:
        Longest request line accepted; longer lines are discarded without
        parsing and answered with a structured error (the connection
        survives).  Bounds per-connection buffer memory against oversized
        or hostile payloads.
    drain_timeout:
        With a value, a response write whose ``drain()`` stalls longer
        than this many seconds aborts the connection (counted in
        ``stats.slow_reader_drops``) -- a reader that stopped reading
        must not pin server memory.  ``None`` (default) waits forever.
    write_buffer_limit:
        Optional transport high-water mark in bytes (per connection);
        smaller values make ``drain()`` engage earlier.  Mostly for the
        slow-reader chaos tests and the load harness.
    socket_sndbuf:
        Optional ``SO_SNDBUF`` for accepted connections; shrinking it
        makes slow-reader behaviour reproducible (the kernel otherwise
        absorbs hundreds of KB before ``drain()`` ever blocks).
    admission_limit:
        With a value, a sweep arriving while ``queue_depth() +
        inflight_count()`` is at or above it is *rejected* immediately
        (``{"rejected": true}`` line, ``stats.rejections``) instead of
        blocking at the bounded queue.  ``None`` (default) keeps the pure
        backpressure behaviour.
    runner_id:
        Optional stable name of this runner inside a cluster (see
        :mod:`repro.cluster`); echoed in every ``ping`` reply and stamped
        on the service's ``metrics`` snapshot so an aggregating router
        can attribute counters per runner.
    """

    def __init__(self, service: AsyncSweepService, *,
                 host: str = "127.0.0.1", port: int = 0,
                 unix_socket: Optional[str] = None,
                 max_line_bytes: int = 1 << 20,
                 drain_timeout: Optional[float] = None,
                 write_buffer_limit: Optional[int] = None,
                 socket_sndbuf: Optional[int] = None,
                 admission_limit: Optional[int] = None,
                 runner_id: Optional[str] = None):
        super().__init__(host=host, port=port, unix_socket=unix_socket,
                         max_line_bytes=max_line_bytes,
                         drain_timeout=drain_timeout,
                         write_buffer_limit=write_buffer_limit,
                         socket_sndbuf=socket_sndbuf)
        require(admission_limit is None or admission_limit >= 0,
                "admission_limit must be >= 0 (or None)")
        self.service = service
        self.admission_limit = admission_limit
        self.runner_id = runner_id
        if runner_id is not None and service.runner_id is None:
            service.runner_id = runner_id

    async def start(self) -> "SweepServer":
        """Warm the service, then bind the listening socket."""
        await self.service.start()
        await super().start()
        return self

    async def aclose(self) -> None:
        """Close the wire (:meth:`LineServer.aclose`), then the service."""
        await super().aclose()
        await self.service.aclose()

    async def _serve_request(self, request: Dict[str, Any], send) -> None:
        request_id = request.get("id")
        op = request.get("op", "sweep")
        if op == "ping":
            reply = {"id": request_id, "pong": True}
            if self.runner_id is not None:
                reply["runner"] = self.runner_id
            await send(reply)
        elif op == "stats":
            stats = vars(self.service.stats).copy()
            stats["queue_depth"] = self.service.queue_depth()
            stats["inflight"] = self.service.inflight_count()
            stats["server"] = vars(self.stats).copy()
            await send({"id": request_id, "stats": stats})
        elif op == "metrics":
            metrics = self.service.snapshot()
            metrics["server"] = vars(self.stats).copy()
            await send({"id": request_id, "metrics": metrics})
        elif op in ("sweep", "sweep_spec"):
            await self._serve_sweep(request_id, op, request, send)
        elif op == "warm_cache":
            await self._serve_warm_cache(request_id, request, send)
        else:
            await self._unknown_op(request_id, op, send)

    async def _relay_ticket(self, request_id: Any, ticket, send,
                            cells: Optional[Sequence[str]] = None) -> None:
        """Send one line per slot as it resolves, then ``done``.

        The single owner of the per-slot response shape for every sweep
        flavour; ``cells`` adds the spec path's per-slot ``"cell"``
        digests.  Every line comes from one :class:`_SlotFramer`: a store
        hit's report is its stored bytes, a computed report is encoded
        once.  The lines of every slot already resolved leave in one
        write -- with the ``done`` line when no slot is left, so an
        all-hit sweep costs one write -- and slots still computing follow
        one line each.
        """
        framer = _SlotFramer(request_id, cells)

        def line(index: int, result) -> bytes:
            report = result.payload
            if report is not None:
                self.stats.reports_spliced += 1
            elif result.report is not None:
                self.stats.reports_encoded += 1
                report = _ENCODER.encode(
                    report_to_payload(result.report, result.key)).encode()
            return framer.line(index, result, report)

        async def relay(index: int, future: "asyncio.Future") -> None:
            await send(line(index, await future))

        done = _encode_line({"id": request_id, "done": True,
                             "count": len(ticket.futures),
                             "protocol": PROTOCOL_VERSION})
        waiting = [(i, f) for i, f in enumerate(ticket.futures) if not f.done()]
        ready = [line(i, f.result()) for i, f in enumerate(ticket.futures)
                 if f.done()]
        if not waiting:
            ready.append(done)
        if ready:
            await send(b"".join(ready))
        if waiting:
            await asyncio.gather(*[relay(i, f) for i, f in waiting])
            await send(done)

    async def _serve_sweep(self, request_id: Any, op: str,
                           request: Dict[str, Any], send) -> None:
        """Serve one ``sweep`` or ``sweep_spec``: submit, stream per cell."""
        if (self.admission_limit is not None
                and (self.service.queue_depth() + self.service.inflight_count())
                >= self.admission_limit):
            raise Rejected("overloaded: admission limit reached "
                           f"({self.admission_limit} requests pending)")
        items, method, options = parse_sweep_request(op, request)
        if op == "sweep_spec":
            ticket = await self.service.submit_specs(items, method, **options)
            await self._relay_ticket(request_id, ticket, send,
                                     [spec.cell_digest() for spec in items])
            return
        ticket = await self.service.submit(
            [problem_from_payload(p) for p in items], method, **options)
        await self._relay_ticket(request_id, ticket, send)

    async def _serve_warm_cache(self, request_id: Any,
                                request: Dict[str, Any], send) -> None:
        """Serve one ``warm_cache`` op: prewarm this runner's key range.

        The wire entry point of an elastic-resize warm handoff: the router
        sends its ring payload plus this runner's name before routing any
        traffic here, and the runner bulk-loads exactly that ring share
        from the store into its tier-1 LRU
        (:meth:`~repro.engine.async_service.AsyncSweepService.warm_cache`).
        Without a ring the whole store is warmed.  Replies one line:
        ``{"id", "warmed", "aliases"}``.
        """
        ring_payload = request.get("ring")
        owner = request.get("owner")
        ring = None
        if ring_payload is not None:
            # Imported here, not at module level: the cluster package's
            # router already imports this module for the wire helpers.
            from repro.cluster.ring import HashRing

            ring = HashRing.from_payload(ring_payload)
            require(isinstance(owner, str) and bool(owner),
                    "warm_cache with a ring needs the 'owner' runner name")
        limit = request.get("limit")
        require(limit is None or (isinstance(limit, int) and limit >= 0),
                "'limit' must be a non-negative integer")
        outcome = self.service.warm_cache(ring, owner, limit=limit)
        reply = {"id": request_id, "warmed": outcome["warmed"],
                 "aliases": outcome["aliases"]}
        if self.runner_id is not None:
            reply["runner"] = self.runner_id
        await send(reply)


# ---------------------------------------------------------------------------
# client helpers
# ---------------------------------------------------------------------------

class LineConnection:
    """One client connection to a JSON-lines server, replies routed by id.

    Every client of the protocol -- the one-shot helpers below, the
    cluster router's calls to its runners and the load harness -- talks
    through this class.  Many requests may be in flight on one
    connection: a reply line goes to the pending request with its
    ``id``, a per-slot line (one with ``"index"``) to that request's
    ``on_line`` callback, and the first line without ``"index"`` ends the
    request.  Lines for no pending id are dropped.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._pending: Dict[Any, Tuple[Optional[Callable[[Dict[str, Any]], Any]],
                                       "asyncio.Future"]] = {}
        self._write_lock = asyncio.Lock()
        #: Why the connection ended, once it has.
        self.lost: Optional[str] = None
        self._reader_task = asyncio.create_task(self._read_loop())

    @classmethod
    async def open(cls, *, host: str = "127.0.0.1", port: Optional[int] = None,
                   unix_socket: Optional[str] = None) -> "LineConnection":
        """Connect to a unix socket, or else to ``host:port``."""
        if unix_socket:
            reader, writer = await asyncio.open_unix_connection(
                unix_socket, limit=_REPLY_LINE_LIMIT)
        else:
            require(port is not None, "the client helpers need port= or unix_socket=")
            reader, writer = await asyncio.open_connection(
                host, port, limit=_REPLY_LINE_LIMIT)
        return cls(reader, writer)

    @classmethod
    async def request_once(cls, payload: Dict[str, Any], *,
                           host: str = "127.0.0.1", port: Optional[int] = None,
                           unix_socket: Optional[str] = None,
                           on_line: Optional[Callable[[Dict[str, Any]], Any]] = None,
                           ) -> Dict[str, Any]:
        """One request on a fresh connection; returns its final reply.

        Raises :class:`Rejected` on a ``rejected`` reply and
        :class:`ValidationError` on any other error reply.
        """
        connection = await cls.open(host=host, port=port, unix_socket=unix_socket)
        try:
            reply = await connection.request(payload, on_line=on_line)
        finally:
            await connection.aclose()
        if reply.get("rejected"):
            raise Rejected(f"server rejected the request: {reply.get('error')}")
        if reply.get("error"):
            raise ValidationError(f"server error: {reply['error']}")
        return reply

    async def send(self, message: Union[Dict[str, Any], bytes]) -> None:
        """Write one request object (or raw line bytes); await no reply."""
        if not isinstance(message, bytes):
            message = json.dumps(message).encode() + b"\n"
        async with self._write_lock:
            self._writer.write(message)
            await self._writer.drain()

    async def request(self, message: Union[Dict[str, Any], bytes], *,
                      on_line: Optional[Callable[[Dict[str, Any]], Any]] = None,
                      ) -> Dict[str, Any]:
        """Send one request; return its final reply line.

        A raw ``bytes`` line is answered under id ``null``: the server's
        reply to a line it could not take as a request.  Raises
        ``ConnectionError`` if the connection ends first, and
        :class:`ValidationError` if a reply line cannot be read (too long,
        not JSON, not an object) -- the server answered, so a caller must
        not take it for dead.
        """
        request_id = message.get("id") if isinstance(message, dict) else None
        if self._reader_task.done():
            raise ConnectionError(self.lost or "connection closed")
        require(request_id not in self._pending,
                f"request id {request_id!r} is already in flight")
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = (on_line, future)
        try:
            await self.send(message)
            return await future
        finally:
            self._pending.pop(request_id, None)

    async def _read_loop(self) -> None:
        failure: Callable[[str], Exception] = ConnectionError
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    self.lost = "server closed the connection"
                    break
                reply = json.loads(line)
                if not isinstance(reply, dict):
                    raise ValueError("not a JSON object")
                pending = self._pending.get(reply.get("id"))
                if pending is None:
                    continue
                on_line, future = pending
                if "index" not in reply:
                    del self._pending[reply.get("id")]
                    if not future.done():  # not cancelled meanwhile
                        future.set_result(reply)
                elif on_line is not None:
                    on_line(reply)
        except (ConnectionError, OSError) as exc:
            self.lost = f"connection lost: {exc}"
        except ValueError as exc:  # not JSON, not an object, or past the limit
            self.lost = f"unreadable reply line from server: {exc}"
            failure = ValidationError
        finally:
            for _, future in self._pending.values():
                if not future.done():
                    future.set_exception(
                        failure(self.lost or "connection closed"))

    async def aclose(self) -> None:
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, ConnectionError, OSError):
            pass
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _request_slots(payload: Dict[str, Any], expected: int, *,
                         host: str, port: Optional[int],
                         unix_socket: Optional[str]) -> List[Dict[str, Any]]:
    """Send one sweep request, collect its streamed per-slot responses.

    Returns the per-slot response dicts in batch order (the streamed order
    may differ; this helper reassembles it).  A failed scenario
    (``"source": "failed"``, ``"error": ...``) is a valid result slot, not
    a request error.  Raises :class:`ValidationError` on a server-reported
    request error.
    """
    slots: Dict[int, Dict[str, Any]] = {}
    await LineConnection.request_once(
        payload, host=host, port=port, unix_socket=unix_socket,
        on_line=lambda line: slots.__setitem__(line["index"], line))
    require(len(slots) == expected,
            f"server answered {len(slots)}/{expected} scenarios")
    return [slots[i] for i in range(expected)]


async def request_sweep(problems: Sequence[Problem], *,
                        host: str = "127.0.0.1", port: Optional[int] = None,
                        unix_socket: Optional[str] = None,
                        method: str = "auto",
                        options: Optional[Dict[str, Any]] = None,
                        request_id: str = "sweep-1",
                        ) -> List[Dict[str, Any]]:
    """One-shot asyncio client: sweep ``problems`` against a running server.

    Returns the per-scenario response dicts in batch order.  Raises
    :class:`ValidationError` on a server-reported request error.
    """
    payload = {"op": "sweep", "id": request_id,
               "scenarios": [problem_to_payload(p) for p in problems],
               "method": method, "options": options or {}}
    return await _request_slots(payload, len(problems), host=host,
                                port=port, unix_socket=unix_socket)


async def request_sweep_spec(scenarios: Union[ScenarioGrid,
                                              Sequence[ScenarioSpec]], *,
                             host: str = "127.0.0.1",
                             port: Optional[int] = None,
                             unix_socket: Optional[str] = None,
                             method: str = "auto",
                             options: Optional[Dict[str, Any]] = None,
                             request_id: str = "sweep-spec-1",
                             ) -> List[Dict[str, Any]]:
    """One-shot spec-native client: ship a grid (or specs), not DAGs.

    ``scenarios`` is a :class:`~repro.scenarios.spec.ScenarioGrid` --
    serialized whole, a few hundred bytes however many cells it expands to
    -- or a sequence of :class:`~repro.scenarios.spec.ScenarioSpec`
    records.  Returns the per-cell response dicts in expansion order; each
    carries the cell's request fingerprint under ``"key"`` (identical to
    what :func:`request_sweep` over the materialized problems reports) and
    its spec content digest under ``"cell"``.
    """
    if isinstance(scenarios, ScenarioGrid):
        expected = scenarios.size()
        payload: Dict[str, Any] = {"op": "sweep_spec", "id": request_id,
                                   "grid": scenarios.to_payload()}
    else:
        specs = list(scenarios)
        expected = len(specs)
        payload = {"op": "sweep_spec", "id": request_id,
                   "specs": [spec.to_payload() for spec in specs]}
    payload["method"] = method
    payload["options"] = options or {}
    return await _request_slots(payload, expected, host=host, port=port,
                                unix_socket=unix_socket)


async def request_metrics(*, host: str = "127.0.0.1",
                          port: Optional[int] = None,
                          unix_socket: Optional[str] = None,
                          request_id: str = "metrics-1") -> Dict[str, Any]:
    """One-shot asyncio client for the ``metrics`` op.

    Returns the server's counter snapshot
    (:meth:`~repro.engine.async_service.AsyncSweepService.snapshot` plus
    the wire-level :class:`ServerStats` under ``"server"``).  Raises
    :class:`ValidationError` on a server-reported error.
    """
    reply = await LineConnection.request_once(
        {"op": "metrics", "id": request_id},
        host=host, port=port, unix_socket=unix_socket)
    require(isinstance(reply.get("metrics"), dict),
            "metrics reply must carry a 'metrics' object")
    return reply["metrics"]


async def request_warm_cache(*, host: str = "127.0.0.1",
                             port: Optional[int] = None,
                             unix_socket: Optional[str] = None,
                             ring: Optional[Dict[str, Any]] = None,
                             owner: Optional[str] = None,
                             limit: Optional[int] = None,
                             request_id: str = "warm-1") -> Dict[str, Any]:
    """One-shot asyncio client for the ``warm_cache`` op.

    ``ring`` is a :meth:`HashRing.to_payload
    <repro.cluster.ring.HashRing.to_payload>` dict and ``owner`` the
    target runner's name; both omitted warms the server's whole store.
    Returns the reply dict (``{"warmed": ..., "aliases": ...}``).  Raises
    :class:`ValidationError` on a server-reported error.
    """
    payload: Dict[str, Any] = {"op": "warm_cache", "id": request_id}
    if ring is not None:
        payload["ring"] = ring
        payload["owner"] = owner
    if limit is not None:
        payload["limit"] = limit
    reply = await LineConnection.request_once(
        payload, host=host, port=port, unix_socket=unix_socket)
    require("warmed" in reply, "warm_cache reply must carry a 'warmed' count")
    return reply


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="JSON-lines-over-TCP/unix-socket front for the "
                    "asyncio sweep service.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7341,
                        help="TCP port (0 picks a free one; default 7341)")
    parser.add_argument("--unix", metavar="PATH", default=None,
                        help="serve on a unix socket instead of TCP")
    parser.add_argument("--store", metavar="DIR", default=None,
                        help="persistent SolutionStore directory (tier 2)")
    parser.add_argument("--manifest", metavar="PATH", default=None,
                        help="checkpoint completed request keys here")
    parser.add_argument("--executor", choices=("process", "thread"),
                        default="process")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker pool size (default: CPU count)")
    parser.add_argument("--concurrency", type=int, default=None,
                        help="max shards in flight (default: worker count)")
    parser.add_argument("--queue-size", type=int, default=64,
                        help="request queue bound (backpressure point)")
    parser.add_argument("--shard-size", type=int, default=1,
                        help="max scenarios per executor task")
    parser.add_argument("--time-limit", type=float, default=None,
                        help="per-solve soft time limit in seconds")
    parser.add_argument("--admission-limit", type=int, default=None,
                        help="reject sweeps (instead of blocking) once this "
                             "many requests are queued or in flight")
    parser.add_argument("--max-line-bytes", type=int, default=1 << 20,
                        help="longest accepted request line (default 1 MiB); "
                             "longer lines get a structured error")
    parser.add_argument("--drain-timeout", type=float, default=None,
                        help="drop a connection whose reader stalls longer "
                             "than this many seconds (default: wait forever)")
    parser.add_argument("--runner-id", default=None,
                        help="stable runner name inside a cluster; echoed "
                             "in ping replies and metrics snapshots")
    return parser


async def _run_server(args: argparse.Namespace) -> None:
    limits = SolveLimits(time_limit=args.time_limit) if args.time_limit else None
    service = AsyncSweepService(
        store=args.store,
        portfolio=Portfolio(executor=args.executor, max_workers=args.workers),
        limits=limits,
        max_concurrency=args.concurrency,
        queue_size=args.queue_size,
        shard_size=args.shard_size,
        manifest=args.manifest,
        runner_id=args.runner_id)
    server = SweepServer(service, host=args.host, port=args.port,
                         unix_socket=args.unix,
                         max_line_bytes=args.max_line_bytes,
                         drain_timeout=args.drain_timeout,
                         admission_limit=args.admission_limit,
                         runner_id=args.runner_id)
    await server.start()
    resume = ""
    if args.manifest:
        # start() above loaded the v2 manifest; say how much of an
        # interrupted sweep this runner will answer from disk.
        resume = f", resume={service.resume_cells} cells"
    print(f"repro.serve: listening on {server.address} "
          f"(executor={args.executor}, store={args.store or 'none'}"
          f"{resume})",
          flush=True)
    await serve_until_signalled(server, "repro.serve")


async def serve_until_signalled(front: LineServer, name: str) -> None:
    """Serve a started ``front`` until SIGINT or SIGTERM, then close it.

    Either signal cancels the serving task, so :meth:`LineServer.aclose`
    -- and with it a runner's service and worker pool -- runs however
    the process is stopped: Ctrl-C, ``timeout``, a process supervisor, or
    the teardown of ``python -m repro.cluster``.  The close itself is
    never cancelled: a repeated signal changes nothing.
    """
    serving = asyncio.ensure_future(front.serve_forever())
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, serving.cancel)
    try:
        await asyncio.wait([serving])
        if not serving.cancelled():
            serving.result()  # serve_forever only ends by failing
        print(f"{name}: shutting down", flush=True)
    finally:
        await front.aclose()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro.serve``."""
    args = _build_parser().parse_args(argv)
    try:
        asyncio.run(_run_server(args))
    except KeyboardInterrupt:  # pragma: no cover - Ctrl-C before serving
        print("repro.serve: shutting down", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
