"""The benchmark's own JSON-lines client and the server process it drives.

The client is deliberately minimal (one blocking unix socket, one request
in flight), so changes to :mod:`repro.loadgen` or to the library's asyncio
helpers cannot move the benchmark's numbers.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Environment that keeps BLAS/OpenMP pools at one thread in every process.
SINGLE_THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


class LineClient:
    """A blocking JSON-lines client on one unix-socket connection."""

    def __init__(self, path: str, timeout: float = 60.0):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(path)
        self.reader = self.sock.makefile("rb")

    def request(self, line: bytes, request_id: Any) -> Tuple[List[Dict[str, Any]],
                                                             Dict[str, Any]]:
        """Send one request line; return ``(result lines, final line)``.

        The final line is the request's ``done`` line, or the error /
        rejection line that ended it instead.
        """
        self.sock.sendall(line)
        lines: List[Dict[str, Any]] = []
        while True:
            raw = self.reader.readline()
            if not raw:
                raise ConnectionError("server closed the connection")
            message = json.loads(raw)
            if message.get("id") != request_id:
                raise ValueError(f"reply for an unexpected request: {message!r}")
            if message.get("done") or "index" not in message:
                return lines, message
            lines.append(message)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class ServerProcess:
    """``repro.serve`` started through ``launch_server.py``.

    Readiness is the server's ``listening`` line on stdout, never a sleep
    or a connection poll.  :meth:`stop` interrupts the server the way a
    terminal would, so it drains, closes and (when traced) writes its
    spans before exiting.
    """

    def __init__(self, root: str, serve_args: Sequence[str], *,
                 cpu: Optional[int], trace_out: Optional[str], log_path: str,
                 ready_timeout: float = 60.0):
        launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "launch_server.py")
        command = [sys.executable, launcher,
                   "--cpu", str(-1 if cpu is None else cpu)]
        if trace_out:
            command += ["--trace-out", trace_out]
        command += ["--", *serve_args]
        env = dict(os.environ, **SINGLE_THREAD_ENV)
        env["PYTHONPATH"] = os.path.join(root, "src")
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(command, cwd=root, env=env,
                                     stdout=subprocess.PIPE, stderr=self._log)
        try:
            self._wait_listening(ready_timeout)
        except BaseException:
            self.stop()
            raise

    def _wait_listening(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        buffer = b""
        fd = self.proc.stdout.fileno()
        while b"listening" not in buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("server printed no listening line")
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise RuntimeError(
                        f"server exited before listening (code {self.proc.wait()})")
                buffer += chunk

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``) in MiB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self, timeout: float = 30.0) -> int:
        """Interrupt the server and wait until it has exited."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode
