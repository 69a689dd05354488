"""Start ``repro.serve`` pinned to one CPU, optionally traced.

Usage::

    python3 perfbench/launch_server.py --cpu 1 [--trace-out spans.jsonl] \\
        -- --executor thread --workers 1 --unix s.sock --store DIR

Everything after ``--`` goes to :func:`repro.serve.main` unchanged.  With
``--trace-out`` the benchmark's wrappers are installed first and the
server's spans are written there when it exits.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import signal
import sys


def _die_with_parent() -> None:
    """Ask the kernel to kill this server if the benchmark dies first."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(prog="launch_server.py")
    parser.add_argument("--cpu", type=int, default=-1)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv[:split])
    serve_args = argv[split + 1:]

    _die_with_parent()
    if args.cpu >= 0:
        os.sched_setaffinity(0, {args.cpu})

    import repro.serve

    if args.trace_out is None:
        return repro.serve.main(serve_args)
    from tracing import Tracer

    tracer = Tracer().install()
    try:
        return repro.serve.main(serve_args)
    finally:
        tracer.remove()
        tracer.write_jsonl(args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
