"""The host's speed, measured beside the program, so that timings can be
given at one reference speed.

The shared host this benchmark was tuned on does not run at a steady
speed: over ten minutes the warm read path went from 1,150 to 2,120 cells
per second on identical code and inputs, and a plain Python loop swings
by a quarter from one 30-s window to the next (see ``README.md``).  A
timing taken in wall-clock seconds follows the host, not the program.

So the benchmark also times a fixed slice of pure-Python work, :func:`step`,
in short samples interleaved with its timed phase, on the CPU the
program is pinned to, while the program has no work in flight: the
samples see the host as the program sees it, time taken by the
hypervisor included, and nothing of the program.
:attr:`SpeedMeter.factor` is the measured rate over
:data:`REFERENCE_RATE`, and a timing multiplied by it is the time the
same work would take on a host running ``step`` at exactly the
reference rate.
"""

from __future__ import annotations

import json
import time
from typing import Dict

#: ``step`` calls per second on the host the bounds were set on, taken as
#: the speed every bounded timing is reported at.
REFERENCE_RATE = 12000.0
#: Seconds of one sample.
SAMPLE_SECONDS = 0.1


def step() -> int:
    """A fixed slice of the work the program does most: bytecode, dict and
    list operations, small allocations, string formatting and JSON."""
    table: Dict[str, int] = {}
    for index in range(120):
        key = f"k{index % 31}"
        table[key] = table.get(key, 0) + index
    return len(json.dumps(sorted(table.items())))


class SpeedMeter:
    """Accumulates ``step`` calls and the seconds they took."""

    def __init__(self) -> None:
        self.steps = 0
        self.seconds = 0.0

    def sample(self, seconds: float = SAMPLE_SECONDS) -> None:
        """Run ``step`` for ``seconds``."""
        start = time.perf_counter()
        steps = 0
        while True:
            step()
            steps += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                break
        self.steps += steps
        self.seconds += elapsed

    @property
    def rate(self) -> float:
        """``step`` calls per second over every sample so far."""
        return self.steps / self.seconds if self.seconds else 0.0

    @property
    def factor(self) -> float:
        """Measured rate over :data:`REFERENCE_RATE`: above 1 on a host
        faster than the reference."""
        return self.rate / REFERENCE_RATE
