"""Host-speed adjustment for the CPU-bound timings.

The 2-core VMs this benchmark runs on slow down for seconds to minutes
at a time (1.5-2x on every CPU-bound timing, with almost no steal time
reported), so raw wall times of whole runs spread wider than any useful
regression bound.  A fixed kernel timed next to each measured unit
slows down with them: small-array numpy calls in a Python loop, the
shape of the engine's and the room solver's inner loops, and none of
the program's code.  A unit's wall time is scaled by ``NOMINAL_S`` over
the kernel's time around it, which reads as the wall time on the host
at its usual speed.

In a 15-minute trace on the baseline machine, alternating the kernel
with a CP sweep point, an HF sweep point, a room derating curve and a
set-up process, the medians of 12-s windows spread (IQR over median)
11-13% raw and 3% adjusted; the slowest window read 1.4-1.6x the
median raw and 1.07-1.15x adjusted.  Single samples stay noisy: the
host's speed also jitters by about 10% below a second, so a kernel run
on each side of a unit (their geometric mean) tracks it better than one.

Set-up time (process spawn, imports, worker start) slows down about
half as much as the kernel: in two 10-run sets of every workload, the
run medians of set-up time spread 11-33% raw, 5-13% scaled by the
kernel ratio's square root and up to 23% scaled by the full ratio.
``SETUP_SENSITIVITY`` is that exponent.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: The kernel's median time over that trace (2-core x86_64 VM).
NOMINAL_S = 0.025
SETUP_SENSITIVITY = 0.5
_ITERATIONS = 5000
_X = np.linspace(0.1, 1.0, 180)
_FLOOR = np.full(180, 0.5)


def kernel_s() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    total = 0.0
    for _ in range(_ITERATIONS):
        y = np.maximum(_X * 1.01, _FLOOR)
        total += float(y[_X > 0.5].sum()) + int(np.argmin(y))
    return time.perf_counter() - t0


def adjusted(wall_s: float, kernel: float, sensitivity: float = 1.0) -> float:
    """``wall_s`` at the host's usual speed, given the kernel's time.

    ``sensitivity`` is how strongly the timing follows the kernel: the
    exponent of the kernel's slowdown that the timing shares.
    """
    return wall_s * (NOMINAL_S / kernel) ** sensitivity


class HostTimer:
    """Times units of work with a kernel run between each two units."""

    def __init__(self) -> None:
        self._kernel = None

    def time(self, call):
        """Run ``call()``; return ``(value, wall_s, adjusted_s)``."""
        before = self._kernel if self._kernel is not None else kernel_s()
        t0 = time.perf_counter()
        value = call()
        wall = time.perf_counter() - t0
        self._kernel = kernel_s()
        return value, wall, adjusted(wall, math.sqrt(before * self._kernel))
