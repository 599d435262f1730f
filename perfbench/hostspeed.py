"""Host-speed probe: a fixed CPU kernel timed next to the measured work.

On a shared host the CPU's speed drops by up to ~1.9x for seconds to
minutes at a time (a neighbour on the same core), and the program's
timings swing with it: run medians of the same code 25% apart, with no
change in between.  A fixed kernel of the same kind of work — dict and
list churn, small numpy array ops, string sorting — slows down with the
program (correlation ~0.85 with a cold detection study timed between two
probes, on a 2-vCPU x86 VM), so timings are reported in *reference
seconds*: measured seconds divided by ``speed()``, the mean kernel time
over the run relative to ``REFERENCE_S``.  On a host running at the
reference speed the two are the same; a change to the program moves
reference seconds exactly as it moves measured ones, because the kernel
runs none of the program's code.
"""

from __future__ import annotations

import time
from statistics import fmean, median

import numpy as np

#: Kernel time at full speed on a 2-vCPU x86 VM (measured: 3.5-3.7 ms).
REFERENCE_S = 0.0036
#: Kernel runs per probe; the probe reports their median, so one
#: preempted run does not count.
RUNS = 3


def _kernel() -> float:
    began = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(20_000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    values = np.arange(20_000, dtype=np.float64)
    for _ in range(20):
        values = np.sqrt(values * 1.0001 + 1.0)
    sorted(str(i) for i in range(5_000))
    return time.perf_counter() - began


def probe() -> float:
    """The kernel's time now: the median of ``RUNS`` runs, in seconds."""
    return median(_kernel() for _ in range(RUNS))


def speed(probes: list[float]) -> float:
    """How much slower than the reference the host ran (1.0 = as fast).

    The mean, not the median: the host's speed is bimodal, and a mean
    over probes spread across a run tracks the run's mix of the two
    speeds, as the run's own timings do.
    """
    return fmean(probes) / REFERENCE_S
