"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by a
third from one few-second stretch to the next.  A raw pass time mostly
measures that drift.  So every timing of run.py is bracketed by this fixed
kernel: tamed Euler loops on a 1024-vector, one drawing its noise step by
step and one reading pre-drawn noise from a 1024 x 256 matrix and storing
the path in a 1024 x 257 one.  That is the mix of interpreter dispatch,
small numpy operations and strided memory traffic of the monosde kernels.
It runs in the benchmark's own process between passes, on each CPU the
passes run on.  A measured time is reported in reference seconds,

    measured * REF_S / mean(kernel time just before, kernel time just after),

which is what it would read on a machine where the kernel takes REF_S.  The
kernel is part of the benchmark, not of monosde, so no change to the
program moves it.
"""

import os
import statistics
import time

import numpy as np

#: The kernel's time on the reference machine: about its median on a 2-vCPU
#: Xeon VM (Python 3.11, numpy 2.4, OpenBLAS 0.3.31, one BLAS thread).
REF_S = 0.05
REPEATS = 3


def _step(x, dw):
    d = x - x * x * x
    return x + d / 256 / (1 + np.abs(d) / 256) + x * dw


def kernel() -> float:
    g = np.random.default_rng(5)
    x = np.ones(1024)
    for _ in range(1000):
        x = _step(x, g.standard_normal(1024) * 0.06)
    dw = g.standard_normal((1024, 256)) * 0.06
    path = np.empty((1024, 257))
    path[:, 0] = 1.0
    for j in range(256):
        path[:, j + 1] = _step(path[:, j], dw[:, j])
    return float(x[0] + path[0, -1])


def measure() -> float:
    """Seconds of the fastest of REPEATS runs of the kernel."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Calibrated:
    """Scales consecutive timings to reference seconds.  Call start() right
    before the first timed step; each scale() then measures the kernel once
    and uses that reading as the 'after' of this step and the 'before' of
    the next.  A reading is the mean of measure() over `cpus`, with this
    process pinned to each in turn."""

    def __init__(self, cpus):
        self.cpus = sorted(cpus)

    def _reading(self) -> float:
        mask = os.sched_getaffinity(0)
        times = []
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(measure())
        os.sched_setaffinity(0, mask)
        return statistics.mean(times)

    def start(self) -> None:
        self.before = self._reading()

    def scale(self, seconds: float) -> float:
        after = self._reading()
        factor = REF_S / ((self.before + after) / 2)
        self.before = after
        return seconds * factor
