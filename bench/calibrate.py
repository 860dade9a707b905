"""The machine-speed yardstick: a fixed kernel, independent of ccdrobust,
timed between a run's operations.

A shared machine's other tenants slow every process on it, the package and
this kernel alike, in spells of seconds to minutes.  Dividing an operation's
time by the kernel's time around it cancels that slowdown; multiplying by
REFERENCE_S turns the quotient back into seconds on a machine where the
kernel takes REFERENCE_S.  The kernel mixes what the workloads do: an
interpreter loop over small Python objects, small dense solves, and a
quadratic form streamed over a 20 MB array, like the large arrays of the
G-grid search and the Monte-Carlo oracle.  It allocates no large array,
so the state of the worker's heap does not move its time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The kernel's time on the 2-vCPU Xeon the bounds were set on, in a quiet
# spell.  A constant of the benchmark: change it and every time moves.
REFERENCE_S = 14e-3
BURST = 3       # kernel runs per calibration; their median is kept
EVERY_S = 0.2   # the longest stretch of operations between two calibrations

_rng = np.random.default_rng(12345)
_M = _rng.random((21, 21))
_M = _M @ _M.T + 21 * np.eye(21)
_B = _rng.random((21, 4))
_X = _rng.random((120000, 21))   # 20 MB
_Y = np.empty_like(_X)


def kernel() -> float:
    s = 0
    d = {}
    for i in range(18000):
        d[i & 63] = s
        s += i * i % 7
    for _ in range(45):
        np.linalg.solve(_M, _B)
    np.matmul(_X, _M, out=_Y)
    np.multiply(_Y, _X, out=_Y)
    return s + float(_Y.sum())


def measure() -> float:
    """Median time of BURST kernel runs, in seconds."""
    times = []
    for _ in range(BURST):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Yardstick:
    """Calibrates between operations, at least every EVERY_S; each
    operation's speed factor is REFERENCE_S over the mean of the
    calibrations just before and just after it."""

    def __init__(self):
        kernel()  # the first run pays one-time costs: page faults, lazy imports
        self.cals = [measure()]
        self.last = time.perf_counter()
        self.segments: list[int] = []

    def before_op(self) -> None:
        if time.perf_counter() - self.last >= EVERY_S:
            self.cals.append(measure())
            self.last = time.perf_counter()
        self.segments.append(len(self.cals) - 1)

    def factors(self) -> list[float]:
        self.cals.append(measure())
        return [2 * REFERENCE_S / (self.cals[s] + self.cals[s + 1]) for s in self.segments]
