"""Host-speed calibration: timings in seconds at a reference speed.

The throughput of a shared virtual CPU is not constant: on the reference
host the same optimizer run takes 34 ms in some stretches and 60 ms in
others, and a stretch lasts from a fraction of a second to minutes.  Wall
times of identical work therefore move by up to 1.7x between runs, far
more than any regression bound could allow.

`SpeedLog` times a fixed reference kernel (plain Python and numpy, nothing
from the program) between pieces of measured work, and `to_reference`
maps raw `time.perf_counter()` readings onto a clock that advances at
`REFERENCE_S / kernel time` of wall time: between two kernel runs the host
is taken to run at the mean speed the two measured, and the kernel runs
themselves take no time on that clock.  A duration on it reads as the
seconds the same work would take on a host where the kernel takes
`REFERENCE_S`.  A change to the program moves these durations as it moves
wall time; a change of host speed, which slows the kernel as it slows the
program, mostly cancels.
"""

import math
import time

import numpy as np

# About the time of `kernel()` in the reference host's fast stretches (see
# README.md), so reference seconds read close to wall seconds there.  It
# fixes the scale of the reference clock, not its steadiness.
REFERENCE_S = 2.0e-3
# Inside an optimizer run the kernel runs at the first iteration that ends
# at least this long after the previous kernel run ended.
EVERY_S = 0.04

_MATRIX = np.random.default_rng(0).standard_normal((2000, 20))
_VEC = np.linspace(-1.0, 1.0, 20)
_TALL = np.random.default_rng(1).standard_normal((12, 10))
# Output buffers: the kernel allocates no large array, so running it inside
# an optimizer run does not change how the process's heap grows.
_PRODUCT = np.empty(2000)
_WORK = np.empty_like(_TALL)


def kernel() -> float:
    """A fixed mix of matrix-vector products, small numpy operations on
    columns of a tiny matrix with scalar math in between, and plain
    interpreter work: the kinds of work the program's optimizer loops and
    its Jacobi SVD are made of."""
    acc = 0.0
    for _ in range(100):
        acc += float(np.matmul(_MATRIX, _VEC, out=_PRODUCT)[0])
    np.copyto(_WORK, _TALL)
    for _ in range(3):
        for i in range(9):
            for j in range(i + 1, 10):
                ci, cj = _WORK[:, i], _WORK[:, j]
                cc = float(ci @ cj)
                cs = 1.0 / math.hypot(1.0, cc * 1e-3)
                _WORK[:, j] = cs * cj - 1e-3 * ci
                acc += cc
    for i in range(5000):
        acc += (i * i) % 7
    return acc


class SpeedLog:
    """Start and end of every kernel run of a process, in raw time."""

    def __init__(self):
        self.starts = []
        self.ends = []

    def calibrate(self) -> None:
        t0 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def calibrate_if_due(self) -> None:
        if time.perf_counter() - self.ends[-1] >= EVERY_S:
            self.calibrate()

    def to_reference(self, raw):
        """Raw perf_counter readings (a number or an array) on the
        reference clock.  Readings must lie between the first and the last
        kernel run; the clock stands still during kernel runs."""
        starts, ends = np.asarray(self.starts), np.asarray(self.ends)
        durations = ends - starts
        rate = REFERENCE_S / (0.5 * (durations[:-1] + durations[1:]))
        gaps = (starts[1:] - ends[:-1]) * rate
        at_end = np.concatenate(([0.0], np.cumsum(gaps)))
        knots = np.column_stack((starts, ends)).ravel()
        return np.interp(raw, knots, np.repeat(at_end, 2))

    def seconds(self, t0: float, t1: float) -> float:
        """Reference-clock seconds between two raw readings."""
        a, b = self.to_reference(np.array([t0, t1]))
        return float(b - a)
