"""Host-speed calibration, so that timings do not follow the host's drift.

On the shared two-core host this benchmark was built on, the wall time of
Python-bound and small-matrix work drifts by up to +-25 % in phases lasting
seconds to tens of seconds, and its CPU time drifts with it. A fixed kernel
that touches nothing of tbbands (a small symmetric ``eigh``, a matrix product,
a 4 MiB streaming pass and a pure-Python loop) slows down in step, so the
timing of such work is scaled by ``REFERENCE_S / kernel time measured around
it``: the time it takes on this host at its reference speed. The kernel does
not follow dense work at N = 900, which the benchmark leaves unscaled.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time on the reference host: 2-core VM, numpy 2.4.6 with
# OpenBLAS 0.3.31 on one thread. It sets the scale of every reported time,
# not its run-to-run spread.
REFERENCE_S = 0.0036

REPEATS = 11


class Calibration:
    """The kernel's fixed inputs; :meth:`sample` times it."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        sym = rng.standard_normal((96, 96))
        self.sym = sym + sym.T
        self.square = rng.standard_normal((200, 200))
        self.stream = rng.standard_normal(1 << 19)

    def _once(self) -> float:
        started = time.perf_counter()
        np.linalg.eigh(self.sym)
        self.square @ self.square
        np.roll(self.stream, 1).sum()
        total = 0
        for i in range(20000):
            total += i * i
        return time.perf_counter() - started

    def sample(self) -> float:
        """Median kernel time over REPEATS calls."""
        return statistics.median(self._once() for _ in range(REPEATS))


def scale(before: float, after: float) -> float:
    """Factor taking a time measured between two samples to the reference speed."""
    return REFERENCE_S / ((before + after) / 2.0)
