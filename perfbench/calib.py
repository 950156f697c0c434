"""Host-speed calibration.

The benchmark runs on shared machines, where the same code can run 50%
slower for tens of seconds while neighbours are busy. Each workload process
therefore times a fixed kernel between its operations: interpreter work, small
numpy ops and a BLAS matmul on all cores, as the workloads mix them.
``run.py`` reports every end-to-end timing scaled to a host on which the
kernel takes ``REFERENCE_S``: a time t becomes ``t / factor`` and a rate r
becomes ``r * factor``, where ``factor`` is the run's median kernel time over
``REFERENCE_S``. The unscaled values stay in the result file. The kernel is
the benchmark's own code, so a change to the program does not move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The median kernel time on the 2-core machine the benchmark was written on.
REFERENCE_S = 0.0075
EVERY_S = 0.1  # the least time between samples taken through ``maybe``


class Calibrator:
    """Times the kernel, at most once per ``EVERY_S`` via ``maybe``."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.normal(size=(32, 32)), rng.normal(size=(32, 32)) / 6
        self._big = rng.normal(size=(256, 1024)), rng.normal(size=(1024, 256))
        self.samples: list[float] = []
        self._last = -float("inf")

    def _kernel(self) -> None:
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        table = {}
        for i in range(2000):
            table[str(i)] = i
        a, b = self._small
        for _ in range(100):
            a = np.tanh(a @ b) + 0.5 * a
        c, d = self._big
        for _ in range(2):
            (c @ d).sum()

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t = time.perf_counter()
            self._kernel()
            self.samples.append(time.perf_counter() - t)
        self._last = time.perf_counter()

    def maybe(self) -> None:
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()


def factor(samples: list[float]) -> float:
    """How much slower than the reference host the kernel ran (median)."""
    return statistics.median(samples) / REFERENCE_S
