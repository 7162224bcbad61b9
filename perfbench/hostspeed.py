"""How fast the host runs right now, from a fixed probe that runs no program code.

The benchmark's host is a few cores of a shared machine, and its speed
drifts by tens of percent between minutes as other tenants come and go:
the same study can take twice as long in one run as in a run a few
minutes later.  A timed run therefore interleaves this probe with its
studies and scales every timing by ``REFERENCE_S / mean probe time``,
which gives seconds on a host that runs the probe in :data:`REFERENCE_S`.

The probe does the kinds of work the program does (interpreted loops over
dicts and lists, many NumPy calls on small arrays, elementwise work and
sorts on arrays of 16,384 elements, a small linear solve), on fixed
inputs, and touches no program code: a change to the program moves the
scaled figures, and most of a change in host speed does not.  On the
2-vCPU VM the benchmark was tuned on, scaling cut the spread between
20-second windows of one long study loop by a third to two thirds; what
it leaves is the program's own response to the host differing from the
probe's, and the disk, which the probe does not touch.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Mean probe time on the 2-vCPU 2.1 GHz Xeon VM the benchmark was tuned
#: on; the scaled timings are seconds at that speed.
REFERENCE_S = 0.009
WARMUP_RUNS = 10
#: Share of the probe's samples left out at each end of their mean.
TRIM = 0.05


class Probe:
    """The probe, on its fixed inputs."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._words = rng.integers(0, 1 << 16, size=1 << 14, dtype=np.int64)
        self._values = rng.standard_normal(1 << 14)
        self._matrix = rng.standard_normal((24, 24))
        # The first runs pay for lazy set-up in NumPy.
        for _ in range(WARMUP_RUNS):
            self.run()

    def _python(self) -> int:
        counts = {}
        total = 0
        for i in range(6000):
            key = i % 97
            counts[key] = counts.get(key, 0) + i
            total ^= hash((key, i)) & 0xFF
        return total + len(sorted(str(value) for value in counts.values()))

    def _small_arrays(self) -> float:
        total = 0.0
        row = self._matrix[0]
        for _ in range(300):
            row = np.tanh(row * 0.5 + self._matrix[1]) - row.mean()
            total += float(np.abs(row).max())
        return total

    def _arrays(self) -> float:
        words = self._words
        mixed = (words * 2654435761) & 0xFFFF
        total = float(np.unique(mixed).size) + float(((words >> 3) ^ mixed).sum())
        total += float(np.sort(self._values).sum() + (self._values * 1.5 + self._values[::-1]).sum())
        gram = self._matrix @ self._matrix.T + 24.0 * np.eye(24)
        return total + float(np.linalg.solve(gram, self._matrix[:, 0]).sum())

    def run(self) -> float:
        """Run the probe once; returns its wall time in seconds."""
        start = time.perf_counter()
        self._python()
        self._small_arrays()
        self._arrays()
        return time.perf_counter() - start


def scale(samples) -> float:
    """Factor from host seconds to seconds at reference speed, for work done
    while the probe took ``samples``.

    The host switches between a fast and a slow state (the probe's times
    cluster around two values), and work slows down in proportion to the
    time spent in the slow one, which a mean follows and a median does not;
    the mean leaves out the fastest and slowest :data:`TRIM` of the samples,
    so one long preemption does not move it.
    """
    samples = sorted(samples)
    cut = int(len(samples) * TRIM)
    return REFERENCE_S / statistics.fmean(samples[cut : len(samples) - cut])
