"""A fixed piece of work that the end-to-end timings are expressed in.

On a shared host the CPU's speed drifts by a factor of 1.2 to 1.6, over
seconds to minutes, while other tenants contend for it, so a whole run can
land in a slow stretch and no statistic taken within the run removes that.
The yardstick is timed about every 0.1 s between the program's calls, all
through the run: in the benchmark's process, and in the pool workers while
they featurize. :meth:`Yardstick.seconds` turns a stretch of the run into
reference seconds (``ref-s``): each piece of it is scaled by ``NOMINAL_S``
over the mean of the two yardstick samples either side of it, so it is the
time the work would take on a host where one yardstick call takes
``NOMINAL_S``. The yardstick's calls in this process are left out. Over five
featurize-ref seeds on a 2-CPU Intel Xeon VM, scaling each window by the
yardstick sample next to it cut the quartile spread of the 25-window pass
time from 0.15 to 0.03 of its median.

The work mixes what the program spends its time on: extrema and a natural
cubic spline through them on a 3897-sample series (EMD sifting), a 3x3
convolution as nine shifted matrix products (the NN engine), and a loop of
interpreted Python. Its inputs are fixed, so it does the same work in every
run of every commit, and it calls nothing in ``vibediag``.
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_left, bisect_right

import numpy as np
from scipy.interpolate import CubicSpline

# About the median of one call on a 2-CPU Intel Xeon VM with Python 3.11,
# numpy 2.4 and one OpenBLAS thread; it only sets the scale of ref-s.
NOMINAL_S = 0.0025
PERIOD_S = 0.1  # least time between the samples that due() takes
NEIGHBOURS = 1  # samples on each side whose median scales a stretch


class Yardstick:
    def __init__(self):
        rng = np.random.default_rng(20211216)
        self.series = rng.standard_normal(3897)
        self.grid = np.arange(3897, dtype=float)
        self.image = np.pad(rng.standard_normal((20, 16, 16, 8)), ((0, 0), (1, 1), (1, 1), (0, 0)))
        self.kernels = rng.standard_normal((3, 3, 8, 16))
        self.active = True
        # (start, end, seconds of the timed call): runs in this process, and
        # runs in other processes, which only tell the host's speed.
        self.runs: list[tuple[float, float, float]] = []
        self.remote: list[tuple[float, float, float]] = []

    def _once(self) -> float:
        x = self.series
        d = np.diff(x)
        for peaks in ((d[:-1] > 0) & (d[1:] <= 0), (d[:-1] < 0) & (d[1:] >= 0)):
            idx = np.flatnonzero(peaks) + 1
            envelope = CubicSpline(self.grid[idx], x[idx], bc_type="natural")(self.grid)
        out = np.zeros((20 * 16 * 16, 16))
        for di in range(3):
            for dj in range(3):
                out += self.image[:, di:di + 16, dj:dj + 16, :].reshape(-1, 8) @ self.kernels[di, dj]
        acc = 0
        for i in range(4000):
            acc += i * i % 7
        return float(envelope[0] + out[0, 0] + acc)

    def sample(self) -> None:
        """One timed call, after an untimed one that brings the yardstick's
        data back into cache; nothing while inactive."""
        if not self.active:
            return
        start = time.perf_counter()
        self._once()
        t = time.perf_counter()
        self._once()
        end = time.perf_counter()
        self.runs.append((start, end, end - t))

    def due(self) -> None:
        """Sample if PERIOD_S has passed since the last sample."""
        if not self.runs or time.perf_counter() - self.runs[-1][1] >= PERIOD_S:
            self.sample()

    def median_s(self) -> float:
        return statistics.median(r[2] for r in self.runs + self.remote)

    def _own(self, start: float, end: float) -> float:
        """Time from ``start`` to ``end`` outside this process's yardstick runs."""
        total = end - start
        for run_start, run_end, _ in self.runs[bisect_right([r[1] for r in self.runs], start):]:
            if run_start >= end:
                break
            total -= min(end, run_end) - max(start, run_start)
        return total

    def seconds(self, start: float, end: float, reference: bool = True) -> float:
        """Time from ``start`` to ``end`` outside this process's yardstick
        runs; in reference seconds, or measured seconds if not ``reference``.

        The stretch is cut at the midpoint of every sample inside it. The
        piece between the midpoints of samples ``i - 1`` and ``i`` is scaled
        by the median of the NEIGHBOURS samples on each side of it.
        """
        if not reference:
            return self._own(start, end)
        samples = sorted(((a + b) / 2, took) for a, b, took in self.runs + self.remote)
        mids = [m for m, _ in samples]
        first, last = bisect_right(mids, start), bisect_left(mids, end)
        cuts = [start, *mids[first:last], end]
        total = 0.0
        for i, (lo, hi) in enumerate(zip(cuts, cuts[1:]), start=first):
            near = [took for _, took in samples[max(0, i - NEIGHBOURS):i + NEIGHBOURS]]
            total += self._own(lo, hi) * NOMINAL_S / statistics.median(near)
        return total
