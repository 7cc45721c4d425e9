"""Host-speed gauge sampled while the workload runs.

On a shared host the same call can take up to twice as long from one
second to the next, for reasons outside the process (its wall and CPU
time grow together), and slow stretches can last a whole run.  Every
``INTERVAL`` seconds a timer signal runs a fixed snippet in the
benchmark's own code and records how long it took.  An operation's time,
less the snippet's own time in that interval, divided by the mean snippet
time over the interval and multiplied by the snippet's reference time, is
the operation's time at a fixed host speed.

The snippet has to slow down as the program does.  The default, three
simplex projections of a 100-vector, did so for interpreter-bound work:
side by side with the program's small-numpy loops it kept their ratio
within 2% while each swung by up to 1.9x.  A workload can switch to its
own snippet after set-up (``Gauge.use``); each sample is kept as its time
over its snippet's reference time, so the switch does not break the series.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL = 0.01
OUTLIER = 4.0   # samples this many times their interval's median: cut short


def simplex_projection(z: np.ndarray) -> np.ndarray:
    """Sort-and-threshold projection onto the simplex, in plain numpy."""
    u = np.sort(z)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, z.size + 1)
    rho = ks[u - css / ks > 0][-1]
    return np.maximum(z - css[rho - 1] / rho, 0.0)


# the default snippet's time at the reference host speed, near its median
# time in a run on a 2-vCPU 2.1 GHz Xeon VM with OpenBLAS pinned to 1 thread
REFERENCE_S = 50e-6


class Gauge:
    def __init__(self):
        z = np.random.Generator(np.random.Philox(0)).standard_normal(100)
        self.use(lambda: [simplex_projection(z) for _ in range(3)],
                 REFERENCE_S, warm_up=lambda: simplex_projection(z))
        self.ends: list = []        # perf_counter at the end of each sample
        self.slowdown: list = []    # each sample's time over its reference
        self.busy: list = []        # each sample's whole time in the handler
        self._previous = None

    def use(self, snippet, reference_s: float, warm_up=None) -> None:
        """Time ``snippet`` from the next sample on; ``reference_s`` is its
        time at the reference host speed."""
        self._snippet, self._reference_s = snippet, reference_s
        self._warm_up = warm_up   # untimed: the workload evicted the snippet

    def _sample(self, signum, frame):
        begin = time.perf_counter()
        if self._warm_up is not None:
            self._warm_up()
        start = time.perf_counter()
        self._snippet()
        end = time.perf_counter()
        self.ends.append(end)
        self.slowdown.append((end - start) / self._reference_s)
        self.busy.append(end - begin)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _window(self, start: float, end: float):
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        if hi > lo:
            return self.slowdown[lo:hi], sum(self.busy[lo:hi])
        # shorter than the interval: the nearest sample, none of it inside
        nearest = min(max(lo, 0), len(self.slowdown) - 1)
        return self.slowdown[nearest:nearest + 1], 0.0

    def scaled(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, less the gauge's own time in
        that interval, at the reference host speed."""
        samples, own = self._window(start, start + seconds)
        if not samples:
            raise RuntimeError("no gauge sample taken")
        limit = OUTLIER * statistics.median(samples)
        return (seconds - own) / statistics.fmean(
            x for x in samples if x <= limit)

    def median_slowdown(self) -> float:
        return statistics.median(self.slowdown) if self.slowdown else 0.0
