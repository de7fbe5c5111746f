"""Machine-speed calibration for timed results.

The benchmark host is shared, and the speed of one interpreter thread on it
swings by up to 2x within seconds, far more than the changes the benchmark
must resolve.  Timed end-to-end results are therefore expressed at a
reference speed.  While calls are timed, a timer signal runs a short
calibration slice every ``PERIOD_S``; a call's time, minus the slices that
ran inside it, is divided by ``(s / REFERENCE_S) ** SENSITIVITY``, where
``s`` is the median slice time around the call.  The slice does the kind of
interpreter work holopc's hot paths do (validating and multiplying
quaternion tuples in pure Python) but calls no holopc code, so no change to
the program can move it.  Raw times are reported beside the scaled ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

# Runs both here and, as source, in the fresh interpreters that time the
# import of holopc.cli, so it may use builtins only.
SLICE_SOURCE = '''
def calibration_slice(n=1000):
    q = (1.0, 0.0, 0.0, 0.0)
    w2, x2, y2, z2 = (0.5, 0.5, 0.5, 0.5)
    acc = 0.0
    for _ in range(n):
        a = tuple(float(c) for c in q)
        if not all(c == c for c in a):
            raise ValueError(a)
        w1, x1, y1, z1 = a
        q = (
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )
        norm = sum(c * c for c in q) ** 0.5
        q = tuple(c / norm for c in q)
        acc += abs(q[1]) / (abs(q[0]) + 1.0)
    return acc
'''
_namespace: dict = {}
exec(SLICE_SOURCE, _namespace)
calibration_slice = _namespace["calibration_slice"]

REFERENCE_S = 0.00215  # one slice on an idle Intel Xeon vCPU under CPython 3.11
PERIOD_S = 0.05  # one slice per this much wall time while sampling
WINDOW_S = 0.1  # slices this close to a call describe its machine speed
# Contention slows holopc's calls less than the slice: on the 2-vCPU host
# the benchmark was tuned on, log call time against log slice time had slope
# 0.79 on su2-dense and 0.92 on ahp-small, so a full correction over-shoots.
SENSITIVITY = 0.85


class SpeedLog:
    """Calibration slices taken from a timer signal while the log is entered."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._busy: list[float] = [0.0]  # running total of slice time

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        calibration_slice()
        d = perf_counter() - t0
        self.starts.append(t0)
        self.durations.append(d)
        self._busy.append(self._busy[-1] + d)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def busy(self, t0: float, t1: float) -> float:
        """Time spent in slices that started within [t0, t1)."""
        return self._busy[bisect.bisect_left(self.starts, t1)] - self._busy[bisect.bisect_left(self.starts, t0)]

    def slowdown(self, t0: float, t1: float) -> float:
        """Slice slowdown over [t0, t1]: median nearby slice over the reference."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        if hi - lo < 3:  # too few slices close by: take the nearest ones
            mid = bisect.bisect_left(self.starts, t0)
            lo, hi = max(0, mid - 2), mid + 2
        return statistics.median(self.durations[lo:hi]) / REFERENCE_S

    def scaled(self, t0: float, t1: float) -> float:
        """Length of [t0, t1] without slices, at the reference speed."""
        return (t1 - t0 - self.busy(t0, t1)) / self.slowdown(t0, t1) ** SENSITIVITY
