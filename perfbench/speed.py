"""Times in reference-speed seconds, so that runs on a drifting host compare.

The benchmark shares its host with other work, and the host's speed drifts:
on a shared 2-vCPU virtual machine, pdakit's median time over 30 s stretches
ranged over 40% within four minutes, and process CPU time drifted with it.
Neither wall time nor CPU time repeats from run to run there.

A SpeedClock runs a fixed calibration loop every PERIOD_S, from a timer
signal, and scales each stretch of time between two calibrations by REF_S over
the mean of their two loop times.  A duration then reads as the seconds it
would take on a host that runs the loop in REF_S.  Calibration time itself is
left out of every duration; what a pdakit call pays afterwards for the caches
the loop cooled is not, and is the same for every commit.  The loop is plain
Python that shares no code with pdakit, so a change to pdakit moves the work
measured, not the scale.
"""

import bisect
import gc
import signal
import time
from contextlib import contextmanager

REF_S = 0.012      # calibration time of the reference host
PERIOD_S = 0.25    # time between two calibrations
SIDE = 300         # the calibration builds and sums two SIDE x SIDE 0/1 tables


def _table_sum() -> int:
    rows = [[(i * j) & 1 for j in range(SIDE)] for i in range(SIDE)]
    return sum(map(sum, rows))


def calibration_loop() -> int:
    """Build and sum two dense 0/1 tables, as lists of lists of small ints.

    pdakit's own work is of this kind: Python lists of small ints built,
    scanned and freed.  A loop of pure arithmetic tracked pdakit's drift less
    well than this one.  The collector is held off while it runs, so that a
    collection of the program's objects cannot land in it; everything it
    allocates is freed before it returns, so the program's collections come
    when they would have come without it.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _table_sum() + _table_sum()
    finally:
        if was_enabled:
            gc.enable()


class SpeedClock:
    """Calibrates at the start and end of each running() block and, from a
    SIGALRM handler, every PERIOD_S in between, so that calibrations fall
    inside long pdakit calls too."""

    def __init__(self):
        # Raw perf_counter start and end of each calibration, and its loop time.
        self._starts: list[float] = []
        self._ends: list[float] = []
        self.loop_s: list[float] = []
        self._busy = False

    def mark(self):
        """Run the calibration loop now."""
        if self._busy:  # the timer fired inside a calibration
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            calibration_loop()
            t1 = time.perf_counter()
            self._starts.append(t0)
            self._ends.append(t1)
            self.loop_s.append(t1 - t0)
        finally:
            self._busy = False

    def _on_alarm(self, signum, frame):
        self.mark()

    @contextmanager
    def running(self):
        """Calibrate now, every PERIOD_S while the block runs, and at its end."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.mark()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.mark()

    def seconds(self, a: float, b: float) -> float:
        """Reference-speed seconds in the raw perf_counter interval [a, b].

        A calibration must end at or before a, and another start at or after b.
        """
        i = bisect.bisect_right(self._ends, a) - 1
        if i < 0 or not self._starts or self._starts[-1] < b:
            raise ValueError("interval is not bracketed by calibrations")
        total = 0.0
        while True:
            lo, hi = max(a, self._ends[i]), min(b, self._starts[i + 1])
            if hi > lo:
                total += (hi - lo) * 2 * REF_S / (self.loop_s[i] + self.loop_s[i + 1])
            if self._starts[i + 1] >= b:
                return total
            i += 1
