"""A fixed kernel that measures how fast the machine runs at this moment.

On a machine shared with other tenants the speed one process gets drifts by
20-50% over seconds and minutes, and wall and CPU time drift together.  Raw
times of two runs a few minutes apart then differ by more than any change
worth measuring.  run.py therefore reads the kernel's time before and after
every operation, and every ``INTERVAL_S`` during it from a SIGALRM handler
(``Sampler``).  It scales the operation's wall and CPU time, less the time
spent in the handler, by ``REFERENCE_S / k``, where ``k`` is the median of
those readings.  The scaled times are seconds at the speed at which one
kernel call takes ``REFERENCE_S``.

The kernel mixes the two kinds of work herdsim does: numpy and scipy calls
on 2048-element arrays from a Python loop, as in the lockstep loop of
``montecarlo``, and a plain Python loop, as in the scalar paths of
``belief`` and ``asymptotics``.  It uses no herdsim code, so no change to
herdsim can move it.
"""

import signal
import time

import numpy as np
from scipy import special

# Close to one kernel call's time on the 2-CPU x86-64 machine the bounds
# were set on (0.8-0.9 ms in a quiet minute).  Only the ratio to it
# matters; it is fixed so that scaled times of different runs and commits
# compare directly.
REFERENCE_S = 0.001
CALLS = 3  # kernel calls per reading; the reading is their median
INTERVAL_S = 0.1  # time between readings inside an operation

_X = np.random.Generator(np.random.Philox(12345)).standard_normal(2048)


def _kernel() -> float:
    acc = 0.0
    for i in range(10):
        y = special.log_ndtr(_X * 0.5 + i * 0.01)
        acc += float(np.where(y > -1.0, y, -y).sum())
    s = 0
    for i in range(2500):
        s += i & 7
    return acc + s


def reading() -> float:
    """The median wall time of ``CALLS`` kernel calls."""
    times = []
    for _ in range(CALLS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]


class Sampler:
    """Takes a reading every ``INTERVAL_S`` of wall time while active.

    The readings run in the main thread, between two bytecodes of whatever
    it was doing.  ``wall_s`` and ``cpu_s`` add up the time they took, for
    the caller to subtract from its own timings.
    """

    def __init__(self):
        self.readings = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._busy = False
        self._previous = None

    def _on_alarm(self, signum, frame):
        if self._busy:  # a slow reading overran the interval
            return
        self._busy = True
        w0, c0 = time.perf_counter(), time.process_time()
        self.readings.append(reading())
        self.wall_s += time.perf_counter() - w0
        self.cpu_s += time.process_time() - c0
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
