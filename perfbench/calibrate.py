"""Host-speed calibration: times scaled to a reference core speed.

On a shared machine the same work runs up to twice as slow for seconds
to minutes at a time, as other tenants load the same cores.  Plain wall
times of runs made minutes apart then differ by more than any change to
the program would move them.  So the benchmark times a fixed calibration
unit next to every measured operation and reports the operation's time
multiplied by `REF_UNIT_S / unit time`: the time the operation would take
on a core that runs the unit in `REF_UNIT_S`.

The unit is small numpy linear algebra and Python float arithmetic, the
mix the ein3 package spends its time in, and calls no ein3 code, so a
change to the program cannot change it.  Neither the unit nor
`REF_UNIT_S` may change once results have been compared across commits;
both commits of a comparison must use the same values.

    unit_seconds()      one timed unit
    Sampler             units sampled every `period` seconds during a long
                        in-process operation (SIGALRM, same thread), and
                        once before and after it
"""

import math
import signal
import statistics
from time import perf_counter

import numpy as np

# time of one unit on a quiet core of the 2-core Xeon (Python 3.11,
# numpy 2.4, single-threaded OpenBLAS) the benchmark was written on
REF_UNIT_S = 3.0e-4

_M = np.array([[4.0, 1.0, 0.0, 0.0], [1.0, 3.0, 1.0, 0.0],
               [0.0, 1.0, 5.0, 1.0], [0.0, 0.0, 1.0, 2.0]])
_X = np.array([1.0, -0.5, 0.25, 2.0])


def _unit():
    s = 0.0
    for _ in range(16):
        y = np.linalg.solve(_M, _X)
        z = np.outer(y, _X) @ _X
        s += float(z @ y) + math.sqrt(s + 1.0) + sum([j * 0.5 for j in range(8)])
    return s


def unit_seconds():
    t0 = perf_counter()
    _unit()
    return perf_counter() - t0


def scale(unit_times):
    """Factor from measured to reference seconds, from unit times taken
    around the measured work."""
    return REF_UNIT_S / statistics.median(unit_times)


class Sampler:
    """Unit times during one in-process operation.

    A SIGALRM timer runs a unit every `period` seconds in the main thread,
    between the operation's own bytecodes, so it sees the core the
    operation runs on.  `pause` is the time spent in those units, to be
    taken out of the operation's measured time.  One unit also runs just
    before and just after the operation, so even a short one has samples.
    """

    def __init__(self, period=0.05):
        self.period = period
        self.units = []
        self.pause = 0.0

    def _on_alarm(self, signum, frame):
        t0 = perf_counter()
        self.units.append(unit_seconds())
        self.pause += perf_counter() - t0

    def __enter__(self):
        self.units.append(unit_seconds())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.units.append(unit_seconds())
        return False

    def scale(self):
        return scale(self.units)
