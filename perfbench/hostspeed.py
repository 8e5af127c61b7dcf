"""Host speed probe: a fixed computation of the benchmark's own, timed
while the program runs, so that command times can be put on one scale.

The VM's host changes speed by tens of percent over seconds and minutes,
and a command's wall time moves with it.  The probe unit does the kind of
work the program's hot paths do (small numpy least squares,
``searchsorted``, array arithmetic and plain Python loops on arrays of a
few hundred points) on fixed data, and never calls ``breakline``, so a
change to the program does not move it.

``Probe`` runs one unit every ``PERIOD_S`` seconds of wall time from a
``SIGALRM`` interval timer while a command runs in the same thread, so the
units sample the host over the command's own time.  A command that took
``own`` seconds outside the units, while its units took ``u`` seconds on
average, is reported as ``own * REFERENCE_UNIT_S / u``: the time the same
work takes on a host where one unit takes ``REFERENCE_UNIT_S``.  A set-up,
which imports numpy and cannot run units inside it, is scaled by bursts of
units just before and after it.  The README gives the measurements behind
this.
"""

import signal
from time import perf_counter

import numpy as np

# one unit's time on the host the reference figures were measured on; any
# constant would do, since it scales every run alike
REFERENCE_UNIT_S = 0.0033
PERIOD_S = 0.1  # wall seconds between units while a command runs
BURST_UNITS = 100  # units in a burst next to a set-up, about a third of a second
_REPS = 25  # least-squares solves per unit

_gen = np.random.default_rng(20_260_101)
_XS = np.sort(_gen.uniform(0.0, 1.0, 200))
_YS = _gen.standard_normal(200)


def _unit() -> float:
    total = 0.0
    for i in range(_REPS):
        a1, a2 = 0.2 + 0.004 * i, 0.6
        k = int(np.searchsorted(_XS, a1))
        design = np.column_stack([np.ones_like(_XS), _XS, np.maximum(_XS - a1, 0.0), np.maximum(_XS - a2, 0.0)])
        beta = np.linalg.lstsq(design, _YS, rcond=None)[0]
        resid = _YS - design @ beta
        total += float(resid @ resid) + k
        counts = {}
        for j in range(300):
            counts[j % 17] = counts.get(j % 17, 0) + j * 0.5
        total += len(counts)
    return total


def timed_unit() -> float:
    start = perf_counter()
    _unit()
    return perf_counter() - start


def burst() -> list:
    """Times of ``BURST_UNITS`` units run back to back."""
    return [timed_unit() for _ in range(BURST_UNITS)]


class Probe:
    """Context manager that runs a timed unit every ``PERIOD_S`` seconds.

    ``units`` holds the time of every unit run while it was active.  The
    timer is removed, and the previous ``SIGALRM`` handler restored, on
    every way out of the block.
    """

    def __init__(self):
        self.units = []
        self._previous = None

    def _tick(self, signum, frame):
        self.units.append(timed_unit())

    def __enter__(self):
        self.units = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scaled(self, wall: float) -> float:
        """``wall`` less the units' time, on the reference scale."""
        if not self.units:  # a command shorter than PERIOD_S
            self.units.append(timed_unit())
            return wall * REFERENCE_UNIT_S / self.units[0]
        spent = sum(self.units)
        return (wall - spent) * REFERENCE_UNIT_S * len(self.units) / spent


def scale(units) -> float:
    """Factor that puts a time measured next to the timed ``units`` on the reference scale."""
    return REFERENCE_UNIT_S * len(units) / sum(units)
