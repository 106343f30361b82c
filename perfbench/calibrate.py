"""How fast the host runs Python right now, from a fixed loop.

The host is shared and switches, within seconds and for minutes at a time,
between a fast and a slow state (see README.md), so a raw wall time says as
much about the neighbours as about the program.  ``loop`` does a fixed piece
of work shaped like the program's inner loop, a sparse bivariate product
with tuple exponents, once over ``Fraction`` coefficients and once over
large ints, using only the standard library: no change to ``src/`` can
change its cost.  Timings are scaled by ``(REF_S / loop time) ** ALPHA`` to
seconds at a reference speed: wall times by the loop's wall time, CPU times
by its CPU time, since time the host takes the CPU away shows in the former
only.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# The time ``loop`` takes at reference speed, between its fast-state and
# slow-state times (about 0.030 and 0.054 s) on the 2-vCPU host, Python
# 3.11.7, the bounds were set on.  It fixes the scale of the reported times
# and nothing else.
REF_S = 0.040

# The program slows less than the loop when the host does: across stretches
# where the host switched between its fast and slow states, a CLI child's
# time grew as the loop's time to the power 0.72 (reproduce-paper) to 0.87
# (the lemma1 suite).  Scaling by the plain ratio would over-correct.
ALPHA = 0.8

# Loops per calibration point; their median filters out sub-second bursts.
SAMPLES = 3

_RATIONAL = {(i, j): Fraction(i + 1, j + 2) for i in range(11) for j in range(11 - i)}
_INTEGRAL = {(i, j): (i + 3) ** 20 * (j + 1) for i in range(16) for j in range(16 - i)}


def _mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(map(sum, zip(ea, eb)))
            if key in out:
                out[key] += ca * cb
            else:
                out[key] = ca * cb
    return out


def loop():
    """(wall, CPU) seconds one pass of the fixed work takes now."""
    t0, c0 = time.perf_counter(), time.thread_time()
    _mul(_RATIONAL, _RATIONAL)
    _mul(_INTEGRAL, _INTEGRAL)
    return time.perf_counter() - t0, time.thread_time() - c0


class Calibration:
    """Calibration points taken between timed pieces of work.

    A point is the (wall, CPU) median of ``SAMPLES`` loops.  ``checkpoint``
    takes one and returns the (wall, CPU) factors that scale times measured
    since the previous point to reference seconds: ``REF_S`` over the mean of
    the two points, to the power ``ALPHA``.
    """

    def __init__(self):
        self.points = []

    def checkpoint(self):
        samples = [loop() for _ in range(SAMPLES)]
        self.points.append(tuple(statistics.median(clock) for clock in zip(*samples)))
        if len(self.points) < 2:
            return None
        return tuple((REF_S / ((a + b) / 2)) ** ALPHA for a, b in zip(*self.points[-2:]))
