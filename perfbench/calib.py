"""Machine-speed calibration.

On a small shared machine the same Python work can take up to twice as
long from one second to the next: the whole machine slows, and CPU time
moves with wall time, so it is not time spent descheduled.  A run
therefore interleaves a fixed kernel of the same kind of work domkit
does (exact fractions, tuples, comparisons, method calls, no domkit
code) with the workload, and scales each measured time by
``REFERENCE_S`` over the kernel's time nearby.  The calibrated times
read as they would on a machine where the kernel takes exactly
``REFERENCE_S``; the raw times are printed next to them.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 0.005


class _Point:
    __slots__ = ("coords",)

    def __init__(self, coords):
        self.coords = coords

    def shifted(self, other):
        return _Point(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def cmp(self, other):
        for a, b in zip(self.coords, other.coords):
            if a != b:
                return -1 if a < b else 1
        return 0


def kernel() -> int:
    acc = _Point((Fraction(0), Fraction(0)))
    seen = {}
    below = 0
    for i in range(1, 400):
        p = _Point((Fraction(i, 7), Fraction(3, i)))
        q = acc.shifted(p)
        if q.cmp(acc) > 0:
            acc = _Point((q.coords[0] / 5, q.coords[1] - 1))
        else:
            below += 1
        seen[(i % 13, acc.coords[1] > 0)] = q
    return below + len(seen)


def sample() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
