"""The benchmark's own copy of the 27 derived laws.

Kept here rather than imported from the test suite, so that a change to
the tests cannot change what the benchmark measures.  ``tuple_failures``
checks one (w, x, y, z) tuple and returns the numbers of the laws that
fail on it; bounded quantifiers (laws 5, 8, 14, 24, 25) range over the
tuple components themselves, as in the acceptance gate.
"""

from __future__ import annotations


def closed_law_holds(d) -> bool:
    """Law 2, the only one without free variables."""
    zero, delta = d.zero(), d.delta()
    return d.le(zero, d.radd(zero, zero)) and d.le(d.add(delta, delta), delta)


def tuple_failures(d, tup) -> list[int]:
    failed: list[int] = []
    fail = failed.append
    zero = d.zero()
    delta = d.delta()
    w, x, y, z = tup
    wx, wy, wz = d.width_of(x), d.width_of(y), d.width_of(z)
    xpy = d.add(x, y)
    xry = d.radd(x, y)
    xsy = d.rsub(x, y)

    if d.lt(wx, zero):
        fail(1)
    if d.cmp(xpy, xry) > 0:
        fail(3)
    if d.lt(d.rsub(xpy, y), x) or d.lt(x, d.add(xsy, y)):
        fail(4)
    # x - y is the largest rider z with y + z <= x
    if d.cmp(d.add(y, xsy), x) > 0:
        fail(5)
    elif any(d.le(d.add(y, c), x) and d.cmp(c, xsy) > 0 for c in tup):
        fail(5)
    if not d.eq(d.add(d.rsub(xpy, y), y), xpy):
        fail(6)
    elif not d.eq(d.rsub(d.add(xsy, y), y), xsy):
        fail(6)
    if not (d.eq(d.add(x, wx), x) and d.eq(d.rsub(x, wx), x)):
        fail(7)
    if any(d.lt(wx, c) != d.lt(x, d.add(x, c)) for c in tup):
        fail(8)
    if d.cmp(wx, d.abs_of(x)) > 0:
        fail(9)
    if (d.le(zero, xsy) and d.le(zero, d.rsub(y, x))) != d.eq(x, y):
        fail(10)
    if d.cmp(d.radd(xpy, z), d.add(x, d.radd(y, z))) < 0:
        fail(11)
    if d.cmp(d.radd(d.radd(xpy, z), w), d.add(d.radd(x, z), d.radd(y, w))) < 0:
        fail(12)
    elif d.cmp(d.rsub(xpy, d.add(z, w)), d.add(d.rsub(x, z), d.rsub(y, w))) < 0:
        fail(12)
    if d.cmp(d.add(d.add(xry, z), w), d.radd(d.add(x, z), d.add(y, w))) > 0:
        fail(13)
    if d.lt(xpy, d.radd(x, z)) and d.cmp(y, z) > 0:
        fail(14)
    if d.lt(xpy, xry) and not d.eq(wx, wy):
        fail(15)
    if d.lt(x, zero) and d.lt(y, zero) and not d.lt(xry, zero):
        fail(16)
    if d.lt(x, z) and d.lt(y, w) and not d.lt(xry, d.add(z, w)):
        fail(17)
    if not d.eq(d.add(wx, wx), wx):
        fail(18)
    if d.eq(d.add(x, x), x) and not d.eq(wx, d.abs_of(x)):
        fail(19)
    if not d.eq(d.width_of(wx), wx):
        fail(20)
    mw = d.max(wx, wy)
    if not (d.eq(d.width_of(xpy), mw) and d.eq(d.width_of(xry), mw)):
        fail(21)
    if d.cmp(xry, d.radd(xpy, wx)) > 0 or d.cmp(xry, d.radd(xpy, wy)) > 0:
        fail(22)
    if d.cmp(wx, wy) > 0 and not d.eq(d.radd(x, wy), x):
        fail(23)
    if d.lt(x, y) and d.lt(y, d.radd(x, wy)):
        fail(24)
    for c in tup:
        if d.lt(x, c) and d.lt(c, d.radd(x, zero)):
            fail(25)
            break
        if d.lt(d.add(x, delta), c) and d.lt(c, x):
            fail(25)
            break
    if d.le(x, wz) and d.le(y, wz) and not d.le(xpy, wz):
        fail(26)
    if d.lt(x, wz) and d.lt(y, wz) and not d.lt(xry, wz):
        fail(27)
    return failed
