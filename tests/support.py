"""Shared helpers for the test suite: carrier zoo, tuple samplers, and
the 27-item derived-law suite that doubles as the acceptance engine."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from domkit.cuts import FILLED, MINUS, PLUS, Cut
from domkit.doms import CutDom, Dom
from domkit.groups import Group
from domkit.scalars import Sqrt2
from domkit.tables import FiniteDom


def is_canonical(v) -> bool:
    """Whether a scalar is in ``scalars.canon``'s form."""
    if type(v) is int:
        return True
    if type(v) is Fraction:
        return v.denominator != 1
    return type(v) is Sqrt2 and v.b != 0


class Ref:
    """a + b*sqrt2 as a pair of ``Fraction``s, with the sum, negation,
    rational scaling and order of Q(sqrt2) written from their
    definitions: the reference that the integer kernels of
    ``domkit.scalars`` are checked against.  An operand may be an
    ``int``, a ``Fraction``, a ``Sqrt2`` or a ``Ref``."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a, self.b = Fraction(a), Fraction(b)

    @classmethod
    def of(cls, x) -> Ref:
        if isinstance(x, Ref):
            return x
        return cls(x.a, x.b) if isinstance(x, Sqrt2) else cls(x)

    def __add__(self, other):
        o = Ref.of(other)
        return Ref(self.a + o.a, self.b + o.b)

    def __neg__(self):
        return Ref(-self.a, -self.b)

    def __sub__(self, other):
        return self + -Ref.of(other)

    def __mul__(self, k):
        """Scaling by a rational k."""
        k = Fraction(k)
        return Ref(self.a * k, self.b * k)

    def sign(self) -> int:
        """Through isqrt: a + b*sqrt2 = (A + B*sqrt2)/m with m > 0, and
        isqrt(2 B^2) < |B|*sqrt2 < isqrt(2 B^2) + 1 when B != 0."""
        m = self.a.denominator * self.b.denominator
        big_a, big_b = int(self.a * m), int(self.b * m)
        if big_b == 0:
            return (big_a > 0) - (big_a < 0)
        s = math.isqrt(2 * big_b * big_b)
        if big_b > 0:
            return 1 if big_a + s >= 0 else -1
        return 1 if big_a - s - 1 >= 0 else -1

    def cmp(self, other) -> int:
        return (self - other).sign()

    def value(self):
        """The canonical scalar: an ``int`` when integral, otherwise a
        ``Fraction`` when rational, otherwise a ``Sqrt2`` with b != 0."""
        a, b = (int(v) if v.denominator == 1 else v for v in (self.a, self.b))
        return Sqrt2(a, b) if b else a


def closed_form_sign(g: Group, cut: Cut):
    """The signature of a finite cut of g from its node, the reference
    that ``doms.sign_of`` is checked against: ``"inf"`` when the atom
    of its width level (its anchor's atom) is discrete, otherwise +1, -1
    or 0 as the cut is a realized maximum, a realized minimum or filled."""
    if g.atoms[g.num_atoms - cut.level - 1].discrete:
        return "inf"
    return {PLUS: 1, MINUS: -1, FILLED: 0}[cut.side]


def standard_cut_carriers() -> dict[str, CutDom]:
    return {
        "cuts(Q)": CutDom(Group.Q()),
        "cuts(Z)": CutDom(Group.Z()),
        "cuts(Zloc(2))": CutDom(Group.Zloc(2)),
        "cuts(lex(Q,Q))": CutDom(Group.lex(Group.Q(), Group.Q())),
    }


def left_rule_cuts(d: FiniteDom) -> FiniteDom:
    """The cut carrier of a finite carrier with the paper's defective sum:
    the upper edge of the plain sums of the left parts. Cut i has the
    left part {0, ..., i-1}, so cut 0 is the empty cut."""
    n = len(d.iter_elements())

    def plus(i, j):
        if i == 0 or j == 0:
            return 0
        return 1 + max(d.add(a, b) for a in range(i) for b in range(j))

    return FiniteDom([[plus(i, j) for j in range(n + 1)] for i in range(n + 1)])


def sample_tuples(d: Dom, count: int, seed: int = 0, width: int = 4) -> list[tuple]:
    rng = random.Random(seed)
    pool = d.sample(rng, max(64, count // 8))
    return [tuple(rng.choice(pool) for _ in range(width)) for _ in range(count)]


def exhaustive_tuples(d: Dom, width: int = 4) -> list[tuple]:
    import itertools
    elems = d.iter_elements()
    return list(itertools.product(elems, repeat=width))


def run_item_suite(d: Dom, tuples: list[tuple]) -> list[tuple[int, tuple]]:
    """Check the 27 derived laws on (w, x, y, z) tuples.

    Returns (item number, witness tuple) failures; empty means all laws
    hold on the given tuples.  Bounded quantifiers (items 5, 8, 14, 24,
    25) range over the tuple components themselves.
    """
    failures: list[tuple[int, tuple]] = []
    zero = d.zero()
    delta = d.delta()
    seen = set()

    def fail(item: int, tup) -> None:
        if item not in seen:
            seen.add(item)
            failures.append((item, tup))

    # item 2 is closed: no free variables
    if not (d.le(zero, d.radd(zero, zero)) and d.le(d.add(delta, delta), delta)):
        fail(2, ())

    for tup in tuples:
        w, x, y, z = tup
        wx, wy, wz = d.width_of(x), d.width_of(y), d.width_of(z)
        xpy = d.add(x, y)
        xry = d.radd(x, y)
        xsy = d.rsub(x, y)

        if d.lt(wx, zero):
            fail(1, tup)
        if d.cmp(xpy, xry) > 0:
            fail(3, tup)
        if d.lt(d.rsub(xpy, y), x) or d.lt(x, d.add(xsy, y)):
            fail(4, tup)
        # x - y is the largest rider z with y + z <= x
        if d.cmp(d.add(y, xsy), x) > 0:
            fail(5, tup)
        else:
            for cand in tup:
                if d.le(d.add(y, cand), x) and d.cmp(cand, xsy) > 0:
                    fail(5, tup)
                    break
        if not d.eq(d.add(d.rsub(xpy, y), y), xpy):
            fail(6, tup)
        elif not d.eq(d.rsub(d.add(xsy, y), y), xsy):
            fail(6, tup)
        if not (d.eq(d.add(x, wx), x) and d.eq(d.rsub(x, wx), x)):
            fail(7, tup)
        for cand in tup:
            if d.lt(wx, cand) != d.lt(x, d.add(x, cand)):
                fail(8, tup)
                break
        if d.cmp(wx, d.abs_of(x)) > 0:
            fail(9, tup)
        if (d.le(zero, xsy) and d.le(zero, d.rsub(y, x))) != d.eq(x, y):
            fail(10, tup)
        if d.cmp(d.radd(xpy, z), d.add(x, d.radd(y, z))) < 0:
            fail(11, tup)
        if d.cmp(d.radd(d.radd(xpy, z), w), d.add(d.radd(x, z), d.radd(y, w))) < 0:
            fail(12, tup)
        elif d.cmp(d.rsub(xpy, d.add(z, w)), d.add(d.rsub(x, z), d.rsub(y, w))) < 0:
            fail(12, tup)
        if d.cmp(d.add(d.add(xry, z), w), d.radd(d.add(x, z), d.add(y, w))) > 0:
            fail(13, tup)
        if d.lt(xpy, d.radd(x, z)) and d.cmp(y, z) > 0:
            fail(14, tup)
        if d.lt(xpy, xry) and not d.eq(wx, wy):
            fail(15, tup)
        if d.lt(x, zero) and d.lt(y, zero) and not d.lt(xry, zero):
            fail(16, tup)
        if d.lt(x, z) and d.lt(y, w) and not d.lt(xry, d.add(z, w)):
            fail(17, tup)
        if not d.eq(d.add(wx, wx), wx):
            fail(18, tup)
        if d.eq(d.add(x, x), x) and not d.eq(wx, d.abs_of(x)):
            fail(19, tup)
        if not d.eq(d.width_of(wx), wx):
            fail(20, tup)
        mw = d.max(wx, wy)
        if not (d.eq(d.width_of(xpy), mw) and d.eq(d.width_of(xry), mw)):
            fail(21, tup)
        if d.cmp(xry, d.radd(xpy, wx)) > 0 or d.cmp(xry, d.radd(xpy, wy)) > 0:
            fail(22, tup)
        if d.cmp(wx, wy) > 0 and not d.eq(d.radd(x, wy), x):
            fail(23, tup)
        if d.lt(x, y) and d.lt(y, d.radd(x, wy)):
            fail(24, tup)
        for cand in tup:
            if d.lt(x, cand) and d.lt(cand, d.radd(x, zero)):
                fail(25, tup)
                break
            if d.lt(d.add(x, delta), cand) and d.lt(cand, x):
                fail(25, tup)
                break
        if d.le(x, wz) and d.le(y, wz) and not d.le(xpy, wz):
            fail(26, tup)
        if d.lt(x, wz) and d.lt(y, wz) and not d.lt(xry, wz):
            fail(27, tup)
    return failures
