"""Carrier constructions: duals, quotients, gluing, products, collapse,
cuts of a finite carrier, the shift, and embeddings of the finite chains.

Constructed carriers are lazy: the dual, the shift and the quotient are
``View``s of their parent, the others tag their elements; finite ones
can be materialized to addition tables with ``to_table``. Gluing is
``doms.GlueDom``: ``InfinityExtension`` adjoins -inf and +inf by gluing
a carrier below the cuts of the trivial group, ``union`` re-glues a
carrier at a width, and ``inseminate`` glues any group carrier below a
third-type carrier, one point inside each double-point class it names.
The n-chain embeds through one list of level edges of Q^a, with the
group zero of the mixed carrier in the middle for odd n.
"""

from __future__ import annotations

import bisect
import functools
import random
from typing import Callable, Optional

from domkit import cuts as ct
from domkit.cuts import NEG_INF, POS_INF
from domkit.doms import (
    CutDom, Dom, GlueDom, HomCandidate, SubDomView, TildeDom, View,
    classify_type, f_plus, is_convex, multiplicity, sign_of, special_set,
)
from domkit.groups import Group
from domkit.tables import FiniteDom, _check_size, trivial_dom


def _sorted_index(d: Dom, elems: list) -> tuple[list, Callable]:
    """The elements sorted by ``d.cmp``, and the map from a member of the
    carrier to its position among them, found by bisection."""
    key = functools.cmp_to_key(d.cmp)
    elems = sorted(elems, key=key)

    def index(x) -> int:
        i = bisect.bisect_left(elems, key(x), key=key)
        if i == len(elems) or not d.eq(elems[i], x):
            raise ValueError(f"element {d.fmt(x)} escaped the finite carrier")
        return i

    return elems, index


def to_table(d: Dom) -> FiniteDom:
    """Materialize a finite carrier as an addition table over its elements
    sorted by order; each sum is found by bisection among them."""
    elems = d.iter_elements()
    if elems is None:
        raise ValueError(f"{d.name} is not finite")
    _check_size(len(elems))
    elems, index = _sorted_index(d, elems)
    return FiniteDom([[index(d.add(x, y)) for y in elems] for x in elems])


# -- dual ---------------------------------------------------------------------


class DualDom(View):
    """Same carrier with reversed order, displaced zero and the right sum."""

    def __init__(self, parent: Dom):
        super().__init__(parent, f"dual({parent.name})")

    def zero(self):
        return self.parent.delta()

    def add(self, x, y):
        return self.parent.radd(x, y)

    def radd(self, x, y):
        return self.parent.add(x, y)

    def cmp(self, x, y):
        return -self.parent.cmp(x, y)

    def iter_elements(self):
        elems = self.parent.iter_elements()
        return None if elems is None else list(reversed(elems))


def dual(d: Dom) -> Dom:
    return d.parent if isinstance(d, DualDom) else DualDom(d)


# -- adjoining infinities -------------------------------------------------------


class InfinityExtension(GlueDom):
    """Parent carrier glued below the carrier {-inf, +inf} of the cuts of
    the trivial group, every element sent to +inf: the ends absorb, and
    -inf wins against +inf."""

    def __init__(self, parent: Dom):
        super().__init__(parent, CutDom(Group.trivial()), lambda x: POS_INF, POS_INF,
                         f"{parent.name}+inf")


# -- shift ----------------------------------------------------------------------


class ShiftedMinusDom(View):
    """Parent carrier with minus replaced by x -> pivot - x."""

    def __init__(self, parent: Dom, pivot, name: str):
        super().__init__(parent, name)
        self.pivot = pivot

    def neg(self, x):
        return self.parent.rsub(self.pivot, x)

    def minimal_positive(self):
        return self.parent.minimal_positive()  # same carrier and order


def shift(d: Dom) -> Dom:
    """Toggle between the second type and the first type with a unit.

    Third-type carriers shift to themselves; shifting twice returns the
    original carrier.
    """
    t = classify_type(d)
    if t == "third":
        return d
    if isinstance(d, ShiftedMinusDom):
        return d.parent
    if t == "second":
        return ShiftedMinusDom(d, d.zero(), f"shift({d.name})")
    one = d.minimal_positive()
    if one is None:
        raise ValueError("first-type shift needs a minimal positive element")
    if not d.eq(d.rsub(one, one), d.zero()):
        raise ValueError("minimal positive element does not cancel itself")
    # displace the minus one step down: x -> (-1) - x
    return ShiftedMinusDom(d, d.neg(one), f"shift({d.name})")


# -- quotients --------------------------------------------------------------------


def _is_convex_subdom(d: Dom, sub: list, universe: list) -> bool:
    def held(x):
        return any(d.eq(x, s) for s in sub)

    return (held(d.zero()) and all(held(d.neg(a)) for a in sub)
            and all(held(d.add(a, b)) for a in sub for b in sub)
            and is_convex(d, sub, universe))


def quotient_by_subdom(d: Dom, sub: list) -> Quotient:
    """Collapse a convex symmetric sub-carrier to a point (finite carriers);
    each class is named by its least member."""
    elems = d.iter_elements()
    if elems is None:
        raise ValueError("quotients by sub-carriers are materialized for finite carriers")
    if not _is_convex_subdom(d, sub, elems):
        raise ValueError("not a convex symmetric sub-carrier containing the zero")

    def related(x, y):
        return any(d.le(d.add(y, w1), x) and d.le(x, d.radd(y, w2))
                   for w1 in sub for w2 in sub)

    def least(x):
        return next(y for y in elems if related(x, y) and related(y, x))

    return Quotient(d, least, f"{d.name}/sub")


def factor_through_quotient(qhom: HomCandidate, phi: HomCandidate) -> HomCandidate:
    """Induced map on the quotient from a map killing the kernel."""
    d = qhom.source
    elems = d.iter_elements()
    reps: dict = {}
    for x in elems:
        reps.setdefault(qhom(x), x)
    return HomCandidate(qhom.target, phi.target, lambda c: phi(reps[c]),
                        universe=list(reps))


class Quotient(View):
    """Quotient of the parent by a map ``rep`` that sends each element to
    the chosen member of its class."""

    def __init__(self, parent: Dom, rep: Callable, name: str):
        super().__init__(parent, name)
        self.rep = rep

    def zero(self):
        return self.rep(self.parent.zero())

    def add(self, x, y):
        return self.rep(self.parent.add(x, y))

    def neg(self, x):
        return self.rep(self.parent.neg(x))

    def contains(self, x):
        return self.parent.contains(x) and self.parent.eq(x, self.rep(x))

    def iter_elements(self):
        elems = self.parent.iter_elements()
        if elems is None:
            return None
        out = []
        for x in elems:
            r = self.rep(x)
            if not any(self.parent.eq(r, y) for y in out):
                out.append(r)
        return out

    def sample(self, rng, count):
        return [self.rep(x) for x in self.parent.sample(rng, count)]

    def quotient_map(self) -> HomCandidate:
        return HomCandidate(self.parent, self, self.rep,
                            universe=self.parent.iter_elements())


def quotient_equiv(d: Dom) -> Quotient:
    """Quotient by the class relation, each class named by its largest member."""
    return Quotient(d, lambda x: f_plus(d, x), f"{d.name}/~")


def s_k_map(d: Dom, k) -> HomCandidate:
    """Shift-by-a-width map y -> class of y + k in the wide slice at k."""
    if not d.eq(d.width_of(k), k):
        raise ValueError("the shift base must be a width element")
    upper = special_set(d, "Mge", k)
    target = quotient_equiv(upper)
    return HomCandidate(d, target, lambda y: target.rep(d.add(y, k)),
                        universe=d.iter_elements())


# -- gluing (and its special cases) --------------------------------------------


def union(m: Dom, n: Dom, k) -> GlueDom:
    """Replace the wide part of ``m`` (widths >= k) by the carrier ``n``.

    ``n`` must extend the wide part sharing its elements, and its zero
    must be ``k``.
    """
    if not m.contains(k) or not m.eq(m.width_of(k), k) or not m.lt(m.zero(), k):
        raise ValueError("union needs a positive width element of the base carrier")
    if not n.eq(n.zero(), k):
        raise ValueError("the upper carrier must have the width element as its zero")
    zero = m.zero()
    lower = SubDomView(m, lambda x: m.lt(m.width_of(x), k), zero,
                       f"{m.name}^(<{m.fmt(k)})", staples=[zero, m.delta()])

    return GlueDom(lower, n, lambda x: f_plus(n, m.add(x, k)), k,
                   name=f"union({m.name},{n.name},{m.fmt(k)})")


def split_at_width(m: Dom, k) -> GlueDom:
    """Re-glue a carrier from its narrow part and its wide part at k."""
    upper = special_set(m, "Mge", k)
    return union(m, upper, k)


def split_iso(glued: GlueDom) -> HomCandidate:
    """The natural bijection from a carrier re-glued by ``union`` back to
    the original."""
    # ``union`` builds the lower part as a sub-carrier view of the original
    return HomCandidate(glued, glued.lower.parent, lambda x: x[1],
                        universe=glued.iter_elements())


def inseminate(m: Dom, points: Dom, plus_image: Callable) -> GlueDom:
    """Adjoin one point of the group carrier ``points`` inside each
    double-point class of ``m`` it names: ``plus_image`` sends a point to
    the largest member of its class."""
    if classify_type(m) != "third":
        raise ValueError("insemination needs a third-type carrier")
    for v in points.sample(random.Random(0), 8):
        x = plus_image(v)
        if multiplicity(m, x) != 2 or sign_of(m, x) != 1:
            raise ValueError("point group values must name double points by their "
                             "largest member")
    zero_width = m.width_of(m.zero())
    return GlueDom(points, m, plus_image, zero_width, name=f"ins({m.name},{points.name})")


def insemination_projection(ins: GlueDom) -> HomCandidate:
    """Collapse the adjoined points back onto their classes in M/~."""
    q = quotient_equiv(ins.upper)
    theta = ins.theta_plus_min

    def proj(x):
        t, v = x
        return q.rep(theta(v)) if t == "m" else q.rep(v)

    return HomCandidate(ins, q, proj)


# -- products -------------------------------------------------------------------


MU = ("mu",)


class _PairProduct(Dom):
    """Pairs (x, y) of a point x of ``m`` and an element y of ``n``, in
    lexicographic order. A point outside the fibers (``_in_fiber``) is
    paired with the ``filler`` only, which sorts lowest."""

    def zero(self):
        return (self.m.zero(), self.n.zero())

    def cmp(self, p, q):
        c = self.m.cmp(p[0], q[0])
        if c:
            return c
        fp, fq = p[1] == self.filler, q[1] == self.filler
        if fp or fq:
            return fq - fp
        return self.n.cmp(p[1], q[1])

    def contains(self, p):
        if not (isinstance(p, tuple) and len(p) == 2):
            return False
        x, y = p
        if not self.m.contains(x):
            return False
        if self._in_fiber(x):
            return y is not MU and self.n.contains(y)
        return y == self.filler

    def iter_elements(self):
        m_elems = self.m.iter_elements()
        n_elems = self.n.iter_elements()
        if m_elems is None or n_elems is None:
            return None
        out = []
        for x in m_elems:
            if self._in_fiber(x):
                out.extend((x, y) for y in n_elems)
            else:
                out.append((x, self.filler))
        return out

    def sample(self, rng, count):
        return [(x, self.n.sample(rng, 1)[0]) if self._in_fiber(x) else (x, self.filler)
                for x in self.m.sample(rng, count)]

    def fmt(self, p):
        tail = "mu" if p[1] is MU else self.n.fmt(p[1])
        return f"({self.m.fmt(p[0])},{tail})"

    def projection(self) -> HomCandidate:
        return HomCandidate(self, self.m, lambda p: p[0],
                            universe=self.iter_elements())


class FiberedProduct(_PairProduct):
    """Replace each point of a width-zero sub-carrier by a copy of ``n``.

    ``n`` must have a minimum and a maximum exchanged by its minus;
    points outside the sub-carrier get paired with the minimum.
    """

    def __init__(self, m: Dom, a_member: Callable, n: Dom, name: Optional[str] = None):
        self.m = m
        self._in_fiber = a_member
        self.n = n
        n_elems = n.iter_elements()
        if n_elems:
            self.filler = n_elems[0]
            if not n.eq(n.neg(self.filler), n_elems[-1]):
                raise ValueError("fiber extremes must be exchanged by the minus")
        else:
            raise ValueError("the fiber carrier must be finite with a minimum")
        self.name = name or f"fibered({m.name},{n.name})"

    def add(self, p, q):
        x = self.m.add(p[0], q[0])
        if self._in_fiber(x):
            return (x, self.n.add(p[1], q[1]))
        return (x, self.filler)

    def neg(self, p):
        x = self.m.neg(p[0])
        if self._in_fiber(x):
            return (x, self.n.neg(p[1]))
        return (x, self.filler)


class MuProduct(_PairProduct):
    """Copy of ``n`` inside every width-zero point of ``m``; a fresh
    bottom symbol marks the fibers of the width-positive points."""

    def __init__(self, m: Dom, n: Dom, name: Optional[str] = None):
        if classify_type(m) != "first":
            raise ValueError("the base of the product must be of the first type")
        self.m = m
        self.n = n
        self.filler = MU
        self.name = name or f"mu({m.name},{n.name})"

    def _in_fiber(self, x) -> bool:
        return self.m.eq(self.m.width_of(x), self.m.zero())

    def add(self, p, q):
        x = self.m.add(p[0], q[0])
        if self._in_fiber(p[0]) and self._in_fiber(q[0]):
            return (x, self.n.add(p[1], q[1]))
        return (x, MU)

    def neg(self, p):
        x = self.m.neg(p[0])
        if p[1] is not MU and self._in_fiber(x):
            return (x, self.n.neg(p[1]))
        return (x, MU)


# -- collapse -------------------------------------------------------------------


def collapse(m: Dom, class_in_p: Callable) -> tuple[FiberedProduct, Callable]:
    """Keep the double points over ``class_in_p``, merge the others.

    ``class_in_p`` judges quotient representatives (largest class
    members). Returns the collapsed carrier and the comparison map.
    """
    if classify_type(m) != "third":
        raise ValueError("collapse needs a third-type carrier")
    q = quotient_equiv(m)
    two = trivial_dom(2)

    coll = FiberedProduct(q, class_in_p, two, name=f"coll({m.name})")

    def eta(x):
        rep = q.rep(x)
        if class_in_p(rep) and sign_of(m, x) == 1:
            return (rep, two.zero())
        return (rep, two.delta())

    return coll, eta


# -- cuts of a finite carrier -----------------------------------------------------


def cuts_of_dom(d: Dom) -> FiniteDom:
    """The cut carrier of a finite first-type carrier.

    Cut i has the i least elements as its left part. The sum of two cuts
    is the upper edge of the right sums of their left parts: cut i + cut j
    is one past the largest right sum of an element below i and one
    below j, which is the running maximum over the grid of right sums.
    The elements are sorted by order, and each right sum is found by
    bisection among them.
    """
    elems = d.iter_elements()
    if elems is None:
        raise ValueError("cut carriers are materialized for finite carriers only")
    n = len(elems)
    _check_size(n + 1)
    if classify_type(d) != "first":
        raise ValueError("the base carrier must be of the first type")
    elems, index = _sorted_index(d, elems)
    plus = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            top = index(d.radd(elems[i - 1], elems[j - 1])) + 1
            plus[i][j] = max(plus[i - 1][j], plus[i][j - 1], top)
    return FiniteDom(plus)


# -- embedding the finite chains ----------------------------------------------------


def embed_finite(n: int) -> HomCandidate:
    """A verified copy of the n-element chain inside a cut or mixed carrier.

    The images come from one list over the dense lexicographic power
    Q^a, a = max(n - 2, 0) // 2: -inf, the negated finite widths of its
    cut carrier from the widest down, the widths from the zero cut up,
    then +inf. Even chains land among those cuts; odd chains land in the
    mixed group-plus-cuts carrier, with the chain zero at the group zero
    in the middle (the 1-chain is that zero alone).
    """
    if n < 1:
        raise ValueError("chain size must be positive")
    source = trivial_dom(n)  # refuses a chain too large for a table first
    a = max(n - 2, 0) // 2
    g = Group.trivial() if a == 0 else Group.lex(*([Group.Q()] * a))
    target: Dom = CutDom(g)
    widths = target.width_set()[:-1]
    images = [NEG_INF, *(ct.neg(g, w) for w in reversed(widths)), *widths, POS_INF]
    if n % 2:
        target = TildeDom(g)
        cuts = [("n", x) for x in images] if n > 1 else []
        images = cuts[:a + 1] + [("m", g.zero())] + cuts[a + 1:]
    return HomCandidate(source, target, images.__getitem__,
                        universe=list(range(n)))
