"""Carrier constructions: duals, quotients, gluing, products, collapse,
cuts of a finite carrier, the shift, and embeddings of the finite chains.

Constructed carriers are lazy views over their parents (elements are
tagged pairs); finite ones can be materialized to addition tables with
``to_table`` for exact comparisons.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from domkit import cuts as ct
from domkit.cuts import NEG_INF, POS_INF
from domkit.doms import (
    CutDom, Dom, HomCandidate, SubDomView, TildeDom,
    classify_type, f_plus, multiplicity, sign_of, special_set,
)
from domkit.groups import Group
from domkit.tables import FiniteDom, FiniteDomTable, trivial_dom


def _index_of(d: Dom, elems: list, x) -> int:
    for i, e in enumerate(elems):
        if d.eq(e, x):
            return i
    raise ValueError(f"element {d.fmt(x)} escaped the finite carrier")


def to_table(d: Dom) -> FiniteDomTable:
    """Materialize a finite carrier as an addition table (order-sorted)."""
    elems = d.iter_elements()
    if elems is None:
        raise ValueError(f"{d.name} is not finite")
    elems = sorted(elems, key=functools.cmp_to_key(d.cmp))
    n = len(elems)
    plus = [[_index_of(d, elems, d.add(elems[i], elems[j])) for j in range(n)]
            for i in range(n)]
    return FiniteDomTable(plus)


# -- dual ---------------------------------------------------------------------


class DualDom(Dom):
    """Same carrier with reversed order, displaced zero and the right sum."""

    def __init__(self, parent: Dom):
        self.parent = parent
        self.name = f"dual({parent.name})"

    def zero(self):
        return self.parent.delta()

    def add(self, x, y):
        return self.parent.radd(x, y)

    def radd(self, x, y):
        return self.parent.add(x, y)

    def neg(self, x):
        return self.parent.neg(x)

    def cmp(self, x, y):
        return -self.parent.cmp(x, y)

    def contains(self, x):
        return self.parent.contains(x)

    def iter_elements(self):
        elems = self.parent.iter_elements()
        return None if elems is None else list(reversed(elems))

    def sample(self, rng, count):
        return self.parent.sample(rng, count)

    def fmt(self, x):
        return self.parent.fmt(x)


def dual(d: Dom) -> Dom:
    return d.parent if isinstance(d, DualDom) else DualDom(d)


# -- adjoining infinities -------------------------------------------------------


class InfinityExtension(Dom):
    """Parent carrier with absorbing endpoints; -inf wins against +inf."""

    LO = ("lo",)
    HI = ("hi",)

    def __init__(self, parent: Dom):
        self.parent = parent
        self.name = f"{parent.name}+inf"

    def zero(self):
        return ("el", self.parent.zero())

    def add(self, x, y):
        if x == self.LO or y == self.LO:
            return self.LO
        if x == self.HI or y == self.HI:
            return self.HI
        return ("el", self.parent.add(x[1], y[1]))

    def neg(self, x):
        if x == self.LO:
            return self.HI
        if x == self.HI:
            return self.LO
        return ("el", self.parent.neg(x[1]))

    def cmp(self, x, y):
        rx = -1 if x == self.LO else (1 if x == self.HI else 0)
        ry = -1 if y == self.LO else (1 if y == self.HI else 0)
        if rx or ry:
            return (rx > ry) - (rx < ry)
        return self.parent.cmp(x[1], y[1])

    def contains(self, x):
        return x in (self.LO, self.HI) or (
            isinstance(x, tuple) and len(x) == 2 and x[0] == "el"
            and self.parent.contains(x[1]))

    def iter_elements(self):
        elems = self.parent.iter_elements()
        if elems is None:
            return None
        return [self.LO] + [("el", x) for x in elems] + [self.HI]

    def sample(self, rng, count):
        out = [self.LO, self.HI]
        out += [("el", x) for x in self.parent.sample(rng, count)]
        return out[:count]

    def fmt(self, x):
        if x == self.LO:
            return "-inf"
        if x == self.HI:
            return "+inf"
        return self.parent.fmt(x[1])


def infinity_extension(d: Dom) -> InfinityExtension:
    return InfinityExtension(d)


# -- shift ----------------------------------------------------------------------


class ShiftedMinusDom(Dom):
    """Parent carrier with minus replaced by x -> pivot - x."""

    def __init__(self, parent: Dom, pivot, name: str):
        self.parent = parent
        self.pivot = pivot
        self.name = name

    def zero(self):
        return self.parent.zero()

    def add(self, x, y):
        return self.parent.add(x, y)

    def neg(self, x):
        return self.parent.rsub(self.pivot, x)

    def cmp(self, x, y):
        return self.parent.cmp(x, y)

    def contains(self, x):
        return self.parent.contains(x)

    def iter_elements(self):
        return self.parent.iter_elements()

    def sample(self, rng, count):
        return self.parent.sample(rng, count)

    def fmt(self, x):
        return self.parent.fmt(x)

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
    zero = d.zero()
    if not any(d.eq(zero, s) for s in sub):
        return False
    for a in sub:
        if not any(d.eq(d.neg(a), s) for s in sub):
            return False
        for b in sub:
            if not any(d.eq(d.add(a, b), s) for s in sub):
                return False
            for x in universe:
                if d.le(a, x) and d.le(x, b) and not any(d.eq(x, s) for s in sub):
                    return False
    return True


def quotient_by_subdom(d: Dom, sub: list) -> tuple[FiniteDom, HomCandidate]:
    """Collapse a convex symmetric sub-carrier to a point (finite carriers)."""
    elems = d.iter_elements()
    if elems is None:
        raise ValueError("quotients by sub-carriers are materialized for finite carriers")
    if not _is_convex_subdom(d, sub, elems):
        raise ValueError("not a convex symmetric sub-carrier containing the zero")

    def related(x, y):
        return any(d.le(d.add(y, w1), x) and d.le(x, d.radd(y, w2))
                   for w1 in sub for w2 in sub)

    classes: list[list] = []
    for x in elems:
        for cls in classes:
            if related(x, cls[0]) and related(cls[0], x):
                cls.append(x)
                break
        else:
            classes.append([x])
    reps = [cls[0] for cls in classes]

    def class_index(x):
        for i, cls in enumerate(classes):
            if any(d.eq(x, y) for y in cls):
                return i
        raise ValueError("element escaped its class")

    n = len(classes)
    plus = [[class_index(d.add(reps[i], reps[j])) for j in range(n)] for i in range(n)]
    q = FiniteDom(FiniteDomTable(plus))
    hom = HomCandidate(d, q, class_index, kind="dom", universe=elems)
    return q, hom


def factor_through_quotient(qhom: HomCandidate, phi: HomCandidate) -> HomCandidate:
    """Induced map on the quotient from a map killing the kernel."""
    d = qhom.source
    elems = d.iter_elements()
    reps: dict[int, object] = {}
    for x in elems:
        reps.setdefault(qhom(x), x)
    return HomCandidate(qhom.target, phi.target, lambda c: phi(reps[c]), kind=phi.kind,
                        universe=sorted(reps))


class QuotientEquiv(Dom):
    """Quotient by the class relation of the largest-member map."""

    def __init__(self, parent: Dom):
        self.parent = parent
        self.name = f"{parent.name}/~"

    def rep(self, x):
        return f_plus(self.parent, x)

    def zero(self):
        return self.rep(self.parent.zero())

    def add(self, x, y):
        return self.rep(self.parent.add(x, y))

    def neg(self, x):
        return self.rep(self.parent.neg(x))

    def cmp(self, x, y):
        return self.parent.cmp(x, y)

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

    def fmt(self, x):
        return self.parent.fmt(x)

    def quotient_map(self) -> HomCandidate:
        return HomCandidate(self.parent, self, self.rep, kind="dom",
                            universe=self.parent.iter_elements())


def quotient_equiv(d: Dom) -> tuple[QuotientEquiv, HomCandidate]:
    q = QuotientEquiv(d)
    return q, q.quotient_map()


def s_k_map(d: Dom, k) -> HomCandidate:
    """Shift-by-a-width map y -> class of y + k in the wide slice at k."""
    if not d.eq(d.width_of(k), k):
        raise ValueError("the shift base must be a width element")
    upper = special_set(d, "Mge", k)
    target = QuotientEquiv(upper)
    return HomCandidate(d, target, lambda y: target.rep(d.add(y, k)), kind="dom",
                        universe=d.iter_elements())


# -- gluing (and its special cases) --------------------------------------------


class GlueDom(Dom):
    """Join a carrier below with the wide part of another carrier above.

    ``lower`` contributes all its elements, ``upper`` contributes those
    whose width is at least ``o_min`` (the minimum of the final width
    segment). ``theta_plus_min(x)`` is the largest member of the class
    the lower element is sent to at the bottom width; the rest of the
    compatible family follows from it.
    """

    def __init__(self, lower: Dom, upper: Dom, theta_plus_min: Callable, o_min,
                 name: Optional[str] = None):
        self.lower = lower
        self.upper = upper
        self.theta_plus_min = theta_plus_min
        self.o_min = o_min
        self.name = name or f"glue({lower.name},{upper.name})"

    def theta_plus(self, j, x):
        base = self.theta_plus_min(x)
        n = self.upper
        if n.eq(j, self.o_min):
            return base
        dv = n.neg(j)
        return n.rsub(n.add(n.add(j, base), dv), dv)

    def _in_segment(self, y) -> bool:
        return self.upper.le(self.o_min, self.upper.width_of(y))

    def zero(self):
        return ("m", self.lower.zero())

    def neg(self, x):
        t, v = x
        return ("m", self.lower.neg(v)) if t == "m" else ("n", self.upper.neg(v))

    def add(self, x, y):
        tx, vx = x
        ty, vy = y
        if tx == "m" and ty == "m":
            return ("m", self.lower.add(vx, vy))
        if tx == "n" and ty == "n":
            return ("n", self.upper.add(vx, vy))
        if tx == "m":
            m_el, n_el = vx, vy
        else:
            m_el, n_el = vy, vx
        j = self.upper.width_of(n_el)
        return ("n", self.upper.add(self.theta_plus(j, m_el), n_el))

    def cmp(self, x, y):
        tx, vx = x
        ty, vy = y
        if tx == ty:
            return (self.lower if tx == "m" else self.upper).cmp(vx, vy)
        if tx == "m":
            j = self.upper.width_of(vy)
            return -1 if self.upper.le(self.theta_plus(j, vx), vy) else 1
        return -self.cmp(y, x)

    def contains(self, x):
        if not (isinstance(x, tuple) and len(x) == 2):
            return False
        t, v = x
        if t == "m":
            return self.lower.contains(v)
        return t == "n" and self.upper.contains(v) and self._in_segment(v)

    def iter_elements(self):
        lo = self.lower.iter_elements()
        up = self.upper.iter_elements()
        if lo is None or up is None:
            return None
        out = [("m", v) for v in lo]
        out += [("n", v) for v in up if self._in_segment(v)]
        return sorted(out, key=functools.cmp_to_key(self.cmp))

    def sample(self, rng, count):
        ms = [("m", v) for v in self.lower.sample(rng, count // 2 + 1)]
        ns = [("n", v) for v in self.upper.sample(rng, count)
              if self._in_segment(v)]
        mixed = ms + ns
        rng.shuffle(mixed)
        return mixed[:count]

    def fmt(self, x):
        t, v = x
        return (self.lower if t == "m" else self.upper).fmt(v)


def union(m: Dom, n: Dom, k) -> GlueDom:
    """Replace the wide part of ``m`` (widths >= k) by the carrier ``n``.

    ``n`` must extend the wide part sharing its elements, and its zero
    must be ``k``.
    """
    if not m.eq(m.width_of(k), k) or not m.lt(m.zero(), k):
        raise ValueError("union needs a positive width element of the base carrier")
    if not n.eq(n.zero(), k):
        raise ValueError("the upper carrier must have the width element as its zero")
    zero = m.zero()
    lower = SubDomView(m, lambda x: m.lt(m.width_of(x), k), zero,
                       f"{m.name}^(<{m.fmt(k)})", staples=[zero, m.delta()])

    def theta_plus_min(x):
        z = m.add(x, k)
        dv = n.neg(k)
        return n.rsub(n.add(z, dv), dv)

    return GlueDom(lower, n, theta_plus_min, k, name=f"union({m.name},{n.name},{m.fmt(k)})")


def split_at_width(m: Dom, k) -> GlueDom:
    """Re-glue a carrier from its narrow part and its wide part at k."""
    upper = special_set(m, "Mge", k)
    return union(m, upper, k)


def split_iso(glued: GlueDom) -> HomCandidate:
    """The natural bijection from a re-glued carrier back to the original."""
    m = glued.upper.parent if isinstance(glued.upper, SubDomView) else glued.upper
    return HomCandidate(glued, m, lambda x: x[1], kind="dom",
                        universe=glued.iter_elements())


@dataclass
class PointGroup:
    """A subgroup of the double-point classes, given by representatives.

    ``plus_image`` sends a class value to the largest member of the
    class inside the host carrier.
    """

    name: str
    zero: object
    add: Callable
    neg: Callable
    cmp: Callable
    plus_image: Callable
    member: Callable
    samples: Sequence = ()


class PointGroupDom(Dom):
    def __init__(self, pg: PointGroup):
        self.pg = pg
        self.name = pg.name

    def zero(self):
        return self.pg.zero

    def add(self, x, y):
        return self.pg.add(x, y)

    def neg(self, x):
        return self.pg.neg(x)

    def cmp(self, x, y):
        return self.pg.cmp(x, y)

    def radd(self, x, y):
        return self.pg.add(x, y)

    def contains(self, x):
        return self.pg.member(x)

    def iter_elements(self):
        return None

    def sample(self, rng, count):
        vals = list(self.pg.samples)
        if not vals:
            raise ValueError("point group has no sample values")
        return [rng.choice(vals) for _ in range(count)]


def inseminate(m: Dom, pg: PointGroup) -> GlueDom:
    """Adjoin one group point inside each double-point class of ``pg``."""
    if classify_type(m) != "third":
        raise ValueError("insemination needs a third-type carrier")
    for v in list(pg.samples)[:8]:
        x = pg.plus_image(v)
        if multiplicity(m, x) != 2 or sign_of(m, x) != 1:
            raise ValueError("point group values must name double points by their "
                             "largest member")
    lower = PointGroupDom(pg)
    zero_width = m.width_of(m.zero())
    return GlueDom(lower, m, pg.plus_image, zero_width, name=f"ins({m.name},{pg.name})")


def insemination_projection(ins: GlueDom) -> HomCandidate:
    """Collapse the adjoined points back onto their classes in M/~."""
    q = QuotientEquiv(ins.upper)
    theta = ins.theta_plus_min

    def proj(x):
        t, v = x
        return q.rep(theta(v)) if t == "m" else q.rep(v)

    return HomCandidate(ins, q, proj, kind="dom")


# -- products -------------------------------------------------------------------


MU = ("mu",)


class FiberedProduct(Dom):
    """Replace each point of a width-zero sub-carrier by a copy of ``n``.

    ``n`` must have a minimum and a maximum exchanged by its minus;
    points outside the sub-carrier get paired with the minimum.
    """

    def __init__(self, m: Dom, a_member: Callable, n: Dom, name: Optional[str] = None):
        self.m = m
        self.a_member = a_member
        self.n = n
        n_elems = n.iter_elements()
        if n_elems:
            self.mu = n_elems[0]
            if not n.eq(n.neg(self.mu), n_elems[-1]):
                raise ValueError("fiber extremes must be exchanged by the minus")
        else:
            raise ValueError("the fiber carrier must be finite with a minimum")
        self.name = name or f"fibered({m.name},{n.name})"

    def zero(self):
        return (self.m.zero(), self.n.zero())

    def add(self, p, q):
        x = self.m.add(p[0], q[0])
        if self.a_member(x):
            return (x, self.n.add(p[1], q[1]))
        return (x, self.mu)

    def neg(self, p):
        x = self.m.neg(p[0])
        if self.a_member(x):
            return (x, self.n.neg(p[1]))
        return (x, self.mu)

    def cmp(self, p, q):
        c = self.m.cmp(p[0], q[0])
        return c if c else self.n.cmp(p[1], q[1])

    def contains(self, p):
        if not (isinstance(p, tuple) and len(p) == 2):
            return False
        x, y = p
        if not self.m.contains(x):
            return False
        if self.a_member(x):
            return self.n.contains(y)
        return y == self.mu

    def iter_elements(self):
        m_elems = self.m.iter_elements()
        n_elems = self.n.iter_elements()
        if m_elems is None or n_elems is None:
            return None
        out = []
        for x in m_elems:
            if self.a_member(x):
                out.extend((x, y) for y in n_elems)
            else:
                out.append((x, self.mu))
        return out

    def sample(self, rng, count):
        xs = self.m.sample(rng, count)
        n_elems = self.n.iter_elements()
        return [(x, rng.choice(n_elems)) if self.a_member(x) else (x, self.mu)
                for x in xs]

    def fmt(self, p):
        return f"({self.m.fmt(p[0])},{self.n.fmt(p[1])})"

    def projection(self) -> HomCandidate:
        return HomCandidate(self, self.m, lambda p: p[0], kind="dom",
                            universe=self.iter_elements())


def fibered_product(m: Dom, a_member: Callable, n: Dom) -> FiberedProduct:
    return FiberedProduct(m, a_member, n)


class MuProduct(Dom):
    """Copy of ``n`` inside every width-zero point of ``m``; a fresh
    bottom symbol marks the fibers of the width-positive points."""

    def __init__(self, m: Dom, n: Dom, name: Optional[str] = None):
        if classify_type(m) != "first":
            raise ValueError("the base of the product must be of the first type")
        self.m = m
        self.n = n
        self.name = name or f"mu({m.name},{n.name})"

    def _narrow(self, x) -> bool:
        return self.m.eq(self.m.width_of(x), self.m.zero())

    def zero(self):
        return (self.m.zero(), self.n.zero())

    def add(self, p, q):
        x = self.m.add(p[0], q[0])
        if self._narrow(p[0]) and self._narrow(q[0]):
            return (x, self.n.add(p[1], q[1]))
        return (x, MU)

    def neg(self, p):
        x = self.m.neg(p[0])
        if p[1] is not MU and self._narrow(x):
            return (x, self.n.neg(p[1]))
        return (x, MU)

    def cmp(self, p, q):
        c = self.m.cmp(p[0], q[0])
        if c:
            return c
        if p[1] is MU or q[1] is MU:
            if p[1] is MU and q[1] is MU:
                return 0
            return -1 if p[1] is MU else 1
        return self.n.cmp(p[1], q[1])

    def contains(self, p):
        if not (isinstance(p, tuple) and len(p) == 2):
            return False
        x, y = p
        if not self.m.contains(x):
            return False
        if self._narrow(x):
            return y is not MU and self.n.contains(y)
        return y is MU

    def iter_elements(self):
        m_elems = self.m.iter_elements()
        n_elems = self.n.iter_elements()
        if m_elems is None or n_elems is None:
            return None
        out = []
        for x in m_elems:
            if self._narrow(x):
                out.extend((x, y) for y in n_elems)
            else:
                out.append((x, MU))
        return out

    def sample(self, rng, count):
        xs = self.m.sample(rng, count)
        out = []
        for x in xs:
            if self._narrow(x):
                out.append((x, rng.choice(self.n.sample(rng, 1))))
            else:
                out.append((x, MU))
        return out

    def fmt(self, p):
        tail = "mu" if p[1] is MU else self.n.fmt(p[1])
        return f"({self.m.fmt(p[0])},{tail})"

    def projection(self) -> HomCandidate:
        return HomCandidate(self, self.m, lambda p: p[0], kind="dom",
                            universe=self.iter_elements())


def mu_product(m: Dom, n: Dom) -> MuProduct:
    return MuProduct(m, n)


# -- collapse -------------------------------------------------------------------


def collapse(m: Dom, class_in_p: Callable) -> tuple[FiberedProduct, Callable]:
    """Keep the double points over ``class_in_p``, merge the others.

    ``class_in_p`` judges quotient representatives (largest class
    members). Returns the collapsed carrier and the comparison map.
    """
    if classify_type(m) != "third":
        raise ValueError("collapse needs a third-type carrier")
    q = QuotientEquiv(m)
    two = FiniteDom(trivial_dom(2))

    coll = FiberedProduct(q, class_in_p, two, name=f"coll({m.name})")

    def eta(x):
        rep = q.rep(x)
        if class_in_p(rep) and sign_of(m, x) == 1:
            return (rep, two.zero())
        return (rep, two.delta())

    return coll, eta


# -- cuts of a finite carrier -----------------------------------------------------


def cuts_of_dom(d: Dom, plus_rule: str = "right") -> FiniteDom:
    """The cut carrier of a finite first-type carrier.

    The sum of two cuts is the upper edge of the right-sums of their
    left parts; ``plus_rule="left"`` selects the (defective) variant
    using the plain sums instead.
    """
    elems = d.iter_elements()
    if elems is None:
        raise ValueError("cut carriers are materialized for finite carriers only")
    if plus_rule not in ("right", "left"):
        raise ValueError("plus_rule must be 'right' or 'left'")
    if classify_type(d) != "first":
        raise ValueError("the base carrier must be of the first type")
    n = len(elems)
    op = d.radd if plus_rule == "right" else d.add

    def plus(i: int, j: int) -> int:
        if i == 0 or j == 0:
            return 0
        best = 0
        for a in range(i):
            for b in range(j):
                best = max(best, _index_of(d, elems, op(elems[a], elems[b])))
        return best + 1

    table = [[plus(i, j) for j in range(n + 1)] for i in range(n + 1)]
    return FiniteDom(FiniteDomTable(table))


# -- embedding the finite chains ----------------------------------------------------


def embed_finite(n: int) -> HomCandidate:
    """A verified copy of the n-element chain inside a cut or mixed carrier.

    Even chains land among the cuts of a dense lexicographic power of
    the rationals (level edges around the zero pair); odd chains land in
    the mixed group-plus-cuts carrier, with the chain zero at the group
    zero.
    """
    if n < 1:
        raise ValueError("chain size must be positive")
    src = FiniteDom(trivial_dom(n))
    if n % 2 == 0:
        atoms = (n - 2) // 2
        g = Group.trivial() if atoms == 0 else Group.lex(*([Group.Q()] * atoms))
        target: Dom = CutDom(g)
        images: list = [NEG_INF]
        if atoms:
            for k in range(atoms - 1, 0, -1):
                images.append(ct.neg(g, ct.level_edge(g, k)))
            images.append(ct.neg(g, ct.zero_cut(g)))
            images.append(ct.zero_cut(g))
            for k in range(1, atoms):
                images.append(ct.level_edge(g, k))
        images.append(POS_INF)
    else:
        atoms = (n - 3) // 2 if n >= 3 else 0
        g = Group.trivial() if atoms == 0 else Group.lex(*([Group.Q()] * atoms))
        target = TildeDom(g)
        images = [("c", NEG_INF)]
        if atoms:
            for k in range(atoms - 1, 0, -1):
                images.append(("c", ct.neg(g, ct.level_edge(g, k))))
            images.append(("c", ct.neg(g, ct.zero_cut(g))))
        if n >= 3:
            images.append(("g", g.zero()))
            if atoms:
                images.append(("c", ct.zero_cut(g)))
                for k in range(1, atoms):
                    images.append(("c", ct.level_edge(g, k)))
            images.append(("c", POS_INF))
        else:
            images = [("g", g.zero())]
    if len(images) != n:
        raise AssertionError(f"embedding size mismatch: {len(images)} != {n}")
    mapping = dict(enumerate(images))
    return HomCandidate(src, target, mapping, kind="dom", universe=list(range(n)))
