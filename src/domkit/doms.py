"""The shared ordered-monoid-with-minus interface and its carriers.

A carrier exposes four primitives (zero, add, neg, cmp); everything else
-- right sum, both differences, width, absolute value, signature,
classification -- is derived from the defining equations and is
therefore uniform across finite tables, groups, cut carriers and the
mixed group-plus-cuts carrier.

Facts about one carrier are methods of that carrier: ``associated_group``,
``width_set``, ``is_proper``, ``is_strongly_proper``, ``minimal_positive``
(and ``least_positives``), ``archimedean_le``, ``witness_width``, and the literal
syntax ``parse_literal``/``fmt``. A finite carrier decides each
by enumerating its elements; an infinite one answers where it overrides
the method exactly, and raises ``ValueError`` otherwise. The cut-valued
embedding of wide elements is ``CutDom.lambda_map``; when a target
group has no cut there, its error names a target element between the
two edges, computed from the anchor.

A carrier derived from another one is a ``View`` of it, overriding only
what it changes. ``GlueDom`` glues a carrier below the wide part of
another one and draws samples from both; the mixed carrier ``TildeDom``
is a group glued below its cuts, each group element sent to its
principal cut, with only literals and closed-form facts of its own.
``check_axioms``, ``verify_hom`` and ``valuations.check_valuation`` are
law tables run by one ``check_laws``.

``sign_of`` is the one signature, of a cut as of any element;
``SIGN_INF`` and ``SIGN_SPADE`` are its values that are not a sign.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from domkit.groups import Atom, Group, parse_coords
from domkit import cuts as ct
from domkit.cuts import Cut, NEG_INF, POS_INF
from domkit.scalars import Sqrt2, canon, is_rational

SIGN_INF = "inf"
SIGN_SPADE = "spade"

PREDOM_AXIOMS = ("assoc", "comm", "neutral", "PA", "minus")
# the axioms that make a pre-dom a dom
M_AXIOMS = ("MA", "MB", "MCa", "MCb")
DOM_AXIOMS = PREDOM_AXIOMS + M_AXIOMS
ALL_AXIOMS = DOM_AXIOMS + ("MCprime",)


class AssociatedGroup:
    """The ordered group of width-zero classes and the map onto it."""

    def __init__(self, group: Optional[Group], shifted_minus: bool, note: str,
                 class_of: Callable):
        self.group = group
        self.shifted_minus = shifted_minus
        self.note = note
        self.class_of = class_of


class Dom:
    """Base carrier: implement zero/add/neg/cmp (and sampling)."""

    name = "dom"

    # -- primitives ------------------------------------------------------

    def zero(self):
        raise NotImplementedError

    def add(self, x, y):
        raise NotImplementedError

    def neg(self, x):
        raise NotImplementedError

    def cmp(self, x, y) -> int:
        raise NotImplementedError

    # -- comparisons -----------------------------------------------------

    def eq(self, x, y) -> bool:
        return self.cmp(x, y) == 0

    def le(self, x, y) -> bool:
        return self.cmp(x, y) <= 0

    def lt(self, x, y) -> bool:
        return self.cmp(x, y) < 0

    def max(self, x, y):
        return x if self.cmp(x, y) >= 0 else y

    # -- derived operations ----------------------------------------------

    def radd(self, x, y):
        """Right sum -((-x) + (-y))."""
        return self.neg(self.add(self.neg(x), self.neg(y)))

    def rsub(self, x, y):
        """Right difference x - y = x +R (-y)."""
        return self.radd(x, self.neg(y))

    def lsub(self, x, y):
        """Left difference x + (-y)."""
        return self.add(x, self.neg(y))

    def delta(self):
        return self.neg(self.zero())

    def width_of(self, x):
        return self.rsub(x, x)

    def abs_of(self, x):
        return self.max(x, self.neg(x))

    # -- universe ---------------------------------------------------------

    def iter_elements(self) -> Optional[list]:
        """All elements in order, for finite carriers; None otherwise."""
        return None

    def sample(self, rng: random.Random, count: int) -> list:
        elems = self.iter_elements()
        if elems is None:
            raise NotImplementedError(f"{self.name} cannot be sampled")
        return [rng.choice(elems) for _ in range(count)]

    def universe(self, rng: random.Random, count: int) -> list:
        """Exhaustive when finite, sampled otherwise."""
        elems = self.iter_elements()
        return list(elems) if elems is not None else self.sample(rng, count)

    def contains(self, x) -> bool:
        return True

    def fmt(self, x) -> str:
        """A literal that ``parse_literal`` reads back as x, where the
        carrier has literals."""
        return str(x)

    def parse_literal(self, tok: str):
        """The element a literal names: ValueError when the literal does not
        parse, TypeError when the carrier does not hold it."""
        raise TypeError(f"no literals defined for carrier {self.name}")

    # -- carrier facts: by enumeration when finite, else a ValueError ------

    def _finite(self, fact: str) -> list:
        """The elements of a finite carrier, else a ValueError naming the fact."""
        elems = self.iter_elements()
        if elems is None:
            raise ValueError(f"{fact} for {self.name}")
        return elems

    def associated_group(self) -> AssociatedGroup:
        """The ordered group of width-zero classes, with the quotient map."""
        self._finite("associated group unsupported")
        return AssociatedGroup(Group.trivial(), False, "finite ordered group is trivial",
                               class_of=lambda x: ())

    def width_set(self) -> list:
        """The set of width elements, ordered."""
        elems = self._finite("width set undecidable")
        return [x for x in elems if self.eq(self.width_of(x), x)]

    def _width_zero(self, elems: list) -> list:
        zero = self.zero()
        return [z for z in elems if self.eq(self.width_of(z), zero)]

    def is_proper(self) -> bool:
        """Between any two elements x < y lies a width-zero element."""
        elems = self._finite("properness undecidable")
        m0 = self._width_zero(elems)
        return all(any(self.le(x, z) and self.le(z, y) for z in m0)
                   for x in elems for y in elems if self.lt(x, y))

    def is_strongly_proper(self) -> bool:
        """Proper, and below every positive width lies a positive width-zero
        element."""
        if not self.is_proper():
            return False
        elems = self._finite("strong properness undecidable")
        zero = self.zero()
        m0 = self._width_zero(elems)
        for y in elems:
            wy = self.width_of(y)
            if self.lt(zero, wy) and not any(self.lt(zero, x) and self.lt(x, wy) for x in m0):
                return False
        return True

    def minimal_positive(self):
        """The least element above the zero, or None when there is none."""
        elems = self._finite("minimal positive element undecidable")
        zero = self.zero()
        pos = [x for x in elems if self.lt(zero, x)]
        return min(pos, key=functools.cmp_to_key(self.cmp)) if pos else None

    def least_positives(self) -> list:
        """The least elements above the zero in increasing order, as many of
        them as the carrier knows."""
        least = self.minimal_positive()
        return [] if least is None else [least]

    def archimedean_le(self, x, y) -> bool:
        """|x| <= some right-sum iterate of |y| (iterate 0 is |y| itself).

        A finite carrier doubles |y| once per element: its iterates
        repeat within that many steps, so the answer is exact.
        """
        elems = self._finite("Archimedean order undecidable")
        ax, cur = self.abs_of(x), self.abs_of(y)
        for _ in elems:
            if self.le(ax, cur):
                return True
            cur = self.radd(cur, cur)
        return False

    def witness_width(self, x):
        """Least width of an element y with y + width(x) = x or
        y - width(x) = x; width(x) itself when no y qualifies."""
        wx = self.width_of(x)
        elems = self._finite("w-valuation unsupported")
        best = None
        for y in elems:
            if self.eq(self.add(y, wx), x) or self.eq(self.rsub(y, wx), x):
                wy = self.width_of(y)
                if best is None or self.lt(wy, best):
                    best = wy
        return wx if best is None else best


class View(Dom):
    """A carrier derived from ``parent``: the primitives, the universe and
    formatting are the parent's until a subclass overrides them. The
    derived operations are not forwarded; they stay ``Dom``'s generic
    forms over the view's own primitives."""

    def __init__(self, parent: Dom, name: str):
        self.parent = parent
        self.name = name

    def zero(self):
        return self.parent.zero()

    def add(self, x, y):
        return self.parent.add(x, y)

    def neg(self, x):
        return self.parent.neg(x)

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


# -- sampling palettes ------------------------------------------------------


def _atom_palette(atom: Atom, field: str) -> list:
    if atom.kind == "Z":
        return list(range(-3, 4))
    if atom.kind == "Zloc":
        p = atom.p
        dens = [d for d in (1, 3, 5) if d % p != 0] or [1]
        return [canon(Fraction(n, d)) for n in range(-3, 4) for d in dens]
    vals = [canon(Fraction(n, d)) for n in range(-3, 4) for d in (1, 2, 3)]
    if atom.kind == "Qr2" or (atom.kind == "Q" and field == "Qr2"):
        vals += [Sqrt2(0, 1), Sqrt2(0, -1), Sqrt2(1, 1), Sqrt2(-1, 2), Sqrt2(Fraction(1, 2), 1)]
    return vals


def _anchor_extras(atom: Atom, field: str) -> list:
    """Anchor values outside the component (legal only over dense atoms)."""
    if atom.kind == "Zloc":
        extra = [Fraction(1, atom.p), Fraction(1, atom.p ** 2), Fraction(3, atom.p),
                 Fraction(-1, atom.p), Fraction(-1, atom.p ** 2)]
        if field == "Qr2":
            extra.append(Sqrt2(0, 1))
        return extra
    if atom.kind == "Q" and field == "Qr2":
        return [Sqrt2(0, 1), Sqrt2(0, -1), Sqrt2(1, -1), Sqrt2(Fraction(1, 2), Fraction(1, 2))]
    return []


# -- carriers ---------------------------------------------------------------


class GroupDom(Dom):
    """An ordered group seen as a carrier (delta = 0, right sum = sum)."""

    def __init__(self, group: Group):
        self.group = group
        self.name = group.format()

    def zero(self):
        return self.group.zero()

    def add(self, x, y):
        return self.group.add(x, y)

    def neg(self, x):
        return self.group.neg(x)

    def cmp(self, x, y):
        return self.group.cmp(x, y)

    def contains(self, x):
        return isinstance(x, tuple) and self.group.contains(x)

    def iter_elements(self):
        return [()] if self.group.num_atoms == 0 else None

    def sample(self, rng, count):
        g = self.group
        pals = [_atom_palette(a, "Q") for a in g.atoms]
        out = [g.zero()]
        while len(out) < count:
            out.append(tuple(rng.choice(p) for p in pals))
        return out[:count]

    def fmt(self, x):
        return self.group.format_element(x)

    def parse_literal(self, tok):
        if ct.is_cut_literal(tok):
            raise TypeError(f"{tok!r} is a cut literal, not an element of {self.name}")
        return _group_literal(self.group, tok)

    def associated_group(self):
        return AssociatedGroup(self.group, False, "", class_of=lambda x: x)

    def width_set(self):
        return [self.zero()]

    def is_proper(self):
        return True

    def is_strongly_proper(self):
        return True

    def minimal_positive(self):
        return self.group.min_positive()

    def archimedean_le(self, x, y):
        # negation keeps the first nonzero coordinate where it is
        return _lead_rank(x) <= _lead_rank(y)

    def witness_width(self, x):
        return self.zero()


def _lead_rank(coords: tuple) -> int:
    """len(coords) - i for the first nonzero coordinate i; 0 when all are
    zero. Over a lexicographic group it names an element's Archimedean
    class: |x| is at most a sum of copies of |y| iff x's rank is at most
    y's."""
    return next((len(coords) - i for i, v in enumerate(coords) if v != 0), 0)


class CutDom(Dom):
    """All representable cuts of a group, with the left sum as the sum."""

    def __init__(self, group: Group, field: str = "Q"):
        if field not in ("Q", "Qr2"):
            raise ValueError(f"unknown anchor field {field!r}")
        self.group = group
        self.field = field
        self.name = f"cuts({group.format()})" if field == "Q" else f"cuts({group.format()},r2)"
        # the carrier's constants: zero and delta, and the width cut of each
        # level on first use (building all m of them is quadratic in m)
        self._zero = ct.zero_cut(group)
        self._delta = ct.neg(group, self._zero)
        self._edges = [None] * group.num_atoms

    def zero(self):
        return self._zero

    def delta(self):
        return self._delta

    def add(self, x, y):
        return ct.add(self.group, x, y)

    def neg(self, x):
        return ct.neg(self.group, x)

    def cmp(self, x, y):
        return ct.compare(self.group, x, y)

    # the right-set rule tables, kept independent of the derived form
    def radd(self, x, y):
        return ct.radd(self.group, x, y)

    def width_of(self, x):
        if x.kind != "n":
            return POS_INF
        # a built edge is read without a call, as the law checks do often
        return self._edges[x.level] or self._edge(x.level)

    def _edge(self, k: int) -> Cut:
        if self._edges[k] is None:
            self._edges[k] = ct.level_edge(self.group, k)
        return self._edges[k]

    def contains(self, x):
        """A cut whose anchor lies in the anchor field or in its own component."""
        if not isinstance(x, Cut):
            return False
        if x.kind != "n" or self.field == "Qr2" or is_rational(x.anchor):
            return True
        return self.group.atoms[len(x.prefix) - 1].contains(x.anchor)

    def iter_elements(self):
        if self.group.num_atoms == 0:
            return [NEG_INF, POS_INF]
        return None

    def staples(self) -> list:
        """Cuts that every sampled universe must contain."""
        g = self.group
        if g.num_atoms == 0:
            return [NEG_INF, POS_INF]
        out = [NEG_INF, POS_INF, self._zero, self._delta]
        out += map(self._edge, range(g.num_atoms))
        for extra in _anchor_extras(g.atoms[-1], self.field)[:3]:
            out.append(ct.make_node(g, 0, g.zero()[:-1] + (extra,), ct.FILLED))
        return out

    def sample(self, rng, count):
        g = self.group
        if g.num_atoms == 0:
            return [rng.choice([NEG_INF, POS_INF]) for _ in range(count)]
        out = list(self.staples())
        m = g.num_atoms
        while len(out) < count:
            r = rng.random()
            if r < 0.04:
                out.append(NEG_INF if rng.random() < 0.5 else POS_INF)
                continue
            k = rng.randrange(m) if r < 0.8 else 0
            coords = []
            for i in range(m - k - 1):
                coords.append(rng.choice(_atom_palette(g.atoms[i], "Q")))
            # only the anchor may come from the anchor field
            atom = g.atoms[m - k - 1]
            coords.append(rng.choice(_atom_palette(atom, self.field)
                                     + _anchor_extras(atom, self.field)))
            side = rng.choice((ct.MINUS, ct.FILLED, ct.PLUS))
            out.append(ct.make_node(g, k, tuple(coords), side))
        return out[:count]

    def fmt(self, x):
        return ct.format_cut(self.group, x)

    def parse_literal(self, tok):
        return _cut_literal(self, tok, self) or _group_literal(None, tok)

    def associated_group(self):
        g = self.group
        if g.num_atoms == 0:
            return AssociatedGroup(Group.trivial(), False, "", class_of=lambda x: ())
        if g.min_positive() is not None:
            return AssociatedGroup(
                g, True, "classes are successor cuts of group elements",
                class_of=lambda cut: cut.prefix)
        atoms = list(g.atoms)
        atoms[-1] = Atom("Qr2" if "Qr2" in (self.field, atoms[-1].kind) else "Q")
        rep = Group(tuple(atoms))
        return AssociatedGroup(
            rep, False,
            "dense, contains the base group; completion beyond representable "
            "classes is out of scope",
            class_of=lambda cut: cut.prefix)

    def width_set(self):
        return [*map(self._edge, range(self.group.num_atoms)), POS_INF]

    def is_proper(self):
        # between two distinct cuts there is always a group element, and
        # the principal cuts of group elements have width zero
        return True

    def is_strongly_proper(self):
        # positive widths are whole-level edges; a small positive
        # principal cut sits strictly below each of them
        return True

    def minimal_positive(self):
        one = self.group.min_positive()
        return None if one is None else ct.make_node(self.group, 0, one, ct.PLUS)

    def archimedean_le(self, x, y):
        return self._rank(self.abs_of(x)) <= self._rank(self.abs_of(y))

    def _rank(self, a) -> int:
        """Archimedean class of a cut a >= the zero cut. A cut whose prefix
        leads with the coordinate of rank r (``_lead_rank``) grows by
        doubling in that coordinate: rank 2r - 1. An all-zero prefix at
        level k is the edge of H_k, between the classes of ranks k and
        k + 1: it is stable under doubling (2k) unless its anchor atom is
        discrete, where it grows into the next class (2k + 1). No finite
        iterate reaches +inf (2m)."""
        m = self.group.num_atoms
        if a.kind != "n":
            return 2 * m
        r = _lead_rank(a.prefix)
        if r:
            return 2 * (r + a.level) - 1
        return 2 * a.level + self.group.atoms[m - a.level - 1].discrete

    def witness_width(self, x):
        if x.kind != "n" or x.side != ct.FILLED:
            return self._zero
        return self._edge(x.level)

    def lambda_map(self, target: Group, a) -> Cut:
        """Cut of ``target`` carved out by the width-zero classes below ``a``.

        ``a`` must have positive width. Requires that no element of the
        target group straddles the approximating classes: the two edges
        below and above them must agree, else the error names a target
        element strictly between them.
        """
        if a.kind != "n":
            return NEG_INF if a.kind == "lo" else POS_INF
        if a.level == 0:
            raise ValueError("the embedding is defined on width-positive elements only")
        k = a.level
        src_atom = self.group.atoms[self.group.num_atoms - k - 1]
        tgt_atom = target.atoms[target.num_atoms - k - 1]
        if a.side != ct.FILLED and not tgt_atom.contains(a.anchor):
            raise ValueError("target group does not contain the approximating classes")
        low = ct.make_node(target, k, a.prefix, ct.MINUS if a.side == ct.FILLED else a.side)
        high = low
        if a.side == ct.PLUS and src_atom.discrete:
            bumped = a.prefix[:-1] + (a.anchor + 1,)
            high = ct.make_node(target, k, bumped, ct.MINUS)
        elif a.side == ct.FILLED and tgt_atom.contains(a.anchor):
            high = ct.make_node(target, k, a.prefix, ct.PLUS)
        if low != high:
            # between the edges: the anchor itself when it is filled, else a
            # point of the dense target component inside (anchor, anchor + 1)
            anchor = a.anchor
            if a.side == ct.PLUS:
                anchor += Fraction(1, tgt_atom.dense_denominator())
            witness = a.prefix[:-1] + (anchor,) + (0,) * k
            raise ValueError(
                "no cut of the target group: "
                f"{target.format_element(witness)} straddles the classes below and above")
        return low


def _group_literal(group: Optional[Group], tok: str) -> tuple:
    """The element of ``group`` a literal names: ValueError when it does not
    scan, TypeError when it names none (any, without a group)."""
    coords = parse_coords(tok)
    if group is None:
        raise TypeError(f"{tok!r} is not a cut literal")
    if len(coords) != group.num_atoms:
        raise TypeError(f"expected {group.num_atoms} coordinates in {tok!r}")
    if not group.contains(coords):
        raise TypeError(f"{group.format_element(coords)} is not in {group.format()}")
    return coords  # parse_coords gives canonical scalars


def _cut_literal(cuts: CutDom, tok: str, owner: Dom) -> Optional[Cut]:
    """The cut a literal names, checked to lie in ``owner``; None without a cut head."""
    cut = ct.parse_cut(cuts.group, tok)
    if cut is not None and not cuts.contains(cut):
        raise TypeError(f"{tok!r} is not in {owner.name}")
    return cut


class GlueDom(Dom):
    """Join a carrier below with the wide part of another carrier above.

    ``lower`` contributes all its elements, tagged ``"m"``; ``upper``
    contributes those whose width is at least ``o_min`` (the minimum of
    the final width segment), tagged ``"n"``. ``theta_plus_min(x)`` is
    the largest member of the class the lower element is sent to at the
    bottom width; the rest of the compatible family follows from it.
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
        # count // 2 upper draws kept where in the segment, the rest lower
        n_up = count // 2
        mixed = [("n", v) for v in self.upper.sample(rng, n_up) if self._in_segment(v)]
        mixed += [("m", v) for v in self.lower.sample(rng, count - n_up)]
        rng.shuffle(mixed)
        return mixed

    def fmt(self, x):
        t, v = x
        return (self.lower if t == "m" else self.upper).fmt(v)


class TildeDom(GlueDom):
    """A group glued below its cut carrier.

    A group element is sent to its principal cut at the zero width, so it
    translates the cuts; the zero is the group zero, so the minus fixes
    it and the carrier sits in the first type.
    """

    def __init__(self, group: Group, field: str = "Q"):
        self.group = group
        cuts = CutDom(group, field)
        zero_cut = cuts.zero()
        name = f"tilde({group.format()})" if field == "Q" else f"tilde({group.format()},r2)"
        super().__init__(GroupDom(group), cuts, lambda v: ct.shift_by(group, v, zero_cut),
                         cuts.width_of(zero_cut), name)

    def fmt(self, x):
        t, v = x
        return f"g({self.lower.fmt(v)})" if t == "m" else self.upper.fmt(v)

    def parse_literal(self, tok):
        cut = _cut_literal(self.upper, tok, self)
        if cut is not None:
            return ("n", cut)
        if tok.startswith("g(") and tok.endswith(")"):
            tok = tok[2:-1]
        return ("m", _group_literal(self.group, tok))

    def associated_group(self):
        return AssociatedGroup(self.group, False, "width-zero part is the group itself",
                               class_of=lambda x: x[1])

    def width_set(self):
        return [self.zero()] + [("n", w) for w in self.upper.width_set()]

    def is_proper(self):
        return True

    def is_strongly_proper(self):
        # every cut has positive width here, but no group element fits
        # strictly between the group zero and the zero cut
        return False

    def minimal_positive(self):
        return ("n", self.upper.zero())

    def least_positives(self):
        # the group unit follows the zero cut
        unit = self.group.min_positive()
        return [self.minimal_positive()] + ([("m", unit)] if unit is not None else [])

    def archimedean_le(self, x, y):
        return self._rank(x) <= self._rank(y)

    def _rank(self, x) -> int:
        # the group zero (-1) lies below the zero cut, which it never
        # reaches; another element shares the class of its principal cut
        t, v = x
        if t == "m":
            return 2 * _lead_rank(v) - 1
        return self.upper._rank(self.upper.abs_of(v))

    def witness_width(self, x):
        t, v = x
        if t == "m" or v.kind != "n" or v.side != ct.FILLED:
            return self.zero()
        return ("n", self.upper.witness_width(v))


# -- axiom checking ----------------------------------------------------------


def is_exhaustive(d: Dom, universe: Sequence) -> bool:
    """Does the universe hold every element of a finite carrier, each once?"""
    elems = d.iter_elements()
    return (elems is not None and len(universe) == len(elems)
            and all(universe.count(e) == 1 for e in elems))


def first_witness(tuples: Iterable[tuple], fails: Callable) -> tuple:
    """(True, None) when no tuple fails, else (False, the first that does)."""
    w = next((t for t in tuples if fails(*t)), None)
    return (w is None, w)


def check_laws(d: Dom, laws: dict, universe: Optional[Sequence], which: Optional[Iterable[str]],
               samples: int, seed: int) -> dict:
    """Run a law table: ``laws`` maps a name to ``(tuples, fails)``, and the
    report maps it to ``first_witness``'s verdict, in the order of ``laws``
    (only the names in ``which``, all when it is None).

    ``tuples`` is ``1`` for a law over the whole universe; ``k >= 2`` for
    every k-tuple of an exhaustive universe (``is_exhaustive``), else
    ``samples`` seeded draws of k elements each, drawn lazily one tuple at
    a time; or an explicit list of tuples. Without a universe the carrier
    draws one from the same ``Random(seed)`` as the tuples.
    """
    rng = random.Random(seed)
    universe = list(d.universe(rng, samples) if universe is None else universe)
    exhaustive = is_exhaustive(d, universe)
    which = None if which is None else set(which)
    report = {}
    for name, (tuples, fails) in laws.items():
        if which is not None and name not in which:
            continue
        if tuples == 1:
            tuples = ((x,) for x in universe)
        elif isinstance(tuples, int):
            k = tuples
            tuples = (itertools.product(universe, repeat=k) if exhaustive else
                      (tuple(rng.choice(universe) for _ in range(k)) for _ in range(samples)))
        report[name] = first_witness(tuples, fails)
    return report


def check_axioms(d: Dom, universe: Optional[Sequence] = None,
                 which: Iterable[str] = ALL_AXIOMS,
                 samples: int = 300, seed: int = 0) -> dict:
    """Per-axiom verdicts with a first witness on failure.

    A universe that holds every element of a finite carrier once is
    checked over all tuples; any other over seeded samples drawn from
    ``universe`` (or the carrier's own sampler).
    """
    zero = d.zero()
    delta = d.delta()
    # each law's arity (laws in one variable run over the whole universe)
    # and the test that a tuple is a witness against it
    laws = {
        "assoc": (3, lambda x, y, z: not d.eq(d.add(d.add(x, y), z), d.add(x, d.add(y, z)))),
        "comm": (2, lambda x, y: not d.eq(d.add(x, y), d.add(y, x))),
        "neutral": (1, lambda x: not d.eq(d.add(x, zero), x)),
        "PA": (3, lambda x, y, t: d.lt(x, y) and d.cmp(d.add(x, t), d.add(y, t)) > 0),
        "minus": (2, lambda x, y: not d.eq(d.neg(d.neg(x)), x)
                  or (d.le(x, y) and d.cmp(d.neg(y), d.neg(x)) > 0)),
        "MA": ([(delta,)], lambda x: not d.le(x, zero)),
        "MB": (1, lambda x: d.lt(d.abs_of(x), zero)),
        "MCa": (2, lambda x, y: d.lt(x, y) and not d.lt(d.rsub(x, y), zero)),
        # single-variable equivalent: every width is nonnegative
        "MCb": (1, lambda x: d.lt(d.width_of(x), zero)),
        "MCprime": (3, lambda x, y, z: d.cmp(
            d.rsub(d.add(x, y), z), d.add(x, d.rsub(y, z))) < 0),
    }
    report = check_laws(d, laws, universe, which, samples, seed)
    ok, w = report.get("minus", (True, None))
    if not ok and not d.eq(d.neg(d.neg(w[0])), w[0]):
        report["minus"] = (False, w[:1])  # the minus is not an involution at x
    return report


# -- classification -----------------------------------------------------------


def classify_type(d: Dom) -> str:
    delta = d.delta()
    zero = d.zero()
    if d.eq(delta, zero):
        return "first"
    two = d.add(delta, delta)
    c = d.cmp(two, delta)
    if c < 0:
        return "second"
    if c == 0 and d.lt(delta, zero):
        return "third"
    raise ValueError("carrier does not satisfy the sign axioms")


def f_plus(d: Dom, x):
    """Largest member of the class of x: (x + delta) - delta."""
    return d.rsub(d.add(x, d.delta()), d.delta())


def f_minus(d: Dom, x):
    """Smallest member of the class of x: (x - delta) + delta."""
    return d.add(d.rsub(x, d.delta()), d.delta())


def equiv_class(d: Dom, x) -> list:
    lo, hi = f_minus(d, x), f_plus(d, x)
    return [lo] if d.eq(lo, hi) else [lo, hi]


def multiplicity(d: Dom, x) -> int:
    return len(equiv_class(d, x))


def sign_of(d: Dom, x):
    """Signature of x, computed inside the carrier slice at its own width."""
    w = d.width_of(x)
    dv = d.neg(w)  # the displaced zero of the slice
    if d.eq(dv, w):
        return SIGN_SPADE
    if d.cmp(d.add(dv, dv), dv) < 0:
        return SIGN_INF
    lo = d.add(x, dv)
    hi = d.radd(x, w)  # x minus the slice delta
    cl, ch = d.cmp(lo, x), d.cmp(x, hi)
    if cl == 0 and ch < 0:
        return -1
    if cl == 0 and ch == 0:
        return 0
    if cl < 0 and ch == 0:
        return 1
    raise ValueError("signature undefined (carrier violates the axioms?)")


# -- distinguished subsets -----------------------------------------------------


class SubDomView(View):
    """Restriction of a carrier to a symmetric subset, with its own zero."""

    def __init__(self, parent: Dom, pred: Callable, zero_elem, name: str,
                 staples: Sequence = ()):
        super().__init__(parent, name)
        self.pred = pred
        self._zero = zero_elem
        self._staples = list(staples)

    def zero(self):
        return self._zero

    def contains(self, x):
        return self.parent.contains(x) and self.pred(x)

    def iter_elements(self):
        elems = self.parent.iter_elements()
        if elems is None:
            return None
        return [x for x in elems if self.pred(x)]

    def sample(self, rng, count):
        """Distinct members, the staples first; drawing stops after 50
        parent samples that add no new member. A subset with fewer members
        than ``count`` returns those it found; one with none raises."""
        seen = set(self._staples)
        out = [s for s in dict.fromkeys(self._staples) if self.pred(s)]
        idle = 0
        while len(out) < count and idle < 50:
            before = len(out)
            for x in self.parent.sample(rng, 16):
                if x not in seen:
                    seen.add(x)
                    if self.pred(x):
                        out.append(x)
            idle += len(out) == before
        if not out:
            raise ValueError(f"could not sample enough elements of {self.name}")
        return out[:count]

    def minimal_positive(self):
        if self.iter_elements() is not None:
            return super().minimal_positive()
        try:
            least = self.parent.least_positives()
        except ValueError:
            least = []
        found = next((x for x in least if self.contains(x)), None)
        if found is None:
            raise ValueError(f"minimal positive element undecidable for {self.name}")
        return found


def special_set(d: Dom, which: str, a=None) -> SubDomView:
    """Distinguished subsets: M0, Mge(a), D, H and E (the widths are
    ``d.width_set()``)."""
    if which == "M0":
        zero = d.zero()
        return SubDomView(d, lambda x: d.eq(d.width_of(x), zero), zero,
                          f"{d.name}^0", staples=[zero, d.delta()])
    if which == "Mge":
        if a is None or not d.contains(a) or not d.eq(d.width_of(a), a):
            raise ValueError(f"Mge needs a width element of {d.name}")
        return SubDomView(d, lambda x: d.le(a, d.width_of(x)), a, f"{d.name}^(>={d.fmt(a)})")
    if which in ("D", "H"):
        if classify_type(d) != "third":
            raise ValueError(f"{which} is defined for third-type carriers only")
        zero = d.zero()

        def dbl(x):
            return d.eq(d.width_of(x), zero) and multiplicity(d, x) == 2

        view = SubDomView(d, dbl, zero, f"D({d.name})", staples=[zero, d.delta()])
        if which == "D":
            return view
        return SubDomView(d, lambda x: dbl(x) and d.eq(x, f_plus(d, x)), zero,
                          f"H({d.name})", staples=[zero])
    if which == "E":
        t = classify_type(d)
        if t == "first":
            return SubDomView(d, lambda x: d.eq(x, d.zero()), d.zero(), "trivial")
        if t == "second":
            return special_set(d, "M0")
        return special_set(d, "H")
    raise ValueError(f"unknown special set {which!r}")


# -- homomorphisms ----------------------------------------------------------------


class HomCandidate:
    """A map between carriers, to be checked as a homomorphism."""

    def __init__(self, source: Dom, target: Dom, mapping: Callable,
                 universe: Optional[list] = None):
        self.source = source
        self.target = target
        self.mapping = mapping
        self.universe = universe

    def __call__(self, x):
        return self.mapping(x)


def verify_hom(h: HomCandidate, samples: int = 250, seed: int = 0) -> dict:
    """Order/plus/minus/zero preservation with witnesses; injectivity is
    decided (True/False) on an exhaustive universe only, else None."""
    s, t = h.source, h.target
    laws = {
        "order": (2, lambda x, y: s.le(x, y) and t.cmp(h(x), h(y)) > 0),
        "plus": (2, lambda x, y: not t.eq(h(s.add(x, y)), t.add(h(x), h(y)))),
        "minus": (1, lambda x: not t.eq(h(s.neg(x)), t.neg(h(x)))),
        "zero": ([(s.zero(),)], lambda z: not t.eq(h(z), t.zero())),
    }
    report = check_laws(s, laws, h.universe, None, samples, seed)
    # a sampled universe is never exhaustive
    universe = h.universe if h.universe is not None else s.iter_elements()
    exhaustive = universe is not None and is_exhaustive(s, universe)
    report["injective"] = (len({h(x) for x in universe}) == len(universe) if exhaustive else None,
                           None)
    return report


def hom_kernel(h: HomCandidate, universe: Optional[list] = None,
               samples: int = 250, seed: int = 0) -> list:
    rng = random.Random(seed)
    if universe is None:
        universe = h.universe if h.universe is not None else h.source.universe(rng, samples)
    tz = h.target.zero()
    return [x for x in universe if h.target.eq(h(x), tz)]


def is_convex(d: Dom, sub: list, universe: list) -> bool:
    """Every element of the universe between two members of ``sub`` is one."""
    return not any(d.le(a, x) and d.le(x, b) and not any(d.eq(x, k) for k in sub)
                   for a in sub for b in sub for x in universe)
