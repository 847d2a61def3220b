"""The shared ordered-monoid-with-minus interface and its carriers.

A carrier exposes four primitives (zero, add, neg, cmp); everything else
-- right sum, both differences, width, absolute value, iterated sums,
signature, classification -- is derived from the defining equations and
is therefore uniform across finite tables, groups, cut carriers and the
mixed group-plus-cuts carrier.

Facts about one carrier are methods of that carrier: ``associated_group``,
``width_set``, ``is_proper``, ``is_strongly_proper``, ``minimal_positive``
(and ``least_positives``), ``top``, ``witness_width``, and the literal
syntax ``parse_literal``/``format_literal``. A finite carrier decides each
by enumerating its elements; an infinite one answers where it overrides
the method exactly, and raises ``ValueError`` otherwise.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from domkit.groups import Atom, Group
from domkit import cuts as ct
from domkit.cuts import Cut, NEG_INF, POS_INF, SIGN_INF, SIGN_SPADE
from domkit.scalars import Sqrt2, is_rational

PREDOM_AXIOMS = ("assoc", "comm", "neutral", "PA", "minus")
DOM_AXIOMS = PREDOM_AXIOMS + ("MA", "MB", "MCa", "MCb")
ALL_AXIOMS = DOM_AXIOMS + ("MCprime",)


@dataclass
class AssociatedGroup:
    """The ordered group of width-zero classes and the map onto it."""

    group: Optional[Group]
    shifted_minus: bool
    note: str
    class_of: Callable = field(repr=False, default=lambda x: x)


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

    def add_n(self, x, y, n: int):
        for _ in range(n):
            x = self.add(x, y)
        return x

    def sub_n(self, x, y, n: int):
        for _ in range(n):
            x = self.rsub(x, y)
        return x

    def scale(self, n: int, x):
        if n == 0:
            return self.zero()
        if n < 0:
            return self.neg(self.scale(-n, x))
        out = x
        for _ in range(n - 1):
            out = self.add(out, x)
        return out

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
        return str(x)

    def parse_literal(self, tok: str):
        """The element a literal names: ValueError when the literal does not
        parse, TypeError when the carrier does not hold it."""
        raise TypeError(f"no literals defined for carrier {self.name}")

    def format_literal(self, x) -> str:
        """A literal that ``parse_literal`` reads back as x."""
        return self.fmt(x)

    # -- carrier facts: by enumeration when finite, else a ValueError ------

    def associated_group(self) -> AssociatedGroup:
        """The ordered group of width-zero classes, with the quotient map."""
        if self.iter_elements() is not None:
            return AssociatedGroup(Group.trivial(), False, "finite ordered group is trivial",
                                   class_of=lambda x: ())
        raise ValueError(f"associated group unsupported for {self.name}")

    def width_set(self) -> list:
        """The set of width elements, ordered (exact for the built-in carriers;
        a seeded sample of widths for infinite constructions)."""
        elems = self.iter_elements()
        if elems is not None:
            return [x for x in elems if self.eq(self.width_of(x), x)]
        seen = []
        for x in self.sample(random.Random(0), 200):
            w = self.width_of(x)
            if not any(self.eq(w, s) for s in seen):
                seen.append(w)
        seen.sort(key=_cmp_key(self))
        return seen

    def _width_zero(self, elems: list) -> list:
        zero = self.zero()
        return [z for z in elems if self.eq(self.width_of(z), zero)]

    def is_proper(self) -> bool:
        """Between any two elements x < y lies a width-zero element."""
        elems = self.iter_elements()
        if elems is None:
            raise ValueError(f"properness undecidable for {self.name}")
        m0 = self._width_zero(elems)
        return all(any(self.le(x, z) and self.le(z, y) for z in m0)
                   for x in elems for y in elems if self.lt(x, y))

    def is_strongly_proper(self) -> bool:
        """Proper, and below every positive width lies a positive width-zero
        element."""
        if not self.is_proper():
            return False
        elems = self.iter_elements()
        if elems is None:
            raise ValueError(f"strong properness undecidable for {self.name}")
        zero = self.zero()
        m0 = self._width_zero(elems)
        for y in elems:
            wy = self.width_of(y)
            if self.lt(zero, wy) and not any(self.lt(zero, x) and self.lt(x, wy) for x in m0):
                return False
        return True

    def minimal_positive(self):
        """The least element above the zero, or None when there is none."""
        elems = self.iter_elements()
        if elems is None:
            raise ValueError(f"minimal positive element undecidable for {self.name}")
        zero = self.zero()
        pos = [x for x in elems if self.lt(zero, x)]
        return min(pos, key=_cmp_key(self)) if pos else None

    def least_positives(self) -> list:
        """The least elements above the zero in increasing order, as many of
        them as the carrier knows."""
        least = self.minimal_positive()
        return [] if least is None else [least]

    def top(self):
        """A greatest element that iterated sums of smaller elements never
        reach, where the carrier knows one; None otherwise."""
        return None

    def witness_width(self, x):
        """Least width of an element y with y + width(x) = x or
        y - width(x) = x; width(x) itself when no y qualifies."""
        wx = self.width_of(x)
        elems = self.iter_elements()
        if elems is None:
            raise ValueError(f"w-valuation unsupported for {self.name}")
        best = None
        for y in elems:
            if self.eq(self.add(y, wx), x) or self.eq(self.rsub(y, wx), x):
                wy = self.width_of(y)
                if best is None or self.lt(wy, best):
                    best = wy
        return wx if best is None else best


def _cmp_key(d: Dom):
    return functools.cmp_to_key(lambda a, b: d.cmp(a, b))


# -- sampling palettes ------------------------------------------------------


def _atom_palette(atom: Atom, field: str) -> list:
    if atom.kind == "Z":
        return [Fraction(n) for n in range(-3, 4)]
    if atom.kind == "Zloc":
        p = atom.p
        dens = [d for d in (1, 3, 5) if d % p != 0] or [1]
        return [Fraction(n, d) for n in range(-3, 4) for d in dens]
    vals = [Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3)]
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
        self.name = f"group({group.format()})"

    def zero(self):
        return self.group.zero()

    def add(self, x, y):
        return self.group.add(x, y)

    def neg(self, x):
        return self.group.neg(x)

    def cmp(self, x, y):
        return self.group.cmp(x, y)

    def radd(self, x, y):
        return self.group.add(x, y)

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
        # parse_element does not tell a malformed literal from one outside
        # the group, so both are type errors
        try:
            return self.group.parse_element(tok)
        except ValueError as exc:
            raise TypeError(str(exc)) from exc

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

    def witness_width(self, x):
        return self.zero()


class ShiftedGroupDom(GroupDom):
    """Group carrier with the minus displaced by a constant.

    The displaced structure keeps the order, sum and both comparison
    axioms, but violates exactly one of the two sign axioms depending on
    the sign of the displacement.
    """

    def __init__(self, group: Group, displacement: tuple):
        super().__init__(group)
        self.displacement = group.check_element(displacement)
        self.name = f"shifted({group.format()},{group.format_element(displacement)})"

    def neg(self, x):
        return self.group.add(self.group.neg(x), self.displacement)

    def radd(self, x, y):
        # -((-x) + (-y)) with the displaced minus
        return Dom.radd(self, x, y)


class CutDom(Dom):
    """All representable cuts of a group, with the left sum as the sum."""

    def __init__(self, group: Group, field: str = "Q"):
        if field not in ("Q", "Qr2"):
            raise ValueError(f"unknown anchor field {field!r}")
        self.group = group
        self.field = field
        self.name = f"cuts({group.format()})" if field == "Q" else f"cuts({group.format()},r2)"
        # the carrier's constants, built once: zero, delta and the width
        # cut of every ladder level
        self._zero = ct.zero_cut(group)
        self._delta = ct.neg(group, self._zero)
        self._edges = tuple(ct.level_edge(group, k) for k in range(group.num_atoms))

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

    # the right-set rule tables, kept independent of the derived forms
    def radd(self, x, y):
        return ct.radd(self.group, x, y)

    def rsub(self, x, y):
        return ct.rsub(self.group, x, y)

    def lsub(self, x, y):
        return ct.lsub(self.group, x, y)

    def width_of(self, x):
        if x.kind != "n":
            return POS_INF if x.kind == "hi" else self.rsub(x, x)
        return self._edges[x.level]

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
        out += self._edges
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
        if not _is_cut_literal(tok):
            raise TypeError(f"{tok!r} is not a cut literal")
        return _cut_literal(self, tok, self)

    def associated_group(self):
        g = self.group
        if g.num_atoms == 0:
            return AssociatedGroup(Group.trivial(), False, "", class_of=lambda x: ())
        if g.is_discrete:
            return AssociatedGroup(
                g, True, "classes are successor cuts of group elements",
                class_of=lambda cut: cut.prefix)
        atoms = list(g.atoms)
        if atoms[-1].kind == "Zloc" or (atoms[-1].kind == "Q" and self.field == "Qr2"):
            atoms[-1] = Atom("Qr2") if self.field == "Qr2" else Atom("Q")
        rep = Group(tuple(atoms))
        return AssociatedGroup(
            rep, False,
            "dense, contains the base group; completion beyond representable "
            "classes is out of scope",
            class_of=lambda cut: cut.prefix)

    def width_set(self):
        return [*self._edges, POS_INF]

    def is_proper(self):
        # between two distinct cuts there is always a group element, and
        # the principal cuts of group elements have width zero
        return True

    def is_strongly_proper(self):
        # positive widths are whole-level edges; a small positive
        # principal cut sits strictly below each of them
        return True

    def minimal_positive(self):
        if self.group.is_discrete:
            return ct.make_node(self.group, 0, self.group.min_positive(), ct.PLUS)
        return None

    def top(self):
        return POS_INF

    def witness_width(self, x):
        if x.kind != "n" or x.side != ct.FILLED:
            return self._zero
        return self._edges[x.level]


def _is_cut_literal(tok: str) -> bool:
    return tok in ("-inf", "+inf") or tok.startswith(("cut(", "fill(", "edge("))


def _cut_literal(cuts: CutDom, tok: str, owner: Dom) -> Cut:
    """Parse a cut literal and check that the carrier ``owner`` holds it."""
    cut = ct.parse_cut(cuts.group, tok)
    if not cuts.contains(cut):
        raise TypeError(f"{tok!r} is not in {owner.name}")
    return cut


class TildeDom(Dom):
    """Disjoint union of a group and its cut carrier.

    Group elements act on cuts by translation; the zero is the group
    zero, so the minus fixes it and the carrier sits in the first type.
    """

    def __init__(self, group: Group, field: str = "Q"):
        self.group = group
        self.field = field
        self.cutdom = CutDom(group, field)
        self.name = f"tilde({group.format()})" if field == "Q" else f"tilde({group.format()},r2)"

    def zero(self):
        return ("g", self.group.zero())

    def add(self, x, y):
        return self._sum(x, y, ct.add)

    def radd(self, x, y):
        return self._sum(x, y, ct.radd)

    def _sum(self, x, y, cut_sum):
        """Left or right sum: group elements translate cuts, and two cuts
        meet in ``cut_sum``."""
        tx, vx = x
        ty, vy = y
        if tx == "g" and ty == "g":
            return ("g", self.group.add(vx, vy))
        if tx == "g":
            return ("c", ct.shift_by(self.group, vx, vy))
        if ty == "g":
            return ("c", ct.shift_by(self.group, vy, vx))
        return ("c", cut_sum(self.group, vx, vy))

    def neg(self, x):
        t, v = x
        return ("g", self.group.neg(v)) if t == "g" else ("c", ct.neg(self.group, v))

    def cmp(self, x, y):
        tx, vx = x
        ty, vy = y
        if tx == "g" and ty == "g":
            return self.group.cmp(vx, vy)
        if tx == "c" and ty == "c":
            return ct.compare(self.group, vx, vy)
        if tx == "g":
            if ct.member_below(self.group, vx, vy):
                return -1
            if ct.member_above(self.group, vx, vy):
                return 1
            raise AssertionError("group element neither below nor above a cut")
        return -self.cmp(y, x)

    def contains(self, x):
        return isinstance(x, tuple) and len(x) == 2 and x[0] in ("g", "c")

    def iter_elements(self):
        if self.group.num_atoms == 0:
            return [("c", NEG_INF), ("g", ()), ("c", POS_INF)]
        return None

    def sample(self, rng, count):
        gd = GroupDom(self.group)
        n_cut = count // 2
        cuts = [("c", v) for v in self.cutdom.sample(rng, n_cut)]
        gels = [("g", v) for v in gd.sample(rng, count - n_cut)]
        mixed = cuts + gels
        rng.shuffle(mixed)
        return mixed

    def fmt(self, x):
        t, v = x
        return self.group.format_element(v) if t == "g" else ct.format_cut(self.group, v)

    def parse_literal(self, tok):
        if _is_cut_literal(tok):
            return ("c", _cut_literal(self.cutdom, tok, self))
        if tok.startswith("g(") and tok.endswith(")"):
            tok = tok[2:-1]
        try:
            return ("g", self.group.parse_element(tok))
        except ValueError as exc:
            raise TypeError(str(exc)) from exc

    def format_literal(self, x):
        t, v = x
        return f"g({self.group.format_element(v)})" if t == "g" else self.fmt(x)

    def associated_group(self):
        return AssociatedGroup(self.group, False, "width-zero part is the group itself",
                               class_of=lambda x: x[1])

    def width_set(self):
        return [self.zero()] + [("c", w) for w in self.cutdom.width_set()]

    def is_proper(self):
        return True

    def is_strongly_proper(self):
        # every cut has positive width here, but no group element fits
        # strictly between the group zero and the zero cut
        return False

    def minimal_positive(self):
        return ("c", self.cutdom.zero())

    def least_positives(self):
        # the group unit follows the zero cut
        unit = self.group.min_positive()
        return [self.minimal_positive()] + ([("g", unit)] if unit is not None else [])

    def top(self):
        return ("c", POS_INF)

    def witness_width(self, x):
        t, v = x
        if t == "g" or v.kind != "n" or v.side != ct.FILLED:
            return self.zero()
        return ("c", self.cutdom.witness_width(v))


# -- axiom checking ----------------------------------------------------------


def check_axioms(d: Dom, universe: Optional[Sequence] = None,
                 which: Iterable[str] = ALL_AXIOMS,
                 samples: int = 300, seed: int = 0) -> dict:
    """Per-axiom verdicts with a first witness on failure.

    Finite carriers are checked exhaustively over all tuples; infinite
    ones over seeded samples drawn from ``universe`` (or the carrier's
    own sampler).
    """
    rng = random.Random(seed)
    if universe is None:
        universe = d.universe(rng, samples)
    universe = list(universe)
    exhaustive = d.iter_elements() is not None and universe == d.iter_elements()
    zero = d.zero()
    delta = d.delta()

    def pairs():
        if exhaustive:
            yield from itertools.product(universe, repeat=2)
        else:
            for _ in range(samples):
                yield rng.choice(universe), rng.choice(universe)

    def triples():
        if exhaustive:
            yield from itertools.product(universe, repeat=3)
        else:
            for _ in range(samples):
                yield rng.choice(universe), rng.choice(universe), rng.choice(universe)

    report: dict = {}
    which = list(which)

    if "assoc" in which:
        w = next(((x, y, z) for x, y, z in triples()
                  if not d.eq(d.add(d.add(x, y), z), d.add(x, d.add(y, z)))), None)
        report["assoc"] = (w is None, w)
    if "comm" in which:
        w = next(((x, y) for x, y in pairs() if not d.eq(d.add(x, y), d.add(y, x))), None)
        report["comm"] = (w is None, w)
    if "neutral" in which:
        w = next(((x,) for x in universe if not d.eq(d.add(x, zero), x)), None)
        report["neutral"] = (w is None, w)
    if "PA" in which:
        w = next(((x, y, t) for x, y, t in triples()
                  if d.lt(x, y) and d.cmp(d.add(x, t), d.add(y, t)) > 0), None)
        report["PA"] = (w is None, w)
    if "minus" in which:
        w = None
        for x, y in pairs():
            if not d.eq(d.neg(d.neg(x)), x):
                w = (x,)
                break
            if d.le(x, y) and d.cmp(d.neg(y), d.neg(x)) > 0:
                w = (x, y)
                break
        report["minus"] = (w is None, w)
    if "MA" in which:
        ok = d.le(delta, zero)
        report["MA"] = (ok, None if ok else (delta,))
    if "MB" in which:
        w = next(((x,) for x in universe if d.lt(d.abs_of(x), zero)), None)
        report["MB"] = (w is None, w)
    if "MCa" in which:
        w = next(((x, y) for x, y in pairs()
                  if d.lt(x, y) and not d.lt(d.rsub(x, y), zero)), None)
        report["MCa"] = (w is None, w)
    if "MCb" in which:
        # single-variable equivalent: every width is nonnegative
        w = next(((x,) for x in universe if d.lt(d.width_of(x), zero)), None)
        report["MCb"] = (w is None, w)
    if "MCprime" in which:
        w = next(((x, y, z) for x, y, z in triples()
                  if d.cmp(d.rsub(d.add(x, y), z), d.add(x, d.rsub(y, z))) < 0), None)
        report["MCprime"] = (w is None, w)
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


class SubDomView(Dom):
    """Restriction of a carrier to a symmetric subset, with its own zero."""

    def __init__(self, parent: Dom, pred: Callable, zero_elem, name: str,
                 staples: Sequence = ()):
        self.parent = parent
        self.pred = pred
        self._zero = zero_elem
        self.name = name
        self._staples = list(staples)

    def zero(self):
        return self._zero

    def add(self, x, y):
        return self.parent.add(x, y)

    def neg(self, x):
        return self.parent.neg(x)

    def cmp(self, x, y):
        return self.parent.cmp(x, y)

    def contains(self, x):
        return self.parent.contains(x) and self.pred(x)

    def iter_elements(self):
        elems = self.parent.iter_elements()
        if elems is None:
            return None
        return [x for x in elems if self.pred(x)]

    def sample(self, rng, count):
        out = [s for s in self._staples if self.pred(s)]
        guard = 0
        while len(out) < count and guard < 200 * count:
            guard += 1
            for x in self.parent.sample(rng, 16):
                if self.pred(x):
                    out.append(x)
        if len(out) < max(2, count // 8):
            raise ValueError(f"could not sample enough elements of {self.name}")
        return out[:count]

    def fmt(self, x):
        return self.parent.fmt(x)

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


def special_set(d: Dom, which: str, a=None) -> "SubDomView | list":
    """Distinguished subsets: widths W, M0, Mge(a), D, H and E."""
    if which == "W":
        return d.width_set()
    if which == "M0":
        zero = d.zero()
        return SubDomView(d, lambda x: d.eq(d.width_of(x), zero), zero,
                          f"{d.name}^0", staples=[zero, d.delta()])
    if which == "Mge":
        if a is None:
            raise ValueError("Mge needs a width element")
        if not d.eq(d.width_of(a), a):
            raise ValueError("Mge needs a width element")
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


# -- the cut-valued embedding of width-positive elements -------------------------


def lambda_map(d: Dom, target: Group, a):
    """Cut of ``target`` carved out by the width-zero classes below ``a``.

    ``a`` must have positive width. Requires that no element of the
    target group straddles the approximating classes (checked; the
    failure witness is reported).
    """
    if not isinstance(d, CutDom):
        raise ValueError("the cut-valued embedding is implemented for cut carriers")
    if isinstance(a, Cut) and a.kind != "n":
        return NEG_INF if a.kind == "lo" else POS_INF
    if a.level == 0:
        raise ValueError("the embedding is defined on width-positive elements only")
    g = d.group
    k = a.level
    src_atom = g.atoms[g.num_atoms - k - 1]
    tgt_atom = target.atoms[target.num_atoms - k - 1]
    if a.side != ct.FILLED and not tgt_atom.contains(a.anchor):
        raise ValueError("target group does not contain the approximating classes")
    low = ct.make_node(target, k, a.prefix, ct.MINUS if a.side == ct.FILLED else a.side)
    high = low
    if a.side == ct.PLUS and src_atom.discrete:
        bumped = a.prefix[:-1] + (a.prefix[-1] + 1,)
        high = ct.make_node(target, k, bumped, ct.MINUS)
    elif a.side == ct.FILLED and tgt_atom.contains(a.anchor):
        high = ct.make_node(target, k, a.prefix, ct.PLUS)
    if low != high:
        witness = ct.element_between(target, low, high)
        raise ValueError(
            "no cut of the target group: "
            f"{target.format_element(witness)} straddles the classes below and above")
    return low


# -- homomorphisms ----------------------------------------------------------------


@dataclass
class HomCandidate:
    source: Dom
    target: Dom
    mapping: Callable
    kind: str = "dom"  # "dom" preserves the zero; "quasi-dom" need not
    universe: Optional[list] = None

    def __call__(self, x):
        return self.mapping[x] if isinstance(self.mapping, dict) else self.mapping(x)


def verify_hom(h: HomCandidate, samples: int = 250, seed: int = 0) -> dict:
    """Order/plus/minus(/zero) preservation with witnesses."""
    rng = random.Random(seed)
    universe = h.universe if h.universe is not None else h.source.universe(rng, samples)
    s, t = h.source, h.target
    exhaustive = s.iter_elements() is not None and len(universe) == len(s.iter_elements())

    def pairs():
        if exhaustive:
            yield from itertools.product(universe, repeat=2)
        else:
            for _ in range(samples):
                yield rng.choice(universe), rng.choice(universe)

    report = {}
    w = next(((x, y) for x, y in pairs()
              if s.le(x, y) and t.cmp(h(x), h(y)) > 0), None)
    report["order"] = (w is None, w)
    w = next(((x, y) for x, y in pairs()
              if not t.eq(h(s.add(x, y)), t.add(h(x), h(y)))), None)
    report["plus"] = (w is None, w)
    w = next(((x,) for x in universe if not t.eq(h(s.neg(x)), t.neg(h(x)))), None)
    report["minus"] = (w is None, w)
    if h.kind == "dom":
        ok = t.eq(h(s.zero()), t.zero())
        report["zero"] = (ok, None if ok else (s.zero(),))
    inj = None
    if exhaustive:
        seen = set()
        inj = True
        for x in universe:
            key = h(x)
            if key in seen:
                inj = False
                break
            seen.add(key)
    report["injective"] = (inj, None)
    return report


def hom_kernel(h: HomCandidate, universe: Optional[list] = None,
               samples: int = 250, seed: int = 0) -> list:
    rng = random.Random(seed)
    if universe is None:
        universe = h.universe if h.universe is not None else h.source.universe(rng, samples)
    tz = h.target.zero()
    return [x for x in universe if h.target.eq(h(x), tz)]


def kernel_is_convex(h: HomCandidate, kernel: list, universe: list) -> bool:
    s = h.source
    for a in kernel:
        for b in kernel:
            for x in universe:
                if s.le(a, x) and s.le(x, b) and not any(s.eq(x, k) for k in kernel):
                    return False
    return True
