"""Computable linearly ordered Abelian groups with exact arithmetic.

Supported carriers: the integers ``Z``, the rationals ``Q``, the
localization ``Zloc(p)`` of Z at a prime p (fractions with denominator
coprime to p), the quadratic field ``Qr2`` = Q(sqrt 2), lexicographic
products of those atoms (most significant first), and crossed products
``x(C, A, f)`` of two such groups twisted by a factor set f.

Elements are flat tuples of scalars, one per atomic component; a crossed
product contributes its base coordinates followed by its fiber
coordinates, so the lexicographic tuple order is always the group
order. The chain of convex subgroups is indexed by the number of
trailing coordinates it spans (level 0 = {0}, level m = the whole
group).
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from math import isqrt
from typing import Callable, Iterable, Optional, Sequence

from domkit.scalars import (
    Scalar,
    Sqrt2,
    canon,
    format_scalar,
    parse_scalar,
    scalar_cmp,
)

ATOM_KINDS = ("Z", "Q", "Zloc", "Qr2")
_GRID_RANGE = 3  # validate_factor_set probes coordinates -3..3


def lex_cmp(x: tuple, y: tuple) -> int:
    """Lexicographic comparison of two coordinate tuples, up to the end of
    the shorter one: -1, 0 or 1."""
    for u, v in zip(x, y):
        c = scalar_cmp(u, v)
        if c:
            return c
    return 0


class Atom:
    """One rank-one component of a lexicographic product."""

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
        if kind not in ATOM_KINDS:
            raise ValueError(f"unknown atom kind {kind!r}")
        if kind == "Zloc":
            if p is None or p < 2 or any(p % q == 0 for q in range(2, isqrt(p) + 1)):
                raise ValueError(f"Zloc needs a prime, got {p!r}")
        elif p is not None:
            raise ValueError(f"{kind} takes no parameter")
        self.kind = kind
        self.p = p

    def contains(self, x: Scalar) -> bool:
        if type(x) is int or self.kind == "Qr2":
            return True  # every atom contains the integers
        if isinstance(x, Sqrt2):
            if x.b != 0:
                return False
            f = x.a
        else:
            f = x if isinstance(x, Fraction) else Fraction(x)
        if self.kind == "Z":
            return f.denominator == 1
        if self.kind == "Zloc":
            return f.denominator % self.p != 0
        return True  # Q

    @property
    def discrete(self) -> bool:
        return self.kind == "Z"

    def dense_denominator(self) -> int:
        """Base d with 1/d^n in the atom for all n (dense atoms only)."""
        if self.kind == "Q" or self.kind == "Qr2":
            return 2
        if self.kind == "Zloc":
            return self.p + 1  # coprime to p since p+1 = 1 mod p
        raise ValueError("discrete atom has no dense approximations")

    def __eq__(self, other):
        return isinstance(other, Atom) and (self.kind, self.p) == (other.kind, other.p)

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return f"Atom({self.kind!r}, {self.p!r})" if self.p else f"Atom({self.kind!r})"

    def format(self) -> str:
        return f"Zloc({self.p})" if self.kind == "Zloc" else self.kind


class FactorSet:
    """Symmetric normalized 2-cocycle f : C x C -> A.

    ``fn`` receives two base-coordinate tuples and must return a fiber
    element (tuple of scalars). When the rule is a polynomial in two
    scalar variables (base and fiber of one atom each), pass ``poly`` as
    ``{(i, j): coeff}`` for sum(coeff * x^i * y^j); the factor-set laws
    are then verified symbolically, otherwise on a finite sample grid.
    The polynomial reads the leading base coordinate of each argument and
    gives the leading fiber coordinate; any further fiber coordinates are 0.

    Two factor sets that both have a ``poly`` are equal when their
    polynomials are, zero coefficients dropped; ``validate_factor_set``
    checks that ``fn`` agrees with ``poly``. A factor set without a
    ``poly`` is equal only to itself.
    """

    def __init__(self, fn: Callable, name: str = "f", poly: dict | None = None):
        self.fn = fn
        self.name = name
        self.poly = poly

    def _poly_key(self) -> frozenset:
        return frozenset((m, canon(c)) for m, c in self.poly.items() if c != 0)

    def __eq__(self, other):
        if not isinstance(other, FactorSet):
            return NotImplemented
        if self.poly is None or other.poly is None:
            return self is other
        return self._poly_key() == other._poly_key()

    def __hash__(self):
        return object.__hash__(self) if self.poly is None else hash(self._poly_key())

    @classmethod
    def zero(cls, fiber_width: int = 1) -> "FactorSet":
        z = (0,) * fiber_width
        return cls(lambda c, d: z, name="0", poly={})

    @classmethod
    def from_section(cls, section: Callable, name: str = "ds") -> "FactorSet":
        """Differential ds(x,y) = s(x) + s(y) - s(x+y) of a fiber-valued map."""

        def fn(c, d):
            sx, sy = section(c), section(d)
            sxy = section(tuple(a + b for a, b in zip(c, d)))
            return tuple(a + b - c2 for a, b, c2 in zip(sx, sy, sxy))

        return cls(fn, name=name)

    def __call__(self, c: tuple, d: tuple) -> tuple:
        v = self.fn(c, d)
        if not isinstance(v, tuple):
            v = (canon(v),)
        return v

    def __repr__(self):
        return f"FactorSet({self.name})"


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return {m: c for m, c in out.items() if c != 0}


def _poly_pow(p: dict, n: int, nvars: int) -> dict:
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(n):
        out = _poly_mul(out, p)
    return out


def _poly_subst(poly: dict, sub_x: dict, sub_y: dict, nvars: int) -> dict:
    """Expand poly(x, y) after substituting tri-variate arguments."""
    out: dict = {}
    for (i, j), c in poly.items():
        term = _poly_mul(_poly_pow(sub_x, i, nvars), _poly_pow(sub_y, j, nvars))
        for m, cc in term.items():
            out[m] = out.get(m, Fraction(0)) + c * cc
    return {m: c for m, c in out.items() if c != 0}


def validate_factor_set(base: "Group", fiber: "Group", f: FactorSet) -> list[tuple[str, tuple]]:
    """Check symmetry, normalization, the cocycle law and that the values
    lie in the fiber.

    Returns a list of (law, witness) failures; empty means valid on the
    checked domain.  Polynomial rules are expanded symbolically, other
    rules are probed on an integer grid.  When the laws hold, the values
    of ``f`` on that grid must lie in the fiber and, when ``f`` has both a
    function and a polynomial, agree with the polynomial there (a rule
    given only as a polynomial, with no function, has no values to probe).
    """
    failures: list[tuple[str, tuple]] = []
    grid = [base.from_ints([n] * base.num_atoms) for n in range(-_GRID_RANGE, _GRID_RANGE + 1)]
    if f.poly is not None:
        coeffs = {m: Fraction(c) for m, c in f.poly.items()}
        for (i, j), c in coeffs.items():
            if coeffs.get((j, i), Fraction(0)) != c:
                failures.append(("symmetry", ((i, j),)))
            if (i == 0 or j == 0) and c != 0:
                failures.append(("normalization", ((i, j),)))
        # cocycle: f(y,z) + f(x, y+z) - f(x,y) - f(x+y, z) == 0, expanded
        # over variables (x, y, z); this is the associativity condition
        # of the twisted sum
        x = {(1, 0, 0): Fraction(1)}
        y = {(0, 1, 0): Fraction(1)}
        z = {(0, 0, 1): Fraction(1)}
        yz = {(0, 1, 0): Fraction(1), (0, 0, 1): Fraction(1)}
        xy = {(1, 0, 0): Fraction(1), (0, 1, 0): Fraction(1)}
        acc: dict = {}
        for sign, (u, v) in ((1, (y, z)), (1, (x, yz)), (-1, (x, y)), (-1, (xy, z))):
            t = _poly_subst(coeffs, u, v, 3)
            for m, c in t.items():
                acc[m] = acc.get(m, Fraction(0)) + sign * c
        bad = {m: c for m, c in acc.items() if c != 0}
        if bad:
            failures.append(("cocycle", (sorted(bad)[0],)))
    else:
        zero = base.zero()
        for c, d in itertools.product(grid, repeat=2):
            if f(c, d) != f(d, c):
                return [("symmetry", (c, d))]
        for c in grid:
            if any(v != 0 for v in f(c, zero)) or any(v != 0 for v in f(zero, c)):
                return [("normalization", (c,))]
        for c, d, e in itertools.product(grid, repeat=3):
            lhs = tuple(a + b for a, b in zip(f(d, e), f(c, tuple(u + v for u, v in zip(d, e)))))
            rhs = tuple(a + b for a, b in zip(f(c, d), f(tuple(u + v for u, v in zip(c, d)), e)))
            if lhs != rhs:
                return [("cocycle", (c, d, e))]
    if not failures and f.fn is not None:
        pad = (0,) * (fiber.num_atoms - 1)
        for c, d in itertools.product(grid, repeat=2):
            v = f(c, d)
            if not fiber.contains(v):
                return [("fiber", (c, d))]
            if f.poly is not None and v != (sum(
                    k * c[0] ** i * d[0] ** j for (i, j), k in coeffs.items()),) + pad:
                return [("poly", (c, d))]
    return failures


class Group:
    """Descriptor of a computable ordered Abelian group.

    ``atoms`` is the flat list of atomic components for plain
    lexicographic groups (possibly empty: the trivial group). For a
    crossed product, ``base``/``fiber``/``factor`` are set instead and
    ``atoms`` is the concatenation used for coordinate bookkeeping.
    A group is immutable once built, so its quotients are built once per
    level and kept.
    """

    __slots__ = ("atoms", "base", "fiber", "factor", "_quotients")

    def __init__(self, atoms: Sequence[Atom], base: "Group | None" = None,
                 fiber: "Group | None" = None, factor: FactorSet | None = None):
        self.atoms = tuple(atoms)
        self.base = base
        self.fiber = fiber
        self.factor = factor
        self._quotients = {}

    # -- constructors ---------------------------------------------------

    @classmethod
    def Z(cls) -> "Group":
        return cls((Atom("Z"),))

    @classmethod
    def Q(cls) -> "Group":
        return cls((Atom("Q"),))

    @classmethod
    def Zloc(cls, p: int) -> "Group":
        return cls((Atom("Zloc", p),))

    @classmethod
    def Qr2(cls) -> "Group":
        return cls((Atom("Qr2"),))

    @classmethod
    def trivial(cls) -> "Group":
        return cls(())

    @classmethod
    def lex(cls, *parts: "Group") -> "Group":
        atoms: list[Atom] = []
        for g in parts:
            if g.is_crossed:
                raise ValueError("crossed products cannot be lex components")
            atoms.extend(g.atoms)
        if not atoms:
            raise ValueError("lex product needs at least one atom")
        return cls(tuple(atoms))

    @classmethod
    def crossed(cls, base: "Group", fiber: "Group", f: FactorSet) -> "Group":
        if base.is_crossed or fiber.is_crossed:
            raise ValueError("nested crossed products are not supported")
        if f.fn is None:
            raise ValueError(f"factor set {f.name} has no function to evaluate")
        failures = validate_factor_set(base, fiber, f)
        if failures:
            law, witness = failures[0]
            raise ValueError(f"factor-set law {law!r} fails at {witness}")
        return cls(base.atoms + fiber.atoms, base=base, fiber=fiber, factor=f)

    # -- structure ------------------------------------------------------

    @property
    def is_crossed(self) -> bool:
        return self.base is not None

    @property
    def num_atoms(self) -> int:
        return len(self.atoms)

    def __eq__(self, other):
        if not isinstance(other, Group):
            return NotImplemented
        if self.is_crossed != other.is_crossed:
            return False
        if self.is_crossed:
            return (self.base, self.fiber, self.factor) == (other.base, other.fiber, other.factor)
        return self.atoms == other.atoms

    def __hash__(self):
        if self.is_crossed:
            return hash((self.base, self.fiber, self.factor))
        return hash(self.atoms)

    def __repr__(self):
        return f"Group({self.format()})"

    def format(self) -> str:
        if self.is_crossed:
            return f"x({self.base.format()},{self.fiber.format()},{self.factor.name})"
        if not self.atoms:
            return "triv"
        if len(self.atoms) == 1:
            return self.atoms[0].format()
        return "lex(" + ",".join(a.format() for a in self.atoms) + ")"

    # -- elements -------------------------------------------------------

    def zero(self) -> tuple:
        return (0,) * self.num_atoms

    def from_ints(self, values: Iterable) -> tuple:
        return tuple(map(canon, values))

    def contains(self, x: tuple) -> bool:
        return len(x) == self.num_atoms and all(a.contains(v) for a, v in zip(self.atoms, x))

    def check_element(self, x: tuple) -> tuple:
        if not isinstance(x, tuple) or len(x) != self.num_atoms:
            raise ValueError(f"expected {self.num_atoms} coordinates, got {x!r}")
        if not self.contains(x):
            raise ValueError(f"{self.format_element(x)} is not in {self.format()}")
        return tuple(map(canon, x))

    def _split(self, x: tuple) -> tuple[tuple, tuple]:
        bm = self.base.num_atoms
        return x[:bm], x[bm:]

    def _twist(self, c: tuple, d: tuple) -> tuple:
        """The factor-set value f(c, d), which must lie in the fiber."""
        tw = self.factor(c, d)
        if not self.fiber.contains(tw):
            raise ValueError(
                f"factor set {self.factor.name} leaves {self.fiber.format()} at "
                f"{self.base.format_element(c)}, {self.base.format_element(d)}")
        return tw

    def add(self, x: tuple, y: tuple) -> tuple:
        if self.base is not None:
            c1, a1 = self._split(x)
            c2, a2 = self._split(y)
            tw = self._twist(c1, c2)
            c = tuple(map(canon, map(operator.add, c1, c2)))
            a = tuple(canon(u + v + w) for u, v, w in zip(a1, a2, tw))
            return c + a
        return tuple(map(canon, map(operator.add, x, y)))

    def neg(self, x: tuple) -> tuple:
        if self.base is not None:
            c, a = self._split(x)
            nc = tuple(map(canon, map(operator.neg, c)))
            tw = self._twist(c, nc)
            na = tuple(canon(-u - w) for u, w in zip(a, tw))
            return nc + na
        return tuple(map(canon, map(operator.neg, x)))

    def sub(self, x: tuple, y: tuple) -> tuple:
        return self.add(x, self.neg(y))

    cmp = staticmethod(lex_cmp)

    # -- order structure -------------------------------------------------

    def min_positive(self) -> Optional[tuple]:
        """Minimal positive element, when the group is discrete."""
        if self.num_atoms == 0:
            return None
        if self.atoms[-1].discrete:
            return (0,) * (self.num_atoms - 1) + (1,)
        return None

    @property
    def is_discrete(self) -> bool:
        return self.min_positive() is not None

    def ladder_levels(self) -> int:
        """Number of convex-subgroup levels ({0} = level 0 ... G = level m)."""
        return self.num_atoms + 1

    def quotient(self, k: int) -> "Group":
        """The group modulo the convex subgroup spanning the k trailing atoms."""
        q = self._quotients.get(k)
        if q is None:
            m = self.num_atoms
            if not 0 <= k <= m:
                raise ValueError(f"ladder level {k} out of range 0..{m}")
            q = self._quotients[k] = self._build_quotient(k) if k else self
        return q

    def _build_quotient(self, k: int) -> "Group":
        m = self.num_atoms
        if not self.is_crossed:
            return Group(self.atoms[:m - k])
        fm = self.fiber.num_atoms
        if k >= fm:
            return self.base.quotient(k - fm)
        quot_fiber = self.fiber.quotient(k)
        proj = FactorSet(lambda c, d, _f=self.factor, _k=k: _f(c, d)[:fm - _k],
                         name=f"{self.factor.name}/{k}", poly=self.factor.poly)
        return Group(self.base.atoms + quot_fiber.atoms, base=self.base,
                     fiber=quot_fiber, factor=proj)

    def project(self, x: tuple, k: int) -> tuple:
        """Image of x in the quotient at ladder level k (drops k trailing coords)."""
        m = self.num_atoms
        if not 0 <= k <= m:
            raise ValueError(f"ladder level {k} out of range 0..{m}")
        return x[:m - k] if k else x

    def in_level(self, x: tuple, k: int) -> bool:
        """Membership of x in the level-k convex subgroup."""
        m = self.num_atoms
        return all(v == 0 for v in x[:m - k])

    # -- formatting -------------------------------------------------------

    def format_element(self, x: tuple) -> str:
        if len(x) == 1:
            return format_scalar(x[0])
        return "(" + ",".join(format_scalar(v) for v in x) + ")"

    def parse_element(self, text: str) -> tuple:
        coords = parse_coords(text)
        if len(coords) != self.num_atoms:
            raise ValueError(f"expected {self.num_atoms} coordinates in {text!r}")
        return self.check_element(coords)


def parse_coords(text: str) -> tuple:
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    if not s:
        return ()
    return tuple(parse_scalar(part) for part in s.split(","))


def parse_group(text: str) -> Group:
    """Parse descriptors like ``Z``, ``Q``, ``Qr2``, ``Zloc(2)``, ``lex(Z,Q)``."""
    s = text.strip().replace(" ", "")
    if s in ("Z", "Q", "Qr2", "triv"):
        return {"Z": Group.Z, "Q": Group.Q, "Qr2": Group.Qr2, "triv": Group.trivial}[s]()
    if s.startswith("Zloc(") and s.endswith(")"):
        return Group.Zloc(int(s[5:-1]))
    if s.startswith("lex(") and s.endswith(")"):
        inner = s[4:-1]
        parts, depth, start = [], 0, 0
        for i, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                parts.append(inner[start:i])
                start = i + 1
        parts.append(inner[start:])
        return Group.lex(*(parse_group(p) for p in parts))
    raise ValueError(f"cannot parse group descriptor {text!r}")
