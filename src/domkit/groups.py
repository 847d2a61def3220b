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
group): the level-k subgroup holds the elements whose first m - k
coordinates are zero, and the quotient by it is read on prefixes of
m - k coordinates. Elements are built canonical by ``check_element``;
a tuple of ints is canonical as it stands. The difference x - y is
``add(x, neg(y))``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Optional, Sequence

from domkit.scalars import (
    Scalar,
    Sqrt2,
    canon,
    format_scalar,
    parse_scalar,
    scalar_add,
    scalar_cmp,
    scalar_neg,
)

ATOM_KINDS = ("Z", "Q", "Zloc", "Qr2")


def lex_cmp(x: tuple, y: tuple) -> int:
    """Lexicographic comparison of two coordinate tuples, up to the end of
    the shorter one: -1, 0 or 1.  So an element compared with a prefix of
    length n is compared by its image in the quotient of n coordinates.

    A coordinate that is the same object on both sides is skipped, and so
    is a tuple compared with itself; ints are compared inline and other
    scalars by ``scalar_cmp``.  The first coordinate is decided before
    any iterator is built: it decides most compares of the engine and of
    the oracle's walk."""
    if x is y:
        return 0
    try:
        u, v = x[0], y[0]
    except IndexError:
        return 0  # an empty tuple
    if u is not v:
        if type(u) is int and type(v) is int:
            if u != v:
                return 1 if u > v else -1
        else:
            c = scalar_cmp(u, v)
            if c:
                return c
    # the first coordinates are equal; the loop meets them again
    for u, v in zip(x, y):
        if u is v:
            continue
        if type(u) is int and type(v) is int:
            if u != v:
                return 1 if u > v else -1
            continue
        c = scalar_cmp(u, v)
        if c:
            return c
    return 0


# Miller-Rabin to these bases decides every n below the limit (Sorenson
# and Webster 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Exact primality by deterministic Miller-Rabin; ValueError at and
    above ``_MR_LIMIT``, where the bases no longer decide."""
    if n >= _MR_LIMIT:
        raise ValueError(f"Zloc needs a prime below {_MR_LIMIT}, got {n}")
    if n < 2 or any(n % q == 0 for q in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    # n is a strong probable prime to base a when a^d = 1 or
    # a^(d * 2^r) = -1 for some r < s
    return all(pow(a, d, n) == 1 or any(pow(a, d << r, n) == n - 1 for r in range(s))
               for a in _MR_BASES)


class Atom:
    """One rank-one component of a lexicographic product."""

    __slots__ = ("kind", "p", "discrete")

    def __init__(self, kind: str, p: int | None = None):
        if kind not in ATOM_KINDS:
            raise ValueError(f"unknown atom kind {kind!r}")
        if kind == "Zloc":
            if p is None or not _is_prime(p):
                raise ValueError(f"Zloc needs a prime, got {p!r}")
        elif p is not None:
            raise ValueError(f"{kind} takes no parameter")
        self.kind = kind
        self.p = p
        self.discrete = kind == "Z"

    def contains(self, x: Scalar) -> bool:
        if type(x) is int or self.kind == "Qr2":
            return True  # every atom contains the integers
        if isinstance(x, Sqrt2):
            if x.b != 0:
                return False
            x = x.a
            if type(x) is int:
                return True
        d = (x if isinstance(x, Fraction) else Fraction(x))._denominator
        if self.kind == "Z":
            return d == 1
        if self.kind == "Zloc":
            return d % self.p != 0
        return True  # Q

    def is_subgroup_of(self, other: "Atom") -> bool:
        """Z < Zloc(p) < Q < Qr2; localizations at different primes are
        incomparable."""
        if self.kind == other.kind == "Zloc":
            return self.p == other.p
        chain = ("Z", "Zloc", "Q", "Qr2")
        return chain.index(self.kind) <= chain.index(other.kind)

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
    """Symmetric normalized 2-cocycle f : C x C -> A, in one of two forms.

    A polynomial ``FactorSet(poly, name)`` is given as ``{(i, j): coeff}``
    for sum(coeff * x^i * y^j) with rational coefficients; it reads the
    leading base coordinate of each argument and gives the leading fiber
    coordinate, the crossed group padding further fiber coordinates with
    0. Its laws and its fiber membership are decided exactly by
    ``validate_factor_set``. Two polynomial factor sets are equal when
    their polynomials are, zero coefficients dropped.

    A coboundary ``FactorSet.from_section(s)`` is ds(x,y) = s(x) + s(y) -
    s(x+y) for a map s from base tuples to fiber tuples. It satisfies
    the laws identically once s(0) = 0; that its values lie in the fiber
    is checked at each sum. It is equal only to itself.
    """

    def __init__(self, poly: dict, name: str = "f"):
        self.poly = {m: canon(Fraction(c)) for m, c in poly.items() if c != 0}
        self.name = name
        self.section = None

    def __eq__(self, other):
        if not isinstance(other, FactorSet):
            return NotImplemented
        if self.section is not None or other.section is not None:
            return self is other
        return self.poly == other.poly

    def __hash__(self):
        if self.section is not None:
            return object.__hash__(self)
        return hash(frozenset(self.poly.items()))

    @classmethod
    def zero(cls) -> "FactorSet":
        return cls({}, name="0")

    @classmethod
    def from_section(cls, section: Callable, name: str = "ds") -> "FactorSet":
        """Differential ds(x,y) = s(x) + s(y) - s(x+y) of a fiber-valued map."""
        f = cls({}, name=name)
        f.section = section
        return f

    def __call__(self, c: tuple, d: tuple) -> tuple:
        """The value at two base tuples: one leading fiber coordinate for a
        polynomial, the section's whole fiber tuple for a coboundary."""
        s = self.section
        if s is None:
            return (canon(sum(k * c[0] ** i * d[0] ** j for (i, j), k in self.poly.items())),)
        sx, sy, sxy = s(c), s(d), s(tuple(map(scalar_add, c, d)))
        return tuple(scalar_add(scalar_add(u, v), scalar_neg(w))
                     for u, v, w in zip(sx, sy, sxy))

    def __repr__(self):
        return f"FactorSet({self.name})"


def validate_factor_set(base: "Group", fiber: "Group", f: FactorSet) -> list[tuple[str, tuple]]:
    """Check symmetry, normalization, the cocycle law and that the values
    lie in the fiber; returns the (law, witness) failures, empty when f
    is valid.

    A polynomial is decided exactly on one box. With D its largest
    exponent (0 for the zero polynomial), every law is an identity of
    degree at most D in each variable: symmetry f(x,y) = f(y,x),
    normalization f(x,0) = f(0,x) = 0 and the cocycle law f(y,z) +
    f(x,y+z) = f(x,y) + f(x+y,z), the associativity of the twisted sum.
    Such an identity holds everywhere when it holds on {0..D}^k, so each
    failing law is reported at its first failing point of that box, in
    ``itertools.product`` order. With B the leading atom of the base and
    A that of the fiber, a non-zero valid polynomial lies in the fiber
    everywhere exactly when B is a subgroup of A and its values on
    {0..D}^2 do: its coefficients in the binomial basis C(x,i)*C(y,j)
    are integer combinations of those values, and B's elements map to B
    under each C(x,i). A non-zero polynomial over a base without a
    rational leading atom (Qr2 has no product), or into a trivial fiber,
    raises ValueError.

    A coboundary satisfies the laws once s(0) = 0; whether its values
    lie in the fiber is checked at each sum of the crossed group.
    """
    if f.section is not None:
        z = base.zero()
        return [] if f.section(z) == fiber.zero() else [("normalization", (z,))]
    box = range(max((max(m) for m in f.poly), default=0) + 1)
    # v[c][d] = f(c, d) for c, d in 0..2D, which covers the sums x+y, y+z
    wide = range(2 * len(box) - 1)
    v = [[f((c,), (d,))[0] for d in wide] for c in wide]
    laws = (("symmetry", 2, lambda x, y: v[x][y] != v[y][x]),
            ("normalization", 1, lambda x: v[x][0] != 0 or v[0][x] != 0),
            ("cocycle", 3, lambda x, y, z: v[y][z] + v[x][y + z] != v[x][y] + v[x + y][z]))
    failures: list[tuple[str, tuple]] = []
    for law, k, fails in laws:
        w = next((p for p in itertools.product(box, repeat=k) if fails(*p)), None)
        if w is not None:
            failures.append((law, tuple((c,) for c in w)))
    if failures or not f.poly:
        return failures
    if not base.atoms or not fiber.atoms or base.atoms[0].kind == "Qr2":
        raise ValueError(f"factor set {f.name} needs a fiber and a base led by Z, Zloc or Q "
                         f"(Qr2 has no product), got {base.format()} and {fiber.format()}")
    b, a = base.atoms[0], fiber.atoms[0]
    if not b.is_subgroup_of(a):
        return [("fiber", (f"{b.format()} is not a subgroup of {a.format()}",))]
    for c, d in itertools.product(box, repeat=2):
        if not a.contains(v[c][d]):
            return [("fiber", ((c,), (d,)))]
    return []


class Group:
    """Descriptor of a computable ordered Abelian group.

    ``atoms`` is the flat list of atomic components (possibly empty: the
    trivial group). A crossed product is a ``CrossedGroup``, whose atoms
    are its base's followed by its fiber's. ``add`` and ``neg`` take
    elements or prefixes of one length, which are the elements of a
    quotient G/H_k, so the cut engine sums prefixes without building the
    quotient.
    """

    __slots__ = ("atoms",)

    is_crossed = False

    def __init__(self, atoms: Sequence[Atom]):
        self.atoms = tuple(atoms)

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

    @staticmethod
    def crossed(base: "Group", fiber: "Group", f: FactorSet) -> "CrossedGroup":
        if base.is_crossed or fiber.is_crossed:
            raise ValueError("nested crossed products are not supported")
        failures = validate_factor_set(base, fiber, f)
        if failures:
            law, witness = failures[0]
            raise ValueError(f"factor-set law {law!r} fails at {witness}")
        return CrossedGroup(base, fiber, f)

    # -- structure ------------------------------------------------------

    @property
    def num_atoms(self) -> int:
        return len(self.atoms)

    def __eq__(self, other):
        # a CrossedGroup on either side answers first, being the subclass
        if not isinstance(other, Group):
            return NotImplemented
        return self.atoms == other.atoms

    def __hash__(self):
        return hash(self.atoms)

    def __repr__(self):
        return f"Group({self.format()})"

    def format(self) -> str:
        if not self.atoms:
            return "triv"
        if len(self.atoms) == 1:
            return self.atoms[0].format()
        return "lex(" + ",".join(a.format() for a in self.atoms) + ")"

    # -- elements -------------------------------------------------------

    def zero(self) -> tuple:
        return (0,) * self.num_atoms

    def contains(self, x: tuple) -> bool:
        return len(x) == self.num_atoms and all(a.contains(v) for a, v in zip(self.atoms, x))

    def check_element(self, x: tuple) -> tuple:
        if not isinstance(x, tuple) or len(x) != self.num_atoms:
            raise ValueError(f"expected {self.num_atoms} coordinates, got {x!r}")
        if not self.contains(x):
            raise ValueError(f"{self.format_element(x)} is not in {self.format()}")
        return tuple(map(canon, x))

    def add(self, x: tuple, y: tuple) -> tuple:
        if len(x) == 1:
            return (scalar_add(x[0], y[0]),)
        return tuple(map(scalar_add, x, y))

    def neg(self, x: tuple) -> tuple:
        if len(x) == 1:
            return (scalar_neg(x[0]),)
        return tuple(map(scalar_neg, x))

    cmp = staticmethod(lex_cmp)

    # -- order structure -------------------------------------------------

    def min_positive(self) -> Optional[tuple]:
        """Minimal positive element, when the group is discrete."""
        if self.atoms and self.atoms[-1].discrete:
            return (0,) * (self.num_atoms - 1) + (1,)
        return None

    def quotient(self, k: int) -> "Group":
        """The group modulo the convex subgroup spanning the k trailing atoms."""
        m = self.num_atoms
        if not 0 <= k <= m:
            raise ValueError(f"ladder level {k} out of range 0..{m}")
        return self._quotient(k) if k else self

    def _quotient(self, k: int) -> "Group":
        return Group(self.atoms[:self.num_atoms - k])

    # -- formatting -------------------------------------------------------

    def format_element(self, x: tuple) -> str:
        if len(x) == 1:
            return format_scalar(x[0])
        return "(" + ",".join(format_scalar(v) for v in x) + ")"


class CrossedGroup(Group):
    """The crossed product x(base, fiber, factor): its elements are a base
    tuple followed by a fiber tuple, summed as (c1 + c2, a1 + a2 + f(c1, c2)).

    A prefix that reaches n fiber coordinates is summed with f cut to
    its first n coordinates, which must lie in the fiber's first n atoms;
    a prefix within the base is summed as in the base.
    """

    __slots__ = ("base", "fiber", "factor")

    is_crossed = True

    def __init__(self, base: Group, fiber: Group, factor: FactorSet):
        super().__init__(base.atoms + fiber.atoms)
        self.base, self.fiber, self.factor = base, fiber, factor

    def __eq__(self, other):
        return isinstance(other, CrossedGroup) and \
            (self.base, self.fiber, self.factor) == (other.base, other.fiber, other.factor)

    def __hash__(self):
        return hash((self.base, self.fiber, self.factor))

    def format(self) -> str:
        return f"x({self.base.format()},{self.fiber.format()},{self.factor.name})"

    def _twist(self, c: tuple, d: tuple, n: int) -> tuple:
        """The factor-set value f(c, d) cut or padded to n fiber
        coordinates, which must lie in the fiber's first n atoms."""
        tw = self.factor(c, d)[:n]
        tw += (0,) * (n - len(tw))
        if not all(map(Atom.contains, self.fiber.atoms, tw)):
            fiber = Group(self.fiber.atoms[:n])
            raise ValueError(
                f"factor set {self.factor.name} leaves {fiber.format()} at "
                f"{self.base.format_element(c)}, {self.base.format_element(d)}")
        return tw

    def add(self, x: tuple, y: tuple) -> tuple:
        bm = self.base.num_atoms
        if len(x) <= bm:
            return super().add(x, y)
        tw = self._twist(x[:bm], y[:bm], len(x) - bm)
        return tuple(map(scalar_add, x[:bm], y[:bm])) + tuple(
            scalar_add(scalar_add(u, v), w) for u, v, w in zip(x[bm:], y[bm:], tw))

    def neg(self, x: tuple) -> tuple:
        bm = self.base.num_atoms
        if len(x) <= bm:
            return super().neg(x)
        c = x[:bm]
        nc = tuple(map(scalar_neg, c))
        tw = self._twist(c, nc, len(x) - bm)
        return nc + tuple(scalar_neg(scalar_add(u, w)) for u, w in zip(x[bm:], tw))

    def _quotient(self, k: int) -> Group:
        fm = self.fiber.num_atoms
        if k >= fm:
            return self.base.quotient(k - fm)
        return CrossedGroup(self.base, self.fiber.quotient(k), self.factor)


def parse_coords(text: str) -> tuple:
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    if not s:
        return ()
    return tuple(parse_scalar(part) for part in s.split(","))
