"""Exact scalar values used in group coordinates and cut anchors.

Three scalar kinds circulate in the package: ``int`` for integral
values, ``fractions.Fraction`` for the other rationals, and ``Sqrt2``
(an element a + b*sqrt(2) of the real quadratic field Q(sqrt 2), kept
exact) for the irrational ones.  ``Sqrt2`` is a value only: its
constructor, its rational parts ``a`` and ``b``, equality and hash
(``Sqrt2(3, 0) == 3`` and hashes like it) and its text form.  The
kernels below are the one arithmetic and order on all three kinds, so
code downstream never branches on the kind: a sum, negation, compare or
floor that may meet a ``Sqrt2`` goes through ``scalar_add``,
``scalar_neg``, ``scalar_cmp`` or ``scalar_floor``.

``canon`` is the one normalizer: it returns an ``int`` when the value is
integral, otherwise a ``Fraction`` when it is rational, otherwise a
``Sqrt2`` with ``b != 0`` (whose own ``a`` and ``b`` are again ``int`` or
``Fraction``).  Parsing, group arithmetic and cut construction return
canonical scalars, so most coordinates are plain ``int`` and cost
machine-word arithmetic.  The invariant is a matter of speed only: a
stray ``Fraction(3)`` still equals ``3`` and hashes like it, so every
answer and every structural cut equality is the same either way.

``scalar_add``, ``scalar_neg``, ``scalar_cmp`` and ``scalar_floor`` are
the kernels under group sums, negation, the lexicographic order and the
folding of discrete anchors.  Canonical in, canonical out: they take any
form of the three kinds, and every sum and negation comes back in
``canon``'s forms.  Each reads its operands' ``type()`` once and works
in integers instead of through ``Fraction``'s generic operators.
int with int is plain machine arithmetic.  A rational is read as its
integer pair (n, d) with d > 0 and gcd(n, d) = 1; a sum of two is one
cross-multiplication and one ``gcd``, and a compare is one
cross-multiplication.  A ``Sqrt2`` operand is read as an integer triple
(A, B, D), the value (A + B*sqrt2)/D with D > 0.  Two values compare by
the sign of P + R*sqrt2 with P = A*D' - A'*D and R = B*D' - B'*D, which
the signs of P and R decide, and P^2 against 2*R^2 when they differ.  A
sum with a ``Sqrt2`` operand adds the rational and the sqrt2 parts as
integer pairs, and comes back as ``int`` or ``Fraction`` when the sqrt2
part cancels.

``scalar_ceil_times``, the ceiling that places the oracle's
approximations, shares the floor's step on the integer triple.

The integer pair of a ``Fraction`` is read from its two slots
``_numerator`` and ``_denominator``, not through the ``numerator`` and
``denominator`` properties.  ``ratio`` builds a reduced ``Fraction`` the
way CPython's own ``Fraction._from_coprime_ints`` does (3.12 and later):
``object.__new__(Fraction)`` and the two slot writes, after one ``gcd``,
with no ``Fraction.__new__`` parsing and normalizing again.  Both rely on
that slot layout of ``fractions.Fraction``, which the tests pin on every
Python the project supports; outside this module only
``groups.Atom.contains`` reads a slot.

``parse_scalar`` reads ``a``, ``br2``, ``a+br2`` and ``a-br2``, where
``a`` and ``b`` are ``n`` or ``n/d`` in ASCII digits (``n`` may carry a
minus sign); the ``r2`` term ends the literal, and any text after it is
a ``ValueError``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Union

Scalar = Union[int, Fraction, "Sqrt2"]


def _rational(x) -> "int | Fraction":
    """``x`` as an exact rational: an ``int`` when integral."""
    if type(x) is int:
        return x
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x._numerator if x._denominator == 1 else x


def _fraction(n: int, d: int) -> Fraction:
    """The ``Fraction`` n/d of a pair in lowest terms with d > 1, built
    without ``Fraction.__new__``."""
    f = object.__new__(Fraction)
    f._numerator = n
    f._denominator = d
    return f


def ratio(n: int, d: int) -> "int | Fraction":
    """The canonical scalar n/d of two ints with d > 0."""
    g = gcd(n, d)
    if g == d:
        return n // d
    return _fraction(n // g, d // g)


class Sqrt2:
    """The exact value a + b*sqrt(2) with rational a and b.  It defines
    no arithmetic or order of its own: those are the ``scalar_*``
    kernels."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        object.__setattr__(self, "a", _rational(a))
        object.__setattr__(self, "b", _rational(b))

    def __setattr__(self, name, value):
        raise AttributeError("Sqrt2 values are immutable")

    def __eq__(self, other):
        if isinstance(other, Sqrt2):
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, "sqrt2"))

    def __repr__(self):
        return f"Sqrt2({self.a!r}, {self.b!r})"

    def __str__(self):
        return format_scalar(self)


def _normalize(a, b) -> Scalar:
    return _rational(a) if b == 0 else Sqrt2(a, b)


def canon(x) -> Scalar:
    """The canonical form of a scalar: ``int`` when integral, otherwise
    ``Fraction`` when rational, otherwise ``Sqrt2`` with ``b != 0``."""
    if type(x) is int:
        return x
    if type(x) is Fraction:
        return x._numerator if x._denominator == 1 else x
    if isinstance(x, Sqrt2):
        return x if x.b != 0 else x.a
    return _rational(x)


def is_rational(x: Scalar) -> bool:
    return not isinstance(x, Sqrt2) or x.b == 0


def scalar_add(x: Scalar, y: Scalar) -> Scalar:
    """The canonical sum x + y."""
    tx, ty = type(x), type(y)
    if tx is int:
        if ty is int:
            return x + y
        if not x:
            return canon(y)
    elif ty is int and not y:
        return canon(x)
    if tx is Sqrt2 or ty is Sqrt2:
        xa, xb = (x.a, x.b) if tx is Sqrt2 else (x, 0)
        ya, yb = (y.a, y.b) if ty is Sqrt2 else (y, 0)
        return _normalize(scalar_add(xa, ya), scalar_add(xb, yb))
    # int or Fraction: n/d + m/e with d, e > 0 and n/d in lowest terms
    # makes (n*e + m*d)/(d*e); an int operand keeps the other's
    # denominator, and the sum is then already in lowest terms
    if tx is int:
        d = y._denominator
        return x + y._numerator if d == 1 else _fraction(x * d + y._numerator, d)
    if ty is int:
        d = x._denominator
        return y + x._numerator if d == 1 else _fraction(y * d + x._numerator, d)
    d, e = x._denominator, y._denominator
    return ratio(x._numerator * e + y._numerator * d, d * e)


def scalar_neg(x: Scalar) -> Scalar:
    """The canonical negation -x."""
    t = type(x)
    if t is int:
        return -x
    if t is Sqrt2:
        return _normalize(scalar_neg(x.a), scalar_neg(x.b))
    n, d = x._numerator, x._denominator
    return -n if d == 1 else _fraction(-n, d)


def _triple(x: Scalar) -> tuple[int, int, int]:
    """Integers (A, B, D) with x = (A + B*sqrt2)/D and D > 0."""
    t = type(x)
    if t is int:
        return x, 0, 1
    if t is not Sqrt2:
        return x._numerator, 0, x._denominator
    a, b = x.a, x.b
    an, ad = (a, 1) if type(a) is int else (a._numerator, a._denominator)
    bn, bd = (b, 1) if type(b) is int else (b._numerator, b._denominator)
    return an * bd, bn * ad, ad * bd


def _sign(p: int, r: int) -> int:
    """The sign of p + r*sqrt2 for integers p and r."""
    if r == 0:
        return (p > 0) - (p < 0)
    if p == 0 or (p > 0) == (r > 0):
        return 1 if r > 0 else -1
    # opposite signs: compare p^2 against 2 r^2 (sqrt 2 is irrational, so
    # the two are never equal)
    if p > 0:
        return 1 if p * p > 2 * r * r else -1
    return 1 if 2 * r * r > p * p else -1


def scalar_cmp(x: Scalar, y: Scalar) -> int:
    tx, ty = type(x), type(y)
    if tx is int and ty is int:
        return (x > y) - (x < y)
    if tx is Sqrt2 or ty is Sqrt2:
        a, b, d = _triple(x)
        c, e, f = _triple(y)
        return _sign(a * f - c * d, b * f - e * d)
    # int or Fraction, denominators positive: one cross-multiplication
    if tx is int:
        d = x * y._denominator - y._numerator
    elif ty is int:
        d = x._numerator - y * x._denominator
    else:
        d = x._numerator * y._denominator - y._numerator * x._denominator
    return (d > 0) - (d < 0)


def _floor_triple(a: int, b: int, d: int) -> int:
    """floor((a + b*sqrt2)/d) for integers a, b and d > 0."""
    if b == 0:
        return a // d
    # floor(b*sqrt2): b*sqrt2 = sign(b) * sqrt(2 b^2), irrational since
    # b != 0, so its fractional part lies strictly inside (0, 1) and
    # floor((a + b*sqrt2)/d) = (a + floor(b*sqrt2)) // d.
    s = isqrt(2 * b * b)
    return (a + (s if b > 0 else -s - 1)) // d


def scalar_floor(x: Scalar) -> int:
    """Exact floor, also for irrational a + b*sqrt2 values."""
    if type(x) is int:
        return x
    if type(x) is not Sqrt2:
        return x._numerator // x._denominator
    return _floor_triple(*_triple(x))


def scalar_ceil_times(x: Scalar, n: int) -> int:
    """Exact ceil(x*n) for an int n > 0: -floor of x's integer triple
    scaled by -n."""
    a, b, d = _triple(x)
    return -_floor_triple(-a * n, -b * n, d)


def format_scalar(x: Scalar) -> str:
    if not isinstance(x, Sqrt2) or x.b == 0:
        return str(x.a if isinstance(x, Sqrt2) else Fraction(x))
    a, b = x.a, x.b
    if b == 1:
        bs = "r2"
    elif b == -1:
        bs = "-r2"
    else:
        bs = f"{b}r2"
    if a == 0:
        return bs
    return f"{a}+{bs}" if b > 0 else f"{a}{bs}"


def parse_int(token: str) -> int:
    """A run of ASCII digits, optionally after a minus sign.  ``int`` alone
    would also read ``+1``, ``1_0`` and digits of other scripts."""
    digits = token[1:] if token[:1] == "-" else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{token!r} is not an integer")
    return int(token)


def _parse_fraction(text: str) -> "int | Fraction":
    """``[-]digits`` or ``[-]digits/digits`` in ASCII digits.  ``Fraction``
    alone would also read ``1e3``, ``1.5``, ``+1`` and ``1_0``."""
    num, slash, den = text.partition("/")
    if not slash:
        return parse_int(text)
    if den[:1] == "-":
        raise ValueError(f"{den!r} is not a denominator")
    d = parse_int(den)
    if d == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return _rational(Fraction(parse_int(num), d))


def parse_scalar(text: str) -> Scalar:
    """Parse ``a``, ``br2``, ``a+br2`` or ``a-br2`` (b may be a fraction)."""
    s = text.strip().replace(" ", "")
    if "r2" not in s:
        return _parse_fraction(s)
    head, _, tail = s.partition("r2")
    if tail:
        raise ValueError(f"unexpected text after r2 in {text!r}")
    # split head into rational part and sqrt2 coefficient
    cut = -1
    for i in range(1, len(head)):
        if head[i] in "+-" and head[i - 1] not in "+-/":
            cut = i
    if cut < 0:
        a_txt, b_txt = "0", head
    else:
        a_txt, b_txt = head[:cut], head[cut:]
    if b_txt in ("", "+"):
        b = 1
    elif b_txt == "-":
        b = -1
    else:
        b = _parse_fraction(b_txt.removeprefix("+"))
    a = _parse_fraction(a_txt)
    return _normalize(a, b)
