"""Exact scalar values used in group coordinates and cut anchors.

Three scalar kinds circulate in the package: ``int`` for integral
values, ``fractions.Fraction`` for the other rationals, and ``Sqrt2``
(an element a + b*sqrt(2) of the real quadratic field Q(sqrt 2), kept
exact) for the irrational ones.  They interoperate through the usual
arithmetic/comparison operators, so code downstream never needs to
branch on the kind.

``canon`` is the one normalizer: it returns an ``int`` when the value is
integral, otherwise a ``Fraction`` when it is rational, otherwise a
``Sqrt2`` with ``b != 0`` (whose own ``a`` and ``b`` are again ``int`` or
``Fraction``).  Parsing, group arithmetic and cut construction return
canonical scalars, so most coordinates are plain ``int`` and cost
machine-word arithmetic.  The invariant is a matter of speed only: a
stray ``Fraction(3)`` still equals ``3`` and hashes like it, so every
answer and every structural cut equality is the same either way.

``scalar_add`` and ``scalar_cmp`` are the kernels under group sums and
the lexicographic order.  Canonical in, canonical out: they take any
form, and every sum comes back through ``canon``'s forms.  Each reads
its operands' ``type()`` once instead of going through the operators'
generic coercions: int with int is plain machine arithmetic, a rational
pair is one cross-multiplication over ``numerator``/``denominator``, and
only a ``Sqrt2`` operand takes its own operators.

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
    return x.numerator if x.denominator == 1 else x


class Sqrt2:
    """Exact a + b*sqrt(2) with rational a, b and decidable sign."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        object.__setattr__(self, "a", _rational(a))
        object.__setattr__(self, "b", _rational(b))

    def __setattr__(self, name, value):
        raise AttributeError("Sqrt2 values are immutable")

    # -- sign and comparisons ------------------------------------------

    def sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 against 2 b^2 (sqrt 2 is irrational,
        # so a + b*sqrt2 = 0 only when a = b = 0)
        if a > 0:  # b < 0
            return 1 if a * a > 2 * b * b else -1
        return 1 if 2 * b * b > a * a else -1

    @staticmethod
    def _coerce(other) -> "Sqrt2 | None":
        if isinstance(other, Sqrt2):
            return other
        if isinstance(other, (int, Fraction)):
            return Sqrt2(other, 0)
        return None

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, "sqrt2"))

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare Sqrt2 with {type(other).__name__}")
        return Sqrt2(self.a - o.a, self.b - o.b).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _normalize(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _normalize(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _normalize(o.a - self.a, o.b - self.b)

    def __neg__(self):
        return Sqrt2(-self.a, -self.b)

    def __mul__(self, other):
        # rational scaling only; full field product is never needed here
        if isinstance(other, (int, Fraction)):
            return _normalize(self.a * other, self.b * other)
        return NotImplemented

    __rmul__ = __mul__

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
        return x.numerator if x.denominator == 1 else x
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
        return canon(x + y)
    # int or Fraction, denominators positive: one cross-multiplication
    xd, yd = x.denominator, y.denominator
    n = x.numerator * yd + y.numerator * xd
    d = xd * yd
    g = gcd(n, d)
    if g == d:
        return n // d
    return Fraction(n // g, d // g)


def scalar_cmp(x: Scalar, y: Scalar) -> int:
    tx, ty = type(x), type(y)
    if tx is int and ty is int:
        return (x > y) - (x < y)
    if tx is not Sqrt2 and ty is not Sqrt2:
        # int or Fraction, denominators positive: one cross-multiplication
        d = x.numerator * y.denominator - y.numerator * x.denominator
        return (d > 0) - (d < 0)
    if x == y:
        return 0
    return -1 if x < y else 1


def scalar_floor(x: Scalar) -> int:
    """Exact floor, also for irrational a + b*sqrt2 values."""
    if type(x) is int:
        return x
    if not isinstance(x, Sqrt2):
        return x.numerator // x.denominator
    if x.b == 0:
        return x.a.numerator // x.a.denominator
    # x = (A/B) + (C/D) sqrt2 = (AD + CB*sqrt2) / (BD) with BD > 0.
    a_num, a_den = x.a.numerator, x.a.denominator
    b_num, b_den = x.b.numerator, x.b.denominator
    u = a_num * b_den
    t = b_num * a_den
    m = a_den * b_den
    # floor(t*sqrt2): t*sqrt2 = sign(t) * sqrt(2 t^2), irrational since t != 0
    s = isqrt(2 * t * t)
    ft = s if t > 0 else -s - 1
    # t*sqrt2 has fractional part strictly inside (0, 1), so
    # floor((u + t*sqrt2)/m) = (u + floor(t*sqrt2)) // m.
    return (u + ft) // m


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
