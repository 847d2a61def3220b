import math
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from domkit.groups import Atom
from domkit.scalars import Sqrt2, format_scalar, parse_scalar, scalar_cmp, scalar_floor


def test_sign_cases():
    assert Sqrt2(0, 0).sign() == 0
    assert Sqrt2(3, 0).sign() == 1
    assert Sqrt2(0, -2).sign() == -1
    assert Sqrt2(3, -2).sign() == 1      # 3 > 2*sqrt2
    assert Sqrt2(-3, 2).sign() == -1
    assert Sqrt2(F(-7, 5), 1).sign() == 1  # sqrt2 > 7/5
    assert Sqrt2(F(-3, 2), 1).sign() == -1  # sqrt2 < 3/2


def test_mixed_comparisons_and_arith():
    r2 = Sqrt2(0, 1)
    assert F(1) < r2 < F(3, 2)
    assert r2 + r2 == Sqrt2(0, 2)
    assert (r2 - r2) == 0 and type(r2 - r2) is int
    assert 1 + r2 == Sqrt2(1, 1)
    assert -(Sqrt2(1, -2)) == Sqrt2(-1, 2)
    assert r2 * 2 == Sqrt2(0, 2)
    assert scalar_cmp(F(7, 5), r2) < 0


rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


@given(rationals, rationals)
def test_floor_exact(a, b):
    x = Sqrt2(a, b)
    f = scalar_floor(x)
    assert Sqrt2(a - f, b).sign() >= 0
    assert Sqrt2(a - f - 1, b).sign() < 0


@given(rationals, rationals)
def test_format_parse_round_trip(a, b):
    x = Sqrt2(a, b) if b else a
    assert parse_scalar(format_scalar(x)) == x


def test_parse_forms():
    assert parse_scalar("r2") == Sqrt2(0, 1)
    assert parse_scalar("-r2") == Sqrt2(0, -1)
    assert parse_scalar("1/2+3r2") == Sqrt2(F(1, 2), 3)
    assert parse_scalar("1/2-1/3r2") == Sqrt2(F(1, 2), F(-1, 3))
    assert parse_scalar("-5/7") == F(-5, 7)


def test_parse_refuses_text_after_r2():
    # the r2 term closes the literal: nothing may follow it
    for text in ("2+r2/3", "r2+1", "3r2-1", "r2r2", "1/2+r2 3"):
        with pytest.raises(ValueError, match="after r2"):
            parse_scalar(text)


def test_parse_zero_denominator_is_value_error():
    # in the rational part and in the r2 coefficient alike
    for text in ("1/0", "-3/0", "1/0r2", "1/0+r2", "1+1/0r2", "1/2-1/0r2"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_scalar(text)


def test_immutability():
    x = Sqrt2(1, 2)
    with pytest.raises(AttributeError):
        x.a = F(3)


scalars = st.one_of(rationals, st.builds(Sqrt2, rationals, rationals))


@given(scalars, scalars)
def test_scalar_cmp_matches_operators(x, y):
    for u, v in ((x, y), (y, x), (x, x), (-x, x), (x, -y)):
        assert scalar_cmp(u, v) == (u > v) - (u < v)


@given(rationals)
def test_scalar_cmp_across_kinds_on_equal_values(a):
    for u, v in ((a, Sqrt2(a, 0)), (Sqrt2(a, 0), a), (Sqrt2(a, 1), Sqrt2(a, 1))):
        assert scalar_cmp(u, v) == 0


@given(rationals)
def test_scalar_floor_matches_math_floor(a):
    assert scalar_floor(a) == math.floor(a)
    assert scalar_floor(Sqrt2(a, 0)) == math.floor(a)


ATOMS = [Atom("Z"), Atom("Q"), Atom("Zloc", 2), Atom("Zloc", 3), Atom("Qr2")]


@given(rationals, st.integers(min_value=-10**6, max_value=10**6))
def test_atom_contains_ignores_scalar_kind(a, n):
    for atom in ATOMS:
        assert atom.contains(a) == atom.contains(Sqrt2(a, 0))
        assert atom.contains(n) == atom.contains(F(n)) == atom.contains(Sqrt2(n, 0))
