import math
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from domkit.cuts import approach_below
from domkit.doms import CutDom
from domkit.groups import Atom, Group, lex_cmp
from domkit.scalars import (
    Sqrt2, _fraction, canon, format_scalar, parse_scalar, ratio, scalar_add, scalar_cmp,
    scalar_floor, scalar_neg,
)
from support import Ref, is_canonical, standard_cut_carriers


def test_sign_cases():
    assert scalar_cmp(Sqrt2(0, 0), 0) == 0
    assert scalar_cmp(Sqrt2(3, 0), 0) == 1
    assert scalar_cmp(Sqrt2(0, -2), 0) == -1
    assert scalar_cmp(Sqrt2(3, -2), 0) == 1      # 3 > 2*sqrt2
    assert scalar_cmp(Sqrt2(-3, 2), 0) == -1
    assert scalar_cmp(Sqrt2(F(-7, 5), 1), 0) == 1  # sqrt2 > 7/5
    assert scalar_cmp(Sqrt2(F(-3, 2), 1), 0) == -1  # sqrt2 < 3/2
    r2 = Sqrt2(0, 1)
    assert scalar_cmp(F(7, 5), r2) < 0 < scalar_cmp(F(3, 2), r2)


rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


@given(rationals, rationals)
def test_floor_exact(a, b):
    x = Sqrt2(a, b)
    f = scalar_floor(x)
    assert Ref(a - f, b).sign() >= 0
    assert Ref(a - f - 1, b).sign() < 0


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


def test_a_rational_value_hashes_like_the_rational():
    for a in (3, F(1, 2)):
        assert Sqrt2(a, 0) == a and hash(Sqrt2(a, 0)) == hash(a)


scalars = st.one_of(rationals, st.builds(Sqrt2, rationals, rationals))


def _negated(x):
    """-x in x's own form: a Sqrt2 stays one when its b is 0."""
    return Sqrt2(-x.a, -x.b) if isinstance(x, Sqrt2) else -x


@given(scalars, scalars)
def test_scalar_cmp_matches_operators(x, y):
    # scalar_cmp is support.Ref's order, and antisymmetric
    for u, v in ((x, y), (y, x), (x, x), (_negated(x), x), (x, _negated(y))):
        assert scalar_cmp(u, v) == Ref.of(u).cmp(v) == -scalar_cmp(v, u)


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


# -- kernel agreement: scalar_add, scalar_neg, scalar_cmp and lex_cmp
# against the operators of support.Ref ---------------------------------------

BIG = 2**70
huge_ints = st.integers(-BIG, BIG)
small_ints = st.integers(-3, 3)
kernel_rationals = st.one_of(
    huge_ints,
    small_ints,
    st.builds(F, huge_ints, st.integers(1, BIG)),
    st.builds(F, small_ints, st.integers(1, 4)),
    huge_ints.map(F),  # non-canonical: an integral Fraction
    st.sampled_from([F(0), F(2, 1), F(-1, 1), 0]),
)
kernel_scalars = st.one_of(
    kernel_rationals,
    st.builds(Sqrt2, kernel_rationals, kernel_rationals),  # b = 0 is non-canonical
)


def lex_cmp_reference(x: tuple, y: tuple) -> int:
    for u, v in zip(x, y):
        if u != v:
            return Ref.of(u).cmp(v)
    return 0


@settings(max_examples=400, derandomize=True, deadline=None)
@given(kernel_scalars, kernel_scalars)
def test_scalar_kernels_agree_with_operators(x, y):
    nx, ny = _negated(x), _negated(y)
    for u, v in ((x, y), (y, x), (x, x), (x, ny), (nx, x), (x, 0), (0, x), (x, F(0))):
        s, want = scalar_add(u, v), (Ref.of(u) + v).value()
        assert s == want and type(s) is type(want), (u, v, s)
        assert is_canonical(s), (u, v, s)
        assert scalar_cmp(u, v) == Ref.of(u).cmp(v), (u, v)
        n, want = scalar_neg(u), (-Ref.of(u)).value()
        assert n == want and type(n) is type(want), (u, n)
        assert is_canonical(n), (u, n)


def test_fraction_builder_is_a_fraction():
    rng = random.Random(30)
    pairs = [(1, 2), (-1, 2), (0, 1), (5, 1), (-3, 7)]
    for _ in range(2000):
        bits = rng.choice((4, 30, 64, 200))
        pairs.append((rng.randint(-2**bits, 2**bits), rng.randint(1, 2**bits)))
    built = 0
    for n, d in pairs:
        want = F(n, d)
        r = ratio(n, d)
        assert r == want and type(r) is type(canon(want)), (n, d)
        g = math.gcd(n, d)
        n, d = n // g, d // g
        if d == 1:
            continue
        f = _fraction(n, d)
        assert type(f) is F
        assert f == want and hash(f) == hash(want) and str(f) == str(want)
        assert (f.numerator, f.denominator) == (n, d)
        back = pickle.loads(pickle.dumps(f))
        assert type(back) is F and back == want and hash(back) == hash(want)
        assert canon(f) is f
        assert f + 1 == want + 1 and -f == -want
        built += 1
    assert built > 1500


def _pell_pairs():
    """p/q with p^2 - 2q^2 = +-1, the closest approximations of sqrt2,
    from 3/2 up to about 10^40."""
    p, q = 3, 2
    while p < 10**40:
        yield p, q
        p, q = p + 2 * q, p + q


def test_sqrt2_compare_on_pell_near_ties():
    cases = 0
    for p, q in _pell_pairs():
        e = p * p - 2 * q * q  # 1: p/q is above sqrt2, -1: below
        assert e in (1, -1)
        for k in (1, -1, 3, -7, F(5, 11), F(-2, 9), 10**20):
            t = F(p, q) * k
            want = e if k > 0 else -e  # the sign of k(p/q - sqrt2)
            c = F(7, 3)
            for x, y, w in (
                (t, Sqrt2(0, k), want),
                (Sqrt2(t, -k), 0, want),
                (Sqrt2(0, -k), -t, want),
                (Sqrt2(t, 0), Sqrt2(0, k), want),  # b = 0 is non-canonical
                (Sqrt2(t, k), Sqrt2(0, 2 * k), want),
                (Sqrt2(c, k), c + t, -want),
            ):
                assert scalar_cmp(x, y) == w == -scalar_cmp(y, x), (p, q, k, x, y)
                assert Ref.of(x).cmp(y) == w, (x, y)
                cases += 1
        # floor(q*sqrt2) is p - 1 above the tie and p below it
        assert scalar_floor(Sqrt2(0, q)) == p - (e > 0)
        assert scalar_floor(Sqrt2(-p, q)) == -(e > 0)
        assert scalar_floor(Sqrt2(0, -q)) == -p - (e < 0)
    assert cases > 2000


@st.composite
def tuple_pairs(draw):
    """Two coordinate tuples of up to four scalars, where each coordinate of
    the second is the first's own object, a fresh equal value, or another
    scalar; the second may be shorter or longer."""
    x = tuple(draw(st.lists(kernel_scalars, min_size=0, max_size=4)))
    y = []
    for u in x:
        how = draw(st.sampled_from(("same", "equal", "other")))
        if how == "same":
            y.append(u)
        elif how == "equal":
            y.append(F(u) if not isinstance(u, Sqrt2) else Sqrt2(u.a, u.b))
        else:
            y.append(draw(kernel_scalars))
    y = y[:draw(st.integers(0, len(y)))] + draw(st.lists(kernel_scalars, max_size=1))
    return x, tuple(y)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(tuple_pairs())
def test_lex_cmp_agrees_with_zip_and_compare(pair):
    x, y = pair
    assert lex_cmp(x, y) == lex_cmp_reference(x, y), (x, y)
    assert lex_cmp(y, x) == lex_cmp_reference(y, x), (x, y)
    assert lex_cmp(x, x) == 0


def test_approach_below_matches_its_operator_form():
    # approach_below takes its ceiling from the target's integer triple;
    # it must give the ceiling of the target scaled through the
    # reference's operators, in the same form, on the Pell near-ties and
    # on every anchor of criterion 5's pools and of a cuts(Q,r2) pool
    targets = []
    for p, q in _pell_pairs():
        for k in (1, -1, 3, -7, F(5, 11), F(-2, 9), 10**20):
            t = F(p, q) * k
            targets += [t, Sqrt2(0, k), Sqrt2(t, -k), Sqrt2(0, -k), Sqrt2(t, k),
                        Sqrt2(F(7, 3), k), Sqrt2(t, 0)]
    rng = random.Random(202)  # criterion 5's draws, pools and pairs alike
    for d in standard_cut_carriers().values():
        pool = d.sample(rng, 400)
        for _ in range(2 * 10_000):
            rng.choice(pool)
        targets += [c.anchor for c in pool if c.kind == "n"]
    targets += [c.anchor for c in CutDom(Group.Q(), "Qr2").sample(random.Random(7), 200)
                if c.kind == "n"]
    assert sum(isinstance(t, Sqrt2) and t.b != 0 for t in targets) > 1000
    for g in (Group.Q(), Group.Zloc(3)):
        for t in targets:
            for n in (0, 1, 5, 12):
                d = g.atoms[0].dense_denominator() ** (n + 1)
                want = Ref(F(-scalar_floor((Ref.of(t) * -d).value()) - 1, d)).value()
                got = approach_below(g, 0, t, n)
                assert got == want and type(got) is type(want), (g, t, n)
