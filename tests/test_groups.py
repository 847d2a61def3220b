import itertools
import random
import time
from fractions import Fraction as F

import pytest

from domkit.groups import (
    Atom, FactorSet, Group, parse_group, validate_factor_set,
)


Z = Group.Z()
Q = Group.Q()
Z2 = Group.Zloc(2)
QQ = Group.lex(Group.Q(), Group.Q())


def el(*vals):
    return tuple(F(v) for v in vals)


def test_add_examples():
    # members of the localization have denominator coprime to the prime
    assert Group.Zloc(3).add(el(F(1, 2)), el(F(1, 2))) == el(1)
    assert Z2.add(el(F(1, 3)), el(F(2, 3))) == el(1)
    assert QQ.add(el(0, 1), el(0, 2)) == el(0, 3)
    zero_f = FactorSet.zero()
    crossed = Group.crossed(Z, Z, zero_f)
    assert crossed.add(el(1, 2), el(3, 4)) == el(4, 6)


def test_neg_examples():
    assert Q.neg(el(F(3, 4))) == el(F(-3, 4))
    crossed0 = Group.crossed(Z, Z, FactorSet.zero())
    assert crossed0.neg(el(1, 2)) == el(-1, -2)
    # nonzero factor set: the inverse must cancel exactly
    f = FactorSet(lambda c, d: (-2 * c[0] * d[0],), name="-2xy",
                  poly={(1, 1): F(-2)})
    tw = Group.crossed(Z, Z, f)
    for c in range(-3, 4):
        for a in range(-3, 4):
            x = el(c, a)
            assert tw.add(x, tw.neg(x)) == tw.zero()


def test_cmp_examples():
    assert QQ.cmp(el(0, 5), el(1, -100)) < 0
    assert Z.cmp(el(2), el(2)) == 0
    f = FactorSet(lambda c, d: (-2 * c[0] * d[0],), poly={(1, 1): F(-2)})
    tw = Group.crossed(Z, Z, f)
    assert tw.cmp(el(1, 3), el(1, 5)) < 0   # same base: fiber decides
    assert tw.cmp(el(2, -9), el(1, 5)) > 0


def test_membership():
    assert Z.contains(el(3)) and not Z.contains(el(F(1, 2)))
    assert Z2.contains(el(F(3, 5))) and not Z2.contains(el(F(3, 4)))
    assert Group.Zloc(3).contains(el(F(1, 2))) and not Group.Zloc(3).contains(el(F(1, 6)))
    with pytest.raises(ValueError):
        Z.check_element(el(F(1, 2)))


def test_min_positive():
    assert Z.min_positive() == el(1)
    assert Q.min_positive() is None
    # no positive lower bound in the localization: exhibit smaller elements
    assert Z2.min_positive() is None
    cand = F(1)
    for _ in range(6):
        smaller = cand / 3
        assert Z2.contains((smaller,)) and 0 < smaller < cand
        cand = smaller
    assert Group.lex(Q, Z).min_positive() == el(0, 1)
    assert Group.lex(Z, Q).min_positive() is None


def test_ladders_and_projection():
    assert Q.ladder_levels() == 2
    assert QQ.ladder_levels() == 3
    assert Group.lex(Z, Q, Z).ladder_levels() == 4
    assert QQ.project(el(3, 7), 1) == el(3)
    assert QQ.project(el(3, 7), 0) == el(3, 7)
    assert QQ.quotient(1) == Q
    with pytest.raises(ValueError):
        QQ.project(el(1, 2), 5)
    # projection is monotone (order of images agrees)
    zq = Group.lex(Z, Q)
    rng = random.Random(1)
    vals = [el(rng.randrange(-3, 4), F(rng.randrange(-6, 7), 2)) for _ in range(40)]
    for a, b in itertools.product(vals, repeat=2):
        if zq.cmp(a, b) <= 0:
            assert Q.cmp((a[0],), (b[0],)) <= 0 or a[0] == b[0]


def test_level_subgroup_closure():
    g = Group.lex(Z, Q, Z)
    rng = random.Random(2)
    for k in range(4):
        members = []
        for _ in range(20):
            coords = [F(0)] * (3 - k) + [F(rng.randrange(-4, 5))] * k
            members.append(tuple(coords))
        for a in members:
            assert g.in_level(a, k)
            assert g.in_level(g.neg(a), k)
            for b in members:
                assert g.in_level(g.add(a, b), k)


def test_group_laws_sampled():
    rng = random.Random(3)
    f = FactorSet(lambda c, d: (-2 * c[0] * d[0],), poly={(1, 1): F(-2)})
    for g in (Z, Q, Z2, QQ, Group.lex(Z, Q), Group.crossed(Z, Z, f)):
        pool = [tuple(F(rng.randrange(-6, 7), rng.choice((1, 1, 3))) for _ in range(g.num_atoms))
                for _ in range(24)]
        pool = [p for p in pool if g.contains(p)] + [g.zero()]
        for a, b, c in zip(pool, pool[1:], pool[2:]):
            assert g.add(g.add(a, b), c) == g.add(a, g.add(b, c))
            assert g.add(a, b) == g.add(b, a)
            assert g.add(a, g.zero()) == a
            assert g.add(a, g.neg(a)) == g.zero()
            if g.cmp(a, b) <= 0:
                assert g.cmp(g.add(a, c), g.add(b, c)) <= 0


def test_factor_set_validation():
    # symmetric polynomial differential of a section passes
    sect = FactorSet.from_section(lambda c: (c[0] * c[0],), name="ds")
    assert validate_factor_set(Z, Z, sect) == []
    assert validate_factor_set(Z, Z, FactorSet(None, poly={(1, 1): F(-2)})) == []
    # symmetry violation is caught with a witness
    bad = FactorSet(lambda c, d: (c[0] - d[0],), name="x-y")
    failures = validate_factor_set(Z, Z, bad)
    assert failures and failures[0][0] == "symmetry"
    with pytest.raises(ValueError, match="symmetry"):
        Group.crossed(Z, Z, bad)
    # cocycle violation, via the polynomial route
    bad2 = FactorSet(None, poly={(2, 2): F(1)})
    failures = validate_factor_set(Z, Z, bad2)
    assert [law for law, _ in failures] == ["cocycle"]
    # but a genuine differential in polynomial form passes
    good = FactorSet(None, poly={(2, 1): F(1), (1, 2): F(1)})
    assert validate_factor_set(Z, Z, good) == []
    # and via the sampled route
    bad3 = FactorSet(lambda c, d: (c[0] ** 2 * d[0] ** 2,), name="x2y2")
    failures = validate_factor_set(Z, Z, bad3)
    assert failures and failures[0][0] == "cocycle"


def test_crossed_refuses_a_factor_set_with_no_function():
    # the laws of a polynomial-only rule check symbolically, but the
    # group's add needs values of the rule
    poly_only = FactorSet(None, poly={(1, 1): F(-2)})
    assert validate_factor_set(Z, Z, poly_only) == []
    with pytest.raises(ValueError, match="no function"):
        Group.crossed(Z, Z, poly_only)
    with_fn = FactorSet(lambda c, d: (-2 * c[0] * d[0],), poly={(1, 1): F(-2)})
    g = Group.crossed(Z, Z, with_fn)
    assert g.add((1, 0), (1, 0)) == (2, -2)


def test_crossed_products_built_separately_are_equal():
    def twisted(poly):
        return Group.crossed(Z, Z, FactorSet(lambda c, d: (-2 * c[0] * d[0],), poly=poly))

    a, b = twisted({(1, 1): F(-2)}), twisted({(1, 1): -2, (2, 0): F(0)})
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    wide = [Group.crossed(Z, QQ, FactorSet.zero(2)) for _ in range(2)]
    assert wide[0] == wide[1] and hash(wide[0]) == hash(wide[1])
    assert wide[0].quotient(1) == wide[1].quotient(1)
    # two polynomials that are both valid factor sets, but different ones
    xy = FactorSet(lambda c, d: (c[0] * d[0],), poly={(1, 1): 1})
    assert Group.crossed(Z, Z, xy) != a
    # without a polynomial a factor set is equal only to itself
    sect = FactorSet.from_section(lambda c: (c[0] * c[0],), name="ds")
    same = Group.crossed(Z, Z, sect)
    assert same == Group.crossed(Z, Z, sect) and hash(same) == hash(Group.crossed(Z, Z, sect))
    other = FactorSet.from_section(lambda c: (c[0] * c[0],), name="ds")
    assert same != Group.crossed(Z, Z, other)


def test_factor_set_function_must_agree_with_its_polynomial():
    # -2xy and 2xy both satisfy the laws; given together they disagree
    mixed = FactorSet(lambda c, d: (-2 * c[0] * d[0],), poly={(1, 1): F(2)})
    failures = validate_factor_set(Z, Z, mixed)
    assert [law for law, _ in failures] == ["poly"]
    with pytest.raises(ValueError, match="poly"):
        Group.crossed(Z, Z, mixed)


def test_crossed_product_of_section_is_the_extension():
    # a crossed product made from a section is order-isomorphic to the
    # original extension through (c, a) -> (c, a - s(c))
    def t(c):
        return (c[0] * c[0],)

    b = Group.lex(Z, Z)
    ds = FactorSet.from_section(t, name="ds")
    tw = Group.crossed(Z, Z, ds)
    rng = random.Random(4)

    def beta(x):
        return (x[0], x[1] - t((x[0],))[0])

    pool = [el(rng.randrange(-5, 6), rng.randrange(-5, 6)) for _ in range(60)]
    for x, y in itertools.product(pool[:20], repeat=2):
        assert beta(b.add(x, y)) == tw.add(beta(x), beta(y))
        assert (b.cmp(x, y) <= 0) == (tw.cmp(beta(x), beta(y)) <= 0)
        assert beta(b.neg(x)) == tw.neg(beta(x))


def test_zero_factor_set_is_lex():
    tw = Group.crossed(Z, Z, FactorSet.zero())
    zz = Group.lex(Z, Z)
    rng = random.Random(5)
    pool = [el(rng.randrange(-5, 6), rng.randrange(-5, 6)) for _ in range(30)]
    for x, y in itertools.product(pool[:12], repeat=2):
        assert tw.add(x, y) == zz.add(x, y)
        assert tw.cmp(x, y) == zz.cmp(x, y)
        assert tw.neg(x) == zz.neg(x)


def test_parse_and_format():
    for text in ("Z", "Q", "Zloc(2)", "lex(Z,Q)", "lex(Q,Q)", "Qr2", "triv"):
        assert parse_group(text).format() == text
    g = parse_group("lex(Z, Q)")
    assert g.atoms == (Atom("Z"), Atom("Q"))
    assert g.format_element(el(1, F(1, 2))) == "(1,1/2)"
    assert g.parse_element("(1,1/2)") == el(1, F(1, 2))
    with pytest.raises(ValueError):
        parse_group("lex()")
    with pytest.raises(ValueError):
        parse_group("Zloc(4)")


def test_crossed_quotient_is_stable():
    g = Group.crossed(Z, QQ, FactorSet.zero(2))
    assert g.quotient(1) == g.quotient(1)
    assert hash(g.quotient(1)) == hash(g.quotient(1))
    assert g.quotient(1).num_atoms == 2 and g.quotient(2) == Z


def test_zloc_primality_is_fast_and_exact():
    t0 = time.perf_counter()
    assert Group.Zloc(2 ** 31 - 1).atoms[0].p == 2 ** 31 - 1
    assert time.perf_counter() - t0 < 2.0
    for p in (2 ** 31 - 2, 10_000_019 * 3, 9, 25, 49, 1, 0):
        with pytest.raises(ValueError):
            Atom("Zloc", p)
    for p in (2, 3, 5, 10_000_019):
        assert Atom("Zloc", p).p == p


def test_quotient_range_checked_after_the_cache():
    g = Group.lex(Z, Q)
    assert g.quotient(0) is g and g.quotient(0) is g
    assert g.quotient(1) is g.quotient(1)
    for k in (-1, 3):
        with pytest.raises(ValueError, match=f"ladder level {k} out of range 0..2"):
            g.quotient(k)


def test_factor_set_values_must_lie_in_the_fiber():
    # f(c, d) = (cd/2, 0) passes the grid laws but leaves lex(Z,Z) at (1, 1):
    # the group is refused when it is built, and a group built around the
    # check still raises in the sum instead of returning a tuple outside it
    half = FactorSet(lambda c, d: (F(c[0] * d[0], 2), F(0)), name="xy/2")
    ZZ = Group.lex(Z, Z)
    assert validate_factor_set(Z, ZZ, half)[0][0] == "fiber"
    with pytest.raises(ValueError, match="factor-set law 'fiber' fails"):
        Group.crossed(Z, ZZ, half)
    g = Group(Z.atoms + ZZ.atoms, base=Z, fiber=ZZ, factor=half)
    assert g.add(el(2, 0, 0), el(1, 0, 0)) == el(3, 1, 0)
    with pytest.raises(ValueError, match="leaves lex"):
        g.add(el(1, 0, 0), el(1, 0, 0))
    with pytest.raises(ValueError, match="leaves lex"):
        g.neg(el(1, 0, 0))
