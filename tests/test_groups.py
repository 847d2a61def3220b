import functools
import itertools
import math
import random
import time
from fractions import Fraction as F

import pytest

from domkit.cli import parse_carrier
from domkit.cuts import PLUS, make_node
from domkit.doms import CutDom, GroupDom
from domkit.groups import (
    Atom, FactorSet, Group, lex_cmp, validate_factor_set,
)
from domkit.scalars import Sqrt2


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
    f = FactorSet({(1, 1): -2}, name="-2xy")
    tw = Group.crossed(Z, Z, f)
    for c in range(-3, 4):
        for a in range(-3, 4):
            x = el(c, a)
            assert tw.add(x, tw.neg(x)) == tw.zero()


def test_cmp_examples():
    assert QQ.cmp(el(0, 5), el(1, -100)) < 0
    assert Z.cmp(el(2), el(2)) == 0
    tw = Group.crossed(Z, Z, FactorSet({(1, 1): -2}))
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
    # an element compares with a prefix as its image in the quotient
    assert lex_cmp(el(3, 7), el(3)) == 0
    assert lex_cmp(el(3, 7), el(4)) < 0 < lex_cmp(el(3, 7), el(3, 6))
    assert QQ.quotient(1) == Q
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

    def prefix_zero(x, k):  # in the level-k subgroup: the first 3 - k coordinates are 0
        return all(v == 0 for v in x[:3 - k])

    for k in range(4):
        members = []
        for _ in range(20):
            coords = [F(0)] * (3 - k) + [F(rng.randrange(-4, 5))] * k
            members.append(tuple(coords))
        for a in members:
            assert prefix_zero(a, k)
            assert prefix_zero(g.neg(a), k)
            for b in members:
                assert prefix_zero(g.add(a, b), k)


def test_group_laws_sampled():
    rng = random.Random(3)
    f = FactorSet({(1, 1): -2})
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
    # the differential of a section with s(0) = 0 passes, and so does a
    # polynomial cocycle; its values come from the polynomial
    sect = FactorSet.from_section(lambda c: (c[0] * c[0],), name="ds")
    assert validate_factor_set(Z, Z, sect) == []
    assert validate_factor_set(Z, Z, FactorSet({(1, 1): F(-2)})) == []
    assert Group.crossed(Z, Z, FactorSet({(1, 1): -2})).add((1, 0), (1, 0)) == (2, -2)
    # a section must send 0 to 0
    shifted = FactorSet.from_section(lambda c: (c[0] * c[0] + 1,), name="ds+1")
    assert validate_factor_set(Z, Z, shifted) == [("normalization", ((0,),))]
    # symmetry violation is caught with a witness
    bad = FactorSet({(1, 0): 1, (0, 1): -1}, name="x-y")
    failures = validate_factor_set(Z, Z, bad)
    assert failures and failures[0][0] == "symmetry"
    with pytest.raises(ValueError, match="symmetry"):
        Group.crossed(Z, Z, bad)
    # cocycle violation
    bad2 = FactorSet({(2, 2): F(1)}, name="x2y2")
    failures = validate_factor_set(Z, Z, bad2)
    assert [law for law, _ in failures] == ["cocycle"]
    # but a genuine differential in polynomial form passes
    good = FactorSet({(2, 1): F(1), (1, 2): F(1)})
    assert validate_factor_set(Z, Z, good) == []


def test_crossed_products_built_separately_are_equal():
    def twisted(poly):
        return Group.crossed(Z, Z, FactorSet(poly))

    a, b = twisted({(1, 1): F(-2)}), twisted({(1, 1): -2, (2, 0): F(0)})
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    wide = [Group.crossed(Z, QQ, FactorSet.zero()) for _ in range(2)]
    assert wide[0] == wide[1] and hash(wide[0]) == hash(wide[1])
    assert wide[0].quotient(1) == wide[1].quotient(1)
    # two polynomials that are both valid factor sets, but different ones
    xy = FactorSet({(1, 1): 1})
    assert Group.crossed(Z, Z, xy) != a
    # without a polynomial a factor set is equal only to itself
    sect = FactorSet.from_section(lambda c: (c[0] * c[0],), name="ds")
    same = Group.crossed(Z, Z, sect)
    assert same == Group.crossed(Z, Z, sect) and hash(same) == hash(Group.crossed(Z, Z, sect))
    other = FactorSet.from_section(lambda c: (c[0] * c[0],), name="ds")
    assert same != Group.crossed(Z, Z, other)


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
    # a group descriptor, as the dom command reads it, prints back as itself
    for text in ("Z", "Q", "Zloc(2)", "lex(Z,Q)", "lex(Q,Q)", "Qr2", "triv", "lex(Zloc(3),Q)"):
        assert parse_carrier(text).group.format() == text
    g = parse_carrier("lex(Z, Q)").group
    assert g.atoms == (Atom("Z"), Atom("Q"))
    assert g.format_element(el(1, F(1, 2))) == "(1,1/2)"
    assert GroupDom(g).parse_literal("(1,1/2)") == el(1, F(1, 2))
    with pytest.raises(ValueError):
        parse_carrier("lex()")
    # Zloc(p) takes a run of ASCII digits
    for text in ("Zloc(4)", "Zloc(1_1)", "Zloc(+3)", "Zloc(\u0663)"):
        with pytest.raises(ValueError):
            parse_carrier(text)


def test_crossed_quotient_is_stable():
    g = Group.crossed(Z, QQ, FactorSet.zero())
    assert g.quotient(1) == g.quotient(1)
    assert hash(g.quotient(1)) == hash(g.quotient(1))
    assert g.quotient(1).num_atoms == 2 and g.quotient(2) == Z


def _crossed_suite():
    """The crossed products the suite builds, by name: the -2xy twist over
    Z,Z and Q,Q, criterion 8's section-built ds, the coboundary of
    s(c) = (c^2/4, 0), which is (-cd/2, 0) and leaves lex(Z,Z) at odd cd,
    a coboundary with two fiber coordinates, and zero-twist twins of
    plain groups."""
    twist = FactorSet({(1, 1): -2}, name="-2xy")
    zz = Group.lex(Z, Z)
    groups = {
        "Z,Z,-2xy": Group.crossed(Z, Z, twist),
        "Q,Q,-2xy": Group.crossed(Q, Q, twist),
        "Z,Z,ds": Group.crossed(Z, Z, FactorSet.from_section(lambda c: (c[0] * c[0] * 2,))),
        "Z,lex(Z,Z),d(c2/4)": Group.crossed(Z, zz, FactorSet.from_section(
            lambda c: (F(c[0] ** 2, 4), 0), name="d(c2/4)")),
        "Z,lex(Z,Q),d(c2,c3)": Group.crossed(Z, Group.lex(Z, Q), FactorSet.from_section(
            lambda c: (c[0] ** 2, F(c[0] ** 3, 2)), name="d(c2,c3)")),
        "Z,QQ,0": Group.crossed(Z, QQ, FactorSet.zero()),
    }
    for g in (QQ, Group.lex(Q, Z), Group.lex(Z, Q), Group.lex(Group.Zloc(3), Z)):
        twin = Group.crossed(Group(g.atoms[:1]), Group(g.atoms[1:]), FactorSet.zero())
        groups[f"{g.format()},0"] = twin
    return groups


def _written_twist(f, fiber_atoms, c, d):
    """f(c, d) cut or padded to the fiber prefix, or the ValueError
    message when it leaves the fiber prefix; every base here is one atom."""
    n = len(fiber_atoms)
    tw = f(c, d)[:n]
    tw += (0,) * (n - len(tw))
    if all(_in_atom(a, F(v)) for a, v in zip(fiber_atoms, tw)):
        return tw, None
    names = [a.format() for a in fiber_atoms]
    fiber = names[0] if n == 1 else "lex(" + ",".join(names) + ")"
    return None, f"factor set {f.name} leaves {fiber} at {c[0]}, {d[0]}"


def _written_sum(g, x, y):
    """The base sum, then the fiber sum plus f(c1, c2) cut to the prefix's
    fiber length; a ValueError message where f leaves the fiber."""
    bm = len(g.base.atoms)
    c1, c2 = x[:bm], y[:bm]
    c = tuple(u + v for u, v in zip(c1, c2))
    if len(x) <= bm:
        return c, None
    tw, msg = _written_twist(g.factor, g.atoms[bm:len(x)], c1, c2)
    if msg:
        return None, msg
    return c + tuple(u + v + w for u, v, w in zip(x[bm:], y[bm:], tw)), None


def _written_neg(g, x):
    """-(c, a) = (-c, -(a + f(c, -c))), f cut to the prefix's fiber length."""
    bm = len(g.base.atoms)
    c = x[:bm]
    nc = tuple(-u for u in c)
    if len(x) <= bm:
        return nc, None
    tw, msg = _written_twist(g.factor, g.atoms[bm:len(x)], c, nc)
    if msg:
        return None, msg
    return nc + tuple(-(u + w) for u, w in zip(x[bm:], tw)), None


@pytest.mark.parametrize("name", list(_crossed_suite()))
def test_prefix_arithmetic_matches_a_written_out_reference(name):
    # add and neg take an element or two prefixes of one length, the
    # elements of G/H_k; at every level k they must give what the crossed
    # product's definition gives, cut to the prefix, or raise its message
    g = _crossed_suite()[name]
    rng = random.Random(33)
    pool = [g.zero()]
    while len(pool) < 14:
        x = tuple(F(rng.randrange(-5, 6), rng.choice((1, 1, 2, 3))) for _ in g.atoms)
        if g.contains(x):
            pool.append(g.check_element(x))
    raised = 0
    m = g.num_atoms
    for k in range(m + 1):
        prefixes = [x[:m - k] for x in pool]
        for x in prefixes:
            want, msg = _written_neg(g, x)
            if msg:
                raised += 1
                with pytest.raises(ValueError) as exc:
                    g.neg(x)
                assert str(exc.value) == msg
            else:
                assert g.neg(x) == want, (k, x)
            for y in prefixes:
                want, msg = _written_sum(g, x, y)
                if msg:
                    raised += 1
                    with pytest.raises(ValueError) as exc:
                        g.add(x, y)
                    assert str(exc.value) == msg
                else:
                    assert g.add(x, y) == want, (k, x, y)
    assert (raised > 0) == (name == "Z,lex(Z,Z),d(c2/4)")


def test_zloc_primality_is_fast_and_exact():
    t0 = time.perf_counter()
    assert Group.Zloc(2 ** 31 - 1).atoms[0].p == 2 ** 31 - 1
    assert time.perf_counter() - t0 < 2.0
    for p in (2 ** 31 - 2, 10_000_019 * 3, 9, 25, 49, 1, 0):
        with pytest.raises(ValueError):
            Atom("Zloc", p)
    for p in (2, 3, 5, 10_000_019):
        assert Atom("Zloc", p).p == p
    # Carmichael numbers, a semiprime near 10^16, and a strong pseudoprime
    # to every prime base up to 37
    for p in (561, 41041, 100_000_007 * 100_000_037, 318_665_857_834_031_151_167_461):
        with pytest.raises(ValueError, match="needs a prime, got"):
            Atom("Zloc", p)
    t0 = time.perf_counter()
    for p in (10_000_000_000_000_061, 2 ** 61 - 1):
        assert Atom("Zloc", p).p == p
    assert time.perf_counter() - t0 < 2.0
    # past the range where the test is exact, even a prime is refused
    for p in (3_317_044_064_679_887_385_961_981, 2 ** 89 - 1):
        with pytest.raises(ValueError, match="needs a prime below"):
            Atom("Zloc", p)


def test_quotient_level_zero_is_the_group_and_range_is_checked():
    g = Group.lex(Z, Q)
    assert g.quotient(0) is g and g.quotient(0) is g
    assert g.quotient(1) == g.quotient(1)
    for k in (-1, 3):
        with pytest.raises(ValueError, match=f"ladder level {k} out of range 0..2"):
            g.quotient(k)


def test_factor_set_values_must_lie_in_the_fiber():
    # f(c, d) = cd/2 satisfies the laws but leaves lex(Z,Z) at (1, 1): the
    # polynomial is refused when the group is built. The coboundary of
    # s(c) = (c^2/4, 0) is -cd/2, and a section's values are checked at
    # each sum, so that group raises in the sum instead of returning a
    # tuple outside it
    half = FactorSet({(1, 1): F(1, 2)}, name="xy/2")
    ZZ = Group.lex(Z, Z)
    assert validate_factor_set(Z, ZZ, half) == [("fiber", ((1,), (1,)))]
    with pytest.raises(ValueError, match="factor-set law 'fiber' fails"):
        Group.crossed(Z, ZZ, half)
    g = Group.crossed(Z, ZZ, FactorSet.from_section(lambda c: (F(c[0] ** 2, 4), 0)))
    assert g.add(el(2, 0, 0), el(1, 0, 0)) == el(3, -1, 0)
    with pytest.raises(ValueError, match="leaves lex"):
        g.add(el(1, 0, 0), el(1, 0, 0))
    with pytest.raises(ValueError, match="leaves lex"):
        g.neg(el(1, 0, 0))


def test_coboundary_with_sqrt2_fiber_values():
    # a section into Qr2 gives a twist with sqrt2 parts, summed by the
    # scalar kernels: ds(1, 1) = -2r2 and ds(1, -1) = 2r2
    g = Group.crossed(Z, Group.Qr2(), FactorSet.from_section(lambda c: (Sqrt2(0, c[0] * c[0]),)))
    assert g.add((1, 0), (1, 0)) == (2, Sqrt2(0, -2))
    assert g.neg((1, Sqrt2(0, 1))) == (-1, Sqrt2(0, -3))
    d = CutDom(g)
    x = make_node(g, 0, (1, Sqrt2(0, 1)), PLUS)
    assert d.fmt(d.add(x, x)) == "cut((2,0))+"


def _coboundary(s: dict) -> dict:
    """The polynomial s(x) + s(y) - s(x+y) for s given as {power: coeff}."""
    out: dict = {}
    for n, c in s.items():
        for i in range(n + 1):
            out[(i, n - i)] = out.get((i, n - i), 0) - c * math.comb(n, i)
        for m in ((n, 0), (0, n)):
            out[m] = out.get(m, 0) + c
    return out


def _shifted_binomial_half():
    """s(x) = C(x+6, 13)/2 as {power: coeff}: zero on -6..6, and half an
    integer at 7."""
    coeffs = [F(1, 2 * math.factorial(13))]  # constant first
    for k in range(13):
        # multiply by (x + 6 - k)
        coeffs = [a * (6 - k) + b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return dict(enumerate(coeffs))


def test_factor_set_laws_fail_at_the_edge_of_the_box():
    # x^2 y^2 has cocycle defect 2xyz(x - z), zero on {0,1}^3, so its
    # first failing point needs the box's last value 2; x^2 y - x y^2 is
    # antisymmetric but equal to its swap on {0,1}^2
    bad2 = FactorSet({(2, 2): 1}, name="x2y2")
    assert validate_factor_set(Z, Z, bad2) == [("cocycle", ((1,), (1,), (2,)))]
    skew = FactorSet({(2, 1): 1, (1, 2): -1})
    assert validate_factor_set(Z, Z, skew)[0] == ("symmetry", ((1,), (2,)))


def _law_fails(poly: dict) -> dict:
    """Each factor-set law as a test of a point, f evaluated from poly."""
    @functools.cache
    def f(x, y):
        return sum(F(c) * x ** i * y ** j for (i, j), c in poly.items())
    return {"symmetry": lambda x, y: f(x, y) != f(y, x),
            "normalization": lambda x: f(x, 0) != 0 or f(0, x) != 0,
            "cocycle": lambda x, y, z: f(y, z) + f(x, y + z) != f(x, y) + f(x + y, z)}


def test_factor_set_box_agrees_with_a_wider_search():
    # seeded polynomials of degree <= 3 in each variable, coboundaries,
    # perturbed coboundaries and arbitrary ones: the failing laws are
    # those that fail somewhere on {-2..D+2}^k, and each witness fails
    # its law when f is evaluated directly
    rng = random.Random(29)
    failing_seen = set()
    for _ in range(150):
        poly = _coboundary({n: F(rng.randint(-3, 3), rng.randint(1, 4)) for n in range(1, 4)})
        if rng.random() < 0.7:
            m = (rng.randint(0, 3), rng.randint(0, 3))
            poly[m] = poly.get(m, 0) + rng.choice((-1, 1, F(1, 2)))
        fails = _law_fails(poly)
        d = max((max(m) for m, c in poly.items() if c), default=0)
        wide = range(-2, d + 3)
        expected = [law for law, k in (("symmetry", 2), ("normalization", 1), ("cocycle", 3))
                    if any(fails[law](*p) for p in itertools.product(wide, repeat=k))]
        got = validate_factor_set(Z, Q, FactorSet(poly))
        assert [law for law, _ in got] == expected, poly
        for law, witness in got:
            assert fails[law](*(c for c, in witness)), (poly, law, witness)
        failing_seen.update(expected)
    assert failing_seen == {"symmetry", "normalization", "cocycle"}


XY = {(1, 1): 1}
REFUSED = [(Q, Z, XY), (Group.Zloc(3), Z, XY), (Group.Qr2(), Q, {(1, 1): -2}),
           (Group.Qr2(), Group.Qr2(), {(1, 1): -2}), (Z, Z, _coboundary(_shifted_binomial_half()))]
ACCEPTED = [(Z, Z, {(2, 1): F(1, 2), (1, 2): F(1, 2)}), (Group.Zloc(3), Group.Zloc(3), XY),
            (Group.Zloc(3), Group.Zloc(3), {(1, 1): F(1, 2)}), (Q, Q, {(1, 1): -2})]


@pytest.mark.parametrize("base,fiber,poly", REFUSED,
                         ids=["Q,Z,xy", "Zloc3,Z,xy", "Qr2,Q,-2xy", "Qr2,Qr2,-2xy", "Z,Z,dC13"])
def test_crossed_refuses_factor_sets_that_leave_the_fiber_off_the_grid(base, fiber, poly):
    # each of these satisfies the laws and lies in the fiber on -3..3 x -3..3
    with pytest.raises(ValueError):
        Group.crossed(base, fiber, FactorSet(poly))


def test_a_section_that_leaves_the_fiber_fails_at_its_first_such_sum():
    half = _shifted_binomial_half()
    s = FactorSet.from_section(lambda c: (sum(k * c[0] ** n for n, k in half.items()),))
    assert all(s((x,), (y,)) == (0,) for x in range(-3, 4) for y in range(-3, 4))
    g = Group.crossed(Z, Z, s)
    with pytest.raises(ValueError, match="leaves Z at 4, 3"):
        g.add((4, 0), (3, 0))


def _members(atom_kind, rng):
    """A base point far off any box, with a dense denominator where the
    atom has them."""
    n = rng.randrange(-10 ** 6, 10 ** 6 + 1)
    if atom_kind == "Z":
        return F(n)
    if atom_kind == "Zloc":
        return F(n, 2 ** rng.randrange(20) * 5 ** rng.randrange(8) * 7 ** rng.randrange(6))
    return F(n, rng.randrange(1, 10 ** 6))


def _in_atom(atom, v):
    """Membership written out from the atom's definition."""
    if atom.kind == "Zloc":
        return v.denominator % atom.p != 0
    return atom.kind == "Q" or v.denominator == 1


@pytest.mark.parametrize("base,fiber,poly", ACCEPTED,
                         ids=["Z,Z,(x2y+xy2)/2", "Zloc3,Zloc3,xy", "Zloc3,Zloc3,xy/2", "Q,Q,-2xy"])
def test_accepted_factor_sets_lie_in_the_fiber_far_off_the_box(base, fiber, poly):
    # an accepted polynomial is evaluated at seeded points with |x| up to
    # 10^6, independently of the acceptance rule, and every value must
    # lie in the fiber; the group's sum must carry that same value
    g = Group.crossed(base, fiber, FactorSet(poly))
    kind = base.atoms[0].kind
    rng = random.Random(11)
    for _ in range(200):
        x, y = _members(kind, rng), _members(kind, rng)
        v = sum(F(c) * x ** i * y ** j for (i, j), c in poly.items())
        assert _in_atom(fiber.atoms[0], v), (x, y, v)
        assert g.add((x, 0), (y, 0)) == (x + y, v)


@pytest.mark.parametrize("make,message", [
    (lambda: Atom("R"), "unknown atom kind 'R'"),
    (lambda: Atom("Z", 3), "Z takes no parameter"),
    (lambda: Atom("Z").dense_denominator(), "discrete atom has no dense approximations"),
    (lambda: Group.lex(Q, Group.crossed(Z, Z, FactorSet.zero())),
     "crossed products cannot be lex components"),
    (lambda: Group.lex(Group.trivial()), "lex product needs at least one atom"),
    (lambda: Group.crossed(Group.crossed(Z, Z, FactorSet.zero()), Z, FactorSet.zero()),
     "nested crossed products are not supported"),
    (lambda: QQ.check_element(el(1)), "expected 2 coordinates, got (Fraction(1, 1),)"),
])
def test_refusals(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message
