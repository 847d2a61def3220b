import itertools
import random
import tracemalloc
from fractions import Fraction as F

import pytest

from domkit.cli import parse_carrier
from domkit.cuts import (
    FILLED, MINUS, NEG_INF, PLUS, POS_INF,
    add, compare, edge_above, edge_below, fill_ge, fill_le,
    fills, format_cut, induced_cut, level_edge, lsub,
    make_node, member_above, member_below, neg, parse_cut, project_cut, radd,
    rsub, shift_by, zero_cut,
)
from domkit.doms import CutDom, Dom, GroupDom, sign_of
from domkit.groups import Atom, FactorSet, Group
from domkit.scalars import Sqrt2

Q = Group.Q()
Z = Group.Z()
Z2 = Group.Zloc(2)
QQ = Group.lex(Group.Q(), Group.Q())
QR2 = Group.Qr2()


def cc(g, text):
    return parse_cut(g, text)


def el(*vals):
    return tuple(F(v) for v in vals)


OMEGA = cc(QQ, "edge(1)+0")


# -- membership -----------------------------------------------------------------


def test_member_below_examples():
    root = make_node(Q, 0, (Sqrt2(0, 1),), FILLED)
    assert member_below(Q, el(1), root)
    assert not member_below(Q, el(F(3, 2)), root)
    for gamma in (el(0, 0), el(5, -2)):
        assert member_below(QQ, gamma, POS_INF)
    assert member_below(QQ, el(0, 10**6), OMEGA)
    assert member_below(QQ, el(0, -5), OMEGA)
    assert not member_below(QQ, el(1, 0), OMEGA)
    assert member_above(QQ, el(1, 0), OMEGA)


def test_membership_trichotomy():
    rng = random.Random(0)
    d = CutDom(QQ)
    cuts = d.sample(rng, 60)
    gammas = [el(rng.randrange(-3, 4), F(rng.randrange(-6, 7), 2)) for _ in range(20)]
    for lam in cuts:
        if lam.kind != "n":
            continue
        for gamma in gammas:
            below = member_below(QQ, gamma, lam)
            above = member_above(QQ, gamma, lam)
            assert below != above  # the two parts partition the group
            if gamma[:len(lam.prefix)] == lam.prefix:
                # a boundary element realizes the side the cut closes on
                assert below == (lam.side == PLUS)
                assert above == (lam.side == MINUS)
        # left parts are initial, right parts final
        lows = [g for g in gammas if member_below(QQ, g, lam)]
        for g1 in lows:
            for g2 in gammas:
                if QQ.cmp(g2, g1) <= 0:
                    assert member_below(QQ, g2, lam)


def test_a_cut_splits_its_group():
    # every group element lies in exactly one part of a cut; TildeDom.cmp
    # relies on it. Elements on a cut's own prefix are the boundary cases.
    twist = FactorSet({(1, 1): -2}, name="-2xy")
    rng = random.Random(16)
    carriers = [CutDom(Q), CutDom(Z), CutDom(Z2), CutDom(QQ), CutDom(Q, "Qr2"),
                CutDom(Group.crossed(Z, Z, twist))]
    fills_z2 = [make_node(Z2, 0, (F(n, 2 ** k),), FILLED) for n in (-3, -1, 1, 5) for k in (1, 2)]
    for d in carriers:
        g = d.group
        cuts = d.sample(rng, 60) + (fills_z2 if g == Z2 else [])
        gammas = GroupDom(g).sample(rng, 20)
        gammas += [c.prefix + (0,) * c.level for c in cuts
                   if c.kind == "n" and g.atoms[len(c.prefix) - 1].contains(c.anchor)]
        for c in cuts:
            for gamma in gammas:
                assert member_below(g, gamma, c) != member_above(g, gamma, c), \
                    (d.fmt(c), gamma)


# -- minus -----------------------------------------------------------------------


def test_neg_examples():
    assert neg(Q, cc(Q, "cut(3)+")) == cc(Q, "cut(-3)-")
    assert neg(QQ, OMEGA) == make_node(QQ, 1, (F(0),), MINUS)
    rng = random.Random(1)
    for d in (CutDom(Q), CutDom(Z2), CutDom(QQ), CutDom(Z)):
        for lam in d.sample(rng, 50):
            assert neg(d.group, neg(d.group, lam)) == lam


# -- sums --------------------------------------------------------------------------


def test_add_side_table_examples():
    assert add(Q, cc(Q, "cut(3)+"), cc(Q, "cut(4)-")) == cc(Q, "cut(7)-")
    assert add(Q, cc(Q, "cut(3)+"), cc(Q, "cut(4)+")) == cc(Q, "cut(7)+")
    half = make_node(Z2, 0, (F(1, 2),), FILLED)
    quarter = make_node(Z2, 0, (F(1, 4),), FILLED)
    assert add(Z2, half, half) == cc(Z2, "cut(1)-")
    assert add(Z2, quarter, quarter) == half
    assert add(QQ, OMEGA, OMEGA) == OMEGA


def test_radd_dual_table():
    zp = cc(Z, "cut(0)+")
    two_minus = radd(Z, zp, zp)
    assert two_minus == cc(Z, "cut(1)+")  # canonical successor form of 2-
    acc = zp
    for n in range(2, 6):
        acc = radd(Z, acc, zp)
        assert acc == make_node(Z, 0, (F(n - 1),), PLUS)
    # over a dense group the width-zero shifts coincide
    lam = cc(Q, "cut(1/3)-")
    gamma = el(F(2, 3))
    assert add(Q, lam, edge_above(Q, Q, gamma)) == shift_by(Q, gamma, lam)
    assert radd(Q, lam, edge_below(Q, Q, gamma)) == shift_by(Q, gamma, lam)


def test_left_sum_below_right_sum():
    rng = random.Random(2)
    for d in (CutDom(Q), CutDom(Z), CutDom(Z2), CutDom(QQ)):
        pool = d.sample(rng, 100)
        for _ in range(1000):
            a, b = rng.choice(pool), rng.choice(pool)
            assert compare(d.group, add(d.group, a, b), radd(d.group, a, b)) <= 0


def test_radd_matches_negation_identity():
    # the right-sum rule table against Dom's derived form -((-x) + (-y)),
    # on every ordered pair of a pool of each perfbench carrier shape
    rng = random.Random(3)
    for d in (CutDom(Q), CutDom(Z), CutDom(Z2), CutDom(QQ), CutDom(Q, "Qr2")):
        pool = d.sample(rng, 150)
        for a, b in itertools.product(pool, repeat=2):
            assert d.radd(a, b) == Dom.radd(d, a, b), (d.name, a, b)


def test_sum_bounds_by_raw_membership():
    # soundness of the edges, checked with membership only: sums of
    # elements below the operands never land above the left sum, and
    # sums of elements above never land below the right sum
    from domkit.oracle import ascending_chain
    from domkit.doms import CutDom
    rng = random.Random(17)
    for d in (CutDom(Q), CutDom(Z), CutDom(Z2), CutDom(QQ)):
        g = d.group
        pool = [c for c in d.sample(rng, 40)]
        for _ in range(60):
            a, b = rng.choice(pool), rng.choice(pool)
            s, r = add(g, a, b), radd(g, a, b)
            lows_a = ascending_chain(g, a, 4)
            lows_b = ascending_chain(g, b, 4)
            for g1 in lows_a:
                for g2 in lows_b:
                    assert not member_above(g, g.add(g1, g2), s)
            highs_a = [g.neg(x) for x in ascending_chain(g, neg(g, a), 4)]
            highs_b = [g.neg(x) for x in ascending_chain(g, neg(g, b), 4)]
            for g1 in highs_a:
                for g2 in highs_b:
                    assert not member_below(g, g.add(g1, g2), r)


def test_compare_laws_fuzzed():
    from hypothesis import given, strategies as st

    small = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    sides = st.sampled_from([MINUS, PLUS])

    @given(small, sides, small, sides, small, sides)
    def check(q1, s1, q2, s2, q3, s3):
        a = make_node(Q, 0, (q1,), s1)
        b = make_node(Q, 0, (q2,), s2)
        c = make_node(Q, 0, (q3,), s3)
        assert compare(Q, a, b) == -compare(Q, b, a)
        if compare(Q, a, b) <= 0 and compare(Q, b, c) <= 0:
            assert compare(Q, a, c) <= 0
        if compare(Q, a, b) <= 0:
            assert compare(Q, add(Q, a, c), add(Q, b, c)) <= 0

    check()


def test_compare_is_a_total_order_on_seeded_pools():
    # the oracle compares only the last of its ascending shifts with the
    # candidate and the probe, which is sound only for a total order; it
    # checks the ascent itself on the chain's projections, which
    # test_oracle.py's test_shifts_compare_as_their_projections backs
    rng = random.Random(5)
    for d in (CutDom(Q), CutDom(Z), CutDom(Z2), CutDom(QQ), CutDom(Q, "Qr2")):
        g = d.group
        pool = list(dict.fromkeys(d.sample(rng, 120) + [NEG_INF, POS_INF]))
        # equal cuts built separately
        pool += [make_node(g, c.level, c.prefix, c.side) for c in pool[:10] if c.kind == "n"]
        cmp = [[compare(g, x, y) for y in pool] for x in pool]
        for (i, x), (j, y) in itertools.product(enumerate(pool), repeat=2):
            assert cmp[i][j] == -cmp[j][i], (x, y)
            assert (cmp[i][j] == 0) == (x == y), (x, y)
        for i, j, k in itertools.product(range(len(pool)), repeat=3):
            if cmp[i][j] <= 0 and cmp[j][k] <= 0:
                assert cmp[i][k] <= 0, (pool[i], pool[j], pool[k])
                if cmp[i][j] or cmp[j][k]:
                    assert cmp[i][k] < 0, (pool[i], pool[j], pool[k])


def test_infinity_conventions():
    for g, lam in ((Q, cc(Q, "cut(2)+")), (QQ, OMEGA)):
        assert add(g, NEG_INF, POS_INF) == NEG_INF
        assert add(g, POS_INF, lam) == POS_INF
        assert add(g, NEG_INF, lam) == NEG_INF
        assert radd(g, NEG_INF, POS_INF) == POS_INF
        assert radd(g, NEG_INF, lam) == NEG_INF


# -- differences ---------------------------------------------------------------------


def test_difference_examples():
    assert rsub(QQ, OMEGA, OMEGA) == OMEGA
    assert lsub(QQ, OMEGA, OMEGA) == neg(QQ, OMEGA)
    for q in (F(0), F(5, 2), F(-3)):
        qp = make_node(Q, 0, (q,), PLUS)
        assert rsub(Q, qp, qp) == zero_cut(Q)
    # right difference dominates the left difference
    rng = random.Random(4)
    d = CutDom(Z2)
    pool = d.sample(rng, 60)
    for _ in range(300):
        a, b = rng.choice(pool), rng.choice(pool)
        assert compare(Z2, lsub(Z2, a, b), rsub(Z2, a, b)) <= 0


def test_order_iff_difference_negative():
    rng = random.Random(5)
    for d in (CutDom(Q), CutDom(QQ), CutDom(Z)):
        g = d.group
        pool = d.sample(rng, 60)
        zp = zero_cut(g)
        for _ in range(400):
            a, b = rng.choice(pool), rng.choice(pool)
            assert (compare(g, a, b) < 0) == (compare(g, rsub(g, a, b), zp) < 0)


# -- width and invariance ---------------------------------------------------------------


def test_width_examples():
    assert CutDom(Q).width_of(cc(Q, "cut(7)+")) == zero_cut(Q)
    assert CutDom(QQ).width_of(OMEGA) == OMEGA
    half = make_node(Z2, 0, (F(1, 2),), FILLED)
    assert CutDom(Z2).width_of(half) == zero_cut(Z2)
    rng = random.Random(6)
    for d in (CutDom(Q), CutDom(Z), CutDom(QQ), CutDom(Z2)):
        for lam in d.sample(rng, 60):
            if lam.kind == "n":
                assert d.width_of(lam) == rsub(d.group, lam, lam)


def test_invariance_level():
    # a cut's level indexes its stabilizer H_level: translation by an
    # element of H_level fixes the cut, checked by membership sampling
    assert OMEGA.level == 1
    rng = random.Random(7)
    for q in (F(1), F(-7, 2)):
        assert shift_by(QQ, el(0, q), OMEGA) == OMEGA
        gam = el(rng.randrange(-3, 4), F(rng.randrange(-5, 6), 2))
        assert member_below(QQ, gam, OMEGA) == member_below(QQ, QQ.add(gam, el(0, q)), OMEGA)


# -- comparisons ------------------------------------------------------------------------


def test_compare_examples():
    assert compare(Z, cc(Z, "cut(0)+"), cc(Z, "cut(1)-")) == 0
    assert compare(Q, cc(Q, "cut(0)-"), cc(Q, "cut(0)+")) < 0
    assert compare(QQ, zero_cut(QQ), OMEGA) < 0
    assert compare(QQ, OMEGA, cc(QQ, "cut((1,0))-")) < 0
    rng = random.Random(8)
    d = CutDom(QQ)
    pool = d.sample(rng, 80)
    for _ in range(400):
        a, b = rng.choice(pool), rng.choice(pool)
        assert compare(QQ, a, b) == -compare(QQ, b, a)
        c = rng.choice(pool)
        if compare(QQ, a, b) <= 0 and compare(QQ, b, c) <= 0:
            assert compare(QQ, a, c) <= 0


def test_discrete_canonical_form():
    assert cc(Z, "cut(5)-") == cc(Z, "cut(4)+")
    assert cc(Z, "cut(1/2)+") == cc(Z, "cut(0)+")
    assert cc(Z, "fill(1/2)") == cc(Z, "cut(0)+")
    zq = Group.lex(Z, Q)
    # level-1 nodes live over the discrete quotient: successor-normal form
    lo = make_node(zq, 1, (F(3),), MINUS)
    assert lo.side == PLUS and lo.prefix == (F(2),)


def test_repr():
    assert repr(NEG_INF) == "Cut(-inf)"
    assert repr(POS_INF) == "Cut(+inf)"
    assert repr(cc(Q, "cut(1/2)-")) == "Cut(level=0, prefix=(Fraction(1, 2),), side=-1)"
    assert repr(cc(Group.lex(Z, Q), "edge(1)+3")) == "Cut(level=1, prefix=(3,), side=1)"
    assert repr(cc(QR2, "cut(1+r2)+")) == "Cut(level=0, prefix=(Sqrt2(1, 1),), side=1)"


# -- shifts ---------------------------------------------------------------------------


def test_shift_examples():
    assert shift_by(Q, el(2), cc(Q, "cut(3)-")) == cc(Q, "cut(5)-")
    rng = random.Random(9)
    d = CutDom(Q)
    pool = d.sample(rng, 50)
    for _ in range(200):
        lam = rng.choice(pool)
        gamma = el(F(rng.randrange(-9, 10), rng.choice((1, 2, 3))))
        assert shift_by(Q, gamma, lam) == add(Q, edge_above(Q, Q, gamma), lam)
        assert shift_by(Q, gamma, lam) == radd(Q, edge_below(Q, Q, gamma), lam)


# -- projections (quotient compatibility) --------------------------------------------------


def test_projection_examples():
    assert project_cut(QQ, OMEGA, 1) == zero_cut(Q)
    assert project_cut(QQ, OMEGA, 0) == OMEGA
    # an infinite cut is its own image at every level
    for k in (0, 1, 2):
        assert project_cut(QQ, NEG_INF, k) is NEG_INF and project_cut(QQ, POS_INF, k) is POS_INF
    with pytest.raises(ValueError):
        project_cut(QQ, zero_cut(QQ), 1)


def test_projection_compatibilities():
    g = Group.lex(Q, Q, Q)
    rng = random.Random(10)
    d = CutDom(g)
    pool = [lam for lam in d.sample(rng, 200) if lam.kind == "n" and lam.level >= 1]
    k = 1
    q = g.quotient(k)
    for _ in range(150):
        lam, gam = rng.choice(pool), rng.choice(pool)
        pl, pg = project_cut(g, lam, k), project_cut(g, gam, k)
        assert (compare(g, lam, gam) <= 0) == (compare(q, pl, pg) <= 0)
        assert project_cut(g, add(g, lam, gam), k) == add(q, pl, pg)
        assert project_cut(g, radd(g, lam, gam), k) == radd(q, pl, pg)
        assert project_cut(g, rsub(g, lam, gam), k) == rsub(q, pl, pg)
        assert project_cut(g, lsub(g, lam, gam), k) == lsub(q, pl, pg)
        gamma = (F(rng.randrange(-2, 3)), F(rng.randrange(-2, 3)), F(1))
        image = gamma[:g.num_atoms - k]
        assert project_cut(g, shift_by(g, gamma, lam), k) == shift_by(q, image, pl)
        assert member_below(g, gamma, lam) == member_below(q, image, pl)


# -- signatures -------------------------------------------------------------------


def test_signature_values():
    dq = CutDom(Q)
    assert sign_of(dq, cc(Q, "cut(2)+")) == 1
    assert sign_of(dq, cc(Q, "cut(2)-")) == -1
    root = make_node(Q, 0, (Sqrt2(0, 1),), FILLED)
    assert sign_of(dq, root) == 0
    assert sign_of(CutDom(Z), cc(Z, "cut(0)+")) == "inf"
    rng = random.Random(11)
    d = CutDom(Z2)
    for lam in d.sample(rng, 60):
        if lam.kind == "n":
            s = sign_of(d, lam)
            ns = sign_of(d, neg(Z2, lam))
            assert ns == (-s if isinstance(s, int) else s)


# -- filling by supergroup elements ---------------------------------------------------


def test_induced_cut_and_fills():
    root = induced_cut(Q, QR2, (Sqrt2(0, 1),))
    assert root == make_node(Q, 0, (Sqrt2(0, 1),), FILLED)
    assert fills(Q, QR2, (Sqrt2(0, 1),), root)
    assert not fills(Q, QR2, (Sqrt2(0, 2),), root)
    half = induced_cut(Z2, Q, (F(1, 2),))
    assert half == make_node(Z2, 0, (F(1, 2),), FILLED)
    with pytest.raises(ValueError, match="base group"):
        induced_cut(Z2, Q, (F(1, 3),))
    with pytest.raises(ValueError, match="not dense"):
        induced_cut(Z, Q, (F(1, 2),))


def _witness_pool(g, gp, rng, count):
    if gp is Q:  # over Zloc(2)
        return [(F(n, 2 ** k),) for n in range(-9, 10, 2) for k in (1, 2)][:count]
    return [(Sqrt2(F(a), F(b)),) for a in range(-3, 4) for b in (1, -1, 2)][:count]


@pytest.mark.parametrize("g,gp", [(Z2, Q), (Q, QR2)])
def test_fill_order_bridges(g, gp):
    rng = random.Random(12)
    d = CutDom(g, "Qr2" if gp is QR2 else "Q")
    cuts = [c for c in d.sample(rng, 60)]
    xs = _witness_pool(g, gp, rng, 24)

    def x_le(x, lam):
        return fill_ge(g, gp, x, lam)

    def x_lt(x, lam):
        return not fill_le(g, gp, x, lam)

    for lam, gam in itertools.product(cuts[:20], repeat=2):
        for x in xs[:8]:
            for y in xs[:8]:
                # x <= lam <= gam implies x <= gam
                if x_le(x, lam) and compare(g, lam, gam) <= 0:
                    assert x_le(x, gam)
                # x < lam <= y implies x < y
                if x_lt(x, lam) and fill_le(g, gp, y, lam):
                    assert gp.cmp(x, y) < 0
                # x <= y <= lam implies x <= lam
                if gp.cmp(x, y) <= 0 and x_le(y, lam):
                    assert x_le(x, lam)
                # x >= lam iff -x <= -lam
                assert fill_le(g, gp, x, lam) == x_le(gp.neg(x), neg(g, lam))
        # item 1: lam <= x <= gam implies lam <= gam
        for x in xs[:8]:
            if fill_le(g, gp, x, lam) and x_le(x, gam):
                assert compare(g, lam, gam) <= 0
        # item 6: x <= member < lam implies x < lam
        for x in xs[:8]:
            for mem in ((F(-1),), (F(0),), (F(1),)):
                if gp.cmp(x, mem) <= 0 and member_below(g, mem, lam):
                    assert x_lt(x, lam)


@pytest.mark.parametrize("g,gp", [(Z2, Q), (Q, QR2)])
def test_fill_sum_bracketing(g, gp):
    # witnesses bracket the two sums, and translation is monotone
    rng = random.Random(13)
    xs = _witness_pool(g, gp, rng, 16)
    for x, y in itertools.product(xs[:10], repeat=2):
        lam = induced_cut(g, gp, x) if not g.contains(x) else edge_above(g, gp, x)
        gam = induced_cut(g, gp, y) if not g.contains(y) else edge_above(g, gp, y)
        s = gp.add(x, y)
        if fills(g, gp, x, lam) and fills(g, gp, y, gam):
            assert fill_le(g, gp, s, add(g, lam, gam))    # left sum <= x + y
            assert fill_ge(g, gp, s, radd(g, lam, gam))   # x + y <= right sum
            d = gp.add(x, gp.neg(y))
            assert fill_le(g, gp, d, lsub(g, lam, gam))
            assert fill_ge(g, gp, d, rsub(g, lam, gam))
    lam = induced_cut(g, gp, xs[0])
    for lam_small in ((F(-2),), (F(1),)):
        assert member_below(g, lam_small, shift_by(g, (F(3),), lam)) == \
            member_below(g, g.add(lam_small, g.neg((F(3),))), lam)


@pytest.mark.parametrize("g,gp", [(Z2, Q), (Q, QR2)])
def test_edges_of_witness_sets(g, gp):
    # the witness determines the cut from either side, and the width is
    # the lower edge of the strict distance bounds
    rng = random.Random(14)
    xs = [x for x in _witness_pool(g, gp, rng, 20) if not g.contains(x)]
    probes = [(F(n, 3),) for n in range(-12, 13)]
    for x in xs[:12]:
        lam = induced_cut(g, gp, x)
        assert edge_below(g, gp, x) == lam
        assert edge_above(g, gp, x) == lam
        for alpha in probes:
            # alpha < x  iff alpha is below the cut
            assert (gp.cmp(alpha, x) < 0) == member_below(g, alpha, lam)
        # unique witness: distances y' - y over fillers are all zero, so
        # alpha bounds them strictly iff alpha is above the width
        wid = level_edge(g, lam.level)
        for alpha in probes:
            strict_bound = gp.cmp((F(0),), alpha) < 0
            assert strict_bound == member_above(g, alpha, wid)


@pytest.mark.parametrize("g,gp", [(Z2, Q), (Q, QR2)])
def test_sum_of_filled_cuts_is_edge_of_witness_sums(g, gp):
    rng = random.Random(15)
    xs = [x for x in _witness_pool(g, gp, rng, 20) if not g.contains(x)]
    for x0, y0 in itertools.product(xs[:10], repeat=2):
        lam, gam = induced_cut(g, gp, x0), induced_cut(g, gp, y0)
        s = gp.add(x0, y0)
        assert edge_below(g, gp, s) == add(g, lam, gam)
        assert edge_above(g, gp, s) == radd(g, lam, gam)


TWISTED = Group.crossed(Z, Z, FactorSet({(1, 1): -2}))


@pytest.mark.parametrize("g,gp,message", [
    (TWISTED, TWISTED, "fill witnesses over crossed products are not supported"),
    (Q, QQ, "supergroup must have the same lexicographic shape"),
    (Group.trivial(), Group.trivial(), "supergroup must have the same lexicographic shape"),
    (Group.lex(Z, Q), QQ, "only the least significant component may be extended"),
    (Q, Z, "Z does not extend Q"),
])
def test_fill_pairs_are_checked(g, gp, message):
    # a supergroup pair must share the group's shape and extend only its
    # last component
    with pytest.raises(ValueError) as exc:
        edge_below(g, gp, gp.zero())
    assert str(exc.value) == message


# -- text round trips ---------------------------------------------------------------


@pytest.mark.parametrize("g,text", [
    (Q, "cut(3/4)-"), (Q, "cut(-2)+"), (Q, "fill(r2)"), (Q, "fill(1/2+3r2)"),
    (Z2, "fill(1/2)"), (Z, "cut(4)+"), (QQ, "edge(1)+0"), (QQ, "edge(1)-0"),
    (QQ, "edge(1)fill(r2)"), (QQ, "cut((0,1/2))+"), (QQ, "-inf"), (QQ, "+inf"),
    (Group.lex(Group.Q(), Group.Q(), Group.Q()), "edge(1)+(1/2,-3)"),
    (Group.lex(Group.Q(), Group.Q(), Group.Q()), "edge(2)-5"),
])
def test_round_trip(g, text):
    assert format_cut(g, parse_cut(g, text)) == text


def test_parse_canonicalizes():
    assert format_cut(Z, parse_cut(Z, "cut(5)-")) == "cut(4)+"
    assert format_cut(Q, parse_cut(Q, "fill(1/2)")) == "cut(1/2)-"


def test_cuts_over_crossed_products():
    # with the zero factor set, cut arithmetic over the crossed product
    # coincides with the plain lexicographic one: the crossed twin sums
    # through its quotient groups, the plain group in coordinates
    for g in (QQ, Group.lex(Q, Z), Group.lex(Z, Q), Group.lex(Group.Zloc(3), Z)):
        tw = Group.crossed(Group(g.atoms[:1]), Group(g.atoms[1:]), FactorSet.zero())
        pool = CutDom(g).sample(random.Random(42), 60)
        for a in pool:
            la = _transplant(tw, a)
            assert _transplant(tw, neg(g, a)) == neg(tw, la), (g, a)
            for b in pool:
                lb = _transplant(tw, b)
                for op in (add, radd, rsub, lsub):
                    assert _transplant(tw, op(g, a, b)) == op(tw, la, lb), (g, op.__name__, a, b)
                assert compare(g, a, b) == compare(tw, la, lb), (g, a, b)


def _transplant(g, cut):
    if cut.kind != "n":
        return cut
    return make_node(g, cut.level, cut.prefix, cut.side)


# -- engine results are canonical without re-checking ----------------------------------


def _canonical(g, r):
    """The node invariants, written out independently of the engine."""
    m = g.num_atoms
    if not 0 <= r.level < m or len(r.prefix) != m - r.level:
        return False
    if not all(a.contains(v) for a, v in zip(g.atoms, r.prefix[:-1])):
        return False
    atom = g.atoms[m - r.level - 1]
    if atom.discrete:
        return r.side == PLUS and atom.contains(r.anchor)
    return (r.side == FILLED) != atom.contains(r.anchor)


def _engine_pools():
    from domkit.groups import FactorSet
    twisted = Group.crossed(Z, Z, FactorSet({(1, 1): -2}))
    carriers = [CutDom(Q), CutDom(Z), CutDom(Z2), CutDom(QQ),
                CutDom(Group.lex(Z, Q)), CutDom(Q, "Qr2"), CutDom(twisted)]
    for i, d in enumerate(carriers):
        yield d, d.sample(random.Random(100 + i), 40)


def test_engine_results_are_canonical():
    # add, radd and neg skip make_node's input checks; every result must
    # still be the node make_node builds from its coordinates, and pass them
    for d, pool in _engine_pools():
        g = d.group
        for a, b in itertools.product(pool, repeat=2):
            for r in (add(g, a, b), radd(g, a, b), neg(g, a), rsub(g, a, b), lsub(g, a, b)):
                if r.kind != "n":
                    continue
                assert _canonical(g, r), (d.name, a, b, r)
                assert r == make_node(g, r.level, r.prefix, r.side), (d.name, a, b, r)


def test_cut_carrier_build_is_linear_in_its_atoms(monkeypatch):
    # zero coordinates lie in every component, so building a carrier's
    # constants (zero, delta and one width cut per level) needs no
    # membership check per coordinate and level
    m = 2000
    calls = []
    contains = Atom.contains

    def counted(atom, x):
        calls.append(x)
        return contains(atom, x)

    monkeypatch.setattr(Atom, "contains", counted)
    d = CutDom(Group.lex(*[Q] * m))
    assert len(d.width_set()) == m + 1
    assert len(calls) <= 2 * m


def test_cut_carrier_builds_its_level_edges_on_first_use():
    # the level-k edge holds m - k coordinates, so building every edge up
    # front is quadratic in the atoms; naming a carrier builds none
    text = "cuts(lex(" + ",".join(["Q"] * 4000) + "))"
    tracemalloc.start()
    try:
        parse_carrier(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
    # the edges a carrier builds on first use are the level edges
    for d, pool in _engine_pools():
        g = d.group
        edges = [level_edge(g, k) for k in range(g.num_atoms)]
        for x in pool:
            if x.kind == "n":
                want = edges[x.level] if x.side == FILLED else zero_cut(g)
                assert d.witness_width(x) == want
        assert d.width_set() == edges + [POS_INF]


def test_cut_carrier_constants():
    for d, pool in _engine_pools():
        g = d.group
        assert d.zero() == zero_cut(g)
        assert d.delta() == neg(g, zero_cut(g))
        for x in pool:
            if x.kind == "n":
                assert d.width_of(x) == level_edge(g, x.level)
        assert d.staples()[4:4 + g.num_atoms] == [level_edge(g, k) for k in range(g.num_atoms)]


# -- iterated-difference inequality and its strictness -----------------------------------


def _iter_diff(g, x, y, n):
    for _ in range(n):
        x = rsub(g, x, y)
    return x


def _scale(g, n, y):
    if n == 0:
        return zero_cut(g)
    acc = y
    for _ in range(n - 1):
        acc = add(g, acc, y)
    return acc


def test_iterated_difference_inequality():
    rng = random.Random(16)
    for d in (CutDom(Q), CutDom(Z2)):
        g = d.group
        pool = [c for c in d.sample(rng, 40) if c.kind == "n"]
        for _ in range(60):
            x, y = rng.choice(pool), rng.choice(pool)
            for m in range(1, 4):
                for k in range(m):
                    for dd in range(0, 3):
                        lhs = add(g, _iter_diff(g, x, y, m + dd),
                                  rsub(g, _scale(g, m, y), _scale(g, k, y)))
                        rhs = _iter_diff(g, x, y, dd + k)
                        assert compare(g, lhs, rhs) <= 0


def test_iterated_difference_strictness_witnesses():
    # over the rationals: x = 0+, y = 0-, k = 0, m = d = 1
    x, y = cc(Q, "cut(0)+"), cc(Q, "cut(0)-")
    lhs = add(Q, _iter_diff(Q, x, y, 2), rsub(Q, _scale(Q, 1, y), _scale(Q, 0, y)))
    rhs = _iter_diff(Q, x, y, 1)
    assert lhs == cc(Q, "cut(0)-") and rhs == cc(Q, "cut(0)+")
    # over the localization at 2: x = y = fill(1/2), d = 0, k = 1, m = 2
    h = make_node(Z2, 0, (F(1, 2),), FILLED)
    lhs = add(Z2, _iter_diff(Z2, h, h, 2), rsub(Z2, _scale(Z2, 2, h), _scale(Z2, 1, h)))
    rhs = _iter_diff(Z2, h, h, 1)
    assert lhs == cc(Z2, "cut(0)-") and rhs == cc(Z2, "cut(0)+")
    # same witness with d = m = 1, k = 0
    lhs = add(Z2, _iter_diff(Z2, h, h, 2), rsub(Z2, _scale(Z2, 1, h), _scale(Z2, 0, h)))
    rhs = _iter_diff(Z2, h, h, 1)
    assert compare(Z2, lhs, rhs) < 0
