import random
from fractions import Fraction as F

from domkit import cuts as ct
from domkit.cuts import FILLED, POS_INF, make_node, parse_cut
from domkit.doms import CutDom, GroupDom, TildeDom
from domkit.groups import Group
from domkit.scalars import Sqrt2
from domkit.tables import FiniteDom, trivial_dom
from domkit.valuations import (
    check_valuation, coarsening_of, natural_valuation, trivial_valuation,
    two_valued_valuation, valuation_partition, w_valuation, width_valuation,
)

Q = Group.Q()
Z = Group.Z()
QQ = Group.lex(Group.Q(), Group.Q())


def ok(report, keys):
    return all(report[k][0] for k in keys)


def test_width_valuation_strong_on_finite():
    for n in range(1, 7):
        d = FiniteDom(trivial_dom(n))
        v = width_valuation(d)
        rep = check_valuation(v, universe=d.iter_elements())
        assert ok(rep, ("V1", "V2", "V3", "V4", "strong")), (n, rep)


def test_width_valuation_on_carriers():
    rng = random.Random(0)
    for d in (CutDom(Q), CutDom(Z), CutDom(QQ)):
        v = width_valuation(d)
        rep = check_valuation(v, samples=150, seed=1)
        assert ok(rep, ("V1", "V2", "V3", "strong")), (d.name, rep)
    # on a group carrier every element has width zero: one single value
    gd = GroupDom(Q)
    v = width_valuation(gd)
    for x in gd.sample(rng, 30):
        assert v.is_min(v(x))


def test_natural_valuation_classes():
    d = CutDom(Q)
    v = natural_valuation(d)
    zp, zm = parse_cut(Q, "cut(0)+"), parse_cut(Q, "cut(0)-")
    one, five = parse_cut(Q, "cut(1)+"), parse_cut(Q, "cut(-5)-")
    assert v.value_cmp(v(zp), v(zm)) == 0
    assert v.value_cmp(v(one), v(five)) == 0
    assert v.value_cmp(v(zp), v(one)) < 0
    assert v.value_cmp(v(one), v(POS_INF)) < 0   # nothing finite dominates the ends
    assert v.is_min(v(zm))
    rep = check_valuation(v, samples=120, seed=2)
    assert ok(rep, ("V1", "V2", "V3", "V4"))
    # not strong: adding opposite signs collapses the value
    rep = check_valuation(v, which=("strong",),
                          universe=[one, parse_cut(Q, "cut(-1)+"), zp])
    assert not rep["strong"][0]


def test_natural_valuation_finite():
    d = FiniteDom(trivial_dom(5))
    v = natural_valuation(d)
    rep = check_valuation(v, universe=d.iter_elements())
    assert ok(rep, ("V1", "V2", "V3", "V4"))
    parts = valuation_partition(v, d.iter_elements())
    assert [sorted(g) for _, g in parts] == [[2], [1, 3], [0, 4]]


def test_two_valued_coarsens_natural():
    d = CutDom(Q)
    v2 = two_valued_valuation(d)
    vn = natural_valuation(d)
    rep = check_valuation(v2, which=("V1", "V2", "V3", "V4"), samples=120, seed=3)
    assert ok(rep, ("V1", "V2", "V3", "V4"))
    rng = random.Random(4)
    universe = d.sample(rng, 40)
    assert coarsening_of(v2, vn, universe=universe)
    triv = trivial_valuation(d)
    assert coarsening_of(triv, vn, universe=universe)
    assert coarsening_of(triv, width_valuation(d), universe=universe)


def test_convex_iff_coarsening_of_natural_finite():
    d = FiniteDom(trivial_dom(5))
    univ = d.iter_elements()
    vn = natural_valuation(d)
    for v in (width_valuation(d), natural_valuation(d),
              trivial_valuation(d), two_valued_valuation(d)):
        convex = check_valuation(v, which=("V4",), universe=univ)["V4"][0]
        assert convex == coarsening_of(v, vn, universe=univ), v.name
        # and convexity is equivalent to each sublevel set being convex
        if convex:
            for c in [v(x) for x in univ]:
                members = [x for x in univ if v.value_cmp(v(x), c) <= 0]
                for lo in members:
                    for hi in members:
                        for mid in univ:
                            if d.le(lo, mid) and d.le(mid, hi):
                                assert mid in members


def test_strong_iff_coarsening_of_width():
    d = FiniteDom(trivial_dom(5))
    univ = d.iter_elements()
    vw = width_valuation(d)
    for v in (width_valuation(d), natural_valuation(d),
              trivial_valuation(d), two_valued_valuation(d)):
        strong = check_valuation(v, which=("strong",), universe=univ)["strong"][0]
        assert strong == coarsening_of(v, vw, universe=univ), v.name


def test_strong_or_convex_consequences():
    d = CutDom(Q)
    rng = random.Random(5)
    universe = d.sample(rng, 60)
    for v in (width_valuation(d), natural_valuation(d)):
        for x in universe[:20]:
            for y in universe[:20]:
                assert v.value_cmp(v(d.radd(x, y)), v(d.add(x, y))) == 0
                assert v.value_cmp(v(d.lsub(x, y)), v(d.rsub(x, y))) == 0
                if v.value_cmp(v(x), v(y)) < 0:
                    assert v.value_cmp(v(d.add(x, y)), v(y)) == 0


def test_sublevel_sets_are_subcarriers():
    d = CutDom(QQ)
    v = width_valuation(d)
    rng = random.Random(6)
    c = v(ct.level_edge(QQ, 1))
    members = [x for x in d.sample(rng, 80) if v.value_cmp(v(x), c) <= 0]
    for x in members[:15]:
        assert v.value_cmp(v(d.neg(x)), c) <= 0
        for y in members[:15]:
            assert v.value_cmp(v(d.add(x, y)), c) <= 0


def test_w_valuation_basics():
    d = CutDom(QQ)
    v = w_valuation(d)
    rng = random.Random(7)
    for x in d.sample(rng, 50):
        if isinstance(x, ct.Cut) and x.kind == "n":
            # the witness edge never exceeds the width
            assert d.cmp(v(x)[1], d.width_of(x)) <= 0
        # width elements always admit the narrow witness
        w = d.width_of(x) if x.kind == "n" else POS_INF
        assert v.is_min(v(w))
    rep = check_valuation(v, which=("V1", "V2", "V3"), samples=120, seed=8)
    assert ok(rep, ("V1", "V2", "V3"))


def test_w_valuation_positive_witness():
    # a wide cut anchored at an irrational point in the significant
    # coordinate cannot be reassembled from narrow elements
    d = CutDom(QQ, "Qr2")
    lam = make_node(QQ, 1, (Sqrt2(0, 1),), FILLED)
    v = w_valuation(d)
    assert not v.is_min(v(lam))
    assert v.value_cmp(v(lam), v(d.zero())) > 0
    # whereas rational wide edges do come from narrow elements
    assert v.is_min(v(ct.level_edge(QQ, 1)))
    assert v.is_min(v(make_node(QQ, 1, (F(3),), ct.PLUS)))


def test_w_valuation_group_and_finite():
    gd = GroupDom(Q)
    v = w_valuation(gd)
    rng = random.Random(9)
    for x in gd.sample(rng, 20):
        assert v.is_min(v(x))
    d = FiniteDom(trivial_dom(5))
    v = w_valuation(d)
    rep = check_valuation(v, universe=d.iter_elements(), which=("V1", "V2", "V3"))
    assert ok(rep, ("V1", "V2", "V3"))
    for x in d.iter_elements():
        assert v(x)[1] == d.zero() or v(x)[1] == d.width_of(x)


def test_w_valuation_tilde():
    # only filled cuts need a wide witness; everything else sits at the
    # bottom, just below the group zero
    d = TildeDom(Q, "Qr2")
    v = w_valuation(d)
    assert v(("c", make_node(Q, 0, (Sqrt2(0, 1),), FILLED))) == ("below", ("c", ct.zero_cut(Q)))
    assert v(("c", make_node(Q, 0, (F(1),), ct.PLUS))) == ("below", ("g", (F(0),)))
    assert v(("g", (F(1),))) == ("below", ("g", (F(0),)))
