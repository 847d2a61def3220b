import itertools
import random
from fractions import Fraction as F

import pytest

from domkit import cuts as ct
from domkit.cuts import FILLED, MINUS, PLUS, POS_INF, make_node, parse_cut
from domkit.doms import (
    CutDom, GroupDom, HomCandidate, TildeDom, check_axioms, classify_type,
    equiv_class, f_minus, f_plus, hom_kernel, kernel_is_convex, lambda_map,
    multiplicity, sign_of, special_set, verify_hom,
)
from domkit.groups import Group
from domkit.scalars import Sqrt2
from domkit.tables import FiniteDom, trivial_dom

Q = Group.Q()
Z = Group.Z()
Z2 = Group.Zloc(2)
QQ = Group.lex(Group.Q(), Group.Q())

ALL_CARRIERS = [
    CutDom(Q), CutDom(Z), CutDom(Z2), CutDom(QQ),
    TildeDom(Q), TildeDom(Z), GroupDom(Q), GroupDom(Z),
    FiniteDom(trivial_dom(4)), FiniteDom(trivial_dom(5)),
]


def cc(g, text):
    return parse_cut(g, text)


# -- derived operations ----------------------------------------------------------


def test_derived_basics():
    for d in ALL_CARRIERS:
        zero = d.zero()
        assert d.eq(d.width_of(zero), zero)
        assert d.le(zero, d.radd(zero, zero))
    gd = GroupDom(Q)
    rng = random.Random(0)
    for x, y in zip(gd.sample(rng, 30), gd.sample(rng, 30)):
        assert gd.eq(gd.radd(x, y), gd.add(x, y))
    assert gd.eq(gd.delta(), gd.zero())
    t4 = FiniteDom(trivial_dom(4))
    assert t4.abs_of(t4.delta()) == t4.zero()


def test_defining_equation_identities():
    rng = random.Random(1)
    for d in ALL_CARRIERS:
        zero, delta = d.zero(), d.delta()
        xs = d.universe(rng, 40)
        for x in xs:
            assert d.eq(d.radd(x, delta), x)
            assert d.eq(d.rsub(x, zero), x)
            assert d.eq(d.rsub(delta, x), d.neg(x))
            assert d.eq(d.neg(d.width_of(x)), d.lsub(x, x))
            assert d.eq(d.width_of(d.neg(x)), d.width_of(x))
        for x, y in zip(xs, xs[1:]):
            assert d.eq(d.neg(d.rsub(x, y)), d.lsub(y, x))
            if d.le(x, delta):
                assert d.le(d.radd(y, x), y)
            if d.le(zero, x):
                assert d.le(d.rsub(y, x), y)
        for x, y, z in zip(xs, xs[1:], xs[2:]):
            assert d.eq(d.radd(x, d.radd(y, z)), d.radd(d.radd(x, y), z))
            assert d.eq(d.rsub(x, d.add(y, z)), d.rsub(d.rsub(x, y), z))
            if d.lt(d.add(x, y), d.add(x, z)) or d.lt(d.radd(x, y), d.radd(x, z)):
                assert d.lt(y, z)
            if d.le(y, x) and d.le(x, z):
                assert d.le(d.width_of(x), d.rsub(z, y))


def test_iterate():
    d = CutDom(Q)
    x, y = cc(Q, "cut(2)+"), cc(Q, "cut(3)-")
    assert d.sub_n(x, y, 0) == x
    assert d.add_n(x, y, 0) == x
    for n, m in ((1, 2), (2, 2), (0, 3)):
        assert d.sub_n(d.sub_n(x, y, n), y, m) == d.sub_n(x, y, n + m)
    # scaling of a filled cut does not commute with the minus
    dz = CutDom(Z2)
    half = make_node(Z2, 0, (F(1, 2),), FILLED)
    assert dz.scale(2, dz.neg(half)) != dz.neg(dz.scale(2, half))
    # on group carriers scaling is repeated addition
    gd = GroupDom(Q)
    v = (F(2, 3),)
    assert gd.scale(3, v) == (F(2),)
    assert gd.scale(-2, v) == (F(-4, 3),)
    assert gd.scale(0, v) == gd.zero()


# -- classification ----------------------------------------------------------------


def test_classification():
    assert classify_type(GroupDom(Z)) == "first"
    assert classify_type(GroupDom(Q)) == "first"
    assert classify_type(TildeDom(Z)) == "first"
    assert classify_type(CutDom(Z)) == "second"
    assert classify_type(CutDom(Group.lex(Q, Z))) == "second"
    assert classify_type(CutDom(Q)) == "third"
    assert classify_type(CutDom(QQ)) == "third"
    assert classify_type(CutDom(Group.trivial())) == "third"


# -- class structure (largest/smallest members) ---------------------------------------


def test_class_maps():
    for d in (GroupDom(Q), TildeDom(Q), TildeDom(Z)):
        rng = random.Random(2)
        for x in d.universe(rng, 30):
            assert d.eq(f_plus(d, x), x)
            assert d.eq(f_minus(d, x), x)
    d = CutDom(Q, "Qr2")
    gp = cc(Q, "cut(2)+")
    gm = cc(Q, "cut(2)-")
    assert f_plus(d, gm) == gp and f_minus(d, gp) == gm
    assert multiplicity(d, gp) == 2
    root = make_node(Q, 0, (Sqrt2(0, 1),), FILLED)
    assert multiplicity(d, root) == 1
    assert equiv_class(d, gp) == [gm, gp]
    om = cc(QQ, "edge(1)+0")
    d2 = CutDom(QQ)
    assert equiv_class(d2, om) == [om]   # positive width: singleton class


def test_class_map_laws():
    rng = random.Random(3)
    for d in (CutDom(Q), CutDom(Z2), CutDom(QQ), CutDom(Z)):
        xs = d.sample(rng, 50)
        delta = d.delta()
        for x in xs:
            fp, fm = f_plus(d, x), f_minus(d, x)
            assert d.le(x, fp) and d.le(fp, d.rsub(x, delta))
            assert d.le(fm, fp)
            assert d.eq(f_plus(d, fp), fp)
            assert d.eq(f_plus(d, fm), fp)
            assert d.eq(d.width_of(fp), d.width_of(x))
            if d.lt(d.zero(), d.width_of(x)):
                assert d.eq(fp, x) and d.eq(fm, x)
            assert multiplicity(d, x) in (1, 2)
        for x, y in zip(xs, xs[1:]):
            if d.le(x, y):
                assert d.le(f_plus(d, x), f_plus(d, y))
            # classes are congruences for the sum and the minus
            assert d.eq(f_plus(d, d.add(f_plus(d, x), y)), f_plus(d, d.add(x, y)))
            assert d.eq(f_plus(d, d.neg(f_plus(d, x))), f_plus(d, d.neg(x)))


# -- signature ---------------------------------------------------------------------


def _level0_reps(d, signs):
    g = d.group
    out = {}
    out[1] = [make_node(g, 0, (F(v),), PLUS) for v in signs]
    out[-1] = [make_node(g, 0, (F(v),), MINUS) for v in signs]
    return out


def test_signature_rule_rows_exhaustive():
    # realizable level-0 cuts over a dense group and the localization
    cases = []
    dq = CutDom(Q, "Qr2")
    repsq = _level0_reps(dq, (0, 1, -2))
    repsq[0] = [make_node(Q, 0, (Sqrt2(a, 1),), FILLED) for a in (0, 1, -1)] + \
               [make_node(Q, 0, (Sqrt2(0, -1),), FILLED)]
    cases.append((dq, repsq))
    dz2 = CutDom(Z2)
    repsz = _level0_reps(dz2, (0, 1, -1))
    repsz[0] = [make_node(Z2, 0, (F(a, 2),), FILLED) for a in (1, -1, 3)] + \
               [make_node(Z2, 0, (F(1, 4),), FILLED)]
    cases.append((dz2, repsz))
    for d, reps in cases:
        for s, cuts in reps.items():
            for lam in cuts:
                assert sign_of(d, lam) == s
                assert ct.signature(d.group, lam) == s
                assert sign_of(d, d.neg(lam)) == -s
        for sa, sb in itertools.product((-1, 0, 1), repeat=2):
            for x in reps[sa]:
                for y in reps[sb]:
                    c = sign_of(d, d.add(x, y))
                    if sa == sb == 1:
                        assert c == 1
                    if sa == sb == -1:
                        assert c == -1
                    if sa <= 0:
                        assert c <= 0
                    if sa == 1 and sb >= 0:
                        assert c >= 0
                    if sa == 1 and sb == 0:
                        assert c == 0
                    if sa == -1 and sb == 0:
                        assert c == 0
                    if sa == 0 and sb == 0:
                        assert c <= 0
                    if sa == 1 and sb == -1:
                        assert c == -1


def test_signature_row7_both_outcomes():
    d = CutDom(Z2)
    half = make_node(Z2, 0, (F(1, 2),), FILLED)
    quarter = make_node(Z2, 0, (F(1, 4),), FILLED)
    assert sign_of(d, half) == 0 and sign_of(d, quarter) == 0
    assert sign_of(d, d.add(half, half)) == -1
    assert sign_of(d, d.add(quarter, quarter)) == 0
    dq = CutDom(Q, "Qr2")
    r = make_node(Q, 0, (Sqrt2(0, 1),), FILLED)
    rneg = make_node(Q, 0, (Sqrt2(0, -1),), FILLED)
    assert sign_of(dq, dq.add(r, rneg)) == -1
    assert sign_of(dq, dq.add(r, r)) == 0


def test_signature_ambient_symbols():
    assert sign_of(CutDom(Z), cc(Z, "cut(0)+")) == "inf"
    assert sign_of(GroupDom(Q), (F(2),)) == "spade"
    assert sign_of(TildeDom(Q), ("g", (F(1),))) == "spade"
    d = CutDom(Group.lex(Z, Q))
    om = ct.level_edge(d.group, 1)  # wide slice sits over the discrete atom
    assert sign_of(d, om) == "inf"
    d2 = CutDom(QQ)
    assert sign_of(d2, ct.level_edge(QQ, 1)) == 1
    # adding something narrower never changes the signature
    lam = cc(QQ, "cut((1,1/2))-")
    assert sign_of(d2, d2.add(ct.level_edge(QQ, 1), lam)) == \
        sign_of(d2, ct.level_edge(QQ, 1))


# -- associated group --------------------------------------------------------------


def test_associated_group():
    assert FiniteDom(trivial_dom(5)).associated_group().group == Group.trivial()
    assert GroupDom(Q).associated_group().group == Q
    ag = TildeDom(Z).associated_group()
    assert ag.group == Z and not ag.shifted_minus
    ag = CutDom(Z).associated_group()
    assert ag.group == Z and ag.shifted_minus
    ag = CutDom(Z2).associated_group()
    assert ag.group == Q and "dense" in ag.note
    ag = CutDom(Q, "Qr2").associated_group()
    assert ag.group == Group.Qr2()
    # the class map collapses the two members of a class to one value
    d = CutDom(Q)
    assert d.associated_group().class_of(cc(Q, "cut(2)+")) == (F(2),)
    assert d.associated_group().class_of(cc(Q, "cut(2)-")) == (F(2),)


def test_shifted_minus_of_discrete_cut_classes():
    # classes of the cut carrier over the integers: gamma^+ <-> gamma,
    # and the minus descends to gamma -> -gamma - 1
    d = CutDom(Z)
    for v in range(-3, 4):
        lam = make_node(Z, 0, (F(v),), PLUS)
        assert d.neg(lam) == make_node(Z, 0, (F(-v - 1),), PLUS)


# -- distinguished subsets -----------------------------------------------------------


def test_width_sets():
    d = CutDom(QQ)
    ws = d.width_set()
    assert ws == [ct.zero_cut(QQ), ct.level_edge(QQ, 1), POS_INF]
    t5 = FiniteDom(trivial_dom(5))
    assert t5.width_set() == [2, 3, 4]
    assert GroupDom(Q).width_set() == [(F(0),)]
    # every finite carrier is dominance-driven: width equals absolute value
    for n in range(1, 7):
        dn = FiniteDom(trivial_dom(n))
        for x in dn.iter_elements():
            assert dn.width_of(x) == dn.abs_of(x)


def test_m0_and_slices():
    d = CutDom(QQ)
    m0 = special_set(d, "M0")
    assert m0.contains(cc(QQ, "cut((1,2))+"))
    assert not m0.contains(ct.level_edge(QQ, 1))
    om = ct.level_edge(QQ, 1)
    mge = special_set(d, "Mge", om)
    assert mge.contains(om) and mge.contains(POS_INF)
    assert not mge.contains(cc(QQ, "cut((0,0))+"))
    assert mge.zero() == om
    rep = check_axioms(mge, samples=120, seed=4)
    assert all(ok for ok, _ in rep.values()), rep
    with pytest.raises(ValueError):
        special_set(d, "Mge", cc(QQ, "cut((1,0))+"))


def test_d_and_h_sets():
    d = CutDom(Q, "Qr2")
    dd = special_set(d, "D")
    assert dd.contains(cc(Q, "cut(1)+")) and dd.contains(cc(Q, "cut(1)-"))
    assert not dd.contains(make_node(Q, 0, (Sqrt2(0, 1),), FILLED))
    rng = random.Random(5)
    xs = [x for x in d.sample(rng, 80) if dd.contains(x)]
    ys = d.sample(rng, 40)
    for x in xs[:15]:
        for y in ys[:15]:
            in_d = dd.contains(d.add(x, y))
            assert in_d == dd.contains(y)
            assert dd.contains(d.radd(x, y)) == dd.contains(y)
    with pytest.raises(ValueError):
        special_set(CutDom(Z), "D")
    # E per type
    assert special_set(GroupDom(Q), "E").contains(GroupDom(Q).zero())
    e2 = special_set(CutDom(Z), "E")
    assert e2.contains(cc(Z, "cut(3)+"))
    e3 = special_set(d, "E")
    assert e3.contains(cc(Q, "cut(1)+")) and not e3.contains(cc(Q, "cut(1)-"))


def test_abs_bounded_set_closed():
    d = CutDom(QQ)
    a = ct.level_edge(QQ, 1)
    rng = random.Random(6)
    pool = [x for x in d.sample(rng, 120) if d.le(d.abs_of(x), a)]
    for x in pool[:20]:
        assert d.le(d.abs_of(d.neg(x)), a)
        for y in pool[:20]:
            assert d.le(d.abs_of(d.add(x, y)), a)


# -- properness -------------------------------------------------------------------------


def test_properness():
    verdicts = {n: FiniteDom(trivial_dom(n)).is_proper() for n in range(1, 7)}
    assert verdicts == {1: True, 2: True, 3: True, 4: True, 5: False, 6: False}
    assert TildeDom(Q).is_proper() and not TildeDom(Q).is_strongly_proper()
    assert CutDom(Z).is_proper() and CutDom(Z).is_strongly_proper()
    assert CutDom(Q).is_proper() and GroupDom(Q).is_proper()


def test_strong_properness_finite():
    # proper, and below each positive width lies a positive width-zero element
    for n in range(1, 7):
        d = FiniteDom(trivial_dom(n))
        elems, zero = d.iter_elements(), d.zero()
        m0 = [z for z in elems if d.width_of(z) == zero]
        proper = all(any(x <= z <= y for z in m0) for x in elems for y in elems if x < y)
        strong = proper and all(any(zero < z < d.width_of(y) for z in m0)
                                for y in elems if zero < d.width_of(y))
        assert d.is_strongly_proper() == strong, n


# -- the width-positive embedding ---------------------------------------------------------


def test_lambda_map_recovers_cuts():
    d = CutDom(QQ)
    rng = random.Random(7)
    wide = [x for x in d.sample(rng, 150)
            if isinstance(x, ct.Cut) and x.kind == "n" and x.level >= 1]
    for a in wide:
        assert lambda_map(d, QQ, a) == a
        assert lambda_map(d, QQ, d.neg(a)) == ct.neg(QQ, lambda_map(d, QQ, a))
    for a, b in zip(wide, wide[1:]):
        la, lb = lambda_map(d, QQ, a), lambda_map(d, QQ, b)
        assert (d.cmp(a, b) <= 0) == (ct.compare(QQ, la, lb) <= 0)
        if d.cmp(a, b) != 0:
            assert la != lb
        assert lambda_map(d, QQ, d.add(a, b)) == ct.add(QQ, la, lb)
    assert lambda_map(d, QQ, POS_INF) == POS_INF


def test_lambda_map_straddle_error():
    # over a mixed discrete/dense group the wide cuts fall into gaps of
    # a denser target group: the map must refuse, naming a witness
    zq = Group.lex(Z, Q)
    d = CutDom(zq)
    a = ct.level_edge(zq, 1)
    with pytest.raises(ValueError, match="straddles"):
        lambda_map(d, QQ, a)
    assert lambda_map(d, zq, a) == a  # the group itself always works


# -- homomorphism checking ------------------------------------------------------------------


def test_hom_successor_cuts_not_a_hom():
    # index-to-successor-cut is an ordered-monoid isomorphism onto the
    # width-zero cuts of the integers, but does not preserve the minus
    src = GroupDom(Z)
    tgt = CutDom(Z)
    h = HomCandidate(src, tgt, lambda x: make_node(Z, 0, x, PLUS), kind="dom",
                     universe=[(F(v),) for v in range(-5, 6)])
    rep = verify_hom(h)
    assert rep["order"][0] and rep["plus"][0] and rep["zero"][0]
    assert not rep["minus"][0]


def test_hom_inclusion_passes():
    d = CutDom(Q)
    m0 = special_set(d, "M0")
    rng = random.Random(8)
    h = HomCandidate(m0, d, lambda x: x, kind="dom", universe=m0.sample(rng, 40))
    rep = verify_hom(h)
    assert all(ok for ok, _ in rep.values() if ok is not None)


def test_kernel_convexity():
    t5 = FiniteDom(trivial_dom(5))
    t3 = FiniteDom(trivial_dom(3))
    mapping = {0: 0, 1: 1, 2: 1, 3: 1, 4: 2}
    h = HomCandidate(t5, t3, lambda x: mapping[x], kind="dom",
                     universe=t5.iter_elements())
    rep = verify_hom(h)
    assert rep["order"][0] and rep["plus"][0] and rep["minus"][0] and rep["zero"][0]
    ker = hom_kernel(h)
    assert ker == [1, 2, 3]
    assert kernel_is_convex(h, ker, t5.iter_elements())


# -- duality ----------------------------------------------------------------------------------


def test_duals_satisfy_axioms():
    from domkit.constructions import dual
    for d in (CutDom(Q), CutDom(Z), TildeDom(Q), FiniteDom(trivial_dom(4))):
        dd = dual(d)
        rep = check_axioms(dd, samples=120, seed=9)
        assert all(ok for ok, _ in rep.values()), (d.name, rep)
        assert dual(dd) is d
        assert classify_type(dd) == classify_type(d)
    dq = dual(CutDom(Q))
    assert dq.zero() == cc(Q, "cut(0)-")   # the roles of the two zero cuts swap


# -- first/second type laws ---------------------------------------------------------------------


def test_first_type_narrow_inverses():
    d = TildeDom(Q)
    rng = random.Random(10)
    for x in d.universe(rng, 40):
        if d.eq(d.width_of(x), d.zero()):
            assert d.eq(d.add(x, d.neg(x)), d.zero())
            assert d.eq(d.rsub(x, d.delta()), x)
            assert d.eq(d.add(x, d.delta()), x)


def test_second_type_narrow_inverses():
    d = CutDom(Z)
    rng = random.Random(11)
    delta = d.delta()
    for x in d.universe(rng, 60):
        if x.kind != "n":
            continue
        if d.eq(d.width_of(x), d.zero()):
            assert d.lt(d.add(x, delta), x) and d.lt(x, d.rsub(x, delta))
            assert d.eq(d.add(x, d.rsub(d.neg(x), delta)), d.zero())
        assert d.eq(d.add(d.rsub(x, delta), delta), x)
        assert d.eq(d.rsub(d.add(x, delta), delta), x)
    # the narrow part is discrete with minimal positive 0 +R 0
    one = d.radd(d.zero(), d.zero())
    assert d.lt(d.zero(), one)


def test_right_sum_wide_bound():
    rng = random.Random(12)
    for d in ALL_CARRIERS:
        xs = d.universe(rng, 40)
        for x, y in zip(xs, xs[1:]):
            lhs = d.radd(x, y)
            rhs = d.add(d.radd(x, d.width_of(x)), d.radd(y, d.width_of(y)))
            assert d.cmp(lhs, rhs) <= 0


# -- the anchor field of a cut carrier ------------------------------------------


def test_sample_keeps_r2_at_the_anchor():
    d = CutDom(QQ, "Qr2")
    xs = d.sample(random.Random(4), 300)
    nodes = [x for x in xs if x.kind == "n"]
    # r2 appears, but only in the anchor; every sampled cut is a member
    assert any(isinstance(x.anchor, Sqrt2) for x in nodes)
    for x in nodes:
        assert all(QQ.atoms[i].contains(v) for i, v in enumerate(x.prefix[:-1]))
        assert d.contains(x)


def test_contains_checks_the_anchor_field():
    root = parse_cut(Q, "fill(r2)")
    assert not CutDom(Q).contains(root)
    assert CutDom(Q, "Qr2").contains(root)
    assert CutDom(Q).contains(parse_cut(Q, "fill(1/3)"))
    assert not CutDom(QQ).contains(parse_cut(QQ, "edge(1)fill(r2)"))
    assert CutDom(QQ, "Qr2").contains(parse_cut(QQ, "edge(1)fill(r2)"))
    # a Q(sqrt 2) component holds r2 whatever the anchor field
    qr2 = Group.Qr2()
    assert CutDom(qr2).contains(parse_cut(qr2, "cut(r2)+"))
    # over Z the literal folds to the rational cut cut(1)+
    assert CutDom(Z).contains(parse_cut(Z, "fill(r2)"))
    for d in (CutDom(Q), CutDom(Q, "Qr2")):
        assert d.contains(ct.NEG_INF) and d.contains(POS_INF)
        assert not d.contains((F(0),))
