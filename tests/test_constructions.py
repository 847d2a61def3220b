import itertools
import random
from fractions import Fraction as F

import pytest

from domkit import cuts as ct
from domkit.cuts import MINUS, PLUS, POS_INF, make_node, parse_cut
from domkit.constructions import (
    GlueDom, PointGroup, collapse, cuts_of_dom, dual, embed_finite,
    factor_through_quotient, fibered_product, infinity_extension, inseminate,
    insemination_projection, mu_product, quotient_by_subdom,
    quotient_equiv, s_k_map, shift, split_at_width, split_iso, to_table,
)
from domkit.doms import (
    CutDom, GroupDom, HomCandidate, SubDomView, TildeDom, check_axioms,
    classify_type, f_minus, f_plus, hom_kernel, special_set, verify_hom,
)
from domkit.groups import Group
from domkit.tables import FiniteDom, trivial_dom, validate

Q = Group.Q()
Z = Group.Z()
QQ = Group.lex(Group.Q(), Group.Q())


def t(n):
    return FiniteDom(trivial_dom(n))


def all_pass(report):
    return all(ok for ok, _ in report.values())


def hom_ok(report):
    return all(ok for key, (ok, _) in report.items() if key != "injective")


def cc(g, text):
    return parse_cut(g, text)


# -- infinity extension -----------------------------------------------------------


def test_infinity_extension_identities():
    for n in range(1, 6):
        ext = infinity_extension(t(n))
        assert all_pass(check_axioms(ext, universe=ext.iter_elements()))
        assert classify_type(ext) == classify_type(t(n))
        assert to_table(ext) == trivial_dom(n + 2)
    inf_q = infinity_extension(GroupDom(Q))
    assert all_pass(check_axioms(inf_q, samples=150, seed=0))
    assert classify_type(inf_q) == "first"


# -- shift -------------------------------------------------------------------------


def test_shift_toggles_types():
    second = CutDom(Z)
    first = shift(second)
    assert classify_type(first) == "first"
    assert shift(first) is second
    rng = random.Random(1)
    xs = second.sample(rng, 40)
    for x, y in zip(xs, xs[1:]):
        # shifting keeps the right difference
        assert first.eq(first.rsub(x, y), second.rsub(x, y))
    one = first.minimal_positive()
    assert one is not None and first.eq(first.rsub(one, one), first.zero())
    assert all_pass(check_axioms(first, samples=150, seed=1))


def test_shift_of_discrete_group():
    gz = GroupDom(Z)
    shifted = shift(gz)
    assert classify_type(shifted) == "second"
    assert shift(shifted) is gz
    assert shifted.neg((F(0),)) == (F(-1),)  # the minus becomes x -> -x - 1
    assert shifted.delta() == (F(-1),)
    assert all_pass(check_axioms(shifted, samples=200, seed=2))


def test_shift_narrow_slices_pair_up():
    # the narrow slice of the mixed carrier over the integers is the
    # group; its shift matches the narrow slice of the cut carrier
    tilde_narrow = special_set(TildeDom(Z), "M0")
    assert classify_type(tilde_narrow) == "first"
    sh = shift(tilde_narrow)
    assert classify_type(sh) == "second"
    cuts_narrow = special_set(CutDom(Z), "M0")
    assert classify_type(cuts_narrow) == "second"
    assert classify_type(shift(cuts_narrow)) == "first"


def test_shift_preconditions():
    # third type: identity (same object)
    d = CutDom(Q)
    assert shift(d) is d
    with pytest.raises(ValueError):
        shift(t(5))  # first type, but the minimal positive does not cancel


# -- quotients ------------------------------------------------------------------------


def test_quotient_by_trivial_subdom():
    d = t(5)
    q, hom = quotient_by_subdom(d, [d.zero()])
    assert to_table(q) == trivial_dom(5)
    assert hom_ok(verify_hom(hom))


def test_quotient_by_convex_hull():
    d = t(5)
    q, hom = quotient_by_subdom(d, [1, 2, 3])
    assert to_table(q) == trivial_dom(3)
    rep = verify_hom(hom)
    assert hom_ok(rep)
    assert hom_kernel(hom) == [1, 2, 3]
    assert classify_type(q) == "first"   # nontrivial kernel lands in the first type
    # factorization through the quotient
    phi = HomCandidate(d, t(3), lambda x: {0: 0, 1: 1, 2: 1, 3: 1, 4: 2}[x],
                       kind="dom", universe=d.iter_elements())
    bar = factor_through_quotient(hom, phi)
    assert hom_ok(verify_hom(bar))
    assert bar.universe is not None and verify_hom(bar)["injective"][0]


def test_quotient_rejects_non_subdoms():
    d = t(5)
    with pytest.raises(ValueError):
        quotient_by_subdom(d, [2, 3])       # not symmetric
    with pytest.raises(ValueError):
        quotient_by_subdom(d, [1, 3])       # not convex (2 missing)


def test_quotient_equiv():
    d = CutDom(Q)
    q, hom = quotient_equiv(d)
    assert q.rep(cc(Q, "cut(2)-")) == cc(Q, "cut(2)+")
    assert q.rep(cc(Q, "cut(2)+")) == cc(Q, "cut(2)+")
    rng = random.Random(3)
    hom.universe = d.sample(rng, 60)
    assert hom_ok(verify_hom(hom))
    assert classify_type(q) == "first"
    # the displaced zero collapses onto the zero in the third type
    assert d.eq(f_plus(d, d.delta()), d.zero())
    q4, _ = quotient_equiv(t(4))
    assert to_table(q4) == trivial_dom(3)


# -- the width-shift maps ---------------------------------------------------------------


def test_s_k_map_finite():
    d = t(5)
    for k in d.width_set():
        h = s_k_map(d, k)
        assert hom_ok(verify_hom(h))
        if k == d.zero():
            # base case: the class quotient itself
            assert hom_kernel(h) == [x for x in d.iter_elements()
                                     if d.eq(f_plus(d, x), d.zero())
                                     or d.eq(f_plus(d, x), f_plus(d, d.delta()))]
        kernel = hom_kernel(h)
        lo, hi = d.neg(k), k
        assert kernel == [x for x in d.iter_elements() if d.le(lo, x) and d.le(x, hi)]
    with pytest.raises(ValueError):
        s_k_map(d, 3 if d.width_of(3) != 3 else 1)


def test_s_k_compatible_family_finite():
    # the family generated by the smallest width reproduces each member
    d = t(7)
    widths = [w for w in d.width_set() if d.lt(d.zero(), w)]
    for k, j in itertools.combinations(widths, 2):
        hk, hj = s_k_map(d, k), s_k_map(d, j)
        for x in d.iter_elements():
            if not d.lt(d.width_of(x), k):
                continue
            # climbing through k and then lifting to j agrees with the
            # direct map: theta_j(x) = [j + theta_k(x)^+]_j
            up = d.add(j, f_plus(special_set(d, "Mge", k), d.add(x, k)))
            assert hj.target.eq(hj(x), hj.target.rep(up))


def test_s_k_on_cut_carrier():
    d = CutDom(QQ)
    om = ct.level_edge(QQ, 1)
    h = s_k_map(d, om)
    rng = random.Random(4)
    narrow = [x for x in d.sample(rng, 60) if x.kind == "n" and x.level == 0]
    for x, y in zip(narrow, narrow[1:]):
        assert h.target.eq(h(d.add(x, y)), h.target.add(h(x), h(y)))
        if d.le(x, y):
            assert h.target.cmp(h(x), h(y)) <= 0
        # the narrow part lands among the classes of the wide slice
        img = h(x)
        assert h.target.eq(img, h.target.rep(img))


# -- gluing: re-glue identities ------------------------------------------------------------


def test_union_reglue_exhaustive():
    for n in range(2, 7):
        d = t(n)
        for k in d.width_set():
            if not d.lt(d.zero(), k):
                continue
            glued = split_at_width(d, k)
            assert to_table(glued) == trivial_dom(n)
            assert classify_type(glued) == classify_type(d)
            iso = split_iso(glued)
            assert hom_ok(verify_hom(iso))
            # inclusion of the narrow closed slice preserves the zero,
            # inclusion of the wide slice does not (displaced zero)
            low_universe = [x for x in glued.iter_elements() if x[0] == "m"]
            up_universe = [x for x in glued.iter_elements() if x[0] == "n"]
            assert glued.eq(glued.zero(), ("m", d.zero()))
            assert all(glued.contains(x) for x in low_universe + up_universe)


def test_glue_axioms_finite():
    for n in (4, 5, 6):
        d = t(n)
        for k in d.width_set():
            if d.lt(d.zero(), k):
                glued = split_at_width(d, k)
                assert all_pass(check_axioms(glued, universe=glued.iter_elements()))


# -- insemination ---------------------------------------------------------------------------


def _rational_points(g):
    vals = [(F(n, d),) for n in range(-6, 7) for d in (1, 2, 3)]
    return PointGroup(
        name="points(Q)",
        zero=(F(0),),
        add=lambda a, b: (a[0] + b[0],),
        neg=lambda a: (-a[0],),
        cmp=lambda a, b: (a[0] > b[0]) - (a[0] < b[0]),
        plus_image=lambda v: make_node(g, 0, v, PLUS),
        member=lambda v: True,
        samples=vals,
    )


def test_insemination_is_the_mixed_carrier():
    d = CutDom(Q)
    ins = inseminate(d, _rational_points(Q))
    tilde = TildeDom(Q)

    def iso(x):
        tag, v = x
        return ("g", v) if tag == "m" else ("c", v)

    rng = random.Random(5)
    h = HomCandidate(ins, tilde, iso, kind="dom", universe=ins.sample(rng, 80))
    assert hom_ok(verify_hom(h))
    assert classify_type(ins) == "first"
    assert all_pass(check_axioms(ins, samples=150, seed=5))


def test_insemination_bridges():
    d = CutDom(Q)
    ins = inseminate(d, _rational_points(Q))
    rng = random.Random(6)
    for v in [(F(1),), (F(-1, 2),), (F(0),)]:
        p = ("m", v)
        for lam in d.sample(rng, 25):
            if lam.kind != "n":
                continue
            plus_img = make_node(Q, 0, v, PLUS)
            minus_img = make_node(Q, 0, v, MINUS)
            # adjoined point against the two class members of a sum
            s = ins.add(p, ("n", f_plus(d, lam)))
            assert s == ("n", f_plus(d, d.add(plus_img, lam)))
            s = ins.add(p, ("n", f_minus(d, lam)))
            assert s[1] == f_minus(d, d.add(plus_img, lam)) or \
                s[1] == f_plus(d, d.add(plus_img, lam))
            # order bridges through the class members
            assert (ins.cmp(p, ("n", lam)) < 0) == d.le(plus_img, lam)
            assert (ins.cmp(p, ("n", lam)) > 0) == d.le(lam, minus_img)


def test_insemination_projection_kernel():
    d = CutDom(Q)
    ins = inseminate(d, _rational_points(Q))
    proj = insemination_projection(ins)
    expected = [("m", (F(0),)), ("n", d.zero()), ("n", d.delta())]
    universe = expected + [("m", (F(1),)), ("n", cc(Q, "cut(1)+")),
                           ("n", cc(Q, "cut(-2)-")), ("n", POS_INF)]
    kernel = hom_kernel(proj, universe=universe)
    assert kernel == expected
    rng = random.Random(7)
    proj_universe = ins.sample(rng, 50)
    h = HomCandidate(ins, proj.target, proj.mapping, kind="dom", universe=proj_universe)
    assert hom_ok(verify_hom(h))


def test_insemination_of_subgroup_points():
    # adjoining only the integer points gives a sub-structure of the
    # mixed carrier over the rationals
    g = Q
    ints = PointGroup(
        name="points(Z)",
        zero=(F(0),),
        add=lambda a, b: (a[0] + b[0],),
        neg=lambda a: (-a[0],),
        cmp=lambda a, b: (a[0] > b[0]) - (a[0] < b[0]),
        plus_image=lambda v: make_node(g, 0, v, PLUS),
        member=lambda v: v[0].denominator == 1,
        samples=[(F(n),) for n in range(-5, 6)],
    )
    d = CutDom(Q)
    ins = inseminate(d, ints)
    tilde = TildeDom(Q)
    rng = random.Random(8)
    h = HomCandidate(ins, tilde,
                     lambda x: ("g", x[1]) if x[0] == "m" else ("c", x[1]),
                     kind="dom", universe=ins.sample(rng, 60))
    assert hom_ok(verify_hom(h))


# -- products -----------------------------------------------------------------------------


def test_fibered_product_of_group_is_lex():
    base = GroupDom(Z)
    fp = fibered_product(base, lambda x: True, t(3))
    assert classify_type(fp) == "first"
    rng = random.Random(9)
    pool = [( (F(rng.randrange(-4, 5)),), rng.randrange(3)) for _ in range(30)]
    for (a, i), (b, j) in itertools.product(pool[:12], repeat=2):
        x, y = (a, i), (b, j)
        s = fp.add(x, y)
        assert s == (base.add(a, b), t(3).add(i, j))
        assert (fp.cmp(x, y) < 0) == ((a, i) < (b, j))
    assert all_pass(check_axioms(fp, samples=150, seed=9))


def test_fibered_product_unit():
    d = t(5)
    fp = fibered_product(d, lambda x: x == d.zero(), t(1))
    assert to_table(fp) == trivial_dom(5)


def test_fibered_widths_off_the_base_set():
    # replacing the points of a subgroup by a taller fiber gives the
    # other points a positive width: their whole fiber column absorbs
    base = GroupDom(Q)
    fp = fibered_product(base, lambda v: getattr(v[0], "denominator", 0) == 1, t(3))
    three = t(3)
    off = ((F(1, 2),), three.iter_elements()[0])
    on = ((F(1),), three.zero())
    assert fp.width_of(off) == ((F(0),), 2)   # the top of the fiber
    assert fp.cmp(fp.width_of(off), fp.zero()) > 0
    assert fp.eq(fp.width_of(on), fp.zero())


def test_point_duplication():
    # duplicating one point of the rationals: strongly proper third type
    base = GroupDom(Q)
    fp = fibered_product(base, lambda x: x == (F(0),), t(2))
    assert classify_type(fp) == "third"
    rng = random.Random(10)
    pool = fp.sample(rng, 60)
    zero = fp.zero()
    for x in pool:
        assert fp.eq(fp.width_of(x), zero)  # every element is narrow
    assert all_pass(check_axioms(fp, samples=150, seed=10))
    pi = fp.projection()
    pi.universe = pool
    rep = verify_hom(pi)
    assert hom_ok(rep)
    kern = hom_kernel(pi, universe=pool + [((F(0),), 0), ((F(0),), 1)])
    assert set(kern) == {((F(0),), 0), ((F(0),), 1)}


def test_fibered_right_sum_formula():
    base = GroupDom(Q)
    fp = fibered_product(base, lambda x: x == (F(0),), t(2))
    two = t(2)
    rng = random.Random(11)
    pool = fp.sample(rng, 40)
    in_a = lambda v: v == (F(0),)
    for x, y in zip(pool, pool[1:]):
        rs = fp.radd(x, y)
        s = base.add(x[0], y[0])
        if in_a(x[0]) and in_a(y[0]):
            assert rs == (s, two.radd(x[1], y[1]))
        elif in_a(s):
            # both summands outside the duplicated set but cancelling:
            # the right sum lands on the upper copy
            assert rs == (s, 1)
        else:
            assert rs[0] == s and rs[1] == 0  # the fiber floor


def test_mu_product_contracts():
    for n in (1, 2, 3, 4):
        mp = mu_product(t(3), t(n))
        assert to_table(mp) == trivial_dom(n + 2)
        assert classify_type(mp) == classify_type(t(n))
    mp = mu_product(t(5), t(2))
    assert all_pass(check_axioms(mp, universe=mp.iter_elements()))
    pi = mp.projection()
    assert hom_ok(verify_hom(pi))
    kern = hom_kernel(pi)
    assert kern == [(t(5).zero(), y) for y in t(2).iter_elements()]
    with pytest.raises(ValueError):
        mu_product(t(4), t(2))  # base must be of the first type


def test_product_reglue_identity():
    # a fibered product re-glues from its narrow block and the wide slice
    m = t(5)
    a_member = lambda x: x == m.zero()
    lhs = fibered_product(m, a_member, t(2))
    narrow = SubDomView(m, lambda x: m.eq(m.width_of(x), m.zero()), m.zero(), "m0")
    lower = fibered_product(narrow, a_member, t(2))
    k_min = next(w for w in m.width_set() if m.lt(m.zero(), w))
    upper = special_set(m, "Mge", k_min)

    def theta_plus_min(p):
        return f_plus(upper, m.add(p[0], k_min))

    glued = GlueDom(lower, upper, theta_plus_min, k_min)
    assert to_table(glued) == to_table(lhs)


def test_first_type_narrow_cancellation():
    d = TildeDom(Q)
    rng = random.Random(12)
    xs = [x for x in d.universe(rng, 40) if d.eq(d.width_of(x), d.zero())]
    ys = d.universe(rng, 30)
    for x in xs[:10]:
        for y, y2 in zip(ys, ys[1:]):
            assert d.eq(d.add(x, y), d.radd(x, y))
            assert (d.le(d.add(x, y), d.add(x, y2))) == d.le(y, y2)


# -- collapse ---------------------------------------------------------------------------


def test_collapse_recovers_finite_carriers():
    for n in (4, 6):
        d = t(n)
        h_set = special_set(d, "H")
        coll, eta = collapse(d, h_set.contains)
        assert to_table(coll) == trivial_dom(n)
        imgs = [eta(x) for x in d.iter_elements()]
        assert len(set(imgs)) == n
        h = HomCandidate(d, coll, eta, kind="dom", universe=d.iter_elements())
        assert hom_ok(verify_hom(h))


def test_collapse_at_smaller_group_not_additive():
    d = CutDom(Q)

    def in_ints(rep):
        v = rep.prefix[0]
        return getattr(v, "denominator", None) == 1

    coll, eta = collapse(d, in_ints)
    x = cc(Q, "cut(1/2)-")
    x2 = cc(Q, "cut(1/2)+")
    y = cc(Q, "cut(1/2)+")
    assert eta(x) == eta(x2)                       # the halves merge
    assert eta(d.add(x, y)) != eta(d.add(x2, y))   # but their sums split
    assert eta(d.add(x2, y)) != coll.add(eta(x2), eta(y))
    # off the subgroup both class members collapse; on it they stay apart
    assert eta(cc(Q, "cut(1/2)+")) == eta(cc(Q, "cut(1/2)-"))
    assert eta(cc(Q, "cut(1)+")) != eta(cc(Q, "cut(1)-"))


# -- cuts of a finite carrier -------------------------------------------------------------


def test_cuts_of_dom():
    cd = cuts_of_dom(t(3))
    assert cd.table == trivial_dom(4)
    assert cd.delta() == cd.zero() - 1   # the displaced zero is the lower zero cut
    assert cd.cmp(cd.delta(), cd.zero()) < 0
    with pytest.raises(ValueError):
        cuts_of_dom(t(4))
    big = cuts_of_dom(t(5))
    assert all_pass(check_axioms(big, universe=big.iter_elements()))


def test_cuts_of_dom_alternative_plus_defect():
    alt = cuts_of_dom(t(3), plus_rule="left")
    rep = validate(alt.table)
    assert not rep["MCa"][0]
    assert rep["MCb"][0] and rep["MA"][0] and rep["MB"][0]
    # the cited witness: both cuts at a wide element x; the lower one
    # minus the upper one fails to be negative
    x = 2  # the top element of the 3-chain has positive width
    lam = 2   # cut just below x (left part {0,1})
    gam = 3   # cut just above x
    assert alt.cmp(lam, gam) < 0
    assert alt.cmp(alt.rsub(lam, gam), alt.zero()) >= 0


# -- embeddings of the finite chains ---------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 9))
def test_embed_finite(n):
    h = embed_finite(n)
    rep = verify_hom(h)
    assert hom_ok(rep), (n, rep)
    assert rep["injective"][0]
    target_type = classify_type(h.target)
    assert target_type == classify_type(h.source)
    # image is closed under the operations: the verified hom laws plus
    # exhaustive sums staying inside the image
    universe = h.universe
    images = [h(i) for i in universe]
    for i in universe:
        for j in universe:
            s = h.target.add(h(i), h(j))
            assert any(h.target.eq(s, im) for im in images)


CONSTRUCTED = {
    "dual(t4)": lambda: dual(t(4)),
    "infinity(t3)": lambda: infinity_extension(t(3)),
    "quot-equiv(t4)": lambda: quotient_equiv(t(4))[0],
    "split(t5,3)": lambda: split_at_width(t(5), 3),
    "collapse(t4,H)": lambda: collapse(t(4), special_set(t(4), "H").contains)[0],
    "mu(t3,t3)": lambda: mu_product(t(3), t(3)),
    "shift(cuts(Z))": lambda: shift(CutDom(Z)),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTED))
def test_constructed_carriers_contain_and_format(name):
    d = CONSTRUCTED[name]()
    elems = d.iter_elements()
    if elems is None:
        elems = d.sample(random.Random(0), 40)
    distinct = [x for i, x in enumerate(elems) if not any(d.eq(x, y) for y in elems[:i])]
    assert len(distinct) > 2
    assert all(d.contains(x) for x in elems)
    assert len({d.fmt(x) for x in distinct}) == len(distinct)
    assert not d.contains(("bogus",))
