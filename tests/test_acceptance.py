"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All tolerances are exact (the arithmetic is exact); the only numeric
budgets are the stated wall-clock bounds.
"""

import itertools
import random
import time
from fractions import Fraction as F

import pytest

from domkit import cuts as ct
from domkit.cuts import FILLED, MINUS, PLUS, make_node, parse_cut
from domkit.constructions import (
    InfinityExtension, MuProduct, ShiftedMinusDom, collapse, cuts_of_dom, embed_finite,
    split_at_width, to_table,
)
from domkit.doms import (
    CutDom, GroupDom, HomCandidate, check_axioms, classify_type,
    sign_of, special_set, verify_hom,
)
from domkit.groups import FactorSet, Group
from domkit.oracle import oracle_diff, oracle_radd, oracle_sum
from domkit.scalars import Sqrt2
from domkit.tables import (
    FiniteDom, enumerate_tables, trivial_dom, validate,
)
from domkit.valuations import (
    check_valuation, coarsening_of, natural_valuation, trivial_valuation,
    two_valued_valuation, w_valuation, width_valuation,
)

import support

Q = Group.Q()
Z = Group.Z()
Z2 = Group.Zloc(2)
QQ = Group.lex(Group.Q(), Group.Q())

BAD3 = FiniteDom([(0, 0, 2), (0, 1, 2), (2, 2, 2)])
BAD4A = FiniteDom([(0, 0, 0, 0), (0, 1, 1, 1), (0, 1, 2, 3), (0, 1, 3, 3)])
BAD4B = FiniteDom([(0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 2, 3), (0, 1, 3, 3)])
NONASSOC = FiniteDom([(0, 0, 0, 0), (0, 0, 1, 3), (0, 1, 2, 3), (0, 3, 3, 3)])

MAIN = ("MA", "MB", "MCa", "MCb")
STRUCTURAL = ("neutral", "assoc", "comm", "PA", "minus")


def _verdict(num: int, desc: str):
    print(f"criterion {num}: PASS - {desc}")


def _fails(table, keys=MAIN + STRUCTURAL):
    rep = validate(table, keys)
    return {k for k, (ok, _) in rep.items() if not ok}


def test_criterion_1_table_regression():
    started = time.time()
    for t in (trivial_dom(3), trivial_dom(4), trivial_dom(5)):
        assert _fails(t) == set()
    assert _fails(BAD3) == {"MCb"}
    assert _fails(BAD4A) == {"MCa"}
    assert _fails(BAD4B) == {"MCa"}
    assert _fails(NONASSOC) == {"assoc"}
    elapsed = time.time() - started
    assert elapsed < 1.0, f"regression took {elapsed:.2f}s"
    _verdict(1, f"printed-table verdicts exact, exhaustive in {elapsed:.3f}s")


def test_criterion_2_uniqueness():
    for n in range(1, 7):
        assert enumerate_tables(n) == [trivial_dom(n)], n
    started = time.time()
    assert enumerate_tables(7) == [trivial_dom(7)]
    elapsed = time.time() - started
    assert elapsed < 300.0
    _verdict(2, f"one table per size 1..7; size 7 searched in {elapsed:.2f}s")


def test_criterion_3_axiom_independence():
    shifted_up = FiniteDom([(0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 3), (0, 3, 3, 3)])
    shifted_down = FiniteDom([(0, 0, 0), (0, 0, 1), (0, 1, 2)])
    for axiom, table in (("MA", shifted_up), ("MB", shifted_down),
                         ("MCa", BAD4A), ("MCb", BAD3)):
        assert _fails(table) == {axiom}, axiom
    # the same failures on the displaced-minus groups, by seeded sampling
    for displacement, axiom in (((F(1),), "MA"), ((F(-2),), "MB")):
        displaced = ShiftedMinusDom(GroupDom(Z), displacement, "displaced(Z)")
        rep = check_axioms(displaced, samples=250, seed=0)
        assert not rep[axiom][0]
        assert all(ok for name, (ok, _) in rep.items() if name != axiom)
    for n in range(1, 7):
        assert enumerate_tables(n, {"MA", "MB", "MCprime"}) == \
            enumerate_tables(n, {"MA", "MB", "MCa", "MCb"}), n
    _verdict(3, "each axiom fails alone on a witness; the one-sided "
                "inequality axiom is equivalent for sizes 1..6")


def test_criterion_4_derived_law_suite():
    started = time.time()
    per_carrier = 10_000
    for name, d in support.standard_cut_carriers().items():
        tuples = support.sample_tuples(d, per_carrier, seed=101)
        failures = support.run_item_suite(d, tuples)
        assert not failures, (name, failures[:3])
    for n in range(1, 7):
        d = trivial_dom(n)
        failures = support.run_item_suite(d, support.exhaustive_tuples(d))
        assert not failures, (n, failures[:3])
    elapsed = time.time() - started
    assert elapsed < 60.0, f"law suite took {elapsed:.1f}s"
    _verdict(4, f"27 derived laws on 4x{per_carrier} sampled tuples and all "
                f"finite carriers up to size 6, exact, in {elapsed:.1f}s")


def _worked_example_pairs(g):
    """The operand pairs behind the worked examples, per group."""
    pairs = []
    if g is Q:
        for a in (F(3), F(0), F(-2)):
            for b in (F(4), F(0)):
                for sa in (PLUS, MINUS):
                    for sb in (PLUS, MINUS):
                        pairs.append((make_node(g, 0, (a,), sa),
                                      make_node(g, 0, (b,), sb)))
        pairs.append((make_node(g, 0, (F(0),), PLUS), make_node(g, 0, (F(0),), MINUS)))
    if g is Z:
        zp = make_node(g, 0, (F(0),), PLUS)
        pairs += [(zp, zp), (make_node(g, 0, (F(3),), PLUS), zp)]
    if g is Z2:
        half = make_node(g, 0, (F(1, 2),), FILLED)
        quarter = make_node(g, 0, (F(1, 4),), FILLED)
        pairs += [(half, half), (quarter, quarter), (half, quarter),
                  (half, ct.neg(g, half))]
    if g is QQ:
        om = ct.level_edge(g, 1)
        pairs += [(om, om), (om, ct.neg(g, om)),
                  (om, make_node(g, 0, (F(0), F(0)), PLUS))]
    return pairs


def test_criterion_5_oracle_equivalence():
    per_carrier = 10_000
    rng = random.Random(202)
    for name, d in support.standard_cut_carriers().items():
        g = d.group
        pool = d.sample(rng, 400)
        pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(per_carrier)]
        pairs += _worked_example_pairs(g)
        for a, b in pairs:
            assert d.add(a, b) == oracle_sum(g, a, b), (name, d.fmt(a), d.fmt(b))
            assert d.radd(a, b) == oracle_radd(g, a, b), (name, d.fmt(a), d.fmt(b))
            assert d.rsub(a, b) == oracle_diff(g, "right", a, b)
            assert d.lsub(a, b) == oracle_diff(g, "left", a, b)
    # the worked example values themselves
    assert oracle_sum(Q, parse_cut(Q, "cut(3)+"), parse_cut(Q, "cut(4)-")) \
        == parse_cut(Q, "cut(7)-")
    half = make_node(Z2, 0, (F(1, 2),), FILLED)
    quarter = make_node(Z2, 0, (F(1, 4),), FILLED)
    assert oracle_sum(Z2, half, half) == parse_cut(Z2, "cut(1)-")
    assert oracle_sum(Z2, quarter, quarter) == half
    om = ct.level_edge(QQ, 1)
    assert oracle_sum(QQ, om, om) == om
    assert oracle_diff(QQ, "right", om, om) == om
    assert oracle_diff(QQ, "left", om, om) == ct.neg(QQ, om)
    assert oracle_radd(Z, parse_cut(Z, "cut(0)+"), parse_cut(Z, "cut(0)+")) \
        == parse_cut(Z, "cut(1)+")
    _verdict(5, f"rule tables match the sup-of-shifts oracle on 4x{per_carrier} "
                "sampled pairs plus every worked example")


def test_criterion_6_signature_rule():
    dq = CutDom(Q, "Qr2")
    reps_q = {
        1: [make_node(Q, 0, (F(v),), PLUS) for v in (0, 1, -2)],
        -1: [make_node(Q, 0, (F(v),), MINUS) for v in (0, 1, -2)],
        0: [make_node(Q, 0, (Sqrt2(a, b),), FILLED)
            for a, b in ((0, 1), (1, 1), (-1, 1), (0, -1))],
    }
    dz = CutDom(Z2)
    reps_z = {
        1: [make_node(Z2, 0, (F(v),), PLUS) for v in (0, 1, -1)],
        -1: [make_node(Z2, 0, (F(v),), MINUS) for v in (0, 1, -1)],
        0: [make_node(Z2, 0, (q,), FILLED)
            for q in (F(1, 2), F(-1, 2), F(1, 4), F(3, 2))],
    }
    outcomes_row7 = set()
    for d, reps in ((dq, reps_q), (dz, reps_z)):
        for s, cuts in reps.items():
            for lam in cuts:
                assert sign_of(d, lam) == s
                assert sign_of(d, d.neg(lam)) == -s
        for sa, sb in itertools.product((-1, 0, 1), repeat=2):
            for x, y in itertools.product(reps[sa], reps[sb]):
                c = sign_of(d, d.add(x, y))
                if sa == sb == 1:
                    assert c == 1
                if sa == sb == -1:
                    assert c == -1
                if sa <= 0:
                    assert c <= 0
                if sa == 1 and sb >= 0:
                    assert c >= 0
                if (sa, sb) in ((1, 0), (-1, 0)):
                    assert c == 0
                if sa == 0 and sb == 0:
                    assert c <= 0
                    outcomes_row7.add(c)
                if sa == 1 and sb == -1:
                    assert c == -1
    assert outcomes_row7 == {0, -1}
    half = make_node(Z2, 0, (F(1, 2),), FILLED)
    quarter = make_node(Z2, 0, (F(1, 4),), FILLED)
    assert sign_of(dz, dz.add(half, half)) == -1
    assert sign_of(dz, dz.add(quarter, quarter)) == 0
    _verdict(6, "all eight signature rows hold exhaustively over both "
                "groups; the ambiguous row realizes both outcomes")


def test_criterion_7_construction_contracts():
    # every construction output satisfies the axioms
    finite_outputs = []
    for n in (2, 3, 4, 5):
        finite_outputs.append(InfinityExtension(trivial_dom(n)))
        finite_outputs.append(MuProduct(trivial_dom(3), trivial_dom(n)))
    for n in (3, 5):
        finite_outputs.append(cuts_of_dom(trivial_dom(n)))
    for d in finite_outputs:
        rep = check_axioms(d, universe=d.iter_elements())
        assert all(ok for ok, _ in rep.values()), d.name
    # re-glue identities, exhaustively over all positive widths
    for n in range(2, 7):
        d = trivial_dom(n)
        for k in d.width_set():
            if d.lt(d.zero(), k):
                glued = split_at_width(d, k)
                assert to_table(glued) == trivial_dom(n)
                rep = check_axioms(glued, universe=glued.iter_elements())
                assert all(ok for ok, _ in rep.values())
    # collapse at the double-point subgroup is an isomorphism
    for n in (4, 6):
        d = trivial_dom(n)
        coll, eta = collapse(d, special_set(d, "H").contains)
        assert to_table(coll) == trivial_dom(n)
        h = HomCandidate(d, coll, eta, universe=d.iter_elements())
        rep = verify_hom(h)
        assert all(ok for key, (ok, _) in rep.items())
    # cut carrier of the three-chain, and the defective alternative sum
    assert cuts_of_dom(trivial_dom(3)) == trivial_dom(4)
    alt = support.left_rule_cuts(trivial_dom(3))
    rep = validate(alt, MAIN + STRUCTURAL)
    assert {k for k, (ok, _) in rep.items() if not ok} == {"MCa"}
    lam, gam = 2, 3  # the two cuts around the wide top element
    assert alt.cmp(lam, gam) < 0 and alt.cmp(alt.rsub(lam, gam), alt.zero()) >= 0
    _verdict(7, "construction outputs satisfy the axioms; re-glue, collapse "
                "and cut-carrier identities hold exhaustively")


def test_criterion_8_finite_chain_embeddings():
    for n in range(1, 7):
        h = embed_finite(n)
        rep = verify_hom(h)
        assert all(ok for key, (ok, _) in rep.items()), (n, rep)
        assert rep["injective"][0]
        assert classify_type(h.target) == classify_type(h.source)
        images = [h(i) for i in range(n)]
        for i, j in itertools.product(range(n), repeat=2):
            s = h.target.add(images[i], images[j])
            assert any(h.target.eq(s, im) for im in images)
    # crossed-product validation: a section of an ordered extension
    # embeds the extension into the twisted product
    def sec(c):
        return (c[0] * c[0] * 2,)

    ds = FactorSet.from_section(sec, name="ds")
    twisted = Group.crossed(Z, Z, ds)
    b = Group.lex(Z, Z)
    rng = random.Random(303)

    def beta(x):
        return (x[0], x[1] - sec((x[0],))[0])

    pool = [(F(rng.randrange(-6, 7)), F(rng.randrange(-6, 7))) for _ in range(50)]
    for x, y in itertools.product(pool[:16], repeat=2):
        assert beta(b.add(x, y)) == twisted.add(beta(x), beta(y))
        assert (b.cmp(x, y) <= 0) == (twisted.cmp(beta(x), beta(y)) <= 0)
        assert beta(b.neg(x)) == twisted.neg(beta(x))
    _verdict(8, "sizes 1..6 embed as verified substructures of cut or mixed "
                "carriers; section-built crossed products absorb their extension")


def test_criterion_9_valuations():
    # width valuation is strong everywhere checked
    for n in range(1, 7):
        d = trivial_dom(n)
        rep = check_valuation(width_valuation(d), universe=d.iter_elements())
        assert rep["strong"][0] and rep["V1"][0] and rep["V2"][0]
    for d in (CutDom(Q), CutDom(Z), CutDom(QQ)):
        rep = check_valuation(width_valuation(d), samples=200, seed=9)
        assert rep["strong"][0], d.name
    # natural valuation is convex and the coarsening criteria agree
    d5 = trivial_dom(5)
    univ = d5.iter_elements()
    vn, vw = natural_valuation(d5), width_valuation(d5)
    for v in (vn, vw, trivial_valuation(d5), two_valued_valuation(d5)):
        convex = check_valuation(v, which=("V4",), universe=univ)["V4"][0]
        strong = check_valuation(v, which=("strong",), universe=univ)["strong"][0]
        assert convex == coarsening_of(v, vn, universe=univ)
        assert strong == coarsening_of(v, vw, universe=univ)
    dq = CutDom(Q)
    rep = check_valuation(natural_valuation(dq), which=("V1", "V2", "V3", "V4"),
                          samples=150, seed=10)
    assert all(ok for ok, _ in rep.values())
    # value collapse consequences for strong/convex valuations
    rng = random.Random(11)
    pool = dq.sample(rng, 40)
    for v in (width_valuation(dq), natural_valuation(dq)):
        for x, y in zip(pool, pool[1:]):
            assert v.value_cmp(v(dq.radd(x, y)), v(dq.add(x, y))) == 0
            if v.value_cmp(v(x), v(y)) < 0:
                assert v.value_cmp(v(dq.add(x, y)), v(y)) == 0
    # a wide irrational edge needs a wide rider
    dr = CutDom(QQ, "Qr2")
    wv = w_valuation(dr)
    lam = make_node(QQ, 1, (Sqrt2(0, 1),), FILLED)
    assert wv.value_cmp(wv(lam), wv(dr.zero())) > 0
    assert wv.is_min(wv(ct.level_edge(QQ, 1)))
    _verdict(9, "width valuation strong, natural valuation convex with the "
                "coarsening criteria, wide irrational witness found")


def test_criterion_10_group_extension_suite():
    qr2 = Group.Qr2()
    cases = [
        (Z2, Q, [(F(n, 2 ** k),) for n in (-3, -1, 1, 3, 5) for k in (1, 2)]),
        (Q, qr2, [(Sqrt2(F(a), F(b)),) for a in (-1, 0, 1) for b in (1, -1, 2)]),
    ]
    rng = random.Random(12)
    for g, gp, witnesses in cases:
        probes = [(F(n, 3),) for n in range(-9, 10)]
        for x0 in witnesses:
            lam = ct.induced_cut(g, gp, x0)
            assert ct.fills(g, gp, x0, lam)
            # the witness determines the cut from both sides
            assert ct.edge_below(g, gp, x0) == lam
            assert ct.edge_above(g, gp, x0) == lam
            for alpha in probes:
                assert (gp.cmp(alpha, x0) < 0) == ct.member_below(g, alpha, lam)
                assert (gp.cmp(alpha, x0) > 0) == ct.member_above(g, alpha, lam)
            # strict distance bounds between witnesses sit above the width
            wid = ct.level_edge(g, lam.level)
            for alpha in probes:
                assert (gp.cmp((F(0),), alpha) < 0) == ct.member_above(g, alpha, wid)
        for x0, y0 in itertools.product(witnesses[:6], repeat=2):
            lam, gam = ct.induced_cut(g, gp, x0), ct.induced_cut(g, gp, y0)
            s = gp.add(x0, y0)
            assert ct.edge_below(g, gp, s) == ct.add(g, lam, gam)
            assert ct.edge_above(g, gp, s) == ct.radd(g, lam, gam)
    with pytest.raises(ValueError, match="not dense"):
        ct.induced_cut(Z, Q, (F(1, 2),))
    _verdict(10, "fills determine cuts and their sums on both dense pairs; "
                 "the discrete pair is rejected")
