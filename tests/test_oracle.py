import random
from fractions import Fraction as F

import pytest

from domkit import cuts as ct
from domkit.cuts import FILLED, make_node, parse_cut
from domkit.doms import CutDom
from domkit.groups import Group
from domkit.oracle import (
    OracleError, _verify, ascending_chain, oracle_diff, oracle_radd, oracle_sum,
)

Q = Group.Q()
Z = Group.Z()
Z2 = Group.Zloc(2)
QQ = Group.lex(Group.Q(), Group.Q())


def test_oracle_known_values():
    assert oracle_sum(Q, parse_cut(Q, "cut(3)+"), parse_cut(Q, "cut(4)-")) \
        == parse_cut(Q, "cut(7)-")
    om = parse_cut(QQ, "edge(1)+0")
    assert oracle_sum(QQ, om, om) == om
    half = make_node(Z2, 0, (F(1, 2),), FILLED)
    assert oracle_sum(Z2, half, half) == parse_cut(Z2, "cut(1)-")
    assert oracle_radd(Z, parse_cut(Z, "cut(0)+"), parse_cut(Z, "cut(0)+")) \
        == parse_cut(Z, "cut(1)+")
    assert oracle_diff(QQ, "right", om, om) == om
    assert oracle_diff(QQ, "left", om, om) == ct.neg(QQ, om)


def test_chain_is_cofinal_and_below():
    rng = random.Random(0)
    for g in (Q, Z, Z2, QQ):
        d = CutDom(g)
        for lam in d.sample(rng, 40):
            chain = ascending_chain(g, lam, 6)
            if lam.kind == "lo":
                assert chain == []
                continue
            for gamma in chain:
                assert g.contains(gamma)
                assert ct.member_below(g, gamma, lam)


def test_oracle_agrees_with_rule_tables_sampled():
    rng = random.Random(1)
    for g in (Q, Z, Z2, QQ):
        d = CutDom(g)
        pool = d.sample(rng, 80)
        for _ in range(400):
            a, b = rng.choice(pool), rng.choice(pool)
            assert oracle_sum(g, a, b) == d.add(a, b)
            assert oracle_radd(g, a, b) == d.radd(a, b)
            assert oracle_diff(g, "right", a, b) == d.rsub(a, b)
            assert oracle_diff(g, "left", a, b) == d.lsub(a, b)


def passthrough(g, cut, n):
    # same chain as the built-in sampler, but not the built-in sampler
    # itself, so the verifier takes its two-draw path
    return ascending_chain(g, cut, n)


def test_oracle_rejects_wrong_candidates():
    # feed the internal verifier an unreachable candidate by lying about
    # the operands: the chain for b must stay below the alleged sup; the
    # single-walk and the two-draw paths must agree
    a = parse_cut(Q, "cut(1)+")
    b = parse_cut(Q, "cut(1)+")
    for sampler in (ascending_chain, passthrough):
        with pytest.raises(OracleError, match="exceeds the candidate"):
            # too small: the chain exceeds it
            _verify(Q, a, b, parse_cut(Q, "cut(0)+"), 8, sampler)
        with pytest.raises(OracleError, match="not approached"):
            # too big: never approached
            _verify(Q, a, b, parse_cut(Q, "cut(5)+"), 8, sampler)
        with pytest.raises(OracleError, match="empty chain"):
            _verify(Q, a, ct.NEG_INF, parse_cut(Q, "cut(0)+"), 8, sampler)


R2 = CutDom(Q, "Qr2")


def test_builtin_chain_prefix_invariant():
    # the single walk in _verify relies on the short chain being a
    # prefix of the long one
    rng = random.Random(2)
    for d in (CutDom(Q), CutDom(Z), CutDom(Z2), CutDom(QQ), R2):
        g = d.group
        for lam in d.sample(rng, 40) + [ct.NEG_INF, ct.POS_INF]:
            for n in (1, 3, 8):
                assert ascending_chain(g, lam, n) == ascending_chain(g, lam, 2 * n)[:n]


def _sum_or_error(g, a, b, sampler):
    try:
        return oracle_sum(g, a, b, sampler=sampler)
    except OracleError as e:
        return ("OracleError", str(e))


def test_single_walk_matches_two_draws():
    rng = random.Random(3)
    errors = 0
    for d in (CutDom(Q), CutDom(Z), CutDom(Z2), CutDom(QQ), R2):
        g = d.group
        pool = d.sample(rng, 40)
        pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(150)]
        if d is R2:
            # known spurious "not approached" at chain_len 8
            pairs.append((parse_cut(Q, "cut(-4/3)-"), parse_cut(Q, "fill(1/2-r2)")))
        for a, b in pairs:
            fast = _sum_or_error(g, a, b, None)
            assert fast == _sum_or_error(g, a, b, passthrough)
            errors += isinstance(fast, tuple)
    assert errors > 0  # the error path was compared too


def test_oracle_detects_non_cofinal_sampler():
    a = parse_cut(Q, "cut(0)-")
    b = parse_cut(Q, "cut(1)-")

    def stuck(g, cut, n):
        # stays an entire unit below the cut: not cofinal
        return [(F(-1),)] * n

    with pytest.raises(OracleError):
        oracle_sum(Q, a, b, sampler=stuck)

    def escaped(g, cut, n):
        # not even below the cut
        return [(F(5),)] * n

    with pytest.raises(OracleError):
        oracle_sum(Q, a, b, sampler=escaped)
    # a valid custom sampler is accepted
    def fine(g, cut, n):
        return [(F(1) - F(1, 2) ** (i + 1),) for i in range(n)]

    assert oracle_sum(Q, a, b, sampler=fine) == parse_cut(Q, "cut(1)-")
