import itertools
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from domkit import cuts as ct
from domkit import oracle
from domkit.cuts import FILLED, MINUS, PLUS, approach_below, make_node, parse_cut
from domkit.doms import CutDom
from domkit.groups import FactorSet, Group, lex_cmp
from domkit.oracle import (
    OracleError, _verify, ascending_chain, oracle_diff, oracle_radd, oracle_sum,
)

import support

Q = Group.Q()
Z = Group.Z()
Z2 = Group.Zloc(2)
QQ = Group.lex(Group.Q(), Group.Q())
TWIST = FactorSet({(1, 1): -2}, name="-2xy")
XZ = CutDom(Group.crossed(Z, Z, TWIST))
XQ = CutDom(Group.crossed(Q, Q, TWIST))


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
    with pytest.raises(ValueError) as exc:
        oracle_diff(QQ, "up", om, om)
    assert str(exc.value) == "unknown difference mode 'up'"


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


def test_oracle_rejects_wrong_candidates():
    # feed the internal verifier an unreachable candidate by lying about
    # the operands: the chain for b must stay below the alleged sup
    a = parse_cut(Q, "cut(1)+")
    b = parse_cut(Q, "cut(1)+")
    with pytest.raises(OracleError, match="exceeds the candidate"):
        # too small: the chain exceeds it
        _verify(Q, a, b, parse_cut(Q, "cut(0)+"), 8, ascending_chain)
    with pytest.raises(OracleError, match="not approached"):
        # too big: never approached
        _verify(Q, a, b, parse_cut(Q, "cut(5)+"), 8, ascending_chain)
    with pytest.raises(OracleError, match="empty chain"):
        _verify(Q, a, ct.NEG_INF, parse_cut(Q, "cut(0)+"), 8, ascending_chain)


R2 = CutDom(Q, "Qr2")


def test_ascending_chain_matches_approach_below():
    # below a - or fill anchor the i-th element is approach_below's, in
    # the same canonical form, at every level and for negative and
    # integral anchors too
    anchors = (F(-7, 3), -2, 0, 5, F(1, 2), F(-3, 4), F(5, 3), F(-1, 6), F(13, 9))
    for g in (Q, Z2, Group.Zloc(3), QQ):
        m = g.num_atoms
        for k in range(m):
            head = (-3,) * (m - k - 1)
            for t in anchors:
                cut = make_node(g, k, head + (t,), MINUS)
                assert cut.side in (MINUS, FILLED)
                want = [head + (approach_below(g, m - k - 1, cut.anchor, i),) + (i,) * k
                        for i in range(12)]
                got = ascending_chain(g, cut, 12)
                assert got == want, (g, k, t)
                assert [tuple(map(type, x)) for x in got] == \
                    [tuple(map(type, x)) for x in want], (g, k, t)


def _group_elements(g, pool, rng):
    """Members of g: chain elements below the pool's cuts, their
    negatives and some sums."""
    out = [x for c in pool for x in ascending_chain(g, c, 3)]
    out += [g.neg(x) for x in out]
    out += [g.add(x, y) for x, y in zip(out, reversed(out))]
    return rng.sample(out, 30)


def test_shifts_compare_as_their_projections():
    # the oracle checks that its shifts ascend on the chain's group
    # coordinates: a shift of a finite cut keeps its level and side, so two
    # shifts compare as the elements' projections to that level do
    rng = random.Random(14)
    for d in (CutDom(Q), CutDom(Z), CutDom(Z2), CutDom(QQ), R2, XZ, XQ):
        g = d.group
        pool = d.sample(rng, 60)
        elems = _group_elements(g, pool, rng)
        assert all(map(g.contains, elems))
        finite = [c for c in pool if c.kind == "n"]
        for a in rng.sample(finite, 15):
            shifts = [ct.shift_by(g, x, a) for x in elems]
            assert all((s.kind, s.level, s.side) == ("n", a.level, a.side) for s in shifts)
            na = len(a.prefix)
            for (x, s), (y, t) in itertools.product(zip(elems, shifts), repeat=2):
                assert ct.compare(g, s, t) == lex_cmp(x[:na], y[:na]), (d.fmt(a), x, y)


def test_walk_makes_no_engine_call_per_element(monkeypatch):
    # the engine calls of a verification do not grow with the chain, and
    # the walk ends are checked against cuts built from coordinates: the
    # only engine call left is compare, twice per walk end (the shift
    # with the candidate, the shift with the probe; the probe lies below
    # the candidate by construction, which
    # test_probes_lie_strictly_below_their_candidates checks).  Every
    # binding of the four functions is counted,
    # in cuts and in the oracle, so no route to them is missed
    counts = Counter()
    for name in ("member_below", "shift_by", "compare", "make_node"):
        def counted(*args, _fn=getattr(ct, name), _name=name):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(ct, name, counted)
        if hasattr(oracle, name):
            monkeypatch.setattr(oracle, name, counted)
    for g, a, b in ((QQ, parse_cut(QQ, "cut(1,1/3)-"), parse_cut(QQ, "edge(1)+2")),
                    (Q, parse_cut(Q, "cut(0)-"), parse_cut(Q, "cut(1/3)-")),
                    (Z2, parse_cut(Z2, "cut(0)+"), parse_cut(Z2, "fill(1/2)"))):
        cand = ct.add(g, a, b)
        seen = []
        for n in (4, 8, 32):
            counts.clear()
            _verify(g, a, b, cand, n, ascending_chain)
            seen.append(dict(counts))
        assert seen[0] == seen[1] == seen[2], seen
        assert seen[0] == {"compare": 4}, (cand, seen[0])
        # a call that finds its walk remembered still runs every check that
        # reads a and the candidate: the same engine calls
        assert any(e[2] == 8 and e[3] == b for e in oracle._walks)
        counts.clear()
        _verify(g, a, b, cand, 8, ascending_chain)
        assert dict(counts) == seen[1]


def test_walk_makes_one_compare_per_element(monkeypatch):
    # a built-in chain ascends in the full order, so its walk is the
    # ordered pass alone: one lex_cmp per element and one with b, where
    # an element-by-element walk makes two per element
    compares = Counter()
    walked = Counter()

    def counted_cmp(x, y, _fn=lex_cmp):
        compares["n"] += 1
        return _fn(x, y)

    def counted_walk(g, a, b, cand, chain, prev, _fn=oracle._walk_chain):
        compares.clear()
        last = _fn(g, a, b, cand, chain, prev)
        assert compares["n"] <= len(chain) + 1, (compares["n"], len(chain), prev is None)
        walked[prev is None] += 1
        return last

    monkeypatch.setattr(oracle, "lex_cmp", counted_cmp)
    monkeypatch.setattr(oracle, "_walk_chain", counted_walk)
    # criterion 5's seed and pool size on its four carriers and on cuts(Q,r2)
    rng = random.Random(202)
    carriers = dict(support.standard_cut_carriers(), R2=R2)
    for d in carriers.values():
        g = d.group
        pool = d.sample(rng, 400)
        for _ in range(250):
            _four_oracle_results(g, rng.choice(pool), rng.choice(pool), cold=False)
    # both halves of a chain were walked, many times
    assert min(walked[True], walked[False]) > 500, walked


def test_probes_lie_strictly_below_their_candidates(monkeypatch):
    # the least-bound check compares the last shift with each probe and
    # does not compare the probe with the candidate: every probe must lie
    # strictly below its candidate.  The candidates are the oracle's own
    # on pairs from criterion 5's pools and from a cuts(Q,r2) pool, and
    # every pool element
    cands = []

    def recorded(g, a, b, cand, chain_len, sampler, _fn=oracle._verify):
        cands.append(cand)
        return _fn(g, a, b, cand, chain_len, sampler)

    monkeypatch.setattr(oracle, "_verify", recorded)
    rng = random.Random(202)
    kinds = Counter()
    for d in dict(support.standard_cut_carriers(), R2=R2).values():
        g = d.group
        pool = d.sample(rng, 400)
        cands.clear()
        for _ in range(250):
            _four_oracle_results(g, rng.choice(pool), rng.choice(pool), cold=False)
        for cand in cands + pool:
            probes = oracle._probes(g, cand, oracle.CHAIN_LEN)
            if cand.kind == "lo":
                assert probes == (None, None)
                continue
            kinds[cand.kind, cand.side if cand.kind == "n" else None] += 1
            for probe in probes:
                assert ct.compare(g, probe, cand) < 0, (d.fmt(probe), d.fmt(cand))
    # every kind of candidate the probes distinguish was met
    assert set(kinds) == {("hi", None), ("n", PLUS), ("n", MINUS), ("n", FILLED)}, kinds


def _probe_by_make_node(g, cand, n):
    """The probe of the n-element chain as make_node builds it."""
    if cand.kind == "hi":
        return make_node(g, g.num_atoms - 1, (3 ** (n // 2),), PLUS)
    k = cand.level
    if cand.side == PLUS:
        return make_node(g, k, cand.prefix, MINUS)
    atom = g.atoms[g.num_atoms - k - 1]
    v = (support.Ref.of(cand.prefix[-1]) - F(1, atom.dense_denominator() ** (n // 2 + 1))).value()
    return make_node(g, k, cand.prefix[:-1] + (v,), PLUS if atom.contains(v) else FILLED)


def _same_cut(x, y):
    """Equal, and with coordinates of the same scalar types."""
    return x == y and tuple(map(type, x.prefix)) == tuple(map(type, y.prefix))


def test_walk_end_cuts_built_from_coordinates_are_the_engines():
    # the oracle builds each walk end's shift and each probe in place; on
    # every walk end of seeded pairs they are the cuts shift_by and
    # make_node would build, coordinate types included
    rng = random.Random(27)
    n = oracle.CHAIN_LEN
    kinds = Counter()
    for d in (CutDom(Q), CutDom(Z), CutDom(Z2), CutDom(QQ), R2, XZ, XQ, CutDom(Z2, "Qr2")):
        g = d.group
        pool = d.sample(rng, 60)
        for _ in range(60):
            a, b = rng.choice(pool), rng.choice(pool)
            chain = ascending_chain(g, b, 2 * n)
            for gamma in chain[n - 1::n]:
                # the candidate +inf is never exceeded: the shift is returned
                built = oracle._checked_shift(g, a, ct.POS_INF, gamma)
                assert _same_cut(built, ct.shift_by(g, gamma, a)), (d.fmt(a), gamma)
            s = d.add(a, b)
            for cand in [s] + _wrong_candidates(g, s) + [ct.POS_INF]:
                probes = oracle._probes(g, cand, n)
                if cand.kind == "lo":
                    assert probes == (None, None)
                    continue
                kinds[cand.kind, cand.side if cand.kind == "n" else None] += 1
                for probe, m in zip(probes, (n, 2 * n)):
                    want = _probe_by_make_node(g, cand, m)
                    assert _same_cut(probe, want), (d.fmt(cand), m)
    # every kind of candidate the probes distinguish was met
    assert set(kinds) == {("hi", None), ("n", PLUS), ("n", MINUS), ("n", FILLED)}


def test_builtin_chain_prefix_invariant():
    # the single walk in _verify relies on the short chain being a
    # prefix of the long one
    rng = random.Random(2)
    for d in (CutDom(Q), CutDom(Z), CutDom(Z2), CutDom(QQ), R2):
        g = d.group
        for lam in d.sample(rng, 40) + [ct.NEG_INF, ct.POS_INF]:
            for n in (1, 3, 8):
                assert ascending_chain(g, lam, n) == ascending_chain(g, lam, 2 * n)[:n]


def _verify_or_error(verify, g, a, b, cand, sampler):
    try:
        verify(g, a, b, cand, 8, sampler)
        return cand
    except OracleError as e:
        return ("OracleError", str(e))


def _wrong_candidates(g, s):
    """For a finite sum: the infinities, and the sum moved one unit down
    and up.  The chain exceeds those below the sum and never approaches
    those above it."""
    if s.kind != "n":
        return []
    return [ct.NEG_INF, ct.POS_INF] + [
        ct.shift_by(g, (v,) * g.num_atoms, s) for v in (-1, 1)]


# The per-element walk the ordered pass replaced: every shift is compared
# with the candidate and kept, and the least check compares every shift
# with the probe.  The probe is placed as the oracle places it now.

def _reference_verify(g, a, b, cand, chain_len, sampler):
    chain = sampler(g, b, 2 * chain_len)
    shifts = _reference_walk(g, a, b, cand, chain[:chain_len], [])
    _reference_least(g, cand, shifts, chain_len)
    _reference_walk(g, a, b, cand, chain[chain_len:], shifts)
    _reference_least(g, cand, shifts, 2 * chain_len)


def _reference_walk(g, a, b, cand, chain, shifts):
    for gamma in chain:
        if not ct.member_below(g, gamma, b):
            raise OracleError("sampler produced an element not below the cut")
        s = ct.shift_by(g, gamma, a)
        if ct.compare(g, s, cand) > 0:
            raise OracleError("a shifted cut exceeds the candidate supremum")
        if shifts and ct.compare(g, shifts[-1], s) > 0:
            raise OracleError("sampled chain of shifts is not ascending")
        shifts.append(s)
    return shifts


def _reference_least(g, cand, shifts, n):
    if not shifts:
        if cand.kind != "lo":
            raise OracleError("empty chain can only have supremum -inf")
        return
    probe = _probe_by_make_node(g, cand, n)
    if cand.kind == "hi":
        if all(ct.compare(g, s, probe) <= 0 for s in shifts):
            raise OracleError("chain does not grow towards +inf")
        return
    if ct.compare(g, probe, cand) < 0 and all(ct.compare(g, s, probe) <= 0 for s in shifts):
        raise OracleError("candidate is not approached by the sampled chain")


def descending(g, cut, n):
    return ascending_chain(g, cut, n)[::-1]


def leaving(g, cut, n):
    # climbs halfway, then steps past the cut
    chain = ascending_chain(g, cut, n)
    if not chain:
        return chain
    out = g.add(chain[-1], (3,) * g.num_atoms)
    return chain[: n // 2] + [out] * (n - n // 2)


def rising_then_falling(g, cut, n):
    # the upper half of the chain, then its lower half: with a candidate
    # below the sum it exceeds the candidate and then descends
    chain = ascending_chain(g, cut, n)
    return chain[n // 2:] + chain[: n // 2]


def stuck(g, cut, n):
    # repeats the chain's first element: not cofinal
    return ascending_chain(g, cut, 1) * n


def empty(g, cut, n):
    return []


def falling_behind_the_lead(g, cut, n):
    # the chain's first coordinates, with trailing ones that fall by 3 per
    # element: over two or more atoms, where first coordinates are equal,
    # it descends in the full order but ascends in the projection to the
    # first coordinate, so it passes under an a whose prefix is that one
    # coordinate
    chain = ascending_chain(g, cut, n)
    m = g.num_atoms
    return [g.add(x, (0,) + (-3 * i,) * (m - 1)) for i, x in enumerate(chain)]


def out_and_back(g, cut, n):
    # steps past the cut at three quarters of the chain, then returns
    # below it: the last element is below the cut, one before it is not
    chain = ascending_chain(g, cut, n)
    if not chain:
        return chain
    i = 3 * n // 4
    return chain[:i] + [g.add(chain[-1], (3,) * g.num_atoms)] + chain[i + 1:]


def _ascends_in_full_order(chain):
    return all(lex_cmp(x, y) <= 0 for x, y in zip(chain, chain[1:]))


def test_ordered_pass_raises_what_the_per_element_walk_raised():
    rng = random.Random(11)
    samplers = (ascending_chain, descending, leaving, rising_then_falling, stuck, empty,
                falling_behind_the_lead, out_and_back)
    outcomes = set()
    # candidates the element-by-element walk accepted on a chain of
    # falling_behind_the_lead that descends in the full order
    accepted_modulo_level = 0
    for d in (CutDom(Q), CutDom(Z), CutDom(Z2), CutDom(QQ), R2, XZ):
        g = d.group
        # oracle_sum verifies finite sums of finite operands only
        pool = [c for c in d.sample(rng, 60) if c.kind == "n"]
        for _ in range(40):
            a, b = rng.choice(pool), rng.choice(pool)
            s = d.add(a, b)
            for cand in [s] + _wrong_candidates(g, s):
                for sampler in samplers:
                    got = _verify_or_error(_verify, g, a, b, cand, sampler)
                    want = _verify_or_error(_reference_verify, g, a, b, cand, sampler)
                    assert got == want, (d.fmt(a), d.fmt(b), d.fmt(cand), sampler.__name__)
                    outcomes.add(got[1] if isinstance(got, tuple) else "ok")
                    if sampler is falling_behind_the_lead and got == cand:
                        accepted_modulo_level += not _ascends_in_full_order(sampler(g, b, 16))
    # every outcome of the walk was compared
    assert outcomes == {
        "ok",
        "a shifted cut exceeds the candidate supremum",
        "sampler produced an element not below the cut",
        "sampled chain of shifts is not ascending",
        "candidate is not approached by the sampled chain",
        "chain does not grow towards +inf",
        "empty chain can only have supremum -inf",
    }
    assert accepted_modulo_level > 0


def test_oracle_equivalence_on_cuts_q_r2():
    # the criterion-5 loop on the sqrt-2 anchored carrier, which the
    # standard carriers leave out; the last pair once raised a spurious
    # "not approached" at chain_len 8
    rng = random.Random(202)
    pool = R2.sample(rng, 400)
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(2000)]
    pairs.append((parse_cut(Q, "cut(-4/3)-"), parse_cut(Q, "fill(1/2-r2)")))
    for a, b in pairs:
        assert R2.add(a, b) == oracle_sum(Q, a, b), (R2.fmt(a), R2.fmt(b))
        assert R2.radd(a, b) == oracle_radd(Q, a, b), (R2.fmt(a), R2.fmt(b))
        assert R2.rsub(a, b) == oracle_diff(Q, "right", a, b), (R2.fmt(a), R2.fmt(b))
        assert R2.lsub(a, b) == oracle_diff(Q, "left", a, b), (R2.fmt(a), R2.fmt(b))


@pytest.mark.parametrize("d", [XZ, XQ, CutDom(Group.lex(Z, Q, Group.Zloc(3)))],
                         ids=["XZ", "XQ", "lex(Z,Q,Zloc(3))"])
def test_oracle_equivalence_on_crossed_and_mixed_products(d):
    # the criterion-5 loop on two crossed products, where the twist enters
    # each shift, and on a three-atom product of a discrete, a dense and a
    # local atom
    rng = random.Random(202)
    g = d.group
    pool = d.sample(rng, 400)
    for _ in range(1000):
        a, b = rng.choice(pool), rng.choice(pool)
        assert d.add(a, b) == oracle_sum(g, a, b), (d.fmt(a), d.fmt(b))
        assert d.radd(a, b) == oracle_radd(g, a, b), (d.fmt(a), d.fmt(b))
        assert d.rsub(a, b) == oracle_diff(g, "right", a, b), (d.fmt(a), d.fmt(b))
        assert d.lsub(a, b) == oracle_diff(g, "left", a, b), (d.fmt(a), d.fmt(b))


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


def test_a_callers_sampler_is_drawn_once_at_twice_the_chain_length():
    calls = []

    def recorded(g, cut, n):
        calls.append(n)
        return ascending_chain(g, cut, n)

    rng = random.Random(15)
    for d in (CutDom(Q), CutDom(Z), CutDom(QQ)):
        for a, b in zip(d.sample(rng, 20), d.sample(rng, 20)):
            calls.clear()
            assert oracle_sum(d.group, a, b, sampler=recorded) == d.add(a, b)
            infinite = "lo" in (a.kind, b.kind) or "hi" in (a.kind, b.kind)
            assert calls == ([] if infinite else [2 * oracle.CHAIN_LEN])


def test_oracle_rejects_chain_elements_outside_the_group():
    def halves(g, cut, n):
        # ascending and below cut(1)+, and its last shift reaches the sum,
        # but (1/2,) is no element of Z
        return [(F(1, 2),)] * (n - 1) + [(1,)]

    with pytest.raises(OracleError, match="outside the group"):
        oracle_sum(Z, parse_cut(Z, "cut(0)+"), parse_cut(Z, "cut(1)+"), sampler=halves)


def test_neg_inf_candidate_with_all_shifts_at_neg_inf():
    # every shift of -inf is -inf, so the candidate -inf is least
    b = parse_cut(Q, "cut(1)+")
    assert _verify(Q, ct.NEG_INF, b, ct.NEG_INF, 8, ascending_chain) is None
    # a finite a has finite shifts, all above the candidate -inf
    with pytest.raises(OracleError, match="a shifted cut exceeds"):
        _verify(Q, parse_cut(Q, "cut(0)+"), b, ct.NEG_INF, 8, ascending_chain)


# -- the walk memo ----------------------------------------------------------------


def _four_oracle_results(g, a, b, cold):
    calls = (lambda: oracle_sum(g, a, b), lambda: oracle_radd(g, a, b),
             lambda: oracle_diff(g, "right", a, b), lambda: oracle_diff(g, "left", a, b))
    out = []
    for call in calls:
        if cold:
            oracle._walks.clear()
        out.append(call())
    return out


def test_memo_gives_what_a_cold_oracle_gives():
    # criterion 5's seed, pools and pair draws on the four carriers; the
    # first quarter of each carrier's pairs is checked, with the memo
    # cleared before every call and warm
    rng = random.Random(202)
    for name, d in support.standard_cut_carriers().items():
        g = d.group
        pool = d.sample(rng, 400)
        pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(10_000)]
        for a, b in pairs[:2_500]:
            warm = _four_oracle_results(g, a, b, cold=False)
            assert _four_oracle_results(g, a, b, cold=True) == warm, (name, d.fmt(a), d.fmt(b))


def test_memo_stays_at_its_constant_size(monkeypatch):
    # an oracle-verify round: 4000 pairs from 256-element pools, carriers
    # in turn; a pair with finite operands walks b's and -b's chain once
    # each, two halves per chain, where four calls once walked eight
    walks = Counter()

    def counted(*args, _fn=oracle._walk_chain):
        walks["n"] += 1
        return _fn(*args)

    monkeypatch.setattr(oracle, "_walk_chain", counted)
    rng = random.Random(51)
    carriers = [(d, d.sample(rng, 256)) for d in (CutDom(Q), CutDom(Z), CutDom(Z2),
                                                 CutDom(QQ), R2)]
    finite = 0
    for i in range(4_000):
        d, pool = carriers[i % len(carriers)]
        a, b = rng.choice(pool), rng.choice(pool)
        _four_oracle_results(d.group, a, b, cold=False)
        finite += a.kind == b.kind == "n"
        assert len(oracle._walks) <= oracle.WALK_MEMO
    assert oracle.WALK_MEMO <= 4
    assert 0 < walks["n"] <= 4 * finite


def test_a_callers_sampler_never_reaches_the_memo():
    a, b = parse_cut(Q, "cut(0)-"), parse_cut(Q, "cut(1)-")

    def escaped(g, cut, n):
        return [(F(5),)] * n

    oracle_sum(Q, a, b)
    held = list(oracle._walks)
    for _ in range(2):
        with pytest.raises(OracleError, match="sampler produced an element not below the cut"):
            oracle_sum(Q, a, b, sampler=escaped)
        assert list(oracle._walks) == held


def test_a_remembered_walk_still_checks_the_candidate():
    a = parse_cut(Q, "cut(1)+")
    b = parse_cut(Q, "cut(1)+")
    oracle._walks.clear()
    assert oracle_sum(Q, a, b) == parse_cut(Q, "cut(2)+")
    assert len(oracle._walks) == 1 and oracle._walks[0][3] == b
    with pytest.raises(OracleError, match="a shifted cut exceeds the candidate supremum"):
        _verify(Q, a, b, parse_cut(Q, "cut(0)+"), oracle.CHAIN_LEN, ascending_chain)
    with pytest.raises(OracleError, match="not approached"):
        _verify(Q, a, b, parse_cut(Q, "cut(5)+"), oracle.CHAIN_LEN, ascending_chain)
    # the same b under an a with a shorter prefix is walked afresh
    om = parse_cut(QQ, "edge(1)+0")
    b = parse_cut(QQ, "cut(0,0)+")
    oracle_sum(QQ, parse_cut(QQ, "cut(1,1)+"), b)
    assert len(oracle._walks) == 2
    assert oracle_sum(QQ, om, b) == om
    assert [e[1] for e in oracle._walks][:2] == [1, 2]
