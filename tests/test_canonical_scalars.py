"""Integral coordinates are plain ``int``: the canonical-scalar invariant.

Every scalar the engine makes is canonical: an ``int`` when integral, a
``Fraction`` otherwise when rational, a ``Sqrt2`` with ``b != 0``
otherwise.  The form is a matter of speed only, so a cut built from
``Fraction`` coordinates must equal (and hash like) the one built from
canonical coordinates, and comparisons and floors must not depend on the
form of their arguments.
"""

import itertools
import math
import random
from fractions import Fraction as F

from hypothesis import given, strategies as st

from domkit import cuts as ct
from domkit.cuts import Cut, make_node
from domkit.doms import CutDom, GroupDom
from domkit.groups import FactorSet, Group
from domkit.oracle import oracle_sum
from domkit.scalars import Sqrt2, canon, scalar_cmp, scalar_floor
from support import Ref, is_canonical

Q = Group.Q()
Z = Group.Z()


def _carriers():
    twisted = Group.crossed(Z, Z, FactorSet({(1, 1): F(-2)}))
    return [CutDom(Q), CutDom(Z), CutDom(Group.Zloc(2)),
            CutDom(Group.lex(Q, Q)), CutDom(Q, "Qr2"), CutDom(twisted)]


def _as_fractions(cut):
    """The same cut with every rational coordinate a ``Fraction``, built
    around ``make_node`` so that the coordinates stay as given."""
    if cut.kind != "n":
        return cut
    prefix = tuple(v if isinstance(v, Sqrt2) else F(v) for v in cut.prefix)
    return Cut("n", cut.level, prefix, cut.side)


def _coords(cut):
    return cut.prefix if cut.kind == "n" else ()


def test_engine_results_have_canonical_coordinates():
    for i, d in enumerate(_carriers()):
        g = d.group
        rng = random.Random(300 + i)
        pool = d.sample(rng, 24)
        elems = [(n,) * g.num_atoms for n in (-2, 0, 3)]
        assert all(is_canonical(v) for x in pool for v in _coords(x)), d.name
        for a, b in itertools.product(pool, repeat=2):
            results = [ct.add(g, a, b), ct.radd(g, a, b), ct.neg(g, a),
                       ct.rsub(g, a, b), ct.lsub(g, a, b)]
            results += [ct.shift_by(g, gamma, a) for gamma in elems]
            for r in results:
                assert all(is_canonical(v) for v in _coords(r)), (d.name, a, b, r)
            # operands whose integral coordinates slipped through as
            # Fraction give the same, canonical, results
            fa, fb = _as_fractions(a), _as_fractions(b)
            mixed = [ct.add(g, fa, fb), ct.radd(g, fa, fb), ct.neg(g, fa),
                     ct.rsub(g, fa, fb), ct.lsub(g, fa, fb)]
            assert mixed == results[:5], (d.name, a, b)
            for r in mixed:
                assert all(is_canonical(v) for v in _coords(r)), (d.name, a, b, r)
        for x, y in itertools.product(elems + [g.zero()], repeat=2):
            for v in g.add(x, y) + g.neg(x):
                assert is_canonical(v), (d.name, x, y)


def test_oracle_results_have_canonical_coordinates():
    for i, d in enumerate(_carriers()[:4]):
        g = d.group
        pool = d.sample(random.Random(400 + i), 10)
        for a, b in itertools.product(pool, repeat=2):
            r = oracle_sum(g, a, b)
            assert all(is_canonical(v) for v in _coords(r)), (d.name, a, b, r)
            assert r == ct.add(g, a, b)


def test_group_constructors_are_canonical():
    QZ = Group.lex(Q, Z)
    for v in QZ.zero() + QZ.min_positive() + QZ.check_element((F(4, 2), 3)):
        assert type(v) is int
    assert QZ.check_element((F(1, 2), F(3))) == (F(1, 2), 3)
    assert type(QZ.check_element((F(1, 2), F(3)))[1]) is int
    assert all(type(v) is int for v in GroupDom(QZ).parse_literal("(2,-1)"))


GROUPS = [Q, Z, Group.Zloc(2), Group.lex(Q, Z), Group.lex(Z, Q), Group.lex(Q, Q)]


@st.composite
def raw_nodes(draw):
    """A level, a prefix of exact values and a side over one of GROUPS."""
    g = draw(st.sampled_from(GROUPS))
    level = draw(st.integers(0, g.num_atoms - 1))
    values = []
    for _ in range(g.num_atoms - level):
        num = draw(st.integers(-40, 40))
        den = draw(st.sampled_from([1, 1, 1, 2, 3, 4]))
        values.append(F(num, den))
    if draw(st.booleans()):
        values[-1] = Sqrt2(values[-1], draw(st.sampled_from([0, 1, -1, F(1, 2)])))
    side = draw(st.sampled_from([ct.MINUS, ct.FILLED, ct.PLUS]))
    return g, level, values, side


def _build(g, level, prefix, side):
    try:
        return make_node(g, level, prefix, side)
    except ValueError as exc:
        return str(exc)


@given(raw_nodes())
def test_make_node_ignores_the_scalar_form(node):
    g, level, values, side = node
    as_fraction = tuple(v if isinstance(v, Sqrt2) else F(v) for v in values)
    as_canon = tuple(canon(v) for v in values)
    a = _build(g, level, as_fraction, side)
    b = _build(g, level, as_canon, side)
    assert a == b
    if isinstance(a, Cut):
        assert hash(a) == hash(b)
        assert all(is_canonical(v) for v in a.prefix + b.prefix)


def _forms(a, b):
    """Every way the value a + b*sqrt2 may be written."""
    if b != 0:
        return [Sqrt2(a, b), Sqrt2(F(a), F(b))]
    out = [canon(a), F(a), Sqrt2(a, 0)]
    if F(a).denominator == 1:
        out.append(int(a))
    return out


exact = st.builds(F, st.integers(-10**4, 10**4), st.integers(1, 12))
coeff = st.one_of(st.just(F(0)), exact)


@given(exact, coeff, exact, coeff)
def test_cmp_and_floor_ignore_the_scalar_form(a, b, c, d):
    want = Ref(a - c, b - d).sign()
    for x, y in itertools.product(_forms(a, b), _forms(c, d)):
        assert scalar_cmp(x, y) == want, (x, y)
        assert scalar_cmp(y, x) == -want, (x, y)
    floors = {scalar_floor(x) for x in _forms(a, b)}
    assert len(floors) == 1
    f = floors.pop()
    assert type(f) is int
    if b == 0:
        assert f == math.floor(a)
    else:
        assert Ref(a - f, b).sign() >= 0 > Ref(a - f - 1, b).sign()


def test_canon_kinds():
    assert type(canon(F(6, 3))) is int and canon(F(6, 3)) == 2
    assert type(canon(F(1, 2))) is F
    assert type(canon(Sqrt2(F(3), 0))) is int
    assert canon(Sqrt2(F(1, 2), 0)) == F(1, 2)
    r = Sqrt2(1, 1)
    assert canon(r) is r
    assert type(canon(True)) is int and canon(True) == 1
    assert type(Sqrt2(F(2), F(4, 2)).a) is int
