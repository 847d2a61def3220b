import itertools
import random
from fractions import Fraction as F

import pytest

from domkit import tables
from domkit.doms import ShiftedGroupDom, check_axioms, classify_type
from domkit.groups import Group
from domkit.tables import (
    FiniteDom, FiniteDomTable, enumerate_tables, parse_table, serialize_table,
    table_passes, trivial_dom, validate,
)

# the three-element table failing only the backward comparison axiom
BAD3 = FiniteDomTable([(0, 0, 2), (0, 1, 2), (2, 2, 2)])
# the two four-element tables failing only the forward comparison axiom
BAD4A = FiniteDomTable([(0, 0, 0, 0), (0, 1, 1, 1), (0, 1, 2, 3), (0, 1, 3, 3)])
BAD4B = FiniteDomTable([(0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 2, 3), (0, 1, 3, 3)])
# and the one whose addition is not associative
NONASSOC = FiniteDomTable([(0, 0, 0, 0), (0, 0, 1, 3), (0, 1, 2, 3), (0, 3, 3, 3)])

CORE = ("neutral", "assoc", "comm", "PA", "minus", "MA", "MB", "MCa", "MCb")


def verdict(t):
    rep = validate(t, CORE)
    return {k for k, (ok, _) in rep.items() if not ok}


def test_trivial_tables_shape():
    assert trivial_dom(3).plus == ((0, 0, 0), (0, 1, 2), (0, 2, 2))
    assert trivial_dom(4).plus == ((0, 0, 0, 0), (0, 1, 1, 3), (0, 1, 2, 3), (0, 3, 3, 3))
    assert trivial_dom(5).plus == (
        (0, 0, 0, 0, 0), (0, 1, 1, 1, 4), (0, 1, 2, 3, 4),
        (0, 1, 3, 3, 4), (0, 4, 4, 4, 4))
    assert trivial_dom(1).plus == ((0,),)


def test_counterexample_verdicts():
    assert verdict(trivial_dom(3)) == set()
    assert verdict(trivial_dom(4)) == set()
    assert verdict(trivial_dom(5)) == set()
    assert verdict(BAD3) == {"MCb"}
    assert verdict(BAD4A) == {"MCa"}
    assert verdict(BAD4B) == {"MCa"}
    assert verdict(NONASSOC) == {"assoc"}
    rep = validate(BAD3)
    assert rep["MCb"][1] == (0,)
    rep = validate(NONASSOC)
    assert rep["assoc"][1] == (1, 1, 3)


def test_round_trip_and_parse_errors():
    for t in (trivial_dom(3), BAD4A, NONASSOC, trivial_dom(7)):
        assert parse_table(serialize_table(t)) == t
    parsed = parse_table("# comment\n3\n0 0 0\n0 1 2  # zero row\n0 2 2\n")
    assert parsed == trivial_dom(3)
    with pytest.raises(ValueError, match="out of range"):
        parse_table("4\n0 0 0 0\n0 1 1 1\n0 1 2 4\n0 1 3 3\n")
    with pytest.raises(ValueError, match="square"):
        FiniteDomTable([(0, 0), (0,)])
    with pytest.raises(ValueError, match="rows"):
        parse_table("3\n0 0 0\n0 1 2\n")


def test_validate_trivial_up_to_seven():
    for n in range(1, 8):
        assert table_passes(trivial_dom(n), CORE), n


def test_uniqueness_small_sizes():
    for n in range(1, 7):
        found = enumerate_tables(n)
        assert found == [trivial_dom(n)], n


def test_enumeration_bound():
    with pytest.raises(ValueError, match="bound"):
        enumerate_tables(9)


GOLDEN_COUNTS = {
    # recorded from the search; test_brute_force_matches_search derives
    # them again with no pruning
    (3, frozenset()): 6,
    (3, frozenset({"MA"})): 4,
    (3, frozenset({"MB"})): 4,
    (3, frozenset({"MA", "MB"})): 2,
    (3, frozenset({"MA", "MB", "MCa"})): 2,
    (3, frozenset({"MA", "MB", "MCb"})): 1,
    (3, frozenset({"MA", "MB", "MCa", "MCb"})): 1,
    (4, frozenset()): 22,
    (4, frozenset({"MA"})): 11,
    (4, frozenset({"MB"})): 16,
    (4, frozenset({"MA", "MB"})): 5,
    (4, frozenset({"MA", "MB", "MCa"})): 3,
    (4, frozenset({"MA", "MB", "MCb"})): 3,
    (4, frozenset({"MA", "MB", "MCa", "MCb"})): 1,
}


def test_golden_counts():
    for (n, axioms), expected in GOLDEN_COUNTS.items():
        assert len(enumerate_tables(n, axioms)) == expected, (n, sorted(axioms))


SEARCH_AXIOMS = ("MA", "MB", "MCa", "MCb", "MCprime")
AXIOM_SUBSETS = [frozenset(c) for r in range(len(SEARCH_AXIOMS) + 1)
                 for c in itertools.combinations(SEARCH_AXIOMS, r)]


def brute_force_tables(n):
    """Every symmetric matrix on the n-chain with some row pinned to the
    identity, passing the structural laws, with its axiom report."""
    for e in range(n):
        cells = [(i, j) for i in range(n) for j in range(i, n) if e not in (i, j)]
        for values in itertools.product(range(n), repeat=len(cells)):
            plus = [[-1] * n for _ in range(n)]
            for k in range(n):
                plus[e][k] = plus[k][e] = k
            for (i, j), v in zip(cells, values):
                plus[i][j] = plus[j][i] = v
            t = FiniteDomTable(plus)
            if table_passes(t, ("neutral", "assoc", "comm", "PA", "minus")):
                yield t, validate(t, SEARCH_AXIOMS)


def test_brute_force_matches_search():
    for n in range(1, 5):
        found = sorted(brute_force_tables(n), key=lambda tr: tr[0].plus)
        for axioms in AXIOM_SUBSETS:
            expected = [t for t, rep in found if all(rep[a][0] for a in axioms)]
            assert enumerate_tables(n, axioms) == expected, (n, sorted(axioms))
            if (n, axioms) in GOLDEN_COUNTS:
                assert len(expected) == GOLDEN_COUNTS[n, axioms]


def test_no_search_leaf_fails_associativity(monkeypatch):
    # each associativity triple is checked when its last cell is placed,
    # so the final pass over a leaf never finds a witness
    verdicts = []
    real_validate = tables.validate

    def spy(t, *args):
        rep = real_validate(t, *args)
        if "assoc" in rep:
            verdicts.append(rep["assoc"])
        return rep

    monkeypatch.setattr(tables, "validate", spy)
    for n in range(1, 7):
        for axioms in (set(), {"MB"}, {"MA", "MB"}, {"MA", "MB", "MCprime"}):
            enumerate_tables(n, axioms)
    assert len(verdicts) > 1000
    assert all(v == (True, None) for v in verdicts)


def first_assoc_witness(t):
    n, p = t.n, t.plus
    return next(((x, y, z) for x in range(n) for y in range(n) for z in range(n)
                 if p[p[x][y]][z] != p[x][p[y][z]]), None)


def test_assoc_witness_is_first_in_lexicographic_order():
    rng = random.Random(3)
    cases = [NONASSOC, BAD3, BAD4A, trivial_dom(5)]
    for n in (4, 5):
        while len(cases) < 4 + 200 * (n - 3):
            t = FiniteDomTable([[rng.randrange(n) for _ in range(n)] for _ in range(n)])
            if first_assoc_witness(t) is not None:
                cases.append(t)
    for t in cases:
        w = first_assoc_witness(t)
        assert validate(t, ("assoc",))["assoc"] == (w is None, w), t


def test_counterexamples_found_by_search():
    assert BAD3 in enumerate_tables(3, {"MA", "MB", "MCa"})
    found4 = enumerate_tables(4, {"MA", "MB", "MCb"})
    assert BAD4A in found4 and BAD4B in found4


def test_mcprime_equivalence():
    for n in range(1, 7):
        with_prime = enumerate_tables(n, {"MA", "MB", "MCprime"})
        full = enumerate_tables(n, {"MA", "MB", "MCa", "MCb"})
        assert with_prime == full, n
        for t in with_prime:
            rep = validate(t, ("MCa", "MCb"))
            assert rep["MCa"][0] and rep["MCb"][0]


def test_mcprime_equivalence_beyond_six():
    for n in (7, 8):
        assert enumerate_tables(n, {"MA", "MB", "MCprime"}, bound=n) == \
            enumerate_tables(n, {"MA", "MB", "MCa", "MCb"}, bound=n), n


def random_symmetric_table(rng, n):
    """A symmetric matrix on the n-chain with one row pinned to the identity."""
    e = rng.randrange(n)
    plus = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i):
            plus[i][j] = plus[j][i]
    for k in range(n):
        plus[e][k] = plus[k][e] = k
    return FiniteDomTable(plus)


def test_mcprime_verdict_matches_generic_check():
    # the row-wise MC' check against the carrier-generic one, witness included
    rng = random.Random(7)
    cases = [random_symmetric_table(rng, n) for n in range(1, 7) for _ in range(150)]
    cases += [t for n in range(1, 6) for t in enumerate_tables(n, {"MA", "MB"})]
    failing = 0
    for t in cases:
        d = FiniteDom(t)
        expected = check_axioms(d, universe=d.iter_elements(), which=["MCprime"])["MCprime"]
        assert validate(t, ("MCprime",))["MCprime"] == expected, t
        failing += not expected[0]
    assert 0 < failing < len(cases)


def test_search_leaves_equal_checked_tables():
    for n in range(1, 7):
        for axioms in (set(), {"MB"}, {"MA", "MB", "MCprime"}):
            for t in enumerate_tables(n, axioms):
                checked = FiniteDomTable([list(row) for row in t.plus])
                assert t == checked and hash(t) == hash(checked)
                assert t.n == n and type(t.plus) is tuple
                assert all(type(row) is tuple and len(row) == n for row in t.plus)
                assert all(type(v) is int for row in t.plus for v in row)


def test_axiom_independence_witnesses():
    # comparison axioms: witnessed by finite tables
    for t, failing in ((BAD3, "MCb"), (BAD4A, "MCa"), (BAD4B, "MCa")):
        rep = validate(t, CORE)
        assert not rep[failing][0]
        others = {k for k, (ok, _) in rep.items() if not ok}
        assert others == {failing}
    # sign axioms: witnessed by groups with a displaced minus
    displaced_up = ShiftedGroupDom(Group.Z(), (F(1),))
    rep = check_axioms(displaced_up, samples=250, seed=0)
    assert not rep["MA"][0]
    assert all(rep[k][0] for k in ("MB", "MCa", "MCb", "MCprime", "assoc", "comm", "PA"))
    displaced_down = ShiftedGroupDom(Group.Z(), (F(-2),))
    rep = check_axioms(displaced_down, samples=250, seed=0)
    assert not rep["MB"][0]
    assert all(rep[k][0] for k in ("MA", "MCa", "MCb", "MCprime", "assoc", "comm", "PA"))


def test_finite_type_partition():
    # odd sizes sit in the first type, even sizes in the third; the
    # second type needs an infinite narrow part
    for n in range(1, 8):
        d = FiniteDom(trivial_dom(n))
        expected = "first" if n % 2 else "third"
        assert classify_type(d) == expected
        for x in d.iter_elements():
            assert d.width_of(x) == d.abs_of(x)


# truncated shifted-group chains realizing the sign-axiom failures as tables
SHIFTED_UP_4 = FiniteDomTable([(0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 3), (0, 3, 3, 3)])
SHIFTED_DOWN_3 = FiniteDomTable([(0, 0, 0), (0, 0, 1), (0, 1, 2)])


def test_each_axiom_fails_alone_on_some_table():
    witnesses = {"MA": SHIFTED_UP_4, "MB": SHIFTED_DOWN_3, "MCa": BAD4A, "MCb": BAD3}
    for axiom, t in witnesses.items():
        assert verdict(t) == {axiom}, axiom
    # and the search space contains no smaller MA-only witness
    for n in (2, 3):
        for t in enumerate_tables(n, {"MB", "MCa", "MCb"}):
            rep = validate(t, ("MA",))
            assert rep["MA"][0], t
