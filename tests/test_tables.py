import itertools
import random
import tracemalloc
from fractions import Fraction as F

import pytest

from domkit import tables
from domkit.constructions import ShiftedMinusDom
from domkit.doms import GroupDom, check_axioms, classify_type
from domkit.groups import Group
from domkit.tables import (
    FiniteDom, enumerate_tables, parse_table, serialize_table, trivial_dom, validate,
)

# the three-element table failing only the backward comparison axiom
BAD3 = FiniteDom([(0, 0, 2), (0, 1, 2), (2, 2, 2)])
# the two four-element tables failing only the forward comparison axiom
BAD4A = FiniteDom([(0, 0, 0, 0), (0, 1, 1, 1), (0, 1, 2, 3), (0, 1, 3, 3)])
BAD4B = FiniteDom([(0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 2, 3), (0, 1, 3, 3)])
# and the one whose addition is not associative
NONASSOC = FiniteDom([(0, 0, 0, 0), (0, 0, 1, 3), (0, 1, 2, 3), (0, 3, 3, 3)])

CORE = ("neutral", "assoc", "comm", "PA", "minus", "MA", "MB", "MCa", "MCb")


def passes(t, axioms):
    return all(ok for ok, _ in validate(t, axioms).values())


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
        FiniteDom([(0, 0), (0,)])
    with pytest.raises(ValueError, match="rows"):
        parse_table("3\n0 0 0\n0 1 2\n")
    # a size below 1 is refused before any row is read
    for text in ("0\n", "-2\n"):
        with pytest.raises(ValueError, match="below 1"):
            parse_table(text)
    # sizes and entries are ASCII digit runs: int() would read these
    for text in ("+1\n0\n", "1_0\n", "\u0662\n0 0\n0 1\n", "2\n0 0\n0 +1\n",
                 "2\n0 0\n0 0_1\n", "2\n0 0\n0 \u0661\n", "2\n0 0\n0 1.\n"):
        with pytest.raises(ValueError, match="not an integer"):
            parse_table(text)


def test_validate_trivial_up_to_seven():
    for n in range(1, 8):
        assert passes(trivial_dom(n), CORE), n


def test_uniqueness_small_sizes():
    for n in range(1, 19):
        found = enumerate_tables(n, bound=n)
        assert found == [trivial_dom(n)], n


def test_enumeration_bound():
    with pytest.raises(ValueError, match="bound"):
        enumerate_tables(9)


def test_validate_refuses_more_than_256_elements():
    # entries are held in bytes; a table on 256 elements is the largest
    assert validate(trivial_dom(256), ("assoc",))["assoc"] == (True, None)
    with pytest.raises(ValueError, match="exceeds 256"):
        validate(FiniteDom([[0] * 257 for _ in range(257)]), ("assoc",))


def test_enumeration_refuses_more_than_256_elements(monkeypatch):
    # refused before any search starts, whatever the bound
    monkeypatch.setattr(tables, "_search_with_neutral", None)
    for n, bound in ((257, 257), (257, 10 ** 6), (1000, 7)):
        with pytest.raises(ValueError, match="exceeds 256"):
            enumerate_tables(n, bound=bound)


def test_a_table_without_neutral_has_no_zero():
    flat = FiniteDom([[0, 0], [0, 0]])
    assert flat.neutral is None
    with pytest.raises(ValueError, match="no neutral element"):
        flat.zero()


def test_enumeration_refuses_sizes_below_one():
    # the empty table has no neutral element, so it is no answer
    assert not validate(FiniteDom([]), ("neutral",))["neutral"][0]
    for n in (0, -3):
        with pytest.raises(ValueError, match="at least one"):
            enumerate_tables(n)


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


# recorded from the row-major search before the neutral row's bounds and
# the row-end MC' check were added to it; test_reference_search_matches_search
# derives the smaller sizes again by another search
RECORDED_COUNTS_AT_EIGHT = {frozenset(): 11634, frozenset({"MB"}): 6676}


def test_recorded_counts_at_eight():
    for axioms, expected in RECORDED_COUNTS_AT_EIGHT.items():
        assert len(enumerate_tables(8, axioms, bound=8)) == expected, sorted(axioms)


# recorded from the row-major search with the neutral row's bounds and the
# row-end MC' check, before cells were placed outermost shell first
RECORDED_COUNTS_AT_TEN = {frozenset({"MA", "MB"}): 20130}


def test_recorded_counts_at_ten():
    for axioms, expected in RECORDED_COUNTS_AT_TEN.items():
        assert len(enumerate_tables(10, axioms, bound=10)) == expected, sorted(axioms)


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
            t = FiniteDom(plus)
            if passes(t, ("neutral", "assoc", "comm", "PA", "minus")):
                yield t, validate(t, SEARCH_AXIOMS)


def test_brute_force_matches_search():
    for n in range(1, 5):
        found = sorted(brute_force_tables(n), key=lambda tr: tr[0].plus)
        for axioms in AXIOM_SUBSETS:
            expected = [t for t, rep in found if all(rep[a][0] for a in axioms)]
            assert enumerate_tables(n, axioms) == expected, (n, sorted(axioms))
            if (n, axioms) in GOLDEN_COUNTS:
                assert len(expected) == GOLDEN_COUNTS[n, axioms]


STRUCTURAL = ("neutral", "assoc", "comm", "PA", "minus")


def reference_search(n):
    """The leaves of a plain search on the n-chain that pass the structural
    laws, with their axiom reports.  For each neutral row it places the
    free cells of a symmetric matrix in column-major order and bounds each
    cell only by monotonicity against every placed cell: no sign bounds,
    no associativity or MC' during the search, everything at the leaf."""

    def place(P, cells, k):
        if k == len(cells):
            t = FiniteDom(P)
            # associativity first: it rejects most leaves, and cheaply
            if passes(t, ("assoc",)):
                rep = validate(t, STRUCTURAL + SEARCH_AXIOMS)
                if all(rep[a][0] for a in STRUCTURAL):
                    yield t, rep
            return
        i, j = cells[k]
        lo = max((P[a][b] for a in range(i + 1) for b in range(j + 1) if P[a][b] >= 0),
                 default=0)
        hi = min((P[a][b] for a in range(i, n) for b in range(j, n) if P[a][b] >= 0),
                 default=n - 1)
        for v in range(lo, hi + 1):
            P[i][j] = P[j][i] = v
            yield from place(P, cells, k + 1)
        P[i][j] = P[j][i] = -1

    for e in range(n):
        P = [[-1] * n for _ in range(n)]
        for k in range(n):
            P[e][k] = P[k][e] = k
        cells = [(i, j) for j in range(n) for i in range(j + 1) if e not in (i, j)]
        yield from place(P, cells, 0)


def test_reference_search_matches_search():
    # the brute force stops at n = 4; this search reaches 6 in seconds
    for n in (5, 6):
        found = sorted(reference_search(n), key=lambda tr: tr[0].plus)
        for axioms in AXIOM_SUBSETS:
            expected = [t for t, rep in found if all(rep[a][0] for a in axioms)]
            assert enumerate_tables(n, axioms) == expected, (n, sorted(axioms))


def test_search_pins_the_identity_row():
    # the search builds its tables unchecked, with the neutral it pinned
    for n in range(1, 7):
        for axioms in AXIOM_SUBSETS:
            for t in enumerate_tables(n, axioms):
                assert t.neutral == t.plus.index(tuple(range(n))), (n, sorted(axioms))


def test_tables_of_one_enumeration_share_their_rows():
    # one row object per distinct row across the tables of one call, and
    # each table equals and hashes like the table built from fresh rows
    for n in range(1, 8):
        for axioms in AXIOM_SUBSETS:
            found = enumerate_tables(n, axioms)
            rows = [r for t in found for r in t.plus]
            assert len({id(r) for r in rows}) == len(set(rows)), (n, sorted(axioms))
            for t in found:
                fresh = FiniteDom([list(r) for r in t.plus])
                assert t == fresh and hash(t) == hash(fresh), (n, sorted(axioms))


def test_enumerated_tables_retain_little_memory():
    # with the rows shared a table holds one tuple of references to its
    # rows, not n + 1 fresh tuples (about 1,000 bytes per table at n = 8)
    enumerate_tables(5, ())  # the interpreter's one-off allocations
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        found = enumerate_tables(8, (), bound=8)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(found) == 11634
    assert retained / len(found) < 512, retained / len(found)


def order_dual(t):
    """The table P'[i][j] = s(P[s(i)][s(j)]) under the order reversal
    s(i) = n-1-i of the chain."""
    s = t.n - 1
    return FiniteDom([[s - t.plus[s - i][s - j] for j in range(t.n)]
                      for i in range(t.n)])


# the tables of enumerate_tables(7, set()) by the index of their neutral
RECORDED_NEUTRAL_COUNTS_AT_SEVEN = [451, 308, 217, 194, 217, 308, 451]


def test_tables_closed_under_order_dual():
    # the order reversal commutes with the minus i -> n-1-i, so the dual of
    # a commutative, associative, monotone table with neutral e is one with
    # neutral n-1-e; checked without validate and without the search's own
    # checks, up to the 2,146 tables at n = 7
    for n in range(1, 8):
        found = enumerate_tables(n, set())
        identity = tuple(range(n))
        neutral = {t: t.plus.index(identity) for t in found}
        assert len(neutral) == len(found), n
        for t in found:
            dual = order_dual(t)
            assert dual in neutral, (n, t)
            assert neutral[dual] == n - 1 - neutral[t], (n, t)
        counts = [list(neutral.values()).count(e) for e in range(n)]
        assert counts == counts[::-1], n
    assert counts == RECORDED_NEUTRAL_COUNTS_AT_SEVEN


def sub_tables(t):
    """Every proper sub-table of t, relabeled onto its own chain: a subset
    that holds the neutral and is closed under the sum and the minus.  The
    minus closure makes it a union of mirror pairs {i, n-1-i}, and the
    neutral's pair is always in it."""
    n, e = t.n, t.neutral
    pairs = [p for p in {frozenset((i, n - 1 - i)) for i in range(n)}
             if e not in p]
    for r in range(len(pairs) + 1):
        for chosen in itertools.combinations(pairs, r):
            keep = sorted({e, n - 1 - e}.union(*chosen))
            if len(keep) == n:
                continue
            label = {x: i for i, x in enumerate(keep)}
            rows = [[label.get(t.plus[x][y]) for y in keep] for x in keep]
            if all(v is not None for row in rows for v in row):
                yield FiniteDom(rows)


# the sub-tables met over n <= 7 and all 32 axiom subsets, counted once per
# (table, subset)
RECORDED_SUB_TABLES_UP_TO_SEVEN = 41_926


def test_axiom_classes_closed_under_sub_tables():
    # every axiom is a universal sentence in zero, sum, minus and order, so
    # each class the search lists is closed under sub-tables: a table
    # missing at a smaller size shows up as a sub-table not in its list
    listed = {(n, axioms): set(enumerate_tables(n, axioms))
              for n in range(1, 8) for axioms in AXIOM_SUBSETS}
    subs = {}
    checked = 0
    for (n, axioms), found in listed.items():
        for t in found:
            if t not in subs:
                subs[t] = list(sub_tables(t))
            for s in subs[t]:
                assert s in listed[s.n, axioms], (t, s, sorted(axioms))
            checked += len(subs[t])
    assert checked == RECORDED_SUB_TABLES_UP_TO_SEVEN


def final_pass_verdicts(monkeypatch, kernel, sizes, axiom_sets):
    """The verdicts of the whole-table ``kernel`` in the final pass over
    every leaf the search reaches for these sizes and axiom sets, and the
    number of tables the search returned."""
    verdicts = []
    returned = 0
    real_kernel = getattr(tables, kernel)

    def spy(*args):
        verdict = real_kernel(*args)
        verdicts.append(verdict)
        return verdict

    monkeypatch.setattr(tables, kernel, spy)
    for n in sizes:
        for axioms in axiom_sets:
            returned += len(enumerate_tables(n, axioms))
    return verdicts, returned


def test_no_search_leaf_fails_mcprime(monkeypatch):
    # when MC' is asked for, it is checked on every placed triple as each
    # shell around the neutral is completed and after the last cell, so the
    # final pass over a leaf never finds a witness
    verdicts, returned = final_pass_verdicts(
        monkeypatch, "_mcprime_verdict", range(1, 8),
        ({"MCprime"}, {"MA", "MCprime"}, {"MB", "MCprime"}, {"MA", "MB", "MCprime"}))
    # every returned table went through the final pass
    assert len(verdicts) == returned > 500
    assert all(v == (True, None) for v in verdicts)


def test_no_search_leaf_fails_associativity(monkeypatch):
    # each associativity triple is checked when its last cell is placed,
    # so the final pass over a leaf never finds a witness
    verdicts, returned = final_pass_verdicts(
        monkeypatch, "_assoc_verdict", range(1, 7),
        (set(), {"MA"}, {"MB"}, {"MA", "MB"}, {"MA", "MB", "MCprime"}))
    # every returned table went through the final pass
    assert len(verdicts) == returned > 1000
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
            t = FiniteDom([[rng.randrange(n) for _ in range(n)] for _ in range(n)])
            if first_assoc_witness(t) is not None:
                cases.append(t)
    cases += [FiniteDom([[rng.randrange(n) for _ in range(n)] for _ in range(n)])
              for n in (1, 2, 3, 6, 9) for _ in range(100)]
    # the largest table the byte layout holds, with a witness in row 1
    plus = [list(row) for row in trivial_dom(256).plus]
    plus[1][1] = 0
    cases.append(FiniteDom(plus))
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
    for n in (7, 8, 9, 10):
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
    return FiniteDom(plus)


def test_mcprime_verdict_matches_generic_check():
    # the whole-table MC' kernel against the carrier-generic check, witness included
    rng = random.Random(7)
    cases = [random_symmetric_table(rng, n) for n in range(1, 7) for _ in range(150)]
    cases += [random_symmetric_table(rng, n) for n in (7, 8, 9) for _ in range(50)]
    cases += [t for n in range(1, 6) for t in enumerate_tables(n, {"MA", "MB"})]
    failing = 0
    for t in cases:
        expected = check_axioms(t, universe=t.iter_elements(), which=["MCprime"])["MCprime"]
        assert validate(t, ("MCprime",))["MCprime"] == expected, t
        failing += not expected[0]
    assert 0 < failing < len(cases)


def test_search_leaves_equal_checked_tables():
    for n in range(1, 7):
        for axioms in (set(), {"MB"}, {"MA", "MB", "MCprime"}):
            for t in enumerate_tables(n, axioms):
                checked = FiniteDom([list(row) for row in t.plus])
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
    displaced_up = ShiftedMinusDom(GroupDom(Group.Z()), (F(1),), "up")
    rep = check_axioms(displaced_up, samples=250, seed=0)
    assert not rep["MA"][0]
    assert all(rep[k][0] for k in ("MB", "MCa", "MCb", "MCprime", "assoc", "comm", "PA"))
    displaced_down = ShiftedMinusDom(GroupDom(Group.Z()), (F(-2),), "down")
    rep = check_axioms(displaced_down, samples=250, seed=0)
    assert not rep["MB"][0]
    assert all(rep[k][0] for k in ("MA", "MCa", "MCb", "MCprime", "assoc", "comm", "PA"))


def test_finite_type_partition():
    # odd sizes sit in the first type, even sizes in the third; the
    # second type needs an infinite narrow part
    for n in range(1, 8):
        d = trivial_dom(n)
        expected = "first" if n % 2 else "third"
        assert classify_type(d) == expected
        for x in d.iter_elements():
            assert d.width_of(x) == d.abs_of(x)


# truncated shifted-group chains realizing the sign-axiom failures as tables
SHIFTED_UP_4 = FiniteDom([(0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 3), (0, 3, 3, 3)])
SHIFTED_DOWN_3 = FiniteDom([(0, 0, 0), (0, 0, 1), (0, 1, 2)])


def test_each_axiom_fails_alone_on_some_table():
    witnesses = {"MA": SHIFTED_UP_4, "MB": SHIFTED_DOWN_3, "MCa": BAD4A, "MCb": BAD3}
    for axiom, t in witnesses.items():
        assert verdict(t) == {axiom}, axiom
    # and the search space contains no smaller MA-only witness
    for n in (2, 3):
        for t in enumerate_tables(n, {"MB", "MCa", "MCb"}):
            rep = validate(t, ("MA",))
            assert rep["MA"][0], t


@pytest.mark.parametrize("make,message", [
    (lambda: enumerate_tables(3, {"MA", "bogus"}), "unknown axioms ['bogus']"),
    (lambda: parse_table("# a comment and nothing else\n\n"), "empty table file"),
])
def test_refusals(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message
