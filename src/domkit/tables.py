"""Finite carriers given by explicit addition tables, and their search.

A finite carrier is its table: ``FiniteDom`` is both the n x n matrix
and the carrier, and every function here takes or returns it. A table
lives on the labeled chain 0 < 1 < ... < n-1. The minus is the
unique order anti-involution of the chain, i = n-1-i, and when the sign
axioms hold the neutral element is forced to sit at index n//2. The
neutral is found once, when a table is built; a table without one can
be validated, but it has no zero. The
enumerator searches symmetric row-monotone matrices with the neutral
row pinned and prunes with the per-cell sign constraints. Since the
neutral e's row and column are placed first, monotonicity bounds every
cell before the search starts: P[i][j] <= i left of column e and >= i
right of it, P[i][j] <= j above row e and >= j below it. The free cells
are placed in one static order per (n, e, axioms): by shell, the
Chebyshev distance max(|i-e|, |j-e|) from the neutral, outermost first;
within a shell by the width of the static bounds, narrowest first; then
row-major. Each cell is also bounded by the placed cells nearest to it
on either side in its row and in its column, worked out from the order
before the search starts. Each associativity triple is checked once,
when the last of its four lookups is placed. The order also fixes, for
each cell and each of its ordered pairs (a, b), the completion columns:
the c != e with (b, c) placed once the cell is. They are worked out
before the search starts, so the check walks only those columns; a
triple with c = e holds trivially. The neutral's pinned pairs (e, j)
and (j, e) are left out of the index of placed pairs by value, since
every triple they close holds. When MC' is asked for, it is checked on
every triple whose four lookups are placed each time a shell is
completed, the last cell included. Each leaf gets one independent final
pass on the search's own matrix: the whole-table kernels below are
called on its rows directly, associativity over all triples and, when
MC' is asked for, MC' over all triples; only a leaf passing both is
built as a table. The tables of one enumeration share their row tuples:
each row is stored once per call, in a dict of the distinct rows found
so far, and every table holds that stored tuple. Almost every row
repeats (677 distinct rows among the 35,424 rows of the 3,936 MA+MB
tables at n = 9), so a table holds one new tuple, of references to
its n rows, instead of n + 1 fresh tuples (112 bytes instead of 1,120
at n = 9). The store lives only for the call.

``validate`` checks associativity and MC' on all n^3 triples at once,
on a byte layout of the table that ``_layout`` builds once per call
(and the search once per leaf): ``rows[x]`` is row x as bytes,
``flat`` their concatenation (x + y at x*n + y), and
``pad`` the byte values n..255, which complete a row to a 256-byte
``bytes.translate`` table. Joining ``rows[v]`` over the bytes v of
``flat`` gives (x + y) + z at x*n*n + y*n + z; translating ``flat``
through each row gives x + (y + z) at the same index, so the first
index where the two strings differ is the lexicographically first
witness. MC' compares the same two joins over the rows of the right
difference. A byte holds 0..255, so tables of more than 256 elements
are refused by ``validate`` and by the search.
"""

from __future__ import annotations

from itertools import compress, count
from operator import attrgetter, itemgetter, lt, ne
from typing import Iterable, Sequence

from domkit import doms
from domkit.doms import Dom
from domkit.scalars import parse_int

# the byte layout holds entries 0..255
MAX_ELEMENTS = 256
_BYTE_VALUES = bytes(range(256))


class FiniteDom(Dom):
    """A finite carrier as its n x n addition table over the ordered
    carrier 0..n-1, with the forced minus i -> n-1-i. Two are equal when
    their tables are. ``neutral`` is the first e whose row and column are
    both the identity, or None: such a table can be validated, but it has
    no zero."""

    __slots__ = ("n", "plus", "neutral")

    def __init__(self, plus: Sequence[Sequence[int]]):
        n = len(plus)
        rows = []
        for row in plus:
            row = tuple(int(v) for v in row)
            if len(row) != n:
                raise ValueError("addition matrix must be square")
            if any(not 0 <= v < n for v in row):
                raise ValueError(f"table entry out of range 0..{n - 1}")
            rows.append(row)
        self.n = n
        self.plus = tuple(rows)
        identity = tuple(range(n))
        self.neutral = next((e for e, row in enumerate(rows) if row == identity
                             and all(r[e] == i for i, r in enumerate(rows))), None)

    @classmethod
    def _of(cls, plus: tuple, e: int) -> "FiniteDom":
        """Unchecked: ``plus`` is already a square tuple of int tuples with
        entries in 0..n-1 and identity row and column ``e``, as the search
        builds it."""
        t = object.__new__(cls)
        t.n = len(plus)
        t.plus = plus
        t.neutral = e
        return t

    @property
    def name(self):
        return f"table{self.n}"

    def __eq__(self, other):
        return isinstance(other, FiniteDom) and self.plus == other.plus

    def __hash__(self):
        return hash(self.plus)

    def __repr__(self):
        return f"FiniteDom({[list(r) for r in self.plus]})"

    def zero(self):
        if self.neutral is None:
            raise ValueError("table has no neutral element")
        return self.neutral

    def add(self, x, y):
        return self.plus[x][y]

    def neg(self, x):
        return self.n - 1 - x

    def cmp(self, x, y):
        return (x > y) - (x < y)

    def contains(self, x):
        return isinstance(x, int) and 0 <= x < self.n

    def iter_elements(self):
        return list(range(self.n))


def serialize_table(t: FiniteDom) -> str:
    lines = [str(t.n)]
    lines += [" ".join(str(v) for v in row) for row in t.plus]
    return "\n".join(lines) + "\n"


def parse_table(text: str) -> FiniteDom:
    rows = []
    n = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            n = parse_int(line)
            if n < 1:
                raise ValueError(f"table size {n} is below 1")
            continue
        rows.append([parse_int(tok) for tok in line.split()])
    if n is None:
        raise ValueError("empty table file")
    if len(rows) != n:
        raise ValueError(f"expected {n} rows, got {len(rows)}")
    return FiniteDom(rows)


def trivial_dom(n: int) -> FiniteDom:
    """Dominance-by-absolute-value addition on the n-chain."""
    if n < 1:
        raise ValueError("need at least one element")
    _check_size(n)
    top = n - 1

    def absval(i: int) -> int:
        return max(i, top - i)

    plus = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            ai, aj = absval(i), absval(j)
            plus[i][j] = i if ai > aj else (j if aj > ai else min(i, j))
    return FiniteDom(plus)


def _check_size(n: int) -> None:
    if n > MAX_ELEMENTS:
        raise ValueError(f"table size {n} exceeds {MAX_ELEMENTS}: entries are held in bytes")


def validate(t: FiniteDom, axioms: Iterable[str] = doms.ALL_AXIOMS) -> dict:
    """Per-law verdicts for a table, with minimal witnesses.

    Structural laws (neutral element, associativity, commutativity,
    monotonicity) are reported alongside the sign and comparison axioms;
    everything is checked exhaustively.  Associativity and MC' are
    checked over all n^3 triples at once on the byte layout of the
    table (see the module docstring), so a table of more than
    ``MAX_ELEMENTS`` elements is refused with ``ValueError``.
    """
    n = t.n
    _check_size(n)
    layout = _layout(t.plus)
    report: dict = {}
    axioms = list(axioms)
    e = t.neutral
    if "neutral" in axioms:
        report["neutral"] = (e is not None, None if e is not None else ())
    if e is None:
        for name in axioms:
            if name not in ("neutral", "comm", "PA", "assoc"):
                report[name] = (False, ())
    if "comm" in axioms:
        w = next(((x, y) for x in range(n) for y in range(n)
                  if t.plus[x][y] != t.plus[y][x]), None)
        report["comm"] = (w is None, w)
    if "PA" in axioms:
        w = next(((x, y, u) for x in range(n) for y in range(x + 1, n)
                  for u in range(n) if t.plus[x][u] > t.plus[y][u]), None)
        report["PA"] = (w is None, w)
    if "assoc" in axioms:
        report["assoc"] = _assoc_verdict(*layout)
    if e is None:
        return report

    rest = [a for a in axioms if a == "minus" or a in doms.M_AXIOMS]
    if rest:
        report.update(doms.check_axioms(t, universe=t.iter_elements(), which=rest))
    if "MCprime" in axioms:
        report["MCprime"] = _mcprime_verdict(*layout)
    return report


def _layout(plus) -> tuple:
    """The byte layout of a table: its rows as bytes, their concatenation
    and the pad that completes a row to a translate table."""
    rows = list(map(bytes, plus))
    return rows, b"".join(rows), _BYTE_VALUES[len(rows):]


def _triple(k: int, n: int) -> tuple:
    """The triple (x, y, z) at index x*n*n + y*n + z of a triple string."""
    x, yz = divmod(k, n * n)
    return (x, *divmod(yz, n))


def _assoc_verdict(rows: list, flat: bytes, pad: bytes) -> tuple:
    # (x + y) + z is row x + y: one row per entry of flat.  x + (y + z)
    # is flat read through row x: one translate per row
    # itemgetter of a single index returns the item, not a 1-tuple; at
    # n <= 1 the left string is flat itself
    left = b"".join(itemgetter(*flat)(rows)) if len(flat) > 1 else flat
    right = b"".join([flat.translate(r + pad) for r in rows])
    if left == right:
        return (True, None)
    return (False, _triple(next(compress(count(), map(ne, left, right))), len(rows)))


def _mcprime_verdict(rows: list, flat: bytes, pad: bytes) -> tuple:
    # MC' fails at (x, y, z) when (x + y) -R z < x + (y -R z).  With the
    # minus i -> top - i, a -R z = top - ((top - a) + z), so rsub[a], the
    # row of a -R z over all z, is row top - a read through the minus.
    # (x + y) -R z is row x + y of rsub; x + (y -R z) is the flattened
    # rsub read through row x
    minus = _BYTE_VALUES[len(rows) - 1::-1] + pad
    rsub = [r.translate(minus) for r in reversed(rows)]
    left = b"".join(map(rsub.__getitem__, flat))
    rsub_flat = b"".join(rsub)
    right = b"".join([rsub_flat.translate(r + pad) for r in rows])
    k = next(compress(count(), map(lt, left, right)), None)
    return (True, None) if k is None else (False, _triple(k, len(rows)))


# -- exhaustive search --------------------------------------------------------


def _neutral_candidates(n: int, axioms: frozenset) -> list[int]:
    # MA forces the neutral at or above the midpoint, MB at or below it
    lo = n // 2 if "MA" in axioms else 0
    hi = n // 2 if "MB" in axioms else n - 1
    return list(range(lo, hi + 1))


def enumerate_tables(n: int, axioms: Iterable[str] = doms.M_AXIOMS,
                     bound: int = 7) -> list[FiniteDom]:
    """All tables on the n-chain satisfying the requested axiom subset.

    ``axioms`` may contain MA, MB, MCa, MCb, MCprime; the structural
    laws (commutative ordered monoid with the forced minus) are always
    required.  Deterministic canonical (row-major lexicographic) order.
    """
    if n < 1:
        raise ValueError("need at least one element")
    _check_size(n)
    if n > bound:
        raise ValueError(f"size {n} exceeds the enumeration bound {bound}")
    axioms = frozenset(axioms).difference(doms.PREDOM_AXIOMS, ("predom",))
    unknown = axioms.difference(doms.ALL_AXIOMS)
    if unknown:
        raise ValueError(f"unknown axioms {sorted(unknown)}")
    results: list[FiniteDom] = []
    shared: dict = {}
    for e in _neutral_candidates(n, axioms):
        results.extend(_search_with_neutral(n, e, axioms, shared))
    results.sort(key=attrgetter("plus"))
    return results


def _search_with_neutral(n: int, e: int, axioms: frozenset, shared: dict) -> list[FiniteDom]:
    """The tables with neutral ``e``, in search order.  Their rows are
    taken from ``shared``, the distinct rows found so far in one
    enumeration, each stored once as both key and value."""
    top = n - 1
    delta = top - e
    need_mcprime = "MCprime" in axioms
    P = [[-1] * n for _ in range(n)]
    for j in range(n):
        P[e][j] = P[j][e] = j
    # where[v]: the placed ordered pairs (a, b) with P[a][b] == v, except
    # the neutral's (e, j) and (j, e): every triple they close holds
    where: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    # the bounds that hold before any other cell is placed
    static = {}
    for i in range(n):
        for j in range(i, n):
            if i == e or j == e:
                continue
            lo, hi = 0, top
            # monotone against the neutral's row and column: P[i][e] = i, P[e][j] = j
            if j < e:
                hi = min(hi, i)
            if j > e:
                lo = max(lo, i)
            if i < e:
                hi = min(hi, j)
            if i > e:
                lo = max(lo, j)
            if "MCb" in axioms and i + j == top:
                hi = min(hi, delta)
            if "MCa" in axioms and i + j > top:
                lo = max(lo, delta + 1)
            static[i, j] = (lo, hi)

    def shell(cell: tuple) -> int:
        return max(abs(cell[0] - e), abs(cell[1] - e))

    # outermost shell first; within a shell the narrowest static bounds
    # first, then row-major
    cells = sorted(static, key=lambda c: (-shell(c), static[c][1] - static[c][0], c))
    # per cell: its ordered pairs, each with its completion columns (the
    # c != e with (b, c) placed once the cell is), its static bounds, the
    # placed cells nearest to it on each side in its row i and its column
    # j (the column is row j by symmetry; the neutral's row and column are
    # left to the static bounds), and whether MC' is checked once it is
    # placed: at the end of each shell
    placed = [[k == e or i == e for k in range(n)] for i in range(n)]
    plan = []
    for idx, (i, j) in enumerate(cells):
        pairs = ((i, j),) if i == j else ((i, j), (j, i))
        below, above = [], []
        for r, k in pairs:
            left = next((c for c in range(k - 1, -1, -1) if placed[r][c]), e)
            right = next((c for c in range(k + 1, n) if placed[r][c]), e)
            if left != e:
                below.append((P[r], left))
            if right != e:
                above.append((P[r], right))
        placed[i][j] = placed[j][i] = True
        completions = tuple((a, b, tuple(c for c in range(n) if c != e and placed[b][c]))
                            for a, b in pairs)
        shell_end = idx + 1 == len(cells) or shell(cells[idx + 1]) != shell((i, j))
        plan.append((i, j, pairs, completions, *static[i, j], tuple(below), tuple(above),
                     need_mcprime and shell_end))
    out: list[FiniteDom] = []

    def assoc_ok_around(completions: tuple, v: int) -> bool:
        # Check once each triple (a, b, c) whose last lookup is the new
        # cell P[a][b] = v, (a, b) in the cell's pairs.  The lookups are
        # P[a][b], P[b][c], P[ab][c] and P[a][bc]; the mirror (c, b, a)
        # shares them and the equation, so the new cell is only sought as
        # P[a][b] or as P[ab][c].  Triples with c == e hold trivially.
        Pv = P[v]
        for a, b, cols in completions:
            Pa, Pb = P[a], P[b]
            for c in cols:
                left = Pv[c]
                if left >= 0:
                    right = Pa[Pb[c]]
                    if right >= 0 and right != left:
                        return False
            # the new cell as P[ab][c]: triples (x, y, b) with P[x][y] == a.
            # where[a] does not hold the new cell yet, and for y == a the
            # new cell is also P[y][b], which the loop above covered
            for x, y in where[a]:
                if y == a:
                    continue
                bc = P[y][b]
                if bc < 0:
                    continue
                if x == a and bc == b and a > b:
                    continue  # also P[a][bc]: its mirror came with the first pair
                right = P[x][bc]
                if right >= 0 and right != v:
                    return False
        return True

    def mcprime_ok_so_far() -> bool:
        # MC' on every triple whose four lookups are placed: it fails at
        # (x, y, z) when (x + y) -R z < x + (y -R z), with
        # a -R z = top - P[top - a][z]
        for px in P:
            for y, xy in enumerate(px):
                if xy < 0:
                    continue
                for xy_z, y_z in zip(P[top - xy], P[top - y]):
                    if xy_z >= 0 and y_z >= 0:
                        right = px[top - y_z]
                        if right >= 0 and top - xy_z < right:
                            return False
        return True

    def place(idx: int) -> None:
        if idx == len(plan):
            # one independent whole-table pass over the leaf
            layout = _layout(P)
            if _assoc_verdict(*layout)[0] and (
                    not need_mcprime or _mcprime_verdict(*layout)[0]):
                rows = list(map(tuple, P))
                out.append(FiniteDom._of(tuple(map(shared.setdefault, rows, rows)), e))
            return
        i, j, pairs, completions, lo, hi, below, above, check_mcprime = plan[idx]
        for row, k in below:
            if row[k] > lo:
                lo = row[k]
        for row, k in above:
            if row[k] < hi:
                hi = row[k]
        for v in range(lo, hi + 1):
            P[i][j] = P[j][i] = v
            if assoc_ok_around(completions, v) and (not check_mcprime or mcprime_ok_so_far()):
                where[v].extend(pairs)
                place(idx + 1)
                del where[v][-len(pairs):]
        P[i][j] = P[j][i] = -1

    place(0)
    return out
