"""Reference checks for finite addition tables, written from the axioms.

Nothing here calls domkit: tables are plain tuples of rows on the chain
0 < 1 < ... < n-1 with the forced minus i -> n-1-i, and every law is
evaluated straight from its definition.  ``brute_force`` enumerates
tables by a plain product over the symmetric matrices with a neutral
row, with no pruning, so counts for small n do not depend on the
program's search.
"""

from __future__ import annotations

import itertools

STRUCTURAL = ("neutral", "assoc", "comm", "PA", "minus")
# the labels and order of `dom check-table`
LABELS = (("neutral", "monoid"), ("assoc", "associativity"), ("comm", "commutativity"),
          ("PA", "PA"), ("minus", "minus"), ("MA", "MA"), ("MB", "MB"),
          ("MCa", "MC(a)"), ("MCb", "MC(b)"), ("MCprime", "MC'"))


def trivial(n: int) -> tuple:
    """Dominance by absolute value: the larger |i| wins, ties go to the
    smaller element."""
    top = n - 1

    def absval(i):
        return max(i, top - i)

    return tuple(tuple(i if absval(i) > absval(j) else j if absval(j) > absval(i)
                       else min(i, j) for j in range(n)) for i in range(n))


def _neutral(plus):
    n = len(plus)
    return next((c for c in range(n) if all(plus[c][j] == j for j in range(n))), None)


def _laws(plus, e) -> dict:
    """One zero-argument check per law, evaluated lazily."""
    n = len(plus)
    rng = range(n)

    def neg(x):
        return n - 1 - x

    def rsub(x, y):
        # x +R (-y) = -((-x) + y)
        return neg(plus[neg(x)][y])

    return {
        "neutral": lambda: e is not None,
        "assoc": lambda: all(plus[plus[x][y]][z] == plus[x][plus[y][z]]
                             for x in rng for y in rng for z in rng),
        "comm": lambda: all(plus[x][y] == plus[y][x] for x in rng for y in rng),
        "PA": lambda: all(plus[x][u] <= plus[y][u]
                          for x in rng for y in range(x + 1, n) for u in rng),
        # the chain reversal is an order-reversing involution
        "minus": lambda: e is not None,
        "MA": lambda: e is not None and neg(e) <= e,
        "MB": lambda: e is not None and all(max(x, neg(x)) >= e for x in rng),
        "MCa": lambda: e is not None and all(rsub(x, y) < e
                                             for x in rng for y in range(x + 1, n)),
        "MCb": lambda: e is not None and all(rsub(x, x) >= e for x in rng),
        "MCprime": lambda: e is not None and all(
            rsub(plus[x][y], z) >= plus[x][rsub(y, z)]
            for x in rng for y in rng for z in rng),
    }


def verdicts(plus) -> dict:
    """Pass/fail of every law in ``LABELS`` on one table."""
    return {key: check() for key, check in _laws(plus, _neutral(plus)).items()}


def passes(plus, axioms) -> bool:
    """The structural laws and the given axioms all hold."""
    laws = _laws(plus, _neutral(plus))
    return all(laws[k]() for k in STRUCTURAL + tuple(axioms))


def canonical(tables) -> bool:
    """Strictly increasing in row-major order: sorted, no duplicates."""
    return all(a < b for a, b in zip(tables, tables[1:]))


def brute_force(n: int) -> list[tuple]:
    """Every table on the n-chain satisfying the structural laws, by a
    product over symmetric matrices with some neutral row."""
    found = set()
    for e in range(n):
        cells = [(i, j) for i in range(n) for j in range(i, n) if e not in (i, j)]
        for values in itertools.product(range(n), repeat=len(cells)):
            m = [[-1] * n for _ in range(n)]
            for j in range(n):
                m[e][j] = m[j][e] = j
            for (i, j), v in zip(cells, values):
                m[i][j] = m[j][i] = v
            t = tuple(map(tuple, m))
            if passes(t, ()):
                found.add(t)
    return sorted(found, key=lambda t: [v for row in t for v in row])


def parse_tables(text: str) -> tuple[int, list[tuple]]:
    """Count and tables from the stdout of `dom enumerate`."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("count: "):
        raise ValueError("no count line")
    count = int(lines[0][len("count: "):])
    tables, i = [], 1
    while i < len(lines):
        if not lines[i].startswith("# table "):
            raise ValueError(f"unexpected line {lines[i]!r}")
        n = int(lines[i + 1])
        tables.append(tuple(tuple(int(v) for v in lines[i + 2 + r].split()) for r in range(n)))
        i += 2 + n
    return count, tables


def serialize(plus) -> str:
    return "\n".join([str(len(plus))] + [" ".join(map(str, row)) for row in plus]) + "\n"
