"""Seeded inputs, built only through public constructors.

Every generator takes its randomness from ``random.Random`` seeded with a
string that names the seed, the workload and the carrier, so the same
``--seed`` gives the same inputs on every run and every machine, and a
different seed gives different ones.  The program under test receives
only the generated values; it never sees the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction as F
from typing import Iterator

from domkit.cuts import FILLED, MINUS, NEG_INF, PLUS, POS_INF, make_node
from domkit.doms import CutDom
from domkit.groups import Group
from domkit.scalars import Sqrt2

def make_carriers() -> dict[str, CutDom]:
    return {
        "cuts(Q)": CutDom(Group.Q()),
        "cuts(Z)": CutDom(Group.Z()),
        "cuts(Zloc(2))": CutDom(Group.Zloc(2)),
        "cuts(lex(Q,Q))": CutDom(Group.lex(Group.Q(), Group.Q())),
        "cuts(Q,r2)": CutDom(Group.Q(), "Qr2"),
    }


def rng_for(seed: int, *names: str) -> random.Random:
    return random.Random(":".join((str(seed),) + names))


def _members(atom) -> list:
    """Values inside the component, usable at any coordinate."""
    if atom.kind == "Z":
        return [F(n) for n in (-12, -7, -3, -2, -1, 0, 1, 2, 3, 7, 12)]
    if atom.kind == "Zloc":
        dens = [d for d in (1, 3, 5) if d % atom.p]
        return [F(n, d) for n in range(-4, 5) for d in dens]
    return [F(n, d) for n in range(-4, 5) for d in (1, 2, 3, 4)]


def _outside(atom, field: str) -> list:
    """Anchor values outside the component: level edges over Z (floored
    by ``make_node``), p-adic fractions over Zloc(p) and Q(sqrt 2)
    anchors over Q with the r2 field."""
    if atom.kind == "Z":
        return [F(1, 2), F(-3, 2), F(5, 3), F(-1, 3)]
    if atom.kind == "Zloc":
        p = atom.p
        return [F(1, p), F(3, p), F(-1, p), F(1, p * p), F(-5, p * p)]
    if field == "Qr2":
        return [Sqrt2(0, 1), Sqrt2(0, -1), Sqrt2(1, 1), Sqrt2(-1, 2),
                Sqrt2(F(1, 2), -1), Sqrt2(F(-1, 3), 1), Sqrt2(2, F(-1, 2))]
    return []


class CutSource:
    """Fresh seeded cuts of one carrier.

    Mixes the two infinities, level edges and their negatives, every
    level, every side and anchors outside the component.  Irrational
    values appear only at the anchor (last prefix) coordinate, which is
    the only place ``make_node`` admits them.
    """

    def __init__(self, d: CutDom, rng: random.Random):
        g = d.group
        self.g = g
        self.rng = rng
        self.members = [_members(a) for a in g.atoms]
        self.anchors = [_members(a) + _outside(a, d.field) for a in g.atoms]

    def cut(self, r: float | None = None):
        """One cut; ``r`` in [0, 1) picks its kind (infinity, level
        edge or general node) and its level, and is drawn when not given."""
        rng, g = self.rng, self.g
        m = g.num_atoms
        if r is None:
            r = rng.random()
        if r < 0.04:
            return NEG_INF if rng.random() < 0.5 else POS_INF
        if r < 0.10:
            level = int((r - 0.04) / 0.06 * m)
            side = PLUS if rng.random() < 0.5 else MINUS
            return make_node(g, level, (F(0),) * (m - level), side)
        level = int((r - 0.10) / 0.90 * m)
        last = m - level - 1
        prefix = tuple(rng.choice(self.members[i]) for i in range(last))
        prefix += (rng.choice(self.anchors[last]),)
        return make_node(g, level, prefix, rng.choice((MINUS, FILLED, PLUS)))

    def pool(self, count: int) -> list:
        """``count`` cuts whose kinds are stratified, so that pools of
        different seeds have nearly the same mix and cost."""
        out = [self.cut((i + self.rng.random()) / count) for i in range(count)]
        self.rng.shuffle(out)
        return out


def law_tuples(seed: int, carriers: dict) -> Iterator[tuple]:
    """Endless stream of (carrier name, 4-tuple), carriers in turn, each
    component drawn fresh."""
    sources = [(name, CutSource(d, rng_for(seed, "law-suite", name)))
               for name, d in carriers.items()]
    while True:
        for name, src in sources:
            yield name, (src.cut(), src.cut(), src.cut(), src.cut())


ORACLE_POOL = 256


def oracle_pairs(seed: int, carriers: dict) -> Iterator[tuple]:
    """Endless stream of (carrier name, pair), carriers in turn, both
    operands drawn from a small fixed pool per carrier so that every
    element recurs many times."""
    streams = []
    for name, d in carriers.items():
        rng = rng_for(seed, "oracle-verify", name)
        pool = CutSource(d, rng).pool(ORACLE_POOL)
        streams.append((name, pool, rng))
    while True:
        for name, pool, rng in streams:
            yield name, (rng.choice(pool), rng.choice(pool))
