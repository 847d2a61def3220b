"""Valuations on carriers: maps into an ordered set with a minimum that
send the zero to the minimum, ignore the minus, and are subadditive on
the sum. Convex valuations refine by absolute value; strong ones turn
subadditivity into equality.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Optional

from domkit.doms import Dom


class Valuation:
    """A valuation presented by its value map and value-order comparator."""

    def __init__(self, source: Dom, name: str, value_of: Callable,
                 value_cmp: Callable, value_fmt: Callable = str):
        self.source = source
        self.name = name
        self.value_of = value_of
        self.value_cmp = value_cmp
        self.value_fmt = value_fmt

    def __call__(self, x):
        return self.value_of(x)

    def min_value(self):
        return self.value_of(self.source.zero())

    def is_min(self, v) -> bool:
        return self.value_cmp(v, self.min_value()) == 0


def width_valuation(d: Dom) -> Valuation:
    """x maps to its width; the zero width plays the bottom value."""
    return Valuation(d, "width", d.width_of, d.cmp, d.fmt)


def _archimedean_le(d: Dom, x, y, cap: int = 64) -> bool:
    """|x| <= some finite right-sum iterate of |y| (exact, by doubling).

    Iterates either stabilize (detected) or grow geometrically in one
    coordinate while the comparison against the fixed |x| is settled by
    more significant coordinates, so the cap cannot flip the verdict for
    anchors within its doubling range.
    """
    ax, ay = d.abs_of(x), d.abs_of(y)
    top = d.top()
    if top is not None and d.eq(ax, top):
        return d.eq(ay, top)  # finite iterates never reach the endpoint
    cur = ay
    for _ in range(cap):
        if d.le(ax, cur):
            return True
        nxt = d.radd(cur, cur)
        if d.eq(nxt, cur):
            return False
        cur = nxt
    return False


def natural_valuation(d: Dom) -> Valuation:
    """Quotient of the mutual-domination pre-order; the finest convex one."""

    def vcmp(a, b):
        le = _archimedean_le(d, a, b)
        ge = _archimedean_le(d, b, a)
        if le and ge:
            return 0
        return -1 if le else 1

    return Valuation(d, "natural", lambda x: x, vcmp, d.fmt)


def w_valuation(d: Dom) -> Valuation:
    """Lower edge of the witness widths: how wide a rider is needed.

    The value of x is the lower edge (inside the cuts of the width set)
    of the set of widths of elements y with y + width(x) = x or
    y - width(x) = x, as the carrier's ``witness_width`` gives it.
    Values are represented as "just below w" tokens; the bottom is just
    below the zero width.
    """

    def vcmp(a, b):
        return d.cmp(a[1], b[1])

    return Valuation(d, "w", lambda x: ("below", d.witness_width(x)), vcmp,
                     lambda tok: f"below({d.fmt(tok[1])})")


def trivial_valuation(d: Dom) -> Valuation:
    return Valuation(d, "trivial", lambda x: "bot", lambda a, b: 0)


def two_valued_valuation(d: Dom) -> Valuation:
    """Bottom on the zero and its opposite, one single value elsewhere."""
    zero, delta = d.zero(), d.delta()

    def value_of(x):
        return "bot" if d.eq(x, zero) or d.eq(x, delta) else "one"

    order = {"bot": 0, "one": 1}
    return Valuation(d, "two-valued", value_of,
                     lambda a, b: (order[a] > order[b]) - (order[a] < order[b]))


VAL_AXIOMS = ("V1", "V2", "V3", "V4", "strong")


def check_valuation(v: Valuation, which: Iterable[str] = VAL_AXIOMS,
                    universe: Optional[list] = None,
                    samples: int = 200, seed: int = 0) -> dict:
    """Axiom report with witnesses: bottom at zero, symmetry under the
    minus, subadditivity, convexity, strength."""
    d = v.source
    rng = random.Random(seed)
    if universe is None:
        universe = d.universe(rng, samples)
    which = list(which)
    report: dict = {}

    def pairs():
        exhaustive = d.iter_elements() is not None and len(universe) == len(d.iter_elements())
        if exhaustive:
            for x in universe:
                for y in universe:
                    yield x, y
        else:
            for _ in range(samples):
                yield rng.choice(universe), rng.choice(universe)

    if "V1" in which:
        ok = all(v.value_cmp(v.min_value(), v(x)) <= 0 for x in universe) \
            and v.is_min(v(d.zero()))
        report["V1"] = (ok, None if ok else (d.zero(),))
    if "V2" in which:
        w = next(((x,) for x in universe if v.value_cmp(v(d.neg(x)), v(x)) != 0), None)
        report["V2"] = (w is None, w)
    if "V3" in which:
        w = next(((x, y) for x, y in pairs()
                  if v.value_cmp(v(d.add(x, y)), _vmax(v, v(x), v(y))) > 0), None)
        report["V3"] = (w is None, w)
    if "V4" in which:
        w = next(((x, y) for x, y in pairs()
                  if d.le(d.abs_of(x), d.abs_of(y))
                  and v.value_cmp(v(x), v(y)) > 0), None)
        report["V4"] = (w is None, w)
    if "strong" in which:
        w = next(((x, y) for x, y in pairs()
                  if v.value_cmp(v(d.add(x, y)), _vmax(v, v(x), v(y))) != 0), None)
        report["strong"] = (w is None, w)
    return report


def _vmax(v: Valuation, a, b):
    return a if v.value_cmp(a, b) >= 0 else b


def coarsening_of(coarse: Valuation, fine: Valuation,
                  universe: Optional[list] = None,
                  samples: int = 200, seed: int = 0) -> bool:
    """Does the fine valuation determine the coarse one monotonically?"""
    d = coarse.source
    rng = random.Random(seed)
    if universe is None:
        universe = d.universe(rng, samples)
    for x in universe:
        for y in universe:
            if fine.value_cmp(fine(x), fine(y)) <= 0 \
                    and coarse.value_cmp(coarse(x), coarse(y)) > 0:
                return False
    return True


def valuation_partition(v: Valuation, universe: list) -> list[tuple]:
    """Group a universe by value, ordered by the value order."""
    groups: list[list] = []
    vals: list = []
    for x in universe:
        val = v(x)
        for i, existing in enumerate(vals):
            if v.value_cmp(val, existing) == 0:
                groups[i].append(x)
                break
        else:
            vals.append(val)
            groups.append([x])
    order = sorted(range(len(vals)),
                   key=lambda i: sum(1 for j in range(len(vals))
                                     if v.value_cmp(vals[j], vals[i]) < 0))
    return [(vals[i], groups[i]) for i in order]
