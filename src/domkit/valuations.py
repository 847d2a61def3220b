"""Valuations on carriers: maps into an ordered set with a minimum that
send the zero to the minimum, ignore the minus, and are subadditive on
the sum. Convex valuations refine by absolute value; strong ones turn
subadditivity into equality.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import Callable, Iterable, Optional

from domkit.doms import Dom, check_laws, first_witness


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


def natural_valuation(d: Dom) -> Valuation:
    """Quotient of the mutual-domination pre-order; the finest convex one."""

    def vcmp(a, b):
        le = d.archimedean_le(a, b)
        ge = d.archimedean_le(b, a)
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
    bottom = functools.cache(v.min_value)  # evaluated only when V1 is checked
    laws = {
        "V1": (1, lambda x: v.value_cmp(bottom(), v(x)) > 0),
        "V2": (1, lambda x: v.value_cmp(v(d.neg(x)), v(x)) != 0),
        "V3": (2, lambda x, y: v.value_cmp(v(d.add(x, y)), _vmax(v, v(x), v(y))) > 0),
        "V4": (2, lambda x, y: d.le(d.abs_of(x), d.abs_of(y)) and v.value_cmp(v(x), v(y)) > 0),
        "strong": (2, lambda x, y: v.value_cmp(v(d.add(x, y)), _vmax(v, v(x), v(y))) != 0),
    }
    return check_laws(d, laws, universe, which, samples, seed)


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
    return first_witness(itertools.product(universe, repeat=2),
                         lambda x, y: fine.value_cmp(fine(x), fine(y)) <= 0
                         and coarse.value_cmp(coarse(x), coarse(y)) > 0)[0]


def valuation_partition(v: Valuation, universe: list) -> list[tuple]:
    """Group a universe by value, ordered by the value order: each class
    keeps its members in universe order and the value seen first."""
    key = functools.cmp_to_key(v.value_cmp)
    ranked = sorted(((key(v(x)), x) for x in universe), key=lambda p: p[0])
    # groupby's key of a class is that of its first member
    return [(k.obj, [x for _, x in cls])
            for k, cls in itertools.groupby(ranked, key=lambda p: p[0])]
