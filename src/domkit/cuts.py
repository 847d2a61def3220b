"""Symbolic Dedekind cuts of a computable ordered Abelian group.

A finite cut is stored as a *node* ``(level k, prefix, side)``:

* ``level`` indexes the convex subgroup H_k that stabilizes the cut
  (k trailing coordinates are absorbed);
* ``prefix`` is an element of G/H_k whose last coordinate -- the
  *anchor* -- may live in a decidable extension of the component
  (another rational, or a Q(sqrt 2) value), the other coordinates are
  ordinary component members;
* ``side`` records whether the prefix is a realized maximum of the left
  part (PLUS), a realized minimum of the right part (MINUS), or sits
  strictly between both parts (FILLED, anchor outside the component).

``-inf`` and ``+inf`` are separate sentinels.  All constructors
canonicalize: over a discrete component the predecessor form is folded
into the successor form (the two describe the same cut), so equality of
cuts is plain structural equality.

``make_node`` is the checked entry point for outside input: it checks the
level, the prefix length and the membership of every non-anchor
coordinate, then canonicalizes.  The engine operations ``add``, ``radd``
and ``neg`` only canonicalize their results, without re-checking them:
their operands are cuts, already checked, and group addition and
negation keep non-anchor coordinates inside their components (a crossed
product raises when its factor set leaves the fiber).  They sum and
negate prefixes with the group's own ``add`` and ``neg``, which take a
prefix as an element of the quotient G/H_k (a crossed product applies
its factor-set twist there), so the engine never looks at the group's
kind.  ``compare`` decides two one-coordinate prefixes inline and longer
ones with ``lex_cmp``.

``member_below``, ``member_above`` and ``shift_by`` read a group element
at a cut's level as its first ``len(prefix)`` coordinates, its image in
G/H_k: ``lex_cmp`` compares up to the end of the shorter tuple.

The carrier layer answers for the cut invariants: the width of a
level-k cut is ``level_edge(g, k)``, which ``doms.CutDom.width_of``
returns, and its signature is ``doms.sign_of``.

``approach_below`` is the one approximation helper, for the oracle's
chains; a group element between two given cuts is computed from their
anchors where it is needed (``doms.CutDom.lambda_map``).
"""

from __future__ import annotations

from domkit.groups import Group, lex_cmp, parse_coords
from domkit.scalars import (
    Scalar, canon, format_scalar, parse_int, ratio, scalar_ceil_times, scalar_cmp,
    scalar_floor,
)

MINUS, FILLED, PLUS = -1, 0, 1


class Cut:
    __slots__ = ("kind", "level", "prefix", "side")

    def __init__(self, kind: str, level: int = 0, prefix: tuple = (), side: int = PLUS):
        self.kind = kind          # 'n' node, 'lo' -inf, 'hi' +inf
        self.level = level
        self.prefix = prefix
        self.side = side

    @property
    def anchor(self) -> Scalar:
        return self.prefix[-1]

    def __eq__(self, other):
        if not isinstance(other, Cut):
            return NotImplemented
        if self.kind != other.kind:
            return False
        if self.kind != "n":
            return True
        return (self.level, self.prefix, self.side) == (other.level, other.prefix, other.side)

    def __hash__(self):
        if self.kind != "n":
            return hash(self.kind)
        return hash((self.level, self.prefix, self.side))

    def __repr__(self):
        if self.kind == "lo":
            return "Cut(-inf)"
        if self.kind == "hi":
            return "Cut(+inf)"
        return f"Cut(level={self.level}, prefix={self.prefix!r}, side={self.side})"


NEG_INF = Cut("lo")
POS_INF = Cut("hi")


def make_node(g: Group, level: int, prefix: tuple, side: int) -> Cut:
    """Build (and canonicalize) the level-``level`` node with given prefix."""
    m = _check_level(g, level)
    prefix = tuple(map(canon, prefix))
    if len(prefix) != m - level:
        raise ValueError(f"level-{level} prefix needs {m - level} coordinates")
    for atom, v in zip(g.atoms, prefix[:-1]):
        if not atom.contains(v):
            raise ValueError(f"prefix coordinate {format_scalar(v)} outside {atom.format()}")
    return _node(g, level, prefix, side)


def _check_level(g: Group, level: int) -> int:
    """The number of atoms of g, after checking that g has finite cuts at
    ``level``."""
    m = g.num_atoms
    if m == 0:
        raise ValueError("the trivial group has no finite cuts")
    if not 0 <= level < m:
        raise ValueError(f"cut level {level} out of range 0..{m - 1}")
    return m


def _node(g: Group, level: int, prefix: tuple, side: int) -> Cut:
    """Canonical node for an already checked level and prefix.

    Over a discrete component the anchor is folded into the successor
    form; over a dense one a member anchor is never FILLED and an anchor
    outside the component always is. An ``int`` anchor is a member of
    every component. Every anchor is canonical (``make_node``
    canonicalizes, the scalar kernels return canonical values), so one
    that is not an ``int`` lies outside Z.
    """
    anchor = prefix[-1]
    if type(anchor) is int:
        if side == PLUS:
            return Cut("n", level, prefix, PLUS)
        if g.atoms[len(prefix) - 1].discrete:
            return Cut("n", level, prefix[:-1] + (anchor - 1,), PLUS)
        return Cut("n", level, prefix, MINUS)
    atom = g.atoms[len(prefix) - 1]
    if atom.discrete:  # a canonical anchor outside Z: floor it
        return Cut("n", level, prefix[:-1] + (scalar_floor(anchor),), PLUS)
    if atom.contains(anchor):
        if side == FILLED:
            side = MINUS
    else:
        side = FILLED
    return Cut("n", level, prefix, side)


def zero_cut(g: Group) -> Cut:
    """The neutral element of the cut carrier (upper edge of {0})."""
    if g.num_atoms == 0:
        return POS_INF
    return level_edge(g, 0)


# -- order and membership ------------------------------------------------


def member_below(g: Group, gamma: tuple, cut: Cut) -> bool:
    """gamma < cut, i.e. gamma lies in the left part."""
    if cut.kind == "lo":
        return False
    if cut.kind == "hi":
        return True
    c = lex_cmp(gamma, cut.prefix)  # gamma's image at the cut's level
    return c < 0 or (c == 0 and cut.side == PLUS)


def member_above(g: Group, gamma: tuple, cut: Cut) -> bool:
    """gamma > cut, i.e. gamma lies in the right part."""
    if cut.kind == "lo":
        return True
    if cut.kind == "hi":
        return False
    c = lex_cmp(gamma, cut.prefix)
    return c > 0 or (c == 0 and cut.side == MINUS)


_RANK = {"lo": -1, "n": 0, "hi": 1}


def compare(g: Group, a: Cut, b: Cut) -> int:
    if a is b:
        return 0
    if a.kind != "n" or b.kind != "n":
        ra, rb = _RANK[a.kind], _RANK[b.kind]
        return (ra > rb) - (ra < rb)
    if a.level == b.level:
        pa, pb = a.prefix, b.prefix
        if len(pa) == 1:
            u, v = pa[0], pb[0]
            if type(u) is int and type(v) is int:
                c = (u > v) - (u < v)
            else:
                c = scalar_cmp(u, v)
        else:
            c = lex_cmp(pa, pb)
        if c:
            return c
        return (a.side > b.side) - (a.side < b.side)
    flip = 1
    hi, lo = a, b
    if a.level < b.level:
        hi, lo, flip = b, a, -1
    c = lex_cmp(hi.prefix, lo.prefix)  # up to the end of the shorter hi.prefix
    if c:
        return c * flip
    # the wider cut sits just past the shared prefix, on its own side
    return (1 if hi.side == PLUS else -1) * flip


# -- minus ---------------------------------------------------------------


def neg(g: Group, cut: Cut) -> Cut:
    if cut.kind == "lo":
        return POS_INF
    if cut.kind == "hi":
        return NEG_INF
    return _node(g, cut.level, g.neg(cut.prefix), -cut.side)


# -- addition: left sum, right sum, differences ---------------------------


def add(g: Group, a: Cut, b: Cut) -> Cut:
    """Left sum: upper edge of the sum of the left parts."""
    if a.kind == "lo" or b.kind == "lo":
        return NEG_INF
    if a.kind == "hi" or b.kind == "hi":
        return POS_INF
    # lift both left parts to the wider level k: the narrower cut's left
    # part, seen modulo H_k, has its truncated prefix as a maximum
    k = a.level
    pa, sa, pb, sb = a.prefix, a.side, b.prefix, b.side
    if b.level > k:
        k = b.level
        pa, sa = pa[:len(pb)], PLUS
    elif b.level < k:
        pb, sb = pb[:len(pa)], PLUS
    p = g.add(pa, pb)
    if sa == FILLED or sb == FILLED:
        side = FILLED  # _node makes it MINUS when the anchor is a member
    else:
        side = PLUS if (sa == PLUS and sb == PLUS) else MINUS
    return _node(g, k, p, side)


def radd(g: Group, a: Cut, b: Cut) -> Cut:
    """Right sum: lower edge of the sum of the right parts."""
    if a.kind == "hi" or b.kind == "hi":
        return POS_INF
    if a.kind == "lo" or b.kind == "lo":
        return NEG_INF
    k = a.level if a.level > b.level else b.level
    pa, pb = a.prefix, b.prefix
    n = len(g.atoms) - k
    # lift both right parts to the wider level k: a longer prefix is
    # truncated and its minimum attained; over a discrete anchor atom a
    # PLUS cut's right part starts at the successor, attained; a MINUS
    # cut's minimum is its prefix; otherwise there is no minimum
    discrete = g.atoms[n - 1].discrete
    attained = True
    if len(pa) > n:
        pa = pa[:n]
    elif a.side == PLUS and discrete:
        pa = pa[:-1] + (pa[-1] + 1,)
    elif a.side != MINUS:
        attained = False
    if len(pb) > n:
        pb = pb[:n]
    elif b.side == PLUS and discrete:
        pb = pb[:-1] + (pb[-1] + 1,)
    elif b.side != MINUS:
        attained = False
    p = g.add(pa, pb)
    # without an attained minimum the sum is the edge just above p, which
    # _node makes FILLED when the anchor is outside the component
    return _node(g, k, p, MINUS if attained else PLUS)


def rsub(g: Group, a: Cut, b: Cut) -> Cut:
    """Right difference a - b = a +R (-b)."""
    return radd(g, a, neg(g, b))


def lsub(g: Group, a: Cut, b: Cut) -> Cut:
    """Left difference: a + (-b)."""
    return add(g, a, neg(g, b))


def shift_by(g: Group, gamma: tuple, cut: Cut) -> Cut:
    """Translate the cut by the group element gamma."""
    if cut.kind != "n":
        return cut
    return make_node(g, cut.level, g.add(gamma[:len(cut.prefix)], cut.prefix), cut.side)


# -- invariance levels -------------------------------------------------------


def level_edge(g: Group, k: int) -> Cut:
    """The width cut at ladder level k (upper edge of H_k)."""
    # zero coordinates lie in every component: no membership to check
    return _node(g, k, (0,) * (_check_level(g, k) - k), PLUS)


def project_cut(g: Group, cut: Cut, k: int) -> Cut:
    """Image of the cut in the quotient at level k <= its invariance level."""
    if cut.kind != "n":
        return cut
    if k > cut.level:
        raise ValueError(f"level {k} not contained in the invariance group (level {cut.level})")
    return make_node(g.quotient(k), cut.level - k, cut.prefix, cut.side)


# -- filling by elements of a supergroup ----------------------------------


def _check_pair(g: Group, gp: Group) -> None:
    if g.is_crossed or gp.is_crossed:
        raise ValueError("fill witnesses over crossed products are not supported")
    if g.num_atoms != gp.num_atoms or g.num_atoms == 0:
        raise ValueError("supergroup must have the same lexicographic shape")
    if g.atoms[:-1] != gp.atoms[:-1]:
        raise ValueError("only the least significant component may be extended")
    a, b = g.atoms[-1], gp.atoms[-1]
    if not a.is_subgroup_of(b):
        raise ValueError(f"{b.format()} does not extend {a.format()}")


def induced_cut(g: Group, gp: Group, x: tuple) -> Cut:
    """The unique cut of g filled by x, for x in a dense extension gp of g."""
    _check_pair(g, gp)
    gp.check_element(x)
    if g.atoms[-1].discrete:
        raise ValueError(
            f"{g.format()} is not dense in {gp.format()}: no element of the "
            "extension fills a cut of a discrete group")
    if g.contains(x):
        raise ValueError(f"{g.format_element(x)} lies in the base group and fills no cut")
    return make_node(g, 0, x, FILLED)


def fills(g: Group, gp: Group, x: tuple, cut: Cut) -> bool:
    """Does x satisfy the cut (lie between its left and right parts)?"""
    return fill_le(g, gp, x, cut) and fill_ge(g, gp, x, cut)


def fill_le(g: Group, gp: Group, x: tuple, cut: Cut) -> bool:
    """cut <= x: every group element below the cut is below x."""
    _check_pair(g, gp)
    return not member_below(gp, x, cut)


def fill_ge(g: Group, gp: Group, x: tuple, cut: Cut) -> bool:
    """cut >= x: every group element above the cut is above x."""
    _check_pair(g, gp)
    return not member_above(gp, x, cut)


def edge_below(g: Group, gp: Group, x: tuple) -> Cut:
    """Upper edge of the set of group elements strictly below x."""
    _check_pair(g, gp)
    gp.check_element(x)
    return make_node(g, 0, x, FILLED)


def edge_above(g: Group, gp: Group, x: tuple) -> Cut:
    """Lower edge of the set of group elements strictly above x."""
    _check_pair(g, gp)
    gp.check_element(x)
    return make_node(g, 0, x, PLUS)


# -- approximation from below, for the oracle's chains ----------------------


def approach_below(g: Group, atom_index: int, target: Scalar, n: int) -> Scalar:
    """Component member strictly below ``target``, within base^-(n+1) of it."""
    d = g.atoms[atom_index].dense_denominator() ** (n + 1)
    return ratio(scalar_ceil_times(target, d) - 1, d)


# -- text form --------------------------------------------------------------


def format_cut(g: Group, cut: Cut) -> str:
    if cut.kind == "lo":
        return "-inf"
    if cut.kind == "hi":
        return "+inf"
    body = g.format_element(cut.prefix)
    if cut.level == 0:
        if cut.side == FILLED:
            return f"fill({body})"
        return f"cut({body})" + ("+" if cut.side == PLUS else "-")
    if cut.side == FILLED:
        return f"edge({cut.level})fill({body})"
    return f"edge({cut.level})" + ("+" if cut.side == PLUS else "-") + body


def is_cut_literal(text: str) -> bool:
    """Whether ``text`` has a cut head, well formed or not."""
    return text in ("-inf", "+inf") or text.startswith(("cut(", "fill(", "edge("))


def parse_cut(g: Group, text: str) -> Cut | None:
    """The cut a literal names, as ``format_cut`` writes it (bare ``edge(k)+``
    and ``edge(k)-`` are the width cut and its minus): None without a cut
    head, ValueError when it does not scan, TypeError when g has no such cut."""
    s = text.strip()
    if s in ("-inf", "+inf") or not is_cut_literal(s):
        return {"-inf": NEG_INF, "+inf": POS_INF}.get(s)
    # split once at the ")" closing the head: the first after edge(, the last after cut(, fill(
    head, _, rest = s.partition("(")
    body, close, tail = rest.partition(")") if head == "edge" else rest.rpartition(")")
    level = 0
    if head == "edge" and close:
        level = parse_int(body.strip())
        if tail.startswith("fill(") and tail.endswith(")"):
            head, body, tail = "fill", tail[5:-1], ""
        else:  # edge(k)+c reads as cut(c)+ at level k
            head, body, tail = "cut", tail[1:] or None, tail[:1]
    side = {"+": PLUS, "-": MINUS, "": FILLED}.get(tail) if close else None
    if side is None or (side == FILLED) != (head == "fill"):
        raise ValueError(f"cannot parse cut {text!r}")
    coords = g.zero()[level:] if body is None else parse_coords(body)
    try:
        return make_node(g, level, coords, side)
    except ValueError as exc:
        raise TypeError(str(exc)) from exc
