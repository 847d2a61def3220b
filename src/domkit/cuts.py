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
product raises when its factor set leaves the fiber).
"""

from __future__ import annotations

from fractions import Fraction

from domkit.groups import Group
from domkit.scalars import Scalar, format_scalar, parse_scalar, scalar_cmp, scalar_floor

MINUS, FILLED, PLUS = -1, 0, 1
_SIDE_TEXT = {MINUS: "-", FILLED: "fill", PLUS: "+"}

SIGN_INF = "inf"
SIGN_SPADE = "spade"


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
    m = g.num_atoms
    if m == 0:
        raise ValueError("the trivial group has no finite cuts")
    if not 0 <= level < m:
        raise ValueError(f"cut level {level} out of range 0..{m - 1}")
    prefix = tuple(prefix)
    if len(prefix) != m - level:
        raise ValueError(f"level-{level} prefix needs {m - level} coordinates")
    for atom, v in zip(g.atoms, prefix[:-1]):
        if not atom.contains(v):
            raise ValueError(f"prefix coordinate {format_scalar(v)} outside {atom.format()}")
    return _node(g, level, prefix, side)


def _node(g: Group, level: int, prefix: tuple, side: int) -> Cut:
    """Canonical node for an already checked level and prefix.

    Over a discrete component the anchor is folded into the successor
    form; over a dense one a member anchor is never FILLED and an anchor
    outside the component always is.
    """
    atom = g.atoms[len(prefix) - 1]
    anchor = prefix[-1]
    if atom.discrete:
        if not atom.contains(anchor):
            anchor = Fraction(scalar_floor(anchor))
        elif side != PLUS:
            anchor = Fraction(anchor) - 1
        else:
            return Cut("n", level, prefix, PLUS)
        return Cut("n", level, prefix[:-1] + (anchor,), PLUS)
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
    return make_node(g, 0, g.zero(), PLUS)


def _prefix_cmp(a: tuple, b: tuple) -> int:
    for u, v in zip(a, b):
        c = scalar_cmp(u, v)
        if c:
            return c
    return 0


# -- order and membership ------------------------------------------------


def member_below(g: Group, gamma: tuple, cut: Cut) -> bool:
    """gamma < cut, i.e. gamma lies in the left part."""
    if cut.kind == "lo":
        return False
    if cut.kind == "hi":
        return True
    c = _prefix_cmp(g.project(gamma, cut.level), cut.prefix)
    return c < 0 or (c == 0 and cut.side == PLUS)


def member_above(g: Group, gamma: tuple, cut: Cut) -> bool:
    """gamma > cut, i.e. gamma lies in the right part."""
    if cut.kind == "lo":
        return True
    if cut.kind == "hi":
        return False
    c = _prefix_cmp(g.project(gamma, cut.level), cut.prefix)
    return c > 0 or (c == 0 and cut.side == MINUS)


_RANK = {"lo": -1, "n": 0, "hi": 1}


def compare(g: Group, a: Cut, b: Cut) -> int:
    if a.kind != "n" or b.kind != "n":
        ra, rb = _RANK[a.kind], _RANK[b.kind]
        return (ra > rb) - (ra < rb)
    if a.level == b.level:
        c = _prefix_cmp(a.prefix, b.prefix)
        if c:
            return c
        return (a.side > b.side) - (a.side < b.side)
    flip = 1
    hi, lo = a, b
    if a.level < b.level:
        hi, lo, flip = b, a, -1
    c = _prefix_cmp(hi.prefix, lo.prefix)  # up to the end of the shorter hi.prefix
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
    q = g.quotient(cut.level)
    return _node(g, cut.level, q.neg(cut.prefix), -cut.side)


# -- addition: left sum, right sum, differences ---------------------------


def _lift_right(g: Group, cut: Cut, n: int) -> tuple[tuple, bool]:
    """View of the right part at the level with n prefix coordinates:
    (prefix, minimum attained?)."""
    p = cut.prefix
    if len(p) > n:
        return p[:n], True
    if cut.side == MINUS:
        return p, True
    if cut.side == PLUS and g.atoms[n - 1].discrete:
        return p[:-1] + (p[-1] + 1,), True
    return p, False  # PLUS over a dense atom, or FILLED


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
    p = g.quotient(k).add(pa, pb)
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
    k, n = a.level, len(a.prefix)
    if b.level > k:
        k, n = b.level, len(b.prefix)
    pa, ma = _lift_right(g, a, n)
    pb, mb = _lift_right(g, b, n)
    p = g.quotient(k).add(pa, pb)
    # without an attained minimum the sum is the edge just above p, which
    # _node makes FILLED when the anchor is outside the component
    return _node(g, k, p, MINUS if ma and mb else PLUS)


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
    q = g.quotient(cut.level)
    return make_node(g, cut.level, q.add(g.project(gamma, cut.level), cut.prefix), cut.side)


# -- invariance and width --------------------------------------------------


def invariance_level(cut: Cut) -> int:
    """Ladder index of the invariance group (stabilizer) of the cut."""
    if cut.kind != "n":
        raise ValueError("infinite cuts have no invariance level")
    return cut.level


def width(g: Group, cut: Cut) -> Cut:
    """Upper edge of the invariance group; rejects infinite cuts."""
    if cut.kind != "n":
        raise ValueError("width is undefined for -inf/+inf")
    return level_edge(g, cut.level)


def level_edge(g: Group, k: int) -> Cut:
    """The width cut at ladder level k (upper edge of H_k)."""
    return make_node(g, k, (Fraction(0),) * (g.num_atoms - k), PLUS)


def project_cut(g: Group, cut: Cut, k: int) -> Cut:
    """Image of the cut in the quotient at level k <= its invariance level."""
    if cut.kind != "n":
        return cut
    if k > cut.level:
        raise ValueError(f"level {k} not contained in the invariance group (level {cut.level})")
    if k == 0:
        return cut
    return make_node(g.quotient(k), cut.level - k, cut.prefix, cut.side)


def signature(g: Group, cut: Cut):
    """Signature of the cut inside the carrier at its own width level."""
    if cut.kind != "n":
        raise ValueError("signature is undefined for -inf/+inf")
    atom = g.atoms[g.num_atoms - cut.level - 1]
    if atom.discrete:
        return SIGN_INF
    return {PLUS: 1, MINUS: -1, FILLED: 0}[cut.side]


# -- filling by elements of a supergroup ----------------------------------


_ATOM_EXTENDS = {
    ("Zloc", "Q"), ("Zloc", "Qr2"), ("Q", "Qr2"),
    ("Z", "Zloc"), ("Z", "Q"), ("Z", "Qr2"),
}


def _check_pair(g: Group, gp: Group) -> None:
    if g.is_crossed or gp.is_crossed:
        raise ValueError("fill witnesses over crossed products are not supported")
    if g.num_atoms != gp.num_atoms or g.num_atoms == 0:
        raise ValueError("supergroup must have the same lexicographic shape")
    if g.atoms[:-1] != gp.atoms[:-1]:
        raise ValueError("only the least significant component may be extended")
    a, b = g.atoms[-1], gp.atoms[-1]
    if a == b:
        return
    if (a.kind, b.kind) not in _ATOM_EXTENDS:
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
    if cut.kind == "lo":
        return True
    if cut.kind == "hi":
        return False
    c = _prefix_cmp(gp.project(x, cut.level), cut.prefix)
    return c > 0 or (c == 0 and cut.side != PLUS)


def fill_ge(g: Group, gp: Group, x: tuple, cut: Cut) -> bool:
    """cut >= x: every group element above the cut is above x."""
    _check_pair(g, gp)
    if cut.kind == "hi":
        return True
    if cut.kind == "lo":
        return False
    c = _prefix_cmp(gp.project(x, cut.level), cut.prefix)
    return c < 0 or (c == 0 and cut.side != MINUS)


def edge_below(g: Group, gp: Group, x: tuple) -> Cut:
    """Upper edge of the set of group elements strictly below x."""
    _check_pair(g, gp)
    gp.check_element(x)
    return make_node(g, 0, x, MINUS if g.contains(x) else FILLED)


def edge_above(g: Group, gp: Group, x: tuple) -> Cut:
    """Lower edge of the set of group elements strictly above x."""
    _check_pair(g, gp)
    gp.check_element(x)
    return make_node(g, 0, x, PLUS if g.contains(x) else FILLED)


# -- helpers used by samplers and witnesses --------------------------------


def approach_below(g: Group, atom_index: int, target: Scalar, n: int) -> Fraction:
    """Component member strictly below ``target``, within base^-(n+1) of it."""
    d = g.atoms[atom_index].dense_denominator() ** (n + 1)
    ceil_td = -scalar_floor(-(target * d))
    return Fraction(ceil_td - 1, d)


def approach_above(g: Group, atom_index: int, target: Scalar, n: int) -> Fraction:
    d = g.atoms[atom_index].dense_denominator() ** (n + 1)
    floor_td = scalar_floor(target * d)
    return Fraction(floor_td + 1, d)


def element_between(g: Group, a: Cut, b: Cut) -> tuple:
    """Some group element strictly between two cuts a < b."""
    if compare(g, a, b) >= 0:
        raise ValueError("element_between needs a < b")
    m = g.num_atoms
    candidates: list[tuple] = []

    def pad(prefix, value):
        return tuple(prefix) + (Fraction(value),) * (m - len(prefix))

    for cut in (a, b):
        if cut.kind != "n":
            continue
        p = cut.prefix
        base = p[:-1]
        anchor = p[-1]
        idx = m - cut.level - 1
        candidates.append(pad(base + (Fraction(scalar_floor(anchor)),), 0))
        candidates.append(pad(base + (Fraction(scalar_floor(anchor)) + 1,), 0))
        for n in range(6):
            if not g.atoms[idx].discrete:
                candidates.append(pad(base + (approach_below(g, idx, anchor, n),), 0))
                candidates.append(pad(base + (approach_above(g, idx, anchor, n),), 0))
            for t in (-(3 ** n), 3 ** n):
                if g.atoms[idx].contains(anchor):
                    candidates.append(pad(base + (anchor,), t))
    for n in range(4):
        candidates.append(pad((), 3 ** n))
        candidates.append(pad((), -(3 ** n)))
    for gamma in candidates:
        if g.contains(gamma) and member_above(g, gamma, a) and member_below(g, gamma, b):
            return gamma
    raise ValueError("no group element found between the two cuts")


# -- text form --------------------------------------------------------------


def _fmt_tuple(prefix: tuple) -> str:
    if len(prefix) == 1:
        return format_scalar(prefix[0])
    return "(" + ",".join(format_scalar(v) for v in prefix) + ")"


def format_cut(g: Group, cut: Cut) -> str:
    if cut.kind == "lo":
        return "-inf"
    if cut.kind == "hi":
        return "+inf"
    body = _fmt_tuple(cut.prefix)
    if cut.level == 0:
        if cut.side == FILLED:
            return f"fill({body})"
        return f"cut({body})" + ("+" if cut.side == PLUS else "-")
    if cut.side == FILLED:
        return f"edge({cut.level})fill({body})"
    return f"edge({cut.level})" + ("+" if cut.side == PLUS else "-") + body


def _parse_tuple(text: str) -> tuple:
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    return tuple(parse_scalar(p) for p in s.split(","))


def parse_cut(g: Group, text: str) -> Cut:
    s = text.strip()
    if s == "-inf":
        return NEG_INF
    if s == "+inf":
        return POS_INF
    if s.startswith("cut(") and s[-1] in "+-":
        side = PLUS if s[-1] == "+" else MINUS
        return make_node(g, 0, _parse_tuple(s[4:-2]), side)
    if s.startswith("fill(") and s.endswith(")"):
        return make_node(g, 0, _parse_tuple(s[5:-1]), FILLED)
    if s.startswith("edge("):
        close = s.index(")")
        k = int(s[5:close])
        rest = s[close + 1:]
        if rest.startswith("fill(") and rest.endswith(")"):
            return make_node(g, k, _parse_tuple(rest[5:-1]), FILLED)
        if rest and rest[0] in "+-":
            side = PLUS if rest[0] == "+" else MINUS
            body = rest[1:]
            if not body:
                return level_edge(g, k) if side == PLUS else neg(g, level_edge(g, k))
            return make_node(g, k, _parse_tuple(body), side)
    raise ValueError(f"cannot parse cut {text!r}")
