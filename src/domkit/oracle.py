"""Independent oracle for the cut sum: supremum of translated cuts.

The left sum of two cuts equals the supremum of ``gamma + a`` over the
group elements gamma below ``b``.  This module computes that supremum
without the closed-form side-combination tables used by ``cuts.add``:

* the prefix of the result is obtained by truncating and adding the
  operand prefixes (pure bookkeeping, no side logic);
* whether the supremum is attained is decided by *membership probes*
  (does some group element realize the top projection of each left
  part?), which only use ``member_below``; the candidate is the node at
  that prefix, side ``+`` when both are attained and ``fill`` otherwise,
  canonicalized by ``make_node`` as any caller's node is (a member
  anchor is ``-``, a discrete one is folded);
* the answer is validated against an ascending sampled chain: every
  translated cut must stay below the candidate, and the chain must cross
  a probe strictly below it; failure raises ``OracleError`` (a
  non-cofinal chain does not cross the probe, and a caller's chain with
  an element outside the group is refused).
  Every sampler, built-in or the caller's, is drawn once at
  ``2 * CHAIN_LEN`` elements; its first ``CHAIN_LEN`` elements are the
  short chain, checked at the halfway point of one walk.
* the walk is one ordered pass in group coordinates: each element
  gamma must lie below b, a lexicographic comparison of gamma's first
  coordinates with b's prefix, and its shift of ``a`` must be no less
  than the previous one.  The pass makes one comparison per element:
  each element with the next in G's full lexicographic order, from the
  element before the chain, and the last one with b.  A chain that
  ascends in G's order and ends below b meets both conditions at every
  element: each element is no greater than the last, so it lies below
  b (the left part is closed downwards), and its projection to any
  level is no less than the one before.  Any other chain, such as a
  caller's that ascends only modulo H_k, is walked again element by
  element with the two comparisons each, which raises the first error
  in chain order.  Translation by a group element is an order
  automorphism of every quotient G/H_k, and it keeps the level and the
  side of a canonical cut (a member anchor plus a member stays a member,
  a non-member stays a non-member; over a crossed product the twist
  lies in the fiber), so the shifts of a finite ``a`` compare as gamma's
  projections to ``a.level`` do; the shifts of an infinite ``a`` are all
  ``a``.  The chain's elements are group members: the built-in chain by
  construction, a caller's by the membership check above.
  The shifts so far then ascend, so the last shift alone decides both
  "some shift exceeds the candidate" and "some shift crosses the probe":
  it is the one shift built as a cut, once per walk, and it is compared
  with the candidate before any other error is raised, so the first
  error is the one an element-by-element check would report.  Since
  translation keeps a's level and side, that shift is built from
  coordinates: a's level, the group's sum of gamma's projection and
  a's prefix as two prefixes of one length, and a's side (that sum
  still raises where a factor set leaves the fiber).
* a successful walk of the built-in chain reads only the group, b, the
  length of a's prefix and the chain length; a and the candidate are
  read only on failure.  The four oracle calls of one engine pair sum
  (a, b), (-a, -b), (-a, b) and (a, -b), and -a keeps a's prefix
  length, so they walk only the chains of b and -b.  The last
  ``WALK_MEMO`` (four) successful walks are kept with their two ends,
  and a call that matches one (the same group object, prefix length and
  chain length, and an equal b) runs only the checks that read a and the
  candidate, in the same order.  The same check on the same inputs gives
  the same result, so no check is skipped.  A walk that raises, and a
  caller's sampler, are never remembered.  Four entries cover one pair;
  they are too few for repeated pairs or pool elements to hit.
* the engine calls that remain are ``member_below`` in the membership
  probes, ``make_node`` for the candidate, and ``compare`` of each walk
  end's shift with the candidate and with the probe.  The walk-end
  shifts and the probes are built from coordinates, already canonical,
  as ``make_node`` would build them, and each probe strictly below its
  candidate, so the probe is not compared with the candidate.
* the probe below a ``+`` candidate is the lower edge of its anchor,
  ``(p, -)`` over a dense atom and the folded ``(p[:-1] + (t - 1,), +)``
  over a discrete one; it is the same for both chain lengths.  The probe
  below a ``-`` or ``fill`` candidate (over a dense atom, as canonical
  cuts are) sits exactly base^-(n//2+1) below its anchor t, where n is
  the chain length and the base is the component's approximation base;
  the chain gets within base^-n of the anchor.  Its side is ``+`` below
  a ``-`` candidate and ``fill`` below a ``fill`` one: a member minus a
  member is a member, a non-member minus a member is not.  The probe of
  ``+inf`` is ``(3^(n//2),)`` at the top level, side ``+``.  A ``-inf``
  candidate needs no probe: the candidate check has already put every
  shift at ``-inf``.

Right sums and both differences reduce to this through the minus, which
is an elementary coordinate flip: a +R b = -((-a) + (-b)),
a -R b = -((-a) + b) and a -L b = a + (-b).
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import lru_cache

from domkit.groups import Group, lex_cmp
from domkit import cuts as ct
from domkit.cuts import (
    Cut, FILLED, MINUS, NEG_INF, PLUS, POS_INF,
    approach_below, compare, make_node, member_below,
)
from domkit.scalars import Sqrt2, ratio, scalar_add, scalar_floor


CHAIN_LEN = 8


class OracleError(AssertionError):
    pass


def ascending_chain(g: Group, cut: Cut, n: int) -> list[tuple]:
    """Group elements cofinal in the left part of the cut (ascending).

    Below a ``-`` or ``fill`` anchor t the i-th element approaches it as
    ``approach_below`` does, ceil(t * d) - 1 over d = base^(i+1); for a
    rational t that is worked out in integers, one multiplication of d
    per element.
    """
    if cut.kind == "lo":
        return []
    if cut.kind == "hi":
        return [(3 ** i,) * g.num_atoms for i in range(n)]
    k, p = cut.level, cut.prefix
    if cut.side == PLUS:
        return [p + (i,) * k for i in range(n)]
    head, t = p[:-1], p[-1]
    anchor_idx = g.num_atoms - k - 1
    if isinstance(t, Sqrt2):
        return [head + (approach_below(g, anchor_idx, t, i),) + (i,) * k for i in range(n)]
    num, den = t.numerator, t.denominator
    base = g.atoms[anchor_idx].dense_denominator()
    out = []
    d = 1
    for i in range(n):
        d *= base
        out.append(head + (ratio(-(-num * d // den) - 1, d),) + (i,) * k)
    return out


def _top_reached(g: Group, cut: Cut, k: int) -> tuple[tuple, bool]:
    """Truncated prefix at level k, and whether some element below the
    cut realizes it (decided by a membership probe with a deep tail)."""
    m = g.num_atoms
    t = cut.prefix[: m - k]
    probe = list(t)
    if not g.atoms[m - k - 1].contains(t[-1]):
        return t, False
    for j in range(m - k, m):
        if j < m - cut.level:
            probe.append(scalar_floor(cut.prefix[j]) - 1)
        else:
            probe.append(0)
    return t, member_below(g, tuple(probe), cut)


def oracle_sum(g: Group, a: Cut, b: Cut, sampler=None) -> Cut:
    """Left sum computed as the verified supremum of shifted cuts.

    ``sampler(g, cut, n)``, called once with n = ``2 * CHAIN_LEN``, may
    replace the built-in chain generator; a sampler that is not cofinal
    in the left part is detected during verification and reported as an
    ``OracleError``.
    """
    if a.kind == "lo" or b.kind == "lo":
        return NEG_INF
    if a.kind == "hi" or b.kind == "hi":
        return POS_INF
    k = max(a.level, b.level)
    ta, reach_a = _top_reached(g, a, k)
    tb, reach_b = _top_reached(g, b, k)
    # make_node turns FILLED into MINUS when the anchor is a member
    cand = make_node(g, k, g.add(ta, tb), PLUS if reach_a and reach_b else FILLED)
    _verify(g, a, b, cand, CHAIN_LEN, sampler or ascending_chain)
    return cand


# the last successful walks of the built-in chain, newest first, as
# (g, na, chain_len, b, gamma_n, gamma_2n); see the module docstring
WALK_MEMO = 4
_walks: deque = deque(maxlen=WALK_MEMO)


def _verify(g: Group, a: Cut, b: Cut, cand: Cut, chain_len: int, sampler) -> None:
    builtin = sampler is ascending_chain
    na = len(a.prefix)
    near, far = _probes(g, cand, chain_len)
    ends = _recall(g, na, chain_len, b) if builtin else None
    if ends is None:
        chain = sampler(g, b, 2 * chain_len)
        # the built-in chain's elements are group members by construction
        if not builtin and not all(map(g.contains, chain)):
            raise OracleError("sampler produced an element outside the group")
        first = _walk_chain(g, a, b, cand, chain[:chain_len], None)
        _check_least(g, cand, _checked_shift(g, a, cand, first), near)
        last = _walk_chain(g, a, b, cand, chain[chain_len:], first)
        if builtin:
            _walks.appendleft((g, na, chain_len, b, first, last))
    else:
        first, last = ends
        _check_least(g, cand, _checked_shift(g, a, cand, first), near)
    _check_least(g, cand, _checked_shift(g, a, cand, last), far)


def _recall(g: Group, na: int, chain_len: int, b: Cut) -> tuple | None:
    """The two walk ends of an earlier successful walk of b's built-in
    chain for the same group, prefix length and chain length."""
    for mg, mna, mlen, mb, first, last in _walks:
        if mg is g and mna == na and mlen == chain_len and mb == b:
            return first, last
    return None


def _walk_chain(g: Group, a: Cut, b: Cut, cand: Cut, chain: list[tuple],
                prev: tuple | None) -> tuple | None:
    """Check each chain element and return the last one.

    Each element must lie below ``b``, and the shift of ``a`` by it must
    be no less than the shift by ``prev``, the element before it; both
    are decided in group coordinates, as the module docstring explains.
    A first pass compares each element with the next in G's full order,
    from ``prev``, and the last one with ``b``, one compare per element;
    a chain that passes it meets both conditions at every element.  Any
    other chain, such as a caller's that ascends only modulo a's level,
    is walked element by element, and on failure the shift by ``prev`` is
    compared with the candidate first.
    """
    # gamma < b iff lex_cmp(gamma, bp) < bound; an infinite b has no
    # prefix, so every element is below +inf and none below -inf
    bp = b.prefix
    bound = 1 if b.kind == "hi" or (b.kind == "n" and b.side == PLUS) else 0
    last = prev
    for gamma in chain:
        if last is not None and lex_cmp(last, gamma) > 0:
            break
        last = gamma
    else:
        if not chain or lex_cmp(last, bp) < bound:
            return last
    na = len(a.prefix)  # 0 for an infinite a: every projection is ()
    top = None if prev is None else prev[:na]
    for gamma in chain:
        if lex_cmp(gamma, bp) >= bound:
            _fail(g, a, cand, prev, "sampler produced an element not below the cut")
        if top is not None and lex_cmp(top, gamma) > 0:
            _fail(g, a, cand, prev, "sampled chain of shifts is not ascending")
        prev, top = gamma, gamma[:na]
    return prev


def _checked_shift(g: Group, a: Cut, cand: Cut, gamma: tuple | None) -> Cut | None:
    """The shift of ``a`` by the last element walked, checked to stay
    below the candidate.  The shifts ascend, so it is the largest.  It
    keeps a's level and side (see the module docstring), so it is built
    from coordinates; an infinite ``a`` is its own shift."""
    if gamma is None:
        return None
    last = a
    if a.kind == "n":
        last = Cut("n", a.level, g.add(gamma[:len(a.prefix)], a.prefix), a.side)
    if compare(g, last, cand) > 0:
        raise OracleError("a shifted cut exceeds the candidate supremum")
    return last


def _fail(g: Group, a: Cut, cand: Cut, prev: tuple | None, message: str) -> None:
    _checked_shift(g, a, cand, prev)
    raise OracleError(message)


def _probes(g: Group, cand: Cut, n: int) -> tuple:
    """The canonical cuts strictly below a finite candidate that the
    chains of n and 2n elements must cross, or for +inf the cuts they
    must pass; a ``-inf`` candidate needs none."""
    if cand.kind == "lo":
        return None, None
    if cand.kind == "hi":
        top = g.num_atoms - 1
        return Cut("n", top, (3 ** (n // 2),), PLUS), Cut("n", top, (3 ** n,), PLUS)
    k, p = cand.level, cand.prefix
    atom = g.atoms[len(p) - 1]
    if cand.side == PLUS:
        # the lower edge of the anchor, folded over a discrete atom
        if atom.discrete:
            probe = Cut("n", k, p[:-1] + (p[-1] - 1,), PLUS)
        else:
            probe = Cut("n", k, p, MINUS)
        return probe, probe
    # a - or fill candidate lies over a dense atom.  Its probe is not a
    # grid point below the anchor: one can sit closer to an anchor off the
    # grid than the chain ever gets.  A member minus a member is a member,
    # and a non-member minus a member is not
    side = PLUS if cand.side == MINUS else FILLED
    base = atom.dense_denominator()
    return tuple(Cut("n", k, p[:-1] + (scalar_add(p[-1], _step(base, e)),), side)
                 for e in (n // 2 + 1, n + 1))


@lru_cache(maxsize=16)
def _step(base: int, e: int) -> Fraction:
    return Fraction(-1, base ** e)


def _check_least(g: Group, cand: Cut, last: Cut | None, probe: Cut | None) -> None:
    """The sampled chain must cross ``probe``, a cut strictly below the
    candidate; otherwise the candidate is not the least upper bound.
    The shifts ascend, so the chain crosses it iff its last shift does."""
    if cand.kind == "lo":
        return  # _checked_shift has put every shift, if any, at -inf
    if last is None:
        raise OracleError("empty chain can only have supremum -inf")
    if cand.kind == "hi":
        if compare(g, last, probe) <= 0:
            raise OracleError("chain does not grow towards +inf")
        return
    if compare(g, last, probe) <= 0:
        raise OracleError("candidate is not approached by the sampled chain")


def oracle_radd(g: Group, a: Cut, b: Cut) -> Cut:
    """Right sum via the order anti-automorphism: -((-a) + (-b))."""
    return ct.neg(g, oracle_sum(g, ct.neg(g, a), ct.neg(g, b)))


def oracle_diff(g: Group, mode: str, a: Cut, b: Cut) -> Cut:
    if mode == "right":
        # a -R b = a +R (-b) = -((-a) + b)
        return ct.neg(g, oracle_sum(g, ct.neg(g, a), b))
    if mode == "left":
        return oracle_sum(g, a, ct.neg(g, b))
    raise ValueError(f"unknown difference mode {mode!r}")
