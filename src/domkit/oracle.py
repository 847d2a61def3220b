"""Independent oracle for the cut sum: supremum of translated cuts.

The left sum of two cuts equals the supremum of ``gamma + a`` over the
group elements gamma below ``b``.  This module computes that supremum
without the closed-form side-combination tables used by ``cuts.add``:

* the prefix of the result is obtained by truncating and adding the
  operand prefixes (pure bookkeeping, no side logic);
* whether the supremum is attained is decided by *membership probes*
  (does some group element realize the top projection of each left
  part?), which only use ``member_below``;
* the answer is validated against an ascending sampled chain: every
  translated cut must stay below the candidate, and the chain must cross
  every probe strictly below it; failure raises ``OracleError`` (a
  non-cofinal sampler is detected by instability under refinement).
  The check runs at ``chain_len`` and at ``2 * chain_len`` elements.
  The built-in chain of length n is the first n elements of the chain
  of length 2n, so it is drawn and walked once, with the shorter check
  made at the halfway point; a sampler passed in by the caller still
  gets two independent draws.

Right sums and both differences reduce to this through the minus, which
is an elementary coordinate flip.
"""

from __future__ import annotations

from domkit.groups import Group
from domkit import cuts as ct
from domkit.cuts import (
    Cut, FILLED, MINUS, NEG_INF, PLUS, POS_INF,
    approach_below, compare, make_node, member_below, shift_by,
)
from domkit.scalars import scalar_floor


class OracleError(AssertionError):
    pass


def ascending_chain(g: Group, cut: Cut, n: int) -> list[tuple]:
    """Group elements cofinal in the left part of the cut (ascending)."""
    if cut.kind == "lo":
        return []
    if cut.kind == "hi":
        return [g.from_ints([3 ** i] * g.num_atoms) for i in range(n)]
    k, p = cut.level, cut.prefix
    out = []
    anchor_idx = g.num_atoms - k - 1
    for i in range(n):
        tail = (i,) * k
        if cut.side == PLUS:
            out.append(tuple(p) + tail)
        else:
            a = approach_below(g, anchor_idx, p[-1], i)
            out.append(tuple(p[:-1]) + (a,) + tail)
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


def oracle_sum(g: Group, a: Cut, b: Cut, chain_len: int = 8,
               sampler=None) -> Cut:
    """Left sum computed as the verified supremum of shifted cuts.

    ``sampler(g, cut, n)`` may replace the built-in chain generator; a
    sampler that is not cofinal in the left part is detected during
    verification and reported as an ``OracleError``.
    """
    if a.kind == "lo" or b.kind == "lo":
        return NEG_INF
    if a.kind == "hi" or b.kind == "hi":
        return POS_INF
    k = max(a.level, b.level)
    q = g.quotient(k)
    ta, reach_a = _top_reached(g, a, k)
    tb, reach_b = _top_reached(g, b, k)
    p = q.add(ta, tb)
    if reach_a and reach_b:
        cand = make_node(g, k, p, PLUS)
    else:
        side = MINUS if g.atoms[g.num_atoms - k - 1].contains(p[-1]) else FILLED
        cand = make_node(g, k, p, side)
    _verify(g, a, b, cand, chain_len, sampler or ascending_chain)
    return cand


def _verify(g: Group, a: Cut, b: Cut, cand: Cut, chain_len: int, sampler) -> None:
    # The built-in chain of length chain_len is a prefix of the one of
    # length 2 * chain_len, so one walk of the long chain, with the short
    # "least" check at its halfway point, raises exactly what two passes
    # would.  A caller's sampler gets two independent draws: that is how
    # a non-cofinal one is detected.
    n2 = 2 * chain_len
    if sampler is ascending_chain:
        chain = ascending_chain(g, b, n2)
        shifts = _walk_chain(g, a, b, cand, chain[:chain_len], [])
        _check_least(g, a, b, cand, shifts, chain_len)
        _walk_chain(g, a, b, cand, chain[chain_len:], shifts)
        _check_least(g, a, b, cand, shifts, n2)
        return
    for n in (chain_len, n2):
        shifts = _walk_chain(g, a, b, cand, sampler(g, b, n), [])
        _check_least(g, a, b, cand, shifts, n)


def _walk_chain(g: Group, a: Cut, b: Cut, cand: Cut, chain: list[tuple],
                shifts: list[Cut]) -> list[Cut]:
    """Check each chain element and append its shift of ``a`` to ``shifts``."""
    for gamma in chain:
        if not member_below(g, gamma, b):
            raise OracleError("sampler produced an element not below the cut")
        s = shift_by(g, gamma, a)
        if compare(g, s, cand) > 0:
            raise OracleError("a shifted cut exceeds the candidate supremum")
        if shifts and compare(g, shifts[-1], s) > 0:
            raise OracleError("sampled chain of shifts is not ascending")
        shifts.append(s)
    return shifts


def _check_least(g: Group, a: Cut, b: Cut, cand: Cut, shifts: list[Cut], n: int) -> None:
    """The sampled chain must cross representative cuts strictly below
    the candidate; otherwise the candidate is not the least upper bound."""
    if not shifts:
        if cand.kind != "lo":
            raise OracleError("empty chain can only have supremum -inf")
        return
    if cand.kind == "hi":
        probe = make_node(g, g.num_atoms - 1,
                          (3 ** (n // 2),), PLUS)
        if all(compare(g, s, probe) <= 0 for s in shifts):
            raise OracleError("chain does not grow towards +inf")
        return
    k = cand.level
    probes = []
    if cand.side == PLUS:
        low = make_node(g, k, cand.prefix, MINUS)
        if low != cand:
            probes.append(low)
    else:
        idx = g.num_atoms - k - 1
        eps_anchor = approach_below(g, idx, cand.prefix[-1], n // 2)
        probes.append(make_node(g, k, cand.prefix[:-1] + (eps_anchor,), PLUS))
    for probe in probes:
        if compare(g, probe, cand) >= 0:
            continue
        if all(compare(g, s, probe) <= 0 for s in shifts):
            raise OracleError("candidate is not approached by the sampled chain")


def oracle_radd(g: Group, a: Cut, b: Cut, chain_len: int = 8) -> Cut:
    """Right sum via the order anti-automorphism: -((-a) + (-b))."""
    return ct.neg(g, oracle_sum(g, ct.neg(g, a), ct.neg(g, b), chain_len))


def oracle_diff(g: Group, mode: str, a: Cut, b: Cut, chain_len: int = 8) -> Cut:
    if mode == "right":
        return oracle_radd(g, a, ct.neg(g, b), chain_len)
    if mode == "left":
        return oracle_sum(g, a, ct.neg(g, b), chain_len)
    raise ValueError(f"unknown difference mode {mode!r}")
