"""x-factorization and the three Z_2^n valley-hopping actions.

phi_x swaps the maximal small-letter blocks around x; the modified action
phi_x' only moves double ascents / double descents; the restricted action
phi_x'' additionally freezes beta1 and all rixed points.  canonical_rep
finds the representative of an MFS orbit; the restricted orbits have no
such shortcut here, and the lemma-4.2 check walks them.
"""

from __future__ import annotations

from . import rixfact
from .errors import LabelOutOfRange
from .perm import WordT, dd_letters


def _x_blocks(w: WordT, x: int) -> tuple[int, int, int]:
    """(lo, pos, hi) with w[pos] = x, and w[lo:pos] and w[pos+1:hi] the
    maximal blocks of letters smaller than x immediately left and right of x."""
    n = len(w)
    if not 1 <= x <= n:
        raise LabelOutOfRange(f"label {x} not in 1..{n}")
    pos = w.index(x)
    lo = pos
    while lo > 0 and w[lo - 1] < x:
        lo -= 1
    hi = pos + 1
    while hi < n and w[hi] < x:
        hi += 1
    return lo, pos, hi


def _hop(w: WordT, lo: int, pos: int, hi: int) -> WordT:
    """w1 w3 x w2 w4, for the x-factorization w1 w2 x w3 w4 of _x_blocks."""
    return w[:lo] + w[pos + 1: hi] + w[pos: pos + 1] + w[lo:pos] + w[hi:]


def foata_strehl(w: WordT, x: int) -> WordT:
    """phi_x: swap the two small-letter blocks adjacent to x."""
    return _hop(w, *_x_blocks(w, x))


def mfs_single(w: WordT, x: int) -> WordT:
    """phi_x': hop x if it is a double ascent or double descent, i.e. if
    exactly one of its two small-letter blocks is empty.  x's two
    neighbours decide that, so only a non-empty block is ever scanned."""
    n = len(w)
    if not 1 <= x <= n:
        raise LabelOutOfRange(f"label {x} not in 1..{n}")
    pos = w.index(x)
    right = pos + 1
    if pos and w[pos - 1] < x:
        if right < n and w[right] < x:  # peak
            return w
        lo = pos - 1
        while lo and w[lo - 1] < x:
            lo -= 1
        return w[:lo] + w[pos:right] + w[lo:pos] + w[right:]
    if right == n or w[right] > x:  # valley
        return w
    hi = right + 1
    while hi < n and w[hi] < x:
        hi += 1
    return w[:pos] + w[right:hi] + w[pos:right] + w[hi:]


def _frozen(w: WordT) -> frozenset[int]:
    """The letters phi_x'' never moves: beta1 and the rixed points."""
    fact = rixfact.rix_factorize(w)
    return fact.rix_set | {fact.beta1}


def restricted_mfs_single(w: WordT, x: int) -> WordT:
    """phi_x'': like phi_x' but beta1 and all rixed points are frozen."""
    return w if w and x in _frozen(w) else mfs_single(w, x)


def mfs_hops(w: WordT) -> list[WordT]:
    """[phi_1'(w), ..., phi_n'(w)]."""
    return [mfs_single(w, x) for x in range(1, len(w) + 1)]


def restricted_hops(w: WordT) -> list[WordT]:
    """[phi_1''(w), ..., phi_n''(w)], from one factorization of w."""
    frozen = _frozen(w) if w else frozenset()
    return [w if x in frozen else mfs_single(w, x) for x in range(1, len(w) + 1)]


_HOPS = {"mfs": mfs_hops, "restricted": restricted_hops}


def orbit(start: WordT, action: str = "mfs") -> set[WordT]:
    """Closure of {sigma} under all singleton generators (BFS)."""
    hops = _HOPS[action]
    seen = {start}
    frontier = [start]
    while frontier:
        for w2 in hops(frontier.pop()):
            if w2 not in seen:
                seen.add(w2)
                frontier.append(w2)
    return seen


def canonical_rep(w: WordT, action: str = "mfs") -> WordT:
    """The unique orbit element of the MFS action without double descent.
    Hops commute and each one toggles only its own letter between double
    descent and double ascent, so hopping each double-descent letter once
    reaches it.  Only the action "mfs" is taken."""
    if action != "mfs":
        raise ValueError(f"unknown action {action!r}")
    for x in sorted(dd_letters(w)):
        w = mfs_single(w, x)
    return w
