"""x-factorization and the three Z_2^n valley-hopping actions.

phi_x swaps the maximal small-letter blocks around x; the modified action
phi_x' only moves double ascents / double descents; the restricted action
phi_x'' additionally freezes beta1 and all rixed points.  Set actions
apply singleton generators in ascending label order (they commute, which
the test suite checks exhaustively).
"""

from __future__ import annotations

from typing import Iterable

from . import rixfact
from .errors import LabelOutOfRange, NotInDomain
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
    exactly one of its two small-letter blocks is empty."""
    lo, pos, hi = _x_blocks(w, x)
    if (lo == pos) == (pos + 1 == hi):  # peak or valley
        return w
    return _hop(w, lo, pos, hi)


def mfs(w: WordT, labels: Iterable[int]) -> WordT:
    for x in sorted(set(labels)):
        w = mfs_single(w, x)
    return w


def _frozen(w: WordT) -> frozenset[int]:
    """The letters phi_x'' never moves: beta1 and the rixed points."""
    fact = rixfact.rix_factorize(w)
    return fact.rix_set | {fact.beta1}


def restricted_mfs_single(w: WordT, x: int) -> WordT:
    """phi_x'': like phi_x' but beta1 and all rixed points are frozen."""
    if not 1 <= x <= len(w):
        raise LabelOutOfRange(f"label {x} not in 1..{len(w)}")
    return w if x in _frozen(w) else mfs_single(w, x)


def restricted_mfs(w: WordT, labels: Iterable[int]) -> WordT:
    for x in sorted(set(labels)):
        w = restricted_mfs_single(w, x)
    return w


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
    """mfs: the unique orbit element without double descent.

    restricted: for sigma with rix(sigma) = 0, the unique orbit element
    whose only double descent is beta1.  Hops commute and each one toggles
    only its own letter between double descent and double ascent, so one
    set action on the double-descent letters reaches the representative.
    """
    if action == "mfs":
        return mfs(w, dd_letters(w))
    if action == "restricted":
        if rixfact.rix(w) != 0:
            raise NotInDomain(
                "restricted canonical representative needs rix(sigma) = 0"
            )
        frozen = rixfact.rix_factorize(w).beta1
        return restricted_mfs(w, set(dd_letters(w)) - {frozen})
    raise ValueError(f"unknown action {action!r}")
