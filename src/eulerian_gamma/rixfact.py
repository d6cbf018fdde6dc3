"""The rix statistic and the rix-factorization.

RIX has two independent routes on purpose: rixed_points() follows the
recursive definition on the position of the maximum (rix() is its size),
and rix_factorize() splits the word at greatest descent tops and reads RIX
off beta as rix_set.  prop-3.2 compares rix with |rix_set|, and prop-3.5
the walk's RIX with the fixed points of phi, which factorizes.

rix_factorize() does in one pass what the definition does by repeated
rescans: cutting after the greatest descent top of what is left cuts
after every descent top larger than all descent tops to its right
(_cut_positions), until a cut falls at the start of the remaining suffix,
which is then beta.  RIX is the part of beta's increasing tail from beta1
up, a slice.  tests/test_kernel_references.py checks it against the
repeated-rescan definition.
"""

from __future__ import annotations

from typing import NamedTuple

from .perm import WordT

L_HOOK = "L"
F_HOOK = "F"


def rixed_points(w: WordT) -> frozenset[int]:
    """RIX by the recursive definition, split at the maximum letter: a
    maximum in last place (a single letter included) is a rixed point and
    is dropped; a maximum in first place of a word of length >= 2 ends the
    walk; otherwise the walk goes on with the suffix after the maximum."""
    rixed = []
    while w:
        m = max(w)
        if w[-1] == m:
            rixed.append(m)
            w = w[:-1]
        elif w[0] == m:
            break
        else:
            w = w[w.index(m) + 1:]
    return frozenset(rixed)


def rix(w: WordT) -> int:
    return len(rixed_points(w))


def hook_kind(w: WordT) -> str:
    """L-hook: last letter is the maximum (length-1 words included).
    F-hook: first letter is the maximum, length >= 2."""
    m = max(w)
    if len(w) == 1 or w[-1] == m:
        return L_HOOK
    if w[0] == m:
        return F_HOOK
    raise ValueError(f"{w} is neither an L-hook nor an F-hook")


class RixFactorization(NamedTuple):
    alphas: tuple[WordT, ...]
    beta: WordT
    beta_kind: str  # L_HOOK or F_HOOK
    beta1: int
    rix_set: frozenset[int]

    @property
    def word(self) -> WordT:
        out: tuple[int, ...] = ()
        for a in self.alphas:
            out += a
        return out + self.beta


def _cut_positions(w: WordT) -> list[int]:
    """Positions, left to right, of the descent tops of w that are larger
    than every descent top to their right."""
    cuts = []
    top = 0
    for i in range(len(w) - 2, -1, -1):
        v = w[i]
        if v > top and v > w[i + 1]:
            cuts.append(i)
            top = v
    cuts.reverse()
    return cuts


def rix_factorize(w: WordT) -> RixFactorization:
    """Factor sigma = alpha_1 ... alpha_i beta by repeatedly cutting after
    the greatest descent top; each alpha_j is an L-hook of length >= 2."""
    if not w:
        raise ValueError("rix-factorization requires n >= 1")
    alphas: list[WordT] = []
    start = 0
    for pos in _cut_positions(w):
        if pos == start:
            break
        alphas.append(w[start: pos + 1])
        start = pos + 1
    beta = w[start:]
    beta1 = beta[0]
    # RIX: the letters >= beta1 of beta's maximal increasing suffix, which
    # ends at max(beta) for an L-hook and lies below beta1 for an F-hook
    cut = len(beta)
    if beta[-1] == max(beta):  # an L-hook, a single letter included
        kind = L_HOOK
        cut -= 1
        while cut and beta1 <= beta[cut - 1] < beta[cut]:
            cut -= 1
    else:  # the last cut leaves max(beta) in first place
        kind = F_HOOK
    return RixFactorization(tuple(alphas), beta, kind, beta1,
                            frozenset(beta[cut:]))


def format_factorization(fact: RixFactorization) -> str:
    parts = [" ".join(str(v) for v in a) for a in fact.alphas]
    parts.append(" ".join(str(v) for v in fact.beta))
    rix_str = "{" + ",".join(str(v) for v in sorted(fact.rix_set)) + "}"
    return (
        "|".join(parts)
        + f" [{fact.beta_kind}] beta1={fact.beta1} RIX={rix_str}"
    )
