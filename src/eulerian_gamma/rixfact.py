"""The rix statistic and the rix-factorization.

Two independent routes are implemented on purpose: rix() follows the
recursive definition on the position of the maximum, rix_factorize()
splits the word at greatest descent tops.  The verification suite insists
that rix(w) == len(rixed_points(w)) for every permutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from .perm import WordT

L_HOOK = "L"
F_HOOK = "F"


def rix(w: WordT) -> int:
    """Recursive rix: split at the maximum letter.

    A single letter scores 1 (the i == k branch); a word whose maximum is
    first with length >= 2 scores 0; otherwise recurse on the suffix after
    the maximum.
    """
    total = 0
    while w:
        k = len(w)
        i = w.index(max(w))  # 0-based
        if i == k - 1:
            total += 1
            w = w[:-1]
        elif i == 0:
            return total
        else:
            w = w[i + 1:]
    return total


def hook_kind(w: WordT) -> str:
    """L-hook: last letter is the maximum (length-1 words included).
    F-hook: first letter is the maximum, length >= 2."""
    m = max(w)
    if len(w) == 1 or w[-1] == m:
        return L_HOOK
    if w[0] == m:
        return F_HOOK
    raise ValueError(f"{w} is neither an L-hook nor an F-hook")


@dataclass(frozen=True)
class RixFactorization:
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


def _greatest_descent_top(w: WordT) -> int | None:
    """Index of the greatest descent top of w, None if w is increasing."""
    best = None
    for i in range(len(w) - 1):
        if w[i] > w[i + 1] and (best is None or w[i] > w[best]):
            best = i
    return best


def rix_factorize(w: WordT) -> RixFactorization:
    """Factor sigma = alpha_1 ... alpha_i beta by repeatedly cutting after
    the greatest descent top; each alpha_j is an L-hook of length >= 2."""
    if not w:
        raise ValueError("rix-factorization requires n >= 1")
    alphas: list[WordT] = []
    while True:
        pos = _greatest_descent_top(w)
        if pos is None or pos == 0:
            beta = w
            break
        alphas.append(w[: pos + 1])
        w = w[pos + 1:]
    assert beta, "beta is never empty for n >= 1"
    kind = hook_kind(beta)
    beta1 = beta[0]
    # maximal increasing suffix of beta
    cut = len(beta) - 1
    while cut > 0 and beta[cut - 1] < beta[cut]:
        cut -= 1
    rix_set = frozenset(v for v in beta[cut:] if v >= beta1)
    return RixFactorization(
        alphas=tuple(alphas),
        beta=beta,
        beta_kind=kind,
        beta1=beta1,
        rix_set=rix_set,
    )


def rixed_points(w: WordT) -> frozenset[int]:
    if not w:
        return frozenset()
    return rix_factorize(w).rix_set


def format_factorization(fact: RixFactorization) -> str:
    parts = [" ".join(str(v) for v in a) for a in fact.alphas]
    parts.append(" ".join(str(v) for v in fact.beta))
    rix_str = "{" + ",".join(str(v) for v in sorted(fact.rix_set)) + "}"
    return (
        "|".join(parts)
        + f" [{fact.beta_kind}] beta1={fact.beta1} RIX={rix_str}"
    )
