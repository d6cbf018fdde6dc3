"""Standard cycle form, the hook-to-cycle bijection Phi, and the map f.

Phi turns the rix-factorization into cycles (rixed points become fixed
points), sending des to exc; f hops beta1 once and matches permutations
with one double descent and no rixed point to double-descent-free
permutations ending with an ascent.
"""

from __future__ import annotations

from typing import Sequence

from . import actions, families, rixfact
from .errors import NotInDomain
from .perm import WordT, cyc_count

CycleT = tuple[int, ...]


def scf(w: WordT) -> tuple[CycleT, ...]:
    """Standard cycle form: every cycle max-first; long cycles by
    decreasing maximum; fixed points last, increasing."""
    n = len(w)
    seen = [False] * (n + 1)
    long_cycles = []
    fixed = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cycle = []
        j = start
        while not seen[j]:
            seen[j] = True
            cycle.append(j)
            j = w[j - 1]
        if len(cycle) == 1:
            fixed.append((cycle[0],))
        else:
            m = cycle.index(max(cycle))
            long_cycles.append(tuple(cycle[m:] + cycle[:m]))
    long_cycles.sort(key=lambda c: -c[0])
    fixed.sort()
    return tuple(long_cycles) + tuple(fixed)


def word_from_cycles(cycles: Sequence[CycleT], n: int) -> WordT:
    out = [0] * n
    for cycle in cycles:
        m = len(cycle)
        for i, c in enumerate(cycle):
            out[c - 1] = cycle[(i + 1) % m]
    return tuple(out)


def format_scf(cycles: Sequence[CycleT]) -> str:
    return "".join("(" + " ".join(str(v) for v in c) + ")" for c in cycles)


def _hook_cycle(word: WordT) -> CycleT:
    kind = rixfact.hook_kind(word)
    if kind == rixfact.L_HOOK:
        return tuple(reversed(word))
    return (word[0],) + tuple(reversed(word[1:]))


def phi(w: WordT) -> WordT:
    """des(sigma) = exc(phi(sigma)) and RIX(sigma) = FIX(phi(sigma))."""
    n = len(w)
    if n == 0:
        return ()
    fact = rixfact.rix_factorize(w)
    rixed = sorted(fact.rix_set)
    # rixed points form an increasing suffix of beta
    k = len(fact.beta) - len(rixed)
    assert list(fact.beta[k:]) == rixed, "rixed points must be the beta suffix"
    beta_rest = fact.beta[:k]
    cycles = [_hook_cycle(a) for a in fact.alphas]
    if beta_rest:
        cycles.append(_hook_cycle(beta_rest))
    cycles.extend((v,) for v in rixed)
    return word_from_cycles(cycles, n)


def phi_inv(w: WordT) -> WordT:
    n = len(w)
    if n == 0:
        return ()
    cycles = scf(w)
    long_cycles = [c for c in cycles if len(c) >= 2]
    fixed = [c[0] for c in cycles if len(c) == 1]
    parts: list[WordT] = []
    for idx, cycle in enumerate(long_cycles):
        last = idx == len(long_cycles) - 1
        # The last long cycle is the image of the final factor beta' (an
        # F-hook) unless every fixed point is below its maximum, in which
        # case beta consisted of rixed points only and all cycles are
        # L-hook images.  With no fixed points beta' is always the F-hook.
        if last and (not fixed or fixed[0] > cycle[0]):
            parts.append((cycle[0],) + tuple(reversed(cycle[1:])))
        else:
            parts.append(tuple(reversed(cycle)))
    out: tuple[int, ...] = ()
    for part in parts:
        out += part
    return out + tuple(fixed)


def lyc(w: WordT) -> int:
    """Number of cycles of phi(sigma)."""
    if not w:
        return 0
    return cyc_count(phi(w))


def f_map(w: WordT) -> WordT:
    """Hop beta1: bijection from R0_{n,k} (rix = 0, dd = 1, des = k) onto
    D~_{n,k} (dd = 0, a final ascent, des = k - 1)."""
    if families.r0_index(w) is None:
        raise NotInDomain("f needs rix(sigma) = 0 and dd(sigma) = 1")
    return actions.mfs_single(w, rixfact.rix_factorize(w).beta1)


def f_inv(w: WordT) -> WordT:
    if families.d_tilde_index(w) is None:
        raise NotInDomain(
            "f_inv needs dd(sigma) = 0 and a final ascent (n >= 2)"
        )
    return actions.mfs_single(w, w[-1])
