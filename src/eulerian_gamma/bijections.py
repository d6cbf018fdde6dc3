"""Standard cycle form, the hook-to-cycle bijection Phi, and the map f.

Phi turns the rix-factorization into cycles (rixed points become fixed
points), sending des to exc; f hops beta1 once and matches permutations
with one double descent and no rixed point to double-descent-free
permutations ending with an ascent.
"""

from __future__ import annotations

from . import actions, families, rixfact
from .errors import NotInDomain
from .perm import WordT, cyc_count

CycleT = tuple[int, ...]


def scf(w: WordT) -> tuple[CycleT, ...]:
    """Standard cycle form: every cycle max-first; long cycles by
    decreasing maximum; fixed points last, increasing.

    The cycles are walked from the largest unseen letter down, so each is
    met at its maximum and in decreasing order of maxima.
    """
    seen = [False] * (len(w) + 1)
    long_cycles = []
    fixed = []
    for top in range(len(w), 0, -1):
        if seen[top]:
            continue
        j = w[top - 1]
        if j == top:
            fixed.append((top,))
            continue
        cycle = [top]
        seen[top] = True  # stops the walk on any word, not only on S_n
        while not seen[j]:
            seen[j] = True
            cycle.append(j)
            j = w[j - 1]
        long_cycles.append(tuple(cycle))
    fixed.reverse()
    return (*long_cycles, *fixed)


def phi(w: WordT) -> WordT:
    """des(sigma) = exc(phi(sigma)) and RIX(sigma) = FIX(phi(sigma)).

    Each factor a_1 ... a_k (every alpha, and beta without its rixed
    points) becomes the cycle a_1 -> a_k -> a_(k-1) -> ... -> a_1, the same
    cycle whether the factor is an L-hook or an F-hook; the rixed points
    become fixed points.  The image is filled in straight from the factors.
    """
    n = len(w)
    if n == 0:
        return ()
    fact = rixfact.rix_factorize(w)
    rixed = fact.rix_set
    beta = fact.beta
    k = len(beta) - len(rixed)
    assert sorted(rixed) == list(beta[k:]), "rixed points must be the beta suffix"
    out = [0] * n
    for factor in (*fact.alphas, beta[:k]) if k else fact.alphas:
        prev = factor[-1]
        for v in factor:
            out[v - 1] = prev
            prev = v
    for v in beta[k:]:
        out[v - 1] = v
    return tuple(out)


def phi_inv(w: WordT) -> WordT:
    cycles = scf(w)
    long_cycles = [c for c in cycles if len(c) >= 2]
    fixed = [c[0] for c in cycles if len(c) == 1]
    out: list[int] = []
    for idx, cycle in enumerate(long_cycles):
        last = idx == len(long_cycles) - 1
        # The last long cycle is the image of the final factor beta' (an
        # F-hook) unless every fixed point is below its maximum, in which
        # case beta consisted of rixed points only and all cycles are
        # L-hook images.  With no fixed points beta' is always the F-hook.
        if last and (not fixed or fixed[0] > cycle[0]):
            out.append(cycle[0])
            out.extend(cycle[:0:-1])
        else:
            out.extend(cycle[::-1])
    out.extend(fixed)
    return tuple(out)


def lyc(w: WordT) -> int:
    """Number of cycles of phi(sigma)."""
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
