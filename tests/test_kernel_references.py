"""The one-pass kernels against their literal definitions: the
rix-factorization by repeated cuts after the greatest descent top, Phi
through hook cycles and word_from_cycles, the standard cycle form by
rotating and sorting the cycles, phi_inv by concatenating its parts, ai
through the next greater letter of each w_i, cda by walking each cycle,
des and the derangement test by comparing letters pairwise, and the
restricted orbit start rule by testing every double descent for a frozen
letter.  Each reference is asserted equal to its kernel on every word of
S_n for n <= 8 and on seeded random words up to n = 200."""

import random
from typing import Sequence

import pytest

from eulerian_gamma import actions, bijections, checks, rixfact
from eulerian_gamma.perm import (
    admissible_inversion_count,
    cda_count,
    dd_letters,
    des,
    is_derangement,
    words,
)


def _greatest_descent_top(w):
    """Index of the greatest descent top of w, None if w is increasing."""
    best = None
    for i in range(len(w) - 1):
        if w[i] > w[i + 1] and (best is None or w[i] > w[best]):
            best = i
    return best


def _literal_rix_factorize(w):
    """(alphas, beta, beta_kind, beta1, RIX): cut after the greatest descent
    top until none is left or it is the first letter of what remains."""
    alphas = []
    while True:
        pos = _greatest_descent_top(w)
        if pos is None or pos == 0:
            beta = w
            break
        alphas.append(w[: pos + 1])
        w = w[pos + 1:]
    beta1 = beta[0]
    cut = len(beta) - 1  # start of the maximal increasing suffix of beta
    while cut > 0 and beta[cut - 1] < beta[cut]:
        cut -= 1
    rix_set = frozenset(v for v in beta[cut:] if v >= beta1)
    return tuple(alphas), beta, rixfact.hook_kind(beta), beta1, rix_set


def word_from_cycles(cycles: Sequence[tuple[int, ...]], n: int):
    out = [0] * n
    for cycle in cycles:
        m = len(cycle)
        for i, c in enumerate(cycle):
            out[c - 1] = cycle[(i + 1) % m]
    return tuple(out)


def _hook_cycle(word):
    if rixfact.hook_kind(word) == rixfact.L_HOOK:
        return tuple(reversed(word))
    return (word[0],) + tuple(reversed(word[1:]))


def _literal_phi(w):
    """Each hook factor to its cycle, each rixed point to a fixed point."""
    if not w:
        return ()
    alphas, beta, _, _, rix_set = _literal_rix_factorize(w)
    rixed = sorted(rix_set)
    k = len(beta) - len(rixed)
    cycles = [_hook_cycle(a) for a in alphas]
    if k:
        cycles.append(_hook_cycle(beta[:k]))
    cycles.extend((v,) for v in rixed)
    return word_from_cycles(cycles, len(w))


def _literal_scf(w):
    """Every cycle rotated to start at its maximum, the long cycles sorted
    by decreasing maximum, then the fixed points sorted increasing."""
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


def _literal_phi_inv(w):
    """Each long cycle of the standard cycle form read back as its hook,
    the last one as an F-hook unless the smallest fixed point exceeds its
    maximum, then the fixed points; the parts concatenated."""
    if not w:
        return ()
    cycles = _literal_scf(w)
    long_cycles = [c for c in cycles if len(c) >= 2]
    fixed = [c[0] for c in cycles if len(c) == 1]
    out = ()
    for idx, cycle in enumerate(long_cycles):
        if idx == len(long_cycles) - 1 and (not fixed or fixed[0] > cycle[0]):
            out += (cycle[0],) + tuple(reversed(cycle[1:]))
        else:
            out += tuple(reversed(cycle))
    return out + tuple(fixed)


def literal_cda(w):
    """Values i with sigma^-1(i) < i < sigma(i), read off the cycles."""
    seen, total = set(), 0
    for start in range(1, len(w) + 1):
        cycle = []
        while start not in seen:
            seen.add(start)
            cycle.append(start)
            start = w[start - 1]
        total += sum(
            1 for j, v in enumerate(cycle)
            if cycle[j - 1] < v < cycle[(j + 1) % len(cycle)]
        )
    return total


def _literal_ai(w):
    """Inversions (w_i, w_j) with a left ascent into w_i or a letter
    greater than w_i before w_j: the next greater letter found first."""
    n = len(w)
    total = 0
    for i in range(n):
        wi = w[i]
        next_greater = n
        for l in range(i + 1, n):
            if w[l] > wi:
                next_greater = l
                break
        left_ascent = i > 0 and w[i - 1] < wi
        for j in range(i + 1, n):
            if w[j] < wi and (left_ascent or next_greater < j):
                total += 1
    return total


def literal_des(w):
    """Positions i with w_i > w_(i+1)."""
    return sum(1 for a, b in zip(w, w[1:]) if a > b)


def literal_derangement(w):
    """No position i with w_i = i."""
    return all(v != i for i, v in enumerate(w, 1))


def _literal_dd_all_frozen(w):
    """Every double-descent letter is frozen under the restricted action."""
    return set(dd_letters(w)) <= actions._frozen(w)


KERNELS = [
    ("rix_factorize", rixfact.rix_factorize, _literal_rix_factorize),
    ("phi", bijections.phi, _literal_phi),
    ("scf", bijections.scf, _literal_scf),
    ("phi_inv", bijections.phi_inv, _literal_phi_inv),
    ("ai", admissible_inversion_count, _literal_ai),
    ("cda_count", cda_count, literal_cda),
    ("des", des, literal_des),
    ("is_derangement", is_derangement, literal_derangement),
    ("dd_all_frozen", checks._dd_all_frozen, _literal_dd_all_frozen),
]
LONG_SIZES = (10, 20, 40, 60, 200)


@pytest.mark.parametrize("kernel, reference", [k[1:] for k in KERNELS],
                         ids=[k[0] for k in KERNELS])
def test_kernel_matches_reference_on_s_n(kernel, reference):
    for n in range(1, 9):
        for w in words(n):
            assert kernel(w) == reference(w), w


@pytest.mark.parametrize("kernel, reference", [k[1:] for k in KERNELS],
                         ids=[k[0] for k in KERNELS])
def test_kernel_matches_reference_on_long_words(kernel, reference):
    rng = random.Random(20140)
    for n in LONG_SIZES:
        for _ in range(200):
            w = tuple(rng.sample(range(1, n + 1), n))
            assert kernel(w) == reference(w), w

