"""The one-pass kernels against their literal definitions: the
rix-factorization by repeated cuts after the greatest descent top, Phi
through hook cycles and word_from_cycles, the standard cycle form by
rotating and sorting the cycles, phi_inv by concatenating its parts, ai
through the next greater letter of each w_i, inv by counting the smaller
letters after each w_i, cda by walking each cycle, des and the
derangement test by comparing letters pairwise, the restricted orbit
start rule by testing every double descent for a frozen letter, dd, the
double-descent letters and the shape counts by comparing each letter with
its literal neighbours (n + 1 past either end), and the modified hops by
cutting out the x-factorization w1 w2 x w3 w4 of each x.  Each reference
is asserted equal to its kernel on every word of S_n for n <= 8 and on
seeded random words up to n = 200."""

import random
from typing import Sequence

import pytest

from eulerian_gamma import actions, bijections, checks, rixfact
from eulerian_gamma.perm import (
    admissible_inversion_count,
    cda_count,
    dd_count,
    dd_letters,
    des,
    inv_count,
    is_derangement,
    shape_counts,
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


def _literal_inv(w):
    """For each i, the letters after w_i that are smaller than it."""
    return sum(1 for i, wi in enumerate(w) for v in w[i + 1:] if v < wi)


def literal_des(w):
    """Positions i with w_i > w_(i+1)."""
    return sum(1 for a, b in zip(w, w[1:]) if a > b)


def literal_derangement(w):
    """No position i with w_i = i."""
    return all(v != i for i, v in enumerate(w, 1))


def _literal_shapes(w):
    """Each letter's shape from its two neighbours, n + 1 past either end."""
    end = len(w) + 1
    shapes = []
    for i, v in enumerate(w):
        left = w[i - 1] if i > 0 else end
        right = w[i + 1] if i + 1 < len(w) else end
        if left > v > right:
            shapes.append("dd")
        elif left < v < right:
            shapes.append("da")
        elif left < v > right:
            shapes.append("peak")
        else:
            shapes.append("valley")
    return shapes


def literal_dd_count(w):
    return _literal_shapes(w).count("dd")


def literal_dd_letters(w):
    return [v for v, shape in zip(w, _literal_shapes(w)) if shape == "dd"]


def literal_shape_counts(w):
    shapes = _literal_shapes(w)
    return tuple(shapes.count(s) for s in ("dd", "da", "peak", "valley"))


def _literal_mfs_hops(w):
    """For each x, its x-factorization w1 w2 x w3 w4 (w2 and w3 the maximal
    blocks of letters smaller than x beside it), hopped to w1 w3 x w2 w4
    exactly when one of w2 and w3 is empty."""
    hops = []
    for x in range(1, len(w) + 1):
        pos = w.index(x)
        lo = pos
        while lo > 0 and w[lo - 1] < x:
            lo -= 1
        hi = pos + 1
        while hi < len(w) and w[hi] < x:
            hi += 1
        w1, w2, w3, w4 = w[:lo], w[lo:pos], w[pos + 1:hi], w[hi:]
        hops.append(w1 + w3 + (x,) + w2 + w4 if (not w2) != (not w3) else w)
    return hops


def _literal_dd_all_frozen(w):
    """Every double-descent letter is frozen under the restricted action."""
    return set(dd_letters(w)) <= actions._frozen(w)


KERNELS = [
    ("rix_factorize", rixfact.rix_factorize, _literal_rix_factorize),
    ("phi", bijections.phi, _literal_phi),
    ("scf", bijections.scf, _literal_scf),
    ("phi_inv", bijections.phi_inv, _literal_phi_inv),
    ("ai", admissible_inversion_count, _literal_ai),
    ("inv_count", inv_count, _literal_inv),
    ("cda_count", cda_count, literal_cda),
    ("des", des, literal_des),
    ("is_derangement", is_derangement, literal_derangement),
    ("dd_all_frozen", checks._dd_all_frozen, _literal_dd_all_frozen),
    ("dd_count", dd_count, literal_dd_count),
    ("dd_letters", dd_letters, literal_dd_letters),
    ("shape_counts", shape_counts, literal_shape_counts),
    ("mfs_hops", actions.mfs_hops, _literal_mfs_hops),
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

