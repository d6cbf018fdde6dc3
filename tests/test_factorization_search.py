"""prop-3.4's enumerated side, the pruned cut search of
checks._valid_factorizations, against the literal reference: every one of
the 2^(n-1) ways to cut a word, each kept when it meets the side
conditions of the rix-factorization."""

import functools
import random

import pytest

from eulerian_gamma.checks import _valid_factorizations
from eulerian_gamma.perm import words


@functools.cache
def _cut_lists(n):
    """Every one of the 2^(n-1) ways to cut a word of length n: the
    (start, end) bounds of its alphas and the start of its beta."""
    lists = []
    for mask in range(1 << (n - 1)) if n else []:
        cuts = [0] + [i + 1 for i in range(n - 1) if mask >> i & 1] + [n]
        lists.append((tuple(zip(cuts, cuts[1:-1])), cuts[-2]))
    return tuple(lists)


def _is_beta(beta):
    """An L- or F-hook whose first letter is its greatest descent top."""
    m = max(beta)
    if not (beta[-1] == m or (len(beta) >= 2 and beta[0] == m)):
        return False
    tops = [beta[i] for i in range(len(beta) - 1) if beta[i] > beta[i + 1]]
    return not tops or beta[0] == max(tops)


def _literal_valid_factorizations(w):
    """Every cut of w, kept when it meets every side condition.  A factor's
    own conditions depend only on its bounds, so they are computed once per
    bounds; the chain is checked for each cut."""
    n = len(w)
    alpha_ok = {(s, e): e - s >= 2 and w[e - 1] == max(w[s:e])  # L-hook >= 2
                for s in range(n) for e in range(s + 1, n)}
    beta_ok = [_is_beta(w[s:]) for s in range(n)]
    valid = []
    for alphas, b in _cut_lists(n):
        if not beta_ok[b] or not all(alpha_ok[bounds] for bounds in alphas):
            continue
        chain = [w[e - 1] for _, e in alphas] + [w[b]]
        if any(chain[i] <= chain[i + 1] for i in range(len(chain) - 1)):
            continue
        valid.append((tuple(w[s:e] for s, e in alphas), w[b:]))
    return valid


@pytest.mark.parametrize("n", range(9))
def test_pruned_search_matches_every_cut_on_s_n(n):
    for w in words(n):
        assert _valid_factorizations(w) == _literal_valid_factorizations(w), w


def test_pruned_search_matches_every_cut_on_long_words():
    rng = random.Random(20140)
    for n in range(10, 14):
        for _ in range(40):
            w = tuple(rng.sample(range(1, n + 1), n))
            assert _valid_factorizations(w) == _literal_valid_factorizations(w), w
