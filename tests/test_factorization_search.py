"""prop-3.4's enumerated side, the pruned cut search of
checks._valid_factorizations, against the literal reference: every one of
the 2^(n-1) ways to cut a word, each kept when it meets the side
conditions of the rix-factorization."""

import random

import pytest

from eulerian_gamma.checks import _valid_factorizations
from eulerian_gamma.perm import words


def _literal_valid_factorizations(w):
    n = len(w)
    valid = []
    for mask in range(1 << (n - 1)) if n else []:
        cuts = [0] + [i + 1 for i in range(n - 1) if mask >> i & 1] + [n]
        factors = [w[cuts[i]: cuts[i + 1]] for i in range(len(cuts) - 1)]
        alphas, beta = factors[:-1], factors[-1]
        if any(len(a) < 2 or a[-1] != max(a) for a in alphas):
            continue
        m = max(beta)
        if not (beta[-1] == m or (len(beta) >= 2 and beta[0] == m)):
            continue
        chain = [a[-1] for a in alphas] + [beta[0]]
        if any(chain[i] <= chain[i + 1] for i in range(len(chain) - 1)):
            continue
        tops = [beta[i] for i in range(len(beta) - 1) if beta[i] > beta[i + 1]]
        if tops and beta[0] != max(tops):
            continue
        valid.append((tuple(alphas), beta))
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
