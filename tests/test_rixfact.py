"""The rix statistic and the rix-factorization: worked examples plus the
exhaustive agreement of the recursive and factorization routes."""

import itertools

import pytest

from eulerian_gamma.rixfact import (
    F_HOOK,
    L_HOOK,
    format_factorization,
    hook_kind,
    rix,
    rix_factorize,
    rixed_points,
)


def test_rix_worked_example():
    assert rix((2, 9, 1, 7, 5, 3, 4, 6, 8)) == 2


def test_rix_base_cases():
    assert rix((1,)) == 1
    assert rix((1, 2)) == 2
    assert rix((2, 1)) == 0
    assert rix(tuple(range(1, 7))) == 6
    assert rix((6, 1, 2, 3, 4, 5)) == 0


def test_hook_kind():
    assert hook_kind((1, 2, 5)) == L_HOOK
    assert hook_kind((3,)) == L_HOOK
    assert hook_kind((5, 1, 4)) == F_HOOK
    with pytest.raises(ValueError):
        hook_kind((1, 5, 3))


def test_factorization_worked_example():
    fact = rix_factorize((2, 1, 8, 7, 9, 3, 5, 4, 6, 10))
    assert fact.alphas == ((2, 1, 8, 7, 9), (3, 5))
    assert fact.beta == (4, 6, 10)
    assert fact.beta_kind == L_HOOK
    assert fact.beta1 == 4
    assert fact.rix_set == frozenset({4, 6, 10})
    assert (
        format_factorization(fact)
        == "2 1 8 7 9|3 5|4 6 10 [L] beta1=4 RIX={4,6,10}"
    )


def test_factorization_f_hook_example():
    fact = rix_factorize((4, 1, 3, 2))
    assert fact.alphas == ()
    assert fact.beta == (4, 1, 3, 2)
    assert fact.beta_kind == F_HOOK
    assert fact.rix_set == frozenset()


def test_factorization_concatenates_back():
    for n in range(1, 8):
        for w in itertools.permutations(range(1, n + 1)):
            assert rix_factorize(w).word == w


def test_recursive_rix_equals_the_factorization_rix():
    for n in range(1, 8):
        for w in itertools.permutations(range(1, n + 1)):
            assert rixed_points(w) == rix_factorize(w).rix_set, w


def test_rix_zero_iff_long_f_hook_beta():
    for n in range(1, 8):
        for w in itertools.permutations(range(1, n + 1)):
            fact = rix_factorize(w)
            f_hook = fact.beta_kind == F_HOOK and len(fact.beta) >= 2
            assert (rix(w) == 0) == f_hook


def test_alpha_factors_are_long_l_hooks_with_decreasing_chain():
    for n in range(1, 8):
        for w in itertools.permutations(range(1, n + 1)):
            fact = rix_factorize(w)
            for a in fact.alphas:
                assert len(a) >= 2
                assert a[-1] == max(a)
            chain = [a[-1] for a in fact.alphas] + [fact.beta1]
            assert all(
                chain[i] > chain[i + 1] for i in range(len(chain) - 1)
            )


def test_rixed_points_are_increasing_beta_suffix():
    for n in range(1, 8):
        for w in itertools.permutations(range(1, n + 1)):
            fact = rix_factorize(w)
            rixed = sorted(fact.rix_set)
            if rixed:
                k = len(fact.beta) - len(rixed)
                assert list(fact.beta[k:]) == rixed
                assert all(v >= fact.beta1 for v in rixed)
