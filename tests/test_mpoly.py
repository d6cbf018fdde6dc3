"""Exact polynomial arithmetic, q-binomials, gamma extraction, and
products of truncated series."""

import itertools

import pytest

from eulerian_gamma.errors import NotExpandable, OutOfRange
from eulerian_gamma.mpoly import (
    MPoly,
    ONE,
    gamma_extract,
    gamma_sum,
    one_plus_t_power,
    q_binomial,
)
from eulerian_gamma.series import TruncatedSeries


t = MPoly.var("t")
q = MPoly.var("q")


def test_arithmetic_basics():
    p = (ONE + t) * (ONE + t)
    assert p == ONE + 2 * t + t**2
    assert p - p == MPoly.zero()
    assert (t + q) * (t - q) == t**2 - q**2
    assert t**0 == ONE
    assert MPoly.const(0) == MPoly.zero()


def test_from_counts_with_one_variable_takes_int_keys():
    assert MPoly.from_counts({0: 1, 2: 3}, "q") == ONE + 3 * q**2


def test_from_counts_follows_the_order_of_the_variables():
    assert MPoly.from_counts({(1, 2): 1}, "tq") == t * q**2
    assert MPoly.from_counts({(1, 2): 1}, "qt") == q * t**2


def test_from_counts_drops_zero_counts():
    assert MPoly.from_counts({(1, 2): 0, (0, 1): 5}, "tq") == 5 * q
    assert MPoly.from_counts({3: 0}, "b").is_zero()


def test_from_counts_rejects_an_unknown_variable():
    with pytest.raises(KeyError):
        MPoly.from_counts({1: 1}, "x")


def test_int_coercion_and_equality():
    assert MPoly.const(5) == 5
    assert ONE + 1 == 2
    assert 3 * t == t + t + t


def test_substitute_and_coeff():
    p = ONE + 3 * t * q + t**2
    assert p.substitute("t", 1) == 2 + 3 * q
    assert p.coeff_in("t", 1) == 3 * q
    assert p.coeff_in("t", 2) == ONE
    assert p.degree("t") == 2
    assert MPoly.zero().degree("t") == -1
    # terms that cancel under substitution are dropped
    assert (ONE + t).substitute("t", -1).is_zero()
    assert (ONE + t + q).substitute("t", -1).terms == {(0, 0, 1, 0, 0, 0): 1}


def test_rendering():
    p = 2 * q + 3 * q**2
    assert p.to_text() == "2*q + 3*q^2"
    assert p.to_text_compact() == "2q+3q^2"


def test_q_binomial_against_subset_oracle():
    """[n k]_q = sum over k-subsets S of q^(#inversions between S and its
    complement), checked independently of the Pascal recurrence."""
    for n in range(7):
        for k in range(n + 1):
            acc = MPoly.zero()
            for subset in itertools.combinations(range(1, n + 1), k):
                rest = [v for v in range(1, n + 1) if v not in subset]
                invs = sum(1 for a in subset for b in rest if a > b)
                acc = acc + q**invs
            assert q_binomial(n, k) == acc


def test_q_binomial_symmetry_and_range():
    for n in range(8):
        for k in range(n + 1):
            assert q_binomial(n, k) == q_binomial(n, n - k)
    with pytest.raises(OutOfRange):
        q_binomial(3, 4)


def _q_factorial(n: int) -> MPoly:
    """(q;q)_n = prod_{i=1..n} (1 - q^i)."""
    out = ONE
    for i in range(1, n + 1):
        out = out * (ONE - q**i)
    return out


def test_q_factorial():
    assert _q_factorial(0) == ONE
    assert _q_factorial(1) == ONE - q
    assert _q_factorial(2) == (ONE - q) * (ONE - q**2)


def test_q_binomial_ratio_of_factorials():
    for n in range(7):
        for k in range(n + 1):
            assert (
                q_binomial(n, k) * _q_factorial(k) * _q_factorial(n - k)
                == _q_factorial(n)
            )


def test_gamma_extract_round_trip():
    gammas = (ONE, 2 * q + q**2, MPoly.const(3))
    h = MPoly.zero()
    for k, g in enumerate(gammas):
        h = h + g * t**k * one_plus_t_power(5 - 2 * k)
    expansion = gamma_extract(h, center=5)
    assert expansion.gammas == gammas
    assert gamma_sum(dict(enumerate(expansion.gammas)), 5) == h


def test_gamma_extract_rejects_asymmetric():
    with pytest.raises(NotExpandable):
        gamma_extract(ONE + 2 * t, center=1)
    with pytest.raises(NotExpandable):
        gamma_extract(t**3, center=2)


def test_series_product_picks_up_q_binomials():
    """Slot 2 of e(z;q)^2 stores sum_i [2 i]_q = 1 + (1+q) + 1 = 3 + q."""
    e = TruncatedSeries((ONE,) * 5)  # e(z;q): every slot is 1
    prod = e * e
    assert prod[0] == ONE
    assert prod[1] == 2
    assert prod[2] == 3 + q
    # general slot: sum of all [n i]_q
    for n in range(5):
        acc = MPoly.zero()
        for i in range(n + 1):
            acc = acc + q_binomial(n, i)
        assert prod[n] == acc


def test_series_product_truncates_to_shorter_order():
    a = TruncatedSeries((ONE, t, t**2))
    b = TruncatedSeries((ONE, ONE))
    assert (a * b).order == (b * a).order == 1
    assert (a * b)[1] == t + ONE
    assert (a * b) == (b * a) == TruncatedSeries((ONE, t + ONE))


def test_series_is_an_immutable_value_not_a_tuple():
    a = TruncatedSeries((ONE, t))
    assert a == TruncatedSeries((ONE, t)) and hash(a) == hash(TruncatedSeries((ONE, t)))
    assert a != TruncatedSeries((ONE, q)) and a != (ONE, t)
    with pytest.raises(AttributeError):
        a.coeffs = (ONE,)
    assert a.coeffs == (ONE, t)


def test_series_exp_functional_equation():
    """e(z;q) * e(tz;q) slotwise equals the series with slot n equal to
    sum_i [n i]_q t^(n-i)."""
    e_t = TruncatedSeries(tuple(t**n for n in range(6)))  # e(tz;q): slot n is t^n
    prod = e_t * TruncatedSeries((ONE,) * 6)
    for n in range(6):
        acc = MPoly.zero()
        for i in range(n + 1):
            acc = acc + q_binomial(n, i) * t**i
        assert prod[n] == acc
