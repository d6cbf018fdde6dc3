"""Statistics, parsing, classification and enumeration on small symmetric
groups, checked against hand-computed values and exhaustive identities."""

import itertools

import pytest

from eulerian_gamma.errors import BudgetExceeded, NotABijection
from eulerian_gamma.families import d_index, d_tilde_index, e_index, r0_index
from eulerian_gamma.perm import (
    admissible_inversion_count,
    cda_count,
    cyc_count,
    dd_count,
    des,
    des_set,
    exc_count,
    fix_set,
    format_word,
    imaj,
    inv_count,
    inverse,
    is_alternating,
    is_derangement,
    maj,
    parse_permutation,
    shape_counts,
    statistics,
    words,
)


def test_permutation_validates():
    assert parse_permutation("213") == (2, 1, 3)
    assert parse_permutation("") == ()
    for text in ("112", "23", "1,1,2", "2,3", "0,1"):
        with pytest.raises(NotABijection):
            parse_permutation(text)


def test_parse_digit_and_comma_forms():
    assert parse_permutation("2743156") == (2, 7, 4, 3, 1, 5, 6)
    assert parse_permutation("10,8,4,9,7,2,5,3,6,1") == (
        10, 8, 4, 9, 7, 2, 5, 3, 6, 1,
    )
    with pytest.raises(NotABijection):
        parse_permutation("abc")


def test_format_word_round_trip():
    assert format_word((2, 1, 3)) == "213"
    long = tuple(range(10, 0, -1))
    assert format_word(long) == "10,9,8,7,6,5,4,3,2,1"
    assert parse_permutation(format_word(long)) == long


def test_basic_statistics_small():
    w = (2, 9, 1, 7, 5, 3, 4, 6, 8)
    assert admissible_inversion_count(w) == 12
    assert maj(w) == 2 + 4 + 5
    assert des(w) == 3
    assert des_set(w) == frozenset({2, 4, 5})


def test_shape_counts_example():
    # 6 5 1 3 7 4 2 8: under the +infinity boundary convention
    w = (6, 5, 1, 3, 7, 4, 2, 8)
    dd, da, peak, valley = shape_counts(w)
    assert (dd, da, peak, valley) == (3, 2, 1, 2)
    assert dd + da + 2 * peak == len(w) - 1
    assert valley == peak + 1


def test_shape_counts_exhaustive_identities():
    for n in range(1, 7):
        for w in itertools.permutations(range(1, n + 1)):
            dd, da, peak, valley = shape_counts(w)
            assert dd + da + peak + valley == n
            assert valley == peak + 1
            assert dd + da + 2 * peak == n - 1
            assert dd == dd_count(w)


def test_single_letter_is_a_valley():
    assert shape_counts((1,)) == (0, 0, 0, 1)


def test_inverse_and_imaj():
    for n in range(1, 6):
        for w in itertools.permutations(range(1, n + 1)):
            assert inverse(inverse(w)) == w
            assert imaj(w) == maj(inverse(w))


def test_excedance_fixed_point_cycle():
    w = (3, 1, 2, 4, 6, 5)
    assert exc_count(w) == 2
    assert fix_set(w) == frozenset({4})
    assert cyc_count(w) == 3
    assert not is_derangement(w)
    assert is_derangement((2, 1, 4, 3))


def test_cda_definition():
    # cyclic double ascents: i with sigma^-1(i) < i < sigma(i)
    for n in range(1, 7):
        for w in itertools.permutations(range(1, n + 1)):
            inv = inverse(w)
            direct = sum(
                1 for i in range(1, n + 1) if inv[i - 1] < i < w[i - 1]
            )
            assert cda_count(w) == direct


def test_admissible_inversions_brute_force():
    """Quadratic implementation vs the literal definition."""
    def brute(w):
        n = len(w)
        total = 0
        for i in range(n):
            for j in range(i + 1, n):
                if w[i] <= w[j]:
                    continue
                cond1 = i > 0 and w[i - 1] < w[i]
                cond2 = any(w[l] > w[i] for l in range(i + 1, j))
                if cond1 or cond2:
                    total += 1
        return total

    for n in range(1, 7):
        for w in itertools.permutations(range(1, n + 1)):
            assert admissible_inversion_count(w) == brute(w)


def test_ai_at_most_inv_with_equality_on_dd_free():
    for n in range(1, 7):
        for w in itertools.permutations(range(1, n + 1)):
            ai = admissible_inversion_count(w)
            assert ai <= inv_count(w)
            if dd_count(w) == 0:
                assert ai == inv_count(w)


def test_is_alternating():
    assert is_alternating((1, 3, 2))
    assert is_alternating((2, 4, 1, 3))
    assert not is_alternating((3, 2, 1))
    assert is_alternating((1,))


def test_statistics_bundle_keys_and_values():
    bundle = statistics(parse_permutation("291753468"))
    data = bundle.as_dict()
    assert list(data) == [
        "exc", "fix", "fix_set", "maj", "des", "des_set", "inv", "imaj",
        "ai", "aid", "rix", "rix_set", "cyc", "cda", "dd", "da", "peak",
        "valley", "lyc",
    ]
    assert data["ai"] == 12
    assert data["rix"] == 2
    assert data["aid"] == data["ai"] + data["des"]


def test_statistics_trivial_permutation():
    data = statistics((1,)).as_dict()
    assert data["rix"] == 1
    assert data["rix_set"] == [1]
    assert data["fix"] == 1
    assert data["valley"] == 1
    assert data["lyc"] == 1


def test_classify():
    w = (1, 3, 2, 4)
    assert (d_index(w), d_tilde_index(w), e_index(w), r0_index(w)) == (
        1, 2, None, None)
    w = (4, 1, 3, 2)
    assert d_index(w) is None
    assert r0_index(w) == 2
    w = (2, 1, 4, 3)
    assert is_derangement(w)
    assert e_index(w) == 2


def test_enumeration_budget():
    assert len(list(words(4))) == 24
    with pytest.raises(BudgetExceeded):
        words(13)
