"""Enumerated polynomial families against the printed golden values and
against each other; family membership against literal definitions."""

from collections import Counter

import pytest

from eulerian_gamma.errors import MismatchAgainstDirect, NotExpandable
from eulerian_gamma.families import (
    alternating_inv_poly,
    basic_eulerian,
    basic_eulerian_desrix,
    cda_free_derangement_cyc_table,
    cyc_gamma,
    d_index,
    d_tilde_index,
    dd_free_ascent_inv_table,
    dd_free_inv_table,
    derangement_cyc_poly,
    derangement_exc_des_maj_poly,
    e_index,
    gamma_basic,
    gamma_derangement,
    gamma_poly,
    gamma_tilde_poly,
    r0_index,
    sizes,
    sw3_gamma,
)
from eulerian_gamma.mpoly import MPoly, ONE
from eulerian_gamma.perm import is_alternating, is_derangement, words
from eulerian_gamma.rixfact import rixed_points

t = MPoly.var("t")
r = MPoly.var("r")
q = MPoly.var("q")
y = MPoly.var("y")
b = MPoly.var("b")


def test_basic_eulerian_small():
    assert basic_eulerian(0) == ONE
    assert basic_eulerian(1) == r
    assert basic_eulerian(2) == r**2 + t
    # 123 -> r^3; 312 -> t; 231 -> t^2; 213/132/321 -> tr, trq, trq^2
    assert basic_eulerian(3) == r**3 + t + t**2 + t * r * (ONE + q + q**2)


def test_golden_a4_at_r_one():
    golden = (ONE + t) ** 3 + (
        2 * q + 3 * q**2 + 2 * q**3 + q**4
    ) * t * (ONE + t)
    assert basic_eulerian(4).substitute("r", 1) == golden


def test_golden_a4_at_r_zero():
    golden = t * (ONE + t) ** 2 + (q + 2 * q**2 + q**3 + q**4) * t**2
    assert basic_eulerian(4).substitute("r", 0) == golden


def test_triple_equidistribution():
    for n in range(0, 7):
        assert basic_eulerian(n) == basic_eulerian_desrix(n)


def test_golden_gamma_polys():
    assert gamma_poly(0) == ONE
    assert gamma_poly(1) == ONE
    assert gamma_poly(2) == ONE
    assert gamma_poly(3) == ONE + y * (q + q**2)
    assert gamma_poly(4) == ONE + y * (q + q**2) * (2 + q + q**2)
    assert gamma_poly(5) == (
        ONE
        + y * (3 * q + 5 * q**2 + 5 * q**3 + 5 * q**4 + 2 * q**5 + 2 * q**6)
        + y**2 * (q + q**3) * (ONE + q + q**2 + q**3) * (q + q**2)
    )


def test_golden_gamma_tilde_polys():
    assert gamma_tilde_poly(0) == ONE
    assert gamma_tilde_poly(1) == MPoly.zero()
    assert gamma_tilde_poly(2) == y
    assert gamma_tilde_poly(3) == y
    assert gamma_tilde_poly(4) == y + y**2 * (q + 2 * q**2 + q**3 + q**4)
    assert gamma_tilde_poly(5) == y + y**2 * (
        2 * q + 4 * q**2 + 4 * q**3 + 4 * q**4 + 2 * q**5 + 2 * q**6
    )


def test_gamma_basic_table():
    expansion = gamma_basic(4)
    assert expansion.center == 3
    assert expansion.gammas[0] == ONE
    assert expansion.gammas[1] == 2 * q + 3 * q**2 + 2 * q**3 + q**4
    # agrees with the direct family table
    assert dd_free_inv_table(4)[1] == expansion.gammas[1]


def test_gamma_derangement_table():
    expansion = gamma_derangement(5)
    assert expansion.center == 5
    assert expansion.gammas[0].is_zero()
    assert expansion.gammas[1] == ONE
    assert expansion.gammas[2] == (
        2 * q + 4 * q**2 + 4 * q**3 + 4 * q**4 + 2 * q**5 + 2 * q**6
    )
    assert dd_free_ascent_inv_table(5) == {
        1: expansion.gammas[1],
        2: expansion.gammas[2],
    }


def test_cyc_gamma_table():
    expansion = cyc_gamma(4)
    assert expansion.gammas[1] == b
    assert expansion.gammas[2] == 2 * b + 3 * b**2
    assert cda_free_derangement_cyc_table(4)[2] == 2 * b + 3 * b**2


def test_derangement_cyc_poly_specializes():
    for n in range(1, 7):
        assert derangement_cyc_poly(n).substitute("b", 1) == basic_eulerian(
            n
        ).substitute("r", 0).substitute("q", 1)


def test_sw3_gamma_nonnegative_and_specializes():
    for n in range(1, 7):
        expansion = sw3_gamma(n)
        assert expansion.center == n
        direct = dd_free_ascent_inv_table(n)
        for k, g in enumerate(expansion.gammas):
            assert g.coefficients_nonnegative()
            assert g.substitute("p", 1) == direct.get(k, MPoly.zero())
        if n >= 2:
            assert expansion.gammas[0].is_zero()


def test_alternating_counts():
    # up-down counts (tangent/secant numbers): 1, 1, 2, 5, 16, 61 for n=1..6
    sizes = [
        alternating_inv_poly(n).substitute("q", 1) for n in range(1, 7)
    ]
    assert sizes == [ONE, ONE, MPoly.const(2), MPoly.const(5),
                     MPoly.const(16), MPoly.const(61)]


def test_extraction_cross_check_raises_on_corruption():
    from eulerian_gamma.families import _checked_extract
    from eulerian_gamma.mpoly import gamma_sum

    h = gamma_sum({0: ONE, 1: ONE}, 3)  # gammas 1, 1 at center 3
    assert _checked_extract("fake", 3, h, 3, {0: ONE, 1: ONE}).gammas == (ONE, ONE)
    with pytest.raises(MismatchAgainstDirect,
                       match=r"^fake: k=1: extracted 1 != direct 2\*q$"):
        _checked_extract("fake", 3, h, 3, {0: ONE, 1: 2 * q})
    # a direct k above the extracted range counts the extracted side as 0
    with pytest.raises(MismatchAgainstDirect,
                       match=r"^fake: k=2: extracted 0 != direct q$"):
        _checked_extract("fake", 3, h, 3, {0: ONE, 1: ONE, 2: q})
    with pytest.raises(ValueError, match="n >= 1 required"):
        _checked_extract("fake", 0, h, 3, {0: ONE, 1: ONE})


def test_gamma_extraction_rejects_wrong_center():
    from eulerian_gamma.mpoly import gamma_extract

    with pytest.raises(NotExpandable):
        gamma_extract(basic_eulerian(4).substitute("r", 1), center=4)


# --- family membership ------------------------------------------------------

def _literal_dd(w):
    """Double descents, scanned with +infinity (n + 1) on both sides."""
    p = (len(w) + 1, *w, len(w) + 1)
    return sum(1 for i in range(1, len(w) + 1) if p[i - 1] > p[i] > p[i + 1])


def _literal_des(w):
    return sum(1 for a, b in zip(w, w[1:]) if a > b)


def _literal_cda(w):
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


def test_index_functions_match_literal_definitions():
    for n in range(8):  # n = 0 is the empty word
        for w in words(n):
            dd, des = _literal_dd(w), _literal_des(w)
            exc = sum(1 for i, v in enumerate(w, 1) if v > i)
            derangement = all(v != i for i, v in enumerate(w, 1))
            final_ascent = n >= 2 and w[-2] < w[-1]
            assert d_index(w) == (des if dd == 0 else None), w
            assert d_tilde_index(w) == (
                des + 1 if dd == 0 and final_ascent else None), w
            assert e_index(w) == (
                exc if derangement and _literal_cda(w) == 0 else None), w
            assert r0_index(w) == (
                des if dd == 1 and not rixed_points(w) else None), w


def test_classify_counts_as_the_family_polynomials():
    """n = 0 included: the empty word is in D_{0,0} and E_{0,0} and is an
    alternating derangement, as every family polynomial counts it."""
    empty = ()
    assert (d_index(empty), d_tilde_index(empty), e_index(empty),
            r0_index(empty)) == (0, None, 0, None)
    assert is_alternating(empty) and is_derangement(empty)
    for n in range(6):
        ws = list(words(n))

        def count(index):
            return Counter(k for k in map(index, ws) if k is not None)

        assert sizes(dd_free_inv_table(n)) == count(d_index)
        assert sizes(dd_free_ascent_inv_table(n)) == count(d_tilde_index)
        assert sizes(cda_free_derangement_cyc_table(n)) == count(e_index)
        assert alternating_inv_poly(n).substitute("q", 1) == sum(
            map(is_alternating, ws))
        assert sum(derangement_exc_des_maj_poly(n).terms.values()) == sum(
            map(is_derangement, ws))
