"""Standard cycle form, the hook-to-cycle bijection phi, and the map f."""

import itertools

import pytest

from eulerian_gamma.bijections import (
    f_inv,
    f_map,
    format_scf,
    lyc,
    phi,
    phi_inv,
    scf,
)
from eulerian_gamma.errors import NotInDomain
from eulerian_gamma.perm import (
    cda_count,
    cyc_count,
    dd_count,
    des,
    exc_count,
    fix_set,
    is_derangement,
)
from eulerian_gamma.rixfact import rix, rixed_points
from test_kernel_references import word_from_cycles


def test_scf_format_example():
    # sigma = 8 5 3 9 2 6 4 1 7 written in one-line form
    w = (8, 5, 3, 9, 2, 6, 4, 1, 7)
    assert format_scf(scf(w)) == "(9 7 4)(8 1)(5 2)(3)(6)"


def test_scf_round_trip():
    for n in range(1, 7):
        for w in itertools.permutations(range(1, n + 1)):
            assert word_from_cycles(scf(w), n) == w


def test_scf_ordering_rules():
    for n in range(1, 7):
        for w in itertools.permutations(range(1, n + 1)):
            cycles = scf(w)
            longs = [c for c in cycles if len(c) >= 2]
            fixed = [c for c in cycles if len(c) == 1]
            assert cycles == tuple(longs) + tuple(fixed)
            for c in longs:
                assert c[0] == max(c)
            assert [c[0] for c in longs] == sorted(
                (c[0] for c in longs), reverse=True
            )
            assert [c[0] for c in fixed] == sorted(c[0] for c in fixed)


def test_phi_worked_example():
    w = (7, 6, 9, 1, 8, 4, 2, 3, 5, 10)
    assert phi(w) == (8, 4, 2, 3, 5, 7, 9, 1, 6, 10)


def test_phi_small_example():
    assert phi((4, 1, 3, 2)) == (4, 3, 1, 2)


def test_phi_preserves_des_as_exc_and_rix_as_fix():
    for n in range(1, 8):
        for w in itertools.permutations(range(1, n + 1)):
            image = phi(w)
            assert des(w) == exc_count(image)
            assert rixed_points(w) == fix_set(image)


def test_phi_round_trips():
    for n in range(1, 8):
        for w in itertools.permutations(range(1, n + 1)):
            assert phi_inv(phi(w)) == w
            assert phi(phi_inv(w)) == w


def test_phi_restricts_to_cda_free_derangements():
    for n in range(1, 7):
        for w in itertools.permutations(range(1, n + 1)):
            if dd_count(w) == 1 and rix(w) == 0:
                image = phi(w)
                assert is_derangement(image)
                assert cda_count(image) == 0
                assert exc_count(image) == des(w)


def test_lyc():
    for n in range(1, 7):
        for w in itertools.permutations(range(1, n + 1)):
            assert lyc(w) == cyc_count(phi(w))
    assert lyc(()) == 0


def test_f_worked_examples():
    assert f_map((4, 1, 3, 2)) == (1, 3, 2, 4)
    assert f_inv((1, 3, 2, 4)) == (4, 1, 3, 2)


def test_f_domain_errors():
    with pytest.raises(NotInDomain):
        f_map((1, 2, 3))  # dd = 0
    with pytest.raises(NotInDomain):
        f_inv((3, 2, 1))  # ends with a descent
    with pytest.raises(NotInDomain):
        f_inv((1,))


def test_f_round_trips_and_families():
    for n in range(2, 8):
        for w in itertools.permutations(range(1, n + 1)):
            if dd_count(w) == 1 and rix(w) == 0:
                image = f_map(w)
                assert dd_count(image) == 0
                assert image[-2] < image[-1]
                assert des(image) + 1 == des(w)
                assert f_inv(image) == w
            if dd_count(w) == 0 and w[-2] < w[-1]:
                back = f_inv(w)
                assert dd_count(back) == 1
                assert rix(back) == 0
                assert des(back) == des(w) + 1
                assert f_map(back) == w
