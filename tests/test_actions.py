"""x-factorization and the three valley-hopping actions: worked example,
orbit structure, canonical representatives.  The involution and
commutation laws are the action-axioms check."""

import itertools

import pytest

from eulerian_gamma.actions import (
    _x_blocks,
    canonical_rep,
    foata_strehl,
    mfs,
    mfs_single,
    orbit,
    restricted_hops,
    restricted_mfs,
    restricted_mfs_single,
)
from eulerian_gamma.errors import LabelOutOfRange, NotInDomain
from eulerian_gamma.perm import dd_count, des, shape_counts
from eulerian_gamma.rixfact import rix, rix_factorize


def test_x_factorization_worked_example():
    w = (2, 7, 4, 3, 1, 5, 6)
    lo, pos, hi = _x_blocks(w, 4)  # sigma = w1 w2 x w3 w4
    assert (w[:lo], w[lo:pos], w[pos + 1: hi], w[hi:]) == (
        (2, 7), (), (3, 1), (5, 6))
    assert foata_strehl(w, 4) == (2, 7, 3, 1, 4, 5, 6)


def test_x_factorization_label_range():
    with pytest.raises(LabelOutOfRange):
        foata_strehl((2, 1, 3), 4)
    with pytest.raises(LabelOutOfRange):
        mfs_single((2, 1, 3), 0)


def test_modified_action_fixes_peaks_and_valleys():
    # 4132: 4 peak? no: boundary inf, 4 first: inf>4>1 dd -> hops
    assert mfs_single((4, 1, 3, 2), 4) == (1, 3, 2, 4)
    # 1 is a valley, 3 a peak: both fixed
    assert mfs_single((4, 1, 3, 2), 1) == (4, 1, 3, 2)
    assert mfs_single((4, 1, 3, 2), 3) == (4, 1, 3, 2)


def test_restricted_action_freezes_beta1_and_rixed_points():
    assert restricted_hops(()) == []
    for n in range(1, 7):
        for w in itertools.permutations(range(1, n + 1)):
            fact = rix_factorize(w)
            assert restricted_mfs_single(w, fact.beta1) == w
            for x in fact.rix_set:
                assert restricted_mfs_single(w, x) == w
            assert restricted_hops(w) == [
                restricted_mfs_single(w, x) for x in range(1, n + 1)]


def test_set_action_matches_composition():
    w = (5, 2, 6, 1, 4, 3)
    assert mfs(w, [3, 1]) == mfs_single(mfs_single(w, 1), 3)
    assert restricted_mfs(w, [2, 5]) == restricted_mfs_single(
        restricted_mfs_single(w, 2), 5
    )


def test_hop_toggles_des_by_one():
    for n in range(1, 7):
        for w in itertools.permutations(range(1, n + 1)):
            for x in range(1, n + 1):
                w2 = mfs_single(w, x)
                if w2 != w:
                    assert abs(des(w2) - des(w)) == 1


def test_orbit_sizes_are_powers_of_two():
    """... and at most 2^(dd+da), exactly that for mfs: the bound the
    orbit command checks before it searches."""
    for n in range(1, 7):
        for w in itertools.permutations(range(1, n + 1)):
            dd, da, _, _ = shape_counts(w)
            for action in ("mfs", "restricted"):
                size = len(orbit(w, action))
                assert size & (size - 1) == 0
                assert size <= 2 ** (dd + da)
            assert len(orbit(w, "mfs")) == 2 ** (dd + da)


def test_identity_orbit_is_full():
    for n in range(1, 8):
        ident = tuple(range(1, n + 1))
        assert len(orbit(ident, "mfs")) == 2 ** (n - 1)


def test_small_orbit_example():
    assert orbit((4, 1, 3, 2), "mfs") == {(1, 3, 2, 4), (4, 1, 3, 2)}


def test_canonical_rep_mfs():
    for n in range(1, 7):
        for w in itertools.permutations(range(1, n + 1)):
            rep = canonical_rep(w, "mfs")
            assert dd_count(rep) == 0
            assert rep in orbit(w, "mfs")
            # unique dd-free element of the orbit
            assert sum(
                1 for v in orbit(w, "mfs") if dd_count(v) == 0
            ) == 1


def test_canonical_rep_restricted():
    for n in range(2, 7):
        for w in itertools.permutations(range(1, n + 1)):
            if rix(w) != 0:
                continue
            rep = canonical_rep(w, "restricted")
            assert dd_count(rep) == 1
            assert rep in orbit(w, "restricted")
            assert sum(
                1 for v in orbit(w, "restricted") if dd_count(v) == 1
            ) == 1


def test_canonical_rep_restricted_requires_rix_zero():
    with pytest.raises(NotInDomain):
        canonical_rep((1, 2, 3), "restricted")
