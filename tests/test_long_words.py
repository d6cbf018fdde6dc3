"""Seeded random words above the exhaustive ceilings (n = 10 to 60): the
bijection Phi, the three hops, the two rix routes and the canonical
representative, on plain tuples."""

import random

import pytest

from eulerian_gamma.actions import (
    canonical_rep,
    foata_strehl,
    mfs_single,
    restricted_mfs_single,
)
from eulerian_gamma.bijections import phi, phi_inv
from eulerian_gamma.perm import dd_count, des, exc_count, fix_set
from eulerian_gamma.rixfact import rix, rixed_points

WORDS_PER_N = 200


@pytest.mark.parametrize("n", [10, 20, 40, 60])
def test_identities_on_random_long_words(n):
    rng = random.Random(n)
    for _ in range(WORDS_PER_N):
        w = tuple(rng.sample(range(1, n + 1), n))
        image = phi(w)
        assert phi_inv(image) == w
        assert des(w) == exc_count(image)
        assert rixed_points(w) == fix_set(image)

        x = rng.randint(1, n)
        for hop in (foata_strehl, mfs_single, restricted_mfs_single):
            assert hop(hop(w, x), x) == w, (hop.__name__, w, x)

        assert rix(w) == len(rixed_points(w))

        rep = canonical_rep(w)
        assert dd_count(rep) == 0
        assert canonical_rep(mfs_single(w, rng.randint(1, n))) == rep
