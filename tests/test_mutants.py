"""Checks with teeth: each mutant rebinds one kernel to a plausible bug,
and the check that claims the property the bug breaks must fail on it.

Every lru_cache in the package is cleared before and after each mutant,
so no table computed under a mutant outlives it.
"""

import importlib
import pkgutil

import pytest

import eulerian_gamma
from eulerian_gamma import actions, checks, perm, rixfact
from eulerian_gamma.checks import run_check


def _clear_caches():
    for info in pkgutil.iter_modules(eulerian_gamma.__path__):
        module = importlib.import_module(f"eulerian_gamma.{info.name}")
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def _frozen_without_beta1(w):
    """The freeze rule forgetting beta1: only the rixed points stay put."""
    return rixfact.rix_factorize(w).rix_set


def _dd_letters_but_first(w):
    return perm.dd_letters(w)[1:]


def _ai_plus_one_on_dd(w):
    return perm.admissible_inversion_count(w) + (perm.dd_count(w) > 0)


def _first_descent_top(w):
    """Index of the first descent top (rix_factorize wants the greatest)."""
    return next((i for i in range(len(w) - 1) if w[i] > w[i + 1]), None)


# check id -> (module, name, mutant)
MUTANTS = {
    "lemma-4.1": (actions, "_frozen", _frozen_without_beta1),
    "thm-1.4": (actions, "dd_letters", _dd_letters_but_first),
    "lemma-2.1": (checks, "admissible_inversion_count", _ai_plus_one_on_dd),
    "prop-3.4": (rixfact, "_greatest_descent_top", _first_descent_top),
}


@pytest.mark.parametrize("check_id", sorted(MUTANTS))
def test_check_fails_on_its_mutant(check_id):
    module, name, mutant = MUTANTS[check_id]
    original = getattr(module, name)
    _clear_caches()
    setattr(module, name, mutant)
    try:
        report = run_check(check_id, max_n=6)
    finally:
        setattr(module, name, original)
        _clear_caches()
    assert not report.passed, f"{check_id} passed with {name} mutated"
