"""Checks with teeth: each mutant rebinds one kernel to a plausible bug,
and the check that claims the property the bug breaks must fail on it.

Every lru_cache in the package is cleared before and after each mutant,
so no table computed under a mutant outlives it.
"""

import importlib
import pkgutil

import pytest

import eulerian_gamma
from eulerian_gamma import actions, bijections, checks, families, perm, rixfact
from eulerian_gamma.checks import run_check
from eulerian_gamma.errors import NotInDomain

_LYC = bijections.lyc


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


def _every_descent_top(w):
    """Cut positions at every descent top, so the factorization cuts at the
    first descent top of what is left (it wants the greatest)."""
    return [i for i in range(len(w) - 1) if w[i] > w[i + 1]]


def _phi_beta_rest_reversed(w):
    """phi walking beta's non-rixed part the wrong way round: each of its
    letters goes to its right neighbour, the last one to the first."""
    fact = rixfact.rix_factorize(w)
    beta = fact.beta
    k = len(beta) - len(fact.rix_set)
    out = [0] * len(w)
    for factor in (*fact.alphas, beta[:k][::-1]) if k else fact.alphas:
        prev = factor[-1]
        for v in factor:
            out[v - 1] = prev
            prev = v
    for v in beta[k:]:
        out[v - 1] = v
    return tuple(out)


def _phi_inv_last_fixed_point(w):
    """phi_inv whose last-cycle rule compares the largest fixed point, not
    the smallest, with the cycle's maximum."""
    cycles = bijections.scf(w)
    long_cycles = [c for c in cycles if len(c) >= 2]
    fixed = [c[0] for c in cycles if len(c) == 1]
    out: tuple[int, ...] = ()
    for idx, cycle in enumerate(long_cycles):
        last = idx == len(long_cycles) - 1
        if last and (not fixed or fixed[-1] > cycle[0]):
            out += (cycle[0],) + tuple(reversed(cycle[1:]))
        else:
            out += tuple(reversed(cycle))
    return out + tuple(fixed)


def _lyc_plus_one_on_first_ascent(w):
    return _LYC(w) + (len(w) >= 2 and w[0] < w[1])


def _f_inv_hopping_first_letter(w):
    if families.d_tilde_index(w) is None:
        raise NotInDomain("f_inv needs dd(sigma) = 0 and a final ascent")
    return actions.mfs_single(w, w[0])


# (check id, module, name, mutant); a check's first mutant is named by the
# check id alone, any further one by the check id and the rebound name
MUTANTS = [
    ("lemma-4.1", actions, "_frozen", _frozen_without_beta1),
    ("lemma-4.1", bijections, "lyc", _lyc_plus_one_on_first_ascent),
    ("thm-1.4", actions, "dd_letters", _dd_letters_but_first),
    ("lemma-2.1", checks, "admissible_inversion_count", _ai_plus_one_on_dd),
    ("prop-3.4", rixfact, "_cut_positions", _every_descent_top),
    ("prop-3.5", bijections, "phi_inv", _phi_inv_last_fixed_point),
    ("prop-3.5", bijections, "phi", _phi_beta_rest_reversed),
    ("f-bijection", bijections, "f_inv", _f_inv_hopping_first_letter),
]


def _mutant_ids():
    seen = set()
    for check_id, _, name, _ in MUTANTS:
        yield f"{check_id}-{name}" if check_id in seen else check_id
        seen.add(check_id)


@pytest.mark.parametrize("check_id, module, name, mutant", MUTANTS,
                         ids=list(_mutant_ids()))
def test_check_fails_on_its_mutant(check_id, module, name, mutant):
    original = getattr(module, name)
    _clear_caches()
    setattr(module, name, mutant)
    try:
        report = run_check(check_id, max_n=6)
    finally:
        setattr(module, name, original)
        _clear_caches()
    assert not report.passed, f"{check_id} passed with {name} mutated"
