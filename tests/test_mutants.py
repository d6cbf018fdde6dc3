"""Checks with teeth: each mutant rebinds one kernel to a plausible bug,
and the check that claims the property the bug breaks must fail on it.

Every lru_cache in the package is cleared before and after each mutant,
so no table computed under a mutant outlives it.
"""

import importlib
import pkgutil
from contextlib import contextmanager

import pytest

import eulerian_gamma
from eulerian_gamma import actions, bijections, checks, families, mpoly, perm, rixfact
from eulerian_gamma.checks import run_check
from eulerian_gamma.errors import NotInDomain

_LYC = bijections.lyc
_R0_INDEX = families.r0_index
_WORDS = families.words
_CYC_COUNT = perm.cyc_count
_Q_BINOMIAL = mpoly.q_binomial
_GAMMA_SUM = mpoly.gamma_sum
_RIX = rixfact.rix
_MFS_SINGLE = actions.mfs_single


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


def _r0_index_without_leading_1(w):
    """R0 membership forgetting the words that start with 1: every word
    left still maps and maps back, so only the count can notice."""
    return None if w and w[0] == 1 else _R0_INDEX(w)


def _words_without_last(n):
    """S_n without its last word, the reversal n...1: at even n it is a
    cda-free derangement, so both sides of cyc_gamma lose the same term."""
    return list(_WORDS(n))[:-1]


def _f_inv_hopping_first_letter(w):
    if families.d_tilde_index(w) is None:
        raise NotInDomain("f_inv needs dd(sigma) = 0 and a final ascent")
    return actions.mfs_single(w, w[0])


def _cyc_count_plus_one_on_derangements(w):
    return _CYC_COUNT(w) + (len(w) >= 4 and perm.is_derangement(w))


def _q_binomial_without_top_term(n, k):
    full = _Q_BINOMIAL(n, k)
    top = max(full.terms)
    return mpoly.MPoly({e: c for e, c in full.terms.items() if e != top})


def _gamma_sum_center_plus_one(gammas, center):
    return _GAMMA_SUM(gammas, center + 1)


def _rix_plus_one_ending_in_1(w):
    return _RIX(w) + (bool(w) and w[-1] == 1)


def _mfs_as_foata_strehl(w, x):
    """phi_x in place of phi_x': peaks and valleys hop too."""
    return actions.foata_strehl(w, x)


def _mfs_never_hopping_n(w, x):
    return w if x == len(w) else _MFS_SINGLE(w, x)


def _framed_with_boundary_0(w):
    """sigma_0 = sigma_{n+1} = 0 in place of +infinity."""
    p = (0, *w, 0)
    return zip(p, p[1:], p[2:])


# (check id, module, name, mutant); a check's first mutant is named by the
# check id alone, any further one by the check id and the rebound name
MUTANTS = [
    ("thm-1.2", families, "words", _words_without_last),
    ("lemma-4.1", actions, "_frozen", _frozen_without_beta1),
    ("lemma-4.1", bijections, "lyc", _lyc_plus_one_on_first_ascent),
    ("thm-1.4", actions, "dd_letters", _dd_letters_but_first),
    ("lemma-2.1", checks, "admissible_inversion_count", _ai_plus_one_on_dd),
    ("prop-3.4", rixfact, "_cut_positions", _every_descent_top),
    ("prop-3.5", bijections, "phi_inv", _phi_inv_last_fixed_point),
    ("prop-3.5", bijections, "phi", _phi_beta_rest_reversed),
    ("f-bijection", bijections, "f_inv", _f_inv_hopping_first_letter),
    ("f-bijection", families, "r0_index", _r0_index_without_leading_1),
    ("eq-cycle-bis", families, "cyc_count", _cyc_count_plus_one_on_derangements),
    ("eq-qmul", checks, "q_binomial", _q_binomial_without_top_term),
    ("thm-1.1", checks, "gamma_sum", _gamma_sum_center_plus_one),
    ("prop-3.2", rixfact, "rix", _rix_plus_one_ending_in_1),
    ("lemma-2.1", actions, "mfs_single", _mfs_as_foata_strehl),
    ("thm-1.4", actions, "mfs_single", _mfs_never_hopping_n),
    ("thm-1.3", perm, "_framed", _framed_with_boundary_0),
]


def _mutant_ids():
    seen = set()
    for check_id, _, name, _ in MUTANTS:
        yield f"{check_id}-{name}" if check_id in seen else check_id
        seen.add(check_id)


@contextmanager
def _mutated(module, name, mutant):
    original = getattr(module, name)
    _clear_caches()
    setattr(module, name, mutant)
    try:
        yield
    finally:
        setattr(module, name, original)
        _clear_caches()


@pytest.mark.parametrize("check_id, module, name, mutant", MUTANTS,
                         ids=list(_mutant_ids()))
def test_check_fails_on_its_mutant(check_id, module, name, mutant):
    with _mutated(module, name, mutant):
        report = run_check(check_id, max_n=6)
    assert not report.passed, f"{check_id} passed with {name} mutated"


def test_size_witness_lists_the_sizes_in_k_order():
    with _mutated(families, "r0_index", _r0_index_without_leading_1):
        report = run_check("f-bijection", max_n=4)
    assert report.witnesses == (
        "n=4: |R0_nk|, |D~_nk|, |E_nk| differ "
        "({1: 1, 2: 4}, {1: 1, 2: 5}, {1: 1, 2: 5})",
    )


def test_hop_witness_names_the_label_and_the_word():
    """thm-1.4's orbit-representative part reports each hop that changes
    a representative, through the one hop walk."""
    with _mutated(actions, "mfs_single", _mfs_as_foata_strehl):
        report = run_check("thm-1.4", max_n=3)
    assert report.witnesses == (
        "n=3: rep changed by hop of 3 on (1, 3, 2)",
        "n=3: rep changed by hop of 3 on (2, 3, 1)",
    )


def test_exp_fixed_witness_names_j():
    with _mutated(checks, "q_binomial", _q_binomial_without_top_term):
        report = run_check("eq-exp-fixed", max_n=3)
    assert report.witnesses == (
        "n=1: j=1: exp-fixed identity fails",
        "n=2: j=2: exp-fixed identity fails",
        "n=3: j=1: exp-fixed identity fails",
        "n=3: j=3: exp-fixed identity fails",
    )
