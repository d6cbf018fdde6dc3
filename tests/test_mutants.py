"""Checks with teeth: the kill matrix.

Each mutant is a plausible bug in one kernel. `_mutated` rebinds the
kernel in every module of the package that holds it, and every registered
check runs against the mutant at max_n = 6. `golden_kills.json` pins,
for each mutant, the sorted ids of the checks that fail on it: every
mutant has a killer, and `remark-3.7-negative`, a negative control, kills
none. A witness that names a frame of this file is the mutant crashing on
its own; it is no kill, and it fails the test.

Every lru_cache in the package is cleared before and after each mutant,
so no table computed under a mutant outlives it. Rewrite the golden only
from a matrix whose differences have been read:

    PYTHONPATH=src python tests/test_mutants.py > tests/golden_kills.json
"""

import importlib
import json
import pkgutil
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

import eulerian_gamma
from eulerian_gamma import actions, bijections, families, mpoly, perm, rixfact
from eulerian_gamma.checks import CHECKS, WITNESS_CAP, run_check
from eulerian_gamma.errors import NotInDomain

GOLDEN = Path(__file__).with_name("golden_kills.json")
MAX_N = 6
# how a contained exception names a frame of this file in its witness
_HERE = f"(at {Path(__file__).name}:"

# originals the mutants call, taken before any rebinding
_LYC = bijections.lyc
_R0_INDEX = families.r0_index
_WORDS = perm.words
_CYC_COUNT = perm.cyc_count
_AI = perm.admissible_inversion_count
_DD_LETTERS = perm.dd_letters
_Q_BINOMIAL = mpoly.q_binomial
_GAMMA_SUM = mpoly.gamma_sum
_RIX = rixfact.rix
_INV_COUNT = perm.inv_count
_MFS_SINGLE = actions.mfs_single

_MODULES = [importlib.import_module(f"eulerian_gamma.{info.name}")
            for info in pkgutil.iter_modules(eulerian_gamma.__path__)]


def _clear_caches():
    for module in _MODULES:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def _frozen_without_beta1(w):
    """The freeze rule forgetting beta1: only the rixed points stay put."""
    return rixfact.rix_factorize(w).rix_set


def _dd_letters_but_first(w):
    return _DD_LETTERS(w)[1:]


def _ai_plus_one_on_dd(w):
    return _AI(w) + (perm.dd_count(w) > 0)


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
    """[n k]_q without its top term for 0 < k < n; [n 0] and [n n] stay 1,
    as q_binomial's own recursion, rebound here too, reaches them."""
    full = _Q_BINOMIAL(n, k)
    if k in (0, n):
        return full
    top = max(full.terms)
    return mpoly.MPoly({e: c for e, c in full.terms.items() if e != top})


def _gamma_sum_center_plus_one(gammas, center):
    return _GAMMA_SUM(gammas, center + 1)


def _rix_plus_one_ending_in_1(w):
    return _RIX(w) + (bool(w) and w[-1] == 1)


def _inv_plus_one_ending_in_1(w):
    """q^inv over D_{n,k} off by one on words like 231; a word starting
    with n would not do, as no dd-free or alternating word starts with n."""
    return _INV_COUNT(w) + (len(w) >= 2 and w[-1] == 1)


def _mfs_as_foata_strehl(w, x):
    """phi_x in place of phi_x': peaks and valleys hop too."""
    return actions.foata_strehl(w, x)


def _mfs_never_hopping_n(w, x):
    return w if x == len(w) else _MFS_SINGLE(w, x)


def _framed_with_boundary_0(w):
    """sigma_0 = sigma_{n+1} = 0 in place of +infinity."""
    return (0, *w, 0)


# (module that defines the kernel, its name, the mutant), one per mutant
MUTANTS = [
    (perm, "words", _words_without_last),
    (actions, "_frozen", _frozen_without_beta1),
    (bijections, "lyc", _lyc_plus_one_on_first_ascent),
    (perm, "admissible_inversion_count", _ai_plus_one_on_dd),
    (perm, "dd_letters", _dd_letters_but_first),
    (rixfact, "_cut_positions", _every_descent_top),
    (bijections, "phi_inv", _phi_inv_last_fixed_point),
    (bijections, "phi", _phi_beta_rest_reversed),
    (bijections, "f_inv", _f_inv_hopping_first_letter),
    (families, "r0_index", _r0_index_without_leading_1),
    (perm, "cyc_count", _cyc_count_plus_one_on_derangements),
    (mpoly, "q_binomial", _q_binomial_without_top_term),
    (mpoly, "gamma_sum", _gamma_sum_center_plus_one),
    (rixfact, "rix", _rix_plus_one_ending_in_1),
    (actions, "mfs_single", _mfs_as_foata_strehl),
    (actions, "mfs_single", _mfs_never_hopping_n),
    (perm, "inv_count", _inv_plus_one_ending_in_1),
    (perm, "_framed", _framed_with_boundary_0),
]


@contextmanager
def _mutated(module, name, mutant):
    """Rebind every attribute of every package module that is module.name."""
    original = getattr(module, name)
    bound = [(m, attr) for m in _MODULES
             for attr, value in vars(m).items() if value is original]
    _clear_caches()
    try:
        for m, attr in bound:
            setattr(m, attr, mutant)
        yield
    finally:
        for m, attr in bound:
            setattr(m, attr, original)
        _clear_caches()


def _kills(report) -> bool:
    """Whether the report kills its mutant. A witness naming a frame of
    this file is the mutant crashing on its own, and fails the assert."""
    own = [w for w in report.witnesses if _HERE in w]
    assert not own, f"the mutant crashed on its own in {report.check_id}: {own}"
    return not report.passed


def _killers(module, name, mutant) -> list[str]:
    with _mutated(module, name, mutant):
        return sorted(cid for cid in CHECKS if _kills(run_check(cid, MAX_N)))


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("module, name, mutant", MUTANTS,
                         ids=[mutant.__name__ for *_, mutant in MUTANTS])
def test_check_fails_on_its_mutant(module, name, mutant):
    expected = set(_golden()[mutant.__name__])
    actual = set(_killers(module, name, mutant))
    assert actual == expected, (
        f"{mutant.__name__}: killers added {sorted(actual - expected)}, "
        f"removed {sorted(expected - actual)}"
    )


def test_golden_has_a_killer_for_every_mutant():
    golden = _golden()
    assert sorted(golden) == sorted(mutant.__name__ for *_, mutant in MUTANTS)
    assert all(golden.values())
    assert set(CHECKS) - set().union(*golden.values()) == {"remark-3.7-negative"}


def test_a_mutant_crashing_on_its_own_is_no_kill():
    """A mutant calling its original through the module it is rebound in
    calls itself; the RecursionError names this file and kills nothing."""
    def ai_through_perm(w):
        return perm.admissible_inversion_count(w) + (perm.dd_count(w) > 0)

    with _mutated(perm, "admissible_inversion_count", ai_through_perm):
        report = run_check("lemma-2.1", max_n=3)
    assert all("RecursionError" in w and _HERE in w for w in report.witnesses)
    with pytest.raises(AssertionError, match="crashed on its own in lemma-2.1"):
        _kills(report)


def test_size_witness_lists_the_sizes_in_k_order():
    with _mutated(families, "r0_index", _r0_index_without_leading_1):
        report = run_check("f-bijection", max_n=4)
    assert report.witnesses == (
        "n=4: |R0_nk|, |D~_nk|, |E_nk| differ "
        "({1: 1, 2: 4}, {1: 1, 2: 5}, {1: 1, 2: 5})",
    )


def test_restricted_orbit_witness_names_its_r0_words():
    """lemma-4.2 names each restricted orbit whose R0 words are not its
    start alone: here 4321, made an R0 word, shares the orbit of 4123."""
    def r0_index_with_4321(w):
        return 1 if w == (4, 3, 2, 1) else _R0_INDEX(w)

    with _mutated(families, "r0_index", r0_index_with_4321):
        report = run_check("lemma-4.2", max_n=4)
    assert report.witnesses[0] == (
        "n=4: restricted orbit of (4, 1, 2, 3) holds R0 words "
        "[(4, 1, 2, 3), (4, 3, 2, 1)]")


def test_hop_witness_names_the_label_and_the_word():
    """lemma-2.1 reports each hop that changes a representative or ai,
    naming the value, through the one orbit walk. Under phi_x the orbits
    of the dd-free words 132 and 231 are one, so it is walked from both,
    and each walk names the orbit's two starts."""
    with _mutated(actions, "mfs_single", _mfs_as_foata_strehl):
        report = run_check("lemma-2.1", max_n=3)
    assert report.witnesses == (
        "n=3: rep changed by hop of 3 on (1, 3, 2)",
        "n=3: ai changed by hop of 3 on (1, 3, 2)",
        "n=3: rep changed by hop of 3 on (2, 3, 1)",
        "n=3: ai changed by hop of 3 on (2, 3, 1)",
        "n=3: orbit of (1, 3, 2) holds 2 orbit starts",
        "n=3: rep changed by hop of 3 on (2, 3, 1)",
        "n=3: ai changed by hop of 3 on (2, 3, 1)",
        "n=3: rep changed by hop of 3 on (1, 3, 2)",
        "n=3: ai changed by hop of 3 on (1, 3, 2)",
        "n=3: orbit of (2, 3, 1) holds 2 orbit starts",
        f"stopped at n=3 after {WITNESS_CAP} witnesses",
    )


def test_hop_witness_names_an_image_outside_the_words():
    """A word missing from the enumeration is counted: the orbits reach
    it, so their sizes exceed the words scanned. A hop image that is not a
    rearrangement of 1..n is named, as action-axioms names one, and is
    not walked."""
    with _mutated(perm, "words", _words_without_last):
        lemma_2_1 = run_check("lemma-2.1", max_n=2)
        lemma_4_1 = run_check("lemma-4.1", max_n=3)
    assert lemma_2_1.witnesses == (
        "n=2: orbit sizes sum to 2, but 1 words of S_2 were scanned",)
    assert lemma_4_1.witnesses == (
        "n=3: orbit sizes sum to 6, but 5 words of S_3 were scanned",)
    with _mutated(actions, "mfs_single", lambda w, x: (*w, x)):
        lemma_2_1 = run_check("lemma-2.1", max_n=2)
        lemma_4_1 = run_check("lemma-4.1", max_n=2)
    assert lemma_2_1.witnesses == (
        "n=1: phi'_1((1,)) = (1, 1) is not a word of S_1",
        "n=2: phi'_1((1, 2)) = (1, 2, 1) is not a word of S_2",
        "n=2: phi'_2((1, 2)) = (1, 2, 2) is not a word of S_2",
        "n=2: orbit sizes sum to 1, but 2 words of S_2 were scanned",
    )
    assert lemma_4_1.witnesses == (
        "n=2: phi''_1((2, 1)) = (2, 1, 1) is not a word of S_2",)


def test_axiom_witness_names_the_action_the_label_and_the_word():
    with _mutated(actions, "_frozen", _frozen_without_beta1):
        report = run_check("action-axioms", max_n=3)
    assert report.witnesses == (
        "n=2: phi''_2 is not an involution on (2, 1)",
        "n=3: phi''_2 is not an involution on (2, 1, 3)",
        "n=3: phi''_3 is not an involution on (3, 1, 2)",
        "n=3: phi''_2 and phi''_3 do not commute on (3, 1, 2)",
        "n=3: phi''_3 is not an involution on (3, 2, 1)",
    )
    # an image outside S_n is named, not looked up
    with _mutated(actions, "foata_strehl", lambda w, x: (*w, x)):
        report = run_check("action-axioms", max_n=1)
    assert report.witnesses == ("n=1: phi_1((1,)) = (1, 1) is not a word of S_1",)


def test_exp_fixed_witness_names_j():
    with _mutated(mpoly, "q_binomial", _q_binomial_without_top_term):
        report = run_check("eq-exp-fixed", max_n=4)
    assert report.witnesses == (
        "n=3: j=1: exp-fixed identity fails",
        "n=4: j=1: exp-fixed identity fails",
        "n=4: j=2: exp-fixed identity fails",
    )


def test_a_blind_spot_is_named_in_the_notes():
    """thm-1.2 passes a cyc_count bug and lemma-2.1 sees this mfs_single
    bug only as orbits that do not cover the words scanned; each note says
    so."""
    with _mutated(perm, "cyc_count", _cyc_count_plus_one_on_derangements):
        report = run_check("thm-1.2", max_n=6)
    assert report.passed
    assert "cyc_count" in report.notes[0] and "eq-cycle-bis" in report.notes[0]
    with _mutated(actions, "mfs_single", _mfs_never_hopping_n):
        report = run_check("lemma-2.1", max_n=6)
    assert report.witnesses
    assert all("orbit sizes sum to" in w for w in report.witnesses)
    assert "actions.mfs_single" in report.notes[0]
    assert "orbit sizes" in report.notes[0]


if __name__ == "__main__":
    json.dump({mutant.__name__: _killers(module, name, mutant)
               for module, name, mutant in MUTANTS},
              sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
