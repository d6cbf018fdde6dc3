"""Mechanical verification of every identity in scope.

Every statement the paper verifies holds "for every n", so a check is
data: a `Check` holds a per-size claim, an exhaustive ceiling and static
notes.  `claim(n)` computes both sides at size n independently (exhaustive
enumeration on one side, structured formula or gamma table on the other),
compares exact polynomials and yields one witness body per counterexample
it finds.  Only families._checked_extract calls gamma_extract; a claim in
the gamma basis compares polynomials, which compares every gamma as the
basis is linearly independent.

`run_check` alone owns the loop over n = 1..min(max_n, ceiling), the
"n=<n>: " prefix of every witness, the timing, the witness cap (after
`WITNESS_CAP` witnesses the check stops with one "stopped at" line, and
its n_range ends at that n) and containment: an exception raised by a
claim becomes the witness
"n=<n>: <type>: <message> (at <file>:<line> in <function>)", naming the
innermost frame of its traceback, and the run goes on with the next n.  A
report's witnesses are empty exactly when the check passed.

A per-word claim computes each per-word value once per word, in a dict
over words(n) that _hop_changes walks along every hop: thm-1.4's
canonical_rep and lemma-2.1's ai under actions.mfs_hops, lemma-4.1's
interned (beta1, RIX), factor type and lyc under actions.restricted_hops,
which takes a word's n hops from one factorization.  prop-3.5 and
f-bijection each prove a bijection one way: the inverse undoes the map on
every word of the domain, so the map is injective.  phi's images are
words of S_n, so it is a bijection of S_n; f-bijection adds a count,
|R0_nk| = |D~_nk| with the D~ side counted without f.

prop-3.4's enumerated side is a pruned left-to-right search over cut
positions with the same side conditions, and it stays independent of
rixfact.
"""

from __future__ import annotations

import itertools
import os
import time
from collections import Counter, defaultdict
from collections.abc import Callable, Iterable
from math import comb
from typing import NamedTuple

from . import actions, bijections, families, rixfact
from .mpoly import MPoly, ONE, gamma_sum, q_binomial
from .perm import (
    DEFAULT_MAX_N,
    admissible_inversion_count,
    dd_count,
    des,
    des_set,
    exc_count,
    fix_set,
    imaj,
    inv_count,
    is_alternating,
    maj,
    words,
)
from .series import TruncatedSeries

WITNESS_CAP = 10
# thm-1.4's orbit-representative part is exhaustive only up to here:
# alone it takes 0.08-0.09 s at n = 7, 0.84-0.87 s at n = 8 and 8.1-8.6 s
# at n = 9 (two runs, 2-vCPU Xeon, Python 3.11.7).
ORBIT_REP_MAX_N = 8


class VerificationReport(NamedTuple):
    check_id: str
    n_range: tuple[int, int]
    passed: bool
    witnesses: tuple[str, ...]
    elapsed: float
    notes: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "n_range": list(self.n_range),
            "passed": self.passed,
            "witnesses": list(self.witnesses),
            "elapsed_ms": round(self.elapsed * 1000, 3),
            "notes": list(self.notes),
        }


class Check(NamedTuple):
    """A statement claimed at every size n = 1..ceiling.

    claim(n) yields one witness body per counterexample at size n, without
    the "n=<n>: " prefix run_check adds; it looks its kernels up at call
    time, so rebinding them reaches it.
    """

    ceiling: int
    claim: Callable[[int], Iterable[str]]
    notes: tuple[str, ...] = ()


# --- claims at size n -------------------------------------------------------
# The gamma_* / cyc_gamma / sw3_gamma families raise MismatchAgainstDirect
# or NotExpandable themselves; run_check turns that into a witness.

def _thm_1_1(n: int):
    """Classical gamma expansion of A_n(t,1,1) with |D_{n,k}| coefficients,
    which fixes every gamma_k(1); thm-1.4 extracts the q-refined gammas."""
    lhs = families.basic_eulerian(n).substitute("r", 1).substitute("q", 1)
    counts = {
        k: poly.substitute("q", 1)
        for k, poly in families.dd_free_inv_table(n).items()
    }
    if lhs != gamma_sum(counts, n - 1):
        yield "A_n(t,1,1) != classical expansion"


def _derangement_number(n: int) -> int:
    """D_n from D_0 = 1, D_1 = 0 and D_n = (n-1)(D_{n-1} + D_{n-2})."""
    before, d = 1, 0
    for m in range(2, n + 1):
        before, d = d, (m - 1) * (d + before)
    return d if n else before


def _thm_1_2(n: int):
    """The cycle gamma expansion, cross-checked by cyc_gamma against the
    E-family sums, whose two sides enumerate the same words; at t = b = 1
    the gamma basis gives sum_k gamma_k(1) 2^(n-2k) = D_n, a side that
    does not enumerate."""
    gammas = families.cyc_gamma(n).gammas
    total = sum(g.substitute("b", 1) * 2 ** (n - 2 * k) for k, g in enumerate(gammas))
    d_n = _derangement_number(n)
    if total != d_n:
        yield f"sum_k gamma_k(1) 2^(n-2k) = {total.to_text()} != D_n = {d_n}"


def _thm_1_3(n: int):
    """Foata-Han t = -1 specializations, and the set equalities behind them."""
    a1 = families.basic_eulerian(n).substitute("r", 1).substitute("t", -1)
    a0 = families.basic_eulerian(n).substitute("r", 0).substitute("t", -1)
    alternating_sum = families.alternating_inv_poly(n)
    if n % 2 == 0:
        m = n // 2
        if not a1.is_zero():
            yield "A_n(-1,1,q) != 0"
        if a0 != alternating_sum * ((-1) ** m):
            yield f"A_n(-1,0,q) != (-1)^{m} * alternating sum"
    else:
        m = (n - 1) // 2
        if n >= 2 and not a0.is_zero():
            yield "A_n(-1,0,q) != 0"
        if a1 != alternating_sum * ((-1) ** m):
            yield f"A_n(-1,1,q) != (-1)^{m} * alternating sum"
    if n % 2 == 1:
        index, k = families.d_index, (n - 1) // 2
    else:
        index, k = families.d_tilde_index, n // 2
    for w in words(n):
        alt = is_alternating(w)
        member = index(w) == k
        if alt != member:
            yield f"{w}: alternating={alt} family={member}"


def _hop_changes(values: dict, hops: Callable):
    """(w, x, before, after) for each word w of values and label x whose
    hop image hops(w)[x - 1] is not w and has another value."""
    for w, before in values.items():
        for x, w2 in enumerate(hops(w), start=1):
            if w2 != w and values[w2] != before:
                yield w, x, before, values[w2]


def _thm_1_4(n: int):
    """q^inv over D_{n,k} vs extraction of A_n(t,1,q); plus the unique
    dd-free representative of every MFS orbit."""
    families.gamma_basic(n)
    if n > ORBIT_REP_MAX_N:
        return
    reps = {w: actions.canonical_rep(w, "mfs") for w in words(n)}
    for w, rep in reps.items():
        if dd_count(rep) != 0:
            yield f"rep of {w} has a double descent"
        if dd_count(w) == 0 and rep != w:
            yield f"dd-free {w} is not its own rep"
    for w, x, _, _ in _hop_changes(reps, actions.mfs_hops):
        yield f"rep changed by hop of {x} on {w}"


def _thm_1_5(n: int):
    if not families.gamma_derangement(n).gammas[0].is_zero():
        yield "gamma~_0 != 0"


def _lemma_1_7(n: int):
    if families.basic_eulerian(n) != families.basic_eulerian_desrix(n):
        yield "(exc,fix,maj-exc) != (des,rix,ai) polynomial"


def _lemma_2_1(n: int):
    ais = {w: admissible_inversion_count(w) for w in words(n)}
    for w, x, _, _ in _hop_changes(ais, actions.mfs_hops):
        yield f"ai changed by hop of {x} on {w}"


def _lemma_2_2(n: int):
    for w in words(n):
        ai = admissible_inversion_count(w)
        inv = inv_count(w)
        if ai > inv:
            yield f"ai > inv on {w}"
        if dd_count(w) == 0 and ai != inv:
            yield f"dd-free {w} has ai != inv"


def _prop_3_2(n: int):
    for w in words(n):
        fact = rixfact.rix_factorize(w)
        if fact.word != w:
            yield f"factors do not concatenate to {w}"
        r = rixfact.rix(w)
        if r != len(fact.rix_set):
            yield f"rix != |RIX| on {w}"
        f_hook = fact.beta_kind == rixfact.F_HOOK and len(fact.beta) >= 2
        if (r == 0) != f_hook:
            yield f"rix=0 iff F-hook fails on {w}"
        chain = [a[-1] for a in fact.alphas] + [fact.beta1]
        if any(chain[i] <= chain[i + 1] for i in range(len(chain) - 1)):
            yield f"chain condition fails on {w}"
        for a in fact.alphas:
            if len(a) < 2 or a[-1] != max(a):
                yield f"alpha {a} is not an L-hook>=2"


def _valid_factorizations(w: tuple[int, ...]):
    """Every split w = alpha_1 ... alpha_i beta meeting the side conditions:
    each alpha an L-hook of length >= 2, beta an L- or F-hook whose first
    letter is its greatest descent top (if it has one), and the chain
    end(alpha_1) > ... > end(alpha_i) > beta_1.

    A left-to-right search over cut positions: a prefix that breaks a
    condition on its alphas rules out every extension, so it is dropped as
    soon as it exists.  An alpha from position s ends at a running maximum
    of w[s:], and the chain needs that end below the previous one, so the
    ends tried from s stop once the running maximum reaches it.  Written
    without rixfact, whose factorization it is checked against.
    """
    n = len(w)
    valid = []

    def beta_ok(beta, prev) -> bool:
        m = max(beta)
        if not (beta[-1] == m or (len(beta) >= 2 and beta[0] == m)):
            return False
        if beta[0] >= prev:
            return False
        tops = [beta[i] for i in range(len(beta) - 1) if beta[i] > beta[i + 1]]
        return not tops or beta[0] == max(tops)

    def search(start: int, prev: int, alphas: tuple) -> None:
        if beta_ok(w[start:], prev):
            valid.append((alphas, w[start:]))
        top = w[start]
        for end in range(start + 1, n - 1):  # leave beta nonempty
            top = max(top, w[end])
            if top >= prev:
                break
            if w[end] == top:
                search(end + 1, top, alphas + (w[start: end + 1],))

    if n:
        search(0, n + 1, ())
    return valid


def _prop_3_4(n: int):
    for w in words(n):
        valid = _valid_factorizations(w)
        fact = rixfact.rix_factorize(w)
        if len(valid) != 1 or valid[0] != (fact.alphas, fact.beta):
            yield f"{w}: {len(valid)} valid factorizations"


def _by_k(sizes) -> dict:
    """Per-k sizes in k order, for a witness."""
    return dict(sorted(sizes.items()))


def _prop_3_5(n: int):
    """phi carries des to exc, RIX to FIX and R0 into E, and phi_inv is its
    inverse.  Each phi(w) is a word of S_n with phi_inv(phi(w)) == w, so
    phi is injective on the finite set S_n, hence a bijection of S_n, and
    phi_inv undoes it: both round trips hold."""
    letters = list(range(1, n + 1))
    r0_sizes: Counter = Counter()
    for w in words(n):
        image = bijections.phi(w)
        if sorted(image) != letters:
            yield f"phi({w}) = {image} is not a word of S_{n}"
            continue
        back = bijections.phi_inv(image)
        if back != w:
            yield f"phi_inv(phi({w})) = {back}"
        if des(w) != exc_count(image):
            yield f"des/exc mismatch on {w}"
        if rixfact.rixed_points(w) != fix_set(image):
            yield f"RIX/FIX mismatch on {w}"
        k = families.r0_index(w)
        if k is not None:
            r0_sizes[k] += 1
            if families.e_index(image) is None:
                yield f"phi({w}) not in E family"
    e_sizes = families.sizes(families.cda_free_derangement_cyc_table(n))
    if r0_sizes != e_sizes:
        yield f"|R0_nk| != |E_nk| ({_by_k(r0_sizes)} vs {_by_k(e_sizes)})"


def _f_bijection(n: int):
    """f sends R0_{n,k} into D~_{n,k}, ending with beta1, and f_inv undoes
    it.  f_inv(f(w)) == w makes f injective, so with |R0_nk| = |D~_nk| it
    is a bijection and f_inv its inverse; the D~ sizes are counted
    without f."""
    r0_sizes: Counter = Counter()
    d_tilde_sizes: Counter = Counter()
    for w in words(n):
        k = families.d_tilde_index(w)
        if k is not None:
            d_tilde_sizes[k] += 1
            continue  # dd = 0, so w is not in R0
        k = families.r0_index(w)
        if k is None:
            continue
        r0_sizes[k] += 1
        image = bijections.f_map(w)
        if image[-1] != rixfact.rix_factorize(w).beta1:
            yield f"f({w}) does not end with beta1"
        elif families.d_tilde_index(image) != k:
            yield f"f({w}) = {image} is not in D~_nk for k={k}"
        elif bijections.f_inv(image) != w:
            yield f"f_inv(f({w})) != {w}"
    e_sizes = families.sizes(families.cda_free_derangement_cyc_table(n))
    if not r0_sizes == d_tilde_sizes == e_sizes:
        yield (f"|R0_nk|, |D~_nk|, |E_nk| differ ({_by_k(r0_sizes)}, "
               f"{_by_k(d_tilde_sizes)}, {_by_k(e_sizes)})")


def _lemma_4_1(n: int):
    """A restricted hop keeps (beta1, RIX), the factor type and lyc.  Each
    word's four values are computed once and interned, so the words of one
    orbit share one tuple and a hop image is looked up, not recomputed."""
    shared: dict = {}
    invariants = {}
    for w in words(n):
        fact = rixfact.rix_factorize(w)
        key = (
            (fact.beta1, fact.rix_set),
            tuple(tuple(sorted(f)) for f in (*fact.alphas, fact.beta)),
            bijections.lyc(w),
        )
        invariants[w] = shared.setdefault(key, key)
    for w, x, before, after in _hop_changes(invariants, actions.restricted_hops):
        for name, old, new in zip(("beta1/RIX", "factor type", "lyc"), before, after):
            if old != new:
                yield f"{name} changed by {x} on {w}"


def _ai_exponent(w) -> tuple:
    return (0, 0, admissible_inversion_count(w), 0, 0, 0)


def _lemma_4_2(n: int):
    for w in words(n):
        if rixfact.rix(w) == 0:
            rep = actions.canonical_rep(w, "restricted")
            if dd_count(rep) != 1:
                yield f"restricted rep of {w} has dd != 1"
            if rep != w and families.r0_index(w) is not None:
                yield f"dd=1 elem {w} is not its own rep"
    lhs = MPoly(families.tally(
        n, lambda w: (des(w), 0, admissible_inversion_count(w), 0, 0, 0),
        keep=lambda w: rixfact.rix(w) == 0,
    ))
    r0_ai = families.table(n, families.r0_index, _ai_exponent)
    if lhs != gamma_sum(r0_ai, n):
        yield "restricted orbit expansion fails"
    # proof chain: f keeps ai and sends des = k to des = k - 1, and the
    # D~ index is des + 1, so both tables are keyed by the same k
    d_tilde_ai = families.table(n, families.d_tilde_index, _ai_exponent)
    if r0_ai != d_tilde_ai or d_tilde_ai != families.dd_free_ascent_inv_table(n):
        yield "ai/inv proof-chain equality fails"


def _prop_5_1(n: int):
    """The three cleared-denominator generating function identities, at
    slot n of each product truncated at order n."""
    t = MPoly.var("t")
    r = MPoly.var("r")

    def series(slot) -> TruncatedSeries:
        return TruncatedSeries(tuple(slot(m) for m in range(n + 1)))

    def gamma_series(table) -> TruncatedSeries:
        """Slot m holds sum_k table(m)[k] t^k (1+t)^(m-2k); slot 0 = 1."""
        return series(lambda m: gamma_sum(table(m), m) if m else ONE)

    # D = e(tz;q) - t e(z;q): slot m = t^m - t
    d_series = series(lambda m: t**m - t)
    if (d_series * series(families.basic_eulerian))[n] != (ONE - t) * r**n:
        yield "fixversion identity fails"
    # gf1 after z -> (1+t) z: G * D == e(z;q) - t e(tz;q)
    g_series = gamma_series(families.dd_free_inv_table)
    if (g_series * d_series)[n] != ONE - t ** (n + 1):
        yield "gf1 identity fails"
    # gf2 after z -> (1+t) z: H * D == (1 - t, 0, 0, ...)
    h_series = gamma_series(families.dd_free_ascent_inv_table)
    if not (h_series * d_series)[n].is_zero():
        yield "gf2 identity fails"


def _prop_5_2(n: int):
    """Size n checks the Gamma and (corrected) GammaTilde recurrences that
    produce Gamma(n) and GammaTilde(n) from the sizes below."""
    if n < 2:
        return
    m = n - 1
    y = MPoly.var("y")
    q = MPoly.var("q")
    gam = families.gamma_poly
    rhs = gam(m)
    for i in range(1, m):
        rhs = rhs + y * q**i * q_binomial(m, i) * gam(i) * gam(m - i)
    if gam(n) != rhs:
        yield "Gamma recurrence fails for Gamma_n"
    rhs2 = y * gam(m)
    for i in range(2, m):
        rhs2 = rhs2 + y * q**i * q_binomial(m, i) * families.gamma_tilde_poly(i) * gam(m - i)
    if families.gamma_tilde_poly(n) != rhs2:
        yield "GammaTilde recurrence fails for GammaTilde_n"


def _recurrence2(n: int):
    """Size n checks the recurrence that produces A_n; size 1 checks the
    initial values A_0 = 1 and A_1 = r."""
    r = MPoly.var("r")
    t = MPoly.var("t")
    q = MPoly.var("q")
    a = families.basic_eulerian
    if n == 1:
        if a(0) != ONE:
            yield "A_0 != 1"
        if a(1) != r:
            yield "A_1 != r"
        return
    m = n - 1
    rhs = r * a(m)
    for j in range(m):
        rhs = rhs + t * q_binomial(m, j) * q**j * a(j) * a(m - j).substitute("r", 1)
    if a(n) != rhs:
        yield "A recurrence fails for A_n"


def _eq_qmul(n: int):
    universe = range(1, n + 1)
    for k in range(n + 1):
        invs = Counter(
            sum(1 for a in subset for b in universe if b not in subset and a > b)
            for subset in itertools.combinations(universe, k)
        )
        brute = MPoly({(0, 0, e, 0, 0, 0): c for e, c in invs.items()})
        if q_binomial(n, k) != brute:
            yield f"[{n} {k}]_q != subset sum"


def _fix_maj(n: int):
    for j in range(n + 1):
        lhs = families.fixed_count_exc_maj_poly(n, j)
        rhs = q_binomial(n, j) * families.basic_eulerian(n - j).substitute("r", 0)
        if lhs != rhs:
            yield f"j={j}: fix-maj identity fails"


def _cycle_bis(n: int):
    b = MPoly.var("b")
    for j in range(1, n + 1):
        lhs = families.fixed_count_cyc_exc_poly(n, j)
        if n == j:
            rhs = comb(n, j) * b**j
        else:
            table = {
                k: comb(n, j) * poly * b**j
                for k, poly in families.cda_free_derangement_cyc_table(n - j).items()
            }
            rhs = gamma_sum(table, n - j)
        if lhs != rhs:
            yield f"j={j}: cycle-bis identity fails"


def _exp_fixed(n: int):
    for j in range(1, n + 1):
        table = families.dd_free_ascent_inv_table(n - j) if n > j else {0: ONE}
        rhs = q_binomial(n, j) * gamma_sum(table, n - j)
        if families.fixed_count_exc_maj_poly(n, j) != rhs:
            yield f"j={j}: exp-fixed identity fails"


def _sw3(n: int):
    expansion = families.sw3_gamma(n)
    for k, g in enumerate(expansion.gammas):
        if not g.coefficients_nonnegative():
            yield f"k={k}: negative coefficient"
    if n >= 2 and not expansion.gammas[0].is_zero():
        yield "gamma~_0(p,q) != 0"


def _remark_1_8(n: int):
    invs: defaultdict[frozenset, list[int]] = defaultdict(list)
    imajs: defaultdict[frozenset, list[int]] = defaultdict(list)
    for w in words(n):
        s = des_set(w)
        invs[s].append(inv_count(w))
        imajs[s].append(imaj(w))
    for s, values in invs.items():
        if Counter(values) != Counter(imajs[s]):
            yield f"DES={sorted(s)}: inv and imaj distributions differ"


def _remark_3_7(n: int):
    """Negative control: (FIX, maj) and (RIX, aid) must differ on S_3."""
    if n != 3:
        return
    fix_maj = families.tally(n, lambda w: (fix_set(w), maj(w)))
    rix_aid = families.tally(n, lambda w: (
        rixfact.rixed_points(w), admissible_inversion_count(w) + des(w)))
    if fix_maj == rix_aid:
        yield "(FIX,maj) and (RIX,aid) coincide on S_3"


# Column 3 of the printed table reads 4213 / 2413; both are digit
# transpositions: 4213 has two double descents (so it is not in the
# one-double-descent family at all) and 2413 has a cyclic double ascent.
# The corrected column 4231 / 3421 makes all three rows and all fifteen
# entries consistent, which the check below verifies.
TABLE_1 = {
    "d_tilde": ("1324", "1423", "2314", "2413", "3412"),
    "r0": ("4132", "1432", "4231", "2431", "3421"),
    "e": ("4312", "4321", "3421", "3412", "2143"),
}


def _table_1(n: int):
    """The five S_4 columns of Table 1."""
    if n != 4:
        return
    for col in range(5):
        d_word = tuple(int(c) for c in TABLE_1["d_tilde"][col])
        r_word = tuple(int(c) for c in TABLE_1["r0"][col])
        e_word = tuple(int(c) for c in TABLE_1["e"][col])
        if bijections.f_inv(d_word) != r_word:
            yield f"column {col + 1}: f_inv mismatch"
        if bijections.f_map(r_word) != d_word:
            yield f"column {col + 1}: f mismatch"
        if bijections.phi(r_word) != e_word:
            yield f"column {col + 1}: phi mismatch"


# --- registry -------------------------------------------------------------

CHECKS: dict[str, Check] = {
    "thm-1.1": Check(9, _thm_1_1),
    "thm-1.2": Check(9, _thm_1_2),
    "thm-1.3": Check(9, _thm_1_3),
    "thm-1.4": Check(9, _thm_1_4, (
        f"orbit-representative part checked for n <= {ORBIT_REP_MAX_N}",
    )),
    "thm-1.5": Check(9, _thm_1_5),
    "lemma-1.7": Check(9, _lemma_1_7),
    "lemma-2.1": Check(8, _lemma_2_1),
    "lemma-2.2": Check(8, _lemma_2_2),
    "prop-3.2": Check(8, _prop_3_2),
    "prop-3.4": Check(7, _prop_3_4),
    "prop-3.5": Check(8, _prop_3_5),
    "f-bijection": Check(8, _f_bijection),
    "lemma-4.1": Check(8, _lemma_4_1),
    "lemma-4.2": Check(8, _lemma_4_2),
    "prop-5.1": Check(6, _prop_5_1),
    "prop-5.2": Check(9, _prop_5_2, (
        "GammaTilde recurrence verified in the corrected form "
        "GT(n+1) = y*G(n) + y*sum_{i=2}^{n-1} q^i [n i]_q GT(i) G(n-i); "
        "the printed form (leading term G(n) without y) contradicts the "
        "tabulated values.",
    )),
    "eq-recurrence2": Check(8, _recurrence2),
    "eq-qmul": Check(8, _eq_qmul),
    "eq-fix-maj": Check(8, _fix_maj),
    "eq-cycle-bis": Check(8, _cycle_bis),
    "eq-exp-fixed": Check(8, _exp_fixed),
    "eq-sw3": Check(8, _sw3, (
        "center n used for the p-refined derangement polynomial; the "
        "printed center n-1 is not expandable (already fails at n=2); "
        "gamma~_{n,0}(p,q) = 0 for all checked n >= 2",
    )),
    "remark-1.8": Check(8, _remark_1_8),
    "remark-3.7-negative": Check(3, _remark_3_7, ("checked at n = 3 only",)),
    "table-1": Check(4, _table_1, (
        "checked at n = 4 only",
        "column 3 corrected to 4231 / 3421; the printed 4213 and 2413 are "
        "digit transpositions outside their families",
    )),
}


def run_check(check_id: str, max_n: int = DEFAULT_MAX_N) -> VerificationReport:
    if check_id not in CHECKS:
        raise KeyError(f"unknown check id {check_id!r}")
    check = CHECKS[check_id]
    n_max = min(max_n, check.ceiling)
    witnesses: list[str] = []
    start = time.perf_counter()
    n_last = n_max
    for n in range(1, n_max + 1):
        try:
            for witness in check.claim(n):
                witnesses.append(f"n={n}: {witness}")
                if len(witnesses) == WITNESS_CAP:
                    break
        except Exception as exc:  # one failing claim must not lose the run
            tb = exc.__traceback__
            while tb.tb_next is not None:  # the innermost frame raised it
                tb = tb.tb_next
            code = tb.tb_frame.f_code
            witnesses.append(
                f"n={n}: {type(exc).__name__}: {exc} (at "
                f"{os.path.basename(code.co_filename)}:{tb.tb_lineno} in {code.co_name})"
            )
        if len(witnesses) >= WITNESS_CAP:
            witnesses.append(f"stopped at n={n} after {WITNESS_CAP} witnesses")
            n_last = n
            break
    elapsed = time.perf_counter() - start
    return VerificationReport(
        check_id=check_id,
        n_range=(1, n_last),
        passed=not witnesses,
        witnesses=tuple(witnesses),
        elapsed=elapsed,
        notes=check.notes,
    )


def run_checks(check_ids: list[str], max_n: int = DEFAULT_MAX_N) -> list[VerificationReport]:
    return [run_check(cid, max_n) for cid in check_ids]
