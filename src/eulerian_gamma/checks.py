"""Mechanical verification of every identity in scope.

Every statement the paper verifies holds "for every n", so a check is
data: a `Check` holds a per-size claim, an exhaustive ceiling and static
notes.  `claim(n)` computes both sides at size n independently (exhaustive
enumeration on one side, structured formula / gamma extraction on the
other), compares exact polynomials and yields one witness string per
counterexample it finds.

`run_check` alone owns the loop over n = 1..min(max_n, ceiling), the
timing, the witness cap (after `WITNESS_CAP` witnesses the check stops
with one "stopped at" line, and its n_range ends at that n) and
containment: an exception raised by a claim becomes the witness
"n=<n>: <type>: <message> (at <file>:<line> in <function>)", naming the
innermost frame of its traceback, and the run goes on with the next n.  A
report's witnesses are empty exactly when the check passed.

A per-word claim computes each per-word value once per word: thm-1.4
holds canonical_rep and lemma-2.1 holds admissible_inversion_count in a
dict over words(n).  lemma-4.1 holds each word's (beta1, RIX), factor type
and lyc in one dict, interned so the words of an orbit share one tuple,
reads a hop image's values there, and takes the n restricted hops of a
word from one factorization (actions.restricted_hops).  prop-3.5 runs phi
and phi_inv once per word and keeps only the set of images; f-bijection
records f_map of each R0 word and f_inv of each D~ word and compares its
round trips through the recorded images.

prop-3.4's enumerated side is a pruned left-to-right search over cut
positions with the same side conditions, and it stays independent of
rixfact.
"""

from __future__ import annotations

import itertools
import os
import time
import traceback
from collections import Counter, defaultdict
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from math import comb, factorial

from . import actions, bijections, families, rixfact
from .mpoly import MPoly, ONE, gamma_extract, gamma_sum, q_binomial
from .perm import (
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
from .series import TruncatedSeries, from_slots

WITNESS_CAP = 10
# thm-1.4's orbit-representative part is exhaustive only up to here:
# it takes 0.35 s at n = 7 and would take about 25 s at n = 9.
ORBIT_REP_MAX_N = 8


@dataclass(frozen=True)
class VerificationReport:
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


@dataclass(frozen=True)
class Check:
    """A statement claimed at every size n = 1..ceiling.

    claim(n) yields one witness string per counterexample at size n; it
    looks its kernels up at call time, so rebinding them reaches it.
    """

    ceiling: int
    claim: Callable[[int], Iterable[str]]
    notes: tuple[str, ...] = ()


# --- claims at size n -------------------------------------------------------
# The gamma_* / cyc_gamma / sw3_gamma families raise MismatchAgainstDirect
# or NotExpandable themselves; run_check turns that into a witness.

def _thm_1_1(n: int):
    """Classical gamma expansion of A_n(t,1,1) with |D_{n,k}| coefficients."""
    lhs = families.basic_eulerian(n).substitute("r", 1).substitute("q", 1)
    counts = {
        k: poly.substitute("q", 1)
        for k, poly in families.dd_free_inv_table(n).items()
    }
    if lhs != gamma_sum(counts, n - 1):
        yield f"n={n}: A_n(t,1,1) != classical expansion"
    gammas = families.gamma_basic(n).at_q_one()
    for k, size in counts.items():
        if MPoly.const(gammas[k]) != size:
            yield f"n={n}, k={k}: gamma(1) != |D_nk|"


def _thm_1_2(n: int):
    families.cyc_gamma(n)
    return ()


def _thm_1_3(n: int):
    """Foata-Han t = -1 specializations, and the set equalities behind them."""
    a1 = families.basic_eulerian(n).substitute("r", 1).substitute("t", -1)
    a0 = families.basic_eulerian(n).substitute("r", 0).substitute("t", -1)
    alternating_sum = families.alternating_inv_poly(n)
    if n % 2 == 0:
        m = n // 2
        if not a1.is_zero():
            yield f"n={n}: A_n(-1,1,q) != 0"
        if a0 != alternating_sum * ((-1) ** m):
            yield f"n={n}: A_n(-1,0,q) != (-1)^{m} * alternating sum"
    else:
        m = (n - 1) // 2
        if n >= 2 and not a0.is_zero():
            yield f"n={n}: A_n(-1,0,q) != 0"
        if a1 != alternating_sum * ((-1) ** m):
            yield f"n={n}: A_n(-1,1,q) != (-1)^{m} * alternating sum"
    if n % 2 == 1:
        index, k = families.d_index, (n - 1) // 2
    else:
        index, k = families.d_tilde_index, n // 2
    for w in words(n):
        alt = is_alternating(w)
        member = index(w) == k
        if alt != member:
            yield f"n={n}: {w}: alternating={alt} family={member}"


def _thm_1_4(n: int):
    """q^inv over D_{n,k} vs extraction of A_n(t,1,q); plus the unique
    dd-free representative of every MFS orbit."""
    families.gamma_basic(n)
    if n > ORBIT_REP_MAX_N:
        return
    reps = {w: actions.canonical_rep(w, "mfs") for w in words(n)}
    for w, rep in reps.items():
        if dd_count(rep) != 0:
            yield f"n={n}: rep of {w} has a double descent"
        if dd_count(w) == 0 and rep != w:
            yield f"n={n}: dd-free {w} is not its own rep"
        if any(reps[actions.mfs_single(w, x)] != rep for x in range(1, n + 1)):
            yield f"n={n}: rep not constant on orbit of {w}"


def _thm_1_5(n: int):
    if not families.gamma_derangement(n).gammas[0].is_zero():
        yield f"n={n}: gamma~_0 != 0"


def _lemma_1_7(n: int):
    if families.basic_eulerian(n) != families.basic_eulerian_desrix(n):
        yield f"n={n}: (exc,fix,maj-exc) != (des,rix,ai) polynomial"


def _lemma_2_1(n: int):
    ais = {w: admissible_inversion_count(w) for w in words(n)}
    for w, ai in ais.items():
        for x in range(1, n + 1):
            w2 = actions.mfs_single(w, x)
            if w2 != w and ais[w2] != ai:
                yield f"n={n}: ai changed by hop of {x} on {w}"


def _lemma_2_2(n: int):
    for w in words(n):
        ai = admissible_inversion_count(w)
        inv = inv_count(w)
        if ai > inv:
            yield f"n={n}: ai > inv on {w}"
        if dd_count(w) == 0 and ai != inv:
            yield f"n={n}: dd-free {w} has ai != inv"


def _prop_3_2(n: int):
    for w in words(n):
        fact = rixfact.rix_factorize(w)
        if fact.word != w:
            yield f"n={n}: factors do not concatenate to {w}"
        r = rixfact.rix(w)
        if r != len(fact.rix_set):
            yield f"n={n}: rix != |RIX| on {w}"
        f_hook = fact.beta_kind == rixfact.F_HOOK and len(fact.beta) >= 2
        if (r == 0) != f_hook:
            yield f"n={n}: rix=0 iff F-hook fails on {w}"
        chain = [a[-1] for a in fact.alphas] + [fact.beta1]
        if any(chain[i] <= chain[i + 1] for i in range(len(chain) - 1)):
            yield f"n={n}: chain condition fails on {w}"
        for a in fact.alphas:
            if len(a) < 2 or a[-1] != max(a):
                yield f"n={n}: alpha {a} is not an L-hook>=2"


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
            yield f"n={n}: {w}: {len(valid)} valid factorizations"


def _prop_3_5(n: int):
    """phi carries des to exc, RIX to FIX and R0 into E, and phi_inv is its
    inverse.  Each phi(w) is a word of S_n with phi_inv(phi(w)) == w, and
    there are n! distinct images, exactly when both round trips hold."""
    letters = list(range(1, n + 1))
    images = set()
    r0_sizes: Counter = Counter()
    for w in words(n):
        image = bijections.phi(w)
        if sorted(image) != letters:
            yield f"n={n}: phi({w}) = {image} is not a word of S_{n}"
            continue
        images.add(image)
        back = bijections.phi_inv(image)
        if back != w:
            yield f"n={n}: phi_inv(phi({w})) = {back}"
        if des(w) != exc_count(image):
            yield f"n={n}: des/exc mismatch on {w}"
        if rixfact.rixed_points(w) != fix_set(image):
            yield f"n={n}: RIX/FIX mismatch on {w}"
        k = families.r0_index(w)
        if k is not None:
            r0_sizes[k] += 1
            if families.e_index(image) is None:
                yield f"n={n}: phi({w}) not in E family"
    e_sizes = families.sizes(families.cda_free_derangement_cyc_table(n))
    if len(images) != factorial(n) or r0_sizes != e_sizes:
        yield f"n={n}: |R0_nk| != |E_nk| ({dict(r0_sizes)} vs {e_sizes})"


def _f_bijection(n: int):
    """f sends R0_{n,k} to D~_{n,k}, ending with beta1, and f_inv is its
    inverse; the round trips read the recorded images."""
    d_tilde, r0 = {}, {}
    for w in words(n):
        k = families.d_tilde_index(w)
        if k is not None:
            d_tilde[w] = k
            continue  # dd = 0, so w is not in R0
        k = families.r0_index(w)
        if k is not None:
            r0[w] = k
    back = {w: bijections.f_inv(w) for w in d_tilde}
    image = {w: bijections.f_map(w) for w in r0}
    for w, k in d_tilde.items():
        j = r0.get(back[w])
        if j is None:
            yield f"n={n}: f_inv({w}) not in R0"
        elif j != k:
            yield f"n={n}: f_inv({w}) changes k"
        elif image[back[w]] != w:
            yield f"n={n}: f(f_inv({w})) != {w}"
    for w, k in r0.items():
        img = image[w]
        j = d_tilde.get(img)
        if img[-1] != rixfact.rix_factorize(w).beta1:
            yield f"n={n}: f({w}) does not end with beta1"
        elif j is None:
            yield f"n={n}: f({w}) not in D~ family"
        elif j != k:
            yield f"n={n}: f({w}) changes k"
        elif back[img] != w:
            yield f"n={n}: f_inv(f({w})) != {w}"
    d_tilde_sizes = dict(Counter(d_tilde.values()))
    e_sizes = families.sizes(families.cda_free_derangement_cyc_table(n))
    if d_tilde_sizes != e_sizes:
        yield f"n={n}: |D~_nk| != |E_nk| ({d_tilde_sizes} vs {e_sizes})"


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
    for w, (ref_rix, ref_type, ref_lyc) in invariants.items():
        for x, w2 in enumerate(actions.restricted_hops(w), start=1):
            if w2 == w:
                continue
            rix2, type2, lyc2 = invariants[w2]
            if rix2 != ref_rix:
                yield f"n={n}: beta1/RIX changed by {x} on {w}"
            if type2 != ref_type:
                yield f"n={n}: factor type changed by {x} on {w}"
            if lyc2 != ref_lyc:
                yield f"n={n}: lyc changed by {x} on {w}"


def _ai_exponent(w) -> tuple:
    return (0, 0, admissible_inversion_count(w), 0, 0, 0)


def _lemma_4_2(n: int):
    for w in words(n):
        if rixfact.rix(w) == 0:
            rep = actions.canonical_rep(w, "restricted")
            if dd_count(rep) != 1:
                yield f"n={n}: restricted rep of {w} has dd != 1"
            if rep != w and families.r0_index(w) is not None:
                yield f"n={n}: dd=1 elem {w} is not its own rep"
    lhs = MPoly(families.tally(
        n, lambda w: (des(w), 0, admissible_inversion_count(w), 0, 0, 0),
        keep=lambda w: rixfact.rix(w) == 0,
    ))
    r0_ai = families.table(n, families.r0_index, _ai_exponent)
    if lhs != gamma_sum(r0_ai, n):
        yield f"n={n}: restricted orbit expansion fails"
    # proof chain: f keeps ai and sends des = k to des = k - 1, and the
    # D~ index is des + 1, so both tables are keyed by the same k
    d_tilde_ai = families.table(n, families.d_tilde_index, _ai_exponent)
    if r0_ai != d_tilde_ai or d_tilde_ai != families.dd_free_ascent_inv_table(n):
        yield f"n={n}: ai/inv proof-chain equality fails"


def _prop_5_1(n: int):
    """The three cleared-denominator generating function identities, at
    slot n of each product truncated at order n."""
    t = MPoly.var("t")
    r = MPoly.var("r")

    def series(slot) -> TruncatedSeries:
        return from_slots([slot(m) for m in range(n + 1)])

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
        yield f"Gamma recurrence fails at n={m}"
    rhs2 = y * gam(m)
    for i in range(2, m):
        rhs2 = rhs2 + y * q**i * q_binomial(m, i) * families.gamma_tilde_poly(i) * gam(m - i)
    if families.gamma_tilde_poly(n) != rhs2:
        yield f"GammaTilde recurrence fails at n={m}"


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
        yield f"A recurrence fails at n={m}"


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
            yield f"n={n}, j={j}: fix-maj identity fails"


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
            yield f"n={n}, j={j}: cycle-bis identity fails"


def _exp_fixed(n: int):
    for j in range(1, n + 1):
        lhs = families.fixed_count_exc_maj_poly(n, j)
        expansion = gamma_extract(lhs, center=n - j)
        qbin = q_binomial(n, j)
        direct = families.dd_free_ascent_inv_table(n - j) if n > j else {}
        for k, g in enumerate(expansion.gammas):
            if k == 0:
                expected = qbin if n == j else MPoly.zero()
            else:
                expected = qbin * direct.get(k, MPoly.zero())
            if g != expected:
                yield f"n={n}, j={j}, k={k}: exp-fixed mismatch"


def _sw3(n: int):
    expansion = families.sw3_gamma(n)
    for k, g in enumerate(expansion.gammas):
        if not g.coefficients_nonnegative():
            yield f"n={n}, k={k}: negative coefficient"
    if n >= 2 and not expansion.gammas[0].is_zero():
        yield f"n={n}: gamma~_0(p,q) != 0"


def _remark_1_8(n: int):
    invs: defaultdict[frozenset, list[int]] = defaultdict(list)
    imajs: defaultdict[frozenset, list[int]] = defaultdict(list)
    for w in words(n):
        s = des_set(w)
        invs[s].append(inv_count(w))
        imajs[s].append(imaj(w))
    for s, values in invs.items():
        if Counter(values) != Counter(imajs[s]):
            yield f"n={n}, DES={sorted(s)}: inv and imaj distributions differ"


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
    "remark-3.7-negative": Check(3, _remark_3_7),
    "table-1": Check(4, _table_1, (
        "column 3 corrected to 4231 / 3421; the printed 4213 and 2413 are "
        "digit transpositions outside their families",
    )),
}


def run_check(check_id: str, max_n: int = 9) -> VerificationReport:
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
                witnesses.append(witness)
                if len(witnesses) == WITNESS_CAP:
                    break
        except Exception as exc:  # one failing claim must not lose the run
            where = traceback.extract_tb(exc.__traceback__)[-1]
            witnesses.append(
                f"n={n}: {type(exc).__name__}: {exc} (at "
                f"{os.path.basename(where.filename)}:{where.lineno} in {where.name})"
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


def run_checks(check_ids: list[str], max_n: int = 9) -> list[VerificationReport]:
    return [run_check(cid, max_n) for cid in check_ids]
