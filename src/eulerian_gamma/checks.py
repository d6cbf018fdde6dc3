"""Mechanical verification of every identity in scope.

Every check computes both sides independently (exhaustive enumeration on
one side, structured formula / gamma extraction on the other) and compares
exact polynomials.  A check returns a VerificationReport; witnesses hold
counterexample descriptions and are empty exactly when the check passed.

Each check has its own exhaustive ceiling (the size up to which the
statement is verified); the requested max_n is clamped to it.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from math import comb

from . import actions, bijections, families, rixfact
from .errors import MismatchAgainstDirect, NotExpandable
from .mpoly import MPoly, ONE, gamma_extract, one_plus_t_power, q_binomial
from .perm import (
    admissible_inversion_count,
    cda_count,
    dd_count,
    des,
    des_set,
    exc_count,
    fix_set,
    imaj,
    inv_count,
    is_alternating,
    is_derangement,
    maj,
    words,
)
from .series import TruncatedSeries, from_slots


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


def _t_power_sum(table: dict[int, MPoly], center: int) -> MPoly:
    """sum_k table[k] * t^k * (1+t)^(center - 2k)."""
    t = MPoly.var("t")
    acc = MPoly.zero()
    for k, coeff in table.items():
        acc = acc + coeff * t**k * one_plus_t_power(center - 2 * k)
    return acc


# --- individual checks ----------------------------------------------------
# Each returns (witnesses, notes) for sizes 1..n_max.

def _check_thm_1_1(n_max: int):
    """Classical gamma expansion of A_n(t,1,1) with |D_{n,k}| coefficients."""
    witnesses = []
    for n in range(1, n_max + 1):
        lhs = families.basic_eulerian(n).substitute("r", 1).substitute("q", 1)
        counts = {
            k: poly.substitute("q", 1)
            for k, poly in families.dd_free_inv_table(n).items()
        }
        rhs = _t_power_sum(counts, n - 1)
        if lhs != rhs:
            witnesses.append(f"n={n}: A_n(t,1,1) != classical expansion")
        gammas = families.gamma_basic(n).at_q_one()
        for k, poly in counts.items():
            size = poly.substitute("q", 1)
            if MPoly.const(gammas[k]) != size:
                witnesses.append(f"n={n}, k={k}: gamma(1) != |D_nk|")
    return witnesses, []


def _check_thm_1_4(n_max: int):
    """q^inv over D_{n,k} vs extraction of A_n(t,1,q); plus the unique
    dd-free representative of every MFS orbit."""
    witnesses = []
    for n in range(1, n_max + 1):
        try:
            families.gamma_basic(n)
        except (MismatchAgainstDirect, NotExpandable) as exc:
            witnesses.append(f"n={n}: {exc}")
    for n in range(1, min(n_max, 8) + 1):
        for w in words(n):
            rep = actions.canonical_rep(w, "mfs")
            if dd_count(rep) != 0:
                witnesses.append(f"n={n}: rep of {w} has a double descent")
                break
            if dd_count(w) == 0 and rep != w:
                witnesses.append(f"n={n}: dd-free {w} is not its own rep")
                break
            for x in range(1, n + 1):
                if actions.canonical_rep(actions.mfs_single(w, x), "mfs") != rep:
                    witnesses.append(f"n={n}: rep not constant on orbit of {w}")
                    break
            else:
                continue
            break
    return witnesses, []


def _check_thm_1_5(n_max: int):
    witnesses = []
    for n in range(1, n_max + 1):
        try:
            exp = families.gamma_derangement(n)
        except (MismatchAgainstDirect, NotExpandable) as exc:
            witnesses.append(f"n={n}: {exc}")
            continue
        if not exp.gammas[0].is_zero():
            witnesses.append(f"n={n}: gamma~_0 != 0")
    return witnesses, []


def _check_thm_1_2(n_max: int):
    witnesses = []
    for n in range(1, n_max + 1):
        try:
            families.cyc_gamma(n)
        except (MismatchAgainstDirect, NotExpandable) as exc:
            witnesses.append(f"n={n}: {exc}")
    return witnesses, []


def foata_han_check(n: int) -> list[str]:
    """All Foata-Han statements at size n (t = -1 specializations)."""
    witnesses = []
    a1 = families.basic_eulerian(n).substitute("r", 1).substitute("t", -1)
    a0 = families.basic_eulerian(n).substitute("r", 0).substitute("t", -1)
    alt = families.alternating_inv_poly(n)
    if n % 2 == 0:
        m = n // 2
        if not a1.is_zero():
            witnesses.append(f"n={n}: A_n(-1,1,q) != 0")
        if a0 != alt * ((-1) ** m):
            witnesses.append(f"n={n}: A_n(-1,0,q) != (-1)^{m} * alternating sum")
    else:
        m = (n - 1) // 2
        if n >= 2 and not a0.is_zero():
            witnesses.append(f"n={n}: A_n(-1,0,q) != 0")
        if a1 != alt * ((-1) ** m):
            witnesses.append(f"n={n}: A_n(-1,1,q) != (-1)^{m} * alternating sum")
    return witnesses


def _check_thm_1_3(n_max: int):
    witnesses = []
    for n in range(1, n_max + 1):
        witnesses.extend(foata_han_check(n))
    # set equalities behind the t = -1 reduction
    for n in range(1, min(n_max, 8) + 1):
        for w in words(n):
            alt = is_alternating(w)
            if n % 2 == 1:
                member = dd_count(w) == 0 and des(w) == (n - 1) // 2
            else:
                member = (
                    dd_count(w) == 0
                    and w[-2] < w[-1]
                    and des(w) == n // 2 - 1
                )
            if alt != member:
                witnesses.append(f"n={n}: {w}: alternating={alt} family={member}")
    return witnesses, []


def _check_lemma_1_7(n_max: int):
    witnesses = []
    for n in range(1, n_max + 1):
        if families.basic_eulerian(n) != families.basic_eulerian_desrix(n):
            witnesses.append(f"n={n}: (exc,fix,maj-exc) != (des,rix,ai) polynomial")
    return witnesses, []


def _check_lemma_2_1(n_max: int):
    witnesses = []
    for n in range(1, n_max + 1):
        for w in words(n):
            ai = admissible_inversion_count(w)
            for x in range(1, n + 1):
                w2 = actions.mfs_single(w, x)
                if w2 != w and admissible_inversion_count(w2) != ai:
                    witnesses.append(f"n={n}: ai changed by hop of {x} on {w}")
                    return witnesses, []
    return witnesses, []


def _check_lemma_2_2(n_max: int):
    witnesses = []
    for n in range(1, n_max + 1):
        for w in words(n):
            ai = admissible_inversion_count(w)
            inv = inv_count(w)
            if ai > inv:
                witnesses.append(f"n={n}: ai > inv on {w}")
            if dd_count(w) == 0 and ai != inv:
                witnesses.append(f"n={n}: dd-free {w} has ai != inv")
    return witnesses, []


def _check_prop_3_2(n_max: int):
    witnesses = []
    for n in range(1, n_max + 1):
        for w in words(n):
            fact = rixfact.rix_factorize(w)
            if fact.word != w:
                witnesses.append(f"n={n}: factors do not concatenate to {w}")
            r = rixfact.rix(w)
            if r != len(fact.rix_set):
                witnesses.append(f"n={n}: rix != |RIX| on {w}")
            f_hook = fact.beta_kind == rixfact.F_HOOK and len(fact.beta) >= 2
            if (r == 0) != f_hook:
                witnesses.append(f"n={n}: rix=0 iff F-hook fails on {w}")
            chain = [a[-1] for a in fact.alphas] + [fact.beta1]
            if any(chain[i] <= chain[i + 1] for i in range(len(chain) - 1)):
                witnesses.append(f"n={n}: chain condition fails on {w}")
            for a in fact.alphas:
                if len(a) < 2 or a[-1] != max(a):
                    witnesses.append(f"n={n}: alpha {a} is not an L-hook>=2")
            if witnesses:
                return witnesses, []
    return witnesses, []


def _valid_factorizations(w: tuple[int, ...]):
    """All cut sequences satisfying the factorization side conditions."""
    n = len(w)
    valid = []
    for mask in range(1 << (n - 1)) if n else []:
        cuts = [0] + [i + 1 for i in range(n - 1) if mask >> i & 1] + [n]
        factors = [w[cuts[i]: cuts[i + 1]] for i in range(len(cuts) - 1)]
        alphas, beta = factors[:-1], factors[-1]
        if any(len(a) < 2 or a[-1] != max(a) for a in alphas):
            continue
        m = max(beta)
        if not (beta[-1] == m or (len(beta) >= 2 and beta[0] == m)):
            continue
        chain = [a[-1] for a in alphas] + [beta[0]]
        if any(chain[i] <= chain[i + 1] for i in range(len(chain) - 1)):
            continue
        tops = [beta[i] for i in range(len(beta) - 1) if beta[i] > beta[i + 1]]
        if tops and beta[0] != max(tops):
            continue
        valid.append((tuple(alphas), beta))
    return valid


def _check_prop_3_4(n_max: int):
    witnesses = []
    for n in range(1, n_max + 1):
        for w in words(n):
            valid = _valid_factorizations(w)
            fact = rixfact.rix_factorize(w)
            if len(valid) != 1 or valid[0] != (fact.alphas, fact.beta):
                witnesses.append(
                    f"n={n}: {w}: {len(valid)} valid factorizations"
                )
                return witnesses, []
    return witnesses, []


def _check_prop_3_5(n_max: int):
    witnesses = []
    for n in range(1, n_max + 1):
        images = set()
        total = 0
        r0_counts: dict[int, int] = {}
        e_counts: dict[int, int] = {}
        for w in words(n):
            total += 1
            image = bijections.phi(w)
            images.add(image)
            if des(w) != exc_count(image):
                witnesses.append(f"n={n}: des/exc mismatch on {w}")
            if rixfact.rixed_points(w) != fix_set(image):
                witnesses.append(f"n={n}: RIX/FIX mismatch on {w}")
            if bijections.phi_inv(image) != w:
                witnesses.append(f"n={n}: phi_inv(phi({w})) != {w}")
            if bijections.phi(bijections.phi_inv(w)) != w:
                witnesses.append(f"n={n}: phi(phi_inv({w})) != {w}")
            if dd_count(w) == 1 and rixfact.rix(w) == 0:
                k = des(w)
                r0_counts[k] = r0_counts.get(k, 0) + 1
                if not (
                    is_derangement(image)
                    and cda_count(image) == 0
                ):
                    witnesses.append(f"n={n}: phi({w}) not in E family")
            if is_derangement(w) and cda_count(w) == 0:
                k = exc_count(w)
                e_counts[k] = e_counts.get(k, 0) + 1
            if witnesses:
                return witnesses, []
        if len(images) != total or r0_counts != e_counts:
            witnesses.append(f"n={n}: |R0_nk| != |E_nk| ({r0_counts} vs {e_counts})")
    return witnesses, []


def _check_f_bijection(n_max: int):
    witnesses = []
    for n in range(1, n_max + 1):
        d_tilde_counts: dict[int, int] = {}
        e_counts: dict[int, int] = {}
        f_images = set()
        for w in words(n):
            if is_derangement(w) and cda_count(w) == 0:
                k = exc_count(w)
                e_counts[k] = e_counts.get(k, 0) + 1
            in_r0 = dd_count(w) == 1 and rixfact.rix(w) == 0
            in_d_tilde = n >= 2 and dd_count(w) == 0 and w[-2] < w[-1]
            if in_d_tilde:
                k = des(w) + 1
                d_tilde_counts[k] = d_tilde_counts.get(k, 0) + 1
                back = bijections.f_inv(w)
                if not (dd_count(back) == 1 and rixfact.rix(back) == 0):
                    witnesses.append(f"n={n}: f_inv({w}) not in R0")
                elif des(back) != k:
                    witnesses.append(f"n={n}: f_inv({w}) changes k")
                elif bijections.f_map(back) != w:
                    witnesses.append(f"n={n}: f(f_inv({w})) != {w}")
            if in_r0:
                k = des(w)
                img = bijections.f_map(w)
                f_images.add(img)
                beta1 = rixfact.rix_factorize(w).beta1
                if img[-1] != beta1:
                    witnesses.append(f"n={n}: f({w}) does not end with beta1")
                elif not (dd_count(img) == 0 and img[-2] < img[-1]):
                    witnesses.append(f"n={n}: f({w}) not in D~ family")
                elif des(img) + 1 != k:
                    witnesses.append(f"n={n}: f({w}) changes k")
                elif bijections.f_inv(img) != w:
                    witnesses.append(f"n={n}: f_inv(f({w})) != {w}")
            if witnesses:
                return witnesses, []
        if d_tilde_counts != e_counts:
            witnesses.append(
                f"n={n}: |D~_nk| != |E_nk| ({d_tilde_counts} vs {e_counts})"
            )
    return witnesses, []


def _check_lemma_4_1(n_max: int):
    witnesses = []
    for n in range(1, n_max + 1):
        for w in words(n):
            fact = rixfact.rix_factorize(w)
            ref_lyc = bijections.lyc(w)
            for x in range(1, n + 1):
                w2 = actions.restricted_mfs_single(w, x)
                if w2 == w:
                    continue
                fact2 = rixfact.rix_factorize(w2)
                if fact2.beta1 != fact.beta1 or fact2.rix_set != fact.rix_set:
                    witnesses.append(f"n={n}: beta1/RIX changed by {x} on {w}")
                factors = list(fact.alphas) + [fact.beta]
                factors2 = list(fact2.alphas) + [fact2.beta]
                if [sorted(f) for f in factors] != [sorted(f) for f in factors2]:
                    witnesses.append(f"n={n}: factor type changed by {x} on {w}")
                if bijections.lyc(w2) != ref_lyc:
                    witnesses.append(f"n={n}: lyc changed by {x} on {w}")
                if witnesses:
                    return witnesses, []
    return witnesses, []


def _check_lemma_4_2(n_max: int):
    witnesses = []
    for n in range(1, n_max + 1):
        lhs = MPoly.zero()
        r0_ai: dict[int, MPoly] = {}
        d_tilde_ai: dict[int, MPoly] = {}
        d_tilde_inv: dict[int, MPoly] = {}
        for w in words(n):
            if rixfact.rix(w) == 0:
                ai = admissible_inversion_count(w)
                k = des(w)
                lhs = lhs + MPoly.monomial(1, q=ai, t=k)
                if dd_count(w) == 1:
                    r0_ai[k] = r0_ai.get(k, MPoly.zero()) + MPoly.var("q", ai)
                rep = actions.canonical_rep(w, "restricted")
                if dd_count(rep) != 1:
                    witnesses.append(f"n={n}: restricted rep of {w} has dd != 1")
                    return witnesses, []
                if dd_count(w) == 1 and rep != w:
                    witnesses.append(f"n={n}: dd=1 elem {w} is not its own rep")
                    return witnesses, []
            if n >= 2 and dd_count(w) == 0 and w[-2] < w[-1]:
                k = des(w) + 1
                ai = admissible_inversion_count(w)
                d_tilde_ai[k] = d_tilde_ai.get(k, MPoly.zero()) + MPoly.var("q", ai)
                d_tilde_inv[k] = d_tilde_inv.get(k, MPoly.zero()) + MPoly.var(
                    "q", inv_count(w)
                )
        if lhs != _t_power_sum(r0_ai, n):
            witnesses.append(f"n={n}: restricted orbit expansion fails")
        # proof chain: f keeps ai and sends des = k to des = k - 1, and the
        # D~ index is des + 1, so both tables are keyed by the same k
        if r0_ai != d_tilde_ai or d_tilde_ai != d_tilde_inv:
            witnesses.append(f"n={n}: ai/inv proof-chain equality fails")
    return witnesses, []


def _gamma_slots(n_max: int) -> list[MPoly]:
    """Slot n holds sum_k gamma_{n,k}(q) t^k (1+t)^(n-2k); slot 0 = 1."""
    slots = [ONE]
    for n in range(1, n_max + 1):
        slots.append(_t_power_sum(families.dd_free_inv_table(n), n))
    return slots


def _gamma_tilde_slots(n_max: int) -> list[MPoly]:
    slots = [ONE]
    for n in range(1, n_max + 1):
        slots.append(_t_power_sum(families.dd_free_ascent_inv_table(n), n))
    return slots


def _check_prop_5_1(n_max: int):
    """The three cleared-denominator generating function identities."""
    witnesses = []
    order = n_max
    t = MPoly.var("t")
    r = MPoly.var("r")
    # D = e(tz;q) - t e(z;q): slot n = t^n - t
    d_series = from_slots([t**n - t if n else ONE - t for n in range(order + 1)])
    a_series = from_slots(
        [families.basic_eulerian(n) for n in range(order + 1)]
    )
    rhs = from_slots([(ONE - t) * r**n for n in range(order + 1)])
    if d_series * a_series != rhs:
        witnesses.append("fixversion identity fails")
    # gf1 after z -> (1+t) z: G * D == e(z;q) - t e(tz;q)
    g_series = from_slots(_gamma_slots(order))
    e1 = from_slots([ONE - t ** (n + 1) for n in range(order + 1)])
    if g_series * d_series != e1:
        witnesses.append("gf1 identity fails")
    # gf2 after z -> (1+t) z: H * D == (1 - t, 0, 0, ...)
    h_series = from_slots(_gamma_tilde_slots(order))
    const = from_slots([ONE - t] + [MPoly.zero()] * order)
    if h_series * d_series != const:
        witnesses.append("gf2 identity fails")
    return witnesses, []


def _check_prop_5_2(n_max: int):
    """Recurrences for Gamma and (corrected) GammaTilde."""
    witnesses = []
    y = MPoly.var("y")
    q = MPoly.var("q")
    gam = [families.gamma_poly(n) for n in range(n_max + 1)]
    gamt = [families.gamma_tilde_poly(n) for n in range(n_max + 1)]
    for n in range(1, n_max):
        rhs = gam[n]
        for i in range(1, n):
            rhs = rhs + y * q**i * q_binomial(n, i) * gam[i] * gam[n - i]
        if gam[n + 1] != rhs:
            witnesses.append(f"Gamma recurrence fails at n={n}")
        rhs2 = y * gam[n]
        for i in range(2, n):
            rhs2 = rhs2 + y * q**i * q_binomial(n, i) * gamt[i] * gam[n - i]
        if gamt[n + 1] != rhs2:
            witnesses.append(f"GammaTilde recurrence fails at n={n}")
    notes = [
        "GammaTilde recurrence verified in the corrected form "
        "GT(n+1) = y*G(n) + y*sum_{i=2}^{n-1} q^i [n i]_q GT(i) G(n-i); "
        "the printed form (leading term G(n) without y) contradicts the "
        "tabulated values."
    ]
    return witnesses, notes


def _check_recurrence2(n_max: int):
    witnesses = []
    r = MPoly.var("r")
    t = MPoly.var("t")
    q = MPoly.var("q")
    a = [families.basic_eulerian(n) for n in range(n_max + 1)]
    if a[0] != ONE:
        witnesses.append("A_0 != 1")
    if n_max >= 1 and a[1] != r:
        witnesses.append("A_1 != r")
    for n in range(1, n_max):
        rhs = r * a[n]
        for j in range(n):
            rhs = rhs + t * q_binomial(n, j) * q**j * a[j] * a[n - j].substitute(
                "r", 1
            )
        if a[n + 1] != rhs:
            witnesses.append(f"A recurrence fails at n={n}")
    return witnesses, []


def _check_eq_qmul(n_max: int):
    witnesses = []
    for n in range(0, n_max + 1):
        universe = list(range(1, n + 1))
        for k in range(n + 1):
            acc: dict[int, int] = {}
            for subset in itertools.combinations(universe, k):
                rest = [v for v in universe if v not in subset]
                invs = sum(1 for a in subset for b in rest if a > b)
                acc[invs] = acc.get(invs, 0) + 1
            brute = MPoly(
                {(0, 0, e, 0, 0, 0): c for e, c in acc.items()}
            )
            if q_binomial(n, k) != brute:
                witnesses.append(f"[{n} {k}]_q != subset sum")
    return witnesses, []


def _check_fix_maj(n_max: int):
    witnesses = []
    for n in range(1, n_max + 1):
        for j in range(n + 1):
            lhs = families.fixed_count_exc_maj_poly(n, j)
            rhs = q_binomial(n, j) * families.basic_eulerian(n - j).substitute(
                "r", 0
            )
            if lhs != rhs:
                witnesses.append(f"n={n}, j={j}: fix-maj identity fails")
    return witnesses, []


def _check_cycle_bis(n_max: int):
    witnesses = []
    b = MPoly.var("b")
    for n in range(1, n_max + 1):
        for j in range(1, n + 1):
            lhs = families.fixed_count_cyc_exc_poly(n, j)
            if n == j:
                rhs = comb(n, j) * b**j
            else:
                table = {
                    k: comb(n, j) * poly * b**j
                    for k, poly in families.cda_free_derangement_cyc_table(
                        n - j
                    ).items()
                }
                rhs = _t_power_sum(table, n - j)
            if lhs != rhs:
                witnesses.append(f"n={n}, j={j}: cycle-bis identity fails")
    return witnesses, []


def _check_exp_fixed(n_max: int):
    witnesses = []
    for n in range(1, n_max + 1):
        for j in range(1, n + 1):
            lhs = families.fixed_count_exc_maj_poly(n, j)
            try:
                expansion = gamma_extract(lhs, center=n - j)
            except NotExpandable as exc:
                witnesses.append(f"n={n}, j={j}: {exc}")
                continue
            qbin = q_binomial(n, j)
            direct = families.dd_free_ascent_inv_table(n - j) if n > j else {}
            for k, g in enumerate(expansion.gammas):
                if k == 0:
                    expected = qbin if n == j else MPoly.zero()
                else:
                    expected = qbin * direct.get(k, MPoly.zero())
                if g != expected:
                    witnesses.append(f"n={n}, j={j}, k={k}: exp-fixed mismatch")
    return witnesses, []


def _check_sw3(n_max: int):
    witnesses = []
    for n in range(1, n_max + 1):
        try:
            expansion = families.sw3_gamma(n)
        except NotExpandable as exc:
            witnesses.append(f"n={n}: {exc}")
            continue
        for k, g in enumerate(expansion.gammas):
            if not g.coefficients_nonnegative():
                witnesses.append(f"n={n}, k={k}: negative coefficient")
        if n >= 2 and not expansion.gammas[0].is_zero():
            witnesses.append(f"n={n}: gamma~_0(p,q) != 0")
        direct = families.dd_free_ascent_inv_table(n)
        for k, g in enumerate(expansion.gammas):
            if g.substitute("p", 1) != direct.get(k, MPoly.zero()):
                witnesses.append(f"n={n}, k={k}: p=1 specialization mismatch")
    notes = [
        "center n used for the p-refined derangement polynomial; the "
        "printed center n-1 is not expandable (already fails at n=2); "
        "gamma~_{n,0}(p,q) = 0 for all checked n >= 2"
    ]
    return witnesses, notes


def _check_remark_1_8(n_max: int):
    witnesses = []
    for n in range(1, n_max + 1):
        by_des: dict[frozenset, tuple[dict, dict]] = {}
        for w in words(n):
            s = des_set(w)
            invs, imajs = by_des.setdefault(s, ({}, {}))
            i1 = inv_count(w)
            i2 = imaj(w)
            invs[i1] = invs.get(i1, 0) + 1
            imajs[i2] = imajs.get(i2, 0) + 1
        for s, (invs, imajs) in by_des.items():
            if invs != imajs:
                witnesses.append(
                    f"n={n}, DES={sorted(s)}: inv and imaj distributions differ"
                )
    return witnesses, []


def _check_remark_3_7(n_max: int):
    """Negative control: (FIX, maj) and (RIX, aid) must differ on S_3."""
    dist_fix: dict[tuple, int] = {}
    dist_rix: dict[tuple, int] = {}
    for w in words(3):
        k1 = (fix_set(w), maj(w))
        dist_fix[k1] = dist_fix.get(k1, 0) + 1
        aid = admissible_inversion_count(w) + des(w)
        k2 = (rixfact.rixed_points(w), aid)
        dist_rix[k2] = dist_rix.get(k2, 0) + 1
    if dist_fix == dist_rix:
        return ["(FIX,maj) and (RIX,aid) coincide on S_3"], []
    return [], []


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


def _check_table_1(n_max: int):
    witnesses = []
    for col in range(5):
        d_word = tuple(int(c) for c in TABLE_1["d_tilde"][col])
        r_word = tuple(int(c) for c in TABLE_1["r0"][col])
        e_word = tuple(int(c) for c in TABLE_1["e"][col])
        if bijections.f_inv(d_word) != r_word:
            witnesses.append(f"column {col + 1}: f_inv mismatch")
        if bijections.f_map(r_word) != d_word:
            witnesses.append(f"column {col + 1}: f mismatch")
        if bijections.phi(r_word) != e_word:
            witnesses.append(f"column {col + 1}: phi mismatch")
    notes = [
        "column 3 corrected to 4231 / 3421; the printed 4213 and 2413 are "
        "digit transpositions outside their families"
    ]
    return witnesses, notes


# --- registry -------------------------------------------------------------

CHECKS: dict[str, tuple] = {
    # id -> (function, exhaustive ceiling)
    "thm-1.1": (_check_thm_1_1, 9),
    "thm-1.2": (_check_thm_1_2, 9),
    "thm-1.3": (_check_thm_1_3, 9),
    "thm-1.4": (_check_thm_1_4, 9),
    "thm-1.5": (_check_thm_1_5, 9),
    "lemma-1.7": (_check_lemma_1_7, 9),
    "lemma-2.1": (_check_lemma_2_1, 8),
    "lemma-2.2": (_check_lemma_2_2, 8),
    "prop-3.2": (_check_prop_3_2, 8),
    "prop-3.4": (_check_prop_3_4, 7),
    "prop-3.5": (_check_prop_3_5, 8),
    "f-bijection": (_check_f_bijection, 8),
    "lemma-4.1": (_check_lemma_4_1, 8),
    "lemma-4.2": (_check_lemma_4_2, 8),
    "prop-5.1": (_check_prop_5_1, 6),
    "prop-5.2": (_check_prop_5_2, 9),
    "eq-recurrence2": (_check_recurrence2, 8),
    "eq-qmul": (_check_eq_qmul, 8),
    "eq-fix-maj": (_check_fix_maj, 8),
    "eq-cycle-bis": (_check_cycle_bis, 8),
    "eq-exp-fixed": (_check_exp_fixed, 8),
    "eq-sw3": (_check_sw3, 8),
    "remark-1.8": (_check_remark_1_8, 8),
    "remark-3.7-negative": (_check_remark_3_7, 3),
    "table-1": (_check_table_1, 4),
}


def run_check(check_id: str, max_n: int = 9) -> VerificationReport:
    if check_id not in CHECKS:
        raise KeyError(f"unknown check id {check_id!r}")
    func, ceiling = CHECKS[check_id]
    n_max = min(max_n, ceiling)
    start = time.perf_counter()
    witnesses, notes = func(n_max)
    elapsed = time.perf_counter() - start
    return VerificationReport(
        check_id=check_id,
        n_range=(1, n_max),
        passed=not witnesses,
        witnesses=tuple(witnesses),
        elapsed=elapsed,
        notes=tuple(notes),
    )


def run_checks(check_ids: list[str], max_n: int = 9) -> list[VerificationReport]:
    return [run_check(cid, max_n) for cid in check_ids]
