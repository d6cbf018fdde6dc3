"""Membership in the paper's permutation families, and the polynomial
families built by exhaustive enumeration over S_n.

Each of the four families behind the gamma coefficients is defined here
once, as an index function that returns the family index k of a word, or
None for a word outside the family:

- d_index: D_{n,k}, no double descent, k = des;
- d_tilde_index: D~_{n,k}, no double descent and a final ascent,
  k = des + 1;
- e_index: E_{n,k}, derangements with no cyclic double ascent, k = exc;
- r0_index: R0_{n,k}, one double descent and no rixed point, k = des.

The empty word is in D_{0,0} and E_{0,0}, and is an alternating
derangement, as in every family polynomial at n = 0.

Everything else is a direct sum over permutations, apart from the four
gamma tables (gamma_basic, gamma_derangement, cyc_gamma, sw3_gamma).
Each is one call of _checked_extract, the only caller of
mpoly.gamma_extract in the package, which extracts gamma coefficients
from a family polynomial and raises MismatchAgainstDirect unless their
p = 1 specializations equal the direct sums of a k-table at every k of
either (only sw3_gamma's polynomial has a p).  The other structured
routes (recurrences, series, bijections) live in checks.py, so the two
sides stay independent.
Each family is a filter on S_n plus a key: the key maps a word to the
exponents of the variables its polynomial names ("trq" for t^exc r^fix
q^(maj-exc), "q" for q^inv), a bare int for one variable, and `tally`
counts the keys in plain dicts for speed before MPoly.from_counts builds
the polynomial; `table` does the same per family index, its key a kernel
such as inv_count.  Index functions and keys call the perm kernels by name
at call time, so rebinding a kernel reaches every family.
"""

from __future__ import annotations

from functools import lru_cache

from . import rixfact
from .errors import MismatchAgainstDirect
from .mpoly import GammaExpansion, MPoly, gamma_extract
from .perm import (
    WordT,
    admissible_inversion_count,
    cda_count,
    cyc_count,
    dd_count,
    des,
    exc_count,
    fix_set,
    inv_count,
    is_alternating,
    is_derangement,
    maj,
    words,
)


# --- family membership ------------------------------------------------------

def d_index(w: WordT) -> int | None:
    """k for w in D_{n,k} (dd = 0, des = k), else None."""
    return des(w) if dd_count(w) == 0 else None


def d_tilde_index(w: WordT) -> int | None:
    """k for w in D~_{n,k} (dd = 0, a final ascent, des = k - 1), else None."""
    if len(w) >= 2 and w[-2] < w[-1] and dd_count(w) == 0:
        return des(w) + 1
    return None


def e_index(w: WordT) -> int | None:
    """k for w in E_{n,k} (fix = 0, cda = 0, exc = k), else None."""
    return exc_count(w) if is_derangement(w) and cda_count(w) == 0 else None


def r0_index(w: WordT) -> int | None:
    """k for w in R0_{n,k} (dd = 1, rix = 0, des = k), else None."""
    return des(w) if dd_count(w) == 1 and rixfact.rix(w) == 0 else None


# --- counting ---------------------------------------------------------------

def tally(n: int, key, keep=None) -> dict:
    """{key(w): count} over the words w of S_n that pass keep."""
    acc: dict = {}
    for w in words(n):
        if keep is None or keep(w):
            k = key(w)
            acc[k] = acc.get(k, 0) + 1
    return acc


def table(n: int, index, key, variables: str) -> dict[int, MPoly]:
    """k -> sum of the monomials whose exponents of variables are key(w),
    over the words w of S_n with index(w) = k; words with index None are
    left out."""
    by_k: dict[int, dict] = {}
    for w in words(n):
        k = index(w)
        if k is not None:
            counts = by_k.setdefault(k, {})
            e = key(w)
            counts[e] = counts.get(e, 0) + 1
    return {k: MPoly.from_counts(counts, variables) for k, counts in by_k.items()}


def sizes(by_k: dict[int, MPoly]) -> dict[int, int]:
    """k -> the number of words counted by a table: the sum of the
    coefficients of its polynomial."""
    return {k: sum(poly.terms.values()) for k, poly in by_k.items()}


def _exc_fix_maj_key(w) -> tuple:
    """(exc, fix, maj - exc) in one pass: the hot key at n = 9-10."""
    exc = fix = m = 0
    last = len(w) - 1
    for i, v in enumerate(w):
        if v > i + 1:
            exc += 1
        elif v == i + 1:
            fix += 1
        if i < last and v > w[i + 1]:
            m += i + 1
    return (exc, fix, m - exc)


@lru_cache(maxsize=None)
def basic_eulerian(n: int) -> MPoly:
    """A_n(t, r, q) = sum over S_n of t^exc r^fix q^(maj - exc)."""
    return MPoly.from_counts(tally(n, _exc_fix_maj_key), "trq")


@lru_cache(maxsize=None)
def basic_eulerian_desrix(n: int) -> MPoly:
    """The same polynomial via the triple (des, rix, ai)."""
    return MPoly.from_counts(tally(n, lambda w: (
        des(w), rixfact.rix(w), admissible_inversion_count(w))), "trq")


@lru_cache(maxsize=None)
def dd_free_inv_table(n: int) -> dict[int, MPoly]:
    """k -> sum of q^inv over D_{n,k}."""
    return table(n, d_index, inv_count, "q")


@lru_cache(maxsize=None)
def dd_free_ascent_inv_table(n: int) -> dict[int, MPoly]:
    """k -> sum of q^inv over D~_{n,k} (the derangement-side gamma index)."""
    return table(n, d_tilde_index, inv_count, "q")


@lru_cache(maxsize=None)
def cda_free_derangement_cyc_table(n: int) -> dict[int, MPoly]:
    """k -> sum of b^cyc over E_{n,k}."""
    return table(n, e_index, cyc_count, "b")


@lru_cache(maxsize=None)
def _exc_fix_cyc_poly(n: int) -> MPoly:
    """Sum over S_n of t^exc r^fix b^cyc."""
    return MPoly.from_counts(tally(n, lambda w: (
        exc_count(w), len(fix_set(w)), cyc_count(w))), "trb")


@lru_cache(maxsize=None)
def derangement_cyc_poly(n: int) -> MPoly:
    """Sum over derangements of b^cyc t^exc."""
    return _exc_fix_cyc_poly(n).coeff_in("r", 0)


def _exc_maj_des_key(w) -> tuple:
    exc = exc_count(w)
    return (exc, maj(w) - exc, des(w))


@lru_cache(maxsize=None)
def derangement_exc_des_maj_poly(n: int) -> MPoly:
    """Sum over derangements of t^exc p^des q^(maj - exc)."""
    return MPoly.from_counts(tally(n, _exc_maj_des_key, keep=is_derangement), "tqp")


@lru_cache(maxsize=None)
def fixed_count_exc_maj_poly(n: int, j: int) -> MPoly:
    """Sum over permutations with exactly j fixed points of t^exc q^(maj-exc)."""
    return basic_eulerian(n).coeff_in("r", j)


@lru_cache(maxsize=None)
def fixed_count_cyc_exc_poly(n: int, j: int) -> MPoly:
    """Sum over permutations with exactly j fixed points of b^cyc t^exc."""
    return _exc_fix_cyc_poly(n).coeff_in("r", j)


@lru_cache(maxsize=None)
def alternating_inv_poly(n: int) -> MPoly:
    """Sum of q^inv over alternating permutations of [n]."""
    return MPoly.from_counts(tally(n, inv_count, keep=is_alternating), "q")


# --- Gamma aggregates -----------------------------------------------------

def _y_sum(by_k: dict[int, MPoly]) -> MPoly:
    """sum_k y^k * by_k[k]."""
    acc = MPoly.zero()
    for k, poly in by_k.items():
        acc = acc + MPoly.var("y", k) * poly
    return acc


@lru_cache(maxsize=None)
def gamma_poly(n: int) -> MPoly:
    """Gamma_n(y, q) = sum over dd-free permutations of y^des q^inv."""
    return _y_sum(dd_free_inv_table(n))


@lru_cache(maxsize=None)
def gamma_tilde_poly(n: int) -> MPoly:
    """GammaTilde_n(y, q) = sum over dd-free final-ascent permutations of
    y^(des + 1) q^inv; 1 for n = 0, 0 for n = 1."""
    return _y_sum(dd_free_ascent_inv_table(n)) if n else MPoly.const(1)


# --- gamma expansions with built-in cross-check ---------------------------

def _checked_extract(
    label: str, n: int, h: MPoly, center: int, direct: dict[int, MPoly]
) -> GammaExpansion:
    """gamma_extract(h, center) for n >= 1, raising MismatchAgainstDirect
    unless its gammas at p = 1 equal the direct table at every k of either,
    a k missing from one side counting as zero.  Only sw3_gamma's h has a p."""
    if n < 1:
        raise ValueError("n >= 1 required")
    expansion = gamma_extract(h, center)
    extracted = {k: g.substitute("p", 1) for k, g in enumerate(expansion.gammas)}
    for k in sorted(extracted.keys() | direct.keys()):
        g, d = extracted.get(k, MPoly.zero()), direct.get(k, MPoly.zero())
        if g != d:
            raise MismatchAgainstDirect(
                f"{label}: k={k}: extracted {g.to_text()} != direct {d.to_text()}")
    return expansion


def gamma_basic(n: int) -> GammaExpansion:
    """Gamma expansion of A_n(t,1,q) at center n-1, cross-checked against
    the direct q^inv sums over dd-free permutations."""
    h = basic_eulerian(n).substitute("r", 1)
    return _checked_extract(f"gamma_basic({n})", n, h, n - 1, dd_free_inv_table(n))


def gamma_derangement(n: int) -> GammaExpansion:
    """Gamma expansion of A_n(t,0,q) at center n, cross-checked against the
    direct sums over dd-free final-ascent permutations."""
    h = basic_eulerian(n).substitute("r", 0)
    return _checked_extract(f"gamma_derangement({n})", n, h, n,
                            dd_free_ascent_inv_table(n))


def cyc_gamma(n: int) -> GammaExpansion:
    """Gamma expansion of the derangement cycle polynomial at center n,
    cross-checked against direct b^cyc sums over cda-free derangements."""
    return _checked_extract(f"cyc_gamma({n})", n, derangement_cyc_poly(n),
                            n, cda_free_derangement_cyc_table(n))


def sw3_gamma(n: int) -> GammaExpansion:
    """Gamma expansion in t of the derangement (t^exc p^des q^(maj-exc))
    polynomial; coefficients live in N[p, q].

    Center n: the p-refined polynomial is symmetric about n/2 (like the
    p = 1 specialization), so the k indices line up with the derangement
    gamma coefficients gamma~_{n,k}(q) at p = 1, which are cross-checked
    against the direct sums over dd-free final-ascent permutations.
    """
    h = derangement_exc_des_maj_poly(n)
    return _checked_extract(f"sw3_gamma({n}) at p=1", n, h, n,
                            dd_free_ascent_inv_table(n))
