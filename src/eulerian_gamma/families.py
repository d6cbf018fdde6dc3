"""Polynomial families built by exhaustive enumeration over S_n.

Everything here is a direct sum over permutations; the structured or
extracted routes live in checks.py so the two sides stay independent.
Each family is a filter on S_n plus a key: the key maps a word to its
exponent 6-tuple (t, r, q, p, y, b), and _tally counts the keys in plain
dicts for speed before wrapping into MPoly.  Keys call the perm kernels by
name at call time, so rebinding a kernel reaches every family.
"""

from __future__ import annotations

from functools import lru_cache

from . import rixfact
from .errors import MismatchAgainstDirect
from .mpoly import GammaExpansion, MPoly, gamma_extract
from .perm import (
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


def _tally(n: int, key, keep=None) -> dict:
    """{key(w): count} over the words w of S_n that pass keep."""
    acc: dict = {}
    for w in words(n):
        if keep is None or keep(w):
            k = key(w)
            acc[k] = acc.get(k, 0) + 1
    return acc


def _table(n: int, key, keep=None) -> dict[int, MPoly]:
    """k -> polynomial, for a key that returns (k, exponent 6-tuple)."""
    table: dict[int, dict[tuple, int]] = {}
    for (k, e), count in _tally(n, key, keep).items():
        table.setdefault(k, {})[e] = count
    return {k: MPoly(terms) for k, terms in table.items()}


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
    return (exc, fix, m - exc, 0, 0, 0)


@lru_cache(maxsize=None)
def basic_eulerian(n: int) -> MPoly:
    """A_n(t, r, q) = sum over S_n of t^exc r^fix q^(maj - exc)."""
    return MPoly(_tally(n, _exc_fix_maj_key))


@lru_cache(maxsize=None)
def basic_eulerian_desrix(n: int) -> MPoly:
    """The same polynomial via the triple (des, rix, ai)."""
    return MPoly(_tally(n, lambda w: (
        des(w), rixfact.rix(w), admissible_inversion_count(w), 0, 0, 0)))


@lru_cache(maxsize=None)
def dd_free_inv_table(n: int) -> dict[int, MPoly]:
    """k -> sum of q^inv over permutations with dd = 0 and des = k."""
    return _table(
        n, lambda w: (des(w), (0, 0, inv_count(w), 0, 0, 0)),
        keep=lambda w: dd_count(w) == 0,
    )


@lru_cache(maxsize=None)
def dd_free_ascent_inv_table(n: int) -> dict[int, MPoly]:
    """k -> sum of q^inv over dd-free permutations with a final ascent,
    indexed by des + 1 (the derangement-side gamma index)."""
    return _table(
        n, lambda w: (des(w) + 1, (0, 0, inv_count(w), 0, 0, 0)),
        keep=lambda w: len(w) >= 2 and w[-2] < w[-1] and dd_count(w) == 0,
    )


@lru_cache(maxsize=None)
def cda_free_derangement_cyc_table(n: int) -> dict[int, MPoly]:
    """k -> sum of b^cyc over derangements with cda = 0 and exc = k."""
    return _table(
        n, lambda w: (exc_count(w), (0, 0, 0, 0, 0, cyc_count(w))),
        keep=lambda w: is_derangement(w) and cda_count(w) == 0,
    )


@lru_cache(maxsize=None)
def _exc_fix_cyc_poly(n: int) -> MPoly:
    """Sum over S_n of t^exc r^fix b^cyc."""
    return MPoly(_tally(n, lambda w: (
        exc_count(w), len(fix_set(w)), 0, 0, 0, cyc_count(w))))


@lru_cache(maxsize=None)
def derangement_cyc_poly(n: int) -> MPoly:
    """Sum over derangements of b^cyc t^exc."""
    return _exc_fix_cyc_poly(n).coeff_in("r", 0)


def _exc_maj_des_key(w) -> tuple:
    exc = exc_count(w)
    return (exc, 0, maj(w) - exc, des(w), 0, 0)


@lru_cache(maxsize=None)
def derangement_exc_des_maj_poly(n: int) -> MPoly:
    """Sum over derangements of t^exc p^des q^(maj - exc)."""
    return MPoly(_tally(n, _exc_maj_des_key, keep=is_derangement))


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
    return MPoly(_tally(
        n, lambda w: (0, 0, inv_count(w), 0, 0, 0), keep=is_alternating))


# --- Gamma aggregates -----------------------------------------------------

@lru_cache(maxsize=None)
def gamma_poly(n: int) -> MPoly:
    """Gamma_n(y, q) = sum over dd-free permutations of y^des q^inv."""
    if n == 0:
        return MPoly.const(1)
    acc = MPoly.zero()
    for k, poly in dd_free_inv_table(n).items():
        acc = acc + MPoly.var("y", k) * poly if k > 0 else acc + poly
    return acc


@lru_cache(maxsize=None)
def gamma_tilde_poly(n: int) -> MPoly:
    """GammaTilde_n(y, q) = sum over dd-free final-ascent permutations of
    y^(des + 1) q^inv; 1 for n = 0, 0 for n = 1."""
    if n == 0:
        return MPoly.const(1)
    acc = MPoly.zero()
    for k, poly in dd_free_ascent_inv_table(n).items():
        acc = acc + MPoly.var("y", k) * poly
    return acc


# --- gamma expansions with built-in cross-check ---------------------------

def _compare_expansion(
    expansion: GammaExpansion, direct: dict[int, MPoly], label: str
) -> GammaExpansion:
    for k, g in enumerate(expansion.gammas):
        if direct.get(k, MPoly.zero()) != g:
            raise MismatchAgainstDirect(
                f"{label}: k={k}: extracted {g.to_text()} != "
                f"direct {direct.get(k, MPoly.zero()).to_text()}"
            )
    for k in direct:
        if k > len(expansion.gammas) - 1 and not direct[k].is_zero():
            raise MismatchAgainstDirect(f"{label}: direct k={k} out of range")
    return expansion


def gamma_basic(n: int) -> GammaExpansion:
    """Gamma expansion of A_n(t,1,q) at center n-1, cross-checked against
    the direct q^inv sums over dd-free permutations."""
    if n < 1:
        raise ValueError("n >= 1 required")
    h = basic_eulerian(n).substitute("r", 1)
    expansion = gamma_extract(h, center=n - 1)
    return _compare_expansion(expansion, dd_free_inv_table(n), f"gamma_basic({n})")


def gamma_derangement(n: int) -> GammaExpansion:
    """Gamma expansion of A_n(t,0,q) at center n, cross-checked against the
    direct sums over dd-free final-ascent permutations."""
    if n < 1:
        raise ValueError("n >= 1 required")
    h = basic_eulerian(n).substitute("r", 0)
    expansion = gamma_extract(h, center=n)
    return _compare_expansion(
        expansion, dd_free_ascent_inv_table(n), f"gamma_derangement({n})"
    )


def cyc_gamma(n: int) -> GammaExpansion:
    """Gamma expansion of the derangement cycle polynomial at center n,
    cross-checked against direct b^cyc sums over cda-free derangements."""
    if n < 1:
        raise ValueError("n >= 1 required")
    h = derangement_cyc_poly(n)
    expansion = gamma_extract(h, center=n)
    return _compare_expansion(
        expansion, cda_free_derangement_cyc_table(n), f"cyc_gamma({n})"
    )


def sw3_gamma(n: int) -> GammaExpansion:
    """Gamma expansion in t of the derangement (t^exc p^des q^(maj-exc))
    polynomial; coefficients live in N[p, q].

    Center n: the p-refined polynomial is symmetric about n/2 (like the
    p = 1 specialization), so the k indices line up with the derangement
    gamma coefficients gamma~_{n,k}(q) at p = 1.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    return gamma_extract(derangement_exc_des_maj_poly(n), center=n)
