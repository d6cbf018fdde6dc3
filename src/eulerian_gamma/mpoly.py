"""Sparse exact multivariate polynomials over the fixed alphabet t,r,q,p,y,b.

Coefficients are Python ints (arbitrary precision); terms map exponent
6-tuples to nonzero coefficients.  The constructor alone drops zero
coefficients: arithmetic accumulates every term and leaves the cancelled
ones to it.  "b" is the cycle-counting variable (rendered as "b" in ASCII
output).  The series variable z is never a polynomial variable: truncated
series live in series.py.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple

from .errors import NotExpandable, OutOfRange

VARS = ("t", "r", "q", "p", "y", "b")
NVARS = len(VARS)
_VAR_INDEX = {v: i for i, v in enumerate(VARS)}

ExpT = tuple[int, ...]
_ZERO_EXP: ExpT = (0,) * NVARS


class MPoly:
    """Exact sparse polynomial in t, r, q, p, y, b with int coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[ExpT, int] | None = None):
        self.terms: dict[ExpT, int] = {
            e: c for e, c in (terms or {}).items() if c != 0
        }

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero() -> "MPoly":
        return MPoly()

    @staticmethod
    def const(c: int) -> "MPoly":
        return MPoly({_ZERO_EXP: c}) if c else MPoly()

    @staticmethod
    def var(name: str, power: int = 1) -> "MPoly":
        e = [0] * NVARS
        e[_VAR_INDEX[name]] = power
        return MPoly({tuple(e): 1})

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "MPoly | int") -> "MPoly":
        out = dict(self.terms)
        for e, c in _coerce(other).terms.items():
            out[e] = out.get(e, 0) + c
        return MPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return MPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MPoly | int") -> "MPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other: int) -> "MPoly":
        return _coerce(other) - self

    def __mul__(self, other: "MPoly | int") -> "MPoly":
        other = _coerce(other)
        out: dict[ExpT, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return MPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MPoly":
        if k < 0:
            raise ValueError("negative power")
        result = MPoly.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self, var: str) -> int:
        """Degree in var; -1 for the zero polynomial."""
        i = _VAR_INDEX[var]
        return max((e[i] for e in self.terms), default=-1)

    def coeff_in(self, var: str, k: int) -> "MPoly":
        """Coefficient of var**k, as a polynomial in the other variables."""
        i = _VAR_INDEX[var]
        out = {}
        for e, c in self.terms.items():
            if e[i] == k:
                e2 = list(e)
                e2[i] = 0
                out[tuple(e2)] = c
        return MPoly(out)

    def substitute(self, var: str, value: int) -> "MPoly":
        i = _VAR_INDEX[var]
        out: dict[ExpT, int] = {}
        for e, c in self.terms.items():
            e2 = list(e)
            k = e2[i]
            e2[i] = 0
            e2t = tuple(e2)
            out[e2t] = out.get(e2t, 0) + c * value**k
        return MPoly(out)

    def coefficients_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.terms.values())

    def sorted_terms(self) -> list[tuple[ExpT, int]]:
        """Canonical graded-lex order on exponent vectors over (t,r,q,p,y,b)."""
        return sorted(self.terms.items(), key=lambda item: (sum(item[0]), item[0]))

    # -- rendering --------------------------------------------------------

    def __repr__(self) -> str:
        return f"MPoly({self.to_text()})"

    def to_text(self) -> str:
        """Render as e.g. "2*q + 3*q^2"."""
        return _render(self, "*", " ")

    def to_text_compact(self) -> str:
        """Render without spaces or '*', e.g. "2q+3q^2+2q^3+q^4"."""
        return _render(self, "", "")


def _render(p: MPoly, times: str, space: str) -> str:
    """Terms in graded-lex order; times joins factors and coefficients,
    space surrounds the signs between terms."""
    if not p.terms:
        return "0"
    out = []
    for e, c in p.sorted_terms():
        factors = [v if k == 1 else f"{v}^{k}" for v, k in zip(VARS, e) if k != 0]
        if not factors:
            body = str(abs(c))
        else:
            mono = times.join(factors)
            body = mono if abs(c) == 1 else f"{abs(c)}{times}{mono}"
        if not out:
            out.append(body if c > 0 else f"-{body}")
        else:
            out.append(f"{space}{'+' if c > 0 else '-'}{space}{body}")
    return "".join(out)


def _coerce(x: "MPoly | int") -> MPoly:
    return x if isinstance(x, MPoly) else MPoly.const(x)


ONE = MPoly.const(1)


# --- q-binomials ----------------------------------------------------------

@lru_cache(maxsize=None)
def q_binomial(n: int, k: int) -> MPoly:
    """Gaussian binomial [n k]_q via the Pascal recurrence
    [n k] = [n-1 k] + q^(n-k) [n-1 k-1]."""
    if k < 0 or k > n:
        raise OutOfRange(f"need 0 <= k <= n, got n={n}, k={k}")
    if k == 0 or k == n:
        return ONE
    return q_binomial(n - 1, k) + MPoly.var("q", n - k) * q_binomial(n - 1, k - 1)


@lru_cache(maxsize=None)
def one_plus_t_power(m: int) -> MPoly:
    return (ONE + MPoly.var("t")) ** m


# --- gamma expansion ------------------------------------------------------

def gamma_sum(gammas: Mapping[int, MPoly], center: int) -> MPoly:
    """The gamma basis: sum_k gammas[k] * t^k * (1+t)^(center - 2k)."""
    total = MPoly.zero()
    for k, g in gammas.items():
        total = total + g * MPoly.var("t", k) * one_plus_t_power(center - 2 * k)
    return total


class GammaExpansion(NamedTuple):
    """h(t) = sum_k gammas[k] * t^k * (1+t)^(center - 2k)."""

    center: int
    gammas: tuple[MPoly, ...]


def gamma_extract(h: MPoly, center: int) -> GammaExpansion:
    """Peel gamma coefficients of h viewed as a polynomial in t.

    gamma_0 = [t^0]h, subtract gamma_0*(1+t)^center, continue.  Raises
    NotExpandable when a residual term survives, i.e. h is not symmetric
    about center/2.
    """
    if h.degree("t") > center:
        raise NotExpandable(
            f"degree {h.degree('t')} exceeds center {center}"
        )
    residual = h
    gammas = []
    for k in range(center // 2 + 1):
        g = residual.coeff_in("t", k)
        gammas.append(g)
        if not g.is_zero():
            residual = residual - gamma_sum({k: g}, center)
    if not residual.is_zero():
        raise NotExpandable(
            f"no gamma expansion with center {center}: residual {residual.to_text()}"
        )
    return GammaExpansion(center=center, gammas=tuple(gammas))
