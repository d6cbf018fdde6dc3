"""Truncated series in z with implicit (q;q)_n denominators.

Slot n of a TruncatedSeries stores the polynomial numerator of the z^n
coefficient over the implicit denominator (q;q)_n.  With that convention
the q-exponential e(c*z; q) is simply the series with slot n = c^n, and
the Cauchy product picks up a q-binomial:

    (a * b)[n] = sum_i [n i]_q a[i] b[n-i]

because (q;q)_n / ((q;q)_i (q;q)_{n-i}) = [n i]_q.  Every generating
function identity is then a slotwise polynomial identity; no rational
function arithmetic is needed.
"""

from __future__ import annotations

from .mpoly import MPoly, q_binomial


class TruncatedSeries:
    """Immutable; equal when the slots are.  Not a tuple: s[n] is slot n
    and s * t is the Cauchy product."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[MPoly, ...]):
        # slot n is the coefficient of z^n over (q;q)_n
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("TruncatedSeries is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.coeffs!r})"

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> MPoly:
        return self.coeffs[n]

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n_max = min(self.order, other.order)
        slots = []
        for n in range(n_max + 1):
            acc = MPoly.zero()
            for i in range(n + 1):
                acc = acc + q_binomial(n, i) * self.coeffs[i] * other.coeffs[n - i]
            slots.append(acc)
        return TruncatedSeries(tuple(slots))

