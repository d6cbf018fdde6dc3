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

from dataclasses import dataclass

from .mpoly import MPoly, ONE, q_binomial


@dataclass(frozen=True)
class TruncatedSeries:
    coeffs: tuple[MPoly, ...]  # slot n is the coefficient of z^n over (q;q)_n

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> MPoly:
        return self.coeffs[n]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n_max = min(self.order, other.order)
        slots = []
        for n in range(n_max + 1):
            acc = MPoly.zero()
            for i in range(n + 1):
                acc = acc + q_binomial(n, i) * self.coeffs[i] * other.coeffs[n - i]
            slots.append(acc)
        return TruncatedSeries(tuple(slots))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n_max = min(self.order, other.order)
        return TruncatedSeries(
            tuple(self.coeffs[n] - other.coeffs[n] for n in range(n_max + 1))
        )

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n_max = min(self.order, other.order)
        return TruncatedSeries(
            tuple(self.coeffs[n] + other.coeffs[n] for n in range(n_max + 1))
        )

    def scale(self, factor: MPoly | int) -> "TruncatedSeries":
        return TruncatedSeries(tuple(c * factor for c in self.coeffs))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)


def from_slots(slots: list[MPoly]) -> TruncatedSeries:
    return TruncatedSeries(tuple(slots))


def q_exp_series(scale: MPoly | int, order: int) -> TruncatedSeries:
    """e(scale*z; q) truncated at z^order: slot n stores scale^n."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    scale_p = scale if isinstance(scale, MPoly) else MPoly.const(scale)
    slots = [ONE]
    for _ in range(order):
        slots.append(slots[-1] * scale_p)
    return TruncatedSeries(tuple(slots))
