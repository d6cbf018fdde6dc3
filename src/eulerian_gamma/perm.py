"""Permutations of [n], word-level statistics and enumeration.

A permutation is its one-line word, a plain tuple of labels, everywhere in
the package: the kernels neither wrap nor convert it.  Outside input enters
through parse_permutation, the one place that checks the word is a
rearrangement of 1..n.  Local shape statistics (dd, da, peak, valley) use
the boundary convention sigma_0 = sigma_{n+1} = +infinity, so a single
letter is a valley and valley = peak + 1 for every n >= 1.
"""

from __future__ import annotations

import itertools
from operator import eq, gt
from typing import Iterator, NamedTuple, Sequence

from .errors import BudgetExceeded, NotABijection

MAX_N = 12  # enumeration ceiling of words() and of the CLI's --max-n
DEFAULT_MAX_N = 9  # the ceiling run_check and the CLI use when given none

WordT = tuple[int, ...]


def parse_permutation(text: str) -> WordT:
    """Parse "2743156" (digits, n <= 9) or "10,8,4,9,7,2,5,3,6,1" into a
    word; NotABijection unless it is a rearrangement of 1..n."""
    text = text.strip()
    if not text:
        return ()
    if "," in text:
        try:
            w = tuple(int(part) for part in text.split(","))
        except ValueError as exc:
            raise NotABijection(f"unparseable permutation: {text!r}") from exc
    elif text.isdecimal():
        w = tuple(int(ch) for ch in text)
    else:
        raise NotABijection(f"unparseable permutation: {text!r}")
    if sorted(w) != list(range(1, len(w) + 1)):
        raise NotABijection(f"not a rearrangement of 1..{len(w)}: {w}")
    return w


def format_word(w: Sequence[int]) -> str:
    if len(w) <= 9:
        return "".join(str(v) for v in w)
    return ",".join(str(v) for v in w)


# --- word-level statistics ------------------------------------------------

def exc_count(w: Sequence[int]) -> int:
    return sum(1 for i, v in enumerate(w, start=1) if v > i)


def fix_set(w: Sequence[int]) -> frozenset[int]:
    return frozenset(v for i, v in enumerate(w, start=1) if v == i)


def des_set(w: Sequence[int]) -> frozenset[int]:
    return frozenset(i for i in range(1, len(w)) if w[i - 1] > w[i])


def maj(w: Sequence[int]) -> int:
    return sum(i for i in range(1, len(w)) if w[i - 1] > w[i])


def des(w: Sequence[int]) -> int:
    return sum(map(gt, w, w[1:]))


def inv_count(w: Sequence[int]) -> int:
    return sum(itertools.starmap(gt, itertools.combinations(w, 2)))


def inverse(w: Sequence[int]) -> WordT:
    out = [0] * len(w)
    for i, v in enumerate(w, start=1):
        out[v - 1] = i
    return tuple(out)


def imaj(w: Sequence[int]) -> int:
    return maj(inverse(w))


def cyc_count(w: Sequence[int]) -> int:
    n = len(w)
    seen = [False] * (n + 1)
    count = 0
    for start in range(1, n + 1):
        if not seen[start]:
            count += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = w[j - 1]
    return count


def cda_count(w: Sequence[int]) -> int:
    """Cyclic double ascents: values i with sigma^-1(i) < i < sigma(i)."""
    inv = inverse(w)
    return sum(1 for i in range(1, len(w) + 1) if inv[i - 1] < i < w[i - 1])


def _framed(w: Sequence[int]) -> Iterator[tuple[int, int, int]]:
    """(left, letter, right) for each letter of w, with the boundary
    convention sigma_0 = sigma_{n+1} = +infinity (n + 1 stands in)."""
    inf = len(w) + 1
    p = (inf, *w, inf)
    return zip(p, p[1:], p[2:])


def shape_counts(w: Sequence[int]) -> tuple[int, int, int, int]:
    """(dd, da, peak, valley) under the +infinity boundary convention."""
    dd = da = peak = 0
    for left, v, right in _framed(w):
        if left > v > right:
            dd += 1
        elif left < v < right:
            da += 1
        elif left < v > right:
            peak += 1
    return dd, da, peak, len(w) - dd - da - peak


def dd_count(w: Sequence[int]) -> int:
    count = 0
    for left, v, right in _framed(w):
        if left > v > right:
            count += 1
    return count


def dd_letters(w: Sequence[int]) -> list[int]:
    """The double-descent letters of w, left to right."""
    return [v for left, v, right in _framed(w) if left > v > right]


def admissible_inversion_count(w: Sequence[int]) -> int:
    """Inversions (w_i, w_j) with a left ascent into w_i or a larger letter
    strictly between them.

    O(n^2), one sweep per i: the pair (w_i, w_j) fails the second
    condition exactly when j comes before the next letter greater than w_i,
    so the smaller letters are counted from i + 1 after a left ascent and
    from that next greater letter on otherwise.
    """
    n = len(w)
    total = 0
    left = n + 1  # no left ascent into w_1
    for i in range(n):
        wi = w[i]
        j = i + 1
        if left > wi:
            while j < n and w[j] < wi:
                j += 1
        left = wi
        for v in w[j:]:
            if v < wi:
                total += 1
    return total


def is_alternating(w: Sequence[int]) -> bool:
    """sigma_1 < sigma_2 > sigma_3 < sigma_4 > ..."""
    for i in range(len(w) - 1):
        if i % 2 == 0:
            if w[i] > w[i + 1]:
                return False
        elif w[i] < w[i + 1]:
            return False
    return True


def is_derangement(w: Sequence[int]) -> bool:
    return not any(map(eq, w, range(1, len(w) + 1)))


# --- statistic bundle -----------------------------------------------------

class StatisticBundle(NamedTuple):
    """Every statistic of one permutation; the fields are in output order."""

    exc: int
    fix: int
    fix_set: frozenset[int]
    maj: int
    des: int
    des_set: frozenset[int]
    inv: int
    imaj: int
    ai: int
    aid: int
    rix: int
    rix_set: frozenset[int]
    cyc: int
    cda: int
    dd: int
    da: int
    peak: int
    valley: int
    lyc: int

    def as_dict(self) -> dict:
        """Field name -> value, in field order; sets as sorted lists."""
        return {
            name: sorted(value) if isinstance(value, frozenset) else value
            for name, value in zip(self._fields, self)
        }


def statistics(w: WordT) -> StatisticBundle:
    from . import bijections, rixfact  # cycle: bijections needs perm

    dd, da, peak, valley = shape_counts(w)
    ai = admissible_inversion_count(w)
    fixes = fix_set(w)
    descents = des_set(w)
    rixed = rixfact.rixed_points(w)
    return StatisticBundle(
        exc=exc_count(w),
        fix=len(fixes),
        fix_set=fixes,
        maj=maj(w),
        des=len(descents),
        des_set=descents,
        inv=inv_count(w),
        imaj=imaj(w),
        ai=ai,
        aid=ai + len(descents),
        rix=len(rixed),
        rix_set=rixed,
        cyc=cyc_count(w),
        cda=cda_count(w),
        dd=dd,
        da=da,
        peak=peak,
        valley=valley,
        lyc=bijections.lyc(w),
    )


# --- enumeration ----------------------------------------------------------

def words(n: int) -> Iterator[WordT]:
    """All words of S_n in lexicographic order, as raw tuples."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > MAX_N:
        raise BudgetExceeded(f"n={n} exceeds enumeration ceiling {MAX_N}")
    return itertools.permutations(range(1, n + 1))

