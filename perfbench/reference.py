"""The benchmark's own definitions, used to check every program output.

Nothing here imports the package under test: each statistic is computed
from its literal definition, so a fast kernel that drifts from the
definition shows up as a failed operation rather than as a speed-up.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# The 25 check ids and their exhaustive ceilings, as registered when the
# benchmark was defined.  A report whose n_range is not [1, min(max_n,
# ceiling)] counts as failed, so a check that quietly covers less shows.
CEILINGS = {
    "thm-1.1": 9, "thm-1.2": 9, "thm-1.3": 9, "thm-1.4": 9, "thm-1.5": 9,
    "lemma-1.7": 9, "lemma-2.1": 8, "lemma-2.2": 8,
    "prop-3.2": 8, "prop-3.4": 7, "prop-3.5": 8,
    "f-bijection": 8, "lemma-4.1": 8, "lemma-4.2": 8,
    "prop-5.1": 6, "prop-5.2": 9,
    "eq-recurrence2": 8, "eq-qmul": 8, "eq-fix-maj": 8, "eq-cycle-bis": 8,
    "eq-exp-fixed": 8, "eq-sw3": 8,
    "remark-1.8": 8, "remark-3.7-negative": 3, "table-1": 4,
}
CHECK_IDS = tuple(CEILINGS)

GAMMA_FAMILIES = ("basic", "derangement", "cyc", "sw3")


# --- literal statistics ---------------------------------------------------

def inv(w) -> int:
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def descents(w) -> list[int]:
    return [i for i in range(1, len(w)) if w[i - 1] > w[i]]


def exc(w) -> int:
    return sum(1 for i, v in enumerate(w, 1) if v > i)


def fix(w) -> int:
    return sum(1 for i, v in enumerate(w, 1) if v == i)


def dd_da(w) -> tuple[int, int]:
    """(double descents, double ascents) with w_0 = w_{n+1} = +infinity."""
    inf = len(w) + 1
    padded = (inf, *w, inf)
    dd = da = 0
    for i in range(1, len(w) + 1):
        left, v, right = padded[i - 1], padded[i], padded[i + 1]
        dd += left > v > right
        da += left < v < right
    return dd, da


def orbit_size(w) -> int:
    """Size of the modified Foata-Strehl orbit: every double ascent and
    double descent toggles independently, so it is 2^(da+dd)."""
    dd, da = dd_da(w)
    return 2 ** (dd + da)


def is_permutation(w, n: int) -> bool:
    return sorted(w) == list(range(1, n + 1))


# --- verify reports ---------------------------------------------------------

def verify_failures(stdout: str, ids: list[str], max_n: int) -> list[str]:
    """One entry per requested check whose report is missing or wrong.

    A report is right when it passed with no witnesses, sits at the
    requested position, and claims exactly n_range [1, min(max_n, ceiling)].
    """
    lines = [line for line in stdout.splitlines() if line.strip()]
    failures = []
    for pos, cid in enumerate(ids):
        if pos >= len(lines):
            failures.append(f"{cid}: no report")
            continue
        try:
            report = json.loads(lines[pos])
        except json.JSONDecodeError:
            failures.append(f"{cid}: unparseable report {lines[pos][:80]!r}")
            continue
        if report.get("check_id") != cid:
            failures.append(f"{cid}: report {pos} is {report.get('check_id')!r}")
        elif report.get("passed") is not True or report.get("witnesses"):
            failures.append(f"{cid}: FAIL {report.get('witnesses')}")
        elif report.get("n_range") != [1, min(max_n, CEILINGS[cid])]:
            failures.append(f"{cid}: n_range {report.get('n_range')}")
    if len(lines) > len(ids):
        failures.append(f"{len(lines) - len(ids)} unexpected report lines")
    return failures


def report_elapsed_ms(stdout: str) -> list[float]:
    out = []
    for line in stdout.splitlines():
        try:
            out.append(float(json.loads(line)["elapsed_ms"]))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            continue
    return out


# --- gamma tables -----------------------------------------------------------

_TERM = re.compile(r"([+-]?)(\d*)((?:[a-z](?:\^\d+)?)*)")


def value_at_one(text: str) -> int:
    """Evaluate a compact polynomial such as "2q+3q^2p" at every variable = 1."""
    total = 0
    for term in re.split(r"(?=[+-])", text):
        if not term:
            continue
        m = _TERM.fullmatch(term)
        if m is None or not (m.group(2) or m.group(3)):
            raise ValueError(f"bad polynomial term {term!r}")
        coeff = int(m.group(2)) if m.group(2) else 1
        total += -coeff if m.group(1) == "-" else coeff
    return total


def derangements(n: int) -> int:
    d = [1, 0]
    for m in range(2, n + 1):
        d.append((m - 1) * (d[m - 1] + d[m - 2]))
    return d[n]


def gamma_invariant(family: str, n: int, data: dict) -> str | None:
    """sum_k gamma_k(1) 2^(center-2k) must be n! for basic and the number
    of derangements for the other three families."""
    center = data["center"]
    total = sum(
        value_at_one(text) * 2 ** (center - 2 * int(k))
        for k, text in data["gammas"].items()
    )
    expected = math.factorial(n) if family == "basic" else derangements(n)
    if total != expected:
        return f"{family} n={n}: sum gamma_k(1) 2^(c-2k) = {total} != {expected}"
    return None


def load_golden(n: int) -> dict:
    with open(GOLDEN_DIR / f"gamma_n{n}.json", encoding="utf-8") as fh:
        return json.load(fh)


def gamma_failure(family: str, n: int, stdout: str, golden: dict) -> str | None:
    """None when the JSON table equals the golden one and meets the invariant."""
    try:
        data = json.loads(stdout)
        invariant = gamma_invariant(family, n, data)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        return f"{family} n={n}: unreadable output ({exc})"
    if data != golden[family]:
        return f"{family} n={n}: output differs from the golden table"
    return invariant


# --- long words ---------------------------------------------------------------

def long_word_failures(w: tuple, answers: dict) -> dict[str, str]:
    """Check one word's answers against the definitions; returns the wrong
    operations, each with the reason."""
    n = len(w)
    bad = {}
    s = answers["statistics"]
    des_pos = descents(w)
    dd, da = dd_da(w)
    literal = {
        "inv": inv(w), "des": len(des_pos), "maj": sum(des_pos),
        "exc": exc(w), "fix": fix(w), "dd": dd, "da": da,
    }
    wrong = [f"{k}={getattr(s, k)} != {v}" for k, v in literal.items()
             if getattr(s, k) != v]
    if wrong:
        bad["statistics"] = ", ".join(wrong)
    image = answers["phi"]
    if not is_permutation(image, n) or exc(image) != literal["des"]:
        bad["phi"] = "des(w) != exc(phi(w))"
    if answers["phi_inv"] != w:
        bad["phi_inv"] = "phi_inv(phi(w)) != w"
    fact = answers["rix_factorize"]
    if tuple(x for part in (*fact.alphas, fact.beta) for x in part) != w:
        bad["rix_factorize"] = "factors do not concatenate to w"
    elif s.rix != len(fact.rix_set):
        bad["rix_factorize"] = f"rix={s.rix} != |RIX|={len(fact.rix_set)}"
    rep = answers["canonical_rep"]
    if not is_permutation(rep, n) or dd_da(rep)[0] != 0:
        bad["canonical_rep"] = "not a permutation without double descent"
    if "orbit" in answers:
        members = answers["orbit"]
        if w not in members or rep not in members or len(members) != 2 ** (dd + da):
            bad["orbit"] = f"{len(members)} members, not 2^{dd + da} around w"
    return bad
