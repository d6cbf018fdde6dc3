"""Acceptance gate: the eight top-level criteria, each printed as a single
pass/fail line (run with pytest -s to see them).  All comparisons are
exact polynomial equalities; the three timed criteria assert their
runtime budgets."""

import time
from contextlib import contextmanager

from eulerian_gamma import checks, families
from eulerian_gamma.mpoly import MPoly, ONE

t = MPoly.var("t")
q = MPoly.var("q")
y = MPoly.var("y")


@contextmanager
def criterion(label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL {label}")
        raise
    print(f"PASS {label} ({time.perf_counter() - start:.1f}s)")


def _assert_reports_pass(reports):
    for report in reports:
        assert report.passed, (report.check_id, report.witnesses)


def test_criterion_1_golden_values():
    """A_4 displays and all printed Gamma / GammaTilde values, under 1 s."""
    with criterion("criterion-1 golden-values"):
        start = time.perf_counter()
        a4 = families.basic_eulerian(4)
        assert a4.substitute("r", 1) == (ONE + t) ** 3 + (
            2 * q + 3 * q**2 + 2 * q**3 + q**4
        ) * t * (ONE + t)
        assert a4.substitute("r", 0) == t * (ONE + t) ** 2 + (
            q + 2 * q**2 + q**3 + q**4
        ) * t**2
        gammas = [
            ONE,
            ONE,
            ONE + y * (q + q**2),
            ONE + y * (q + q**2) * (2 + q + q**2),
            ONE
            + y
            * (3 * q + 5 * q**2 + 5 * q**3 + 5 * q**4 + 2 * q**5 + 2 * q**6)
            + y**2 * (q + q**3) * (ONE + q + q**2 + q**3) * (q + q**2),
        ]
        tildes = [
            MPoly.zero(),
            y,
            y,
            y + y**2 * (q + 2 * q**2 + q**3 + q**4),
            y
            + y**2
            * (2 * q + 4 * q**2 + 4 * q**3 + 4 * q**4 + 2 * q**5 + 2 * q**6),
        ]
        for n in range(1, 6):
            assert families.gamma_poly(n) == gammas[n - 1]
            assert families.gamma_tilde_poly(n) == tildes[n - 1]
        assert time.perf_counter() - start < 1.0


def test_criterion_2_theorem_suite():
    """thm-1.1 .. thm-1.5 by two-route comparison for n <= 9, under 5 min."""
    with criterion("criterion-2 theorem-suite"):
        start = time.perf_counter()
        ids = ["thm-1.1", "thm-1.2", "thm-1.3", "thm-1.4", "thm-1.5"]
        _assert_reports_pass(checks.run_checks(ids, max_n=9))
        assert time.perf_counter() - start < 300.0


def test_criterion_3_bijection_suite():
    """phi and f bijectivity with their statistic transfers for n <= 8,
    plus the fifteen Table 1 entries."""
    with criterion("criterion-3 bijection-suite"):
        ids = ["prop-3.5", "f-bijection", "table-1"]
        _assert_reports_pass(checks.run_checks(ids, max_n=8))


def test_criterion_4_action_suite():
    """Involution and commutation of all three actions exhaustively for
    n <= 7 (action-axioms), invariance lemmas for n <= 8, unique orbit
    representatives."""
    with criterion("criterion-4 action-suite"):
        # the axioms, ai-invariance, beta1/RIX/type preservation, and the
        # unique representatives (inside lemma-2.1 and lemma-4.2)
        ids = ["action-axioms", "lemma-2.1", "lemma-4.1", "thm-1.4", "lemma-4.2"]
        reports = checks.run_checks(ids, max_n=8)
        _assert_reports_pass(reports)
        assert reports[0].n_range == (1, 7)  # the axioms at every n <= 7


def test_criterion_5_rix_suite():
    """Recursive rix vs factorization for n <= 8; factorization structure
    and uniqueness by exhaustive alternative search for n <= 7."""
    with criterion("criterion-5 rix-suite"):
        _assert_reports_pass(
            checks.run_checks(["prop-3.2", "prop-3.4"], max_n=8)
        )


def test_criterion_6_recurrences_and_series():
    """Both Gamma recurrences for n <= 9, the basic recurrence with
    symbolic r for n <= 8, and the three generating function identities to
    order z^6, under 2 min."""
    with criterion("criterion-6 recurrences-series"):
        start = time.perf_counter()
        _assert_reports_pass(checks.run_checks(["prop-5.2"], max_n=9))
        _assert_reports_pass(checks.run_checks(["eq-recurrence2"], max_n=8))
        _assert_reports_pass(checks.run_checks(["prop-5.1"], max_n=6))
        assert time.perf_counter() - start < 120.0


def test_criterion_7_refinements():
    """fix-maj, cycle-bis, exp:fixed for all j with n <= 8; SW3 extraction
    nonnegative and specializing at p = 1."""
    with criterion("criterion-7 refinements"):
        ids = ["eq-fix-maj", "eq-cycle-bis", "eq-exp-fixed", "eq-sw3"]
        _assert_reports_pass(checks.run_checks(ids, max_n=8))


def test_criterion_8_negative_control():
    """(FIX, maj) and (RIX, aid) joint distributions must differ on S_3."""
    with criterion("criterion-8 negative-control"):
        _assert_reports_pass(
            checks.run_checks(["remark-3.7-negative"], max_n=3)
        )
