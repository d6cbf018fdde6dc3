"""The verification registry: every check runs and passes at a small
ceiling, reports serialize to the documented schema, and the runner
prefixes each witness with its size, caps witnesses and turns an exception
in a claim into a failed report.  The orbit and bijection checks run each
kernel once per word."""

from math import factorial
from pathlib import Path

import pytest

from eulerian_gamma import bijections, checks, families
from eulerian_gamma.checks import CHECKS, WITNESS_CAP, Check, run_check, run_checks

EXPECTED_IDS = {
    "thm-1.1", "thm-1.2", "thm-1.3", "thm-1.4", "thm-1.5",
    "lemma-1.7", "lemma-2.1", "lemma-2.2",
    "prop-3.2", "prop-3.4", "prop-3.5",
    "f-bijection", "lemma-4.1", "lemma-4.2",
    "prop-5.1", "prop-5.2",
    "eq-recurrence2", "eq-qmul", "eq-fix-maj", "eq-cycle-bis",
    "eq-exp-fixed", "eq-sw3",
    "remark-1.8", "remark-3.7-negative", "table-1",
}


def test_registry_is_complete():
    assert set(CHECKS) == EXPECTED_IDS


@pytest.mark.parametrize("check_id", sorted(EXPECTED_IDS))
def test_each_check_passes_at_small_ceiling(check_id):
    report = run_check(check_id, max_n=5)
    assert report.passed, report.witnesses


def test_report_schema():
    report = run_check("table-1", max_n=4)
    data = report.as_dict()
    assert set(data) == {
        "check_id", "n_range", "passed", "witnesses", "elapsed_ms", "notes",
    }
    assert data["check_id"] == "table-1"
    assert data["n_range"] == [1, 4]
    assert data["passed"] is True
    assert data["witnesses"] == []
    assert isinstance(data["elapsed_ms"], float)


def test_ceiling_clamps_requested_max_n():
    report = run_check("remark-3.7-negative", max_n=9)
    assert report.n_range == (1, 3)


def test_derangement_numbers_from_their_recurrence():
    """thm-1.2's side that does not enumerate: D_0..D_7."""
    assert [checks._derangement_number(n) for n in range(8)] == [
        1, 0, 1, 2, 9, 44, 265, 1854]


def test_unknown_id_raises():
    with pytest.raises(KeyError):
        run_check("thm-9.9")


def test_run_checks_preserves_order():
    ids = ["table-1", "eq-qmul"]
    reports = run_checks(ids, max_n=4)
    assert [r.check_id for r in reports] == ids


def _raise(*args):
    raise RuntimeError("injected")


def test_exception_in_claim_is_a_failed_report(monkeypatch):
    monkeypatch.setattr(families, "gamma_basic", _raise)
    failed, passed = run_checks(["thm-1.4", "table-1"], max_n=5)
    assert not failed.passed
    assert failed.n_range == (1, 5)
    # the witness names the innermost frame: the raising function
    line = _raise.__code__.co_firstlineno + 1
    assert failed.witnesses == tuple(
        f"n={n}: RuntimeError: injected (at test_checks.py:{line} in _raise)"
        for n in range(1, 6)
    )
    assert passed.check_id == "table-1" and passed.passed


def test_exception_witness_names_the_innermost_frame(monkeypatch):
    """remark-3.7 -> families.tally -> its key -> maj, here f_map, which
    raises on (1, 2, 3): the witness names f_map, not the claim's callee."""
    monkeypatch.setattr(checks, "maj", bijections.f_map)
    raise_line = 'raise NotInDomain("f needs rix(sigma) = 0 and dd(sigma) = 1")'
    source = Path(bijections.__file__).read_text().splitlines()
    line = [s.strip() for s in source].index(raise_line) + 1
    report = run_check("remark-3.7-negative", max_n=3)
    assert report.witnesses == (
        "n=3: NotInDomain: f needs rix(sigma) = 0 and dd(sigma) = 1 "
        f"(at bijections.py:{line} in f_map)",
    )


def test_witness_is_prefixed_with_its_size(monkeypatch):
    def claim(n):
        if n == 3:
            yield "x"

    monkeypatch.setitem(CHECKS, "claim-at-3", Check(4, claim))
    report = run_check("claim-at-3", max_n=5)
    assert report.n_range == (1, 4)
    assert report.witnesses == ("n=3: x",)


def test_witnesses_are_capped(monkeypatch):
    monkeypatch.setattr(checks, "is_alternating", lambda w: True)
    report = run_check("thm-1.3", max_n=8)
    assert not report.passed
    assert report.n_range == (1, 4)
    assert len(report.witnesses) == WITNESS_CAP + 1
    assert report.witnesses[-1].startswith("stopped at n=")
    assert report.witnesses[-1].endswith(f"after {WITNESS_CAP} witnesses")


def _count_calls(module, names, check_id, n):
    """Run one check's claim at size n with module.<name> wrapped to count
    its calls; the bindings are restored however the claim ends."""
    counts = dict.fromkeys(names, 0)
    originals = {name: getattr(module, name) for name in names}

    def counting(name):
        def wrapper(*args):
            counts[name] += 1
            return originals[name](*args)
        return wrapper

    try:
        for name in names:
            setattr(module, name, counting(name))
        assert list(CHECKS[check_id].claim(n)) == []
    finally:
        for name, original in originals.items():
            setattr(module, name, original)
    return counts


def test_orbit_and_bijection_checks_run_each_kernel_once_per_word():
    n = 6
    assert _count_calls(bijections, ["phi", "phi_inv"], "prop-3.5", n) == {
        "phi": factorial(n), "phi_inv": factorial(n),
    }
    assert _count_calls(bijections, ["lyc"], "lemma-4.1", n) == {"lyc": factorial(n)}
    # f_map once per R0 word and f_inv once per D~ word: |R0_n| = |D~_n| = |E_n|
    domain = sum(families.sizes(families.cda_free_derangement_cyc_table(n)).values())
    assert _count_calls(bijections, ["f_map", "f_inv"], "f-bijection", n) == {
        "f_map": domain, "f_inv": domain,
    }
