"""The benchmark's output checks must catch wrong answers.

    python3 -m pytest perfbench/test_checks.py

Each wrong input (a corrupted gamma coefficient, a statistic off by one, a
FAIL report) must drive fail_frac above 0, and the unchanged program must
leave it at 0.  Program output is replaced by a stand-in script that
prints canned text.
"""

from __future__ import annotations

import json
import sys

import pytest

import reference
import workloads

sys.path.insert(0, str(workloads.SRC))

ECHO = "import sys\nsys.stdout.write(open(sys.argv[1]).read())\n"


def fail_frac(units) -> float:
    attempted, failed = workloads.fail_counts(units)
    return failed / attempted


@pytest.fixture
def echo_program(tmp_path):
    """A stand-in for the CLI that prints the given text, whatever its arguments."""
    script = tmp_path / "echo.py"
    script.write_text(ECHO)

    def make(text: str):
        out = tmp_path / "out.txt"
        out.write_text(text)
        return (sys.executable, str(script), str(out))
    return make


def corrupt_first_coefficient(data: dict) -> dict:
    """Add one to the first coefficient of gamma_1."""
    bad = json.loads(json.dumps(data))
    text = bad["gammas"]["1"]
    head = text[0]
    bad["gammas"]["1"] = (f"{int(head) + 1}" + text[1:] if head.isdigit()
                          else "2" + text)
    return bad


@pytest.mark.parametrize("family", reference.GAMMA_FAMILIES)
def test_corrupted_gamma_coefficient_fails(family, echo_program):
    golden = reference.load_golden(workloads.GAMMA_N)
    good = workloads.gamma_unit([family], golden,
                                program=echo_program(json.dumps(golden[family])))
    assert fail_frac([good]) == 0
    bad_data = corrupt_first_coefficient(golden[family])
    assert reference.gamma_invariant(family, workloads.GAMMA_N, bad_data)
    bad = workloads.gamma_unit([family], golden, program=echo_program(json.dumps(bad_data)))
    assert fail_frac([bad]) > 0


def test_golden_tables_meet_the_invariant():
    golden = reference.load_golden(workloads.GAMMA_N)
    for family in reference.GAMMA_FAMILIES:
        assert reference.gamma_invariant(family, workloads.GAMMA_N, golden[family]) is None


def reports(ids, max_n, failing=None) -> str:
    lines = []
    for cid in ids:
        ok = cid != failing
        lines.append(json.dumps({
            "check_id": cid, "n_range": [1, min(max_n, reference.CEILINGS[cid])],
            "passed": ok, "witnesses": [] if ok else ["n=3: counterexample"],
            "elapsed_ms": 1.0, "notes": [],
        }))
    return "\n".join(lines) + "\n"


def test_fail_report_fails(echo_program):
    ids = workloads.verify_ids(7)
    max_n = workloads.VERIFY_MAX_N
    good = workloads.verify_unit(ids, 1, program=echo_program(reports(ids, max_n)))
    assert fail_frac([good]) == 0
    bad = workloads.verify_unit(ids, 1, program=echo_program(reports(ids, max_n, ids[3])))
    assert fail_frac([bad]) > 0


def test_reordered_or_narrowed_reports_fail(echo_program):
    ids = workloads.verify_ids(7)
    max_n = workloads.VERIFY_MAX_N
    swapped = [ids[1], ids[0], *ids[2:]]
    unit = workloads.verify_unit(ids, 1, program=echo_program(reports(swapped, max_n)))
    assert fail_frac([unit]) > 0
    narrowed = reports(ids, max_n).replace(f'"n_range": [1, {max_n}]', '"n_range": [1, 5]')
    unit = workloads.verify_unit(ids, 1, program=echo_program(narrowed))
    assert fail_frac([unit]) > 0


def small_long_words(seed: int) -> workloads.LongWords:
    inputs = workloads.long_words(seed)
    keep = [i for i, w in enumerate(inputs.words) if len(w) <= 30]
    return workloads.LongWords([inputs.words[i] for i in keep],
                               [inputs.with_orbit[i] for i in keep])


def long_words_fail_frac(inputs) -> float:
    first_unit, first = workloads.long_words_pass(inputs)
    unit, answers = workloads.long_words_pass(inputs)
    unit.failures += workloads.changed_answers(inputs, first, answers)
    workloads.check_long_words(inputs, first, [first_unit, unit])
    return fail_frac([first_unit, unit])


def test_statistic_off_by_one_fails(monkeypatch):
    from eulerian_gamma import perm

    inputs = small_long_words(3)
    assert long_words_fail_frac(inputs) == 0
    inv_count = perm.inv_count
    monkeypatch.setattr(perm, "inv_count", lambda w: inv_count(w) + 1)
    assert long_words_fail_frac(inputs) > 0

