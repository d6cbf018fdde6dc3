"""Every enumerated family for n <= 8 against a recorded golden file.

The golden file holds each family rendered with MPoly.to_text (tables as
{k: text}), keyed by call, e.g. "fixed_count_exc_maj_poly(5,2)".  It was
recorded from the hand-written accumulators that the filter-and-key
families replaced; rewrite it only from code whose families are trusted:

    PYTHONPATH=src python tests/test_golden_families.py > tests/golden_families.json
"""

import json
import sys
from pathlib import Path

from eulerian_gamma import families

GOLDEN = Path(__file__).with_name("golden_families.json")
MAX_N = 8
PLAIN = (
    "basic_eulerian", "basic_eulerian_desrix", "derangement_cyc_poly",
    "derangement_exc_des_maj_poly", "alternating_inv_poly",
)
TABLES = (
    "dd_free_inv_table", "dd_free_ascent_inv_table",
    "cda_free_derangement_cyc_table",
)
BY_FIXED_COUNT = ("fixed_count_exc_maj_poly", "fixed_count_cyc_exc_poly")


def rendered() -> dict:
    out = {}
    for n in range(MAX_N + 1):
        for name in PLAIN:
            out[f"{name}({n})"] = getattr(families, name)(n).to_text()
        for name in TABLES:
            table = getattr(families, name)(n)
            out[f"{name}({n})"] = {str(k): table[k].to_text() for k in sorted(table)}
        for name in BY_FIXED_COUNT:
            for j in range(n + 1):
                out[f"{name}({n},{j})"] = getattr(families, name)(n, j).to_text()
    return out


def test_families_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = rendered()
    assert len(golden) == 162
    assert sorted(actual) == sorted(golden)
    wrong = [key for key in golden if actual[key] != golden[key]]
    assert not wrong, f"families differ from the golden file: {wrong}"


if __name__ == "__main__":
    json.dump(rendered(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
