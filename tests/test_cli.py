"""The command-line surface: output formats, worked examples, and the
exit-code contract (0 success, 1 verification/domain failure, 2 usage)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from eulerian_gamma.cli import build_parser, main


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse exits on usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stats_json(capsys):
    code, out, _ = run_cli(capsys, "stats", "291753468", "--output", "json")
    assert code == 0
    data = json.loads(out)
    assert data["ai"] == 12
    assert data["rix"] == 2
    assert list(data) == [
        "exc", "fix", "fix_set", "maj", "des", "des_set", "inv", "imaj",
        "ai", "aid", "rix", "rix_set", "cyc", "cda", "dd", "da", "peak",
        "valley", "lyc",
    ]


def test_stats_trivial(capsys):
    code, out, _ = run_cli(capsys, "stats", "1", "--output", "json")
    assert code == 0
    data = json.loads(out)
    assert data["rix"] == 1
    assert data["exc"] == 0


def test_stats_comma_form(capsys):
    code, out, _ = run_cli(
        capsys, "stats", "10,8,4,9,7,2,5,3,6,1", "--output", "json"
    )
    assert code == 0


def test_stats_parse_failure_exits_2(capsys):
    code, _, err = run_cli(capsys, "stats", "notaperm")
    assert code == 2
    assert "unparseable" in err


def test_stats_text_and_tsv(capsys):
    code, out, _ = run_cli(capsys, "stats", "4132")
    assert code == 0
    assert "rix = 0" in out
    code, out, _ = run_cli(capsys, "stats", "4132", "--output", "tsv")
    header, values = out.strip().split("\n")
    assert header.split("\t")[0] == "exc"


def test_gamma_basic_table(capsys):
    code, out, _ = run_cli(capsys, "gamma", "basic", "4")
    assert code == 0
    assert out.splitlines() == [
        "k=0  gamma=1",
        "k=1  gamma=2q+3q^2+2q^3+q^4",
    ]


def test_gamma_derangement_table(capsys):
    code, out, _ = run_cli(capsys, "gamma", "derangement", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "k=1  gamma=1"
    assert lines[2] == "k=2  gamma=2q+4q^2+4q^3+4q^4+2q^5+2q^6"


def test_gamma_cyc_table_renders_b(capsys):
    code, out, _ = run_cli(capsys, "gamma", "cyc", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "k=1  gamma=b"
    assert lines[2] == "k=2  gamma=2b+3b^2"


def test_gamma_sw3_cross_check_failure_exits_1(capsys, monkeypatch):
    from eulerian_gamma import families
    from eulerian_gamma.mpoly import MPoly, gamma_sum

    true_poly = families.derangement_exc_des_maj_poly
    wrong_gamma_1 = MPoly.var("p") * MPoly.var("q")  # still expandable
    monkeypatch.setattr(families, "derangement_exc_des_maj_poly",
                        lambda n: true_poly(n) + gamma_sum({1: wrong_gamma_1}, n))
    code, out, err = run_cli(capsys, "gamma", "sw3", "4")
    assert code == 1
    assert out == ""
    assert err.startswith("internal cross-check failed: sw3_gamma(4) at p=1: k=1: ")
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "gamma", "sw3", "4")
    assert code == 0
    assert out.splitlines()[0] == "k=0  gamma=0"


def test_gamma_json(capsys):
    code, out, _ = run_cli(capsys, "gamma", "basic", "3", "--output", "json")
    assert code == 0
    data = json.loads(out)
    assert data["family"] == "basic"
    assert data["gammas"]["1"] == "q+q^2"


def test_gamma_bad_family_exits_2(capsys):
    code, _, _ = run_cli(capsys, "gamma", "nosuch", "4")
    assert code == 2


def test_gamma_over_ceiling_exits_2(capsys):
    code, _, err = run_cli(capsys, "gamma", "basic", "13")
    assert code == 2
    assert err == "error: n must be in 1..9\n"
    for value in ("0", "13"):
        code, _, err = run_cli(capsys, "gamma", "basic", "4", "--max-n", value)
        assert code == 2
        assert err.count("\n") == 1
        assert "--max-n" in err and "1..12" in err


def test_env_var_cap(capsys, monkeypatch):
    for value in ("99", "0", "abc"):
        monkeypatch.setenv("EULERIAN_GAMMA_MAX_N", value)
        code, _, err = run_cli(capsys, "gamma", "basic", "4")
        assert code == 2  # never clamped or ignored
        assert err.count("\n") == 1
        assert "EULERIAN_GAMMA_MAX_N" in err and "1..12" in err
    monkeypatch.setenv("EULERIAN_GAMMA_MAX_N", "3")
    code, _, err = run_cli(capsys, "gamma", "basic", "4")
    assert code == 2
    assert err == "error: n must be in 1..3\n"


def test_env_var_is_read_only_by_subcommands_with_max_n(capsys, monkeypatch):
    monkeypatch.setenv("EULERIAN_GAMMA_MAX_N", "abc")
    code, out, err = run_cli(capsys, "stats", "213")
    assert code == 0 and err == ""
    assert "des = 1" in out


# subcommand -> (positional arguments, the common flags it reads)
SUBCOMMAND_FLAGS = {
    "stats": (["213"], {"--output"}),
    "gamma": (["basic", "4"], {"--max-n", "--output"}),
    "verify": (["table-1"], {"--max-n", "--output", "--threads"}),
    "map": (["phi", "213"], set()),
    "orbit": (["213"], {"--max-n", "--output"}),
    "rixfact": (["213"], set()),
}
COMMON_FLAGS = {"--max-n": ["4"], "--output": ["json"], "--threads": ["1"]}


def test_each_subcommand_takes_only_the_flags_it_reads(capsys):
    parser = build_parser()
    accepted = set()
    for name, (positional, _) in SUBCOMMAND_FLAGS.items():
        for flag, value in COMMON_FLAGS.items():
            try:
                parser.parse_args([name, *positional, flag, *value])
            except SystemExit:
                continue
            accepted.add((name, flag))
    capsys.readouterr()
    assert accepted == {
        (name, flag)
        for name, (_, flags) in SUBCOMMAND_FLAGS.items()
        for flag in flags
    }
    assert len(accepted) == 8


def test_unread_flag_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "map", "phi", "4132", "--output", "json")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --output json" in err


def test_gamma_has_no_group_by_t(capsys):
    """gamma coefficients have no t in them, so there is nothing to group."""
    code, out, err = run_cli(capsys, "gamma", "basic", "4", "--group-by-t")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --group-by-t" in err


def test_output_offers_only_the_formats_rendered(capsys):
    for argv in (["orbit", "4132", "--output", "tsv"],
                 ["verify", "table-1", "--output", "text"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "argument --output: invalid choice" in err
    code, out, _ = run_cli(capsys, "orbit", "4132", "--output", "json")
    assert code == 0
    assert json.loads(out) == ["1324", "4132"]
    code, out, _ = run_cli(capsys, "verify", "table-1", "--max-n", "4",
                           "--output", "tsv")
    assert code == 0
    assert out.startswith("table-1\tpass\t1..4\t")


def test_verify_pass(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "table-1", "remark-3.7-negative", "--max-n", "4"
    )
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert [d["check_id"] for d in lines] == ["table-1", "remark-3.7-negative"]
    assert all(d["passed"] for d in lines)
    for d in lines:
        assert set(d) == {
            "check_id", "n_range", "passed", "witnesses", "elapsed_ms",
            "notes",
        }


def test_a_check_made_at_one_size_says_so_below_it(capsys):
    """At --max-n 2 neither check compares anything, yet both pass with
    n_range [1, 2]; the note names the one size each is checked at."""
    code, out, _ = run_cli(
        capsys, "verify", "remark-3.7-negative", "table-1", "--max-n", "2"
    )
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert [(d["n_range"], d["passed"]) for d in reports] == [([1, 2], True)] * 2
    assert "checked at n = 3 only" in reports[0]["notes"]
    assert "checked at n = 4 only" in reports[1]["notes"]


def test_verify_all_exercises_registry(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--max-n", "4")
    assert code == 0
    from eulerian_gamma.checks import CHECKS

    ids = [json.loads(line)["check_id"] for line in out.splitlines()]
    assert ids == list(CHECKS)


def test_verify_unknown_id_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "bogus-id")
    assert code == 2
    assert "bogus-id" in err


def test_verify_threads_deterministic(capsys):
    code1, out1, _ = run_cli(
        capsys, "verify", "table-1", "eq-qmul", "--max-n", "4"
    )
    code2, out2, _ = run_cli(
        capsys, "verify", "table-1", "eq-qmul", "--max-n", "4",
        "--threads", "2",
    )
    assert code1 == code2 == 0
    strip = lambda s: [
        {k: v for k, v in json.loads(line).items() if k != "elapsed_ms"}
        for line in s.splitlines()
    ]
    assert strip(out1) == strip(out2)


def test_verify_contains_a_failing_check(capsys, monkeypatch):
    from eulerian_gamma import families

    def boom(n):
        raise RuntimeError("injected")

    monkeypatch.setattr(families, "gamma_basic", boom)
    code, out, _ = run_cli(
        capsys, "verify", "thm-1.4", "table-1", "--max-n", "5", "--threads", "1"
    )
    assert code == 1
    first, second = (json.loads(line) for line in out.splitlines())
    assert first["check_id"] == "thm-1.4" and not first["passed"]
    assert first["witnesses"][0].startswith("n=1: RuntimeError: injected (at ")
    assert first["witnesses"][0].endswith(" in boom)")
    assert second["check_id"] == "table-1" and second["passed"]


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replaces ProcessPoolExecutor, where verify imports it from when it
    starts a pool, by an in-process stand-in and returns the max_workers of
    every pool verify asked for."""
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, jobs):
            return map(func, jobs)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
    return sizes


def test_verify_threads_bounded_by_job_count(capsys, pool_sizes, monkeypatch):
    ids = ["table-1", "eq-qmul", "remark-3.7-negative"]
    code, out, _ = run_cli(capsys, "verify", *ids, "--max-n", "3", "--threads", "5000")
    assert code == 0
    assert pool_sizes == [3]
    assert [json.loads(line)["check_id"] for line in out.splitlines()] == ids
    monkeypatch.setattr("os.cpu_count", lambda: 64)
    code, _, _ = run_cli(capsys, "verify", *ids, "--max-n", "3", "--threads", "0")
    assert code == 0
    assert pool_sizes == [3, 3]


def test_verify_negative_threads_exits_2(capsys, pool_sizes):
    code, out, err = run_cli(capsys, "verify", "table-1", "--threads", "-3")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "--threads" in err
    assert pool_sizes == []


# Runs each argv given as JSON through cli.main in one fresh process and
# prints every (exit code, stdout) and the modules loaded by then.
_PROBE = """
import io, json, sys
from eulerian_gamma import cli
outputs = []
for argv in json.loads(sys.argv[1]):
    sys.stdout = io.StringIO()
    code = cli.main(argv)
    outputs.append((code, sys.stdout.getvalue()))
    sys.stdout = sys.__stdout__
print(json.dumps({"outputs": outputs, "modules": sorted(sys.modules)}))
"""

_SERIAL_UNUSED = {"concurrent.futures", "multiprocessing", "dataclasses",
                  "inspect", "traceback"}
_VERIFY = ["verify", "table-1", "eq-qmul", "--max-n", "4", "--threads"]


def _probe(*argvs):
    """Run the argvs in one `python -S` process with only the package's
    source on the path; returns its outputs and loaded module names."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    env.pop("EULERIAN_GAMMA_MAX_N", None)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _PROBE, json.dumps(argvs)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout)
    return result["outputs"], set(result["modules"])


def _reports_without_timing(out):
    reports = [json.loads(line) for line in out.splitlines()]
    for report in reports:
        del report["elapsed_ms"]
    return reports


def test_serial_commands_load_neither_the_pool_nor_dataclasses():
    outputs, modules = _probe(
        _VERIFY + ["1"], ["stats", "4132"], ["gamma", "basic", "5"],
        ["map", "phi", "4132"], ["rixfact", "4132"], ["orbit", "4132"],
    )
    assert [code for code, _ in outputs] == [0] * 6
    assert not _SERIAL_UNUSED & modules
    [(code, out)], pool_modules = _probe(_VERIFY + ["2"])
    assert code == 0
    assert "concurrent.futures" in pool_modules
    assert _reports_without_timing(out) == _reports_without_timing(outputs[0][1])


def test_map_phi_worked_example(capsys):
    code, out, _ = run_cli(capsys, "map", "phi", "7,6,9,1,8,4,2,3,5,10")
    assert code == 0
    assert out.strip() == "8,4,2,3,5,7,9,1,6,10"


def test_map_round_trip(capsys):
    code, out, _ = run_cli(capsys, "map", "phi-inv", "8,4,2,3,5,7,9,1,6,10")
    assert code == 0
    assert out.strip() == "7,6,9,1,8,4,2,3,5,10"


def test_map_f(capsys):
    code, out, _ = run_cli(capsys, "map", "f", "4132")
    assert code == 0
    assert out.strip() == "1324"
    code, out, _ = run_cli(capsys, "map", "f-inv", "1324")
    assert code == 0
    assert out.strip() == "4132"


def test_map_domain_failure_exits_1(capsys):
    code, _, err = run_cli(capsys, "map", "f", "1234")
    assert code == 1
    assert "rix" in err


def test_orbit(capsys):
    code, out, _ = run_cli(capsys, "orbit", "4132")
    assert code == 0
    assert out.splitlines() == ["1324", "4132"]


def test_orbit_over_max_n_budget_exits_2(capsys):
    identity = ",".join(str(i) for i in range(1, 17))
    for action in ("mfs", "restricted"):
        code, out, err = run_cli(
            capsys, "orbit", identity, "--action", action, "--max-n", "9"
        )
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            f"error: orbit of {identity} may have 2^15 members; "
            "--max-n 9 allows at most 2^8"
        ]


def test_orbit_restricted(capsys):
    code, out, _ = run_cli(capsys, "orbit", "4132", "--action", "restricted")
    assert code == 0
    assert "4132" in out.splitlines()


def test_rixfact(capsys):
    code, out, _ = run_cli(capsys, "rixfact", "2,1,8,7,9,3,5,4,6,10")
    assert code == 0
    assert out.strip() == "2 1 8 7 9|3 5|4 6 10 [L] beta1=4 RIX={4,6,10}"
