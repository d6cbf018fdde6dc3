"""The four benchmark workloads, each a closed loop with one caller.

A workload repeats a unit of work until the run length is used up and
returns one record per unit: wall and CPU seconds, per-query latencies,
and how many operations were attempted and failed.  Every unit's output
is checked against reference.py before it counts as done.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import reference
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench" / "out"

# verify-*: n = 8 alone takes about 20 s serial, one unit per run, so the
# run could not report a median; n <= 7 runs the same kernels in ~4 s.
VERIFY_MAX_N = 7
PARALLEL_WORKERS = 2
# gamma-tables: the largest n whose four tables fit three times in a run
# (5-8 s at n = 9; n = 10 takes 6-14 s per table).  At n = 8 half of each
# table is interpreter start and import, and runs spread wider.
GAMMA_N = 9
# long-words: lengths on a geometric grid, so every run sees the same
# spread; only the letters depend on the seed.
LONG_LENGTHS = tuple(sorted({round(20 * 25 ** (i / 23)) for i in range(24)}))
WORDS_PER_LENGTH = 4
# orbit() is sent only words whose orbit, 2^(da+dd), is at most this.
ORBIT_BUDGET = 2 ** 8

# per process; a run stops adding units once it is past its length
PROCESS_TIMEOUT_S = 30
MIN_UNITS = 3

PROGRAM = (sys.executable, "-m", "eulerian_gamma.cli")
TRACED_PROGRAM = (sys.executable, str(ROOT / "perfbench" / "tracing.py"))


@dataclass
class Unit:
    wall: float
    cpu: float
    queries_ms: list[float]
    attempted: int
    failures: list[str] = field(default_factory=list)
    traced: bool = False
    trace: dict | None = None
    report_ms: list[float] = field(default_factory=list)  # verify only


# --- processes ----------------------------------------------------------------

@dataclass
class Proc:
    returncode: int
    stdout: str
    stderr: str
    wall: float
    cpu: float


def run_process(cmd: list[str], timeout: float = PROCESS_TIMEOUT_S) -> Proc:
    """Run cmd to completion in its own process group and kill whatever
    is left of the group afterwards.  CPU time covers the whole process
    tree (children the program waited for are included)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=ROOT, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\ntimed out after {timeout} s"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return Proc(proc.returncode, out, err, wall, cpu)


def peak_rss_mb() -> float:
    """Highest RSS of this process or any child it has waited for."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


SETUP_SNIPPET = (
    "import time; t = time.perf_counter(); import eulerian_gamma.cli as c; "
    "c.build_parser(); print(time.perf_counter() - t)"
)


def setup_sample() -> float:
    """Seconds a fresh process takes to import eulerian_gamma.cli and build
    its parser.  A run takes one sample after each unit, so the samples are
    spread over the run's whole length like the units are; the first,
    untimed, sample writes the bytecode cache users also keep."""
    proc = run_process([sys.executable, "-c", SETUP_SNIPPET])
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import eulerian_gamma.cli:\n{proc.stderr}")
    return float(proc.stdout.strip())


def _trace_path(tag: str) -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return OUT_DIR / f"spans-{tag}-{os.getpid()}.json"


def _cli_unit(args: list[str], traced: bool, program) -> tuple[Proc, dict | None]:
    if not traced:
        return run_process([*program, *args]), None
    path = _trace_path(args[0])
    proc = run_process([*TRACED_PROGRAM, str(path), *args])
    try:
        with open(path, encoding="utf-8") as fh:
            trace = json.load(fh)
    except (OSError, ValueError):
        trace = None
    finally:
        path.unlink(missing_ok=True)
    return proc, trace


# --- verify-serial / verify-parallel -------------------------------------------

def verify_orders(seed: int):
    """Endless id orders from one seeded generator, a new one for each unit.
    With --threads 2 the wall time depends on how the order balances the
    two workers (one order can be 30% slower than another), so a run's
    median covers many orders rather than the luck of one."""
    rng = random.Random(seed)
    ids = list(reference.CHECK_IDS)
    while True:
        rng.shuffle(ids)
        yield list(ids)


def verify_ids(seed: int) -> list[str]:
    return next(verify_orders(seed))


def verify_unit(ids: list[str], threads: int, traced: bool = False,
                program=PROGRAM) -> Unit:
    args = ["verify", *ids, "--max-n", str(VERIFY_MAX_N),
            "--threads", str(threads), "--output", "json"]
    proc, trace = _cli_unit(args, traced, program)
    failures = reference.verify_failures(proc.stdout, ids, VERIFY_MAX_N)
    if proc.returncode != 0 and not failures:
        failures = [f"exit code {proc.returncode}"] * len(ids)
    # the user's request is the whole verify invocation
    return Unit(proc.wall, proc.cpu, [proc.wall * 1000], len(ids), failures,
                traced, trace, reference.report_elapsed_ms(proc.stdout))


# --- gamma-tables ----------------------------------------------------------------

def gamma_order(seed: int) -> list[str]:
    families = list(reference.GAMMA_FAMILIES)
    random.Random(seed).shuffle(families)
    return families


def gamma_unit(families: list[str], golden: dict, traced: bool = False,
               program=PROGRAM) -> Unit:
    unit = Unit(0.0, 0.0, [], len(families), traced=traced)
    traces = []
    for family in families:
        proc, trace = _cli_unit(["gamma", family, str(GAMMA_N), "--output", "json"],
                                traced, program)
        unit.wall += proc.wall
        unit.cpu += proc.cpu
        unit.queries_ms.append(proc.wall * 1000)
        if trace is not None:
            traces.append(trace)
        if proc.returncode != 0:
            unit.failures.append(f"{family}: exit code {proc.returncode}")
        else:
            problem = reference.gamma_failure(family, GAMMA_N, proc.stdout, golden)
            if problem:
                unit.failures.append(problem)
    if traced:
        unit.trace = merge_traces(traces)
    return unit


def merge_traces(traces: list[dict]) -> dict:
    """Concatenate several processes' spans, renumbering parent links."""
    spans, counts, timed = [], {}, {}
    for run_id, trace in enumerate(traces):
        offset = len(spans)
        for name, start, end, parent, _ in trace["spans"]:
            spans.append((name, start, end, parent + offset if parent >= 0 else -1,
                          run_id))
        for src, dst in ((trace["counts"], counts), (trace["timed_s"], timed)):
            for key, value in src.items():
                dst[key] = dst.get(key, 0) + value
    return {"spans": spans, "counts": counts, "timed_s": timed}


# --- long-words --------------------------------------------------------------------

@dataclass
class LongWords:
    words: list[tuple[int, ...]]
    with_orbit: list[bool]


def long_words(seed: int) -> LongWords:
    rng = random.Random(seed)
    words = []
    for n in LONG_LENGTHS:
        for _ in range(WORDS_PER_LENGTH):
            w = list(range(1, n + 1))
            rng.shuffle(w)
            words.append(tuple(w))
    rng.shuffle(words)
    return LongWords(words, [reference.orbit_size(w) <= ORBIT_BUDGET for w in words])


def long_words_pass(inputs: LongWords, tracer: Tracer | None = None):
    """One pass of library calls over every word.  Returns the unit and the
    answers, keyed by word index and operation."""
    from eulerian_gamma import actions, bijections, perm, rixfact

    queries: list[float] = []
    answers: list[dict] = []
    errors: list[str] = []
    clock = time.perf_counter

    def call(layer, op, func, *args):
        start = clock()
        try:
            if tracer is None:
                return func(*args)
            return tracer.call_in_span(f"{layer}.{op}", func, *args)
        except Exception as exc:  # a crashing kernel is a failed operation
            errors.append(f"{op}: {type(exc).__name__}: {exc}")
            return None
        finally:
            queries.append((clock() - start) * 1000)

    start_wall, start_cpu = clock(), time.process_time()
    for w, with_orbit in zip(inputs.words, inputs.with_orbit):
        ans = {"statistics": call("perm", "statistics", perm.statistics, w)}
        ans["phi"] = call("bijections", "phi", bijections.phi, w)
        ans["phi_inv"] = call("bijections", "phi_inv", bijections.phi_inv, ans["phi"])
        ans["rix_factorize"] = call("rixfact", "rix_factorize", rixfact.rix_factorize, w)
        ans["canonical_rep"] = call("actions", "canonical_rep",
                                    actions.canonical_rep, w, "mfs")
        if with_orbit:
            ans["orbit"] = call("actions", "orbit", actions.orbit, w, "mfs")
        answers.append(ans)
    unit = Unit(clock() - start_wall, time.process_time() - start_cpu, queries,
                len(queries), errors, tracer is not None)
    return unit, answers


def changed_answers(inputs: LongWords, first: list[dict], answers: list[dict]) -> list[str]:
    """Operations whose answer differs from the first pass's."""
    return [f"n={len(w)} {op}: answer changed between passes"
            for w, ans, ref in zip(inputs.words, answers, first)
            for op, value in ans.items() if value != ref[op]]


def check_long_words(inputs: LongWords, first: list[dict], units: list[Unit]) -> None:
    """Check the first pass's answers against the definitions.  Every pass
    gave the same answers unless changed_answers said otherwise, so each
    wrong answer is a failure in every unit."""
    wrong = []
    for w, ans in zip(inputs.words, first):
        try:
            bad = reference.long_word_failures(w, ans)
        except (AttributeError, TypeError) as exc:  # an answer of the wrong shape
            bad = {op: f"unreadable answer ({exc})" for op in ans}
        wrong += [f"n={len(w)} {op}: {why}" for op, why in bad.items()]
    for unit in units:
        unit.failures += wrong


# --- the run loop ----------------------------------------------------------------------

def run_loop(seconds: float, do_unit, traced_share: bool = False,
             after_unit=None) -> list[Unit]:
    """Repeat units until the next one would overrun the run length, with
    at least MIN_UNITS unless the run is already past its length.  With
    traced_share, every other unit is traced.  after_unit, if given, is
    called after each unit, inside the run length."""
    units: list[Unit] = []
    start = time.perf_counter()
    while True:
        units.append(do_unit(traced_share and len(units) % 2 == 1))
        if after_unit is not None:
            after_unit()
        walls = sorted(u.wall for u in units)
        elapsed = time.perf_counter() - start
        if (elapsed + walls[len(walls) // 2] > seconds
                and (len(units) >= MIN_UNITS or elapsed > seconds)):
            return units


def fail_counts(units: list[Unit]) -> tuple[int, int]:
    """(attempted, failed) operations; fail_frac is their ratio."""
    attempted = sum(u.attempted for u in units)
    failed = min(sum(len(u.failures) for u in units), attempted)
    return attempted, failed


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (p in 0..100)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
