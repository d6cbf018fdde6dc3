"""Benchmark of the eulerian-gamma library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from anywhere inside a checkout; it uses the checkout's src/ only.
Workloads (closed loops, one caller each):

  verify-serial    eulerian-gamma verify <25 ids> --threads 1, the ids in a
                   new order for each unit, all orders drawn from the seed
  verify-parallel  the same with --threads 2 (process fan-out in cli)
  gamma-tables     eulerian-gamma gamma <family> 9 for the four families
  long-words       in-process library calls on seeded words of length 20-500

BENCHMARK.json declares only the two verify workloads: on a shared 2-core
machine the other two spread by more than their bound from run to run.
It bounds setup_s, wall_s, cpu_s and peak_rss_mb.  The query metrics are
printed for every workload but bounded on none: they belong to long-words,
and on a verify workload a query is a whole unit, so query_ms_p50 repeats
wall_s and query_ms_p99, over a few dozen units at most, is the slowest one.

With --trace 0 the last line holds the end-to-end metrics BENCHMARK.json
declares; with --trace 1 it holds the per-layer metrics: a traced share of
the workload (spans and kernel call counts, recorded by rebinding functions
from outside the program) plus perfbench/layers.py run in a fresh process.
Each run also prints one line of run information (seed, machine, every
metric with its unit, fail_frac) and writes it to perfbench/out/.
On SIGTERM the run exits, killing the program process it was waiting for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics as stats
import sys
from pathlib import Path

import reference
import tracing
import workloads

WORKLOADS = ("verify-serial", "verify-parallel", "gamma-tables", "long-words")


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu_model": cpu, "git_sha": git_sha(workloads.ROOT)}


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout read from .git, or None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# --- running a workload -------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, traced_share: bool,
                 after_unit=None) -> list[workloads.Unit]:
    """Units of one workload; with traced_share every other unit is traced.
    after_unit is called after each unit (see workloads.run_loop)."""
    if name in ("verify-serial", "verify-parallel"):
        orders = workloads.verify_orders(seed)
        threads = 1 if name == "verify-serial" else workloads.PARALLEL_WORKERS
        return workloads.run_loop(
            seconds, lambda traced: workloads.verify_unit(next(orders), threads, traced),
            traced_share, after_unit)
    if name == "gamma-tables":
        order = workloads.gamma_order(seed)
        golden = reference.load_golden(workloads.GAMMA_N)
        return workloads.run_loop(
            seconds, lambda traced: workloads.gamma_unit(order, golden, traced),
            traced_share, after_unit)
    inputs = workloads.long_words(seed)
    first: list[dict] = []

    def one_pass(traced):
        tracer = tracing.Tracer() if traced else None
        if tracer:
            tracer.install()
        try:
            unit, answers = workloads.long_words_pass(inputs, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        if tracer:
            unit.trace = {"spans": tracer.spans, "counts": dict(tracer.counts),
                          "timed_s": dict(tracer.timed_s)}
        if first:
            unit.failures += workloads.changed_answers(inputs, first, answers)
        else:
            first.extend(answers)
        return unit

    units = workloads.run_loop(seconds, one_pass, traced_share, after_unit)
    workloads.check_long_words(inputs, first, units)
    return units


def end_to_end(units: list[workloads.Unit], setup: list[float]) -> dict[str, float]:
    queries = [q for u in units for q in u.queries_ms]
    return {
        "setup_s": stats.median(setup),
        "wall_s": stats.median(u.wall for u in units),
        "cpu_s": stats.median(u.cpu for u in units),
        "peak_rss_mb": workloads.peak_rss_mb(),
        "query_ms_p50": workloads.percentile(queries, 50),
        "query_ms_p99": workloads.percentile(queries, 99),
        "queries_per_s": len(queries) / sum(u.wall for u in units),
    }


def trace_metrics(units: list[workloads.Unit]) -> dict[str, float]:
    """Tracing overhead, self-time shares per layer and kernel call counts
    per traced unit.  Spans from verify-parallel's workers are not
    collected, so there only the cli layer has self time."""
    traced = [u for u in units if u.traced]
    plain = [u for u in units if not u.traced]
    traced_wall = stats.median(u.wall for u in traced)
    out = {
        "trace.overhead_s": traced_wall - stats.median(u.wall for u in plain),
        "trace.traced_wall_s": traced_wall,
    }
    self_s = dict.fromkeys(tracing.LAYERS, 0.0)
    counts: dict[str, float] = {}
    spans = 0
    for u in traced:
        trace = u.trace or {"spans": [], "counts": {}}
        spans += len(trace["spans"])
        for layer, secs in tracing.self_times(trace["spans"]).items():
            self_s[layer] += secs
        for key, value in trace["counts"].items():
            counts[key] = counts.get(key, 0) + value
    total_wall = sum(u.wall for u in traced)
    out["trace.spans"] = spans / len(traced)
    for layer in tracing.LAYERS:
        out[f"trace.self_frac.{layer}"] = self_s[layer] / total_wall
    for key in tracing.COUNTER_NAMES:
        out[f"calls.{key}"] = counts.get(key, 0) / len(traced)
    return out


def layer_metrics(seed: int) -> tuple[dict[str, float], int, int]:
    """layers.py in a fresh process: metrics, reports attempted, reports failed."""
    proc = workloads.run_process(
        [sys.executable, str(workloads.ROOT / "perfbench" / "layers.py"),
         "--seed", str(seed)], timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"layers.py failed:\n{proc.stderr}")
    out = json.loads(proc.stdout.splitlines()[-1])
    return out, out.pop("_reports"), out.pop("_failed_reports")


# --- output -----------------------------------------------------------------------

# Units of the end-to-end metrics that BENCHMARK.json does not bound.
UNBOUNDED_UNITS = {"query_ms_p50": "ms", "query_ms_p99": "ms", "queries_per_s": "1/s"}


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(args) -> dict:
    setup: list[float] = []

    def sample_setup():
        setup.append(workloads.setup_sample())

    if not args.trace:
        workloads.setup_sample()
    units = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                         None if args.trace else sample_setup)
    attempted, failed = workloads.fail_counts(units)
    failures = [f for u in units for f in u.failures]
    if args.trace:
        metrics = trace_metrics(units)
        layers, reports, failed_reports = layer_metrics(args.seed)
        metrics.update(layers)
        attempted += reports
        failed += failed_reports
        failures += [f"layers.py: {failed_reports} failed reports"] * bool(failed_reports)
    else:
        metrics = end_to_end(units, setup)
    units_of = declared_units(args.trace)
    printed = {**units_of, **({} if args.trace else UNBOUNDED_UNITS)}
    if set(metrics) != set(printed):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(printed))}")
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(), "units": len(units),
        "queries": sum(len(u.queries_ms) for u in units),
        "fail_frac": failed / attempted, "failures": failures[:20],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in printed.items()},
    }
    workloads.OUT_DIR.mkdir(parents=True, exist_ok=True)
    out_file = workloads.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(info, indent=1) + "\n")
    print(json.dumps(info))
    return {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": {k: info["metrics"][k] for k in units_of}}


def run_all(args) -> None:
    """Every workload in a fresh process; prints each metric with its unit."""
    results = {}
    for name in WORKLOADS:
        proc = workloads.run_process(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)], timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            raise RuntimeError(f"{name} failed:\n{proc.stderr}")
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
        print(f"== {name} (seed {args.seed}, {info['units']} units, "
              f"{info['queries']} queries)")
        print(f"  {'fail_frac':<44} {info['fail_frac']:<14.6g} ratio")
        for key, m in info["metrics"].items():
            print(f"  {key:<44} {m['value']:<14.6g} {m['unit']}")
        results[name] = result
    print(json.dumps(results))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SystemExit unwinds through workloads.run_process, which kills its group
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if not (workloads.SRC / "eulerian_gamma" / "cli.py").is_file():
        print(f"no eulerian_gamma sources under {workloads.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(workloads.SRC))
    if args.workload == "all":
        run_all(args)
        return 0
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
