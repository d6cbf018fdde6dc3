"""Per-layer measurements, the same in every traced run.

Run as a fresh process: python3 perfbench/layers.py --seed N
Prints one JSON object {metric: value}.  Module layers, in the order a
verification pays for them: perm (generation and statistic kernels),
rixfact, actions, bijections, families (accumulation), mpoly/series (the
structured route), checks and cli.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import statistics as stats
import sys
import time

import reference
import workloads
from tracing import Tracer

SHORT_N = 8
SHORT_SAMPLES = 600
REPEATS = 3

ACCUMULATORS = (
    "basic_eulerian", "basic_eulerian_desrix", "dd_free_inv_table",
    "dd_free_ascent_inv_table", "cda_free_derangement_cyc_table",
    "derangement_cyc_poly", "derangement_exc_des_maj_poly",
    "fixed_count_exc_maj_poly", "fixed_count_cyc_exc_poly",
    "alternating_inv_poly",
)


def per_call_us(func, inputs: list[tuple]) -> float:
    """Median over REPEATS of the mean time of func(*args) over inputs."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for args in inputs:
            func(*args)
        times.append(time.perf_counter() - start)
    return stats.median(times) / len(inputs) * 1e6


def short_words(rng: random.Random, count: int) -> list[tuple[int, ...]]:
    out = []
    for _ in range(count):
        w = list(range(1, SHORT_N + 1))
        rng.shuffle(w)
        out.append(tuple(w))
    return out


def kernel_metrics(seed: int) -> dict[str, float]:
    from eulerian_gamma import actions, bijections, perm, rixfact

    rng = random.Random(seed)
    short = short_words(rng, SHORT_SAMPLES)
    long = workloads.long_words(seed).words
    sizes = {"short": [(w,) for w in short], "long": [(w,) for w in long]}
    out: dict[str, float] = {}

    start = time.perf_counter()
    total = sum(1 for _ in perm.words(9))
    out["perm.words_per_s"] = total / (time.perf_counter() - start)

    both = {
        "perm.statistics": perm.statistics, "perm.dd_count": perm.dd_count,
        "perm.des": perm.des, "perm.inv_count": perm.inv_count,
        "perm.admissible_inversion_count": perm.admissible_inversion_count,
        "perm.cyc_count": perm.cyc_count, "perm.cda_count": perm.cda_count,
        "rixfact.rix": rixfact.rix, "rixfact.rix_factorize": rixfact.rix_factorize,
        "bijections.phi": bijections.phi, "bijections.phi_inv": bijections.phi_inv,
    }
    for name, func in both.items():
        for size, inputs in sizes.items():
            out[f"{name}_us.{size}"] = per_call_us(func, inputs)
    for size, inputs in sizes.items():
        out[f"actions.canonical_rep_us.{size}"] = per_call_us(
            actions.canonical_rep, [(w, "mfs") for (w,) in inputs])

    hops = [(w, rng.randint(1, SHORT_N)) for w in short]
    out["actions.mfs_single_us.short"] = per_call_us(actions.mfs_single, hops)
    out["actions.restricted_mfs_single_us.short"] = per_call_us(
        actions.restricted_mfs_single, hops)
    small_orbits = [(w, "mfs") for w in short[:200]]
    out["actions.orbit_us.short"] = per_call_us(actions.orbit, small_orbits)

    # f and f_inv have restricted domains: rix = 0 with one double
    # descent, and no double descent with a final ascent.
    f_domain = [(w,) for w in short
                if reference.dd_da(w)[0] == 1 and rixfact.rix(w) == 0]
    f_inv_domain = [(w,) for w in short
                    if reference.dd_da(w)[0] == 0 and w[-2] < w[-1]]
    out["bijections.f_map_us.short"] = per_call_us(bijections.f_map, f_domain)
    out["bijections.f_inv_us.short"] = per_call_us(bijections.f_inv, f_inv_domain)
    out["bijections.lyc_us.short"] = per_call_us(bijections.lyc, sizes["short"])
    return out


def families_metrics(n: int) -> dict[str, float]:
    """Each accumulator cold (its cache bypassed) at the gamma-tables n."""
    from eulerian_gamma import families

    out = {}
    for name in ACCUMULATORS:
        func = getattr(families, name).__wrapped__
        args = (n, 1) if name.startswith("fixed_count") else (n,)
        start = time.perf_counter()
        func(*args)
        out[f"families.{name}_s"] = time.perf_counter() - start
    out["families.perms_per_s"] = math.factorial(n) / out["families.basic_eulerian_s"]
    return out


def structured_route_metrics(seed: int) -> dict[str, float]:
    """One traced in-process verify-serial run, caches cold: the structured
    route's share of it, and how often the shared caches were reused."""
    from eulerian_gamma import checks, families, mpoly

    tracer = Tracer()
    tracer.install()
    try:
        reports = checks.run_checks(workloads.verify_ids(seed), workloads.VERIFY_MAX_N)
    finally:
        tracer.uninstall()

    def span_total(name):
        durations = [end - start for n, start, end, _, _ in tracer.spans if n == name]
        return sum(durations), len(durations)

    hits = misses = 0
    for name in ACCUMULATORS:
        info = getattr(families, name).cache_info()
        hits, misses = hits + info.hits, misses + info.misses
    qb = mpoly.q_binomial.cache_info()
    series_s, series_calls = span_total("series.mul")
    return {
        "families.cache_hit_ratio": hits / (hits + misses),
        "mpoly.gamma_extract_s": span_total("mpoly.gamma_extract")[0],
        "mpoly.mul_calls": tracer.counts["mpoly.mul"],
        "mpoly.mul_s": tracer.timed_s["mpoly.mul"],
        "mpoly.q_binomial_hit_ratio": qb.hits / (qb.hits + qb.misses),
        "series.mul_s": series_s,
        "series.mul_calls": series_calls,
        "_reports": len(reports),
        "_failed_reports": sum(not r.passed for r in reports),
    }


COLD_CHECK = (
    "import json, sys; from eulerian_gamma.checks import run_check; "
    "print(json.dumps(run_check(sys.argv[1], int(sys.argv[2])).as_dict()))"
)


def checks_metrics() -> dict[str, float]:
    """Every check cold, one fresh process each: the shared lru_caches make
    a report's elapsed_ms depend on what ran before it."""
    out: dict[str, float] = {}
    witnesses = failed = 0
    for cid in reference.CHECK_IDS:
        proc = workloads.run_process(
            [sys.executable, "-c", COLD_CHECK, cid, str(workloads.VERIFY_MAX_N)])
        try:
            report = json.loads(proc.stdout)
        except json.JSONDecodeError:
            out[f"checks.{cid}_s"] = 0.0
            failed += 1
            continue
        out[f"checks.{cid}_s"] = report["elapsed_ms"] / 1000
        witnesses += len(report["witnesses"])
        failed += not report["passed"]
    out["checks.witnesses"] = witnesses
    out["_reports"] = len(reference.CHECK_IDS)
    out["_failed_reports"] = failed
    return out


def cli_metrics(seed: int) -> dict[str, float]:
    """One verify --threads 2 process: the reports' summed check time
    against the wall time the workers had."""
    unit = workloads.verify_unit(workloads.verify_ids(seed), workloads.PARALLEL_WORKERS)
    total = sum(unit.report_ms) / 1000
    return {
        "cli.report_elapsed_sum_s": total,
        "cli.pool_efficiency": total / (unit.wall * workloads.PARALLEL_WORKERS),
        "_reports": unit.attempted,
        "_failed_reports": len(unit.failures),
    }


def all_metrics(seed: int) -> dict[str, float]:
    out: dict[str, float] = {"_reports": 0, "_failed_reports": 0}
    # the structured-route run needs cold caches, so it goes first
    for part in (structured_route_metrics(seed), kernel_metrics(seed),
                 families_metrics(workloads.GAMMA_N), checks_metrics(),
                 cli_metrics(seed)):
        for key in ("_reports", "_failed_reports"):
            out[key] += part.pop(key, 0)
        out.update(part)
    return out


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    sys.path.insert(0, str(workloads.SRC))
    print(json.dumps(all_metrics(parser.parse_args().seed)))
