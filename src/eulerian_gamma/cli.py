"""Command-line surface: statistics, gamma tables, verification harness,
bijections, orbits, and rix-factorizations.

Exit-code contract: 0 success, 1 verification/domain failure, 2 usage
error (including unparseable permutations and unknown check ids).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import actions, bijections, checks, families, rixfact
from .errors import (
    BudgetExceeded,
    MismatchAgainstDirect,
    NotABijection,
    NotExpandable,
    NotInDomain,
)
from .mpoly import GammaExpansion
from .perm import (
    DEFAULT_MAX_N,
    MAX_N,
    format_word,
    parse_permutation,
    shape_counts,
    statistics,
)


class UsageError(ValueError):
    """Input the CLI refuses: main prints "error: <message>" and exits 2."""


# The common flags; each subcommand declares the ones it reads.  --output
# offers only the formats a subcommand renders, the first one by default.
_FLAGS = {
    "--max-n": dict(
        type=int,
        default=None,
        help=f"enumeration ceiling (1..{MAX_N}, default {DEFAULT_MAX_N} "
        "or EULERIAN_GAMMA_MAX_N)",
    ),
    "--threads": dict(
        type=int,
        default=1,
        help="verification workers (0 = auto, default 1; at most one per check)",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulerian-gamma",
        description=__doc__,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, *flags, outputs=()):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        if outputs:
            p.add_argument("--output", choices=outputs, default=outputs[0],
                           help=f"output format (default {outputs[0]})")
        return p

    p_stats = command(
        "stats", cmd_stats, "all statistics of one permutation",
        outputs=("text", "json", "tsv"),
    )
    p_stats.add_argument("perm")

    p_gamma = command(
        "gamma", cmd_gamma, "gamma coefficient table",
        "--max-n", outputs=("text", "json", "tsv"),
    )
    p_gamma.add_argument("family", choices=_GAMMA_FAMILIES)
    p_gamma.add_argument("n", type=int)

    p_verify = command(
        "verify", cmd_verify, "run verification checks",
        "--max-n", "--threads", outputs=("json", "tsv"),
    )
    p_verify.add_argument(
        "check_ids",
        nargs="+",
        metavar="check-id",
        help='check ids, or "all"',
    )

    p_map = command("map", cmd_map, "apply a bijection")
    p_map.add_argument("name", choices=_MAPS)
    p_map.add_argument("perm")

    p_orbit = command(
        "orbit", cmd_orbit, "valley-hopping orbit", "--max-n",
        outputs=("text", "json"),
    )
    p_orbit.add_argument("perm")
    p_orbit.add_argument(
        "--action", choices=("mfs", "restricted"), default="mfs"
    )

    p_rix = command("rixfact", cmd_rixfact, "rix-factorization")
    p_rix.add_argument("perm")

    return parser


def _resolve_max_n(args: argparse.Namespace) -> int:
    """--max-n, else EULERIAN_GAMMA_MAX_N, else DEFAULT_MAX_N.  A value
    outside 1..MAX_N is a usage error."""
    if args.max_n is not None:
        source, raw = "--max-n", str(args.max_n)
    else:
        source, raw = "EULERIAN_GAMMA_MAX_N", os.environ.get("EULERIAN_GAMMA_MAX_N")
        if raw is None:
            return DEFAULT_MAX_N
    try:
        max_n = int(raw)
    except ValueError:
        max_n = 0  # not an integer: reported like an out-of-range value
    if not 1 <= max_n <= MAX_N:
        raise UsageError(f"{source} must be an integer in 1..{MAX_N}, got {raw!r}")
    return max_n


def cmd_stats(args: argparse.Namespace) -> int:
    bundle = statistics(parse_permutation(args.perm))
    data = bundle.as_dict()
    if args.output == "json":
        print(json.dumps(data))
    elif args.output == "tsv":
        print("\t".join(data))
        print("\t".join(_render_value(v) for v in data.values()))
    else:
        for key, value in data.items():
            print(f"{key} = {_render_value(value)}")
    return 0


def _render_value(value) -> str:
    if isinstance(value, list):
        return "{" + ",".join(str(v) for v in value) + "}"
    return str(value)


_GAMMA_FAMILIES = {
    "basic": families.gamma_basic,
    "derangement": families.gamma_derangement,
    "cyc": families.cyc_gamma,
    "sw3": families.sw3_gamma,
}


def cmd_gamma(args: argparse.Namespace) -> int:
    if args.n < 1 or args.n > args.max_n:
        raise UsageError(f"n must be in 1..{args.max_n}")
    try:
        expansion: GammaExpansion = _GAMMA_FAMILIES[args.family](args.n)
    except (MismatchAgainstDirect, NotExpandable) as exc:
        print(f"internal cross-check failed: {exc}", file=sys.stderr)
        return 1
    rows = [(k, g.to_text_compact()) for k, g in enumerate(expansion.gammas)]
    if args.output == "json":
        print(
            json.dumps(
                {
                    "family": args.family,
                    "n": args.n,
                    "center": expansion.center,
                    "gammas": {str(k): text for k, text in rows},
                }
            )
        )
    elif args.output == "tsv":
        for k, text in rows:
            print(f"{k}\t{text}")
    else:
        for k, text in rows:
            print(f"k={k}  gamma={text}")
    return 0


def _run_one(item: tuple[str, int]) -> checks.VerificationReport:
    check_id, max_n = item
    return checks.run_check(check_id, max_n)


def cmd_verify(args: argparse.Namespace) -> int:
    if args.check_ids == ["all"]:
        ids = list(checks.CHECKS)
    else:
        ids = args.check_ids
        unknown = [cid for cid in ids if cid not in checks.CHECKS]
        if unknown:
            raise UsageError(f"unknown check ids: {', '.join(unknown)}")
    if args.threads < 0:
        raise UsageError(f"--threads must be 0 (auto) or positive, got {args.threads}")
    jobs = [(cid, args.max_n) for cid in ids]
    # the pool starts every worker at once, so never more than there are jobs
    workers = min(args.threads or os.cpu_count() or 1, len(jobs))
    if workers <= 1:
        reports = [_run_one(job) for job in jobs]
    else:
        # loaded here: a serial run never pays for the pool's imports
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_run_one, jobs))
    # restore the requested emission order regardless of worker count
    for report in reports:
        data = report.as_dict()
        if args.output == "tsv":
            print(
                f"{data['check_id']}\t{'pass' if data['passed'] else 'FAIL'}"
                f"\t{data['n_range'][0]}..{data['n_range'][1]}"
                f"\t{data['elapsed_ms']}"
            )
        else:
            print(json.dumps(data))
    return 0 if all(r.passed for r in reports) else 1


_MAPS = {
    "phi": bijections.phi,
    "phi-inv": bijections.phi_inv,
    "f": bijections.f_map,
    "f-inv": bijections.f_inv,
}


def cmd_map(args: argparse.Namespace) -> int:
    w = parse_permutation(args.perm)
    image = _MAPS[args.name](w)
    print(format_word(image))
    return 0


def cmd_orbit(args: argparse.Namespace) -> int:
    max_n = args.max_n
    w = parse_permutation(args.perm)
    # each double descent and double ascent toggles independently, so an
    # orbit has at most 2^(dd+da) members; 2^(max_n-1) admits all of S_max_n's
    dd, da, _, _ = shape_counts(w)
    if dd + da > max_n - 1:
        raise UsageError(f"orbit of {args.perm} may have 2^{dd + da} members; "
                         f"--max-n {max_n} allows at most 2^{max_n - 1}")
    members = sorted(actions.orbit(w, args.action))
    if args.output == "json":
        print(json.dumps([format_word(m) for m in members]))
    else:
        for m in members:
            print(format_word(m))
    return 0


def cmd_rixfact(args: argparse.Namespace) -> int:
    w = parse_permutation(args.perm)
    if not w:
        raise UsageError("rixfact requires n >= 1")
    print(rixfact.format_factorization(rixfact.rix_factorize(w)))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "max_n" in args:  # only the subcommands that read it
            args.max_n = _resolve_max_n(args)
        return args.handler(args)
    except (NotABijection, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotInDomain, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
