"""Command-line surface: statistics, gamma tables, verification harness,
bijections, orbits, and rix-factorizations.

Exit-code contract: 0 success, 1 verification/domain failure, 2 usage
error (including unparseable permutations and unknown check ids).

Start-up loads only what parsing needs: errors and perm.  gamma loads
families (with mpoly and rixfact), verify loads checks (with families,
series, actions and bijections), orbit loads actions, map loads
bijections and rixfact loads rixfact, each when the subcommand runs.
verify loads fanout only when more than one worker starts, and it forks
them; where os.fork is missing, --threads runs the checks serially.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import (
    BudgetExceeded,
    MismatchAgainstDirect,
    NotABijection,
    NotExpandable,
    NotInDomain,
)
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
        default=DEFAULT_MAX_N,
        help=f"enumeration ceiling (1..{MAX_N}, default {DEFAULT_MAX_N})",
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
        # the last paragraph, on module loading, is not for --help
        description=__doc__.rsplit("\n\n", 1)[0],
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


def _family(name: str):
    """families.<name>, loaded on the first call; the stand-in carries the
    function's __name__, which a tracer reads to swap in its own."""
    def table(n: int):
        from . import families

        return getattr(families, name)(n)

    table.__name__ = name
    return table


_GAMMA_FAMILIES = {
    "basic": _family("gamma_basic"),
    "derangement": _family("gamma_derangement"),
    "cyc": _family("cyc_gamma"),
    "sw3": _family("sw3_gamma"),
}


def cmd_gamma(args: argparse.Namespace) -> int:
    if args.n < 1 or args.n > args.max_n:
        raise UsageError(f"n must be in 1..{args.max_n}")
    try:
        expansion = _GAMMA_FAMILIES[args.family](args.n)
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


def cmd_verify(args: argparse.Namespace) -> int:
    # loaded before any worker is forked, so every worker inherits it
    from . import checks

    if args.check_ids == ["all"]:
        ids = list(checks.CHECKS)
    else:
        ids = args.check_ids
        unknown = [cid for cid in ids if cid not in checks.CHECKS]
        if unknown:
            raise UsageError(f"unknown check ids: {', '.join(unknown)}")
    if args.threads < 0:
        raise UsageError(f"--threads must be 0 (auto) or positive, got {args.threads}")
    # never more workers than checks; without os.fork the run is serial
    workers = min(args.threads or os.cpu_count() or 1, len(ids))
    if workers <= 1 or not hasattr(os, "fork"):
        reports = checks.run_checks(ids, args.max_n)
    else:
        # loaded here: a serial run never compiles the fan-out
        from . import fanout

        reports = fanout.run_checks(ids, args.max_n, workers)
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


# map names and the bijections functions they apply
_MAPS = {
    "phi": "phi",
    "phi-inv": "phi_inv",
    "f": "f_map",
    "f-inv": "f_inv",
}


def cmd_map(args: argparse.Namespace) -> int:
    from . import bijections

    w = parse_permutation(args.perm)
    image = getattr(bijections, _MAPS[args.name])(w)
    print(format_word(image))
    return 0


def cmd_orbit(args: argparse.Namespace) -> int:
    from . import actions

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
    from . import rixfact

    w = parse_permutation(args.perm)
    if not w:
        raise UsageError("rixfact requires n >= 1")
    print(rixfact.format_factorization(rixfact.rix_factorize(w)))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # only the subcommands that read --max-n have it
        if "max_n" in args and not 1 <= args.max_n <= MAX_N:
            raise UsageError(f"--max-n must be an integer in 1..{MAX_N}, got {args.max_n}")
        return args.handler(args)
    except (NotABijection, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotInDomain, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
