"""In-memory spans and call counters, attached by rebinding public functions.

The program carries no tracing of its own.  A Tracer replaces selected
functions in the modules that call them with wrappers that record a span
(name, start, end, parent, run id) or, for per-permutation kernels, only
bump a counter, so the tracing cost stays bounded.  uninstall() puts the
original functions back.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

# Layer entry points that get a span; the layer is the part before the dot.
SPANNED = {
    "checks": ("run_check",),
    "families": (
        "basic_eulerian", "basic_eulerian_desrix", "dd_free_inv_table",
        "dd_free_ascent_inv_table", "cda_free_derangement_cyc_table",
        "derangement_cyc_poly", "derangement_exc_des_maj_poly",
        "fixed_count_exc_maj_poly", "fixed_count_cyc_exc_poly",
        "alternating_inv_poly", "gamma_poly", "gamma_tilde_poly",
        "gamma_basic", "gamma_derangement", "cyc_gamma", "sw3_gamma",
    ),
    "mpoly": ("gamma_extract", "q_binomial"),
}

# Per-permutation kernels: counted, never spanned.
COUNTED = {
    "perm": (
        "statistics", "dd_count", "des", "inv_count",
        "admissible_inversion_count", "cyc_count", "cda_count",
    ),
    "rixfact": ("rix", "rix_factorize"),
    "actions": ("mfs_single", "restricted_mfs_single", "canonical_rep", "orbit"),
    "bijections": ("phi", "phi_inv", "f_map", "f_inv", "lyc"),
}
COUNTER_NAMES = tuple(f"{m}.{f}" for m, fs in COUNTED.items() for f in fs)
# One layer per module of the package.
LAYERS = ("cli", "checks", "families", "mpoly", "series",
          "perm", "rixfact", "actions", "bijections")


class Tracer:
    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.timed_s: Counter = Counter()  # seconds in outermost timed calls
        self._depth: Counter = Counter()
        self._undo: list = []

    # -- recording --------------------------------------------------------

    def call_in_span(self, name: str, func, *args, **kwargs):
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent, self.run_id)

    def spanned(self, name: str, func):
        def wrapper(*args, **kwargs):
            return self.call_in_span(name, func, *args, **kwargs)
        return wrapper

    def counted(self, name: str, func):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)
        return wrapper

    def timed(self, name: str, func):
        """Count calls and add up the time of the outermost ones
        (MPoly.__pow__ calls __mul__, which must not be counted twice)."""
        counts, depth, total = self.counts, self._depth, self.timed_s

        def wrapper(*args, **kwargs):
            counts[name] += 1
            depth[name] += 1
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                depth[name] -= 1
                if not depth[name]:
                    total[name] += time.perf_counter() - start
        return wrapper

    # -- rebinding --------------------------------------------------------

    def _rebind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _rebind_everywhere(self, modules, func, new) -> None:
        """Replace func in every module namespace that refers to it."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is func:
                    self._rebind(mod, attr, new)

    def install(self) -> None:
        mods = {name: importlib.import_module(f"eulerian_gamma.{name}") for name in LAYERS}
        for layer, names in (*SPANNED.items(), *COUNTED.items()):
            wrap = self.spanned if layer in SPANNED else self.counted
            for fname in names:
                func = getattr(mods[layer], fname)
                self._rebind_everywhere(mods.values(), func, wrap(f"{layer}.{fname}", func))
        cli, families, mpoly, series = (mods[m] for m in ("cli", "families", "mpoly", "series"))
        # cli dispatches gamma tables through a dict of function references
        table = cli._GAMMA_FAMILIES
        for key, func in list(table.items()):
            new = getattr(families, func.__name__)
            self._undo.append((table, key, func))
            table[key] = new
        self._rebind(mpoly.MPoly, "__mul__",
                     self.timed("mpoly.mul", mpoly.MPoly.__mul__))
        self._rebind(series.TruncatedSeries, "__mul__",
                     self.spanned("series.mul", series.TruncatedSeries.__mul__))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)

    # -- summaries --------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts),
                       "timed_s": dict(self.timed_s)}, fh)


def self_times(spans: list) -> dict[str, float]:
    """Seconds of self time per layer: each span's duration minus the
    durations of its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = dict.fromkeys(LAYERS, 0.0)
    for (name, start, end, _, _), inner in zip(spans, child):
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (end - start) - inner
    return out


def run_traced_cli(out_path: str, argv: list[str]) -> int:
    """Run the CLI in this process with a tracer attached; write the spans
    and counters to out_path even when the command fails."""
    from eulerian_gamma import cli

    tracer = Tracer()
    tracer.install()
    try:
        return tracer.call_in_span("cli.main", cli.main, argv)
    finally:
        tracer.uninstall()
        tracer.dump(out_path)


if __name__ == "__main__":
    # python3 perfbench/tracing.py OUT.json <eulerian-gamma arguments...>
    sys.exit(run_traced_cli(sys.argv[1], sys.argv[2:]))
