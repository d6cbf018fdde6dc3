"""Design guards, one table per kind of rule. `SOLE_PLACES` names the only
places a construct may appear, `INDEPENDENT` the names a compared route
must not reach, and `UNLOADED` the package modules an import must leave
unloaded. Every `SOLE_PLACES` and `INDEPENDENT` row also shows it can fail,
on a copy of the parsed package with a forbidden statement inserted."""

import ast
import copy
import functools
import importlib
from pathlib import Path

import pytest

import eulerian_gamma
from eulerian_gamma import mpoly
from eulerian_gamma.perm import MAX_N
from test_cli import probe

PACKAGE = Path(eulerian_gamma.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(PACKAGE.glob("*.py"))}


def _sites(trees: dict, match) -> set[str]:
    """module.<top-level def or class> holding each node that match(node,
    module tree) accepts, or the bare module name for a top-level statement."""
    found = set()
    for mod, tree in trees.items():
        for top in tree.body:
            if any(match(node, tree) for node in ast.walk(top)):
                named = isinstance(top, (ast.FunctionDef, ast.ClassDef))
                found.add(f"{mod}.{top.name}" if named else mod)
    return found


def _insert(trees: dict, module: str, function: str, statement: str) -> dict:
    """A copy of trees whose module.function starts with statement."""
    tree = copy.deepcopy(trees[module])
    target = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == function)
    target.body.insert(0, ast.parse(statement).body[0])
    return {**trees, module: tree}


def _top_level(tree: ast.Module, kinds: tuple) -> set[str]:
    """The names bound at the top of tree by statements of the given kinds."""
    names = set()
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        else:
            names.add(node.name)
    return names


def _called(node) -> str | None:
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
    return None


def _permutations(node, _tree) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "permutations"
            or isinstance(node, ast.ImportFrom) and node.module == "itertools"
            and any(alias.name == "permutations" for alias in node.names))


def _ceiling(node, _tree) -> bool:
    value = getattr(node, "value", None)
    return (isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(value, ast.Constant)
            and type(value.value) is int and value.value == MAX_N)


def _n_bound(node, tree) -> bool:
    """n compared with a name the module assigns or imports at its top
    level, or with an attribute of one; a literal such as n != 3 is allowed."""
    if not isinstance(node, ast.Compare):
        return False
    operands = [node.left, *node.comparators]
    if not any(isinstance(o, ast.Name) and o.id == "n" for o in operands):
        return False
    names = _top_level(tree, (ast.Import, ast.ImportFrom, ast.Assign, ast.AnnAssign))
    roots = []
    for operand in operands:
        while isinstance(operand, ast.Attribute):
            operand = operand.value
        roots.append(getattr(operand, "id", None))
    return bool(names.intersection(roots))


def _n_loop(node, _tree) -> bool:
    return (isinstance(node, (ast.For, ast.comprehension))
            and isinstance(node.target, ast.Name) and node.target.id == "n")


def _size_prefix(node, _tree) -> bool:
    """A yield whose string starts with "n=": run_check writes that prefix."""
    value = getattr(node, "value", None)
    if not isinstance(node, ast.Yield) or value is None:
        return False
    if isinstance(value, ast.JoinedStr) and value.values:
        value = value.values[0]
    return (isinstance(value, ast.Constant) and isinstance(value.value, str)
            and value.value.startswith("n="))


def _subscript_index(node):
    if isinstance(node, ast.Subscript):
        try:
            return ast.literal_eval(node.slice)
        except ValueError:
            return None
    return None


def _family_rule(node, _tree) -> bool:
    """A comparison that restates a family rule: a final ascent
    x[-2] < x[-1] (D~), cda_count(...) == 0 (E) or dd_count(...) == 1 (R0)."""
    if not isinstance(node, ast.Compare) or len(node.ops) != 1:
        return False
    left, op, right = node.left, node.ops[0], node.comparators[0]
    ends = (_subscript_index(left), _subscript_index(right))
    if (isinstance(op, ast.Lt) and ends == (-2, -1)) or (
        isinstance(op, ast.Gt) and ends == (-1, -2)
    ):
        return True
    return (isinstance(op, ast.Eq) and isinstance(right, ast.Constant)
            and (_called(left), right.value) in {("cda_count", 0), ("dd_count", 1)})


def _raises_mismatch(node, _tree) -> bool:
    return (isinstance(node, ast.Raise) and node.exc is not None
            and "MismatchAgainstDirect" in (_called(node.exc), getattr(node.exc, "id", None)))


def _names_gamma_extract(node, _tree) -> bool:
    return "gamma_extract" in (getattr(node, "id", None), getattr(node, "attr", None))


def _exponent_tuple(node, _tree) -> bool:
    return isinstance(node, ast.Tuple) and len(node.elts) == len(mpoly.VARS)


# rule: (matcher, the places it may match -- a module or module.<top-level
# def or class> -- and statements that break it when inserted elsewhere)
SOLE_PLACES = {
    # S_n is enumerated only through perm.words
    "itertools.permutations": (_permutations, {"perm.words"}, [
        "itertools.permutations(range(1, n + 1))",
        "from itertools import permutations"]),
    # the enumeration ceiling is defined once, as perm.MAX_N
    "MAX_N": (_ceiling, {"perm"}, [f"CAP = {MAX_N}"]),
    # a claim that returned early above a constant of its own would check
    # part of its statement below the n_range its report shows
    "n-bound": (_n_bound, {"perm.words"}, ["if n > WITNESS_CAP: return"]),
    # a claim checks one size n; run_check loops over the sizes
    "n-loop": (_n_loop, {"checks.run_check", "series.TruncatedSeries"}, [
        "for n in range(3): pass", "[n for n in range(3)]"]),
    # run_check prefixes "n=<n>: " to every witness
    "n-prefix": (_size_prefix, set(), ['yield f"n={n}: x"', 'yield "n=3: x"']),
    # families index functions hold the rules of D~, E and R0
    "family-rules": (_family_rule, {"families"}, [
        "w[-2] < w[-1]", "w[-1] > w[-2]", "cda_count(w) == 0", "dd_count(w) == 1"]),
    # the four gamma tables share one comparison with their direct tables
    "MismatchAgainstDirect": (_raises_mismatch, {"families._checked_extract"}, [
        "raise MismatchAgainstDirect('x')"]),
    # an identity in the gamma basis is checked as polynomial equality
    "gamma_extract": (_names_gamma_extract, {"families._checked_extract"}, [
        "gamma_extract(ONE, 0)"]),
    # families and claims name their variables for MPoly.from_counts
    "exponent-layout": (_exponent_tuple, {"mpoly"}, [repr((0,) * len(mpoly.VARS))]),
}
HOST = ("checks", "_thm_1_5")  # outside every row's places


def _inside(site: str, place: str) -> bool:
    return site == place or site.startswith(place + ".")


@pytest.mark.parametrize("rule", SOLE_PLACES)
def test_rule_matches_only_in_its_places(rule):
    match, places, statements = SOLE_PLACES[rule]
    sites = _sites(TREES, match)
    stray = sorted(s for s in sites if not any(_inside(s, p) for p in places))
    assert not stray, f"{rule} belongs only in {sorted(places)}, not in {stray}"
    idle = sorted(p for p in places if not any(_inside(s, p) for s in sites))
    assert not idle, f"{rule} no longer matches in {idle}"
    # the row fires on a copy of the package that breaks it in HOST
    for statement in statements:
        assert ".".join(HOST) in _sites(_insert(TREES, *HOST, statement), match), statement


def test_every_check_is_declared_as_a_check():
    from eulerian_gamma.checks import CHECKS, Check

    offenders = [cid for cid, check in CHECKS.items() if not isinstance(check, Check)]
    assert not offenders, f"declare these as Check(ceiling, claim, notes): {offenders}"


def _references(trees: dict, module: str, function: str, banned: set) -> list[str]:
    """Uses of a banned name in module.function and in every package
    function it reaches: same-module names, `<module>.<name>` attributes and
    names imported with `from .<module> import <name>` are followed."""
    defs = {mod: {node.name: node for node in tree.body
                  if isinstance(node, ast.FunctionDef)}
            for mod, tree in trees.items()}
    imported = {mod: {alias.asname or alias.name: (node.module, alias.name)
                      for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom) and node.level == 1
                      and node.module in trees for alias in node.names}
                for mod, tree in trees.items()}
    found, seen, todo = [], set(), [(module, function)]
    while todo:
        mod, name = todo.pop()
        if (mod, name) in seen:
            continue
        seen.add((mod, name))
        for node in ast.walk(defs[mod][name]):
            if isinstance(node, ast.Name):
                ident = node.id
                target = (mod, ident) if ident in defs[mod] else imported[mod].get(ident)
            elif isinstance(node, ast.Attribute):
                ident = node.attr
                owner = node.value.id if isinstance(node.value, ast.Name) else None
                target = (owner, ident) if owner in trees else None
            else:
                continue
            if ident in banned:
                found.append(f"{mod}.{name}:{node.lineno} {ident}")
            elif target and target[1] in defs[target[0]]:
                todo.append(target)
    return found


# rixfact and every function, class and constant it defines, not its imports
RIXFACT = {"rixfact"} | _top_level(
    TREES["rixfact"], (ast.FunctionDef, ast.ClassDef, ast.Assign, ast.AnnAssign))
# (module, function, names it must not reach, a call that would reach one):
# each pair of routes a check compares stays apart
INDEPENDENT = [
    ("rixfact", "rix", {"rix_factorize", "_cut_positions"}, "rix_factorize(w)"),
    ("rixfact", "rixed_points", {"rix_factorize", "_cut_positions"}, "rix_factorize(w)"),
    ("perm", "admissible_inversion_count", {"inv_count"}, "inv_count(w)"),
    ("bijections", "phi", {"phi_inv", "scf"}, "scf(w)"),
    ("bijections", "phi_inv", {"phi", "rix_factorize"}, "rixfact.rix_factorize(w)"),
    ("checks", "_valid_factorizations", RIXFACT, "rixfact.rix_factorize(w)"),
]


@pytest.mark.parametrize("module, function, banned, call", INDEPENDENT,
                         ids=[f"{m}.{f}" for m, f, _, _ in INDEPENDENT])
def test_compared_kernels_stay_independent(module, function, banned, call):
    """rix is compared with |RIX| of rix_factorize (prop-3.2), the walk's
    rixed points with the fixed points of phi, which factorizes (prop-3.5),
    ai with inv (lemma-2.2), phi with phi_inv (prop-3.5, both round trips),
    and rix_factorize with a search over all valid cuts (prop-3.4)."""
    found = _references(TREES, module, function, banned)
    assert not found, f"{module}.{function} reaches {found}"
    # the guard fails on a copy of the kernel that makes the call
    assert _references(_insert(TREES, module, function, call),
                       module, function, banned)


def _bindings(mods: dict) -> dict:
    """Every module-level name, the MPoly and TruncatedSeries attributes,
    and cli's gamma dispatch table, by identity of the bound object."""
    out = {}
    for name, mod in mods.items():
        out.update({(name, k): v for k, v in vars(mod).items()})
    for cls in (mods["mpoly"].MPoly, mods["series"].TruncatedSeries):
        out.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    table = mods["cli"]._GAMMA_FAMILIES
    out.update({("_GAMMA_FAMILIES", k): v for k, v in table.items()})
    return out


def test_benchmark_tracer_installs_and_restores(monkeypatch):
    """perfbench/tracing.py rebinds kernels, accumulators and methods by
    name; a renamed or deleted one fails here, not in a traced run."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    mods = {m: importlib.import_module(f"eulerian_gamma.{m}") for m in tracing.LAYERS}
    rixfact = mods["rixfact"]
    before = _bindings(mods)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert rixfact.rix is not before[("rixfact", "rix")]
        assert rixfact.rix((2, 1, 3)) == 1
        assert tracer.counts["rixfact.rix"] == 1
    finally:
        tracer.uninstall()
    after = _bindings(mods)
    changed = sorted(str(key) for key in before
                     if after.get(key) is not before[key])
    assert not changed, f"not restored by Tracer.uninstall(): {changed}"


def test_benchmark_tracer_spans_a_gamma_table(monkeypatch, capsys):
    """cli dispatches gamma through stand-ins that load families on their
    first call; the tracer swaps in its spanned functions by their names."""
    from eulerian_gamma import cli

    argv = ["gamma", "basic", "4", "--output", "json"]
    assert cli.main(argv) == 0
    untraced = capsys.readouterr().out
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracing").Tracer()
    try:
        tracer.install()
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert "families.gamma_basic" in [span[0] for span in tracer.spans]
    assert capsys.readouterr().out == untraced


def _contract_breaks(registry: dict, reference: dict, max_n: int) -> list[str]:
    """Each benchmark id the registry lacks or checks to another size:
    the benchmark expects n_range [1, min(max_n, its ceiling)]."""
    return [f"{cid}: {registry.get(cid)} for {ceiling}"
            for cid, ceiling in reference.items()
            if cid not in registry or min(max_n, registry[cid]) != min(max_n, ceiling)]


def test_registry_meets_the_benchmark_ceilings(monkeypatch):
    """A check the benchmark requests must be registered and reach the
    n_range perfbench/reference.py expects at VERIFY_MAX_N; a ceiling
    change it would count as wrong output fails here, not in a run."""
    from eulerian_gamma.checks import CHECKS

    monkeypatch.syspath_prepend(str(PERFBENCH))
    ceilings = importlib.import_module("reference").CEILINGS
    max_n = importlib.import_module("workloads").VERIFY_MAX_N
    registry = {cid: check.ceiling for cid, check in CHECKS.items()}
    assert not _contract_breaks(registry, ceilings, max_n)
    # the guard fails on a registry with prop-5.1 raised to 9 or one id gone
    assert _contract_breaks({**registry, "prop-5.1": 9}, ceilings, max_n) == [
        "prop-5.1: 9 for 6"]
    registry.pop("table-1")
    assert _contract_breaks(registry, ceilings, max_n) == ["table-1: None for 4"]


# module: package modules that importing it must leave unloaded. The package
# entry point re-exports nothing, so a kernel module loads only what it
# imports itself. cli imports every module past errors and perm inside the
# subcommands that call them, so start-up compiles none of them; bijections
# imports actions and families inside f and f_inv, so phi and lyc (and
# with them stats) load no polynomial.
UNLOADED = {
    "perm": {"checks", "families", "mpoly", "series"},
    "cli": {"checks", "series", "actions", "bijections", "families", "mpoly",
            "rixfact", "fanout"},
    "bijections": {"actions", "families", "mpoly"},
}


@functools.cache
def _loaded_after_import(module: str) -> frozenset[str]:
    """The package modules loaded by importing eulerian_gamma.<module>, from
    one fresh-interpreter probe per module and session."""
    _, modules = probe(module)
    return frozenset(name.split(".", 1)[1] for name in modules
                     if name.startswith("eulerian_gamma."))


def _unwanted(module: str) -> list[str]:
    return sorted(_loaded_after_import(module) & UNLOADED[module])


@pytest.mark.parametrize("module", sorted(TREES.keys() - {"__init__"}))
def test_each_module_imports_on_its_own(module):
    assert module in _loaded_after_import(module)


def test_kernel_import_leaves_the_harness_unloaded():
    assert not _unwanted("perm"), f"import eulerian_gamma.perm loaded {_unwanted('perm')}"


def test_cli_import_leaves_the_lazy_modules_unloaded():
    assert not _unwanted("cli"), f"import eulerian_gamma.cli loaded {_unwanted('cli')}"


def test_bijections_import_leaves_the_polynomials_unloaded():
    assert not _unwanted("bijections"), (
        f"import eulerian_gamma.bijections loaded {_unwanted('bijections')}")
