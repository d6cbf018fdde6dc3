"""Design guards: S_n is enumerated only through perm.words, the
enumeration ceiling is defined only as perm.MAX_N, every check is a
declared per-n claim whose n loop and witness size prefix live in
checks.run_check alone, one function extracts gammas and compares them
with their direct table, the rules of the D~, E and R0 families are
written only in families, prop-3.4's enumerated side uses nothing from
rixfact, the kernels a check compares (rix and rix_factorize, ai and inv,
phi and phi_inv) do not reach each other, the benchmark's tracer
still finds every name it rebinds, and each module imports on its own
without loading the verification harness it does not use."""

import ast
import copy
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import eulerian_gamma
from eulerian_gamma.perm import MAX_N

PACKAGE = Path(eulerian_gamma.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "perm.py":
            yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_only_perm_calls_itertools_permutations():
    offenders = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "permutations":
                offenders.append(name)
            if isinstance(node, ast.ImportFrom) and node.module == "itertools":
                if any(alias.name == "permutations" for alias in node.names):
                    offenders.append(name)
    assert not offenders, f"enumerate S_n through perm.words, not in {offenders}"


def test_no_second_ceiling_constant():
    offenders = []
    for name, tree in _modules():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                if (
                    isinstance(value, ast.Constant)
                    and type(value.value) is int
                    and value.value == MAX_N
                ):
                    offenders.append(f"{name}:{node.lineno}")
    assert not offenders, f"import perm.MAX_N instead of redefining it: {offenders}"


def test_every_check_is_declared_as_a_check():
    from eulerian_gamma.checks import CHECKS, Check

    offenders = [cid for cid, check in CHECKS.items() if not isinstance(check, Check)]
    assert not offenders, f"declare these as Check(ceiling, claim, notes): {offenders}"


def test_only_run_check_loops_over_n():
    tree = ast.parse((PACKAGE / "checks.py").read_text(encoding="utf-8"))
    runner = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "run_check"
    )
    inside_runner = {id(node) for node in ast.walk(runner)}
    offenders = [
        node.iter.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.For, ast.comprehension))
        and isinstance(node.target, ast.Name)
        and node.target.id == "n"
        and id(node) not in inside_runner
    ]
    assert not offenders, f"a claim checks one size n; run_check loops: {offenders}"


def _prefixed_yields(tree: ast.Module) -> list[int]:
    """Lines of the yields whose string starts with "n="."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Yield) and node.value is not None:
            value = node.value
            if isinstance(value, ast.JoinedStr) and value.values:
                value = value.values[0]
            if (isinstance(value, ast.Constant) and isinstance(value.value, str)
                    and value.value.startswith("n=")):
                found.append(node.lineno)
    return found


def test_only_run_check_writes_the_size_prefix():
    """run_check prefixes "n=<n>: " to every witness; a claim that wrote it
    too would name its size twice."""
    trees = {"checks": ast.parse((PACKAGE / "checks.py").read_text(encoding="utf-8"))}
    found = _prefixed_yields(trees["checks"])
    assert not found, f"yield the witness body only, at lines {found}"
    # the guard fails on a copy of a claim that writes the prefix itself
    mutated = _insert_call(trees, "checks", "_thm_1_5", 'yield f"n={n}: x"')
    assert _prefixed_yields(mutated["checks"])


def _subscript_index(node):
    if isinstance(node, ast.Subscript):
        try:
            return ast.literal_eval(node.slice)
        except ValueError:
            return None
    return None


def _called(node) -> str | None:
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
    return None


def _family_rule(node) -> str | None:
    """The family whose rule a comparison restates: a final ascent
    x[-2] < x[-1] (D~), cda_count(...) == 0 (E) or dd_count(...) == 1 (R0)."""
    if not isinstance(node, ast.Compare) or len(node.ops) != 1:
        return None
    left, op, right = node.left, node.ops[0], node.comparators[0]
    ends = (_subscript_index(left), _subscript_index(right))
    if (isinstance(op, ast.Lt) and ends == (-2, -1)) or (
        isinstance(op, ast.Gt) and ends == (-1, -2)
    ):
        return "D~"
    if isinstance(op, ast.Eq) and isinstance(right, ast.Constant):
        return {("cda_count", 0): "E", ("dd_count", 1): "R0"}.get(
            (_called(left), right.value))
    return None


def test_family_rules_live_in_families():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "families.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            family = _family_rule(node)
            if family:
                offenders.append(f"{path.name}:{node.lineno} ({family})")
    assert not offenders, (
        f"use the families index functions instead of restating: {offenders}")


def _package_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


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


def _insert_call(trees: dict, module: str, function: str, call: str) -> dict:
    """A copy of trees whose module.function starts with the statement call."""
    tree = copy.deepcopy(trees[module])
    target = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == function)
    target.body.insert(0, ast.parse(call).body[0])
    return {**trees, module: tree}


def _rixfact_names(trees: dict) -> set[str]:
    """rixfact and every name rixfact.py defines."""
    banned = {"rixfact"}
    for node in trees["rixfact"].body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            banned.add(node.name)
        elif isinstance(node, ast.Assign):
            banned.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return banned


def test_prop_3_4_enumerated_side_is_independent_of_rixfact():
    """prop-3.4 compares rix_factorize with a search over all valid cuts;
    a search that used rixfact could share its bug."""
    trees = _package_trees()
    banned = _rixfact_names(trees)
    found = _references(trees, "checks", "_valid_factorizations", banned)
    assert not found, f"prop-3.4's search must not use rixfact: {found}"
    # the guard fails on a copy of the search that calls rix_factorize
    mutated = _insert_call(trees, "checks", "_valid_factorizations",
                           "rixfact.rix_factorize(w)")
    assert _references(mutated, "checks", "_valid_factorizations", banned)


def _raisers(trees: dict, exc: str) -> list[str]:
    """module.function of every function that raises exc."""
    found = []
    for mod, tree in trees.items():
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and any(
                isinstance(node, ast.Raise) and node.exc is not None
                and exc in (_called(node.exc), getattr(node.exc, "id", None))
                for node in ast.walk(func)
            ):
                found.append(f"{mod}.{func.name}")
    return found


def test_one_function_checks_an_extraction_against_direct():
    """The four gamma tables share one comparison with their direct tables;
    a second raise of MismatchAgainstDirect would be a second comparison."""
    trees = _package_trees()
    found = _raisers(trees, "MismatchAgainstDirect")
    assert len(found) == 1, f"raise MismatchAgainstDirect in one function: {found}"
    # the guard fails on a copy of a gamma table that raises it itself
    mutated = _insert_call(trees, "families", "gamma_basic",
                           "raise MismatchAgainstDirect('x')")
    assert len(_raisers(mutated, "MismatchAgainstDirect")) == 2


def _referrers(trees: dict, name: str) -> list[str]:
    """module.function of every function that names name."""
    found = []
    for mod, tree in trees.items():
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and any(
                name in (getattr(node, "id", None), getattr(node, "attr", None))
                for node in ast.walk(func)
            ):
                found.append(f"{mod}.{func.name}")
    return found


def test_only_checked_extract_extracts_gammas():
    """A claim that extracted gammas would compare them with a table of its
    own, beside _checked_extract; an identity in the gamma basis is checked
    as polynomial equality instead."""
    trees = _package_trees()
    found = _referrers(trees, "gamma_extract")
    assert found == ["families._checked_extract"], f"gamma_extract in {found}"
    # the guard fails on a copy of a claim that extracts
    mutated = _insert_call(trees, "checks", "_exp_fixed", "gamma_extract(ONE, 0)")
    assert _referrers(mutated, "gamma_extract") == [
        "checks._exp_fixed", "families._checked_extract"]


# (module, function, names it must not reach, a call that would reach one):
# each pair of routes a check compares stays apart
INDEPENDENT = [
    ("rixfact", "rix", {"rix_factorize", "_cut_positions"}, "rix_factorize(w)"),
    ("perm", "admissible_inversion_count", {"inv_count"}, "inv_count(w)"),
    ("bijections", "phi", {"phi_inv", "scf"}, "scf(w)"),
    ("bijections", "phi_inv", {"phi", "rix_factorize"}, "rixfact.rixed_points(w)"),
]


@pytest.mark.parametrize("module, function, banned, call", INDEPENDENT,
                         ids=[f"{m}.{f}" for m, f, _, _ in INDEPENDENT])
def test_compared_kernels_stay_independent(module, function, banned, call):
    """rix is compared with |RIX| of rix_factorize (prop-3.2), ai with inv
    (lemma-2.2), and phi with phi_inv (prop-3.5, both round trips)."""
    trees = _package_trees()
    found = _references(trees, module, function, banned)
    assert not found, f"{module}.{function} reaches {found}"
    # the guard fails on a copy of the kernel that makes the call
    assert _references(_insert_call(trees, module, function, call),
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


def _loaded_after_import(module: str) -> set[str]:
    """The package modules loaded by importing eulerian_gamma.<module> in a
    fresh interpreter without site-packages."""
    probe = (f"import sys, eulerian_gamma.{module}; "
             "print(' '.join(m for m in sys.modules if m.startswith('eulerian_gamma.')))")
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True,
        env={"PYTHONPATH": str(PACKAGE.parent)}, check=False,
    )
    assert result.returncode == 0, result.stderr
    return {name.split(".", 1)[1] for name in result.stdout.split()}


@pytest.mark.parametrize("module", sorted(
    path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__"))
def test_each_module_imports_on_its_own(module):
    assert module in _loaded_after_import(module)


def test_kernel_import_leaves_the_harness_unloaded():
    """The package entry point re-exports nothing, so a kernel module loads
    only what it imports itself."""
    loaded = _loaded_after_import("perm")
    harness = loaded & {"checks", "families", "mpoly", "series"}
    assert not harness, f"import eulerian_gamma.perm loaded {sorted(harness)}"
