"""Design guards: S_n is enumerated only through perm.words, and the
enumeration ceiling is defined only as perm.MAX_N."""

import ast
from pathlib import Path

import eulerian_gamma
from eulerian_gamma.perm import MAX_N

PACKAGE = Path(eulerian_gamma.__file__).parent


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
