"""The package imports only the standard library at runtime, and its
modules import only down the layers.

numpy and sympy may be installed alongside it, so an accidental import of
either would still run; this test reads every module's import statements
instead.  Reading them also keeps every import pointing down the layers,
so no production module reaches the harness's reference enumerations.
The same kind of source check keeps exit-path validation free of float
arithmetic.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import thetaran

PACKAGE_DIR = Path(thetaran.__file__).parent


def _absolute_imports(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_runtime_imports_are_stdlib_only():
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    assert modules
    foreign = [
        f"{path.name}:{line} imports {name}"
        for path in modules
        for line, name in _absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert not foreign, foreign


# the package modules each module may import; __init__ and cli take any
LAYERS = {
    "simplex": set(),
    "theta": {"simplex"},
    "config": {"theta", "simplex"},
    "homology": {"theta", "simplex"},
    "harness": {"config", "homology", "theta", "simplex"},
}


def _package_imports(path: Path):
    """(line, module) for each import of a package module, relative or
    absolute."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            level, names = 0, [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            level, names = node.level, [node.module]
            if node.module in (None, "thetaran"):  # from . import theta
                level, names = 1, [a.name for a in node.names]
        else:
            continue
        for name in names:
            if level or name.split(".")[0] == "thetaran":
                # "thetaran.theta" and ".theta" alike name the module theta
                yield node.lineno, name.removeprefix("thetaran.")


def test_imports_go_down_the_layers():
    modules = {path.stem: path for path in PACKAGE_DIR.glob("*.py")}
    assert set(modules) == set(LAYERS) | {"__init__", "cli"}
    upward = [
        f"{name}.py:{line} imports {target}"
        for name, allowed in LAYERS.items()
        for line, target in _package_imports(modules[name])
        if target not in allowed
    ]
    assert not upward, upward


# Python's / on two ints gives a float, so an exact integer routine must
# not contain it at all; Fraction(num, den) is the exact division
EXACT_FUNCTIONS = ("validate_exit_path", "_common_denominator", "_scaled")


def test_exit_path_validation_stays_exact():
    path = PACKAGE_DIR / "config.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bodies = {
        node.name: node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in EXACT_FUNCTIONS
    }
    assert sorted(bodies) == sorted(EXACT_FUNCTIONS)
    inexact = [
        f"{name}:{node.lineno} {ast.unparse(node)}"
        for name, body in bodies.items()
        for node in ast.walk(body)
        if (
            isinstance(node, (ast.BinOp, ast.AugAssign))
            and isinstance(node.op, ast.Div)
        )
        or (isinstance(node, ast.Constant) and isinstance(node.value, float))
        or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        )
    ]
    assert not inexact, inexact
