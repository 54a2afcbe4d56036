"""The package imports only the standard library at runtime.

numpy and sympy may be installed alongside it, so an accidental import of
either would still run; this test reads every module's import statements
instead.
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
