"""The package imports only the standard library at runtime, and its
modules import only down the layers.

numpy and sympy may be installed alongside it, so an accidental import of
either would still run; this test reads every module's import statements
instead.  Reading them also keeps every import pointing down the layers,
so no production module reaches the harness's reference enumerations.
The package's ``__init__`` imports nothing, so each name has one import
path, ``thetaran.<module>.<name>``.  The same kind of source check keeps
exit-path validation free of float arithmetic, every module-level
function, class and constant read by the package itself outside its own
definition, so no API lives on only for its own tests, every memoized
function named in one inventory, so no cache is added unseen, the one
module-level memo (the last leaf-row walk) the only module state any
function changes, and the Smith elimination that clears columns called
only where clearing is exact.
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


# the package modules each module may import; cli takes any
LAYERS = {
    "__init__": set(),
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
    assert set(modules) == set(LAYERS) | {"cli"}
    upward = [
        f"{name}.py:{line} imports {target}"
        for name, allowed in LAYERS.items()
        for line, target in _package_imports(modules[name])
        if target not in allowed
    ]
    assert not upward, upward


# Python's / on two ints gives a float, so an exact integer routine must
# not contain it at all; Fraction(num, den) is the exact division.  The
# validator and the two routes onto a configuration's integer grid
# (Configuration.__init__, the one __init__ in config.py, and _from_grid)
EXACT_FUNCTIONS = ("validate_exit_path", "__init__", "_from_grid")


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


def _reads_outside_own_definition(tree: ast.Module):
    """Names loaded (bare or as attributes) anywhere in a module, except
    inside the function or class that defines that same name."""
    reads = set()

    def visit(node: ast.AST, defining: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        else:
            name = None
        if name is not None and name not in defining:
            reads.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(tree, frozenset())
    return reads


def _module_level_names(tree: ast.Module):
    """Functions, classes and constants a module defines at top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                        yield name.id


def _unread_module_names(trees: dict[str, ast.Module]) -> list[str]:
    """module.name for each module-level name no module reads outside its
    own definition."""
    reads = set().union(*map(_reads_outside_own_definition, trees.values()))
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _module_level_names(tree)
        if name not in reads
    )


def test_every_module_name_has_a_reader():
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(PACKAGE_DIR.glob("*.py"))
    }
    defined = {
        f"{module}.{name}" for module, tree in trees.items()
        for name in _module_level_names(tree)
    }
    # a constant, a class and a function are all in view
    assert {"theta.DEFAULT_HOM_CAP", "homology.FiniteCategoryView",
            "cli.main"} <= defined
    assert _unread_module_names(trees) == []
    # read only by itself, as a recursive function is, is unread
    planted = "LIMIT = 3\n\ndef used(x):\n    return x + LIMIT\n"
    planted += "\ndef unread(x):\n    return unread(x - 1) if x else used(x)\n"
    assert _unread_module_names({"planted": ast.parse(planted)}) == ["planted.unread"]


# where ResourceCapError may be built: the one cap decision, and the rule
# for counts too long to print, which is a different one
CAP_RAISERS = {("theta", "check_cap"), ("theta", "_printable")}


def _calls_of(tree: ast.Module, callee: str):
    """(enclosing function, line) of each call of ``callee``, by bare name
    or as an attribute."""

    def visit(node: ast.AST, function: str | None):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            called = node.func
            name = getattr(called, "id", None) or getattr(called, "attr", None)
            if name == callee:
                yield function, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    yield from visit(tree, None)


def _callers(callee: str):
    return [
        (path.stem, function, line)
        for path in sorted(PACKAGE_DIR.rglob("*.py"))
        for function, line in _calls_of(
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), callee
        )
    ]


def test_caps_are_decided_in_one_place():
    built = _callers("ResourceCapError")
    assert {(module, function) for module, function, _ in built} == CAP_RAISERS, built


# who may run the elimination that also returns its unit pivot rows and
# takes columns to clear: Smith form itself (clearing nothing), and the
# one caller whose complex makes clearing exact (∂∂ = 0, top degree down)
UNIT_ROW_CALLERS = {
    ("homology", "smith_normal_form"),
    ("homology", "homology_from_boundaries"),
}


def test_unit_pivot_rows_have_two_callers():
    calls = _callers("_smith_and_unit_rows")
    assert {(module, function) for module, function, _ in calls} == UNIT_ROW_CALLERS, calls


# every memoized function: a cache added or dropped is an edit to this list
LRU_CACHED = {
    ("config", "_tree_node"),
    ("harness", "_enumerate_w"),
    ("harness", "_w_candidates"),
    ("simplex", "enumerate_delta_hom"),
    ("simplex", "simplicial_circle"),
    ("theta", "_enumerate_plain"),
    ("theta", "_hom_count"),
    ("theta", "_injective_bases"),
    ("theta", "_injective_row_bound"),
    ("theta", "_masked_rows"),
    ("theta", "_morphism_of_row"),
    ("theta", "fiber_pairs"),
    ("theta", "healthy_trees"),
    ("theta", "leaf_row"),
    ("theta", "leaves"),
    ("theta", "prune"),
}


def _cache_name(decorator: ast.expr) -> str | None:
    called = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(called, "id", None) or getattr(called, "attr", None)


def test_caches_are_inventoried():
    cached = [
        (path.stem, node.name)
        for path in sorted(PACKAGE_DIR.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_cache_name(d) in ("lru_cache", "cache") for d in node.decorator_list)
    ]
    assert len(cached) == len(set(cached)) == 16
    assert set(cached) == LRU_CACHED, sorted(set(cached) ^ LRU_CACHED)


# every module-level object a function rebinds or changes: the one
# leaf-row walk memo, whose single slot _injective_rows replaces whole; a
# second hidden cache would be another
MEMO_SLOTS = {("theta", "_last_walk")}

_MUTATORS = {"add", "append", "clear", "extend", "insert", "pop", "popitem",
             "remove", "setdefault", "update"}


def _module_state_changes(tree: ast.Module):
    """Module-level names that a function declares global, stores into by
    item or attribute, or calls a mutating method on."""
    module_names = {
        target.id
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    }
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(function):
            if isinstance(node, ast.Global):
                yield from node.names
            elif isinstance(node, (ast.Subscript, ast.Attribute)) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                base = node.value
                if isinstance(base, ast.Name) and base.id in module_names:
                    yield base.id
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATORS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in module_names
            ):
                yield node.func.value.id


def test_module_state_is_inventoried():
    changed = [
        (path.stem, name)
        for path in sorted(PACKAGE_DIR.rglob("*.py"))
        for name in _module_state_changes(ast.parse(path.read_text(encoding="utf-8")))
    ]
    # one store, the slot's replacement
    assert changed == sorted(MEMO_SLOTS), changed


def _composition_reads(tree: ast.Module) -> list[int]:
    """Lines that read an ``x.composition`` table other than by ``len``."""
    counted = {
        id(node.args[0])
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "len"
        and len(node.args) == 1
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "composition"
        and id(node) not in counted
    ]


def test_composites_are_the_one_table_read():
    # the composition mapping is a view for tests and for counting; every
    # reader in the package takes g∘f from composites[f][position[g]], so
    # no lookup goes by (g, f) key, .get or .items
    reads = {
        path.stem: lines
        for path in sorted(PACKAGE_DIR.rglob("*.py"))
        if (lines := _composition_reads(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert reads == {}
    planted = "x = len(cat.composition)\ny = cat.composition[(g, f)]\n"
    planted += "z = cat.composition.get((g, f))\nw = list(cat.composition.items())\n"
    assert _composition_reads(ast.parse(planted)) == [2, 3, 4]
