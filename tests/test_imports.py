"""Source hygiene: every name an evidkit module imports is used in it, and
every private name it defines at module level is referenced in it.

The package `__init__` is exempt from the import check (its imports are
re-exports), as are `from __future__` imports; dunder names are exempt from
the private-name check.
"""

import ast
from pathlib import Path

import pytest

import evidkit

MODULES = sorted(p for p in Path(evidkit.__file__).parent.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(imported_names(tree)) - used)
    assert not unused, f"{path.name} imports {unused} and never uses them"


def private_definitions(tree):
    """Names of the module-level functions, classes and assigned constants
    that start with one underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


@pytest.mark.parametrize("path", [*MODULES, Path(evidkit.__file__)], ids=lambda p: p.name)
def test_every_private_name_is_referenced(path):
    tree = ast.parse(path.read_text())
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unreferenced = sorted(set(private_definitions(tree)) - loaded)
    assert not unreferenced, f"{path.name} defines {unreferenced} and never refers to them"
