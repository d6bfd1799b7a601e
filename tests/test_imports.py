"""Source hygiene: every name an evidkit module imports is used in it,
every private name it defines at module level is referenced in it, and the
third-party packages it imports are exactly the declared dependencies.

The package `__init__` is exempt from the import check (its imports are
re-exports), as are `from __future__` imports; dunder names are exempt from
the private-name check.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import evidkit

MODULES = sorted(p for p in Path(evidkit.__file__).parent.glob("*.py") if p.name != "__init__.py")
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


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


def third_party_imports(tree):
    """Top-level names of the absolute imports that are not standard library."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        yield from (top for top in (n.split(".")[0] for n in names) if top not in sys.stdlib_module_names)


def test_imports_match_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    declared = tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_") for dep in declared}
    imported = {top for path in [*MODULES, Path(evidkit.__file__)]
                for top in third_party_imports(ast.parse(path.read_text()))}
    assert imported == names


def test_cli_import_loads_numpy_random_and_no_scipy():
    # run from the directory holding the evidkit package, so `-c` imports this copy
    code = ("import sys, evidkit.cli; "
            "print('numpy.random' in sys.modules, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code], cwd=Path(evidkit.__file__).parents[1],
                            capture_output=True, text=True, check=True)
    assert result.stdout == "True []\n"
