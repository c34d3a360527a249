"""Every public name a module exports still exists and has a caller."""

import ast
import importlib
from pathlib import Path

import pytest

import picard_lod

MODULES = ["expr", "funcspace", "graded_core", "linear_series", "picard_pde"]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    mod = importlib.import_module(f"picard_lod.{name}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def _package_imports():
    """(module, name) of every name ``picard_lod/__init__.py`` re-exports."""
    tree = ast.parse(Path(picard_lod.__file__).read_text())
    return [
        (node.module, alias.name)
        for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def test_package_imports_are_listed_in_their_modules_all():
    unlisted = [
        f"{module}.{name}" for module, name in _package_imports()
        if name not in importlib.import_module(f"picard_lod.{module}").__all__
    ]
    assert unlisted == []


ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "picard_lod"
# where a public name may be used: the package itself, the tools, the
# benchmark harness (read only) and the acceptance criteria
CALLER_FILES = (
    [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tools").glob("*.py"))
    + list((ROOT / "perfbench").glob("*.py"))
    + [ROOT / "tests" / "test_acceptance.py"]
)


def _used_identifiers(path):
    """Identifiers a file reads or writes, and dotted names it spells in strings.

    Definition names, import aliases and ``__all__`` entries are not uses.
    Strings count because ``perfbench/tracing.py`` patches layers by name.
    """
    used = set()
    for stmt in ast.parse(path.read_text()).body:
        if isinstance(stmt, ast.Assign) and any(
            getattr(t, "id", None) == "__all__" for t in stmt.targets
        ):
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(node.value.split("."))
    return used


def test_every_public_name_has_a_caller():
    used = set().union(*(_used_identifiers(p) for p in CALLER_FILES))
    public = {name for _, name in _package_imports()}.union(
        *(importlib.import_module(f"picard_lod.{name}").__all__ for name in MODULES)
    )
    assert sorted(public - used) == []
