"""Every public name a module exports still exists."""

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


def test_package_imports_are_listed_in_their_modules_all():
    tree = ast.parse(Path(picard_lod.__file__).read_text())
    unlisted = [
        f"{node.module}.{alias.name}"
        for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name not in importlib.import_module(f"picard_lod.{node.module}").__all__
    ]
    assert unlisted == []
