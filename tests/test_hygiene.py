"""Source hygiene checks over the package and its tests."""
from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "buildsnake").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_top_level_name_defined_twice(path):
    # A second definition silently replaces the first, so a duplicated test
    # function runs once and its first body never runs.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = Counter(
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    )
    assert [name for name, count in names.items() if count > 1] == []


def _loaded_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, and every name its `__all__` exports."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_module_level_import_unused(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    loaded = _loaded_names(tree)
    assert [name for name in imported if name not in loaded] == []


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.parent.name == "buildsnake"], ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_no_module_level_private_name_unused_by_its_module(path):
    # A private helper or constant that only the tests still reach is a
    # leftover of code that is gone.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    defined = [node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    defined += [
        target.id
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    ]
    loaded = _loaded_names(tree)
    assert [name for name in defined if name.startswith("_") and not name.startswith("__") and name not in loaded] == []
