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
