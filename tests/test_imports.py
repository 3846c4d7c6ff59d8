"""Source hygiene for every module of ``src/wseries`` and of ``tests``:
each name it imports is used in it, and it parses as Python 3.10, the
oldest version ``pyproject.toml`` admits.

No linter runs on this repository, so this is its unused-import check.  It
skips ``from __future__`` imports, names that the module exports through
``__all__``, and imports on a line marked ``# noqa: F401`` (kept for a
caller outside the module)."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "wseries"
MODULES = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))


def unused_imports(text: str) -> set:
    """The names imported by the module ``text`` and never used in it."""
    tree, lines = ast.parse(text), text.splitlines()
    imported, used, exported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            marked = any("# noqa: F401" in lines[i]
                         for i in range(node.lineno - 1, node.end_lineno))
            if marked or getattr(node, "module", None) == "__future__":
                continue
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names if a.name != "*")
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported.update(ast.literal_eval(node.value))
        for note in _annotations(node):
            # a string annotation such as "Series" names what it uses
            for c in ast.walk(note):
                if isinstance(c, ast.Constant) and isinstance(c.value, str):
                    used.update(n.id for n in ast.walk(ast.parse(
                        c.value, mode="eval")) if isinstance(n, ast.Name))
    return imported - used - exported


def _annotations(node) -> list:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.returns] if node.returns else []
    if isinstance(node, (ast.arg, ast.AnnAssign)):
        return [node.annotation] if node.annotation else []
    return []


def test_the_check_finds_an_unused_import():
    text = ("from __future__ import annotations\n"
            "from typing import Iterable, Mapping\n"
            "import os.path\n"
            "from json import dumps  # noqa: F401\n"
            "from math import gcd as g\n"
            "from re import (compile,\n"
            "                escape)\n"
            "__all__ = ['escape']\n"
            "def f(x: 'Mapping[str, int]') -> 'g':\n"
            "    return compile(x)\n")
    assert unused_imports(text) == {"Iterable", "os"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    unused = unused_imports(path.read_text())
    assert not unused, f"{path.name} never uses {sorted(unused)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
