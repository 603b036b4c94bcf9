"""Every name a module of src/algwaves imports is read by that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "algwaves"


def unused_imports(source: str) -> list[str]:
    """Imported names that no expression of the module reads; a name listed
    in __all__ counts as read (the package re-exports it)."""
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return sorted("%s (line %d)" % (name, line)
                  for name, line in imported.items() if name not in read)


def test_scan_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import math, os.path\n"
              "from typing import Optional as Opt, Union\n"
              "__all__ = ['Union']\n"
              "x: Opt[int] = math.pi\n")
    assert unused_imports(source) == ["os (line 2)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
