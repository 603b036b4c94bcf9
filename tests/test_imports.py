"""Every name a module of src/algwaves imports is read by that module, and
numpy is imported only inside the functions that build or read a float
array, so that exact work never loads it."""

import ast
import os
import subprocess
import sys
import textwrap
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


def module_level_numpy_imports(source: str) -> list[int]:
    """Lines that import numpy when the module is imported: statements
    outside any function body, except under `if TYPE_CHECKING:`."""
    lines = []

    def visit(nodes):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                    and node.test.id == "TYPE_CHECKING"):
                visit(node.orelse)
                continue
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                names = []
            if any(name.split(".")[0] == "numpy" for name in names):
                lines.append(node.lineno)
            visit(ast.iter_child_nodes(node))

    visit(ast.parse(source).body)
    return sorted(lines)


def test_scan_finds_module_level_numpy():
    source = textwrap.dedent("""\
        from typing import TYPE_CHECKING
        import numpy as np
        if TYPE_CHECKING:
            import numpy
        else:
            import numpy.linalg
        try:
            from numpy import linalg
        except ImportError:
            pass
        class A:
            import numpy
            def f(self):
                import numpy
        def g():
            from numpy import roots
        """)
    assert module_level_numpy_imports(source) == [2, 6, 8, 12]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_numpy_not_imported_at_module_level(path):
    assert module_level_numpy_imports(path.read_text()) == []


EXACT_THEN_FLOAT = """
import contextlib, io, sys

import algwaves
from algwaves import (
    catalog, certify, parse_pde, parse_quadext, search_constant_cofactor,
    shoot_unstable_manifold, to_planar, travelling_wave_reduce,
)
from algwaves.cli import main

def loaded():
    return "numpy" in sys.modules

assert not loaded(), "import algwaves"
spec = parse_pde("u_t - u_xx - u + u^2 = 0")
reduced = travelling_wave_reduce(spec)
catalog()
assert not loaded(), "set-up"
assert certify().ok
assert not loaded(), "certify"
ps = to_planar(reduced.bind_speed(parse_quadext("5/6*sqrt(6)")))
assert search_constant_cofactor(ps, [(0, 0), (1, 0)], max_degree=3)
assert not loaded(), "front search"
pde = ["--pde", "u_t - u_xx - u + u^2 = 0"]
for argv, code in [
        (["find-curve", *pde, "--speed", "5/6*sqrt(6)", "--max-degree", "3"], 0),
        (["certify-fisher"], 0),
        (["reduce", *pde], 0),
        (["equilibria", *pde, "--speed", "2"], 0)]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == code, argv
    assert not loaded(), argv[0]
res = shoot_unstable_manifold(ps, (1, 0), (0, 0))
assert loaded(), "shoot"
assert res.orbit.ys[:, 0].shape == (len(res.orbit),)
print("ok")
"""


def test_exact_work_never_loads_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", EXACT_THEN_FLOAT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
