"""No module-level function or class of src/algwaves is dead code.

Each must be read by the package itself, listed in an __all__, or read by
the benchmark (perfbench/*.py) or a script (scripts/*.py); a name only the
tests read belongs in the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "algwaves"


def definitions(tree: ast.Module) -> dict[str, int]:
    return {node.name: node.lineno for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))}


def package_reads(tree: ast.Module) -> set[str]:
    """Names a package module loads, imports from a sibling or lists in
    __all__; a definition reading its own name (recursion) does not count."""
    read = set()
    for stmt in tree.body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                names.update(e.value for e in node.value.elts
                             if isinstance(e, ast.Constant))
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        read |= names
    return read


def outside_reads(tree: ast.Module) -> set[str]:
    """Names a benchmark or script file loads, imports or reads as an
    attribute (aw.linalg.in_row_span)."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def dead_definitions(package: dict[str, str], outside: list[str]) -> list[str]:
    """'module.name (line n)' for every unread definition; package maps a
    module name to its source, outside lists the other sources."""
    trees = {name: ast.parse(src) for name, src in package.items()}
    read = set()
    for tree in trees.values():
        read |= package_reads(tree)
    for src in outside:
        read |= outside_reads(ast.parse(src))
    return sorted("%s.%s (line %d)" % (module, name, line)
                  for module, tree in trees.items()
                  for name, line in definitions(tree).items() if name not in read)


def test_scan_finds_dead_definitions():
    package = {
        "a": "def used(): return helper()\n"
             "def helper(): return 1\n"
             "def recursive(n): return recursive(n - 1)\n"
             "class Exported: pass\n"
             "__all__ = ['Exported']\n",
        "b": "from .a import used\n"
             "def benchmarked(): return used()\n"
             "def scripted(): pass\n"
             "def orphan(): pass\n",
    }
    outside = ["import algwaves\nalgwaves.b.benchmarked()\n",
               "from algwaves.b import scripted\n"]
    assert dead_definitions(package, outside) == [
        "a.recursive (line 3)", "b.orphan (line 4)"]


def test_no_dead_definitions():
    package = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    outside = [p.read_text() for folder in ("perfbench", "scripts")
               for p in sorted((ROOT / folder).glob("*.py"))]
    assert dead_definitions(package, outside) == []
