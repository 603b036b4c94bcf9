"""No module-level function or class of src/algwaves is dead code.

Each must be read by the package itself, listed in an __all__, or read by
the benchmark (perfbench/*.py) or a script (scripts/*.py); a name only the
tests read belongs in the tests.  Every dataclass field must be read as an
attribute somewhere: in the package, perfbench/, scripts/, tests/ or
README's python blocks.
"""

import ast
import re
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


def dataclass_fields(tree: ast.Module) -> dict[str, int]:
    """'Class.field' -> line for every annotated field of a module-level
    @dataclass class."""
    out = {}
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d
                      for d in cls.decorator_list]
        if not any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass"
                   for d in decorators):
            continue
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                out["%s.%s" % (cls.name, stmt.target.id)] = stmt.lineno
    return out


def attribute_reads(tree: ast.AST) -> set[str]:
    """Attribute names the code loads (x.name); a keyword at construction,
    an assignment to x.name and a read of an argparse namespace (args.name)
    are not reads."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and not (isinstance(node.value, ast.Name) and node.value.id == "args")}


def dead_fields(package: dict[str, str], others: list[str]) -> list[str]:
    """'module.Class.field (line n)' for every dataclass field of the package
    that no source, package or other, reads as an attribute."""
    trees = {name: ast.parse(src) for name, src in package.items()}
    read = set()
    for tree in [*trees.values(), *map(ast.parse, others)]:
        read |= attribute_reads(tree)
    return sorted("%s.%s (line %d)" % (module, name, line)
                  for module, tree in trees.items()
                  for name, line in dataclass_fields(tree).items()
                  if name.split(".")[1] not in read)


def test_scan_finds_dead_fields():
    package = {
        "a": "from dataclasses import dataclass, field\n"
             "@dataclass\n"
             "class Result:\n"
             "    value: int\n"
             "    planted: int\n"
             "    notes: list = field(default_factory=list)\n"
             "    samples: int = 0\n"
             "    def total(self): return self.value\n"
             "def make(): return Result(value=1, planted=2)\n",
        "b": "import dataclasses\n"
             "@dataclasses.dataclass(frozen=True)\n"
             "class Pair:\n"
             "    left: int\n"
             "    right: int\n"
             "    scale = 2\n"
             "class Plain:\n"
             "    hidden: int\n",
    }
    others = ["r = make()\nr.planted = 3\nprint(r.notes)\n",
              "def f(p): return p.left\n",
              "def main(args): return make_report(n=args.samples)\n"]
    assert dead_fields(package, others) == [
        "a.Result.planted (line 5)", "a.Result.samples (line 7)",
        "b.Pair.right (line 5)"]


def test_no_dead_fields():
    package = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    readme = (ROOT / "README.md").read_text()
    others = [p.read_text() for folder in ("perfbench", "scripts", "tests")
              for p in sorted((ROOT / folder).rglob("*.py"))]
    others += re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert dead_fields(package, others) == []
