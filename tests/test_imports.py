"""Every module-level import in the package is used, and every definition is read.

An AST scan of ``src/gptpurity/*.py`` in place of a linter: a name bound
by a module-level ``import`` or ``from ... import`` must be read somewhere
in its module.  ``__init__.py`` is skipped, since its imports are the
package's public API; ``from __future__`` imports bind no name.

A second scan finds orphaned definitions: each module-level function or
class must be read somewhere in the package outside its own body, as a
name or an attribute, or be imported by ``__init__.py``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gptpurity"

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda x: x[1])
            if name not in read]


def _reads(node: ast.AST) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def orphaned_definitions(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each module-level function or class that no other code reads.

    ``sources`` maps module names to their source; imports in the
    ``__init__`` module count as reads.
    """
    defined, reads = [], []          # reads: (module, enclosing definition or None, names)
    for module, source in sources.items():
        for node in ast.parse(source).body:
            owner = node.name if isinstance(node, DEFINITIONS) else None
            if owner is not None:
                defined.append((module, owner))
            names = _reads(node)
            if module == "__init__" and isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
            reads.append((module, owner, names))
    return [f"{module}.{name}" for module, name in defined
            if not any(name in names and (where, owner) != (module, name)
                       for where, owner, names in reads)]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_package_has_no_orphaned_definitions():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert orphaned_definitions(sources) == []


def test_scan_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import json\nimport os.path\nfrom typing import Iterable, Callable as C\n"
              "def f(x: C) -> None:\n    return os.path.join(x)\n")
    assert unused_imports(source) == ["line 2: json", "line 4: Iterable"]


def test_scan_finds_orphaned_definitions():
    sources = {
        "__init__": "from .a import exported\n",
        "a": ("def exported():\n    return helper()\n"
              "def helper():\n    return 1\n"
              "def recursive(n):\n    return recursive(n - 1)\n"
              "class Orphan:\n    pass\n"
              "def orphan():\n    return Orphan\n"),
        "b": "from . import a\n\ndef caller():\n    return a.by_attribute()\n",
        "c": "def by_attribute():\n    return caller\n",
    }
    # `orphan` reads `Orphan`, but nothing reads `orphan`; `b.caller` is read
    # only as a bare name in `c`, which is enough
    assert orphaned_definitions(sources) == ["a.recursive", "a.orphan"]
