"""Every module-level import in the package is used.

An AST scan of ``src/gptpurity/*.py`` in place of a linter: a name bound
by a module-level ``import`` or ``from ... import`` must be read somewhere
in its module.  ``__init__.py`` is skipped, since its imports are the
package's public API; ``from __future__`` imports bind no name.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gptpurity"


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


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import json\nimport os.path\nfrom typing import Iterable, Callable as C\n"
              "def f(x: C) -> None:\n    return os.path.join(x)\n")
    assert unused_imports(source) == ["line 2: json", "line 4: Iterable"]
