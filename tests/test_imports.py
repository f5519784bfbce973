"""The package's only scipy dependency is ``scipy.sparse``."""
from __future__ import annotations

import ast
from pathlib import Path

import peergraph

# Each of these was needed only by code that no command reaches.
FORBIDDEN = ("scipy.optimize", "scipy.special", "scipy.sparse.linalg", "scipy.sparse.csgraph")


def imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_no_module_imports_the_dropped_scipy_submodules():
    sources = sorted(Path(peergraph.__file__).parent.glob("*.py"))
    assert sources
    found = [
        (path.name, module)
        for path in sources
        for module in imported_modules(ast.parse(path.read_text(encoding="utf-8")))
        if module.startswith(FORBIDDEN)
    ]
    assert found == []
