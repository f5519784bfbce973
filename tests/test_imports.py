"""The package's only scipy dependency is ``scipy.sparse``, imported where it is used."""
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


def package_sources():
    sources = sorted(Path(peergraph.__file__).parent.glob("*.py"))
    assert sources
    return sources


def import_time_statements(body):
    """Statements of ``body`` that run when the module is imported.

    Function bodies run later; the body of ``if TYPE_CHECKING:`` never runs.
    """
    for node in body:
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            yield from import_time_statements(node.orelse)
            continue
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from import_time_statements(getattr(node, field, []))


def test_no_module_imports_the_dropped_scipy_submodules():
    found = [
        (path.name, module)
        for path in package_sources()
        for module in imported_modules(ast.parse(path.read_text(encoding="utf-8")))
        if module.startswith(FORBIDDEN)
    ]
    assert found == []


def test_no_module_imports_scipy_at_import_time():
    # Commands that build no sparse matrix must start without loading scipy.
    found = [
        (path.name, node.lineno, module)
        for path in package_sources()
        for node in import_time_statements(ast.parse(path.read_text(encoding="utf-8")).body)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for module in imported_modules(node)
        if module == "scipy" or module.startswith("scipy.")
    ]
    assert found == []
