"""numpy is the only runtime dependency: every module of the package imports
only the standard library, numpy or the package itself.

An import in the body of a ``try`` that has an ImportError fallback is
optional and exempt: the config digest's built-in SHA-256 module is one.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "semireg"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "semireg"}


def _catches_import_error(handler: ast.ExceptHandler) -> bool:
    caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    names = {t.id for t in caught if isinstance(t, ast.Name)}
    return bool(names & {"ImportError", "ModuleNotFoundError"})


def foreign_imports(source: str) -> list[str]:
    """The top-level names of the required imports in ``source`` outside ALLOWED."""
    found = []

    def visit(node: ast.AST, optional: bool):
        if isinstance(node, ast.Import) and not optional:
            found.extend(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not optional and node.level == 0:
            found.append(node.module.split(".")[0])
        elif isinstance(node, ast.Try):
            fallback = any(_catches_import_error(h) for h in node.handlers)
            for child in node.body:
                visit(child, optional or fallback)
            for child in (*node.handlers, *node.orelse, *node.finalbody):
                visit(child, optional)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, optional)

    visit(ast.parse(source), False)
    return sorted(set(found) - ALLOWED)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_a_module_imports_only_the_standard_library_numpy_or_the_package(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def test_the_guard_tells_a_required_import_from_an_optional_one():
    source = """
import os, numpy.linalg
from . import rng
from collections import abc
import scipy.special
def f():
    from pandas import DataFrame
try:
    import yaml
except ImportError:
    import json
try:
    import toml
except ValueError:
    pass
try:
    import orjson
except (OSError, ModuleNotFoundError):
    import attrs
"""
    assert foreign_imports(source) == ["attrs", "pandas", "scipy", "toml"]
