"""The public surface: every exported name resolves, and no import goes unused.

Parsed with ``ast`` and loaded with ``importlib``, so the check needs
only the standard library.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import outerinv

SOURCES = sorted(Path(outerinv.__file__).parent.glob("*.py"))
MODULES = ["outerinv" if p.stem == "__init__" else f"outerinv.{p.stem}" for p in SOURCES]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing


def test_package_exports_no_module():
    assert not [name for name in outerinv.__all__ if inspect.ismodule(getattr(outerinv, name))]


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("source", SOURCES, ids=[p.name for p in SOURCES])
def test_every_import_is_used(source):
    tree = ast.parse(source.read_text(encoding="utf-8"))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # A string naming the import counts: ``__all__`` re-exports and
            # the harness's evaluator table look names up by string.
            used.add(node.value)
    assert not sorted(set(_imported_names(tree)) - used)
