"""The runtime is numpy-only: every module of the package imports only the
standard library, numpy and labrisk itself."""

import ast
import pathlib
import sys

import labrisk

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "labrisk"}
PACKAGE = pathlib.Path(labrisk.__file__).parent


def imported_roots(source: str) -> set[str]:
    """Top-level names of the absolute imports in `source`; relative
    imports are the package's own."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_imported_roots_sees_every_import_form():
    assert imported_roots(
        "import os.path, json\nfrom numpy import linalg\n"
        "from . import nn\nfrom .model import RiskModel\n"
        "def f():\n    import scipy.stats\n") == {"os", "json", "numpy",
                                                  "scipy"}


def test_package_imports_only_stdlib_and_numpy():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    outside = {path.name: sorted(imported_roots(path.read_text()) - ALLOWED)
               for path in modules}
    assert not any(outside.values()), outside
