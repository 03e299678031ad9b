"""The runtime is numpy-only: every module of the package imports only the
standard library, numpy and labrisk itself. Also: the package's exception
classes, and the bindings the benchmark's tracer wraps."""

import ast
import importlib.util
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


def test_package_defines_one_malformed_input_error():
    """LabriskError (exit 3) and nn's two internal-fault types (exit 4) are
    the package's only exception classes."""
    exceptions = {(path.stem, node.name)
                  for path in PACKAGE.glob("*.py")
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.ClassDef)
                  and any(ast.unparse(base).endswith(("Error", "Exception"))
                          for base in node.bases)}
    assert exceptions == {("__init__", "LabriskError"), ("nn", "ShapeError"),
                          ("nn", "NumericsError")}


def test_bench_tracer_finds_every_binding_it_wraps():
    """The benchmark's span tracer wraps functions through the names the
    program calls them by; each must stay bound, and uninstall must put
    every original back."""
    spec = importlib.util.spec_from_file_location(
        "spans", pathlib.Path(__file__).parents[1] / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    bindings = [(owner, attr) for _, pairs in spans.TRACED
                for owner, attr in pairs]
    bindings += [(spans.cli.COMMANDS, stage) for stage in spans.STAGES]
    originals = [_bound(owner, attr) for owner, attr in bindings]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert len(tracer._patches) == len(bindings) == 58
        assert all(_bound(owner, attr) is not original
                   for (owner, attr), original in zip(bindings, originals))
    finally:
        tracer.uninstall()
    assert all(_bound(owner, attr) is original
               for (owner, attr), original in zip(bindings, originals))


def _bound(owner, attr):
    return owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]
