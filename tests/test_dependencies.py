"""The runtime is numpy-only: every module of the package imports only the
standard library, numpy and labrisk itself. Also: the package's exception
classes, the run settings' one default each, and the bindings the
benchmark's tracer wraps."""

import ast
import dataclasses
import importlib.util
import pathlib
import sys
import typing

import labrisk
from labrisk import cli, cohort, model, synth

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


def run_configs() -> list[type]:
    """The dataclasses of a run configuration's settings: RunConfig's
    sections, SynthConfig, CohortSpec and RiskModelConfig."""
    sections = [hint for hint in typing.get_type_hints(cli.RunConfig).values()
                if dataclasses.is_dataclass(hint)]
    return [*sections, synth.SynthConfig, cohort.CohortSpec,
            model.RiskModelConfig]


def run_settings() -> set[str]:
    """The names a run configuration sets: the fields of run_configs()."""
    return {f.name for cls in run_configs() for f in dataclasses.fields(cls)}


def defaulted_parameters(source: str,
                         configs=frozenset()) -> list[tuple[int, str]]:
    """(line, name) of every function, method or lambda parameter in
    `source` that has a default, and of every defaulted field of a
    dataclass not named in `configs`: a parameter of its __init__."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name not in configs \
                and any(ast.unparse(d).startswith("dataclass")
                        for d in node.decorator_list):
            out += [(stmt.lineno, stmt.target.id) for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and stmt.value is not None]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            with_default = positional[len(positional) - len(args.defaults):]
            with_default += [arg for arg, default in zip(args.kwonlyargs,
                                                         args.kw_defaults)
                             if default is not None]
            out += [(node.lineno, arg.arg) for arg in with_default]
    return out


def test_defaulted_parameters_sees_every_parameter_kind():
    assert defaulted_parameters(
        "def f(a, b=1, /, c=2, *d, e, g=3, **h): pass\n"
        "class C:\n    def m(self, lr=1e-4): pass\n"
        "k = lambda seed=0: seed\n") == [(1, "b"), (1, "c"), (1, "g"),
                                          (3, "lr"), (4, "seed")]
    assert defaulted_parameters(
        "@dataclass(frozen=True)\nclass P:\n    a: int\n    b: int = 1\n"
        "@dataclass\nclass Q:\n    c: int = 2\n"
        "class R:\n    d: int = 3\n", {"Q"}) == [(4, "b")]


def test_run_settings_take_their_default_from_the_config_only():
    """A library parameter or dataclass field named after a run setting has
    no default: the setting's one default is its config dataclass field's."""
    settings = run_settings()
    assert {"lr", "seed", "n_members", "top_k", "enrich",
            "scale_demographics"} <= settings
    configs = {cls.__name__ for cls in (cli.RunConfig, *run_configs())}
    repeated = [f"{path.name}:{line}: {name}"
                for path in sorted(PACKAGE.glob("*.py"))
                for line, name in defaulted_parameters(path.read_text(),
                                                       configs)
                if name in settings]
    assert not repeated, repeated


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
