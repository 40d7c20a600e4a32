"""The names the benchmark under ``bench/`` wraps or calls must exist in
goalc, so that deleting one fails the tests and not only a benchmark run."""

import ast
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import goalc
from goalc import bsnsim, cgm

BENCH = Path(__file__).resolve().parents[1] / "bench"


def resolve(module, attr):
    """``goalc.<module>.<attr>``, where ``attr`` may be ``Class.method``."""
    owner = importlib.import_module(f"goalc.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_traced_function_is_wrapped_and_restored(monkeypatch):
    for info in pkgutil.iter_modules(goalc.__path__):
        importlib.import_module(f"goalc.{info.name}")
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    try:
        t = tracer.Tracer()
        try:
            t.install()  # raises AttributeError for a target that is missing
            originals = {target: resolve(*target).__wrapped__ for target in tracer.TARGETS}
        finally:
            t.uninstall()
        assert all(resolve(*target) is fn for target, fn in originals.items())
    finally:
        sys.modules.pop("tracer", None)


def goalc_attribute_chains():
    """Every dotted chain ``module.attr[.attr...]`` in ``bench/*.py`` rooted
    at a name imported by ``from goalc import ...``, its prefixes included."""
    chains = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        roots = {alias.asname or alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module == "goalc"
                 for alias in node.names}
        for node in ast.walk(tree):
            attrs = []
            while isinstance(node, ast.Attribute):
                attrs.append(node.attr)
                node = node.value
            if attrs and isinstance(node, ast.Name) and node.id in roots:
                chains.add((node.id, ".".join(reversed(attrs))))
    return chains


def test_names_the_workloads_call_exist():
    chains = goalc_attribute_chains()
    assert ("compiler", "compile_model") in chains  # the walk finds the calls
    for module, attr in sorted(chains):
        resolve(module, attr)  # raises AttributeError for a deleted name
    # Reached through instances, which the walk cannot see.
    assert callable(cgm.ParamTable.all_parameters)
    assert callable(bsnsim.World.truth_bindings)
    assert "forms" in inspect.signature(bsnsim.run).parameters
