"""The package names that the benchmark harness binds by hand still exist.

`perfbench/tracing.py` imports every module listed in its `MODULES`
tuple when it installs its spans, and `perfbench/worker.py` and
`tracing.layer_metrics` call or read a few package functions by name.
Merging or renaming one of them would make a traced benchmark run raise,
or read 0, with no other test noticing.  This check parses both files
with the standard-library `ast` module and resolves each such name
against the package.
"""

import ast
import importlib
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ris_sim"
TRACING = ROOT / "perfbench" / "tracing.py"
WORKER = ROOT / "perfbench" / "worker.py"


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _modules():
    for node in _parse(TRACING).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "MODULES" for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no MODULES tuple")


def _direct_calls(modules):
    """(module, function, positional count) of every call in worker.py
    spelled `<module>.<function>(...)` or `<obj>.<module>.<function>(...)`."""
    out = set()
    for node in ast.walk(_parse(WORKER)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        owner = node.func.value
        name = (owner.id if isinstance(owner, ast.Name)
                else owner.attr if isinstance(owner, ast.Attribute) else None)
        if name in modules:
            out.add((name, node.func.attr, len(node.args)))
    return out


def _read_spans(modules):
    """(module, function) of every literal span name that
    `tracing.layer_metrics` reads with `per_fn.get("<module>.<function>", ...)`."""
    fn = next(n for n in _parse(TRACING).body
              if isinstance(n, ast.FunctionDef) and n.name == "layer_metrics")
    out = set()
    for node in ast.walk(fn):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get" and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            module, _, name = node.args[0].value.partition(".")
            if module in modules and name:
                out.add((module, name))
    return out


def test_every_traced_module_exists():
    modules = _modules()
    assert modules
    missing = [m for m in modules if not (PACKAGE / f"{m}.py").is_file()]
    assert not missing, f"perfbench/tracing.py MODULES names no source file: {missing}"


def test_names_the_benchmark_calls_exist():
    modules = _modules()
    calls = _direct_calls(modules)
    names = {(m, f) for m, f, _ in calls} | _read_spans(modules)
    # the parse must see the bindings it guards, or it guards nothing
    assert {("cli", "main"), ("cli", "validate_config"),
            ("numkernel", "waterfill_powers")} <= names
    for module, name in sorted(names):
        fn = getattr(importlib.import_module(f"ris_sim.{module}"), name, None)
        assert callable(fn), f"perfbench names ris_sim.{module}.{name}, which does not exist"
    for module, name, count in calls:
        fn = getattr(importlib.import_module(f"ris_sim.{module}"), name)
        inspect.signature(fn).bind(*[None] * count)
