"""Every name a package module imports is used in that module, no module
reaches into another's private names, and no module runs work
concurrently.

Deleting code tends to leave imports behind that nothing reads any more.
This check parses each `src/ris_sim/*.py` file with the standard-library
`ast` module, so it needs no linter.  No import is exempt: the package
`__init__.py` loads no submodule, so an eager `from . import ...` added
there fails as unused.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ris_sim"


def _imported_names(tree):
    """(bound name, line) of every import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        # quoted annotations such as -> "Scenario" name things too
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used |= _used_names(ast.parse(annotation.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = [f"{path.name}:{line} {name}"
              for name, line in _imported_names(tree) if name not in used]
    assert not unused, f"imported but never used: {unused}"


def _private(name):
    """A leading-underscore name that is not a dunder such as `__version__`."""
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _reached_private_names(tree):
    """(line, name) of every private name imported from a package module,
    and of every private attribute read off a package module that
    `from . import module` bound."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                if _private(alias.name):
                    yield node.lineno, f"{node.module or ''}.{alias.name}"
                if node.module is None:
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            yield node.lineno, f"{node.value.id}.{node.attr}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reaches_into_another_modules_private_names(path):
    # a private name is its module's own business; what another module
    # needs is public
    reached = [f"{path.name}:{line} {name}"
               for line, name in _reached_private_names(ast.parse(path.read_text()))]
    assert not reached, f"private names of other modules: {reached}"


def test_the_private_name_check_sees_imports_and_attribute_reads():
    tree = ast.parse("from .channel import _fixed_link, __doc__\n"
                     "from . import coexist\n"
                     "coexist._surface_link(coexist.lbt_runs, self._layout)\n")
    assert sorted(_reached_private_names(tree)) == [(1, "channel._fixed_link"),
                                                    (3, "coexist._surface_link")]


#: top-level modules that start threads or processes
_CONCURRENCY = {"_thread", "threading", "concurrent", "multiprocessing"}


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_no_module_starts_threads():
    # every run works in one thread
    users = [path.name for path in sorted(PACKAGE.glob("*.py"))
             if any(name.split(".")[0] in _CONCURRENCY
                    for name in _imported_modules(ast.parse(path.read_text())))]
    assert users == []
