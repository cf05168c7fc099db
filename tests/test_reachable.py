"""Every public top-level function and class of the package is reached.

Code that only unit tests call is either a reference implementation,
which belongs in `tests/`, or code no run needs.  This check parses the
sources with the standard-library `ast` module and asks that each public
top-level `def` or `class` in `src/ris_sim/*.py` be named, as a bare name
or as an attribute, somewhere in the package itself, in
`tests/test_acceptance.py` or in `perfbench/*.py`.  A name that appears
only inside a string or a docstring does not count, and neither does the
definition itself.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ris_sim"
READERS = (sorted(PACKAGE.glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
           + sorted((ROOT / "perfbench").glob("*.py")))


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _public_definitions(tree):
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name


def _references(tree):
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
    return refs


def test_every_public_name_is_reached():
    refs = set()
    for path in READERS:
        refs |= _references(_parse(path))
    unreached = [f"{path.name}: {name}"
                 for path in sorted(PACKAGE.glob("*.py"))
                 for name in _public_definitions(_parse(path)) if name not in refs]
    assert not unreached, f"public but reached by no runner, acceptance test or benchmark: {unreached}"
