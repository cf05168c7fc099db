"""Every settable value of the package is set by some caller.

A parameter with a default that no caller ever passes, or a dataclass
field that no constructor call sets, is an option that cannot move a
number: every run takes the default.  This check parses the sources with
the standard-library `ast` module, in the style of `test_reachable.py`,
and asks that each defaulted parameter of a public top-level function or
public method of a public top-level class in `src/ris_sim/*.py`, and each
defaulted init field of a public top-level class, be passed in some call
in the package itself, in `tests/test_acceptance.py` or in
`perfbench/*.py`.

Calls are matched by the callee's name, as a bare name or an attribute;
a classmethod or staticmethod only by `Class.method`.
A value counts as passed by keyword, or by position when the call has
more positional arguments than the parameters before it.  A call that
spreads `*args` or `**kwargs` counts as passing everything.  A keyword of
a `replace(...)` call counts for a field of that name in every class.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ris_sim"
READERS = (sorted(PACKAGE.glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
           + sorted((ROOT / "perfbench").glob("*.py")))


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _decorator_names(node):
    for d in node.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if isinstance(target, ast.Name):
            yield target.id
        elif isinstance(target, ast.Attribute):
            yield target.attr


def _defaulted_params(fn, bound):
    """(name, position) of each defaulted parameter; position is None for
    keyword-only ones and counts from the first argument a caller passes."""
    args = fn.args
    positional = args.posonlyargs + args.args
    skip = 1 if bound else 0
    first = len(positional) - len(args.defaults)
    for i, a in enumerate(positional):
        if i >= first and i >= skip:
            yield a.arg, i - skip
    for a, d in zip(args.kwonlyargs, args.kw_defaults):
        if d is not None:
            yield a.arg, None


def _is_dataclass(cls):
    return "dataclass" in set(_decorator_names(cls))


def _init_fields(cls):
    """(name, has default) of each init field of a dataclass, in order."""
    for node in cls.body:
        if not (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)):
            continue
        value = node.value
        if (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"
                and any(k.arg == "init" and isinstance(k.value, ast.Constant)
                        and k.value.value is False for k in value.keywords)):
            continue
        yield node.target.id, value is not None


def _public(node):
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_"))


def _options(tree):
    """(owner, callee name, option, position, is a field) of every
    defaulted value."""
    for node in filter(_public, tree.body):
        if not isinstance(node, ast.ClassDef):
            for name, pos in _defaulted_params(node, bound=False):
                yield node.name, node.name, name, pos, False
            continue
        if _is_dataclass(node):
            for i, (name, has_default) in enumerate(_init_fields(node)):
                if has_default:
                    yield node.name, node.name, name, i, True
        for item in filter(_public, node.body):
            if not isinstance(item, ast.ClassDef):
                decorators = set(_decorator_names(item))
                bound = "staticmethod" not in decorators
                # a class-level method is called through its class
                qualified = f"{node.name}.{item.name}"
                callee = qualified if decorators & {"classmethod", "staticmethod"} else item.name
                for name, pos in _defaulted_params(item, bound):
                    yield qualified, callee, name, pos, False


def _callees(call):
    """Names a call is matched by: `f` for `f(...)`; `attr` and, on a bare
    receiver, `Owner.attr` for `Owner.attr(...)`."""
    func = call.func
    if isinstance(func, ast.Name):
        return [func.id]
    if isinstance(func, ast.Attribute):
        if isinstance(func.value, ast.Name):
            return [func.attr, f"{func.value.id}.{func.attr}"]
        return [func.attr]
    return []


def _calls(trees):
    """callee name -> list of (positional count, keywords, spreads)."""
    out = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                spreads = (any(isinstance(a, ast.Starred) for a in node.args)
                           or any(k.arg is None for k in node.keywords))
                for name in _callees(node):
                    out.setdefault(name, []).append(
                        (len(node.args), {k.arg for k in node.keywords}, spreads))
    return out


def _set(calls, callee, option, pos, is_field):
    for n_pos, keywords, spreads in calls.get(callee, ()):
        if spreads or option in keywords or (pos is not None and n_pos > pos):
            return True
    return is_field and any(option in keywords for _, keywords, _ in calls.get("replace", ()))


def test_every_option_is_set_by_some_caller():
    calls = _calls(_parse(path) for path in READERS)
    unset = [f"{path.name}: {owner}({option})"
             for path in sorted(PACKAGE.glob("*.py"))
             for owner, callee, option, pos, is_field in _options(_parse(path))
             if not _set(calls, callee, option, pos, is_field)]
    assert not unset, f"defaulted but set by no runner, acceptance test or benchmark: {unset}"
