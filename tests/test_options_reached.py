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

The converse is a pass-through option: a public parameter that every call
in the package sets to one and the same module-level constant of the
package, such as `GRID` or `ris.GRID`, holds one value in every run and
belongs in the callee as a constant.
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


def _params(fn, bound):
    """(name, position) of each parameter a caller passes; position is None
    for keyword-only ones."""
    args = fn.args
    positional = (args.posonlyargs + args.args)[1 if bound else 0:]
    yield from ((a.arg, i) for i, a in enumerate(positional))
    yield from ((a.arg, None) for a in args.kwonlyargs)


def _functions(tree):
    """(owner, callee name, function, bound) of each public top-level
    function and public method of a public top-level class."""
    for node in filter(_public, tree.body):
        if not isinstance(node, ast.ClassDef):
            yield node.name, node.name, node, False
            continue
        for item in filter(_public, node.body):
            if not isinstance(item, ast.ClassDef):
                decorators = set(_decorator_names(item))
                # a class-level method is called through its class
                qualified = f"{node.name}.{item.name}"
                callee = qualified if decorators & {"classmethod", "staticmethod"} else item.name
                yield qualified, callee, item, "staticmethod" not in decorators


def _options(tree):
    """(owner, callee name, option, position, is a field) of every
    defaulted value."""
    for node in filter(_public, tree.body):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for i, (name, has_default) in enumerate(_init_fields(node)):
                if has_default:
                    yield node.name, node.name, name, i, True
    for owner, callee, fn, bound in _functions(tree):
        for name, pos in _defaulted_params(fn, bound):
            yield owner, callee, name, pos, False


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


def _constants(trees):
    """Names bound by a module-level assignment in some package module."""
    names = set()
    for tree in trees:
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target] if isinstance(node, ast.AnnAssign) else []
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _constant_name(node, constants):
    """The constant an argument names, `C` or `module.C`, else None."""
    name = (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None)
    return name if name in constants else None


def _passed(trees, constants):
    """callee name -> list of {parameter key: constant or None} per call,
    None for a call that spreads; keys are keywords and positions."""
    out = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                spreads = (any(isinstance(a, ast.Starred) for a in node.args)
                           or any(k.arg is None for k in node.keywords))
                args = None if spreads else {
                    **{i: _constant_name(a, constants) for i, a in enumerate(node.args)},
                    **{k.arg: _constant_name(k.value, constants) for k in node.keywords}}
                for name in _callees(node):
                    out.setdefault(name, []).append(args)
    return out


def _pass_through(package_trees):
    """`owner(parameter) <- constant` of every public parameter that each
    package call passes one and the same module-level constant."""
    trees = list(package_trees)
    passed = _passed(trees, _constants(trees))
    found = []
    for tree in trees:
        for _, callee, fn, bound in _functions(tree):
            calls = passed.get(callee, ())
            for name, pos in _params(fn, bound):
                values = {None if args is None else args.get(name, args.get(pos))
                          for args in calls}
                if calls and len(values) == 1 and None not in values:
                    found.append(f"{callee}({name}) <- {values.pop()}")
    return found


def test_no_parameter_is_a_constant_passed_through():
    found = _pass_through(_parse(path) for path in sorted(PACKAGE.glob("*.py")))
    assert not found, f"every package call passes the same constant: {found}"


def test_a_constant_every_call_passes_is_found():
    caller = ast.parse("LIMIT = 16\n"
                       "def run(x):\n"
                       "    step(x, LIMIT)\n"
                       "    mod.step(2 * x, grid=mod.LIMIT)\n"
                       "    scan(x, LIMIT)\n"
                       "    scan(x, 8)\n")
    callee = ast.parse("def step(x, grid):\n    pass\n"
                       "def scan(x, grid):\n    pass\n")
    assert _pass_through([caller, callee]) == ["step(grid) <- LIMIT"]
