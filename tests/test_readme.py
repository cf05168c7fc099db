"""The README names only code that exists, and its library example runs.

Every backticked `module.name` in README.md whose module is a `ris_sim`
module must be an attribute of that module, so deleting or renaming an
entry point without updating the README fails here.  File names such as
`experiments.py` are not references.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import ris_sim

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
MODULES = {m.name for m in pkgutil.iter_modules(ris_sim.__path__)}


def test_backticked_module_names_resolve():
    refs = {(mod, name) for mod, name in re.findall(r"`(\w+)\.(\w+)", README)
            if mod in MODULES and name != "py"}
    assert refs
    missing = [f"{mod}.{name}" for mod, name in sorted(refs)
               if not hasattr(importlib.import_module(f"ris_sim.{mod}"), name)]
    assert not missing, f"README names what the package lacks: {missing}"


def test_library_use_example_runs(capsys):
    section = README.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert float(capsys.readouterr().out) > 0.0
