"""Every name a koszul module imports is used in that module.

A stdlib-only stand-in for a linter's unused-import rule: each module under
src/koszul/ except the package's re-exporting __init__.py is parsed with
ast, and an imported name counts as used when the module reads it somewhere:
a Name in Load context.  A Store target of the same name (a local variable
called `field`, say) does not count.  The package's __all__ names every
public object it re-exports and no submodule.  Importing the command line
loads neither dataclasses nor fractions, nor what they import, and no
argparse, gettext or locale: the command line is parsed without them.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import koszul

SRC = Path(__file__).resolve().parent.parent / "src" / "koszul"


def _imported(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def test_no_unused_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in sorted(_imported(tree).items()) if name not in used]
    assert not unused, "unused imports: " + ", ".join(unused)


def test_all_lists_objects_not_submodules():
    assert koszul.__all__
    missing = [name for name in koszul.__all__ if not hasattr(koszul, name)]
    assert not missing, "unresolved __all__ entries: " + ", ".join(missing)
    modules = [name for name in koszul.__all__
               if isinstance(getattr(koszul, name), ModuleType)]
    assert not modules, "submodules in __all__: " + ", ".join(modules)


# A fresh interpreter: pytest has loaded dataclasses and more by now.  The
# modules that `import koszul.cli` itself adds are compared, so a site hook
# that loads one of them on its own proves nothing either way.
FOOTPRINT = """
import sys
before = set(sys.modules)
import koszul.cli
print(sorted({"dataclasses", "inspect", "fractions", "decimal", "argparse", "gettext", "locale"}
             & (set(sys.modules) - before)))
from koszul.linalg import Coefficients
q = Coefficients.rationals()
print("fractions" in sys.modules, repr(q.inv(q.normalize(6)) + q.one))
"""


def test_command_line_import_loads_no_dataclasses_or_fractions():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", FOOTPRINT], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "True Fraction(7, 6)"]
