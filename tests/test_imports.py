"""Every name a koszul module imports is used in that module.

A stdlib-only stand-in for a linter's unused-import rule: each module under
src/koszul/ except the package's re-exporting __init__.py is parsed with
ast, and an imported name counts as used when the module reads it somewhere:
a Name in Load context.  A Store target of the same name (a local variable
called `field`, say) does not count.  The package's __all__ names every
public object it re-exports and no submodule, and none of them that takes a
ring first takes a window too: a ring carries its own.  Importing the command line
loads neither dataclasses nor fractions, nor what they import, and no
argparse, gettext or locale: the command line is parsed without them.
A `cotor` run over Z does not load fractions either: its resolution
eliminates on integers.
"""
import ast
import inspect
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


def _parameters():
    """Parameter names of each function in __all__ and of each method,
    __init__ included, of the classes in it; self is dropped."""
    for name in koszul.__all__:
        obj = getattr(koszul, name)
        if inspect.isfunction(obj):
            yield name, list(inspect.signature(obj).parameters)
        elif inspect.isclass(obj):
            for attr, fn in vars(obj).items():
                if inspect.isfunction(fn):
                    yield f"{name}.{attr}", list(inspect.signature(fn).parameters)[1:]


def test_what_takes_a_ring_takes_no_window():
    # a ring-level computation runs on ring.window (RingSpec.neg_bound cuts
    # Laurent exponents by it), so a second window could only disagree with
    # it; homology_ranks reads its complex's.  FreeComplex.realize keeps its
    # window: a cobar complex is realized on one that is not its base ring's
    params = dict(_parameters())
    on_a_ring = [name for name, names in params.items() if names[:1] == ["ring"]]
    assert {"check_regular_sequence", "completion_tower", "QuotientModule.__init__"} <= set(
        on_a_ring)
    # a SpecFile records a parsed file's sections; its ring may be absent
    offenders = [name for name in on_a_ring + ["homology_ranks"]
                 if "window" in params[name] and name != "SpecFile.__init__"]
    assert not offenders, "window parameters: " + ", ".join(offenders)
    assert "window" in params["FreeComplex.realize"]


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


def _fresh(code: str, *args: str) -> list[str]:
    """The lines that code prints in a fresh interpreter that imports this
    checkout's koszul; args become sys.argv[1:]."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_command_line_import_loads_no_dataclasses_or_fractions():
    assert _fresh(FOOTPRINT) == ["[]", "True Fraction(7, 6)"]


Z_COTOR = """
import sys
before = set(sys.modules)
from koszul.cli import main
code = main(["cotor", "primitives=1,3,5", "--spec", sys.argv[1], "--out", sys.argv[2]])
print(code, "fractions" in sys.modules, "fractions" in before)  # last, after the report
"""


def test_a_z_cotor_run_loads_no_fractions(tmp_path):
    spec = tmp_path / "z.spec"
    spec.write_text("[ring]\ncoefficients = Z\ngenerators =\n\n"
                    "[window]\nt_min = 0\nt_max = 12\ns_max = 4\nstage_max = 4\n")
    assert _fresh(Z_COTOR, str(spec), str(tmp_path / "run"))[-1] == "0 False False"
