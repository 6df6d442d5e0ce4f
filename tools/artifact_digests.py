"""One sha256 per CLI run over everything the run produces.

Usage, from any directory:

    python3 tools/artifact_digests.py > digests.txt

Runs each command of COMMANDS on every spec in the checkout's ``specs/``
and on NONREGULAR, each command line of UNPARSABLE once, and TOR_POWER, a
library call that no command makes, on each of FIELD_SPECS, each in a fresh
interpreter that imports ``koszul`` from the checkout's ``src/``.  A run
happens in an empty temporary directory holding a copy of its spec, with
relative ``--spec`` and ``--out`` paths, so nothing in its output depends on
where the checkout lives.  Each output line is

    <sha256>  <spec file>  <command>

where the digest covers the exit code, stdout, stderr and the name and bytes
of every file the run wrote.  Diffing the output of two checkouts shows
whether they behave byte for byte alike.
"""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = (
    ("check-regular",),
    ("tor",),
    ("tower", "s=2"),
    ("tower", "s=3"),
    ("exactness",),
    ("complete",),
    ("e2",),
    ("cotor",),
    ("cotor", "primitives=1,3"),
    # its own window, with t_min > 0: the resolution is built from degree 0
    # through t_max and its ranks are read off at the window's degrees
    ("cotor", "primitives=1,3,5", "--window", "4,14,4,4"),
    # the benchmark's cotor size, over the coefficients of every spec: the
    # minimal resolution over F2, F3 and Q, and over Q realized over Z
    ("cotor", "primitives=1,3,5,7", "--window", "0,18,5,4"),
    # a window that drops letters: 25 of the 63 products of primitives have
    # degree past 20, so the d^1 that cotor reads has 38 letters
    ("cotor", "primitives=1,3,5,7,9,11", "--window", "0,20,6,4"),
)

# command lines that fail to parse, so that a parse error's exit code and
# stderr are covered; each is run once, with the NONREGULAR spec
UNPARSABLE = (
    ("cotor", "--jobs", "0"),
    ("tower", "s=3", "--window", "0,x,3,4"),
)

# a spec whose sequence is not regular, so that the commands which need a
# regular one exit 1 and write witness.json; kept out of specs/, which holds
# the examples the package ships
NONREGULAR = ("nonregular_f2.spec", """\
[ring]
coefficients = F2
generators = x1:2, x2:4

[ideal]
entry = x1
entry = x1

[window]
t_min = 0
t_max = 12
s_max = 3
stage_max = 4
""")

# specs whose own window is too large for a quick run of every command
WINDOWS = {"example_b.spec": "0,14,6,4"}

# the report text of tor_against_power, which keeps homology coordinates,
# on the specs with an ideal over a field
TOR_POWER = ("tor_against_power s=2", """\
import sys
from koszul.specfile import parse_spec
from koszul.tower import tor_against_power
spec = parse_spec(open(sys.argv[1]).read())
try:
    print(tor_against_power(spec.ring, spec.ideal, 2))
except Exception as err:  # a traceback would name the checkout's path
    sys.exit(f"{type(err).__name__}: {err}")
""")
FIELD_SPECS = ("diagonal_f2.spec", "diagonal_f3.spec", "principal_f2.spec",
               "rational_pair.spec")


def run_digest(root: Path, spec: Path, command: tuple[str, ...]) -> str:
    """sha256 of one run of ``koszul <command> --spec <spec>`` from root."""
    args = ["-m", "koszul.cli", *command, "--spec", spec.name, "--out", "out"]
    if spec.name in WINDOWS:
        args += ["--window", WINDOWS[spec.name]]
    return _digest(root, spec, args)


def _digest(root: Path, spec: Path, args: list[str]) -> str:
    """sha256 of one run of ``python <args>`` next to a copy of spec."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / spec.name).write_bytes(spec.read_bytes())
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        done = subprocess.run([sys.executable, *args], cwd=work, env=env,
                              capture_output=True)
        h = hashlib.sha256()
        for part in (str(done.returncode).encode(), done.stdout, done.stderr):
            h.update(len(part).to_bytes(8, "big") + part)
        out = work / "out"
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            for part in (path.relative_to(out).as_posix().encode(), path.read_bytes()):
                h.update(len(part).to_bytes(8, "big") + part)
        return h.hexdigest()


def digest_lines(root: Path, specs: list[Path]):
    for spec in specs:
        for command in COMMANDS:
            yield f"{run_digest(root, spec, command)}  {spec.name}  {' '.join(command)}"
        if spec.name in FIELD_SPECS:
            label, script = TOR_POWER
            yield f"{_digest(root, spec, ['-c', script, spec.name])}  {spec.name}  {label}"


def unparsable_lines(root: Path, spec: Path):
    for command in UNPARSABLE:
        yield f"{run_digest(root, spec, command)}  {spec.name}  {' '.join(command)}"


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        nonregular = Path(tmp) / NONREGULAR[0]
        nonregular.write_text(NONREGULAR[1])
        specs = sorted((ROOT / "specs").glob("*.spec")) + [nonregular]
        for lines in (digest_lines(ROOT, specs), unparsable_lines(ROOT, nonregular)):
            for line in lines:
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
