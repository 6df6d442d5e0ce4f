"""One sha256 per CLI run over everything the run produces.

Usage, from any directory:

    python3 tools/artifact_digests.py > digests.txt

Runs each command of COMMANDS on every spec in the checkout's ``specs/``,
each in a fresh interpreter that imports ``koszul`` from the checkout's
``src/``.  A run happens in an empty temporary directory holding a copy of
its spec, with relative ``--spec`` and ``--out`` paths, so nothing in its
output depends on where the checkout lives.  Each output line is

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
    # its own window, with t_min > 0: cotor_ranks builds only the words
    # that reach each internal degree of it
    ("cotor", "primitives=1,3,5", "--window", "4,14,4,4"),
)

# specs whose own window is too large for a quick run of every command
WINDOWS = {"example_b.spec": "0,14,6,4"}


def run_digest(root: Path, spec: Path, command: tuple[str, ...]) -> str:
    """sha256 of one run of ``koszul <command> --spec <spec>`` from root."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / spec.name).write_bytes(spec.read_bytes())
        argv = [sys.executable, "-m", "koszul.cli", *command,
                "--spec", spec.name, "--out", "out"]
        if spec.name in WINDOWS:
            argv += ["--window", WINDOWS[spec.name]]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        done = subprocess.run(argv, cwd=work, env=env, capture_output=True)
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


def main() -> int:
    for line in digest_lines(ROOT, sorted((ROOT / "specs").glob("*.spec"))):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
