"""Time every benchmark step of two commits in one interpreter, alternating.

Usage:

    python3 tools/step_probe.py PARENT CHANGE --scratch DIR \\
        [--seed N] [--rounds N] [--smoke]

PARENT and CHANGE are git revisions (for uncommitted work, the commit that
``git stash create`` prints), exported with ``git archive`` into
DIR/parent and DIR/change as ``tools/bench_pairs.py`` does.  The ``koszul``
package of each export is imported side by side in this interpreter, as
``koszul_parent`` and ``koszul_change``.  Each round runs every step once
per side through that side's ``cli.main``, on the spec and arguments that
the parent's ``perfbench/workloads.py`` generates; the side that runs first
alternates between rounds.  A fresh process per run, as the benchmark
takes, also pays for the interpreter and the import, and on a machine whose
speed drifts between runs that spread can hide a step's change; here both
sides share one process and run side by side.

Before the steps, the same number of alternating rounds times what every
benchmark sample pays that the steps above do not show: one fresh
``python3`` per side and round imports ``koszul.cli`` from that side's
``src/`` and then calls its ``main`` once, on the first step's smoke
invocation, with this process's environment (``PYTHONDONTWRITEBYTECODE`` as
the caller set it).  That first call pays for what ``main`` sets up on first
use, which the in-process rounds pay only once per side and then hide.

Standard error gets one line for the import, one for the first main call
and one per step: both medians in ms, their ratio, the rounds in which the
change read lower and, for a step, whether both sides printed the same text
with the same exit code.
The last line of standard output is the same as one JSON list.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import SIDES, export  # noqa: E402


def load_module(name: str, path: Path, package_dir: Path | None = None):
    """The module or package at path, imported under name."""
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=None if package_dir is None else [str(package_dir)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_cli(root: Path, side: str):
    """``koszul.cli`` of the checkout at root, in a package named koszul_<side>."""
    package = root / "src" / "koszul"
    load_module(f"koszul_{side}", package / "__init__.py", package)
    return importlib.import_module(f"koszul_{side}.cli")


def run_once(main, argv: list[str]) -> tuple[float, int, str]:
    """(seconds, exit code, standard output) of one main(argv)."""
    gc.collect()
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        start = time.perf_counter()
        code = main(argv)
        seconds = time.perf_counter() - start
    return seconds, code, text.getvalue()


def summarize(step: str, times: dict[str, list[float]]) -> dict:
    """Both sides' runs of one step, in seconds: medians, ratio and the
    rounds in which the change read lower."""
    medians = {side: statistics.median(times[side]) for side in SIDES}
    rounds = len(times["parent"])
    lower = sum(c < p for p, c in zip(times["parent"], times["change"]))
    return {
        "step": step, "rounds": rounds,
        "median_ms": {side: round(1000 * medians[side], 2) for side in SIDES},
        "ratio": round(medians["change"] / medians["parent"], 4),
        "change_lower_in_rounds": f"{lower}/{rounds}",
        "runs_ms": {side: [round(1000 * x, 2) for x in times[side]] for side in SIDES},
    }


FRESH = """import contextlib, io, sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import koszul.cli
imported = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = koszul.cli.main(sys.argv[2:])
print(imported - start, time.perf_counter() - imported)
sys.exit(code)
"""


def load_workloads(roots: dict[str, Path]):
    """The parent's ``perfbench/workloads.py``: both sides run its steps."""
    return load_module("perfbench_workloads", roots["parent"] / "perfbench" / "workloads.py")


def step_argv(step, work: Path, seed: int, smoke: bool) -> list[str]:
    """The arguments of one run of step, its spec file written into work."""
    text, extra = step.invocation(seed, smoke)
    spec = work / f"{step.name}.spec"
    spec.write_text(text, encoding="utf-8")
    return [*step.command, *extra, "--spec", str(spec), "--out", str(work / f"out-{step.name}")]


def import_times(roots: dict[str, Path], work: Path, seed: int = 0,
                 rounds: int = 15) -> list[dict]:
    """Each side's fresh-process ``import koszul.cli`` time and, in the same
    process, the time of its first ``main`` call on the first step's smoke
    invocation, alternating.  A side whose import or call fails is an error."""
    first = next(iter(load_workloads(roots).STEPS.values()))
    argv = step_argv(first, work, seed, smoke=True)
    times: dict[str, dict[str, list[float]]] = {
        step: {side: [] for side in SIDES} for step in ("import koszul.cli", "first main call")}
    for r in range(rounds):
        for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
            done = subprocess.run([sys.executable, "-c", FRESH, str(roots[side] / "src"), *argv],
                                  capture_output=True, text=True, check=True)
            for step, seconds in zip(times, done.stdout.split()):
                times[step][side].append(float(seconds))
    return [summarize(step, by_side) for step, by_side in times.items()]


def describe(entry: dict) -> str:
    """The standard-error line of one entry of the report."""
    ms = entry["median_ms"]
    line = (f"{entry['step']}: parent {ms['parent']} ms, change {ms['change']} ms, "
            f"ratio {entry['ratio']}, change lower in {entry['change_lower_in_rounds']}")
    return line + (f", same output {entry['same_output']}" if "same_output" in entry else "")


def probe(roots: dict[str, Path], work: Path, seed: int = 0, rounds: int = 15,
          smoke: bool = False) -> list[dict]:
    """Per step: both sides' run times, medians and the rounds the change won."""
    mains = {side: load_cli(roots[side], side).main for side in SIDES}
    report = []
    for name, step in load_workloads(roots).STEPS.items():
        argv = step_argv(step, work, seed, smoke)
        times: dict[str, list[float]] = {side: [] for side in SIDES}
        outputs = {}
        for r in range(rounds):
            for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
                seconds, code, out = run_once(mains[side], argv)
                times[side].append(seconds)
                outputs.setdefault(side, (code, out))
        report.append({**summarize(name, times), "seed": seed, "smoke": smoke,
                       "same_output": outputs["parent"] == outputs["change"]})
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--scratch", type=Path, required=True,
                        help="directory that receives the two exports")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--smoke", action="store_true",
                        help="use each step's small smoke window")
    args = parser.parse_args(argv)
    scratch = args.scratch.resolve()
    roots = {side: scratch / side for side in SIDES}
    for side, rev in zip(SIDES, (args.parent, args.change)):
        export(rev, roots[side])
    work = scratch / "probe"
    work.mkdir(exist_ok=True)
    report = [*import_times(roots, work, args.seed, args.rounds),
              *probe(roots, work, args.seed, args.rounds, args.smoke)]
    for entry in report:
        print(describe(entry), file=sys.stderr)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
