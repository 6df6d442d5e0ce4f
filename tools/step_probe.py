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
benchmark sample pays before ``main``: one fresh ``python3`` per side and
round that only imports ``koszul.cli`` from that side's ``src/``, with this
process's environment (``PYTHONDONTWRITEBYTECODE`` as the caller set it).

Standard error gets one line for the import and one per step: both medians
in ms, their ratio, the rounds in which the change read lower and, for a
step, whether both sides printed the same text with the same exit code.
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


IMPORT = """import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import koszul.cli
print(time.perf_counter() - start)
"""


def import_times(roots: dict[str, Path], rounds: int = 15) -> dict:
    """Each side's fresh-process ``import koszul.cli`` time, alternating."""
    times: dict[str, list[float]] = {side: [] for side in SIDES}
    for r in range(rounds):
        for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
            done = subprocess.run([sys.executable, "-c", IMPORT, str(roots[side] / "src")],
                                  capture_output=True, text=True, check=True)
            times[side].append(float(done.stdout))
    return summarize("import koszul.cli", times)


def describe(entry: dict) -> str:
    """The standard-error line of one entry of the report."""
    ms = entry["median_ms"]
    line = (f"{entry['step']}: parent {ms['parent']} ms, change {ms['change']} ms, "
            f"ratio {entry['ratio']}, change lower in {entry['change_lower_in_rounds']}")
    return line + (f", same output {entry['same_output']}" if "same_output" in entry else "")


def probe(roots: dict[str, Path], work: Path, seed: int = 0, rounds: int = 15,
          smoke: bool = False) -> list[dict]:
    """Per step: both sides' run times, medians and the rounds the change won."""
    workloads = load_module("perfbench_workloads",
                            roots["parent"] / "perfbench" / "workloads.py")
    mains = {side: load_cli(roots[side], side).main for side in SIDES}
    report = []
    for name, step in workloads.STEPS.items():
        text, extra = step.invocation(seed, smoke)
        spec = work / f"{name}.spec"
        spec.write_text(text, encoding="utf-8")
        argv = [*step.command, *extra, "--spec", str(spec), "--out", str(work / f"out-{name}")]
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
    report = [import_times(roots, args.rounds),
              *probe(roots, work, args.seed, args.rounds, args.smoke)]
    for entry in report:
        print(describe(entry), file=sys.stderr)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
