"""Run the benchmark on two commits as alternating pairs and summarize them.

Usage:

    python3 tools/bench_pairs.py PARENT CHANGE --scratch DIR \\
        [--workload W ...] [--seed N] [--pairs N] [--seconds S] [--trace]

PARENT and CHANGE are git revisions; to measure uncommitted work, pass the
commit that ``git stash create`` prints.  Both are exported with
``git archive`` into the sibling directories DIR/parent and DIR/change,
made the same way and with paths of the same length, because peak RSS
moves with where a checkout lives.  It also moves with which of the two
directories is made first, by a few tenths of a MB, whatever code it
holds; so both are exported afresh before every pair, and the side whose
directory is made first alternates every two pairs.  Each side then runs
its own ``perfbench/run.py --trace 0`` once per pair; the side that runs
first alternates between pairs, so over four pairs each side is made first
and runs first in every combination.  With ``--trace`` each side adds one
traced run per workload after the pairs.

The last line of standard output is one JSON list with an entry per
workload in the layout of the ``BENCH_*.json`` files: per metric, the runs
of each side with their median and quartiles (``statistics.quantiles``,
n=4), the pairs in which the change read lower, the median ratio and the
parent's interquartile range.  Each metric also carries the bound that the
parent's ``BENCHMARK.json`` sets on it, whether the change's median is
within it (change <= parent * (1 + bound)), and whether it is unresolved:
the parent's interquartile range over its median exceeds the bound.  Each
entry records ``PYTHONDONTWRITEBYTECODE`` and ``PYTHONPYCACHEPREFIX`` as
the runs inherit them, since writing bytecode or not moves peak RSS.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
BYTECODE_ENV = ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")


def export(rev: str, dest: Path) -> str:
    """A fresh ``git archive`` export of rev at dest; returns the full hash."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", rev + "^{commit}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                             capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return commit


def bench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run in the export at root; its JSON line."""
    got = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", str(trace)],
                         cwd=root, capture_output=True, text=True)
    if got.returncode != 0:
        raise SystemExit(f"perfbench failed in {root}:\n{got.stderr}")
    return json.loads(got.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def compare(runs: dict[str, list[dict]], bounds: dict[str, float]) -> dict:
    """Per end-to-end metric (all lower-is-better): both sides' runs,
    quartiles, the pairs the change won, the median ratio, and the
    metric's bound with the verdicts it gives."""
    out = {}
    for name in END_TO_END:
        sides = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        parent, change = summary(sides["parent"]), summary(sides["change"])
        lower = sum(c < p for p, c in zip(sides["parent"], sides["change"]))
        iqr, bound = parent["q3"] - parent["q1"], bounds.get(name)
        out[name] = {"parent": parent, "change": change,
                     "change_lower_in_pairs": f"{lower}/{len(sides['parent'])}",
                     "median_ratio": round(change["median"] / parent["median"], 4),
                     "parent_iqr": iqr, "bound": bound,
                     "within_bound": None if bound is None
                     else change["median"] <= parent["median"] * (1 + bound),
                     "unresolved": None if bound is None else iqr / parent["median"] > bound}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--scratch", type=Path, required=True,
                        help="directory that receives the two exports")
    parser.add_argument("--workload", action="append",
                        help="workload name (repeatable; default: every workload)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", action="store_true",
                        help="add one traced run per side and workload")
    args = parser.parse_args(argv)
    roots = {side: args.scratch.resolve() / side for side in SIDES}
    revs = dict(zip(SIDES, (args.parent, args.change)))

    def export_both(first: str) -> dict[str, str]:  # first's directory is made first
        return {side: export(revs[side], roots[side])
                for side in (first, *(s for s in SIDES if s != first))}
    commits = export_both(SIDES[0])
    declared = json.loads((roots["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in declared["workloads"]]
    bounds = {m["name"]: m["bound"] for m in declared.get("end_to_end", []) if "bound" in m}
    environment = {name: os.environ.get(name) for name in BYTECODE_ENV}
    report = []
    for workload in workloads:
        runs: dict[str, list[dict]] = {side: [] for side in SIDES}
        first, made_first = [], []
        for i in range(args.pairs):
            made_first.append(SIDES[i // 2 % 2])
            export_both(made_first[-1])
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            first.append(order[0])
            for side in order:
                runs[side].append(bench(roots[side], workload, args.seed, args.seconds, 0))
            print(f"{workload} seed {args.seed} pair {i + 1}/{args.pairs}: " + ", ".join(
                f"{side} {runs[side][-1]['metrics']['wall_s']['value']:.4f} s"
                for side in SIDES), file=sys.stderr, flush=True)
        entry = {
            "workload": workload, "seed": args.seed, "pairs": args.pairs,
            "run_seconds": args.seconds, "commits": commits,
            "failed_frac": {side: [r["failed"] / r["attempted"] for r in runs[side]]
                            for side in SIDES},
            "samples_per_run": {side: [r["attempted"] for r in runs[side]] for side in SIDES},
            "first_in_pair": first, "exported_first_in_pair": made_first,
            "environment": environment, "metrics": compare(runs, bounds),
        }
        if args.trace:
            traced = {side: bench(roots[side], workload, args.seed, args.seconds / 2, 1)
                      for side in SIDES}
            entry["traced_per_layer"] = {
                name: {side: traced[side]["metrics"].get(name, {}).get("value")
                       for side in SIDES}
                for name in traced["parent"]["metrics"]}
        report.append(entry)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
