"""Every end-to-end and per-layer metric of every workload, in one table.

Usage (from the root of a checkout):

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs ``run.py`` once untraced and once traced per workload, one run at a
time, and prints each metric by name and unit with one column per workload.
Exits 1 if any run was not correct.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=60)
    args = parser.parse_args()
    rows: dict[str, dict[str, str]] = {"failed_frac": {}}
    units: dict[str, str] = {"failed_frac": "ratio"}
    tally = {name: [0, 0] for name in WORKLOADS}  # failed, attempted
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            got = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)], capture_output=True, text=True)
            sys.stderr.write(got.stderr)
            lines = got.stdout.strip().splitlines()
            if got.returncode or not lines:
                print(f"{name} trace {trace}: run failed", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            tally[name][0] += result["failed"]
            tally[name][1] += result["attempted"]
            rows["failed_frac"][name] = f"{tally[name][0] / tally[name][1]:.3g}"
            for metric, m in result["metrics"].items():
                rows.setdefault(metric, {})[name] = f"{m['value']:.6g}"
                units[metric] = m["unit"]
    print(f"{'metric':36s} {'unit':6s} " + " ".join(f"{n:>17s}" for n in WORKLOADS))
    for metric, row in rows.items():
        cells = [row.get(n, "-") for n in WORKLOADS]
        print(f"{metric:36s} {units[metric]:6s} " + " ".join(f"{c:>17s}" for c in cells))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
