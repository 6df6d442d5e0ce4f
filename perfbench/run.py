"""Benchmark of the ``koszul`` command line, one fresh interpreter per sample.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The load is a closed loop with one client: samples run one at a time, and
the next starts when the previous one has ended, until ``--seconds`` have
passed.  A sample runs the workload's steps in turn, each a new ``python3``
process calling ``koszul.cli.main`` once with ``--jobs 1``.  Each sample is
gated on correctness: a nonzero exit, an exception, or a CSV/SVG artifact
whose sha256 differs from ``digests.json`` in any step makes it a failed
sample, kept out of the medians.

``--trace 0`` reports the end-to-end metrics (medians over the good samples).
``--trace 1`` alternates untraced and traced samples and reports the
per-layer metrics of the traced ones plus ``trace.overhead_frac``.  The last
line of standard output is one JSON object; a results file with provenance
and every raw sample goes to ``.perfbench/results/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
RUN_LIMIT_S = 170  # every run exits well inside the 180 s a run may take

sys.path.insert(0, str(HERE))
from tracing import LAYER_METRICS, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
DIGESTS = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_step(step, seed: int, work: Path, traced: bool, deadline: float,
             smoke: bool = False, spec_text: str | None = None) -> dict:
    """Run one CLI invocation in a fresh process and check its artifacts.

    ``spec_text`` replaces the step's generated spec (used by the tests'
    negative control); the digests of the step still apply.
    """
    text, extra = step.invocation(seed, smoke)
    if spec_text is not None:
        text = spec_text
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    spec = work / "input.spec"
    spec.write_text(text, encoding="utf-8")
    job = {
        "src": str(SRC),
        "argv": [*step.command, *extra, "--spec", str(spec),
                 "--out", str(out), "--jobs", "1"],
        "result": str(work / "result.json"),
        "spans": str(work / "spans.json") if traced else None,
    }
    for name in ("result", "spans"):
        if job[name] is not None:
            Path(job[name]).unlink(missing_ok=True)
    job_path = work / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    record = {"step": step.name, "ok": False, "reason": ""}
    with open(work / "child.log", "wb") as log:
        spawn_ns = time.monotonic_ns()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(job_path)],
                                stdout=log, stderr=log, cwd=str(work))
        try:
            proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            record["reason"] = "timeout"
    record["exit"] = proc.returncode
    if record["reason"]:
        return record
    try:
        result = json.loads(Path(job["result"]).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        record["reason"] = "no result: " + (work / "child.log").read_text(
            encoding="utf-8", errors="replace")[-2000:]
        return record
    record["setup_s"] = (result["entry_ns"] - spawn_ns) / 1e9
    record["peak_rss_mb"] = result["peak_rss_kib"] / 1024.0
    record["wall_s"] = (result["exit_ns"] - result["entry_ns"]) / 1e9
    if result["error"]:
        record["reason"] = "exception: " + result["error"]
        return record
    if result["code"] != 0 or proc.returncode != 0:
        record["reason"] = f"exit code {result['code']}"
        return record
    if not Path(result["module"]).resolve().is_relative_to(SRC):
        record["reason"] = f"imported koszul from {result['module']}, not {SRC}"
        return record
    expected = DIGESTS[step.name]["smoke" if smoke else "full"]
    got = {name: _sha256(out / name) if (out / name).is_file() else None
           for name in step.artifacts}
    if got != expected:
        record["reason"] = f"artifact digests differ: {got}"
        return record
    record["ok"] = True
    if traced:
        trace = json.loads(Path(job["spans"]).read_text(encoding="utf-8"))
        record["spans"], record["missing"] = trace["spans"], trace["missing"]
    return record


def sample(workload, seed: int, work: Path, traced: bool, deadline: float,
           smoke: bool = False) -> dict:
    """One sample: every step of the workload, one after the other.

    ``wall_s`` and ``setup_s`` add up over the steps, ``peak_rss_mb`` is the
    largest step's.  The sample fails with its first failed step.  A traced
    sample's layer metrics come from the steps' spans taken together.
    """
    record = {"seed": seed, "traced": traced, "ok": False, "reason": "", "steps": []}
    spans: list[list] = []
    missing: set[str] = set()
    for step in workload.steps:
        got = run_step(step, seed, work, traced, deadline, smoke)
        record["steps"].append({k: v for k, v in got.items() if k not in ("spans", "missing")})
        if not got["ok"]:
            record["reason"] = f"{step.name}: {got['reason']}"
            return record
        if traced:
            # parents are indices into one step's list: shift them past the
            # spans of the steps before
            offset = len(spans)
            spans += [[*s[:3], s[3] + offset if s[3] >= 0 else -1, *s[4:]]
                      for s in got["spans"]]
            missing.update(got["missing"])
    steps = record["steps"]
    record.update(ok=True, wall_s=sum(s["wall_s"] for s in steps),
                  setup_s=sum(s["setup_s"] for s in steps),
                  peak_rss_mb=max(s["peak_rss_mb"] for s in steps))
    if traced:
        record["layers"] = layer_metrics(spans, sorted(missing))
        record["missing"] = sorted(missing)
    return record


def stale_layers(workload, layers: dict) -> list[str]:
    """Counters the workload must move that read zero although their
    function is still wrapped: the wrapper was bypassed by a stale name."""
    return [name for name in workload.exercises
            if name in layers and not layers[name]]


def _median(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def end_to_end(good: list[dict]) -> dict:
    return {name: {"value": _median(good, name), "unit": unit}
            for name, unit in END_TO_END}


def per_layer(good_traced: list[dict], good_plain: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics: medians of the times, counts that must repeat exactly."""
    problems = []
    first = good_traced[0]["layers"]
    units = dict(LAYER_METRICS)
    for other in good_traced[1:]:
        for name, value in other["layers"].items():
            if units.get(name) != "s" and value != first.get(name):
                problems.append(f"count {name} differs between traced samples: "
                                f"{first.get(name)} vs {value}")
    metrics = {}
    for name, unit in LAYER_METRICS:
        if name not in first:
            continue  # the wrapped function no longer exists: absent, not 0
        value = (statistics.median(s["layers"][name] for s in good_traced)
                 if unit == "s" else first[name])
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.overhead_frac"] = {
        "value": _median(good_traced, "wall_s") / _median(good_plain, "wall_s"),
        "unit": "ratio"}
    return metrics, problems


def provenance(args) -> dict:
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = got.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "koszul").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit, "source_sha256": digest.hexdigest(),
        "python": sys.version.split()[0], "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "started_utc": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "loadavg_before": os.getloadavg(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "koszul" / "cli.py").is_file():
        print(f"error: no koszul package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    info = provenance(args)
    # compile the package's bytecode outside the measurement: installed users
    # do not pay it on every run
    warm = subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                           "import koszul.cli", str(SRC)], capture_output=True, text=True)
    if warm.returncode != 0:
        print(f"error: cannot import koszul:\n{warm.stderr}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    samples: list[dict] = []
    while not samples or time.monotonic() - started < args.seconds:
        if time.monotonic() > deadline:
            break
        samples.append(sample(workload, args.seed, work, False, deadline))
        if args.trace:
            samples.append(sample(workload, args.seed, work, True, deadline))
    shutil.rmtree(work, ignore_errors=True)
    info["loadavg_after"] = os.getloadavg()

    good = [s for s in samples if s["ok"]]
    failed = len(samples) - len(good)
    problems = [f"sample {i}: {s['reason']}" for i, s in enumerate(samples) if not s["ok"]]
    metrics: dict = {}
    plain = [s for s in good if not s["traced"]]
    traced = [s for s in good if s["traced"]]
    if args.trace and plain and traced:
        metrics, more = per_layer(traced, plain)
        problems += more
        stale = stale_layers(workload, traced[0]["layers"])
        problems += [f"{name} recorded no calls; a wrapper went stale" for name in stale]
    elif not args.trace and plain:
        metrics = end_to_end(plain)
    correct = failed == 0 and bool(metrics) and not problems

    info.update(samples=samples, failed_frac=failed / len(samples), metrics=metrics,
                problems=problems)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(info, indent=1) + "\n", encoding="utf-8")

    for problem in problems:
        print(f"FAILED {problem[:500]}", file=sys.stderr)
    n_plain, n_traced = len(plain), len(traced)
    print(f"workload {args.workload} seed {args.seed}: {len(samples)} samples "
          f"attempted, {failed} failed (failed_frac {failed / len(samples):.3f}); "
          f"medians over {n_traced if args.trace else n_plain} good "
          f"{'traced ' if args.trace else ''}samples; results in "
          f"{path.relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(samples), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
