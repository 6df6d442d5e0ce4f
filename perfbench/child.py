"""One benchmark sample: a fresh interpreter that imports ``koszul`` from the
checkout, calls ``koszul.cli.main`` once, and reports its timings.

Usage: python3 perfbench/child.py JOB.json

JOB.json holds ``src`` (the directory that contains the ``koszul`` package),
``argv`` (arguments for ``main``), ``result`` (where to write the timings)
and ``spans`` (where to write the trace, or null for an untraced run).  The
result records the monotonic clock just before ``main`` is called, so the
parent can subtract its own clock reading taken just before the spawn.
"""
import json
import resource
import sys
import time
import traceback


def peak_rss_kib() -> int:
    """Peak RSS of this process since its exec, or of any worker it waited
    for.  The rusage a parent gets from wait4 is no good here: Linux carries
    the pre-exec high-water mark of the forked image (the parent's size)
    into the child's ru_maxrss."""
    with open("/proc/self/status", encoding="ascii") as fh:
        own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def run(job: dict) -> int:
    sys.path.insert(0, job["src"])
    import koszul.cli

    tracer = None
    if job["spans"] is not None:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    error = None
    entry_ns = time.monotonic_ns()
    try:
        code = koszul.cli.main(job["argv"])
    except Exception:  # an internal fault is a failed sample, not a crash
        code, error = None, traceback.format_exc()
    exit_ns = time.monotonic_ns()
    if tracer is not None:
        tracer.dump(job["spans"])
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump({"code": code, "error": error, "entry_ns": entry_ns,
                   "exit_ns": exit_ns, "peak_rss_kib": peak_rss_kib(),
                   "module": koszul.cli.__file__}, fh)
    return 0 if code == 0 else 1


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        sys.exit(run(json.load(fh)))
