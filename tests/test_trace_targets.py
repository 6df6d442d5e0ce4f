"""The benchmark's trace wraps named functions of this package from outside
(perfbench/tracing.py, TARGETS) and reads counts off their operands and
results (COUNTERS).  A target that no longer resolves drops its metrics
silently in a traced run, and a counter that reads a renamed attribute fails
only in a traced run, so a rename must fail here instead.  A wrapper that
a stale module-level name bypasses records no calls; one traced smoke sample
per workload catches that here too, and checks that d after d is audited
exactly once per built complex: each realized one and each cotor
resolution."""
import functools
import importlib
import importlib.util
import time
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.cache
def _tracing():
    return _load("perfbench_tracing", PERFBENCH / "tracing.py")


@functools.cache
def _run():
    return _load("perfbench_run", PERFBENCH / "run.py")


def _targets():
    return _tracing().TARGETS


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return owner


@pytest.mark.parametrize("module_name, path, span", _targets())
def test_trace_target_resolves(module_name, path, span):
    target = _resolve(module_name, path)
    assert target is not None, f"{module_name}.{path} is gone (span {span})"
    assert callable(target)


def _small_args(span):
    """Positional arguments for one call of the target behind a span, as
    the traced program passes them (a method gets its instance first)."""
    from koszul.cotor import HopfSpec, cobar_free
    from koszul.linalg import Coefficients, Matrix
    from koszul.rings import DegreeWindow, RingSpec

    f2 = Coefficients.prime_field(2)
    m = Matrix.from_rows([[1, 2, 0], [0, 3, 6]])
    w = DegreeWindow(0, 8, 2)
    hopf = HopfSpec(RingSpec(f2, (), w), (("t1", 1), ("t2", 3)))
    return {
        "linalg.compose": (Matrix.from_rows([[1, 1]]), Matrix.from_rows([[1, 0], [1, 1]]), f2),
        "linalg.rank_field": (m, Coefficients.prime_field(5)),
        "linalg.rational_rank": (m,),
        "linalg.snf": (m,),
        "rings.monomials": (RingSpec(f2, (("x1", 2), ("x2", 4)), w), 6),
        "complexes.realize": (cobar_free(hopf, w), w),
        "cotor.cobar_free": (hopf, w),
    }[span]


@pytest.mark.parametrize("module_name, path, span",
                         [t for t in _targets() if t[2] in _tracing().COUNTERS])
def test_trace_counter_reads_its_target(module_name, path, span):
    args = _small_args(span)
    result = _resolve(module_name, path)(*args)
    counts = _tracing().COUNTERS[span](args, result)
    assert counts and all(isinstance(v, int) for v in counts.values())
    assert all(v > 0 for k, v in counts.items() if k != "key")


@pytest.mark.parametrize("name", sorted(_run().WORKLOADS))
def test_traced_smoke_sample_has_no_stale_wrapper(name, tmp_path):
    run = _run()
    workload = run.WORKLOADS[name]
    got = run.sample(workload, 0, tmp_path, traced=True,
                     deadline=time.monotonic() + 240, smoke=True)
    assert got["ok"], got["reason"]
    assert got["missing"] == []
    assert run.stale_layers(workload, got["layers"]) == []
    layers = got["layers"]
    # one audit per built complex: each realization, and each resolution
    # that cotor_ranks builds from its own columns
    assert layers["complexes.verify_differential.calls"] == (
        layers["complexes.realize.calls"] + layers["cotor.cotor_ranks.calls"])
