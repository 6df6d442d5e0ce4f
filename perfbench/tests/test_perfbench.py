"""Tests of the benchmark itself: the correctness gate, seeded inputs, the
trace's derived metrics, and that traced counts repeat exactly.

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import LAYER_METRICS, layer_metrics  # noqa: E402
from workloads import STEPS, WORKLOADS  # noqa: E402

COUNT_METRICS = [name for name, unit in LAYER_METRICS if unit != "s"]


def _work(name):
    work = run.WORK / "tests" / name
    work.mkdir(parents=True, exist_ok=True)
    return work


def _step(name, seed=0, spec_text=None):
    return run.run_step(STEPS[name], seed, _work(name), False, time.monotonic() + 120,
                        smoke=True, spec_text=spec_text)


def _sample(name, seed=0, traced=False):
    return run.sample(WORKLOADS[name], seed, _work(name), traced, time.monotonic() + 240,
                      smoke=True)


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    layers = [*LAYER_METRICS, ("trace.overhead_frac", "ratio")]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers


def test_non_regular_sequence_is_a_failed_sample():
    # negative control: x1 twice is not a regular sequence, so the CLI must
    # exit 1 and the sample must fail rather than count as a fast run
    text, _ = STEPS["tower-f2"].invocation(0, smoke=True)
    bad = text.replace("entry = x2", "entry = x1")
    assert bad != text
    got = _step("tower-f2", spec_text=bad)
    assert not got["ok"]
    assert got["reason"] == "exit code 1"


def test_wrong_artifact_is_a_failed_sample():
    # a valid spec whose table differs from the pinned one (x4 dropped)
    text, _ = STEPS["tower-f2"].invocation(0, smoke=True)
    got = _step("tower-f2", spec_text=text.replace("entry = x4\n", ""))
    assert not got["ok"]
    assert got["reason"].startswith("artifact digests differ")


@pytest.mark.parametrize("name", list(STEPS))
def test_seeds_keep_artifacts_identical(name):
    for seed in (0, 11):
        got = _step(name, seed)
        assert got["ok"], got["reason"]


def test_sample_adds_up_its_steps():
    got = _sample("f2-tower-cobar")
    assert got["ok"], got["reason"]
    steps = got["steps"]
    assert [s["step"] for s in steps] == ["tower-f2", "cobar-f2"]
    assert got["wall_s"] == pytest.approx(sum(s["wall_s"] for s in steps))
    assert got["setup_s"] == pytest.approx(sum(s["setup_s"] for s in steps))
    assert got["peak_rss_mb"] == max(s["peak_rss_mb"] for s in steps)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    first = _sample(name, traced=True)
    second = _sample(name, traced=True)
    assert first["ok"] and second["ok"], (first["reason"], second["reason"])
    a, b = first["layers"], second["layers"]
    assert not first["missing"]
    for metric in COUNT_METRICS:
        assert a[metric] == b[metric], metric
    assert {k: v for k, v in a.items() if k.endswith(".calls")} == \
        {k: v for k, v in b.items() if k.endswith(".calls")}
    assert run.stale_layers(WORKLOADS[name], a) == []


def test_self_times_and_nesting():
    ms = 1_000_000
    spans = [
        ["cli.main", 0, 100 * ms, -1, None, 0],
        ["complexes.homology_ranks", 10 * ms, 60 * ms, 0, None, 0],
        ["linalg.rational_rank", 12 * ms, 30 * ms, 1,
         {"cells": 6, "key": 7}, 0],
        ["linalg.rank_field", 13 * ms, 29 * ms, 2, {"cells": 6, "key": 8}, 0],
        ["linalg.snf", 30 * ms, 40 * ms, 1, {"cells": 6, "key": 7}, 2 * ms],
    ]
    got = layer_metrics(spans, [])
    assert got["cli.self_s"] == pytest.approx(0.050)
    assert got["complexes.homology_ranks.s"] == pytest.approx(0.022)
    assert got["linalg.rational_rank.s"] == pytest.approx(0.018)
    # rank_over_field inside rational_rank is not a reduction of its own
    assert got["linalg.rank_field.calls"] == 0
    assert got["linalg.snf.calls"] == 1
    assert got["linalg.snf.cells"] == 6
    assert got["linalg.reductions_per_matrix"] == 2.0
    assert got["linalg.compose.useful_frac"] == 0.0


def test_metric_of_a_removed_function_is_absent():
    got = layer_metrics([], ["koszul.linalg.rational_rank"])
    assert "linalg.rational_rank.s" not in got
    assert got["linalg.reductions_per_matrix"] == 0.0
    assert got["linalg.snf.calls"] == 0


def test_stale_wrapper_is_reported():
    layers = {name: 1 for name in WORKLOADS["z-tower-complete"].exercises}
    layers["linalg.snf.calls"] = 0
    assert run.stale_layers(WORKLOADS["z-tower-complete"], layers) == ["linalg.snf.calls"]


def test_fails_without_the_program():
    # a directory holding only BENCHMARK.json and the benchmark
    bare = run.WORK / "tests" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    got = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "f2-tower-cobar",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=bare, capture_output=True, text=True, timeout=60)
    assert got.returncode != 0
    assert '"correct"' not in got.stdout
