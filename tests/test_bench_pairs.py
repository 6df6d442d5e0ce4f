"""tools/bench_pairs.py: the bound and the verdicts it records per
end-to-end metric."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(values):
    """One run per value, every end-to-end metric reading that value."""
    return [{"metrics": {name: {"value": v} for name in ("wall_s", "setup_s", "peak_rss_mb")}}
            for v in values]


def test_each_metric_records_its_bound_and_verdicts():
    tool = _tool()
    runs = {"parent": _runs([1.0, 1.0, 1.0, 1.0]), "change": _runs([1.2, 1.2, 1.2, 1.2])}
    got = tool.compare(runs, {"wall_s": 0.25, "peak_rss_mb": 0.05})
    assert (got["wall_s"]["bound"], got["wall_s"]["within_bound"]) == (0.25, True)
    assert (got["peak_rss_mb"]["bound"], got["peak_rss_mb"]["within_bound"]) == (0.05, False)
    assert got["wall_s"]["unresolved"] is False
    # a metric the file sets no bound on gets no verdict
    assert (got["setup_s"]["bound"], got["setup_s"]["within_bound"],
            got["setup_s"]["unresolved"]) == (None, None, None)
    # quartiles 1 and 2 around a median of 1.5: a spread of 67 % hides a 25 % bound
    noisy = {"parent": _runs([1.0, 1.0, 2.0, 2.0]), "change": _runs([1.0, 1.0, 1.0, 1.0])}
    assert tool.compare(noisy, {"wall_s": 0.25})["wall_s"]["unresolved"] is True
