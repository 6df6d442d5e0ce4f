"""tools/step_probe.py: two checkouts side by side in one interpreter, and
the fresh-process import and first main call of each."""
import importlib.util
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("step_probe", ROOT / "tools" / "step_probe.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_copies_of_the_source_at_the_smoke_windows(tmp_path):
    tool = _tool()
    roots = {}
    for side in ("parent", "change"):
        root = roots[side] = tmp_path / side
        shutil.copytree(ROOT / "src" / "koszul", root / "src" / "koszul")
        (root / "perfbench").mkdir()
        shutil.copy(ROOT / "perfbench" / "workloads.py", root / "perfbench")
    work = tmp_path / "work"
    work.mkdir()
    loaded = set(sys.modules)
    try:
        report = tool.probe(roots, work, seed=0, rounds=2, smoke=True)
        for side in roots:  # each side runs its own copy
            module = sys.modules[f"koszul_{side}.linalg"]
            assert Path(module.__file__).is_relative_to(roots[side])
    finally:
        for name in set(sys.modules) - loaded:
            del sys.modules[name]
    assert [entry["step"] for entry in report] == ["tower-f2", "cobar-f2", "tower-z", "complete-b"]
    for entry in report:
        assert entry["same_output"] and entry["smoke"] and entry["rounds"] == 2
        assert all(len(runs) == 2 and min(runs) > 0 for runs in entry["runs_ms"].values())
        assert re.fullmatch(r"[0-2]/2", entry["change_lower_in_rounds"])
        assert entry["ratio"] > 0
    assert tool.describe(report[0]).startswith("tower-f2: parent ")
    assert tool.describe(report[0]).endswith(", same output True")


def test_fresh_process_import_of_each_side(tmp_path):
    tool = _tool()
    roots = {}
    for side in ("parent", "change"):
        roots[side] = tmp_path / side
        shutil.copytree(ROOT / "src" / "koszul", roots[side] / "src" / "koszul")
    (roots["parent"] / "perfbench").mkdir()
    shutil.copy(ROOT / "perfbench" / "workloads.py", roots["parent"] / "perfbench")
    work = tmp_path / "work"
    work.mkdir()
    # a side that cannot import, or whose main fails, is an error, not a time
    cli = roots["change"] / "src" / "koszul" / "cli.py"
    cli.write_text("raise ImportError\n")
    with pytest.raises(subprocess.CalledProcessError):
        tool.import_times(roots, work, rounds=1)
    cli.write_text("def main(argv):\n    return 2\n")
    with pytest.raises(subprocess.CalledProcessError):
        tool.import_times(roots, work, rounds=1)
    shutil.copy(ROOT / "src" / "koszul" / "cli.py", cli)
    entries = tool.import_times(roots, work, rounds=2)
    assert [entry["step"] for entry in entries] == ["import koszul.cli", "first main call"]
    for entry in entries:
        assert entry["rounds"] == 2
        assert all(len(runs) == 2 and min(runs) > 0 for runs in entry["runs_ms"].values())
        assert re.fullmatch(r"[0-2]/2", entry["change_lower_in_rounds"])
        assert "same output" not in tool.describe(entry)
    assert tool.describe(entries[0]).startswith("import koszul.cli: parent ")
    assert tool.describe(entries[1]).startswith("first main call: parent ")
    # the call ran the first step's smoke invocation and wrote its artifacts
    assert (work / "out-tower-f2" / "tower_s3.csv").is_file()
