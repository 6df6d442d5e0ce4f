"""tools/artifact_digests.py: one digest per CLI run, the same on every run."""
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("artifact_digests",
                                                  ROOT / "tools" / "artifact_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_line_per_command_and_repeatable():
    tool = _tool()
    spec = ROOT / "specs" / "principal_f2.spec"
    lines = list(tool.digest_lines(ROOT, [spec]))
    assert [line.split("  ", 2)[1:] for line in lines] == [
        ["principal_f2.spec", " ".join(command)] for command in tool.COMMANDS]
    digests = [line.split("  ")[0] for line in lines]
    assert all(re.fullmatch(r"[0-9a-f]{64}", d) for d in digests)
    assert len(set(digests)) == len(digests)  # no two commands' outputs coincide
    assert tool.run_digest(ROOT, spec, tool.COMMANDS[0]) == digests[0]
