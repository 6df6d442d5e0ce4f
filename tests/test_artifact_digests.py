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
        ["principal_f2.spec", " ".join(command)] for command in tool.COMMANDS
    ] + [["principal_f2.spec", tool.TOR_POWER[0]]]
    digests = [line.split("  ")[0] for line in lines]
    assert all(re.fullmatch(r"[0-9a-f]{64}", d) for d in digests)
    assert len(set(digests)) == len(digests)  # no two commands' outputs coincide
    assert tool.run_digest(ROOT, spec, tool.COMMANDS[0]) == digests[0]


def test_tor_power_runs_on_every_spec_with_an_ideal_over_a_field():
    from koszul.specfile import parse_spec

    specs = {p.name: parse_spec(p.read_text()) for p in (ROOT / "specs").glob("*.spec")}
    assert sorted(_tool().FIELD_SPECS) == sorted(
        name for name, spec in specs.items()
        if spec.ideal is not None and spec.ring.coefficients.is_field)


def test_the_nonregular_spec_writes_a_witness(tmp_path):
    from koszul.cli import main

    name, text = _tool().NONREGULAR
    (tmp_path / name).write_text(text)
    out = tmp_path / "out"
    assert main(["check-regular", "--spec", str(tmp_path / name), "--out", str(out)]) == 1
    assert (out / "witness.json").is_file()


def test_each_unparsable_command_line_fails_to_parse_once(tmp_path, capsys):
    from koszul.cli import main

    tool = _tool()
    name, text = tool.NONREGULAR
    spec = tmp_path / name
    spec.write_text(text)
    lines = list(tool.unparsable_lines(ROOT, spec))
    assert [line.split("  ", 2)[1:] for line in lines] == [
        [name, " ".join(command)] for command in tool.UNPARSABLE]
    assert len({line.split("  ")[0] for line in lines}) == len(lines)
    for command in tool.UNPARSABLE:
        out = tmp_path / "out"
        assert main([*command, "--spec", str(spec), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not any(out.glob("*"))  # no artifact and no witness
