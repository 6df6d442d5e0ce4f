"""End-to-end command-line tests: exit codes, artifacts, determinism.

The tor oracle is the exterior closed form on classes e_i at (1, |u_i|):
for F_2[x1,x2,x3]/(x1,x2,x3) the eight square-free products give ranks 1 at
(0,0), (1,2), (1,4), (1,6), (2,6), (2,8), (2,10), (3,12).
"""
import hashlib
import json
import xml.dom.minidom
from pathlib import Path

import pytest

from koszul.cli import COMMANDS, main

SPECS_DIR = Path(__file__).resolve().parent.parent / "specs"

TOR_DIAGONAL_F2_CSV = (
    "s,t,rank,torsion\n"
    "0,0,1,\n"
    "1,2,1,\n"
    "1,4,1,\n"
    "1,6,1,\n"
    "2,6,1,\n"
    "2,8,1,\n"
    "2,10,1,\n"
    "3,12,1,\n"
)

COTOR_3_5_CSV = (
    "s,t,rank,torsion\n"
    "0,0,1,\n"
    "1,3,1,\n"
    "1,5,1,\n"
    "2,6,1,\n"
    "2,8,1,\n"
    "2,10,1,\n"
    "3,9,1,\n"
    "3,11,1,\n"
    "3,13,1,\n"
    "3,15,1,\n"
)

NONREGULAR = """
[ring]
coefficients = F2
generators = x1:2
[ideal]
entry = x1
entry = x1
[window]
t_min = 0
t_max = 8
s_max = 2
stage_max = 3
"""


def run(*argv):
    return main(list(argv))


def spec_arg(name):
    return str(SPECS_DIR / name)


def test_tor_writes_the_frozen_closed_form(tmp_path):
    out = tmp_path / "run"
    assert run("tor", "--spec", spec_arg("diagonal_f2.spec"), "--out", str(out)) == 0
    assert (out / "tor.csv").read_text() == TOR_DIAGONAL_F2_CSV
    assert (out / "tor.txt").read_text().startswith("Tor(R/I, R/I)")
    xml.dom.minidom.parse(str(out / "tor.svg"))


def test_tor_with_a_nonzero_differential_fails_with_a_witness(tmp_path, monkeypatch):
    # over R/I the Koszul differential vanishes; made nonzero on one matrix,
    # it lowers a brute rank below the closed form, the chain dimension there
    import koszul.tower

    honest = koszul.tower.build_koszul

    def corrupted(ring, ideal, module=None):
        cx = honest(ring, ideal, module=module)
        key = min(k for k, m in cx.diff.items() if m.rows and m.cols)
        cx.diff[key].set(0, 0, 1)
        return cx

    monkeypatch.setattr(koszul.tower, "build_koszul", corrupted)
    assert run("tor", "--spec", spec_arg("diagonal_f2.spec"), "--out", str(tmp_path)) == 1
    witness = json.loads((tmp_path / "witness.json").read_text())
    assert witness["kind"] == "tor-diagonal"
    # d from e1e2 at (2,6) to e3 at (1,6): both classes die
    assert witness["witness"] == {"kind": "tor-diagonal", "s": 1, "t": 6,
                                  "brute": 0, "closed": 1}
    assert not (tmp_path / "tor.csv").exists()


def test_repeated_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("tor", "--spec", spec_arg("diagonal_f2.spec"),
                   "--out", str(out)) == 0
    assert (a / "tor.csv").read_bytes() == (b / "tor.csv").read_bytes()
    assert (a / "tor.svg").read_bytes() == (b / "tor.svg").read_bytes()


def test_window_flag_overrides_the_file(tmp_path):
    out = tmp_path / "run"
    assert run("tor", "--spec", spec_arg("diagonal_f2.spec"),
               "--window", "0,8,3,4", "--out", str(out)) == 0
    rows = (out / "tor.csv").read_text().splitlines()[1:]
    assert rows and all(int(r.split(",")[1]) <= 8 for r in rows)
    assert len(rows) < TOR_DIAGONAL_F2_CSV.count("\n") - 1


def test_check_regular_pass(tmp_path):
    out = tmp_path / "run"
    assert run("check-regular", "--spec", spec_arg("diagonal_f2.spec"),
               "--out", str(out)) == 0
    assert "PASS" in (out / "check-regular.txt").read_text()
    assert not (out / "witness.json").exists()


def test_check_regular_failure_writes_witness(tmp_path):
    spec = tmp_path / "bad.spec"
    spec.write_text(NONREGULAR)
    out = tmp_path / "run"
    assert run("check-regular", "--spec", str(spec), "--out", str(out)) == 1
    witness = json.loads((out / "witness.json").read_text())
    assert witness["kind"] == "regularity"
    assert witness["failures"][0]["index"] == 2


def test_tower_command(tmp_path, capsys):
    out = tmp_path / "run"
    assert run("tower", "s=2", "--spec", spec_arg("diagonal_f3.spec"),
               "--out", str(out)) == 0
    assert "PASS" in capsys.readouterr().out
    assert (out / "tower_s2.csv").exists() and (out / "tower_s2.txt").exists()
    rows = (out / "tower_s2.csv").read_text().splitlines()[1:]
    assert all(r.split(",")[0] == "0" for r in rows)  # resolution: homology at 0


def test_tower_needs_a_stage(tmp_path, capsys):
    assert run("tower", "--spec", spec_arg("diagonal_f3.spec"),
               "--out", str(tmp_path)) == 2
    assert "tower s=<k>" in capsys.readouterr().err


def test_tower_on_nonregular_sequence_fails_with_witness(tmp_path):
    spec = tmp_path / "bad.spec"
    spec.write_text(NONREGULAR)
    out = tmp_path / "run"
    assert run("tower", "s=2", "--spec", str(spec), "--out", str(out)) == 1
    witness = json.loads((out / "witness.json").read_text())
    assert witness["kind"] == "regularity"


TOWER_F2_SPEC = """
[ring]
coefficients = F2
generators = x1:2, x2:2, x3:4, x4:4
[ideal]
entry = x1
entry = x2
entry = x3
entry = x4
[window]
t_min = 0
t_max = 12
s_max = 3
stage_max = 3
"""

DROPPED_TERM_STDERR = """mathematical failure: differential check: FAIL
  (2,4) square: d(d(e(1,2)|(0, 0, 0, 0))) has entry 1 at target row 7
  (2,6) square: d(d(e(1,2)|(1, 0, 0, 0))) has entry 1 at target row 13
  (2,8) square: d(d(e(1,2)|(2, 0, 0, 0))) has entry 1 at target row 22
  (2,10) square: d(d(e(1,2)|(3, 0, 0, 0))) has entry 1 at target row 34
  (2,12) square: d(d(e(1,2)|(4, 0, 0, 0))) has entry 1 at target row 50
  (3,8) square: d(d(e(1,2,3)|(0, 0, 0, 0))) has entry 1 at target row 34
  (3,10) square: d(d(e(1,2,3)|(1, 0, 0, 0))) has entry 1 at target row 55
  (3,12) square: d(d(e(1,2,3)|(2, 0, 0, 0))) has entry 1 at target row 85
witness written to OUT/witness.json
"""


def test_f2_square_witness_of_a_dropped_term_is_pinned(tmp_path, monkeypatch, capsys):
    # one term dropped from the first level-2 differential with two terms: the
    # packed F2 audit must report, and write, exactly what the dict audit did
    # (witness.json pinned by its sha256; rows past 64 included)
    import koszul.tower

    real = koszul.tower.tower_free

    def dropped(*args, **kwargs):
        fc = real(*args, **kwargs)
        gid = next(g for g in fc.levels[2] if len(fc.diff[g]) > 1)
        fc.set_diff(gid, fc.diff[gid][:-1])
        return fc

    monkeypatch.setattr(koszul.tower, "tower_free", dropped)
    spec, out = tmp_path / "f2.spec", tmp_path / "run"
    spec.write_text(TOWER_F2_SPEC)
    assert run("tower", "s=2", "--spec", str(spec), "--out", str(out)) == 1
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err == DROPPED_TERM_STDERR.replace("OUT", str(out))
    assert [p.name for p in out.iterdir()] == ["witness.json"]
    assert hashlib.sha256((out / "witness.json").read_bytes()).hexdigest() == (
        "83453cc17e8a40a9a442c41db85d6254be9ec50b10a344734a3a9e2959d06c50")


def test_exactness_command(tmp_path, capsys):
    out = tmp_path / "run"
    assert run("exactness", "--spec", spec_arg("diagonal_f3.spec"),
               "--out", str(out)) == 0
    assert "PASS" in capsys.readouterr().out
    text = (out / "exactness.txt").read_text()
    assert "s=2" in text and "s=3" in text


@pytest.mark.parametrize("name", ["diagonal_f2.spec", "diagonal_f3.spec"])
def test_exactness_text_equals_separate_runs_per_stage(tmp_path, name):
    from koszul.specfile import parse_spec
    from koszul.tower import verify_partial_exactness

    spec = parse_spec((SPECS_DIR / name).read_text())
    assert run("exactness", "--spec", spec_arg(name), "--out", str(tmp_path)) == 0
    expected = "\n\n".join(
        str(verify_partial_exactness(spec.ring, spec.ideal, s))
        for s in range(2, spec.window.stage_max + 1))
    assert (tmp_path / "exactness.txt").read_text() == expected + "\n"


def test_exactness_realizes_and_checks_regularity_once(tmp_path, monkeypatch):
    import koszul.tower
    from koszul.complexes import FreeComplex

    calls = {"realize": 0, "regular": 0}
    realize, regular = FreeComplex.realize, koszul.tower.check_regular_sequence

    def counting_realize(*args, **kwargs):
        calls["realize"] += 1
        return realize(*args, **kwargs)

    def counting_regular(*args, **kwargs):
        calls["regular"] += 1
        return regular(*args, **kwargs)

    monkeypatch.setattr(FreeComplex, "realize", counting_realize)
    monkeypatch.setattr(koszul.tower, "check_regular_sequence", counting_regular)
    # diagonal_f2.spec has stage_max = 4: stages 2, 3 and 4 are audited
    assert run("exactness", "--spec", spec_arg("diagonal_f2.spec"),
               "--out", str(tmp_path)) == 0
    assert "s=4" in (tmp_path / "exactness.txt").read_text()
    assert calls == {"realize": 1, "regular": 1}


@pytest.mark.parametrize("name, off, found, predicted", [
    ("diagonal_f2.spec", lambda v: v + 1, 0, 1),  # one more free generator
    ("integer_arithmetic.spec", lambda v: (v[0] + 1, v[1]), [0, [3]], [1, [3]]),
    ("integer_arithmetic.spec", lambda v: (v[0], tuple(3 * x for x in v[1])),
     [0, [3]], [0, [9]]),  # Z/3 read as Z/9: a torsion factor, not the free rank
], ids=["diagonal_f2.spec", "integer_arithmetic.spec-free-rank",
        "integer_arithmetic.spec-torsion"])
def test_tower_checks_the_associated_graded(tmp_path, monkeypatch, capsys, name, off,
                                            found, predicted):
    # a Rees prediction off by one generator or one torsion factor must stop the tower
    import koszul.tower

    honest = koszul.tower.power_quotient_dimension

    def wrong(ring, ideal, s, t):
        info = honest(ring, ideal, s, t)
        return type(info)(s, t, info.quotient, info.assoc, off(info.predicted_assoc))

    monkeypatch.setattr(koszul.tower, "power_quotient_dimension", wrong)
    assert run("tower", "s=2", "--spec", spec_arg(name), "--out", str(tmp_path)) == 1
    assert "mathematical failure" in capsys.readouterr().err
    witness = json.loads((tmp_path / "witness.json").read_text())
    assert witness["kind"] == "assoc-graded"
    inner = witness["witness"]
    assert (inner["stage"], inner["t"]) == (2, 0)
    assert (inner["found"], inner["predicted"]) == (found, predicted)
    assert not (tmp_path / "tower_s2.csv").exists()


def test_witness_records_become_field_dicts():
    from koszul.cli import _jsonable
    from koszul.complexes import DifferentialViolation
    from koszul.rings import RegularityFailure
    from koszul.tower import ExactnessFailure

    records = [DifferentialViolation(2, 8, "square", "d(d(e(1,2))) has entry 1"),
               ExactnessFailure(0, 1, 4, "kernel has dimension 2, expected 1", "end", 2),
               RegularityFailure(2, 0, "multiplication drops rank 1 -> 0")]
    assert _jsonable({"records": records}) == {"records": [
        {"s": 2, "t": 8, "kind": "square", "detail": "d(d(e(1,2))) has entry 1"},
        {"node": 0, "r": 1, "t": 4, "detail": "kernel has dimension 2, expected 1",
         "check": "end", "stage": 2},
        {"index": 2, "t": 0, "note": "multiplication drops rank 1 -> 0"}]}


def test_exactness_failure_witness_lists_its_records(tmp_path, monkeypatch):
    import koszul.tower

    honest = koszul.tower.rank_over_field
    monkeypatch.setattr(koszul.tower, "rank_over_field", lambda m, c: max(honest(m, c) - 1, 0))
    assert run("exactness", "--spec", spec_arg("diagonal_f2.spec"), "--out", str(tmp_path)) == 1
    witness = json.loads((tmp_path / "witness.json").read_text())
    assert witness["kind"] == "exactness" and witness["failures"]
    for failure in witness["failures"]:
        assert set(failure) == {"node", "r", "t", "detail", "check", "stage"}
        assert failure["check"] in ("interior", "end") and failure["stage"] <= 2


def test_cotor_command_matches_frozen_table(tmp_path):
    spec = tmp_path / "base.spec"
    spec.write_text("[ring]\ncoefficients = F2\n"
                    "[window]\nt_min = 0\nt_max = 15\ns_max = 3\n")
    out = tmp_path / "run"
    assert run("cotor", "primitives=3,5", "--spec", str(spec),
               "--out", str(out)) == 0
    assert (out / "cotor.csv").read_text() == COTOR_3_5_CSV


def test_cotor_without_configuration_is_usage_error(tmp_path, capsys):
    assert run("cotor", "--out", str(tmp_path)) == 2
    assert "primitives" in capsys.readouterr().err


def test_e2_command_from_params(tmp_path, capsys):
    out = tmp_path / "run"
    assert run("e2", "example=A", "p=2", "j_max=2",
               "--window", "0,12,4,4", "--out", str(out)) == 0
    assert "collapses at E_2 within window" in capsys.readouterr().out
    text = (out / "e2.txt").read_text()
    assert "U0 at (1,1)" in text and "U2 at (1,5)" in text
    assert (out / "e2.csv").exists() and (out / "e2.svg").exists()


def test_e2_command_from_example_section(tmp_path, capsys):
    out = tmp_path / "run"
    assert run("e2", "--spec", spec_arg("example_b.spec"), "--out", str(out)) == 0
    assert "collapses at E_2 within window" in capsys.readouterr().out


def test_e2_missing_parameters_is_usage_error(tmp_path, capsys):
    assert run("e2", "p=2", "--window", "0,8,2,2", "--out", str(tmp_path)) == 2
    assert "example" in capsys.readouterr().err


def test_complete_with_a_wrong_stage_value_fails_with_a_witness(tmp_path, monkeypatch):
    # F2[x1]/(x1^s) at t = 0 is F2 from stage 1 on, certified; a stage 6
    # (stage_max) that reads dimension 2 there misses the certified limit
    import koszul.adams

    honest = koszul.adams.quotient_by_power

    class OffAtZero:
        def __init__(self, quotient):
            self.quotient, self.relations = quotient, quotient.relations

        def dim(self, t):
            return self.quotient.dim(t) + (t == 0)

        def contains_span(self, relations, t):
            return self.quotient.contains_span(relations, t)

    def wrong(ring, ideal, s):
        q = honest(ring, ideal, s)
        return OffAtZero(q) if s == 6 else q

    monkeypatch.setattr(koszul.adams, "quotient_by_power", wrong)
    assert run("complete", "--spec", spec_arg("principal_f2.spec"),
               "--out", str(tmp_path)) == 1
    witness = json.loads((tmp_path / "witness.json").read_text())
    assert witness["kind"] == "completion-limit"
    assert witness["witness"] == {"kind": "completion-limit", "t": 0, "stage": 1,
                                  "values": [1, 1, 1, 1, 1, 2], "limit": 1}
    assert not (tmp_path / "complete.csv").exists()


def test_complete_command_padic(tmp_path):
    out = tmp_path / "run"
    assert run("complete", "--spec", spec_arg("integer_padic.spec"),
               "--out", str(out)) == 0
    rows = (out / "complete.csv").read_text().splitlines()
    assert rows[0] == "s,t,rank,torsion"
    assert rows[1] == "1,0,0,3"
    assert "p-adic" in (out / "complete.txt").read_text()


def test_complete_command_from_example(tmp_path, capsys):
    out = tmp_path / "run"
    assert run("complete", "--spec", spec_arg("example_c.spec"),
               "--out", str(out)) == 0
    assert "surjectivity PASS" in capsys.readouterr().out


def test_chart_command_roundtrip(tmp_path):
    out = tmp_path / "run"
    assert run("tor", "--spec", spec_arg("diagonal_f2.spec"), "--out", str(out)) == 0
    assert run("chart", str(out / "tor.csv"), "--out", str(out),
               "--axes", "cartesian") == 0
    xml.dom.minidom.parse(str(out / "tor.svg"))


def test_chart_on_empty_csv_is_valid(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("s,t,rank,torsion\n")
    assert run("chart", str(empty), "--out", str(tmp_path)) == 0
    text = (tmp_path / "empty.svg").read_text()
    xml.dom.minidom.parseString(text)
    assert "<circle" not in text


def test_chart_errors_are_usage_errors(tmp_path, capsys):
    assert run("chart", str(tmp_path / "missing.csv"), "--out", str(tmp_path)) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header\n")
    assert run("chart", str(bad), "--out", str(tmp_path)) == 2
    assert "header" in capsys.readouterr().err


def test_spec_parse_error_exit_code(tmp_path, capsys):
    spec = tmp_path / "broken.spec"
    spec.write_text("[ring]\ncoefficients = F4\n")
    assert run("tor", "--spec", str(spec), "--out", str(tmp_path)) == 2
    assert "line 2, column 16" in capsys.readouterr().err


def test_unknown_command_and_params(tmp_path, capsys):
    assert run("frobnicate") == 2
    assert run("tor", "bogus=1", "--spec", spec_arg("diagonal_f2.spec"),
               "--out", str(tmp_path)) == 2
    capsys.readouterr()




# The command-line grammar.  Each handler is replaced by one that records
# the fields main hands it, so these tests see which command ran and with
# what, and run no mathematics.
DEFAULTS = {"spec": None, "out": ".", "window": None, "axes": "adams", "jobs": 1}


def _dispatched(monkeypatch):
    import koszul.cli

    ran = []

    def record(args, spec, out_dir):
        ran.append(dict(vars(args)))
        return 0

    for name in COMMANDS:
        monkeypatch.setitem(koszul.cli._DISPATCH, name, record)
    return ran


def test_flags_go_on_either_side_of_the_command(tmp_path, monkeypatch):
    ran = _dispatched(monkeypatch)
    spec, out = spec_arg("diagonal_f2.spec"), str(tmp_path)
    assert run("--spec", spec, "--out", out, "--axes", "cartesian", "tower", "s=2") == 0
    assert run("tower", "s=2", "--spec", spec, "--out", out, "--axes", "cartesian") == 0
    assert run("--spec", spec, "tower", "--out", out, "s=2", "--axes", "cartesian") == 0
    assert ran == 3 * [{**DEFAULTS, "command": "tower", "params": ["s=2"],
                        "spec": spec, "out": out, "axes": "cartesian"}]
    assert run("--out", out, "chart", "in.csv", "--jobs", "3") == 0
    assert ran[-1] == {**DEFAULTS, "command": "chart", "input": "in.csv", "out": out,
                       "jobs": 3}


def test_a_flag_value_may_follow_an_equals_sign(tmp_path, monkeypatch):
    # --jobs=-1 and --jobs -3: test_jobs_below_one_is_a_usage_error
    ran = _dispatched(monkeypatch)
    out = str(tmp_path / "eq")
    assert run("tor", f"--out={out}", "--window=0,8,3,4") == 0
    assert ran == [{**DEFAULTS, "command": "tor", "params": [], "out": out,
                    "window": "0,8,3,4"}]


def test_a_window_value_may_start_with_a_dash(tmp_path, monkeypatch):
    # argparse took "-4,8,2,2" for a flag, so only --window=-4,8,2,2 worked
    ran = _dispatched(monkeypatch)
    assert run("tor", "--window", "-4,8,2,2", "--out", str(tmp_path)) == 0
    assert ran == [{**DEFAULTS, "command": "tor", "params": [], "out": str(tmp_path),
                    "window": "-4,8,2,2"}]


def test_a_unique_prefix_stands_for_its_flag(tmp_path, monkeypatch):
    ran = _dispatched(monkeypatch)
    spec, out = spec_arg("diagonal_f2.spec"), str(tmp_path)
    assert run("tor", "--sp", spec, "--o", out, "--ax", "cartesian", "--j", "2",
               "--w", "0,8,3,4") == 0
    assert ran == [{"command": "tor", "params": [], "spec": spec, "out": out,
                    "window": "0,8,3,4", "axes": "cartesian", "jobs": 2}]


def test_a_double_dash_ends_the_flags(tmp_path, monkeypatch):
    ran = _dispatched(monkeypatch)
    out = str(tmp_path)
    assert run("tower", "--out", out, "--", "s=2", "--spec") == 0
    assert run("chart", "--out", out, "--", "-in.csv") == 0
    assert ran == [{**DEFAULTS, "command": "tower", "params": ["s=2", "--spec"], "out": out},
                   {**DEFAULTS, "command": "chart", "input": "-in.csv", "out": out}]


def test_the_last_repeat_of_a_flag_wins(tmp_path, monkeypatch):
    ran = _dispatched(monkeypatch)
    assert run("--window", "0,4,1,1", "--axes", "cartesian", "tor", "--out", str(tmp_path),
               "--window", "0,8,3,4", "--axes", "adams") == 0
    assert ran == [{**DEFAULTS, "command": "tor", "params": [], "out": str(tmp_path),
                    "window": "0,8,3,4"}]


def test_no_argv_reads_the_process_arguments(tmp_path, monkeypatch):
    ran = _dispatched(monkeypatch)
    monkeypatch.setattr("sys.argv", ["koszul", "e2", "p=3", "--out", str(tmp_path)])
    assert main(None) == 0
    assert ran == [{**DEFAULTS, "command": "e2", "params": ["p=3"], "out": str(tmp_path)}]


@pytest.mark.parametrize("argv", [
    ("--bogus", "tor"),
    ("tor", "--spec"),
    ("tor", "--axes", "bogus"),
    ("tor", "--jobs", "x"),
    ("chart",),
    ("chart", "a.csv", "b.csv"),
    (),
    ("--jobs", "2"),
    ("frobnicate",),
], ids=["unknown-flag", "no-value", "bad-axes", "bad-jobs", "chart-no-csv",
        "chart-two-csvs", "empty", "no-command", "unknown-command"])
def test_parse_errors_exit_two_and_run_nothing(monkeypatch, capsys, argv):
    ran = _dispatched(monkeypatch)
    assert run(*argv) == 2
    assert ran == []
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not captured.out


def test_help_exits_zero(monkeypatch, capsys):
    # and lists every command and flag, wherever -h or --help stands, and runs nothing
    ran = _dispatched(monkeypatch)
    assert run("--help") == 0
    text = capsys.readouterr().out
    for word in (*COMMANDS, "--spec", "--out", "--window", "--axes", "--jobs"):
        assert word in text
    for argv in (("tower", "--help"), ("tor", "--spec", spec_arg("diagonal_f2.spec"), "-h")):
        assert run(*argv) == 0
        assert "--window" in capsys.readouterr().out
    assert ran == []


def test_jobs_flag_gives_identical_output(tmp_path, monkeypatch):
    # --jobs is accepted and ignored: even with CPUs to spare, no process starts
    import concurrent.futures
    import os

    def no_pool(*args, **kwargs):
        raise AssertionError("--jobs started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    for command, spec, name in ((("tor",), "diagonal_f3.spec", "tor"),
                                (("tower", "s=2"), "diagonal_f2.spec", "tower_s2")):
        for jobs in ("1", "4"):
            assert run(*command, "--spec", spec_arg(spec),
                       "--out", str(tmp_path / name / jobs), "--jobs", jobs) == 0
        for artifact in (name + ".csv", name + ".svg"):
            assert (tmp_path / name / "1" / artifact).read_bytes() == (
                tmp_path / name / "4" / artifact).read_bytes()


def test_jobs_below_one_is_a_usage_error(tmp_path, capsys):
    for flag in (("--jobs", "0"), ("--jobs", "-3"), ("--jobs=-1",)):
        assert run("tor", "--spec", spec_arg("diagonal_f3.spec"),
                   "--out", str(tmp_path), *flag) == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "tor.csv").exists()


def test_snf_rank_mismatch_is_a_mathematical_failure(tmp_path, monkeypatch, capsys):
    # an SNF that loses a factor disagrees with the rank over Q: exit 1 with
    # a witness, not exit 2 ("usage")
    import koszul.complexes

    honest = koszul.complexes.smith_normal_form
    monkeypatch.setattr(koszul.complexes, "smith_normal_form", lambda m: honest(m)[1:])
    out = tmp_path / "run"
    assert run("tower", "s=2", "--spec", spec_arg("integer_arithmetic.spec"),
               "--out", str(out)) == 1
    assert "mathematical failure" in capsys.readouterr().err
    witness = json.loads((out / "witness.json").read_text())
    assert witness["kind"] == "snf-rank"
    inner = witness["witness"]
    assert inner["rational_rank"] == len(inner["invariant_factors"]) + 1
    assert not (out / "tower_s2.csv").exists()


TWO_TORSION = """
[ring]
coefficients = Z
generators = x1:2
[ideal]
entry = 2
entry = x1
[window]
t_min = 0
t_max = 6
s_max = 2
stage_max = 3
"""


def test_snf_mod_p_mismatch_is_a_mathematical_failure(tmp_path, monkeypatch, capsys):
    # an SNF that turns a factor 2 into 1 keeps the count the rank over Q
    # checks, but the rank over F2 sees that 2 divides that factor
    import koszul.complexes

    spec = tmp_path / "two.spec"
    spec.write_text(TWO_TORSION)
    assert run("tower", "s=1", "--spec", str(spec), "--out", str(tmp_path / "honest")) == 0
    assert "2" in (tmp_path / "honest" / "tower_s1.csv").read_text().split("torsion\n")[1]
    honest = koszul.complexes.smith_normal_form
    monkeypatch.setattr(koszul.complexes, "smith_normal_form",
                        lambda m: tuple(1 if v == 2 else v for v in honest(m)))
    out = tmp_path / "run"
    assert run("tower", "s=1", "--spec", str(spec), "--out", str(out)) == 1
    assert "mathematical failure" in capsys.readouterr().err
    witness = json.loads((out / "witness.json").read_text())
    assert witness["kind"] == "snf-mod-p"
    inner = witness["witness"]
    assert inner["p"] == 2
    assert inner["rank_mod_p"] == sum(1 for v in inner["invariant_factors"] if v % 2) - 1
    assert (inner["rows"], inner["cols"]) == (1, 1)
    assert not (out / "tower_s1.csv").exists()


def _raise_value_error(args, spec, out_dir):
    raise ValueError("a bug, not bad input")


@pytest.mark.parametrize("argv, code, prefix", [
    # spec file error
    (("tor", "--spec", "{tmp}/broken.spec"), 2, "error: line 2"),
    # usage errors: a flag, and input a library entry point refuses up front
    (("tor", "--spec", spec_arg("diagonal_f2.spec"), "--window", "5,2,3,4"), 2,
     "error: empty window"),
    (("tor", "--spec", spec_arg("integer_arithmetic.spec")), 2,
     "error: Tor tables against quotients need field coefficients"),
    (("cotor", "--spec", spec_arg("example_b.spec"), "--window", "0,8,3,3"), 2,
     "error: chain-level cobar needs a non-localized base"),
    # mathematical failure
    (("tower", "s=2", "--spec", "{tmp}/nonregular.spec"), 1, "mathematical failure"),
    # internal error: a ValueError from inside a command (patched in below)
    (("check-regular", "--spec", spec_arg("diagonal_f2.spec")), 3,
     "internal error: ValueError: a bug, not bad input"),
])
def test_exit_code_classes(tmp_path, monkeypatch, capsys, argv, code, prefix):
    import koszul.cli

    (tmp_path / "broken.spec").write_text("[ring]\ncoefficients = F4\n")
    (tmp_path / "nonregular.spec").write_text(NONREGULAR)
    if code == 3:
        monkeypatch.setitem(koszul.cli._DISPATCH, argv[0], _raise_value_error)
    out = tmp_path / "run"
    got = run(*(a.format(tmp=tmp_path) for a in argv), "--out", str(out))
    err = capsys.readouterr().err
    assert got == code, err
    assert err.startswith(prefix), err
    assert (out / "witness.json").exists() == (code == 1)


def test_module_entry_point_warns_nothing():
    # importing the package must not load koszul.cli ahead of runpy, which
    # would make `python -m koszul.cli` warn that the module is already loaded
    import os
    import subprocess
    import sys

    import koszul

    src = str(Path(koszul.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "koszul.cli", "--help"],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "Warning" not in done.stderr
