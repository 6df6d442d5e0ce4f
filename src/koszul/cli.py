"""Command-line driver: parse a configuration file, run a pipeline, write
artifacts (CSV rank tables, SVG charts, plain-text reports) under an output
directory.

Exit codes: 0 on success, 1 on a mathematical failure (an oracle mismatch,
d after d not vanishing, a non-regular sequence, a failed collapse audit),
2 on a usage or configuration-file error (including input the library
refuses up front, InputError), 3 on an internal error: any other exception,
which is a fault of the program rather than of its input.  Every
mathematical failure also writes ``witness.json`` with the offending
bidegree and the data involved.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .adams import (
    ExampleConfig,
    completion_tower,
    adams_e2_table,
    example_hopf,
    kernel_sequence_model,
)
from .charts import AXIS_CHOICES, read_csv, write_csv, write_svg
from .complexes import DifferentialSquareError, DifferentialViolation, OracleMismatchError
from .cotor import HopfSpec, cotor_ranks, parity_violations
from .rings import DegreeWindow, InputError, RegularityFailure, check_regular_sequence
from .specfile import SpecError, SpecFile, parse_spec, spec_with_window
from .tower import (
    ExactnessFailure,
    RegularityError,
    build_tower_resolution,
    tor_diagonal,
    verify_partial_exactness,
)

COMMANDS = ("check-regular", "tor", "tower", "exactness", "cotor", "e2",
            "complete", "chart")


class UsageError(Exception):
    """A problem with flags, parameters, or missing configuration sections."""


def _common_flags(for_subparser: bool) -> argparse.ArgumentParser:
    # The flags live on the main parser and on every subparser so they may be
    # given on either side of the command word.  The subparser copies default
    # to SUPPRESS, otherwise they would overwrite values the main parser set.
    def default(value):
        return argparse.SUPPRESS if for_subparser else value

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--spec", metavar="PATH", default=default(None),
                        help="configuration file ([ring]/[ideal]/[window]/[example])")
    common.add_argument("--out", metavar="DIR", default=default("."),
                        help="output directory for artifacts (default: current)")
    common.add_argument("--window", metavar="T_MIN,T_MAX,S_MAX,STAGE_MAX",
                        default=default(None),
                        help="override the [window] section")
    common.add_argument("--axes", choices=AXIS_CHOICES, default=default("adams"),
                        help="chart axes: adams = (t-s, s), cartesian = (t, s)")
    common.add_argument("--jobs", type=int, default=default(1), metavar="N",
                        help="accepted for compatibility and ignored; every "
                             "computation runs in this process (N >= 1)")
    return common


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="koszul", parents=[_common_flags(False)],
        description="Graded homological algebra: Koszul complexes, Tor tables, "
                    "tower resolutions, cobar cohomology, collapse audits, and "
                    "completion towers, with closed-form cross-checks.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    helps = {
        "check-regular": "verify that the [ideal] sequence is regular in window",
        "tor": "self-dual Tor table of the quotient, checked against the "
               "exterior closed form",
        "tower": "build and audit the stage-s resolution (tower s=<k>)",
        "exactness": "audit the boundary complexes through the window stages",
        "cotor": "cobar cohomology against the polynomial closed form "
                 "(cotor primitives=3,5)",
        "e2": "closed-form E2 presentation with collapse audit "
              "(e2 example=A p=2 j_max=2)",
        "complete": "power-quotient completion tower with stabilization "
                    "certificates",
        "chart": "render an existing s,t,rank,torsion CSV as an SVG chart",
    }
    sub_common = _common_flags(True)
    for name in COMMANDS:
        p = sub.add_parser(name, parents=[sub_common], help=helps[name])
        if name == "chart":
            p.add_argument("input", metavar="input.csv")
        else:
            p.add_argument("params", nargs="*", metavar="key=value")
    return parser


def _parse_params(pairs: list[str], allowed: dict) -> dict:
    out: dict = {}
    for token in pairs:
        key, sep, value = token.partition("=")
        if not sep:
            raise UsageError(f"expected key=value, got {token!r}")
        if key not in allowed:
            raise UsageError(
                f"unknown parameter {key!r}; expected one of {sorted(allowed)}")
        if key in out:
            raise UsageError(f"duplicate parameter {key!r}")
        try:
            out[key] = allowed[key](value)
        except ValueError:
            raise UsageError(f"bad value for {key}: {value!r}") from None
    return out


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _parse_window_flag(text: str) -> DegreeWindow:
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError(
            f"--window takes t_min,t_max,s_max,stage_max (4 integers), got {text!r}")
    try:
        t_min, t_max, s_max, stage_max = (int(x) for x in parts)
    except ValueError:
        raise UsageError(f"--window fields must be integers, got {text!r}") from None
    return DegreeWindow(t_min, t_max, s_max, stage_max=stage_max)


def _load_spec(args) -> SpecFile:
    if args.spec is None:
        spec = SpecFile()
    else:
        try:
            text = Path(args.spec).read_text(encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot read spec file: {exc}") from None
        spec = parse_spec(text)
    if args.window is not None:
        spec = spec_with_window(spec, _parse_window_flag(args.window))
    return spec


def _need_ring_ideal(spec: SpecFile):
    if spec.ring is None or spec.ideal is None:
        raise UsageError("this command needs [ring] and [ideal] sections "
                         "(give them via --spec)")
    return spec.ring, spec.ideal


def _need_window(spec: SpecFile) -> DegreeWindow:
    if spec.window is None:
        raise UsageError("this command needs a [window] section or --window")
    return spec.window


# the records a witness lists, written as {field: value}
_WITNESS_RECORDS = (DifferentialViolation, ExactnessFailure, RegularityFailure)


def _jsonable(obj):
    if isinstance(obj, _WITNESS_RECORDS):
        obj = vars(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return str(obj)


def _write_witness(out_dir: Path, payload: dict) -> Path:
    path = out_dir / "witness.json"
    path.write_text(json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n",
                    encoding="utf-8", newline="")
    return path


def _witness_for(exc: Exception) -> dict:
    if isinstance(exc, OracleMismatchError):
        return {"kind": exc.witness.get("kind", "oracle-mismatch"),
                "message": str(exc), "witness": exc.witness}
    if isinstance(exc, DifferentialSquareError):
        return {"kind": "differential-square", "message": str(exc),
                "violations": exc.report.violations}
    if isinstance(exc, RegularityError):
        return {"kind": "regularity", "message": str(exc),
                "failures": exc.report.failures}
    return {"kind": "failure", "message": str(exc)}


def _write_text(path: Path, text: str) -> None:
    path.write_text(text.rstrip("\n") + "\n", encoding="utf-8", newline="")


def _emit_table(out_dir: Path, stem: str, table: dict, axes: str) -> None:
    write_csv(table, out_dir / f"{stem}.csv")
    write_svg(table, out_dir / f"{stem}.svg", axes=axes)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_check_regular(args, spec: SpecFile, out_dir: Path) -> int:
    _parse_params(args.params, {})
    ring, ideal = _need_ring_ideal(spec)
    report = check_regular_sequence(ring, ideal)
    _write_text(out_dir / "check-regular.txt", str(report))
    print(f"regular-sequence check over {ring}: "
          f"{'PASS' if report.ok else 'FAIL'} ({len(ideal)} entries)")
    if not report.ok:
        _write_witness(out_dir, {
            "kind": "regularity",
            "message": f"sequence entry {report.failures[0].index} is not regular",
            "failures": report.failures,
        })
        return 1
    return 0


def _cmd_tor(args, spec: SpecFile, out_dir: Path) -> int:
    _parse_params(args.params, {})
    ring, ideal = _need_ring_ideal(spec)
    report = tor_diagonal(ring, ideal)
    _emit_table(out_dir, "tor", report.table, args.axes)
    _write_text(out_dir / "tor.txt", str(report))
    print(f"tor table over {ring}: {len(report.table)} nonzero bidegrees, "
          "matching the exterior closed form")
    return 0


def _cmd_tower(args, spec: SpecFile, out_dir: Path) -> int:
    params = _parse_params(args.params, {"s": int})
    if "s" not in params:
        raise UsageError("tower needs a stage: tower s=<k>")
    s = params["s"]
    if s < 1:
        raise UsageError(f"stage must be at least 1, got {s}")
    ring, ideal = _need_ring_ideal(spec)
    report = build_tower_resolution(ring, ideal, s)
    table: dict = {(0, t): v for t, v in report.h0_found.items()}
    for s_deg, t, entry in report.higher_nonzero:
        table[(s_deg, t)] = entry
    _emit_table(out_dir, f"tower_s{s}", table, args.axes)
    _write_text(out_dir / f"tower_s{s}.txt", str(report))
    print(f"stage s={s} resolution over {ring}: "
          f"{'PASS' if report.ok else 'FAIL'}")
    if not report.ok:
        _write_witness(out_dir, {
            "kind": "tower",
            "message": f"stage {s} resolution failed its audit",
            "h0_mismatches": report.h0_mismatches,
            "higher_nonzero": [
                {"s": sd, "t": t, "rank": e.rank, "torsion": e.torsion}
                for sd, t, e in report.higher_nonzero],
        })
        return 1
    return 0


def _cmd_exactness(args, spec: SpecFile, out_dir: Path) -> int:
    params = _parse_params(args.params, {"s": int})
    ring, ideal = _need_ring_ideal(spec)
    if "s" in params:
        stages = [params["s"]]
        if stages[0] < 2:
            raise UsageError(f"exactness needs a stage s >= 2, got {stages[0]}")
    else:
        stages = list(range(2, ring.window.stage_max + 1))
        if not stages:
            raise UsageError("the window's stage_max leaves no stages >= 2; "
                             "give one explicitly: exactness s=<k>")
    full = verify_partial_exactness(ring, ideal, stages[-1])
    reports = [full.at_stage(s) for s in stages]
    _write_text(out_dir / "exactness.txt",
                "\n\n".join(str(r) for r in reports))
    bad = [r for r in reports if not r.ok]
    print(f"boundary-complex exactness over {ring}, stages {stages}: "
          f"{'PASS' if not bad else 'FAIL'}")
    if bad:
        _write_witness(out_dir, {
            "kind": "exactness",
            "message": f"stage {bad[0].s} failed its exactness audit",
            "failures": bad[0].failures,
        })
        return 1
    return 0


def _cmd_cotor(args, spec: SpecFile, out_dir: Path) -> int:
    params = _parse_params(args.params, {"primitives": _int_list})
    if "primitives" in params:
        if spec.ring is None:
            raise UsageError("cotor primitives=... needs a [ring] section for "
                             "the base (use generators-free F_p for a field base)")
        names = tuple((f"t{i}", d) for i, d in enumerate(params["primitives"], 1))
        hopf = HopfSpec(spec.ring, names)
        window = spec.ring.window
    elif spec.example is not None:
        window = _need_window(spec)
        hopf = example_hopf(spec.example.config(window))
    else:
        raise UsageError("cotor needs primitives=d1,d2,... or an [example] section")
    report = cotor_ranks(hopf, window)
    _emit_table(out_dir, "cotor", report.table, args.axes)
    _write_text(out_dir / "cotor.txt", str(report))
    print(f"cobar cohomology of {report.hopf_desc}: {len(report.table)} nonzero "
          "bidegrees, matching the polynomial closed form")
    return 0


def _cmd_e2(args, spec: SpecFile, out_dir: Path) -> int:
    params = _parse_params(args.params,
                           {"example": str, "p": int, "n": int, "j_max": int})
    section = spec.example
    which = params.get("example", section.which if section else None)
    p = params.get("p", section.p if section else None)
    j_max = params.get("j_max", section.j_max if section else None)
    n = params.get("n", section.n if section else 0)
    missing = [k for k, v in (("example", which), ("p", p), ("j_max", j_max))
               if v is None]
    if missing:
        raise UsageError("e2 needs " + ", ".join(f"{k}=<value>" for k in missing)
                         + " (or an [example] section)")
    window = _need_window(spec)
    config = ExampleConfig(which, p, j_max, window, n=n)
    tab = adams_e2_table(config)
    _emit_table(out_dir, "e2", tab.table, args.axes)
    _write_text(out_dir / "e2.txt", str(tab))
    violations = parity_violations(tab.table)
    print(f"E2 presentation for {config}: {tab.collapse.message}")
    if not tab.collapse.ok or violations:
        _write_witness(out_dir, {
            "kind": "collapse",
            "message": tab.collapse.message,
            "candidates": [{"r": r, "source": src, "target": tgt}
                           for r, src, tgt in tab.collapse.candidates],
            "parity_violations": violations,
        })
        return 1
    return 0


def _cmd_complete(args, spec: SpecFile, out_dir: Path) -> int:
    _parse_params(args.params, {})
    if spec.ring is not None and spec.ideal is not None:
        ring, ideal, notes = spec.ring, spec.ideal, ()
    elif spec.example is not None:
        window = _need_window(spec)
        ring, ideal, notes = kernel_sequence_model(spec.example.config(window))
    else:
        raise UsageError("complete needs [ring] and [ideal] sections, or an "
                         "[example] section to model")
    report = completion_tower(ring, ideal, notes=notes)
    table = {(s, value_t): value
             for value_t, tower in report.towers.items()
             for s, value in enumerate(tower.values, start=1)}
    _emit_table(out_dir, "complete", table, args.axes)
    _write_text(out_dir / "complete.txt", str(report))
    stabilized = sum(1 for tw in report.towers.values()
                     if tw.stabilized_at is not None)
    print(f"completion tower over {report.ring_desc}: {stabilized} of "
          f"{len(report.towers)} degrees certified stable, surjectivity "
          f"{'PASS' if report.surjective else 'FAIL'}")
    if not report.ok:
        _write_witness(out_dir, {
            "kind": "completion-surjectivity",
            "message": "a tower map failed to be degreewise surjective",
            "failures": [{"stage": s, "t": t}
                         for s, t in report.surjectivity_failures],
        })
        return 1
    return 0


def _cmd_chart(args, spec: SpecFile, out_dir: Path) -> int:
    try:
        table = read_csv(args.input)
    except OSError as exc:
        raise UsageError(f"cannot read {args.input}: {exc}") from None
    except ValueError as exc:  # malformed CSV content
        raise UsageError(str(exc)) from None
    stem = Path(args.input).stem
    write_svg(table, out_dir / f"{stem}.svg", axes=args.axes)
    print(f"chart: {len(table)} entries plotted to {stem}.svg "
          f"({args.axes} axes)")
    return 0


_DISPATCH = {
    "check-regular": _cmd_check_regular,
    "tor": _cmd_tor,
    "tower": _cmd_tower,
    "exactness": _cmd_exactness,
    "cotor": _cmd_cotor,
    "e2": _cmd_e2,
    "complete": _cmd_complete,
    "chart": _cmd_chart,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    out_dir = Path(args.out)
    try:
        if args.jobs < 1:
            raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
        out_dir.mkdir(parents=True, exist_ok=True)
        spec = _load_spec(args)
        return _DISPATCH[args.command](args, spec, out_dir)
    except (SpecError, UsageError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OracleMismatchError, DifferentialSquareError, RegularityError) as exc:
        path = _write_witness(out_dir, _witness_for(exc))
        print(f"mathematical failure: {exc}", file=sys.stderr)
        print(f"witness written to {path}", file=sys.stderr)
        return 1
    except Exception as exc:  # a fault of the program, not of its input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
