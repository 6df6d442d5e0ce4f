"""usage: koszul <command> [key=value ...] [flags]
       koszul chart input.csv [flags]

Read a configuration file, run one pipeline, and write its artifacts (CSV
rank tables, SVG charts, plain-text reports) under an output directory.

Every flag takes one value, as --flag VALUE or --flag=VALUE; the value may
start with "-".  Flags stand before or after the command word, a unique
prefix will do, the last repeat wins, and "--" ends them.  -h or --help
anywhere before "--" prints this help.

Exit codes: 0 on success; 1 on a mathematical failure (an oracle mismatch,
d after d not vanishing, a non-regular sequence, a failed collapse audit),
which also writes witness.json with the offending bidegree and data; 2 on a
usage or configuration-file error, printed as "error: ...": every parse
error and input the library refuses up front (InputError) among them; 3 on
an internal error, any other exception: a fault of the program, not of its
input.
"""
from __future__ import annotations

import gc
import json
import sys
from pathlib import Path
from types import SimpleNamespace

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

gc.freeze()  # what the imports made lives for good: no collection during main walks it

# command -> its line in the help
_HELPS = {
    "check-regular": "verify that the [ideal] sequence is regular in window",
    "tor": "self-dual Tor table of the quotient, checked against the exterior closed form",
    "tower": "build and audit the stage-s resolution (tower s=<k>)",
    "exactness": "audit the boundary complexes through the window stages",
    "cotor": "cobar cohomology against the polynomial closed form (cotor primitives=3,5)",
    "e2": "closed-form E2 presentation with collapse audit (e2 example=A p=2 j_max=2)",
    "complete": "power-quotient completion tower with stabilization certificates",
    "chart": "render an existing s,t,rank,torsion CSV as an SVG chart",
}
COMMANDS = tuple(_HELPS)

# flag -> (metavar, default, help); each flag takes one value
_FLAGS = {
    "--spec": ("PATH", None, "configuration file ([ring]/[ideal]/[window]/[example])"),
    "--out": ("DIR", ".", "output directory for artifacts (default: current)"),
    "--window": ("T_MIN,T_MAX,S_MAX,STAGE_MAX", None, "override the [window] section"),
    "--axes": ("|".join(AXIS_CHOICES), "adams", "chart axes: adams = (t-s, s), cartesian = (t, s)"),
    "--jobs": ("N", 1, "accepted and ignored: everything runs in this process (N >= 1)"),
}


class UsageError(Exception):
    """A problem with flags, parameters, or missing configuration sections."""


def _help() -> str:
    flags = {f"{flag} {meta}": text for flag, (meta, _, text) in _FLAGS.items()}
    flags["-h, --help"] = "print this help and exit"
    return "\n".join([__doc__ or "", "commands:", *(f"  {k}\n      {v}" for k, v in _HELPS.items()),
                      "", "flags:", *(f"  {k}\n      {v}" for k, v in flags.items())])


def _parse_argv(argv: list[str]) -> SimpleNamespace | None:
    """The command, its parameters (for chart, its input) and every flag of
    argv, defaults filled in; None once a help flag printed the help."""
    head = argv[:argv.index("--")] if "--" in argv else argv
    if any(word == "-h" or len(word) > 2 and "--help".startswith(word) for word in head):
        print(_help())
        return None
    values = {flag[2:]: default for flag, (_, default, _) in _FLAGS.items()}
    words: list[str] = []
    rest = iter(argv)
    for word in rest:
        if word == "--":
            words += rest
        elif word.startswith("-") and word != "-":
            name, eq, value = word.partition("=")
            match = [flag for flag in _FLAGS if flag.startswith(name)]
            if len(match) != 1:
                raise UsageError(f"unknown or ambiguous flag {name!r}")
            if not eq and (value := next(rest, None)) is None:
                raise UsageError(f"{match[0]} needs a value")
            values[match[0][2:]] = value
        else:
            words.append(word)
    if not words or words[0] not in COMMANDS:
        raise UsageError(f"expected a command, one of {', '.join(COMMANDS)}")
    command, words = words[0], words[1:]
    if command == "chart" and len(words) != 1:
        raise UsageError(f"chart takes exactly one input.csv, got {len(words)}")
    if values["axes"] not in AXIS_CHOICES:
        raise UsageError(f"--axes takes {' or '.join(AXIS_CHOICES)}, got {values['axes']!r}")
    try:
        values["jobs"] = int(values["jobs"])
    except ValueError:
        raise UsageError(f"--jobs takes an integer, got {values['jobs']!r}") from None
    if values["jobs"] < 1:
        raise UsageError(f"--jobs must be at least 1, got {values['jobs']}")
    field = {"input": words[0]} if command == "chart" else {"params": words}
    return SimpleNamespace(command=command, **field, **values)


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
        try:  # a wrong count of fields fails the unpacking with a ValueError too
            t_min, t_max, s_max, stage_max = (int(x) for x in args.window.split(","))
        except ValueError:
            raise UsageError("--window takes t_min,t_max,s_max,stage_max (4 integers), "
                             f"got {args.window!r}") from None
        spec = spec_with_window(spec, DegreeWindow(t_min, t_max, s_max, stage_max=stage_max))
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


_DISPATCH = {name: globals()["_cmd_" + name.replace("-", "_")] for name in COMMANDS}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_argv(sys.argv[1:] if argv is None else argv)
        if args is None:
            return 0
        out_dir = Path(args.out)
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
