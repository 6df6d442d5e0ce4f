"""The two benchmark workloads and the seeded spec files they run on.

Every workload is a fixed sequence of two ``koszul`` CLI invocations
(steps), each on a generated spec file: ``f2-tower-cobar`` runs the tower
over F2 and then the cobar complex, ``z-tower-complete`` the tower over Z and
then the completion tower of example B.  Seed 0 is the plain input; any other seed rewrites the input only in ways
that must leave every CSV and SVG artifact byte-identical (the pinned
digests in ``digests.json`` check that on every run).  README.md records why
each workload exists and which planned optimisation it exercises or bypasses.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

TOWER_GENERATORS = (("x1", 2), ("x2", 2), ("x3", 4), ("x4", 4))

# Example family B at p = 3, height 1, exactly as shipped in specs/example_b.spec.
EXAMPLE_B = (("which", "B"), ("p", "3"), ("n", "1"), ("j_max", "6"))


@dataclass(frozen=True)
class Window:
    t_min: int
    t_max: int
    s_max: int
    stage_max: int

    def pairs(self) -> list[tuple[str, str]]:
        return [("t_min", str(self.t_min)), ("t_max", str(self.t_max)),
                ("s_max", str(self.s_max)), ("stage_max", str(self.stage_max))]

    def flag(self) -> str:
        return f"{self.t_min},{self.t_max},{self.s_max},{self.stage_max}"


def _render(sections: list[tuple[str, list[tuple[str, str]]]], rng) -> str:
    """Spec text; with an rng, sections and the keys inside a section are
    shuffled (the grammar allows both), except that ``entry`` lines keep their
    relative order because the sequence is ordered."""
    sections = list(sections)
    if rng is not None:
        rng.shuffle(sections)
    lines = []
    for header, pairs in sections:
        pairs = list(pairs)
        if rng is not None:
            entries = [p for p in pairs if p[0] == "entry"]
            rng.shuffle(pairs)
            it = iter(entries)
            pairs = [next(it) if p[0] == "entry" else p for p in pairs]
        lines.append(f"[{header}]")
        lines.extend(f"{k} = {v}" for k, v in pairs)
        lines.append("")
    return "\n".join(lines)


def tower_spec(coefficients: str, window: Window, seed: int) -> tuple[str, list[str]]:
    """F[x1:2, x2:2, x3:4, x4:4] with I = (x1, x2, x3, x4).

    A nonzero seed renames the generators, flips signs over Z, and changes
    generators triangularly inside a degree: I = (x1, x2, x3 + c*x1^2,
    x4 + c'*x2^2) with c, c' = +-1 is the same ideal, so every rank of R/I^s
    and of the tower's homology is unchanged.  The shape of the change is the
    same for every nonzero seed, because reordering the generators or the
    sequence moves the run time by up to 20% and would drown the run-to-run
    spread the benchmark has to resolve.
    """
    names = [n for n, _ in TOWER_GENERATORS]
    entries = list(names)
    rng = None
    if seed:
        rng = random.Random(seed)
        names = [f"{letter}{rng.randrange(10)}"
                 for letter in rng.sample("abcdefghjkmnpqrsuvwyz", 4)]
        signs = (1,) if coefficients.startswith("F") else (1, -1)
        x1, x2, x3, x4 = names
        entries = [x1, x2,
                   f"{x3} + {rng.choice(signs)}*{x1}^2",
                   f"{x4} + {rng.choice(signs)}*{x2}^2"]
    listing = [(n, d) for n, (_, d) in zip(names, TOWER_GENERATORS)]
    return _render([
        ("ring", [("coefficients", coefficients),
                  ("generators", ", ".join(f"{n}:{d}" for n, d in listing))]),
        ("ideal", [("entry", e) for e in entries]),
        ("window", window.pairs()),
    ], rng), []


def cobar_spec(window: Window, seed: int) -> tuple[str, list[str]]:
    """Generator-free F2 base; the primitives 1, 3, 5, 7 go on the command
    line, in an order the seed permutes (the table does not depend on it)."""
    primitives = [1, 3, 5, 7]
    rng = None
    if seed:
        rng = random.Random(seed)
        rng.shuffle(primitives)
    text = _render([("ring", [("coefficients", "F2"), ("generators", "")]),
                    ("window", window.pairs())], rng)
    return text, ["primitives=" + ",".join(map(str, primitives))]


def example_b_spec(window: Window, seed: int) -> tuple[str, list[str]]:
    """Example B has no input freedom that keeps the artifacts: the seed only
    reorders keys inside the sections, which exercises the parser alone."""
    rng = random.Random(seed) if seed else None
    text = _render([("example", list(EXAMPLE_B)),
                    ("window", [("t_min", "0"), ("t_max", "20"),
                                ("s_max", "6"), ("stage_max", "4")])], rng)
    return text, ["--window", window.flag()]


@dataclass(frozen=True)
class Step:
    """One ``koszul`` CLI invocation on a generated spec file."""

    name: str  # keys the pinned digests in digests.json
    command: tuple[str, ...]
    make_spec: Callable[[Window, int], tuple[str, list[str]]]
    window: Window
    smoke_window: Window  # a small window for the benchmark's own tests
    artifacts: tuple[str, ...]

    def invocation(self, seed: int, smoke: bool = False) -> tuple[str, list[str]]:
        """(spec text, CLI arguments besides --spec/--out/--jobs) for one run."""
        return self.make_spec(self.smoke_window if smoke else self.window, seed)


@dataclass(frozen=True)
class Workload:
    """The invocations one sample runs, one after the other, each in a fresh
    interpreter; BENCHMARK.json and README.md say why the workload exists."""

    name: str
    steps: tuple[Step, ...]
    # per-layer call counters that must be nonzero on this workload; a zero
    # means a wrapper went stale and the traced run fails
    exercises: tuple[str, ...]


_COMMON = ("rings.monomials.calls", "specfile.parse_spec.calls",
           "charts.write.calls", "cli.main.calls")
_CHAIN = ("linalg.compose.calls", "complexes.realize.calls",
          "complexes.verify_differential.calls", "complexes.homology_ranks.calls")
_TOWER_ARTIFACTS = ("tower_s3.csv", "tower_s3.svg")

TOWER_F2 = Step("tower-f2", ("tower", "s=3"), partial(tower_spec, "F2"),
                Window(0, 16, 3, 4), Window(0, 8, 3, 4), _TOWER_ARTIFACTS)
COBAR_F2 = Step("cobar-f2", ("cotor",), cobar_spec,
                Window(0, 18, 5, 4), Window(0, 10, 5, 4), ("cotor.csv", "cotor.svg"))
TOWER_Z = Step("tower-z", ("tower", "s=3"), partial(tower_spec, "Z"),
               Window(0, 12, 3, 4), Window(0, 8, 3, 4), _TOWER_ARTIFACTS)
COMPLETE_B = Step("complete-b", ("complete",), example_b_spec,
                  Window(0, 14, 6, 4), Window(0, 6, 6, 4), ("complete.csv", "complete.svg"))
STEPS = {s.name: s for s in (TOWER_F2, COBAR_F2, TOWER_Z, COMPLETE_B)}

WORKLOADS = {w.name: w for w in (
    Workload("f2-tower-cobar", (TOWER_F2, COBAR_F2),
             _COMMON + _CHAIN + ("linalg.rank_field.calls", "rings.free_reduce.calls",
                                 "rings.regularity.calls", "tower.tower_free.calls",
                                 "rings.power_quotient_dimension.calls",
                                 "cotor.cobar_free.calls", "cotor.closed_form.calls")),
    Workload("z-tower-complete", (TOWER_Z, COMPLETE_B),
             _COMMON + _CHAIN + ("linalg.rational_rank.calls", "linalg.snf.calls",
                                 "linalg.lattice_contains.calls",
                                 "rings.free_reduce.calls", "rings.relation_matrix.calls",
                                 "tower.tower_free.calls",
                                 "adams.completion_tower.calls")),
)}
