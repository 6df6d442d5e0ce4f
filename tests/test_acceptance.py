"""The acceptance gate: ten criteria, one test and one printed verdict each.

Run with

    pytest tests/test_acceptance.py -v -s

Each test prints ``criterion N: PASS — ...`` on success (shown with ``-s``);
a failure shows up as an ordinary pytest failure with full detail.
"""
import json
import time
import xml.dom.minidom
from pathlib import Path

from koszul.adams import ExampleConfig, adams_e2_table, completion_tower, kunneth_indices
from koszul.cli import main
from koszul.complexes import verify_differential
from koszul.cotor import HopfSpec, cotor_ranks, parity_violations
from koszul.linalg import Coefficients
from koszul.rings import DegreeWindow, IdealSpec, RingSpec, check_regular_sequence
from koszul.specfile import parse_spec, print_spec
from koszul.tower import (
    build_tower_resolution,
    tor_against_power,
    tor_diagonal,
    tower_free,
    verify_partial_exactness,
)

SPECS_DIR = Path(__file__).resolve().parent.parent / "specs"


def field_ring(p, degrees, t_max, s_max=6, stage_max=6):
    gens = tuple((f"x{i}", d) for i, d in enumerate(degrees, 1))
    w = DegreeWindow(0, t_max, s_max, stage_max=stage_max)
    return RingSpec(Coefficients.prime_field(p), gens, w)


def ideal_on(ring, *names):
    return IdealSpec(tuple(ring.generator(n) for n in names))


def verdict(n, text):
    print(f"criterion {n}: PASS — {text}")


def test_criterion_01_tor_diagonal_oracle_equivalence():
    ring = field_ring(2, (2, 4, 6), 16, s_max=3, stage_max=4)
    ideal = ideal_on(ring, "x1", "x2", "x3")
    start = time.perf_counter()
    report = tor_diagonal(ring, ideal)  # raises on any brute/closed mismatch
    elapsed = time.perf_counter() - start
    assert report.table == report.closed
    assert report.table[(3, 12)] == 1 and report.table[(0, 0)] == 1
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    verdict(1, f"brute force equals the exterior closed form on "
               f"{len(report.table)} bidegrees in {elapsed:.2f}s")


def test_criterion_02_tower_resolutions():
    ring = field_ring(2, (2, 4, 6), 16, s_max=3, stage_max=4)
    ideal = ideal_on(ring, "x1", "x2", "x3")
    for s in (1, 2, 3, 4):
        report = build_tower_resolution(ring, ideal, s)
        assert report.differential.ok
        assert report.h0_mismatches == [], f"s={s}"
        assert report.higher_nonzero == [], f"s={s}"
        assert report.ok, str(report)
    verdict(2, "stages 1..4 resolve R/I^s with homology matching "
               "power_quotient_dimension degreewise")


def test_criterion_03_boundary_complex_exactness():
    for degrees, names in (((2,), ("x1",)), ((2, 4), ("x1", "x2"))):
        ring = field_ring(2, degrees, 16, s_max=3, stage_max=4)
        ideal = ideal_on(ring, *names)
        for s in (2, 3, 4):
            report = verify_partial_exactness(ring, ideal, s)
            assert report.ok, f"g={len(names)}, s={s}:\n{report}"
            assert report.base_dims[0] == 1
    verdict(3, "boundary complexes exact at interior nodes for g=1,2 and "
               "s=2..4, kernel of the first map = base quotient")


def test_criterion_04_tor_against_powers_and_trivial_products():
    ring = field_ring(2, (2, 4), 16, s_max=3, stage_max=4)
    ideal = ideal_on(ring, "x1", "x2")
    for s in (2, 3):
        report = tor_against_power(ring, ideal, s)  # raises if pipelines differ
        assert report.free_over_base, f"s={s}"
        assert report.nonzero_products == [], f"s={s}"
        assert report.products_checked > 0
    verdict(4, "both pipelines agree for s=2,3; tables free over R/I with "
               "all positive-degree products zero")


def test_criterion_05_cotor_oracle_equivalence():
    w = DegreeWindow(0, 15, 3)
    base = RingSpec(Coefficients.prime_field(2), (), w)
    for primitives in ((("t1", 3),), (("t1", 3), ("t2", 5))):
        report = cotor_ranks(HopfSpec(base, primitives), w)  # raises on mismatch
        assert report.differential.ok  # BigradedComplex raises on d.d != 0
        assert all(entry.certain for entry in report.table.values())
    verdict(5, "cobar cohomology equals the polynomial closed form for one "
               "and two primitives through (s,t) <= (3,15)")


def test_criterion_06_collapse_audits():
    w = DegreeWindow(0, 20, 6, stage_max=4)
    configs = (
        ExampleConfig("A", 2, 4, w),
        ExampleConfig("B", 3, 6, w, n=1),
        ExampleConfig("C", 2, 5, w, n=2),
    )
    for config in configs:
        tab = adams_e2_table(config)
        assert tab.collapse.message == "collapses at E_2 within window", str(config)
        assert parity_violations(tab.table) == [], str(config)
    verdict(6, "examples A(2,4), B(3,1,6), C(2,2,5) all collapse at E_2 "
               "with t = s (mod 2) at every nonzero entry")


def test_criterion_07_completion_towers():
    w = DegreeWindow(0, 4, 2, stage_max=6)
    integers = RingSpec(Coefficients.integers(), (), w)
    report = completion_tower(integers, IdealSpec((integers.constant(3),)))
    tower = report.towers[0]
    assert tower.values == tuple((0, (3 ** s,)) for s in range(1, 7))
    assert tower.stabilized_at is None

    w2 = DegreeWindow(0, 10, 3, stage_max=6)
    poly = RingSpec(Coefficients.prime_field(2), (("x1", 2),), w2)
    report2 = completion_tower(poly, IdealSpec((poly.generator("x1"),)))
    for d in range(6):
        assert report2.towers[2 * d].stabilized_at == d + 1, f"d={d}"
    verdict(7, "Z/(3) gives Z/3^s with no stabilization; F_2[x1]/(x1) "
               "degree-2d components stabilize exactly at stage d+1")


def test_criterion_08_example_index_sets():
    w = DegreeWindow(0, 20, 6)
    oracle = {
        ("B", 2, 1, 6): (2, 3, 4, 5, 6),
        ("B", 2, 2, 8): (2, 4, 5, 6, 7, 8),
        ("B", 3, 1, 6): (1, 3, 4, 5, 6),
        ("C", 2, 1, 4): (0, 2, 3, 4),
        ("C", 2, 2, 5): (0, 1, 2, 4, 5),
        ("C", 3, 1, 4): (0, 1, 3, 4),
    }
    for (which, p, n, j_max), expected in oracle.items():
        got = kunneth_indices(ExampleConfig(which, p, j_max, w, n=n))
        assert got == expected, f"{which} p={p} n={n}"
    verdict(8, "hand-enumerated exclusion sets reproduced for (p,n) in "
               "{(2,1),(2,2),(3,1)} in both families")


def test_criterion_09_cli_roundtrip_and_determinism(tmp_path):
    files = sorted(SPECS_DIR.glob("*.spec"))
    assert len(files) == 10
    for f in files:
        config = parse_spec(f.read_text(encoding="utf-8"))
        assert parse_spec(print_spec(config)) == config, f.name
    outs = (tmp_path / "a", tmp_path / "b")
    for out in outs:
        code = main(["tor", "--spec", str(SPECS_DIR / "diagonal_f2.spec"),
                     "--out", str(out)])
        assert code == 0
    a, b = (out / "tor.csv" for out in outs)
    assert a.read_bytes() == b.read_bytes()
    xml.dom.minidom.parse(str(outs[0] / "tor.svg"))
    verdict(9, "all 10 shipped spec files parse-print-parse identically and "
               "repeated tor runs are byte-identical")


def test_criterion_10_negative_controls():
    # A flipped sign must be caught and located.  Signs are invisible mod 2,
    # so the corruption check runs over F_3.
    ring = field_ring(3, (2, 4), 8)
    ideal = ideal_on(ring, "x1", "x2")
    cx = tower_free(ring, ideal, 2).realize()
    assert verify_differential(cx).ok
    key = next((s, t) for (s, t) in sorted(cx.diff)
               if s == 2 and cx.diff[(s, t)].entries)
    matrix = cx.diff[key]
    (i, j), v = sorted(matrix.entries.items())[0]
    matrix.set(i, j, ring.coefficients.neg(v))
    report = verify_differential(cx)
    assert not report.ok
    assert report.violations[0].kind == "square"
    assert (report.violations[0].s, report.violations[0].t) == key

    repeated = IdealSpec((ring.generator("x1"), ring.generator("x1")))
    reg = check_regular_sequence(ring, repeated)
    assert not reg.ok
    assert reg.failures[0].index == 2
    verdict(10, "sign corruption located at its bidegree; repeated generator "
                "rejected at sequence index 2")
