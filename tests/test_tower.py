"""Tests for Koszul complexes, stage resolutions, and Tor cross-checks.

Frozen oracles: hand elimination on one- and two-generator quotients, a
Z/4 invariant from a 2x2 integer Smith form, and an explicitly worked
cokernel table for two generators at stage 2.
"""
import tracemalloc

import pytest

from koszul.complexes import (
    BasisLabel,
    HomologyBasis,
    OracleMismatchError,
    homology_ranks,
    nonzero_table,
    verify_differential,
)
from koszul.linalg import Coefficients
from koszul.rings import DegreeWindow, IdealSpec, RingSpec, check_regular_sequence
from koszul.tower import (
    RegularityError,
    build_koszul,
    boundary_block,
    build_tower_resolution,
    sequence_window_cut,
    tor_against_power,
    tor_diagonal,
    tower_free,
    verify_partial_exactness,
)


def ring_f(p, degrees, t_max, names=None):
    names = names or [f"x{i+1}" for i in range(len(degrees))]
    return RingSpec(
        Coefficients.prime_field(p),
        tuple(zip(names, degrees)),
        DegreeWindow(0, t_max),
    )


def ideal_on(ring, *names):
    return IdealSpec(tuple(ring.generator(n) for n in names))


def test_koszul_resolves_the_quotient():
    ring = ring_f(2, (2, 4), 12)
    ideal = ideal_on(ring, "x1", "x2")
    cx = build_koszul(ring, ideal)
    h = nonzero_table(homology_ranks(cx))
    assert {k: v.rank for k, v in h.items()} == {(0, 0): 1}


def test_build_koszul_rejects_non_regular():
    ring = ring_f(2, (2,), 8)
    x1 = ring.generator("x1")
    with pytest.raises(RegularityError) as err:
        build_koszul(ring, IdealSpec((x1, x1)))
    assert err.value.report.failures[0].index == 2


def test_koszul_integer_torsion():
    ring = RingSpec(Coefficients.integers(), (("x1", 2),), DegreeWindow(0, 6))
    ideal = IdealSpec((ring.constant(2), ring.generator("x1")))
    cx = build_koszul(ring, ideal)
    h = homology_ranks(cx)
    assert h[(0, 0)].rank == 0 and h[(0, 0)].torsion == (2,)
    for (s, t), entry in h.items():
        if (s, t) != (0, 0):
            assert entry.rank == 0 and entry.torsion == ()


def test_tor_diagonal_small_cases():
    ring1 = ring_f(2, (2,), 8)
    rep1 = tor_diagonal(ring1, ideal_on(ring1, "x1"))
    assert rep1.table == {(0, 0): 1, (1, 2): 1}

    ring2 = ring_f(2, (2, 4), 10)
    rep2 = tor_diagonal(ring2, ideal_on(ring2, "x1", "x2"))
    assert rep2.table == {(0, 0): 1, (1, 2): 1, (1, 4): 1, (2, 6): 1}


def test_tor_diagonal_empty_sequence():
    ring = ring_f(2, (2,), 6)
    rep = tor_diagonal(ring, IdealSpec(()))
    assert rep.table == {(0, 0): 1, (0, 2): 1, (0, 4): 1, (0, 6): 1}


def test_window_cut_names_oversized_entries():
    ring = ring_f(2, (2, 4), 3)  # span 3 excludes the degree-4 generator
    ideal = ideal_on(ring, "x1", "x2")
    kept, cut = sequence_window_cut(ring, ideal)
    assert kept == [1] and cut == [2]
    rep = tor_diagonal(ring, IdealSpec((ring.generator("x1"),)))
    assert (1, 2) in rep.table


def test_boundary_matrix_signs_over_f3():
    # removing e_1 with no index picks up sign (-1)^1 = -1, i.e. 2 mod 3
    ring = ring_f(3, (2, 4), 8)
    ideal = ideal_on(ring, "x1", "x2")
    cx = tower_free(ring, ideal, 3).realize()
    src, tgt, block = boundary_block(cx, 0, 1, 2)
    col = src.index((BasisLabel(e_part=(1,)), (0, 0)))
    row = tgt.index((BasisLabel(u_part=(1,)), (0, 0)))
    assert block.get(row, col) == 2
    # inserting into an existing index sorts it: e_1 u~_(2) -> -u~_(1,2)
    src1, tgt1, block1 = boundary_block(cx, 1, 1, 6)
    col = src1.index((BasisLabel(e_part=(1,), u_part=(2,)), (0, 0)))
    row = tgt1.index((BasisLabel(u_part=(1, 2)), (0, 0)))
    assert block1.get(row, col) == 2
    # no exterior factor: the column is zero
    src0, _, block0 = boundary_block(cx, 1, 0, 2)
    col0 = src0.index((BasisLabel(u_part=(1,)), (0, 0)))
    assert all(j != col0 for (_, j) in block0.entries)


def test_boundary_anticommutes_with_koszul_differential():
    # d^2 = 0 on a stage complex is, block by block, d_K^2 = 0 on the
    # diagonal and the anticommutator of d_K with the boundary off it
    ring = ring_f(3, (2, 4), 8)
    ideal = ideal_on(ring, "x1", "x2")
    for s in (2, 3):
        cx = tower_free(ring, ideal, s).realize()
        assert any(boundary_block(cx, 0, *key)[2].entries for key in cx.basis)
        report = verify_differential(cx)
        assert report.ok, f"stage {s}: {report}"


def test_tower_stage_one_is_koszul():
    ring = ring_f(2, (2, 4), 10)
    ideal = ideal_on(ring, "x1", "x2")
    tower = tower_free(ring, ideal, 1)
    labels = set(tower.labels)
    assert labels == {BasisLabel(e_part=e) for e in ((), (1,), (2,), (1, 2))}
    h = nonzero_table(homology_ranks(build_koszul(ring, ideal)))
    assert {k: v.rank for k, v in h.items()} == {(0, 0): 1}
    rep = build_tower_resolution(ring, ideal, 1)
    assert rep.ok


def test_tower_resolution_one_generator():
    ring = ring_f(2, (2,), 10)
    ideal = ideal_on(ring, "x1")
    rep = build_tower_resolution(ring, ideal, 2)
    assert rep.ok
    assert rep.h0_found == {t: (1 if t in (0, 2) else 0) for t in range(11)}


def test_tower_resolution_stages_two_generators():
    ring = ring_f(2, (2, 4), 12)
    ideal = ideal_on(ring, "x1", "x2")
    for s in (1, 2, 3):
        rep = build_tower_resolution(ring, ideal, s)
        assert rep.ok, str(rep)
        assert not rep.higher_nonzero


def test_tower_resolution_integer_coefficients():
    ring = RingSpec(Coefficients.integers(), (), DegreeWindow(0, 0))
    ideal = IdealSpec((ring.constant(2),))
    rep = build_tower_resolution(ring, ideal, 2)
    assert rep.ok
    assert rep.h0_found[0] == (0, (4,))
    assert rep.augmentation_composite_zero is None  # skipped over Z


def test_sign_corruption_is_located():
    ring = ring_f(3, (2, 4), 8)
    ideal = ideal_on(ring, "x1", "x2")
    cx = tower_free(ring, ideal, 2).realize()
    assert verify_differential(cx).ok
    key = next(
        (s, t) for (s, t) in sorted(cx.diff) if s == 2 and cx.diff[(s, t)].entries
    )
    m = cx.diff[key]
    (i, j), v = sorted(m.entries.items())[0]
    m.set(i, j, ring.coefficients.neg(v))
    report = verify_differential(cx)
    assert not report.ok
    assert report.violations[0].kind == "square"
    assert (report.violations[0].s, report.violations[0].t) == key


def test_f2_tower_audit_peak_memory():
    # each F2 differential is stored packed, one int per column, and the d.d
    # audit and the ranks read it as stored: the traced peak of the stage-3
    # tower at t <= 16 is about 1.1 MB (it was 2.0 MB with a dict per column)
    ring = ring_f(2, (2, 2, 4, 4), 16)
    ideal = ideal_on(ring, "x1", "x2", "x3", "x4")
    tracemalloc.start()
    try:
        assert build_tower_resolution(ring, ideal, 3).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


def test_partial_exactness_one_and_two_generators():
    ring1 = ring_f(2, (2,), 10)
    for s in (2, 3, 4):
        rep = verify_partial_exactness(ring1, ideal_on(ring1, "x1"), s)
        assert rep.ok, str(rep)
    ring2 = ring_f(2, (2, 4), 10)
    for s in (2, 3):
        rep = verify_partial_exactness(ring2, ideal_on(ring2, "x1", "x2"), s)
        assert rep.ok, str(rep)
        assert rep.base_dims[0] == 1


EXACTNESS_CASES = [
    (2, (2,), 10, ("x1",), 4),
    (2, (2, 4), 12, ("x1", "x2"), 4),
    (2, (2, 2, 4, 4), 16, ("x1", "x2", "x3", "x4"), 4),
    (3, (2, 4), 10, ("x1", "x2"), 3),
]


@pytest.mark.parametrize("p, degrees, t_max, entries, s", EXACTNESS_CASES)
def test_exactness_at_lower_stages_reads_the_top_stage(p, degrees, t_max, entries, s):
    ring = ring_f(p, degrees, t_max)
    ideal = ideal_on(ring, *entries)
    full = verify_partial_exactness(ring, ideal, s)
    assert full.ok
    for k in range(2, s + 1):
        assert full.at_stage(k) == verify_partial_exactness(ring, ideal, k)
    for k in (1, s + 1):
        with pytest.raises(ValueError):
            full.at_stage(k)


def test_exactness_failures_are_kept_per_stage(monkeypatch):
    # ranks one short make interior and end checks fail; each stage's report
    # keeps exactly the failures of the checks that stage runs
    import koszul.tower

    honest = koszul.tower.rank_over_field
    monkeypatch.setattr(koszul.tower, "rank_over_field",
                        lambda m, c: max(honest(m, c) - 1, 0))
    ring = ring_f(2, (2, 4), 12)
    ideal = ideal_on(ring, "x1", "x2")
    full = verify_partial_exactness(ring, ideal, 4)
    assert {f.check for f in full.failures} == {"interior", "end"}
    assert not full.interior_exact and not full.end_kernel_is_base and full.composite_zero
    for k in (2, 3, 4):
        assert full.at_stage(k) == verify_partial_exactness(ring, ideal, k)
    assert full.at_stage(2).interior_exact
    assert not full.at_stage(3).interior_exact
    assert all(f.stage <= 3 for f in full.at_stage(3).failures)
    assert any(f.stage == 4 for f in full.failures)


def test_partial_exactness_rejects_non_regular():
    ring = ring_f(2, (2,), 8)
    x1 = ring.generator("x1")
    with pytest.raises(RegularityError):
        verify_partial_exactness(ring, IdealSpec((x1, x1)), 2)


def test_tor_against_power_one_generator():
    ring = ring_f(2, (2,), 10)
    rep = tor_against_power(ring, ideal_on(ring, "x1"), 2)
    assert rep.table == {(0, 0): 1, (1, 4): 1}
    assert rep.free_over_base
    assert (0, 0, 1) in rep.free_generators and (1, 4, 1) in rep.free_generators
    assert rep.products_checked >= 1


def test_tor_against_power_two_generators_frozen_table():
    # cokernel of the first boundary worked by hand over F_2:
    # image is spanned by u~_1, u~_2, and e_2 u~_1 + e_1 u~_2
    ring = ring_f(2, (2, 4), 12)
    rep = tor_against_power(ring, ideal_on(ring, "x1", "x2"), 2)
    assert rep.table == {
        (0, 0): 1,
        (1, 4): 1,
        (1, 6): 1,
        (1, 8): 1,
        (2, 8): 1,
        (2, 10): 1,
    }
    assert rep.free_over_base


def test_tor_against_power_raises_when_the_second_pipeline_is_off_by_one(monkeypatch):
    # pipeline (b) is R/I plus the cokernel of the last boundary; one rank
    # less there is one class more than the brute force finds
    import koszul.tower

    honest = koszul.tower.rank_over_field
    monkeypatch.setattr(koszul.tower, "rank_over_field",
                        lambda m, c: max(honest(m, c) - 1, 0))
    ring = ring_f(2, (2, 4), 12)
    with pytest.raises(OracleMismatchError) as err:
        tor_against_power(ring, ideal_on(ring, "x1", "x2"), 2)
    witness = err.value.witness
    assert witness["kind"] == "tor-power" and witness["stage"] == 2
    assert witness["closed"] == witness["brute"] + 1


def test_tor_against_power_raises_on_a_product_that_does_not_bound(monkeypatch):
    # two of the five products of this table are nonzero chains that bound
    monkeypatch.setattr(HomologyBasis, "is_boundary", lambda self, v: False)
    ring = ring_f(2, (2, 4), 12)
    with pytest.raises(OracleMismatchError) as err:
        tor_against_power(ring, ideal_on(ring, "x1", "x2"), 2)
    witness = err.value.witness
    assert witness["kind"] == "nonzero-product" and witness["stage"] == 2
    a, b = witness["factors"]
    assert witness["target"] == [a[0] + b[0], a[1] + b[1]]


def test_tor_against_power_stage_three():
    ring = ring_f(2, (2, 4), 12)
    rep = tor_against_power(ring, ideal_on(ring, "x1", "x2"), 3)
    assert rep.ok, str(rep)
    assert rep.table[(0, 0)] == 1


def test_regularity_report_order_sensitivity():
    ring = ring_f(2, (2, 4), 10)
    x1, x2 = ring.generator("x1"), ring.generator("x2")
    assert check_regular_sequence(ring, IdealSpec((x1, x2))).ok
    assert check_regular_sequence(ring, IdealSpec((x2, x1))).ok
    bad = check_regular_sequence(ring, IdealSpec((x2, x1 * x2)))
    assert not bad.ok and bad.failures[0].index == 2
