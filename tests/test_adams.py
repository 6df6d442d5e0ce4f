"""Tests for the example configurations and completion towers.

Frozen oracles: hand-enumerated index exclusion sets for the three example
families, the p-adic pattern Z/3^s, and the cutoff stage for a principal
ideal on one polynomial generator.
"""
import pytest

from koszul.adams import (
    CompletionReport,
    ExampleConfig,
    adams_e2_table,
    completion_tower,
    example_base,
    example_hopf,
    kernel_sequence_model,
    kunneth_indices,
)
from koszul.cotor import cotor_ranks, parity_violations
from koszul.linalg import Coefficients
from koszul.rings import DegreeWindow, IdealSpec, RingSpec

W = DegreeWindow(0, 20, 6, stage_max=6)


def cfg(which, p, j_max, n=0, window=W):
    return ExampleConfig(which, p, j_max, window, n=n)


def test_index_sets_match_hand_enumeration():
    # family B keeps j >= 1 minus p^k - 1 for 1 <= k <= n;
    # family C keeps j >= 0 minus p^n - 1
    assert kunneth_indices(cfg("B", 2, 6, n=1)) == (2, 3, 4, 5, 6)
    assert kunneth_indices(cfg("B", 2, 8, n=2)) == (2, 4, 5, 6, 7, 8)
    assert kunneth_indices(cfg("B", 3, 6, n=1)) == (1, 3, 4, 5, 6)
    assert kunneth_indices(cfg("C", 2, 4, n=1)) == (0, 2, 3, 4)
    assert kunneth_indices(cfg("C", 2, 5, n=2)) == (0, 1, 2, 4, 5)
    assert kunneth_indices(cfg("C", 3, 4, n=1)) == (0, 1, 3, 4)
    assert kunneth_indices(cfg("A", 2, 3)) == (0, 1, 2, 3)


def test_config_validation():
    with pytest.raises(ValueError, match="unknown example"):
        cfg("D", 2, 3)
    with pytest.raises(ValueError, match="not prime"):
        cfg("A", 4, 3)
    with pytest.raises(ValueError, match="height"):
        cfg("B", 2, 3, n=0)
    with pytest.raises(ValueError, match="below the height"):
        cfg("C", 2, 1, n=2)


def test_example_bases():
    a = example_base(cfg("A", 5, 2))
    assert a.generators == () and a.coefficients.is_field
    b = example_base(cfg("B", 3, 4, n=2))
    assert b.generators == (("v1", 4), ("v2", 16))
    assert not b.coefficients.is_field and b.inverted == "v2"
    c = example_base(cfg("C", 2, 4, n=2))
    assert c.generators == (("v2", 6),) and c.inverted == "v2"
    assert c.coefficients.is_field


def test_e2_tables_collapse_with_clean_parity():
    for c in (cfg("A", 2, 4), cfg("B", 3, 6, n=1), cfg("C", 2, 5, n=2)):
        tab = adams_e2_table(c)
        assert tab.collapse is not None
        assert tab.collapse.message == "collapses at E_2 within window"
        assert parity_violations(tab.table) == []
        assert tab.notes  # truncation is always on record


def test_polynomial_class_bidegrees_per_family():
    a = adams_e2_table(cfg("A", 2, 1))
    assert a.generators == (("U0", (1, 1)), ("U1", (1, 3)))
    b = adams_e2_table(cfg("B", 3, 6, n=1))
    assert [g for g, _ in b.generators] == ["U1", "U3", "U4", "U5", "U6"]
    assert dict(b.generators)["U3"] == (1, 7)
    c = adams_e2_table(cfg("C", 2, 5, n=2))
    assert [g for g, _ in c.generators] == ["U0", "U1", "U2", "U4", "U5"]


def test_closed_form_agrees_with_cobar_for_small_truncation():
    w = DegreeWindow(0, 8, 3)
    c = cfg("A", 2, 1, window=w)
    report = cotor_ranks(example_hopf(c), w)  # raises on any mismatch
    tab = adams_e2_table(c)
    assert {k: v.rank for k, v in report.table.items()} == {
        k: v for k, v in tab.table.items() if v
    }


def test_completion_of_integers_never_stabilizes():
    w = DegreeWindow(0, 4, 3, stage_max=6)
    ring = RingSpec(Coefficients.integers(), (), w)
    rep = completion_tower(ring, IdealSpec((ring.constant(3),)))
    assert isinstance(rep, CompletionReport)
    tower = rep.towers[0]
    assert tower.values == tuple((0, (3 ** s,)) for s in range(1, 7))
    assert tower.stabilized_at is None and not tower.certified
    assert "degree-zero" in tower.note
    assert rep.surjective


def test_principal_ideal_stabilizes_exactly_at_d_plus_one():
    w = DegreeWindow(0, 10, 3, stage_max=6)
    ring = RingSpec(Coefficients.prime_field(2), (("x1", 2),), w)
    rep = completion_tower(ring, IdealSpec((ring.generator("x1"),)))
    for d in range(6):
        tower = rep.towers[2 * d]
        assert tower.stabilized_at == d + 1
        assert tower.certified and tower.limit == 1
        assert tower.values == tuple(0 if s <= d else 1 for s in range(1, 7))
    assert rep.surjective and not rep.surjectivity_failures


def test_completion_requires_two_stages():
    w = DegreeWindow(0, 4, 2, stage_max=1)
    ring = RingSpec(Coefficients.prime_field(2), (("x1", 2),), w)
    with pytest.raises(ValueError, match="stage_max"):
        completion_tower(ring, IdealSpec((ring.generator("x1"),)))


def test_kernel_model_of_family_a_gives_the_p_adic_degree_zero():
    c = cfg("A", 3, 2, window=DegreeWindow(0, 6, 2, stage_max=4))
    ring, ideal, notes = kernel_sequence_model(c)
    assert ring.generators == (("x1", 2), ("x2", 4))
    assert ideal.degrees == (0, 2, 4)
    rep = completion_tower(ring, ideal, notes=notes)
    assert rep.towers[0].values == ((0, (3,)), (0, (9,)), (0, (27,)), (0, (81,)))
    assert rep.towers[2].values == ((0, ()), (0, (3,)), (0, (9,)), (0, (27,)))
    assert rep.notes and "truncated" in rep.notes[0]
    assert rep.surjective


def test_kernel_model_of_family_b_is_localized_with_no_certificate():
    c = cfg("B", 2, 3, n=1, window=DegreeWindow(0, 6, 2, stage_max=3))
    ring, ideal, _ = kernel_sequence_model(c)
    assert ring.inverted == "x1"
    assert ideal.degrees == (4, 6)  # x2 and x3 die, x1 survives inverted
    rep = completion_tower(ring, ideal)
    assert rep.surjective
    assert all(tw.stabilized_at is None for tw in rep.towers.values())
    assert "localized" in rep.towers[0].note


def test_kernel_model_needs_the_surviving_generator():
    with pytest.raises(ValueError, match="j_max"):
        kernel_sequence_model(cfg("C", 2, 2, n=2, window=W))


def test_completion_enumerates_each_degree_once(monkeypatch):
    # one monomial table per (ring, t): every stage, structure map and limit
    # value reads it instead of enumerating again
    import koszul.rings as rings

    calls = []
    real = rings._monomials

    def counting(ring, t):
        calls.append((ring, t))
        return real(ring, t)

    monkeypatch.setattr(rings, "_monomials", counting)
    ring, ideal, notes = kernel_sequence_model(cfg("B", 3, 6, n=1, window=DegreeWindow(0, 14, 6, 4)))
    rep = completion_tower(ring, ideal, notes=notes)
    assert rep.surjective and len(rep.towers) == 15
    assert calls and len(calls) == len(set(calls))
