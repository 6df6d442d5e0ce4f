"""Tests for cobar complexes of exterior coalgebras and the collapse audit.

Frozen oracles: hand-expanded reduced coproduct of a two-index letter over
F_3, polynomial monomial counts for one and two generators, and a fabricated
rank table with a reachable differential as the negative control.
"""
import pytest

from koszul.complexes import (
    BasisLabel,
    OracleMismatchError,
    homology_ranks,
    verify_differential,
)
from koszul.cotor import (
    ADAMS_PATTERN,
    KUNNETH_PATTERN,
    CollapseVerdict,
    E2Presentation,
    HopfSpec,
    cobar_complex,
    cobar_free,
    closed_form_ranks,
    coideal_letters,
    collapse_audit,
    cotor_ranks,
    e2_closed_form,
    parity_violations,
)
from koszul.linalg import Coefficients
from koszul.rings import DegreeWindow, RingSpec


def unit_base(p, t_max, t_min=0, s_max=6):
    return RingSpec(
        Coefficients.prime_field(p), (), DegreeWindow(t_min, t_max, s_max)
    )


def test_one_primitive_cohomology_sits_on_the_diagonal():
    w = DegreeWindow(0, 15, 3)
    h = HopfSpec(unit_base(2, 15, s_max=3), (("t1", 3),))
    report = cotor_ranks(h, w)
    assert {k: v.rank for k, v in report.table.items()} == {
        (0, 0): 1, (1, 3): 1, (2, 6): 1, (3, 9): 1,
    }


def test_two_primitives_match_the_polynomial_count():
    w = DegreeWindow(0, 15, 3)
    h = HopfSpec(unit_base(2, 15, s_max=3), (("t1", 3), ("t2", 5)))
    report = cotor_ranks(h, w)
    assert {k: v.rank for k, v in report.table.items()} == {
        (0, 0): 1,
        (1, 3): 1, (1, 5): 1,
        (2, 6): 1, (2, 8): 1, (2, 10): 1,
        (3, 9): 1, (3, 11): 1, (3, 13): 1, (3, 15): 1,
    }


def test_zero_primitives_concentrate_at_filtration_zero():
    w = DegreeWindow(0, 15, 3)
    h = HopfSpec(unit_base(2, 15, s_max=3), ())
    report = cotor_ranks(h, w)
    assert {k: v.rank for k, v in report.table.items()} == {(0, 0): 1}


def test_polynomial_base_enters_through_its_hilbert_series():
    w = DegreeWindow(0, 9, 2)
    base = RingSpec(Coefficients.prime_field(2), (("x1", 2),), w)
    h = HopfSpec(base, (("t1", 3),))
    report = cotor_ranks(h, w)
    # row s: one class per power of x1 on top of the degree-3s generator
    assert {k: v.rank for k, v in report.table.items()} == {
        (0, 0): 1, (0, 2): 1, (0, 4): 1, (0, 6): 1, (0, 8): 1,
        (1, 3): 1, (1, 5): 1, (1, 7): 1, (1, 9): 1,
        (2, 6): 1, (2, 8): 1,
    }


def test_d_squared_vanishes_with_three_primitives_over_f3():
    # letters include pairs and one triple, so this exercises the unshuffle
    # and prefix signs through double splittings; F_3 sees every sign
    w = DegreeWindow(0, 12, 4)
    base = RingSpec(Coefficients.prime_field(3), (), w)
    h = HopfSpec(base, (("t1", 1), ("t2", 3), ("t3", 5)))
    assert verify_differential(cobar_complex(h, w)).ok
    report = cotor_ranks(h, w)
    assert report.differential.ok  # kept from realize, which raises on d.d != 0


def test_coproduct_signs_on_a_two_index_letter():
    # d[t(1,2)] = [t1|t2] - [t2|t1]: hand expansion of the reduced coproduct
    w = DegreeWindow(0, 6, 2)
    base = RingSpec(Coefficients.prime_field(3), (), w)
    h = HopfSpec(base, (("t1", 1), ("t2", 3)))
    cx = cobar_complex(h, w)
    col = cx.basis[(1, 4)].index((BasisLabel(word=((1, 2),)), ()))
    rows = [label.word for label, _ in cx.basis[(2, 4)]]
    m = cx.matrix(1, 4)
    assert m.get(rows.index(((1,), (2,))), col) == 1
    assert m.get(rows.index(((2,), (1,))), col) == 2  # -1 mod 3
    # behind a prefix letter t(1,2) of even degree 4 the shifted prefix
    # degree is 5, so the splittings of the second letter flip sign:
    # d[t12|t12] = [t1|t2|t12] - [t2|t1|t12] - [t12|t1|t2] + [t12|t2|t1]
    w = DegreeWindow(0, 8, 2)
    h = HopfSpec(RingSpec(Coefficients.prime_field(3), (), w), (("t1", 1), ("t2", 3)))
    cx = cobar_complex(h, w)
    col = cx.basis[(2, 8)].index((BasisLabel(word=((1, 2), (1, 2))), ()))
    rows = [label.word for label, _ in cx.basis[(3, 8)]]
    assert {rows[i]: v for i, v in cx.matrix(2, 8).columns[col].items()} == {
        ((1,), (2,), (1, 2)): 1, ((2,), (1,), (1, 2)): 2,
        ((1, 2), (1,), (2,)): 2, ((1, 2), (2,), (1,)): 1,
    }


def test_letters_enumerate_the_augmentation_coideal():
    h = HopfSpec(unit_base(2, 8), (("t1", 1), ("t2", 3)))
    assert coideal_letters(h) == [(1,), (2,), (1, 2)]


def test_word_budget_prunes_by_internal_degree():
    w = DegreeWindow(0, 8, 2)
    h = HopfSpec(unit_base(2, 8, s_max=2), (("t1", 3), ("t2", 5)))
    free = cobar_free(h, w)
    counts = {s: len(free.levels[s]) for s in free.hom_degrees()}
    assert counts == {0: 1, 1: 3, 2: 3}
    assert free.complete_above  # a length-4 word needs degree 12 > 8


def test_top_level_truncation_is_marked_uncertain():
    w = DegreeWindow(0, 12, 2)
    h = HopfSpec(unit_base(2, 12, s_max=2), (("t1", 3),))
    cx = cobar_complex(h, w)
    assert not cx.complete_above
    entries = homology_ranks(cx)
    assert entries[(2, 6)].certain
    assert not entries[(3, 9)].certain  # guard level, targets were cut


def test_integer_base_cohomology_is_torsion_free():
    w = DegreeWindow(0, 12, 4)
    base = RingSpec(Coefficients.integers(), (), w)
    h = HopfSpec(base, (("t1", 3), ("t2", 5)))
    report = cotor_ranks(h, w)
    assert all(v.torsion == () for v in report.table.values())
    assert {k: v.rank for k, v in report.table.items()} == {
        k: v for k, v in report.closed.items() if v
    }


def test_closed_form_mismatch_is_a_hard_failure(monkeypatch):
    w = DegreeWindow(0, 6, 2)
    h = HopfSpec(unit_base(2, 6, s_max=2), (("t1", 3),))
    monkeypatch.setattr("koszul.cotor.closed_form_ranks", lambda h, w: {})
    with pytest.raises(OracleMismatchError) as err:
        cotor_ranks(h, w)
    assert err.value.witness["kind"] == "cotor"
    assert err.value.witness["brute"] == 1
    assert err.value.witness["closed"] == 0


def test_missing_predicted_class_is_also_a_hard_failure(monkeypatch):
    w = DegreeWindow(0, 6, 2)
    h = HopfSpec(unit_base(2, 6, s_max=2), ())
    monkeypatch.setattr(
        "koszul.cotor.closed_form_ranks", lambda h, w: {(0, 0): 1, (2, 6): 3}
    )
    with pytest.raises(OracleMismatchError) as err:
        cotor_ranks(h, w)
    assert err.value.witness == {
        "kind": "cotor", "s": 2, "t": 6, "brute": 0, "closed": 3,
    }


def test_localized_base_is_rejected_at_chain_level():
    w = DegreeWindow(0, 8, 2)
    base = RingSpec(
        Coefficients.prime_field(2), (("v1", 2),), w, inverted="v1"
    )
    h = HopfSpec(base, (("t1", 3),))
    with pytest.raises(ValueError, match="inverted"):
        cobar_complex(h, w)
    # the closed form still counts truncated Laurent monomials
    closed = closed_form_ranks(h, w)
    assert closed[(0, 0)] == 1 and closed[(1, 3)] == 1 and closed[(1, 5)] == 1


def test_primitive_validation():
    base = unit_base(2, 8)
    with pytest.raises(ValueError, match="odd"):
        HopfSpec(base, (("t1", 2),))
    with pytest.raises(ValueError, match="distinct"):
        HopfSpec(base, (("t1", 3), ("t1", 5)))


def test_e2_closed_form_names_generators_and_duals():
    w = DegreeWindow(0, 15, 3)
    h = HopfSpec(unit_base(2, 15, s_max=3), (("t1", 3), ("t2", 5)))
    p = e2_closed_form(h, w)
    assert p.generators == (("U1", (1, 3)), ("U2", (1, 5)))
    assert p.dual_operations == (("Q1", 3), ("Q2", 5))
    assert p.base_dims == {0: 1}
    assert p.table == closed_form_ranks(h, w)
    assert parity_violations(p.table) == []


def test_collapse_audit_passes_on_a_parity_clean_table():
    w = DegreeWindow(0, 15, 3)
    h = HopfSpec(unit_base(2, 15, s_max=3), (("t1", 3), ("t2", 5)))
    p = e2_closed_form(h, w)
    verdict = collapse_audit(p, ADAMS_PATTERN)
    assert verdict.ok
    assert verdict.message == "collapses at E_2 within window"
    assert verdict.pairs_checked > 0


def test_collapse_audit_finds_a_fabricated_differential():
    w = DegreeWindow(0, 15, 3)
    fake = E2Presentation(
        "F_2", {0: 1}, (), {(1, 2): 1, (3, 3): 1}, w
    )
    verdict = collapse_audit(fake, ADAMS_PATTERN)
    assert not verdict.ok
    assert verdict.candidates == ((2, (1, 2), (3, 3)),)


def test_kunneth_pattern_on_an_exterior_table():
    # exterior classes at (1, even) can never hit each other going down
    w = DegreeWindow(0, 15, 3)
    ext = E2Presentation(
        "F_2", {0: 1}, (),
        {(0, 0): 1, (1, 2): 1, (1, 4): 1, (2, 6): 1}, w,
    )
    verdict = collapse_audit(ext, KUNNETH_PATTERN)
    assert verdict.ok
    assert isinstance(verdict, CollapseVerdict)

