"""Tests for cobar complexes of exterior coalgebras and the collapse audit.

Frozen oracles: hand-expanded reduced coproduct of a two-index letter over
F_3, polynomial monomial counts for one and two generators, and a fabricated
rank table with a reachable differential as the negative control.
"""
import json
import tracemalloc
from itertools import combinations_with_replacement
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from koszul.cli import main
from koszul.complexes import (
    BasisLabel,
    DifferentialSquareError,
    FreeComplex,
    OracleMismatchError,
    homology_ranks,
    verify_differential,
)
import koszul.cotor
from koszul.adams import ExampleConfig, example_hopf
from koszul.cotor import (
    E2Presentation,
    HopfSpec,
    _cobar_letters,
    cobar_complex,
    cobar_free,
    closed_form_ranks,
    collapse_audit,
    cotor_ranks,
    e2_closed_form,
    parity_violations,
)
from koszul.linalg import (
    Coefficients,
    Matrix,
    VectorSpan,
    kernel_basis,
    rank_over_field,
    rational_rank,
    span_and_kernel,
)
from koszul.rings import DegreeWindow, RingSpec, monomial_count


def _patch(monkeypatch, name, fake):
    """Replace koszul.cotor.<name> by fake for the test; the list returned
    gets the arguments of every call, so a test can assert its fault fired."""
    calls = []

    def counted(*args):
        calls.append(args)
        return fake(*args)
    monkeypatch.setattr(koszul.cotor, name, counted)
    return calls


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
    cotor_ranks(h, w)  # the resolution's BigradedComplex raises on d.d != 0


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
    # shortest first, then lexicographic, and none past the degree bound
    h = HopfSpec(unit_base(2, 8), (("t1", 1), ("t2", 3)))
    assert list(_cobar_letters(h, 4)[0]) == [(1,), (2,), (1, 2)]
    assert list(_cobar_letters(h, 3)[0]) == [(1,), (2,)]
    # 13 primitives 1, 3, ..., 25 at t <= 30: 175 of the 8,191 letters
    h = HopfSpec(unit_base(2, 30), tuple((f"t{i}", 2 * i - 1) for i in range(1, 14)))
    ldeg, splits = _cobar_letters(h, 30)
    assert len(ldeg) == 175 and max(ldeg.values()) == 30
    assert sum(len(sp) for sp in splits.values()) == 1160


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
    h = HopfSpec(unit_base(2, 6, s_max=2), (("t1", 3), ("t2", 5)))
    # nothing predicted; the series without t2's factor 1/(1 - y q^5)
    for closed in ({}, closed_form_ranks(HopfSpec(h.base, h.primitives[:1]), w)):
        calls = _patch(monkeypatch, "closed_form_ranks", lambda h, w: closed)
        with pytest.raises(OracleMismatchError) as err:
            cotor_ranks(h, w)
        assert len(calls) == 1
        assert err.value.witness["kind"] == "cotor"
        assert err.value.witness["brute"] == 1
        assert err.value.witness["closed"] == 0


def test_missing_predicted_class_is_also_a_hard_failure(monkeypatch):
    w = DegreeWindow(0, 6, 2)
    h = HopfSpec(unit_base(2, 6, s_max=2), ())
    calls = _patch(monkeypatch, "closed_form_ranks", lambda h, w: {(0, 0): 1, (2, 6): 3})
    with pytest.raises(OracleMismatchError) as err:
        cotor_ranks(h, w)
    assert len(calls) == 1
    assert err.value.witness == {
        "kind": "cotor", "s": 2, "t": 6, "brute": 0, "closed": 3,
    }


def _closed_form_by_multisets(h, w):
    """The closed form summed over every multiset of primitives, one
    monomial_count per multiset and internal degree, with the same row skip:
    the reference for the series in closed_form_ranks."""
    out, g, degs = {}, len(h.primitives), h.degrees
    for s in range(w.s_max + 1):
        if s and (not g or s * min(degs) > w.t_max - min(0, w.t_min)):
            continue
        for combo in combinations_with_replacement(range(g), s):
            d = sum(degs[i] for i in combo)
            for t in w.degrees():
                if got := monomial_count(h.base, t - d):
                    out[(s, t)] = out.get((s, t), 0) + got
    return out


def _example(which, p, j_max, w, n=0):
    return example_hopf(ExampleConfig(which, p, j_max, w, n=n)), w


@pytest.mark.parametrize("h, w", [
    _example("A", 2, 6, DegreeWindow(0, 20, 6)),
    _example("A", 3, 4, DegreeWindow(-3, 12, 5)),
    _example("B", 3, 6, DegreeWindow(0, 20, 6), n=1),  # Z, v1 inverted
    _example("B", 2, 8, DegreeWindow(-4, 18, 5), n=2),
    _example("C", 2, 5, DegreeWindow(0, 20, 6), n=2),  # F2, v2 inverted
    _example("C", 3, 4, DegreeWindow(-6, 16, 4), n=1),
    (HopfSpec(RingSpec(Coefficients.prime_field(3), (("x1", 2), ("x2", 4)),
                       DegreeWindow(0, 18, 5)),
              (("t1", 1), ("t2", 3), ("t3", 5), ("t4", 7))), DegreeWindow(0, 18, 5)),
    # the shipped B window, where the row skip fires
    _example("B", 3, 6, DegreeWindow(0, 14, 6, 4), n=1),
])
def test_the_series_equals_the_sum_over_multisets(h, w):
    assert closed_form_ranks(h, w) == _closed_form_by_multisets(h, w)


def test_the_row_skip_fires_on_the_shipped_b_window():
    # row 5 starts at degree 15 > t_max, yet v1^-3 would carry it to t = 3
    h, w = _example("B", 3, 6, DegreeWindow(0, 14, 6, 4), n=1)
    assert 5 * min(h.degrees) > w.t_max and monomial_count(h.base, 3 - 15)
    assert max(s for s, _ in closed_form_ranks(h, w)) == 4


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
    assert p.table == closed_form_ranks(h, w)
    assert parity_violations(p.table) == []


def test_collapse_audit_passes_on_a_parity_clean_table():
    w = DegreeWindow(0, 15, 3)
    h = HopfSpec(unit_base(2, 15, s_max=3), (("t1", 3), ("t2", 5)))
    p = e2_closed_form(h, w)
    verdict = collapse_audit(p)
    assert verdict.ok
    assert verdict.message == "collapses at E_2 within window"
    assert verdict.pairs_checked > 0


def test_collapse_audit_finds_a_fabricated_differential():
    w = DegreeWindow(0, 15, 3)
    fake = E2Presentation(
        "F_2", (), {(1, 2): 1, (3, 3): 1}, w
    )
    verdict = collapse_audit(fake)
    assert not verdict.ok
    assert verdict.candidates == ((2, (1, 2), (3, 3)),)


F2, F3, F5 = (Coefficients.prime_field(p) for p in (2, 3, 5))
Q, Z = Coefficients.rationals(), Coefficients.integers()


def _whole_window(h, w):
    """Table and differential text of one complex over the whole window: the
    reference that the minimal resolution of cotor_ranks must match."""
    cx = cobar_complex(h, w)
    table = {k: v for k, v in homology_ranks(cx).items() if k[0] <= w.s_max and v.rank}
    return table, str(cx.differential)


@pytest.mark.parametrize("coefficients, generators, degrees, w", [
    (F2, (), (1, 3, 5, 7), DegreeWindow(0, 16, 5)),
    (F3, (), (1, 3, 5), DegreeWindow(0, 12, 4)),
    (Z, (), (3, 5), DegreeWindow(0, 16, 4)),
    (F2, (("x1", 2),), (1, 3), DegreeWindow(0, 12, 3)),
    (F2, (), (1, 3, 5), DegreeWindow(4, 14, 4)),
    (F2, (("x1", 2),), (3, 5), DegreeWindow(5, 14, 2)),
    (F2, (("x1", 2),), (1, 3), DegreeWindow(-2, 6, 2)),
    # slice t = 7 holds [t2] at s = 1 and no word at s = 2 = s_max + 1
    (F2, (), (1, 7), DegreeWindow(0, 9, 1)),
])
def test_slices_match_the_whole_window(coefficients, generators, degrees, w):
    h = HopfSpec(RingSpec(coefficients, generators, w),
                 tuple((f"t{i}", d) for i, d in enumerate(degrees, 1)))
    report = cotor_ranks(h, w)
    table, text = _whole_window(h, w)
    assert report.table == table
    assert str(report).splitlines()[1] == text


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from((1, 3, 5, 7, 9)), min_size=1, max_size=4, unique=True),
       st.one_of(st.just(()), st.sampled_from((2, 4, 6, 8)).map(lambda d: (("x1", d),))),
       st.integers(-2, 4), st.sampled_from((F2, F3, F5, Q, Z)), st.data())
def test_field_resolution_matches_the_whole_window_cobar(degrees, generators, t_min,
                                                         coefficients, data):
    # random coalgebras, bases, rings and windows: the minimal resolution
    # that cotor_ranks builds over a field (Q for Z, realized over Z) against
    # the cobar complex itself
    w = DegreeWindow(t_min, data.draw(st.integers(t_min, 14)), data.draw(st.integers(0, 4)))
    h = HopfSpec(RingSpec(coefficients, generators, w),
                 tuple((f"t{i}", d) for i, d in enumerate(degrees, 1)))
    assert cotor_ranks(h, w).table == _whole_window(h, w)[0]


def test_every_ring_reads_the_cobar_complex_once(monkeypatch):
    # over every coefficient ring the cobar complex is read once, for its
    # differential on one letter, and never realized
    real, windows = koszul.cotor.cobar_free, []
    monkeypatch.setattr(koszul.cotor, "cobar_free", lambda h, w: windows.append(w) or real(h, w))
    w = DegreeWindow(0, 12, 4)
    for coefficients in (F2, F3, Q, Z):
        cotor_ranks(HopfSpec(RingSpec(coefficients, (), w), (("t1", 1), ("t2", 3))), w)
    assert windows == 4 * [DegreeWindow(0, 12, 1)]


def _drop_splittings(monkeypatch, drop):
    """Every cobar_free call from here on loses the splittings (P, Q) that
    drop picks, in the cobar complex and so in the product read off it;
    returns the calls made."""
    real = koszul.cotor._cobar_letters

    def letters(h, t_max):
        ldeg, splits = real(h, t_max)
        return ldeg, {L: [x for x in sp if not drop(x[0])] for L, sp in splits.items()}
    return _patch(monkeypatch, "_cobar_letters", letters)


@pytest.mark.parametrize("drop, error", [
    # e1 e2 = 0 while e2 e1 = e12: the product is not associative
    (lambda pq: pq == ((1,), (2,)), DifferentialSquareError),
    # e2 multiplies everything to zero: an exact resolution of another algebra
    (lambda pq: (2,) in pq, OracleMismatchError),
])
def test_a_broken_coproduct_reaches_the_f2_resolution(monkeypatch, drop, error):
    w = DegreeWindow(0, 12, 4)
    h = HopfSpec(RingSpec(F2, (), w), (("t1", 1), ("t2", 3), ("t3", 5)))
    calls = _drop_splittings(monkeypatch, drop)
    with pytest.raises(error):
        cotor_ranks(h, w)
    assert calls


def _every_column_a_cycle(cols, c, span):
    """A kernel vector for each column given and each one the span adjoins
    later, as it adjoins the new generators' columns."""
    unit = (lambda j: 1 << j) if c.p == 2 else (lambda j: {j: 1})
    kernel, insert = [unit(j) for j in range(len(cols))], span.insert

    def adjoin(v, tag=None):
        if new := insert(v, tag):
            kernel.append(unit(tag))
        return new
    span.insert = adjoin
    return kernel


@pytest.mark.parametrize("kernel, kind", [
    # a lost cycle is homology the resolution should not have
    (lambda cols, c, span, kernel: kernel[:-1], "resolution"),
    # every vector a "cycle": a new generator's boundary has a unit term
    (lambda cols, c, span, kernel: _every_column_a_cycle(cols, c, span),
     "resolution-minimality"),
])
def test_a_broken_resolution_is_caught(monkeypatch, kernel, kind):
    # the span is the real one, so candidates are still tested against it;
    # only the kernel that the next level lifts is broken
    def broken(cols, c):
        span, real = span_and_kernel(cols, c)
        return span, kernel(cols, c, span, real)
    calls = _patch(monkeypatch, "span_and_kernel", broken)
    w = DegreeWindow(0, 12, 4)
    for coefficients in (F2, Z):
        calls.clear()
        h = HopfSpec(RingSpec(coefficients, (), w), (("t1", 1), ("t2", 3), ("t3", 5)))
        with pytest.raises(OracleMismatchError) as err:
            cotor_ranks(h, w)
        assert calls
        assert err.value.witness["kind"] == kind


def _z_cotor(tmp_path):
    """Exit code and witness of `koszul cotor` over Z on primitives 1, 3, 5 at
    t <= 12, s_max = 4."""
    spec = tmp_path / "z.spec"
    spec.write_text("[ring]\ncoefficients = Z\ngenerators =\n\n"
                    "[window]\nt_min = 0\nt_max = 12\ns_max = 4\nstage_max = 4\n")
    out = tmp_path / "run"
    code = main(["cotor", "primitives=1,3,5", "--spec", str(spec), "--out", str(out)])
    return code, json.loads((out / "witness.json").read_text())


def test_a_doubled_boundary_is_torsion_over_z(monkeypatch, tmp_path):
    # exact over Q but not over Z: the first generator, dual to t1, bounds
    # 2 e_1, which leaves Z/2 at (0, 1) where every rank is still right.
    # The first span is the one at (0, 0), whose kernel the augmentation
    # leaves unlifted; the second, at (0, 1), gives the first kernel vector
    # that a generator lifts
    kernels = []

    def doubled_once(cols, c):
        span, kernel = span_and_kernel(cols, c)
        kernels.append((c, kernel))
        if len(kernels) == 2:
            kernel = [{i: 2 * x for i, x in kernel[0].items()}] + kernel[1:]
        return span, kernel
    calls = _patch(monkeypatch, "span_and_kernel", doubled_once)
    code, witness = _z_cotor(tmp_path)
    assert len(calls) > 2 and kernels[1] == (Z, [{0: 1}])
    assert code == 1 and witness["kind"] == "resolution"
    assert witness["witness"] == {"kind": "resolution", "s": 0, "t": 1, "rank": 0,
                                  "torsion": [2]}


def _primitive(v: dict) -> dict:
    """A rational vector scaled to a primitive integer one, signs kept."""
    m = lcm(*(x.denominator for x in v.values()))
    v = {i: int(x * m) for i, x in v.items()}
    g = gcd(*v.values())
    return {i: x // g for i, x in v.items()}


def _assert_z_kernel_is_the_primitive_q_kernel(cols, probes=()):
    """span_and_kernel over Z against the one over Q, vectors made primitive:
    over Z every step scales a vector by a positive rational only, so each
    kernel vector is primitive, positive at its own tag (its largest key,
    the column it came from), and the same span holds the same vectors."""
    span, kernel = span_and_kernel(cols, Z)
    q_span, q_kernel = span_and_kernel(cols, Q)
    assert kernel == [_primitive(v) for v in q_kernel]
    assert all(gcd(*v.values()) == 1 and v[max(v)] > 0 for v in kernel)
    assert all(type(x) is int for v in kernel for x in v.values())
    assert span.rank == q_span.rank == len(cols) - len(kernel)
    for v in list(cols) + list(probes):
        assert span.contains(v) == q_span.contains(v)


@st.composite
def _integer_columns(draw):
    """Small integer columns, some of them integer combinations of earlier
    ones, so that kernels are not empty; entries and multipliers may be
    negative, and a column may have a common factor."""
    entries = st.dictionaries(st.integers(0, 5), st.integers(-4, 4).filter(bool), max_size=4)
    columns = []
    for _ in range(draw(st.integers(0, 9))):
        if columns and draw(st.booleans()):
            col = {}
            for j in draw(st.lists(st.sampled_from(range(len(columns))), min_size=1, max_size=3)):
                a = draw(st.integers(-3, 3))
                for i, x in columns[j].items():
                    col[i] = col.get(i, 0) + a * x
            columns.append({i: x for i, x in col.items() if x})
        else:
            columns.append(draw(entries))
    return columns, draw(st.lists(entries, max_size=4))


@settings(max_examples=200, deadline=None)
@given(_integer_columns())
@example(([{0: -2, 1: 2}, {0: 3, 1: -3}, {0: 4}, {1: -6}], [{0: 1, 1: -1}, {1: 2}]))
def test_z_kernel_vectors_are_the_primitive_rational_ones(case):
    cols, probes = case
    _assert_z_kernel_is_the_primitive_q_kernel(cols, probes)


def test_z_resolution_kernels_are_the_primitive_rational_ones(monkeypatch):
    # every span the Z resolution builds, checked against Q; kernel_basis
    # still refuses Z, where a kernel is a lattice (integer_kernel_basis)
    seen = []
    _patch(monkeypatch, "span_and_kernel",
           lambda cols, c: seen.append(cols) or span_and_kernel(cols, c))
    w = DegreeWindow(0, 14, 4)
    h = HopfSpec(RingSpec(Z, (("x1", 2),), w), (("t1", 1), ("t2", 1), ("t3", 3), ("t4", 5)))
    assert cotor_ranks(h, w).table == _whole_window(h, w)[0]
    assert sum(map(len, seen)) > 100
    for cols in seen:
        _assert_z_kernel_is_the_primitive_q_kernel(cols)
    # the resolution's columns are all units; a non-primitive column with a
    # negative lead: the rational kernel vector e_1 + 3/2 e_0 is 3 e_0 + 2 e_1
    assert span_and_kernel([{0: -2, 1: 2}, {0: 3, 1: -3}], Z)[1] == [{0: 3, 1: 2}]
    with pytest.raises(ValueError):
        kernel_basis(Matrix(1, 1, [{0: 2}]), Z)


def test_cotor_realizes_no_free_complex(monkeypatch):
    # the resolution builds its BigradedComplex from its own columns, over
    # every coefficient ring; the cobar reference still realizes
    real, calls = FreeComplex.realize, []
    monkeypatch.setattr(FreeComplex, "realize",
                        lambda self, *a, **kw: calls.append(1) or real(self, *a, **kw))
    w = DegreeWindow(0, 12, 4)
    for coefficients in (F2, F3, Q, Z):
        h = HopfSpec(RingSpec(coefficients, (), w), (("t1", 1), ("t2", 3), ("t3", 5)))
        cotor_ranks(h, w)
    assert calls == []
    cobar_complex(h, w)
    assert calls == [1]


@pytest.mark.parametrize("coefficients", [F2, F3, Z], ids=str)
def test_each_resolution_column_is_adjoined_to_one_span(monkeypatch, coefficients):
    # each column of d goes into the one span at its (s, t), once; the only
    # other adjoins are the kernel vectors of level s - 1 that the span
    # already holds, which make no generator
    real_adjoin, adjoins = VectorSpan._adjoin, []
    monkeypatch.setattr(VectorSpan, "_adjoin",
                        lambda self, v, tag=None: adjoins.append(1) or real_adjoin(self, v, tag))
    real_ranks, seen = koszul.cotor.homology_ranks, []
    monkeypatch.setattr(koszul.cotor, "homology_ranks",
                        lambda cx: seen.append((cx, len(adjoins))) or real_ranks(cx))
    w = DegreeWindow(0, 14, 4)
    h = HopfSpec(RingSpec(coefficients, (), w), (("t1", 1), ("t2", 3), ("t3", 5)))
    cotor_ranks(h, w)
    (cx, built), = seen
    columns = sum(m.cols for m in cx.diff.values())
    kernel = sum(cx.dim(s, t) - (rank_over_field(m, coefficients) if coefficients.is_field
                                 else rational_rank(m))
                 for (s, t), m in cx.diff.items() if s <= w.s_max and (s, t) != (0, 0))
    generators = sum(1 for (s, _), entries in cx.basis.items() if s
                     for (_, J), _ in entries if J == ())
    assert columns > 0 and built == columns + kernel - generators


def _words_reaching(fc, t):
    """Per level, in id order, each word reaching degree t through a base
    monomial, with its differential as (coefficient terms, target word)."""
    out = {}
    for s, gids in sorted(fc.levels.items()):
        words = [(fc.labels[g].word, [(c.terms, fc.labels[tgt].word) for c, tgt in fc.diff[g]])
                 for g in gids if monomial_count(fc.ring, t - fc.internal[g])]
        if words:
            out[s] = words
    return out


@pytest.mark.parametrize("generators", [(), (("x", 2),)])
def test_each_slice_is_the_whole_window_restricted_to_its_degree(generators):
    # over F3 a sign is visible: -1 is stored as 2
    w = DegreeWindow(0, 12, 4)
    h = HopfSpec(RingSpec(F3, generators, w), (("t1", 1), ("t2", 3), ("t3", 5)))
    whole = cobar_free(h, w)
    signs = set()
    for t in w.degrees():
        got = _words_reaching(cobar_free(h, DegreeWindow(t, t, w.s_max, w.stage_max)), t)
        assert got == _words_reaching(whole, t)
        signs |= {v for words in got.values() for _, diff in words
                  for terms, _ in diff for v in terms.values()}
    assert signs == {1, 2}


def test_a_slice_knows_its_empty_levels():
    w = DegreeWindow(0, 9, 1)
    h = HopfSpec(unit_base(2, 9, s_max=1), (("t1", 1), ("t2", 7)))
    cx = cobar_complex(h, DegreeWindow(7, 7, 1))
    assert not cx.complete_above
    assert homology_ranks(cx)[(1, 7)].certain
    assert cotor_ranks(h, w).table[(1, 7)].rank == 1


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_resolution_bounds_peak_memory():
    w = DegreeWindow(0, 14, 4)
    h = HopfSpec(RingSpec(Z, (), w),
                 tuple((f"t{i}", d) for i, d in enumerate((1, 3, 5, 7), 1)))
    whole = _traced_peak(lambda: homology_ranks(cobar_complex(h, w)))
    resolved = _traced_peak(lambda: cotor_ranks(h, w))
    assert resolved <= 0.6 * whole


# d(d) of the minimal resolution over Z[] on primitives 1, 3, 5 at t <= 12,
# s_max = 4, once the sign of splitting t(1,2) into t(1)|t(2) is flipped; a
# label (g, J) is e_J times the generator with id g, and the guard level
# s_max + 1 = 5 is audited too
FLIPPED_SIGN_VIOLATIONS = [
    (2, 9, "d(d((38, (3,))|())) has entry 2 at target row 0"),
    (3, 10, "d(d((74, (3,))|())) has entry -2 at target row 0"),
    (3, 12, "d(d((80, (3,))|())) has entry 2 at target row 0"),
    (4, 11, "d(d((113, (3,))|())) has entry 2 at target row 0"),
    (5, 12, "d(d((146, (3,))|())) has entry -2 at target row 0"),
]


def _flip_one_sign(monkeypatch):
    real = koszul.cotor._unshuffle_sign
    return _patch(monkeypatch, "_unshuffle_sign",
                  lambda p, q: -real(p, q) if (p, q) == ((1,), (2,)) else real(p, q))


def test_square_failure_exits_one_with_every_violation(monkeypatch, tmp_path):
    calls = _flip_one_sign(monkeypatch)
    code, witness = _z_cotor(tmp_path)
    assert ((1,), (2,)) in calls
    assert code == 1 and witness["kind"] == "differential-square"
    assert [(v["s"], v["t"], v["detail"]) for v in witness["violations"]] == \
        FLIPPED_SIGN_VIOLATIONS


@pytest.mark.parametrize("coefficients", [F3, Q, Z], ids=str)
def test_a_flipped_sign_reaches_the_field_resolution(monkeypatch, coefficients):
    # the product read off the flipped cobar d^1 is not associative; a
    # resolution that dropped the product's signs would not notice.  Every
    # violation is reported, at the same bidegrees over each ring (the
    # entries differ over F3, where -2 is 1)
    calls = _flip_one_sign(monkeypatch)
    w = DegreeWindow(0, 12, 4)
    h = HopfSpec(RingSpec(coefficients, (), w), (("t1", 1), ("t2", 3), ("t3", 5)))
    with pytest.raises(DifferentialSquareError) as err:
        cotor_ranks(h, w)
    assert ((1,), (2,)) in calls
    violations = err.value.report.violations
    assert [(v.s, v.t) for v in violations] == [(s, t) for s, t, _ in FLIPPED_SIGN_VIOLATIONS]
    assert {v.kind for v in violations} == {"square"}


def _sorting_sign(seq):
    """Sign of the permutation that sorts seq, from its cycle count."""
    target = {v: i for i, v in enumerate(sorted(seq))}
    seen, cycles = set(), 0
    for start in range(len(seq)):
        if start not in seen:
            cycles += 1
            i = start
            while i not in seen:
                seen.add(i)
                i = target[seq[i]]
    return -1 if (len(seq) - cycles) % 2 else 1


def test_hoisted_splittings_carry_their_signs():
    # every ordered splitting of every letter, with the sign of sorting P + Q
    # times (-1)^(1 + |P|) on the plus unit and its negative on the minus unit
    h = HopfSpec(unit_base(3, 16), (("t1", 1), ("t2", 3), ("t3", 5), ("t4", 7)))
    ldeg, splits = _cobar_letters(h, 16)
    assert len(ldeg) == 15
    for L in ldeg:
        assert ldeg[L] == sum(h.degrees[i - 1] for i in L)
        pairs = [pq for pq, _, _ in splits[L]]
        assert len(pairs) == len(set(pairs)) == 2 ** len(L) - 2
        for (p, q), plus, minus in splits[L]:
            assert p and q and tuple(sorted(p + q)) == L
            sign = _sorting_sign(p + q) * (-1) ** (1 + sum(h.degrees[i - 1] for i in p))
            assert (plus, minus) == (h.base.constant(sign), h.base.constant(-sign))


def test_guard_level_gets_a_zero_row_matrix_of_the_same_shape():
    # the level past s_max has no outgoing differential: realize gives it a
    # 0-row matrix with one empty column per word, the shape the general
    # loop built column by column
    w = DegreeWindow(9, 9, 3)
    h = HopfSpec(unit_base(2, 9, s_max=3), (("t1", 1), ("t2", 3), ("t3", 5)))
    cx = cobar_complex(h, w)
    guard = w.s_max + 1
    assert cx.dim(guard, 9) > 0 and not cx.dim(guard + 1, 9)
    assert cx.diff[(guard, 9)] == Matrix(0, cx.dim(guard, 9))
    assert cx.differential.ok
    below = cx.diff[(w.s_max, 9)]
    assert (below.rows, below.cols) == (cx.dim(guard, 9), cx.dim(w.s_max, 9))
