"""Graded rings: monomial enumeration, quotient dimensions, regularity."""
from __future__ import annotations

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import koszul.rings as rings
from koszul.linalg import Coefficients, VectorSpan
from koszul.rings import (
    DegreeWindow,
    Element,
    FreeModuleBasis,
    IdealSpec,
    QuotientModule,
    RingSpec,
    WindowError,
    check_regular_sequence,
    hilbert_function,
    monomial_basis,
    monomial_count,
    multiples,
    power_multi_indices,
    power_quotient_dimension,
    quotient_by_power,
    relation_matrix,
)

F2 = Coefficients.prime_field(2)
F3 = Coefficients.prime_field(3)
Q = Coefficients.rationals()
Z = Coefficients.integers()


def _ring(coeffs, gens, window=None, inverted=None):
    w = window or DegreeWindow(0, 16, 4, 4)
    return RingSpec(coeffs, tuple(gens), w, inverted)


def test_monomial_basis_frozen():
    # frozen from the graded-lex contract: degree 6 in F2[x1:2, x2:4]
    r = _ring(F2, [("x1", 2), ("x2", 4)])
    assert monomial_basis(r, 6) == [(3, 0), (1, 1)]
    assert monomial_basis(r, 0) == [(0, 0)]
    assert monomial_basis(r, 3) == []


def test_monomial_basis_window_violation():
    r = _ring(F2, [("x1", 2)])
    try:
        monomial_basis(r, 99)
    except WindowError:
        pass
    else:
        raise AssertionError("expected WindowError")


def test_monomial_counts_match_hilbert_series():
    r = _ring(F2, [("x1", 2), ("x2", 4), ("x3", 6)])
    h = hilbert_function(r, 16)
    for t in range(0, 17):
        assert len(monomial_basis(r, t)) == h[t]


def test_monomials_no_generators():
    r = _ring(F2, [])
    assert monomial_basis(r, 0) == [()]
    assert monomial_basis(r, 2) == []


def test_monomials_inverted_single_generator():
    w = DegreeWindow(-8, 8, 2, 2)
    r = _ring(F2, [("v", 4)], window=w, inverted="v")
    assert monomial_basis(r, -8) == [(-2,)]
    assert monomial_basis(r, 0) == [(0,)]
    assert monomial_basis(r, 6) == []


def test_monomials_inverted_mixed():
    # v1 normal of degree 2, v2 inverted of degree 4:
    # degree 0 needs 2a = -4b, a >= 0, b >= -neg_bound
    w = DegreeWindow(0, 8, 2, 2)
    r = _ring(F2, [("v1", 2), ("v2", 4)], window=w, inverted="v2")
    basis = monomial_basis(r, 0)
    assert (0, 0) in basis and (2, -1) in basis
    for a, b in basis:
        assert 2 * a + 4 * b == 0 and a >= 0 and b >= -r.neg_bound


def test_monomial_basis_hands_out_a_copy_of_the_shared_table():
    r = _ring(Z, [("x1", 2), ("x2", 4)])
    rels = [r.generator("x1") * r.generator("x1"), r.generator("x2")]
    before = relation_matrix(r, rels, 8)
    got = monomial_basis(r, 8)
    expected = list(got)
    got.reverse()
    got.append((9, 9))
    assert monomial_count(r, 8) == len(expected) == 3
    assert list(FreeModuleBasis(r).basis(8)) == expected
    assert monomial_basis(r, 8) == expected
    after = relation_matrix(r, rels, 8)
    assert (after.rows, after.cols, after.entries) == (before.rows, before.cols, before.entries)


@st.composite
def _graded_rings(draw):
    degs = draw(st.lists(st.sampled_from([2, 4, 6, 8]), min_size=0, max_size=4))
    gens = tuple((f"x{i}", d) for i, d in enumerate(degs, start=1))
    inverted = draw(st.none() | st.sampled_from([n for n, _ in gens])) if gens else None
    t_max = draw(st.integers(-12, 20))
    t_min = draw(st.integers(-12, t_max))
    return RingSpec(F2, gens, DegreeWindow(t_min, t_max), inverted)


@settings(max_examples=200, deadline=None)
@given(_graded_rings())
def test_monomial_table_properties(r):
    inv = r.inverted_index
    for t in r.window.degrees():
        monos, index = r._table(t)
        assert list(monos) == rings._monomials(r, t)
        assert all(a > b for a, b in zip(monos, monos[1:]))
        for i, m in enumerate(monos):
            assert sum(e * d for e, d in zip(m, r.degrees)) == t
            assert all(e >= (-r.neg_bound if k == inv else 0) for k, e in enumerate(m))
            assert index[m] == i
        assert len(index) == len(monos)
    if inv is None:
        # generating-function oracle: shares no code with the table
        h = hilbert_function(r, max(r.window.t_max, 0))
        for t in r.window.degrees():
            assert monomial_count(r, t) == (h[t] if t >= 0 else 0)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from([2, 4, 6, 8, 10, 12]), min_size=1, max_size=4),
       st.booleans(), st.integers(-8, 12), st.data())
def test_monomials_match_a_brute_force_product(degs, invert, t_max, data):
    # reference: every exponent vector of a box that holds all of degree at
    # most t_max, from itertools.product, grouped by degree and sorted; it
    # shares no bound, gcd test or order with _monomials
    gens = tuple((f"x{i}", d) for i, d in enumerate(degs, start=1))
    inverted = data.draw(st.sampled_from([n for n, _ in gens])) if invert else None
    r = RingSpec(F2, gens, DegreeWindow(data.draw(st.integers(-8, t_max)), t_max), inverted)
    inv, neg = r.inverted_index, r.neg_bound
    low = -neg * degs[inv] if invert else 0  # the least degree of an exponent vector
    box = [range(-neg if k == inv else 0, (t_max - low) // d + 1) for k, d in enumerate(degs)]
    by_degree: dict[int, list] = {}
    for e in itertools.product(*box):
        by_degree.setdefault(sum(a * d for a, d in zip(e, degs)), []).append(e)
    for t in range(low - max(degs), t_max + 1):  # below low there is none
        assert rings._monomials(r, t) == sorted(by_degree.get(t, []), reverse=True)


@st.composite
def _multiplication_cases(draw):
    """A ring over F2, F3, Q or Z with at most one inverted generator, a
    window degree t, a random homogeneous g with nonnegative exponents, and
    (over a field) random homogeneous relations of the same kind."""
    coeffs = draw(st.sampled_from([F2, F3, Q, Z]))
    degs = draw(st.lists(st.sampled_from([2, 4, 6]), min_size=1, max_size=3))
    gens = tuple((f"x{i}", d) for i, d in enumerate(degs, start=1))
    inverted = draw(st.none() | st.sampled_from([n for n, _ in gens]))
    t_min = draw(st.integers(-6, 6))
    w = DegreeWindow(t_min, draw(st.integers(t_min, t_min + 12)))
    r = RingSpec(coeffs, gens, w, inverted)

    def homogeneous():
        lead = draw(st.tuples(*[st.integers(0, 3) for _ in degs]))
        same = [m for m in rings._monomials(r, r.monomial_degree(lead)) if min(m) >= 0]
        picked = draw(st.lists(st.sampled_from(same), min_size=1, max_size=3, unique=True))
        top = (coeffs.p or 4) - 1
        return Element(r, {m: draw(st.integers(1, top)) for m in picked})

    relations = [homogeneous() for _ in range(draw(st.integers(0, 2)))] if coeffs.is_field else []
    return r, draw(st.sampled_from(list(w.degrees()))), homogeneous(), relations


@settings(max_examples=150, deadline=None)
@given(_multiplication_cases())
def test_multiples_and_reduce_match_element_products(case):
    # reference: Element products, a dict lookup of each term in
    # monomial_basis, and a VectorSpan of its own; no code of multiples
    r, t, g, relations = case
    index = {m: i for i, m in enumerate(monomial_basis(r, t))}
    packed = r.coefficients.p == 2

    def coords(elem):  # over F2 one int, bit i for monomial i; else a dict
        vec = {index[e]: v for e, v in elem.terms.items()}
        return sum(1 << i for i in vec) if packed else vec

    monos = rings._monomials(r, t - g.degree())
    expected = [coords(g * r.monomial(m)) for m in monos]
    vecs = multiples(r, g, monos, t)
    assert vecs == expected
    assert FreeModuleBasis(r).reduce(vecs, t) == expected
    if not r.coefficients.is_field:
        return
    span = VectorSpan(r.coefficients)
    for rel in relations:
        for m in rings._monomials(r, t - rel.degree()):
            span.insert(coords(rel * r.monomial(m)))
    keep = [i for i in range(len(index)) if i not in span.pivots]
    pos = {p: k for k, p in enumerate(keep)}
    q = QuotientModule(r, relations)
    assert q.basis(t) == [monomial_basis(r, t)[p] for p in keep]
    if packed:  # normal forms are (keys, tags) ints, and no relation carries a tag
        normal = [span.reduce(vec) for vec in expected]
        assert all(tags == 0 for _, tags in normal)
        assert q.reduce(vecs, t) == [sum(1 << pos[p] for p in pos if x >> p & 1)
                                     for x, _ in normal]
    else:
        assert q.reduce(vecs, t) == [{pos[p]: v for p, v in span.reduce(vec).items()}
                                     for vec in expected]


def test_element_arithmetic_mod_p():
    r = _ring(F2, [("x1", 2)])
    x = r.generator("x1")
    assert (x + x).is_zero()
    assert ((x + r.one()) * (x + r.one())).terms == {(2,): 1, (0,): 1}


def test_inhomogeneous_degree_raises():
    r = _ring(F2, [("x1", 2)])
    e = r.generator("x1") + r.one()
    try:
        e.degree()
    except ValueError:
        pass
    else:
        raise AssertionError("expected inhomogeneity error")


def test_quotient_module_dims():
    # F2[x1,x2]/(x1,x2) is one-dimensional in degree 0 only
    r = _ring(F2, [("x1", 2), ("x2", 4)])
    q = QuotientModule(r, [r.generator("x1"), r.generator("x2")])
    assert [q.dim(t) for t in range(0, 9)] == [1, 0, 0, 0, 0, 0, 0, 0, 0]


def test_quotient_module_normal_form():
    # F2[x]/(x^2): x*x reduces to 0, x stays; over F2 a vector is one int,
    # bit i for basis monomial i
    r = _ring(F2, [("x1", 2)])
    q = QuotientModule(r, [r.monomial((2,))])
    x = r.generator("x1")
    assert multiples(r, x, [(0,)], 2) == [0b1]
    assert q.reduce(multiples(r, x, [(0,)], 2), 2) == [0b1]
    assert q.reduce(multiples(r, x, [(1,)], 4), 4) == [0]


def test_power_multi_indices():
    assert power_multi_indices(2, 2) == [(1, 1), (1, 2), (2, 2)]
    assert power_multi_indices(3, 0) == [()]


def test_power_quotient_dimension_field():
    # frozen by hand: F2[x:2]/(x^s) has dim 1 in degrees 0,2,...,2(s-1)
    r = _ring(F2, [("x1", 2)])
    i = IdealSpec((r.generator("x1"),))
    for s in (1, 2, 3):
        for t in range(0, 10, 2):
            info = power_quotient_dimension(r, i, s, t)
            assert info.dim_quotient == (1 if t < 2 * s else 0)
            assert info.assoc_matches_prediction


def test_power_quotient_dimension_two_generators():
    # F2[x1:2,x2:4], I=(x1,x2): R/I = F2 at 0; I/I^2 free on x1,x2 over R/I
    r = _ring(F2, [("x1", 2), ("x2", 4)])
    i = IdealSpec((r.generator("x1"), r.generator("x2")))
    info = power_quotient_dimension(r, i, 1, 2)
    assert info.assoc_dim == 1  # the class of x1
    assert info.assoc_matches_prediction
    info = power_quotient_dimension(r, i, 1, 4)
    assert info.assoc_dim == 1  # the class of x2
    assert info.assoc_matches_prediction
    info = power_quotient_dimension(r, i, 2, 6)
    assert info.assoc_dim == 1  # x1*x2
    assert info.assoc_matches_prediction


def test_power_quotient_dimension_exactness():
    # dim(R/I^{s+1}) = dim(R/I^s) + dim(I^s/I^{s+1}) degreewise
    r = _ring(F2, [("x1", 2), ("x2", 4)])
    i = IdealSpec((r.generator("x1"), r.generator("x2")))
    for s in (1, 2, 3):
        for t in range(0, 13):
            a = power_quotient_dimension(r, i, s, t)
            b = power_quotient_dimension(r, i, s + 1, t)
            assert b.dim_quotient == a.dim_quotient + a.assoc_dim


def test_power_quotient_integer_invariants():
    # Z with I=(3): R/I^s at degree 0 is Z/3^s
    w = DegreeWindow(0, 4, 2, 6)
    r = RingSpec(Z, (), w)
    i = IdealSpec((r.constant(3),))
    for s in (1, 2, 3):
        info = power_quotient_dimension(r, i, s, 0)
        assert info.invariants == (0, (3**s,))
        assert info.assoc_matches_prediction  # (3^s)/(3^{s+1}) = Z/3


def test_power_quotient_integer_mixed():
    # Z[x:2], I=(2,x): R/I = F2 at degree 0
    w = DegreeWindow(0, 8, 3, 3)
    r = RingSpec(Z, (("x1", 2),), w)
    i = IdealSpec((r.constant(2), r.generator("x1")))
    info = power_quotient_dimension(r, i, 1, 0)
    assert info.invariants == (0, (2,))
    info = power_quotient_dimension(r, i, 1, 2)
    assert info.invariants == (0, ())
    assert info.assoc_matches_prediction


def test_check_regular_sequence_passes():
    r = _ring(F2, [("x1", 2), ("x2", 4)])
    i = IdealSpec((r.generator("x1"), r.generator("x2")))
    report = check_regular_sequence(r, i)
    assert report.ok
    # permuting a regular sequence of a graded polynomial ring stays regular
    j = IdealSpec((r.generator("x2"), r.generator("x1")))
    assert check_regular_sequence(r, j).ok


def test_check_regular_sequence_repeated_entry_fails_at_two():
    r = _ring(F2, [("x1", 2), ("x2", 4)])
    i = IdealSpec((r.generator("x1"), r.generator("x1")))
    report = check_regular_sequence(r, i)
    assert not report.ok
    assert all(f.index == 2 for f in report.failures)


def test_check_regular_sequence_zero_divisor():
    # in F2[x]/nothing, (x1, x1+x1) -- second entry zero is rejected upstream;
    # instead check that x2 then x1*x2 fails (x1*x2 kills x1 mod x2... it is
    # already in (x2), i.e. multiplication by it is not injective on R/(x2))
    r = _ring(F2, [("x1", 2), ("x2", 4)])
    i = IdealSpec((r.generator("x2"), r.generator("x1") * r.generator("x2")))
    report = check_regular_sequence(r, i)
    assert not report.ok and report.failures[0].index == 2


def test_check_regular_sequence_integer():
    # (2, x1) in Z[x1] is regular; (2, 2) is not
    w = DegreeWindow(0, 8, 3, 3)
    r = RingSpec(Z, (("x1", 2),), w)
    good = IdealSpec((r.constant(2), r.generator("x1")))
    assert check_regular_sequence(r, good).ok
    bad = IdealSpec((r.constant(2), r.constant(2)))
    report = check_regular_sequence(r, bad)
    assert not report.ok and report.failures[0].index == 2


def test_quotient_by_power_window_independent_of_order():
    r = _ring(F2, [("x1", 2), ("x2", 4)])
    i = IdealSpec((r.generator("x1"), r.generator("x2")))
    q = quotient_by_power(r, i, 2)
    # I^2 = (x1^2, x1 x2, x2^2): degree 4 survivors are x2 only
    assert q.dim(4) == 1
    assert q.basis(4) == [(0, 1)]


@st.composite
def _regular_sequences(draw):
    """(ring, sequence, (s, t) pairs): powers of distinct variables and one
    unit times a further variable, in a drawn order, with (s, t) pairs in
    drawn order (repeats allowed)."""
    coeffs = draw(st.sampled_from([F2, F3, Q, Z]))
    n = draw(st.integers(2, 3))
    degs = draw(st.lists(st.sampled_from([2, 4]), min_size=n, max_size=n))
    r = _ring(coeffs, [(f"x{i}", d) for i, d in enumerate(degs, start=1)],
              DegreeWindow(0, 12, 4, 4))
    units = {F2: [1], F3: [1, 2], Q: [Fraction(-1, 2), 3], Z: [1, -1]}[coeffs]
    unit_at = draw(st.integers(0, n - 1))
    seq = []
    for i, name in enumerate(r.names):
        if i == unit_at:
            seq.append(r.generator(name).scaled(draw(st.sampled_from(units))))
        else:
            seq.append(_power(r.generator(name), draw(st.integers(1, 2))))
    seq = draw(st.permutations(seq))
    pairs = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 12)),
                          min_size=1, max_size=8))
    return r, tuple(seq), pairs


def _power(u, e):
    out = u
    for _ in range(e - 1):
        out = out * u
    return out


@settings(max_examples=40, deadline=None)
@given(_regular_sequences())
def test_shared_power_tables_change_no_output(case):
    # one IdealSpec read in any order of (s, t) gives what a fresh one gives,
    # and the sequence is regular, so I^s/I^{s+1} meets its Rees prediction
    r, seq, pairs = case
    shared = IdealSpec(seq)
    for s, t in pairs:
        info = power_quotient_dimension(r, shared, s, t)
        assert info == power_quotient_dimension(r, IdealSpec(seq), s, t)
        assert info.assoc_matches_prediction


def test_quotient_by_power_is_shared_per_ring_and_power():
    gens = [("x1", 2), ("x2", 4)]
    r = _ring(F3, gens)
    i = IdealSpec((r.generator("x1"), r.generator("x2")))
    # an equal ring and power give the very same quotient, so its echelons
    assert quotient_by_power(_ring(F3, gens), i, 2) is quotient_by_power(r, i, 2)
    assert quotient_by_power(r, i, 1) is not quotient_by_power(r, i, 2)
    # the tables live on the ideal instance: an equal ideal builds its own
    assert quotient_by_power(r, IdealSpec(i.sequence), 2) is not quotient_by_power(r, i, 2)
    # two localized rings that differ only in window differ in neg_bound, so
    # in their monomial tables: each gets its own quotient
    narrow = _ring(F3, gens, DegreeWindow(0, 8, 4, 4), inverted="x2")
    wide = _ring(F3, gens, DegreeWindow(-8, 8, 4, 4), inverted="x2")
    assert narrow.neg_bound != wide.neg_bound
    j = IdealSpec((narrow.generator("x1"),))
    q_narrow, q_wide = quotient_by_power(narrow, j, 1), quotient_by_power(wide, j, 1)
    assert q_narrow is not q_wide
    # (R/x1)_{-16} is spanned by x2^-4, which only the wider floor admits
    assert (q_narrow.dim(-16), q_wide.dim(-16)) == (0, 1)
