"""Exact linear algebra: frozen small oracles plus seeded-random invariants."""
from __future__ import annotations

import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from koszul import linalg
from koszul.linalg import (
    Coefficients,
    IntegerLattice,
    Matrix,
    VectorSpan,
    cokernel_invariants,
    integer_kernel_basis,
    kernel_basis,
    rank_over_field,
    rational_rank,
    smith_normal_form,
    smith_with_transforms,
)

F2 = Coefficients.prime_field(2)
F3 = Coefficients.prime_field(3)
Q = Coefficients.rationals()
Z = Coefficients.integers()


def _identity(n):
    return Matrix(n, n, [{j: 1} for j in range(n)])


def _rows(m: Matrix) -> list[list]:
    """m as a dense list of rows."""
    data = [[0] * m.cols for _ in range(m.rows)]
    for j, col in enumerate(m.columns):
        for i, v in col.items():
            data[i][j] = v
    return data


def test_rank_frozen_example():
    # hand oracle: [[1,1],[1,1]] has equal rows, rank 1 over any field
    m = Matrix.from_rows([[1, 1], [1, 1]])
    assert rank_over_field(m, F2) == 1
    assert rank_over_field(m, Q) == 1


def test_rank_rejects_integers():
    m = Matrix.from_rows([[2]])
    try:
        rank_over_field(m, Z)
    except ValueError:
        pass
    else:
        raise AssertionError("rank over Z must be rejected")


def test_smith_frozen_examples():
    # hand oracle: diag(2,3) ~ diag(1,6); zero matrix has no invariant factors
    assert smith_normal_form(Matrix.from_rows([[2, 0], [0, 3]])) == (1, 6)
    assert smith_normal_form(Matrix(3, 2)) == ()
    assert smith_normal_form(Matrix.from_rows([[2, 4], [6, 8]])) == (2, 4)
    assert smith_normal_form(_identity(3)) == (1, 1, 1)


def _matrix(rows, cols, entries):
    """A Matrix from its nonzeros keyed by (row, col)."""
    m = Matrix(rows, cols)
    for (i, j), v in entries.items():
        m.set(i, j, v)
    return m


def _edge_matrices():
    """0 x n and n x 0 shapes, all-empty columns, and empty columns around
    a full one."""
    return [Matrix(0, 3), Matrix(3, 0), Matrix(2, 3), Matrix(3, 3, [{}, {0: 2, 2: -3}, {}])]


def _random_matrix(rng, rows, cols, lo=-4, hi=4):
    m = Matrix(rows, cols)
    for i in range(rows):
        for j in range(cols):
            if rng.random() < 0.6:
                m.set(i, j, rng.randint(lo, hi))
    return m


def test_rank_equals_transpose_rank():
    rng = random.Random(7)
    for m in _edge_matrices() + [_random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
                                 for _ in range(30)]:
        for c in (F2, F3, Q):
            mm = m if c is not Q else _matrix(m.rows, m.cols, {k: Fraction(v) for k, v in m.entries.items()})
            mt = _matrix(mm.cols, mm.rows, {(j, i): v for (i, j), v in mm.entries.items()})
            assert rank_over_field(mm, c) == rank_over_field(mt, c)


def test_rank_plus_nullity():
    # the nullity comes from the column-reduction kernel routine, not from rank
    rng = random.Random(11)
    for m in _edge_matrices() + [_random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
                                 for _ in range(30)]:
        for c in (F2, F3):
            assert rank_over_field(m, c) + len(kernel_basis(m, c)) == m.cols


def test_kernel_vectors_are_killed():
    rng = random.Random(13)
    for m in _edge_matrices() + [_random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
                                 for _ in range(20)]:
        for c in (F3, Q):
            assert len(kernel_basis(m, c)) == m.cols - rank_over_field(m, c)
            for vec in kernel_basis(m, c):
                out = {}
                for (i, j), v in m.entries.items():
                    if j in vec:
                        out[i] = c.normalize(out.get(i, 0) + v * vec[j])
                assert all(not x for x in out.values())


def test_smith_length_equals_rational_rank():
    rng = random.Random(17)
    for _ in range(25):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert len(smith_normal_form(m)) == rational_rank(m)


def test_smith_divisibility_chain():
    rng = random.Random(19)
    for _ in range(25):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), lo=-9, hi=9)
        d = smith_normal_form(m)
        for a, b in zip(d, d[1:]):
            assert b % a == 0


def test_smith_transforms_diagonalize():
    rng = random.Random(23)
    for _ in range(20):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        raw, s, t = smith_with_transforms(m)
        prod = s.compose(m, Z).compose(t, Z)
        for (i, j), v in prod.entries.items():
            assert i == j and i < len(raw) and v == raw[i]
        assert len(raw) == rational_rank(m)
        # unimodularity
        assert abs(_det(_rows(s))) == 1
        assert abs(_det(_rows(t))) == 1


def _det(a):
    a = [row[:] for row in a]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = Fraction(a[i][k], a[k][k])
            for j in range(k, n):
                a[i][j] = a[i][j] - f * a[k][j]
    return det


def test_integer_kernel_basis():
    rng = random.Random(29)
    for _ in range(20):
        m = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        kers = integer_kernel_basis(m)
        assert len(kers) == m.cols - rational_rank(m)
        for vec in kers:
            out = {}
            for (i, j), v in m.entries.items():
                if j in vec:
                    out[i] = out.get(i, 0) + v * vec[j]
            assert all(x == 0 for x in out.values())


def test_lattice_membership():
    # lattice spanned by (2,0) and (0,4): membership is componentwise parity
    lat = IntegerLattice(Matrix.from_rows([[2, 0], [0, 4]]))
    assert lat.contains({0: 2, 1: 8})
    assert lat.contains({})
    assert not lat.contains({0: 1})
    assert not lat.contains({1: 2})


def test_lattice_membership_random():
    rng = random.Random(31)
    for _ in range(20):
        m = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        lat = IntegerLattice(m)
        # random integer combinations of the columns must be members
        cols = m.columns
        for _ in range(5):
            v: dict[int, int] = {}
            for col in cols:
                c = rng.randint(-3, 3)
                for i, x in col.items():
                    v[i] = v.get(i, 0) + c * x
            assert lat.contains(v)


def test_cokernel_invariants():
    # Z^2 / <(2,0),(0,3)> = Z/2 + Z/3 = Z/6
    free, tors = cokernel_invariants(Matrix.from_rows([[2, 0], [0, 3]]))
    assert free == 0 and sorted(tors) == [6]
    free, tors = cokernel_invariants(Matrix(2, 0))
    assert free == 2 and tors == ()
    free, tors = cokernel_invariants(Matrix.from_rows([[9]]))
    assert (free, tors) == (0, (9,))


def test_lattice_quotient_invariants():
    # (3^s)/(3^{s+1}) inside Z: cyclic of order 3
    a = Matrix.from_rows([[9]])
    b = Matrix.from_rows([[27]])
    assert IntegerLattice(a).quotient_invariants(b) == (0, (3,))
    # 2Z^2 / 4Z^2
    a = Matrix.from_rows([[2, 0], [0, 2]])
    b = Matrix.from_rows([[4, 0], [0, 4]])
    free, tors = IntegerLattice(a).quotient_invariants(b)
    assert free == 0 and sorted(tors) == [2, 2]


def test_vector_span_coordinates():
    span = VectorSpan(Q)
    v1 = {0: Fraction(1), 1: Fraction(2)}
    v2 = {1: Fraction(1)}
    assert span.insert({**v1, -1: 1})  # inserted vector k carries tag -1-k
    assert span.insert({**v2, -2: 1})
    # reduce v1 + 3*v2: nothing is left but the tags, which hold minus the
    # combination
    target = {0: Fraction(1), 1: Fraction(5)}
    assert span.reduce(target) == {-1: Fraction(-1), -2: Fraction(-3)}


@pytest.mark.parametrize("c", [F2, F3, Q, Z], ids=str)
def test_coefficients_survive_pickle_after_use(c):
    # the scalar operations are chosen once per instance, and an instance
    # must still pickle (and compare and hash as before) once it has used them
    assert c.normalize(-7) == c.normalize(c.normalize(-7))
    back = pickle.loads(pickle.dumps(c))
    assert back == c and hash(back) == hash(c) and str(back) == str(c)
    assert back.normalize(-7) == c.normalize(-7) and back.neg(back.one) == c.neg(c.one)


def test_vector_span_dependent_insert():
    span = VectorSpan(F3)
    assert span.insert({0: 1, 1: 1})
    assert not span.insert({0: 2, 1: 2})
    assert span.rank == 1
    assert span.contains({0: 1, 1: 1})
    assert not span.contains({0: 1})


def test_compose_shapes():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[1], [1]])
    assert _rows(a.compose(b, Z)) == [[3], [7]]


_NONZERO = {
    "F2": st.just(1),
    "F3": st.sampled_from([1, 2]),
    "Q": st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 4)),
    "Z": st.integers(-5, 5).filter(bool),
}
_RINGS = {"F2": F2, "F3": F3, "Q": Q, "Z": Z}


@st.composite
def _sparse_matrix(draw, name, rows, cols):
    """A sparse matrix of canonical nonzero scalars; empty rows and
    columns arise whenever a position set misses them."""
    cells = [(i, j) for i in range(rows) for j in range(cols)]
    picked = draw(st.lists(st.sampled_from(cells), unique=True)) if cells else []
    return _matrix(rows, cols, {ij: draw(_NONZERO[name]) for ij in picked})


@st.composite
def _composable(draw):
    name = draw(st.sampled_from(sorted(_RINGS)))
    n, k, m = (draw(st.integers(0, 5)) for _ in range(3))
    return name, draw(_sparse_matrix(name, n, k)), draw(_sparse_matrix(name, k, m))


def _dense_product(a: Matrix, b: Matrix, c) -> dict:
    ra, rb = _rows(a), _rows(b)
    out = {}
    for i in range(a.rows):
        for j in range(b.cols):
            v = c.normalize(sum((ra[i][k] * rb[k][j] for k in range(a.cols)), c.zero))
            if v:
                out[(i, j)] = v
    return out


@settings(max_examples=300, deadline=None)
@given(_composable())
@example(("F3", Matrix(0, 3), Matrix(3, 2)))
@example(("Q", Matrix(2, 3), Matrix(3, 0)))
@example(("Z", Matrix(2, 3), Matrix.from_rows([[1, 0], [0, 0], [2, 0]])))
@example(("Z", Matrix.from_rows([[1, 0, 2], [0, 0, 3]]), Matrix.from_rows([[0, 1], [0, 0], [0, 0]])))
def test_compose_matches_dense_product(case):
    name, a, b = case
    c = _RINGS[name]
    prod = a.compose(b, c)
    dense = _dense_product(a, b, c)
    assert (prod.rows, prod.cols) == (a.rows, b.cols)
    assert prod.entries == dense
    # entries are normalized, and zeros, including sums that cancel, are never stored
    assert all(prod.entries.values())
    assert all(c.normalize(v) == v and type(v) is type(c.one) for v in prod.entries.values())


@st.composite
def _unreduced_f2_pair(draw):
    """Composable integer matrices with even, odd and negative entries, read
    over F2; the canonical generators above draw only 1 there."""
    n, k, m = (draw(st.integers(0, 6)) for _ in range(3))
    entry = st.integers(-4, 4).filter(bool)

    def sparse(rows, cols):
        cells = [(i, j) for i in range(rows) for j in range(cols)]
        picked = draw(st.lists(st.sampled_from(cells), unique=True)) if cells else []
        return _matrix(rows, cols, {ij: draw(entry) for ij in picked})

    return sparse(n, k), sparse(k, m)


@settings(max_examples=300, deadline=None)
@given(_unreduced_f2_pair())
@example((Matrix.from_rows([[2, -1], [3, -4]]), Matrix.from_rows([[-3], [5]])))
@example((Matrix.from_rows([[1, -1]]), Matrix.from_rows([[3], [-5]])))  # 1 + 1 cancels
@example((_matrix(70, 2, {(69, 0): -1, (0, 1): 3, (69, 1): 1}), Matrix.from_rows([[1], [-3]])))
def test_f2_compose_reads_unreduced_entries_by_parity(case):
    a, b = case
    prod = a.compose(b, F2)
    assert (prod.rows, prod.cols) == (a.rows, b.cols)
    assert prod.entries == _dense_product(a, b, F2)
    assert all(v == 1 and type(v) is int for v in prod.entries.values())


@st.composite
def _unreduced_f2_chain(draw):
    """Composable integer matrices, read over F2, with even, odd and negative
    entries and up to 70 rows, so a packed column can pass one machine word,
    and an edit (i, j, v) of the first."""
    n, k, m = draw(st.integers(0, 70)), draw(st.integers(0, 70)), draw(st.integers(0, 4))
    entry = st.integers(-4, 4).filter(bool)

    def sparse(rows, cols):
        cell = st.tuples(st.integers(0, max(rows - 1, 0)), st.integers(0, max(cols - 1, 0)))
        picked = draw(st.lists(cell, max_size=40)) if rows and cols else []
        return _matrix(rows, cols, {ij: draw(entry) for ij in picked})

    edit = (draw(st.integers(0, max(n - 1, 0))), draw(st.integers(0, max(k - 1, 0))),
            draw(st.integers(-4, 4)))
    return sparse(n, k), sparse(k, m), edit


def _pack(m: Matrix) -> Matrix:
    """m over F2 as a packed matrix, built from the parities of its entries."""
    bits = [0] * m.cols
    for (i, j), v in m.entries.items():
        bits[j] |= (v % 2) << i
    return Matrix(m.rows, m.cols, bits=bits)


def _mod2(m: Matrix) -> Matrix:
    """m over F2 as a dict matrix whose entries are 1."""
    return _matrix(m.rows, m.cols, {ij: 1 for ij, v in m.entries.items() if v % 2})


@settings(max_examples=200, deadline=None)
@given(_unreduced_f2_chain())
@example((_matrix(70, 2, {(69, 0): -1, (0, 1): 3, (69, 1): 1}), Matrix.from_rows([[1], [-3]]),
          (69, 0, 2)))
def test_a_packed_f2_matrix_reads_like_its_dict_form(case):
    a, b, (i, j, v) = case
    pa, pb = _pack(a), _pack(b)
    assert pa._dicts is None and pa.bits is not None  # one form stored
    dense = _dense_product(a, b, F2)
    for left, right in ((a, b), (pa, b), (a, pb), (pa, pb)):
        prod = left.compose(right, F2)
        assert prod.entries == dense and (prod.bits is not None or not a.rows)
        assert prod == _matrix(a.rows, b.cols, dense) == a.compose(b, F2)
        assert prod.is_zero() == (not dense)
    for d, p in ((a, pa), (b, pb)):
        assert rank_over_field(p, F2) == rank_over_field(d, F2) == rank_over_field(_mod2(d), F2)
        assert kernel_basis(p, F2) == kernel_basis(d, F2)
        assert p.entries == _mod2(d).entries
        assert p == _mod2(d) and _mod2(d) == p and p == _pack(d)
        assert p.is_zero() == _mod2(d).is_zero()
        assert all(p.get(i, j) == d.get(i, j) % 2 for i in range(d.rows) for j in range(d.cols))
        assert p.columns is not p.columns  # fresh dicts: editing one leaves p alone
    if a.rows and a.cols:  # set writes the parity into the packed column
        a.set(i, j, v)
        pa.set(i, j, v)
        assert pa.get(i, j) == v % 2 and pa == _mod2(a) == _pack(a)
        pa.set(i, j, v + 1)
        assert pa != _mod2(a) and pa.get(i, j) == (v + 1) % 2


def test_realized_f2_differentials_are_packed_once(monkeypatch):
    # over F2 every vector is one int from the multiplication map on, so a
    # whole tower s=3 (regularity check, realize, d.d audit, ranks, R/I^3
    # and augmentation) packs no dict column; realize stores each F2
    # differential packed, and the audit and the ranks read it as stored
    from koszul.rings import DegreeWindow, IdealSpec, RingSpec
    from koszul.tower import build_tower_resolution, tower_free

    ring = RingSpec(F2, (("x1", 2), ("x2", 2), ("x3", 4)), DegreeWindow(0, 12, 3, stage_max=3))
    x1, x2, x3 = (ring.generator(n) for n in ("x1", "x2", "x3"))
    ideal = IdealSpec((x1, x2, x3 + x1 * x1))  # a two-term entry, as seed 7 has
    calls = []
    real = linalg._f2_bits

    def counted(col):
        calls.append(col)
        return real(col)

    monkeypatch.setattr(linalg, "_f2_bits", counted)
    cx = tower_free(ring, ideal, 3).realize()
    assert all(m.bits is not None for m in cx.diff.values() if m.rows)
    report = build_tower_resolution(ring, ideal, 3)
    assert report.ok and report.augmentation_surjective and report.h0_found
    assert calls == []
    rank_over_field(Matrix(1, 1, [{0: 1}]), F2)  # the patch is live: a dict column packs
    assert len(calls) == 1


@settings(deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
def test_compose_rejects_shape_mismatch(n, k, k2, m):
    a, b = Matrix(n, k), Matrix(k2, m)
    if k == k2:
        assert a.compose(b, F2) == Matrix(n, m)
    else:
        with pytest.raises(ValueError, match="shape mismatch"):
            a.compose(b, F2)


def test_compose_drops_cancelled_entries():
    # row (1, 1) times column (1, 1) is 1 + 1 = 0 over F2 but 2 over F3
    a = Matrix.from_rows([[1, 1], [0, 0]])
    b = Matrix.from_rows([[1, 0, 0], [1, 0, 0]])
    assert a.compose(b, F2).entries == {}
    assert a.compose(b, F3).entries == {(0, 0): 2}
    # 0 x n and n x 0 shapes
    assert a.compose(Matrix(2, 0), F2) == Matrix(2, 0)
    assert Matrix(0, 2).compose(b, F2) == Matrix(0, 3)


# ---------------------------------------------------------------------------
# Smith normal form: sparse unit elimination in front of the dense search

_SNF_ENTRIES = {
    "units": st.sampled_from([1, -1]),
    "non-units": st.sampled_from([2, -2, 3, -3, 6, -6]),
    "mixed": st.integers(-7, 7).filter(bool),
}


@st.composite
def _integer_matrix(draw):
    """0-6 rows and columns of units only, non-units only, or mixed entries."""
    kind = draw(st.sampled_from(sorted(_SNF_ENTRIES)))
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    cells = [(i, j) for i in range(rows) for j in range(cols)]
    picked = draw(st.lists(st.sampled_from(cells), unique=True)) if cells else []
    return _matrix(rows, cols, {ij: draw(_SNF_ENTRIES[kind]) for ij in picked})


def _dense_chain(m: Matrix) -> tuple[int, ...]:
    """Invariant factors from the dense pivot search alone."""
    if not m.rows or not m.cols:
        return ()
    raw, _, _ = linalg._dense_smith(_rows(m), False, False)
    return linalg._divisibility_chain(raw)


@settings(max_examples=300, deadline=None)
@given(_integer_matrix())
@example(Matrix(0, 3))
@example(Matrix(3, 0))
@example(Matrix(2, 3))
@example(Matrix(3, 3, [{}, {0: 2, 2: -3}, {}]))
@example(Matrix.from_rows([[2, 4, 6], [4, 6, 8], [6, 9, 15]]))  # no unit: dense search only
def test_smith_with_transforms_properties(m):
    raw, s, t = smith_with_transforms(m)
    assert (s.rows, s.cols, t.rows, t.cols) == (m.rows, m.rows, m.cols, m.cols)
    prod = s.compose(m, Z).compose(t, Z)
    assert prod.entries == {(k, k): v for k, v in enumerate(raw)}
    assert all(v > 0 for v in raw)
    assert abs(_det(_rows(s))) == 1 and abs(_det(_rows(t))) == 1
    assert linalg._divisibility_chain(raw) == _dense_chain(m)
    # without transforms the same factors come out, and skipping the
    # bookkeeping of one transform leaves the other unchanged
    assert smith_with_transforms(m, need_s=False, need_t=False) == (raw, None, None)
    assert smith_with_transforms(m, need_t=False) == (raw, s, None)
    assert smith_with_transforms(m, need_s=False) == (raw, None, t)


@settings(max_examples=200, deadline=None)
@given(_integer_matrix(), st.sampled_from([2, 3]))
def test_universal_coefficients_against_snf(m, p):
    # rank over F_p counts the invariant factors that p does not divide
    mod_p = _matrix(m.rows, m.cols, {k: v % p for k, v in m.entries.items()})
    d = smith_normal_form(m)
    assert rank_over_field(mod_p, Coefficients.prime_field(p)) == sum(1 for v in d if v % p)


def _counting_dense(monkeypatch):
    blocks = []
    original = linalg._dense_smith

    def counting(a, need_s, need_t):
        blocks.append([row[:] for row in a])
        return original(a, need_s, need_t)

    monkeypatch.setattr(linalg, "_dense_smith", counting)
    return blocks


def test_dense_search_skipped_on_unit_eliminable_matrices(monkeypatch):
    from koszul.rings import DegreeWindow, IdealSpec, RingSpec
    from koszul.tower import tower_free

    blocks = _counting_dense(monkeypatch)
    # identity, a signed permutation, a unimodular triangular matrix
    assert smith_normal_form(_identity(4)) == (1, 1, 1, 1)
    perm = Matrix.from_rows([[0, -1, 0], [0, 0, 1], [1, 0, 0]])
    raw, s, t = smith_with_transforms(perm)
    assert raw == (1, 1, 1) and s.compose(perm, Z).compose(t, Z) == _identity(3)
    tri = Matrix.from_rows([[1, 5, -7, 2], [0, -1, 3, 9], [0, 0, 1, -4]])
    assert smith_normal_form(tri) == (1, 1, 1)
    # every differential of a stage-3 tower over Z, with and without transforms
    ring = RingSpec(Z, (("x1", 2), ("x2", 2), ("x3", 4)), DegreeWindow(0, 10, 3, stage_max=3))
    ideal = IdealSpec(tuple(ring.generator(n) for n in ("x1", "x2", "x3")))
    diffs = [d for d in tower_free(ring, ideal, 3).realize().diff.values() if d.entries]
    assert len(diffs) > 10
    for d in diffs:
        raw, s, t = smith_with_transforms(d)
        assert set(raw) == {1}
        assert smith_normal_form(d) == raw
    assert blocks == []


@settings(max_examples=200, deadline=None)
@given(_integer_matrix())
def test_dense_search_never_sees_a_unit(m):
    with pytest.MonkeyPatch.context() as mp:
        blocks = _counting_dense(mp)
        smith_with_transforms(m)
    assert len(blocks) <= 1
    for block in blocks:
        # only the nonzero rows and columns left over, none of them a unit
        assert block and block[0]
        assert all(v not in (1, -1) for row in block for v in row)
        assert all(any(row) for row in block) and all(any(col) for col in zip(*block))


@settings(max_examples=200, deadline=None)
@given(_integer_matrix(), st.lists(st.integers(-3, 3), min_size=6, max_size=6),
       st.lists(st.integers(-2, 2), min_size=6, max_size=6))
def test_lattice_membership_against_cokernel_oracle(m, combo, shift):
    # v = m*combo + shift; v lies in col(m) exactly when adjoining it as a
    # column leaves the cokernel unchanged (the oracle never touches S)
    v: dict[int, int] = {}
    for (i, j), x in m.entries.items():
        v[i] = v.get(i, 0) + x * combo[j]
    for i in range(m.rows):
        v[i] = v.get(i, 0) + shift[i]
    v = {i: x for i, x in v.items() if x}
    wider = _matrix(m.rows, m.cols + 1, m.entries)
    for i, x in v.items():
        wider.set(i, m.cols, x)
    expected = cokernel_invariants(wider) == cokernel_invariants(m)
    assert IntegerLattice(m).contains(v) == expected
    assert IntegerLattice(m).contains({i: x for (i, j), x in m.entries.items() if j == 0})


# ---------------------------------------------------------------------------
# rank over a field: bitset columns over F2, coordinate-free elimination


@st.composite
def _tall_integer_matrix(draw):
    """Up to 150 rows, so F2 bitset columns span several 64-bit words, and
    up to 12 sparse columns; later columns may be integer combinations of
    earlier ones, so ranks fall short of the column count over Q or mod p.
    Entries are negative or unreduced mod 2 and 3; 0 x n and n x 0 occur."""
    rows, cols = draw(st.integers(0, 150)), draw(st.integers(0, 12))
    columns: list[dict[int, int]] = []
    for _ in range(cols):
        if len(columns) >= 2 and draw(st.booleans()):
            a, b = draw(st.sampled_from(columns)), draw(st.sampled_from(columns))
            x, y = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            col = {i: x * a.get(i, 0) + y * b.get(i, 0) for i in a.keys() | b.keys()}
        elif rows:
            picked = draw(st.lists(st.integers(0, rows - 1), max_size=6, unique=True))
            col = {i: draw(st.integers(-9, 9).filter(bool)) for i in picked}
        else:
            col = {}
        columns.append({i: v for i, v in col.items() if v})
    return Matrix(rows, cols, columns)


@settings(max_examples=150, deadline=None)
@given(_tall_integer_matrix(), st.lists(st.integers(1, 6), min_size=12, max_size=12))
@example(Matrix(0, 3), [1] * 12)
@example(Matrix(3, 0), [1] * 12)
@example(Matrix(2, 3), [1] * 12)
@example(Matrix(3, 3, [{}, {0: 2, 2: -3}, {}]), [1, 2, 3] * 4)
def test_rank_over_field_against_kernels_and_snf(m, denominators):
    d = smith_normal_form(m)
    for c in (F2, F3, Q):
        rank = rank_over_field(m, c)
        # kernel_basis keeps coordinates and shares no code with the rank
        assert rank + len(kernel_basis(m, c)) == m.cols
        if c.p:  # universal coefficients: the factors p does not divide
            assert rank == sum(1 for v in d if v % c.p)
    assert rational_rank(m) == len(d)
    # scaling column j by 1/denominators[j] leaves the rank over Q unchanged
    scaled = Matrix(m.rows, m.cols, [{i: Fraction(v, denominators[j]) for i, v in col.items()}
                                     for j, col in enumerate(m.columns)])
    assert rank_over_field(scaled, Q) == len(d)


def test_f2_rank_uses_neither_span_nor_normalize(monkeypatch):
    # over F2 every column is one int and a reduction step one XOR: no
    # VectorSpan, no per-scalar normalization
    from koszul.rings import DegreeWindow, IdealSpec, RingSpec
    from koszul.tower import tower_free

    ring = RingSpec(F2, (("x1", 2), ("x2", 2), ("x3", 4)), DegreeWindow(0, 12, 3, stage_max=3))
    ideal = IdealSpec(tuple(ring.generator(n) for n in ("x1", "x2", "x3")))
    diffs = [d for d in tower_free(ring, ideal, 3).realize().diff.values() if d.entries]
    unreduced = Matrix(70, 3, [{0: 3, 69: -1}, {69: 5}, {0: 2}])
    matrices = diffs + [unreduced]
    expected = [m.cols - len(kernel_basis(m, F2)) for m in matrices]
    assert max(m.rows for m in diffs) > 64 and sum(expected) > len(diffs)
    calls = []
    real_insert, real_normalize = VectorSpan.insert, F2.normalize

    def insert(self, v, tag=None):
        calls.append("insert")
        return real_insert(self, v, tag)

    def normalize(x):
        calls.append("normalize")
        return real_normalize(x)

    monkeypatch.setattr(VectorSpan, "insert", insert)
    monkeypatch.setitem(vars(F2), "normalize", normalize)  # chosen per instance
    assert [rank_over_field(m, F2) for m in matrices] == expected
    assert calls == []
    VectorSpan(F2).insert(1)
    assert calls == ["insert"]  # the patches are live: the span calls insert,
    assert linalg._normalized(F2, {0: 3}) == {0: 1}  # and normalize is called
    assert calls == ["insert", "normalize"]


class _ListSpan:
    """Reference echelon over F2 on 0/1 lists, sharing no code with linalg:
    a row is (key list, tag list); reduction clears the lowest key that is a
    lead, then the next, until none is left."""

    def __init__(self, n: int, m: int):
        self.n, self.m, self.rows = n, m, {}  # lead -> (keys, tags)

    def reduce(self, keys: list, tags: list):
        keys, tags = list(keys), list(tags)
        while hits := [i for i in range(self.n) if keys[i] and i in self.rows]:
            row, tag_row = self.rows[hits[0]]
            keys = [a ^ b for a, b in zip(keys, row)]
            tags = [a ^ b for a, b in zip(tags, tag_row)]
        return keys, tags

    def insert(self, keys: list, tags: list) -> bool:
        keys, tags = self.reduce(keys, tags)
        if 1 not in keys:
            return False
        self.rows[keys.index(1)] = (keys, tags)
        return True

    def as_bits(self, keys: list, tags: list) -> tuple[int, int]:
        return (sum(1 << i for i, a in enumerate(keys) if a),
                sum(1 << k for k, a in enumerate(tags) if a))


@st.composite
def _f2_vectors(draw):
    """Vectors over F2 on more than 64 keys, so bit rows span several
    machine words: each an int, the XOR of the bits drawn, next to the
    parities of the draws as a 0/1 list.  An inserted vector may carry a
    tag, which other vectors may share."""
    n = draw(st.integers(65, 140))
    m = draw(st.integers(0, 6))

    def vector():
        drawn, x = draw(st.lists(st.integers(0, n - 1), max_size=12)), 0
        for i in drawn:
            x ^= 1 << i
        return x, [drawn.count(i) % 2 for i in range(n)]

    def tagged():
        tag = draw(st.none() | st.integers(0, m - 1)) if m else None
        return vector(), tag, [int(k == tag) for k in range(m)]

    inserted = [tagged() for _ in range(draw(st.integers(0, 40)))]
    probes = [vector() for _ in range(draw(st.integers(1, 8)))]
    return n, m, inserted, probes


@settings(max_examples=150, deadline=None)
@given(_f2_vectors())
def test_f2_bit_span_matches_a_list_elimination(case):
    n, m, inserted, probes = case
    span, ref = VectorSpan(F2), _ListSpan(n, m)
    for (x, keys), tag, tags in inserted:
        assert span.insert(x, tag) == ref.insert(keys, tags)
        assert sorted(span.pivots) == sorted(ref.rows)  # the same leads, in order
        assert span.rank == len(ref.rows)
    for x, keys in probes + [v for v, _, _ in inserted]:
        normal = ref.as_bits(*ref.reduce(keys, [0] * m))
        assert span.reduce(x) == normal  # tags included
        assert span.contains(x) == (normal == (0, 0))


@settings(max_examples=100, deadline=None)
@given(st.integers(65, 130), st.integers(1, 25), st.data())
def test_f2_kernel_basis_matches_a_list_elimination(rows, cols, data):
    cells = st.lists(st.integers(0, rows - 1), max_size=6)
    # later columns repeat sums of earlier ones, so the kernel is not empty
    columns = []
    for _ in range(cols):
        if columns and data.draw(st.booleans()):
            picks = data.draw(st.lists(st.sampled_from(range(len(columns))), max_size=3))
            col: dict = {}
            for j in picks:
                for i in columns[j]:
                    col[i] = col.get(i, 0) + 1
            columns.append({i: a for i, a in col.items() if a % 2})
        else:
            columns.append({i: 1 for i in data.draw(cells)})
    ref, expected = _ListSpan(rows, cols), []
    for j, col in enumerate(columns):
        keys = [1 if i in col else 0 for i in range(rows)]
        tags = [1 if k == j else 0 for k in range(cols)]
        if not ref.insert(keys, tags):
            _, tags = ref.reduce(keys, tags)
            expected.append(sum(1 << k for k, a in enumerate(tags) if a))
    # over F2 a kernel vector is one int, bit k for column k, whether the
    # columns are given as dicts or packed
    packed = Matrix(rows, cols, bits=[sum(1 << i for i in col) for col in columns])
    assert kernel_basis(Matrix(rows, cols, columns), F2) == expected
    assert kernel_basis(packed, F2) == expected


@pytest.mark.parametrize("c", [F2, F3, Q, Z], ids=str)
@pytest.mark.parametrize("n", [0, 1, 4])
def test_zero_row_left_factor_composes_like_the_general_product(c, n):
    # a 0-row left factor returns at once; the result is the general
    # product's: no rows, one empty column per column of the right factor
    right = _matrix(n, 3, {(i, j): (i + j) % 3 for i in range(n) for j in range(3)})
    prod = Matrix(0, n).compose(right, c)
    assert (prod.rows, prod.cols, prod.entries) == (0, 3, _dense_product(Matrix(0, n), right, c))
    assert prod == Matrix(0, 3)
    padded = Matrix(1, n).compose(right, c)  # one zero row: the general code
    assert padded.columns == prod.columns
    if c.is_field:
        assert rank_over_field(Matrix(0, n), c) == 0 == rank_over_field(Matrix(1, n), c)
    else:
        with pytest.raises(ValueError):
            rank_over_field(Matrix(0, n), c)
