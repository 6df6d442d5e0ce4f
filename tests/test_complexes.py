"""Tests for the bigraded complex layer.

Frozen answers here are computed by hand on complexes small enough to do on
paper: one- and two-variable exterior differentials, an integer multiply-by-2
complex, and quotient-module realizations with known annihilators.
"""
import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszul.complexes import (
    COHOMOLOGICAL,
    HOMOLOGICAL,
    UNIT_LABEL,
    BasisLabel,
    BigradedComplex,
    DifferentialSquareError,
    FreeComplex,
    homology_basis_at,
    homology_ranks,
    nonzero_table,
    tensor_free,
    verify_differential,
)
from koszul.cotor import HopfSpec, cobar_complex, cobar_free
from koszul.linalg import Coefficients, Matrix
from koszul.rings import (
    DegreeWindow,
    Element,
    IdealSpec,
    QuotientModule,
    RingSpec,
    check_regular_sequence,
    power_generators,
    power_multi_indices,
    quotient_by_power,
)
from koszul.tower import tower_free


def one_variable_ring(p=2, t_max=8):
    return RingSpec(Coefficients.prime_field(p), (("x", 2),), DegreeWindow(0, t_max))


def exterior_on(ring, indices):
    """Free complex on generators e_i with d(e_S) the usual alternating sum."""
    cx = FreeComplex(ring, HOMOLOGICAL)
    from itertools import combinations

    gens = list(indices)
    subsets = []
    for r in range(len(gens) + 1):
        subsets.extend(combinations(range(len(gens)), r))
    subsets.sort(key=lambda s: (len(s), s))
    ids = {}
    for sub in subsets:
        label = BasisLabel(e_part=tuple(i + 1 for i in sub))
        internal = sum(ring.degrees[gens[i]] for i in sub)
        ids[sub] = cx.add_generator(label, len(sub), internal)
    for sub in subsets:
        terms = []
        for k, i in enumerate(sub):
            rest = tuple(sub[:k] + sub[k + 1 :])
            sign = 1 if k % 2 == 0 else -1
            coeff = ring.generator(ring.names[gens[i]]).scaled(sign)
            terms.append((coeff, ids[rest]))
        cx.set_diff(ids[sub], terms)
    return cx


def test_basis_label_validation():
    with pytest.raises(ValueError):
        BasisLabel(e_part=(2, 1))
    with pytest.raises(ValueError):
        BasisLabel(u_part=(3, 1))
    assert str(BasisLabel(e_part=(1, 3), u_part=(2, 2))) == "e(1,3)*u~(2,2)"
    assert str(UNIT_LABEL) == "1"


def test_one_variable_exterior_homology():
    ring = one_variable_ring()
    c = exterior_on(ring, [0]).realize()
    assert verify_differential(c).ok
    h = nonzero_table(homology_ranks(c))
    assert h == {(0, 0): h[(0, 0)]}
    assert h[(0, 0)].rank == 1 and h[(0, 0)].certain


def test_two_copies_of_same_variable():
    # d(e1) = d(e2) = x: homology is R/(x) at level 0 and one class at (1, 2)
    ring = one_variable_ring()
    c = exterior_on(ring, [0, 0]).realize()
    assert verify_differential(c).ok
    h = nonzero_table(homology_ranks(c))
    assert set(h) == {(0, 0), (1, 2)}
    assert h[(0, 0)].rank == 1
    assert h[(1, 2)].rank == 1


def _euler_cases():
    yield exterior_on(one_variable_ring(), [0, 0]).realize()
    for coeffs in (Coefficients.prime_field(2), Coefficients.prime_field(3),
                   Coefficients.integers()):
        ring = RingSpec(coeffs, (("x1", 2), ("x2", 2), ("x3", 4)), DegreeWindow(0, 12))
        ideal = IdealSpec(tuple(ring.generator(n) for n in ("x1", "x2", "x3")))
        for s in (1, 2, 3):
            yield tower_free(ring, ideal, s).realize()
    base = RingSpec(Coefficients.prime_field(2), (), DegreeWindow(0, 12, 12))
    yield cobar_complex(HopfSpec(base, (("t1", 1), ("t2", 3), ("t3", 5))), base.window)


def test_euler_characteristic_matches_homology():
    # per t-column: sum (-1)^s dim C_{s,t} = sum (-1)^s rank H_{s,t}, with the
    # free rank over Z; every level of these windows' columns is fully built
    for c in _euler_cases():
        h = homology_ranks(c)
        columns = sorted({t for _, t in c.bidegrees()})
        assert columns
        for t in columns:
            assert all(h[(s, t)].certain for s in c.s_levels if (s, t) in h)
            chain_side = sum((-1) ** s * c.dim(s, t) for s in c.s_levels)
            hom_side = sum((-1) ** s * h[(s, t)].rank for s in c.s_levels if (s, t) in h)
            assert chain_side == hom_side, (str(c.coefficients), t)


def test_tensor_matches_two_variable_complex():
    # over Z the Koszul sign matters: without it d(d(e1 x e2)) = 2 x1 x2
    for coeffs in (Coefficients.prime_field(2), Coefficients.integers()):
        ring = RingSpec(coeffs, (("x1", 2), ("x2", 4)), DegreeWindow(0, 10))
        ab = tensor_free(exterior_on(ring, [0]), exterior_on(ring, [1])).realize()
        direct = exterior_on(ring, [0, 1]).realize()
        for (s, t) in set(ab.bidegrees()) | set(direct.bidegrees()):
            assert ab.dim(s, t) == direct.dim(s, t)
        ha = nonzero_table(homology_ranks(ab))
        hd = nonzero_table(homology_ranks(direct))
        assert {k: (v.rank, v.torsion) for k, v in ha.items()} == {
            k: (v.rank, v.torsion) for k, v in hd.items()
        }
        assert {k: v.rank for k, v in hd.items()} == {(0, 0): 1}


def test_integer_torsion_homology():
    # 0 -> Z --2--> Z -> 0 concentrated in internal degree 0
    ring = RingSpec(Coefficients.integers(), (), DegreeWindow(0, 0))
    cx = FreeComplex(ring, HOMOLOGICAL)
    unit = cx.add_generator(UNIT_LABEL, 0, 0)
    e1 = cx.add_generator(BasisLabel(e_part=(1,)), 1, 0)
    cx.set_diff(e1, [(ring.constant(2), unit)])
    c = cx.realize()
    assert verify_differential(c).ok
    h = homology_ranks(c)
    assert h[(0, 0)].rank == 0
    assert h[(0, 0)].torsion == (2,)
    assert h[(1, 0)].rank == 0 and h[(1, 0)].torsion == ()


def test_quotient_module_realization():
    # d(e1) = x realized over R/(x^2): one class survives at (1, 4)
    ring = one_variable_ring()
    x = ring.generator("x")
    quotient = QuotientModule(ring, [x * x])
    c = exterior_on(ring, [0]).realize(module=quotient)
    assert verify_differential(c).ok
    h = nonzero_table(homology_ranks(c))
    assert {k: v.rank for k, v in h.items()} == {(0, 0): 1, (1, 4): 1}


def test_truncation_marks_uncertain_levels():
    ring = one_variable_ring()
    cx = FreeComplex(ring, HOMOLOGICAL, complete_above=False)
    unit = cx.add_generator(UNIT_LABEL, 0, 0)
    e1 = cx.add_generator(BasisLabel(e_part=(1,)), 1, 2)
    cx.set_diff(e1, [(ring.generator("x"), unit)])
    h = homology_ranks(cx.realize())
    assert h[(0, 0)].certain
    assert not h[(1, 2)].certain


def test_cohomological_certainty_needs_outgoing_level():
    ring = one_variable_ring()
    cx = FreeComplex(ring, COHOMOLOGICAL, complete_above=False)
    cx.add_generator(UNIT_LABEL, 0, 0)
    h = homology_ranks(cx.realize())
    # ker d^0 cannot be trusted: the level-1 module was never described
    assert not h[(0, 0)].certain


def test_verify_differential_catches_corruption():
    ring = one_variable_ring()
    c = exterior_on(ring, [0, 0]).realize()
    m = c.matrix(2, 4)
    assert m.cols == 1
    m.set(0, 0, 0 if m.get(0, 0) else 1)
    c.diff[(2, 4)] = m
    report = verify_differential(c)
    assert not report.ok
    assert any(v.kind == "square" for v in report.violations)
    assert "(2,4)" in str(report) or any(v.s == 2 and v.t == 4 for v in report.violations)


def test_square_witness_names_lowest_row_then_lowest_column():
    # d.d is made nonzero at (row 0, column 1) and (row 1, column 0): the
    # witness names row 0 of column 1, however the product's nonzeros are stored
    ring = RingSpec(Coefficients.prime_field(3), (("x1", 2), ("x2", 2), ("x3", 2)),
                    DegreeWindow(0, 4, 3))
    ideal = IdealSpec(tuple(ring.generator(n) for n in ("x1", "x2", "x3")))
    c = tower_free(ring, ideal, 1).realize()
    inner, outer = c.matrix(2, 4), c.matrix(1, 4)  # (2,4) -> (1,4) -> (0,4)
    assert min(inner.rows, inner.cols, outer.rows) >= 2
    inner, outer = Matrix(inner.rows, inner.cols), Matrix(outer.rows, outer.cols)
    inner.set(1, 0, 1)
    inner.set(0, 1, 2)
    outer.set(0, 0, 1)
    outer.set(1, 1, 1)
    c.diff[(2, 4)], c.diff[(1, 4)] = inner, outer
    assert outer.compose(inner, ring.coefficients).entries == {(1, 0): 1, (0, 1): 2}
    label, mono = c.basis[(2, 4)][1]
    got = [(v.kind, v.detail) for v in verify_differential(c).violations if (v.s, v.t) == (2, 4)]
    assert got == [("square", f"d(d({label}|{mono})) has entry 2 at target row 0")]


def _nonzero_square(ring):
    """c <- b <- a with d(b) = x c and d(a) = x b, so d(d(a)) = x^2 c."""
    cx = FreeComplex(ring, HOMOLOGICAL)
    x = ring.generator("x")
    c = cx.add_generator(BasisLabel(), 0, 0)
    b = cx.add_generator(BasisLabel(e_part=(1,)), 1, 2)
    a = cx.add_generator(BasisLabel(e_part=(1, 2)), 2, 4)
    cx.set_diff(b, [(x, c)])
    cx.set_diff(a, [(x, b)])
    return cx


@pytest.mark.parametrize("p, scalars, entry", [
    (2, (1, 1), None), (2, (1, 1, 1), 1),
    (3, (1, 1), 2), (3, (1, -1), None), (3, (1, 1, 1), None), (3, (2, 2, 1), 2),
    (3, (3,), None),
])
def test_realize_adds_terms_that_land_on_one_row(p, scalars, entry):
    # every term k*x*c of d(b) lands on the row of c*x at each t: the sum is
    # normalized there, and a sum that cancels leaves no entry behind
    ring = one_variable_ring(p)
    cx = FreeComplex(ring, HOMOLOGICAL)
    c = cx.add_generator(BasisLabel(), 0, 0)
    b = cx.add_generator(BasisLabel(e_part=(1,)), 1, 2)
    x = ring.generator("x")
    cx.set_diff(b, [(x.scaled(k), c) for k in scalars])
    realized = cx.realize()
    for t in (2, 4, 6, 8):
        assert realized.matrix(1, t).columns == [{} if entry is None else {0: entry}]


def test_realize_raises_on_nonzero_square():
    ring = one_variable_ring(p=3)
    with pytest.raises(DifferentialSquareError) as err:
        _nonzero_square(ring).realize()
    violations = err.value.report.violations
    assert all(v.kind == "square" for v in violations)
    # a reaches the window at t = 4 and again at 6 and 8 through x and x^2
    assert [(v.s, v.t) for v in violations] == [(2, 4), (2, 6), (2, 8)]


def test_building_a_complex_with_a_nonzero_square_raises():
    # built directly, with no FreeComplex: the audit belongs to the complex.
    # a -> b -> c over Z with d(a) = 2 b and d(b) = 3 c, so d(d(a)) = 6 c
    basis = {(s, 0): [(BasisLabel(e_part=tuple(range(1, s + 1))), ())] for s in range(3)}
    diff = {(0, 0): Matrix(0, 1), (1, 0): Matrix.from_rows([[3]]),
            (2, 0): Matrix.from_rows([[2]])}
    with pytest.raises(DifferentialSquareError) as err:
        BigradedComplex(Coefficients.integers(), HOMOLOGICAL, basis, diff,
                        DegreeWindow(0, 0, 2), [0, 1, 2])
    assert [(v.s, v.t, v.kind, v.detail) for v in err.value.report.violations] == [
        (2, 0, "square", "d(d(e(1,2)|())) has entry 6 at target row 0")]
    diff[(2, 0)] = Matrix(1, 1)
    cx = BigradedComplex(Coefficients.integers(), HOMOLOGICAL, basis, diff,
                         DegreeWindow(0, 0, 2), [0, 1, 2])
    assert cx.differential.ok


def test_realized_complexes_carry_a_passing_differential_report():
    ring = one_variable_ring(p=3)
    ideal = IdealSpec((ring.generator("x"),))
    free = exterior_on(ring, [0, 0])
    realized = [
        free.realize(),
        tower_free(ring, ideal, 2).realize(),
        tower_free(ring, ideal, 2).realize(module=QuotientModule(ring, [ring.generator("x")])),
        tensor_free(free, free).realize(),
        cobar_complex(HopfSpec(RingSpec(Coefficients.prime_field(2), (), DegreeWindow(0, 8, 2)),
                               (("t1", 1), ("t2", 3))), DegreeWindow(0, 8, 2)),
    ]
    for cx in realized:
        assert cx.differential is not None and cx.differential.ok


def test_homology_basis_coordinates():
    ring = one_variable_ring()
    c = exterior_on(ring, [0, 0]).realize()
    hb = homology_basis_at(c, 1, 2)
    assert len(hb.reps) == 1
    # the class of e1 + e2 generates; e1 alone is not a cycle mod boundaries.
    # Over F2 a chain is one int, bit i for basis entry i
    assert hb.coords(0b11) == [1]
    assert not hb.is_boundary(0b11)
    with pytest.raises(ValueError):
        hb.coords(0b01)
    hb4 = homology_basis_at(c, 1, 4)
    assert len(hb4.reps) == 0
    # x*(e1 + e2) is the boundary of e1e2 at t = 4
    assert hb4.is_boundary(c.matrix(2, 4).bits[0])


@functools.cache
def _koszul_of_x_x(name):
    """The Koszul complex of the non-regular sequence (x, x) over k[x, y, z]:
    H_0 = k[y, z] and H_1 = k[y, z](e1 - e2), next to boundaries."""
    c = Coefficients.prime_field(3) if name == "F3" else Coefficients.rationals()
    ring = RingSpec(c, (("x", 2), ("y", 2), ("z", 2)), DegreeWindow(0, 8))
    return exterior_on(ring, [0, 0]).realize()


def _combination(c, terms):
    out = {}
    for k, vec in terms:
        for i, x in vec.items():
            out[i] = c.normalize(out.get(i, 0) + k * x)
    return {i: x for i, x in out.items() if x}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["F3", "Q"]), st.integers(0, 2), st.integers(0, 4), st.data())
def test_homology_coordinates_recover_a_combination_plus_a_boundary(name, s, half_t, data):
    cx = _koszul_of_x_x(name)
    c, t = cx.coefficients, 2 * half_t
    scalar = (st.integers(0, 2) if c.p else
              st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)))
    hb = homology_basis_at(cx, s, t)
    into = cx.matrix(s - cx.step, t)
    coords = [c.normalize(data.draw(scalar)) for _ in hb.reps]
    chain = Matrix(into.cols, 1, [{j: data.draw(scalar) for j in range(into.cols)}])
    boundary = into.compose(chain, c).columns[0]
    v = _combination(c, [*zip(coords, hb.reps), (1, boundary)])
    assert hb.coords(v) == coords
    assert hb.is_boundary(v) == (not any(coords))
    # adding a chain that d does not kill leaves a non-cycle
    for j, col in enumerate(cx.matrix(s, t).columns):
        if col:
            with pytest.raises(ValueError):
                hb.coords(_combination(c, [(1, v), (1, {j: 1})]))


def test_realize_enumerates_each_degree_once(monkeypatch):
    import koszul.rings as rings

    calls = []
    real = rings._monomials

    def counting(ring, t):
        calls.append(t)
        return real(ring, t)

    monkeypatch.setattr(rings, "_monomials", counting)
    ring = RingSpec(Coefficients.prime_field(3), (("x1", 2), ("x2", 2), ("x3", 4)),
                    DegreeWindow(0, 12))
    c = exterior_on(ring, [0, 1, 2]).realize()
    assert verify_differential(c).ok
    assert sum(len(m.entries) for m in c.diff.values()) > 50
    assert calls and len(calls) == len(set(calls))


def test_realize_hashes_no_label(monkeypatch):
    # realize works on generator ids; labels only ride along into the bases
    ring = RingSpec(Coefficients.prime_field(3), (("x1", 2), ("x2", 2), ("x3", 4)),
                    DegreeWindow(0, 12))
    ideal = IdealSpec(tuple(ring.generator(n) for n in ("x1", "x2", "x3")))
    base = RingSpec(Coefficients.prime_field(2), (), DegreeWindow(0, 12, 12))
    hopf = HopfSpec(base, (("t1", 1), ("t2", 3), ("t3", 5)))
    tower = tower_free(ring, ideal, 3)
    cobar = cobar_free(hopf, base.window)
    calls = []
    real = BasisLabel.__hash__

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(BasisLabel, "__hash__", counting)
    realized = [tower.realize(), cobar.realize(base.window),
                tower.realize(module=QuotientModule(ring, list(ideal.sequence)))]
    assert all(any(m.entries for m in c.diff.values()) for c in realized)
    assert calls == []
    hash(UNIT_LABEL)
    assert len(calls) == 1  # the patch is live


def test_multiplication_maps_form_no_element_product(monkeypatch):
    # every g*m map of realize, the regularity check and the augmentation
    # check is formed on exponent tuples by rings.multiples
    import koszul.tower as tower

    gens = (("x1", 2), ("x2", 2), ("x3", 4))
    w = DegreeWindow(0, 12)
    f2, z, f3 = (RingSpec(c, gens, w) for c in (Coefficients.prime_field(2),
                                                 Coefficients.integers(),
                                                 Coefficients.prime_field(3)))
    ideals = {r: IdealSpec(tuple(r.generator(n) for n in r.names)) for r in (f2, z, f3)}
    towers = [tower_free(r, ideals[r], 3) for r in (f2, z)]
    quotient = QuotientModule(f2, list(ideals[f2].sequence))
    calls = []
    real = Element.__mul__

    def counting(self, other):
        calls.append(self)
        return real(self, other)

    monkeypatch.setattr(Element, "__mul__", counting)
    realized = [towers[0].realize(), towers[1].realize(), towers[0].realize(module=quotient)]
    assert all(any(m.entries for m in c.diff.values()) for c in realized)
    assert check_regular_sequence(f3, ideals[f3]).ok
    assert calls == []
    # the augmentation check multiplies only to build the generators u_J of
    # I^0..I^3, and each u_J once per (ideal, power): on a fresh ideal that is
    # one product per factor past the first; on a used one, none at all
    fresh = IdealSpec(ideals[f2].sequence)
    tower._augmentation_checks(f2, fresh, 3, w, realized[0])
    assert len(calls) == sum(len(J) - 1 for k in range(1, 4)
                             for J in power_multi_indices(3, k)) > 0
    calls.clear()
    tower._augmentation_checks(f2, fresh, 3, w, realized[0])
    quotient_by_power(f2, fresh, 3)
    for k in range(4):
        power_generators(fresh, k)
    assert calls == []


def _counting_reductions(monkeypatch, names):
    import koszul.complexes as complexes

    seen = {name: [] for name in names}
    for name in names:
        real = getattr(complexes, name)

        def counting(m, *args, _real=real, _name=name):
            seen[_name].append(m)
            return _real(m, *args)

        monkeypatch.setattr(complexes, name, counting)
    return seen


def _touched_matrices(c, h):
    return {pos for s, t in h for pos in ((s, t), (s - c.step, t))}


@pytest.mark.parametrize("coeffs, names", [
    (Coefficients.prime_field(2), ("rank_over_field",)),
    (Coefficients.integers(), ("rational_rank", "smith_normal_form")),
])
def test_homology_reduces_each_differential_once(monkeypatch, coeffs, names):
    ring = RingSpec(coeffs, (("x1", 2), ("x2", 4)), DegreeWindow(0, 10))
    c = exterior_on(ring, [0, 1]).realize()
    seen = _counting_reductions(monkeypatch, names)
    h = homology_ranks(c)
    touched = _touched_matrices(c, h)
    for name in names:
        assert len(seen[name]) == len(touched) > len(h)
        # every realized differential is reduced exactly once
        assert sorted(map(id, c.diff.values())) == sorted(
            id(m) for m in seen[name] if any(m is d for d in c.diff.values()))


def test_oracle_mismatch_survives_pickling():
    # copy, deepcopy and every process boundary rebuild it through __reduce__
    import pickle

    from koszul.complexes import OracleMismatchError

    err = OracleMismatchError("ranks differ", {"kind": "snf-rank", "rational_rank": 2})
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is OracleMismatchError
    assert str(back) == "ranks differ" and back.witness == err.witness
