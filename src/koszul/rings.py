"""Evenly graded polynomial rings, homogeneous elements, ideals given by
ordered generating sequences, and exact dimension counts of power quotients.

All counting happens inside a declared degree window; nothing outside the
window is ever claimed.  At most one generator may be inverted, with negative
exponents cut off at a bound derived from the window (see RingSpec.neg_bound);
a single inverted generator alongside no other positive-degree generators is
degreewise exact regardless of the bound.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from functools import cached_property

from .linalg import (
    Coefficients,
    IntegerLattice,
    Matrix,
    VectorSpan,
    cokernel_invariants,
    integer_kernel_basis,
    rank_over_field,
)


class WindowError(ValueError):
    """A request stepped outside the declared degree window."""


class InputError(ValueError):
    """The arguments ask for something the computation does not accept
    (a malformed window, ring or sequence, a stage out of range, coefficients
    or a base it does not serve).  Raised before any work, so the command
    line reports it as a usage error, unlike a ValueError from inside."""


class Value:
    """Equal, and hashed alike, when _key() gives equal tuples: the base of
    what is compared by value or used as a dict key (windows, rings, ideals,
    labels, examples, and records that tests compare).  None of them
    changes after __init__."""

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class DegreeWindow(Value):
    """Internal degrees t_min..t_max, homological degrees up to s_max,
    tower stages up to stage_max."""

    def __init__(self, t_min: int, t_max: int, s_max: int = 6, stage_max: int = 6):
        if t_min > t_max:
            raise InputError(f"empty window: t_min {t_min} > t_max {t_max}")
        if s_max < 0 or stage_max < 0:
            raise InputError("s_max and stage_max must be nonnegative")
        self.t_min, self.t_max, self.s_max, self.stage_max = t_min, t_max, s_max, stage_max

    def _key(self):
        return self.t_min, self.t_max, self.s_max, self.stage_max

    def contains(self, t: int) -> bool:
        return self.t_min <= t <= self.t_max

    def degrees(self) -> range:
        return range(self.t_min, self.t_max + 1)


class RingSpec(Value):
    """A graded polynomial ring over F_p, Q, or Z with evenly graded
    generators, at most one of them inverted."""

    def __init__(self, coefficients: Coefficients, generators: tuple[tuple[str, int], ...],
                 window: DegreeWindow, inverted: str | None = None):
        names = [n for n, _ in generators]
        if len(set(names)) != len(names):
            raise InputError("generator names must be distinct")
        for name, d in generators:
            if d <= 0 or d % 2:
                raise InputError(f"generator {name} has degree {d}; positive even required")
        if inverted is not None and inverted not in names:
            raise InputError(f"inverted generator {inverted!r} is not a generator")
        self.coefficients, self.generators = coefficients, generators
        self.window, self.inverted = window, inverted

    def _key(self):
        return self.coefficients, self.generators, self.window, self.inverted

    # Fixed attributes, computed once: cached_property writes the instance
    # __dict__ directly, and _key leaves them out.
    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.generators)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.generators)

    @cached_property
    def inverted_index(self) -> int | None:
        return None if self.inverted is None else self.names.index(self.inverted)

    @cached_property
    def neg_bound(self) -> int:
        """Exponent floor for the inverted generator, derived from the window."""
        if self.inverted is None:
            return 0
        d = self.degrees[self.inverted_index]
        return (self.window.t_max - self.window.t_min) // d + 1

    @cached_property
    def _tables(self) -> dict[int, tuple[tuple, dict]]:
        return {}

    def _table(self, t: int) -> tuple[tuple[tuple[int, ...], ...], dict]:
        """(monomials of degree t in descending graded-lex order, monomial ->
        position), enumerated once per ring and shared by every caller; the
        tuple keeps it safe to hand out."""
        got = self._tables.get(t)
        if got is None:
            monos = tuple(_monomials(self, t))
            got = self._tables[t] = (monos, {m: i for i, m in enumerate(monos)})
        return got

    def monomial_degree(self, exps: tuple[int, ...]) -> int:
        return sum(e * d for e, d in zip(exps, self.degrees))

    def zero(self) -> "Element":
        return Element(self, {})

    def one(self) -> "Element":
        return Element(self, {(0,) * len(self.generators): self.coefficients.one})

    def monomial(self, exps, coeff=1) -> "Element":
        return Element(self, {tuple(exps): coeff})

    def generator(self, name: str) -> "Element":
        i = self.names.index(name)
        exps = tuple(int(j == i) for j in range(len(self.generators)))
        return self.monomial(exps)

    def constant(self, c) -> "Element":
        return Element(self, {(0,) * len(self.generators): c})

    def __str__(self):
        gens = ", ".join(f"{n}:{d}" for n, d in self.generators)
        inv = f", {self.inverted} inverted" if self.inverted else ""
        return f"{self.coefficients}[{gens}]{inv}"


class Element:
    """A homogeneous-or-not polynomial: dict from exponent tuples to scalars."""

    __slots__ = ("ring", "terms", "_degree")

    def __init__(self, ring: RingSpec, terms: dict):
        self.ring = ring
        c = ring.coefficients
        clean = {}
        for exps, v in terms.items():
            v = c.normalize(v)
            if v:
                clean[tuple(exps)] = v
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int | None:
        """Degree of a homogeneous element; None for 0.  Kept after the first
        call: terms never change once the element is built."""
        try:
            return self._degree
        except AttributeError:
            pass
        degs = {self.ring.monomial_degree(e) for e in self.terms}
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous element {self}")
        self._degree = degs.pop() if degs else None
        return self._degree

    def __add__(self, other: "Element") -> "Element":
        out = dict(self.terms)
        for e, v in other.terms.items():
            out[e] = out.get(e, 0) + v
        return Element(self.ring, out)

    def __neg__(self) -> "Element":
        return Element(self.ring, {e: -v for e, v in self.terms.items()})

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __mul__(self, other: "Element") -> "Element":
        out: dict = {}
        for e1, v1 in self.terms.items():
            for e2, v2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + v1 * v2
        return Element(self.ring, out)

    def scaled(self, c) -> "Element":
        return Element(self.ring, {e: c * v for e, v in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, Element) and self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    def sorted_terms(self) -> list[tuple[tuple[int, ...], object]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for exps, v in self.sorted_terms():
            factors = []
            for (name, _), e in zip(self.ring.generators, exps):
                if e == 1:
                    factors.append(name)
                elif e:
                    factors.append(f"{name}^{e}")
            if not factors:
                bits.append(str(v))
            elif v == 1:
                bits.append("*".join(factors))
            else:
                bits.append(f"{v}*" + "*".join(factors))
        return " + ".join(bits)

    def __repr__(self):
        return f"<{self}>"


def _monomials(ring: RingSpec, t: int) -> list[tuple[int, ...]]:
    """All exponent tuples of degree t, no window check; descending graded-lex,
    as each exponent runs downward.  A branch is entered only when the gcd of
    the later degrees divides what is left, and the last exponent is solved."""
    n = len(ring.generators)
    if n == 0:
        return [()] if t == 0 else []
    degs = ring.degrees
    inv = ring.inverted_index
    slack = ring.neg_bound * degs[inv] if inv is not None else 0
    later_gcd = list(itertools.accumulate(degs[:0:-1], math.gcd))[::-1]  # of degs[i + 1:]
    out: list[tuple[int, ...]] = []

    def rec(i: int, remaining: int, acc: list[int]):
        d = degs[i]
        lo = -ring.neg_bound if i == inv else 0
        if i == n - 1:  # d divides remaining: later_gcd[i - 1] or t % d checked it
            if remaining // d >= lo:
                out.append((*acc, remaining // d))
            return
        # the inverted generator, if still to come, can absorb up to `slack`
        # extra degree below zero
        hi = (remaining + (slack if inv is not None and i < inv else 0)) // d
        g = later_gcd[i]
        for e in range(hi, lo - 1, -1):
            if (remaining - e * d) % g == 0:
                acc.append(e)
                rec(i + 1, remaining - e * d, acc)
                acc.pop()

    if t % math.gcd(*degs) == 0:
        rec(0, t, [])
    return out


def monomial_basis(ring: RingSpec, t: int) -> list[tuple[int, ...]]:
    """Ordered monomial basis of the degree-t component.

    >>> from .linalg import Coefficients
    >>> w = DegreeWindow(0, 8, 2, 2)
    >>> r = RingSpec(Coefficients.prime_field(2), (("x1", 2), ("x2", 4)), w)
    >>> [''.join(f'{n}^{e}' for n, e in zip(r.names, m) if e) for m in monomial_basis(r, 6)]
    ['x1^3', 'x1^1x2^1']
    """
    if not ring.window.contains(t):
        raise WindowError(f"degree {t} outside window [{ring.window.t_min}, {ring.window.t_max}]")
    return list(ring._table(t)[0])


def monomial_count(ring: RingSpec, t: int) -> int:
    """Dimension of the degree-t component; 0 whenever no monomial fits.

    Unlike monomial_basis this never raises on out-of-window degrees, so
    closed-form counts can probe shifted degrees freely.  For a localized
    ring the count below the window floor follows the same truncation as the
    rest of the engine (exponents of the inverted generator are bounded by
    neg_bound).
    """
    return len(ring._table(t)[0])


def hilbert_function(ring: RingSpec, t_max: int) -> list[int]:
    """Coefficients [dim R_0, ..., dim R_t_max] from the generating function
    prod 1/(1-q^{d_i}); only defined without an inverted generator."""
    if ring.inverted is not None:
        raise ValueError("hilbert_function needs a non-localized ring")
    coeffs = [0] * (t_max + 1)
    coeffs[0] = 1
    for d in ring.degrees:
        for t in range(d, t_max + 1):
            coeffs[t] += coeffs[t - d]
    return coeffs


class IdealSpec(Value):
    """An ordered sequence of homogeneous even-degree elements."""

    def __init__(self, sequence: tuple[Element, ...]):
        for k, u in enumerate(sequence, start=1):
            if u.is_zero():
                raise InputError(f"sequence entry {k} is zero")
            d = u.degree()
            if d % 2:
                raise InputError(f"sequence entry {k} has odd degree {d}")
        self.sequence = sequence

    def _key(self):
        return (self.sequence,)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(u.degree() for u in self.sequence)

    @cached_property
    def _powers(self) -> dict:
        """What every degree of a run shares, built once per ideal as
        RingSpec._tables is per ring: the generators of I^k by k, R/I^k by
        (ring, k), and the integer invariants of (R/I)_t by (ring, "R/I", t)."""
        return {}

    def _shared(self, key, build):
        if key not in self._powers:
            self._powers[key] = build()
        return self._powers[key]

    def __len__(self):
        return len(self.sequence)


def power_multi_indices(n_gens: int, s: int) -> list[tuple[int, ...]]:
    """Weakly increasing multi-indices of length s over 1..n_gens."""
    if s == 0:
        return [()]
    return [tuple(c) for c in itertools.combinations_with_replacement(range(1, n_gens + 1), s)]


def power_generators(ideal: IdealSpec, s: int) -> tuple[tuple[tuple[int, ...], Element], ...]:
    """Generators u_J of I^s, indexed by weakly increasing multi-indices;
    formed once per ideal and power."""
    if s == 0 and not ideal.sequence:
        raise ValueError("empty ideal has no ambient ring for s=0")
    return ideal._shared(s, lambda: tuple(
        (J, functools.reduce(operator.mul, [ideal.sequence[j - 1] for j in J]) if J
         else ideal.sequence[0].ring.one())  # s == 0: the unit ideal
        for J in power_multi_indices(len(ideal), s)))


def multiples(ring: RingSpec, g: Element, monos, t: int) -> list:
    """g * m for each exponent tuple m in monos, as vectors in the degree-t
    monomial coordinates: one int over F2, bit i for monomial i, else a
    sparse dict.  The one place a multiplication map is formed.  g * m is
    formed on exponent tuples alone, which is exact: Element has normalized
    g's coefficients, and a monic monomial shifts exponents injectively, so
    no two terms merge and no coefficient changes."""
    index = ring._table(t)[1]
    if ring.coefficients.p == 2:  # every coefficient is 1: one pass per term
        out = [0] * len(monos)
        for e in g.terms:
            out = [x | 1 << index[tuple(map(operator.add, e, m))] for x, m in zip(out, monos)]
        return out
    terms = g.terms.items()
    return [{index[tuple(map(operator.add, e, m))]: v for e, v in terms} for m in monos]


class FreeModuleBasis:
    """The ring itself, degreewise: monomial bases and exact expansion,
    read off the ring's one table per degree."""

    def __init__(self, ring: RingSpec):
        self.ring = ring

    def dim(self, t: int) -> int:
        return len(self.ring._table(t)[0])

    def basis(self, t: int) -> tuple[tuple[int, ...], ...]:
        return self.ring._table(t)[0]

    def reduce(self, vecs: list, t: int) -> list:
        """Module coordinates of degree-t monomial-coordinate vectors: the
        monomials are this module's basis, so the vectors come back as given."""
        return vecs


class QuotientModule:
    """R/span(relations) degreewise, with monomial normal forms.

    Field coefficients only: each degree gets an echelon of the relation
    span; the non-pivot monomials are the chosen basis of the quotient.
    """

    def __init__(self, ring: RingSpec, relations: list[Element]):
        if not ring.coefficients.is_field:
            raise ValueError(
                "quotient normal forms need field coefficients; "
                "integer quotients are handled through lattice invariants"
            )
        self.ring = ring
        self.relations = tuple(relations)
        for g in self.relations:
            g.degree()  # raises if inhomogeneous
        self._cache: dict[int, tuple] = {}

    def _at(self, t: int):
        got = self._cache.get(t)
        if got is not None:
            return got
        monos = self.ring._table(t)[0]
        span = VectorSpan(self.ring.coefficients)
        for vec in _relation_multiples(self.ring, self.relations, t):
            span.insert(vec)
        basis_pos = [i for i in range(len(monos)) if i not in span.pivots]
        pos_of = {p: 1 << k if span._bits else k for k, p in enumerate(basis_pos)}  # F2: a bit
        got = self._cache[t] = (span, basis_pos, pos_of)
        return got

    def dim(self, t: int) -> int:
        return len(self._at(t)[1])

    def basis(self, t: int) -> list[tuple[int, ...]]:
        monos = self.ring._table(t)[0]
        return [monos[p] for p in self._at(t)[1]]

    def reduce(self, vecs: list, t: int) -> list:
        """Normal forms of degree-t monomial-coordinate vectors, in quotient
        coordinates and in the vectors' form (multiples)."""
        span, _, pos_of = self._at(t)
        if not span._bits:
            return [{pos_of[p]: v for p, v in span.reduce(vec).items()} for vec in vecs]
        out = []
        for x in vecs:  # each set bit of the normal form moves to its quotient bit
            x, y = span.reduce(x)[0], 0
            while x:
                y |= pos_of[(x & -x).bit_length() - 1]
                x &= x - 1
            out.append(y)
        return out

    def contains_span(self, other_relations: list[Element], t: int) -> bool:
        """Do the other relations' degree-t multiples land in this span?"""
        span = self._at(t)[0]
        return all(span.contains(vec)
                   for vec in _relation_multiples(self.ring, other_relations, t))


def quotient_by_power(ring: RingSpec, ideal: IdealSpec, s: int) -> QuotientModule:
    """R/I^s, one per (ring, s) on the ideal: every degree and caller shares
    its echelons."""
    return ideal._shared((ring, s), lambda: QuotientModule(
        ring, [g for _, g in power_generators(ideal, s)] if s > 0 else [ring.one()]))


def _relation_multiples(ring: RingSpec, relations, t: int):
    """The degree-t multiples g * m of each relation g, m running over the
    monomials of degree t - |g|, as vectors in the degree-t monomial coordinates."""
    for g in relations:
        yield from multiples(ring, g, ring._table(t - g.degree())[0], t)


def relation_matrix(ring: RingSpec, relations: list[Element], t: int) -> Matrix:
    """Columns are the degree-t multiples of the relations, in monomial coords."""
    return Matrix.of(monomial_count(ring, t), list(_relation_multiples(ring, relations, t)),
                     ring.coefficients)


class PowerQuotientInfo(Value):
    """Degree t of R/I^s (quotient) and of I^s/I^{s+1} (assoc), next to the
    free-over-R/I prediction for the latter.  Each is a dimension over a
    field, and over Z a (free rank, torsion factors) pair with the torsion
    in increasing order, so equal groups give equal values."""

    def __init__(self, s: int, t: int, quotient, assoc, predicted_assoc):
        self.s, self.t, self.quotient = s, t, quotient
        self.assoc, self.predicted_assoc = assoc, predicted_assoc

    def _key(self):
        return self.s, self.t, self.quotient, self.assoc, self.predicted_assoc

    @property
    def assoc_matches_prediction(self) -> bool:
        return self.assoc == self.predicted_assoc


def _merge_invariants(parts) -> tuple[int, tuple[int, ...]]:
    free = 0
    tors: list[int] = []
    for f, tt in parts:
        free += f
        tors.extend(tt)
    return free, tuple(sorted(tors))


def power_quotient_dimension(
    ring: RingSpec, ideal: IdealSpec, s: int, t: int
) -> PowerQuotientInfo:
    """Exact size of (R/I^s)_t plus the associated-graded cross-check
    (I^s/I^{s+1} free over R/I on the degree-s monomials in the sequence)."""
    if not ring.window.contains(t):
        raise WindowError(f"degree {t} outside window [{ring.window.t_min}, {ring.window.t_max}]")
    if s < 0:
        raise ValueError("power must be nonnegative")
    if ring.coefficients.is_field:
        q_s, q_s1, q_1 = (quotient_by_power(ring, ideal, k) for k in (s, s + 1, 1))
        dim_q = q_s.dim(t)
        assoc = q_s1.dim(t) - dim_q  # rank I^s_t - rank I^{s+1}_t
        predicted = sum(q_1.dim(t - sum(ideal.degrees[j - 1] for j in J))
                        for J in power_multi_indices(len(ideal), s))
        return PowerQuotientInfo(s, t, dim_q, assoc, predicted)
    # integer coefficients: quotient and associated graded via lattices
    gens_s = [g for _, g in power_generators(ideal, s)] if s > 0 else [ring.one()]
    rel_s = relation_matrix(ring, gens_s, t)
    rel_s1 = relation_matrix(ring, [g for _, g in power_generators(ideal, s + 1)], t)
    lat_s = IntegerLattice(rel_s)  # one SNF gives both the quotient and I^s/I^{s+1}
    inv_q = lat_s.cokernel_invariants()
    assoc_inv = lat_s.quotient_invariants(rel_s1) if rel_s.cols else (0, ())
    parts = []
    for J in power_multi_indices(len(ideal), s):
        td = t - sum(ideal.degrees[j - 1] for j in J)
        parts.append(ideal._shared((ring, "R/I", td), lambda: cokernel_invariants(
            relation_matrix(ring, ideal.sequence, td))))
    return PowerQuotientInfo(s, t, inv_q, assoc_inv, _merge_invariants(parts))


class RegularityFailure:
    def __init__(self, index: int, t: int, note: str):
        self.index = index  # 1-based position in the sequence
        self.t, self.note = t, note


class RegularityEntry:
    def __init__(self, index: int, degree: int, t_checked: tuple[int, int]):
        self.index, self.degree = index, degree
        self.t_checked = t_checked  # inclusive source-degree range


class RegularSequenceReport:
    def __init__(self, ring: str, entries: list[RegularityEntry],
                 failures: list[RegularityFailure], window_note: str):
        self.ring, self.entries, self.failures, self.window_note = (
            ring, entries, failures, window_note)

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self):
        lines = [f"regular-sequence check over {self.ring}: {'PASS' if self.ok else 'FAIL'}"]
        for e in self.entries:
            lines.append(
                f"  entry {e.index} (degree {e.degree}): multiplication checked for t in "
                f"[{e.t_checked[0]}, {e.t_checked[1]}]"
            )
        for f in self.failures:
            lines.append(f"  FAIL at entry {f.index}, t={f.t}: {f.note}")
        lines.append(self.window_note)
        return "\n".join(lines)


def check_regular_sequence(ring: RingSpec, ideal: IdealSpec) -> RegularSequenceReport:
    """Order-sensitive regularity: each entry must multiply injectively on the
    quotient by its predecessors, degreewise across the ring's window."""
    w = ring.window
    c = ring.coefficients
    entries: list[RegularityEntry] = []
    failures: list[RegularityFailure] = []
    for k, u in enumerate(ideal.sequence, start=1):
        prior = list(ideal.sequence[: k - 1])
        d = u.degree()
        t_lo, t_hi = w.t_min, w.t_max - d
        entries.append(RegularityEntry(k, d, (t_lo, t_hi)))
        if t_hi < t_lo:
            continue
        if c.is_field:
            q = QuotientModule(ring, prior)
            for t in range(t_lo, t_hi + 1):
                dim_src = q.dim(t)
                if dim_src == 0:
                    continue
                cols = q.reduce(multiples(ring, u, q.basis(t), t + d), t + d)
                rank = rank_over_field(Matrix.of(q.dim(t + d), cols, c), c)
                if rank != dim_src:
                    failures.append(
                        RegularityFailure(k, t, f"multiplication drops rank {dim_src} -> {rank}")
                    )
        else:
            for t in range(t_lo, t_hi + 1):
                fail = _integer_injectivity_failure(ring, prior, u, t)
                if fail is not None:
                    failures.append(RegularityFailure(k, t, fail))
    note = (
        f"certified only for internal degrees inside [{w.t_min}, {w.t_max}]"
        f" (each entry checked on its shifted subrange)"
    )
    return RegularSequenceReport(str(ring), entries, failures, note)


def _integer_injectivity_failure(ring: RingSpec, prior: list[Element], u: Element, t: int) -> str | None:
    """Is multiplication by u injective on (R/(prior))_t over Z?  None if so."""
    n = monomial_count(ring, t)
    if not n:
        return None
    rel_src = relation_matrix(ring, prior, t)
    # x gives a kernel class iff u*x lies in the target relation lattice but
    # x is outside the source one: ker[u * monomials | -(prior multiples)].
    combined = relation_matrix(ring, [u] + [g.scaled(-1) for g in prior], t + u.degree())
    src_lattice = IntegerLattice(rel_src) if rel_src.cols else None
    for vec in integer_kernel_basis(combined):
        x = {i: v for i, v in vec.items() if i < n}
        if not x:
            continue
        if src_lattice is None or not src_lattice.contains(x):
            return "integer kernel class survives modulo prior entries"
    return None
