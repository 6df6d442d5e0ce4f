"""Cobar complexes of exterior coalgebras and their polynomial cohomology.

An exterior coalgebra on odd-degree primitive generators over an evenly
graded base has a completely computable cohomology: a polynomial algebra
with one class per generator, sitting one cohomological filtration step up.
This module builds the reduced cobar complex (tensor words in the
augmentation coideal), takes its cohomology by brute force over a degree
window, and checks the result against that closed form.  The brute force is
a minimal free resolution over the dual exterior algebra, whose product is
the transpose of the cobar differential on one letter; over Z it is built
on integer vectors and audited by Smith normal form, which sees any torsion.
A collapse audit then confirms that no differential of the Adams bidegree
pattern can be nonzero on the resulting table, which is the checkable
content of "the spectral sequence degenerates for parity reasons".
"""
from __future__ import annotations

from functools import cached_property

from .complexes import (
    COHOMOLOGICAL,
    HOMOLOGICAL,
    BasisLabel,
    BigradedComplex,
    FreeComplex,
    HomologyEntry,
    OracleMismatchError,
    UNIT_LABEL,
    homology_ranks,
)
from .linalg import Matrix, _ones, span_and_kernel
from .rings import DegreeWindow, InputError, RingSpec, Value, monomial_count


class HopfSpec(Value):
    """An exterior coalgebra on primitive generators over a graded base ring.

    primitives is a tuple of (name, internal degree) pairs; every degree must
    be odd and positive, so generators anticommute, square to zero, and force
    the parity pattern t = s (mod 2) on the cohomology table.  The base may
    be any RingSpec; chain-level work additionally requires it to have no
    inverted generator.
    """

    def __init__(self, base: RingSpec, primitives: tuple[tuple[str, int], ...] = ()):
        names = [n for n, _ in primitives]
        if len(set(names)) != len(names):
            raise InputError("primitive names must be distinct")
        for name, d in primitives:
            if d <= 0 or d % 2 == 0:
                raise InputError(
                    f"primitive {name} has degree {d}; positive odd required")
        self.base, self.primitives = base, primitives

    def _key(self):
        return self.base, self.primitives

    # computed once, as in RingSpec: cached_property writes the instance
    # __dict__ directly, and _key leaves it out
    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.primitives)

    def __str__(self):
        prims = ", ".join(f"{n}:{d}" for n, d in self.primitives)
        return f"exterior coalgebra({prims}) over {self.base}"


def _cobar_letters(h: HopfSpec, t_max: int):
    """(letter -> degree, letter -> splittings) for the letters of degree at
    most t_max, the one definition of the coalgebra.  A letter, a basis
    element of the augmentation coideal, is a nonempty product of primitives
    written as a strictly increasing tuple of 1-based primitive indices;
    letters come shortest first, then in lexicographic order.  A splitting is
    a (P, Q) pair with the unit of its unshuffle sign times (-1)^(1 + |P|)
    and the negated unit; the prefix sign picks one of the two per position.
    """
    degs = h.degrees
    ldeg: dict[tuple[int, ...], int] = {}
    level = [((), 0)]
    while level:  # the letters one index longer than those of the last round
        level = [(L + (i,), d + degs[i - 1]) for L, d in level
                 for i in range(L[-1] + 1 if L else 1, len(degs) + 1)
                 if d + degs[i - 1] <= t_max]
        ldeg.update(level)
    units = {1: h.base.constant(1), -1: h.base.constant(-1)}
    splits = {L: [] for L in ldeg}
    for L in ldeg:
        for mask in range(1, (1 << len(L)) - 1):
            p = tuple(x for b, x in enumerate(L) if mask >> b & 1)
            q = tuple(x for b, x in enumerate(L) if not mask >> b & 1)
            sign = _unshuffle_sign(p, q) * (-1) ** (1 + ldeg[p])
            splits[L].append(((p, q), units[sign], units[-sign]))
    return ldeg, splits


def _unshuffle_sign(p: tuple[int, ...], q: tuple[int, ...]) -> int:
    """Sign of sorting the concatenation (p, q) back into increasing order;
    all entries are indices of odd-degree generators, so every transposition
    counts.

    >>> _unshuffle_sign((1,), (2,)), _unshuffle_sign((2,), (1,))
    (1, -1)
    >>> _unshuffle_sign((1, 3), (2,))
    -1
    """
    inv = 0
    for a in p:
        inv += sum(1 for b in q if b < a)
    return -1 if inv % 2 else 1


def cobar_free(h: HopfSpec, w: DegreeWindow) -> FreeComplex:
    """Reduced cobar complex as a free complex over the base ring.

    Generators at cohomological level s are the words of s coideal letters
    of internal degree at most t_max: every word of level s - 1 extended by
    one letter, in letter order.  Degree-zero letters do not exist, so the
    cut loses nothing at or below t_max.  Levels run one step past w.s_max,
    so that cohomology through s_max is certain; no level through there is
    empty unless even the cheapest word of length s_max + 2 overflows the
    window, and then the complex is marked complete and every entry is
    certain.

    The differential splits one letter into two by the reduced coproduct:

        d[g_1|...|g_k] = sum over positions i and splittings g_i = P*Q of
            (-1)^(1 + sum_{j<i}(|g_j|+1) + inversions(P,Q) + |P|)
            [g_1|...|P|Q|...|g_k].

    The sign is the standard one for a tensor algebra on a shift: a Koszul
    prefix over the shifted degrees |g_j| + 1, the unshuffle sign of pulling
    P out of g_i, and |P| for carrying the shift past P.  It squares to zero
    by coassociativity; the BigradedComplex that realize returns re-proves
    that on every window as a guard against drift.
    """
    if h.base.inverted is not None:
        raise InputError(
            "chain-level cobar needs a non-localized base; rings with an "
            "inverted generator are served by closed-form tables only")
    ldeg, splits = _cobar_letters(h, w.t_max)
    s_build = w.s_max + 1
    complete = (not h.primitives) or (s_build + 1) * min(h.degrees) > w.t_max
    fc = FreeComplex(h.base, COHOMOLOGICAL, complete_above=complete)
    ids = {}  # word -> generator id
    level = [((), 0)] if w.t_max >= 0 else []  # (word, degree) at level s
    for s in range(s_build + 1):
        if s:
            level = [(word + (L,), d + e) for word, d in level
                     for L, e in ldeg.items() if d + e <= w.t_max]
        if level:
            words, degs = zip(*level)
            labels = [BasisLabel(word=word) for word in words] if s else [UNIT_LABEL]
            ids.update(zip(words, fc.add_generators(labels, s, degs)))
    for word, gid in ids.items():
        if len(word) + 1 > s_build:
            break  # top guard level: targets were not built
        terms, flip = [], False  # flip: (-1)^(sum_{j<i} (|g_j| + 1)) is -1
        for i, letter in enumerate(word):
            head, tail = word[:i], word[i + 1:]
            for pq, plus, minus in splits[letter]:
                terms.append((minus if flip else plus, ids[head + pq + tail]))
            if ldeg[letter] % 2 == 0:
                flip = not flip
        fc.set_diff(gid, terms)
    return fc


def cobar_complex(h: HopfSpec, w: DegreeWindow) -> BigradedComplex:
    """Realize the reduced cobar complex over the window (cohomological)."""
    return cobar_free(h, w).realize(w)


def _resolution_table(h: HopfSpec, w: DegreeWindow) -> dict[tuple[int, int], HomologyEntry]:
    """Cotor over the ground ring k from a minimal free resolution of k over
    the dual exterior algebra A (Bruner, "Calculation of large Ext modules",
    1989; Priddy, "Koszul resolutions", 1970).  Ext^{s,d} counts the level-s
    generators of degree d; over the base it is weighted by
    monomial_count(base, t - d), since cobar coefficients are constants and
    the cobar complex over the base is the one over k tensored with it.

    A's product is the transpose of the cobar differential on one letter, the
    reduced coproduct: e_P e_Q = c (-1)^(1 + |P|) e_L where [P|Q] occurs in
    d[L] with coefficient c, which makes the sign that of sorting P + Q.
    Flattened to one generator (g, J) per A-generator g and monomial e_J,
    with d(e_J g) = e_J d(g), each column of d is formed once, with g.
    Levels are built through s_max + 1, one internal degree at a time, with
    one span per (s, t) (span_and_kernel): its columns go in with their
    tags, giving the kernel that level s + 1 lifts, and each kernel vector
    of (s - 1, t) that enlarges it is a new generator's boundary, whose
    column, adjoined, adds nothing to that kernel.  Over Z the span is
    fraction free, so each boundary is a primitive integer vector, the
    rational one times a positive factor.  The columns make a
    BigradedComplex over k, which audits d after d; its homology must be k
    at (0, 0) alone, with no torsion over Z, and no d(g) may have a term
    with J empty (minimality).  Exact over Z and minimal, it proves Ext
    over Z free on the generators.
    """
    t_max, k = max(w.t_max, 0), h.base.coefficients
    d1 = cobar_free(h, DegreeWindow(0, t_max, 1))
    monos = [((), 0)] + [(d1.labels[g].word[0], d1.internal[g]) for g in d1.levels.get(1, ())]
    prod = {((), K): (k.one, K) for K, _ in monos}  # (J, K) -> (sign, L): e_J e_K = sign e_L
    for gid in d1.levels.get(1, ()):
        for c, tgt in d1.diff[gid]:  # |P| is len(P) mod 2: every primitive is odd
            (P, Q), (sign,) = d1.labels[tgt].word, c.terms.values()
            prod[(P, Q)] = (sign if len(P) % 2 else k.neg(sign), d1.labels[gid].word[0])
    packed = k.p == 2  # vectors are ints over F2 (Matrix.of)
    # (s, t) -> basis entries ((g, J), ()), g the flat index of e_() g, as
    # realize lays them out; (g, J) -> its row, a bit over F2; (s, t) ->
    # columns of d, one per entry; (s, d) -> count
    basis, flat, cols, ext = {}, {}, {}, {}

    def add_generator(s, t, boundary):  # boundary: (scalar, label at (s - 1, t)) pairs
        if any(K == () for _, (_, K) in boundary):
            raise OracleMismatchError(
                "minimal resolution has a boundary term with a unit coefficient",
                {"kind": "resolution-minimality", "s": s, "t": t})
        ext[(s, t)] = ext.get((s, t), 0) + 1
        g = len(flat)
        for J, dj in monos:
            if t + dj <= t_max:
                here = basis.setdefault((s, t + dj), [])
                flat[(g, J)] = 1 << len(here) if packed else len(here)
                here.append(((g, J), ()))
                col = {}
                for a, (g2, K) in boundary:
                    sign, L = prod.get((J, K), (0, None))
                    if (x := flat.get((g2, L))) is not None:
                        col[x] = k.normalize(a * sign)
                cols.setdefault((s, t + dj), []).append(sum(col) if packed else col)

    add_generator(0, 0, [])
    kernels = {}  # (s, t) -> kernel of d there, until level s + 1 lifts it
    for s in range(w.s_max + 2):
        for t in range(t_max + 1):
            span, kernel = span_and_kernel(cols.get((s, t), []), k)
            if (s or t) and s <= w.s_max:  # d from (0, 0), the augmentation, is injective
                kernels[(s, t)] = kernel
            below = basis.get((s - 1, t))
            for v in kernels.pop((s - 1, t), ()):
                if span.insert(v, len(cols.get((s, t), ()))):
                    entries = [(i, 1) for i in _ones(v)] if packed else v.items()
                    add_generator(s, t, [(a, below[i][0]) for i, a in entries])
    cx = BigradedComplex(k, HOMOLOGICAL, basis,
                         {(s, t): Matrix.of(len(basis.get((s - 1, t), ())), c, k)
                          for (s, t), c in cols.items()},
                         DegreeWindow(0, t_max, w.s_max + 1), list(range(w.s_max + 2)),
                         complete_above=False)
    for (s, t), entry in homology_ranks(cx).items():
        if s <= w.s_max and (entry.rank != int((s, t) == (0, 0)) or entry.torsion
                             or not entry.certain):
            raise OracleMismatchError(
                "minimal resolution is not exact below its top level",
                {"kind": "resolution", "s": s, "t": t, "rank": entry.rank,
                 "torsion": list(entry.torsion)})
    table = {}
    for (s, d), n in ext.items():
        if s <= w.s_max:  # level s_max + 1 only proves exactness at s_max
            for t in w.degrees():
                table[(s, t)] = table.get((s, t), 0) + n * monomial_count(h.base, t - d)
    return {key: HomologyEntry(n) for key, n in table.items()}


def closed_form_ranks(h: HopfSpec, w: DegreeWindow) -> dict[tuple[int, int], int]:
    """Rank table of the polynomial algebra over the base with one generator
    of bidegree (1, d) per primitive of degree d.

    rank(s, t) is the number of degree-s monomials in those generators,
    weighted by the base dimension in the leftover internal degree; this is
    the coefficient of y^s q^t in the product of 1/(1 - y q^d) over the
    primitive degrees times the base Hilbert series.  A row s is left out
    when s times the least primitive degree exceeds t_max - min(0, t_min),
    the truncation the window puts on a localized base.
    """
    degs = h.degrees
    rows = [s for s in range(w.s_max + 1)
            if not s or (degs and s * min(degs) <= w.t_max - min(0, w.t_min))]
    top = rows[-1] * max(degs, default=0)
    # counts[s][d]: coefficient of y^s q^d, one factor 1/(1 - y q^e) at a time
    counts = [[0] * (top + 1) for _ in rows]
    counts[0][0] = 1
    for e in degs:
        for s in rows[1:]:
            for d in range(e, top + 1):
                counts[s][d] += counts[s - 1][d - e]
    out: dict[tuple[int, int], int] = {}
    for s in rows:
        for d, n in enumerate(counts[s]):
            if n:
                for t in w.degrees():
                    if got := monomial_count(h.base, t - d):
                        out[(s, t)] = out.get((s, t), 0) + n * got
    return out


class CotorReport:
    """Brute-force cobar cohomology next to its polynomial closed form.

    Both tables cover s = 0..s_max and the window's internal degrees; every
    brute entry is certain, since the minimal resolution is built one level
    past s_max.  A disagreement never reaches the report: cotor_ranks raises
    instead.
    """

    def __init__(self, hopf_desc: str, table: dict[tuple[int, int], HomologyEntry],
                 closed: dict[tuple[int, int], int]):
        self.hopf_desc, self.table, self.closed = hopf_desc, table, closed

    def __str__(self):
        lines = [f"cobar cohomology of {self.hopf_desc}",
                 # the resolution's BigradedComplex raises on d.d != 0
                 "differential check: PASS (d after d vanishes everywhere in window)",
                 f"nonzero bidegrees: {len(self.table)}, "
                 f"matching the closed form at every (s, t)"]
        return "\n".join(lines)


def cotor_ranks(h: HopfSpec, w: DegreeWindow) -> CotorReport:
    """Cohomology of the cobar complex, checked against the closed form.

    It is read off a minimal resolution (_resolution_table) over every
    coefficient ring, which raises DifferentialSquareError or
    OracleMismatchError if its own audits fail.  OracleMismatchError is
    raised on the first bidegree where the resolution's ranks and the
    polynomial count disagree.
    """
    raw = _resolution_table(h, w)
    closed = closed_form_ranks(h, w)
    table: dict[tuple[int, int], HomologyEntry] = {}
    for (s, t), entry in sorted(raw.items()):
        want = closed.get((s, t), 0)
        if entry.rank != want or entry.torsion:
            raise OracleMismatchError(
                "cobar cohomology disagrees with the polynomial closed form",
                {"kind": "cotor", "s": s, "t": t, "brute": entry.rank,
                 "torsion": entry.torsion, "closed": want})
        if entry.rank:
            table[(s, t)] = entry
    for (s, t), want in sorted(closed.items()):
        if (s, t) not in table and want:
            raise OracleMismatchError(
                "closed form predicts a class the cobar complex lacks",
                {"kind": "cotor", "s": s, "t": t, "brute": 0, "closed": want})
    return CotorReport(str(h), table, closed)


def _class_name(primitive_name: str) -> str:
    """Polynomial class names mirror the primitive names: a leading 't' with
    a nonempty remainder is replaced by 'U', anything else is prefixed."""
    if primitive_name.startswith("t") and len(primitive_name) > 1:
        return "U" + primitive_name[1:]
    return "U_" + primitive_name


class CollapseVerdict:
    """Outcome of the collapse audit of a rank table: candidates are the
    (r, source, target) of the differentials that could be nonzero."""

    def __init__(self, ok: bool, message: str, candidates: tuple, pairs_checked: int):
        self.ok, self.message, self.candidates = ok, message, candidates
        self.pairs_checked = pairs_checked

    def __str__(self):
        if self.ok:
            return self.message
        lines = [self.message]
        for r, src, tgt in self.candidates:
            lines.append(f"  d_{r}: {src} -> {tgt} (both nonzero)")
        return "\n".join(lines)


class E2Presentation:
    """Polynomial description of a second page: generators and table.

    generators are (name, (1, degree)) pairs; the table is the closed-form
    rank count over the window.  dual_operations records the dual
    presentation (a completed exterior algebra on anticommuting operations
    raising internal degree, one per generator) as documentation only.
    """

    def __init__(self, base_desc: str, generators: tuple[tuple[str, tuple[int, int]], ...],
                 table: dict[tuple[int, int], int], window: DegreeWindow,
                 collapse: CollapseVerdict | None = None,
                 dual_operations: tuple[tuple[str, int], ...] = (), dual_note: str = "",
                 notes: tuple[str, ...] = ()):
        self.base_desc, self.generators, self.table, self.window = (
            base_desc, generators, table, window)
        self.collapse, self.dual_operations, self.dual_note, self.notes = (
            collapse, dual_operations, dual_note, notes)

    def __str__(self):
        gens = ", ".join(f"{name} at ({s},{t})" for name, (s, t) in self.generators)
        lines = [f"polynomial E2 presentation over {self.base_desc}",
                 f"  polynomial generators: {gens if gens else '(none)'}"]
        if self.collapse is not None:
            lines.append(f"  collapse audit (adams pattern, "
                         f"{self.collapse.pairs_checked} pairs checked): "
                         f"{self.collapse.message}")
        if self.dual_operations:
            duals = ", ".join(f"{name} in degree {d}" for name, d in self.dual_operations)
            lines.append(f"  dual operations: {duals}")
            lines.append(f"  {self.dual_note}")
        lines.extend(f"  note: {note}" for note in self.notes)
        lines.append("  nonzero bidegrees in window: "
                     f"{sum(1 for v in self.table.values() if v)}")
        return "\n".join(lines)


def e2_closed_form(h: HopfSpec, w: DegreeWindow) -> E2Presentation:
    """Closed-form second page for an exterior coalgebra on primitives: a
    polynomial algebra over the base on one class per primitive, each at
    bidegree (1, primitive degree); the dual presentation is recorded as
    documentation fields."""
    table = closed_form_ranks(h, w)
    gens = tuple((_class_name(n), (1, d)) for n, d in h.primitives)
    duals = tuple((_class_name(n).replace("U", "Q", 1), d)
                  for n, d in h.primitives)
    note = ("dual presentation: a completed exterior algebra on "
            "anticommuting operations, one per polynomial class, raising "
            "internal degree by that class's degree")
    return E2Presentation(
        base_desc=str(h.base),
        generators=gens,
        table=table,
        window=w,
        dual_operations=duals,
        dual_note=note,
    )


def collapse_audit(p: E2Presentation) -> CollapseVerdict:
    """Check that every Adams differential d_r: (s, t) -> (s + r, t + r - 1)
    with window-interior source and target has a zero target, for all page
    numbers r >= 2.

    Sources are the nonzero table entries; a candidate is recorded whenever
    the target bidegree is inside the window and also nonzero.  Targets
    outside the window are not auditable and are skipped, which is why the
    passing verdict says "within window".
    """
    w = p.window
    sources = sorted(k for k, v in p.table.items() if v)
    candidates = []
    checked = 0
    for s, t in sources:
        for r in range(2, min(w.s_max - s, w.t_max - t + 1) + 1):
            ts, tt = s + r, t + r - 1
            if tt >= w.t_min:
                checked += 1
                if p.table.get((ts, tt), 0):
                    candidates.append((r, (s, t), (ts, tt)))
    ok = not candidates
    message = ("collapses at E_2 within window" if ok
               else f"{len(candidates)} candidate differentials within window")
    return CollapseVerdict(ok, message, tuple(candidates), checked)


def parity_violations(table: dict[tuple[int, int], int]) -> list[tuple[int, int]]:
    """Bidegrees with a nonzero entry where t and s disagree mod 2; empty for
    any table arising from an even base with odd generator degrees.

    >>> parity_violations({(0, 0): 1, (1, 3): 1, (1, 2): 1, (2, 5): 0})
    [(1, 2)]
    """
    return sorted((s, t) for (s, t), v in table.items() if v and (t - s) % 2)
