"""Bigraded chain complexes with exact differentials.

Two layers: a FreeComplex is a complex of free graded modules described by
integer generator ids and an element-valued differential; realizing it over a
degree window (optionally through a quotient module) produces a
BigradedComplex, the flat object everything downstream consumes: ordered
labelled bases per bidegree (s, t) and one exact matrix per bidegree.  A
BigradedComplex audits d after d when it is built, whoever builds it.

Differentials preserve the internal degree t, so each t-column of the window
is self-contained; the only edge uncertainty lives in the homological
direction, and homology_ranks marks it instead of guessing.
"""
from __future__ import annotations

from .linalg import (
    Coefficients,
    Matrix,
    VectorSpan,
    kernel_basis,
    rank_over_field,
    rational_rank,
    smith_normal_form,
)
from .rings import DegreeWindow, Element, FreeModuleBasis, RingSpec, Value, multiples

HOMOLOGICAL = "homological"  # differential lowers s
COHOMOLOGICAL = "cohomological"  # differential raises s


class OracleMismatchError(Exception):
    """A brute-force computation disagreed with its closed form.

    This is a hard failure: one of the two pipelines is wrong, so no table
    is returned.  The witness dict locates the first disagreement.
    """

    def __init__(self, message: str, witness: dict):
        super().__init__(message)
        self.witness = witness

    def __reduce__(self):  # the default rebuilds from args, losing the witness
        return type(self), (str(self), self.witness)


class DifferentialSquareError(Exception):
    """d after d failed to vanish on a freshly built complex."""

    def __init__(self, report: "DifferentialReport"):
        super().__init__(str(report))
        self.report = report


class BasisLabel(Value):
    """A module generator: exterior part, power multi-index part, cobar word.

    e_part is strictly increasing, u_part weakly increasing (both 1-based
    generator indices); word is a tuple of letters, each letter a strictly
    increasing tuple of primitive indices.
    """

    def __init__(self, e_part: tuple[int, ...] = (), u_part: tuple[int, ...] = (),
                 word: tuple[tuple[int, ...], ...] = ()):
        # cobar words carry empty parts: nothing to scan
        if e_part and any(a >= b for a, b in zip(e_part, e_part[1:])):
            raise ValueError(f"exterior part {e_part} must be strictly increasing")
        if u_part and any(a > b for a, b in zip(u_part, u_part[1:])):
            raise ValueError(f"power multi-index {u_part} must be weakly increasing")
        self.e_part, self.u_part, self.word = e_part, u_part, word

    def _key(self):
        return self.e_part, self.u_part, self.word

    def __str__(self):
        bits = []
        if self.e_part:
            bits.append("e(" + ",".join(map(str, self.e_part)) + ")")
        if self.u_part:
            bits.append("u~(" + ",".join(map(str, self.u_part)) + ")")
        if self.word:
            bits.append("[" + "|".join("t(" + ",".join(map(str, l)) + ")" for l in self.word) + "]")
        return "*".join(bits) if bits else "1"


UNIT_LABEL = BasisLabel()


class FreeComplex:
    """Free graded complex: generators with degrees, differential by generator id.

    add_generator returns the new generator's id, its insertion index.
    levels[s] lists the ids at homological level s in insertion order;
    labels[i] (for printing and witnesses only, never hashed here),
    internal[i] and diff[i] describe generator i.  diff[i] lists (coefficient
    Element, target id) pairs one homological step along `direction`.
    complete_above means the listed levels are all there are (nothing was
    cut by the window).
    """

    def __init__(self, ring: RingSpec, direction: str = HOMOLOGICAL,
                 complete_above: bool = True):
        self.ring = ring
        self.direction = direction
        self.complete_above = complete_above
        self.levels: dict[int, list[int]] = {}
        self.labels: list = []
        self.internal: list[int] = []
        self.diff: list[list[tuple[Element, int]]] = []

    def add_generator(self, label, hom: int, internal: int) -> int:
        return self.add_generators([label], hom, [internal])[0]

    def add_generators(self, labels, hom: int, internals) -> list[int]:
        """add_generator for each (label, internal degree) pair in turn;
        returns the new ids, the very int objects levels holds."""
        new = list(range(len(self.labels), len(self.labels) + len(internals)))
        self.labels += labels
        self.internal += internals
        self.diff += [[] for _ in new]
        self.levels.setdefault(hom, []).extend(new)
        return new

    def set_diff(self, source: int, terms: list[tuple[Element, int]]):
        """Stored as given: realize turns a zero coefficient into empty columns."""
        self.diff[source] = terms

    def hom_degrees(self) -> list[int]:
        return sorted(self.levels)

    def generator_count(self) -> int:
        return len(self.labels)

    def realize(self, window: DegreeWindow | None = None, module=None) -> "BigradedComplex":
        """Flatten to based matrices per bidegree over the window.

        module defaults to the free module on the ring's monomials; pass a
        QuotientModule to realize the complex tensored with that quotient.
        The basis at (s, t) lists, in insertion order, the level-s generators
        whose module degree t - internal is nonzero, each followed by that
        degree's module basis; boundary_block and every witness rely on this
        order.  Each multiplication map (coefficient, source degree, target
        degree) is formed once by rings.multiples, goes through mod.reduce
        once and is shared by all columns.  Each module degree's basis is
        read once per (s, t).  Entries are normalized and nonzero (Element
        normalizes, and both reduce methods drop zeros), so an entry is
        stored as given and normalized only where two terms land on the same
        row.  Over F2 multiples and reduce give each table as ints, and each
        column is one int, the XOR of table[k] << row over its terms: the
        matrix is packed (Matrix.bits), and the audit's compose and the field
        rank read it as stored.  A bidegree whose target level s + step has
        no basis at t gets a 0-row matrix without visiting its generators,
        and the audit's compose and the field rank return at once on it.  d
        after d is checked by the BigradedComplex returned, when it is built.
        """
        w = window or self.ring.window
        mod = module or FreeModuleBasis(self.ring)
        normalize = self.ring.coefficients.normalize
        packed = self.ring.coefficients.p == 2
        step = -1 if self.direction == HOMOLOGICAL else 1
        labels, internal = self.labels, self.internal
        basis: dict[tuple[int, int], list] = {}
        offsets: dict[tuple[int, int], dict[int, int]] = {}  # (s,t) -> id -> row
        module_bases: dict[tuple[int, int], dict] = {}  # (s,t) -> internal -> mod basis
        for s in self.hom_degrees():
            buckets: dict[int, list[int]] = {}
            for gid in self.levels[s]:
                buckets.setdefault(internal[gid], []).append(gid)
            for t in w.degrees():
                bases = {d: monos for d in buckets if (monos := mod.basis(t - d))}
                ids = sorted(gid for d in bases for gid in buckets[d])
                if ids:
                    entries: list = []
                    offs = offsets[(s, t)] = {}
                    for gid in ids:
                        offs[gid] = len(entries)
                        entries.extend([(labels[gid], m) for m in bases[internal[gid]]])
                    basis[(s, t)] = entries
                    module_bases[(s, t)] = bases
        tables: dict[tuple[int, int, int], list] = {}
        diff: dict[tuple[int, int], Matrix] = {}
        for (s, t), entries in basis.items():
            tgt_offs = offsets.get((s + step, t))
            if tgt_offs is None:  # nothing at level s + step: no generator to visit
                diff[(s, t)] = Matrix(0, len(entries))
                continue
            bases = module_bases[(s, t)]
            columns: list = []  # appended in basis order: dicts, or ints if packed
            for gid in offsets[(s, t)]:
                d = t - internal[gid]
                monos = bases[internal[gid]]
                plan = []
                for c, tgt in self.diff[gid]:
                    row = tgt_offs.get(tgt)
                    if row is None:
                        continue  # target slot empty at this t
                    key = (id(c), d, t - internal[tgt])  # builders share coefficients
                    if key not in tables:
                        tables[key] = mod.reduce(multiples(self.ring, c, monos, key[2]), key[2])
                    plan.append((row, tables[key]))
                if packed:  # a run of columns at once, each the XOR of its table[k] << row
                    run = [0] * len(monos)
                    for row, table in plan:
                        run = [x ^ y << row for x, y in zip(run, table)]
                    columns += run
                    continue
                for k in range(len(monos)):
                    col: dict[int, object] = {}  # row -> entry; zeros leave, as in Matrix.set
                    for row, table in plan:
                        for pos, v in table[k].items():
                            r = row + pos
                            if r not in col:
                                col[r] = v
                            elif x := normalize(col[r] + v):
                                col[r] = x
                            else:
                                del col[r]
                    columns.append(col)
            diff[(s, t)] = Matrix.of(len(basis.get((s + step, t), ())), columns,
                                     self.ring.coefficients)
        del tables, offsets, module_bases  # not needed by the audit; freed to keep its peak memory
        return BigradedComplex(self.ring.coefficients, self.direction, basis, diff, w,
                               self.hom_degrees(), self.complete_above)


class DifferentialViolation:
    def __init__(self, s: int, t: int, kind: str, detail: str):
        self.s, self.t, self.detail = s, t, detail
        self.kind = kind  # "square" | "shape"


class DifferentialReport:
    def __init__(self, ok: bool, violations: list[DifferentialViolation]):
        self.ok, self.violations = ok, violations

    def __str__(self):
        if self.ok:
            return "differential check: PASS (d after d vanishes everywhere in window)"
        lines = ["differential check: FAIL"]
        for v in self.violations:
            lines.append(f"  ({v.s},{v.t}) {v.kind}: {v.detail}")
        return "\n".join(lines)


class HomologyEntry(Value):
    def __init__(self, rank: int, torsion: tuple[int, ...] = (), certain: bool = True):
        self.rank, self.torsion, self.certain = rank, torsion, certain

    def _key(self):
        return self.rank, self.torsion, self.certain


class BigradedComplex:
    """Realized bigraded complex: ordered bases and exact matrices per (s,t).
    Building one runs verify_differential: a failing report raises
    DifferentialSquareError, a passing one is kept as `differential`."""

    def __init__(self, coefficients: Coefficients, direction: str, basis: dict,
                 diff: dict, window: DegreeWindow, s_levels: list[int],
                 complete_above: bool = True):
        self.coefficients = coefficients
        self.direction = direction
        self.basis = basis
        self.diff = diff
        self.window = window
        self.s_levels = s_levels
        self.complete_above = complete_above
        self.differential = verify_differential(self)
        if not self.differential.ok:
            raise DifferentialSquareError(self.differential)

    @property
    def step(self) -> int:
        return -1 if self.direction == HOMOLOGICAL else 1

    def dim(self, s: int, t: int) -> int:
        return len(self.basis.get((s, t), ()))

    def matrix(self, s: int, t: int) -> Matrix:
        got = self.diff.get((s, t))
        if got is not None:
            return got
        return Matrix(self.dim(s + self.step, t), self.dim(s, t))

    def bidegrees(self) -> list[tuple[int, int]]:
        return sorted(self.basis)

    @property
    def s_max_built(self) -> int:
        return max(self.s_levels) if self.s_levels else 0

    def level_known(self, s: int) -> bool:
        """Is the chain module at homological level s fully described?  Levels
        below the built range and gaps between built levels are zero."""
        if not self.s_levels or s > self.s_max_built:
            return self.complete_above
        return True


def verify_differential(c: BigradedComplex) -> DifferentialReport:
    """Check shapes and d after d = 0 on every window bidegree; violations are
    reported with located witnesses, never thrown."""
    violations: list[DifferentialViolation] = []
    for (s, t) in c.bidegrees():
        m = c.matrix(s, t)
        if m.cols != c.dim(s, t) or m.rows != c.dim(s + c.step, t):
            violations.append(
                DifferentialViolation(
                    s, t, "shape",
                    f"matrix is {m.rows}x{m.cols}, bases are "
                    f"{c.dim(s + c.step, t)}x{c.dim(s, t)}",
                )
            )
            continue
        m2 = c.matrix(s + c.step, t)
        if m2.cols != m.rows:
            continue  # shape fault reported at the neighbour
        prod = m2.compose(m, c.coefficients)
        if not prod.is_zero():
            # the lowest row, then the lowest column, whatever the storage order
            (i, j), v = min(((i, j), v) for j, col in enumerate(prod.columns)
                            for i, v in col.items())
            label, mono = c.basis[(s, t)][j]
            violations.append(
                DifferentialViolation(
                    s, t, "square",
                    f"d(d({label}|{mono})) has entry {v} at target row {i}",
                )
            )
    return DifferentialReport(not violations, violations)


def homology_ranks(c: BigradedComplex, window: DegreeWindow | None = None
                   ) -> dict[tuple[int, int], HomologyEntry]:
    """Homology sizes per bidegree: rank over fields, rank plus torsion over Z.

    Each differential is reduced once (_reduce_differential) and its result
    shared by the two bidegrees it touches: it leaves one and arrives at the
    other.  A bidegree is certain only when both neighbouring levels are
    fully described (inside the built range, or structurally zero beyond
    it); edge bidegrees get certain=False rather than a silent wrong answer.
    """
    w = window or c.window
    reduced: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}
    out = {}
    for s, t in c.bidegrees():
        if not w.t_min <= t <= w.t_max:
            continue
        for pos in ((s, t), (s - c.step, t)):
            if pos not in reduced:
                reduced[pos] = _reduce_differential(c.matrix(*pos), c.coefficients)
        rank_out, _ = reduced[(s, t)]  # leaves (s,t)
        rank_in, torsion = reduced[(s - c.step, t)]  # arrives at (s,t)
        certain = c.level_known(s + c.step) and c.level_known(s - c.step)
        out[(s, t)] = HomologyEntry(c.dim(s, t) - rank_out - rank_in, torsion, certain)
    return out


def _reduce_differential(m: Matrix, coeffs: Coefficients) -> tuple[int, tuple[int, ...]]:
    """(rank, torsion factors > 1 of its Smith normal form) of one matrix;
    over a field the torsion is empty.  Over Z two checks by elimination
    that shares no code with SNF: the rank over Q must equal the number of
    invariant factors, and for p = 2, 3 the rank over F_p must equal the
    number of invariant factors that p does not divide (universal
    coefficients)."""
    if coeffs.is_field:
        return rank_over_field(m, coeffs), ()
    rank = rational_rank(m)
    invariants = smith_normal_form(m)
    if rank != len(invariants):
        raise OracleMismatchError(
            f"Smith normal form of a {m.rows}x{m.cols} differential has "
            f"{len(invariants)} invariant factors, but its rank over Q is {rank}",
            {"kind": "snf-rank", "rows": m.rows, "cols": m.cols,
             "rational_rank": rank, "invariant_factors": list(invariants)})
    for p in (2, 3):
        rank_p = rank_over_field(m, Coefficients.prime_field(p))
        prime_to_p = sum(1 for v in invariants if v % p)
        if rank_p != prime_to_p:
            raise OracleMismatchError(
                f"Smith normal form of a {m.rows}x{m.cols} differential has "
                f"{prime_to_p} invariant factors prime to {p}, but its rank "
                f"over F{p} is {rank_p}",
                {"kind": "snf-mod-p", "p": p, "rows": m.rows, "cols": m.cols,
                 "rank_mod_p": rank_p, "invariant_factors": list(invariants)})
    return rank, tuple(v for v in invariants if v > 1)


def nonzero_table(entries: dict[tuple[int, int], HomologyEntry]) -> dict[tuple[int, int], HomologyEntry]:
    return {k: v for k, v in entries.items() if v.rank or v.torsion}


class TensorLabel(Value):
    def __init__(self, left, right):
        self.left, self.right = left, right

    def _key(self):
        return self.left, self.right

    def __str__(self):
        return f"({self.left})x({self.right})"


def tensor_free(a: FreeComplex, b: FreeComplex) -> FreeComplex:
    """Tensor of free complexes over their common ring, Koszul signs included."""
    if a.ring != b.ring:
        raise ValueError("tensor factors live over different rings")
    if a.direction != b.direction:
        raise ValueError("tensor factors disagree on direction")
    out = FreeComplex(a.ring, a.direction,
                      complete_above=a.complete_above and b.complete_above)
    hom_a = {ga: sa for sa, ids in a.levels.items() for ga in ids}
    hom_b = {gb: sb for sb, ids in b.levels.items() for gb in ids}
    pairs = [(ga, gb) for sa in a.hom_degrees() for ga in a.levels[sa]
             for sb in b.hom_degrees() for gb in b.levels[sb]]
    pairs.sort(key=lambda p: (hom_a[p[0]] + hom_b[p[1]], hom_a[p[0]],
                              str(a.labels[p[0]]), str(b.labels[p[1]])))
    ids = {(ga, gb): out.add_generator(TensorLabel(a.labels[ga], b.labels[gb]),
                                       hom_a[ga] + hom_b[gb],
                                       a.internal[ga] + b.internal[gb])
           for ga, gb in pairs}
    # one -c per coefficient c of b, so realize shares its multiplication maps
    negated = {id(c): c.scaled(-1) for terms in b.diff for c, _ in terms}
    for ga, gb in pairs:
        odd = hom_a[ga] % 2
        terms = [(c, ids[(tgt, gb)]) for c, tgt in a.diff[ga]]  # dx (x) y
        terms += [(negated[id(c)] if odd else c, ids[(ga, tgt)])  # (-1)^s x (x) dy
                  for c, tgt in b.diff[gb]]
        out.set_diff(ids[(ga, gb)], terms)
    return out


class HomologyBasis:
    """Representatives of homology classes at one bidegree, with coordinates.

    reps are vectors in the chain basis, in the span's form (ints over F2,
    sparse dicts otherwise).  span holds the boundaries, untagged, then rep
    r with tag r, so coords(v) reads the coordinates of a cycle v in the
    representative classes off its tags (v must reduce to zero modulo
    image+reps).
    """

    def __init__(self, reps: list, span: VectorSpan):
        self.reps, self.span = reps, span

    def coords(self, v) -> list:
        reduced, n = self.span.reduce(v), len(self.reps)
        if self.span._bits:  # over F2: (keys, tags), and -1 is 1
            keys, coords = reduced[0], [reduced[1] >> r & 1 for r in range(n)]
        else:
            c = self.span.coeffs
            keys = any(i >= 0 for i in reduced)
            coords = [c.neg(reduced.get(-1 - r, c.zero)) for r in range(n)]
        if keys:
            raise ValueError("vector is not a cycle modulo the recorded image")
        return coords

    def is_boundary(self, v) -> bool:
        return all(not x for x in self.coords(v))


def homology_basis_at(c: BigradedComplex, s: int, t: int) -> HomologyBasis:
    """Cycles modulo boundaries with explicit representatives (field only)."""
    if not c.coefficients.is_field:
        raise ValueError("homology representatives need field coefficients")
    span = VectorSpan(c.coefficients)
    into = c.matrix(s - c.step, t)
    for col in into._packed() if span._bits else into.columns:
        span.insert(col)
    reps = []
    for vec in kernel_basis(c.matrix(s, t), c.coefficients):
        if span.insert(vec, len(reps)):
            reps.append(vec)
    return HomologyBasis(reps, span)
