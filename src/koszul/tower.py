"""Koszul complexes, ideal-power towers, and Tor tables with cross-checks.

Given an ordered regular sequence u_1..u_g in an evenly graded ring R with
I = (u_1..u_g), one builder, tower_free, writes every complex used here:
the stage-s resolution of R/I^s, the sum over levels k = 0..s-1 of
Koszul (x) U^(k), where U^(k) is free on the weakly increasing
multi-indices of length k.  Its differential is the Koszul part plus the
degree -1 boundary that trades an exterior factor e_i for the index i
inserted into the multi-index (sign (-1)^position, 1-based).  Stage 1 is
the Koszul complex on the u_i, a free resolution of R/I.

The stage complex holds that boundary as its off-diagonal blocks, level k
to level k+1.  boundary_block reads a block back out of a realized stage
complex; it depends on tower_free ordering generators by homological
degree and then by level, so each level is a contiguous run of every
realized basis.  Over R/I the Koszul part vanishes and the blocks are the
boundary complexes that the exactness audit and the second Tor pipeline
run on.

The module also computes Tor(R/I, R/I) and Tor(R/I, R/I^s) two independent
ways each, raising OracleMismatchError rather than returning a table the two
pipelines disagree on.  Every BigradedComplex checks d after d = 0 when it
is built, realized ones included, so no code here repeats that check.

Quotient realizations need field coefficients; over the integers only the
free-module computations (Koszul homology with torsion, tower d^2 and
homology invariants) are available.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import combinations, combinations_with_replacement, groupby

from .complexes import (
    HOMOLOGICAL,
    BasisLabel,
    BigradedComplex,
    FreeComplex,
    HomologyEntry,
    OracleMismatchError,
    TensorLabel,
    homology_basis_at,
    homology_ranks,
    tensor_free,
)
from .linalg import Matrix, _ones, rank_over_field
from .rings import (
    DegreeWindow,
    IdealSpec,
    InputError,
    QuotientModule,
    RingSpec,
    Value,
    check_regular_sequence,
    multiples,
    power_generators,
    power_quotient_dimension,
    quotient_by_power,
)


class RegularityError(ValueError):
    """The ordered sequence failed its regularity check."""

    def __init__(self, report):
        self.report = report
        first = report.failures[0]
        super().__init__(
            f"sequence entry {first.index} is not regular "
            f"(witnessed in degree {first.t}): {first.note}"
        )


def _require_plain(ring: RingSpec):
    if ring.inverted is not None:
        raise InputError(
            "chain-level complexes need a non-localized ring; rings with an "
            "inverted generator are served by closed-form tables only"
        )


def sequence_window_cut(ring: RingSpec, ideal: IdealSpec):
    """Split sequence indices into (kept, cut) for the ring's window.

    An entry whose degree exceeds t_max - t_min cannot contribute a nonzero
    basis element at any window degree, so it is dropped deterministically;
    reports must name the cut.
    """
    span = ring.window.t_max - ring.window.t_min
    kept, cut = [], []
    for i, d in enumerate(ideal.degrees, start=1):
        (kept if d <= span else cut).append(i)
    return kept, cut


def _indices_degree(ideal: IdealSpec, idxs) -> int:
    return sum(ideal.degrees[i - 1] for i in idxs)


def tower_free(ring: RingSpec, ideal: IdealSpec, s: int) -> FreeComplex:
    """The stage-s complex: levels 0..s-1 of Koszul (x) U^(k) summed, with
    differential = Koszul part + index-insertion boundary (dropped on the
    top level, which has nowhere to go).  Stage 1 is the Koszul complex.

    On e_S u~_J the Koszul part is sum_a (-1)^a u_{i_a} e_{S minus i_a} u~_J
    and the boundary is sum_a (-1)^(a+1) e_{S minus i_a} u~_{sort(J + i_a)},
    for the 0-based positions a of S.  The boundary is the level k -> k+1
    block of the differential, read back by boundary_block.  That reader
    relies on the generator order used here: by homological degree, then by
    level, so every level is one contiguous run of each realized basis.
    """
    _require_plain(ring)
    if s < 1:
        raise InputError("stage must be at least 1")
    kept, _ = sequence_window_cut(ring, ideal)
    # coefficients indexed by a % 2, shared by every term that uses them
    signed = {i: (ideal.sequence[i - 1], ideal.sequence[i - 1].scaled(-1)) for i in kept}
    units = (ring.constant(-1), ring.constant(1))
    cx = FreeComplex(ring, HOMOLOGICAL)
    ids: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}  # (S, J) -> id
    for r in range(len(kept) + 1):
        for k in range(s):
            for s_set in combinations(kept, r):
                for j in combinations_with_replacement(kept, k):
                    gid = ids[(s_set, j)] = cx.add_generator(
                        BasisLabel(e_part=s_set, u_part=j), r,
                        _indices_degree(ideal, s_set) + _indices_degree(ideal, j))
                    koszul, boundary = [], []
                    for a, i in enumerate(s_set):
                        rest = s_set[:a] + s_set[a + 1:]
                        koszul.append((signed[i][a % 2], ids[(rest, j)]))
                        if k < s - 1:
                            boundary.append((units[a % 2], ids[(rest, tuple(sorted(j + (i,))))]))
                    cx.set_diff(gid, koszul + boundary)
    return cx


def _level_of(entry) -> int:
    return len(entry[0].u_part)


def _level_run(entries, level: int) -> tuple[int, int]:
    lo = bisect_left(entries, level, key=_level_of)
    return lo, bisect_right(entries, level, lo=lo, key=_level_of)


def boundary_block(cx: BigradedComplex, level: int, r: int, t: int):
    """(source entries, target entries, matrix) of the index-insertion
    boundary from level `level` at (r, t) to level + 1 at (r - 1, t), read off
    a realized tower_free complex.

    Over R/I the Koszul part vanishes and these blocks are the whole
    differential.  Entries are (label, monomial) pairs in realized order; the
    matrix is zero-sized where a level is empty.
    """
    src = cx.basis.get((r, t), [])
    tgt = cx.basis.get((r - 1, t), [])
    c0, c1 = _level_run(src, level)
    r0, r1 = _level_run(tgt, level + 1)
    m = cx.matrix(r, t)
    if m.bits is not None:  # packed over F2: shift and mask each column
        mask = (1 << r1 - r0) - 1
        return src[c0:c1], tgt[r0:r1], Matrix(r1 - r0, c1 - c0, bits=[
            x >> r0 & mask for x in m.bits[c0:c1]])
    block = Matrix(r1 - r0, c1 - c0, [{i - r0: v for i, v in col.items() if r0 <= i < r1}
                                      for col in m.columns[c0:c1]])
    return src[c0:c1], tgt[r0:r1], block


def build_koszul(ring: RingSpec, ideal: IdealSpec, module=None) -> BigradedComplex:
    """Realize the Koszul complex over the ring's window, optionally through a
    quotient module; regularity is checked first, d^2 = 0 by the complex."""
    report = check_regular_sequence(ring, ideal)
    if not report.ok:
        raise RegularityError(report)
    return tower_free(ring, ideal, 1).realize(module=module)


class TowerReport:
    """Stage-s resolution audit: d^2, homology against R/I^s, augmentation."""

    def __init__(self, s: int, ring_desc: str, h0_found: dict, h0_mismatches: list,
                 higher_nonzero: list, augmentation_composite_zero: bool | None,
                 augmentation_surjective: bool | None, cut_note: str):
        self.s, self.ring_desc = s, ring_desc
        self.h0_found, self.h0_mismatches = h0_found, h0_mismatches
        self.higher_nonzero, self.cut_note = higher_nonzero, cut_note
        self.augmentation_composite_zero = augmentation_composite_zero
        self.augmentation_surjective = augmentation_surjective

    @property
    def ok(self) -> bool:
        return (
            not self.h0_mismatches
            and not self.higher_nonzero
            and self.augmentation_composite_zero is not False
            and self.augmentation_surjective is not False
        )

    def __str__(self):
        def mark(good):
            return "PASS" if good else "FAIL"

        lines = [
            f"stage s={self.s} resolution over {self.ring_desc}",
            "  d^2 = 0 everywhere in window: PASS",  # BigradedComplex raises otherwise
            f"  H_0 equals R/I^{self.s} degreewise: {mark(not self.h0_mismatches)}",
            f"  H_n = 0 for n > 0 in window: {mark(not self.higher_nonzero)}",
        ]
        if self.augmentation_composite_zero is None:
            lines.append("  augmentation checks: skipped (integer coefficients)")
        else:
            lines.append(
                "  augmentation kills the image and surjects: "
                f"{mark(self.augmentation_composite_zero and self.augmentation_surjective)}")
        for s_deg, t, entry in self.higher_nonzero[:5]:
            lines.append(f"    leftover class at ({s_deg},{t}): rank {entry.rank}, torsion {entry.torsion}")
        for t, found, expected in self.h0_mismatches[:5]:
            lines.append(f"    H_0 mismatch at t={t}: found {found}, expected {expected}")
        if self.cut_note:
            lines.append(f"  {self.cut_note}")
        return "\n".join(lines)


def build_tower_resolution(ring: RingSpec, ideal: IdealSpec, s: int) -> TowerReport:
    """Build the stage-s resolution of R/I^s and audit it end to end.

    Raises DifferentialSquareError when d^2 fails (a sign bug, not a math
    fact), RegularityError when the sequence is not regular in window, and
    OracleMismatchError when I^s/I^{s+1} misses its Rees prediction."""
    report = check_regular_sequence(ring, ideal)
    if not report.ok:
        raise RegularityError(report)
    _, cut = sequence_window_cut(ring, ideal)
    cut_note = (
        f"window cut dropped sequence entries {cut} (degree above t_max - t_min)"
        if cut else "")
    cx = tower_free(ring, ideal, s).realize()
    hom = homology_ranks(cx)
    is_field = ring.coefficients.is_field
    h0_found, mismatches = {}, []
    for t in ring.window.degrees():
        entry = hom.get((0, t), HomologyEntry(0))
        info = power_quotient_dimension(ring, ideal, s, t)
        if not info.assoc_matches_prediction:
            raise OracleMismatchError(
                f"I^{s}/I^{s + 1} at t={t} is {info.assoc}, "
                f"not the Rees prediction {info.predicted_assoc}",
                {"kind": "assoc-graded", "stage": s, "t": t,
                 "found": info.assoc, "predicted": info.predicted_assoc})
        h0_found[t] = entry.rank if is_field else (entry.rank, entry.torsion)
        if h0_found[t] != info.quotient:
            mismatches.append((t, h0_found[t], info.quotient))
    higher = [
        (s_deg, t, entry)
        for (s_deg, t), entry in sorted(hom.items())
        if s_deg > 0 and (entry.rank or entry.torsion)
    ]
    aug_zero = aug_onto = None
    if is_field:
        aug_zero, aug_onto = _augmentation_checks(ring, ideal, s, cx)
    return TowerReport(
        s=s,
        ring_desc=str(ring),
        h0_found=h0_found,
        h0_mismatches=mismatches,
        higher_nonzero=higher,
        augmentation_composite_zero=aug_zero,
        augmentation_surjective=aug_onto,
        cut_note=cut_note,
    )


def _augmentation_checks(ring, ideal, s, cx):
    """The map (x_0, x_1 u~_{J_1}, ...) -> x_0 + x_1 u_{J_1} + ... into R/I^s
    must kill the image of the first differential and hit everything."""
    quotient = quotient_by_power(ring, ideal, s)
    u_of: dict[tuple[int, ...], object] = {}
    for k in range(s):
        for j, elem in power_generators(ideal, k):
            u_of[j] = elem
    coeffs = ring.coefficients
    composite_zero = True
    surjective = True
    for t in ring.window.degrees():
        entries = cx.basis.get((0, t), [])
        columns = []  # one multiples + reduce per run of a generator's monomials
        for label, run in groupby(entries, key=lambda e: e[0]):
            columns += quotient.reduce(
                multiples(ring, u_of[label.u_part], [mono for _, mono in run], t), t)
        aug = Matrix.of(quotient.dim(t), columns, coeffs)
        if not aug.compose(cx.matrix(1, t), coeffs).is_zero():
            composite_zero = False
        if rank_over_field(aug, coeffs) != quotient.dim(t):
            surjective = False
    return composite_zero, surjective


# ---------------------------------------------------------------------------
# Tor tables: brute force against closed forms


class TorDiagonalReport:
    """Tor(R/I, R/I) as homology of Koszul (x) R/I next to the exterior
    closed form on classes e_i at bidegree (1, |u_i|)."""

    def __init__(self, ring_desc: str, table: dict, closed: dict, generator_bidegrees: list,
                 cut_note: str):
        self.ring_desc, self.table, self.closed = ring_desc, table, closed
        self.generator_bidegrees, self.cut_note = generator_bidegrees, cut_note

    def __str__(self):
        gens = ", ".join(f"e{i} at (1,{d})" for i, d in self.generator_bidegrees)
        lines = [
            f"Tor(R/I, R/I) over {self.ring_desc}: exterior on [{gens}]",
            f"  brute-force table equals closed form on {len(self.table)} nonzero bidegrees: PASS",
            "  realized differential vanishes (entries lie in the ideal): PASS",  # see tor_diagonal
        ]
        if self.cut_note:
            lines.append(f"  {self.cut_note}")
        return "\n".join(lines)


def tor_diagonal(ring: RingSpec, ideal: IdealSpec) -> TorDiagonalReport:
    """Both pipelines for Tor(R/I, R/I); raises OracleMismatchError on any
    disagreement instead of returning a table.  The closed form at (r, t) is
    the chain dimension of Koszul (x) R/I there, so a nonzero differential
    lowers a brute rank below it: a returned table had a zero differential."""
    if not ring.coefficients.is_field:
        raise InputError("Tor tables against quotients need field coefficients")
    quotient = quotient_by_power(ring, ideal, 1)
    cx = build_koszul(ring, ideal, module=quotient)
    hom = homology_ranks(cx)
    brute = {key: entry.rank for key, entry in hom.items() if entry.rank}
    kept, cut = sequence_window_cut(ring, ideal)
    closed: dict[tuple[int, int], int] = {}
    for r in range(len(kept) + 1):
        for s_set in combinations(kept, r):
            d = _indices_degree(ideal, s_set)
            for t in ring.window.degrees():
                rank = quotient.dim(t - d)
                if rank:
                    closed[(r, t)] = closed.get((r, t), 0) + rank
    for key in sorted(set(brute) | set(closed)):
        if brute.get(key, 0) != closed.get(key, 0):
            raise OracleMismatchError(
                f"Tor(R/I, R/I) mismatch at {key}: brute {brute.get(key, 0)}, "
                f"closed {closed.get(key, 0)}",
                {"kind": "tor-diagonal", "s": key[0], "t": key[1],
                 "brute": brute.get(key, 0), "closed": closed.get(key, 0)},
            )
    cut_note = (
        f"window cut dropped sequence entries {cut} (degree above t_max - t_min)"
        if cut else "")
    return TorDiagonalReport(
        ring_desc=str(ring),
        table=brute,
        closed=closed,
        generator_bidegrees=[(i, ideal.degrees[i - 1]) for i in kept],
        cut_note=cut_note,
    )


# ---------------------------------------------------------------------------
# partial exactness of the induced boundary complex


class ExactnessFailure(Value):
    def __init__(self, node: int, r: int, t: int, detail: str, check: str, stage: int):
        self.node, self.r, self.t, self.detail = node, r, t, detail
        self.check = check  # "composite" | "interior" | "end"
        self.stage = stage  # the first stage that runs the check: node + 3, node + 2, 2

    def _key(self):
        return self.node, self.r, self.t, self.detail, self.check, self.stage


class ExactnessReport(Value):
    """Exactness audit of the induced complex with nodes
    Lambda(e) (x) U^(k) over R/I (zero internal differential) and maps given
    by the index-insertion boundary."""

    def __init__(self, s: int, ring_desc: str, node_dims: list, base_dims: dict,
                 failures: list):
        self.s, self.ring_desc, self.node_dims = s, ring_desc, node_dims
        self.base_dims, self.failures = base_dims, failures
        failed = {f.check for f in failures}
        self.composite_zero = "composite" not in failed
        self.interior_exact = "interior" not in failed
        self.end_kernel_is_base = "end" not in failed

    def _key(self):
        return self.s, self.ring_desc, self.node_dims, self.base_dims, self.failures

    @property
    def ok(self) -> bool:
        return not self.failures

    def at_stage(self, k: int) -> "ExactnessReport":
        """The stage-k audit, 2 <= k <= s: tower_free drops only the top boundary."""
        if not 2 <= k <= self.s:
            raise ValueError(f"stage {k} is outside 2..{self.s}")
        return ExactnessReport(k, self.ring_desc, self.node_dims[:k], self.base_dims,
                               [f for f in self.failures if f.stage <= k])

    def __str__(self):
        def mark(good):
            return "PASS" if good else "FAIL"

        lines = [
            f"boundary complex through stage s={self.s} over {self.ring_desc}",
            f"  consecutive maps compose to zero: {mark(self.composite_zero)}",
            f"  exact at interior nodes 1..{self.s - 2}: {mark(self.interior_exact)}"
            if self.s > 2 else "  no interior nodes at this stage",
            f"  kernel of the first map is the base quotient, concentrated at "
            f"homological degree 0: {mark(self.end_kernel_is_base)}",
        ]
        for f in self.failures[:6]:
            lines.append(f"    node {f.node} at ({f.r},{f.t}): {f.detail}")
        return "\n".join(lines)


def _level_blocks(ring: RingSpec, ideal: IdealSpec, s: int):
    """(R/I, bases, maps) of tower_free(s) over R/I: bases[k][(r, t)] lists level
    k's entries at (r, t), maps[k][(r, t)] their boundary to level k + 1 at (r - 1, t)."""
    quotient = quotient_by_power(ring, ideal, 1)
    cx = tower_free(ring, ideal, s).realize(module=quotient)
    bases, maps = [{} for _ in range(s)], [{} for _ in range(s)]
    for (r, t) in cx.basis:
        for k in range(s):
            src, _, block = boundary_block(cx, k, r, t)
            if src:
                bases[k][(r, t)], maps[k][(r, t)] = src, block
    return quotient, bases, maps


def verify_partial_exactness(ring: RingSpec, ideal: IdealSpec, s: int) -> ExactnessReport:
    """Check the induced boundary complex on Tor(R/I, I^k/I^{k+1}) nodes.

    Each node is a free R/I-module (the internal differential vanishes after
    reducing mod I), so chains are homology and the checks are pure rank
    bookkeeping: composites vanish, interior nodes are exact, and the kernel
    of the first map is exactly the base quotient at homological degree 0.
    at_stage(k) of the result is the audit at a lower stage k."""
    if not ring.coefficients.is_field:
        raise InputError("exactness audit needs field coefficients")
    if s < 2:
        raise InputError("stage must be at least 2")
    report = check_regular_sequence(ring, ideal)
    if not report.ok:
        raise RegularityError(report)
    quotient, bases, maps = _level_blocks(ring, ideal, s)
    coeffs = ring.coefficients
    failures: list[ExactnessFailure] = []
    for k in range(s - 2):
        for (r, t), m in maps[k].items():
            if m.rows and not maps[k + 1][(r - 1, t)].compose(m, coeffs).is_zero():
                failures.append(ExactnessFailure(
                    k, r, t, "composite of boundaries is nonzero", "composite", k + 3))
    for k in range(1, s - 1):
        for (r, t), entries in bases[k].items():
            dim = len(entries)
            rank_out = rank_over_field(maps[k][(r, t)], coeffs)
            incoming = maps[k - 1].get((r + 1, t))
            rank_in = rank_over_field(incoming, coeffs) if incoming is not None else 0
            if dim - rank_out != rank_in:
                failures.append(ExactnessFailure(
                    k, r, t, f"kernel dimension {dim - rank_out} but incoming rank {rank_in}",
                    "interior", k + 2))
    base_dims = {t: quotient.dim(t) for t in ring.window.degrees()}
    for (r, t), entries in bases[0].items():
        kernel = len(entries) - rank_over_field(maps[0][(r, t)], coeffs)
        expected = base_dims.get(t, 0) if r == 0 else 0
        if kernel != expected:
            failures.append(ExactnessFailure(
                0, r, t, f"first-map kernel has dimension {kernel}, expected {expected}",
                "end", 2))
    node_dims = [{key: len(v) for key, v in b.items()} for b in bases]
    return ExactnessReport(s, str(ring), node_dims, base_dims, failures)


# ---------------------------------------------------------------------------
# Tor(R/I, R/I^s): two pipelines, freeness, trivial products


class TorPowerReport:
    """Tor(R/I, R/I^s) from brute force and from the closed form
    R/I at homological degree 0 plus the cokernel of the last boundary."""

    def __init__(self, s: int, ring_desc: str, table: dict, closed: dict,
                 free_over_base: bool, free_generators: list, products_checked: int,
                 products_skipped: list, notes: list):
        self.s, self.ring_desc, self.table, self.closed = s, ring_desc, table, closed
        self.free_over_base, self.free_generators = free_over_base, free_generators
        self.products_checked, self.products_skipped = products_checked, products_skipped
        self.notes = notes

    @property
    def ok(self) -> bool:
        return self.free_over_base

    def __str__(self):
        lines = [
            f"Tor(R/I, R/I^{self.s}) over {self.ring_desc}",
            f"  brute force equals closed form on {len(self.table)} nonzero bidegrees: PASS",
            f"  table is free over R/I within window: "
            f"{'PASS' if self.free_over_base else 'FAIL'}",
            f"  products of positive-degree classes vanish "
            f"({self.products_checked} products checked): PASS",  # else tor_against_power raises
        ]
        if self.free_over_base:
            gens = ", ".join(f"{m} at ({r},{t})" for r, t, m in self.free_generators)
            lines.append(f"  module generators: {gens}")
        if self.products_skipped:
            lines.append(
                f"  {len(self.products_skipped)} products land above t_max and were skipped")
        lines.extend(f"  note: {n}" for n in self.notes)
        return "\n".join(lines)


def tor_against_power(ring: RingSpec, ideal: IdealSpec, s: int) -> TorPowerReport:
    """Tor(R/I, R/I^s) with every cross-check; any disagreement raises."""
    if not ring.coefficients.is_field:
        raise InputError("Tor tables against quotients need field coefficients")
    if s < 2:
        raise InputError("stage must be at least 2")
    # pipeline (a): homology of Koszul (x) R/I^s
    power_quotient = quotient_by_power(ring, ideal, s)
    cx = build_koszul(ring, ideal, module=power_quotient)
    hom = homology_ranks(cx)
    brute = {key: entry.rank for key, entry in hom.items() if entry.rank}
    # pipeline (b): R/I at homological degree 0 plus coker of the last boundary
    quotient, bases, maps = _level_blocks(ring, ideal, s)
    coeffs = ring.coefficients
    closed: dict[tuple[int, int], int] = {}
    for t in ring.window.degrees():
        rank = quotient.dim(t)
        if rank:
            closed[(0, t)] = rank
    for (r, t), top in bases[s - 1].items():
        incoming = maps[s - 2].get((r + 1, t))
        coker = len(top) - (rank_over_field(incoming, coeffs) if incoming is not None else 0)
        if coker:
            closed[(r, t)] = closed.get((r, t), 0) + coker
    for key in sorted(set(brute) | set(closed)):
        if brute.get(key, 0) != closed.get(key, 0):
            raise OracleMismatchError(
                f"Tor(R/I, R/I^{s}) mismatch at {key}: brute {brute.get(key, 0)}, "
                f"closed {closed.get(key, 0)}",
                {"kind": "tor-power", "stage": s, "s": key[0], "t": key[1],
                 "brute": brute.get(key, 0), "closed": closed.get(key, 0)},
            )
    free_ok, free_gens = _peel_free_module(brute, quotient, ring.window)
    checked, skipped = _trivial_products_check(ring, ideal, s, brute)
    notes = ["freeness and product checks are window-truncated statements"]
    return TorPowerReport(
        s=s,
        ring_desc=str(ring),
        table=brute,
        closed=closed,
        free_over_base=free_ok,
        free_generators=free_gens,
        products_checked=checked,
        products_skipped=skipped,
        notes=notes,
    )


def _peel_free_module(table: dict, quotient: QuotientModule, w: DegreeWindow):
    """Greedily peel shifted copies of the base quotient's dimensions off each
    homological row; succeeds exactly when the row is free within the window."""
    base0 = [quotient.dim(d) for d in range(0, w.t_max - w.t_min + 1)]
    if not base0 or base0[0] == 0:
        return False, []
    gens = []
    for r in sorted({key[0] for key in table}):
        residual = {t: table.get((r, t), 0) for t in w.degrees()}
        while True:
            live = [t for t, v in residual.items() if v]
            if not live:
                break
            t0 = min(live)
            mult, rem = divmod(residual[t0], base0[0])
            if rem:
                return False, []
            gens.append((r, t0, mult))
            for t in w.degrees():
                if t >= t0:
                    residual[t] -= mult * base0[t - t0]
                    if residual[t] < 0:
                        return False, []
    return True, gens


def _merge_disjoint(a: tuple, b: tuple):
    """Merge two strictly increasing tuples; None on overlap, else
    (sign from the interleaving parity, merged tuple)."""
    if set(a) & set(b):
        return None
    inversions = sum(1 for i in a for j in b if i > j)
    return (-1) ** inversions, tuple(sorted(a + b))


def _product_entry(entry_a, entry_b, level_cap: int):
    """Product of two basis elements of the Koszul-(x)-stage algebra;
    None when it vanishes for exterior or level-truncation reasons."""
    (lab_a, mono_a) = entry_a
    (lab_b, mono_b) = entry_b
    ka, ta = lab_a.left, lab_a.right
    kb, tb = lab_b.left, lab_b.right
    k_merge = _merge_disjoint(ka.e_part, kb.e_part)
    if k_merge is None:
        return None
    t_merge = _merge_disjoint(ta.e_part, tb.e_part)
    if t_merge is None:
        return None
    if len(ta.u_part) + len(tb.u_part) > level_cap:
        return None
    sign = k_merge[0] * t_merge[0]
    if (len(ta.e_part) * len(kb.e_part)) % 2:
        sign = -sign
    label = TensorLabel(
        BasisLabel(e_part=k_merge[1]),
        BasisLabel(e_part=t_merge[1], u_part=tuple(sorted(ta.u_part + tb.u_part))),
    )
    return sign, (label, tuple(x + y for x, y in zip(mono_a, mono_b)))


def _chain_product(cx: BigradedComplex, key_a, vec_a, key_b, vec_b, level_cap: int,
                   index: dict):
    """Multiply two chains, in the vector form of the homology basis (ints
    over F2); the result lives at the sum of the bidegrees, whose basis
    entries index maps to their rows."""
    coeffs, packed = cx.coefficients, cx.coefficients.p == 2
    out: dict[int, object] = {}
    basis_a = cx.basis[key_a]
    basis_b = cx.basis[key_b]
    if packed:  # each set bit a term with coefficient 1
        vec_a, vec_b = dict.fromkeys(_ones(vec_a), 1), dict.fromkeys(_ones(vec_b), 1)
    for ia, ca in vec_a.items():
        for ib, cb in vec_b.items():
            got = _product_entry(basis_a[ia], basis_b[ib], level_cap)
            if got is None:
                continue
            sign, entry = got
            i = index[entry]
            out[i] = coeffs.normalize(out.get(i, coeffs.zero) + sign * ca * cb)
    out = {i: v for i, v in out.items() if v}
    return sum(1 << i for i in out) if packed else out


def _trivial_products_check(ring, ideal, s, brute):
    """Multiply representing cycles in Koszul (x) stage-s algebra and insist
    every product of positive-homological-degree classes bounds; returns
    (products checked, factor pairs skipped above t_max)."""
    cx = tensor_free(tower_free(ring, ideal, 1), tower_free(ring, ideal, s)).realize()
    hom = homology_ranks(cx)
    for key, entry in sorted(hom.items()):
        if entry.rank != brute.get(key, 0):
            raise OracleMismatchError(
                f"algebra-model homology disagrees with Tor at {key}",
                {"kind": "algebra-model", "stage": s, "s": key[0], "t": key[1],
                 "model": entry.rank, "expected": brute.get(key, 0)},
            )
    positive = sorted(key for key, entry in hom.items() if entry.rank and key[0] >= 1)
    reps_at = {}
    index_at = {}  # target bidegree -> {basis entry: row}, built once

    def basis_at(key):
        if key not in reps_at:
            reps_at[key] = homology_basis_at(cx, key[0], key[1])
        return reps_at[key]

    checked = 0
    skipped = []
    for i, key_a in enumerate(positive):
        for key_b in positive[i:]:
            target = (key_a[0] + key_b[0], key_a[1] + key_b[1])
            if target[1] > ring.window.t_max:
                skipped.append((key_a, key_b))
                continue
            if target not in index_at:
                index_at[target] = {entry: i for i, entry
                                    in enumerate(cx.basis.get(target, ()))}
            for va in basis_at(key_a).reps:
                for vb in basis_at(key_b).reps:
                    prod = _chain_product(cx, key_a, va, key_b, vb, s - 1,
                                          index_at[target])
                    checked += 1
                    if not prod:
                        continue
                    m = cx.matrix(*target)
                    if not m.compose(Matrix.of(m.cols, [prod], cx.coefficients),
                                     cx.coefficients).is_zero():
                        raise OracleMismatchError(
                            "product of cycles is not a cycle (Leibniz failure "
                            f"at {target})",
                            {"kind": "leibniz", "stage": s,
                             "s": target[0], "t": target[1]},
                        )
                    if not basis_at(target).is_boundary(prod):
                        raise OracleMismatchError(
                            f"nonzero product of positive-degree classes at {list(target)}",
                            {"kind": "nonzero-product", "stage": s,
                             "factors": [list(key_a), list(key_b)], "target": list(target)})
    return checked, skipped
