"""Worked example configurations and I-adic completion towers.

Three families of configurations are supported, named A, B, and C on the
command line.  Each one fixes a prime p (and for B and C a height n), and
its second page is a polynomial algebra over a small base ring:

  A: base F_p, one exterior class t_j for every 0 <= j <= j_max;
  B: base Z[v_1..v_n] with v_n inverted (Z standing in for the p-local
     integers), classes t_j for 1 <= j <= j_max except j = p^k - 1 with
     1 <= k <= n;
  C: base F_p[v_n, v_n inverted], classes t_j for 0 <= j <= j_max except
     j = p^n - 1.

The exterior class t_j sits at bidegree (1, 2j); the matching polynomial
class U_j sits at (1, 2j + 1).  Everything is bookkeeping over a truncated
generator list, so every table carries its truncation in the notes.

Completion towers report the quotient by each power of an ideal, degree by
degree, with surjectivity of the structure maps verified and degreewise
stabilization certified exactly when that is possible (positive-degree
entries over a non-localized ring).
"""
from __future__ import annotations

from .complexes import OracleMismatchError
from .cotor import E2Presentation, HopfSpec, collapse_audit, e2_closed_form
from .linalg import Coefficients, IntegerLattice, is_prime
from .rings import (
    DegreeWindow,
    IdealSpec,
    InputError,
    RingSpec,
    Value,
    monomial_count,
    power_generators,
    quotient_by_power,
    relation_matrix,
)

EXAMPLE_NAMES = ("A", "B", "C")


class ExampleConfig(Value):
    """One of the named example families, pinned to a prime, a height, and a
    truncation index for the generator list."""

    def __init__(self, which: str, p: int, j_max: int, window: DegreeWindow, n: int = 0):
        if which not in EXAMPLE_NAMES:
            raise InputError(f"unknown example {which!r}; expected one of {EXAMPLE_NAMES}")
        if not is_prime(p):
            raise InputError(f"p = {p} is not prime")
        if which == "A":
            if j_max < 0:
                raise InputError("j_max must be nonnegative")
        else:
            if n < 1:
                raise InputError(f"example {which} needs a height n >= 1")
            if j_max < n:
                raise InputError(f"j_max = {j_max} is below the height n = {n}")
        self.which, self.p, self.j_max, self.window, self.n = which, p, j_max, window, n

    def _key(self):
        return self.which, self.p, self.j_max, self.window, self.n

    def __str__(self):
        bits = [f"example {self.which}, p={self.p}"]
        if self.which != "A":
            bits.append(f"n={self.n}")
        bits.append(f"j_max={self.j_max}")
        return ", ".join(bits)


def kunneth_indices(c: ExampleConfig) -> tuple[int, ...]:
    """Indices j of the exterior classes t_j, after the exclusion rule.

    A keeps every j >= 0; B keeps j >= 1 except j = p^k - 1 for heights
    1 <= k <= n; C keeps j >= 0 except j = p^n - 1.
    """
    if c.which == "A":
        return tuple(range(c.j_max + 1))
    if c.which == "B":
        excluded = {c.p ** k - 1 for k in range(1, c.n + 1)}
        return tuple(j for j in range(1, c.j_max + 1) if j not in excluded)
    return tuple(j for j in range(c.j_max + 1) if j != c.p ** c.n - 1)


def example_base(c: ExampleConfig) -> RingSpec:
    """The base ring of an example's second page.

    A: the prime field.  B: integer polynomials on v_1..v_n of degree
    2(p^i - 1) with v_n inverted (integer coefficients model the p-local
    integers; ranks are unaffected).  C: the prime field with the single
    generator v_n inverted.
    """
    w = c.window
    if c.which == "A":
        return RingSpec(Coefficients.prime_field(c.p), (), w)
    v = tuple((f"v{i}", 2 * (c.p ** i - 1)) for i in range(1, c.n + 1))
    if c.which == "B":
        return RingSpec(Coefficients.integers(), v, w, inverted=f"v{c.n}")
    return RingSpec(Coefficients.prime_field(c.p), v[-1:], w, inverted=f"v{c.n}")


def example_hopf(c: ExampleConfig) -> HopfSpec:
    """The exterior coalgebra whose cobar cohomology is the example's second
    page: one odd primitive of degree 2j + 1 per kept index."""
    prims = tuple((f"t{j}", 2 * j + 1) for j in kunneth_indices(c))
    return HopfSpec(example_base(c), prims)


def adams_e2_table(c: ExampleConfig) -> E2Presentation:
    """Closed-form second page of an example, with the collapse audit run.

    Localized bases (B and C) are counted in the window-truncated Laurent
    model.  No brute force checks this table: `koszul cotor` on an
    [example] section runs one (cotor_ranks) on base A only, since the
    chain level rejects the localized bases.
    """
    h = example_hopf(c)
    p = e2_closed_form(h, c.window)
    p.collapse = collapse_audit(p)
    notes = [f"generator list truncated at j_max={c.j_max}; "
             "the table describes the truncated model only"]
    if c.which == "B":
        notes.append("integer coefficients stand in for the p-local integers; "
                     "ranks agree")
    if example_base(c).inverted is not None:
        notes.append("base has an inverted generator: ranks use the "
                     "window-truncated Laurent model, closed form only")
    p.notes = tuple(notes)
    return p


def kernel_sequence_model(c: ExampleConfig) -> tuple[RingSpec, IdealSpec, tuple[str, ...]]:
    """Polynomial model of the sequence cut out by an example's quotient map,
    for feeding completion towers.

    The ambient ring is Z[x_1..x_{j_max}] with x_j in degree 2j (B inverts
    x_{p^n - 1}, the generator surviving as the top periodicity class).  The
    sequence collects the characteristic (A and C) and every truncated x_j
    that dies in the quotient.
    """
    w = c.window
    names = tuple((f"x{j}", 2 * j) for j in range(1, c.j_max + 1))
    notes = (f"sequence truncated at j_max={c.j_max}; an untruncated sequence "
             "adds generators in every higher degree",)
    if c.which == "A":
        ring = RingSpec(Coefficients.integers(), names, w)
        seq = (ring.constant(c.p),) + tuple(ring.generator(n) for n, _ in names)
        return ring, IdealSpec(seq), notes
    top = c.p ** c.n - 1
    if c.j_max < top:
        raise InputError(
            f"kernel model for example {c.which} needs j_max >= p^n - 1 = {top}")
    kept = set(kunneth_indices(c))
    if c.which == "B":
        ring = RingSpec(Coefficients.integers(), names, w, inverted=f"x{top}")
        seq = tuple(ring.generator(f"x{j}") for j in range(1, c.j_max + 1) if j in kept)
        return ring, IdealSpec(seq), notes
    ring = RingSpec(Coefficients.integers(), names, w)
    seq = (ring.constant(c.p),) + tuple(
        ring.generator(f"x{j}") for j in range(1, c.j_max + 1) if j != top)
    return ring, IdealSpec(seq), notes


class DegreeTower:
    """One internal degree of a completion tower: the value at each stage
    1..stage_max, and where (if anywhere) the sequence provably stops moving.

    Values are dimensions over a field and (free rank, torsion factors)
    pairs over the integers.  stabilized_at is the first stage whose value
    equals the certified limit; it is only set when certification is
    possible, i.e. the limit value is attained inside stage_max and provably
    final.
    """

    def __init__(self, t: int, values: tuple, stabilized_at: int | None, limit,
                 certified: bool, note: str = ""):
        self.t, self.values, self.stabilized_at = t, values, stabilized_at
        self.limit, self.certified, self.note = limit, certified, note


class CompletionReport:
    """Degreewise record of the tower R/I <- R/I^2 <- ... over a window."""

    def __init__(self, ring_desc: str, stage_max: int, towers: dict[int, DegreeTower],
                 surjective: bool, surjectivity_failures: tuple[tuple[int, int], ...] = (),
                 notes: tuple[str, ...] = ()):
        self.ring_desc, self.stage_max, self.towers = ring_desc, stage_max, towers
        self.surjective, self.surjectivity_failures, self.notes = (
            surjective, surjectivity_failures, notes)

    @property
    def ok(self) -> bool:
        return self.surjective

    def __str__(self):
        lines = [f"completion tower over {self.ring_desc}, "
                 f"stages 1..{self.stage_max}",
                 "structure maps surjective: "
                 + ("yes" if self.surjective else
                    f"NO at {list(self.surjectivity_failures)}")]
        for t in sorted(self.towers):
            tw = self.towers[t]
            stab = (f"stabilizes at stage {tw.stabilized_at}" if tw.stabilized_at
                    else (tw.note or "no stabilization within stage_max"))
            lines.append(f"  t={t}: {list(tw.values)} ({stab})")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def completion_tower(ring: RingSpec, ideal: IdealSpec,
                     notes: tuple[str, ...] = ()) -> CompletionReport:
    """Quotients by successive powers of an ideal, degree by degree over the
    ring's window.

    Every structure map R/I^(s+1) -> R/I^s is verified surjective (the
    power-(s+1) relations must lie in the power-s span, degree by degree).
    When the ring has no inverted generator and every sequence entry has
    positive degree, the degree-t component provably equals the full ring
    component from stage floor(t/d_min) + 1 on, and the tower records the
    first stage at which that limit value is reached; a degree-zero entry or
    a localized ring gets an explanatory note instead, since those towers
    may move forever (the p-adic pattern).
    """
    w = ring.window
    if w.stage_max < 2:
        raise InputError("a tower needs stage_max >= 2")
    is_field = ring.coefficients.is_field
    stages = range(1, w.stage_max + 1)
    if is_field:
        quotients = {s: quotient_by_power(ring, ideal, s) for s in range(1, w.stage_max + 2)}
    else:
        gens = [[g for _, g in power_generators(ideal, s)] for s in range(1, w.stage_max + 2)]
    certifiable = ring.inverted is None and all(d > 0 for d in ideal.degrees)
    d_min = min(ideal.degrees) if certifiable and ideal.degrees else None
    towers: dict[int, DegreeTower] = {}
    failures: list[tuple[int, int]] = []
    for t in w.degrees():
        # the stage values, then surjectivity of each structure map at t
        if is_field:
            values = tuple(quotients[s].dim(t) for s in stages)
            limit_val = monomial_count(ring, t)
            for s in stages:
                if not quotients[s].contains_span(quotients[s + 1].relations, t):
                    failures.append((s, t))
        else:
            # one lattice per stage gives its value and must contain the
            # relation columns of the next stage
            rels = [relation_matrix(ring, g, t) for g in gens]
            values = []
            for s, rel, finer in zip(stages, rels, rels[1:]):
                lat = IntegerLattice(rel)
                values.append(lat.cokernel_invariants())
                if not all(lat.contains(col) for col in finer.columns):
                    failures.append((s, t))
            values = tuple(values)
            limit_val = (monomial_count(ring, t), ())
        stabilized = None
        certified = False
        note = ""
        if certifiable:
            s_cert = max(t, 0) // d_min + 1 if d_min else 1
            if s_cert <= w.stage_max:
                tail = values[s_cert - 1:]
                if any(v != limit_val for v in tail):
                    raise OracleMismatchError(
                        "tower value differs from the certified limit",
                        {"kind": "completion-limit", "t": t, "stage": s_cert,
                         "values": list(tail), "limit": limit_val})
                stabilized = values.index(limit_val) + 1
                certified = True
            else:
                note = (f"certified stabilization stage {s_cert} exceeds "
                        f"stage_max={w.stage_max}")
        elif ring.inverted is not None:
            note = ("localized ring: power components never empty out, "
                    "no degreewise stabilization certificate")
        else:
            note = ("sequence has a degree-zero entry: tower may move at "
                    "every stage (the p-adic pattern)")
        towers[t] = DegreeTower(t, values, stabilized,
                                limit_val if certified else None,
                                certified, note)
    return CompletionReport(
        ring_desc=str(ring),
        stage_max=w.stage_max,
        towers=towers,
        surjective=not failures,
        surjectivity_failures=tuple(sorted(failures)),
        notes=tuple(notes),
    )

