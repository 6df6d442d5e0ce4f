"""Layer spans recorded from outside the program, and the metrics derived
from them.

``Tracer.install`` wraps the public function at each layer boundary of the
``koszul`` package and rebinds every module-level name that refers to it
(``from .linalg import rank_over_field`` binds the function again in
``complexes`` and ``tower``).  Each call records a span: name, start, end,
parent, and a few counts taken from the operands.  Spans stay in memory and
are written out when the process ends; ``layer_metrics`` turns a span list
into the per-layer metrics.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute path, span name).  Two targets may share a span name:
# both SNF entry points are "linalg.snf", both artifact writers "charts.write".
TARGETS = (
    ("koszul.linalg", "Matrix.compose", "linalg.compose"),
    ("koszul.linalg", "rank_over_field", "linalg.rank_field"),
    ("koszul.linalg", "rational_rank", "linalg.rational_rank"),
    ("koszul.linalg", "smith_normal_form", "linalg.snf"),
    ("koszul.linalg", "smith_with_transforms", "linalg.snf"),
    ("koszul.linalg", "IntegerLattice.contains", "linalg.lattice_contains"),
    ("koszul.rings", "_monomials", "rings.monomials"),
    ("koszul.rings", "FreeModuleBasis.reduce", "rings.free_reduce"),
    ("koszul.rings", "QuotientModule._at", "rings.quotient"),
    ("koszul.rings", "check_regular_sequence", "rings.regularity"),
    ("koszul.rings", "power_quotient_dimension", "rings.power_quotient_dimension"),
    ("koszul.rings", "relation_matrix", "rings.relation_matrix"),
    ("koszul.complexes", "FreeComplex.realize", "complexes.realize"),
    ("koszul.complexes", "verify_differential", "complexes.verify_differential"),
    ("koszul.complexes", "homology_ranks", "complexes.homology_ranks"),
    ("koszul.tower", "tower_free", "tower.tower_free"),
    ("koszul.tower", "build_tower_resolution", "tower.build_tower_resolution"),
    ("koszul.tower", "tor_diagonal", "tower.tor_diagonal"),
    ("koszul.tower", "verify_partial_exactness", "tower.verify_partial_exactness"),
    ("koszul.tower", "tor_against_power", "tower.tor_against_power"),
    ("koszul.cotor", "cobar_free", "cotor.cobar_free"),
    ("koszul.cotor", "cobar_complex", "cotor.cobar_complex"),
    ("koszul.cotor", "closed_form_ranks", "cotor.closed_form"),
    ("koszul.cotor", "cotor_ranks", "cotor.cotor_ranks"),
    ("koszul.adams", "completion_tower", "adams.completion_tower"),
    ("koszul.specfile", "parse_spec", "specfile.parse_spec"),
    ("koszul.charts", "write_csv", "charts.write"),
    ("koszul.charts", "write_svg", "charts.write"),
    ("koszul.cli", "main", "cli.main"),
)

# Rank and SNF entry points call each other (rational_rank runs
# rank_over_field, smith_normal_form runs smith_with_transforms).  Only the
# outermost call of this family counts as a reduction.
REDUCTIONS = ("linalg.rank_field", "linalg.rational_rank", "linalg.snf")


def _matrix_key(m) -> int:
    return hash((m.rows, m.cols, frozenset(m.entries.items())))


def _compose_counts(args, result):
    a, b = args[0], args[1]
    col_nnz: dict[int, int] = {}
    rows = set()
    for (i, k) in a.entries:
        col_nnz[k] = col_nnz.get(k, 0) + 1
        rows.add(i)
    flops = sum(col_nnz.get(k, 0) for (k, _) in b.entries)
    # the column-by-row loop looks up every entry of b once per nonempty row of a
    return {"flops": flops, "lookups": len(b.entries) * len(rows)}


def _reduction_counts(args, result):
    m = args[0]
    return {"cells": m.rows * m.cols, "key": _matrix_key(m)}


def _monomial_counts(args, result):
    return {"key": hash((args[0], args[1]))}


def _realize_counts(args, result):
    per_t: dict[int, int] = {}
    dim_total = 0
    for (_, t), basis in result.basis.items():
        per_t[t] = per_t.get(t, 0) + len(basis)
        dim_total += len(basis)
    return {"bidegrees": len(result.basis), "dim_total": dim_total,
            "nnz_total": sum(len(m.entries) for m in result.diff.values()),
            "max_t_dim": max(per_t.values(), default=0)}


def _cobar_counts(args, result):
    return {"generators": result.generator_count()}


COUNTERS = {
    "linalg.compose": _compose_counts,
    "linalg.rank_field": _reduction_counts,
    "linalg.rational_rank": _reduction_counts,
    "linalg.snf": _reduction_counts,
    "rings.monomials": _monomial_counts,
    "complexes.realize": _realize_counts,
    "cotor.cobar_free": _cobar_counts,
}


class Tracer:
    """Span recorder.  A span is [name, start_ns, end_ns, parent, counts,
    excluded_ns]; excluded_ns is time the tracer itself spent inside the
    span while counting its children's operands."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.missing: list[str] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = [name, 0, 0, parent, None, 0]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, result)
                if parent >= 0:
                    spans[parent][5] += clock() - span[2]
            return result

        return traced

    def install(self) -> None:
        """Wrap every target that exists and rebind each module-level name
        that refers to it; targets that no longer exist go to ``missing``."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "koszul" or n.startswith("koszul.")]
        for mod_name, path, name in TARGETS:
            try:
                owner = importlib.import_module(mod_name)
            except ImportError:
                self.missing.append(f"{mod_name}.{path}")
                continue
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{mod_name}.{path}")
                continue
            traced = self._wrap(name, original)
            if outer:
                setattr(owner, attr, traced)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "missing": self.missing}, fh)


# ---------------------------------------------------------------------------
# derivation (runs in the benchmark process, on the dumped spans)

# (metric, unit) in report order; see README.md for what each means.  A
# metric in seconds is a time, any other one a count that repeats exactly.
LAYER_METRICS = (
    ("linalg.compose.s", "s"),
    ("linalg.compose.calls", "count"),
    ("linalg.compose.flops", "count"),
    ("linalg.compose.lookups", "count"),
    ("linalg.compose.useful_frac", "ratio"),
    ("linalg.rank_field.s", "s"),
    ("linalg.rank_field.calls", "count"),
    ("linalg.rational_rank.s", "s"),
    ("linalg.snf.s", "s"),
    ("linalg.snf.calls", "count"),
    ("linalg.snf.cells", "count"),
    ("linalg.lattice_contains.s", "s"),
    ("linalg.reductions_per_matrix", "ratio"),
    ("rings.monomials.s", "s"),
    ("rings.monomials.calls", "count"),
    ("rings.monomials.distinct", "count"),
    ("rings.monomials.repeat_ratio", "ratio"),
    ("rings.free_reduce.s", "s"),
    ("rings.free_reduce.calls", "count"),
    ("rings.quotient.s", "s"),
    ("rings.regularity.s", "s"),
    ("rings.power_quotient_dimension.s", "s"),
    ("rings.relation_matrix.s", "s"),
    ("complexes.realize.s", "s"),
    ("complexes.verify_differential.s", "s"),
    ("complexes.homology_ranks.s", "s"),
    ("complexes.bidegrees", "count"),
    ("complexes.dim_total", "count"),
    ("complexes.nnz_total", "count"),
    ("complexes.max_t_dim", "count"),
    ("tower.tower_free.s", "s"),
    ("tower.self_s", "s"),
    ("cotor.cobar_free.s", "s"),
    ("cotor.cobar_generators", "count"),
    ("cotor.closed_form.s", "s"),
    ("cotor.self_s", "s"),
    ("adams.completion_tower.self_s", "s"),
    ("specfile.parse_spec.s", "s"),
    ("charts.write.s", "s"),
    ("cli.self_s", "s"),
)

# spans a metric is computed from, where they are not named by the metric
# without its last part; a metric is absent when none of its spans was
# installed, because the functions they wrap no longer exist
_SOURCES = {
    "linalg.reductions_per_matrix": REDUCTIONS,
    "complexes.bidegrees": ("complexes.realize",),
    "complexes.dim_total": ("complexes.realize",),
    "complexes.nnz_total": ("complexes.realize",),
    "complexes.max_t_dim": ("complexes.realize",),
    "tower.self_s": ("tower.",),
    "cotor.cobar_generators": ("cotor.cobar_free",),
    "cotor.self_s": ("cotor.",),
    "cli.self_s": ("cli.main",),
}


def _span_names_installed(missing: list[str]) -> set[str]:
    return {name for m, p, name in TARGETS if f"{m}.{p}" not in missing}


def layer_metrics(spans: list[list], missing: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced process.

    ``<layer>.<fn>.s`` is inclusive time, except that the complexes times
    and every ``self_s`` exclude the spans nested inside them.  A ratio whose
    base is zero (the layer did no work on this workload) reads 0.
    """
    n = len(spans)
    child_ns = [0] * n
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_ns = [s[2] - s[1] - child_ns[i] - s[5] for i, s in enumerate(spans)]

    def nested_in_reduction(i: int) -> bool:
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] in REDUCTIONS:
                return True
            p = spans[p][3]
        return False

    calls: dict[str, int] = {}
    incl: dict[str, int] = {}
    selft: dict[str, int] = {}
    sums: dict[str, int] = {}
    keys: dict[str, set] = {}
    reduction_keys: set = set()
    reductions = 0
    max_t_dim = 0
    for i, (name, start, end, parent, counts, _) in enumerate(spans):
        selft[name] = selft.get(name, 0) + self_ns[i]
        if name in REDUCTIONS:
            if nested_in_reduction(i):
                continue
            reductions += 1
            reduction_keys.add(counts["key"])
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0) + end - start
        for k, v in (counts or {}).items():
            if k == "key":
                keys.setdefault(name, set()).add(v)
            elif k == "max_t_dim":
                max_t_dim = max(max_t_dim, v)
            else:
                sums[f"{name}.{k}"] = sums.get(f"{name}.{k}", 0) + v

    def secs(ns: int) -> float:
        return ns / 1e9

    def ratio(a: int, b: int) -> float:
        return a / b if b else 0.0

    def self_time(prefix: str) -> float:
        return secs(sum(v for k, v in selft.items() if k.startswith(prefix)))

    installed = _span_names_installed(missing)
    values = {}
    for metric, _ in LAYER_METRICS:
        if metric.endswith(".s"):  # "<span>.s": self time inside complexes
            span = metric[:-2]
            times = selft if span.startswith("complexes.") else incl
            values[metric] = secs(times.get(span, 0))
    # a call counter for every wrapped function; the check that a workload's
    # layers were reached reads them too
    for name in installed:
        values[f"{name}.calls"] = calls.get(name, 0)
    flops = sums.get("linalg.compose.flops", 0)
    lookups = sums.get("linalg.compose.lookups", 0)
    mono_distinct = len(keys.get("rings.monomials", ()))
    values.update({
        "linalg.compose.flops": flops,
        "linalg.compose.lookups": lookups,
        "linalg.compose.useful_frac": ratio(flops, lookups),
        "linalg.snf.cells": sums.get("linalg.snf.cells", 0),
        "linalg.reductions_per_matrix": ratio(reductions, len(reduction_keys)),
        "rings.monomials.distinct": mono_distinct,
        "rings.monomials.repeat_ratio": ratio(calls.get("rings.monomials", 0), mono_distinct),
        "complexes.bidegrees": sums.get("complexes.realize.bidegrees", 0),
        "complexes.dim_total": sums.get("complexes.realize.dim_total", 0),
        "complexes.nnz_total": sums.get("complexes.realize.nnz_total", 0),
        "complexes.max_t_dim": max_t_dim,
        "tower.self_s": self_time("tower."),
        "cotor.cobar_generators": sums.get("cotor.cobar_free.generators", 0),
        "cotor.self_s": self_time("cotor."),
        "adams.completion_tower.self_s": self_time("adams.completion_tower"),
        "cli.self_s": self_time("cli.main"),
    })
    out = {}
    for metric, value in values.items():
        sources = _SOURCES.get(metric, (metric.rsplit(".", 1)[0],))
        if any(n == s or (s.endswith(".") and n.startswith(s))
               for s in sources for n in installed):
            out[metric] = value
    return out
