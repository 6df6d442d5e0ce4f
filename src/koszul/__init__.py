"""Exact graded homological algebra for evenly graded regular quotients.

The package computes with bigraded chain complexes over F_p, Q, or Z with
every closed-form answer cross-checked by brute-force exact linear algebra
on a degree window:

- :mod:`koszul.linalg` — sparse exact matrices, ranks, kernels, Smith normal
  form, integer lattices;
- :mod:`koszul.rings` — graded polynomial rings, ideals given by ordered
  sequences, power quotients, regular-sequence checks;
- :mod:`koszul.complexes` — free bigraded complexes, differentials, homology
  with certainty tracking, tensor products;
- :mod:`koszul.tower` — Koszul complexes, stage-s resolutions of power
  quotients, Tor tables against the exterior closed form;
- :mod:`koszul.cotor` — cobar complexes of exterior coalgebras, polynomial
  closed forms, collapse audits;
- :mod:`koszul.adams` — the three worked example families and completion
  towers with stabilization certificates;
- :mod:`koszul.specfile` / :mod:`koszul.charts` / :mod:`koszul.cli` — the
  plain-text configuration grammar, CSV/SVG artifacts, and the command line.
"""

from types import ModuleType as _ModuleType

from .adams import (
    EXAMPLE_NAMES,
    CompletionReport,
    DegreeTower,
    ExampleConfig,
    adams_e2_table,
    completion_tower,
    example_base,
    example_hopf,
    kernel_sequence_model,
    kunneth_indices,
)
from .charts import csv_text, parse_csv, read_csv, svg_text, write_csv, write_svg
from .complexes import (
    BigradedComplex,
    DifferentialSquareError,
    FreeComplex,
    HomologyEntry,
    OracleMismatchError,
    homology_basis_at,
    homology_ranks,
    nonzero_table,
    tensor_free,
    verify_differential,
)
from .cotor import (
    CollapseVerdict,
    CotorReport,
    E2Presentation,
    HopfSpec,
    closed_form_ranks,
    cobar_complex,
    cobar_free,
    collapse_audit,
    cotor_ranks,
    e2_closed_form,
    parity_violations,
)
from .linalg import Coefficients, IntegerLattice, Matrix, smith_normal_form
from .rings import (
    DegreeWindow,
    Element,
    IdealSpec,
    InputError,
    QuotientModule,
    RingSpec,
    WindowError,
    check_regular_sequence,
    hilbert_function,
    monomial_basis,
    monomial_count,
    power_quotient_dimension,
    quotient_by_power,
)
from .specfile import SpecError, SpecFile, parse_spec, print_spec, spec_with_window
from .tower import (
    RegularityError,
    TorDiagonalReport,
    TowerReport,
    build_koszul,
    build_tower_resolution,
    tor_against_power,
    tor_diagonal,
    verify_partial_exactness,
)

__all__ = sorted(name for name, value in vars().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))

__version__ = "0.1.0"
