"""Plain-text configuration files: rings, sequences, windows, examples.

The grammar is line oriented and UTF-8; ``#`` starts a comment anywhere:

.. code-block:: text

    [ring]
    coefficients = F2          # F<p>, Q, or Z
    generators = x1:2, x2:4    # name:degree pairs, positive even degrees
    invert = x2                # optional: invert one generator

    [ideal]
    entry = x1^2 + 2*x2        # one `entry` line per sequence element
    entry = 3                  # constants are allowed (degree 0)

    [window]
    t_min = 0
    t_max = 16
    s_max = 3                  # optional, default 6
    stage_max = 4              # optional, default 6

    [example]
    which = B                  # A, B, or C
    p = 3
    n = 1                      # optional, default 0
    j_max = 6

Polynomial values use ``+``, ``*``, ``^``, integer coefficients, and
generator names; each entry must be homogeneous and of even degree.
Sections may appear in any order and keys may be reordered freely inside a
section; ``entry`` lines keep their file order, since a sequence is ordered.
Any section may be absent, but ``[ring]`` needs ``[window]`` (the window is
carried on the ring) and ``[ideal]`` needs ``[ring]``.

Every parse error names the 1-based line and column of the offending token,
and :func:`parse_spec` and :func:`print_spec` round-trip:
``parse_spec(print_spec(s)) == s`` for every valid ``s``.
"""
from __future__ import annotations

import re

from .adams import EXAMPLE_NAMES, ExampleConfig
from .linalg import Coefficients, is_prime
from .rings import DegreeWindow, Element, IdealSpec, RingSpec, Value


class SpecError(ValueError):
    """A configuration-file failure located at a 1-based line and column."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


class ExampleSection(Value):
    """The [example] section: a family pinned to p, n, and j_max.

    The window is not part of the section; combine with one via config().
    """

    def __init__(self, which: str, p: int, j_max: int, n: int = 0):
        self.which, self.p, self.j_max, self.n = which, p, j_max, n

    def _key(self):
        return self.which, self.p, self.j_max, self.n

    def config(self, window: DegreeWindow) -> ExampleConfig:
        return ExampleConfig(self.which, self.p, self.j_max, window, n=self.n)


class SpecFile(Value):
    """A parsed configuration file; any section may be absent.

    >>> s = parse_spec('''
    ... [ring]
    ... coefficients = F2
    ... generators = x1:2, x2:4
    ... [ideal]
    ... entry = x1^2 + 2*x2   # homogeneous: 2*|x1| = |x2|
    ... [window]
    ... t_min = 0
    ... t_max = 8
    ... ''')
    >>> s.ring.names, s.ideal.degrees
    (('x1', 'x2'), (4,))
    >>> parse_spec(print_spec(s)) == s
    True
    """

    def __init__(self, ring: RingSpec | None = None, ideal: IdealSpec | None = None,
                 window: DegreeWindow | None = None, example: ExampleSection | None = None):
        self.ring, self.ideal, self.window, self.example = ring, ideal, window, example

    def _key(self):
        return self.ring, self.ideal, self.window, self.example


_HEADER = re.compile(r"\s*\[([A-Za-z]+)\]\s*$")
_KEYVAL = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*=\s*")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_SECTIONS = {
    "ring": ("coefficients", "generators", "invert"),
    "ideal": ("entry",),
    "window": ("t_min", "t_max", "s_max", "stage_max"),
    "example": ("which", "p", "n", "j_max"),
}


class _Raw:
    """One key's value with enough location to point errors at it."""

    def __init__(self, line: int, value: str, value_column: int):
        self.line, self.value, self.value_column = line, value, value_column


def parse_spec(text: str) -> SpecFile:
    """Parse a configuration file; every failure is a located SpecError.

    >>> parse_spec("[ring]\\ncoefficients = F4")
    Traceback (most recent call last):
    ...
    koszul.specfile.SpecError: line 2, column 16: F4: 4 is not prime
    """
    sections: dict[str, list[tuple[str, _Raw]]] = {name: [] for name in _SECTIONS}
    headers: dict[str, tuple[int, int]] = {}
    current: str | None = None
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].rstrip()
        stripped = line.lstrip()
        if not stripped:
            continue
        col0 = len(line) - len(stripped) + 1
        if stripped.startswith("["):
            m = _HEADER.match(line)
            if not m:
                raise SpecError(line_no, col0, "malformed section header")
            name = m.group(1)
            if name not in _SECTIONS:
                raise SpecError(line_no, m.start(1) + 1, f"unknown section [{name}]")
            current = name
            headers.setdefault(name, (line_no, col0))
            continue
        if current is None:
            raise SpecError(line_no, col0,
                            "expected a [section] header before key = value lines")
        m = _KEYVAL.match(line)
        if not m:
            raise SpecError(line_no, col0, "expected key = value")
        key = m.group(1)
        key_col = m.start(1) + 1
        if key not in _SECTIONS[current]:
            raise SpecError(line_no, key_col, f"unknown key {key!r} in [{current}]")
        if key != "entry" and any(k == key for k, _ in sections[current]):
            raise SpecError(line_no, key_col, f"duplicate key {key!r} in [{current}]")
        sections[current].append((key, _Raw(line_no, line[m.end():], m.end() + 1)))

    window = _parse_window(sections["window"], headers.get("window"))
    ring = _parse_ring(sections["ring"], headers.get("ring"), window)
    ideal = _parse_ideal(sections["ideal"], headers.get("ideal"), ring)
    example = _parse_example(sections["example"], headers.get("example"))
    return SpecFile(ring=ring, ideal=ideal, window=window, example=example)


def _int(raw: _Raw, what: str) -> int:
    v = raw.value.strip()
    try:
        return int(v, 10)
    except ValueError:
        raise SpecError(raw.line, raw.value_column,
                        f"{what} must be an integer, got {v!r}") from None


def _parse_window(pairs, header) -> DegreeWindow | None:
    if header is None:
        return None
    line, col = header
    got = dict(pairs)
    for need in ("t_min", "t_max"):
        if need not in got:
            raise SpecError(line, col, f"[window] is missing {need}")
    t_min = _int(got["t_min"], "t_min")
    t_max = _int(got["t_max"], "t_max")
    if t_max < t_min:
        raw = got["t_max"]
        raise SpecError(raw.line, raw.value_column,
                        f"t_max = {t_max} is below t_min = {t_min}")
    extra = {}
    for key in ("s_max", "stage_max"):
        if key in got:
            extra[key] = _int(got[key], key)
            if extra[key] < 0:
                raw = got[key]
                raise SpecError(raw.line, raw.value_column, f"{key} must be nonnegative")
    return DegreeWindow(t_min, t_max, extra.get("s_max", 6),
                        stage_max=extra.get("stage_max", 6))


def _parse_coefficients(raw: _Raw) -> Coefficients:
    v = raw.value.strip()
    if v == "Q":
        return Coefficients.rationals()
    if v == "Z":
        return Coefficients.integers()
    if v[:1] == "F" and v[1:].isdigit():
        p = int(v[1:])
        if not is_prime(p):
            raise SpecError(raw.line, raw.value_column, f"F{p}: {p} is not prime")
        return Coefficients.prime_field(p)
    raise SpecError(raw.line, raw.value_column,
                    f"unknown coefficients {v!r}; expected F<p>, Q, or Z")


def _parse_generators(raw: _Raw | None) -> tuple[tuple[str, int], ...]:
    if raw is None or not raw.value.strip():
        return ()
    out: list[tuple[str, int]] = []
    offset = 0
    for piece in raw.value.split(","):
        col = raw.value_column + offset + len(piece) - len(piece.lstrip())
        offset += len(piece) + 1
        pair = piece.strip()
        if not pair:
            raise SpecError(raw.line, col, "empty generator pair")
        name, sep, deg_s = (x.strip() for x in pair.partition(":"))
        if not sep or not deg_s:
            raise SpecError(raw.line, col, f"expected name:degree, got {pair!r}")
        if not _NAME.fullmatch(name):
            raise SpecError(raw.line, col, f"bad generator name {name!r}")
        try:
            d = int(deg_s, 10)
        except ValueError:
            raise SpecError(raw.line, col,
                            f"degree of {name} must be an integer, got {deg_s!r}") from None
        if d <= 0 or d % 2:
            raise SpecError(raw.line, col,
                            f"generator {name} has degree {d}; positive even degree required")
        if name in (n for n, _ in out):
            raise SpecError(raw.line, col, f"duplicate generator {name!r}")
        out.append((name, d))
    return tuple(out)


def _parse_ring(pairs, header, window) -> RingSpec | None:
    if header is None:
        return None
    line, col = header
    got = dict(pairs)
    if "coefficients" not in got:
        raise SpecError(line, col, "[ring] is missing coefficients")
    coeffs = _parse_coefficients(got["coefficients"])
    generators = _parse_generators(got.get("generators"))
    if window is None:
        raise SpecError(line, col, "a [ring] section needs a [window] section")
    invert = None
    if "invert" in got:
        raw = got["invert"]
        invert = raw.value.strip()
        if invert not in (n for n, _ in generators):
            raise SpecError(raw.line, raw.value_column,
                            f"invert names unknown generator {invert!r}")
    return RingSpec(coeffs, generators, window, inverted=invert)


def _poly_tokens(raw: _Raw) -> list[tuple[str, str, int]]:
    v, out, i = raw.value, [], 0
    while i < len(v):
        ch = v[i]
        if ch.isspace():
            i += 1
            continue
        col = raw.value_column + i
        if ch.isdigit() or (ch == "-" and v[i + 1:i + 2].isdigit()):
            j = i + 1
            while j < len(v) and v[j].isdigit():
                j += 1
            out.append(("int", v[i:j], col))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i + 1
            while j < len(v) and (v[j].isalnum() or v[j] == "_"):
                j += 1
            out.append(("name", v[i:j], col))
            i = j
        elif ch in "+*^":
            out.append((ch, ch, col))
            i += 1
        else:
            raise SpecError(raw.line, col, f"unexpected character {ch!r} in polynomial")
    if not out:
        raise SpecError(raw.line, raw.value_column, "empty polynomial")
    return out


def _parse_polynomial(raw: _Raw, ring: RingSpec) -> Element:
    """Parse one ideal entry: terms joined by +, factors by *, powers by ^."""
    tokens = _poly_tokens(raw)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def fail(tok, msg):
        col = tok[2] if tok else raw.value_column + len(raw.value.rstrip())
        raise SpecError(raw.line, col, f"malformed polynomial: {msg}")

    def factor() -> Element:
        tok = peek()
        if tok is None:
            fail(None, "expected a factor")
        kind, text, col = take()
        if kind == "int":
            return ring.constant(int(text))
        if kind != "name":
            fail((kind, text, col), f"unexpected {text!r}")
        if text not in ring.names:
            raise SpecError(raw.line, col, f"unknown generator {text!r}")
        g = ring.generator(text)
        if peek() and peek()[0] == "^":
            take()
            e = peek()
            if e is None or e[0] != "int":
                fail(e, "expected an integer exponent after ^")
            _, etext, ecol = take()
            exp = int(etext)
            if exp < 0:
                raise SpecError(raw.line, ecol,
                                "negative exponents are not allowed in ideal entries")
            out = ring.one()
            for _ in range(exp):
                out = out * g
            return out
        return g

    def term() -> Element:
        out = factor()
        while peek() and peek()[0] == "*":
            take()
            out = out * factor()
        return out

    total = term()
    degree = None if total.is_zero() else total.degree()
    while peek():
        tok = take()
        if tok[0] != "+":
            fail(tok, f"expected '+' between terms, got {tok[1]!r}")
        start = peek()
        if start is None:
            fail(None, "expected a term after '+'")
        part = term()
        d = None if part.is_zero() else part.degree()
        if d is not None and degree is not None and d != degree:
            raise SpecError(raw.line, start[2],
                            f"not homogeneous: term of degree {d} after degree {degree}")
        degree = d if degree is None else degree
        total = total + part
    if total.is_zero():
        raise SpecError(raw.line, raw.value_column,
                        "entry is zero over these coefficients")
    if total.degree() % 2:
        raise SpecError(raw.line, raw.value_column,
                        f"entry has odd degree {total.degree()}; even degree required")
    return total


def _parse_ideal(pairs, header, ring) -> IdealSpec | None:
    if header is None:
        return None
    line, col = header
    if ring is None:
        raise SpecError(line, col, "an [ideal] section needs a [ring] section")
    if not pairs:
        raise SpecError(line, col, "[ideal] has no entry lines")
    return IdealSpec(tuple(_parse_polynomial(raw, ring) for _, raw in pairs))


def _parse_example(pairs, header) -> ExampleSection | None:
    if header is None:
        return None
    line, col = header
    got = dict(pairs)
    for need in ("which", "p", "j_max"):
        if need not in got:
            raise SpecError(line, col, f"[example] is missing {need}")
    raw_which = got["which"]
    which = raw_which.value.strip()
    if which not in EXAMPLE_NAMES:
        raise SpecError(raw_which.line, raw_which.value_column,
                        f"unknown example {which!r}; expected one of "
                        + ", ".join(EXAMPLE_NAMES))
    p = _int(got["p"], "p")
    if not is_prime(p):
        raw = got["p"]
        raise SpecError(raw.line, raw.value_column, f"p = {p} is not prime")
    section = ExampleSection(which, p, _int(got["j_max"], "j_max"),
                             n=_int(got["n"], "n") if "n" in got else 0)
    try:
        section.config(DegreeWindow(0, 0, 0))
    except ValueError as exc:
        raise SpecError(line, col, str(exc)) from None
    return section


def print_spec(spec: SpecFile) -> str:
    """Canonical text for a configuration; parse_spec inverts it exactly."""
    lines: list[str] = []
    if spec.ring is not None:
        r = spec.ring
        lines.append("[ring]")
        lines.append(f"coefficients = {r.coefficients}")
        if r.generators:
            lines.append("generators = " + ", ".join(f"{n}:{d}" for n, d in r.generators))
        if r.inverted is not None:
            lines.append(f"invert = {r.inverted}")
        lines.append("")
    if spec.ideal is not None:
        lines.append("[ideal]")
        lines.extend(f"entry = {u}" for u in spec.ideal.sequence)
        lines.append("")
    if spec.window is not None:
        w = spec.window
        lines.append("[window]")
        lines.append(f"t_min = {w.t_min}")
        lines.append(f"t_max = {w.t_max}")
        lines.append(f"s_max = {w.s_max}")
        lines.append(f"stage_max = {w.stage_max}")
        lines.append("")
    if spec.example is not None:
        e = spec.example
        lines.append("[example]")
        lines.append(f"which = {e.which}")
        lines.append(f"p = {e.p}")
        if e.n:
            lines.append(f"n = {e.n}")
        lines.append(f"j_max = {e.j_max}")
        lines.append("")
    return "\n".join(lines)


def spec_with_window(spec: SpecFile, window: DegreeWindow) -> SpecFile:
    """The same configuration with every window-bearing piece rebuilt."""
    ring = None if spec.ring is None else RingSpec(
        spec.ring.coefficients, spec.ring.generators, window,
        inverted=spec.ring.inverted)
    ideal = None if spec.ideal is None else IdealSpec(
        tuple(Element(ring, u.terms) for u in spec.ideal.sequence))
    return SpecFile(ring=ring, ideal=ideal, window=window, example=spec.example)
