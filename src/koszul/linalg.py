"""Exact sparse linear algebra over prime fields, the rationals, and the integers.

Everything here is exact: prime-field scalars are ints reduced mod p,
rational scalars are fractions.Fraction, integer scalars are unbounded ints.
No floating point anywhere.
"""
from __future__ import annotations

import heapq
from functools import partial
from math import gcd, isqrt
from operator import neg, truediv


def is_prime(n: int) -> bool:
    """
    >>> [k for k in range(2, 20) if is_prime(k)]
    [2, 3, 5, 7, 11, 13, 17, 19]
    """
    return n > 1 and all(n % f for f in range(2, isqrt(n) + 1))


def _mod(p: int, x) -> int:
    return int(x) % p


def _neg_mod(p: int, a) -> int:
    return -a % p


def _fraction(fraction, x):
    return x if isinstance(x, fraction) else fraction(x)


def _no_inverse(a):
    raise ValueError("no inverses over the integers")


class Coefficients:
    """Ground coefficients F_p, Q or Z: kind "prime_field", "rationals" or "integers"."""

    def __init__(self, kind: str, p: int | None = None):
        if kind == "prime_field":
            if p is None or not is_prime(p):
                raise ValueError(f"prime field needs a prime, got {p!r}")
            ops = (partial(_mod, p), partial(_neg_mod, p), partial(pow, exp=-1, mod=p), 0, 1)
        elif kind not in ("rationals", "integers"):
            raise ValueError(f"unknown coefficient kind {kind!r}")
        elif p is not None:
            raise ValueError("p only makes sense for prime fields")
        elif kind == "rationals":
            from fractions import Fraction  # only Q pays for importing fractions
            ops = (partial(_fraction, Fraction), neg, partial(truediv, Fraction(1)),
                   Fraction(0), Fraction(1))
        else:
            ops = (int, neg, _no_inverse, 0, 1)
        self.kind, self.p = kind, p
        # normalize (to 0..p-1, Fraction or int), neg, inv, zero and one are
        # chosen once; module-level functions and partials keep them picklable
        self.normalize, self.neg, self.inv, self.zero, self.one = ops

    def __eq__(self, other):
        return isinstance(other, Coefficients) and (self.kind, self.p) == (other.kind, other.p)

    def __hash__(self):
        return hash((self.kind, self.p))

    @classmethod
    def prime_field(cls, p: int) -> "Coefficients":
        return cls("prime_field", p)

    @classmethod
    def rationals(cls) -> "Coefficients":
        return cls("rationals")

    @classmethod
    def integers(cls) -> "Coefficients":
        return cls("integers")

    @property
    def is_field(self) -> bool:
        return self.kind != "integers"

    def __str__(self):
        if self.kind == "prime_field":
            return f"F{self.p}"
        return "Q" if self.kind == "rationals" else "Z"


class Matrix:
    """Sparse exact matrix stored column by column: columns[j] is the sparse
    column {row: value} of source basis element j, zeros never stored, or
    over F2, given as bits, bits[j] is column j packed, bit i for a 1 in row
    i (M4RI), and columns unpacks fresh {row: 1} dicts.  Shape is explicit,
    so zero matrices of every shape differ; columns index the source basis,
    rows the target.  The one form given is stored, not copied, and only read.
    """

    __slots__ = ("rows", "cols", "_dicts", "bits")

    def __init__(self, rows: int, cols: int, columns: list[dict] | None = None, bits: list | None = None):
        if columns is None and bits is None:
            columns = [{} for _ in range(cols)]
        elif len(given := columns if bits is None else bits) != cols:
            raise ValueError(f"{len(given)} columns given for {cols}")
        self.rows, self.cols, self._dicts, self.bits = rows, cols, columns, bits

    @property
    def columns(self) -> list[dict]:
        return self._dicts if self.bits is None else [dict.fromkeys(_ones(x), 1) for x in self.bits]

    @classmethod
    def of(cls, rows: int, vecs: list, coeffs: Coefficients) -> "Matrix":
        """Columns vecs in the vector form of coeffs: ints over F2 (bits), else dicts."""
        return cls(rows, len(vecs), bits=vecs) if coeffs.p == 2 else cls(rows, len(vecs), vecs)

    @classmethod
    def from_rows(cls, data) -> "Matrix":
        """
        >>> m = Matrix.from_rows([[1, 0], [3, 2]])
        >>> m.columns
        [{0: 1, 1: 3}, {1: 2}]
        >>> m.entries
        {(0, 0): 1, (1, 0): 3, (1, 1): 2}
        """
        n = len(data[0]) if data else 0
        return cls(len(data), n, [{i: row[j] for i, row in enumerate(data) if row[j]}
                                  for j in range(n)])

    @property
    def entries(self) -> dict:
        """The nonzeros keyed by (row, col), column by column; a fresh dict."""
        return {(i, j): v for j, col in enumerate(self.columns) for i, v in col.items()}

    def set(self, i: int, j: int, v) -> None:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i},{j}) outside {self.rows}x{self.cols}")
        if self.bits is not None:  # packed: the entry becomes v mod 2
            self.bits[j] = self.bits[j] & ~(1 << i) | (v & 1) << i
        elif v:
            self._dicts[j][i] = v
        else:
            self._dicts[j].pop(i, None)

    def get(self, i: int, j: int):
        return self._dicts[j].get(i, 0) if self.bits is None else self.bits[j] >> i & 1

    def compose(self, other: "Matrix", coeffs: Coefficients) -> "Matrix":
        """self @ other, i.e. apply other first.

        Column-wise (Gustavson) sparse product: column j of the result
        accumulates v * self[:, k] over the entries (k, v) of other's column
        j in one dict, normalized once per entry.  Over F2 the product is
        packed, column j the XOR of self's packed columns at the set bits of
        other's; a packed factor is read as stored.  Only nonzeros are stored.
        """
        if other.rows != self.cols:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} after {other.rows}x{other.cols}")
        if not self.rows:  # nothing to land on: the zero matrix, for every kind
            return Matrix(0, other.cols)
        if coeffs.p == 2:
            mine, out = self._packed(), []
            for x in other._packed():
                y = 0
                while x:  # one XOR per set bit, lowest first
                    y ^= mine[(x & -x).bit_length() - 1]
                    x &= x - 1
                out.append(y)
            return Matrix(self.rows, other.cols, bits=out)
        mine, out = self.columns, []
        for col in other.columns:
            acc: dict[int, object] = {}
            for k, v in col.items():
                for i, w in mine[k].items():
                    acc[i] = acc.get(i, 0) + w * v
            out.append(_normalized(coeffs, acc))
        return Matrix(self.rows, other.cols, out)

    def _packed(self) -> list[int]:  # over F2: bits as stored, or the dicts packed
        return self.bits if self.bits is not None else [_f2_bits(col) for col in self._dicts]

    def is_zero(self) -> bool:
        return not any(self._dicts if self.bits is None else self.bits)

    def __eq__(self, other):  # a packed matrix equals the dict form of its 1s
        return isinstance(other, Matrix) and (self.rows, self.cols, self.columns) == (
            other.rows, other.cols, other.columns)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {len(self.entries)} entries)"


def _normalized(coeffs: Coefficients, vec: dict) -> dict:
    """vec with each entry normalized once and the zeros dropped."""
    norm = coeffs.normalize
    return {i: y for i, x in vec.items() if (y := norm(x))}


def _vec_axpy(coeffs: Coefficients, v: dict, c, w: dict) -> dict:
    """v + c*w on sparse dict vectors."""
    out = dict(v)
    for i, x in w.items():
        y = coeffs.normalize(out.get(i, coeffs.zero) + c * x)
        if y:
            out[i] = y
        else:
            out.pop(i, None)
    return out


class VectorSpan:
    """Incrementally built echelon basis of a subspace of k^n (field coefficients).

    pivots maps each pivot's lead, its lowest key, to its row scaled to a
    leading 1; reduce(v) is the unique normal form of v modulo the span.
    Tags ride along and never pivot: insert(v, k) adjoins v with a 1 at tag
    k, and the tags of reduce(v) then hold minus v's combination of the
    tagged vectors (Cohen, GTM 138, 2.3).  The vector form is chosen once
    per instance.  Over F2 a vector is one int, bit i for key i, its tags a
    second int, bit k for tag k, a row the pair of them, and a reduction
    step two XORs (M4RI, Albrecht-Bard-Hart, ACM TOMS 2010).  Over F_p and Q
    a vector is a sparse dict that holds tag k at key -1-k.
    """

    def __init__(self, coeffs: Coefficients):
        if not coeffs.is_field:
            raise ValueError("VectorSpan needs field coefficients")
        self.coeffs = coeffs
        self.pivots: dict[int, dict | tuple[int, int]] = {}  # lead -> row
        self._bits, self._leads = coeffs.p == 2, 0  # over F2, _leads has bit i for lead i

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, v):
        """The normal form of v: no key of it is a pivot lead.  Over F2 the
        pair (keys, tags) of ints."""
        if self._bits:
            return self._reduce_bits(v, 0)
        c, pivots = self.coeffs, self.pivots
        v = _normalized(c, v)
        while True:
            hit = None
            for i in v:
                if i in pivots:
                    hit = i if hit is None or i < hit else hit
            if hit is None:
                return v
            v = _vec_axpy(c, v, c.neg(v[hit]), pivots[hit])

    def _reduce_bits(self, x: int, tags: int) -> tuple[int, int]:
        """reduce over F2 on (key bits, tag bits), the lowest pivot lead first."""
        pivots, leads = self.pivots, self._leads
        while hit := x & leads:
            row, tag_row = pivots[(hit & -hit).bit_length() - 1]
            x, tags = x ^ row, tags ^ tag_row
        return x, tags

    def insert(self, v, tag: int | None = None) -> bool:
        """Adjoin v, with a 1 at tag `tag` if one is given; True if it enlarged the span."""
        return self._adjoin(v, tag) is None

    def _adjoin(self, v, tag: int | None = None):
        """insert, reduced once: None if v enlarged the span, else the tags of its
        normal form (an int over F2, else a dict of negative keys)."""
        if self._bits:
            x, tags = self._reduce_bits(v, 0 if tag is None else 1 << tag)
            if x:
                self.pivots[(x & -x).bit_length() - 1] = (x, tags)
                self._leads |= x & -x
            return None if x else tags
        v = self.reduce(v if tag is None else {**v, -1 - tag: 1})
        lead = min((i for i in v if i >= 0), default=None)
        if lead is None:
            return v
        c = self.coeffs
        scale = c.inv(v[lead])
        self.pivots[lead] = {i: c.normalize(scale * x) for i, x in v.items()}
        return None

    def contains(self, v) -> bool:  # v reduces to zero, tags included
        return not any(self.reduce(v)) if self._bits else not self.reduce(v)


def _f2_bits(col: dict) -> int:
    """A sparse column over F2 as one int, bit i set when entry i is odd."""
    x = 0
    for i, v in col.items():
        if v & 1:
            x |= 1 << i
    return x


def _ones(x: int) -> list[int]:
    """The positions of the set bits of x >= 0, lowest first."""
    s, out, i = bin(x)[:1:-1], [], 0
    while (i := s.find("1", i)) >= 0:
        out.append(i)
        i += 1
    return out


def rank_over_field(m: Matrix, coeffs: Coefficients) -> int:
    """Rank by column elimination that keeps no coordinates; rejects Z.

    Entries may be unreduced (negative, or at least p).  Each column is
    reduced against the pivot columns found so far, keyed by their lowest
    nonzero row, and becomes a pivot itself if anything is left.  Over F2 a
    column is one int (Matrix._packed: a packed matrix is read as stored)
    and a step one XOR; over F_p and Q a sparse dict, pivots scaled to a
    leading 1.  No combination is kept: VectorSpan and kernel_basis do that.

    >>> rank_over_field(Matrix.from_rows([[1, 1], [1, 1]]), Coefficients.prime_field(2))
    1
    >>> rank_over_field(Matrix.from_rows([[1, 2], [2, 1]]), Coefficients.prime_field(3))
    1
    """
    if not coeffs.is_field:
        raise ValueError("rank over a field only; use smith_normal_form over Z")
    if not m.rows:
        return 0
    if coeffs.p == 2:
        lows: dict[int, int] = {}  # lowest set bit -> pivot column
        for x in m._packed():
            while x:
                low = x & -x
                y = lows.get(low)
                if y is None:
                    lows[low] = x
                    break
                x ^= y
        return len(lows)
    # over F_p an inline % p reduces each entry, with no call; Q calls normalize
    p, norm, inv = coeffs.p, coeffs.normalize, coeffs.inv
    leads: dict[int, dict] = {}  # lowest row -> pivot column, entry there 1
    for col in m.columns:
        v = {i: y for i, x in col.items() if (y := x % p if p else norm(x))}
        while v:
            lead = min(v)
            row = leads.get(lead)
            if row is None:
                scale = inv(v[lead])
                leads[lead] = {i: x * scale % p if p else norm(x * scale) for i, x in v.items()}
                break
            f = v[lead]
            for i, x in row.items():
                y = v.get(i, 0) - f * x
                if y := y % p if p else norm(y):
                    v[i] = y
                else:
                    del v[i]
    return len(leads)


def span_and_kernel(columns: list, coeffs: Coefficients) -> tuple[VectorSpan, list]:
    """(span, kernel) of the columns inserted into one VectorSpan in order,
    column j with tag j, each in the span's form (ints over F2).

    If column j reduces to tags alone, it is sum_k a_k col_k over the
    earlier pivot columns k, and its tags are e_j - sum_k a_k e_k, its
    kernel vector: one per dependent column, over F2 an int, bit j for
    column j.  The span stays open, so a caller can test and adjoin more.
    """
    span, kernel = VectorSpan(coeffs), []
    for j, col in enumerate(columns):
        if (v := span._adjoin(col, j)) is not None:
            kernel.append(v if span._bits else {-1 - i: x for i, x in v.items()})
    return span, kernel


def kernel_basis(m: Matrix, coeffs: Coefficients) -> list:
    """Basis of ker(m), by span_and_kernel on the columns of m as stored."""
    if not coeffs.is_field:
        raise ValueError("kernel basis over a field only")
    return span_and_kernel(m._packed() if coeffs.p == 2 else m.columns, coeffs)[1]


# ---------------------------------------------------------------------------
# integer matrices: Smith normal form and lattice arithmetic


def _swap_rows(a, i, j):
    a[i], a[j] = a[j], a[i]


def _swap_cols(a, i, j):
    for row in a:
        row[i], row[j] = row[j], row[i]


def smith_normal_form(m: Matrix) -> tuple[int, ...]:
    """Positive invariant factors d_1 | d_2 | ... of an integer matrix.

    >>> smith_normal_form(Matrix.from_rows([[2, 0], [0, 3]]))
    (1, 6)
    >>> smith_normal_form(Matrix(3, 2))
    ()
    """
    raw, _, _ = smith_with_transforms(m, need_s=False, need_t=False)
    return _divisibility_chain(raw)


def _divisibility_chain(raw) -> tuple[int, ...]:
    """Invariant factors of a diagonal matrix with positive entries raw,
    by gcd/lcm swaps (valid on a diagonal)."""
    diag = list(raw)
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            x, y = diag[i], diag[i + 1]
            if y % x:
                g = gcd(x, y)
                diag[i], diag[i + 1] = g, x * y // g
                changed = True
    diag.sort()
    return tuple(diag)


def smith_with_transforms(m: Matrix, need_s: bool = True, need_t: bool = True):
    """Diagonalize over Z: returns (raw, S, T) with S*m*T = diag(raw, then zeros).

    raw holds the positive diagonal entries in matrix order, not yet forced
    into a divisibility chain; S and T are unimodular, and each is None, its
    bookkeeping skipped, unless need_s or need_t asks for it.  Exact
    big-integer arithmetic throughout, in two phases (Kaczynski-Mrozek-Slusarek
    1998, Dumas-Saunders-Villard 2001):

    * Sparse: the row operations need a row view, so the columns of m are
      turned into rows, {col: value} dicts, with a row set per column.  The
      next pivot is a +-1 entry of least Markowitz cost (r-1)(c-1), so
      singletons go first.  Row operations clear its column; the column
      operations that clear its row touch no other row, so they only enter
      T.  The pivot row and column then leave with invariant factor 1.
    * Dense: the nonzero rows and columns left over, which hold no unit,
      go to the pivot search of _dense_smith, whose transforms are composed
      with the sparse ones.  Chain-complex and relation matrices usually
      leave nothing over, and then it is not called.
    """
    rows: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set[int]] = {}
    for j, col in enumerate(m.columns):
        for i, v in col.items():
            if not isinstance(v, int):
                raise ValueError("integer matrix required")
            if v:
                rows.setdefault(i, {})[j] = v
                col_rows.setdefault(j, set()).add(i)
    z = Coefficients.integers()
    s_rows = {i: {i: 1} for i in range(m.rows)} if need_s else None
    t_cols = {j: {j: 1} for j in range(m.cols)} if need_t else None

    def cost(i, j):
        return (len(rows[i]) - 1) * (len(col_rows[j]) - 1)

    heap = [(cost(i, j), i, j) for i, row in rows.items()
            for j, v in row.items() if v == 1 or v == -1]
    heapq.heapify(heap)
    pivots: list[tuple[int, int, int]] = []  # (row, col, unit)
    while heap:
        known, i, j = heapq.heappop(heap)
        row = rows.get(i)
        u = row.get(j) if row is not None else None
        if u != 1 and u != -1:
            continue  # stale: the entry was eliminated or changed
        now = cost(i, j)
        if now > known:
            heapq.heappush(heap, (now, i, j))
            continue
        del rows[i]
        for k in row:
            col_rows[k].discard(i)
        for i2 in col_rows.pop(j):  # row_i2 -= f * row_i clears (i2, j)
            r2 = rows[i2]
            f = r2.pop(j) * u
            for k, v in row.items():
                if k == j:
                    continue
                y = r2.get(k, 0) - f * v
                if y:
                    if k not in r2:
                        col_rows[k].add(i2)
                    r2[k] = y
                    if y == 1 or y == -1:
                        heapq.heappush(heap, (cost(i2, k), i2, k))
                else:
                    del r2[k]
                    col_rows[k].discard(i2)
            if s_rows is not None:
                s_rows[i2] = _vec_axpy(z, s_rows[i2], -f, s_rows[i])
        if t_cols is not None:  # col_k -= row[k] * u * col_j clears row i
            tj = t_cols[j]
            for k, v in row.items():
                if k != j:
                    t_cols[k] = _vec_axpy(z, t_cols[k], -v * u, tj)
        pivots.append((i, j, u))

    raw = [1] * len(pivots)
    left_rows = sorted(i for i, row in rows.items() if row)
    left_cols = sorted(j for j, rs in col_rows.items() if rs)
    d_s = d_t = None
    if left_rows:
        pos = {j: k for k, j in enumerate(left_cols)}
        block = [[0] * len(left_cols) for _ in left_rows]
        for a, i in enumerate(left_rows):
            for j, v in rows[i].items():
                block[a][pos[j]] = v
        d_raw, d_s, d_t = _dense_smith(block, need_s, need_t)
        raw.extend(d_raw)
    s = t = None
    if need_s:  # S rows: pivot rows times their unit, leftover rows mixed by d_s, zero rows
        s_out = [{k: u * x for k, x in s_rows[i].items()} for i, _, u in pivots]
        for coeffs in d_s or ():
            acc: dict[int, int] = {}
            for b, c in enumerate(coeffs):
                if c:
                    acc = _vec_axpy(z, acc, c, s_rows[left_rows[b]])
            s_out.append(acc)
        done = {i for i, _, _ in pivots}.union(left_rows)
        s_out.extend(s_rows[i] for i in range(m.rows) if i not in done)
        s_cols: list[dict] = [{} for _ in range(m.rows)]
        for a, row in enumerate(s_out):
            for i, v in row.items():
                s_cols[i][a] = v
        s = Matrix(m.rows, m.rows, s_cols)
    if need_t:  # T columns: pivot columns, leftover columns mixed by d_t, the rest
        t_out = [t_cols[j] for _, j, _ in pivots]
        for a in range(len(left_cols)):
            acc = {}
            for b, j in enumerate(left_cols):
                c = d_t[b][a]
                if c:
                    acc = _vec_axpy(z, acc, c, t_cols[j])
            t_out.append(acc)
        done = {j for _, j, _ in pivots}.union(left_cols)
        t_out.extend(t_cols[j] for j in range(m.cols) if j not in done)
        t = Matrix(m.cols, m.cols, t_out)
    return tuple(raw), s, t


def _dense_smith(a: list[list[int]], need_s: bool, need_t: bool):
    """Dense Smith diagonalization of the nonempty block a, in place:
    (raw, S, T) as lists of rows, S None unless need_s, T None unless need_t.

    Searches the whole remaining block for the smallest pivot at every step;
    smith_with_transforms only hands it what sparse elimination left over.
    """
    rows, cols = len(a), len(a[0])
    s = [[int(i == j) for j in range(rows)] for i in range(rows)] if need_s else None
    t = [[int(i == j) for j in range(cols)] for i in range(cols)] if need_t else None

    def row_op(i, j, c):  # row_i += c*row_j
        ai, aj = a[i], a[j]
        for k in range(cols):
            ai[k] += c * aj[k]
        if s is not None:
            si, sj = s[i], s[j]
            for k in range(rows):
                si[k] += c * sj[k]

    def col_op(i, j, c):  # col_i += c*col_j
        for row in a:
            row[i] += c * row[j]
        if t is not None:
            for row in t:
                row[i] += c * row[j]

    k = 0
    limit = min(rows, cols)
    while k < limit:
        # smallest nonzero entry of the remaining block becomes the pivot
        best = None
        for i in range(k, rows):
            for j in range(k, cols):
                v = a[i][j]
                if v and (best is None or abs(v) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i, j = best
        if i != k:
            _swap_rows(a, k, i)
            if s is not None:
                _swap_rows(s, k, i)
        if j != k:
            _swap_cols(a, k, j)
            if t is not None:
                _swap_cols(t, k, j)
        dirty = False
        for i in range(k + 1, rows):
            if a[i][k]:
                q = a[i][k] // a[k][k]
                row_op(i, k, -q)
                if a[i][k]:
                    dirty = True
        for j in range(k + 1, cols):
            if a[k][j]:
                q = a[k][j] // a[k][k]
                col_op(j, k, -q)
                if a[k][j]:
                    dirty = True
        if dirty:
            continue  # remainders survive, pick a smaller pivot next pass
        if a[k][k] < 0:
            row_op(k, k, -2)  # row_k -= 2*row_k negates row k of a and of s
        k += 1

    raw = tuple(a[i][i] for i in range(limit) if a[i][i])
    return raw, s, t


def rational_rank(m: Matrix) -> int:
    """Rank over Q of an integer matrix by fraction-free column elimination,
    sharing no code with the SNF it checks: a column whose lowest row is a
    pivot's becomes a*v - b*pivot, a and b the two entries there over their
    gcd, and is then divided by its content.

    >>> rational_rank(Matrix.from_rows([[2, 4], [3, 6]]))
    1
    """
    leads: dict[int, dict] = {}  # lowest row -> pivot column
    for col in m.columns:
        v = {i: x for i, x in col.items() if x}
        while v:
            lead = min(v)
            pivot = leads.get(lead)
            if pivot is None:
                leads[lead] = v
                break
            g = gcd(v[lead], pivot[lead])
            a, b = pivot[lead] // g, v[lead] // g
            v = {i: a * v.get(i, 0) - b * pivot.get(i, 0) for i in v.keys() | pivot.keys()}
            c = gcd(*v.values())
            v = {i: x // c for i, x in v.items() if x}
    return len(leads)


def integer_kernel_basis(m: Matrix) -> list[dict]:
    """Lattice basis of the integer kernel (columns of T past the rank)."""
    d, _, t = smith_with_transforms(m, need_s=False)
    return [col for col in t.columns[len(d):] if col]


class IntegerLattice:
    """The column lattice of an integer matrix, with exact membership tests."""

    def __init__(self, m: Matrix):
        self.m = m
        self.d, self.s, _ = smith_with_transforms(m, need_t=False)

    @property
    def rank(self) -> int:
        return len(self.d)

    def cokernel_invariants(self) -> tuple[int, tuple[int, ...]]:
        """(free rank, torsion factors > 1) of Z^rows / this lattice, as
        cokernel_invariants(m) gives them."""
        d = _divisibility_chain(self.d)
        return self.m.rows - len(d), tuple(v for v in d if v > 1)

    def contains(self, v: dict) -> bool:
        """x in col-lattice(m) iff S*x is divisible by the invariant factors;
        only the columns of S that x touches are read."""
        sx, columns = {}, self.s._dicts  # S is an integer matrix: dict columns, read as a slot
        for j, x in v.items():
            if x:
                for i, w in columns[j].items():
                    sx[i] = sx.get(i, 0) + w * x
        d = self.d
        return all(not val or (i < len(d) and val % d[i] == 0) for i, val in sx.items())

    def quotient_invariants(self, b: Matrix) -> tuple[int, tuple[int, ...]]:
        """(free rank, torsion factors > 1) of this lattice / col-lattice(b);
        requires col(b) inside this lattice."""
        if self.m.rows != b.rows:
            raise ValueError("ambient ranks differ")
        r = self.rank
        # coordinates of b's columns in the lattice basis: rows of S*b scaled by 1/d_i
        sb = self.s.compose(b, Coefficients.integers())
        if any(i >= r or v % self.d[i] for col in sb.columns for i, v in col.items()):
            raise ValueError("second lattice is not contained in the first")
        coords = [{i: v // self.d[i] for i, v in col.items()} for col in sb.columns]
        dd = smith_normal_form(Matrix(r, b.cols, coords))
        return r - len(dd), tuple(v for v in dd if v > 1)


def cokernel_invariants(m: Matrix) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion factors > 1) of Z^rows / column-lattice(m).

    >>> cokernel_invariants(Matrix.from_rows([[9]]))
    (0, (9,))
    """
    d = smith_normal_form(m)
    free = m.rows - len(d)
    return free, tuple(v for v in d if v > 1)
