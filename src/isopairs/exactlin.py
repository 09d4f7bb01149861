"""Exact rational scalars and linear algebra.

Everything in the package runs over the rationals: scalars are
``fractions.Fraction`` (arbitrary precision, always reduced, positive
denominator).  Dense vectors are tuples of scalars; sparse vectors are
dicts column -> scalar, combined with ``axpy``.  ``Matrix`` keeps its
rows as sparse vectors, and ``IncrementalSpan`` keeps its echelon rows
as fraction-free integer dicts.  No floating point anywhere.  Row
reduction, span membership, kernels and span intersections are the
workhorses used by the pair builders and the word-module engine.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def scalar_to_str(x: Fraction) -> str:
    """Render a scalar as "p/q", or "p" when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def scalar_from_str(s: str) -> Fraction:
    """Parse the "p/q" / "p" wire format, a string or an integer, back
    into a scalar; anything else, such as a float, raises ValueError
    instead of being read approximately."""
    if type(s) not in (str, int):  # bool is an int subclass
        raise ValueError(f"scalar must be a string or an integer, got {s!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar {s!r}") from None


def vec(entries: Iterable) -> tuple[Fraction, ...]:
    return tuple(Fraction(e) for e in entries)


def unit_vec(n: int, i: int) -> tuple[Fraction, ...]:
    return tuple(ONE if j == i else ZERO for j in range(n))


def axpy(acc: dict, f, v: dict) -> dict:
    """``acc += f * v`` in place over sparse dicts; keys that cancel are
    dropped and zero terms never stored.  Returns ``acc``."""
    one, neg = f == 1, f == -1
    for k, x in v.items():
        x = x if one else -x if neg else f * x
        y = acc.get(k)
        if y is None:
            if x:
                acc[k] = x
        else:
            y += x
            if y:
                acc[k] = y
            else:
                del acc[k]
    return acc


class DimensionMismatch(ValueError):
    """Raised when vector or matrix dimensions are inconsistent."""


class Matrix:
    """Immutable exact matrix on sparse rows.

    Row i is a dict column -> Fraction holding only the nonzero entries
    of that row, and a row with none is absent.  Sum, difference, scale,
    transpose and product work row by row over the nonzeros with
    ``axpy``; the product is the row-wise sparse product (Gustavson,
    ACM TOMS 4, 1978), so an operation costs what its nonzeros cost,
    not what its shape does.  ``nonzeros`` reads the entries back.
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows: int, cols: int, entries: Iterable = ()):
        """rows x cols matrix from (i, j, value) triples; the values
        given for one position are summed and zero entries dropped.
        Indices must be ints (numpy's too): others raise TypeError."""
        data: dict = {}
        for i, j, x in entries:
            i, j = operator.index(i), operator.index(j)
            if not (0 <= i < rows and 0 <= j < cols):
                raise DimensionMismatch(f"entry ({i}, {j}) outside a {rows} x {cols} matrix")
            axpy(data.setdefault(i, {}), ONE, {j: Fraction(x)})
        self.rows, self.cols = rows, cols
        self._data = {i: row for i, row in data.items() if row}

    @classmethod
    def _make(cls, rows: int, cols: int, data: dict) -> "Matrix":
        """Trusted constructor for results: ``data`` maps rows to
        nonempty dicts of nonzero Fractions inside the shape."""
        m = object.__new__(cls)
        m.rows, m.cols, m._data = rows, cols, data
        return m

    @staticmethod
    def from_rows(rows: Iterable[Iterable]) -> "Matrix":
        rows = [vec(r) for r in rows]
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            raise DimensionMismatch("ragged rows")
        data = {i: {j: x for j, x in enumerate(r) if x} for i, r in enumerate(rows)}
        data = {i: r for i, r in data.items() if r}
        return Matrix._make(len(rows), widths.pop() if widths else 0, data)

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix._make(rows, cols, {})

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix._make(n, n, {i: {i: ONE} for i in range(n)})

    def nonzeros(self) -> Iterator[tuple[int, int, Fraction]]:
        """The nonzero entries as (i, j, value), in row-major order."""
        for i in sorted(self._data):
            row = self._data[i]
            for j in sorted(row):
                yield i, j, row[j]

    def flat(self) -> dict:
        """The nonzero entries keyed by row-major index i * cols + j, in
        no set order."""
        n = self.cols
        return {i * n + j: x for i, row in self._data.items() for j, x in row.items()}

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self._data.get(i, {}).get(j, ZERO)

    def row(self, i: int) -> tuple[Fraction, ...]:
        row = self._data.get(i, {})
        return tuple(row.get(j, ZERO) for j in range(self.cols))

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(self[i, j] for i in range(self.rows))

    def transpose(self) -> "Matrix":
        out: dict = {}
        for i, row in self._data.items():
            for j, x in row.items():
                out.setdefault(j, {})[i] = x
        return Matrix._make(self.cols, self.rows, out)

    def _combine(self, other: "Matrix", f: Fraction, what: str) -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(f"matrix {what} shape mismatch")
        out = dict(self._data)
        for i, row in other._data.items():
            acc = axpy(dict(out.get(i, ())), f, row)
            if acc:
                out[i] = acc
            else:
                del out[i]
        return Matrix._make(self.rows, self.cols, out)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, ONE, "addition")

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, -ONE, "subtraction")

    def __neg__(self) -> "Matrix":
        return self.scale(-ONE)

    def scale(self, c) -> "Matrix":
        c = Fraction(c)
        if not c:
            return Matrix.zeros(self.rows, self.cols)
        data = {i: {j: c * x for j, x in row.items()} for i, row in self._data.items()}
        return Matrix._make(self.rows, self.cols, data)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch("matrix product shape mismatch")
        # row i of the product sums a * (row k of other) over the
        # nonzero entries a = self[i, k]
        out = {}
        for i, row in self._data.items():
            acc: dict = {}
            for k, a in row.items():
                b = other._data.get(k)
                if b:
                    axpy(acc, a, b)
            if acc:
                out[i] = acc
        return Matrix._make(self.rows, other.cols, out)

    def apply(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        if self.cols != len(v):
            raise DimensionMismatch("matrix-vector shape mismatch")
        return tuple(
            sum((x * v[j] for j, x in self._data.get(i, {}).items()), ZERO)
            for i in range(self.rows)
        )

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise DimensionMismatch("trace of a non-square matrix")
        return sum((row.get(i, ZERO) for i, row in self._data.items()), ZERO)

    def is_zero(self) -> bool:
        return not self._data

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self._data) == (other.rows, other.cols, other._data)

    def __repr__(self) -> str:
        return f"Matrix({self.rows}, {self.cols}, {list(self.nonzeros())!r})"


def rref(m: Matrix) -> tuple[int, Matrix, tuple[int, ...]]:
    """Reduced row-echelon form.

    Returns ``(rank, reduced, pivots)``; ``reduced`` is the unique RREF of
    ``m`` over the rationals and ``pivots`` the pivot column indices.
    """
    rows = [dict(m._data.get(i, ())) for i in range(m.rows)]
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        pr = next((i for i in range(r, m.rows) if c in rows[i]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = {j: x * inv for j, x in rows[r].items()}
        for i in range(m.rows):
            if i != r and c in rows[i]:
                axpy(rows[i], -rows[i][c], rows[r])
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    data = {i: row for i, row in enumerate(rows) if row}
    return r, Matrix._make(m.rows, m.cols, data), tuple(pivots)


def span_basis(vectors: Sequence[Sequence[Fraction]]) -> list[tuple[Fraction, ...]]:
    """Canonical (RREF-row) basis of the span of the given vectors."""
    vectors = [vec(v) for v in vectors]
    if not vectors:
        return []
    rank, red, _ = rref(Matrix.from_rows(vectors))
    return [red.row(i) for i in range(rank)]


def rank_of(vectors: Sequence[Sequence[Fraction]]) -> int:
    return len(span_basis(vectors))


def solve_in_span(
    basis: Sequence[Sequence[Fraction]], v: Sequence[Fraction]
) -> Optional[tuple[Fraction, ...]]:
    """Exact coefficients of ``v`` in terms of ``basis``, or None.

    Returns a coefficient tuple ``c`` with ``sum c_i basis_i == v`` iff
    ``v`` lies in the span; raises on ambient-dimension mismatch.
    """
    basis = [vec(b) for b in basis]
    v = vec(v)
    for b in basis:
        if len(b) != len(v):
            raise DimensionMismatch("basis/vector length mismatch")
    if not basis:
        return None if any(v) else ()
    # Columns are the basis vectors, augmented with v.
    n = len(v)
    aug = Matrix.from_rows(
        [[basis[j][i] for j in range(len(basis))] + [v[i]] for i in range(n)]
    )
    rank, red, pivots = rref(aug)
    if len(basis) in pivots:  # v is not a combination
        return None
    coeffs = [ZERO] * len(basis)
    for r, c in enumerate(pivots):
        coeffs[c] = red[r, len(basis)]
    return tuple(coeffs)


def kernel_basis(m: Matrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel {x : m x = 0}."""
    rank, red, pivots = rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    out = []
    for f in free:
        x = [ZERO] * m.cols
        x[f] = ONE
        for r, c in enumerate(pivots):
            x[c] = -red[r, f]
        out.append(tuple(x))
    return out


def intersect_spans(
    a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]
) -> list[tuple[Fraction, ...]]:
    """Basis of span(a) ∩ span(b), both inside the same ambient space."""
    a = [vec(v) for v in a]
    b = [vec(v) for v in b]
    dims = {len(v) for v in a + b}
    if len(dims) > 1:
        raise DimensionMismatch("ambient dimension mismatch")
    if not a or not b:
        return []
    n = dims.pop()
    # x in both spans: sum s_i a_i - sum t_j b_j = 0; read intersection
    # vectors off the a-part of the kernel.
    m = Matrix.from_rows(
        [[a[j][i] for j in range(len(a))] + [-b[j][i] for j in range(len(b))] for i in range(n)]
    )
    vectors = []
    for k in kernel_basis(m):
        # zip stops at the a-part of k
        w = tuple(sum((s * av[i] for s, av in zip(k, a)), ZERO) for i in range(n))
        if any(w):
            vectors.append(w)
    return span_basis(vectors)


class IncrementalSpan:
    """Growing span with sparse echelon rows and membership solving.

    Vectors are sparse dicts column->Fraction.  Rows are kept in echelon
    form, as primitive integer dicts: each row's pivot, the first column
    of its support in the ``pivot`` order (its minimum for "min",
    maximum for "max"), holds a positive entry p, row / p is the
    unit-pivot row, and no two rows share a pivot.  Rows are not
    reduced against later pivots, so an insert touches only the new
    row.  Reduction is fraction-free, after Bareiss: a vector is scaled
    to integers once, and a step multiplies it by p / gcd instead of
    dividing by p.  When ``track_combos`` is set, each row remembers its
    unit-pivot form's expression in the inserted vectors, so ``solve``
    can return exact coefficients over the insertion order.
    """

    def __init__(self, track_combos: bool = False, pivot: str = "min"):
        if pivot not in ("min", "max"):
            raise ValueError("pivot must be 'min' or 'max'")
        self.rows: list[dict] = []
        self.combos: list[dict] = []
        self.row_by_pivot: dict[int, int] = {}
        self.track_combos = track_combos
        self.inserted = 0
        self._pick = min if pivot == "min" else max

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def pivots(self) -> set:
        return set(self.row_by_pivot)

    def _reduce(self, v: dict) -> tuple[dict, int, dict]:
        """(r, D, combo): the residual of v is r / D, with r an integer
        dict; the combo is as in ``reduce``."""
        D = math.lcm(*(x.denominator for x in v.values()))
        r = {c: x.numerator * (D // x.denominator) for c, x in v.items() if x}
        combo: dict = {}
        # clear reducible columns in pivot order: a row's entries lie at
        # or after its pivot in that order, so each step writes only to
        # later columns and a cleared column is never reintroduced
        while True:
            cols = [c for c in r if c in self.row_by_pivot]
            if not cols:
                break
            col = self._pick(cols)
            i = self.row_by_pivot[col]
            row = self.rows[i]
            a, p = r[col], row[col]
            if self.track_combos:
                axpy(combo, Fraction(a, D), self.combos[i])
            if p != 1:  # r <- (p/g) r - (a/g) row stays integral
                g = math.gcd(a, p)
                a, p = a // g, p // g
                for c in r:
                    r[c] *= p
                D *= p
            axpy(r, -a, row)
        g = math.gcd(D, *r.values())
        if g != 1:
            r, D = {c: x // g for c, x in r.items()}, D // g
        return r, D, combo

    def reduce(self, v: dict) -> tuple[dict, dict]:
        """Residual of v modulo the span, and the combination of inserted
        vectors it subtracts (``{}`` unless combos are tracked).

        The residual is the normal form of v: the only vector congruent
        to v modulo the span with no entries at pivot columns, since a
        nonzero span element has an entry at the pivot of the first row,
        in pivot order, that it uses.
        """
        r, D, combo = self._reduce(v)
        return {c: Fraction(x, D) for c, x in r.items()}, combo

    def insert(self, v: dict) -> bool:
        """Add v to the span; returns True iff the rank grew.  Only
        rank-growing insertions consume a combo index, so ``solve``
        coefficients refer to the kept vectors in insertion order."""
        r, D, combo = self._reduce(v)
        if not r:
            return False
        idx = self.inserted
        self.inserted += 1
        pivot = self._pick(r)
        if self.track_combos:
            inv = Fraction(D, r[pivot])
            combo = {j: -x * inv for j, x in combo.items()}
            combo[idx] = inv
        g = math.gcd(*r.values()) if r[pivot] > 0 else -math.gcd(*r.values())
        self.row_by_pivot[pivot] = len(self.rows)
        self.rows.append({c: x // g for c, x in r.items()})
        self.combos.append(combo)
        return True

    def contains(self, v: dict) -> bool:
        return not self._reduce(v)[0]

    def solve(self, v: dict) -> Optional[dict]:
        """Coefficients over the inserted vectors, or None if v is
        outside the span (requires track_combos)."""
        if not self.track_combos:
            raise ValueError("span was built without combo tracking")
        r, _, combo = self._reduce(v)
        if r:
            return None
        return combo


def invert(m: Matrix) -> Matrix:
    """Exact inverse; raises ValueError on singular input."""
    if m.rows != m.cols:
        raise DimensionMismatch("inverse of a non-square matrix")
    n = m.rows
    aug = Matrix._make(n, 2 * n, {i: {**m._data.get(i, {}), n + i: ONE} for i in range(n)})
    rank, red, pivots = rref(aug)
    if rank < n or pivots[:n] != tuple(range(n)):
        raise ValueError("singular matrix")
    data = {i: {j - n: x for j, x in row.items() if j >= n} for i, row in red._data.items()}
    return Matrix._make(n, n, data)
