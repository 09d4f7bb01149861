"""Exact rational scalars and linear algebra.

Everything in the package runs over the rationals: scalars are
``fractions.Fraction`` (arbitrary precision, always reduced, positive
denominator).  Vectors are sparse dicts column -> scalar, holding only
nonzero entries and combined with ``axpy``; dense lists appear only at
the wire formats and in public signatures that take coordinates.
``Matrix`` keeps its rows as sparse vectors.  No floating point
anywhere.

There is one elimination engine, ``IncrementalSpan``: a fraction-free
integer echelon for span membership and solving, whose ``reduced``
read-out is the reduced row-echelon form and whose ``kernel`` read-out
is the annihilator of the span; ``close`` spans a list and closes it
under a map.  Kernels, canonical span bases and inverses are read off
it; the dense Gauss-Jordan elimination they are checked against lives
in the tests.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Iterable, Iterator, Optional

Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def scalar_to_str(x: Fraction) -> str:
    """Render a scalar as "p/q", or "p" when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


_SCALAR = re.compile(r"\s*[+-]?[0-9]+(/[0-9]+)?\s*")


def scalar_from_str(s: str) -> Fraction:
    """Parse the "p/q" / "p" wire format, a string or an integer, back
    into a scalar.  A string is an optional sign, ASCII digits and an
    optional "/digits", with optional surrounding whitespace; anything
    else (a float, an exponent, a decimal point, "_", non-ASCII digits)
    raises ValueError instead of being read approximately or expanded."""
    if type(s) not in (str, int):  # bool is an int subclass
        raise ValueError(f"scalar must be a string or an integer, got {s!r}")
    if type(s) is str and not _SCALAR.fullmatch(s):
        raise ValueError(f"malformed scalar {s[:40]!r}: expected p or p/q")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar {s!r}") from None


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
        rows = [[Fraction(x) for x in r] for r in rows]
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
        self._pick = min if pivot == "min" else max

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def pivots(self) -> set:
        return set(self.row_by_pivot)

    def _reduce(self, v: dict) -> tuple[dict, int, dict]:
        """(r, D, combo): the residual of v is r / D, with r an integer
        dict, and v minus the residual is the combination ``combo`` of
        inserted vectors (``{}`` unless combos are tracked)."""
        if all(type(x) is int and x for x in v.values()):  # already integers
            D, r = 1, dict(v)
        else:
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
        g = math.gcd(D, *r.values()) if D > 1 else 1
        if g != 1:
            r, D = {c: x // g for c, x in r.items()}, D // g
        return r, D, combo

    def reduce(self, v: dict) -> dict:
        """Residual of v modulo the span (``solve`` gives the combination
        of inserted vectors instead).

        The residual is the normal form of v: the only vector congruent
        to v modulo the span with no entries at pivot columns, since a
        nonzero span element has an entry at the pivot of the first row,
        in pivot order, that it uses.
        """
        r, D, _ = self._reduce(v)
        return {c: Fraction(x, D) for c, x in r.items()}

    def insert(self, v: dict) -> bool:
        """Add v to the span; returns True iff the rank grew.  Only
        rank-growing insertions consume a combo index, so ``solve``
        coefficients refer to the kept vectors in insertion order."""
        r, D, combo = self._reduce(v)
        if not r:
            return False
        pivot = self._pick(r)
        if self.track_combos:
            inv = Fraction(D, r[pivot])
            combo = {j: -x * inv for j, x in combo.items()}
            combo[len(self.rows)] = inv
        g = math.gcd(*r.values()) if r[pivot] > 0 else -math.gcd(*r.values())
        self.row_by_pivot[pivot] = len(self.rows)
        self.rows.append({c: x // g for c, x in r.items()})
        self.combos.append(combo)
        return True

    def close(self, vectors: Iterable[dict], images=lambda v: ()) -> "IncrementalSpan":
        """Insert ``vectors`` in order, then, last inserted first, what
        ``images(v)`` yields for each v that grew the span, until nothing
        grows it; returns the span.  For a linear ``images`` that is the
        least invariant span holding ``vectors``, whatever their order; a
        partial one (yielding nothing for some v) makes the order matter."""
        stack = [v for v in vectors if self.insert(v)]
        while stack:
            for w in images(stack.pop()):
                if self.insert(w):
                    stack.append(w)
        return self

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

    def reduced(self) -> tuple[list[int], list[dict]]:
        """The span's reduced row-echelon form: the pivots in ascending
        order and, for each, the span vector that is 1 at that pivot and
        0 at the others, as a Fraction dict.  It is unique, so it is the
        RREF of any matrix whose rows span the same space (with pivot
        "max", of that matrix with its columns reversed).  Back-
        substitution: each echelon row, scaled to a unit pivot, has its
        entries at later pivots, in pivot order, cleared by the rows
        already reduced, which are 0 at every other pivot."""
        red: dict = {}
        for p in sorted(self.row_by_pivot, reverse=self._pick is min):
            row = self.rows[self.row_by_pivot[p]]
            v = {c: Fraction(x, row[p]) for c, x in row.items()}
            for q in [c for c in v if c in red]:
                axpy(v, -v[q], red[q])
            red[p] = v
        pivots = sorted(red)
        return pivots, [red[p] for p in pivots]

    def kernel(self, cols: Iterable[int]) -> list[dict]:
        """Basis of the annihilator of the span, {x : sum_c row[c] x[c]
        = 0 for every span vector}, among the vectors supported on
        ``cols``, which must hold every column the span uses: for each
        free column f of ``cols``, in their order, the vector e_f - sum_r
        red[r][f] e_(pivot r) of the reduced form, keys ascending."""
        pivots, red = self.reduced()
        return [dict(sorted([(p, -r[f]) for p, r in zip(pivots, red) if f in r] + [(f, ONE)]))
                for f in cols if f not in self.row_by_pivot]


def span_basis(vectors: Iterable[dict]) -> list[dict]:
    """Canonical (RREF-row) basis of the span of the sparse vectors."""
    return IncrementalSpan().close(vectors).reduced()[1]


def kernel_basis(m: Matrix) -> list[dict]:
    """Basis of the right kernel {x : m x = 0}, as sparse vectors: the
    annihilator of m's row span."""
    return IncrementalSpan().close(m._data.values()).kernel(range(m.cols))


def invert(m: Matrix) -> Matrix:
    """Exact inverse, read off the RREF of [m | I]; raises ValueError on
    singular input."""
    if m.rows != m.cols:
        raise DimensionMismatch("inverse of a non-square matrix")
    n = m.rows
    rows = ({**m._data.get(i, {}), n + i: ONE} for i in range(n))
    pivots, red = IncrementalSpan().close(rows).reduced()
    if pivots[:n] != list(range(n)):
        raise ValueError("singular matrix")
    return Matrix._make(n, n, {i: {j - n: x for j, x in row.items() if j >= n}
                               for i, row in enumerate(red)})
