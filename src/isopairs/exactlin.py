"""Exact rational scalars and linear algebra.

Everything in the package runs over the rationals: scalars are
``fractions.Fraction`` (arbitrary precision, always reduced, positive
denominator).  Dense vectors are tuples of scalars and ``Matrix`` a
dense grid of them; sparse vectors are dicts column -> scalar, combined
with ``axpy``.  ``IncrementalSpan`` takes sparse vectors and keeps its
echelon rows as fraction-free integer dicts.  No floating point
anywhere.  Row reduction, span membership, kernels and span
intersections are the workhorses used by the pair builders and the
word-module engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

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
    """Parse the "p/q" / "p" wire format back into a scalar."""
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar {s!r}") from None


def vec(entries: Iterable) -> tuple[Fraction, ...]:
    return tuple(Fraction(e) for e in entries)


def zero_vec(n: int) -> tuple[Fraction, ...]:
    return (ZERO,) * n


def unit_vec(n: int, i: int) -> tuple[Fraction, ...]:
    return tuple(ONE if j == i else ZERO for j in range(n))


# the dense vector ops leave zero operands alone: the operators they
# build are mostly zero, and a zero entry needs no Fraction arithmetic


def vec_add(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple((x + y if x else y) if y else x for x, y in zip(a, b))


def vec_sub(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple((x - y if x else -y) if y else x for x, y in zip(a, b))


def vec_scale(c: Fraction, a: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(c * x if x else x for x in a)


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


def is_zero_vec(a: Sequence[Fraction]) -> bool:
    return all(x == 0 for x in a)


class DimensionMismatch(ValueError):
    """Raised when vector or matrix dimensions are inconsistent."""


@dataclass(frozen=True)
class Matrix:
    """Dense immutable matrix of exact rationals."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        widths = {len(r) for r in self.entries}
        if len(widths) > 1:
            raise DimensionMismatch("ragged rows")

    @staticmethod
    def from_rows(rows: Iterable[Iterable]) -> "Matrix":
        return Matrix(tuple(vec(r) for r in rows))

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix(tuple((ZERO,) * cols for _ in range(rows)))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(tuple(unit_vec(n, i) for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "Matrix":
        return Matrix(tuple(zip(*self.entries))) if self.entries else self

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        return Matrix(tuple(vec_add(r, s) for r, s in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix subtraction shape mismatch")
        return Matrix(tuple(vec_sub(r, s) for r, s in zip(self.entries, other.entries)))

    def __neg__(self) -> "Matrix":
        return self.scale(Fraction(-1))

    def scale(self, c) -> "Matrix":
        c = Fraction(c)
        return Matrix(tuple(vec_scale(c, r) for r in self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch("matrix product shape mismatch")
        n = other.cols
        # nonzero (column, entry) pairs of each row of ``other``; each row
        # of the product sums a * (row b of other) over the nonzero a
        other_nz = [[(j, b) for j, b in enumerate(row) if b] for row in other.entries]
        out = []
        for row in self.entries:
            acc = [ZERO] * n
            for a, nz in zip(row, other_nz):
                if a:
                    for j, b in nz:
                        acc[j] += a * b
            out.append(tuple(acc))
        return Matrix(tuple(out))

    def apply(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        if self.cols != len(v):
            raise DimensionMismatch("matrix-vector shape mismatch")
        return tuple(sum((a * b for a, b in zip(row, v)), ZERO) for row in self.entries)

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise DimensionMismatch("trace of a non-square matrix")
        return sum((self.entries[i][i] for i in range(self.rows)), ZERO)

    def is_zero(self) -> bool:
        return all(is_zero_vec(r) for r in self.entries)

    def flatten(self) -> tuple[Fraction, ...]:
        return tuple(x for r in self.entries for x in r)


def rref(m: Matrix) -> tuple[int, Matrix, tuple[int, ...]]:
    """Reduced row-echelon form.

    Returns ``(rank, reduced, pivots)``; ``reduced`` is the unique RREF of
    ``m`` over the rationals and ``pivots`` the pivot column indices.
    """
    rows = [list(r) for r in m.entries]
    nrows, ncols = len(rows), m.cols
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return r, Matrix.from_rows(rows), tuple(pivots)


def span_basis(vectors: Sequence[Sequence[Fraction]]) -> list[tuple[Fraction, ...]]:
    """Canonical (RREF-row) basis of the span of the given vectors."""
    vectors = [vec(v) for v in vectors]
    if not vectors:
        return []
    rank, red, _ = rref(Matrix(tuple(vectors)))
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
        return () if is_zero_vec(v) else None
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
    cols = len(a) + len(b)
    m = Matrix.from_rows(
        [[a[j][i] for j in range(len(a))] + [-b[j][i] for j in range(len(b))] for i in range(n)]
    )
    assert m.cols == cols
    vectors = []
    for k in kernel_basis(m):
        w = zero_vec(n)
        for s, av in zip(k[: len(a)], a):
            w = vec_add(w, vec_scale(s, av))
        if not is_zero_vec(w):
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
    aug = Matrix.from_rows(
        [list(m.row(i)) + list(unit_vec(n, i)) for i in range(n)]
    )
    rank, red, pivots = rref(aug)
    if rank < n or pivots[:n] != tuple(range(n)):
        raise ValueError("singular matrix")
    return Matrix.from_rows([red.row(i)[n:] for i in range(n)])
