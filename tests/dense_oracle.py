"""Dense Fraction oracles for the exact linear algebra.

``exactlin`` eliminates in one engine, ``IncrementalSpan``, and reads
kernels, span bases and inverses off its reduced form.  The tests check
it against this independent Gauss-Jordan elimination over Fractions, and
the functions built on it the way they were built before, so that no
oracle runs on the engine it checks; ``intersect_spans`` is the
reference for the centralizer's graded split.  Vectors here are dense
tuples: ``vec``, ``unit_vec``, ``sparse`` and ``dense`` convert, and
``apply`` and ``col`` are the dense matrix read-outs the tests' loop
oracles use.
"""

from fractions import Fraction
from typing import Iterable, Optional, Sequence

from isopairs.exactlin import ONE, ZERO, DimensionMismatch, Matrix, axpy


def vec(entries: Iterable) -> tuple[Fraction, ...]:
    return tuple(Fraction(e) for e in entries)


def unit_vec(n: int, i: int) -> tuple[Fraction, ...]:
    return tuple(ONE if j == i else ZERO for j in range(n))


def sparse(v: Sequence[Fraction]) -> dict:
    """The nonzero entries of a dense vector, by index."""
    return {j: x for j, x in enumerate(v) if x}


def dense(u: dict, n: int) -> tuple[Fraction, ...]:
    return tuple(u.get(j, ZERO) for j in range(n))


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


def apply(m: Matrix, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """m v as a dense tuple."""
    if m.cols != len(v):
        raise DimensionMismatch("matrix-vector shape mismatch")
    return tuple(sum((m[i, j] * v[j] for j in range(m.cols)), ZERO) for i in range(m.rows))


def col(m: Matrix, j: int) -> tuple[Fraction, ...]:
    return tuple(m[i, j] for i in range(m.rows))
