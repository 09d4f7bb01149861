"""Exact linear algebra kernel."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isopairs.exactlin import (
    DimensionMismatch,
    IncrementalSpan,
    Matrix,
    axpy,
    invert,
    kernel_basis,
    scalar_from_str,
    scalar_to_str,
    span_basis,
)

import dense_oracle as oracle
from dense_oracle import (
    apply,
    col,
    dense,
    intersect_spans,
    rank_of,
    rref,
    solve_in_span,
    sparse,
    unit_vec,
    vec,
)

F = Fraction

rationals = st.fractions(
    min_value=-8, max_value=8, max_denominator=6
)


# mostly zero: about two draws in three are zero
sparse_entries = st.one_of(st.just(F(0)), st.just(F(0)), rationals)


def small_matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(rationals, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(Matrix.from_rows)
        )
    )


def test_rref_identity():
    rank, red, pivots = rref(Matrix.identity(3))
    assert rank == 3
    assert pivots == (0, 1, 2)
    assert red == Matrix.identity(3)


def test_rref_zero():
    rank, red, pivots = rref(Matrix.zeros(2, 4))
    assert rank == 0
    assert pivots == ()


def test_rref_rank_one():
    rank, red, pivots = rref(Matrix.from_rows([[1, 2], [2, 4]]))
    assert rank == 1
    assert pivots == (0,)
    assert red.row(0) == vec([1, 2])


@given(small_matrices())
@settings(max_examples=60)
def test_rref_idempotent(m):
    _, red, _ = rref(m)
    _, red2, _ = rref(red)
    assert red2 == red


def test_solve_in_span_trivial():
    e1, e2 = unit_vec(2, 0), unit_vec(2, 1)
    assert solve_in_span([e1], [3, 0]) == (F(3),)
    assert solve_in_span([e1], e2) is None


def test_solve_in_span_two_by_two():
    basis = [vec([1, 1]), vec([0, 1])]
    assert solve_in_span(basis, [1, 0]) == (F(1), F(-1))


def test_solve_in_span_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        solve_in_span([vec([1, 0])], [1, 0, 0])


# the dense oracle's intersection, the reference for the centralizer's
# graded split


def test_intersect_spans_trivial():
    e1, e2 = unit_vec(2, 0), unit_vec(2, 1)
    assert intersect_spans([e1], [e1]) == [e1]
    assert intersect_spans([e1], [e2]) == []


def test_intersect_symmetric_antisymmetric():
    # 2x2 matrices flattened row-major; symmetric vs antisymmetric.
    sym = [vec([1, 0, 0, 0]), vec([0, 1, 1, 0]), vec([0, 0, 0, 1])]
    antisym = [vec([0, 1, -1, 0])]
    assert intersect_spans(sym, antisym) == []


@given(
    st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=1, max_size=3),
    st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=1, max_size=3),
)
@settings(max_examples=60)
def test_span_dimension_formula(a, b):
    inter = intersect_spans(a, b)
    assert len(inter) + rank_of([*a, *b]) == rank_of(a) + rank_of(b)


@given(rationals.filter(lambda x: x != 0))
def test_exact_reciprocal(x):
    assert x * (1 / x) == 1


def test_kernel_basis():
    m = Matrix.from_rows([[1, 2, 3], [2, 4, 6]])
    ker = kernel_basis(m)
    assert len(ker) == 2
    for k in ker:
        assert all(x == 0 for x in apply(m, dense(k, 3)))


def test_invert_round_trip():
    m = Matrix.from_rows([[1, 2], [3, 5]])
    assert invert(m) @ m == Matrix.identity(2)
    with pytest.raises(ValueError):
        invert(Matrix.from_rows([[1, 2], [2, 4]]))


def test_scalar_wire_format():
    assert scalar_to_str(F(3)) == "3"
    assert scalar_to_str(F(-1, 2)) == "-1/2"
    assert scalar_from_str("7/3") == F(7, 3)
    assert scalar_from_str("-4") == F(-4)


@pytest.mark.parametrize("text, want", [
    ("0", F(0)), ("12", F(12)), ("-4", F(-4)), ("+4", F(4)), ("7/3", F(7, 3)),
    ("-6/4", F(-3, 2)), ("007/010", F(7, 10)), (" 5 ", F(5)), ("\t-1/2\n", F(-1, 2)),
    (3, F(3)),
])
def test_scalar_from_str_accepts_p_and_p_over_q(text, want):
    assert scalar_from_str(text) == want


@pytest.mark.parametrize("text", [
    "1e10000000", "1E5", "1.5", ".5", "1.", "1_000", "\u0661", "\uff11", "Infinity", "nan",
    "", " ", "-", "/2", "1/", "1/-2", "1/+2", "- 1", "1 /2", "1/2/3", "0x10", "1/0",
    0.5, True, None,
])
def test_scalar_from_str_rejects_anything_else(text):
    with pytest.raises(ValueError):
        scalar_from_str(text)


@given(rationals)
def test_scalar_round_trip(x):
    assert scalar_from_str(scalar_to_str(x)) == x


def test_span_basis_canonical():
    b1 = span_basis([sparse(vec([2, 4])), sparse(vec([1, 2]))])
    b2 = span_basis([sparse(vec([1, 2]))])
    assert b1 == b2


@st.composite
def sparse_matrix_pairs(draw):
    """Grids (a, a2, b) as lists of rows, a dense vector v and a scalar
    c: a and a2 of one shape, len(v) == cols of a == rows of b, shapes
    drawn independently, entries mostly zero, a zero row in a and a
    zero column in b."""
    r, k, c = (draw(st.integers(1, 5)) for _ in range(3))
    a = [[draw(sparse_entries) for _ in range(k)] for _ in range(r)]
    a2 = [[draw(sparse_entries) for _ in range(k)] for _ in range(r)]
    b = [[draw(sparse_entries) for _ in range(c)] for _ in range(k)]
    a[draw(st.integers(0, r - 1))] = [F(0)] * k
    j = draw(st.integers(0, c - 1))
    for row in b:
        row[j] = F(0)
    v = [draw(sparse_entries) for _ in range(k)]
    return a, a2, b, v, draw(sparse_entries)


def _grid(m):
    return [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]


def _stores_no_zero(m):
    return all(type(x) is F and x != 0 for _, _, x in m.nonzeros())


@given(sparse_matrix_pairs())
@settings(max_examples=150)
def test_matmul_matches_triple_loop(case):
    ga, ga2, gb, v, c = case
    a, a2, b = (Matrix.from_rows(g) for g in (ga, ga2, gb))
    triple_loop = [
        [sum((ga[i][k] * gb[k][j] for k in range(len(gb))), F(0)) for j in range(len(gb[0]))]
        for i in range(len(ga))
    ]
    # each operation against its entrywise definition on the input grids
    for got, want in (
        (a, ga),
        (a @ b, triple_loop),
        (a + a2, [[x + y for x, y in zip(r, s)] for r, s in zip(ga, ga2)]),
        (a - a2, [[x - y for x, y in zip(r, s)] for r, s in zip(ga, ga2)]),
        (a.scale(c), [[c * x for x in r] for r in ga]),
        (a.transpose(), [list(col) for col in zip(*ga)]),
    ):
        assert _grid(got) == want
        assert all(type(x) is F for row in _grid(got) for x in row)
        assert _stores_no_zero(got)
        assert list(got.nonzeros()) == [
            (i, j, x) for i, r in enumerate(want) for j, x in enumerate(r) if x
        ]
    # times a one-column matrix: the matrix-vector product
    column = a @ Matrix.from_rows([[x] for x in v])
    assert _grid(column) == [[sum((x * y for x, y in zip(r, v)), F(0))] for r in ga]
    assert _stores_no_zero(column)
    assert (a == a2) == (ga == ga2)
    assert a - a == Matrix.zeros(len(ga), len(ga[0])) and (a - a).is_zero()


def test_entries_constructor():
    # repeated positions are summed, zeros dropped, and indices checked
    m = Matrix(2, 3, [(0, 1, 1), (0, 1, -1), (1, 2, F(1, 2)), (1, 2, F(1, 2)), (1, 0, 0)])
    assert m == Matrix.from_rows([[0, 0, 0], [0, 0, 1]])
    assert list(m.nonzeros()) == [(1, 2, F(1))]
    with pytest.raises(DimensionMismatch):
        Matrix(2, 3, [(0, 3, 1)])
    with pytest.raises(DimensionMismatch):
        Matrix(2, 3, [(-1, 0, 1)])
    with pytest.raises(TypeError):
        Matrix(2, 3, [(0.5, 0, 1)])


def test_matmul_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        Matrix.zeros(2, 3) @ Matrix.zeros(2, 3)


def _normal_form(vectors, v, n, pivot):
    """v minus its projection on the reduced row-echelon basis of the
    vectors, from a dense rref; with pivot "max" the columns are
    reversed, so pivots sit at the last column of each row's support.
    Returns (pivot columns, residual as a sparse dict)."""
    order = list(range(n)) if pivot == "min" else list(reversed(range(n)))
    dense = [tuple(u.get(c, F(0)) for c in order) for u in vectors]
    _, red, pivots = rref(Matrix.from_rows(dense)) if dense else (0, None, ())
    w = [v.get(c, F(0)) for c in order]
    for i, p in enumerate(pivots):
        f = w[p]
        w = [x - f * y for x, y in zip(w, red.row(i))]
    return {order[p] for p in pivots}, {order[j]: x for j, x in enumerate(w) if x}


@st.composite
def span_cases(draw, entries=sparse_entries):
    n = draw(st.integers(1, 7))
    sparse = st.lists(entries, min_size=n, max_size=n).map(
        lambda row: {c: x for c, x in enumerate(row) if x}
    )
    inserted = draw(st.lists(sparse, max_size=8))
    # probes: random vectors, and combinations of the inserted ones
    probes = draw(st.lists(sparse, max_size=4))
    for _ in range(draw(st.integers(0, 3))):
        combo = {}
        for u in inserted:
            f = draw(rationals)
            for c, x in u.items():
                combo[c] = combo.get(c, F(0)) + f * x
        probes.append({c: x for c, x in combo.items() if x})
    return n, inserted, probes


def _check_span(n, inserted, probes, pivot, track):
    """IncrementalSpan against a dense rref: rank, pivots, residuals,
    membership and solve coefficients, all returned as Fractions."""

    span = IncrementalSpan(track_combos=track, pivot=pivot)
    kept = []
    for u in inserted:
        grew = span.insert(u)
        assert grew == (rank_of([*(dense(k, n) for k in kept), dense(u, n)]) > len(kept))
        if grew:
            kept.append(u)
    pivots, _ = _normal_form(inserted, {}, n, pivot)
    assert span.rank == len(kept) == len(pivots)
    assert span.pivots == pivots
    # the read-out: per pivot, ascending, the span vector that is 1 there
    # and 0 at the other pivots
    got_pivots, red = span.reduced()
    assert got_pivots == sorted(pivots)
    for p, row in zip(got_pivots, red):
        assert row[p] == 1 and not row.keys() & pivots - {p}
        assert all(type(x) is F and x for x in row.values())
        assert _normal_form(inserted, row, n, pivot)[1] == {}
    for v in inserted + probes:
        residual = span.reduce(v)
        assert residual == _normal_form(inserted, v, n, pivot)[1]
        assert all(type(x) is F for x in residual.values())
        in_span = solve_in_span([dense(u, n) for u in kept], dense(v, n)) is not None
        assert span.contains(v) == in_span
        if not track:
            continue
        coeffs = span.solve(v)
        assert (coeffs is not None) == in_span
        if coeffs is not None:
            assert all(type(x) is F for x in coeffs.values())
            got = {}
            for j, f in coeffs.items():
                for c, x in kept[j].items():
                    got[c] = got.get(c, F(0)) + f * x
            assert {c: x for c, x in got.items() if x} == v


@given(span_cases(), st.sampled_from(["min", "max"]), st.booleans())
@settings(max_examples=150, deadline=None)
def test_incremental_span_matches_rref(case, pivot, track):
    _check_span(*case, pivot, track)


# entries past 2^61 over odd denominators: integer rows get non-unit
# pivots, and reductions scale the residual's denominator up step by step
big_rationals = st.builds(
    lambda k, d, s: F(s * (2**61 + k), d),
    st.integers(0, 40),
    st.sampled_from([1, 3, 7, 15, 2**31 - 1]),
    st.sampled_from([1, -1]),
)
big_entries = st.one_of(st.just(F(0)), rationals, big_rationals)


@given(span_cases(big_entries), st.sampled_from(["min", "max"]), st.booleans())
@settings(max_examples=100, deadline=None)
def test_incremental_span_integer_rows_match_rref(case, pivot, track):
    _check_span(*case, pivot, track)


@pytest.mark.parametrize("pivot", ["min", "max"])
@pytest.mark.parametrize("track", [False, True])
def test_incremental_span_non_unit_pivots(pivot, track):
    # the first two vectors give integer rows with pivot entries 2 and 5
    # (3 and 21 under "max"), so reducing a unit probe scales its
    # denominator up to 10 (or 21)
    big = F(2**61 + 1, 2**31 - 1)
    inserted = [{0: F(2), 1: F(3)}, {1: F(5, 3), 2: F(7, 3)}, {0: big, 2: F(1, 9)}]
    probes = [{0: F(1)}, {1: F(1)}, {2: F(1)}, {0: big, 1: -big, 2: big}]
    _check_span(3, inserted[:2], probes, pivot, track)
    _check_span(3, inserted, probes, pivot, track)


@given(span_cases(big_entries), st.sampled_from(["min", "max"]), st.booleans())
@settings(max_examples=100, deadline=None)
def test_reduce_reads_an_int_vector_as_its_fractions(case, pivot, track):
    # an int vector, with and without a zero at column n (which no
    # inserted vector touches), reduces as the same vector of Fractions
    n, inserted, probes = case
    span = IncrementalSpan(track_combos=track, pivot=pivot)
    for u in inserted:
        span.insert(u)
    for v in inserted + probes + [{}]:
        scale = math.lcm(*(x.denominator for x in v.values()))
        ints = {c: int(x * scale) for c, x in v.items()}
        for w in (ints, {**ints, n: 0}):
            before = dict(w)
            got = span._reduce(w)
            assert w == before
            assert got == span._reduce({c: F(x) for c, x in w.items()})
            assert all(type(x) is int and x for x in got[0].values())


# closing a span under maps: sparse integer vectors and sparse integer
# n x n maps, each map given by its columns
@st.composite
def closure_cases(draw):
    n = draw(st.integers(1, 6))
    sparse = st.lists(st.one_of(st.just(0), st.just(0), st.integers(-3, 3)),
                      min_size=n, max_size=n).map(
        lambda row: {c: x for c, x in enumerate(row) if x})
    vectors = draw(st.lists(sparse, max_size=4))
    maps = draw(st.lists(st.lists(sparse, min_size=n, max_size=n), min_size=1, max_size=3))
    return n, vectors, maps


def _images(maps):
    """v -> (m v for each map m), over sparse dicts."""
    def images(v):
        for cols in maps:
            out: dict = {}
            for j, x in v.items():
                axpy(out, x, cols[j])
            yield out
    return images


def _closure_oracle(n, vectors, maps):
    """The RREF basis of the least span holding ``vectors`` that each
    map sends into itself: dense, adding the images of a basis until the
    rank stops growing."""
    dense_maps = [Matrix(n, n, [(i, j, x) for j, c in enumerate(cols) for i, x in c.items()])
                  for cols in maps]
    basis = oracle.span_basis([dense(v, n) for v in vectors])
    while True:
        grown = oracle.span_basis(basis + [apply(m, b) for m in dense_maps for b in basis])
        if len(grown) == len(basis):
            return basis
        basis = grown


@given(closure_cases(), st.sampled_from(["min", "max"]), st.data())
@settings(max_examples=150, deadline=None)
def test_close_matches_the_fixpoint_oracle(case, pivot, data):
    n, vectors, maps = case
    span = IncrementalSpan(pivot=pivot).close(vectors, _images(maps))
    want = _closure_oracle(n, vectors, maps)
    assert span.rank == len(want)
    assert span.pivots == _normal_form([sparse(b) for b in want], {}, n, pivot)[0]
    assert all(span.contains(sparse(b)) for b in want)
    if pivot == "min":  # the oracle's basis is that RREF
        assert [dense(row, n) for row in span.reduced()[1]] == want
    # a linear closure does not depend on the order of the given vectors
    shuffled = data.draw(st.permutations(vectors))
    again = IncrementalSpan(pivot=pivot).close(shuffled, _images(maps))
    assert again.pivots == span.pivots and again.reduced() == span.reduced()


def test_close_queues_the_given_vectors_last_inserted_first():
    # the images shift e_i to e_(i+1), and a vector touching column 3
    # (the "cap") has none, as the word engine's left multiplication has
    # none for a relation with a word at its cap.  c = a + b, so which of
    # b and c grows the span, and is queued, decides the closure.
    calls = []

    def shift(v):
        calls.append(v)
        if 3 not in v:
            yield {c + 1: x for c, x in v.items()}

    a, b, c = {3: 1}, {0: 1}, {0: 1, 3: 1}
    assert IncrementalSpan().close([a, b, c], shift).pivots == {0, 1, 2, 3}
    assert calls == [b, {1: 1}, {2: 1}, a]
    calls.clear()
    assert IncrementalSpan().close([a, c, b], shift).pivots == {0, 3}
    assert calls == [c, a]
    # with no image function, close spans the vectors
    assert IncrementalSpan().close([a, b, c]).pivots == {0, 3}

NKEYS = 6
keys = st.integers(0, NKEYS - 1)
sparse_dicts = st.dictionaries(keys, rationals.filter(lambda x: x != 0), max_size=NKEYS)
factors = st.one_of(st.sampled_from([1, -1, F(1), F(-1), 0]), rationals)


# v may hold zero values; acc, as every result, holds none
@given(sparse_dicts, factors, st.dictionaries(keys, rationals, max_size=NKEYS), st.booleans())
@settings(max_examples=200)
def test_axpy_matches_dense_oracle(acc, f, v, cancel):
    if cancel and f:  # acc holds -f v on some keys, which must drop out
        acc.update({k: -f * x for k, x in list(v.items())[::2]})
    want = [acc.get(k, F(0)) + f * v.get(k, F(0)) for k in range(NKEYS)]
    out = dict(acc)
    assert axpy(out, f, v) is out
    assert out == {k: x for k, x in enumerate(want) if x}
    assert all(type(x) is F for x in out.values())


# mostly zero, with entries past 2^61 over odd denominators
big_sparse_entries = st.one_of(st.just(F(0)), st.just(F(0)), rationals, big_rationals)


@st.composite
def sparse_matrices(draw):
    """Mostly-zero matrices with 0 to 5 rows and columns, square about
    half the time; about half of them get a row that is the sum of two
    others, a zero row and a zero column, each drawn on its own."""
    r = draw(st.integers(0, 5))
    c = draw(st.one_of(st.just(r), st.integers(0, 5)))
    grid = [[draw(big_sparse_entries) for _ in range(c)] for _ in range(r)]
    if r > 2 and draw(st.booleans()):
        grid[-1] = [x + y for x, y in zip(grid[0], grid[1])]
    if r and draw(st.booleans()):
        grid[draw(st.integers(0, r - 1))] = [F(0)] * c
    if c and draw(st.booleans()):
        j = draw(st.integers(0, c - 1))
        for row in grid:
            row[j] = F(0)
    return Matrix(r, c, [(i, j, x) for i, row in enumerate(grid) for j, x in enumerate(row)])


@given(sparse_matrices())
@settings(max_examples=150, deadline=None)
def test_sparse_rref_kernel_invert_match_span_oracles(m):
    rows, cols = _grid(m), [list(c) for c in zip(*_grid(m))]
    rank, red, pivots = rref(m)
    assert rank == len(pivots) == rank_of(rows)
    assert _stores_no_zero(red)
    # RREF: unit pivots alone in their columns, zero rows below the rank,
    # and a row space equal to that of m
    for r, p in enumerate(pivots):
        assert col(red, p) == unit_vec(m.rows, r)
        assert all(x == 0 for x in red.row(r)[:p])
    assert all(x == 0 for r in range(rank, m.rows) for x in red.row(r))
    basis = [red.row(r) for r in range(rank)]
    assert all(solve_in_span(basis, row) is not None for row in rows)
    assert all(solve_in_span(rows, row) is not None for row in basis)
    # IncrementalSpan's reduced form is that RREF, and what is read off
    # it is what the Gauss-Jordan oracle reads off its own
    span = IncrementalSpan()
    for row in rows:
        span.insert({j: x for j, x in enumerate(row) if x})
    got_pivots, got_red = span.reduced()
    assert got_pivots == list(pivots)
    assert got_red == [{j: x for j, x in enumerate(row) if x} for row in basis]
    assert all(type(x) is F for row in got_red for x in row.values())
    assert span_basis(map(sparse, rows)) == list(map(sparse, oracle.span_basis(rows)))
    ker = kernel_basis(m)
    assert ker == list(map(sparse, oracle.kernel_basis(m)))
    ker = [dense(k, m.cols) for k in ker]
    assert len(ker) == m.cols - rank
    assert not ker or rank_of(ker) == len(ker)
    assert all(not any(apply(m, k)) for k in ker)
    if m.rows != m.cols:
        with pytest.raises(DimensionMismatch):
            invert(m)
        return
    if rank < m.rows:
        with pytest.raises(ValueError):
            invert(m)
        return
    inv = invert(m)
    assert inv == oracle.invert(m)
    assert _stores_no_zero(inv)
    # column j of the inverse is the coefficient vector of e_j over the
    # columns of m
    for j in range(m.cols):
        assert col(inv, j) == solve_in_span(cols, unit_vec(m.rows, j))


@given(sparse_matrices(), st.data())
@settings(max_examples=100, deadline=None)
def test_span_kernel_over_a_column_subset_matches_dense_oracle(m, data):
    """IncrementalSpan.kernel(cols) the way the word engine's radical
    reads it: the span's vectors live on a subset ``cols`` of a wider
    coordinate range, and its kernel over ``cols`` is m's kernel with
    column j renamed cols[j], vector for vector, keys ascending."""
    extra = data.draw(st.integers(0, 3))
    cols = sorted(data.draw(st.permutations(range(m.cols + extra)))[:m.cols])
    for pivot in ("min", "max"):
        span = IncrementalSpan(pivot=pivot)
        for row in m._data.values():
            span.insert({cols[j]: x for j, x in row.items()})
        got = span.kernel(cols)
        assert all(list(k) == sorted(k) for k in got)
        if pivot == "min":
            want = [{cols[j]: x for j, x in sparse(k).items()} for k in oracle.kernel_basis(m)]
            assert got == want
        # any pivot order: a basis of the same kernel
        assert len(got) == m.cols - span.rank
        assert not got or rank_of([dense(k, m.cols + extra) for k in got]) == len(got)
        assert all(not sum((x * k.get(c, 0) for c, x in row.items()), F(0))
                   for k in got for row in span.rows)
