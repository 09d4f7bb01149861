"""Structure-constant pairs and exhaustive axiom checking.

A pair is two graded spaces V1, V2 with trilinear structure tensors

    m1 : V2 x V1 x V1 -> V1   (keys (u, x, y), sparse output vectors)
    m2 : V1 x V2 x V2 -> V2   (keys (x, u, v))

All defining identities are multilinear, so checking them on homogeneous
basis tuples is exhaustive.  The checkers evaluate the adopted identity
templates from :mod:`isopairs.supercore` on every basis tuple, in both
orientations (letters X, Y, Z on the V1 side and U, V on the V2 side,
then mirrored), and report exact residual vectors.

One evaluator checks every identity.  Tensors are scaled by the lcm of
their denominators, and each template term is read from the nonzero
entries of its two bracket nodes in one of two forms:

* the sparse join: every pair of entries that meet on the contracted
  index is one contribution, keyed by its place in the residual; all
  terms' contributions are sorted by key and repeats summed, so the
  work grows with the nonzero contributions;
* the dense form: a product ``a @ b`` over the distinct rows and columns
  of the two nodes, scattered into one residual per X index.

The arithmetic is int64 while a checked magnitude bound stays below 2^62
and Python ints above it, so the reports are exact either way.  In int64
the join runs when it has fewer contributions than the dense blocks have
cells, as on sparse pairs; Python ints always take the dense form.  A
sparse ``Fraction`` evaluation on arbitrary vectors,
:func:`residual_on_vectors`, is kept apart as the independent reference
the tests compare against.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Sequence

import numpy as np

from .exactlin import scalar_from_str, scalar_to_str
from .supercore import (
    CATALOG,
    LETTERS,
    Bracket,
    Identity,
    Letter,
    SuperSpace,
    TemplateTerm,
    eval_sign_pairs,
    expr_letters,
)

ISOTOPIC = "isotopic"
SUPER_JORDAN = "superJordan"
KINDS = (ISOTOPIC, SUPER_JORDAN)

FAILURE_CAP = 25

TensorMap = dict  # (i, j, k) -> {out_index: Fraction}


class SpaceMismatch(ValueError):
    """Raised when vectors or sides do not match the pair's spaces."""


def _index(i) -> int:
    """An index as an int: ints (numpy's too) pass, anything else, such
    as a float or a Fraction, raises ValueError instead of truncating."""
    try:
        return operator.index(i)
    except TypeError:
        raise ValueError(f"tensor index {i!r} is not an integer") from None


def _canon_tensor(t: TensorMap) -> TensorMap:
    out = {}
    for key, comps in t.items():
        kept = {_index(i): Fraction(c) for i, c in comps.items() if c != 0}
        if kept:
            out[tuple(_index(k) for k in key)] = kept
    return out


@dataclass
class PairStructure:
    """An isotopic or super-Jordan pair given by structure constants."""

    v1: SuperSpace
    v2: SuperSpace
    kind: str
    m1: TensorMap
    m2: TensorMap
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown pair kind {self.kind!r}")
        self.m1 = _canon_tensor(self.m1)
        self.m2 = _canon_tensor(self.m2)
        d1, d2 = self.v1.dim, self.v2.dim
        for (u, x, y), comps in self.m1.items():
            if not (
                0 <= u < d2 and 0 <= x < d1 and 0 <= y < d1
                and all(0 <= o < d1 for o in comps)
            ):
                raise SpaceMismatch("m1 index out of range")
        for (x, u, v), comps in self.m2.items():
            if not (
                0 <= x < d1 and 0 <= u < d2 and 0 <= v < d2
                and all(0 <= o < d2 for o in comps)
            ):
                raise SpaceMismatch("m2 index out of range")

    # -- basic operations ---------------------------------------------------

    def space(self, side: int) -> SuperSpace:
        if side == 1:
            return self.v1
        if side == 2:
            return self.v2
        raise SpaceMismatch(f"side must be 1 or 2, got {side}")

    def bracket(
        self,
        side: int,
        iso: Sequence[Fraction],
        a: Sequence[Fraction],
        b: Sequence[Fraction],
    ) -> tuple[Fraction, ...]:
        """[a, b]_iso with a, b on ``side`` and iso on the other side."""
        own, other = self.space(side), self.space(3 - side)
        if len(iso) != other.dim or len(a) != own.dim or len(b) != own.dim:
            raise SpaceMismatch("vector length does not match the pair's spaces")
        tensor = self.m1 if side == 1 else self.m2
        out = [Fraction(0)] * own.dim
        for (i, l, r), comps in tensor.items():
            c = iso[i] * a[l] * b[r]
            if c:
                for o, s in comps.items():
                    out[o] += c * s
        return tuple(out)

    def parity_flip(self) -> "PairStructure":
        """Same constants, all parities toggled, kind toggled."""
        return PairStructure(
            self.v1.flipped(),
            self.v2.flipped(),
            SUPER_JORDAN if self.kind == ISOTOPIC else ISOTOPIC,
            self.m1,
            self.m2,
        )

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        def tensor_json(t, names):
            rows = []
            for key in sorted(t):
                comps = t[key]
                row = dict(zip(names, key))
                row["out"] = [
                    {"idx": o, "c": scalar_to_str(comps[o])} for o in sorted(comps)
                ]
                rows.append(row)
            return rows

        return {
            "v1": self.v1.to_json(),
            "v2": self.v2.to_json(),
            "kind": self.kind,
            "m1": tensor_json(self.m1, ("u", "x", "y")),
            "m2": tensor_json(self.m2, ("x", "u", "v")),
        }

    @staticmethod
    def from_json(obj: dict) -> "PairStructure":
        def index(value, name):
            # bool is an int subclass, and int() would truncate 0.9 or parse "0"
            if type(value) is not int:
                raise ValueError(f"index {name!r} must be a JSON integer, got {value!r}")
            return value

        def scalar(value):
            if type(value) not in (str, int):
                raise ValueError(f"coefficient must be a string or an integer, got {value!r}")
            return scalar_from_str(value)

        def tensor(rows, names):
            out = {}
            for row in rows:
                key = tuple(index(row[n], n) for n in names)
                comps = {}
                for e in row["out"]:
                    o = index(e["idx"], "idx")
                    if o in comps:
                        raise ValueError(f"duplicate output index {o} in {key}")
                    comps[o] = scalar(e["c"])
                if key in out:
                    raise ValueError(f"duplicate tensor row {key}")
                out[key] = comps
            return out

        return PairStructure(
            SuperSpace.from_json(obj["v1"]),
            SuperSpace.from_json(obj["v2"]),
            obj["kind"],
            tensor(obj["m1"], ("u", "x", "y")),
            tensor(obj["m2"], ("x", "u", "v")),
        )


# ---------------------------------------------------------------------------
# reports


@dataclass
class Failure:
    where: dict  # letter -> basis index (or tensor key for evenness)
    residual: dict  # component index -> Fraction

    def to_json(self) -> dict:
        return {
            "tuple": dict(self.where),
            "residual": [
                {"idx": i, "c": scalar_to_str(self.residual[i])}
                for i in sorted(self.residual)
            ],
        }

    @staticmethod
    def from_json(obj: dict) -> "Failure":
        return Failure(
            dict(obj["tuple"]),
            {e["idx"]: scalar_from_str(e["c"]) for e in obj["residual"]},
        )


@dataclass
class AxiomReport:
    """Per-identity, per-basis-tuple verdicts with exact residuals."""

    identity: str
    orientation: int
    total: int
    failure_count: int
    failures: list
    adopted_form: str = "printed"

    @property
    def passed(self) -> bool:
        return self.failure_count == 0

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "orientation": self.orientation,
            "total": self.total,
            "failure_count": self.failure_count,
            "failures": [f.to_json() for f in self.failures],
            "adopted_form": self.adopted_form,
            "passed": self.passed,
        }

    @staticmethod
    def from_json(obj: dict) -> "AxiomReport":
        return AxiomReport(
            obj["identity"],
            obj["orientation"],
            obj["total"],
            obj["failure_count"],
            [Failure.from_json(f) for f in obj["failures"]],
            obj["adopted_form"],
        )


@dataclass
class VerifyReport:
    kind: str
    reports: list

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)

    def failing(self) -> list:
        return [r for r in self.reports if not r.passed]

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "passed": self.passed,
            "reports": [r.to_json() for r in self.reports],
        }

    @staticmethod
    def from_json(obj: dict) -> "VerifyReport":
        return VerifyReport(obj["kind"], [AxiomReport.from_json(r) for r in obj["reports"]])


def _adopted_form_id(ident: Identity) -> str:
    return "printed" if ident.correction is None else f"corrected: {ident.correction}"


# ---------------------------------------------------------------------------
# template evaluation over structure constants


def _orient(sides: dict, orientation: int) -> dict:
    if orientation == 1:
        return dict(sides)
    return {l: 3 - s for l, s in sides.items()}


def _value_side(expr, sides: dict) -> int:
    while isinstance(expr, Bracket):
        expr = expr.left
    if not isinstance(expr, Letter):
        raise TypeError("pair checking needs bracket/letter expressions")
    return sides[expr.name]


def _term_degree(expr) -> int:
    if isinstance(expr, Letter):
        return 0
    if not isinstance(expr, Bracket):
        raise TypeError("pair checking needs bracket/letter expressions")
    return 1 + _term_degree(expr.left) + _term_degree(expr.right) + _term_degree(expr.iso)


def _int_coeffs(ident: Identity):
    terms = ident.residual_terms()
    cs = reduce(math.lcm, (t.coeff.denominator for t in terms), 1)
    return terms, cs, [int(t.coeff * cs) for t in terms]


def _degree(terms) -> int:
    degrees = {_term_degree(t.expr) for t in terms}
    if len(degrees) != 1 or not degrees <= {1, 2}:
        raise TypeError("pair checking needs terms of one bracket degree, 1 or 2")
    return degrees.pop()


def _scale(pair: PairStructure) -> tuple[int, int]:
    """(lcm of the tensors' denominators, largest scaled |entry|, at least 1)."""
    if "scale" not in pair._cache:
        cs = [c for t in (pair.m1, pair.m2) for comps in t.values() for c in comps.values()]
        scale = reduce(math.lcm, (c.denominator for c in cs), 1)
        biggest = max((abs(c.numerator) * (scale // c.denominator) for c in cs), default=1)
        pair._cache["scale"] = (scale, biggest)
    return pair._cache["scale"]


def _checked_bound(pair: PairStructure, ident: Identity) -> int:
    """Bound on every partial sum of the scaled residual: the summed
    integer coefficient magnitudes times max|m|^degree times the
    contracted volume.  int64 arithmetic is exact while it stays below
    2^62."""
    terms, _, coeffs = _int_coeffs(ident)
    degree = _degree(terms)
    dim = max(pair.v1.dim, pair.v2.dim, 1)
    return sum(map(abs, coeffs)) * _scale(pair)[1] ** degree * dim ** (2 * degree)


def _coo(pair: PairStructure, side: int):
    """m1 (side 1) or m2 scaled to integers, as coordinates: keys (n, 3),
    outputs (n,) and values (n,) as Python ints."""
    if ("coo", side) not in pair._cache:
        scale = _scale(pair)[0]
        entries = [
            (key, o, c.numerator * (scale // c.denominator))
            for key, comps in (pair.m1 if side == 1 else pair.m2).items()
            for o, c in comps.items()
        ]
        pair._cache["coo", side] = (
            np.array([e[0] for e in entries], dtype=np.int64).reshape(-1, 3),
            np.array([e[1] for e in entries], dtype=np.int64),
            np.array([e[2] for e in entries], dtype=object),
        )
    return pair._cache["coo", side]


def _distinct(x, flat, bits, size):
    """Sort the (x, flat) keys and merge repeats: (inverse, x, flat, bits)."""
    _, first, inverse = np.unique(x * size + flat, return_index=True, return_inverse=True)
    return inverse, x[first], flat[first], bits[first]


@dataclass
class _Dense:
    """A term's dense form ``a @ b``.

    Rows of ``a`` are the nested bracket's distinct letter tuples, its
    columns the contracted index; columns of ``b`` are the outer
    bracket's distinct (letters, output) tuples.  Every row and column
    carries its offset in the flat residual of one X index, ``size``
    long, and its letters' parity bits.  The side that holds X is sorted
    by it, and ``x_bounds[i]:x_bounds[i + 1]`` are the rows or columns
    with X = i.
    """

    size: int
    a: np.ndarray
    b: np.ndarray
    row_flat: np.ndarray
    row_bits: np.ndarray
    col_flat: np.ndarray
    col_bits: np.ndarray
    x_in_rows: bool
    x_bounds: np.ndarray

    def block(self, xi: int):
        """(flat residual offsets, parity bits, values) of the tuples with
        X = xi; the offsets are distinct."""
        part = slice(self.x_bounds[xi], self.x_bounds[xi + 1])
        rows, cols = (part, slice(None)) if self.x_in_rows else (slice(None), part)
        return (
            self.row_flat[rows, None] + self.col_flat[cols],
            self.row_bits[rows, None] | self.col_bits[cols],
            self.a[rows] @ self.b[:, cols],
        )


def _nodes(pair: PairStructure, expr: Bracket, sides: dict):
    """One residual term as the nonzero entries of its two bracket nodes:
    (size, width, x_in_rows, rows, cols), from which either form of the
    term is built; they are not kept, since only the forms are used again.

    ``rows`` are the nested bracket's entries (a single unit entry for a
    lone bracket) and ``cols`` the outer bracket's, each as (X index,
    flat offset, parity bits, contracted index, value).  The flat offset
    is the position in the residual of one X index, ``size`` long, with
    the output included for ``cols``; bit k of the parity bits belongs to
    ``LETTERS[k]``.  The contracted index, ``width`` values, is the
    nested bracket's output and the outer bracket's nested slot: a row
    and a column that agree on it make one contribution to the residual.
    ``x_in_rows`` tells whether X is a letter of the nested bracket.
    """
    letters = sorted(expr_letters(expr), key=LETTERS.index)
    stride, size = {"X": 0}, pair.space(_value_side(expr, sides)).dim
    for l in reversed(letters[1:]):
        stride[l], size = size, size * pair.space(sides[l]).dim
    parities = {s: np.array(pair.space(s).parities, dtype=np.uint8) for s in (1, 2)}

    def node(bracket: Bracket):
        """(X index, flat offset, parity bits, nested-slot index, output,
        value) of every nonzero entry of one bracket node."""
        keys, outs, values = _coo(pair, _value_side(bracket, sides))
        x = flat = nested = np.zeros(len(outs), np.int64)
        bits = np.zeros(len(outs), np.uint8)
        for j, e in enumerate((bracket.iso, bracket.left, bracket.right)):
            if isinstance(e, Bracket):
                nested = keys[:, j]
                continue
            flat = flat + stride[e.name] * keys[:, j]
            bits = bits | parities[sides[e.name]][keys[:, j]] << LETTERS.index(e.name)
            if e.name == "X":
                x = keys[:, j]
        return x, flat, bits, nested, outs, values

    inner = next((e for e in (expr.iso, expr.left, expr.right) if isinstance(e, Bracket)), None)
    if inner is None:
        zero = np.zeros(1, np.int64)
        rows, width = (zero, zero, np.zeros(1, np.uint8), zero, np.ones(1, object)), 1
    else:
        x, flat, bits, _, c, values = node(inner)
        rows, width = (x, flat, bits, c, values), pair.space(_value_side(inner, sides)).dim
    x, flat, bits, c, o, values = node(expr)
    x_in_rows = inner is not None and "X" in expr_letters(inner)
    return size, width, x_in_rows, rows, (x, flat + o, bits, c, values)


def _cached(pair: PairStructure, key: tuple, build):
    """``build()``, kept in the pair's cache: counts and term forms are
    made once per pair, so the identities that share J1..J6 share them."""
    if key not in pair._cache:
        pair._cache[key] = build()
    return pair._cache[key]


def _term_counts(pair: PairStructure, expr: Bracket, sides: dict) -> tuple[int, int]:
    """(contributions of the term's sparse join, cells of its dense
    ``a @ b``), read off the two tensors: the join pairs each nested
    entry with the outer entries whose nested slot holds its output;
    ``a`` has a row per key of the nested tensor and ``b`` a column per
    outer (key without the nested slot, output)."""
    slots = (expr.iso, expr.left, expr.right)
    j = next((j for j, e in enumerate(slots) if isinstance(e, Bracket)), None)
    outer = _value_side(expr, sides)
    inner = None if j is None else _value_side(slots[j], sides)

    def build():
        keys, outs, _ = _coo(pair, outer)
        if inner is None:
            return len(outs), len(outs)
        width = pair.space(inner).dim
        joins = np.bincount(_coo(pair, inner)[1], minlength=width) @ np.bincount(
            keys[:, j], minlength=width)
        d = max(pair.v1.dim, pair.v2.dim)
        k, l = np.delete(keys, j, axis=1).T
        cols = np.sort((k * d + l) * d + outs)
        rows = len(pair.m1 if inner == 1 else pair.m2)
        return int(joins), rows * np.count_nonzero(np.diff(cols, prepend=-1))

    return _cached(pair, ("counts", outer, inner, j), build)


def _join_term(pair: PairStructure, expr: Bracket, sides: dict):
    """The term's sparse join: (global keys ``X * size + flat``, parity
    bits, int64 values) of every contribution, each row times each
    column that shares its contracted index."""
    def build():
        size, width, _, rows, cols = _nodes(pair, expr, sides)
        x_r, flat_r, bits_r, c_r, v_r = rows
        x_c, flat_c, bits_c, c_c, v_c = cols
        counts = np.bincount(c_c, minlength=width)
        reps = counts[c_r]
        r = np.repeat(np.arange(len(c_r)), reps)
        # the columns sorted by contracted index, then each row's run of them
        by_c, first = np.argsort(c_c, kind="stable"), np.cumsum(counts) - counts
        c = by_c[np.repeat(first[c_r] - (np.cumsum(reps) - reps), reps) + np.arange(len(r))]
        return (
            (x_r[r] + x_c[c]) * size + flat_r[r] + flat_c[c],
            bits_r[r] | bits_c[c],
            v_r.astype(np.int64)[r] * v_c.astype(np.int64)[c],
        )

    return _cached(pair, ("join", expr, frozenset(sides.items())), build)


def _dense_term(pair: PairStructure, expr: Bracket, sides: dict, dtype) -> _Dense:
    """The term's dense form in ``dtype``."""
    def build():
        size, width, x_in_rows, rows, cols = _nodes(pair, expr, sides)
        x, flat, bits, c, values = rows
        rows, row_x, row_flat, row_bits = _distinct(x, flat, bits, size)
        a = np.zeros((len(row_x), width), dtype)
        a[rows, c] = values.astype(dtype)
        x, flat, bits, c, values = cols
        cols, col_x, col_flat, col_bits = _distinct(x, flat, bits, size)
        b = np.zeros((width, len(col_x)), dtype)
        b[c, cols] = values.astype(dtype)
        xs = np.arange(pair.space(sides["X"]).dim + 1)
        return _Dense(
            size, a, b, row_flat, row_bits, col_flat, col_bits, x_in_rows,
            np.searchsorted(row_x if x_in_rows else col_x, xs),
        )

    return _cached(pair, ("dense", expr, frozenset(sides.items()), dtype), build)


def _sign_table(t: TemplateTerm, coeff: int, dtype) -> np.ndarray:
    """coeff times the term's Koszul sign, indexed by the parity bits."""
    parities = [
        {l: bits >> k & 1 for k, l in enumerate(LETTERS)} for bits in range(2 ** len(LETTERS))
    ]
    return np.array([coeff * eval_sign_pairs(t.sign_pairs, p) for p in parities], dtype)


def _form(pair: PairStructure, ident: Identity, orientation: int) -> tuple:
    """The evaluator form of one identity and orientation, as (name, dtype).

    Above the checked bound the arithmetic is Python ints, and only the
    dense form keeps it affordable: the join would box one int per
    contribution.  In int64 the sparse join runs when it has fewer
    contributions than the dense blocks have cells, which is the case on
    sparse pairs; on dense pairs the join would have more.
    """
    if _checked_bound(pair, ident) >= 2**62:
        return "dense", object
    sides = _orient(ident.sides, orientation)
    counts = [_term_counts(pair, t.expr, sides) for t in ident.residual_terms()]
    joins, cells = map(sum, zip(*counts))
    if joins < cells:
        return "join", np.int64
    return "dense", np.int64


def _residual(pair: PairStructure, ident: Identity, orientation: int, form: tuple):
    """The nonzero entries of the scaled residual of one orientation, as
    chunks (global keys, values) in increasing key order.  A key is
    ``X * size + flat``, so key order is the lexicographic order of
    (basis tuple, output index).

    The join form sums all contributions of all terms at once: sorted by
    key, repeats summed with ``np.add.reduceat``.  In int64 that is exact
    in any order, because the checked bound covers every partial sum.
    The dense form scatters every term's block into one residual per X
    index.
    """
    sides = _orient(ident.sides, orientation)
    terms, _, coeffs = _int_coeffs(ident)
    name, dtype = form
    tables = [_sign_table(t, c, dtype) for t, c in zip(terms, coeffs)]
    if name == "join":
        joins = [(_join_term(pair, t.expr, sides), table) for t, table in zip(terms, tables)]
        keys = np.concatenate([k for (k, _, _), _ in joins])
        values = np.concatenate([v * table[bits] for (_, bits, v), table in joins])
        if keys.size:
            # one sorted copy at a time keeps the peak at four arrays
            order = np.argsort(keys)
            keys = keys[order]
            values = values[order]
            starts = np.flatnonzero(np.diff(keys, prepend=-1))
            sums = np.add.reduceat(values, starts)
            kept = np.flatnonzero(sums)
            yield keys[starts[kept]], sums[kept]
        return
    blocks = [(_dense_term(pair, t.expr, sides, dtype), table) for t, table in zip(terms, tables)]
    size = blocks[0][0].size
    for xi in range(pair.space(sides["X"]).dim):
        residual = np.zeros(size, dtype)
        for term, table in blocks:
            flat, bits, values = term.block(xi)
            values *= table[bits]
            residual[flat] += values
        nz = np.flatnonzero(residual)
        yield xi * size + nz, residual[nz]


def _eval_identity(pair, ident, orientation, cap=FAILURE_CAP):
    """Check ``ident`` on every basis tuple of one orientation.

    The nonzero residual entries come from :func:`_residual`, in the
    form :func:`_form` picks, already in lexicographic tuple order; the
    failing tuples are their distinct ``key // d_out``.
    """
    sides = _orient(ident.sides, orientation)
    letters = tuple(sorted(sides, key=LETTERS.index))
    dims = [pair.space(sides[l]).dim for l in letters]
    if 0 in dims:
        return AxiomReport(ident.name, orientation, 0, 0, [], _adopted_form_id(ident))
    terms, coeff_scale, _ = _int_coeffs(ident)
    d_out = pair.space(_value_side(terms[0].expr, sides)).dim
    denom = coeff_scale * _scale(pair)[0] ** _degree(terms)
    failures: list[Failure] = []
    count = 0
    for keys, values in _residual(pair, ident, orientation, _form(pair, ident, orientation)):
        tuples, starts = np.unique(keys // d_out, return_index=True)
        count += len(tuples)
        ends = np.append(starts[1:], keys.size)
        for t, lo, hi in zip(tuples[: cap - len(failures)], starts, ends):
            where = dict(zip(letters, map(int, np.unravel_index(t, dims))))
            failures.append(Failure(where, {
                int(k % d_out): Fraction(int(v), denom)
                for k, v in zip(keys[lo:hi], values[lo:hi])
            }))
    return AxiomReport(
        ident.name, orientation, math.prod(dims), count, failures, _adopted_form_id(ident)
    )


# ---------------------------------------------------------------------------
# the independent Fraction oracle (tests compare the evaluator against it)


def _eval_expr_sparse(expr, env: dict, pair: PairStructure, sides: dict):
    """Evaluate a bracket tree to a sparse vector; env maps letters to
    sparse coordinate dicts on their side."""
    if isinstance(expr, Letter):
        return env[expr.name]
    L = _eval_expr_sparse(expr.left, env, pair, sides)
    R = _eval_expr_sparse(expr.right, env, pair, sides)
    I = _eval_expr_sparse(expr.iso, env, pair, sides)
    tensor = pair.m1 if _value_side(expr.left, sides) == 1 else pair.m2
    out: dict = {}
    for i, ci in I.items():
        for l, cl in L.items():
            cil = ci * cl
            for r, cr in R.items():
                comps = tensor.get((i, l, r))
                if comps:
                    c = cil * cr
                    for o, s in comps.items():
                        v = out.get(o, 0) + c * s
                        if v:
                            out[o] = v
                        elif o in out:
                            del out[o]
    return out


def residual_on_vectors(
    pair: PairStructure, ident: Identity, orientation: int, vectors: dict, parities: dict
) -> dict:
    """Exact identity residual on arbitrary homogeneous vectors.

    ``vectors`` maps letters to coordinate sequences on their side and
    ``parities`` to the parity bit of each (homogeneous) vector.
    """
    sides = _orient(ident.sides, orientation)
    env = {
        l: {i: Fraction(c) for i, c in enumerate(v) if c} for l, v in vectors.items()
    }
    residual: dict = {}
    for t in ident.residual_terms():
        c = t.coeff * eval_sign_pairs(t.sign_pairs, parities)
        for o, s in _eval_expr_sparse(t.expr, env, pair, sides).items():
            v = residual.get(o, 0) + c * s
            if v:
                residual[o] = v
            elif o in residual:
                del residual[o]
    return residual


# ---------------------------------------------------------------------------
# checkers


def check_evenness(pair: PairStructure, cap: int = FAILURE_CAP) -> list:
    """Parity of every nonzero component must equal the sum of the input
    parities; one report per tensor."""
    reports = []
    specs = [
        ("evenness[m1]", pair.m1, (pair.v2, pair.v1, pair.v1), pair.v1, ("u", "x", "y")),
        ("evenness[m2]", pair.m2, (pair.v1, pair.v2, pair.v2), pair.v2, ("x", "u", "v")),
    ]
    for name, tensor, in_spaces, out_space, names in specs:
        total = math.prod(s.dim for s in in_spaces)
        failures = []
        count = 0
        for key in sorted(tensor):
            expected = sum(s.parities[i] for s, i in zip(in_spaces, key)) % 2
            bad = {
                o: c
                for o, c in tensor[key].items()
                if out_space.parities[o] != expected
            }
            if bad:
                count += 1
                if len(failures) < cap:
                    failures.append(Failure(dict(zip(names, key)), bad))
        reports.append(AxiomReport(name, 0, total, count, failures, "printed"))
    return reports


def _kind_symmetry(pair: PairStructure) -> Identity:
    return CATALOG[
        "antisymmetry.isotopic" if pair.kind == ISOTOPIC else "symmetry.superJordan"
    ]


def check_symmetry(pair: PairStructure, cap: int = FAILURE_CAP) -> list:
    """Graded (anti)symmetry of both tensors, per the pair's kind."""
    ident = _kind_symmetry(pair)
    return [_eval_identity(pair, ident, orientation, cap) for orientation in (1, 2)]


def check_jacobi_analog(pair: PairStructure, cap: int = FAILURE_CAP) -> list:
    if pair.kind != ISOTOPIC:
        raise ValueError("jacobi analog applies to isotopic pairs")
    ident = CATALOG["jacobi_analog"]
    return [_eval_identity(pair, ident, o, cap) for o in (1, 2)]


def check_compatibility(pair: PairStructure, cap: int = FAILURE_CAP) -> list:
    if pair.kind != ISOTOPIC:
        raise ValueError("compatibility applies to isotopic pairs")
    ident = CATALOG["compatibility"]
    return [_eval_identity(pair, ident, o, cap) for o in (1, 2)]


def check_super_jordan(pair: PairStructure, cap: int = FAILURE_CAP) -> list:
    if pair.kind != SUPER_JORDAN:
        raise ValueError("the super-Jordan identity applies to superJordan pairs")
    ident = CATALOG["super_jordan"]
    return [_eval_identity(pair, ident, o, cap) for o in (1, 2)]


def verify(pair: PairStructure, cap: int = FAILURE_CAP) -> VerifyReport:
    """Evenness, graded (anti)symmetry, and the kind-appropriate identity
    suite, both orientations, aggregated."""
    reports = check_evenness(pair, cap)
    reports += check_symmetry(pair, cap)
    if pair.kind == ISOTOPIC:
        reports += check_jacobi_analog(pair, cap)
        reports += check_compatibility(pair, cap)
    else:
        reports += check_super_jordan(pair, cap)
    return VerifyReport(pair.kind, reports)
