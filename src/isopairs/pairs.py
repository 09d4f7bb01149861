"""Structure-constant pairs and exhaustive axiom checking.

A pair is two graded spaces V1, V2 with trilinear structure tensors

    m1 : V2 x V1 x V1 -> V1   (keys (u, x, y), sparse output vectors)
    m2 : V1 x V2 x V2 -> V2   (keys (x, u, v))

All defining identities are multilinear, so checking them on homogeneous
basis tuples is exhaustive.  The checkers evaluate the adopted identity
templates from :mod:`isopairs.supercore` on every basis tuple, in both
orientations (letters X, Y, Z on the V1 side and U, V on the V2 side,
then mirrored), and report exact residual vectors.

One evaluator checks every identity, over any graded spaces and
structure tensors (:class:`Tensors`): the pair's m1 and m2, and the one
space of a polarized superalgebra (its bracket table) or triple system
(its product), whose identities :mod:`isopairs.tkk` checks in the one
orientation 0.  Each node reads the tensor under its table key: a
bracket node its value side, an ``Act`` node ``("act", side)``, the
action tensor, keyed (op, arg), of operators on side 0 (which mirroring
keeps) on the side of its argument.  So ``supercore.EQUIVARIANCE``
checks that ad of a Lie algebra, or a hull's generators D(x, u), are
derivations of a pair.  Tensors are scaled by the lcm of their
denominators and divided by their content, the gcd of all the scaled
entries: every identity term has one degree in the tensors, so this
scales the residual by one power of one factor (von zur Gathen and
Gerhard, *Modern Computer Algebra*, ch. 6).  Each template term is read
from the nonzero entries of its two nodes in one of two forms:

* the sparse join: every pair of entries that meet on the contracted
  index is one contribution, keyed by its place in the residual; the
  contributions are sorted by key and repeats summed, so the work grows
  with the nonzero contributions.  Its rows are the node that holds X,
  taken one run of X indices at a time, and its columns the other node,
  sorted and counted by contracted index once;
* the dense form: products ``a @ b`` over the distinct rows and columns
  of the two nodes, in blocks of one X index and one parity pattern of
  the rows, each term's Koszul signs folded into a signed copy of ``b``.

Identities evaluated in lockstep group their terms by proportional
integer coefficients (J1..J6 of jacobi_analog and compatibility) and
evaluate each term once: the join sorts all the terms' keys once per
run of X indices, and each identity sums its signed values in that
order; a dense group adds its blocks into one buffer, and each residual
is an integer combination of the group buffers.  A term whose join has
no contribution is skipped in either form, and what depends on the
catalog identities alone is computed once, by ``functools.cache``.

:func:`verify` checks evenness and the kind's graded (anti)symmetry in
both orientations first.  When all four pass, the joins of the deep
identities evaluate one tuple per orbit of their letter symmetries, as
Jacobi is checked on i < j < k only (de Graaf, *Lie Algebras: Theory and
Algorithms*, 2000).  :func:`_symmetries` reads each identity's
symmetries off its template: a side-keeping permutation of the letters
is one when renaming the letters by it gives back the residual terms up
to a sign by the letters' parities, once each bracket node has its two
same-side arguments put in order by the kind's symmetry, with its
Koszul sign.  That rewrite gives a nested bracket the parity its
letters add up to, which holds on even tensors only: so the premise
includes evenness.  A join batch takes the symmetries that its
identities share, S2(X, Y) x S2(U, V) for jacobi_analog with
compatibility and X <-> Y for super_jordan, and keeps the contributions
of the orbit representatives X <= Y, U <= V, the least tuples of their
orbits: inside a node that holds both letters, otherwise before the
batch's sort.  A failing representative counts the distinct tuples of
its orbit, and the first failures are the orbits' tuples in key order,
each the representative's residual times its permutation's sign.
Every other evaluation (a failed premise, the dense form, the
identities of :mod:`isopairs.tkk`) runs the same code with the trivial
group.  The same derivation lists the word engine's instances of the
Definition-2 identities in :mod:`isopairs.reps`: their operator words
hold letters and no bracket to rewrite.

One checked bound on what a cell of the primitive residual sums, every
partial sum included, fixes the arithmetic, and the reports are exact
in each form.  Below 2^62 the int64 join runs when it has fewer
contributions than the dense blocks have cells, as on sparse pairs.
Otherwise the dense form runs: below 2^53 every partial sum is an
integer that float64 holds exactly, in any order of summation, so it
runs on float64 BLAS (the premise of FFLAS: Dumas, Giorgi and Pernet,
ACM TOMS 35(3), 2008); from 2^53 on it runs in float64 over the
residues modulo primes small enough that what one residual cell sums
stays below 2^53: a tuple fails iff some prime leaves a nonzero
residue, and Chinese remaindering gives its values.  Checks that are
not identities (evenness here, and the support and representation
checks elsewhere) build their reports with :func:`axiom_report`.  A
check reads each tensor once, evenness included: :func:`verify` shares
one :class:`Tensors`, and evenness tests the parities of its keys.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache, reduce
from itertools import chain, combinations, permutations
from typing import Sequence

import numpy as np

from .exactlin import scalar_from_str, scalar_to_str
from .supercore import (
    CATALOG,
    Act,
    Identity,
    Letter,
    SuperSpace,
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
        kept = {_index(i): f for i, c in comps.items()
                if (f := c if type(c) is Fraction else Fraction(c))}
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

    def tensors(self) -> "Tensors":
        return Tensors({1: self.v1, 2: self.v2}, {1: self.m1, 2: self.m2})

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

        def tensor(rows, names):
            out = {}
            for row in rows:
                key = tuple(index(row[n], n) for n in names)
                comps = {}
                for e in row["out"]:
                    o = index(e["idx"], "idx")
                    if o in comps:
                        raise ValueError(f"duplicate output index {o} in {key}")
                    comps[o] = scalar_from_str(e["c"])
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


@dataclass
class Tensors:
    """What the identity evaluator reads: a graded space per side (1 and
    2 for a pair; 0 for the one space of a superalgebra or triple system,
    or for the operators of a derivation identity), the structure tensors
    by table key, and the memo of what the identities evaluated over this
    object share; a check makes its own and drops it."""

    spaces: dict
    tensors: dict
    memo: dict = field(default_factory=dict)

    def cached(self, key: tuple, build):
        if key not in self.memo:
            self.memo[key] = build()
        return self.memo[key]


def _tensors(s) -> Tensors:
    """``s`` itself, or a fresh Tensors of a pair, superalgebra or triple system."""
    return s if isinstance(s, Tensors) else s.tensors()


def _orient(sides: dict, orientation: int) -> dict:
    """Orientation 2 swaps sides 1 and 2 and keeps 0; 0 and 1 keep all."""
    return {l: 3 - s if orientation == 2 and s else s for l, s in sides.items()}


def _value_side(expr, sides: dict) -> int:
    while not isinstance(expr, Letter):
        expr = expr.arg if isinstance(expr, Act) else expr.left
    return sides[expr.name]


def _table(expr, sides: dict):
    """A node's table key: its value side, or ("act", side) for an Act."""
    side = _value_side(expr, sides)
    return ("act", side) if isinstance(expr, Act) else side


def _term_degree(expr) -> int:
    return 0 if isinstance(expr, Letter) else 1 + sum(map(_term_degree, expr.slots))


def _nested(expr):
    """(slot, node) of the node nested in ``expr``, or (None, None)."""
    return next(((j, e) for j, e in enumerate(expr.slots) if not isinstance(e, Letter)),
                (None, None))


@cache
def _constants(ident: Identity) -> tuple:
    """(residual terms, the lcm ``cs`` of their denominators, their
    coefficients times ``cs``, their bracket degree, each term's Koszul
    sign by the parity bits, bit k that of ``ident.letters[k]``)."""
    terms, n = ident.residual_terms(), len(ident.letters)
    cs = reduce(math.lcm, (t.coeff.denominator for t in terms), 1)
    degrees = {_term_degree(t.expr) for t in terms}
    if len(degrees) != 1 or not degrees <= {1, 2}:
        raise TypeError("identity evaluation needs terms of one bracket degree, 1 or 2")
    bits = [{l: b >> k & 1 for k, l in enumerate(ident.letters)} for b in range(2**n)]
    signs = np.array([[eval_sign_pairs(t.sign_pairs, p) for p in bits] for t in terms])
    signs.flags.writeable = False  # shared by every evaluation
    return terms, cs, [int(t.coeff * cs) for t in terms], degrees.pop(), signs


@cache
def _symmetries(ident: Identity, rule: Identity) -> dict:
    """{σ: signs} of the identity's letter symmetries under ``rule``, the
    kind's symmetry.  σ is a side-keeping permutation of the letter
    positions and signs a ±1 table by parity bits (bit k that of letter
    k), such that the residual at the tuple σ·t, whose letter k takes t's
    index of letter σ[k], is signs[bits of t] times the residual at t.  σ
    is kept when renaming each letter k to letter σ[k] in the residual
    terms gives back the terms times those signs, once each node of
    ``rule``'s shape has the two slots that ``rule`` swaps put in order of
    their first letters, times -c1 s1 / (c0 s0) of ``rule``'s residual
    terms (-A for antisymmetry, +A for symmetry) at the slots' parities,
    the sums of their letters', which holds on even tensors only."""
    letters, patterns = ident.letters, np.arange(2 ** len(ident.letters))
    terms, _, coeffs, _, signs = _constants(ident)
    rule_terms, _, (c0, c1), _, (s0, s1) = _constants(rule)
    shape, after = (t.expr for t in rule_terms)
    i, j = (k for k, (a, b) in enumerate(zip(shape.slots, after.slots)) if a != b)
    swap = -c1 * s1 // (c0 * s0)

    def canon(expr, name: dict):
        """(a key of ``expr`` renamed by ``name``, with the slots of each
        node of ``rule``'s shape in order, its letters, its sign by parity
        bits)."""
        if isinstance(expr, Letter):
            return name[expr.name], (name[expr.name],), 1
        keys, held, slot_signs = map(list, zip(*(canon(e, name) for e in expr.slots)))
        k = math.prod(slot_signs)
        if type(expr) is type(shape) and expr.op == shape.op and (
                min(map(letters.index, held[j])) < min(map(letters.index, held[i]))):
            odd = [sum(patterns >> letters.index(a) for a in ls) & 1 for ls in held]
            k = k * swap[sum(p << rule.letters.index(l.name)
                             for p, l in zip(odd, shape.slots))]
            keys[i], keys[j] = keys[j], keys[i]
        return (type(expr), getattr(expr, "op", None), *keys), sum(held, ()), k

    def image(perm):
        """The residual at σ·t as {expression key: coefficient by parity bits of t}."""
        name = {l: letters[p] for l, p in zip(letters, perm)}
        moved = sum((patterns >> p & 1) << k for k, p in enumerate(perm))
        out: dict = {}
        for term, c, term_signs in zip(terms, coeffs, signs):
            expr, _, k = canon(term.expr, name)
            out[expr] = out.get(expr, 0) + c * term_signs[moved] * k
        return {e: v for e, v in out.items() if v.any()}

    base, group = image(range(len(letters))), {}
    for perm in permutations(range(len(letters))):
        if any(ident.sides[letters[p]] != ident.sides[l] for l, p in zip(letters, perm)):
            continue
        moved = image(perm)
        if moved.keys() == base.keys():
            a, b = np.array([moved[e] for e in base]), np.array([base[e] for e in base])
            signs_of = np.where((a * b).sum(0) < 0, -1, 1)
            if (a == signs_of * b).all():
                signs_of.flags.writeable = False  # shared by every evaluation
                group[perm] = signs_of
    return group


def _read(t: Tensors) -> None:
    """Read every tensor ``Fraction`` once, into the memo entries that
    :func:`_scale` and :func:`_coo` read: scaled to integers by the lcm
    of all denominators, then divided by their gcd, the content."""
    flat = chain.from_iterable
    values = {table: list(flat(map(dict.values, tensor.values())))
              for table, tensor in t.tensors.items()}
    lcm = math.lcm(*{c.denominator for cs in values.values() for c in cs})
    for cs in values.values():
        cs[:] = [c.numerator * (lcm // c.denominator) for c in cs] if lcm > 1 else (
            [c.numerator for c in cs])
    content = math.gcd(*flat(values.values())) or 1
    biggest = max(map(abs, flat(values.values())), default=1) // content
    t.memo[("scale",)] = Fraction(lcm, content), biggest
    for table, tensor in t.tensors.items():
        t.memo[("coo", table)] = (
            np.fromiter(flat(key * len(comps) for key, comps in tensor.items()), np.int64),
            np.fromiter(flat(tensor.values()), np.int64),
            [v // content for v in values[table]] if content > 1 else values[table],
        )


def _scale(s) -> tuple[Fraction, int]:
    """(the lcm of the tensors' denominators over their content, which
    makes them primitive integers; the largest primitive |entry|)."""
    t = _tensors(s)
    if ("scale",) not in t.memo:
        _read(t)
    return t.memo[("scale",)]


def _coo(t: Tensors, table, arity: int, primes: tuple = ()):
    """The primitive tensor under key ``table`` as keys (n, arity), outputs
    (n,) and int64 values (n,), or with ``primes`` their residues modulo
    each p, at most (p - 1) / 2 in size, as (len(primes), n)."""
    _scale(t)
    keys, outs, ints = t.memo[("coo", table)]
    values = t.cached(("values", table, primes), lambda: np.array(
        [[(v + p // 2) % p - p // 2 for v in ints] for p in primes] if primes else ints,
        np.int64))
    return keys.reshape(-1, arity), outs, values


def _checked_bound(s, ident: Identity) -> int:
    """Bound on what a cell of the primitive residual sums, every partial
    sum included: the integer coefficient magnitudes summed, rounded up to
    a power of two (which jacobi_analog and compatibility share), times
    max|m|^degree times width^(degree - 1), width <= the largest dim being
    the contracted length.  It covers every form, as each term adds at
    most ``width`` products to a cell, be it a key of the join, a dense
    block's cell, a group buffer of :func:`_lockstep` or an identity's
    combination of those.  float64 is exact below 2^53 and int64 below
    2^62 (``_EXACT_BELOW``)."""
    t = _tensors(s)
    _, _, coeffs, degree, _ = _constants(ident)
    width = max(max(space.dim for space in t.spaces.values()), 1)
    unit = width ** (degree - 1) << (sum(map(abs, coeffs)) - 1).bit_length()
    return unit * _scale(t)[1] ** degree


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the prime bases up to 37: exact below 3.1 * 10^23."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    powers = ([pow(a, (n - 1) >> s << r, n) for r in range(s)] for a in bases)
    return all(xs[0] == 1 or n - 1 in xs for xs in powers)


def _primes(t: Tensors, ident: Identity) -> tuple:
    """The largest primes p, as many as make their product exceed twice
    the checked bound.  That bound with h = (p - 1) / 2 for max|m|, plus
    p, stays within 2^53, so float64 sums and :func:`_residues` reduces
    exactly: at degree 2, with ``unit`` the bound over max|m|^2,
    (unit h + 1)^2 <= unit (2^53 - 1) + 1."""
    bound, degree = _checked_bound(t, ident), _constants(ident)[3]
    return _prime_search(bound, bound // _scale(t)[1] ** degree, degree)


@lru_cache
def _prime_search(bound: int, unit: int, degree: int) -> tuple:
    """:func:`_primes` of one checked bound, its unit and degree, searched once."""
    h = (2**53 - 1) // (unit + 2) if degree == 1 else (
        math.isqrt(unit * (2**53 - 1) + 1) - 1) // unit
    p, primes = 2 * h + 1, []
    while math.prod(primes) <= 2 * bound:
        primes.append(next(q for q in range(p, 2, -2) if _is_prime(q)))
        p = primes[-1] - 2
    return tuple(primes)


def _distinct(x, flat, bits, size):
    """Merge repeated (x, flat) keys, sorted by (x, bits, flat):
    (inverse, x, flat, bits)."""
    span = int(bits.max()) + 1 if bits.size else 1
    keys = (x * span + bits) * size + flat
    order = np.argsort(keys)
    new = np.diff(keys[order], prepend=-1) != 0  # the first of each run of a key
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(new) - 1
    first = order[new]
    return inverse, x[first], flat[first], bits[first]


@dataclass
class _Dense:
    """A term's dense form ``a @ b``: rows of ``a`` are the nested node's
    distinct letter tuples, columns of ``b`` the outer node's distinct
    (letters, output) tuples, each with its offset in the flat residual
    of one X index, ``size`` long; columns also carry their parity bits.
    The contracted index runs over its even values, then its odd ones.
    ``blocks[i]`` lists the products of X = i as (row parity bits, rows,
    columns, contracted values) slices.  The rows of a block share their
    parity bits, so the term's signed coefficients over it,
    ``table[bits | col_bits]``, are one factor times one sign per column,
    folded into a copy of ``b`` (see :meth:`signed`).  The contracted
    slice keeps the parities that both its rows and its columns meet, so
    on even tensors a block skips the half of ``a @ b`` that parity makes
    zero."""

    size: int
    a: np.ndarray
    b: np.ndarray
    row_flat: np.ndarray
    col_flat: np.ndarray
    col_bits: np.ndarray
    blocks: list

    def signed(self, table: np.ndarray) -> dict:
        """{row parity pattern: (copy of ``b``, factor)}: the factor times
        the copy is ``b`` with every column times ``table[pattern | column
        bits]``, the term's signed coefficient.  The patterns that flip the
        same columns, those whose coefficient differs from the factor,
        share a copy."""
        columns, copies, out = np.flatnonzero(np.bincount(self.col_bits)), {}, {}
        for pattern in {pattern for block in self.blocks for pattern, *_ in block}:
            factor, entries = table[pattern | columns[0]], table[pattern | columns]
            key = tuple(entries != factor)
            if key not in copies:
                flips = table[pattern | self.col_bits] != factor
                copies[key] = np.where(flips, -self.b, self.b) if any(key) else self.b
            out[pattern] = copies[key], factor
        return out


def _nodes(t: Tensors, expr, sides: dict, letters: tuple, primes: tuple = ()):
    """One residual term as the nonzero entries of its two nodes:
    (size, width, x_in_rows, rows, cols), from which either form of the
    term is built, with the values :func:`_coo` gives for ``primes``.  X
    is the first of the identity's ``letters``, a letter of every term.

    ``rows`` are the nested node's entries (a single unit entry for a
    lone node) and ``cols`` the outer node's, each as (X index, flat
    offset, parity bits, contracted index, value, {letter: its index} of
    the node's letters).  The flat offset is the position in the
    residual of one X index, ``size`` long, with the output included
    for ``cols``; bit k of the parity bits belongs to
    ``letters[k]``.  A row and a column that agree on the contracted
    index (``width`` values: the nested node's output, the outer node's
    nested slot) make one contribution to the residual.  The node that
    holds X is the nested one when ``x_in_rows``."""
    first, named = letters[0], expr_letters(expr)
    own = [l for l in letters if l in named]
    if own[0] != first:
        raise TypeError(f"every term needs the identity's first letter {first!r}")
    stride, size = {first: 0}, t.spaces[_value_side(expr, sides)].dim
    for l in reversed(own[1:]):
        stride[l], size = size, size * t.spaces[sides[l]].dim
    parities = {s: np.array(t.spaces[s].parities, dtype=np.uint8) for s in set(sides.values())}

    def node(bracket):
        """(X index, flat offset, parity bits, nested-slot index,
        output, value, {letter: index}) of every nonzero entry of one node."""
        keys, outs, values = _coo(t, _table(bracket, sides), len(bracket.slots), primes)
        x = flat = nested = np.zeros(len(outs), np.int64)
        bits, at = np.zeros(len(outs), np.uint8), {}
        for j, e in enumerate(bracket.slots):
            if not isinstance(e, Letter):
                nested = keys[:, j]
                continue
            at[e.name] = keys[:, j]
            flat = flat + stride[e.name] * keys[:, j]
            bits = bits | parities[sides[e.name]][keys[:, j]] << letters.index(e.name)
        return at.get(first, x), flat, bits, nested, outs, values, at

    _, inner = _nested(expr)
    if inner is None:
        zero = np.zeros(1, np.int64)
        rows, width = (zero, zero, np.zeros(1, np.uint8), zero, np.ones(1, np.int64), {}), 1
    else:
        x, flat, bits, _, c, values, at = node(inner)
        rows, width = (x, flat, bits, c, values, at), t.spaces[_value_side(inner, sides)].dim
    x, flat, bits, c, o, values, at = node(expr)
    cols = (x, flat + o, bits, c, values, at)
    return size, width, inner is not None and first in expr_letters(inner), rows, cols


def _term_counts(t: Tensors, expr, sides: dict) -> tuple[int, int]:
    """(contributions of the term's sparse join, cells of its dense
    ``a @ b``), read off the two tensors: the join pairs each nested
    entry with the outer entries whose nested slot holds its output;
    ``a`` has a row per key of the nested tensor and ``b`` a column per
    outer (key without the nested slot, output)."""
    j, inner_node = _nested(expr)
    outer = _table(expr, sides)
    inner = None if j is None else _table(inner_node, sides)

    def build():
        _scale(t)  # keys and outputs only, so counting never reads a value
        keys, outs, _ = t.memo[("coo", outer)]
        keys = keys.reshape(-1, len(expr.slots))
        if inner is None:
            return len(outs), len(outs)
        width = t.spaces[_value_side(inner_node, sides)].dim
        joins = np.bincount(t.memo[("coo", inner)][1], minlength=width) @ (
            np.bincount(keys[:, j], minlength=width))
        d = max(space.dim for space in t.spaces.values())
        cols = np.sort(reduce(lambda acc, col: acc * d + col, [*np.delete(keys, j, axis=1).T, outs]))
        rows = len(t.tensors[inner])
        return int(joins), rows * np.count_nonzero(np.diff(cols, prepend=-1))

    return t.cached(("counts", outer, inner, j), build)


def _take(entries: tuple, index) -> tuple:
    """The node entries of :func:`_nodes` at ``index``."""
    *arrays, at = entries
    return (*(a[index] for a in arrays), {l: a[index] for l, a in at.items()})


def _join_term(t: Tensors, expr, sides: dict, letters: tuple, run: tuple, order: tuple = ()):
    """The term's sparse join over the X indices ``lo <= X < hi`` of
    ``run``: (global keys ``X * size + flat``, parity bits, int64
    values) of every contribution, each row times each column that
    shares its contracted index, whose tuple has index(a) <= index(b)
    for each pair of letters (a, b) of ``order``.  The rows are the
    entries of the node that holds X, the columns the other node's: the
    join treats its two nodes alike.  A node that holds both letters of
    a pair drops its entries out of order before the join, and the other
    pairs drop the contributions out of order."""
    def build():  # the nodes in order: rows sorted by X, columns by contracted index
        size, width, x_in_rows, *parts = _nodes(t, expr, sides, letters)
        across = [(a, b) for a, b in order if not any({a, b} <= p[5].keys() for p in parts)]

        def in_order(node):
            """The node's entries in order, with the indices of the letters of ``across`` only."""
            *arrays, at = node
            keep = [at[a] <= at[b] for a, b in order if {a, b} <= at.keys()]
            node = (*arrays, {l: at[l] for pair in across for l in pair if l in at})
            return _take(node, np.logical_and.reduce(keep)) if keep else node

        rows, cols = (in_order(node) for node in (parts if x_in_rows else parts[::-1]))
        counts = np.bincount(cols[3], minlength=width)
        return (size, _take(rows, np.argsort(rows[0], kind="stable")),
                _take(cols, np.argsort(cols[3], kind="stable")),
                counts, np.cumsum(counts) - counts, across)

    size, rows, cols, counts, first, across = t.cached(
        ("nodes", expr, frozenset(sides.items()), letters, order), build)
    x_r, flat_r, bits_r, c_r, v_r, at_r = _take(rows, slice(*np.searchsorted(rows[0], run)))
    _, flat_c, bits_c, _, v_c, at_c = cols  # the columns hold no X
    reps = counts[c_r]
    r = np.repeat(np.arange(len(c_r)), reps)
    # each row's run of the columns, which are sorted by contracted index
    c = np.repeat(first[c_r] - (np.cumsum(reps) - reps), reps) + np.arange(len(r))
    if across:
        at = lambda l: at_r[l][r] if l in at_r else at_c[l][c]
        keep = np.logical_and.reduce([at(a) <= at(b) for a, b in across])
        r, c = r[keep], c[keep]
    return (
        x_r[r] * size + flat_r[r] + flat_c[c],
        bits_r[r] | bits_c[c],
        v_r[r] * v_c[c],
    )


def _equal_runs(keys) -> tuple:
    """(starts, ends) of the runs of equal values in ``keys``, none if empty."""
    edge = np.ones(len(keys) + 1, bool)  # where a run starts, or the last one ends
    np.not_equal(keys[1:], keys[:-1], out=edge[1:-1])
    bounds = np.flatnonzero(edge)
    return bounds[:-1], bounds[1:]


def _dense_term(t: Tensors, expr, sides: dict, letters: tuple, primes: tuple) -> _Dense:
    """The term's dense form in float64: over the primitive integers, or
    with ``primes`` over their residues modulo each, stacked on a leading
    axis of ``a`` and ``b``."""
    def build():
        size, width, x_in_rows, rows, cols = _nodes(t, expr, sides, letters, primes)
        # the contracted index, even values first, to the places ``place``
        _, inner = _nested(expr)
        parity = np.array(t.spaces[_value_side(inner, sides)].parities if inner else [0])
        place, split = np.argsort(np.argsort(parity, kind="stable")), np.count_nonzero(parity == 0)
        lead = (len(primes),) if primes else ()
        x, flat, bits, c, values, _ = rows
        rows, row_x, row_flat, row_bits = _distinct(x, flat, bits, size)
        if primes:  # a residual of ``size`` per prime
            row_flat = row_flat + size * np.arange(len(primes))[:, None]
        a = np.zeros((*lead, len(row_x), width))
        a[..., rows, place[c]] = values
        x, flat, bits, c, values, _ = cols
        cols, col_x, col_flat, col_bits = _distinct(x, flat, bits, size)
        b = np.zeros((*lead, width, len(col_x)))
        b[..., place[c], cols] = values
        # the parities of the contracted index each row and column meets,
        # as bits (1 even, 2 odd); the columns sorted by X, then by them
        on_a, on_b = ((m != 0).any(tuple(range(len(lead)))) for m in (a, b))
        row_meets = on_a[:, :split].any(1) | 2 * on_a[:, split:].any(1)
        col_meets = on_b[:split].any(0) | 2 * on_b[split:].any(0)
        order = np.lexsort((col_meets, col_x))
        b, col_x, col_flat, col_bits, col_meets = (
            b[..., order], col_x[order], col_flat[order], col_bits[order], col_meets[order])
        # row groups of one X and one parity pattern, column groups of one
        # X and one meets; a block pairs a row and a column group of the
        # same X that meet on some parity, over the contracted values of
        # those parities
        dim = t.spaces[sides[letters[0]]].dim
        rows_of, cols_of = [[] for _ in range(dim)], [[] for _ in range(dim)]
        starts, ends = _equal_runs(row_x * (int(row_bits.max(initial=0)) + 1) + row_bits)
        meets = np.bitwise_or.reduceat(row_meets, starts) if len(starts) else starts
        groups = (row_x[starts], row_bits[starts], meets, starts, ends)
        for xi, pattern, m, lo, hi in zip(*(v.tolist() for v in groups)):
            rows_of[xi].append((pattern, m, slice(lo, hi)))
        starts, ends = _equal_runs(col_x * 4 + col_meets)
        groups = (col_x[starts], col_meets[starts], starts, ends)
        for xi, m, lo, hi in zip(*(v.tolist() for v in groups)):
            cols_of[xi].append((m, slice(lo, hi)))
        if x_in_rows:  # the other side has X = 0 throughout
            cols_of = cols_of[:1] * dim
        else:
            rows_of = rows_of[:1] * dim
        contracted = {1: slice(0, split), 2: slice(split, width), 3: slice(0, width)}
        blocks = [[(pattern, r, c, contracted[rm & cm]) for pattern, rm, r in rs for cm, c in cs
                   if rm & cm] for rs, cs in zip(rows_of, cols_of)]
        return _Dense(size, a, b, row_flat, col_flat, col_bits, blocks)

    return t.cached(("dense", expr, frozenset(sides.items()), letters, primes), build)


# the evaluator's forms, each with the checked bound below which its
# sums are exact in any order
_JOIN, _FLOAT, _MODULAR = ("join", np.int64), ("dense", np.float64), ("multimodular", np.float64)
_EXACT_BELOW = {_JOIN: 2**62, _FLOAT: 2**53, _MODULAR: math.inf}


def _form(s, ident: Identity, orientation: int) -> tuple:
    """The evaluator form of one identity and orientation, as (name, dtype),
    read off the checked bound.  Below 2^62 the sparse join runs in int64
    when it has fewer contributions than the dense blocks have cells,
    which is the case on sparse structures (on dense ones the join would
    have more).  Otherwise the dense form runs on float64 BLAS below 2^53,
    and at 2^53 and above modulo the primes of :func:`_primes`."""
    t = _tensors(s)
    bound, sides = _checked_bound(t, ident), _orient(ident.sides, orientation)
    if bound < _EXACT_BELOW[_JOIN]:
        joins, cells = map(sum, zip(*(_term_counts(t, term.expr, sides)
                                      for term in _constants(ident)[0])))
        if joins < cells:
            return _JOIN
    return _FLOAT if bound < _EXACT_BELOW[_FLOAT] else _MODULAR


# sparse-join contributions per run of X indices: the joins and the
# arrays that sum them are built one run at a time
_RUN = 2**15


def _runs(t: Tensors, evals: list) -> list:
    """The runs ``(lo, hi)`` of X indices of a batch of sparse joins."""
    joins = sum(_term_counts(t, expr, evals[0].sides)[0] for members in
                _term_groups(tuple(e.ident for e in evals)).values() for expr, *_ in members)
    n, dim = 1 + joins // _RUN, evals[0].dims[0]
    bounds = sorted({dim * k // n for k in range(n + 1)})
    return list(zip(bounds[:-1], bounds[1:]))


class _Evaluation:
    """One identity and orientation over a :class:`Tensors`, in the form
    :func:`_form` picks unless ``form`` is given.  Its residuals come at
    the representatives of the orbits of ``group``, a list of (σ, signs)
    (see :func:`_symmetries`) with the identity first, which
    :func:`_orbits` sets for a join batch and which is otherwise the
    identity alone; ``order`` lists the pairs of letters in order at the
    representatives."""

    def __init__(self, t: Tensors, ident: Identity, orientation: int, form=None):
        self.t, self.ident, self.orientation = t, ident, orientation
        self.sides = sides = _orient(ident.sides, orientation)
        self.dims = [t.spaces[sides[l]].dim for l in ident.letters]
        terms, coeff_scale, _, degree, signs = _constants(ident)
        self.d_out = t.spaces[_value_side(terms[0].expr, sides)].dim
        self.denom = coeff_scale * _scale(t)[0] ** degree
        self.form = form or (None if 0 in self.dims else _form(t, ident, orientation))
        if form and not _checked_bound(t, ident) < _EXACT_BELOW.get(form, 0):
            raise ValueError(f"{ident.name} is not exact in the evaluator form {form}")
        self.primes = _primes(t, ident) if self.form == _MODULAR else ()
        self.modulus = m = math.prod(self.primes)
        self.crt = [m // p * pow(m // p, -1, p) for p in self.primes]
        self.parities = [t.spaces[sides[l]].parities for l in ident.letters]
        self.group, self.order = [(tuple(range(len(self.dims))), np.ones_like(signs[0]))], ()
        self.kept: list = []  # (tuple's key, failure), the first ``cap`` in key order
        self.count = 0

    def value(self, v) -> int:
        """The integer of a residual value, by CRT if multimodular."""
        if not self.primes:
            return int(v[0])
        x = sum(map(operator.mul, v.tolist(), self.crt)) % self.modulus
        return x - self.modulus if 2 * x > self.modulus else x

    def add(self, keys, values, cap: int):
        """Count the failing tuples of the nonzero residual cells ``keys``,
        in key order, at representatives: each counts its orbit's distinct
        tuples.  Keep the first ``cap`` failures in key order, from the
        orbits' smallest tuples, each the representative's residual times
        its σ's sign; only the kept failures are read into Fractions."""
        if not keys.size:  # most chunks of a passing pair
            return
        tuples = keys // self.d_out
        starts, ends = _equal_runs(tuples)
        reps = tuples[starts]
        at = np.unravel_index(reps, self.dims)
        images = np.array([reps, *(np.ravel_multi_index([at[k] for k in perm], self.dims)
                                   for perm, _ in self.group[1:])])
        new = np.ones(images.shape, bool)  # the first σ to give each distinct image
        for g in range(1, len(images)):
            new[g] = (images[g] != images[:g]).all(0)
        g, i = np.nonzero(new)
        self.count += len(g)
        image = images[g, i]
        if cap and len(self.kept) == cap:
            below = image < self.kept[-1][0]
            g, i, image = g[below], i[below], image[below]
        if len(image) > cap:
            least = np.argpartition(image, cap)[:cap]
            g, i, image = g[least], i[least], image[least]
        for g, i, key in zip(g.tolist(), i.tolist(), image.tolist()):
            sign, lo, hi = 1, starts[i], ends[i]  # the identity's sign is 1
            if g:
                bits = sum(p[a[i]] << k for k, (p, a) in enumerate(zip(self.parities, at)))
                sign = int(self.group[g][1][bits])
            where = dict(zip(self.ident.letters, map(int, np.unravel_index(key, self.dims))))
            self.kept.append((key, Failure(where, {
                int(k % self.d_out): Fraction(sign * self.value(v), self.denom)
                for k, v in zip(keys[lo:hi], values[lo:hi])
            })))
        self.kept.sort(key=operator.itemgetter(0))
        del self.kept[cap:]

    def report(self) -> AxiomReport:
        return AxiomReport(self.ident.name, self.orientation, math.prod(self.dims), self.count,
                           [f for _, f in self.kept], _adopted_form_id(self.ident))


def _orbits(batch: list, rule: Identity) -> None:
    """Let a join batch evaluate one tuple per orbit: the permutations
    that every member's symmetries under ``rule`` share, and that keep
    each block of letters that their shared transpositions join, act on
    the tuples; the representative of an orbit, its least tuple in key
    order, has each block's letters in order."""
    letters, n = batch[0].ident.letters, len(batch[0].ident.letters)
    groups = [_symmetries(e.ident, rule) for e in batch]
    common = set.intersection(*map(set, groups))
    swaps = [(a, b) for a, b in combinations(range(n), 2)
             if tuple(b if k == a else a if k == b else k for k in range(n)) in common]
    block = list(range(n))
    for a, b in swaps:
        block = [block[a] if x == block[b] else x for x in block]
    perms = sorted(p for p in common if all(block[p[k]] == block[k] for k in range(n)))
    for e, group in zip(batch, groups):
        e.group = [(p, group[p]) for p in perms]
        e.order = tuple((letters[a], letters[b]) for a, b in swaps)


def _residues(stacked: np.ndarray, primes: tuple) -> np.ndarray:
    """Row k of float64 integers x modulo ``primes[k]``, in place: x - p
    rint(x / p) in (-p, p), exact while |x| + p <= 2^53, and 0 iff p | x."""
    tmp = np.empty(stacked.shape[1:])
    for row, p in zip(stacked, primes):
        row -= np.multiply(np.rint(np.divide(row, p, out=tmp), out=tmp), p, out=tmp)
    return stacked


@cache
def _term_groups(idents: tuple) -> dict:
    """{direction: [(expression, Koszul signs by parity bits, multiple)]}:
    the identities' residual terms, a term's coefficient in identity i its
    multiple times direction[i], a direction of gcd 1 with a positive
    first nonzero."""
    columns: dict = {}
    for i, (terms, _, coeffs, _, signs) in enumerate(map(_constants, idents)):
        for term, c, sign in zip(terms, coeffs, signs):
            key = term.expr, term.sign_pairs
            columns.setdefault(key, (sign, [0] * len(idents)))[1][i] += c
    groups: dict = {}
    for (expr, _), (sign, column) in columns.items():
        if any(column):
            k = math.gcd(*column) * (1 if next(filter(None, column)) > 0 else -1)
            groups.setdefault(tuple(c // k for c in column), []).append((expr, sign, k))
    return groups


def _lockstep(t: Tensors, evals: list):
    """(evaluation, keys ``X * size + flat``, int64 rows that
    :meth:`_Evaluation.value` reads) of the nonzero primitive residuals of
    dense forms that share sides, output side and form (primes), X index
    by X index.  Each group of :func:`_term_groups` adds its blocks,
    signed by their multiples, into one buffer; the identities then sum
    the group buffers by their directions, last to first, each in the
    buffer of a group it takes once and no earlier identity takes, if
    any.  A group's multiples divide its members' coefficients, so every
    partial sum is within the bound of an exact member."""
    first, letters, primes = evals[0], evals[0].ident.letters, evals[0].primes
    size = first.d_out * math.prod(first.dims[1:])
    groups = [(d, [(dense, dense.signed(k * sign)) for expr, sign, k in members
                   if _term_counts(t, expr, first.sides)[0]
                   for dense in [_dense_term(t, expr, first.sides, letters, primes)]])
              for d, members in _term_groups(tuple(e.ident for e in evals)).items()]
    buffers = [np.zeros(max(len(primes), 1) * size) for _ in groups]
    outs = [next((b for (d, _), b in zip(groups, buffers) if d[i] == 1 and not any(d[:i])),
                 None) for i in range(len(evals))]
    outs = [np.zeros_like(buffers[0]) if out is None else out for out in outs]
    shared = [b for b in buffers if all(b is not out for out in outs)]
    for xi in range(first.dims[0]) if any(terms for _, terms in groups) else ():
        for buffer, (_, terms) in zip(buffers, groups):
            for term, signed in terms:
                for pattern, rows, cols, c in term.blocks[xi]:
                    b, factor = signed[pattern]
                    flat = term.row_flat[..., rows, None] + term.col_flat[cols]
                    buffer[flat] += (factor * term.a[..., rows, c]) @ b[..., c, cols]
        for i, (e, out) in reversed(list(enumerate(zip(evals, outs)))):
            for (d, _), buffer in zip(groups, buffers):
                if d[i] and buffer is not out:  # no temporary for d[i] = -1
                    (np.add if d[i] > 0 else np.subtract)(
                        out, buffer if abs(d[i]) == 1 else abs(d[i]) * buffer, out=out)
            stacked = _residues(out.reshape(-1, size), primes) if primes else out[None]
            nz = np.flatnonzero(stacked.any(0))
            yield e, xi * size + nz, stacked[:, nz].T.astype(np.int64)
            stacked[:, nz] = 0  # the other cells are 0 already
        for buffer in shared:
            buffer.fill(0)


def _joined(t: Tensors, evals: list):
    """(evaluation, keys, int64 rows) of the nonzero primitive residuals of
    join forms that share sides and output side, run by run of X indices:
    each term of :func:`_term_groups` with contributions joins once, signed
    by its multiple, the keys of all the terms are sorted once, and each
    identity sums in that one order the values times its direction entry."""
    sides, letters, pairs = evals[0].sides, evals[0].ident.letters, evals[0].order
    groups = _term_groups(tuple(e.ident for e in evals))
    terms = [(d, expr, k * sign) for d, members in groups.items()
             for expr, sign, k in members if _term_counts(t, expr, sides)[0]]
    for run in _runs(t, evals) if terms else ():
        joins = [_join_term(t, expr, sides, letters, run, pairs) for _, expr, _ in terms]
        keys = np.concatenate([keys for keys, _, _ in joins])
        signed = [v * table[bits] for (_, bits, v), (*_, table) in zip(joins, terms)]
        del joins  # free the joins before the sort copies the run
        order = np.argsort(keys)
        keys = keys[order]
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        for i, e in enumerate(evals):
            values = np.concatenate([d[i] * v for (d, _, _), v in zip(terms, signed)])
            sums = np.add.reduceat(values[order], starts)
            kept = np.flatnonzero(sums)
            yield e, keys[starts[kept]], sums[kept, None]


def _residuals(t: Tensors, evals: list, rule: Identity | None = None):
    """(evaluation, keys, values) chunks of the nonzero primitive residuals
    of evaluations that share their X, each in key order, by batches of
    one form, sides and output side: the joins run by run, the dense forms
    X index by X index.  With ``rule`` a join batch keeps the tuples of
    :func:`_orbits` only."""
    batches: dict = {}
    for e in (e for e in evals if e.form is not None):
        batches.setdefault((e.form, e.primes, tuple(e.sides.items()), e.d_out), []).append(e)
    for (form, *_), batch in batches.items():
        if rule and form == _JOIN:
            _orbits(batch, rule)
        yield from (_joined if form == _JOIN else _lockstep)(t, batch)


def _eval_identities(s, idents: Sequence[Identity], orientation: int, cap: int,
                     rule: Identity | None = None) -> list:
    """Check identities that share their X side on every basis tuple of one
    orientation of a pair, superalgebra, triple system or :class:`Tensors`.
    ``rule`` is the pair kind's symmetry, given only when it and evenness
    have passed on both tensors: the joins then evaluate one tuple per
    orbit of the identities' letter symmetries, and the reports are those
    of every tuple."""
    t = _tensors(s)
    evals = [_Evaluation(t, ident, orientation) for ident in idents]
    for e, keys, values in _residuals(t, evals, rule):
        e.add(keys, values, cap)
    return [e.report() for e in evals]


def _eval_identity(s, ident, orientation, cap=FAILURE_CAP):
    """Check ``ident`` on every basis tuple of one orientation of ``s``."""
    return _eval_identities(s, [ident], orientation, cap)[0]


# ---------------------------------------------------------------------------
# checkers


def axiom_report(
    name: str, orientation: int, total: int, entries, cap: int, adopted_form: str = "printed"
) -> AxiomReport:
    """The report of a check over ``total`` places from ``(where,
    residual)`` entries in order: a nonempty residual fails, every
    failure is counted, the first ``cap`` are kept; absent places pass."""
    failures, count = [], 0
    for where, residual in entries:
        if residual:
            count += 1
            if len(failures) < cap:
                failures.append(Failure(where, residual))
    return AxiomReport(name, orientation, total, count, failures, adopted_form)


def check_evenness(pair: PairStructure | Tensors, cap: int = FAILURE_CAP) -> list:
    """Parity of every nonzero component must equal the sum of the input
    parities; one report per tensor.  The parities are tested on the keys
    and outputs that the identity checks read, from ``pair`` or its
    :class:`Tensors`, and only the failing entries are read again."""
    t, reports = _tensors(pair), []
    _scale(t)
    for side, names in ((1, ("u", "x", "y")), (2, ("x", "u", "v"))):
        own, other = (np.array(t.spaces[s].parities, np.int64) for s in (side, 3 - side))
        keys, outs, _ = t.memo[("coo", side)]
        keys = keys.reshape(-1, 3)
        odd = (other[keys[:, 0]] + own[keys[:, 1]] + own[keys[:, 2]] + own[outs]) % 2 != 0
        failing: dict = {}
        for key, o in zip(map(tuple, keys[odd].tolist()), outs[odd].tolist()):
            failing.setdefault(key, {})[o] = t.tensors[side][key][o]
        entries = ((dict(zip(names, key)), failing[key]) for key in sorted(failing))
        total = len(other) * len(own) ** 2
        reports.append(axiom_report(f"evenness[m{side}]", 0, total, entries, cap))
    return reports


def _kind_symmetry(pair: PairStructure) -> Identity:
    return CATALOG[
        "antisymmetry.isotopic" if pair.kind == ISOTOPIC else "symmetry.superJordan"
    ]


def _check(s, names: Sequence[str], cap: int, rule: Identity | None = None) -> list:
    """The reports of the named identities, each in both orientations,
    evaluated together over one :class:`Tensors` (``s`` or a pair's), with
    ``rule`` as in :func:`_eval_identities`.  The orientations share the
    scale and the integer tensors, but no dense form: orientation 2's are
    keyed by the swapped sides and read the other tensor, so each
    orientation's are dropped once it is done."""
    t = _tensors(s)
    idents = [CATALOG[n] for n in names]
    by_orientation = []
    for o in (1, 2):
        by_orientation.append(_eval_identities(t, idents, o, cap, rule))
        t.memo = {k: v for k, v in t.memo.items() if k[0] != "dense"}
    return [r for rs in zip(*by_orientation) for r in rs]


def check_symmetry(pair: PairStructure, cap: int = FAILURE_CAP) -> list:
    """Graded (anti)symmetry of both tensors, per the pair's kind."""
    return _check(pair, [_kind_symmetry(pair).name], cap)


def check_super_jordan(pair: PairStructure, cap: int = FAILURE_CAP) -> list:
    if pair.kind != SUPER_JORDAN:
        raise ValueError("the super-Jordan identity applies to superJordan pairs")
    return _check(pair, ["super_jordan"], cap)


def verify(pair: PairStructure, cap: int = FAILURE_CAP) -> VerifyReport:
    """Evenness, graded (anti)symmetry, and the kind-appropriate identity
    suite, both orientations, aggregated.  Every check reads the pair's
    one :class:`Tensors`, and the identities are evaluated together, so
    that jacobi_analog and compatibility share J1..J6.  When evenness and
    the kind's symmetry pass on both tensors, the joins of the identity
    suite evaluate one tuple per orbit of its letter symmetries."""
    deep = ["jacobi_analog", "compatibility"] if pair.kind == ISOTOPIC else ["super_jordan"]
    symmetry, t = _kind_symmetry(pair), pair.tensors()
    reports = check_evenness(t, cap) + _check(t, [symmetry.name], cap)
    rule = symmetry if all(r.passed for r in reports) else None
    return VerifyReport(pair.kind, reports + _check(t, deep, cap, rule))
