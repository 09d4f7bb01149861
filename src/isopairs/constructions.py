"""Concrete pair builders.

Matrix envelopes over Mat(n|m) with closure checking, the five series
(gl, osp+-, q, osq), centralizer subpairs, Killing-form magnetic pairs
over a semisimple Lie algebra, and the symmetric-square construction
(g, S^2(g)) together with its invariants quotient.

Envelope elements are ``exactlin.Matrix`` objects on sparse rows; a
bracket of basis elements is computed in the envelope and expressed in
the target span exactly, raising :class:`NotClosed` when it escapes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Sequence

from .exactlin import (
    IncrementalSpan,
    Matrix,
    axpy,
    kernel_basis,
    scalar_to_str,
    span_basis,
)
from .pairs import (
    FAILURE_CAP,
    ISOTOPIC,
    PairStructure,
    SpaceMismatch,
    Tensors,
    _canon_tensor,
    _eval_identity,
    verify,
)
from .rng import Lcg64
from .supercore import EQUIVARIANCE, TKK_CATALOG, SuperSpace, sign_a

@dataclass(frozen=True)
class SuperMatrixSpace:
    """Mat(n|m): (n+m) x (n+m) matrices, off-diagonal blocks odd."""

    n: int
    m: int

    @property
    def size(self) -> int:
        return self.n + self.m

    def parity_of_index(self, i: int, j: int) -> int:
        return 1 if (i < self.n) != (j < self.n) else 0

    def parity_of(self, a: Matrix) -> Optional[int]:
        """Parity bit of a homogeneous matrix, None if mixed or zero."""
        ps = {self.parity_of_index(i, j) for i, j, _ in a.nonzeros()}
        return ps.pop() if len(ps) == 1 else None

    def unit(self, i: int, j: int, c=1) -> Matrix:
        """c times the matrix unit E_ij."""
        return Matrix(self.size, self.size, [(i, j, c)])

    def units(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.size) for j in range(self.size)]


class NotClosed(Exception):
    """A bracket of span elements left the span."""

    def __init__(self, side: int, triple, offending: Matrix):
        self.side = side
        self.triple = triple
        self.offending = offending
        shown = {f"({i},{j})": scalar_to_str(c) for i, j, c in offending.nonzeros()}
        super().__init__(f"side {side}, triple {triple}: product escapes span {shown}")


@dataclass
class EnvelopePair:
    """A pair cut out of a matrix envelope; keeps its matrix realization
    so brackets of arbitrary elements stay computable."""

    space: SuperMatrixSpace
    basis1: list
    basis2: list
    pair: PairStructure
    convention: str = ""
    attempts: list = field(default_factory=list)

    def matrix_of(self, side: int, coords: dict) -> Matrix:
        """The side's element with sparse coordinates basis index -> scalar."""
        basis = self.basis1 if side == 1 else self.basis2
        out = Matrix.zeros(self.space.size, self.space.size)
        for k, c in coords.items():
            out = out + basis[k].scale(c)
        return out


def _brackets(space: SuperMatrixSpace, iso: list, args: list, sgn: int) -> dict:
    """Every nonzero bracket x_i u_j x_k + sgn A x_k u_j x_i of u_j in
    ``iso`` and x_i, x_k in ``args``, A the ``sign_a`` of their parities,
    as ``Matrix.flat`` dicts keyed (j, i, k) in sorted order.  Block
    (i, k) of (x_0; x_1; ...) u_j (x_0 x_1 ...) is the word x_i u_j x_k:
    the first word of bracket (j, i, k) and the second of (j, k, i)."""
    n, d = space.size, len(args)
    pu = [space.parity_of(u) for u in iso]
    px = [space.parity_of(x) for x in args]
    stacked = Matrix(d * n, n, [(i * n + r, c, v) for i, x in enumerate(args)
                                for r, c, v in x.nonzeros()])
    joined = Matrix(n, d * n, [(r, k * n + c, v) for k, x in enumerate(args)
                               for r, c, v in x.nonzeros()])
    out: dict = {}
    for j, u in enumerate(iso):
        words: dict = {}
        for row, col, v in (stacked @ u @ joined).nonzeros():
            (i, r), (k, c) = divmod(row, n), divmod(col, n)
            words.setdefault((i, k), {})[r * n + c] = v
        for (i, k), w in words.items():
            axpy(out.setdefault((j, i, k), {}), 1, w)
            axpy(out.setdefault((j, k, i), {}), sgn * sign_a(px[k], pu[j], px[i]), w)
    return {key: v for key, v in sorted(out.items()) if v}


def _unflat(space: SuperMatrixSpace, v: dict) -> Matrix:
    """The matrix whose ``flat`` is v."""
    return Matrix(space.size, space.size, [(*divmod(f, space.size), c) for f, c in v.items()])


def _side(space: SuperMatrixSpace, basis: list, side: int) -> tuple[list, IncrementalSpan]:
    """The parities of a side's basis and the span that solves over it."""
    ps, span = [], IncrementalSpan(track_combos=True)
    for k, b in enumerate(basis):
        ps.append(space.parity_of(b))
        if ps[-1] is None:
            raise ValueError(f"basis element {k} of side {side} is not homogeneous")
        if not span.insert(b.flat()):
            raise ValueError("envelope basis is linearly dependent")
    return ps, span


def envelope_pair(
    space: SuperMatrixSpace,
    basis1: list,
    basis2: list,
    kind: str = ISOTOPIC,
    labels1: Optional[Sequence[str]] = None,
    labels2: Optional[Sequence[str]] = None,
) -> EnvelopePair:
    """Structure constants of the envelope brackets on the given spans.

    kind "isotopic" uses x u y - A y u x, kind "superJordan" the plus
    model; membership is solved exactly and NotClosed carries the first
    escaping product.
    """
    (p1, span1), (p2, span2) = _side(space, basis1, 1), _side(space, basis2, 2)
    sgn = -1 if kind == ISOTOPIC else 1
    labels1 = list(labels1) if labels1 else [f"x{i}" for i in range(len(basis1))]
    labels2 = list(labels2) if labels2 else [f"u{i}" for i in range(len(basis2))]

    def build(iso, args, span, side):
        # a nonzero bracket in the span has nonzero coordinates
        tensor = {}
        for key, prod in _brackets(space, iso, args, sgn).items():
            tensor[key] = span.solve(prod)
            if tensor[key] is None:
                raise NotClosed(side, key, _unflat(space, prod))
        return tensor

    m1 = build(basis2, basis1, span1, 1)
    m2 = build(basis1, basis2, span2, 2)
    pair = PairStructure(
        SuperSpace.make(labels1, p1), SuperSpace.make(labels2, p2), kind, m1, m2
    )
    return EnvelopePair(space, list(basis1), list(basis2), pair)


# ---------------------------------------------------------------------------
# the five series


def series_gl(n: int, m: int) -> EnvelopePair:
    """Full Mat(n|m) on both sides; dimensions (n^2+m^2 | 2nm) each."""
    if n + m < 1:
        raise ValueError("need n + m >= 1")
    space = SuperMatrixSpace(n, m)
    units_ = [space.unit(i, j) for i, j in space.units()]
    labels = [f"E{i},{j}" for i, j in space.units()]
    return envelope_pair(space, units_, units_, ISOTOPIC, labels, labels)


def series_osp(n: int, m: int, eps: int) -> EnvelopePair:
    """Subpair of gl(n,m): V1 has A antisymmetric, D symmetric, C = eps B^t;
    V2 has X symmetric, W antisymmetric, Z = eps Y^t."""
    if eps not in (1, -1):
        raise ValueError("eps must be +-1")
    space = SuperMatrixSpace(n, m)
    e = space.unit
    b1, l1 = [], []
    for i in range(n):
        for j in range(i + 1, n):
            b1.append(e(i, j) + e(j, i, -1))
            l1.append(f"a{i},{j}")
    for i in range(n, n + m):
        b1.append(e(i, i))
        l1.append(f"d{i},{i}")
        for j in range(i + 1, n + m):
            b1.append(e(i, j) + e(j, i))
            l1.append(f"d{i},{j}")
    for i in range(n):
        for j in range(n, n + m):
            b1.append(e(i, j) + e(j, i, eps))
            l1.append(f"b{i},{j}")
    b2, l2 = [], []
    for i in range(n):
        b2.append(e(i, i))
        l2.append(f"s{i},{i}")
        for j in range(i + 1, n):
            b2.append(e(i, j) + e(j, i))
            l2.append(f"s{i},{j}")
    for i in range(n, n + m):
        for j in range(i + 1, n + m):
            b2.append(e(i, j) + e(j, i, -1))
            l2.append(f"w{i},{j}")
    for i in range(n):
        for j in range(n, n + m):
            b2.append(e(i, j) + e(j, i, eps))
            l2.append(f"y{i},{j}")
    return envelope_pair(space, b1, b2, ISOTOPIC, l1, l2)


def _q_block(space: SuperMatrixSpace, odd: int, a: Matrix) -> Matrix:
    """diag(A, A), or antidiag(A, A) if ``odd``, inside Mat(n|n), A the
    upper-left n x n block of a."""
    n = space.n
    entries = [(i + s, j + (n - s if odd else s), c) for i, j, c in a.nonzeros() for s in (0, n)]
    return Matrix(space.size, space.size, entries)


def series_q(n: int) -> EnvelopePair:
    """Subpair of gl(n,n) cut by A = D, B = C; dimensions n^2 | n^2."""
    if n < 1:
        raise ValueError("need n >= 1")
    space = SuperMatrixSpace(n, n)
    e = space.unit
    basis, labels = [], []
    for i in range(n):
        for j in range(n):
            basis.append(_q_block(space, 0, e(i, j)))
            labels.append(f"e{i},{j}")
    for i in range(n):
        for j in range(n):
            basis.append(_q_block(space, 1, e(i, j)))
            labels.append(f"o{i},{j}")
    return envelope_pair(space, basis, basis, ISOTOPIC, labels, list(labels))


def series_osq(n: int) -> EnvelopePair:
    """Subpair of q(n) cut by symmetry conditions.

    The literal blockwise-transpose reading (V1: A^t = A, B^t = -B;
    V2: X^t = -X, W^t = W, which forces the even part of V2 to zero) is
    attempted first; it fails closure already through [u, u]_1 = 2 u^2.
    The supertranspose reading (V1 the fixed space, V2 the anti-fixed
    space of M -> M^st inside q(n), both purely even) closes and is
    adopted; every attempt is recorded on the result.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    space = SuperMatrixSpace(n, n)
    e = space.unit
    attempts = []

    # the symmetric even part of V1, shared by both readings
    s_basis, s_labels = [], []
    for i in range(n):
        s_basis.append(_q_block(space, 0, e(i, i)))
        s_labels.append(f"s{i},{i}")
        for j in range(i + 1, n):
            s_basis.append(_q_block(space, 0, e(i, j) + e(j, i)))
            s_labels.append(f"s{i},{j}")

    # literal reading
    b1, l1 = list(s_basis), list(s_labels)
    for i in range(n):
        for j in range(i + 1, n):
            b1.append(_q_block(space, 1, e(i, j) + e(j, i, -1)))
            l1.append(f"k{i},{j}")
    b2 = [_q_block(space, 1, e(i, j)) for i in range(n) for j in range(n)]
    l2 = [f"y{i},{j}" for i in range(n) for j in range(n)]
    try:
        ep = envelope_pair(space, b1, b2, ISOTOPIC, l1, l2)
        attempts.append({"reading": "literal", "closed": True})
        ep.convention = "literal"
        ep.attempts = attempts
        return ep
    except (NotClosed, ValueError) as exc:  # ValueError: an empty/degenerate span
        attempts.append({"reading": "literal", "closed": False, "detail": str(exc)})

    # supertranspose reading: fixed / anti-fixed spaces of M -> M^st in q(n)
    b2, l2 = [], []
    for i in range(n):
        for j in range(i + 1, n):
            b2.append(_q_block(space, 0, e(i, j) + e(j, i, -1)))
            l2.append(f"k{i},{j}")
    ep = envelope_pair(space, s_basis, b2, ISOTOPIC, s_labels, l2)
    attempts.append({"reading": "supertranspose", "closed": True})
    ep.convention = "supertranspose"
    ep.attempts = attempts
    return ep


def isoquaternionic_pair() -> EnvelopePair:
    """The isoquaternionic pair: gl(2,0) (Mat(2) is the complexified
    quaternion algebra, containing sl(2) + k)."""
    return series_gl(2, 0)


# ---------------------------------------------------------------------------
# centralizer subpairs


def centralizer_subpair(
    ep: EnvelopePair, a: Sequence[Fraction], b: Sequence[Fraction]
) -> EnvelopePair:
    """Subpair on V1' = ker X -> [a, X]_b and V2' = ker Y -> [b, Y]_a.

    (The source prints the V2 condition with a free element; the only
    well-formed reading mirrors the V1 side, i.e. [b, Y]_a = 0.)
    Closure is checked, not assumed.
    """
    pair = ep.pair
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    if len(a) != pair.v1.dim or len(b) != pair.v2.dim:
        raise SpaceMismatch("vector length does not match the pair's spaces")

    def kernel(side, iso, first):
        """The kernel of Y -> [first, Y]_iso, column k the image of e_k."""
        dim = pair.space(side).dim
        tensor = pair.m1 if side == 1 else pair.m2
        return kernel_basis(Matrix(dim, dim, [
            (o, k, iso[i] * first[l] * c)
            for (i, l, k), comps in tensor.items() for o, c in comps.items()
        ]))

    def graded_split(vectors, parities):
        """The RREF bases of the projections of span(vectors) onto each
        parity.  The span lies in the sum of its projections, so it is
        graded iff their dimensions add up to its own, and then each
        projection is its intersection with that parity."""
        graded = [v for p in (0, 1) for v in span_basis(
            {k: c for k, c in u.items() if parities[k] == p} for u in vectors)]
        if len(graded) != len(vectors):
            raise ValueError("centralizer kernel is not parity graded")
        return graded

    k1 = graded_split(kernel(1, b, a), pair.v1.parities)
    k2 = graded_split(kernel(2, a, b), pair.v2.parities)
    basis1 = [ep.matrix_of(1, v) for v in k1]
    basis2 = [ep.matrix_of(2, v) for v in k2]
    sub = envelope_pair(ep.space, basis1, basis2, pair.kind)
    sub.convention = "centralizer"
    return sub


# ---------------------------------------------------------------------------
# Lie data, Killing forms, magnetic pairs


def _check_form(form: Matrix, dim: int, what: str):
    """A bilinear form on a dim-dimensional algebra is dim x dim and symmetric."""
    if (form.rows, form.cols) != (dim, dim):
        raise ValueError(f"{what} is {form.rows} x {form.cols}, the algebra needs {dim} x {dim}")
    if form != form.transpose():
        raise ValueError(f"{what} is not symmetric")


@dataclass
class LieData:
    """A Lie algebra by structure constants, with optional invariant form.

    Antisymmetry and the Jacobi identity, the superalgebra identities of
    ``TKK_CATALOG`` over the even space g, are checked on construction;
    eta, when present, must be symmetric and invariant.
    """

    labels: tuple[str, ...]
    c: dict  # (i, j) -> {k: Fraction}
    eta: Optional[Matrix] = None

    def __post_init__(self):
        self.c = _canon_tensor(self.c)
        n = self.dim
        for key, comps in self.c.items():
            if len(key) != 2 or not all(0 <= i < n for i in (*key, *comps)):
                raise ValueError(f"structure constant index out of range at {key}")
        # given antisymmetry, super-Jacobi fails where the cyclic sum does
        t = Tensors({0: self.space}, {0: self.c})
        for name, what in (("superalgebra.antisymmetry", "structure constants not antisymmetric"),
                           ("superalgebra.super_jacobi", "Jacobi identity fails")):
            report = _eval_identity(t, TKK_CATALOG[name], 0, cap=1)
            if not report.passed:
                raise ValueError(f"{what} at {tuple(report.failures[0].where.values())}")
        if self.eta is not None:
            _check_form(self.eta, n, "eta")
            for i, j, k in itertools.product(range(n), repeat=3):
                s = self._eta_bracket(i, j, k) + self._eta_bracket(i, k, j)
                if s != 0:
                    raise ValueError("eta is not invariant")

    def _eta_bracket(self, x, y, z) -> Fraction:
        # eta([x, y], z)
        return sum(
            (c * self.eta[k, z] for k, c in self.c.get((x, y), {}).items()),
            Fraction(0),
        )

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def space(self) -> SuperSpace:
        return SuperSpace.make(self.labels, [0] * self.dim)

    def ad(self, i: int) -> Matrix:
        n = self.dim
        entries = [(k, j, c) for j in range(n) for k, c in self.c.get((i, j), {}).items()]
        return Matrix(n, n, entries)


def sl2() -> LieData:
    """Basis (e, h, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    c = {
        (1, 0): {0: Fraction(2)},
        (0, 1): {0: Fraction(-2)},
        (1, 2): {2: Fraction(-2)},
        (2, 1): {2: Fraction(2)},
        (0, 2): {1: Fraction(1)},
        (2, 0): {1: Fraction(-1)},
    }
    return LieData(("e", "h", "f"), c)


def so3() -> LieData:
    """Basis (e1, e2, e3): [e1,e2] = e3 cyclically."""
    c = {}
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[(i, j)] = {k: Fraction(1)}
        c[(j, i)] = {k: Fraction(-1)}
    return LieData(("e1", "e2", "e3"), c)


def killing_form(g: LieData) -> Matrix:
    """kappa(x, y) = trace(ad x ad y), exact."""
    ads = [g.ad(i) for i in range(g.dim)]
    return Matrix.from_rows(
        [[(ads[i] @ ads[j]).trace() for j in range(g.dim)] for i in range(g.dim)]
    )


def magnetic_pair(g: LieData, form: Matrix, sign: int = 1) -> PairStructure:
    """Pair over (g, g) with [X, Y]_U = +-((X,U) Y - (U,Y) X).

    The +-/-+ in the displayed bracket is read as assigning opposite
    overall signs to the two maps: m1 carries ``sign``, m2 carries
    ``-sign``.  With equal signs the compatibility identity fails with
    residual exactly -2 LHS (the left side composes m1 with m2, every
    right-hand term composes a map with itself); the opposite-sign
    reading passes the full suite and is machine-checked.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +-1")
    _check_form(form, g.dim, "form")
    if kernel_basis(form):
        raise ValueError("degenerate form rejected")
    n = g.dim

    def tensor(s):
        t = {}
        for u, x, y in itertools.product(range(n), repeat=3):
            # s ((X, U) Y - (U, Y) X)
            comps = axpy(axpy({}, s, {y: form[x, u]}), -s, {x: form[u, y]})
            if comps:
                t[(u, x, y)] = comps
        return t

    return PairStructure(
        g.space, g.space, ISOTOPIC, tensor(Fraction(sign)), tensor(Fraction(-sign))
    )


def g_equivariance_report(pair: PairStructure, g: LieData, cap: int = FAILURE_CAP) -> list:
    """ad_Z [X,Y]_U = [ad_Z X, Y]_U + [X,Y]_{ad_Z U} + [X, ad_Z Y]_U,
    ``EQUIVARIANCE["g_equivariance"]`` with g acting by its bracket on
    both sides, checked exhaustively on basis tuples for m1 (orientation
    1) and m2 (2)."""
    if pair.v1.dim != g.dim or pair.v2.dim != g.dim:
        raise SpaceMismatch("vector length does not match the pair's spaces")
    t = Tensors({0: g.space, 1: pair.v1, 2: pair.v2},
                {1: pair.m1, 2: pair.m2, ("act", 1): g.c, ("act", 2): g.c})
    return [
        replace(_eval_identity(t, EQUIVARIANCE["g_equivariance"], o, cap),
                identity=f"g_equivariance[m{o}]")
        for o in (1, 2)
    ]


# ---------------------------------------------------------------------------
# the (g, S^2(g)) construction


def sym2_pair(g: LieData, eta: Matrix):
    """Build (g, S^2(g)) from the printed formulas and report verdicts.

    The printed e-bracket coefficient tensor "e^rho_{beta delta}" is an
    undefined symbol; the literal reading is therefore rejected as
    ill-formed (it is also antisymmetric in (gamma, delta) where
    m_{gamma delta} is symmetric) and reported as such.  The
    c-substituted reading (e -> c) is built and fully verified; its
    verdict is reported, not asserted.  When S^2(g)^g is nonzero the
    quotient pair is built and verified as well.
    """
    n = g.dim
    g2 = LieData(g.labels, g.c, eta)  # validates symmetry + invariance
    pairs_idx = [(a, b) for a in range(n) for b in range(a, n)]
    index = {p: i for i, p in enumerate(pairs_idx)}
    D = len(pairs_idx)

    def sym_index(a, b):
        return index[(a, b) if a <= b else (b, a)]

    # m1 (c-substituted): [e_a, e_b]_{m_{gd}} = eta_{ag} c^r_{bd} - eta_{ad} c^r_{bg}
    m1 = {}
    for (gm, dl) in pairs_idx:
        u = index[(gm, dl)]
        for a, b in itertools.product(range(n), repeat=2):
            comps: dict = {}
            axpy(comps, eta[a, gm], g.c.get((b, dl), {}))
            axpy(comps, -eta[a, dl], g.c.get((b, gm), {}))
            if comps:
                m1[(u, a, b)] = comps

    # m2: [m_{ab}, m_{gd}]_{e_z} = c_{bgz} m_{ad} + c_{agz} m_{bd}
    #                            + c_{bdz} m_{ag} + c_{adz} m_{bg}
    m2 = {}
    for z in range(n):
        for (a, b), (gm, dl) in itertools.product(pairs_idx, repeat=2):
            comps = {}
            for coeff, pr in (
                (g2._eta_bracket(b, gm, z), (a, dl)),
                (g2._eta_bracket(a, gm, z), (b, dl)),
                (g2._eta_bracket(b, dl, z), (a, gm)),
                (g2._eta_bracket(a, dl, z), (b, gm)),
            ):
                axpy(comps, 1, {sym_index(*pr): coeff})
            if comps:
                m2[(z, index[(a, b)], index[(gm, dl)])] = comps

    v1 = g.space
    v2 = SuperSpace.make([f"m{a},{b}" for a, b in pairs_idx], [0] * D)
    pair = PairStructure(v1, v2, ISOTOPIC, m1, m2)

    # invariants S^2(g)^g : kernel of the stacked g-action on S^2
    entries = []
    for z, (col, (a, b)) in itertools.product(range(n), enumerate(pairs_idx)):
        for k, cc in g.c.get((z, a), {}).items():
            entries.append((z * D + sym_index(k, b), col, cc))
        for k, cc in g.c.get((z, b), {}).items():
            entries.append((z * D + sym_index(a, k), col, cc))
    invariants = kernel_basis(Matrix(n * D, D, entries)) if n else []

    full_verify = verify(pair)
    sym_m2 = next(
        r for r in full_verify.reports if r.identity.startswith("antisym") and r.orientation == 2
    )
    report = {
        "literal": {
            "well_formed": False,
            "reason": (
                "coefficient tensor e^rho_{beta delta} is undefined in the axiom "
                "system, and the displayed term is antisymmetric in (gamma, delta) "
                "while m_{gamma delta} is symmetric; rejected as ill-defined"
            ),
        },
        "c_substituted": {
            "verify": full_verify,
            "m_bracket_antisymmetry": sym_m2,
            "invariants_dimension": len(invariants),
        },
        "quotient": None,
    }

    if invariants:
        inv_span = IncrementalSpan().close(invariants)
        complement = [i for i in range(D) if i not in inv_span.pivots]
        qpos = {c: i for i, c in enumerate(complement)}

        def contract(kv, tensor, slot):
            """``tensor`` with ``kv`` in ``slot``: one vector per rest of the key."""
            out: dict = {}
            for key, comps in tensor.items():
                axpy(out.setdefault(key[:slot] + key[slot + 1:], {}), kv.get(key[slot], 0), comps)
            return out.values()

        # well-definedness: the e-bracket must kill invariant isotopes and
        # the m-bracket must map (invariant, anything) back into the
        # invariant subspace
        iso_ok = not any(v for kv in invariants for v in contract(kv, pair.m1, 0))
        m2_preserves = all(inv_span.contains(v) for kv in invariants
                           for slot in (1, 2) for v in contract(kv, pair.m2, slot))
        q_m1 = {(qpos[u], x, y): comps for (u, x, y), comps in sorted(pair.m1.items()) if u in qpos}
        q_m2 = {}
        for (z, a, b), comps in sorted(pair.m2.items()):
            r = inv_span.reduce(comps) if a in qpos and b in qpos else {}
            if r:  # the projection to the complement
                q_m2[(z, qpos[a], qpos[b])] = {qpos[i]: c for i, c in r.items()}
        qv2 = SuperSpace.make([f"q{i}" for i in range(len(complement))], [0] * len(complement))
        qpair = PairStructure(v1, qv2, ISOTOPIC, q_m1, q_m2)
        report["quotient"] = {
            "iso_action_kills_invariants": iso_ok,
            "m_bracket_preserves_invariants": m2_preserves,
            "verify": verify(qpair),
            "pair": qpair,
        }

    return pair, report


# ---------------------------------------------------------------------------
# seeded random closed subpairs and perturbations


def _random_homogeneous(space: SuperMatrixSpace, rng: Lcg64, parity: int) -> Matrix:
    # a purely even space has no odd cells: an odd draw gives an even matrix
    cells = [
        (i, j) for i, j in space.units() if space.parity_of_index(i, j) == parity
    ] or space.units()
    while True:
        out = Matrix.zeros(space.size, space.size)
        for _ in range(1 + rng.below(2)):
            c = rng.choice((-2, -1, 1, 2))
            out = out + space.unit(*rng.choice(cells), c)
        if not out.is_zero():
            return out


def random_closed_subpair(space: SuperMatrixSpace, rng: Lcg64) -> EnvelopePair:
    """Start from one or two random homogeneous matrices per side and
    alternately adjoin bracket images until the spans stabilize."""
    sides = []
    for _ in range(2):
        basis = [_random_homogeneous(space, rng, rng.below(2)) for _ in range(1 + rng.below(2))]
        span = IncrementalSpan()
        kept = []
        for b in basis:
            if span.insert(b.flat()):
                kept.append(b)
        sides.append((kept, span))
    (b1, s1), (b2, s2) = sides
    cap = space.size**2
    changed = True
    while changed and (len(b1) < cap or len(b2) < cap):
        changed = False
        for iso_b, arg_b, arg_span in ((b2, b1, s1), (b1, b2, s2)):
            # the brackets of this pass's bases: what it adjoins is
            # bracketed from the next pass on
            for prod in _brackets(space, iso_b, arg_b, -1).values():
                if arg_span.insert(prod):
                    arg_b.append(_unflat(space, prod))
                    changed = True
    return envelope_pair(space, b1, b2)


def random_even_perturbation(pair: PairStructure, rng: Lcg64) -> PairStructure:
    """Add a random evenness-respecting entry to m1 (so only the deep
    identities can catch it)."""
    d1, d2 = pair.v1.dim, pair.v2.dim
    while True:
        u, x, y = rng.below(d2), rng.below(d1), rng.below(d1)
        want = (pair.v2.parities[u] + pair.v1.parities[x] + pair.v1.parities[y]) % 2
        outs = [k for k in range(d1) if pair.v1.parities[k] == want]
        if not outs:
            continue
        o = rng.choice(outs)
        c = Fraction(rng.choice((1, 2, -1, -2)))
        m1 = {k: dict(v) for k, v in pair.m1.items()}
        comps = m1.setdefault((u, x, y), {})
        if comps.get(o, 0) + c == 0:
            continue
        comps[o] = comps.get(o, 0) + c
        return PairStructure(pair.v1, pair.v2, pair.kind, m1, pair.m2)
