"""Polarized superalgebras and polarized super triple systems from pairs.

An isotopic pair (V1, V2) yields a Z2-graded Lie superalgebra
g = g0 + (g1+ + g1-) with g1+ = V1, g1- = V2 carrying the twisted
parity (bit flipped), and g0 the span of the maps

    D(x, u) = ( y |-> [x, y]_u  on V1,
                v |-> sigma(x, u, v) [u, v]_x  on V2 ).

This span is closed under the graded operator commutator, as the
inner structure algebra of a Jordan pair is spanned by its D(x, u)
(Loos, Jordan Pairs, LNM 460): super-Jacobi gives [D, D(x, u)] =
D(Dx, u) +- D(x, Du).  Each D(x, u), and each element of g0, is one
block-diagonal matrix on V1 + V2, the V1 block before the V2 block.
The Koszul factor sigma is not printed in the source construction.  It
is pinned (``_sigma``, printed as ``SIGMA``) as the one sign form, of
the 128 forms
eps (-1)^(quadratic + linear form in p(x), p(u), p(v)), for which the
full super-Jacobi check passes on gl(2,0) and gl(1,1); the scan that
finds it lives in tests/test_tkk.py.

A super-Jordan pair yields a polarized super Lie triple system on
V = V1 + V2 from the same generators: the pair is parity-flipped into
an isotopic pair, and the triple product is the double bracket
[[a, b], c] of the associated superalgebra, which for a in V1 and b in
V2 is D(a, b) c.  The ambient parities of the triple system equal the
input super-Jordan parities, which are exactly the twisted parities of
the flipped isotopic pair.  The implemented (graded) triple-system
axiom set is:

    (i)   [a b c] = -(-1)^(p(a)p(b)) [b a c]
    (ii)  (-1)^(p(a)p(c)) [a b c] + (-1)^(p(b)p(a)) [b c a]
          + (-1)^(p(c)p(b)) [c a b] = 0
    (iii) [a b [c d e]] = [[a b c] d e]
          + (-1)^((p(a)+p(b))p(c)) [c [a b d] e]
          + (-1)^((p(a)+p(b))(p(c)+p(d))) [c d [a b e]]

These axioms, and the superalgebra's graded antisymmetry and
super-Jacobi identity, are templates of ``supercore.TKK_CATALOG``,
validated in the free envelope and checked exhaustively on basis tuples
by the identity evaluator of :mod:`isopairs.pairs`.  Polarization and
the submodule property are support checks on the tensor entries.  That
the generators D(x, u) act on the pair as derivations of both brackets
is the template ``supercore.EQUIVARIANCE["g0_equivariance"]``, which the
same evaluator reads over their action tensors on V1 and V2, in both
orientations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .exactlin import IncrementalSpan, Matrix
from .pairs import (
    FAILURE_CAP,
    ISOTOPIC,
    SUPER_JORDAN,
    PairStructure,
    Tensors,
    VerifyReport,
    _eval_identity,
    axiom_report,
    check_super_jordan,
    verify,
)
from .supercore import EQUIVARIANCE, TKK_CATALOG, SuperSpace

# the pinned Koszul factor ``_sigma`` as artifacts and ``isopair tkk`` print it
SIGMA = "(-1)^p(x)p(u)*(-1)^p(x)*(-1)^p(u)"


class PreconditionError(ValueError):
    """The input pair does not satisfy the construction's precondition."""


def _sigma(px: int, pu: int, pv: int) -> int:
    """sigma(x, u, v) = (-1)^(p(x)p(u)+p(x)+p(u)), i.e. -(-1)^(p^(x)p^(u))
    in the twisted (hat) parities; independent of p(v)."""
    return -1 if (px * pu + px + pu) % 2 else 1


@dataclass
class PolarizedSuperalgebra:
    """g0 + g1+ + g1- with full bracket table on a chosen basis.

    Basis order: g0 elements, then V1 (= g1+), then V2 (= g1-).
    ``parities`` are the superalgebra parities (g1 elements carry the
    pair parity flipped); ``grading`` marks "0", "+", "-" per index.
    """

    pair: PairStructure
    labels: tuple
    parities: tuple
    grading: tuple
    table: dict  # (i, j) -> {k: Fraction}
    g0_ops: list  # block-diagonal Matrix on V1 + V2 per g0 basis element
    g0_recipes: list  # ("gen", i, j): g0 element k is D(x_i, u_j)

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def g0_dim(self) -> int:
        return len(self.g0_ops)

    def tensors(self) -> Tensors:
        return Tensors({0: SuperSpace.make(self.labels, self.parities)}, {0: self.table})

    def to_json(self) -> dict:
        from .exactlin import scalar_to_str

        return {
            "labels": list(self.labels),
            "parities": list(self.parities),
            "grading": list(self.grading),
            "sigma": SIGMA,
            "brackets": [
                {
                    "i": i,
                    "j": j,
                    "out": [
                        {"idx": k, "c": scalar_to_str(c)}
                        for k, c in sorted(self.table[(i, j)].items())
                    ],
                }
                for (i, j) in sorted(self.table)
            ],
        }


def _d_operator(pair: PairStructure, i: int, j: int) -> Matrix:
    """D(x_i, u_j) as one block-diagonal matrix on V1 + V2: y |-> [x_i, y]_u_j
    in the V1 block, v |-> sigma [u_j, v]_x_i in the V2 block."""
    d1, d2 = pair.v1.dim, pair.v2.dim
    px, pu = pair.v1.parities[i], pair.v2.parities[j]
    P = [(o, k, c) for k in range(d1) for o, c in pair.m1.get((j, i, k), {}).items()]
    Q = [
        (d1 + o, d1 + k, _sigma(px, pu, pair.v2.parities[k]) * c)
        for k in range(d2)
        for o, c in pair.m2.get((i, j, k), {}).items()
    ]
    return Matrix(d1 + d2, d1 + d2, P + Q)


def superalgebra_from_pair(pair: PairStructure) -> PolarizedSuperalgebra:
    """Theorem-2B construction: the polarized Z2-graded superalgebra of
    an isotopic pair that passes its verify suite, with the independent
    generators D(x, u), in (x, u) order, as the basis of g0.  A
    commutator of two of them that leaves their span raises
    PreconditionError."""
    if pair.kind != ISOTOPIC:
        raise PreconditionError("superalgebra_from_pair needs an isotopic pair")
    if not verify(pair).passed:
        raise PreconditionError("pair fails its verify suite")
    d1, d2 = pair.v1.dim, pair.v2.dim

    # even and odd operators have disjoint supports, so one span keeps
    # them apart and its solve coefficients index the kept generators
    span = IncrementalSpan(track_combos=True)
    ops: list = []
    parities: list = []
    recipes: list = []
    gen_flat: dict = {}  # (i, j) -> flattened D(x_i, u_j)
    for i in range(d1):
        for j in range(d2):
            op = _d_operator(pair, i, j)
            gen_flat[(i, j)] = op.flat()
            if span.insert(gen_flat[(i, j)]):
                ops.append(op)
                parities.append((pair.v1.parities[i] + pair.v2.parities[j]) % 2)
                recipes.append(("gen", i, j))

    n0 = len(ops)
    labels = (
        tuple(f"D{k}" for k in range(n0))
        + tuple(f"{l}+" for l in pair.v1.labels)
        + tuple(f"{l}-" for l in pair.v2.labels)
    )
    hat = (
        tuple(parities)
        + tuple((p + 1) % 2 for p in pair.v1.parities)
        + tuple((p + 1) % 2 for p in pair.v2.parities)
    )
    grading = ("0",) * n0 + ("+",) * d1 + ("-",) * d2
    table: dict = {}

    def put(i, j, comps: dict):
        comps = {k: Fraction(c) for k, c in comps.items() if c}
        if comps:
            table[(i, j)] = comps
            s = -1 if hat[i] * hat[j] % 2 else 1
            table[(j, i)] = {k: -s * c for k, c in comps.items()}

    for a in range(n0):
        for b in range(a, n0):
            sign = -1 if parities[a] * parities[b] % 2 else 1
            comm = span.solve((ops[a] @ ops[b] - (ops[b] @ ops[a]).scale(sign)).flat())
            if comm is None:
                raise PreconditionError(
                    f"[D{a}, D{b}] leaves the span of the generators D(x, u)")
            put(a, b, comm)
        cols: dict = {}  # column k of D_a: the image of basis vector k of V1 + V2
        for o, k, c in ops[a].nonzeros():
            cols.setdefault(k, {})[n0 + o] = c
        for k in sorted(cols):
            put(a, n0 + k, cols[k])
    for i in range(d1):
        for j in range(d2):
            put(n0 + i, n0 + d1 + j, span.solve(gen_flat[(i, j)]))

    return PolarizedSuperalgebra(pair, labels, hat, grading, table, ops, recipes)


def check_superalgebra(a: PolarizedSuperalgebra, cap: int = FAILURE_CAP) -> VerifyReport:
    """Graded antisymmetry and the super-Jacobi identity on all basis
    pairs and triples, evaluated as catalog identities over the bracket
    table, plus polarization and the submodule property as support
    checks on its entries."""
    g, table, n0 = a.grading, a.table, a.grading.count("0")
    t = a.tensors()
    antisymmetry, jacobi = (_eval_identity(t, TKK_CATALOG[n], 0, cap)
                            for n in ("superalgebra.antisymmetry", "superalgebra.super_jacobi"))
    polarized = (({"i": i, "j": j}, dict(table[i, j]))
                 for i, j in sorted(table) if g[i] == g[j] != "0")
    moved = (({"i": i, "j": j}, {k: c for k, c in table[i, j].items() if g[k] != g[j]})
             for i, j in sorted(table) if g[i] == "0" != g[j])
    return VerifyReport("superalgebra", [
        antisymmetry,
        axiom_report("superalgebra.polarization", 0, g.count("+") ** 2 + g.count("-") ** 2,
                     polarized, cap),
        axiom_report("superalgebra.submodule", 0, n0 * (a.dim - n0), moved, cap),
        jacobi,
    ])


def g0_equivariance_report(a: PolarizedSuperalgebra, cap: int = FAILURE_CAP) -> list:
    """The generators D = D(x, u) act as derivations of both brackets,
    D [x,y]_u = [Dx, y]_u + (-1)^(pD px) [x, y]_{Du} + (-1)^(pD (px+pu)) [x, Dy]_u
    in the hat parities: ``EQUIVARIANCE["g0_equivariance"]`` over their
    actions on V1 and V2, on every basis tuple (D, u, x, y), for m1
    (orientation 1, x and y in V1) and m2 (orientation 2, x and y in V2)."""
    pair, n = a.pair, a.g0_dim
    d1 = pair.v1.dim
    acts = ({}, {})  # (D, k) -> D(e_k), on V1 and on V2
    for d, op in enumerate(a.g0_ops):
        for o, k, c in op.nonzeros():  # the V1 block, then the V2 block
            side, base = (0, 0) if k < d1 else (1, d1)
            acts[side].setdefault((d, k - base), {})[o - base] = c
    t = Tensors(
        {0: SuperSpace.make(a.labels[:n], a.parities[:n]), 1: pair.v1.flipped(), 2: pair.v2.flipped()},
        {1: pair.m1, 2: pair.m2, ("act", 1): acts[0], ("act", 2): acts[1]},
    )
    return [
        replace(_eval_identity(t, EQUIVARIANCE["g0_equivariance"], o, cap),
                identity=f"g0_equivariance[m{o}]")
        for o in (1, 2)
    ]


# ---------------------------------------------------------------------------
# polarized super triple systems (Theorem 2A)


@dataclass
class PolarizedLTS:
    """Triple system on V = V1 + V2 with the documented graded axioms."""

    space: SuperSpace
    split: int  # first `split` coordinates form the V1 summand
    tensor: dict  # (i, j, k) -> {out: Fraction}

    @property
    def dim(self) -> int:
        return self.space.dim

    def summand(self, idx: int) -> int:
        return 1 if idx < self.split else 2

    def tensors(self) -> Tensors:
        return Tensors({0: self.space}, {0: self.tensor})


def lts_from_pair(pair: PairStructure) -> PolarizedLTS:
    """Theorem-2A construction on a super-Jordan pair that passes
    check_super_jordan: the double bracket of its flip's superalgebra,
    [[x, u], c] = D(x, u) c and [[u, x], c] = -(-1)^(p(x)p(u)) D(x, u) c,
    with [g1+, g1+] = [g1-, g1-] = 0.  The ambient parities are the
    input pair's own (= the twisted parities of the flip)."""
    if pair.kind != SUPER_JORDAN:
        raise PreconditionError("lts_from_pair needs a superJordan pair")
    if not all(r.passed for r in check_super_jordan(pair)):
        raise PreconditionError("pair fails check_super_jordan")
    flip = pair.parity_flip()
    d1, d2 = pair.v1.dim, pair.v2.dim
    tensor: dict = {}
    for i in range(d1):
        for j in range(d2):
            s = -1 if pair.v1.parities[i] * pair.v2.parities[j] % 2 else 1
            for o, k, c in _d_operator(flip, i, j).nonzeros():
                tensor.setdefault((i, d1 + j, k), {})[o] = c
                tensor.setdefault((d1 + j, i, k), {})[o] = -s * c
    labels = tuple(f"{l}+" for l in pair.v1.labels) + tuple(
        f"{l}-" for l in pair.v2.labels
    )
    space = SuperSpace.make(labels, list(pair.v1.parities) + list(pair.v2.parities))
    return PolarizedLTS(space, d1, dict(sorted(tensor.items())))


def check_lts_axioms(l: PolarizedLTS, cap: int = FAILURE_CAP) -> VerifyReport:
    """Polarization, a support check on the product's entries, and the
    triple-system axioms (i)-(iii), evaluated as catalog identities over
    the product."""
    t = l.tensors()
    unpolarized = ((dict(zip("abc", key)), dict(l.tensor[key]))
                   for key in sorted(l.tensor) if len({l.summand(i) for i in key}) == 1)
    return VerifyReport("lts", [
        axiom_report("lts.polarization", 0, l.dim**3, unpolarized, cap),
        *(_eval_identity(t, TKK_CATALOG[n], 0, cap)
          for n in ("lts.antisymmetry", "lts.cyclic", "lts.derivation")),
    ])
