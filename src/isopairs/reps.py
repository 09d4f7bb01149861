"""Representations of pairs.

Definition-2 checkers (with the adopted corrected second identity),
split structure, highest-weight and induced word modules, conversions
between pair representations of (g, k) and Lie representations, the
lift of a split representation to its polarized superalgebra, and graph
representations.

The word-module engine represents candidate vectors as formal
alternating operator words on seed vectors; relations (seed rules plus
every Definition-2 instance applied to every short-enough word) are
collected, closed under left multiplication by generators, and
row-reduced to define the quotient.  Longest words are eliminated
first, so the surviving basis consists of the shortest coset
representatives and the induced action matrices can be read off by one
more reduction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .exactlin import ONE, IncrementalSpan, Matrix, axpy, invert, scalar_to_str
from .pairs import (
    ISOTOPIC,
    AxiomReport,
    PairStructure,
    SpaceMismatch,
    VerifyReport,
    axiom_report,
)
from .supercore import SuperSpace, sign_a
from .tkk import PolarizedSuperalgebra, PreconditionError

FAILURE_CAP = 25


def _matrix_json(m: Matrix) -> list:
    return [[scalar_to_str(x) for x in m.row(i)] for i in range(m.rows)]


def _matrix_from_json(rows: list) -> Matrix:
    from .exactlin import scalar_from_str

    return Matrix.from_rows([[scalar_from_str(c) for c in row] for row in rows])


# ---------------------------------------------------------------------------
# pair representations and the Definition-2 checkers


def _check_family(ops: Sequence[Matrix], side: SuperSpace, H: SuperSpace):
    """One operator on H per basis element of ``side``."""
    if len(ops) != side.dim:
        raise SpaceMismatch("operator count does not match the pair")
    if any((t.rows, t.cols) != (H.dim, H.dim) for t in ops):
        raise SpaceMismatch("operator shape does not match H")


@dataclass
class PairRep:
    """(T1, T2) acting on a graded space H; T_i(basis element) is an
    exact ``Matrix``, even in the graded sense.  The JSON form lists
    every matrix densely, row by row."""

    pair: PairStructure
    H: SuperSpace
    T1: list  # Matrix per V1 basis element
    T2: list  # Matrix per V2 basis element

    def __post_init__(self):
        _check_family(self.T1, self.pair.v1, self.H)
        _check_family(self.T2, self.pair.v2, self.H)

    def to_json(self) -> dict:
        return {
            "pair": self.pair.to_json(),
            "H": self.H.to_json(),
            "T1": [_matrix_json(t) for t in self.T1],
            "T2": [_matrix_json(t) for t in self.T2],
        }

    @staticmethod
    def from_json(obj: dict) -> "PairRep":
        return PairRep(
            PairStructure.from_json(obj["pair"]),
            SuperSpace.from_json(obj["H"]),
            [_matrix_from_json(m) for m in obj["T1"]],
            [_matrix_from_json(m) for m in obj["T2"]],
        )


@dataclass(frozen=True)
class SplitData:
    """A partition H = H1 + H2 by basis index sets."""

    h1: tuple
    h2: tuple

    def to_json(self) -> dict:
        return {"h1": list(self.h1), "h2": list(self.h2)}

    @staticmethod
    def from_json(obj: dict) -> "SplitData":
        return SplitData(tuple(obj["h1"]), tuple(obj["h2"]))


def check_rep(r: PairRep, cap: int = FAILURE_CAP) -> VerifyReport:
    """Evenness of the operators plus both Definition-2 identities
    (second in the corrected mirrored form) on all basis triples."""
    pair, H = r.pair, r.H
    d1, d2 = pair.v1.dim, pair.v2.dim
    reports = []

    entries = []
    for side, ops, space in ((1, r.T1, pair.v1), (2, r.T2, pair.v2)):
        for k, t in enumerate(ops):
            p = space.parities[k]
            bad = {
                i * H.dim + j: x
                for i, j, x in t.nonzeros()
                if H.parities[i] != (H.parities[j] + p) % 2
            }
            entries.append(({"side": side, "op": k}, bad))
    reports.append(axiom_report("rep.evenness", 0, len(entries), entries, cap))

    entries = []
    for u, x, y in itertools.product(range(d2), range(d1), range(d1)):
        lhs = Matrix.zeros(H.dim, H.dim)
        for o, c in pair.m1.get((u, x, y), {}).items():
            lhs = lhs + r.T1[o].scale(c)
        a = sign_a(pair.v1.parities[x], pair.v2.parities[u], pair.v1.parities[y])
        rhs = r.T1[x] @ r.T2[u] @ r.T1[y] - (r.T1[y] @ r.T2[u] @ r.T1[x]).scale(a)
        entries.append(
            ({"U": u, "X": x, "Y": y}, (lhs - rhs).flat())
        )
    reports.append(axiom_report("rep.T1_identity", 1, len(entries), entries, cap))

    entries = []
    for x, u, v in itertools.product(range(d1), range(d2), range(d2)):
        lhs = Matrix.zeros(H.dim, H.dim)
        for o, c in pair.m2.get((x, u, v), {}).items():
            lhs = lhs + r.T2[o].scale(c)
        a = sign_a(pair.v2.parities[u], pair.v1.parities[x], pair.v2.parities[v])
        rhs = r.T2[u] @ r.T1[x] @ r.T2[v] - (r.T2[v] @ r.T1[x] @ r.T2[u]).scale(a)
        entries.append(
            ({"X": x, "U": u, "V": v}, (lhs - rhs).flat())
        )
    reports.append(
        axiom_report(
            "rep.T2_identity", 2, len(entries), entries, cap, "corrected: second word reversed"
        )
    )
    return VerifyReport("rep", reports)


def check_split(r: PairRep, s: SplitData, cap: int = FAILURE_CAP) -> VerifyReport:
    """T1 kills H2 and maps H1 into H2; T2 mirrors."""
    if sorted(s.h1 + s.h2) != list(range(r.H.dim)):
        raise SpaceMismatch("split does not partition H")
    h1, h2 = set(s.h1), set(s.h2)
    specs = [
        ("split.T1_kills_H2", r.T1, h2, None),
        ("split.T1_maps_H1_to_H2", r.T1, h1, h2),
        ("split.T2_kills_H1", r.T2, h1, None),
        ("split.T2_maps_H2_to_H1", r.T2, h2, h1),
    ]
    reports = []
    for name, ops, cols, target in specs:
        entries = []
        for k, t in enumerate(ops):
            bad = {
                i * r.H.dim + j: x
                for i, j, x in t.nonzeros()
                if j in cols and (target is None or i not in target)
            }
            entries.append(({"op": k}, bad))
        reports.append(axiom_report(name, 0, len(entries), entries, cap))
    return VerifyReport("split", reports)


def tautological_rep(ep) -> PairRep:
    """The column representation of an envelope pair: H is the column
    superspace of Mat(n|m) and T_i multiply by the basis matrices."""
    space = ep.space
    size = space.size
    H = SuperSpace.make(
        [f"c{i}" for i in range(size)], [0 if i < space.n else 1 for i in range(size)]
    )
    return PairRep(ep.pair, H, list(ep.basis1), list(ep.basis2))


# ---------------------------------------------------------------------------
# gradings


@dataclass
class GradedPairData:
    """A Z-grading on both sides of a pair."""

    pair: PairStructure
    deg1: tuple
    deg2: tuple

    def __post_init__(self):
        if len(self.deg1) != self.pair.v1.dim or len(self.deg2) != self.pair.v2.dim:
            raise SpaceMismatch("degree lists do not match the pair")

    def validate(self, cap: int = FAILURE_CAP) -> VerifyReport:
        """Brackets respect the grading and the degree-0 subpair is
        trivial (all its brackets vanish)."""
        pair = self.pair
        reports = []
        entries = []
        for (u, x, y), comps in sorted(pair.m1.items()):
            want = self.deg2[u] + self.deg1[x] + self.deg1[y]
            bad = {o: c for o, c in comps.items() if self.deg1[o] != want}
            entries.append(({"u": u, "x": x, "y": y}, bad))
        reports.append(axiom_report("grading.m1", 1, len(entries), entries, cap))
        entries = []
        for (x, u, v), comps in sorted(pair.m2.items()):
            want = self.deg1[x] + self.deg2[u] + self.deg2[v]
            bad = {o: c for o, c in comps.items() if self.deg2[o] != want}
            entries.append(({"x": x, "u": u, "v": v}, bad))
        reports.append(axiom_report("grading.m2", 2, len(entries), entries, cap))

        entries = []
        z1 = [i for i, d in enumerate(self.deg1) if d == 0]
        z2 = [j for j, d in enumerate(self.deg2) if d == 0]
        for u, x, y in itertools.product(z2, z1, z1):
            entries.append(
                ({"u": u, "x": x, "y": y}, dict(pair.m1.get((u, x, y), {})))
            )
        for x, u, v in itertools.product(z1, z2, z2):
            entries.append(
                ({"x": x, "u": u, "v": v}, dict(pair.m2.get((x, u, v), {})))
            )
        reports.append(axiom_report("grading.degree0_trivial", 0, len(entries), entries, cap))
        return VerifyReport("grading", reports)


# ---------------------------------------------------------------------------
# the word-module engine


@dataclass(frozen=True)
class Word:
    seed: int
    chain: tuple  # ((side, op_index), ...) applied left to right in time

    def __len__(self):
        return len(self.chain)


@dataclass
class SeedRelation:
    """sum_i combo[i] * (op_i applied to seed) = rhs over the seeds;
    ops on the wrong sector act as zero."""

    side: int
    combo: dict  # op index -> Fraction
    seed: int
    rhs: dict  # seed index -> Fraction


@dataclass
class WordModuleResult:
    rep: Optional[PairRep]
    split: Optional[SplitData]
    dims: dict  # (sector, degree-or-length) -> dimension
    total_dim: int
    stabilized: bool
    basis_labels: list
    relation_rank: int
    word_count: int
    closure_dims: dict = field(default_factory=dict)  # before the radical step
    radical_dim: int = 0

    def dims_json(self) -> dict:
        return {
            "total_dim": self.total_dim,
            "stabilized": self.stabilized,
            "dims": {f"H{s}[{d}]": n for (s, d), n in sorted(self.dims.items())},
            "closure_dims": {
                f"H{s}[{d}]": n for (s, d), n in sorted(self.closure_dims.items())
            },
            "radical_dim": self.radical_dim,
            "basis": self.basis_labels,
        }


class _WordEngine:
    def __init__(self, pair, seeds, seed_relations, cap, degrees=None):
        # seeds: list of (sector, label, parity)
        self.pair = pair
        self.cap = cap
        self.seeds = seeds
        self.degrees = degrees  # (deg1, deg2) or None
        self.words: list[Word] = []
        self.sector: list = []
        # breadth-first by length so longer words get larger ids; the
        # children of a word are added together in op order, so the
        # child of wid under op is first_child[wid] + op (None at the cap)
        self.first_child: list = []
        for k, (sector, _, _) in enumerate(seeds):
            self._add(Word(k, ()))
        frontier = list(range(len(self.words)))
        for _ in range(cap):
            nxt = []
            for wid in frontier:
                w = self.words[wid]
                side = self.sector[wid]
                self.first_child[wid] = len(self.words)
                for op in range(pair.space(side).dim):
                    nxt.append(self._add(Word(w.seed, w.chain + ((side, op),))))
            frontier = nxt
        self.relations = IncrementalSpan(pivot="max")
        self._collect(seed_relations)

    def _add(self, w: Word) -> int:
        wid = len(self.words)
        self.words.append(w)
        self.first_child.append(None)
        sector = self.seeds[w.seed][0]
        for side, _ in w.chain:
            # acting with side s requires sector s and flips it
            assert side == sector
            sector = 3 - sector
        self.sector.append(sector)
        return wid

    def word_parity(self, wid: int) -> int:
        w = self.words[wid]
        p = self.seeds[w.seed][2]
        for side, op in w.chain:
            p = (p + self.pair.space(side).parities[op]) % 2
        return p

    def word_degree(self, wid: int):
        if self.degrees is None:
            return None
        w = self.words[wid]
        d = 0
        for side, op in w.chain:
            d += self.degrees[side - 1][op]
        return d

    def act(self, side: int, op: int, vec: dict) -> Optional[dict]:
        """Apply a generator to a word vector; wrong-sector words are
        killed (split structure).  None when the cap is exceeded.
        Distinct words have distinct children, so nothing accumulates."""
        out: dict = {}
        sector, first_child = self.sector, self.first_child
        for wid, c in vec.items():
            if sector[wid] != side:
                continue
            child = first_child[wid]
            if child is None:
                return None
            out[child + op] = c
        return out

    def _collect(self, seed_relations):
        queue = []

        def push(vec: dict):
            if vec and self.relations.insert(vec):
                queue.append(dict(vec))

        for rel in seed_relations:
            vec: dict = {}
            if self.seeds[rel.seed][0] == rel.side:  # else structurally zero
                first = self.first_child[rel.seed]
                vec = {first + op: c for op, c in rel.combo.items() if c}
            push(axpy(vec, -1, rel.rhs))

        pair = self.pair
        d1, d2 = pair.v1.dim, pair.v2.dim
        p1, p2 = pair.v1.parities, pair.v2.parities
        for wid in range(len(self.words)):
            if len(self.words[wid]) > self.cap - 3:
                continue
            base = {wid: Fraction(1)}
            child = self.first_child[wid]
            if self.sector[wid] == 1:
                # T1([x,y]_u) w = T1(x)T2(u)T1(y) w - A T1(y)T2(u)T1(x) w
                for u, x, y in itertools.product(range(d2), range(d1), range(d1)):
                    vec = {child + o: c for o, c in pair.m1.get((u, x, y), {}).items()}
                    a = sign_a(p1[x], p2[u], p1[y])
                    t = self.act(1, y, base)
                    t = self.act(2, u, t)
                    axpy(vec, -1, self.act(1, x, t))
                    t = self.act(1, x, base)
                    t = self.act(2, u, t)
                    axpy(vec, a, self.act(1, y, t))
                    push(vec)
            else:
                # T2([u,v]_x) w = T2(u)T1(x)T2(v) w - A T2(v)T1(x)T2(u) w
                for x, u, v in itertools.product(range(d1), range(d2), range(d2)):
                    vec = {child + o: c for o, c in pair.m2.get((x, u, v), {}).items()}
                    a = sign_a(p2[u], p1[x], p2[v])
                    t = self.act(2, v, base)
                    t = self.act(1, x, t)
                    axpy(vec, -1, self.act(2, u, t))
                    t = self.act(2, u, base)
                    t = self.act(1, x, t)
                    axpy(vec, a, self.act(2, v, t))
                    push(vec)

        # close the relation span under left multiplication
        while queue:
            vec = queue.pop()
            for side, dim in ((1, d1), (2, d2)):
                for op in range(dim):
                    img = self.act(side, op, vec)
                    if img:
                        push(img)

    def _classes(self) -> list:
        pivots = self.relations.pivots
        return [wid for wid in range(len(self.words)) if wid not in pivots]

    def _dims_of(self, basis) -> dict:
        dims: dict = {}
        for wid in basis:
            key = (self.sector[wid], self.word_degree(wid))
            dims[key] = dims.get(key, 0) + 1
        return dims

    def _radical(self) -> list:
        """Maximal action-invariant subspace avoiding the seed lines.

        The relation closure alone leaves a Verma-like tower (no
        Definition-2 instance can rewrite a bare length-two pattern such
        as T2(u)T1(x)|seed>), so the engine quotients additionally by
        the largest subspace, spanned by non-seed classes of in-window
        words, that the generators map into itself.  Returned as
        vectors in word coordinates.
        """
        from .exactlin import rref  # looked up per call, as the per-layer trace wraps it

        basis = self._classes()
        pos = {wid: k for k, wid in enumerate(basis)}
        window = [
            wid
            for wid in basis
            if len(self.words[wid]) < self.cap and len(self.words[wid]) > 0
        ]
        if not window:
            return []
        # a truncated submodule may exit through the cap boundary; classes
        # of full-length words are allowed as escape room (never the
        # seeds), and the final quotient is re-certified by check_rep
        boundary = [
            {pos[wid]: Fraction(1)}
            for wid in basis
            if len(self.words[wid]) == self.cap
        ]

        def reduced_class_coords(vec: dict) -> dict:
            residual, _ = self.relations.reduce(vec)
            return {pos[w]: c for w, c in residual.items()}

        # current candidate basis, as vectors over class coordinates
        S = [{pos[wid]: Fraction(1)} for wid in window]
        gens = [(1, i) for i in range(self.pair.v1.dim)] + [
            (2, j) for j in range(self.pair.v2.dim)
        ]
        images = {}
        for wid in window:
            for g in gens:
                images[(wid, g)] = reduced_class_coords(
                    self.act(g[0], g[1], {wid: Fraction(1)})
                )

        while True:
            span = IncrementalSpan()
            for v in S:
                span.insert(v)
            for v in boundary:
                span.insert(v)
            rows = []
            for g in gens:
                for v in S:
                    img: dict = {}
                    for cls, c in v.items():
                        axpy(img, c, images[(basis[cls], g)])
                    residual, _ = span.reduce(img)
                    rows.append(residual)
            cols = len(S)
            matrix_rows = []
            for g_i, g in enumerate(gens):
                block = rows[g_i * len(S) : (g_i + 1) * len(S)]
                for coord in sorted({k for r in block for k in r}):
                    matrix_rows.append([b.get(coord, Fraction(0)) for b in block])
            if not matrix_rows:
                break  # fully invariant already
            rank, red, pivots = rref(Matrix.from_rows(matrix_rows))
            if rank == 0:
                break
            # kernel vector of free column f: e_f - sum_r red[r, f] e_(pivot r),
            # recombined over its nonzero coefficients in column order
            new_S = []
            for f in sorted(set(range(cols)) - set(pivots)):
                terms = [(c, -red[r, f]) for r, c in enumerate(pivots) if red[r, f]]
                v: dict = {}
                for c, x in sorted(terms + [(f, ONE)]):
                    axpy(v, x, S[c])
                if v:
                    new_S.append(v)
            S = new_S
            if not S:
                break
        # convert class-coordinate vectors back to word coordinates
        out = []
        for v in S:
            out.append({basis[k]: c for k, c in v.items()})
        return out

    def quotient(self, radical: bool = True) -> WordModuleResult:
        """Relation-closure quotient, then the radical quotient, then the
        submodule generated by the seeds (the module the vacua span)."""
        closure_dims = self._dims_of(self._classes())
        radical_dim = 0
        if radical:
            for v in self._radical():
                if self.relations.insert(v):
                    radical_dim += 1

        gens = [(1, i) for i in range(self.pair.v1.dim)] + [
            (2, j) for j in range(self.pair.v2.dim)
        ]
        G = IncrementalSpan(track_combos=True)
        basis_vecs: list = []
        meta: list = []  # (label, sector, parity, degree)
        queue: list = []
        stabilized = True

        def vec_meta(vec: dict, label: str):
            wids = list(vec)
            sector = {self.sector[w] for w in wids}
            parity = {self.word_parity(w) for w in wids}
            assert len(sector) == 1 and len(parity) == 1
            degree = {self.word_degree(w) for w in wids}
            deg = degree.pop() if len(degree) == 1 else None
            return (label, sector.pop(), parity.pop(), deg)

        for k, (sector, lab, par) in enumerate(self.seeds):
            r, _ = self.relations.reduce({k: Fraction(1)})
            if r and G.insert(r):
                basis_vecs.append(r)
                meta.append(vec_meta(r, lab))
                queue.append(len(basis_vecs) - 1)

        while queue and stabilized:
            j = queue.pop(0)
            v = basis_vecs[j]
            label_j, sector_j, _, _ = meta[j]
            for side, op in gens:
                if sector_j != side:
                    continue
                if any(len(self.words[w]) + 1 > self.cap for w in v):
                    stabilized = False
                    break
                img = self.act(side, op, v)
                img, _ = self.relations.reduce(img)
                if img and G.insert(img):
                    basis_vecs.append(img)
                    lab = self.pair.space(side).labels[op] + (
                        "+" if side == 1 else "-"
                    )
                    meta.append(vec_meta(img, f"{lab} {label_j}"))
                    queue.append(len(basis_vecs) - 1)

        dims: dict = {}
        for _, sector, _, degree in meta:
            dims[(sector, degree)] = dims.get((sector, degree), 0) + 1
        labels = [m[0] for m in meta]
        if not stabilized:
            return WordModuleResult(
                None, None, dims, len(basis_vecs), False, labels,
                self.relations.rank, len(self.words), closure_dims, radical_dim,
            )

        n = len(basis_vecs)

        def op_matrix(side, op) -> Matrix:
            entries = []
            for col, v in enumerate(basis_vecs):
                if meta[col][1] != side:
                    continue
                img = self.act(side, op, v)
                img, _ = self.relations.reduce(img)
                coords = G.solve(img)
                if coords is None:
                    raise RuntimeError("generated submodule not closed")
                entries += [(k, col, c) for k, c in coords.items()]
            return Matrix(n, n, entries)

        H = SuperSpace.make(labels, [m[2] for m in meta])
        rep = PairRep(
            self.pair,
            H,
            [op_matrix(1, i) for i in range(self.pair.v1.dim)],
            [op_matrix(2, j) for j in range(self.pair.v2.dim)],
        )
        split = SplitData(
            tuple(k for k, m in enumerate(meta) if m[1] == 1),
            tuple(k for k, m in enumerate(meta) if m[1] == 2),
        )
        return WordModuleResult(
            rep, split, dims, n, True, labels,
            self.relations.rank, len(self.words), closure_dims, radical_dim,
        )


def hw_split_module(
    graded: GradedPairData,
    chi1: dict,
    chi2: dict,
    cap: int = 4,
    radical: bool = True,
) -> WordModuleResult:
    """Highest-weight split module of a graded pair.

    chi1 / chi2 map degree-0 basis indices to weights.  Degree-0
    generators send a vacuum to the opposite vacuum scaled by chi,
    negative generators annihilate it; every Definition-2 consequence is
    imposed and the quotient's induced action is returned.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    rep_errors = graded.validate()
    if not rep_errors.passed:
        raise PreconditionError("grading invalid: " + rep_errors.failing()[0].identity)
    pair = graded.pair
    seeds = [(1, "|0>1", 0), (2, "|0>2", 0)]
    rels = []
    for i, d in enumerate(graded.deg1):
        if d < 0:
            rels.append(SeedRelation(1, {i: Fraction(1)}, 0, {}))
        elif d == 0:
            rels.append(
                SeedRelation(1, {i: Fraction(1)}, 0, {1: Fraction(chi1.get(i, 0))})
            )
    for j, d in enumerate(graded.deg2):
        if d < 0:
            rels.append(SeedRelation(2, {j: Fraction(1)}, 1, {}))
        elif d == 0:
            rels.append(
                SeedRelation(2, {j: Fraction(1)}, 1, {0: Fraction(chi2.get(j, 0))})
            )
    engine = _WordEngine(pair, seeds, rels, cap, (graded.deg1, graded.deg2))
    return engine.quotient(radical=radical)


def induced_split_module(
    pair: PairStructure,
    sub_basis_1: Sequence[Sequence[Fraction]],
    sub_basis_2: Sequence[Sequence[Fraction]],
    subrep: PairRep,
    subsplit: SplitData,
    cap: int = 4,
    verified: bool = False,
    radical: bool = False,
) -> tuple[WordModuleResult, Optional[AxiomReport]]:
    """Induction from a subpair: the word engine seeded with the basis
    of the subrepresentation space instead of two vacua.

    ``sub_basis_i`` embed the subpair's basis into the ambient pair's
    coordinates; the subrep's action supplies the seed rules.  Returns
    the module and a report that its restriction to the subpair
    reproduces the subrepresentation.
    """
    if not verified:
        ok = check_rep(subrep).passed and check_split(subrep, subsplit).passed
        if not ok:
            raise PreconditionError("subrep fails check_rep/check_split")
    sector_of = {}
    for k in subsplit.h1:
        sector_of[k] = 1
    for k in subsplit.h2:
        sector_of[k] = 2
    seeds = [
        (sector_of[k], f"|v{k}>{sector_of[k]}", subrep.H.parities[k])
        for k in range(subrep.H.dim)
    ]
    rels = []
    for si, emb in enumerate(sub_basis_1):
        combo = {i: Fraction(c) for i, c in enumerate(emb) if c}
        col_matrix = subrep.T1[si]
        for v in range(subrep.H.dim):
            if sector_of[v] != 1:
                continue  # T1 kills H2 seeds; the engine encodes that
            rhs = {
                w: col_matrix[w, v] for w in range(subrep.H.dim) if col_matrix[w, v]
            }
            rels.append(SeedRelation(1, combo, v, rhs))
    for sj, emb in enumerate(sub_basis_2):
        combo = {j: Fraction(c) for j, c in enumerate(emb) if c}
        col_matrix = subrep.T2[sj]
        for v in range(subrep.H.dim):
            if sector_of[v] != 2:
                continue
            rhs = {
                w: col_matrix[w, v] for w in range(subrep.H.dim) if col_matrix[w, v]
            }
            rels.append(SeedRelation(2, combo, v, rhs))
    engine = _WordEngine(pair, seeds, rels, cap)
    result = engine.quotient(radical=radical)

    if not result.stabilized:
        return result, None

    def diff(si, emb, v):
        want = {w: subrep.T1[si][w, v] for w in range(subrep.H.dim) if subrep.T1[si][w, v]}
        got: dict = {}
        if sector_of[v] == 1:
            for i, c in enumerate(emb):
                if c:
                    axpy(got, 1, engine.act(1, i, {v: Fraction(c)}))
        residual, _ = engine.relations.reduce(got)
        want_red, _ = engine.relations.reduce(want)
        return axpy(dict(residual), -1, want_red)

    entries = (
        ({"sub_op": si, "seed": v}, diff(si, emb, v))
        for si, emb in enumerate(sub_basis_1)
        for v in range(subrep.H.dim)
    )
    total = len(sub_basis_1) * subrep.H.dim
    return result, axiom_report("induced.contains_subrep", 0, total, entries, cap)


# ---------------------------------------------------------------------------
# (g, k) conversions


def pair_from_lie(g) -> PairStructure:
    """The natural isotopic pair (g, k) of a Lie algebra: m1(1, x, y) is
    the Lie bracket, m2 vanishes."""
    m1 = {}
    for (i, j), comps in g.c.items():
        m1[(0, i, j)] = dict(comps)
    v1 = SuperSpace.make(list(g.labels), [0] * g.dim)
    v2 = SuperSpace.make(["1"], [0])
    return PairStructure(v1, v2, ISOTOPIC, m1, {})


def pair_rep_from_lie(g, T0: Sequence[Matrix], Q: Matrix) -> PairRep:
    """T1(X) = Q^-1 T0(X), T2(1) = Q; singular Q is rejected."""
    Qinv = invert(Q)  # raises ValueError on singular input
    pair = pair_from_lie(g)
    dim = Q.rows
    H = SuperSpace.make([f"h{i}" for i in range(dim)], [0] * dim)
    return PairRep(pair, H, [Qinv @ t for t in T0], [Q])


def lie_from_pair_rep(r: PairRep, cap: int = FAILURE_CAP):
    """T0(X) = T2(1) T1(X) for a pair with one-dimensional even V2;
    verifies T0 respects the bracket recovered from m1 with u = 1."""
    pair = r.pair
    if pair.v2.dim != 1 or pair.v2.parities != (0,):
        raise PreconditionError("lie_from_pair_rep needs dim V2 = 1|0")
    T0 = [r.T2[0] @ t for t in r.T1]
    entries = []
    d1 = pair.v1.dim
    for i, j in itertools.product(range(d1), repeat=2):
        lhs = Matrix.zeros(r.H.dim, r.H.dim)
        for o, c in pair.m1.get((0, i, j), {}).items():
            lhs = lhs + T0[o].scale(c)
        s = -1 if pair.v1.parities[i] * pair.v1.parities[j] % 2 else 1
        rhs = T0[i] @ T0[j] - (T0[j] @ T0[i]).scale(s)
        entries.append(({"i": i, "j": j}, (lhs - rhs).flat()))
    return T0, axiom_report("lie.bracket_respected", 0, len(entries), entries, cap)


# ---------------------------------------------------------------------------
# Theorem 3A: lift of a split representation to the superalgebra


def tkk_rep_from_split(
    r: PairRep, s: SplitData, a: PolarizedSuperalgebra, cap: int = FAILURE_CAP
) -> AxiomReport:
    """rho(x) = T1(x), rho(u) = T2(u), rho(D(x,u)) = graded commutator
    [T1(x), T2(u)]; closure elements follow their construction recipes.

    The raw assignment can miss by central terms only (the inner g0
    identifies operator pairs up to relations a module need not kill
    exactly, e.g. left and right multiplication by the identity); since
    scalars drop out of every commutator, the lift exists iff the linear
    system rho(D_k) -> rho(D_k) + c_k Id closes the bracket table, which
    is solved exactly here.  Verifies rho[a, b] = [rho a, rho b] on
    every basis pair and records any central correction used.
    """
    if not check_rep(r).passed or not check_split(r, s).passed:
        raise PreconditionError("representation fails check_rep/check_split")
    if a.pair.to_json() != r.pair.to_json():
        raise PreconditionError("superalgebra was built from a different pair")
    n0 = a.g0_dim
    d1 = a.pair.v1.dim
    rho: list = [None] * a.dim

    def graded_comm(A, B, pa, pb):
        s_ = -1 if pa * pb % 2 else 1
        return A @ B - (B @ A).scale(s_)

    for k in range(d1):
        rho[n0 + k] = r.T1[k]
    for k in range(a.pair.v2.dim):
        rho[n0 + d1 + k] = r.T2[k]
    for idx, recipe in enumerate(a.g0_recipes):
        if recipe[0] == "gen":
            _, i, j = recipe
            rho[idx] = graded_comm(
                r.T1[i], r.T2[j], a.parities[n0 + i], a.parities[n0 + d1 + j]
            )
        else:
            _, x, y = recipe
            rho[idx] = graded_comm(rho[x], rho[y], a.parities[x], a.parities[y])

    N = a.dim

    def residuals(current_rho):
        out = []
        for i, j in itertools.product(range(N), repeat=2):
            lhs = Matrix.zeros(r.H.dim, r.H.dim)
            for k, c in a.bracket_basis(i, j).items():
                lhs = lhs + current_rho[k].scale(c)
            rhs = graded_comm(
                current_rho[i], current_rho[j], a.parities[i], a.parities[j]
            )
            out.append(((i, j), lhs - rhs))
        return out

    res = residuals(rho)
    if any(not m.is_zero() for _, m in res):
        # The inner g0 identifies operator pairs up to relations the
        # module may violate by scalars only (a central charge).  When
        # every discrepancy is an exact multiple of the identity,
        # measure the 2-cocycle from the module, extend the superalgebra
        # by one central even element z with rho(z) = Id, machine-check
        # the extended super-Jacobi identity, and verify the
        # homomorphism into End(H) over the extended table.
        ident = Matrix.identity(r.H.dim)
        theta = {}
        scalar_only = True
        for (i, j), m in res:
            diag = m[0, 0]
            if m != ident.scale(diag):
                scalar_only = False
                break
            if diag:
                theta[(i, j)] = -diag  # lhs + theta z closes onto rhs
        if scalar_only:
            z = N
            table_ext = {k: dict(v) for k, v in a.table.items()}
            for (i, j), c in theta.items():
                comps = dict(table_ext.get((i, j), {}))
                comps[z] = c
                table_ext[(i, j)] = comps
            ext = PolarizedSuperalgebra(
                a.pair,
                a.labels + ("z",),
                a.parities + (0,),
                a.grading + ("0",),
                table_ext,
                a.g0_ops,
                a.g0_recipes,
                a.sigma,
            )
            from .tkk import check_superalgebra

            if check_superalgebra(ext).passed:
                rho_ext = list(rho) + [ident]
                entries = []
                for i, j in itertools.product(range(N + 1), repeat=2):
                    lhs = Matrix.zeros(r.H.dim, r.H.dim)
                    for k, c in table_ext.get((i, j), {}).items():
                        lhs = lhs + rho_ext[k].scale(c)
                    rhs = graded_comm(
                        rho_ext[i], rho_ext[j], ext.parities[i], ext.parities[j]
                    )
                    entries.append(({"i": i, "j": j}, (lhs - rhs).flat()))
                form = (
                    "central extension: cocycle measured from the module on "
                    f"{len(theta)} bracket pairs, rho(z) = Id"
                )
                return axiom_report("tkk_homomorphism", 0, len(entries), entries, cap, form)

    entries = [({"i": i, "j": j}, m.flat()) for (i, j), m in res]
    return axiom_report("tkk_homomorphism", 0, len(entries), entries, cap)


# ---------------------------------------------------------------------------
# graph representations


@dataclass
class GraphRep:
    """Families T1^alpha, T2^beta on H with mixing matrices P, Q."""

    pair: PairStructure
    H: SuperSpace
    T1s: list  # per alpha: list of Matrix per V1 basis element
    T2s: list  # per beta
    P: Matrix
    Q: Matrix

    def __post_init__(self):
        n1, n2 = len(self.T1s), len(self.T2s)
        if (self.P.rows, self.P.cols) != (n1, n2) or (
            self.Q.rows,
            self.Q.cols,
        ) != (n1, n2):
            raise SpaceMismatch("mixing matrices must be N1 x N2")
        for family in self.T1s:
            _check_family(family, self.pair.v1, self.H)
        for family in self.T2s:
            _check_family(family, self.pair.v2, self.H)

    def to_json(self) -> dict:
        return {
            "pair": self.pair.to_json(),
            "H": self.H.to_json(),
            "T1s": [[_matrix_json(t) for t in fam] for fam in self.T1s],
            "T2s": [[_matrix_json(t) for t in fam] for fam in self.T2s],
            "P": _matrix_json(self.P),
            "Q": _matrix_json(self.Q),
        }

    @staticmethod
    def from_json(obj: dict) -> "GraphRep":
        return GraphRep(
            PairStructure.from_json(obj["pair"]),
            SuperSpace.from_json(obj["H"]),
            [[_matrix_from_json(t) for t in fam] for fam in obj["T1s"]],
            [[_matrix_from_json(t) for t in fam] for fam in obj["T2s"]],
            _matrix_from_json(obj["P"]),
            _matrix_from_json(obj["Q"]),
        )


def check_graph_rep(gr: GraphRep, cap: int = FAILURE_CAP) -> VerifyReport:
    """Both graph identities (the second in its printed, already
    mirrored, form), exhaustively over families and basis triples."""
    pair = gr.pair
    d1, d2 = pair.v1.dim, pair.v2.dim
    H = gr.H
    reports = []

    entries = []
    for alpha, T1 in enumerate(gr.T1s):
        for u, x, y in itertools.product(range(d2), range(d1), range(d1)):
            lhs = Matrix.zeros(H.dim, H.dim)
            for o, c in pair.m1.get((u, x, y), {}).items():
                lhs = lhs + T1[o].scale(c)
            a = sign_a(pair.v1.parities[x], pair.v2.parities[u], pair.v1.parities[y])
            rhs = Matrix.zeros(H.dim, H.dim)
            for beta, T2 in enumerate(gr.T2s):
                coeff = gr.P[alpha, beta]
                if coeff:
                    rhs = rhs + (
                        T1[x] @ T2[u] @ T1[y] - (T1[y] @ T2[u] @ T1[x]).scale(a)
                    ).scale(coeff)
            entries.append(
                ({"alpha": alpha, "U": u, "X": x, "Y": y}, (lhs - rhs).flat())
            )
    reports.append(axiom_report("graph.T1_identity", 1, len(entries), entries, cap))

    entries = []
    for beta, T2 in enumerate(gr.T2s):
        for x, u, v in itertools.product(range(d1), range(d2), range(d2)):
            lhs = Matrix.zeros(H.dim, H.dim)
            for o, c in pair.m2.get((x, u, v), {}).items():
                lhs = lhs + T2[o].scale(c)
            a = sign_a(pair.v2.parities[u], pair.v1.parities[x], pair.v2.parities[v])
            rhs = Matrix.zeros(H.dim, H.dim)
            for alpha, T1 in enumerate(gr.T1s):
                coeff = gr.Q[alpha, beta]
                if coeff:
                    rhs = rhs + (
                        T2[u] @ T1[x] @ T2[v] - (T2[v] @ T1[x] @ T2[u]).scale(a)
                    ).scale(coeff)
            entries.append(
                ({"beta": beta, "X": x, "U": u, "V": v}, (lhs - rhs).flat())
            )
    reports.append(axiom_report("graph.T2_identity", 2, len(entries), entries, cap))
    return VerifyReport("graph", reports)


def graph_from_rep(r: PairRep) -> GraphRep:
    """The N1 = N2 = 1 graph representation with unit mixing matrices;
    its verdict must reduce to check_rep's."""
    one = Matrix.from_rows([[1]])
    return GraphRep(r.pair, r.H, [list(r.T1)], [list(r.T2)], one, one)


# ---------------------------------------------------------------------------
# the fundamental isoquaternionic representation


def isoquaternion_fundamental(cap: int = 4):
    """The four-dimensional weight-(1/2,1/2) split module of the
    isoquaternionic pair gl(2,0).

    Grading: deg E01 = +1, deg E10 = -1, diagonals 0, on both sides.
    The weight names the two spins: the engine run pins the vacuum
    characters at chi1 = chi2 = (chi(E00), chi(E11)) = (0, 1), i.e. the
    vacuum h-eigenvalue chi(E00) - chi(E11) = -1 and spin |h-weight|/2 =
    1/2 per factor.  Every other candidate normalization of (1/2, 1/2)
    collapses the module to dimension 0 or 2; this one stabilizes at
    total dimension 4 (H1 and H2 two-dimensional each).
    """
    from .constructions import isoquaternionic_pair

    ep = isoquaternionic_pair()
    pair = ep.pair
    labels = list(pair.v1.labels)
    e00, e01, e10, e11 = (
        labels.index("E0,0"),
        labels.index("E0,1"),
        labels.index("E1,0"),
        labels.index("E1,1"),
    )
    deg = [0] * 4
    deg[e01] = 1
    deg[e10] = -1
    graded = GradedPairData(pair, tuple(deg), tuple(deg))
    chi = {e11: Fraction(1)}
    result = hw_split_module(graded, chi, dict(chi), cap)
    if not result.stabilized:
        raise RuntimeError("fundamental module did not stabilize within the cap")
    return result
