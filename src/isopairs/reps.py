"""Representations of pairs.

Definition-2 checkers (with the adopted corrected second identity),
split structure, highest-weight and induced word modules, conversions
between pair representations of (g, k) and Lie representations, the
lift of a split representation to its polarized superalgebra, and graph
representations.

The Definition-2 checks, the word engine's relations, the Lie round
trip and the lift read their identities from validated catalog
templates (``rep.T1``, ``rep.T2`` and ``rep.superalgebra``), whose basis
instances :func:`_instances` lists, for the word engine one per orbit of
the letter symmetries, with the word signs and the symmetries that
:func:`isopairs.pairs._constants` and :func:`isopairs.pairs._symmetries`
read off the same templates; no sign or instance rule is written here.

The word-module engine represents candidate vectors as formal
alternating operator words on seed vectors.  A word is only its id: the
engine keeps its length, sector, parity and degree in lists by id, each
read off the word's parent, and its children by index arithmetic.
Relations (seed rules plus every Definition-2 instance applied to every
short-enough word) are closed under left multiplication by generators
and row-reduced in one ``IncrementalSpan.close``, which defines the
quotient.  Longest words are
eliminated first, so the surviving basis consists of the shortest coset
representatives.  The pass that generates the module from the seeds
reads the action matrices off as it goes: each generator image is a new
basis vector or is solved over the ones already kept.  Highest-weight
modules take the gl grading deg E_{i,j} = j - i of
:func:`diagonal_grading`.  The radical step divides out the largest
action-invariant subspace of in-window classes that avoids the seeds:
the unobservable subspace of the seed coordinates under the generators'
action (Wonham, "Linear Multivariable Control: a Geometric Approach",
ch. 3), the kernel of their closure under the transposed action, a
second ``IncrementalSpan.close``.
"""

from __future__ import annotations

import dataclasses
import itertools
import operator
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Optional, Sequence

from .exactlin import ONE, IncrementalSpan, Matrix, axpy, invert
from .exactlin import scalar_from_str, scalar_to_str
from .pairs import (
    FAILURE_CAP,
    ISOTOPIC,
    AxiomReport,
    PairStructure,
    SpaceMismatch,
    Tensors,
    VerifyReport,
    _constants,
    _symmetries,
    axiom_report,
    check_symmetry,
)
from .supercore import CATALOG, TKK_CATALOG, Identity, SuperSpace
from .tkk import PolarizedSuperalgebra, PreconditionError


def _matrix_json(m: Matrix) -> list:
    return [[scalar_to_str(x) for x in m.row(i)] for i in range(m.rows)]


def _matrix_from_json(rows: list) -> Matrix:
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
        def indices(name):
            # bool is an int subclass, and 0.0 would pass as an index of H
            v = obj[name]
            if type(v) is not list or any(type(i) is not int for i in v):
                raise ValueError(f"split {name!r} must be a list of JSON integers, got {v!r}")
            return tuple(v)

        return SplitData(indices("h1"), indices("h2"))


def _instances(t: Tensors, ident: Identity, group: Optional[dict] = None):
    """The basis instances over ``t`` of an identity whose one left node
    equals a signed sum of operator words, as ``(where, comps, words)``:
    the letters' basis indices in the node's key order, the node's tensor
    output, and each word as (coefficient, ((side, index), ...)), signed
    as :func:`_constants` reads it.  With ``group``, letter symmetries
    {σ: signs} of :func:`_symmetries` that hold on ``t``, the instance at
    σ·t is the one at t times a sign, so only the least tuple of each
    orbit is listed, and none that a σ fixes with sign -1, whose instance
    is zero: under graded antisymmetry, x < y, and x = y on odd elements,
    for X, Y of ``rep.T1`` and U, V of ``rep.T2``."""
    (lhs,), terms = ident.lhs.terms, ident.rhs.terms
    if lhs.coeff != 1 or lhs.sign_pairs or any(tm.coeff.denominator > 1 for tm in terms):
        raise TypeError("a representation identity equates one node to integer words")
    node, sides = lhs.expr, ident.sides
    letters = tuple(e.name for e in node.slots)
    tensor = t.tensors[sides[node.left.name]]
    spaces = [t.spaces[sides[l]] for l in letters]
    # each σ as the places of ``letters`` that σ·t reads, with its signs
    bit = [ident.letters.index(l) for l in letters]
    moves = [([letters.index(ident.letters[perm[k]]) for k in bit], signs)
             for perm, signs in (group or {}).items()]
    _, _, coeffs, _, koszul = _constants(ident)
    by_bits = (-koszul[1:].T * coeffs[1:]).tolist()  # the words' coefficients by parity bits
    for key in itertools.product(*(range(s.dim) for s in spaces)):
        bits = sum(s.parities[i] << k for s, i, k in zip(spaces, key, bit))
        if moves and not all((image := tuple(key[j] for j in reads)) > key
                             or image == key and signs[bits] > 0 for reads, signs in moves):
            continue  # not the least of its orbit, or fixed by a σ with sign -1
        where = dict(zip(letters, key))
        words = [(c, tuple((sides[l], where[l]) for l in tm.expr.letters))
                 for c, tm in zip(by_bits[bits], terms)]
        yield where, tensor.get(key, {}), words


def _residuals(t: Tensors, ident: Identity, own: Sequence[Matrix], mix, tag=()):
    """``(where, residual)`` of every instance of ``ident``, ``where``
    led by the ``tag`` entries: the node's output on the operators
    ``own`` of its side, minus the operator words summed over ``mix``,
    a list of (weight, operators by side)."""
    for where, comps, words in _instances(t, ident):
        res = Matrix.zeros(own[0].rows, own[0].cols)
        for o, c in comps.items():
            res = res + own[o].scale(c)
        for weight, ops in mix:
            for c, word in words:
                p = reduce(operator.matmul, (ops[side][i] for side, i in word))
                res = res - (p if weight * c == 1 else p.scale(weight * c))
        yield dict(tag, **where), res


# the Definition-2 identities, by the side whose operators they constrain
_REP = {1: CATALOG["rep.T1"], 2: CATALOG["rep.T2"]}


def _integral(vec: dict) -> dict:
    """``vec`` with each integral coefficient as a Python int."""
    return {k: c.numerator if c.denominator == 1 else c for k, c in vec.items()}


def check_rep(r: PairRep, cap: int = FAILURE_CAP) -> VerifyReport:
    """Evenness of the operators plus both Definition-2 identities
    (second in the corrected mirrored form) on all basis triples."""
    pair, H = r.pair, r.H
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

    t, ops = pair.tensors(), {1: r.T1, 2: r.T2}
    for side, form in ((1, "printed"), (2, "corrected: second word reversed")):
        entries = [(w, m.flat()) for w, m in _residuals(t, _REP[side], ops[side], [(1, ops)])]
        reports.append(
            axiom_report(f"rep.T{side}_identity", side, len(entries), entries, cap, form))
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
        degs = {1: self.deg1, 2: self.deg2}
        zero = {s: [i for i, d in enumerate(degs[s]) if d == 0] for s in (1, 2)}
        reports, trivial = [], []
        for side, tensor, names in ((1, self.pair.m1, "uxy"), (2, self.pair.m2, "xuv")):
            own, other = degs[side], degs[3 - side]
            entries = [
                (dict(zip(names, (i, a, b))),
                 {o: c for o, c in comps.items() if own[o] != other[i] + own[a] + own[b]})
                for (i, a, b), comps in sorted(tensor.items())
            ]
            reports.append(axiom_report(f"grading.m{side}", side, len(entries), entries, cap))
            trivial += [(dict(zip(names, key)), dict(tensor.get(key, {})))
                        for key in itertools.product(zero[3 - side], zero[side], zero[side])]
        reports.append(axiom_report("grading.degree0_trivial", 0, len(trivial), trivial, cap))
        return VerifyReport("grading", reports)


def diagonal_grading(pair: PairStructure) -> GradedPairData:
    """deg E_{i,j} = j - i on matrix-unit labels 'Ei,j'; a pair with
    other labels raises ValueError."""
    def degs(space: SuperSpace) -> tuple:
        out = []
        for label in space.labels:
            if not label.startswith("E"):
                raise ValueError("hw grading needs a matrix-unit pair (gl series)")
            i, j = label[1:].split(",")
            out.append(int(j) - int(i))
        return tuple(out)

    return GradedPairData(pair, degs(pair.v1), degs(pair.v2))


# ---------------------------------------------------------------------------
# the word-module engine


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
    """A word module.  ``stabilized`` means only that the pass generating
    it from the seeds closed within the cap, so ``rep`` and ``split`` are
    set.  Without the radical step (``induced_split_module``) that is no
    certificate: ``check_rep`` and ``check_split`` are the certificate."""

    rep: Optional[PairRep]
    split: Optional[SplitData]
    dims: dict  # (sector, degree or None when ungraded) -> dimension
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
        # seeds: list of (sector, label, parity); degrees: (deg1, deg2) or None
        self.pair = pair
        self.cap = cap
        self.seeds = seeds
        self.degrees = degrees
        self.gens = [(1, i) for i in range(pair.v1.dim)] + [(2, j) for j in range(pair.v2.dim)]
        # a word is its id: the seeds first, then breadth-first by length,
        # the children of a word together in op order, so the child of wid
        # under op is first_child[wid] + op (None at the cap).  Its length,
        # sector, parity and degree (None when ungraded) are kept by id.
        n = len(seeds)
        self.length = [0] * n
        self.sector = [sector for sector, _, _ in seeds]
        self.parity = [parity for _, _, parity in seeds]
        self.degree = [None if degrees is None else 0] * n
        self.first_child: list = [None] * n
        frontier = range(n)
        for _ in range(cap):
            start = len(self.length)
            for wid in frontier:
                self.first_child[wid] = len(self.length)
                # acting with side s requires sector s and flips it
                side = self.sector[wid]
                for op in range(pair.space(side).dim):
                    self._add(wid, side, op)
            frontier = range(start, len(self.length))
        self._collect(seed_relations)

    def _add(self, parent: int, side: int, op: int):
        """Add the child of word ``parent`` under generator (side, op)."""
        self.length.append(self.length[parent] + 1)
        self.sector.append(3 - side)
        self.parity.append(self.parity[parent] ^ self.pair.space(side).parities[op])
        degree = self.degree[parent]
        self.degree.append(None if degree is None else degree + self.degrees[side - 1][op])
        self.first_child.append(None)

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
        """The relation span: the seed rules and every Definition-2 instance
        on each short-enough word, closed under left multiplication."""
        sector, first_child = self.sector, self.first_child
        # every instance of the identity of a word's sector, applied to
        # the word: T_s(node) w minus each operator word times w, the
        # word's last operator acting first, walked down first_child (a
        # word on the wrong sector is killed, and none reaches the cap);
        # on a graded-antisymmetric pair (the engine's callers take
        # isotopic pairs only), the instances of an orbit of the letter
        # symmetries span one line, so only one of them is listed
        t, rule = self.pair.tensors(), CATALOG["antisymmetry.isotopic"]
        antisymmetric = all(r.passed for r in check_symmetry(self.pair))
        instances = {side: [(_integral(comps), [(-c, word[::-1]) for c, word in words])
                            for _, comps, words in _instances(
                                t, ident, _symmetries(ident, rule) if antisymmetric else None)]
                     for side, ident in _REP.items()}

        def relations():
            for rel in seed_relations:
                vec: dict = {}
                if self.seeds[rel.seed][0] == rel.side:  # else structurally zero
                    vec = {first_child[rel.seed] + op: c for op, c in rel.combo.items() if c}
                yield _integral(axpy(vec, -1, rel.rhs))
            for wid, length in enumerate(self.length):
                if length > self.cap - 3:
                    continue
                child = first_child[wid]
                for comps, words in instances[sector[wid]]:
                    vec = {child + o: c for o, c in comps.items()}
                    for c, word in words:
                        w = wid
                        for side, op in word:
                            if sector[w] != side:
                                break
                            w = first_child[w] + op
                        else:
                            axpy(vec, 1, {w: c})
                    yield vec

        # left multiplication: a vector's words of a side move to their
        # children together, unless one of them is at the cap
        def left_multiples(vec: dict):
            for side, dim in ((1, self.pair.v1.dim), (2, self.pair.v2.dim)):
                moved = [(first_child[wid], c) for wid, c in vec.items() if sector[wid] == side]
                if moved and all(child is not None for child, _ in moved):
                    for op in range(dim):
                        yield {child + op: c for child, c in moved}

        self.relations = IncrementalSpan(pivot="max").close(relations(), left_multiples)

    def _classes(self) -> list:
        pivots = self.relations.pivots
        return [wid for wid in range(len(self.length)) if wid not in pivots]

    def _dims_of(self, basis) -> dict:
        return dict(Counter((self.sector[wid], self.degree[wid]) for wid in basis))

    def _radical(self) -> list:
        """Maximal action-invariant subspace avoiding the seed lines.

        The relation closure alone leaves a Verma-like tower (no
        Definition-2 instance can rewrite a bare length-two pattern such
        as T2(u)T1(x)|seed>), so the engine quotients additionally by
        the largest subspace W, spanned by non-seed classes of in-window
        words, that the generators map into W plus the classes of
        full-length words: a truncated submodule may exit through the
        cap, and the final quotient is re-certified by check_rep.

        Split a generator g's reduced image of a window class into its
        window part psi_g, its seed part sigma_g and its full-length
        part.  W is the largest subspace with sigma_g(W) = 0 and
        psi_g(W) in W: the unobservable subspace of the outputs sigma_g
        under the maps psi_h, i.e. the common kernel of every
        sigma_g psi_h1 ... psi_hk (Wonham, "Linear Multivariable
        Control: a Geometric Approach", ch. 3).  The sigma_g rows are
        closed under the transposed psi_h in one span (``close``), and W
        is its kernel over the window classes, in word coordinates.
        """
        length = self.length
        window = [wid for wid in self._classes() if 0 < length[wid] < self.cap]
        inside = set(window)
        psi_t = {g: {} for g in self.gens}  # g -> window class j -> row j of psi_g
        outputs: dict = {}  # (g, seed class) -> that row of sigma_g
        for k in window:
            for g in self.gens:
                residual = self.relations.reduce(self.act(g[0], g[1], {k: ONE}))
                for j, c in residual.items():
                    if j in inside:
                        psi_t[g].setdefault(j, {})[k] = c
                    elif length[j] == 0:  # a seed; full-length classes drop out
                        outputs.setdefault((g, j), {})[k] = c

        def transposed(row: dict):
            for rows in psi_t.values():
                img: dict = {}
                for j, c in row.items():
                    axpy(img, c, rows.get(j, {}))
                if img:
                    yield img

        return IncrementalSpan().close(outputs.values(), transposed).kernel(window)

    def quotient(self, radical: bool) -> WordModuleResult:
        """Relation-closure quotient, then (with ``radical``) the radical
        quotient, then the submodule generated by the seeds (the module
        the vacua span), breadth-first.  Each generator image gets its
        coordinates when the pass meets it: a new image is the next basis
        vector, a dependent one is solved over the basis kept so far,
        which is unique, so the action matrices are read off the pass."""
        closure_dims = self._dims_of(self._classes())
        radical_dim = sum(map(self.relations.insert, self._radical())) if radical else 0

        G = IncrementalSpan(track_combos=True)
        basis: list = []  # reduced word vectors, in insertion order
        meta: list = []  # (label, sector, parity, degree) per basis vector
        entries: dict = {g: [] for g in self.gens}  # (row, col, coefficient)

        def keep(vec: dict, label: str):
            sector = {self.sector[w] for w in vec}
            parity = {self.parity[w] for w in vec}
            assert len(sector) == 1 and len(parity) == 1
            degree = {self.degree[w] for w in vec}
            basis.append(vec)
            meta.append((label, sector.pop(), parity.pop(),
                         degree.pop() if len(degree) == 1 else None))

        for k, (_, lab, _) in enumerate(self.seeds):
            r = self.relations.reduce({k: ONE})
            if r and G.insert(r):
                keep(r, lab)

        stabilized, j = True, 0
        while j < len(basis) and stabilized:
            label_j, sector_j = meta[j][:2]
            for side, op in self.gens:
                if sector_j != side:
                    continue
                img = self.act(side, op, basis[j])
                if img is None:  # a word at the cap
                    stabilized = False
                    break
                img = self.relations.reduce(img)
                if not img:
                    continue
                if G.insert(img):
                    coords = {len(basis): ONE}
                    lab = self.pair.space(side).labels[op] + ("+" if side == 1 else "-")
                    keep(img, f"{lab} {label_j}")
                else:
                    coords = G.solve(img)
                entries[side, op] += [(k, j, c) for k, c in coords.items()]
            j += 1

        dims = dict(Counter((sector, degree) for _, sector, _, degree in meta))
        n, labels = len(basis), [m[0] for m in meta]
        rep = split = None
        if stabilized:
            H = SuperSpace.make(labels, [m[2] for m in meta])
            ops, d1 = [Matrix(n, n, entries[g]) for g in self.gens], self.pair.v1.dim
            rep = PairRep(self.pair, H, ops[:d1], ops[d1:])
            split = SplitData(*(tuple(k for k, m in enumerate(meta) if m[1] == side)
                                for side in (1, 2)))
        return WordModuleResult(
            rep, split, dims, n, stabilized, labels,
            self.relations.rank, len(self.length), closure_dims, radical_dim,
        )


def hw_split_module(
    graded: GradedPairData,
    chi1: dict,
    chi2: dict,
    cap: int = 4,
) -> WordModuleResult:
    """Highest-weight split module of a graded pair.

    chi1 / chi2 map degree-0 basis indices to weights.  Degree-0
    generators send a vacuum to the opposite vacuum scaled by chi,
    negative generators annihilate it; every Definition-2 consequence is
    imposed and the quotient's induced action is returned.  Definition 2
    is an isotopic-pair notion: any other pair raises PreconditionError.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if graded.pair.kind != ISOTOPIC:
        raise PreconditionError("hw_split_module needs an isotopic pair")
    rep_errors = graded.validate()
    if not rep_errors.passed:
        raise PreconditionError("grading invalid: " + rep_errors.failing()[0].identity)
    pair = graded.pair
    seeds = [(1, "|0>1", 0), (2, "|0>2", 0)]
    # a negative generator of side s kills vacuum s (seed s - 1), a
    # degree-0 one sends it to chi times the other vacuum
    rels = [SeedRelation(side, {i: ONE}, side - 1,
                         {} if d < 0 else {2 - side: Fraction(chi.get(i, 0))})
            for side, degs, chi in ((1, graded.deg1, chi1), (2, graded.deg2, chi2))
            for i, d in enumerate(degs) if d <= 0]
    engine = _WordEngine(pair, seeds, rels, cap, (graded.deg1, graded.deg2))
    return engine.quotient(radical=True)


def induced_split_module(
    pair: PairStructure,
    sub_basis_1: Sequence[Sequence[Fraction]],
    sub_basis_2: Sequence[Sequence[Fraction]],
    subrep: PairRep,
    subsplit: SplitData,
    cap: int = 4,
) -> tuple[WordModuleResult, Optional[AxiomReport]]:
    """Induction from a subpair: the word engine seeded with the basis
    of the subrepresentation space instead of two vacua.

    ``sub_basis_i`` embed the subpair's basis into the ambient pair's
    coordinates; the subrep's action supplies the seed rules.  Returns
    the module and a report that its restriction to the subpair
    reproduces the subrepresentation.  The radical step is skipped, so
    ``stabilized`` is no certificate (see ``WordModuleResult``): at cap 5,
    gl(2,0) with chi (1, 0) stabilizes at a quotient that fails
    ``check_rep``.  A side with more embeddings than
    its subpair side has basis elements, an embedding vector whose
    length is not its side's dimension, or one whose support leaves the
    parity of its subpair basis element raises SpaceMismatch; a pair
    that is not isotopic, or a subrep that fails check_rep or
    check_split, raises PreconditionError.
    """
    if pair.kind != ISOTOPIC:
        raise PreconditionError("induced_split_module needs an isotopic pair")
    for side, basis in ((1, sub_basis_1), (2, sub_basis_2)):
        ambient, sub = pair.space(side), subrep.pair.space(side)
        if len(basis) > sub.dim:
            raise SpaceMismatch(f"side {side} has {len(basis)} embeddings for a "
                                f"{sub.dim}-dimensional subpair side")
        for si, emb in enumerate(basis):
            if len(emb) != ambient.dim:
                raise SpaceMismatch(f"side {side} embedding of {sub.labels[si]} has length "
                                    f"{len(emb)}, not {ambient.dim}")
            if any(c and ambient.parities[i] != sub.parities[si] for i, c in enumerate(emb)):
                raise SpaceMismatch(f"side {side} embedding of {sub.labels[si]} leaves its parity")
    if not (check_rep(subrep).passed and check_split(subrep, subsplit).passed):
        raise PreconditionError("subrep fails check_rep/check_split")
    sector_of = {**dict.fromkeys(subsplit.h1, 1), **dict.fromkeys(subsplit.h2, 2)}
    seeds = [
        (sector_of[k], f"|v{k}>{sector_of[k]}", subrep.H.parities[k])
        for k in range(subrep.H.dim)
    ]
    rels = []
    for side, basis, ops in ((1, sub_basis_1, subrep.T1), (2, sub_basis_2, subrep.T2)):
        for si, emb in enumerate(basis):
            combo = {i: Fraction(c) for i, c in enumerate(emb) if c}
            for v in range(subrep.H.dim):
                if sector_of[v] != side:
                    continue  # T1 kills H2 seeds, T2 H1 seeds; the engine encodes that
                rhs = {w: ops[si][w, v] for w in range(subrep.H.dim) if ops[si][w, v]}
                rels.append(SeedRelation(side, combo, v, rhs))
    engine = _WordEngine(pair, seeds, rels, cap)
    result = engine.quotient(radical=False)

    if not result.stabilized:
        return result, None

    def diff(si, emb, v):
        want = {w: subrep.T1[si][w, v] for w in range(subrep.H.dim) if subrep.T1[si][w, v]}
        got: dict = {}
        if sector_of[v] == 1:
            for i, c in enumerate(emb):
                if c:
                    axpy(got, 1, engine.act(1, i, {v: Fraction(c)}))
        return axpy(engine.relations.reduce(got), -1, engine.relations.reduce(want))

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
    Q = r.T2[0]
    T0 = [Q @ t for t in r.T1]
    # T0 = Q T1 with Q = T2 of the even basis element u of V2, so the
    # bracket residual T0([i, j]) - T0(i) T0(j) + (-1)^(ij) T0(j) T0(i)
    # is Q times the rep.T1 residual at (U, X, Y) = (u, i, j)
    residuals = _residuals(pair.tensors(), _REP[1], r.T1, [(1, {1: r.T1, 2: r.T2})])
    entries = [({"i": w["X"], "j": w["Y"]}, (Q @ m).flat()) for w, m in residuals]
    return T0, axiom_report("lie.bracket_respected", 0, len(entries), entries, cap)


# ---------------------------------------------------------------------------
# Theorem 3A: lift of a split representation to the superalgebra


def tkk_rep_from_split(
    r: PairRep, s: SplitData, a: PolarizedSuperalgebra, cap: int = FAILURE_CAP
) -> AxiomReport:
    """rho(x) = T1(x), rho(u) = T2(u), rho(D(x,u)) = graded commutator
    [T1(x), T2(u)] for each g0 element D(x, u) of its recipes.

    The raw assignment can miss by central terms only (the inner g0
    identifies operator pairs up to relations a module need not kill
    exactly, e.g. left and right multiplication by the identity).  If
    every residual of rho[a, b] = [rho a, rho b] is a multiple of Id,
    those multiples are a 2-cocycle measured from the module; when the
    table extended by a central even z with rho(z) = Id passes
    ``check_superalgebra``, rho is verified over it instead, and the
    report's form reads "central extension: cocycle measured...".
    """
    if not check_rep(r).passed or not check_split(r, s).passed:
        raise PreconditionError("representation fails check_rep/check_split")
    if a.pair.to_json() != r.pair.to_json():
        raise PreconditionError("superalgebra was built from a different pair")
    n0, d1 = a.g0_dim, a.pair.v1.dim
    rho = [None] * n0 + list(r.T1) + list(r.T2)
    for idx, (_, i, j) in enumerate(a.g0_recipes):
        x, y = n0 + i, n0 + d1 + j  # D(x_i, u_j): x_i in V1, u_j in V2
        sign = -1 if a.parities[x] * a.parities[y] % 2 else 1
        rho[idx] = rho[x] @ rho[y] - (rho[y] @ rho[x]).scale(sign)

    hom = TKK_CATALOG["rep.superalgebra"]
    res = list(_residuals(a.tensors(), hom, rho, [(1, {0: rho})]))
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
        for w, m in res:
            diag = m[0, 0]
            if m != ident.scale(diag):
                scalar_only = False
                break
            if diag:
                theta[(w["i"], w["j"])] = -diag  # lhs + theta z closes onto rhs
        if scalar_only:
            z = a.dim
            table_ext = {k: dict(v) for k, v in a.table.items()}
            for (i, j), c in theta.items():
                comps = dict(table_ext.get((i, j), {}))
                comps[z] = c
                table_ext[(i, j)] = comps
            ext = dataclasses.replace(
                a, labels=a.labels + ("z",), parities=a.parities + (0,),
                grading=a.grading + ("0",), table=table_ext,
            )
            from .tkk import check_superalgebra

            if check_superalgebra(ext).passed:
                rho_ext = rho + [ident]
                entries = [(w, m.flat()) for w, m in
                           _residuals(ext.tensors(), hom, rho_ext, [(1, {0: rho_ext})])]
                form = (
                    "central extension: cocycle measured from the module on "
                    f"{len(theta)} bracket pairs, rho(z) = Id"
                )
                return axiom_report("tkk_homomorphism", 0, len(entries), entries, cap, form)

    entries = [(w, m.flat()) for w, m in res]
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
    mirrored, form), exhaustively over families and basis triples: the
    identity of family alpha of T1 mixes its words over the families
    beta of T2 with weights P[alpha, beta], and mirrored with Q."""
    t, families = gr.pair.tensors(), {1: gr.T1s, 2: gr.T2s}
    reports = []
    for side, tag, mixing in ((1, "alpha", gr.P), (2, "beta", gr.Q.transpose())):
        entries = []
        for k, own in enumerate(families[side]):
            mix = [(w, {side: own, 3 - side: other})
                   for w, other in zip(mixing.row(k), families[3 - side]) if w]
            entries += [(where, m.flat())
                        for where, m in _residuals(t, _REP[side], own, mix, {tag: k})]
        reports.append(axiom_report(f"graph.T{side}_identity", side, len(entries), entries, cap))
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
    graded = diagonal_grading(pair)
    chi = {pair.v1.labels.index("E1,1"): ONE}
    result = hw_split_module(graded, chi, dict(chi), cap)
    if not result.stabilized:
        raise RuntimeError("fundamental module did not stabilize within the cap")
    return result
