"""Parity bookkeeping, Koszul sign factors, and the free-envelope validator.

The two sign factors are

    sign_a(x, u, y)    = (-1)^(xu + uy + yx)
    sign_b(x, z, u, v) = (-1)^(xz + zu + uv + vx)

over parity bits.  Bracket identities are stored as data
(:class:`IdentityTemplate`): a sum of terms, each carrying a rational
coefficient, a quadratic sign exponent in the parities of the formal
letters, and a nesting of bracket nodes over the letters.  Each
:class:`Identity` names its own letters: X, Y, Z, U, V for the pair
identities, i, j, k for those of a superalgebra, a..e for those of a
triple system, and Z or D for the operator of a derivation identity.

Every identity is validated in the free associative envelope, where a
node over homogeneous elements expands by its model

    comm:    [l, r]_i  = l i r - sign_a(l, i, r) r i l
    circ:    l o_i r   = l i r + sign_a(l, i, r) r i l
    Comm:    [l, r]    = l r - (-1)^(p(l)p(r)) r l  (comm, empty i)
    Triple:  [a b c]   = [[a, b], c]
    Act:     d.v       = [d, v]                      (an operator d on v)

into signed noncommutative words.  Two templates are equal iff their
word expansions agree for every parity assignment of the letters; the
validator enumerates all 2^n assignments.  Where the source identities
carry transcription defects, :func:`find_correction` searches nearby
sign variants for the (unique minimal) form that passes, and the
catalog records both the printed and the adopted form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .exactlin import axpy

LETTERS = ("X", "Y", "Z", "U", "V")


def letter_key(name: str) -> tuple:
    """Letter order: the pair letters X, Y, Z, U, V first, in that order,
    then any other letters alphabetically (i, j, k and a..e)."""
    return (LETTERS.index(name), "") if name in LETTERS else (len(LETTERS), name)


def sign_a(p1: int, p2: int, p3: int) -> int:
    """(-1)^(p1 p2 + p2 p3 + p3 p1); totally symmetric."""
    return -1 if (p1 * p2 + p2 * p3 + p3 * p1) % 2 else 1


def sign_b(p1: int, p2: int, p3: int, p4: int) -> int:
    """(-1)^(p1 p2 + p2 p3 + p3 p4 + p4 p1); cyclic and reversal invariant."""
    return -1 if (p1 * p2 + p2 * p3 + p3 * p4 + p4 * p1) % 2 else 1


@dataclass(frozen=True)
class SuperSpace:
    """Finite graded basis: ordered labels, one parity bit per label."""

    labels: tuple[str, ...]
    parities: tuple[int, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.parities):
            raise ValueError("labels/parities length mismatch")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate basis labels")
        if any(p not in (0, 1) for p in self.parities):
            raise ValueError("parities must be bits")

    @staticmethod
    def make(labels: Sequence[str], parities: Sequence[int]) -> "SuperSpace":
        return SuperSpace(tuple(labels), tuple(int(p) for p in parities))

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def even_dim(self) -> int:
        return self.parities.count(0)

    @property
    def odd_dim(self) -> int:
        return self.parities.count(1)

    def flipped(self) -> "SuperSpace":
        return SuperSpace(self.labels, tuple(1 - p for p in self.parities))

    def to_json(self) -> dict:
        return {"labels": list(self.labels), "parities": list(self.parities)}

    @staticmethod
    def from_json(obj: dict) -> "SuperSpace":
        labels, parities = obj["labels"], obj["parities"]
        if type(labels) is not list or not all(type(l) is str for l in labels):
            raise ValueError(f"labels must be a list of strings, got {labels!r}")
        if type(parities) is not list or not all(type(p) is int for p in parities):
            raise ValueError(f"parities must be a list of integers, got {parities!r}")
        return SuperSpace.make(labels, parities)


# ---------------------------------------------------------------------------
# expression trees


@dataclass(frozen=True)
class Letter:
    name: str


@dataclass(frozen=True)
class WordExpr:
    """A flat noncommutative word over the letters (used by the
    representation identities, whose right-hand sides are bare operator
    words rather than brackets)."""

    letters: tuple[str, ...]
    slots = property(lambda self: tuple(map(Letter, self.letters)))


@dataclass(frozen=True)
class Bracket:
    """A nested isocommutator (op="comm") or circle product (op="circ");
    the isotopic element sits in the middle of the envelope words."""

    left: "Expr"
    right: "Expr"
    iso: "Expr"
    op: str = "comm"

    def __post_init__(self):
        if self.op not in ("comm", "circ"):
            raise ValueError(f"unknown bracket op {self.op!r}")

    # the operands in the order of a pair tensor's key (u, x, y)
    slots = property(lambda self: (self.iso, self.left, self.right))


@dataclass(frozen=True)
class Comm:
    """The super-commutator [left, right] of a superalgebra, read from
    its binary bracket table keyed (left, right); in the envelope it is
    the isocommutator with an empty isotopic word."""

    left: "Expr"
    right: "Expr"
    iso = WordExpr(())
    op = "comm"
    slots = property(lambda self: (self.left, self.right))


@dataclass(frozen=True)
class Triple:
    """The triple product [left mid right] := [[left, mid], right] of a
    triple system, read from its ternary tensor keyed (left, mid, right)."""

    left: "Expr"
    mid: "Expr"
    right: "Expr"
    slots = property(lambda self: (self.left, self.mid, self.right))


@dataclass(frozen=True)
class Act:
    """An operator acting on a vector, read from an action tensor keyed
    (op, arg) into arg's space; in the envelope it is the super-commutator
    [op, arg], so its derivation identities hold for super-derivations."""

    op: "Expr"
    arg: "Expr"
    slots = property(lambda self: (self.op, self.arg))


Expr = Union[Letter, WordExpr, Bracket, Comm, Triple, Act]


def expr_letters(e: Expr) -> tuple[str, ...]:
    if isinstance(e, Letter):
        return (e.name,)
    return sum(map(expr_letters, e.slots), ())


def expr_parity(e: Expr, parities: dict) -> int:
    return sum(parities[l] for l in expr_letters(e)) % 2


def _word_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for wa, ca in a.items():
        axpy(out, ca, {wa + wb: cb for wb, cb in b.items()})
    return out


def expand_expr(e: Expr, parities: dict) -> dict:
    """Expand into a map word-tuple -> coefficient in the free envelope."""
    if isinstance(e, Letter):
        return {(e.name,): Fraction(1)}
    if isinstance(e, WordExpr):
        return {tuple(e.letters): Fraction(1)}
    if isinstance(e, Triple):
        return expand_expr(Comm(Comm(e.left, e.mid), e.right), parities)
    if isinstance(e, Act):
        return expand_expr(Comm(e.op, e.arg), parities)
    left = expand_expr(e.left, parities)
    right = expand_expr(e.right, parities)
    iso = expand_expr(e.iso, parities)
    sgn = sign_a(
        expr_parity(e.left, parities),
        expr_parity(e.iso, parities),
        expr_parity(e.right, parities),
    )
    if e.op == "circ":
        sgn = -sgn
    lir = _word_mul(_word_mul(left, iso), right)
    ril = _word_mul(_word_mul(right, iso), left)
    return axpy(lir, -sgn, ril)


# ---------------------------------------------------------------------------
# templates

SignPairs = frozenset  # frozenset of frozensets {a, b} of letter names


def apairs(a: str, b: str, c: str) -> SignPairs:
    """Sign exponent of sign_a over three distinct letters."""
    assert len({a, b, c}) == 3
    return frozenset({frozenset({a, b}), frozenset({b, c}), frozenset({c, a})})


def bpairs(a: str, b: str, c: str, d: str) -> SignPairs:
    """Sign exponent of sign_b over four distinct letters (a 4-cycle)."""
    assert len({a, b, c, d}) == 4
    return frozenset(
        {frozenset({a, b}), frozenset({b, c}), frozenset({c, d}), frozenset({d, a})}
    )


def koszul(left: str, right: str) -> SignPairs:
    """Sign exponent p(left) p(right), where ``left`` and ``right`` are
    disjoint strings of one-character letters whose parities add up."""
    assert not set(left) & set(right)
    return frozenset(frozenset({a, b}) for a in left for b in right)


NO_SIGN: SignPairs = frozenset()


def eval_sign_pairs(pairs: SignPairs, parities: dict) -> int:
    e = 0
    for pq in pairs:
        p, q = tuple(pq)
        e += parities[p] * parities[q]
    return -1 if e % 2 else 1


@dataclass(frozen=True)
class TemplateTerm:
    coeff: Fraction
    sign_pairs: SignPairs
    expr: Expr


@dataclass(frozen=True)
class IdentityTemplate:
    """A formal sum of signed bracket terms over the letters."""

    terms: tuple[TemplateTerm, ...]

    def letters(self) -> tuple[str, ...]:
        seen: list[str] = []
        for t in self.terms:
            for l in expr_letters(t.expr):
                if l not in seen:
                    seen.append(l)
        return tuple(sorted(seen, key=letter_key))


def term(coeff, sign_pairs: SignPairs, expr: Expr) -> TemplateTerm:
    return TemplateTerm(Fraction(coeff), sign_pairs, expr)


def template(*terms: TemplateTerm) -> IdentityTemplate:
    return IdentityTemplate(tuple(terms))


def expand_template(t: IdentityTemplate, parities: dict) -> dict:
    """Fully expanded signed word sum for one parity assignment."""
    out: dict = {}
    for tm in t.terms:
        scale = tm.coeff * eval_sign_pairs(tm.sign_pairs, parities)
        axpy(out, scale, expand_expr(tm.expr, parities))
    return out


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class AssignmentVerdict:
    parities: tuple[int, ...]
    equal: bool
    diff_word: Optional[tuple[str, ...]] = None
    lhs_coeff: Optional[Fraction] = None
    rhs_coeff: Optional[Fraction] = None


@dataclass(frozen=True)
class ValidationReport:
    name: str
    letters: tuple[str, ...]
    verdicts: tuple[AssignmentVerdict, ...]

    @property
    def equal(self) -> bool:
        return all(v.equal for v in self.verdicts)

    def to_json(self) -> dict:
        from .exactlin import scalar_to_str

        return {
            "name": self.name,
            "letters": list(self.letters),
            "equal": self.equal,
            "assignments": [
                {
                    "parities": list(v.parities),
                    "equal": v.equal,
                    **(
                        {
                            "diff_word": "".join(v.diff_word),
                            "lhs": scalar_to_str(v.lhs_coeff or Fraction(0)),
                            "rhs": scalar_to_str(v.rhs_coeff or Fraction(0)),
                        }
                        if not v.equal
                        else {}
                    ),
                }
                for v in self.verdicts
            ],
        }


def validate_identity(
    lhs: IdentityTemplate, rhs: IdentityTemplate, name: str = ""
) -> ValidationReport:
    """Compare two templates in the free envelope over all parity
    assignments of their (shared) letter set."""
    letters = tuple(sorted(set(lhs.letters()) | set(rhs.letters()), key=letter_key))
    verdicts = []
    for bits in itertools.product((0, 1), repeat=len(letters)):
        parities = dict(zip(letters, bits))
        l = expand_template(lhs, parities)
        r = expand_template(rhs, parities)
        if l == r:
            verdicts.append(AssignmentVerdict(bits, True))
        else:
            words = sorted(set(l) | set(r))
            w = next(w for w in words if l.get(w, 0) != r.get(w, 0))
            verdicts.append(
                AssignmentVerdict(
                    bits, False, w, Fraction(l.get(w, 0)), Fraction(r.get(w, 0))
                )
            )
    return ValidationReport(name, letters, tuple(verdicts))


# ---------------------------------------------------------------------------
# the identity catalog

X, Y, Z, U, V = (Letter(l) for l in LETTERS)


@dataclass(frozen=True, eq=False)  # equal only to itself: caches key on it
class Identity:
    """A named identity: lhs = rhs, letters typed to pair sides.

    ``sides`` maps each letter, in basis-tuple order, to 1 or 2 for the
    primary orientation (elements of V1 get brackets from m1, of V2 from
    m2); the mirrored orientation swaps sides 1 and 2.  It keeps side 0:
    the one space of a superalgebra or triple system, whose identities
    put every letter there, or the operators of a derivation identity.
    ``printed_rhs`` retains the source form of the right-hand side when
    it differs from the adopted one.
    """

    name: str
    lhs: IdentityTemplate
    rhs: IdentityTemplate
    sides: dict
    printed_rhs: Optional[IdentityTemplate] = None
    correction: Optional[str] = None

    @property
    def letters(self) -> tuple[str, ...]:
        return tuple(self.sides)

    @property
    def adopted_differs(self) -> bool:
        return self.correction is not None

    def validate(self) -> ValidationReport:
        return validate_identity(self.lhs, self.rhs, self.name)

    def validate_printed(self) -> ValidationReport:
        return validate_identity(
            self.lhs,
            self.printed_rhs if self.printed_rhs is not None else self.rhs,
            self.name + ".printed",
        )

    def residual_terms(self) -> tuple[TemplateTerm, ...]:
        """lhs - rhs, as a flat term tuple (zero iff the identity holds)."""
        return self.lhs.terms + tuple(
            TemplateTerm(-t.coeff, t.sign_pairs, t.expr) for t in self.rhs.terms
        )


def _comm(l, r, i) -> Bracket:
    return Bracket(l, r, i, "comm")


def _circ(l, r, i) -> Bracket:
    return Bracket(l, r, i, "circ")


SIDES_XYU = {"X": 1, "Y": 1, "U": 2}
SIDES_FULL = {"X": 1, "Y": 1, "Z": 1, "U": 2, "V": 2}
SIDES_UVX = {"X": 1, "U": 2, "V": 2}

# Graded antisymmetry of the isocommutator.  The printed relation
# "m(U,X,Y) = A_{XUY} m(U,Y,X)" lacks the minus sign that the envelope
# model forces; the adopted form restores it.
ANTISYM_ISOTOPIC = Identity(
    name="antisymmetry.isotopic",
    lhs=template(term(1, NO_SIGN, _comm(X, Y, U))),
    rhs=template(term(-1, apairs("X", "U", "Y"), _comm(Y, X, U))),
    printed_rhs=template(term(1, apairs("X", "U", "Y"), _comm(Y, X, U))),
    sides=SIDES_XYU,
    correction="flipped overall sign: [X,Y]_U = -A_{XUY} [Y,X]_U",
)

# Graded symmetry of the circle product (the printed +A form is correct
# for the plus-sign model).
SYMMETRY_JORDAN = Identity(
    name="symmetry.superJordan",
    lhs=template(term(1, NO_SIGN, _circ(X, Y, U))),
    rhs=template(term(1, apairs("X", "U", "Y"), _circ(Y, X, U))),
    sides=SIDES_XYU,
)

_J1 = _comm(_comm(X, Y, U), Z, V)
_J2 = _comm(X, _comm(Z, Y, U), V)
_J3 = _comm(_comm(Z, X, U), Y, V)
_J4 = _comm(_comm(X, Y, V), Z, U)
_J5 = _comm(X, _comm(Z, Y, V), U)
_J6 = _comm(_comm(Z, X, V), Y, U)

# Six-term Jacobi analog; the printed signs validate as-is.
JACOBI_ANALOG = Identity(
    name="jacobi_analog",
    lhs=template(
        term(1, apairs("V", "Y", "Z"), _J1),
        term(1, apairs("U", "Z", "V"), _J2),
        term(1, apairs("X", "Z", "U"), _J3),
        term(1, bpairs("V", "Z", "Y", "U"), _J4),
        term(1, NO_SIGN, _J5),
        term(1, bpairs("X", "Z", "U", "V"), _J6),
    ),
    rhs=template(),
    sides=SIDES_FULL,
)

# Compatibility of the two bracket families; printed signs validate.
COMPATIBILITY = Identity(
    name="compatibility",
    lhs=template(term(1, NO_SIGN, _comm(X, Y, _comm(U, V, Z)))),
    rhs=template(
        term(Fraction(1, 2), apairs("V", "Y", "Z"), _J1),
        term(Fraction(1, 2), NO_SIGN, _J5),
        term(Fraction(1, 2), bpairs("X", "Z", "U", "V"), _J6),
        term(Fraction(-1, 2), bpairs("V", "Z", "Y", "U"), _J4),
        term(Fraction(-1, 2), apairs("U", "Z", "V"), _J2),
        term(Fraction(-1, 2), apairs("X", "Z", "U"), _J3),
    ),
    sides=SIDES_FULL,
)

# Super-Jordan identity.  The printed subscript "U o V" is read as
# "U o_Z V" (the only well-typed option), and the printed minus on the
# B-term contradicts the envelope: the adopted form flips it.
SUPER_JORDAN = Identity(
    name="super_jordan",
    lhs=template(term(1, NO_SIGN, _circ(X, Y, _circ(U, V, Z)))),
    rhs=template(
        term(1, NO_SIGN, _circ(X, _circ(Z, Y, V), U)),
        term(-1, apairs("V", "Y", "Z"), _circ(_circ(X, Y, U), Z, V)),
        term(1, bpairs("X", "Z", "U", "V"), _circ(_circ(Z, X, V), Y, U)),
    ),
    printed_rhs=template(
        term(1, NO_SIGN, _circ(X, _circ(Z, Y, V), U)),
        term(-1, apairs("V", "Y", "Z"), _circ(_circ(X, Y, U), Z, V)),
        term(-1, bpairs("X", "Z", "U", "V"), _circ(_circ(Z, X, V), Y, U)),
    ),
    sides=SIDES_FULL,
    correction="flipped the sign of the B_{XZUV} (Z o_V X) o_U Y term",
)

# First representation identity; printed form validates.
REP_IDENTITY_1 = Identity(
    name="rep.T1",
    lhs=template(term(1, NO_SIGN, _comm(X, Y, U))),
    rhs=template(
        term(1, NO_SIGN, WordExpr(("X", "U", "Y"))),
        term(-1, apairs("X", "U", "Y"), WordExpr(("Y", "U", "X"))),
    ),
    sides=SIDES_XYU,
)

# Second representation identity; the printed right-hand side repeats
# the word T2(U)T1(X)T2(V) twice, the adopted form mirrors the second
# occurrence, in line with the first identity.
REP_IDENTITY_2 = Identity(
    name="rep.T2",
    lhs=template(term(1, NO_SIGN, _comm(U, V, X))),
    rhs=template(
        term(1, NO_SIGN, WordExpr(("U", "X", "V"))),
        term(-1, apairs("U", "X", "V"), WordExpr(("V", "X", "U"))),
    ),
    printed_rhs=template(
        term(1, NO_SIGN, WordExpr(("U", "X", "V"))),
        term(-1, apairs("U", "X", "V"), WordExpr(("U", "X", "V"))),
    ),
    sides=SIDES_UVX,
    correction="second word reversed: ... - A_{UXV} T2(V) T1(X) T2(U)",
)

CATALOG = {
    ident.name: ident
    for ident in (
        ANTISYM_ISOTOPIC,
        SYMMETRY_JORDAN,
        JACOBI_ANALOG,
        COMPATIBILITY,
        SUPER_JORDAN,
        REP_IDENTITY_1,
        REP_IDENTITY_2,
    )
}

# The identities over the one space (side 0) of the polarized
# superalgebra and triple system that tkk builds: consequences of
# super-Jacobi (Kac, Adv. Math. 26, 1977; Loos, LNM 460, 1975), and the
# homomorphism property of a representation of the superalgebra, which
# reps checks for the lift of a split pair representation.  Their signs
# validate as written.  CATALOG, whose validation is an acceptance
# artifact, keeps the pair identities and the two of Definition 2.


def _one_space(name: str, lhs: tuple, rhs: tuple = ()) -> Identity:
    letters = {l for t in lhs + rhs for l in expr_letters(t.expr)}
    return Identity(name, template(*lhs), template(*rhs), dict.fromkeys(sorted(letters), 0))


_i, _j, _k = map(Letter, "ijk")
_a, _b, _c, _d, _e = map(Letter, "abcde")

TKK_CATALOG = {
    ident.name: ident
    for ident in (
        # [i,j] + (-1)^(ij) [j,i] = 0
        _one_space(
            "superalgebra.antisymmetry",
            (term(1, NO_SIGN, Comm(_i, _j)), term(1, koszul("i", "j"), Comm(_j, _i))),
        ),
        # [i,[j,k]] = [[i,j],k] + (-1)^(ij) [j,[i,k]]
        _one_space(
            "superalgebra.super_jacobi",
            (term(1, NO_SIGN, Comm(_i, Comm(_j, _k))),),
            (term(1, NO_SIGN, Comm(Comm(_i, _j), _k)),
             term(1, koszul("i", "j"), Comm(_j, Comm(_i, _k)))),
        ),
        # (i) [a b c] + (-1)^(ab) [b a c] = 0
        _one_space(
            "lts.antisymmetry",
            (term(1, NO_SIGN, Triple(_a, _b, _c)), term(1, koszul("a", "b"), Triple(_b, _a, _c))),
        ),
        # (ii) (-1)^(ac) [a b c] + (-1)^(ba) [b c a] + (-1)^(cb) [c a b] = 0
        _one_space(
            "lts.cyclic",
            (term(1, koszul("a", "c"), Triple(_a, _b, _c)),
             term(1, koszul("b", "a"), Triple(_b, _c, _a)),
             term(1, koszul("c", "b"), Triple(_c, _a, _b))),
        ),
        # (iii) [a b [c d e]] = [[a b c] d e] + (-1)^((a+b)c) [c [a b d] e]
        #                       + (-1)^((a+b)(c+d)) [c d [a b e]]
        _one_space(
            "lts.derivation",
            (term(1, NO_SIGN, Triple(_a, _b, Triple(_c, _d, _e))),),
            (term(1, NO_SIGN, Triple(Triple(_a, _b, _c), _d, _e)),
             term(1, koszul("ab", "c"), Triple(_c, Triple(_a, _b, _d), _e)),
             term(1, koszul("ab", "cd"), Triple(_c, _d, Triple(_a, _b, _e)))),
        ),
        # rho([i,j]) = rho(i) rho(j) - (-1)^(ij) rho(j) rho(i)
        _one_space(
            "rep.superalgebra",
            (term(1, NO_SIGN, Comm(_i, _j)),),
            (term(1, NO_SIGN, WordExpr(("i", "j"))),
             term(-1, koszul("i", "j"), WordExpr(("j", "i")))),
        ),
    )
}


def _derivation(name: str, d: str) -> Identity:
    """d [X,Y]_U = [dX,Y]_U + (-1)^(dX) [X,Y]_dU + (-1)^(d(X+U)) [X,dY]_U:
    the operator letter ``d`` (side 0) acts as a derivation of the pair
    bracket; its letters go (d, U, X, Y)."""
    op = Letter(d)
    return Identity(
        name,
        template(term(1, NO_SIGN, Act(op, _comm(X, Y, U)))),
        template(term(1, NO_SIGN, _comm(Act(op, X), Y, U)),
                 term(1, koszul(d, "X"), _comm(X, Y, Act(op, U))),
                 term(1, koszul(d, "XU"), _comm(X, Act(op, Y), U))),
        {d: 0, "U": 2, "X": 1, "Y": 1},
    )


# The derivation identities of ad of a Lie algebra g on a pair over g (Z)
# and of the generators D(x, u) of a hull's g0, its inner structure
# algebra (Loos, LNM 460, 1975).  They validate as written and stay out
# of CATALOG and TKK_CATALOG, whose identities are over a pair or a space.
EQUIVARIANCE = {
    ident.name: ident
    for ident in (_derivation("g_equivariance", "Z"), _derivation("g0_equivariance", "D"))
}


def validate_catalog() -> dict:
    """Validate every adopted identity (and the printed form where it
    differs); returns a JSON-ready summary used by the acceptance suite."""
    out = {}
    for name, ident in CATALOG.items():
        rep = ident.validate()
        entry = {
            "adopted": rep.to_json(),
            "adopted_equal": rep.equal,
            "correction": ident.correction,
        }
        if ident.adopted_differs:
            printed = ident.validate_printed()
            entry["printed_equal"] = printed.equal
            entry["printed"] = printed.to_json()
        out[name] = entry
    return out


# ---------------------------------------------------------------------------
# correction search


def _sign_variants(letters: tuple[str, ...]):
    yield NO_SIGN
    for trip in itertools.combinations(letters, 3):
        yield apairs(*trip)
    for quad in itertools.combinations(letters, 4):
        a, b, c, d = quad
        # the three dihedral classes of 4-cycles on {a,b,c,d}
        for cyc in ((a, b, c, d), (a, c, b, d), (a, b, d, c)):
            yield bpairs(*cyc)


def _term_moves(t: TemplateTerm, letters: tuple[str, ...]):
    """Distance-1 edits of a single term, closest first."""
    yield TemplateTerm(-t.coeff, t.sign_pairs, t.expr), "flip sign"
    for sp in _sign_variants(letters):
        if sp != t.sign_pairs:
            yield TemplateTerm(t.coeff, sp, t.expr), "replace sign factor"
    if isinstance(t.expr, WordExpr):
        rev = WordExpr(tuple(reversed(t.expr.letters)))
        if rev != t.expr:
            yield TemplateTerm(t.coeff, t.sign_pairs, rev), "reverse word"


def find_correction(
    lhs: IdentityTemplate, rhs: IdentityTemplate
) -> Optional[tuple[IdentityTemplate, str]]:
    """Search sign-corrected variants of ``rhs`` that make lhs = rhs hold
    in the envelope, nearest the printed form first.  Returns the first
    passing variant (terms scanned left to right) or None."""
    letters = tuple(sorted(set(lhs.letters()) | set(rhs.letters()), key=letter_key))
    if validate_identity(lhs, rhs).equal:
        return rhs, "printed form validates"
    candidates: list[tuple[IdentityTemplate, str]] = []
    terms = rhs.terms
    for i, t in enumerate(terms):
        for new_t, what in _term_moves(t, letters):
            cand = IdentityTemplate(terms[:i] + (new_t,) + terms[i + 1 :])
            candidates.append((cand, f"term {i}: {what}"))
    for cand, what in candidates:
        if validate_identity(lhs, cand).equal:
            return cand, what
    for (c1, w1), (c2, w2) in itertools.combinations(list(enumerate(terms)), 2):
        for t1, what1 in _term_moves(w1, letters):
            for t2, what2 in _term_moves(w2, letters):
                ts = list(terms)
                ts[c1], ts[c2] = t1, t2
                cand = IdentityTemplate(tuple(ts))
                if validate_identity(lhs, cand).equal:
                    return cand, f"term {c1}: {what1}; term {c2}: {what2}"
    return None
