"""Super polynomials O(n|m), super vector fields W(n|m), and their pair.

Polynomials have n even variables x1..xn and m odd variables t1..tm;
monomials are (exponent tuple, ascending odd subset) with odd squares
vanishing and Koszul signs on reordering.  Coefficients are exact in
one canonical form: a nonzero int when integral, otherwise a Fraction
with denominator > 1, so integer inputs stay on Python ints throughout
(products, derivatives and Koszul signs keep them integral).  Odd
derivatives are left derivatives.  Vector fields are first-order
operators with polynomial coefficients, sum of f_i d/dx_i and g_j d/dt_j,
held as their n + m coefficient slots: dx1..dxn, then dt1..dtm.

The pair brackets are realized through first-order operators: with M_f
multiplication by f,

    [X, Y]_f = X M_f Y - A(X,f,Y) Y M_f X        (fields, f a function)
    [f, g]_X = M_f X M_g - A(f,X,g) M_g X M_f    (functions, X a field)

whose second-order / first-order parts cancel, leaving the closed forms

    [X, Y]_f = X(f) Y - A(X,f,Y) Y(f) X + (-1)^(p(X)p(f)) f [X, Y]
    [f, g]_X = f X(g) - A(f,X,g) g X(f)

with [X, Y] the super Lie bracket.  Both routes are computed and
compared by the sampled checks.

All of this arithmetic is one kernel, ``_mul_into``: a sparse
accumulator (Gustavson 1978) that adds c*a*b into a single dict
workspace.  A field applies by feeding each slot's derivative terms
straight to it, a bracket sums every term of one coefficient slot into
one workspace, and each result is built from its workspace once.
"""

from __future__ import annotations

import functools
import itertools
import operator
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .exactlin import axpy, scalar_from_str
from .pairs import VerifyReport, _orient, axiom_report
from .rng import Lcg64
from .supercore import CATALOG, Letter, eval_sign_pairs, sign_a

@functools.lru_cache(maxsize=4096)
def _merge(a: tuple, b: tuple) -> tuple:
    """(Koszul sign, ascending block) of concatenating ascending odd
    blocks a, b; the sign is 0 when they intersect.  Memoised, bounded."""
    if set(a) & set(b):
        return 0, ()
    inversions = sum(1 for i in a for j in b if j < i)
    return (-1 if inversions % 2 else 1), tuple(sorted(a + b))


def _mul_into(acc: dict, c, a, b) -> dict:
    """``acc += c * a * b`` in place, the workspace every product, field
    application and bracket sums into: a and b are (monomial, coefficient)
    pairs, a iterated per term of b, and c is nonzero.  Keys that cancel
    are dropped, no zero is stored.  Returns ``acc``."""
    for (eb, ob), cb in b:
        cb *= c
        for (ea, oa), ca in a:
            s, odd = _merge(oa, ob)
            if s:
                key = (tuple(map(operator.add, ea, eb)), odd)
                v = ca * cb if s > 0 else -ca * cb
                if key in acc:
                    v += acc[key]
                    if not v:
                        del acc[key]
                        continue
                acc[key] = v
    return acc


def _d_even(terms: dict, i: int):
    """The terms of d/dx_i (1-indexed) of a term dict, as pairs."""
    for (exps, odd), c in terms.items():
        e = exps[i - 1]
        if e:
            yield (exps[: i - 1] + (e - 1,) + exps[i:], odd), c * e


def _d_odd(terms: dict, j: int):
    """The terms of the left derivative d/dt_j (1-indexed), as pairs."""
    for (exps, odd), c in terms.items():
        if j in odd:
            pos = odd.index(j)
            yield (exps, odd[:pos] + odd[pos + 1 :]), -c if pos % 2 else c


def _coeff(c):
    """The canonical coefficient: an int when c is integral, else a
    Fraction with denominator > 1."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _index(e) -> int:
    """An exponent or odd index as an int; floats and Fractions are
    malformed rather than truncated."""
    try:
        return operator.index(e)
    except TypeError:
        raise ValueError("malformed monomial") from None


class SuperPolynomial:
    """Exact polynomial in n even and m odd variables."""

    __slots__ = ("n", "m", "terms", "_parity")

    def __init__(self, n: int, m: int, terms: Optional[dict] = None):
        self.n = n
        self.m = m
        self.terms: dict = {}
        for (exps, odd), c in (terms or {}).items():
            c = _coeff(c)
            if not c:
                continue
            exps, odd = tuple(map(_index, exps)), tuple(map(_index, odd))
            # sorting the odd block reorders anticommuting variables:
            # the coefficient picks up the sign of the permutation
            inversions = sum(1 for k, i in enumerate(odd) for j in odd[k + 1 :] if j < i)
            if inversions % 2:
                c = -c
            odd = tuple(sorted(odd))
            if (len(exps) != n or any(e < 0 for e in exps)
                    or len(set(odd)) != len(odd) or any(j < 1 or j > m for j in odd)):
                raise ValueError("malformed monomial")
            self.terms[(exps, odd)] = self.terms.get((exps, odd), 0) + c
        self.terms = {k: _coeff(v) for k, v in self.terms.items() if v}

    @classmethod
    def _make(cls, n: int, m: int, terms: dict) -> "SuperPolynomial":
        """Trusted constructor for arithmetic results: the keys are
        normalized monomials and the values nonzero ints or Fractions,
        so only integral Fractions (-1/2 * -2) are narrowed."""
        p = object.__new__(cls)
        p.n, p.m = n, m
        p.terms = {k: c if type(c) is int else _coeff(c) for k, c in terms.items()}
        return p

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(n: int, m: int) -> "SuperPolynomial":
        return SuperPolynomial(n, m)

    @staticmethod
    def const(n: int, m: int, c) -> "SuperPolynomial":
        return SuperPolynomial(n, m, {((0,) * n, ()): c})

    @staticmethod
    def x(n: int, m: int, i: int) -> "SuperPolynomial":
        exps = tuple(int(k == i - 1) for k in range(n))
        return SuperPolynomial(n, m, {(exps, ()): 1})

    @staticmethod
    def t(n: int, m: int, j: int) -> "SuperPolynomial":
        return SuperPolynomial(n, m, {((0,) * n, (j,)): 1})

    # -- ring structure -------------------------------------------------------

    def _check(self, other: "SuperPolynomial"):
        if (self.n, self.m) != (other.n, other.m):
            raise ValueError("mixed variable signatures")

    def __add__(self, other: "SuperPolynomial") -> "SuperPolynomial":
        self._check(other)
        out = axpy(dict(self.terms), 1, other.terms)
        return SuperPolynomial._make(self.n, self.m, out)

    def __sub__(self, other: "SuperPolynomial") -> "SuperPolynomial":
        self._check(other)
        out = axpy(dict(self.terms), -1, other.terms)
        return SuperPolynomial._make(self.n, self.m, out)

    def scale(self, c) -> "SuperPolynomial":
        c = _coeff(c)
        return SuperPolynomial._make(
            self.n, self.m, {k: c * v for k, v in self.terms.items()} if c else {}
        )

    def __neg__(self) -> "SuperPolynomial":
        return self.scale(-1)

    def __mul__(self, other: "SuperPolynomial") -> "SuperPolynomial":
        self._check(other)
        out = _mul_into({}, 1, self.terms.items(), other.terms.items())
        return SuperPolynomial._make(self.n, self.m, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SuperPolynomial)
            and (self.n, self.m) == (other.n, other.m)
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, self.m, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def parity(self) -> Optional[int]:
        """Parity bit for homogeneous polynomials, None when mixed;
        computed once, as no operation changes a polynomial's terms."""
        try:
            return self._parity
        except AttributeError:
            ps = {len(odd) % 2 for _, odd in self.terms}
            self._parity = ps.pop() if len(ps) == 1 else (0 if not self.terms else None)
            return self._parity

    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) + len(o) for e, o in self.terms)

    # -- derivatives ----------------------------------------------------------

    def d_even(self, i: int) -> "SuperPolynomial":
        """d/dx_i (1-indexed)."""
        return SuperPolynomial._make(self.n, self.m, dict(_d_even(self.terms, i)))

    def d_odd(self, j: int) -> "SuperPolynomial":
        """Left derivative d/dt_j (1-indexed)."""
        return SuperPolynomial._make(self.n, self.m, dict(_d_odd(self.terms, j)))

    def __repr__(self) -> str:
        return f"SuperPolynomial({self.pretty()!r})"

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (exps, odd), c in sorted(self.terms.items()):
            factors = _factors(exps, odd)
            bits.append(f"{c}*{'*'.join(factors)}" if factors else f"{c}")
        return " + ".join(bits)


def _factors(exps: tuple, odd: tuple) -> list:
    """A monomial's factors in print order: x1^2, x2, t1."""
    xs = [f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exps, 1) if e]
    return xs + [f"t{j}" for j in odd]


def _slot_names(n: int, m: int) -> list:
    """The derivation of each coefficient slot, in slot order:
    dx1..dxn, then dt1..dtm."""
    return [f"dx{i}" for i in range(1, n + 1)] + [f"dt{j}" for j in range(1, m + 1)]


class SuperVectorField:
    """First-order operator sum f_i d/dx_i + g_j d/dt_j, held as its
    n + m coefficient slots ``coeffs``: slot k < n multiplies
    d/dx_(k+1) and slot n + j - 1 the left d/dt_j."""

    __slots__ = ("n", "m", "coeffs", "_parity")

    def __init__(self, n: int, m: int, even_coeffs: Optional[Sequence[SuperPolynomial]] = None,
                 odd_coeffs: Optional[Sequence[SuperPolynomial]] = None):
        even = tuple(even_coeffs or (SuperPolynomial.zero(n, m),) * n)
        odd = tuple(odd_coeffs or (SuperPolynomial.zero(n, m),) * m)
        if len(even) != n or len(odd) != m:
            raise ValueError("coefficient count mismatch")
        self.n, self.m, self.coeffs = n, m, even + odd

    @classmethod
    def _make(cls, n: int, m: int, coeffs) -> "SuperVectorField":
        """Trusted constructor from the n + m slot polynomials."""
        X = object.__new__(cls)
        X.n, X.m, X.coeffs = n, m, tuple(coeffs)
        return X

    # read-only views: the d/dx_i slots and the d/dt_j slots
    even_coeffs = property(lambda self: self.coeffs[: self.n])
    odd_coeffs = property(lambda self: self.coeffs[self.n :])

    @staticmethod
    def zero(n: int, m: int) -> "SuperVectorField":
        return SuperVectorField(n, m)

    @staticmethod
    def _unit(n: int, m: int, name: str, coeff: Optional[SuperPolynomial]):
        """``coeff`` (default 1) in the slot of derivation ``name``, zero
        in the others; ValueError for a name with no slot."""
        coeffs = [SuperPolynomial.zero(n, m)] * (n + m)
        coeffs[_slot_names(n, m).index(name)] = (
            coeff if coeff is not None else SuperPolynomial.const(n, m, 1))
        return SuperVectorField._make(n, m, coeffs)

    @staticmethod
    def d_dx(n: int, m: int, i: int, coeff: Optional[SuperPolynomial] = None):
        return SuperVectorField._unit(n, m, f"dx{i}", coeff)

    @staticmethod
    def d_dt(n: int, m: int, j: int, coeff: Optional[SuperPolynomial] = None):
        return SuperVectorField._unit(n, m, f"dt{j}", coeff)

    def _check(self, other):
        if (self.n, self.m) != (other.n, other.m):
            raise ValueError("mixed variable signatures")

    def __add__(self, other: "SuperVectorField") -> "SuperVectorField":
        self._check(other)
        return SuperVectorField._make(self.n, self.m, map(operator.add, self.coeffs, other.coeffs))

    def __sub__(self, other: "SuperVectorField") -> "SuperVectorField":
        return self + other.scale(-1)

    def scale(self, c) -> "SuperVectorField":
        return SuperVectorField._make(self.n, self.m, [p.scale(c) for p in self.coeffs])

    def __eq__(self, other) -> bool:
        return isinstance(other, SuperVectorField) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def is_zero(self) -> bool:
        return not any(p.terms for p in self.coeffs)

    @property
    def parity(self) -> Optional[int]:
        """d/dx_i slots contribute the coefficient parity, d/dt_j slots
        the opposite; None when mixed.  Computed once, like a
        polynomial's."""
        try:
            return self._parity
        except AttributeError:
            ps = {p.parity if k < self.n or p.parity is None else 1 - p.parity
                  for k, p in enumerate(self.coeffs) if p.terms}
            self._parity = ps.pop() if len(ps) == 1 else (0 if not ps else None)
            return self._parity

    def degree(self) -> int:
        return max((p.degree() for p in self.coeffs if p.terms), default=0)

    def apply(self, f: SuperPolynomial) -> SuperPolynomial:
        return SuperPolynomial._make(self.n, self.m, self._apply_into({}, 1, f.terms))

    def _apply_into(self, acc: dict, c, terms: dict) -> dict:
        """``acc += c * X(f)`` for f's term dict: each slot's coefficient
        times that derivative's terms of f, never built as a polynomial."""
        n = self.n
        for k, p in enumerate(self.coeffs):
            if p.terms:
                d = _d_even(terms, k + 1) if k < n else _d_odd(terms, k - n + 1)
                _mul_into(acc, c, p.terms.items(), d)
        return acc

    def __repr__(self):
        bits = [f"({p.pretty()})*{d}"
                for d, p in zip(_slot_names(self.n, self.m), self.coeffs) if p.terms]
        return "SuperVectorField(" + (" + ".join(bits) or "0") + ")"


class InhomogeneousInput(ValueError):
    """Bracket signs are undefined for parity-mixed inputs."""


def _parity_or_raise(obj) -> int:
    p = obj.parity
    if p is None:
        raise InhomogeneousInput(f"inhomogeneous input {obj!r}")
    return p


def super_lie_bracket(X: SuperVectorField, Y: SuperVectorField) -> SuperVectorField:
    """[X, Y] = X Y - (-1)^(p(X)p(Y)) Y X, computed on coefficients."""
    px, py = _parity_or_raise(X), _parity_or_raise(Y)
    sign = -1 if px * py % 2 else 1

    def coeff(x, y):  # one slot: X(y) - sign Y(x)
        acc = Y._apply_into(X._apply_into({}, 1, y.terms), -sign, x.terms)
        return SuperPolynomial._make(X.n, X.m, acc)

    return SuperVectorField._make(X.n, X.m, map(coeff, X.coeffs, Y.coeffs))


def iso_bracket_fields(
    X: SuperVectorField, Y: SuperVectorField, f: SuperPolynomial
) -> SuperVectorField:
    """[X, Y]_f as a first-order field (closed form)."""
    X._check(Y)
    px, py, pf = _parity_or_raise(X), _parity_or_raise(Y), _parity_or_raise(f)
    a, s = sign_a(px, pf, py), -1 if (px * pf) % 2 else 1
    xf, yf = X._apply_into({}, 1, f.terms).items(), Y._apply_into({}, 1, f.terms).items()
    lie = super_lie_bracket(X, Y)

    def coeff(x, y, z):  # one slot: X(f) y - a Y(f) x + s f z
        acc = _mul_into(_mul_into({}, 1, xf, y.terms.items()), -a, yf, x.terms.items())
        return SuperPolynomial._make(X.n, X.m, _mul_into(acc, s, f.terms.items(), z.terms.items()))

    return SuperVectorField._make(X.n, X.m, map(coeff, X.coeffs, Y.coeffs, lie.coeffs))


def iso_bracket_fields_operator(
    X: SuperVectorField, Y: SuperVectorField, f: SuperPolynomial
) -> Callable[[SuperPolynomial], SuperPolynomial]:
    """[X, Y]_f as the raw operator composition X M_f Y - A Y M_f X."""
    px, py, pf = _parity_or_raise(X), _parity_or_raise(Y), _parity_or_raise(f)
    a = sign_a(px, pf, py)

    def op(g: SuperPolynomial) -> SuperPolynomial:
        acc = X._apply_into({}, 1, (f * Y.apply(g)).terms)
        return SuperPolynomial._make(X.n, X.m, Y._apply_into(acc, -a, (f * X.apply(g)).terms))

    return op


def iso_bracket_functions(
    f: SuperPolynomial, g: SuperPolynomial, X: SuperVectorField
) -> SuperPolynomial:
    """[f, g]_X = f X(g) - A(f,X,g) g X(f)."""
    f._check(g)
    pf, pg, px = _parity_or_raise(f), _parity_or_raise(g), _parity_or_raise(X)
    a = sign_a(pf, px, pg)
    acc = _mul_into({}, 1, f.terms.items(), X._apply_into({}, 1, g.terms).items())
    acc = _mul_into(acc, -a, g.terms.items(), X._apply_into({}, 1, f.terms).items())
    return SuperPolynomial._make(f.n, f.m, acc)


def iso_bracket_functions_operator(
    f: SuperPolynomial, g: SuperPolynomial, X: SuperVectorField
) -> Callable[[SuperPolynomial], SuperPolynomial]:
    """M_f X M_g - A M_g X M_f as an operator (it is multiplication by
    the closed form; the first-order parts cancel)."""
    pf, pg, px = _parity_or_raise(f), _parity_or_raise(g), _parity_or_raise(X)
    a = sign_a(pf, px, pg)

    def op(h: SuperPolynomial) -> SuperPolynomial:
        acc = _mul_into({}, 1, f.terms.items(), X._apply_into({}, 1, (g * h).terms).items())
        acc = _mul_into(acc, -a, g.terms.items(), X._apply_into({}, 1, (f * h).terms).items())
        return SuperPolynomial._make(f.n, f.m, acc)

    return op


# ---------------------------------------------------------------------------
# sampled identity checks for the (W(n|m), O(n|m)) pair


@functools.lru_cache(maxsize=64)
def _monomials(n, m, maxdeg, parity) -> tuple:
    """The monomials random_poly draws from, in its fixed order."""
    return tuple(
        (exps, odd)
        for exps in itertools.product(*(range(maxdeg + 1) for _ in range(n)))
        for k in range(m + 1)
        for odd in itertools.combinations(range(1, m + 1), k)
        if sum(exps) + k <= maxdeg and k % 2 == parity
    )


def random_poly(n, m, maxdeg, parity, rng: Lcg64) -> SuperPolynomial:
    """Random homogeneous polynomial of the given parity, degree <= maxdeg."""
    monos = _monomials(n, m, maxdeg, parity)
    while True:
        terms = {}
        for _ in range(1 + rng.below(2)):
            c = rng.choice((-2, -1, 1, 2))
            terms_key = rng.choice(monos)
            terms[terms_key] = terms.get(terms_key, 0) + c
        terms = {k: c for k, c in terms.items() if c}
        if terms:  # the monomials are normalized and the coefficients ints
            return SuperPolynomial._make(n, m, terms)


def random_field(n, m, maxdeg, parity, rng: Lcg64) -> SuperVectorField:
    """Random homogeneous field of the given parity."""
    while True:
        slots = [{} for _ in range(n + m)]  # the d/dx_i, then the d/dt_j terms
        for _ in range(1 + rng.below(2)):
            slot = rng.below(n + m)
            p = random_poly(n, m, maxdeg, parity if slot < n else (parity + 1) % 2, rng)
            axpy(slots[slot], 1, p.terms)
        X = SuperVectorField._make(n, m, (SuperPolynomial._make(n, m, t) for t in slots))
        if not X.is_zero() and X.parity == parity:
            return X


def _eval_tree(expr, env: dict):
    if isinstance(expr, Letter):
        return env[expr.name]
    left = _eval_tree(expr.left, env)
    right = _eval_tree(expr.right, env)
    iso = _eval_tree(expr.iso, env)
    if isinstance(left, SuperVectorField):
        return iso_bracket_fields(left, right, iso)
    return iso_bracket_functions(left, right, iso)


def _residual_repr(value) -> dict:
    """A nonzero residual's exact coefficients keyed by monomial label:
    x1^2*t1 (1 for the constant) for a polynomial, x1^3*dx1 for a field."""
    if isinstance(value, SuperPolynomial):
        return {"*".join(_factors(*k)) or "1": c for k, c in value.terms.items()}
    slots = zip(_slot_names(value.n, value.m), value.coeffs)
    return {"*".join(_factors(*k) + [d]): c for d, p in slots for k, c in p.terms.items()}


def check_sample_args(n: int, m: int, maxdeg: int, trials: int):
    """Raise ValueError unless the sampler can draw from these sizes:
    odd polynomials need degree 1, and zero trials is a vacuous pass."""
    if n < 0 or m < 0 or n + m < 1:
        raise ValueError(f"need n, m >= 0 and n + m >= 1, got n={n}, m={m}")
    if maxdeg < (1 if m else 0):
        raise ValueError(f"need maxdeg >= {1 if m else 0}, got {maxdeg}")
    if trials < 0:
        raise ValueError(f"need trials >= 0, got {trials}")


def sample_check_w_o_pair(
    n: int, m: int, maxdeg: int = 3, trials: int = 50, seed: int = 1
) -> VerifyReport:
    """Draw random homogeneous tuples and evaluate both adopted pair
    identities exactly, in both orientations; also cross-check the
    closed-form brackets against raw operator compositions."""
    check_sample_args(n, m, maxdeg, trials)
    rng = Lcg64(seed)
    reports = []
    for name in ("jacobi_analog", "compatibility"):
        ident = CATALOG[name]
        for orientation in (1, 2):
            sides = _orient(ident.sides, orientation)

            def residual():
                env, parities = {}, {}
                for letter in ident.letters:
                    par = rng.below(2) if m else 0
                    if sides[letter] == 1:  # V1 = W(n|m)
                        env[letter] = random_field(n, m, maxdeg, par, rng)
                    else:  # V2 = O(n|m)
                        env[letter] = random_poly(n, m, maxdeg, par, rng)
                    parities[letter] = par
                # sum the terms into one workspace per coefficient slot
                acc: list = []
                for t in ident.residual_terms():
                    c = _coeff(t.coeff * eval_sign_pairs(t.sign_pairs, parities))
                    val = _eval_tree(t.expr, env)
                    field = isinstance(val, SuperVectorField)
                    polys = val.coeffs if field else (val,)
                    acc = acc or [{} for _ in polys]
                    for terms, p in zip(acc, polys):
                        axpy(terms, c, p.terms)
                polys = [SuperPolynomial._make(n, m, terms) for terms in acc]
                total = SuperVectorField._make(n, m, polys) if field else polys[0]
                return {} if total.is_zero() else _residual_repr(total)

            reports.append(axiom_report(
                f"wo({n}|{m}).{name}",
                orientation,
                trials,
                (({"trial": trial}, residual()) for trial in range(trials)),
                10,
                "printed" if ident.correction is None else "corrected",
            ))

    # dual route: closed forms against operator compositions
    def mismatch():
        px, py, pf, pg = (rng.below(2) if m else 0 for _ in range(4))
        X = random_field(n, m, maxdeg, px, rng)
        Y = random_field(n, m, maxdeg, py, rng)
        f = random_poly(n, m, maxdeg, pf, rng)
        g = random_poly(n, m, maxdeg, pg, rng)
        probe = random_poly(n, m, maxdeg, rng.below(2) if m else 0, rng)
        closed = iso_bracket_fields(X, Y, f)
        op = iso_bracket_fields_operator(X, Y, f)
        ok = op(probe) == closed.apply(probe) and op(
            SuperPolynomial.const(n, m, 1)
        ) == closed.apply(SuperPolynomial.const(n, m, 1))
        closed2 = iso_bracket_functions(f, g, X)
        op2 = iso_bracket_functions_operator(f, g, X)
        ok = ok and op2(probe) == closed2 * probe
        # degree bound on coefficient degrees
        ok = ok and closed.degree() <= X.degree() + Y.degree() + f.degree()
        return {} if ok else {"mismatch": Fraction(1)}

    reports.append(axiom_report(
        f"wo({n}|{m}).operator_oracle",
        0,
        trials,
        (({"trial": trial}, mismatch()) for trial in range(trials)),
        10,
    ))
    return VerifyReport("isotopic", reports)


# ---------------------------------------------------------------------------
# text syntax: "3*x1^2*t1 + 1/2*x2"; a field term ends in a dxi / dtj factor


class ParseError(ValueError):
    pass


def _parse_factor(tok: str, n: int, m: int):
    tok = tok.strip()
    if tok.startswith("x") or tok.startswith("t"):
        kind = tok[0]
        body = tok[1:]
        power = 1
        if "^" in body:
            body, p = body.split("^", 1)
            try:
                power = int(p)
            except ValueError as exc:
                raise ParseError(f"bad exponent in {tok!r}") from exc
            if power < 0:
                raise ParseError(f"negative exponent in {tok!r}")
        try:
            idx = int(body)
        except ValueError as exc:
            raise ParseError(f"bad variable {tok!r}") from exc
        if kind == "x":
            if not 1 <= idx <= n:
                raise ParseError(f"even variable out of range in {tok!r}")
            exps = tuple(power if k == idx else 0 for k in range(1, n + 1))
            return SuperPolynomial(n, m, {(exps, ()): 1})
        if not 1 <= idx <= m:
            raise ParseError(f"odd variable out of range in {tok!r}")
        # t_j^0 = 1, and odd squares vanish
        return SuperPolynomial(n, m, {((0,) * n, (idx,) * power): 1} if power < 2 else {})
    try:
        return SuperPolynomial.const(n, m, scalar_from_str(tok))
    except ValueError as exc:
        raise ParseError(f"bad factor {tok!r}") from exc


def _split_terms(text: str) -> list[str]:
    """The signed terms of a sum; a sign right after ``^`` is the exponent's."""
    terms = []
    current = ""
    for ch in text:
        if ch in "+-" and current.strip() and not current.rstrip().endswith("^"):
            terms.append(current)
            current = ch if ch == "-" else ""
        elif ch == "-" and not current.strip():
            current = "-"
        elif ch != "+":
            current += ch
    if current.strip():
        terms.append(current)
    return terms


def _read_terms(text: str, n: int, m: int, field: bool = False):
    """Each term of a sum as (coefficient, derivation): its sign taken
    off and its factors multiplied.  A field term's last factor is its
    derivation, returned as written (dxi or dtj); a polynomial's is None."""
    for term_text in _split_terms(text):
        term_text = term_text.strip()
        neg = term_text.startswith("-")
        if neg:
            term_text = term_text[1:].strip()
        toks = term_text.split("*")
        name = toks.pop().strip() if field else None
        if field and not name.startswith(("dx", "dt")):
            raise ParseError(f"field term {term_text!r} must end in dxi or dtj")
        if not term_text:
            raise ParseError("empty term")
        coeff = SuperPolynomial.const(n, m, 1)
        for tok in toks:
            coeff = coeff * _parse_factor(tok, n, m)
        yield (coeff.scale(-1) if neg else coeff), name


def parse_poly(text: str, n: int, m: int) -> SuperPolynomial:
    """Parse "3*x1^2*t1 + 1/2*x2" (t_j odd, left-to-right products)."""
    return sum((coeff for coeff, _ in _read_terms(text, n, m)), SuperPolynomial.zero(n, m))


def parse_field(text: str, n: int, m: int) -> SuperVectorField:
    """Parse a field: each term ends in a dxi or dtj factor, e.g.
    "x1^2*dx1 + t1*dt2 - 1/2*dx2"."""
    slots = [SuperPolynomial.zero(n, m)] * (n + m)
    for coeff, name in _read_terms(text, n, m, field=True):
        try:
            idx = int(name[2:])
        except ValueError as exc:
            raise ParseError(f"bad derivative {name!r}") from exc
        even = name.startswith("dx")
        if not 1 <= idx <= (n if even else m):
            raise ParseError(f"{name[:2]} index out of range in {name!r}")
        k = idx - 1 if even else n + idx - 1
        slots[k] = slots[k] + coeff
    return SuperVectorField._make(n, m, slots)
