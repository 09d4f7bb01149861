"""Grassmann polynomials, super vector fields, and the W-O pair."""

import hashlib
import itertools
import json
import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isopairs.polyfields import (
    InhomogeneousInput,
    ParseError,
    SuperPolynomial,
    SuperVectorField,
    iso_bracket_fields,
    iso_bracket_fields_operator,
    iso_bracket_functions,
    iso_bracket_functions_operator,
    parse_field,
    parse_poly,
    random_field,
    random_poly,
    sample_check_w_o_pair,
    super_lie_bracket,
)
from isopairs.cli import main
from isopairs.exactlin import scalar_to_str
from isopairs.pairs import VerifyReport, _orient
from isopairs.rng import Lcg64
from isopairs.supercore import CATALOG, Letter, eval_sign_pairs, sign_a, template

F = Fraction
P = SuperPolynomial


def small_polys(n=1, m=2, maxdeg=2):
    monos = []
    for e in range(maxdeg + 1):
        for odd in ((), (1,), (2,), (1, 2)):
            if e + len(odd) <= maxdeg:
                monos.append(((e,), odd))
    coeff = st.integers(-2, 2)
    return st.lists(
        st.tuples(st.sampled_from(monos), coeff), min_size=0, max_size=3
    ).map(lambda items: P(n, m, {k: F(c) for k, c in items if c}))


def test_grassmann_square_is_zero():
    t1 = P.t(1, 2, 1)
    assert (t1 * t1).is_zero()


def test_koszul_swap():
    t1, t2 = P.t(1, 2, 1), P.t(1, 2, 2)
    assert t2 * t1 == (t1 * t2).scale(-1)


def test_product_expansion():
    x, t1 = P.x(1, 2, 1), P.t(1, 2, 1)
    assert (x + t1) * (x - t1) == x * x


@given(small_polys(), small_polys(), small_polys())
@settings(max_examples=50)
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)


@given(small_polys(), small_polys())
@settings(max_examples=50)
def test_supercommutativity(a, b):
    # split into homogeneous parts and apply the Koszul rule
    def parts(p):
        ev = P(p.n, p.m, {k: v for k, v in p.terms.items() if len(k[1]) % 2 == 0})
        od = P(p.n, p.m, {k: v for k, v in p.terms.items() if len(k[1]) % 2 == 1})
        return ((ev, 0), (od, 1))

    for pa, qa in parts(a):
        for pb, qb in parts(b):
            sign = -1 if qa * qb % 2 else 1
            assert pa * pb == (pb * pa).scale(sign)


def test_derivatives():
    x = P.x(1, 2, 1)
    ddx = SuperVectorField.d_dx(1, 2, 1)
    assert ddx.apply(x * x) == x.scale(2)
    t1, t2 = P.t(1, 2, 1), P.t(1, 2, 2)
    ddt1 = SuperVectorField.d_dt(1, 2, 1)
    assert ddt1.apply(t1 * t2) == t2  # left derivative
    ddt2 = SuperVectorField.d_dt(1, 2, 2)
    assert ddt2.apply(t1 * t2) == t1.scale(-1)
    euler = SuperVectorField.d_dx(1, 2, 1, x)
    assert euler.apply(x * x * x) == (x * x * x).scale(3)


@given(small_polys(), small_polys())
@settings(max_examples=40)
def test_field_application_is_derivation(f, g):
    x = P.x(1, 2, 1)
    X = SuperVectorField.d_dx(1, 2, 1, x)  # even field
    assert X.apply(f * g) == X.apply(f) * g + f * X.apply(g)


def test_odd_field_graded_leibniz():
    rng = Lcg64(5)
    for _ in range(20):
        X = random_field(1, 2, 2, 1, rng)
        pf = rng.below(2)
        f = random_poly(1, 2, 2, pf, rng)
        g = random_poly(1, 2, 2, rng.below(2), rng)
        sign = -1 if pf else 1
        assert X.apply(f * g) == X.apply(f) * g + (f * X.apply(g)).scale(sign)


def test_iso_bracket_fields_unit_function():
    one = P.const(1, 1, 1)
    x = P.x(1, 1, 1)
    X = SuperVectorField.d_dx(1, 1, 1)
    Y = SuperVectorField.d_dx(1, 1, 1, x)
    assert iso_bracket_fields(X, Y, one) == super_lie_bracket(X, Y)


def test_iso_bracket_fields_antisymmetry_even():
    x = P.x(1, 1, 1)
    Y = SuperVectorField.d_dx(1, 1, 1, x * x)
    assert iso_bracket_fields(Y, Y, x).is_zero()


def test_iso_bracket_fields_operator_oracle():
    rng = Lcg64(9)
    for _ in range(15):
        X = random_field(1, 1, 2, rng.below(2), rng)
        Y = random_field(1, 1, 2, rng.below(2), rng)
        f = random_poly(1, 1, 2, rng.below(2), rng)
        closed = iso_bracket_fields(X, Y, f)
        op = iso_bracket_fields_operator(X, Y, f)
        for probe in (P.x(1, 1, 1), P.t(1, 1, 1), P.x(1, 1, 1) * P.t(1, 1, 1)):
            assert op(probe) == closed.apply(probe)
        assert op(P.const(1, 1, 1)) == closed.apply(P.const(1, 1, 1))


def test_iso_bracket_result_is_derivation():
    rng = Lcg64(13)
    for _ in range(20):
        X = random_field(1, 1, 2, rng.below(2), rng)
        Y = random_field(1, 1, 2, rng.below(2), rng)
        f = random_poly(1, 1, 2, rng.below(2), rng)
        Z = iso_bracket_fields(X, Y, f)
        pz = Z.parity
        if pz is None:
            continue
        pg = rng.below(2)
        g = random_poly(1, 1, 2, pg, rng)
        h = random_poly(1, 1, 2, rng.below(2), rng)
        sign = -1 if pz * pg % 2 else 1
        assert Z.apply(g * h) == Z.apply(g) * h + (g * Z.apply(h)).scale(sign)


def test_iso_bracket_functions_examples():
    x = P.x(1, 2, 1)
    one = P.const(1, 2, 1)
    ddx = SuperVectorField.d_dx(1, 2, 1)
    assert iso_bracket_functions(x, x, ddx).is_zero()
    assert iso_bracket_functions(x, one, ddx) == P.const(1, 2, -1)
    t1, t2 = P.t(1, 2, 1), P.t(1, 2, 2)
    ddt1 = SuperVectorField.d_dt(1, 2, 1)
    # f X(g) - A g X(f) with all-odd letters: A = -1, X(t2) = 0, X(t1) = 1
    assert iso_bracket_functions(t1, t2, ddt1) == t2


def test_inhomogeneous_inputs_rejected():
    x = P.x(1, 1, 1)
    t = P.t(1, 1, 1)
    mixed = x + t
    ddx = SuperVectorField.d_dx(1, 1, 1)
    with pytest.raises(InhomogeneousInput):
        iso_bracket_functions(mixed, x, ddx)


def _field_parity(X):
    """The field parity rule, recomputed from the coefficients' terms."""
    ps = set()
    for slot, coeffs in ((0, X.even_coeffs), (1, X.odd_coeffs)):
        for p in coeffs:
            ps |= {(len(odd) + slot) % 2 for _, odd in p.terms}
    return ps.pop() if len(ps) == 1 else (None if ps else 0)


def test_cached_parity_matches_the_coefficient_rule():
    x, t = P.x(1, 1, 1), P.t(1, 1, 1)
    fields = [SuperVectorField.zero(1, 1), SuperVectorField.d_dx(1, 1, 1, x),
              SuperVectorField.d_dt(1, 1, 1, x), SuperVectorField.d_dt(1, 1, 1, x + t),
              SuperVectorField.d_dx(1, 1, 1, t) + SuperVectorField.d_dt(1, 1, 1, x),
              SuperVectorField.d_dx(1, 1, 1, x) + SuperVectorField.d_dt(1, 1, 1, x)]
    for X in fields:
        assert X.parity == _field_parity(X) == X.parity  # the second read is cached
    assert [X.parity for X in fields] == [0, 0, 1, None, 1, None]
    assert (x + t).parity is None and (x * t).parity == 1 and P.zero(1, 1).parity == 0
    with pytest.raises(InhomogeneousInput, match="inhomogeneous input SuperVectorField"):
        iso_bracket_fields(fields[5], fields[1], x)


@pytest.mark.parametrize("n, m, maxdeg", [(1, 1, 3), (2, 2, 3), (0, 3, 2), (2, 0, 2)])
def test_random_poly_draws_from_the_ordered_monomials(n, m, maxdeg):
    for parity in (0, 1):
        # the list random_poly drew from when it built the list per draw
        monos = [(exps, odd) for exps in itertools.product(*(range(maxdeg + 1) for _ in range(n)))
                 for k in range(m + 1) for odd in itertools.combinations(range(1, m + 1), k)
                 if sum(exps) + k <= maxdeg and k % 2 == parity]
        a, b = Lcg64(5), Lcg64(5)
        for _ in range(20):
            if not monos:
                break
            p = random_poly(n, m, maxdeg, parity, a)
            want = {}
            while not want:
                for _ in range(1 + b.below(2)):
                    c = b.choice((-2, -1, 1, 2))
                    key = b.choice(monos)
                    want[key] = want.get(key, 0) + c
                want = {k: c for k, c in want.items() if c}
            assert p.terms == want and a.state == b.state


@pytest.mark.parametrize("n, m", [(1, 1), (2, 2), (0, 3), (2, 0)])
def test_random_field_adds_its_draws_slot_by_slot(n, m):
    for parity in (0, 1) if m else (0,):
        a, b = Lcg64(9), Lcg64(9)
        for _ in range(20):
            X = random_field(n, m, 2, parity, a)
            while True:  # the field random_field built with + per draw
                even, odd = [P.zero(n, m)] * n, [P.zero(n, m)] * m
                for _ in range(1 + b.below(2)):
                    slot = b.below(n + m)
                    if slot < n:
                        even[slot] = even[slot] + random_poly(n, m, 2, parity, b)
                    else:
                        odd[slot - n] = odd[slot - n] + random_poly(n, m, 2, 1 - parity, b)
                want = SuperVectorField(n, m, even, odd)
                if not want.is_zero() and want.parity == parity:
                    break
            assert X == want and X.parity == parity and a.state == b.state


def test_degree_bound():
    rng = Lcg64(17)
    for _ in range(20):
        X = random_field(1, 1, 3, rng.below(2), rng)
        Y = random_field(1, 1, 3, rng.below(2), rng)
        f = random_poly(1, 1, 3, rng.below(2), rng)
        assert iso_bracket_fields(X, Y, f).degree() <= X.degree() + Y.degree() + f.degree()


def test_sample_check_small():
    rep = sample_check_w_o_pair(1, 0, maxdeg=2, trials=15, seed=3)
    assert rep.passed
    rep = sample_check_w_o_pair(1, 1, maxdeg=2, trials=15, seed=3)
    assert rep.passed


@pytest.mark.parametrize("n, digest", [
    (1, "2cf9b0a35fdb2e825cea80b9e29ff468e414ca21f90a166bc8e1067c9e62b3e5"),
    (2, "d27c867d1b811b5a82d4773c2e756fc092531c9b2b7bb7151bcdb540f0652c10"),
], ids=["W(1|2)", "W(2|2)"])
def test_sample_check_two_odd_variables_keeps_its_report(n, digest):
    # W(n|2) products merge odd blocks with both Koszul signs; the bench
    # digests and criterion 12 sample W(1|1), whose one odd variable
    # never reorders
    report = sample_check_w_o_pair(n, 2, maxdeg=3, trials=50, seed=7)
    text = json.dumps(report.to_json(), sort_keys=True, separators=(",", ":"))
    assert report.passed and hashlib.sha256(text.encode()).hexdigest() == digest


def test_sample_check_zero_trials_vacuous():
    rep = sample_check_w_o_pair(1, 1, maxdeg=2, trials=0, seed=1)
    assert rep.passed and all(r.total == 0 for r in rep.reports)


def test_parse_poly():
    p = parse_poly("3*x1^2*t1 + 1/2*x2", 2, 1)
    x1, x2, t1 = P.x(2, 1, 1), P.x(2, 1, 2), P.t(2, 1, 1)
    assert p == (x1 * x1 * t1).scale(3) + x2.scale(F(1, 2))
    assert parse_poly("-x1 + x1", 1, 0).is_zero()
    assert parse_poly("t1*t1", 0, 1).is_zero()
    with pytest.raises(ParseError):
        parse_poly("x3", 2, 0)
    with pytest.raises(ParseError):
        parse_poly("3*&", 1, 0)


def test_parse_field():
    f = parse_field("x1^2*dx1 + t1*dt1 - 1/2*dx1", 1, 1)
    x, t = P.x(1, 1, 1), P.t(1, 1, 1)
    want = SuperVectorField.d_dx(1, 1, 1, x * x - P.const(1, 1, F(1, 2)))
    want = want + SuperVectorField.d_dt(1, 1, 1, t)
    assert f == want
    with pytest.raises(ParseError):
        parse_field("x1*x2", 2, 0)  # no derivative factor


def test_parse_keeps_a_sign_after_caret_in_its_exponent():
    x1 = P.x(1, 1, 1)
    assert parse_poly("x1^+2 - x1", 1, 1) == x1 * x1 - x1
    assert parse_poly("x1^2-x1^+1", 1, 1) == x1 * x1 - x1
    assert parse_field("x1^+2*dx1", 1, 1) == SuperVectorField.d_dx(1, 1, 1, x1 * x1)


@pytest.mark.parametrize("text, factor", [
    ("x1^-1", "x1^-1"), ("t1^-1", "t1^-1"), ("2*x1^-2*t1", "x1^-2"), ("2*t1^ -1", "t1^ -1"),
])
def test_parse_rejects_a_negative_exponent_naming_its_factor(text, factor):
    # before anything is built: SuperPolynomial would raise a plain
    # ValueError for x, and t1^-1 would read as 1
    message = f"^negative exponent in '{re.escape(factor)}'$"
    with pytest.raises(ParseError, match=message):
        parse_poly(text, 1, 1)
    with pytest.raises(ParseError, match=message):
        parse_field(text + "*dx1", 1, 1)


def test_parse_huge_exponent_at_once():
    # the monomial is built directly, not by 10^8 multiplications
    assert parse_poly("x1^100000000*x2", 2, 1) == P(2, 1, {((100000000, 1), ()): 1})
    assert parse_poly("3*t1^0 + x2^0", 2, 1) == P.const(2, 1, 4)
    assert parse_poly("t1^100000000", 2, 1).is_zero() and parse_poly("t1^1", 2, 1) == P.t(2, 1, 1)
    field = parse_field("x1^100000000*dx1", 1, 0)
    assert field.apply(P.x(1, 0, 1)) == P(1, 0, {((100000000,), ()): 1})


def test_parse_round_trip_through_pretty():
    p = parse_poly("2*x1*t1 - 1/3*t2", 1, 2)
    assert parse_poly(p.pretty(), 1, 2) == p


# -- arithmetic results against the validating constructor -------------------


def _koszul(oa, ob):
    """Sign of sorting the odd block oa + ob by adjacent swaps; 0 on a
    repeated odd variable."""
    seq = list(oa + ob)
    if len(set(seq)) < len(seq):
        return 0
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    return sign


@st.composite
def poly_cases(draw):
    n, m = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (0, 3)]))
    monos = [
        (exps, odd)
        for exps in itertools.product(range(3), repeat=n)
        for k in range(m + 1)
        for odd in itertools.combinations(range(1, m + 1), k)
    ]
    # halves against twos make products, sums and scalings of
    # non-integral coefficients land on integers; 2^63 + 1 and -2^64
    # lie outside int64
    coeffs = st.sampled_from(
        [F(-2), F(-1), F(-1, 2), F(1, 2), F(1, 3), F(1), F(2), 2**63 + 1, -(2**64)]
    )
    terms = st.dictionaries(st.sampled_from(monos), coeffs, max_size=4)
    a, b = draw(terms), draw(terms)
    if draw(st.booleans()):  # b cancels a, or tops it up to 1, on some monomials
        b.update({k: draw(st.sampled_from([-c, 1 - c])) for k, c in a.items()
                  if draw(st.booleans())})
    c = draw(st.sampled_from([F(0), F(1), F(-1), F(3, 2), -3, F(-1, 2), 2, 2**64]))
    return n, m, P(n, m, a), P(n, m, b), c


def _oracle(n, m, contributions):
    acc = {}
    for k, c in contributions:
        acc[k] = acc.get(k, 0) + c
    return P(n, m, acc)


def _mul_terms(a, b, c=1):
    """The contributions of c * a * b, signed by _koszul."""
    return [
        ((tuple(x + y for x, y in zip(ea, eb)), tuple(sorted(oa + ob))),
         c * _koszul(oa, ob) * ca * cb)
        for (ea, oa), ca in a.terms.items() for (eb, ob), cb in b.terms.items()
    ]


def _d_even_terms(a, i):
    return [((e[: i - 1] + (e[i - 1] - 1,) + e[i:], o), e[i - 1] * v)
            for (e, o), v in a.terms.items() if e[i - 1]]


def _d_odd_terms(a, j):
    return [((e, tuple(t for t in o if t != j)), (-1) ** o.index(j) * v)
            for (e, o), v in a.terms.items() if j in o]


def _results_and_oracles(n, m, a, b, c):
    A, B = list(a.terms.items()), list(b.terms.items())
    yield a + b, _oracle(n, m, A + B)
    yield a - b, _oracle(n, m, A + [(k, -v) for k, v in B])
    yield a.scale(c), _oracle(n, m, [(k, c * v) for k, v in A])
    yield a * b, _oracle(n, m, _mul_terms(a, b))
    for i in range(1, n + 1):
        yield a.d_even(i), _oracle(n, m, _d_even_terms(a, i))
    for j in range(1, m + 1):
        yield a.d_odd(j), _oracle(n, m, _d_odd_terms(a, j))


def _assert_canonical(r, n, m):
    assert SuperPolynomial(n, m, r.terms) == r
    for (exps, odd), v in r.terms.items():
        assert type(v) is int or (type(v) is Fraction and v.denominator > 1)
        assert v != 0
        assert type(exps) is tuple and len(exps) == n
        assert all(type(e) is int and e >= 0 for e in exps)
        assert type(odd) is tuple and list(odd) == sorted(set(odd))
        assert all(1 <= j <= m for j in odd)


@given(poly_cases())
@settings(max_examples=150)
def test_results_match_validating_constructor(case):
    n, m, a, b, c = case
    for r, expected in _results_and_oracles(n, m, a, b, c):
        assert r == expected
        _assert_canonical(r, n, m)


# -- the fused kernel against the unfused formulas -----------------------------
#
# Each operation by its defining formula, one step at a time: every
# product, derivative and application is a polynomial of its own, built
# by the validating constructor with _koszul signs, and every sum of
# them is taken separately.


def _o_apply(X, f):
    """X(f) = sum over slots of coefficient * derivative of f."""
    out = []
    for i, p in enumerate(X.even_coeffs, start=1):
        out += _mul_terms(p, _oracle(X.n, X.m, _d_even_terms(f, i)))
    for j, p in enumerate(X.odd_coeffs, start=1):
        out += _mul_terms(p, _oracle(X.n, X.m, _d_odd_terms(f, j)))
    return _oracle(X.n, X.m, out)


def _poly_parity(p):
    ps = {len(odd) % 2 for _, odd in p.terms}
    return ps.pop() if len(ps) == 1 else (None if ps else 0)


def _o_field(n, m, slot, *args):
    return SuperVectorField(n, m, list(map(slot, *(X.even_coeffs for X in args))),
                            list(map(slot, *(X.odd_coeffs for X in args))))


def _o_lie(X, Y):
    sign = (-1) ** (_field_parity(X) * _field_parity(Y))

    def slot(x, y):  # X(y) - sign Y(x)
        return _oracle(X.n, X.m, list(_o_apply(X, y).terms.items())
                       + [(k, -sign * v) for k, v in _o_apply(Y, x).terms.items()])

    return _o_field(X.n, X.m, slot, X, Y)


def _o_iso_fields(X, Y, f):
    px, py, pf = _field_parity(X), _field_parity(Y), _poly_parity(f)
    a, s = sign_a(px, pf, py), (-1) ** (px * pf)
    xf, yf = _o_apply(X, f), _o_apply(Y, f)

    def slot(x, y, z):  # X(f) y - a Y(f) x + s f z
        return _oracle(X.n, X.m, _mul_terms(xf, y) + _mul_terms(yf, x, -a) + _mul_terms(f, z, s))

    return _o_field(X.n, X.m, slot, X, Y, _o_lie(X, Y))


def _o_iso_functions(f, g, X):
    a = sign_a(_poly_parity(f), _field_parity(X), _poly_parity(g))
    return _oracle(f.n, f.m, _mul_terms(f, _o_apply(X, g)) + _mul_terms(g, _o_apply(X, f), -a))


def _o_fields_operator(X, Y, f, h):
    """X M_f Y - A Y M_f X applied to h."""
    a = sign_a(_field_parity(X), _poly_parity(f), _field_parity(Y))
    fyh = _oracle(f.n, f.m, _mul_terms(f, _o_apply(Y, h)))
    fxh = _oracle(f.n, f.m, _mul_terms(f, _o_apply(X, h)))
    return _oracle(f.n, f.m, list(_o_apply(X, fyh).terms.items())
                   + [(k, -a * v) for k, v in _o_apply(Y, fxh).terms.items()])


def _o_functions_operator(f, g, X, h):
    """M_f X M_g - A M_g X M_f applied to h."""
    a = sign_a(_poly_parity(f), _field_parity(X), _poly_parity(g))
    gh, fh = _oracle(f.n, f.m, _mul_terms(g, h)), _oracle(f.n, f.m, _mul_terms(f, h))
    return _oracle(f.n, f.m, _mul_terms(f, _o_apply(X, gh)) + _mul_terms(g, _o_apply(X, fh), -a))


def _parity_part(p, q):
    return P(p.n, p.m, {k: v for k, v in p.terms.items() if len(k[1]) % 2 == q})


def _field_from(p, q, slots):
    """A field of parity q (or zero) with p's matching parity part in
    the chosen slots."""
    n, m = p.n, p.m
    even = [_parity_part(p, q) if k in slots else P.zero(n, m) for k in range(n)]
    odd = [_parity_part(p, 1 - q) if n + j in slots else P.zero(n, m) for j in range(m)]
    return SuperVectorField(n, m, even, odd)


@given(poly_cases(), st.tuples(*[st.integers(0, 1)] * 4),
       st.sets(st.integers(0, 3)), st.sets(st.integers(0, 3)))
@settings(max_examples=150, deadline=None)
def test_fused_kernel_matches_unfused_formulas(case, parities, xslots, yslots):
    n, m, a, b, _ = case
    qx, qy, qf, qg = parities
    X, Y = _field_from(a, qx, xslots), _field_from(b, qy, yslots)
    f, g = _parity_part(b, qf), _parity_part(a, qg)
    one = P.const(n, m, 1)
    pairs = [(a * b, _oracle(n, m, _mul_terms(a, b))), (X.apply(f), _o_apply(X, f)),
             (Y.apply(a), _o_apply(Y, a)), (iso_bracket_functions(f, g, X), _o_iso_functions(f, g, X))]
    fields = [(super_lie_bracket(X, Y), _o_lie(X, Y)), (iso_bracket_fields(X, Y, f), _o_iso_fields(X, Y, f))]
    op, op2 = iso_bracket_fields_operator(X, Y, f), iso_bracket_functions_operator(f, g, X)
    pairs += [(op(h), _o_fields_operator(X, Y, f, h)) for h in (g, one)]
    pairs += [(op2(h), _o_functions_operator(f, g, X, h)) for h in (b, one)]
    for got, want in fields:
        assert got == want
        pairs += list(zip(got.even_coeffs + got.odd_coeffs, want.even_coeffs + want.odd_coeffs))
    for got, want in pairs:
        assert got == want
        _assert_canonical(got, n, m)


def _o_sum(n, m, scaled):
    """sum of c * value over (c, value), polynomials or fields."""
    if all(isinstance(v, P) for _, v in scaled):
        return _oracle(n, m, [(k, c * x) for c, v in scaled for k, x in v.terms.items()])
    return _o_field(n, m, lambda *slot: _o_sum(n, m, list(zip((c for c, _ in scaled), slot))),
                    *(v for _, v in scaled))


def _o_eval(expr, env):
    if isinstance(expr, Letter):
        return env[expr.name]
    left, right, iso = (_o_eval(e, env) for e in (expr.left, expr.right, expr.iso))
    if isinstance(left, SuperVectorField):
        return _o_iso_fields(left, right, iso)
    return _o_iso_functions(left, right, iso)


def _replayed_residuals(n, m, maxdeg, trials, seed):
    """The identity trials of sample_check_w_o_pair, drawn in its order
    and evaluated by the unfused formulas: (identity, orientation,
    trial) -> residual."""
    rng, out = Lcg64(seed), {}
    for name in ("jacobi_analog", "compatibility"):
        ident = CATALOG[name]
        for orientation in (1, 2):
            sides = _orient(ident.sides, orientation)
            for trial in range(trials):
                env, parities = {}, {}
                for letter in ident.letters:
                    par = rng.below(2) if m else 0
                    draw = random_field if sides[letter] == 1 else random_poly
                    env[letter], parities[letter] = draw(n, m, maxdeg, par, rng), par
                out[f"wo({n}|{m}).{name}", orientation, trial] = _o_sum(n, m, [
                    (t.coeff * eval_sign_pairs(t.sign_pairs, parities), _o_eval(t.expr, env))
                    for t in ident.residual_terms()])
    return out


def _drop_last_compatibility_term(monkeypatch):
    ident = CATALOG["compatibility"]
    monkeypatch.setitem(CATALOG, "compatibility",
                        replace(ident, rhs=template(*ident.rhs.terms[:-1])))


@pytest.mark.parametrize("n, m", [(1, 1), (1, 2)])
def test_failing_sample_check_reports_exact_residuals(monkeypatch, n, m):
    _drop_last_compatibility_term(monkeypatch)
    report = sample_check_w_o_pair(n, m, maxdeg=2, trials=6, seed=4)
    assert not report.passed
    text = json.dumps(report.to_json(), sort_keys=True)
    assert VerifyReport.from_json(json.loads(text)).to_json() == report.to_json()
    want = _replayed_residuals(n, m, 2, 6, 4)
    kinds = set()
    for r in report.reports[:4]:
        failing = [t for t in range(6) if not want[r.identity, r.orientation, t].is_zero()]
        assert r.failure_count == len(failing) and r.identity.endswith(("jacobi_analog", "compatibility"))
        assert [f.where["trial"] for f in r.failures] == failing
        for f in r.failures:
            value = want[r.identity, r.orientation, f.where["trial"]]
            # the labels are monomials: the residual parses back to the value
            text = " + ".join(f"{scalar_to_str(c)}*{label}" for label, c in f.residual.items())
            parse = parse_poly if isinstance(value, P) else parse_field
            assert parse(text, n, m) == value
            kinds.add(type(value))
    assert kinds == {P, SuperVectorField}  # both orientations fail


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_failing_poly_check_exits_1(monkeypatch, capsys, json_flag):
    _drop_last_compatibility_term(monkeypatch)
    assert main(["poly-check", "--n", "1", "--m", "1", "--trials", "5", *json_flag]) == 1
    out = capsys.readouterr().out
    if json_flag:
        assert json.loads(out)["passed"] is False
    else:
        assert "compatibility orientation 1: FAIL" in out and "verdict: FAIL" in out


@pytest.mark.parametrize(
    "terms",
    [{((0, 0), ()): 1}, {((0,), (2,)): 1}, {((0,), (0,)): 1}, {((0,), (1, 1)): 1},
     {((-1,), ()): 1}, {((1.5,), ()): 1}, {((0,), (1.0,)): 1}],
)
def test_constructor_rejects_malformed_monomials(terms):
    with pytest.raises(ValueError, match="malformed monomial"):
        P(1, 1, terms)


def test_constructor_signs_unsorted_odd_blocks():
    t = [P.t(1, 3, j) for j in (1, 2, 3)]
    assert P(1, 3, {((0,), (2, 1)): 1}) == t[1] * t[0] == -(t[0] * t[1])
    # (3, 1, 2) is an even permutation of (1, 2, 3), (3, 2, 1) an odd one
    assert P(1, 3, {((0,), (3, 1, 2)): 2}) == (t[0] * t[1] * t[2]).scale(2)
    assert P(1, 3, {((0,), (3, 2, 1)): 1}) == t[2] * t[1] * t[0] == -(t[0] * t[1] * t[2])
    # the two orders of one monomial cancel
    assert P(1, 3, {((1,), (1, 3)): 1, ((1,), (3, 1)): 1}) == P.zero(1, 3)
