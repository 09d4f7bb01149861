"""Pair structures and exhaustive checkers."""

import dataclasses
import gc
import itertools
import json
import math
import random
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from isopairs import pairs as P
from isopairs.constructions import (
    random_even_perturbation,
    series_gl,
    series_osp,
    series_q,
)
from isopairs.exactlin import Matrix, invert
from isopairs.rng import Lcg64
from isopairs.supercore import CATALOG, EQUIVARIANCE, Act, SuperSpace, sign_a

from dense_oracle import apply, col
from identity_oracle import residual_on_vectors

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import inputs as bench_inputs  # noqa: E402

F = Fraction

# the evaluator's forms: the int64 join, float64 dense and multimodular
JOIN, FLOAT, MODULAR = ("join", np.int64), ("dense", np.float64), ("multimodular", np.float64)


def unit(k, d):
    return tuple(F(int(i == k)) for i in range(d))


def zero_pair(kind="isotopic"):
    v = SuperSpace.make(["a", "b"], [0, 1])
    return P.PairStructure(v, v, kind, {}, {})


def test_bracket_zero_inputs():
    p = series_gl(1, 1).pair
    z = (F(0),) * 4
    assert p.bracket(1, z, z, z) == z


def test_bracket_gl10_commutative():
    p = series_gl(1, 0).pair
    one = (F(1),)
    assert p.bracket(1, one, one, one) == (F(0),)


def test_bracket_gl20_example():
    ep = series_gl(2, 0)
    lab = list(ep.pair.v1.labels)
    e12, e11, e21 = lab.index("E0,1"), lab.index("E0,0"), lab.index("E1,0")
    out = ep.pair.bracket(1, unit(e21, 4), unit(e12, 4), unit(e11, 4))
    assert out == unit(e11, 4)


def test_bracket_space_mismatch():
    p = series_gl(1, 1).pair
    with pytest.raises(P.SpaceMismatch):
        p.bracket(1, (F(1),), (F(0),) * 4, (F(0),) * 4)
    with pytest.raises(P.SpaceMismatch):
        p.bracket(3, (F(0),) * 4, (F(0),) * 4, (F(0),) * 4)


def test_check_symmetry_envelope_and_zero():
    assert all(r.passed for r in P.check_symmetry(series_gl(1, 1).pair))
    assert all(r.passed for r in P.check_symmetry(zero_pair()))


def test_check_symmetry_constructed_violation():
    v = SuperSpace.make(["a", "b"], [0, 0])
    m1 = {(0, 0, 1): {0: F(1)}}  # m1(u, a, b) = a but m1(u, b, a) = 0
    p = P.PairStructure(v, v, "isotopic", m1, {})
    reports = P.check_symmetry(p)
    bad = [r for r in reports if not r.passed]
    assert bad and bad[0].failure_count == 2
    assert bad[0].failures[0].residual  # residual vector present


def test_jacobi_envelope_pass_and_zero():
    rs = P._check(series_gl(1, 1).pair, ["jacobi_analog"], P.FAILURE_CAP)
    assert all(r.passed for r in rs)
    assert rs[0].total == 4**5
    assert all(r.passed for r in P._check(zero_pair(), ["jacobi_analog"], P.FAILURE_CAP))


def test_jacobi_random_tensor_fails():
    rng = Lcg64(7)
    pert = random_even_perturbation(series_gl(1, 1).pair, rng)
    assert not P.verify(pert).passed


def test_compatibility_envelope_pass():
    assert all(r.passed for r in P._check(series_q(1).pair, ["compatibility"], P.FAILURE_CAP))


def test_super_jordan_plus_envelope():
    from isopairs.constructions import SuperMatrixSpace, envelope_pair

    space = SuperMatrixSpace(1, 1)
    units = [space.unit(i, j) for i in range(2) for j in range(2)]
    ep = envelope_pair(space, units, units, "superJordan")
    assert all(r.passed for r in P.check_super_jordan(ep.pair))
    # the same plus-model tensors fail the checks for the wrong kind
    wrong = P.PairStructure(ep.pair.v1, ep.pair.v2, "isotopic", ep.pair.m1, ep.pair.m2)
    assert not all(r.passed for r in P.check_symmetry(wrong))


def test_parity_flip_involution_and_kinds():
    p = series_gl(1, 1).pair
    f = p.parity_flip()
    assert f.kind == "superJordan"
    assert f.v1.parities == tuple(1 - b for b in p.v1.parities)
    ff = f.parity_flip()
    assert ff.kind == p.kind
    assert ff.v1 == p.v1 and ff.m1 == p.m1 and ff.m2 == p.m2


def test_parity_flip_satisfies_super_jordan():
    f = series_gl(2, 1).pair.parity_flip()
    assert all(r.passed for r in P.check_super_jordan(f))


def test_parity_flip_full_verify():
    assert P.verify(series_gl(1, 1).pair.parity_flip()).passed


def test_verify_aggregate_and_named_failure():
    rep = P.verify(series_gl(1, 1).pair)
    assert rep.passed
    names = {r.identity for r in rep.reports}
    assert "jacobi_analog" in names and "compatibility" in names
    rng = Lcg64(11)
    bad = P.verify(random_even_perturbation(series_gl(1, 1).pair, rng))
    assert not bad.passed
    assert bad.failing()[0].identity in names


def test_verify_empty_spaces_vacuous():
    v0 = SuperSpace.make([], [])
    p = P.PairStructure(v0, v0, "isotopic", {}, {})
    rep = P.verify(p)
    assert rep.passed and all(r.total == 0 for r in rep.reports)


def _oracle_report(pair, ident, orientation):
    """The evaluator's report, rebuilt tuple by tuple with the Fraction
    reference: the failure count and the first failures in tuple order."""
    sides = P._orient(ident.sides, orientation)
    letters = sorted(sides, key="XYZUV".index)
    spaces = [pair.space(sides[l]) for l in letters]
    count, failures = 0, []
    for combo in itertools.product(*(range(s.dim) for s in spaces)):
        vectors = {l: unit(i, s.dim) for l, i, s in zip(letters, combo, spaces)}
        parities = {l: s.parities[i] for l, i, s in zip(letters, combo, spaces)}
        residual = residual_on_vectors(pair, ident, orientation, vectors, parities)
        if residual:
            count += 1
            if len(failures) < P.FAILURE_CAP:
                failures.append(P.Failure(dict(zip(letters, combo)), residual))
    total = math.prod(s.dim for s in spaces)
    return P.AxiomReport(
        ident.name, orientation, total, count, failures, P._adopted_form_id(ident)
    )


def _scaled(pair, scale):
    def tensor(t):
        return {k: {o: c * scale for o, c in v.items()} for k, v in t.items()}

    return P.PairStructure(pair.v1, pair.v2, pair.kind, tensor(pair.m1), tensor(pair.m2))


def test_fast_and_exact_paths_agree():
    for pair in (series_gl(1, 1).pair, series_q(1).pair):
        for name in ("jacobi_analog", "compatibility"):
            for orientation in (1, 2):
                fast = P._eval_identity(pair, CATALOG[name], orientation)
                exact = _oracle_report(pair, CATALOG[name], orientation)
                assert fast.to_json() == exact.to_json()
    rng = Lcg64(23)
    pert = random_even_perturbation(series_gl(1, 1).pair, rng)
    fast = P._eval_identity(pert, CATALOG["jacobi_analog"], 1)
    exact = _oracle_report(pert, CATALOG["jacobi_analog"], 1)
    assert fast.to_json() == exact.to_json()


def test_fractional_constants_scale_exactly():
    # scaling a valid pair by 1/3 keeps every identity (they are
    # homogeneous in m) and exercises the integer scaling
    scaled = _scaled(series_gl(1, 1).pair, F(1, 3))
    assert P.verify(scaled).passed
    for name in ("jacobi_analog", "compatibility"):
        fast = P._eval_identity(scaled, CATALOG[name], 1)
        exact = _oracle_report(scaled, CATALOG[name], 1)
        assert fast.to_json() == exact.to_json()
    rng = Lcg64(61)
    pert = random_even_perturbation(scaled, rng)
    fast = P._eval_identity(pert, CATALOG["jacobi_analog"], 1)
    exact = _oracle_report(pert, CATALOG["jacobi_analog"], 1)
    assert fast.to_json() == exact.to_json()
    assert not fast.passed


def _change_basis(pair, entry):
    """The pair in the basis f_k = sum_i entry(i, k) e_i, over the e_i of
    e_k's parity, which preserves parity; ``entry`` must make the change
    invertible."""
    def change(space):
        par = space.parities
        p = Matrix(space.dim, space.dim, [
            (i, k, F(entry(i, k))) for k in range(space.dim) for i in range(space.dim)
            if par[i] == par[k] and entry(i, k)])
        return p, invert(p)

    def tensor(side, p_iso, p_own, q_own):
        out = {}
        for u, x, y in itertools.product(range(p_iso.cols), range(p_own.cols), range(p_own.cols)):
            v = apply(q_own, pair.bracket(side, col(p_iso, u), col(p_own, x), col(p_own, y)))
            if any(v):
                out[u, x, y] = {o: c for o, c in enumerate(v) if c}
        return out

    (p1, q1), (p2, q2) = change(pair.v1), change(pair.v2)
    return P.PairStructure(
        pair.v1, pair.v2, pair.kind, tensor(1, p2, p1, q1), tensor(2, p1, p2, q2))


def _dense_basis(pair):
    """The pair in the basis f_k = e_k + (the sum of the e_j of e_k's
    parity): the sparse catalog constants fill in, so the deep
    identities take the dense form."""
    return _change_basis(pair, lambda i, k: 1 + (i == k))


def _unimodular_basis(pair, n):
    """The pair in the basis f_k = e_k + n (the sum of the e_j, j < k, of
    e_k's parity): an integer change with an integer inverse, so the
    content stays what it was while the entries grow like n^3."""
    return _change_basis(pair, lambda i, k: (i == k) + n * (i < k))


def test_evaluator_matches_fraction_oracle():
    # every identity is homogeneous in m, so scaling keeps a valid pair
    # valid.  1/3 exercises the integer scaling, and an odd factor above
    # 2^31 the content that the evaluator divides out; the last case,
    # perturbed before scaling, has content 2^31 + 11, which enters its
    # residuals at the identity's degree.  A unimodular change of gl(1,1) keeps content 1 and takes
    # both deep identities past 2^62, into the multimodular form; once
    # perturbed it fails with residuals past its largest prime, so only
    # Chinese remaindering gives them back
    rng = Lcg64(23)
    gl11 = series_gl(1, 1).pair
    big = F(2**31 + 11)
    wide = _unimodular_basis(gl11, 2**10)
    valid = [gl11, series_q(1).pair, gl11.parity_flip()]
    valid += [_scaled(gl11, F(1, 3)), _scaled(gl11, big), wide, wide.parity_flip()]
    broken = [random_even_perturbation(p, rng) for p in valid]
    broken.append(_scaled(random_even_perturbation(gl11, rng), big))
    assert P._scale(valid[4])[0] == 1 / big == P._scale(broken[-1])[0]
    for pair in (wide, broken[5]):
        assert P._scale(pair)[0] == 1
        for name in ("jacobi_analog", "compatibility"):
            assert P._checked_bound(pair, CATALOG[name]) >= 2**62
            assert P._form(pair, CATALOG[name], 1) == MODULAR
    e = P._Evaluation(broken[5].tensors(), CATALOG["jacobi_analog"], 1)
    assert len(e.primes) > 1 and e.denom == 1
    failures = P._eval_identity(broken[5], CATALOG["jacobi_analog"], 1).failures
    assert max(abs(c) for f in failures for c in f.residual.values()) > max(e.primes)
    cases = [(p, True) for p in valid] + [(p, False) for p in broken]
    for k, (pair, passes) in enumerate(cases):
        if pair.kind == "isotopic":
            names = ("antisymmetry.isotopic", "jacobi_analog", "compatibility")
        else:
            names = ("symmetry.superJordan", "super_jordan")
        reports = []
        for name in names:
            for orientation in (1, 2):
                got = P._eval_identity(pair, CATALOG[name], orientation)
                want = _oracle_report(pair, CATALOG[name], orientation)
                assert got.to_json() == want.to_json(), (k, name, orientation)
                reports.append(got)
        assert all(r.passed for r in reports) == passes


FORMS = (JOIN, FLOAT, MODULAR)


def _form_residuals(pair, idents, orientation, form):
    """Every nonzero residual of identities evaluated in lockstep in one
    evaluator form, decoded from their keys: for each identity
    {basis tuple: {output index: Fraction}}."""
    t = pair.tensors()
    evals = [P._Evaluation(t, ident, orientation, form) for ident in idents]
    decode = {}
    for e, ident in zip(evals, idents):
        sides = P._orient(ident.sides, orientation)
        dims = [pair.space(sides[l]).dim for l in sorted(sides, key="XYZUV".index)]
        terms, coeff_scale, _, degree, _ = P._constants(ident)
        d_out = pair.space(P._value_side(terms[0].expr, sides)).dim
        denom = coeff_scale * P._scale(pair)[0] ** degree
        decode[e] = dims, d_out, denom, {}, []
    for e, keys, values in P._residuals(t, evals):
        dims, d_out, denom, out, seen = decode[e]
        seen += keys.tolist()
        for k, v in zip(keys.tolist(), values):
            where = tuple(int(i) for i in np.unravel_index(k // d_out, dims))
            out.setdefault(where, {})[k % d_out] = F(e.value(v), denom)
    # each identity's keys come distinct and in increasing order
    assert all(seen == sorted(set(seen)) for *_, seen in decode.values())
    return [out for *_, out, _ in decode.values()]


def _oracle_residual(pair, ident, orientation, where):
    sides = P._orient(ident.sides, orientation)
    letters = sorted(sides, key="XYZUV".index)
    spaces = [pair.space(sides[l]) for l in letters]
    vectors = {l: unit(i, s.dim) for l, i, s in zip(letters, where, spaces)}
    parities = {l: s.parities[i] for l, i, s in zip(letters, where, spaces)}
    return residual_on_vectors(pair, ident, orientation, vectors, parities)


_VALUES = st.sampled_from([F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 3)])


@st.composite
def sparse_pairs(draw):
    """Random sparse m1, m2 on spaces of dimension at most 3 with random
    parities.  Some rows get a mirror image (x and y swapped) of the
    opposite or the same sign, so that contributions cancel."""
    spaces = [
        SuperSpace.make(
            [f"e{i}" for i in range(d)], draw(st.lists(st.integers(0, 1), min_size=d, max_size=d))
        )
        for d in (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    ]

    def tensor(iso, arg):
        key = st.tuples(*(st.integers(0, s.dim - 1) for s in (iso, arg, arg)))
        comps = st.dictionaries(st.integers(0, arg.dim - 1), _VALUES, min_size=1, max_size=2)
        t = draw(st.dictionaries(key, comps, max_size=6))
        for (u, x, y), c in list(t.items()):
            if draw(st.booleans()):
                sign = draw(st.sampled_from((1, -1)))
                t.setdefault((u, y, x), {k: sign * v for k, v in c.items()})
        return t

    kind = draw(st.sampled_from(P.KINDS))
    v1, v2 = spaces
    return P.PairStructure(v1, v2, kind, tensor(v2, v1), tensor(v1, v2))


# a wrong evaluator fails most examples, and shrinking each distinct
# failure with the Fraction oracle in the loop takes minutes: report the
# first failure unshrunk
@given(sparse_pairs(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None, report_multiple_bugs=False,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
def test_both_forms_match_fraction_oracle_on_random_sparse_pairs(pair, rng):
    if pair.kind == "isotopic":
        names = ("antisymmetry.isotopic", "jacobi_analog", "compatibility")
    else:
        names = ("symmetry.superJordan", "super_jordan")
    # each form, forced on all of them at once, evaluates them in lockstep
    # as verify does: jacobi_analog and compatibility share their terms
    idents = [CATALOG[name] for name in names]
    for orientation in (1, 2):
        want = []
        for ident in idents:
            sides = P._orient(ident.sides, orientation)
            dims = [pair.space(sides[l]).dim for l in sorted(sides, key="XYZUV".index)]
            total = math.prod(dims)
            report = P._eval_identity(pair, ident, orientation, cap=total)
            got = {tuple(f.where.values()): f.residual for f in report.failures}
            assert report.failure_count == len(got)
            assert list(got) == sorted(got)
            for where, residual in got.items():
                assert residual == _oracle_residual(pair, ident, orientation, where)
            passing = [w for w in itertools.product(*map(range, dims)) if w not in got]
            for where in rng.sample(passing, min(len(passing), 8)):
                assert _oracle_residual(pair, ident, orientation, where) == {}
            want.append(got)
        for form in FORMS:
            assert _form_residuals(pair, idents, orientation, form) == want, form


def _plus_one(pair):
    """``pair`` with 1 added to an m1 entry of least size.  On k times a
    primitive integer pair this leaves content 1 (as the callers assert),
    so the evaluator cannot divide k out, and the largest entry within 1
    of k times the old one."""
    key, o = min(((key, o) for key, comps in pair.m1.items() for o in comps),
                 key=lambda ko: abs(pair.m1[ko[0]][ko[1]]))
    m1 = {**pair.m1, key: {**pair.m1[key], o: pair.m1[key][o] + 1}}
    return P.PairStructure(pair.v1, pair.v2, pair.kind, m1, pair.m2)


def _band_edge(base, idents, limit):
    """The largest integer k for which every identity's checked bound on
    ``_plus_one(k * base)`` stays below ``limit``.  The bound grows like
    k^2, so k is a step or two from its estimate off ``base``."""
    def worst(k):
        return max(P._checked_bound(_plus_one(_scaled(base, F(k))), i) for i in idents)

    k = start = math.isqrt((limit - 1) // max(P._checked_bound(base, i) for i in idents))
    while worst(k) >= limit:
        k -= 1
        assert k > start - 4, "the checked bound does not grow like k^2"
    while worst(k + 1) < limit:
        k += 1
        assert k < start + 4, "the checked bound does not grow like k^2"
    assert limit // 2 <= worst(k) < limit <= worst(k + 1)
    return k


def test_join_form_just_under_the_int64_bound():
    # content-1 multiples of a perturbed gl(2,1): at the largest one that
    # keeps both deep identities under 2^62 they take the int64 join,
    # which equals the multimodular form; at the next one some identity
    # passes 2^62 and takes the multimodular form, where the join
    # refuses.  Every failure equals the oracle
    base = random_even_perturbation(series_gl(2, 1).pair, Lcg64(5))
    idents = [CATALOG[n] for n in ("jacobi_analog", "compatibility")]
    k = _band_edge(base, idents, 2**62)
    failing, forms = 0, set()
    for scale in (k, k + 1):
        big = _plus_one(_scaled(base, F(scale)))
        assert P._scale(big)[0] == 1
        for ident in idents:
            past = P._checked_bound(big, ident) >= 2**62
            form = MODULAR if past else JOIN
            forms.add((scale, form))
            for orientation in (1, 2):
                assert P._form(big, ident, orientation) == form
                [residuals] = _form_residuals(big, [ident], orientation, form)
                if not past:
                    assert [residuals] == _form_residuals(big, [ident], orientation, MODULAR)
                report = P._eval_identity(big, ident, orientation)
                failing += report.failure_count
                for f in report.failures:
                    where = tuple(f.where.values())
                    assert f.residual == residuals[where]
                    assert f.residual == _oracle_residual(big, ident, orientation, where)
                if past:
                    with pytest.raises(ValueError, match="not exact"):
                        P._Evaluation(big.tensors(), ident, orientation, JOIN)
    assert failing
    assert {(k, JOIN), (k + 1, MODULAR)} <= forms and (k, MODULAR) not in forms


def test_check_drops_each_orientations_dense_forms(monkeypatch):
    # verify evaluates both orientations over one Tensors, the kind's
    # symmetry first, then the deep identities: when an orientation starts,
    # no dense form of the one before (nor its signed copies of b) is left
    # in the memo or alive, and the reports are those of each orientation
    # evaluated over a Tensors of its own
    pair = _dense_basis(series_osp(2, 1, 1).pair)
    real = P._eval_identities
    done, starts, built = [], [], {}

    def spy(t, idents, orientation, cap, *rule):
        gc.collect()
        starts.append(([k for k in t.memo if k[0] == "dense"],
                       [ref for ref in done if ref() is not None]))
        reports = real(t, idents, orientation, cap, *rule)
        dense = [v for k, v in t.memo.items() if k[0] == "dense"]
        built[orientation] = built.get(orientation, 0) + len(dense)
        done.extend(map(weakref.ref, dense))
        return reports

    monkeypatch.setattr(P, "_eval_identities", spy)
    got = P.verify(pair).reports
    assert starts == [([], [])] * 4
    assert built[1] and built[2]
    idents = [CATALOG[n] for n in ("antisymmetry.isotopic", "jacobi_analog", "compatibility")]
    alone = [real(pair.tensors(), idents, o, P.FAILURE_CAP) for o in (1, 2)]
    assert got[2:] == [r for rs in zip(*alone) for r in rs]


@pytest.mark.parametrize("osp, orientation", [((2, 1, 1), 2), ((1, 2, 1), 1)])
def test_float_form_just_under_the_float64_bound(osp, orientation):
    # the orientation in which both deep identities of a perturbed osp+
    # pair in a dense basis take the dense form: the largest content-1
    # multiple that keeps both under 2^53 takes the float64 dense form,
    # and at the next one both, which share their checked bound, pass
    # 2^53 and take the multimodular form.  Each equals another exact form
    # (the multimodular one under 2^53, the int64 join past it) and the
    # oracle; the float64 form, forced past 2^53, refuses
    pert = random_even_perturbation(_dense_basis(series_osp(*osp).pair), Lcg64(5))
    base = _scaled(pert, P._scale(pert)[0])  # primitive integer entries
    idents = [CATALOG[n] for n in ("jacobi_analog", "compatibility")]
    k = _band_edge(base, idents, 2**53)
    failing, forms = 0, set()
    for scale in (k, k + 1):
        big = _plus_one(_scaled(base, F(scale)))
        assert P._scale(big)[0] == 1
        for ident in idents:
            past = P._checked_bound(big, ident) >= 2**53
            form = MODULAR if past else FLOAT
            forms.add((scale, form))
            assert P._form(big, ident, orientation) == form
            [residuals] = _form_residuals(big, [ident], orientation, form)
            other = JOIN if past else MODULAR
            assert [residuals] == _form_residuals(big, [ident], orientation, other)
            report = P._eval_identity(big, ident, orientation)
            failing += report.failure_count
            for f in report.failures:
                where = tuple(f.where.values())
                assert f.residual == residuals[where]
                assert f.residual == _oracle_residual(big, ident, orientation, where)
            if past:
                with pytest.raises(ValueError, match="not exact"):
                    P._Evaluation(big.tensors(), ident, orientation, FLOAT)
    assert failing
    assert forms == {(k, FLOAT), (k + 1, MODULAR)}


def test_is_prime_matches_trial_division():
    def trial(n):
        return n > 1 and all(n % q for q in range(2, math.isqrt(n) + 1))

    assert [n for n in range(3000) if P._is_prime(n)] == [n for n in range(3000) if trial(n)]
    # 2^61 - 1 and 2^53 - 111 (the largest prime below 2^53) are prime;
    # 3215031751 is a strong pseudoprime to the bases 2, 3, 5 and 7
    assert P._is_prime(2**61 - 1) and P._is_prime(2**53 - 111)
    assert not any(map(P._is_prime, (3215031751, 2**53 - 109, 561 * 1105)))


def _line_pairs():
    """A pair on one-dimensional even spaces whose two entries, M and
    M - 2 for M = 2^61 + 1, have content 1, and its parity flip: the
    graded antisymmetry residual 2M meets its checked bound."""
    v = SuperSpace.make(["a"], [0])
    m = 2**61 + 1
    line = P.PairStructure(v, v, "isotopic", {(0, 0, 0): {0: F(m)}}, {(0, 0, 0): {0: F(m - 2)}})
    return [line, line.parity_flip()]


def _cell_bound(t, ident, biggest):
    """What one residual cell of the dense form sums at most: each term's
    cell sums at most ``width`` products (one at degree 1), ``width`` the
    contracted length, at most the largest dimension; times the
    identity's coefficient sum, rounded up to a power of two."""
    _, _, coeffs, degree, _ = P._constants(ident)
    width = max(s.dim for s in t.spaces.values())
    power = next(2**k for k in itertools.count() if 2**k >= sum(map(abs, coeffs)))
    return power * biggest**degree * width ** (degree - 1)


def test_primes_keep_float64_exact_and_cover_the_checked_bound():
    # the largest residue of every prime keeps the cell bound plus the
    # prime within 2^53, so float64 sums the residues exactly over any
    # contraction length and reduces them exactly; the product of the
    # primes exceeds twice the cell bound on the primitive tensors, so the
    # residual is the one integer of least size with its residues.
    # jacobi_analog and compatibility share their primes
    wide = _unimodular_basis(series_gl(1, 1).pair, 2**10)
    osp = _change_basis(series_osp(2, 1, 1).pair, lambda i, k: 1 + 2**40 * (i == k))
    cases = [*_line_pairs(), wide, random_even_perturbation(wide, Lcg64(3)), osp]
    for pair in cases:
        t = pair.tensors()
        names = ("antisymmetry.isotopic", "jacobi_analog", "compatibility")
        if pair.kind != "isotopic":
            names = ("symmetry.superJordan", "super_jordan")
        for ident in map(CATALOG.get, names):
            assert P._checked_bound(t, ident) == _cell_bound(t, ident, P._scale(t)[1])
            primes = P._primes(t, ident)
            assert list(primes) == sorted(set(primes), reverse=True)
            assert all(math.gcd(p, q) == 1 for p, q in itertools.combinations(primes, 2))
            assert all(_cell_bound(t, ident, (p - 1) // 2) + p <= 2**53 for p in primes)
            assert math.prod(primes) > 2 * _cell_bound(t, ident, P._scale(t)[1])
            # and no smaller than they need be: at the next prime up, the
            # cell bound plus the prime would pass 2^53
            bigger = next(q for q in itertools.count(primes[0] + 2, 2) if P._is_prime(q))
            assert _cell_bound(t, ident, (bigger - 1) // 2) + bigger > 2**53
        if pair.kind == "isotopic":
            assert P._primes(t, CATALOG["jacobi_analog"]) == P._primes(t, CATALOG["compatibility"])


def test_residues_are_exact_within_2_to_the_53():
    # x - p rint(x / p) on float64 integers with |x| + p <= 2^53: a
    # residue in (-p, p), congruent to x, and 0 exactly at the multiples
    # of p, at the largest primes of 2, 20 and 26 bits
    rng = np.random.default_rng(5)
    for p in (3, 1048573, 67108859):
        top = (2**53 - p) // p
        near = [top, top - 1, top // 2, 1, 0]
        xs = [s * (q * p + r) for q in near for r in (0, (p - 1) // 2, -(p - 1) // 2, 1, -1)
              for s in (1, -1) if abs(q * p + r) + p <= 2**53]
        xs += [int(x) for x in rng.integers(-(2**53 - p), 2**53 - p, 200, endpoint=True)]
        stacked = np.array([xs, xs[::-1]], dtype=np.float64)
        assert stacked.tolist() == [xs, xs[::-1]]  # float64 holds them
        got = P._residues(stacked, (p, 3)).tolist()
        for x, r in zip(xs, got[0]):
            assert r == int(r) and abs(r) < p and (x - int(r)) % p == 0
            assert (r == 0) == (x % p == 0)
        assert all((x - int(r)) % 3 == 0 and abs(r) < 3 for x, r in zip(xs[::-1], got[1]))


def test_multimodular_residuals_that_need_every_prime():
    # the one-dimensional pair fails graded antisymmetry with residual
    # 2M past 2^62, at the checked bound: each of the two primes of about
    # 2^53 is needed to give it back.  Every identity runs multimodular
    # and equals the oracle
    for pair in _line_pairs():
        names = ("antisymmetry.isotopic", "jacobi_analog", "compatibility")
        if pair.kind != "isotopic":
            names = ("symmetry.superJordan", "super_jordan")
        for name in names:
            for orientation in (1, 2):
                ident = CATALOG[name]
                assert P._form(pair, ident, orientation) == MODULAR
                got = P._eval_identity(pair, ident, orientation)
                assert got.to_json() == _oracle_report(pair, ident, orientation).to_json()
    line = _line_pairs()[0]
    ident = CATALOG["antisymmetry.isotopic"]
    e = P._Evaluation(line.tensors(), ident, 1)
    assert len(e.primes) == 2 and max(e.primes) < 2**53
    report = P._eval_identity(line, ident, 1)
    assert [f.residual for f in report.failures] == [{0: 2 * (2**61 + 1)}]


def _uneven(pair):
    """``pair`` with an entry of the wrong parity added to m1 and to m2."""
    p1, p2 = pair.v1.parities, pair.v2.parities
    m1 = {**pair.m1, (0, 0, 0): {p1.index(1 - p2[0]): F(5)}}
    m2 = {**pair.m2, (0, 0, 0): {p2.index(1 - p1[0]): F(-3)}}
    return P.PairStructure(pair.v1, pair.v2, pair.kind, m1, m2)


def test_float_form_on_an_uneven_dense_pair():
    # entries of the wrong parity make rows and columns of the dense
    # blocks meet contracted values of both parities; the float64 form
    # still equals the oracle
    pair = _uneven(_dense_basis(series_osp(2, 1, 1).pair))
    assert [r.failure_count for r in P.check_evenness(pair)] == [1, 1]
    for name in ("jacobi_analog", "compatibility"):
        ident = CATALOG[name]
        assert P._form(pair, ident, 2) == FLOAT
        report = P._eval_identity(pair, ident, 2)
        assert report.to_json() == _oracle_report(pair, ident, 2).to_json()
        assert not report.passed


def test_jacobi_and_compatibility_share_their_terms_in_groups():
    # compatibility's J1..J6 are -1/2 or 1/2 times jacobi's: in integer
    # coefficients (1, -1) for J1, J5, J6 and (1, 1) for J2, J3, J4, and
    # [X, Y, [U, V, Z]] is compatibility's own, with coefficient 2
    idents = [CATALOG["jacobi_analog"], CATALOG["compatibility"]]
    evals = [P._Evaluation(series_gl(1, 1).pair.tensors(), i, 1, FLOAT) for i in idents]
    groups = P._term_groups(evals)
    exprs = [t.expr for t in idents[0].residual_terms()]
    own = idents[1].residual_terms()[0].expr
    assert {d: [(expr, k) for expr, _, k in members] for d, members in groups.items()} == {
        (1, -1): [(exprs[i], 1) for i in (0, 4, 5)],
        (1, 1): [(exprs[i], 1) for i in (1, 2, 3)],
        (0, 1): [(own, 2)],
    }
    # a lone identity is one group, its residual
    alone = P._term_groups(evals[1:])
    assert list(alone) == [(1,)] and [k for *_, k in alone[1,]] == [2, -1, -1, -1, 1, 1, 1]


@pytest.mark.parametrize("case", ["float", "multimodular"])
def test_lockstep_batch_matches_fraction_oracle(monkeypatch, case):
    # jacobi_analog and compatibility evaluated together, in one batch of
    # the dense form, give the oracle's reports in both orientations, on
    # passing and failing pairs: in float64 on osp+(2,1) in a dense basis
    # and on its uneven change; multimodular on the unimodular change of
    # gl(1,1) and its perturbation whose residuals need every prime
    idents = [CATALOG["jacobi_analog"], CATALOG["compatibility"]]
    if case == "float":
        dense = _dense_basis(series_osp(2, 1, 1).pair)
        pairs, form = [dense, _uneven(dense)], FLOAT
        assert all(P._checked_bound(p, i) < 2**53 for p in pairs for i in idents)
        monkeypatch.setattr(P, "_form", lambda *args: FLOAT)  # orientation 1 takes the join
    else:
        rng = Lcg64(23)
        gl11 = series_gl(1, 1).pair
        wide = _unimodular_basis(gl11, 2**10)
        earlier = [gl11, series_q(1).pair, gl11.parity_flip(), _scaled(gl11, F(1, 3)),
                   _scaled(gl11, F(2**31 + 11))]
        for p in earlier:  # so the next is broken[5] of the evaluator oracle test
            random_even_perturbation(p, rng)
        pairs, form = [wide, random_even_perturbation(wide, rng)], MODULAR
        primes = P._primes(pairs[1].tensors(), idents[0])
        failures = P._eval_identity(pairs[1], idents[0], 1).failures
        assert max(abs(c) for f in failures for c in f.residual.values()) > max(primes)
    batches = []
    monkeypatch.setattr(P, "_lockstep", lambda t, evals, real=P._lockstep: (
        batches.append([e.ident.name for e in evals]) or real(t, evals)))
    for k, pair in enumerate(pairs):
        for orientation in (1, 2):
            got = P._eval_identities(pair, idents, orientation, P.FAILURE_CAP)
            want = [_oracle_report(pair, ident, orientation) for ident in idents]
            assert [r.to_json() for r in got] == [r.to_json() for r in want], (k, orientation)
            assert [P._form(pair, ident, orientation) for ident in idents] == [form, form]
            assert all(r.passed for r in got) == (k == 0)
    assert batches == [["jacobi_analog", "compatibility"]] * 4


class _SortSpy:
    """numpy as :mod:`isopairs.pairs` sees it, with every ``argsort``
    recorded by its ``kind``: the join's batch sort takes the default."""

    def __init__(self):
        self.sorts = []

    def __getattr__(self, name):
        return getattr(np, name)

    def argsort(self, a, kind=None):
        self.sorts.append(kind)
        return np.argsort(a, kind=kind)


def test_join_lockstep_matches_fraction_oracle(monkeypatch):
    # jacobi_analog and compatibility evaluated together in the join form,
    # with the X indices cut into several runs, give the oracle's reports
    # in both orientations, on passing and failing pairs; each run sorts
    # the keys of the batch's terms once, for both identities
    idents = [CATALOG["jacobi_analog"], CATALOG["compatibility"]]
    gl11 = series_gl(1, 1).pair
    pairs = [gl11, series_q(1).pair, random_even_perturbation(gl11, Lcg64(23)),
             random_even_perturbation(series_q(1).pair, Lcg64(29))]
    spy, runs = _SortSpy(), []
    monkeypatch.setattr(P, "_RUN", 2**8)
    monkeypatch.setattr(P, "np", spy)
    monkeypatch.setattr(P, "_runs", lambda t, evals, real=P._runs: (
        runs.append([e.ident.name for e in evals]) or real(t, evals)))
    total_runs = 0
    for k, pair in enumerate(pairs):
        for orientation in (1, 2):
            t = pair.tensors()
            evals = [P._Evaluation(t, ident, orientation) for ident in idents]
            assert [e.form for e in evals] == [JOIN, JOIN]
            batch_runs = len(P._runs(t, evals))
            total_runs += batch_runs
            del spy.sorts[:], runs[:]
            got = P._eval_identities(t, idents, orientation, P.FAILURE_CAP)
            want = [_oracle_report(pair, ident, orientation) for ident in idents]
            assert [r.to_json() for r in got] == [r.to_json() for r in want], (k, orientation)
            assert all(r.passed for r in got) == (k < 2)
            assert runs == [["jacobi_analog", "compatibility"]]
            assert spy.sorts.count(None) == batch_runs
    assert total_runs > 2 * len(pairs)  # the runs split the X indices


def test_terms_without_contributions_build_nothing(monkeypatch):
    # a zero pair, an isotopic pair with m2 = {}, a superJordan pair with
    # m1 = {}, and a pair whose nodes never meet on the contracted index:
    # no term whose join has no contribution builds a dense form or a
    # join, the forms are what they were before such terms were skipped,
    # and the reports are the oracle's
    gl11 = series_gl(1, 1).pair
    v = SuperSpace.make(["a", "b"], [0, 0])
    apart = {(0, 0, 0): {1: F(1)}}  # output 1, but every slot holds 0
    cases = {
        "zero": (zero_pair(), "dense dense dense dense dense dense"),
        "m2 empty": (P.PairStructure(gl11.v1, gl11.v2, "isotopic", gl11.m1, {}),
                     "dense dense join dense join dense"),
        "m1 empty": (P.PairStructure(gl11.v1, gl11.v2, "superJordan", {}, gl11.m2),
                     "dense dense dense join"),
        "apart": (P.PairStructure(v, v, "isotopic", apart, apart),
                  "dense dense join join join join"),
    }
    built = []
    for name in ("_dense_term", "_join_term"):
        monkeypatch.setattr(P, name, lambda t, expr, sides, *rest, real=getattr(P, name): (
            built.append(P._term_counts(t, expr, sides)) or real(t, expr, sides, *rest)))
    for name, (pair, forms) in cases.items():
        idents = [CATALOG[n] for n in ((P._kind_symmetry(pair).name,) + (
            ("jacobi_analog", "compatibility") if pair.kind == "isotopic" else ("super_jordan",)))]
        got_forms = [P._form(pair, ident, o)[0] for ident in idents for o in (1, 2)]
        assert " ".join(got_forms) == forms, name
        del built[:]
        report = P.verify(pair)
        assert all(joins > 0 for joins, _ in built), name
        assert bool(built) == (name != "zero")
        want = [_oracle_report(pair, ident, o) for ident in idents for o in (1, 2)]
        assert [r.to_json() for r in report.reports[2:]] == [r.to_json() for r in want], name
    # the pair apart has dense cells but no join contribution in its deep terms
    t = cases["apart"][0].tensors()
    assert all(P._term_counts(t, term.expr, CATALOG["jacobi_analog"].sides) == (0, 1)
               for term in CATALOG["jacobi_analog"].residual_terms())


def _corner_pair(biggest):
    """An isotopic pair on two-dimensional spaces of parities (0, 1) with
    one m1 entry ``biggest`` and one m2 entry 1: content 1, and largest
    entry ``biggest``."""
    v = SuperSpace.make(["a", "b"], [0, 1])
    m1, m2 = {(0, 0, 1): {1: F(biggest)}}, {(1, 0, 1): {0: F(1)}}
    return P.PairStructure(v, v, "isotopic", m1, m2)


def test_float_form_stops_short_of_2_to_the_53():
    # graded antisymmetry (coefficients 1, 1 and degree 1, so no
    # contracted index) with largest entry 2^52 and content 1 has a
    # checked bound of exactly 2 * 2^52 = 2^53: the multimodular form,
    # while largest entry 2^51 takes the float64 form.  Its join has as
    # many contributions as its dense form has cells, so it never runs
    edge, half = _corner_pair(2**52), _corner_pair(2**51)
    ident = CATALOG["antisymmetry.isotopic"]
    assert P._checked_bound(edge, ident) == 2**53 == 2 * P._checked_bound(half, ident)
    for orientation in (1, 2):
        assert P._form(edge, ident, orientation) == MODULAR
        assert P._form(half, ident, orientation) == FLOAT
        for p in (edge, half):
            assert P._eval_identity(p, ident, orientation).to_json() == (
                _oracle_report(p, ident, orientation).to_json())
    with pytest.raises(ValueError, match="not exact"):
        P._Evaluation(edge.tensors(), ident, 1, FLOAT)
    with pytest.raises(ValueError, match="not exact"):
        P._Evaluation(half.tensors(), ident, 1, ("dense", np.int64))


def test_join_form_stops_short_of_2_to_the_62():
    # jacobi_analog and compatibility (coefficient sums 6 and 8, both
    # rounded to 8) on the same pair have a checked bound of 8 M^2 2 at
    # largest entry M: exactly 2^62 at M = 2^29, where the multimodular
    # form runs and the join refuses, and under 2^62 but past 2^53 at
    # M = 2^29 - 1, where the join, with fewer contributions than the
    # dense form has cells, runs and the float64 form refuses
    edge, under = _corner_pair(2**29), _corner_pair(2**29 - 1)
    for name in ("jacobi_analog", "compatibility"):
        ident = CATALOG[name]
        assert P._checked_bound(edge, ident) == 2**62 > P._checked_bound(under, ident) >= 2**53
        for orientation in (1, 2):
            assert P._form(edge, ident, orientation) == MODULAR
            assert P._form(under, ident, orientation) == JOIN
            for p in (edge, under):
                assert P._eval_identity(p, ident, orientation).to_json() == (
                    _oracle_report(p, ident, orientation).to_json())
        with pytest.raises(ValueError, match="not exact"):
            P._Evaluation(edge.tensors(), ident, 1, JOIN)
        with pytest.raises(ValueError, match="not exact"):
            P._Evaluation(under.tensors(), ident, 1, FLOAT)


def test_term_counts_read_no_tensor_value():
    # the join and dense counts read only the keys and outputs of the
    # tensors: an entry of 2^70 + 1, past int64, counts as the 1 in its
    # place, and the pair, past 2^62, runs multimodular to the oracle
    small = series_gl(1, 1).pair
    big = _plus_one(_scaled(small, F(2**70)))
    assert P._scale(big)[0] == 1
    assert 2**70 + 1 in (c for comps in big.m1.values() for c in comps.values())
    t_small, t_big = small.tensors(), big.tensors()
    for ident in (CATALOG["jacobi_analog"], CATALOG["compatibility"]):
        for orientation in (1, 2):
            sides = P._orient(ident.sides, orientation)
            for term in ident.residual_terms():
                assert P._term_counts(t_big, term.expr, sides) == (
                    P._term_counts(t_small, term.expr, sides))
            assert P._form(big, ident, orientation) == MODULAR
            assert P._eval_identity(big, ident, orientation).to_json() == (
                _oracle_report(big, ident, orientation).to_json())


def test_dense_pair_under_2_to_the_53_per_cell_takes_the_float_form():
    # the three-fold bench change of basis of gl(2,1), times 16 plus one:
    # content 1 and a cell bound of 2^47.7 (a bound charging dim^4 put
    # it near 2^57, where the join ran, 25 times slower).  Both deep
    # identities take the float64 dense form in both orientations, and
    # every failure of verify equals the oracle
    pair = series_gl(2, 1).pair
    for seed in (11, 12, 13):
        pair = bench_inputs.change_basis(pair, random.Random(seed))
    pair = _plus_one(_scaled(pair, F(16)))
    assert P._scale(pair)[0] == 1
    for name in ("jacobi_analog", "compatibility"):
        assert 2**47 < P._checked_bound(pair, CATALOG[name]) < 2**48
        for orientation in (1, 2):
            assert P._form(pair, CATALOG[name], orientation) == FLOAT
    reports = P.verify(pair).reports[2:]  # after the two evenness reports
    assert [r.identity for r in reports[::2]] == [
        "antisymmetry.isotopic", "jacobi_analog", "compatibility"]
    assert not all(r.passed for r in reports[2:])
    for r in reports:
        for f in r.failures:
            assert f.residual == _oracle_residual(
                pair, CATALOG[r.identity], r.orientation, tuple(f.where.values()))


def test_negative_indices_rejected():
    v = SuperSpace.make(["a", "b"], [0, 0])
    for m1 in ({(-1, 0, 0): {0: F(1)}}, {(0, 0, 0): {-1: F(1)}}):
        with pytest.raises(P.SpaceMismatch):
            P.PairStructure(v, v, "isotopic", m1, {})
    with pytest.raises(P.SpaceMismatch):
        P.PairStructure(v, v, "isotopic", {}, {(0, -2, 1): {0: F(1)}})


def test_non_integer_indices_rejected():
    # int() truncation once read this tensor as {(0, 0, 1): {0: 2},
    # (1, 0, 1): {0: 3}}, silently dropping the (0.9, 0, 1) row
    v = SuperSpace.make(["a", "b"], [0, 0])
    m1 = {(0.9, 0, 1): {0: F(1)}, (0, 0, 1): {0: F(2)}, (1, 0, 1.5): {0.7: F(3)}}
    with pytest.raises(ValueError):
        P.PairStructure(v, v, "isotopic", m1, {})
    for bad in (1.0, F(1), "1"):
        for t in ({(bad, 0, 0): {0: F(1)}}, {(0, 0, 0): {bad: F(1)}}):
            with pytest.raises(ValueError):
                P.PairStructure(v, v, "isotopic", t, {})
            with pytest.raises(ValueError):
                P.PairStructure(v, v, "isotopic", {}, t)
    # Python and numpy ints pass, and come out as Python ints
    pair = P.PairStructure(v, v, "isotopic", {(np.int64(1), 0, 1): {np.int32(0): F(3)}}, {})
    assert pair.m1 == {(1, 0, 1): {0: F(3)}}
    assert all(type(k) is int for key, out in pair.m1.items() for k in (*key, *out))


def test_basis_checking_matches_element_checking():
    # multilinearity: the residual on random homogeneous elements equals
    # the multilinear combination of basis-tuple residuals (zero for a
    # verified pair, matching prediction for a corrupted one)
    rng = Lcg64(31)
    pair = series_gl(1, 1).pair
    ident = CATALOG["jacobi_analog"]
    sides = ident.sides
    for _ in range(10):
        vectors, parities = {}, {}
        for letter, side in sides.items():
            space = pair.space(side)
            par = rng.below(2)
            idxs = [i for i, p in enumerate(space.parities) if p == par]
            v = [F(0)] * space.dim
            for i in idxs:
                v[i] = rng.coefficient()
            vectors[letter] = tuple(v)
            parities[letter] = par
        assert residual_on_vectors(pair, ident, 1, vectors, parities) == {}

    pert = random_even_perturbation(pair, rng)
    letters = sorted(sides, key="XYZUV".index)
    vectors = {}
    parities = {}
    for letter in letters:
        space = pert.space(sides[letter])
        idxs = [i for i, p in enumerate(space.parities) if p == 0]
        v = [F(0)] * space.dim
        for i in idxs:
            v[i] = rng.coefficient()
        vectors[letter] = tuple(v)
        parities[letter] = 0
    got = residual_on_vectors(pert, ident, 1, vectors, parities)
    # basis-derived prediction
    dims = [pert.space(sides[l]).dim for l in letters]
    predicted = {}
    for combo in itertools.product(*(range(d) for d in dims)):
        coeff = F(1)
        for l, i in zip(letters, combo):
            coeff *= vectors[l][i]
        if not coeff:
            continue
        basis_vecs = {
            l: unit(i, pert.space(sides[l]).dim) for l, i in zip(letters, combo)
        }
        basis_par = {l: pert.space(sides[l]).parities[i] for l, i in zip(letters, combo)}
        res = residual_on_vectors(pert, ident, 1, basis_vecs, basis_par)
        for o, c in res.items():
            v = predicted.get(o, 0) + coeff * c
            if v:
                predicted[o] = v
            else:
                predicted.pop(o, None)
    assert got == predicted


def test_failure_residual_parity_is_even():
    # residuals of an even tensor's failures live in the parity component
    # fixed by the tuple (evenness of the identity)
    rng = Lcg64(47)
    pert = random_even_perturbation(series_gl(1, 1).pair, rng)
    for rep in P.verify(pert).failing():
        if rep.identity.startswith("evenness"):
            continue
        sides = P._orient(CATALOG[rep.identity].sides, rep.orientation)
        out_space = pert.space(P._value_side(
            CATALOG[rep.identity].residual_terms()[0].expr, sides))
        for f in rep.failures:
            tuple_parity = sum(
                pert.space(sides[l]).parities[i] for l, i in f.where.items()
            ) % 2
            for o in f.residual:
                assert out_space.parities[o] == tuple_parity


def test_pair_json_round_trip_byte_identical():
    p = series_gl(1, 1).pair
    s1 = json.dumps(p.to_json(), sort_keys=True, separators=(",", ":"))
    p2 = P.PairStructure.from_json(json.loads(s1))
    s2 = json.dumps(p2.to_json(), sort_keys=True, separators=(",", ":"))
    assert s1 == s2
    assert p2.m1 == p.m1 and p2.v1 == p.v1


def test_report_json_round_trip():
    rep = P.verify(series_gl(1, 1).pair)
    s1 = json.dumps(rep.to_json(), sort_keys=True, separators=(",", ":"))
    rt = P.VerifyReport.from_json(json.loads(s1))
    s2 = json.dumps(rt.to_json(), sort_keys=True, separators=(",", ":"))
    assert s1 == s2


def test_adopted_form_recorded():
    rep = P.verify(series_gl(1, 1).pair)
    sym = next(r for r in rep.reports if r.identity == "antisymmetry.isotopic")
    assert sym.adopted_form.startswith("corrected")
    jac = next(r for r in rep.reports if r.identity == "jacobi_analog")
    assert jac.adopted_form == "printed"


def test_runs_of_x_indices_keep_every_report(monkeypatch):
    # a tiny run budget cuts the X indices of the sparse joins into many
    # runs, evaluated in lockstep by verify; the reports stay the same
    pairs = [
        random_even_perturbation(series_gl(2, 1).pair, Lcg64(5)),
        random_even_perturbation(series_q(1).pair, Lcg64(6)).parity_flip(),
    ]
    want = [P.verify(p).to_json() for p in pairs]
    monkeypatch.setattr(P, "_RUN", 64)
    got = [P.verify(p).to_json() for p in pairs]
    assert got == want
    assert not all(r["passed"] for w in want for r in w["reports"])
    ident = CATALOG["compatibility"]
    e = P._Evaluation(pairs[0].tensors(), ident, 1)
    assert e.form == ("join", np.int64) and len(P._runs(e.t, [e])) > 1


def test_verify_keeps_nothing_on_the_pair():
    pair = series_gl(2, 1).pair
    before = dict(vars(pair))
    assert P.verify(pair).passed
    assert vars(pair) == before


def test_mirroring_keeps_side_zero():
    # the operator letter of a derivation identity stays on side 0 when
    # the pair letters are mirrored
    sides = EQUIVARIANCE["g_equivariance"].sides
    assert P._orient(sides, 2) == {"Z": 0, "U": 1, "X": 2, "Y": 2}
    assert P._orient(sides, 1) == sides == {"Z": 0, "U": 2, "X": 1, "Y": 1}
    assert P._orient({"i": 0, "j": 0}, 0) == {"i": 0, "j": 0}


def test_act_and_bracket_nodes_read_their_own_tables():
    # "Act over a nested bracket" and "bracket over a nested Act" both
    # put their value on side 1 with the nested node in slot 1; their
    # tensors and counts are told apart by table key
    ident = EQUIVARIANCE["g_equivariance"]
    over_bracket, over_act = ident.lhs.terms[0].expr, ident.rhs.terms[0].expr
    assert isinstance(over_bracket, Act) and isinstance(over_act.left, Act)
    sides = ident.sides
    assert (P._table(over_bracket, sides), P._table(over_act, sides)) == (("act", 1), 1)
    assert P._value_side(over_bracket, sides) == P._value_side(over_act, sides) == 1
    pair = series_gl(1, 1).pair

    def tensors(s1, s2):
        """One operator, acting as s1 on V1 and as s2 on V2."""
        acts = [{(0, k): {k: F(s)} for k in range(4)} for s in (s1, s2)]
        return P.Tensors({0: SuperSpace.make(["z"], [0]), 1: pair.v1, 2: pair.v2},
                         {1: pair.m1, 2: pair.m2, ("act", 1): acts[0], ("act", 2): acts[1]})

    t = tensors(1, -1)
    entries = sum(map(len, pair.m1.values()))
    assert P._term_counts(t, over_bracket, sides)[0] == entries  # each output once
    assert P._term_counts(t, over_act, sides)[0] == entries  # each x once
    assert P._coo(t, ("act", 1), 2)[0].shape == (4, 2)
    # the grading operator (1 on V1, -1 on V2) is a derivation; the
    # identity is not: its residual is -2 [X,Y]_U
    for orientation in (1, 2):
        assert P._eval_identity(t, ident, orientation).passed
        report = P._eval_identity(tensors(1, 1), ident, orientation, cap=10**6)
        m = pair.m1 if orientation == 1 else pair.m2
        assert {(w["U"], w["X"], w["Y"]): r for w, r in (
            (f.where, f.residual) for f in report.failures)} == {
            key: {o: -2 * c for o, c in comps.items()} for key, comps in m.items()}


def test_canon_tensor_keeps_fractions_and_converts_the_rest():
    half, kept = F(1, 2), F(-7, 3)
    t = P._canon_tensor({(0, 1, 2): {0: 3, 1: "1/2", 2: np.int64(-4), 3: kept, 4: 0},
                         (1, 0, 0): {0: F(0), 1: np.int32(0), 2: "0"}})
    assert t == {(0, 1, 2): {0: F(3), 1: half, 2: F(-4), 3: kept}}
    assert all(type(c) is F for c in t[0, 1, 2].values())
    assert t[0, 1, 2][3] is kept


def _evenness_oracle(pair, cap=P.FAILURE_CAP):
    """The per-entry evenness check: each key in sorted order, its
    entries whose output parity is not the sum of its input parities."""
    specs = [
        ("evenness[m1]", pair.m1, (pair.v2, pair.v1, pair.v1), pair.v1, ("u", "x", "y")),
        ("evenness[m2]", pair.m2, (pair.v1, pair.v2, pair.v2), pair.v2, ("x", "u", "v")),
    ]
    reports = []
    for name, tensor, in_spaces, out_space, names in specs:
        def odd_part(key):
            expected = sum(s.parities[i] for s, i in zip(in_spaces, key)) % 2
            return {o: c for o, c in tensor[key].items() if out_space.parities[o] != expected}

        entries = ((dict(zip(names, key)), odd_part(key)) for key in sorted(tensor))
        total = math.prod(s.dim for s in in_spaces)
        reports.append(P.axiom_report(name, 0, total, entries, cap))
    return reports


def _random_uneven_pair(kind, seed, entries=150):
    """Spaces of different dimensions and parities, and tensors with
    random entries of either parity, inserted in random key order."""
    rng = random.Random(seed)
    v1 = SuperSpace.make(["a", "b", "c"], [0, 1, 1])
    v2 = SuperSpace.make(["p", "q", "r", "s"], [1, 0, 1, 0])
    tensors = []
    for d_in, d_out in ((v2.dim, v1.dim), (v1.dim, v2.dim)):
        m: dict = {}
        for _ in range(entries):
            key = (rng.randrange(d_in), rng.randrange(d_out), rng.randrange(d_out))
            m.setdefault(key, {})[rng.randrange(d_out)] = F(rng.randint(-9, 9) or 1,
                                                             rng.randint(1, 4))
        tensors.append(m)
    return P.PairStructure(v1, v2, kind, *tensors)


def _with_wrong_parities(pair, count=3):
    """``pair`` with an entry of the wrong output parity at each of the
    ``count`` smallest keys that m1 and m2 lack, inserted last, largest
    first, so that the dicts are out of key order."""
    v1, v2 = pair.v1.parities, pair.v2.parities
    tensors = []
    for m, ins, out in ((pair.m1, (v2, v1, v1), v1), (pair.m2, (v1, v2, v2), v2)):
        free = [key for key in itertools.product(*map(range, map(len, ins))) if key not in m]
        m = dict(m)
        for k, key in enumerate(reversed(free[:count])):
            m[key] = {out.index(1 - sum(p[i] for p, i in zip(ins, key)) % 2): F(k - 5, 3)}
        tensors.append(m)
    return P.PairStructure(pair.v1, pair.v2, pair.kind, *tensors)


def _evenness_cases():
    yield _with_wrong_parities(series_osp(2, 1, 1).pair)
    # more than FAILURE_CAP failing keys in each tensor, and superJordan
    yield _random_uneven_pair("isotopic", 3)
    yield _random_uneven_pair("superJordan", 4)
    yield _with_wrong_parities(series_gl(2, 1).pair.parity_flip())
    yield series_gl(2, 1).pair.parity_flip()


@pytest.mark.parametrize("pair", list(_evenness_cases()))
def test_evenness_matches_the_per_entry_oracle(pair):
    expected = [r.to_json() for r in _evenness_oracle(pair)]
    assert [r.to_json() for r in P.check_evenness(pair)] == expected
    assert [r.to_json() for r in P.verify(pair).reports[:2]] == expected
    assert [r.to_json() for r in P.check_evenness(pair.tensors(), 3)] == (
        [r.to_json() for r in _evenness_oracle(pair, 3)])


def test_evenness_cases_fail_past_the_cap():
    counts = [[r.failure_count for r in _evenness_oracle(pair)] for pair in _evenness_cases()]
    assert counts[0] == counts[3] == [3, 3] and counts[-1] == [0, 0]
    assert all(min(c) > P.FAILURE_CAP for c in counts[1:3])


def _read_oracle(t):
    """(scale, biggest, {table: {(key, output): primitive integer}}) of a
    Tensors, straight from its Fractions."""
    entries = [c for tensor in t.tensors.values() for comps in tensor.values()
               for c in comps.values()]
    lcm = math.lcm(*(c.denominator for c in entries))
    content = math.gcd(*(int(c * lcm) for c in entries)) or 1
    scale = F(lcm, content)
    biggest = max((abs(c * scale) for c in entries), default=1)
    return scale, biggest, {table: {(key, o): c * scale for key, comps in tensor.items()
                                    for o, c in comps.items()}
                            for table, tensor in t.tensors.items()}


def _coo_dict(keys, outs, values):
    return {(tuple(k), o): v for k, o, v in zip(keys.tolist(), outs.tolist(), values.T.tolist())}


def _read_case(name):
    v = SuperSpace.make(["a", "b", "c"], [0, 1, 0])
    # mixed denominators: the lcm 9 scales to 6, -10, 12, 42 and 18, content 2
    m1 = {(0, 1, 2): {0: F(2, 3), 2: F(-10, 9)}, (2, 2, 0): {1: F(4, 3)},
          (1, 0, 0): {0: F(14, 3)}}
    m2 = {(1, 1, 1): {2: F(2)}}
    pair = _scaled(series_gl(1, 1).pair, F(6, 5))
    if name == "superalgebra":
        from isopairs.tkk import superalgebra_from_pair

        return superalgebra_from_pair(pair).tensors()
    if name == "act":
        acts = {(0, k): {k: F(k + 1, 2)} for k in range(4)}
        return P.Tensors({0: SuperSpace.make(["z"], [0]), 1: pair.v1, 2: pair.v2},
                         {1: pair.m1, 2: pair.m2, ("act", 1): acts})
    return P.Tensors({1: v, 2: v}, {
        "content": {1: m1, 2: m2},
        "past int64": {1: {**m1, (2, 1, 1): {2: F(2**70 + 1)}}, 2: m2},
        "one empty": {1: {}, 2: m2},
        "all empty": {1: {}, 2: {}},
    }[name])


@pytest.mark.parametrize("name", ["content", "past int64", "one empty", "all empty",
                                  "superalgebra", "act"])
def test_read_matches_a_fraction_computation(name):
    t = _read_case(name)
    scale, biggest, tables = _read_oracle(t)
    assert P._scale(t) == (scale, biggest)
    primes = (2**31 - 1, 1000003)
    for table, expected in tables.items():
        arity = len(next(iter(t.tensors[table]), (0, 0, 0)))
        keys, outs, residues = P._coo(t, table, arity, primes)
        assert keys.shape == (len(expected), arity)
        assert _coo_dict(keys, outs, residues) == {
            k: [(int(v) + p // 2) % p - p // 2 for p in primes] for k, v in expected.items()}
        if biggest < 2**63:
            assert _coo_dict(keys, outs, P._coo(t, table, arity)[2][None]) == {
                k: [int(v)] for k, v in expected.items()}
    if name == "content":
        assert P._scale(t) == (F(9, 2), 21) and tables[1][(0, 1, 2), 2] == -5
    if name == "past int64":
        assert P._scale(t) == (F(9), (2**70 + 1) * 9)
    if name == "all empty":
        assert P._scale(t) == (1, 1)


def test_distinct_matches_np_unique():
    rng = np.random.default_rng(5)
    for n in (0, 1, 40, 500):
        x, flat = rng.integers(0, 3, n), rng.integers(0, 7, n)
        bits = (flat % 4).astype(np.uint8)  # a function of the key, as in the evaluator
        inverse, dx, dflat, dbits = P._distinct(x, flat, bits, 7)
        span = int(bits.max()) + 1 if n else 1
        keys, first, expected = np.unique((x * span + bits) * 7 + flat, return_index=True,
                                          return_inverse=True)
        assert np.array_equal(inverse, expected.ravel())
        for got, a in ((dx, x), (dflat, flat), (dbits, bits)):
            assert np.array_equal(got, a[first]) and np.array_equal(got[inverse], a)


def test_letter_symmetries_are_read_off_the_templates():
    # with the kind's symmetry (premise given), each deep identity keeps
    # the side-keeping permutations of its letters that give back its
    # template up to a sign by parities; without it only relabellings that
    # need no rewrite hold, such as U <-> V of jacobi_analog
    antisymmetry, symmetry = CATALOG["antisymmetry.isotopic"], CATALOG["symmetry.superJordan"]
    one, uv, xy = (0, 1, 2, 3, 4), (0, 1, 2, 4, 3), (1, 0, 2, 3, 4)
    s3 = itertools.permutations(range(3))
    assert sorted(P._symmetries(CATALOG["jacobi_analog"], antisymmetry)) == sorted(
        p + q for p in s3 for q in ((3, 4), (4, 3)))
    assert sorted(P._symmetries(CATALOG["compatibility"], antisymmetry)) == sorted(
        [one, uv, xy, (1, 0, 2, 4, 3)])
    assert sorted(P._symmetries(CATALOG["super_jordan"], symmetry)) == [one, xy]
    assert sorted(P._symmetries(CATALOG["jacobi_analog"])) == [one, uv]
    assert list(P._symmetries(CATALOG["compatibility"])) == [one]
    assert list(P._symmetries(CATALOG["super_jordan"])) == [one]
    # compatibility's swaps are those of its own term [X, Y]_[U, V]_Z:
    # -A_{X, [U,V]_Z, Y} for X <-> Y and -A_{UZV} for U <-> V
    signs = P._symmetries(CATALOG["compatibility"], antisymmetry)
    for b in range(32):
        x, y, z, u, v = (b >> k & 1 for k in range(5))
        assert signs[xy][b] == -sign_a(x, (u + v + z) % 2, y)
        assert signs[uv][b] == -sign_a(u, z, v)
    # J1's sign flipped in a copy of jacobi_analog's template (the catalog
    # keeps its own) leaves X <-> Y alone with the premise, and nothing
    # without it
    ja = CATALOG["jacobi_analog"]
    terms = list(ja.lhs.terms)
    terms[0] = dataclasses.replace(terms[0], coeff=-terms[0].coeff)
    flipped = dataclasses.replace(ja, lhs=dataclasses.replace(ja.lhs, terms=tuple(terms)))
    assert sorted(P._symmetries(flipped, antisymmetry)) == [one, xy]
    assert sorted(P._symmetries(flipped)) == [one]
    assert len(P._symmetries(ja, antisymmetry)) == 12


def _graded_pair(kind, seed, entries=12):
    """A random even pair whose m1 and m2 are graded antisymmetric
    (isotopic) or graded symmetric (superJordan): each random entry at
    (u, x, y) comes with its image, -A_{XUY} or A_{XUY} times it, at
    (u, y, x), so at x = y only where that image is the entry itself: odd
    x for isotopic, even x for superJordan.  On spaces of dimension 6
    and 5 the tensors stay sparse, so the deep identities take the join."""
    rng = random.Random(seed)
    v1 = SuperSpace.make([f"a{i}" for i in range(6)], [0, 1, 1, 0, 1, 0])
    v2 = SuperSpace.make([f"b{i}" for i in range(5)], [1, 0, 0, 1, 1])
    mirror = -1 if kind == "isotopic" else 1
    tensors = []
    for own, other in ((v1, v2), (v2, v1)):
        m: dict = {}
        for _ in range(entries):
            u, x, y = rng.randrange(other.dim), rng.randrange(own.dim), rng.randrange(own.dim)
            image = mirror * sign_a(own.parities[x], other.parities[u], own.parities[y])
            if x == y and image != 1:
                continue
            parity = (other.parities[u] + own.parities[x] + own.parities[y]) % 2
            o = rng.choice([o for o in range(own.dim) if own.parities[o] == parity])
            c = F(rng.choice((1, -1, 2, -3)))
            m.setdefault((u, x, y), {})[o] = c
            m.setdefault((u, y, x), {})[o] = image * c
        tensors.append(m)
    return P.PairStructure(v1, v2, kind, *tensors)


def _deep(pair):
    names = ("jacobi_analog", "compatibility") if pair.kind == "isotopic" else ("super_jordan",)
    return [CATALOG[n] for n in names]


def _full_and_reduced(pair, orientation, cap, idents=None):
    """The reports of the deep identities evaluated on every tuple, and
    with the kind's symmetry as premise, on one orbit representative each."""
    idents, t = idents or _deep(pair), pair.tensors()
    full = P._eval_identities(t, idents, orientation, cap)
    return full, P._eval_identities(t, idents, orientation, cap, P._kind_symmetry(pair))


@pytest.mark.parametrize("kind", P.KINDS)
@pytest.mark.parametrize("run", [P._RUN, 64])
def test_orbit_representatives_give_the_reports_of_every_tuple(monkeypatch, kind, run):
    # on even graded-(anti)symmetric pairs that fail the deep identities
    # past the failure cap, failing at repeated-index tuples with an odd
    # X = Y too, one tuple per orbit gives the reports of every tuple:
    # the batch of verify, each identity alone (jacobi_analog alone has
    # S3(X, Y, Z) x S2(U, V)), with all the failures kept and with the cap,
    # in one run of X indices or in many
    monkeypatch.setattr(P, "_RUN", run)
    groups = []
    monkeypatch.setattr(P, "_orbits", lambda batch, rule, real=P._orbits: (
        real(batch, rule), groups.append([len(e.group) for e in batch])))
    repeated = odd_repeated = past_cap = 0
    for seed in range(4):
        pair = _graded_pair(kind, seed)
        idents = _deep(pair)
        report = P.verify(pair)
        assert all(r.passed for r in report.reports[:4])
        for orientation in (1, 2):
            assert {P._form(pair, i, orientation) for i in idents} == {JOIN}
            total = report.reports[4].total
            for cap in (P.FAILURE_CAP, total):
                for batch in [idents] + [[i] for i in idents]:
                    full, reduced = _full_and_reduced(pair, orientation, cap, batch)
                    assert [r.to_json() for r in reduced] == [r.to_json() for r in full], (
                        seed, orientation, cap, [i.name for i in batch])
            full = _full_and_reduced(pair, orientation, total)[0]
            odd = pair.space(orientation).parities  # of X's side
            repeated += sum(f.where["X"] == f.where["Y"] for r in full for f in r.failures)
            odd_repeated += sum(f.where["X"] == f.where["Y"] and odd[f.where["X"]]
                                for r in full for f in r.failures)
            past_cap += sum(r.failure_count > P.FAILURE_CAP for r in full)
        full = [_full_and_reduced(pair, o, P.FAILURE_CAP)[0] for o in (1, 2)]
        assert [r.to_json() for r in report.reports[4:]] == [
            r.to_json() for rs in zip(*full) for r in rs]
    assert repeated and past_cap >= 8 * len(_deep(_graded_pair(kind, 0)))
    # X <-> Y fixes a tuple with X = Y, and where its sign is -1 the
    # residual is 0: at even X on the antisymmetric pairs, odd X on the
    # symmetric ones
    isotopic = kind == "isotopic"
    assert odd_repeated == (repeated if isotopic else 0)
    # verify's batches share S2(X, Y) x S2(U, V), or X <-> Y of super_jordan
    assert groups[:2] == ([[4, 4]] * 2 if isotopic else [[2]] * 2)
    assert ([12] in groups and [4] in groups) if isotopic else groups == [[2]] * len(groups)


def _with_entry(pair, seed, side, parity_shift, image):
    """``pair`` with an entry at a random key (u, x, y), x != y, of m``side``
    that (u, y, x) lacks, of output parity the sum of its inputs' plus
    ``parity_shift``, and with ``image`` its graded (anti)symmetric image
    at (u, y, x) too."""
    rng = random.Random(seed)
    own, other = pair.space(side), pair.space(3 - side)
    tensor = {k: dict(v) for k, v in (pair.m1 if side == 1 else pair.m2).items()}
    while True:
        u, x, y = rng.randrange(other.dim), rng.randrange(own.dim), rng.randrange(own.dim)
        if x != y and (u, y, x) not in tensor:
            break
    parity = (other.parities[u] + own.parities[x] + own.parities[y] + parity_shift) % 2
    o = own.parities.index(parity)
    tensor.setdefault((u, x, y), {})[o] = F(5)
    if image:
        mirror = -1 if pair.kind == "isotopic" else 1
        tensor.setdefault((u, y, x), {})[o] = F(5 * mirror * sign_a(
            own.parities[x], other.parities[u], own.parities[y]))
    m1, m2 = (tensor, pair.m2) if side == 1 else (pair.m1, tensor)
    return P.PairStructure(pair.v1, pair.v2, pair.kind, m1, m2)


@pytest.mark.parametrize("kind", P.KINDS)
@pytest.mark.parametrize("case", ["uneven", "one-sided"])
def test_verify_evaluates_every_tuple_without_its_premise(monkeypatch, kind, case):
    # an uneven pair that passes the kind's symmetry, and an even one that
    # fails it in orientation 2 only: the premise fails, verify's joins keep
    # every tuple, and its reports are the full evaluation's.  One tuple
    # per orbit would not do on either: rewriting around a nested bracket
    # uses that bracket's parity, which needs evenness, and a swap inside
    # m2's nodes needs m2's symmetry
    if case == "uneven":
        pair = _with_entry(_graded_pair(kind, 1), 1, 1, 1, image=True)
        premise = [False, True, True, True]
    else:
        pair = _with_entry(_graded_pair(kind, 0), 0, 2, 0, image=False)
        premise = [True, True, True, False]
    orbits = []
    monkeypatch.setattr(P, "_orbits", lambda *args: orbits.append(args))
    report = P.verify(pair)
    assert [r.passed for r in report.reports[:4]] == premise and not orbits
    full = [_full_and_reduced(pair, o, P.FAILURE_CAP)[0] for o in (1, 2)]
    assert [r.to_json() for r in report.reports[4:]] == [
        r.to_json() for rs in zip(*full) for r in rs]
    monkeypatch.undo()
    forced = [_full_and_reduced(pair, o, cap=10**6) for o in (1, 2)]
    assert any(a.to_json() != b.to_json() for full, reduced in forced
               for a, b in zip(full, reduced))
