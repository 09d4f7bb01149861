"""Series builders, envelopes, Killing forms, magnetic and S^2 pairs."""

import hashlib
import itertools
from fractions import Fraction

import pytest

from isopairs import constructions as C
from isopairs.acceptance import canonical_json
from isopairs.exactlin import IncrementalSpan, Matrix
from isopairs.pairs import (
    AxiomReport,
    Failure,
    PairStructure,
    SpaceMismatch,
    check_super_jordan,
    verify,
)
from isopairs.rng import Lcg64
from isopairs.supercore import sign_a

from dense_oracle import apply, intersect_spans, kernel_basis, sparse

F = Fraction


def unit_vec(k, d):
    return tuple(F(int(i == k)) for i in range(d))


def test_envelope_full_mat11_closed():
    space = C.SuperMatrixSpace(1, 1)
    units = [space.unit(i, j) for i in range(2) for j in range(2)]
    ep = C.envelope_pair(space, units, units)
    assert ep.pair.v1.dim == 4
    assert verify(ep.pair).passed


def test_envelope_nilpotent_span_zero_brackets():
    space = C.SuperMatrixSpace(2, 0)
    b = [space.unit(0, 1)]  # strictly upper triangular
    ep = C.envelope_pair(space, b, b)
    assert ep.pair.m1 == {} and ep.pair.m2 == {}


def test_envelope_not_closed():
    space = C.SuperMatrixSpace(2, 0)
    s1 = [space.unit(0, 0), space.unit(1, 1)]
    s2 = [space.unit(0, 1)]
    with pytest.raises(C.NotClosed) as exc:
        C.envelope_pair(space, s1, s2)
    assert exc.value.side == 1


def test_envelope_membership_solve_example():
    space = C.SuperMatrixSpace(2, 0)
    s1 = [space.unit(0, 0), space.unit(0, 1)]
    s2 = [space.unit(1, 0)]
    ep = C.envelope_pair(space, s1, s2)
    assert verify(ep.pair).passed


def test_series_gl_dimensions():
    for (n, m), (even, odd) in (((1, 0), (1, 0)), ((1, 1), (2, 2)), ((2, 1), (5, 4))):
        p = C.series_gl(n, m).pair
        assert (p.v1.even_dim, p.v1.odd_dim) == (even, odd)
        assert (p.v2.even_dim, p.v2.odd_dim) == (even, odd)


def test_series_gl_verifies():
    assert verify(C.series_gl(1, 1).pair).passed
    assert verify(C.series_gl(2, 1).pair).passed


def test_series_osp_dimensions():
    for eps in (1, -1):
        p = C.series_osp(2, 2, eps).pair
        assert (p.v1.even_dim, p.v1.odd_dim) == (4, 4)
        assert (p.v2.even_dim, p.v2.odd_dim) == (4, 4)
    p = C.series_osp(1, 1, 1).pair
    assert p.v1.even_dim == 1  # A antisym 1x1 vanishes, D is a scalar


def test_series_osp_verifies():
    for eps in (1, -1):
        assert verify(C.series_osp(1, 1, eps).pair).passed


def test_series_q():
    p = C.series_q(1).pair
    assert (p.v1.even_dim, p.v1.odd_dim) == (1, 1)
    p2 = C.series_q(2).pair
    assert (p2.v1.even_dim, p2.v1.odd_dim) == (4, 4)
    assert verify(p2).passed


def test_series_q_even_part_is_diagonal_image():
    ep = C.series_q(2)
    for b, parity in zip(ep.basis1, ep.pair.v1.parities):
        if parity == 0:
            # diag(X, X) image
            assert all((i < 2) == (j < 2) for i, j, _ in b.nonzeros())
            for i, j, c in b.nonzeros():
                if i < 2:
                    assert b[i + 2, j + 2] == c


def test_series_osq_literal_fails_supertranspose_adopted():
    ep = C.series_osq(2)
    assert ep.convention == "supertranspose"
    assert [a["reading"] for a in ep.attempts] == ["literal", "supertranspose"]
    assert ep.attempts[0]["closed"] is False
    p = ep.pair
    # literal reading's V1 was 3|1 before the closure check; the adopted
    # reading is purely even
    assert (p.v1.even_dim, p.v1.odd_dim) == (3, 0)
    assert (p.v2.even_dim, p.v2.odd_dim) == (1, 0)
    assert verify(p).passed


def test_series_osq1_dims():
    p = C.series_osq(1).pair
    assert (p.v1.even_dim, p.v1.odd_dim) == (1, 0)
    assert p.v2.dim == 0


def test_osp_is_subtensor_of_gl():
    # inclusion commutes with brackets: structure constants reproduce the
    # envelope triple products of the embedded matrices
    ep = C.series_osp(1, 1, 1)
    p = ep.pair
    for (j, i, k), comps in p.m1.items():
        u, x, y = ep.basis2[j], ep.basis1[i], ep.basis1[k]
        a = sign_a(p.v1.parities[i], p.v2.parities[j], p.v1.parities[k])
        direct = x @ u @ y - (y @ u @ x).scale(a)
        recomposed = ep.matrix_of(1, comps)
        assert direct == recomposed


def test_centralizer_zero_elements_full_pair():
    ep = C.series_gl(1, 1)
    z1 = (F(0),) * 4
    sub = C.centralizer_subpair(ep, z1, z1)
    assert sub.pair.v1.dim == 4 and sub.pair.v2.dim == 4


def test_centralizer_gl20_diagonal():
    ep = C.series_gl(2, 0)
    lab = list(ep.pair.v1.labels)
    a = unit_vec(lab.index("E0,0"), 4)
    b = tuple(F(int(l in ("E0,0", "E1,1"))) for l in lab)  # identity
    sub = C.centralizer_subpair(ep, a, b)
    assert sub.pair.v1.dim == 2  # diagonal matrices
    assert verify(sub.pair).passed


def test_centralizer_identity_is_central():
    ep = C.series_gl(1, 1)
    lab = list(ep.pair.v1.labels)
    ident = tuple(F(int(l in ("E0,0", "E1,1"))) for l in lab)
    sub = C.centralizer_subpair(ep, ident, ident)
    assert sub.pair.v1.dim == 4 and sub.pair.v2.dim == 4


def test_lie_data_validation():
    with pytest.raises(ValueError):
        C.LieData(("a", "b"), {(0, 1): {0: F(1)}})  # not antisymmetric
    # Jacobi failure: [a,b]=a, [b,c]=b, [c,a]=c has cyclic sum -(a+b+c)
    bad = {
        (0, 1): {0: F(1)},
        (1, 0): {0: F(-1)},
        (1, 2): {1: F(1)},
        (2, 1): {1: F(-1)},
        (2, 0): {2: F(1)},
        (0, 2): {2: F(-1)},
    }
    with pytest.raises(ValueError):
        C.LieData(("a", "b", "c"), bad)


def test_killing_form_oracles():
    k = C.killing_form(C.sl2())
    assert k[1, 1] == 8 and k[0, 2] == 4 and k[2, 0] == 4
    assert k[0, 0] == 0 and k[0, 1] == 0
    k3 = C.killing_form(C.so3())
    assert k3 == Matrix.identity(3).scale(-2)
    abelian = C.LieData(("a", "b"), {})
    assert C.killing_form(abelian).is_zero()


def test_magnetic_pair_formula_and_verify():
    g = C.sl2()
    k = C.killing_form(g)
    mp = C.magnetic_pair(g, k, 1)
    h = unit_vec(1, 3)
    e = unit_vec(0, 3)
    assert mp.bracket(1, h, h, e) == (F(8), F(0), F(0))  # (h,h)e - (h,e)h = 8e
    x = (F(2), F(-1), F(3))
    assert mp.bracket(1, h, x, x) == (F(0),) * 3  # [X, X]_U = 0
    assert verify(mp).passed
    assert all(r.passed for r in C.g_equivariance_report(mp, g))


def test_magnetic_pair_abelian_identity_form():
    g = C.LieData(("a", "b"), {})
    mp = C.magnetic_pair(g, Matrix.identity(2), 1)
    assert verify(mp).passed


def test_magnetic_pair_rejects_degenerate_form():
    g = C.LieData(("a", "b"), {})
    with pytest.raises(ValueError):
        C.magnetic_pair(g, Matrix.from_rows([[1, 0], [0, 0]]), 1)


def test_sym2_abelian_all_zero():
    g = C.LieData(("a", "b"), {})
    pair, report = C.sym2_pair(g, Matrix.identity(2))
    assert pair.m1 == {} and pair.m2 == {}
    assert report["c_substituted"]["verify"].passed
    assert report["quotient"] is not None  # everything is invariant


def test_sym2_so3_report():
    g = C.so3()
    eta = C.killing_form(g).scale(F(-1, 2))
    pair, report = C.sym2_pair(g, eta)
    assert report["literal"]["well_formed"] is False
    cs = report["c_substituted"]
    assert cs["m_bracket_antisymmetry"].passed
    assert cs["invariants_dimension"] == 1
    # complete verdict: every identity of the suite is reported
    names = {(r.identity, r.orientation) for r in cs["verify"].reports}
    assert ("jacobi_analog", 1) in names and ("compatibility", 2) in names
    q = report["quotient"]
    assert q is not None
    assert q["pair"].v2.dim == 5
    assert q["iso_action_kills_invariants"] is True


def test_random_closed_subpairs_verify():
    rng = Lcg64(99)
    space = C.SuperMatrixSpace(2, 1)
    for _ in range(5):
        ep = C.random_closed_subpair(space, rng)
        assert verify(ep.pair).passed


@pytest.mark.parametrize("n, m", [(2, 0), (0, 2)])
def test_random_closed_subpairs_of_purely_even_spaces_verify(n, m):
    # no odd cells: an odd draw falls back to an even matrix
    space = C.SuperMatrixSpace(n, m)
    for seed in range(20):
        assert verify(C.random_closed_subpair(space, Lcg64(seed)).pair).passed


def test_random_perturbation_fails():
    rng = Lcg64(101)
    base = C.series_gl(1, 1).pair
    for _ in range(5):
        assert not verify(C.random_even_perturbation(base, rng)).passed


def test_parity_flip_of_each_series_is_super_jordan():
    for ep in (C.series_gl(1, 1), C.series_osp(1, 1, -1), C.series_q(1), C.series_osq(2)):
        flipped = ep.pair.parity_flip()
        assert all(r.passed for r in check_super_jordan(flipped))


def test_isoquaternionic_alias():
    ep = C.isoquaternionic_pair()
    assert ep.pair.v1.dim == 4 and ep.pair.v1.odd_dim == 0
    assert verify(ep.pair).passed


# Fraction oracles for the checkers that read the tensors: the loops that
# ran before them, over unit vectors with PairStructure.bracket


def _g_equivariance_oracle(pair, g, cap=25):
    n = g.dim
    ads = [g.ad(i) for i in range(n)]
    e = [unit_vec(k, n) for k in range(n)]
    reports = []
    for side in (1, 2):
        def br(iso, a, b):
            return pair.bracket(side, iso, a, b)

        count, failures = 0, []
        for z, u, x, y in itertools.product(range(n), repeat=4):
            lhs = apply(ads[z], br(e[u], e[x], e[y]))
            terms = (br(e[u], apply(ads[z], e[x]), e[y]), br(e[u], e[x], apply(ads[z], e[y])),
                     br(apply(ads[z], e[u]), e[x], e[y]))
            residual = {i: lhs[i] - sum(t[i] for t in terms) for i in range(n)}
            residual = {i: c for i, c in residual.items() if c}
            if residual:
                count += 1
                if len(failures) < cap:
                    failures.append(Failure({"Z": z, "U": u, "X": x, "Y": y}, residual))
        reports.append(AxiomReport(f"g_equivariance[m{side}]", side, n**4, count, failures))
    return reports


def _mirrored_perturbation(pair, rng):
    """A random evenness-respecting entry added to m2 instead of m1."""
    swapped = PairStructure(pair.v2, pair.v1, pair.kind, pair.m2, pair.m1)
    pert = C.random_even_perturbation(swapped, rng)
    return PairStructure(pair.v1, pair.v2, pair.kind, pair.m1, pert.m1)


@pytest.mark.parametrize("build", [C.sl2, C.so3], ids=["sl2", "so3"])
def test_g_equivariance_matches_loop_oracle(build):
    g = build()
    plain = C.magnetic_pair(g, C.killing_form(g), 1)
    rng = Lcg64(7)
    cases = [plain]
    for perturb in (C.random_even_perturbation, _mirrored_perturbation) * 2:
        cases.append(perturb(cases[-1], rng))
    counts = []
    for pair in cases:
        for cap in (1, 3, 25):
            got = [r.to_json() for r in C.g_equivariance_report(pair, g, cap)]
            assert got == [r.to_json() for r in _g_equivariance_oracle(pair, g, cap)], cap
        counts.append([r.failure_count for r in C.g_equivariance_report(pair, g)])
    assert counts[0] == [0, 0] and all(m1 > 1 for m1, _ in counts[1:]), counts
    assert all(m2 > 1 for _, m2 in counts[2:]), counts


def test_g_equivariance_of_a_pair_over_another_algebra():
    # so3's magnetic pair is not sl2-equivariant: every report fails
    so3 = C.so3()
    pair = C.magnetic_pair(so3, C.killing_form(so3), 1)
    got = C.g_equivariance_report(pair, C.sl2(), 1000)
    assert [r.to_json() for r in got] == [
        r.to_json() for r in _g_equivariance_oracle(pair, C.sl2(), 1000)]
    assert [r.failure_count for r in got] == [36, 36]


@pytest.mark.parametrize("pair", [C.series_gl(1, 1).pair, C.series_gl(1, 0).pair],
                         ids=["gl11", "gl10"])
def test_g_equivariance_needs_a_pair_over_g(pair):
    with pytest.raises(SpaceMismatch):
        C.g_equivariance_report(pair, C.sl2())


def _lie_oracle_message(n, c):
    """The error of the loops LieData ran, or None if they pass."""
    c = {k: {o: F(v) for o, v in comps.items() if v} for k, comps in c.items()}
    for i, j in itertools.product(range(n), repeat=2):
        left, right = c.get((i, j), {}), c.get((j, i), {})
        if any(left.get(k, 0) != -right.get(k, 0) for k in set(left) | set(right)):
            return f"structure constants not antisymmetric at {(i, j)}"
    for i, j, k in itertools.product(range(n), repeat=3):
        res = {}
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            for l, cxy in c.get((x, y), {}).items():
                for o, clz in c.get((l, z), {}).items():
                    res[o] = res.get(o, 0) + cxy * clz
        if any(res.values()):
            return f"Jacobi identity fails at {(i, j, k)}"
    return None


def _antisymmetrized(c):
    """The given [i, j] with [j, i] = -[i, j] (no pair given both ways)."""
    return {**c, **{(j, i): {o: -v for o, v in comps.items()} for (i, j), comps in c.items()}}


LIE_CASES = {
    "one-sided": (2, {(0, 1): {0: F(1)}}),
    "diagonal": (2, {(1, 1): {0: F(1)}}),
    "late": (3, {(0, 1): {2: F(1)}, (1, 0): {2: F(-1)}, (2, 1): {0: F(1)}}),
    "cyclic": (3, _antisymmetrized({(0, 1): {0: F(1)}, (1, 2): {1: F(1)}, (2, 0): {2: F(1)}})),
    "jacobi-late": (3, _antisymmetrized({(0, 1): {2: F(1)}, (1, 2): {1: F(2)}})),
    "jacobi-4": (4, _antisymmetrized({(1, 2): {1: F(1)}, (2, 3): {2: F(1, 2)},
                                      (3, 1): {3: F(1)}})),
    "sl2": (3, C.sl2().c),
    "so3": (3, C.so3().c),
}


@pytest.mark.parametrize("name", sorted(LIE_CASES))
def test_lie_data_checks_match_loop_oracle(name):
    n, c = LIE_CASES[name]
    want = _lie_oracle_message(n, c)
    labels = tuple(f"e{k}" for k in range(n))
    if want is None:
        assert C.LieData(labels, c).c == {k: v for k, v in c.items() if v}
    else:
        with pytest.raises(ValueError) as exc:
            C.LieData(labels, c)
        assert str(exc.value) == want


@pytest.mark.parametrize("c", [{(0, 2): {0: F(1)}}, {(0, 1): {2: F(1)}, (1, 0): {2: F(-1)}},
                               {(-1, 0): {0: F(1)}}, {(0, 1, 1): {0: F(1)}}])
def test_lie_data_rejects_indices_out_of_range(c):
    with pytest.raises(ValueError, match="out of range"):
        C.LieData(("a", "b"), c)


def _sym2_quotient_oracle(pair, invariants):
    """The quotient's two flags and its tensors as the loops computed them."""
    n, D = pair.v1.dim, pair.v2.dim
    span = IncrementalSpan()
    for kv in invariants:
        span.insert({i: c for i, c in enumerate(kv) if c})
    complement = [i for i in range(D) if i not in span.pivots]
    qpos = {c: i for i, c in enumerate(complement)}
    eD, en = [unit_vec(k, D) for k in range(D)], [unit_vec(k, n) for k in range(n)]

    def inside(v):
        return not span.reduce(sparse(v))

    iso_ok = all(not any(pair.bracket(1, tuple(kv), x, y))
                 for kv in invariants for x in en for y in en)
    m2_ok = all(inside(pair.bracket(2, z, tuple(kv), w)) and inside(pair.bracket(2, z, w, tuple(kv)))
                for kv in invariants for z in en for w in eD)
    q_m1, q_m2 = {}, {}
    for (qi, col), a, b in itertools.product(enumerate(complement), range(n), range(n)):
        comps = sparse(pair.bracket(1, eD[col], en[a], en[b]))
        if comps:
            q_m1[(qi, a, b)] = comps
    for z, (qi, ci), (qj, cj) in itertools.product(range(n), enumerate(complement),
                                                   enumerate(complement)):
        r = span.reduce(sparse(pair.bracket(2, en[z], eD[ci], eD[cj])))
        if r:
            q_m2[(z, qi, qj)] = {qpos[i]: c for i, c in r.items()}
    return iso_ok, m2_ok, q_m1, q_m2


SYM2_CASES = {
    "so3": (C.so3, F(-1, 2), (True, False)),
    "sl2": (C.sl2, F(1), (False, False)),
    "sl2-3/7": (C.sl2, F(3, 7), (False, False)),
    "abelian": (lambda: C.LieData(("a", "b"), {}), None, (True, True)),
}


@pytest.mark.parametrize("name", sorted(SYM2_CASES))
def test_sym2_quotient_matches_loop_oracle(name):
    build, scale, flags = SYM2_CASES[name]
    g = build()
    eta = Matrix.identity(g.dim) if scale is None else C.killing_form(g).scale(scale)
    pair, report = C.sym2_pair(g, eta)
    q = report["quotient"]
    iso_ok, m2_ok, q_m1, q_m2 = _sym2_quotient_oracle(pair, _invariants(g, pair))
    assert (q["iso_action_kills_invariants"], q["m_bracket_preserves_invariants"]) == flags
    assert (iso_ok, m2_ok) == flags
    want = PairStructure(pair.v1, q["pair"].v2, "isotopic", q_m1, q_m2)
    assert q["pair"].to_json() == want.to_json()
    assert q["verify"].to_json() == verify(want).to_json()


def _invariants(g, pair):
    """S^2(g)^g from its definition: the m in S^2(g) with [z, m] = 0."""
    n, D = g.dim, pair.v2.dim
    labels = pair.v2.labels
    index = {tuple(map(int, l[1:].split(","))): k for k, l in enumerate(labels)}
    rows = []
    for z, k in itertools.product(range(n), range(D)):
        row = [F(0)] * D
        for col, l in enumerate(labels):
            a, b = map(int, l[1:].split(","))
            for x, y in ((a, b), (b, a)):
                for o, c in g.c.get((z, x), {}).items():
                    if index[tuple(sorted((o, y)))] == k:
                        row[col] += c
        rows.append(row)
    return kernel_basis(Matrix.from_rows(rows))


def _centralizer_kernel_oracle(pair, side, iso, first):
    dim = pair.space(side).dim
    cols = [pair.bracket(side, iso, first, unit_vec(k, dim)) for k in range(dim)]
    return kernel_basis(Matrix.from_rows([[cols[k][r] for k in range(dim)] for r in range(dim)]))


@pytest.mark.parametrize("build", [lambda: C.series_gl(1, 1), lambda: C.series_gl(2, 0),
                                   lambda: C.series_osp(1, 1, 1)], ids=["gl11", "gl20", "osp+11"])
def test_centralizer_subpairs_match_bracket_kernels(build):
    ep = build()
    pair, rng = ep.pair, Lcg64(5)
    for k in range(8):  # homogeneous a and b, of parities k % 2 and k // 2 % 2
        a = [F(rng.choice((0, 0, 1, -1, 2))) if p == k % 2 else F(0) for p in pair.v1.parities]
        b = [F(rng.choice((0, 0, 1, -1, 3))) if p == k // 2 % 2 else F(0) for p in pair.v2.parities]
        sub = C.centralizer_subpair(ep, a, b)
        for side, iso, first, basis in ((1, b, a, sub.basis1), (2, a, b, sub.basis2)):
            kernel = _centralizer_kernel_oracle(pair, side, tuple(iso), tuple(first))
            got = [ep.matrix_of(side, sparse(v)) for v in kernel]
            # the subpair's basis spans the bracket kernel, parity by parity
            assert len(basis) == len(got)
            span = IncrementalSpan()
            for m in got:
                span.insert(m.flat())
            assert all(span.contains(m.flat()) for m in basis)


def test_centralizer_rejects_vectors_of_the_wrong_length():
    with pytest.raises(SpaceMismatch):
        C.centralizer_subpair(C.series_gl(1, 1), (F(1),) * 3, (F(1),) * 4)


# SHA-256 of the outputs below, recorded before the vector form inside
# exactlin changed from dense tuples to sparse dicts; each must stay
# byte-identical.
CENTRALIZER_PINS = {
    "gl11": (lambda: C.series_gl(1, 1), "f9d1d07ca649f5b7bfd514d35b820d08e8e14e50036f94527b030c21da9cb0dd"),
    "gl21": (lambda: C.series_gl(2, 1), "1da1cc8d4e5aadb7ccd84bfb67fb46d6fa403855ba361724b743a949b52a6cd6"),
    "osp+21": (lambda: C.series_osp(2, 1, 1), "bae09b8aa79e8eb2c82e91440a789af68ead277cb85b3b0d982f1d50abdd7bcf"),
    "q2": (lambda: C.series_q(2), "2808bc7f46450881d6f65ba01176a462e15a5e3c7d95872e9542c3dfc64be426"),
    "isoq": (C.isoquaternionic_pair, "3f177af90ca1e7e019ce55e6284739518c8a88743d48ce7847183b0c453632e7"),
}


def _pin_cases(pair, rng):
    """Eight seeded (a, b): four homogeneous of parities (k % 2, k // 2),
    then four of mixed parity, whose kernels are often not graded."""
    for k in range(8):
        pa, pb = (k % 2, k // 2) if k < 4 else (None, None)
        a = [F(rng.choice((0, 0, 1, -1, 2))) if pa in (None, p) else F(0) for p in pair.v1.parities]
        b = [F(rng.choice((0, 0, 1, -1, 3))) if pb in (None, p) else F(0) for p in pair.v2.parities]
        yield a, b


@pytest.mark.parametrize("name", sorted(CENTRALIZER_PINS))
def test_centralizer_outputs_keep_their_pinned_digest(name):
    build, digest = CENTRALIZER_PINS[name]
    ep = build()
    outs = []
    for a, b in _pin_cases(ep.pair, Lcg64(11)):
        try:
            outs.append(canonical_json(C.centralizer_subpair(ep, a, b).pair.to_json()))
        except ValueError as exc:
            outs.append(f"{type(exc).__name__}: {exc}")
    # isoq is all even, so its kernels are always graded; each other
    # build meets a kernel that is not
    assert any(o.startswith("ValueError") for o in outs) == (name != "isoq")
    assert hashlib.sha256("\n".join(outs).encode()).hexdigest() == digest


@pytest.mark.parametrize("build, digest", [
    (C.so3, "f2f4bbbb4ca11f181d0a28ba87ee685a44bef49b55ca19ef61ce611ae54a0088"),
    (C.sl2, "2668570621929b3dbfd527166557850a68bbe99b465d6b6f9ab13700e779e6e7"),
], ids=["so3", "sl2"])
def test_sym2_quotient_pair_keeps_its_pinned_digest(build, digest):
    g = build()
    _, report = C.sym2_pair(g, C.killing_form(g).scale(F(-1, 2)))
    text = canonical_json(report["quotient"]["pair"].to_json())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("name", ["gl11", "gl21", "osp+21", "q2"])
def test_centralizer_graded_split_matches_zassenhaus_oracle(name):
    """Each side's subpair basis is the RREF of the bracket kernel's
    intersection with each parity, even part first, as the dense
    oracle's Zassenhaus intersection gives it; a kernel whose two
    intersections fall short of its dimension is not graded and raises."""
    ep = CENTRALIZER_PINS[name][0]()
    pair, raised = ep.pair, 0
    for a, b in _pin_cases(pair, Lcg64(11)):
        want = []
        for side, iso, first in ((1, b, a), (2, a, b)):
            kernel = _centralizer_kernel_oracle(pair, side, tuple(iso), tuple(first))
            ps = pair.space(side).parities
            units = [[unit_vec(k, len(ps)) for k in range(len(ps)) if ps[k] == p] for p in (0, 1)]
            parts = [v for u in units for v in intersect_spans(kernel, u)]
            want.append([ep.matrix_of(side, sparse(v)) for v in parts]
                        if len(parts) == len(kernel) else None)
        if None in want:
            with pytest.raises(ValueError, match="not parity graded"):
                C.centralizer_subpair(ep, a, b)
            raised += 1
        else:
            sub = C.centralizer_subpair(ep, a, b)
            assert [sub.basis1, sub.basis2] == want
    assert raised


# SHA-256 of canonical pair JSON of the larger series builds, recorded
# before the envelope brackets were read off block products; each must
# stay byte-identical.
SERIES_PINS = {
    "gl32": (lambda: C.series_gl(3, 2), "2e72034cb2d5b50d71680711b59ca6a470ba36ba6cd792040c881d1298509346"),
    "gl44": (lambda: C.series_gl(4, 4), "83ed5917bf48ee8ea957371a15d5899cf4eb905dc94c6cad4098f7711b3dcbff"),
    "osp+64": (lambda: C.series_osp(6, 4, 1), "6e0acedc450ff83f1230da3b4599d6677068b04119b10e3aed36212b5d2ba40f"),
    "osp-42": (lambda: C.series_osp(4, 2, -1), "12e31c67494c41cb576eee5517628fc722e540a82138ded537e31ceef895b94a"),
    "q3": (lambda: C.series_q(3), "9aacd7c5cd3050d1c6858f5a2173fb91c9f207bbd9240dcd9a709e17e4f24ca4"),
    "q4": (lambda: C.series_q(4), "101353abc7d41cb6a7f1a48a79995abeb770b3fddc9fbca7b1d14b5f52113016"),
}


@pytest.mark.parametrize("name", sorted(SERIES_PINS))
def test_series_builds_keep_their_pinned_digest(name):
    build, digest = SERIES_PINS[name]
    text = canonical_json(build().pair.to_json())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# The loop over (u, x, y) basis triples that computed the envelope
# brackets before they were read off block products, kept as the oracle.


def _oracle_bracket(x, u, y, s):
    return x @ u @ y + (y @ u @ x).scale(s)


def _envelope_oracle(space, basis1, basis2, kind="isotopic"):
    """(m1, m2) in the order the triple loop built them, or the
    (side, triple, offending matrix) of the first bracket that escapes."""
    sgn = -1 if kind == "isotopic" else 1
    p1 = [space.parity_of(b) for b in basis1]
    p2 = [space.parity_of(b) for b in basis2]

    def build(iso, iso_par, args, arg_par, side):
        span = IncrementalSpan(track_combos=True)
        for b in args:
            span.insert(b.flat())
        tensor = {}
        for (j, u), (i, x), (k, y) in itertools.product(enumerate(iso), enumerate(args),
                                                        enumerate(args)):
            prod = _oracle_bracket(x, u, y, sgn * sign_a(arg_par[i], iso_par[j], arg_par[k]))
            if prod.is_zero():
                continue
            coeffs = span.solve(prod.flat())
            if coeffs is None:
                return side, (j, i, k), prod
            comps = {o: c for o, c in coeffs.items() if c}
            if comps:
                tensor[(j, i, k)] = comps
        return tensor

    m1 = build(basis2, p2, basis1, p1, 1)
    if isinstance(m1, tuple):
        return m1
    m2 = build(basis1, p1, basis2, p2, 2)
    return m2 if isinstance(m2, tuple) else (m1, m2)


def _ordered(tensor):
    """A tensor with the order of its keys and of each key's components."""
    return [(key, list(comps.items())) for key, comps in tensor.items()]


def _assert_matches_envelope_oracle(ep, kind="isotopic"):
    m1, m2 = _envelope_oracle(ep.space, ep.basis1, ep.basis2, kind)
    assert _ordered(ep.pair.m1) == _ordered(m1)
    assert _ordered(ep.pair.m2) == _ordered(m2)


ORACLE_SERIES = [
    ("gl11", lambda: C.series_gl(1, 1)), ("gl21", lambda: C.series_gl(2, 1)),
    ("gl22", lambda: C.series_gl(2, 2)), ("osp+22", lambda: C.series_osp(2, 2, 1)),
    ("osp-22", lambda: C.series_osp(2, 2, -1)), ("osp+11", lambda: C.series_osp(1, 1, 1)),
    ("osp-11", lambda: C.series_osp(1, 1, -1)), ("q2", lambda: C.series_q(2)),
    ("osq1", lambda: C.series_osq(1)), ("osq2", lambda: C.series_osq(2)),
    ("osq3", lambda: C.series_osq(3)),
]


@pytest.mark.parametrize("build", [b for _, b in ORACLE_SERIES], ids=[n for n, _ in ORACLE_SERIES])
def test_series_brackets_match_triple_loop_oracle(build):
    _assert_matches_envelope_oracle(build())


def test_plus_model_brackets_match_triple_loop_oracle():
    space = C.SuperMatrixSpace(1, 1)
    units = [space.unit(i, j) for i, j in space.units()]
    _assert_matches_envelope_oracle(C.envelope_pair(space, units, units, "superJordan"),
                                    "superJordan")


@pytest.mark.parametrize("name", sorted(CENTRALIZER_PINS))
def test_centralizer_brackets_match_triple_loop_oracle(name):
    ep = CENTRALIZER_PINS[name][0]()
    built = 0
    for a, b in _pin_cases(ep.pair, Lcg64(11)):
        try:
            sub = C.centralizer_subpair(ep, a, b)
        except ValueError:
            continue
        _assert_matches_envelope_oracle(sub)
        built += 1
    assert built


def _osq_literal_bases(n):
    """The bases of series_osq's literal reading, which does not close."""
    space = C.SuperMatrixSpace(n, n)
    e = space.unit
    b1 = [C._q_block(space, 0, e(i, i)) for i in range(n)]
    b1 += [C._q_block(space, 0, e(i, j) + e(j, i)) for i in range(n) for j in range(i + 1, n)]
    b1 += [C._q_block(space, 1, e(i, j) + e(j, i, -1)) for i in range(n) for j in range(i + 1, n)]
    b2 = [C._q_block(space, 1, e(i, j)) for i in range(n) for j in range(n)]
    return space, b1, b2


@pytest.mark.parametrize("case", ["osq1", "osq2", "osq3", "upper"])
def test_not_closed_matches_triple_loop_oracle(case):
    if case == "upper":  # the spans of test_envelope_not_closed
        space = C.SuperMatrixSpace(2, 0)
        b1, b2 = [space.unit(0, 0), space.unit(1, 1)], [space.unit(0, 1)]
    else:
        space, b1, b2 = _osq_literal_bases(int(case[-1]))
    want = _envelope_oracle(space, b1, b2)
    with pytest.raises(C.NotClosed) as exc:
        C.envelope_pair(space, b1, b2)
    assert (exc.value.side, exc.value.triple, exc.value.offending) == want


def _random_closed_oracle(space, rng):
    """The bases random_closed_subpair grew by the triple loop."""
    sides = []
    for _ in range(2):
        span, kept = IncrementalSpan(), []
        for _ in range(1 + rng.below(2)):
            b = C._random_homogeneous(space, rng, rng.below(2))
            if span.insert(b.flat()):
                kept.append(b)
        sides.append((kept, span))
    (b1, s1), (b2, s2) = sides
    cap = space.size**2
    changed = True
    while changed and (len(b1) < cap or len(b2) < cap):
        changed = False
        for iso_b, arg_b, arg_span in ((b2, b1, s1), (b1, b2, s2)):
            for u, x, y in itertools.product(iso_b, arg_b, arg_b):
                a = sign_a(space.parity_of(x), space.parity_of(u), space.parity_of(y))
                prod = _oracle_bracket(x, u, y, -a)
                if not prod.is_zero() and arg_span.insert(prod.flat()):
                    arg_b.append(prod)
                    changed = True
    return b1, b2


@pytest.mark.parametrize("n, m", [(2, 1), (1, 1), (1, 2), (2, 0), (0, 2)])
def test_random_closed_subpair_bases_match_triple_loop_oracle(n, m):
    space = C.SuperMatrixSpace(n, m)
    for seed in range(40):
        ep = C.random_closed_subpair(space, Lcg64(seed))
        assert (ep.basis1, ep.basis2) == _random_closed_oracle(space, Lcg64(seed)), seed


@pytest.mark.parametrize("rows, cols", [(2, 2), (4, 4), (3, 2), (1, 3)])
def test_forms_of_the_wrong_shape_are_rejected(rows, cols):
    # a smaller form used to read its missing entries as 0
    g = C.sl2()
    form = Matrix(rows, cols, [(i, i, 1) for i in range(min(rows, cols))])
    shapes = f"{rows} x {cols}, the algebra needs 3 x 3"
    with pytest.raises(ValueError, match=f"form is {shapes}"):
        C.magnetic_pair(g, form)
    with pytest.raises(ValueError, match=f"eta is {shapes}"):
        C.LieData(g.labels, g.c, form)
