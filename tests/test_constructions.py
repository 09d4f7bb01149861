"""Series builders, envelopes, Killing forms, magnetic and S^2 pairs."""

from fractions import Fraction

import pytest

from isopairs import constructions as C
from isopairs.exactlin import Matrix
from isopairs.pairs import check_super_jordan, verify
from isopairs.rng import Lcg64

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
        from isopairs.supercore import sign_a

        a = sign_a(p.v1.parities[i], p.v2.parities[j], p.v1.parities[k])
        direct = x @ u @ y - (y @ u @ x).scale(a)
        recomposed = ep.matrix_of(1, [comps.get(t, F(0)) for t in range(p.v1.dim)])
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
