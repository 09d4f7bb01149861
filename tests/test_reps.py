"""Representation checkers, word modules, conversions, graph reps."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isopairs import reps as R
from isopairs.constructions import (
    SuperMatrixSpace,
    isoquaternionic_pair,
    random_closed_subpair,
    series_gl,
    series_osp,
    series_q,
    sl2,
)
from isopairs.exactlin import IncrementalSpan, Matrix, axpy
from isopairs.pairs import PairStructure, SpaceMismatch, check_symmetry
from isopairs.rng import Lcg64
from isopairs.supercore import SuperSpace, expand_template, sign_a
from isopairs.tkk import superalgebra_from_pair

from dense_oracle import kernel_basis, rref

F = Fraction


def unit(k, d):
    return tuple(F(int(i == k)) for i in range(d))


def zero_rep(pair, hdim=2):
    H = SuperSpace.make([f"h{i}" for i in range(hdim)], [0] * hdim)
    z = Matrix.zeros(hdim, hdim)
    return R.PairRep(pair, H, [z] * pair.v1.dim, [z] * pair.v2.dim)


def random_rep(pair, rng, hdim=3):
    H = SuperSpace.make([f"h{i}" for i in range(hdim)], [0] * hdim)

    def rand():
        return Matrix.from_rows(
            [[rng.coefficient() for _ in range(hdim)] for _ in range(hdim)]
        )

    return R.PairRep(pair, H, [rand() for _ in range(pair.v1.dim)],
                     [rand() for _ in range(pair.v2.dim)])


def test_zero_rep_passes():
    pair = series_gl(1, 1).pair
    assert R.check_rep(zero_rep(pair)).passed


def test_tautological_rep_passes():
    for ep in (series_gl(1, 1), series_gl(2, 1)):
        taut = R.tautological_rep(ep)
        assert R.check_rep(taut).passed


def test_random_maps_fail_generically():
    pair = series_gl(2, 0).pair
    rng = Lcg64(3)
    fails = sum(1 for _ in range(5) if not R.check_rep(random_rep(pair, rng)).passed)
    assert fails == 5


def test_check_split():
    pair = isoquaternionic_pair().pair
    res = R.isoquaternion_fundamental()
    assert R.check_split(res.rep, res.split).passed
    # the tautological rep on the column space is not split
    taut = R.tautological_rep(isoquaternionic_pair())
    whole = R.SplitData(tuple(range(2)), ())
    assert not R.check_split(taut, R.SplitData((0,), (1,))).passed


def test_grading_validation():
    pair = isoquaternionic_pair().pair
    labels = list(pair.v1.labels)
    deg = [0] * 4
    deg[labels.index("E0,1")] = 1
    deg[labels.index("E1,0")] = -1
    graded = R.GradedPairData(pair, tuple(deg), tuple(deg))
    assert graded.validate().passed
    bad = R.GradedPairData(pair, (0, 0, 0, 0), (0, 0, 0, 0))
    rep = bad.validate()
    assert not rep.passed  # degree-0 subpair is not trivial


def test_hw_zero_characters_collapse_to_vacua():
    pair = isoquaternionic_pair().pair
    labels = list(pair.v1.labels)
    deg = [0] * 4
    deg[labels.index("E0,1")] = 1
    deg[labels.index("E1,0")] = -1
    graded = R.GradedPairData(pair, tuple(deg), tuple(deg))
    res = R.hw_split_module(graded, {}, {}, cap=4)
    assert res.total_dim == 2 and res.stabilized
    assert R.check_rep(res.rep).passed and R.check_split(res.rep, res.split).passed


def test_hw_cap_one_bound():
    pair = isoquaternionic_pair().pair
    labels = list(pair.v1.labels)
    deg = [0] * 4
    deg[labels.index("E0,1")] = 1
    deg[labels.index("E1,0")] = -1
    graded = R.GradedPairData(pair, tuple(deg), tuple(deg))
    res = R.hw_split_module(graded, {}, {}, cap=1)
    assert res.total_dim <= 2 + 4 + 4


def test_isoquaternion_fundamental():
    res = R.isoquaternion_fundamental()
    assert res.total_dim == 4
    assert res.stabilized
    assert len(res.split.h1) == 2 and len(res.split.h2) == 2
    assert R.check_rep(res.rep).passed
    assert R.check_split(res.rep, res.split).passed


def test_fundamental_tkk_lift():
    res = R.isoquaternion_fundamental()
    alg = superalgebra_from_pair(isoquaternionic_pair().pair)
    rep = R.tkk_rep_from_split(res.rep, res.split, alg)
    assert rep.passed
    assert rep.adopted_form.startswith("central extension")


def test_tkk_lift_zero_rep():
    pair = series_gl(1, 1).pair
    alg = superalgebra_from_pair(pair)
    r0 = zero_rep(pair)
    rep = R.tkk_rep_from_split(r0, R.SplitData((0,), (1,)), alg)
    assert rep.passed and rep.adopted_form == "printed"


def test_tkk_lift_precondition():
    pair = series_gl(1, 1).pair
    alg = superalgebra_from_pair(pair)
    rng = Lcg64(77)
    bad = random_rep(pair, rng, hdim=2)
    with pytest.raises(R.PreconditionError):
        R.tkk_rep_from_split(bad, R.SplitData((0,), (1,)), alg)


def test_pair_rep_from_lie_and_back():
    g = sl2()
    T0 = [g.ad(i) for i in range(3)]
    rng = Lcg64(123)
    for _ in range(10):
        while True:
            Q = Matrix.from_rows(
                [[rng.coefficient() for _ in range(3)] for _ in range(3)]
            )
            try:
                r = R.pair_rep_from_lie(g, T0, Q)
                break
            except ValueError:
                continue
        assert R.check_rep(r).passed
        back, report = R.lie_from_pair_rep(r)
        assert report.passed
        assert all(a == b for a, b in zip(back, T0))


def test_pair_rep_from_lie_rejects_singular():
    g = sl2()
    T0 = [g.ad(i) for i in range(3)]
    with pytest.raises(ValueError):
        R.pair_rep_from_lie(g, T0, Matrix.zeros(3, 3))


def test_lie_from_pair_rep_identity_q():
    g = sl2()
    T0 = [g.ad(i) for i in range(3)]
    r = R.pair_rep_from_lie(g, T0, Matrix.identity(3))
    assert all(a == b for a, b in zip(r.T1, T0))
    back, report = R.lie_from_pair_rep(r)
    assert report.passed and all(a == b for a, b in zip(back, T0))


def test_lie_from_pair_rep_precondition():
    pair = series_gl(1, 1).pair  # dim V2 = 4
    with pytest.raises(R.PreconditionError):
        R.lie_from_pair_rep(zero_rep(pair))


def test_graph_rep_reduces_to_check_rep():
    rng = Lcg64(31)
    space = SuperMatrixSpace(2, 1)
    for _ in range(4):
        ep = random_closed_subpair(space, rng)
        taut = R.tautological_rep(ep)
        g = R.check_graph_rep(R.graph_from_rep(taut))
        c = R.check_rep(taut)
        c_idents = [r for r in c.reports if "identity" in r.identity]
        assert [(r.total, r.failure_count, [f.to_json() for f in r.failures])
                for r in g.reports] == [
            (r.total, r.failure_count, [f.to_json() for f in r.failures])
            for r in c_idents
        ]
    # invalid reps match too
    pair = series_gl(2, 0).pair
    for _ in range(4):
        bad = random_rep(pair, rng)
        g = R.check_graph_rep(R.graph_from_rep(bad))
        c = R.check_rep(bad)
        assert g.passed == c.passed
        c_idents = [r for r in c.reports if "identity" in r.identity]
        assert [r.failure_count for r in g.reports] == [
            r.failure_count for r in c_idents
        ]


# ---------------------------------------------------------------------------
# an independent oracle for the Definition-2 identities: dense Fraction
# matrices and hand-signed sign_a triple products, as the checkers wrote
# them before they read the catalog templates


def _dense(m):
    return [list(m.row(i)) for i in range(m.rows)]


def _dense_mul(a, b):
    out = [[F(0)] * len(b[0]) for _ in a]
    for i, row in enumerate(a):
        for k, x in enumerate(row):
            if x:
                for j, y in enumerate(b[k]):
                    out[i][j] += x * y
    return out


def _add_scaled(acc, m, c):
    return [[x + c * y for x, y in zip(r, s)] for r, s in zip(acc, m)]


def _definition2_oracle(pair, T1s, T2s, P, Q, cap=R.FAILURE_CAP):
    """Per identity (T1, then T2): (total, failure count, the first
    ``cap`` failures as (k, l, m, n, residual)), with k the family and
    (l, m, n) the tensor key.  Family k of side s is checked against
    every family of the other side, weighted by P[k, .] or Q[., k]."""
    fams = {1: [[_dense(t) for t in f] for f in T1s], 2: [[_dense(t) for t in f] for f in T2s]}
    weight = {1: lambda k, l: P[k, l], 2: lambda k, l: Q[l, k]}
    reports = []
    for side, tensor in ((1, pair.m1), (2, pair.m2)):
        other = 3 - side
        p_own, p_other = pair.space(side).parities, pair.space(other).parities
        d_own, d_other = len(p_own), len(p_other)
        total, count, failures = 0, 0, []
        for k, own in enumerate(fams[side]):
            for u, x, y in itertools.product(range(d_other), range(d_own), range(d_own)):
                n = len(own[0])
                res = [[F(0)] * n for _ in range(n)]
                for o, c in tensor.get((u, x, y), {}).items():
                    res = _add_scaled(res, own[o], c)
                a = sign_a(p_own[x], p_other[u], p_own[y])
                for l, T in enumerate(fams[other]):
                    w = weight[side](k, l)
                    res = _add_scaled(res, _dense_mul(_dense_mul(own[x], T[u]), own[y]), -w)
                    res = _add_scaled(res, _dense_mul(_dense_mul(own[y], T[u]), own[x]), w * a)
                total += 1
                bad = {i * n + j: v for i, row in enumerate(res) for j, v in enumerate(row) if v}
                if bad:
                    count += 1
                    if len(failures) < cap:
                        failures.append((k, u, x, y, bad))
        reports.append((total, count, failures))
    return reports


def _perturbed(rep, k, i, j, c):
    T1 = list(rep.T1)
    T1[k] = T1[k] + Matrix(T1[k].rows, T1[k].cols, [(i, j, c)])
    return R.PairRep(rep.pair, rep.H, T1, list(rep.T2))


def _oracle_inputs():
    """Tautological reps of gl(1,1), gl(2,1) and osp+(2,1), each as is
    and with one operator entry perturbed, and random gl(2,0) reps."""
    out = []
    for ep in (series_gl(1, 1), series_gl(2, 1), series_osp(2, 1, 1)):
        taut = R.tautological_rep(ep)
        n = taut.H.dim
        out += [taut, _perturbed(taut, 0, 0, n - 1, F(-3, 2)), _perturbed(taut, 1, n - 1, 0, F(7))]
    rng = Lcg64(41)
    out += [random_rep(series_gl(2, 0).pair, rng) for _ in range(2)]
    return out


def _failures(report):
    return [(list(f.where.items()), f.residual) for f in report.failures]


def test_check_rep_matches_the_dense_oracle():
    one, cap = Matrix.from_rows([[1]]), 3
    verdicts = []
    for rep in _oracle_inputs():
        _, t1, t2 = R.check_rep(rep, cap).reports
        want = _definition2_oracle(rep.pair, [rep.T1], [rep.T2], one, one, cap)
        for got, (total, count, failures), head, letters in (
            (t1, want[0], ("rep.T1_identity", 1, "printed"), "UXY"),
            (t2, want[1], ("rep.T2_identity", 2, "corrected: second word reversed"), "XUV"),
        ):
            assert (got.identity, got.orientation, got.adopted_form) == head
            assert (got.total, got.failure_count) == (total, count)
            assert _failures(got) == [
                (list(zip(letters, key)), bad) for _, *key, bad in failures
            ]
        verdicts.append(t1.passed and t2.passed)
    # the unperturbed tautological reps pass, the perturbed and random ones fail
    assert verdicts == [True, False, False] * 3 + [False, False]


def test_check_graph_rep_matches_the_dense_oracle():
    one = Matrix.from_rows([[1]])
    P = Matrix.from_rows([[1, F(1, 2)], [0, -2]])
    Q = Matrix.from_rows([[F(1, 3), 0], [1, 1]])
    inputs = _oracle_inputs()
    cases = [([r.T1], [r.T2], one, one, r) for r in inputs]
    # each tautological rep beside its perturbation, and two random reps
    for a, b in zip(inputs[::3], inputs[1::3]):
        cases.append(([a.T1, b.T1], [b.T2, a.T2], P, Q, a))
    for T1s, T2s, mix1, mix2, rep in cases:
        got = R.check_graph_rep(R.GraphRep(rep.pair, rep.H, T1s, T2s, mix1, mix2))
        want = _definition2_oracle(rep.pair, T1s, T2s, mix1, mix2)
        for report, (total, count, failures), name, letters in zip(
            got.reports, want, ("graph.T1_identity", "graph.T2_identity"),
            (("alpha", "U", "X", "Y"), ("beta", "X", "U", "V")),
        ):
            assert (report.identity, report.adopted_form) == (name, "printed")
            assert (report.total, report.failure_count) == (total, count)
            assert _failures(report) == [
                (list(zip(letters, key)), bad) for *key, bad in failures
            ]


def test_graph_rep_zero_mixing():
    # P = 0 forces T1(bracket image) = 0; zero families pass
    pair = series_gl(1, 1).pair
    r0 = zero_rep(pair)
    gr = R.GraphRep(pair, r0.H, [list(r0.T1)], [list(r0.T2)],
                    Matrix.zeros(1, 1), Matrix.zeros(1, 1))
    assert R.check_graph_rep(gr).passed


def test_graph_rep_two_copies_half_mixing():
    res = R.isoquaternion_fundamental()
    r = res.rep
    half = Matrix.from_rows([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])
    gr = R.GraphRep(
        r.pair, r.H, [list(r.T1), list(r.T1)], [list(r.T2), list(r.T2)], half, half
    )
    verdict = R.check_graph_rep(gr)  # computed, not assumed
    assert verdict.passed  # sum over beta of 1/2-weights reproduces the identity


def test_graph_rep_shape_mismatch():
    pair = series_gl(1, 1).pair
    r0 = zero_rep(pair)
    with pytest.raises(Exception):
        R.GraphRep(pair, r0.H, [list(r0.T1)], [list(r0.T2)],
                   Matrix.zeros(2, 1), Matrix.zeros(1, 1))


def test_induced_from_full_pair_returns_subrep():
    pair = isoquaternionic_pair().pair
    res = R.isoquaternion_fundamental()
    full = [unit(k, 4) for k in range(4)]
    ind, cont = R.induced_split_module(pair, full, full, res.rep, res.split, cap=3)
    assert ind.stabilized and ind.total_dim == res.total_dim
    assert cont.passed


def test_induced_from_zero_subpair_is_free():
    pair = isoquaternionic_pair().pair
    H0 = SuperSpace.make(["v1", "v2"], [0, 0])
    empty = SuperSpace.make([], [])
    subrep = R.PairRep(
        PairStructure(empty, empty, "isotopic", {}, {}), H0, [], []
    )
    ind, _ = R.induced_split_module(
        pair, [], [], subrep, R.SplitData((0,), (1,)), cap=2
    )
    # free alternating words: 2 seeds + 8 length-1 + 32 length-2
    assert ind.total_dim == 42
    assert not ind.stabilized  # a free module never stabilizes


def test_induced_diagonal_character():
    pair = isoquaternionic_pair().pair
    labels = list(pair.v1.labels)
    e00 = labels.index("E0,0")
    e11 = labels.index("E1,1")
    sub = [unit(e00, 4), unit(e11, 4)]
    dspace = SuperSpace.make(["d0", "d1"], [0, 0])
    subpair = PairStructure(dspace, dspace, "isotopic", {}, {})
    H0 = SuperSpace.make(["w1", "w2"], [0, 0])
    T1 = [Matrix.from_rows([[0, 0], [1, 0]]), Matrix.zeros(2, 2)]
    T2 = [Matrix.from_rows([[0, 1], [0, 0]]), Matrix.zeros(2, 2)]
    subrep = R.PairRep(subpair, H0, T1, T2)
    split0 = R.SplitData((0,), (1,))
    assert R.check_rep(subrep).passed and R.check_split(subrep, split0).passed
    ind, _ = R.induced_split_module(pair, sub, sub, subrep, split0, cap=3)
    assert ind.total_dim > 0  # dims reported, engine runs
    assert (1, None) in ind.dims and (2, None) in ind.dims


@pytest.mark.parametrize("side", [1, 2])
def test_induced_rejects_an_embedding_of_another_parity(side):
    # q(1)'s o0,0 is odd; the subpair's one basis element is even
    pair = series_q(1).pair
    even, odd = unit(pair.v1.labels.index("e0,0"), 2), unit(pair.v1.labels.index("o0,0"), 2)
    dspace = SuperSpace.make(["d0"], [0])
    subrep = R.PairRep(PairStructure(dspace, dspace, "isotopic", {}, {}),
                       SuperSpace.make(["w1", "w2"], [0, 0]), [Matrix.zeros(2, 2)],
                       [Matrix.zeros(2, 2)])
    subs = ([odd], [even]) if side == 1 else ([even], [odd])
    with pytest.raises(SpaceMismatch):
        R.induced_split_module(pair, *subs, subrep, R.SplitData((0,), (1,)), cap=2)
    ind, _ = R.induced_split_module(pair, [even], [even], subrep, R.SplitData((0,), (1,)), cap=2)
    assert ind.total_dim > 0


@pytest.mark.parametrize("side", [1, 2])
@pytest.mark.parametrize("length", [1, 3])
def test_induced_rejects_an_embedding_of_the_wrong_length(side, length):
    # q(1)'s sides have dimension 2
    pair = series_q(1).pair
    even = unit(pair.v1.labels.index("e0,0"), 2)
    wrong = (even + (F(1),))[:length]
    dspace = SuperSpace.make(["d0"], [0])
    subrep = R.PairRep(PairStructure(dspace, dspace, "isotopic", {}, {}),
                       SuperSpace.make(["w1", "w2"], [0, 0]), [Matrix.zeros(2, 2)],
                       [Matrix.zeros(2, 2)])
    subs = ([wrong], [even]) if side == 1 else ([even], [wrong])
    with pytest.raises(SpaceMismatch, match=f"side {side} embedding of d0 has length {length}"):
        R.induced_split_module(pair, *subs, subrep, R.SplitData((0,), (1,)), cap=2)


@pytest.mark.parametrize("side", [1, 2])
def test_induced_rejects_more_embeddings_than_subpair_elements(side):
    # the subpair's sides are one-dimensional; two embeddings on one side
    # are a SpaceMismatch, not an IndexError
    pair = series_q(1).pair
    even = unit(pair.v1.labels.index("e0,0"), 2)
    dspace = SuperSpace.make(["d0"], [0])
    subrep = R.PairRep(PairStructure(dspace, dspace, "isotopic", {}, {}),
                       SuperSpace.make(["w1", "w2"], [0, 0]), [Matrix.zeros(2, 2)],
                       [Matrix.zeros(2, 2)])
    subs = ([even, even], [even]) if side == 1 else ([even], [even, even])
    with pytest.raises(SpaceMismatch, match=f"side {side} has 2 embeddings for a 1-dimensional"):
        R.induced_split_module(pair, *subs, subrep, R.SplitData((0,), (1,)), cap=2)


def test_module_builders_reject_super_jordan_pairs():
    # Definition 2 (rep.T1 / rep.T2) is imposed on isotopic pairs only
    pair = series_gl(2, 0).pair.parity_flip()
    deg = tuple(int(l[3]) - int(l[1]) for l in pair.v1.labels)  # deg E_{i,j} = j - i
    with pytest.raises(R.PreconditionError, match="isotopic"):
        R.hw_split_module(R.GradedPairData(pair, deg, deg), {3: F(1)}, {3: F(1)}, cap=4)
    dspace = SuperSpace.make(["d0"], [1])
    subrep = R.PairRep(PairStructure(dspace, dspace, "isotopic", {}, {}),
                       SuperSpace.make(["w1", "w2"], [0, 0]), [Matrix.zeros(2, 2)],
                       [Matrix.zeros(2, 2)])
    sub = [unit(pair.v1.labels.index("E0,0"), 4)]
    with pytest.raises(R.PreconditionError, match="isotopic"):
        R.induced_split_module(pair, sub, sub, subrep, R.SplitData((0,), (1,)), cap=2)


def test_invalid_subrep_rejected():
    pair = isoquaternionic_pair().pair
    rng = Lcg64(9)
    labels = list(pair.v1.labels)
    e00 = labels.index("E0,0")
    sub = [unit(e00, 4)]
    dspace = SuperSpace.make(["d0"], [0])
    subpair = PairStructure(dspace, dspace, "isotopic", {}, {})
    H0 = SuperSpace.make(["w1", "w2"], [0, 0])
    bad = R.PairRep(subpair, H0, [Matrix.from_rows([[1, 0], [0, 1]])],
                    [Matrix.from_rows([[0, 1], [1, 0]])])
    with pytest.raises(R.PreconditionError):
        R.induced_split_module(pair, sub, sub, bad, R.SplitData((0,), (1,)), cap=2)


def test_hw_monotone_dims_and_stability():
    # stabilized quotient at increasing caps keeps the same dimensions
    res4 = R.isoquaternion_fundamental(cap=4)
    res5 = R.isoquaternion_fundamental(cap=5)
    assert res4.total_dim == res5.total_dim == 4
    assert res4.dims == res5.dims


def test_engine_deterministic():
    a = R.isoquaternion_fundamental()
    b = R.isoquaternion_fundamental()
    assert a.rep.to_json() == b.rep.to_json()
    assert a.basis_labels == b.basis_labels


def _bare_engine(cap=3, degrees=None):
    """A word engine on a zero pair with dim V1 != dim V2, odd elements on
    both sides and a seed in each sector, so child ids of the two sectors
    are not interchangeable."""
    v1 = SuperSpace.make(["a0", "a1"], [0, 1])
    v2 = SuperSpace.make(["b0", "b1", "b2"], [0, 0, 1])
    pair = PairStructure(v1, v2, "isotopic", {}, {})
    seeds = [(1, "s1", 0), (2, "s2", 0), (1, "s3", 1)]
    return R._WordEngine(pair, seeds, [], cap, degrees)


ENGINE = _bare_engine()
GRADED = _bare_engine(degrees=((1, -2), (0, 3, -1)))


def _sector(engine, seed, chain):
    start = engine.seeds[seed][0]
    return start if len(chain) % 2 == 0 else 3 - start


def _chains(engine):
    """Every word of ``engine`` as (seed, chain), chain the ((side, op),
    ...) applied left to right in time, listed in id order: the seeds,
    then breadth-first by length, the children of a word in op order."""
    level = [(k, ()) for k in range(len(engine.seeds))]
    chains = list(level)
    for _ in range(engine.cap):
        level = [(seed, chain + ((side, op),)) for seed, chain in level
                 for side in (_sector(engine, seed, chain),)
                 for op in range(engine.pair.space(side).dim)]
        chains += level
    return chains


CHAINS = _chains(ENGINE)


def test_word_engine_child_ids():
    for eng in (ENGINE, GRADED):
        chains = _chains(eng)
        index = {w: wid for wid, w in enumerate(chains)}
        assert len(eng.length) == len(chains)
        for wid, (seed, chain) in enumerate(chains):
            assert eng.length[wid] == len(chain)
            assert eng.sector[wid] == _sector(eng, seed, chain)
            parity = eng.seeds[seed][2] + sum(eng.pair.space(s).parities[op] for s, op in chain)
            assert eng.parity[wid] == parity % 2
            if eng.degrees is None:
                assert eng.degree[wid] is None
            else:
                assert eng.degree[wid] == sum(eng.degrees[s - 1][op] for s, op in chain)
            if len(chain) == eng.cap:
                assert eng.first_child[wid] is None
                continue
            side = eng.sector[wid]
            for op in range(eng.pair.space(side).dim):
                assert eng.first_child[wid] + op == index[seed, chain + ((side, op),)]


@st.composite
def word_vectors(draw):
    eng = ENGINE
    side = draw(st.sampled_from([1, 2]))
    op = draw(st.integers(0, eng.pair.space(side).dim - 1))
    wids = draw(st.lists(st.integers(0, len(CHAINS) - 1), max_size=6, unique=True))
    coeffs = st.fractions(min_value=-3, max_value=3).filter(lambda x: x != 0)
    return side, op, {wid: draw(coeffs) for wid in wids}


@given(word_vectors())
@settings(max_examples=200)
def test_word_engine_act_matches_chain_oracle(case):
    side, op, vec = case
    eng = ENGINE
    index = {w: wid for wid, w in enumerate(CHAINS)}
    moved = {wid: c for wid, c in vec.items() if _sector(eng, *CHAINS[wid]) == side}
    got = eng.act(side, op, vec)
    if any(len(CHAINS[wid][1]) == eng.cap for wid in moved):
        assert got is None
        return
    want = {}
    for wid, c in moved.items():
        seed, chain = CHAINS[wid]
        key = index[seed, chain + ((side, op),)]
        want[key] = want.get(key, 0) + c
    assert got == want


def test_word_engine_act_at_the_cap():
    eng = ENGINE
    last = len(eng.length) - 1
    side = eng.sector[last]
    assert eng.length[last] == eng.cap
    assert eng.act(side, 0, {last: F(1)}) is None
    assert eng.act(3 - side, 0, {last: F(1)}) == {}


def _dense_radical(eng):
    """The radical step with the candidate basis recombined from dense
    kernel vectors: for each kernel vector lam of the stacked residual
    matrix, sum lam_i * S_i over every i."""
    basis = eng._classes()
    pos = {wid: k for k, wid in enumerate(basis)}
    window = [wid for wid in basis if 0 < eng.length[wid] < eng.cap]
    boundary = [{pos[wid]: F(1)} for wid in basis if eng.length[wid] == eng.cap]
    gens = [(1, i) for i in range(eng.pair.v1.dim)] + [(2, j) for j in range(eng.pair.v2.dim)]
    images = {}
    for wid in window:
        for g in gens:
            residual = eng.relations.reduce(eng.act(g[0], g[1], {wid: F(1)}))
            images[wid, g] = {pos[w]: c for w, c in residual.items()}
    S = [{pos[wid]: F(1)} for wid in window]
    while S:
        span = IncrementalSpan()
        for v in S + boundary:
            span.insert(v)
        rows = []
        for g in gens:
            block = []
            for v in S:
                img = {}
                for cls, c in v.items():
                    axpy(img, c, images[basis[cls], g])
                block.append(span.reduce(img))
            for coord in sorted({k for r in block for k in r}):
                rows.append([r.get(coord, F(0)) for r in block])
        if not rows:
            break
        ker = kernel_basis(Matrix.from_rows(rows))
        if len(ker) == len(S):
            break
        new_S = []
        for lam in ker:
            v = {}
            for c, s_vec in zip(lam, S):
                for k, x in s_vec.items() if c else ():
                    v[k] = v.get(k, F(0)) + c * x
            v = {k: x for k, x in v.items() if x}
            if v:
                new_S.append(v)
        S = new_S
    return [{basis[k]: c for k, c in v.items()} for v in S]


def _gl_grading(n=2, m=0):
    pair = series_gl(n, m).pair

    def degs(space):  # deg E_{i,j} = j - i
        return tuple(int(j) - int(i) for i, j in (l[1:].split(",") for l in space.labels))

    return R.GradedPairData(pair, degs(pair.v1), degs(pair.v2))


@pytest.mark.parametrize("n, m", [(1, 0), (2, 0), (1, 1), (2, 1), (1, 2)])
def test_diagonal_grading_is_j_minus_i(n, m):
    want, got = _gl_grading(n, m), R.diagonal_grading(series_gl(n, m).pair)
    assert (got.deg1, got.deg2) == (want.deg1, want.deg2)
    assert got.validate().passed


def test_diagonal_grading_rejects_other_labels():
    with pytest.raises(ValueError, match="matrix-unit pair"):
        R.diagonal_grading(series_q(1).pair)


def _with_radical(on, build):
    """``build()`` with the word engine's quotient told to divide the
    radical out (``on``) or not, whatever its caller passes: highest-
    weight modules divide it out and induced ones do not."""
    quotient = R._WordEngine.quotient
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(R._WordEngine, "quotient", lambda eng, radical: quotient(eng, on))
        return build()


def _hw_module(n, m, weights, cap, radical=True):
    """``rep hw --pair gl:n,m --weights w1,w2 --cap cap``: weight s pins
    chi(E_{k,k}) = 2 s on the last diagonal unit k."""
    graded = _gl_grading(n, m)
    lo = graded.pair.v1.labels.index(f"E{n + m - 1},{n + m - 1}")
    w1, w2 = (F(w) for w in weights)
    return _with_radical(
        radical, lambda: R.hw_split_module(graded, {lo: 2 * w1}, {lo: 2 * w2}, cap=cap))


def _induced_diagonal(chi, cap, radical=False, pair=None):
    """``rep induce --pair gl:2,0 --chi ...`` (or another pair whose two
    sides are alike): the word engine seeded by a character of the even
    diagonal subpair."""
    pair = pair or series_gl(2, 0).pair
    diag = [k for k, (l, p) in enumerate(zip(pair.v1.labels, pair.v1.parities))
            if not p and len(set(l[1:].split(","))) == 1]
    sub = [unit(k, pair.v1.dim) for k in diag]
    dspace = SuperSpace.make([pair.v1.labels[k] for k in diag], [0] * len(diag))
    subpair = PairStructure(dspace, dspace, "isotopic", {}, {})
    H0 = SuperSpace.make(["w1", "w2"], [0, 0])
    T1 = [Matrix.from_rows([[0, 0], [c, 0]]) for c in chi]
    T2 = [Matrix.from_rows([[0, c], [0, 0]]) for c in chi]
    subrep = R.PairRep(subpair, H0, T1, T2)
    return _with_radical(radical, lambda: R.induced_split_module(
        pair, sub, sub, subrep, R.SplitData((0,), (1,)), cap=cap))


@pytest.mark.parametrize("name, chi, cap", [("gl20", (1, 0), 5), ("q1", (0,), 3)])
def test_induced_stabilized_is_no_certificate(name, chi, cap):
    # rep induce --pair gl:2,0 --chi 1,0 --cap 5, and --pair q:1 --cap 3:
    # the generation pass closes within the cap, but without the radical
    # step the quotient it reads off is no representation
    pair = {"gl20": series_gl(2, 0), "q1": series_q(1)}[name].pair
    result, containment = _induced_diagonal(chi, cap, pair=pair)
    assert result.stabilized and result.rep is not None and containment.passed
    assert result.total_dim == {"gl20": 5, "q1": 8}[name]
    assert not R.check_rep(result.rep).passed


def test_radical_matches_dense_kernel_recombination(monkeypatch):
    # rep hw --pair gl:2,0 --weights 1/2,1/2 --cap 6
    graded = _gl_grading()
    chi = {graded.pair.v1.labels.index("E1,1"): F(1)}
    want = R.hw_split_module(graded, chi, dict(chi), cap=6)
    radical = R._WordEngine._radical
    seen = []

    def dense_instead(eng):
        got, ref = radical(eng), _dense_radical(eng)
        # both recombine the kernel basis of the same unique RREF, read
        # off IncrementalSpan in one and the Gauss-Jordan oracle in the
        # other, so the spans agree vector by vector
        assert got == ref
        seen.append(len(ref))
        return ref

    monkeypatch.setattr(R._WordEngine, "_radical", dense_instead)
    result = R.hw_split_module(graded, chi, dict(chi), cap=6)
    assert seen and seen[0] > 0
    assert result.radical_dim == want.radical_dim > 0
    assert result.dims_json() == want.dims_json()
    assert result.total_dim == 4 and result.stabilized


def _span_rref(vectors):
    """The dense oracle's RREF of a list of sparse vectors, over the
    columns their supports use."""
    cols = sorted({k for v in vectors for k in v})
    index = {k: j for j, k in enumerate(cols)}
    m = Matrix(len(vectors), len(cols),
               [(i, index[k], x) for i, v in enumerate(vectors) for k, x in v.items()])
    return cols, rref(m)


RADICAL_CASES = [
    *[(2, 0, w, cap) for w in ((F(1, 2), F(1, 2)), (1, 0), (F(3, 2), F(-1, 2)))
      for cap in (4, 5, 6, 7)],
    (1, 1, (F(1, 2), F(1, 2)), 6),
    (2, 1, (F(1, 2), F(1, 2)), 4),
]


def _compare_radicals(monkeypatch, build):
    """Run ``build`` with every radical checked, as a span, against the
    fixed-point oracle; returns the radical dimensions seen."""
    radical = R._WordEngine._radical
    seen = []

    def checked(eng):
        got, ref = radical(eng), _dense_radical(eng)
        assert len(got) == len(ref)
        assert _span_rref(got) == _span_rref(ref)
        seen.append(len(ref))
        return got

    monkeypatch.setattr(R._WordEngine, "_radical", checked)
    build()
    return seen


@pytest.mark.parametrize("n, m, weights, cap", RADICAL_CASES)
def test_radical_spans_match_the_fixed_point_oracle(monkeypatch, n, m, weights, cap):
    seen = _compare_radicals(monkeypatch, lambda: _hw_module(n, m, weights, cap))
    assert len(seen) == 1 and seen[0] > 0


def test_induced_radical_matches_the_fixed_point_oracle(monkeypatch):
    # the cap-5 module of rep induce --pair gl:2,0 --chi 1,0 is no
    # representation until its radical is divided out
    results = []
    seen = _compare_radicals(
        monkeypatch, lambda: results.append(_induced_diagonal((1, 0), 5, radical=True)))
    (result, containment), = results
    assert len(seen) == 1 and seen[0] > 0
    assert result.stabilized and result.total_dim == 4 and containment.passed
    assert R.check_rep(result.rep).passed and R.check_split(result.rep, result.split).passed


def _antisymmetry_broken(pair):
    """``pair`` with its first m1 entry at x != y doubled, so that
    m1(u, x, y) no longer equals -A m1(u, y, x).  A gl pair keeps its
    grading."""
    key = min(k for k in pair.m1 if k[1] != k[2])
    m1 = dict(pair.m1)
    m1[key] = {o: 2 * c for o, c in m1[key].items()}
    return PairStructure(pair.v1, pair.v2, pair.kind, m1, pair.m2)


def _broken_hw_module(n, m, cap):
    """The weight-(1/2, 1/2) word module of gl(n, m) with graded
    antisymmetry broken, without the radical (the pair has no module)."""
    graded = _gl_grading(n, m)
    graded = R.GradedPairData(_antisymmetry_broken(graded.pair), graded.deg1, graded.deg2)
    lo = graded.pair.v1.labels.index(f"E{n + m - 1},{n + m - 1}")
    return _with_radical(False, lambda: R.hw_split_module(graded, {lo: F(1)}, {lo: F(1)}, cap=cap))


def _collect_oracle(eng, seed_relations):
    """The relation closure with every operator applied through ``act``:
    seed rules, every Definition-2 instance on every short-enough word,
    then left multiplication until nothing new is spanned."""
    relations = IncrementalSpan(pivot="max")
    queue = []

    def push(vec):
        if vec and relations.insert(vec):
            queue.append(dict(vec))

    for rel in seed_relations:
        vec = {}
        if eng.seeds[rel.seed][0] == rel.side:
            first = eng.first_child[rel.seed]
            vec = {first + op: c for op, c in rel.combo.items() if c}
        push(axpy(vec, -1, rel.rhs))
    t = eng.pair.tensors()
    instances = {side: list(R._instances(t, ident)) for side, ident in R._REP.items()}
    for wid in range(len(eng.length)):
        if eng.length[wid] > eng.cap - 3:
            continue
        base = {wid: F(1)}
        child = eng.first_child[wid]
        for _, comps, words in instances[eng.sector[wid]]:
            vec = {child + o: c for o, c in comps.items()}
            for c, word in words:
                v = base
                for side, op in reversed(word):
                    v = eng.act(side, op, v)
                axpy(vec, -c, v)
            push(vec)
    while queue:
        vec = queue.pop()
        for side in (1, 2):
            for op in range(eng.pair.space(side).dim):
                img = eng.act(side, op, vec)
                if img:
                    push(img)
    return relations


@pytest.mark.parametrize("build", [
    *[pytest.param(lambda cap=cap: _hw_module(2, 0, (F(1, 2), F(1, 2)), cap, radical=False),
                   id=f"gl20-cap{cap}") for cap in (3, 4, 5, 6)],
    pytest.param(lambda: _hw_module(2, 1, (F(1, 2), F(1, 2)), 4, radical=False),
                 id="gl21-cap4"),
    pytest.param(lambda: _induced_diagonal((1, 0), 4)[0], id="induced-gl20-cap4"),
    *[pytest.param(lambda n=n, m=m: _broken_hw_module(n, m, 4),
                   id=f"gl{n}{m}-antisymmetry-broken-cap4") for n, m in ((2, 0), (2, 1))],
])
def test_relation_closure_matches_the_act_oracle(monkeypatch, build):
    collect = R._WordEngine._collect
    seen = []

    def checked(eng, seed_relations):
        collect(eng, seed_relations)
        ref = _collect_oracle(eng, seed_relations)
        assert eng.relations.pivots == ref.pivots
        assert eng.relations.rank == ref.rank
        assert not any(eng.relations.reduce(row) for row in ref.rows)  # same span
        classes = [wid for wid in range(len(eng.length)) if wid not in ref.pivots]
        seen.append((ref.rank, eng._dims_of(classes)))

    monkeypatch.setattr(R._WordEngine, "_collect", checked)
    result = build()
    (rank, closure_dims), = seen
    assert rank > 0 and result.relation_rank == rank
    assert result.closure_dims == closure_dims


def test_swapped_letters_are_derived_from_the_antisymmetry_template():
    assert R._SWAPS == {1: ("X", "Y"), 2: ("U", "V")}


@pytest.mark.parametrize("side", [1, 2])
def test_swapped_letters_map_each_rep_rhs_to_plus_or_minus_itself(side):
    # exchanging the letters, parities included, maps the identity's
    # right-hand side, in the free envelope, to +- itself for every
    # parity assignment; so on a graded-antisymmetric tensor the
    # exchanged instance is a multiple of the listed one
    ident = R._REP[side]
    a, b = R._SWAPS[side]
    assert ident.sides[a] == ident.sides[b]
    exchange = {a: b, b: a}
    letters = ident.letters
    for bits in itertools.product((0, 1), repeat=len(letters)):
        parities = dict(zip(letters, bits))
        exchanged = {l: parities[exchange.get(l, l)] for l in letters}
        got = {tuple(exchange.get(l, l) for l in word): c
               for word, c in expand_template(ident.rhs, exchanged).items()}
        want = expand_template(ident.rhs, parities)
        assert want and got in (want, {w: -c for w, c in want.items()})


@pytest.mark.parametrize("broken", [False, True], ids=["antisymmetric", "broken"])
@pytest.mark.parametrize("n, m", [(2, 0), (2, 1)])
def test_the_symmetric_listing_needs_graded_antisymmetry(monkeypatch, n, m, broken):
    pair = series_gl(n, m).pair
    if broken:
        pair = _antisymmetry_broken(pair)
    assert all(r.passed for r in check_symmetry(pair)) != broken
    instances = R._instances
    listed = {}

    def recorded(t, ident, swap=()):
        listed[ident.name] = [where for where, _, _ in instances(t, ident, swap)]
        return instances(t, ident, swap)

    monkeypatch.setattr(R, "_instances", recorded)
    R._WordEngine(pair, [(1, "s1", 0), (2, "s2", 0)], [], 3)
    t = pair.tensors()
    for side, ident in R._REP.items():
        want = [where for where, _, _ in instances(t, ident)]
        if not broken:
            # one of each exchanged pair, and the diagonal on odd letters
            a, b = R._SWAPS[side]
            odd = pair.space(side).parities
            want = [w for w in want if w[a] < w[b] or w[a] == w[b] and odd[w[a]]]
        assert listed[ident.name] == want
