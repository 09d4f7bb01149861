"""Polarized superalgebras (2B) and triple systems (2A)."""

import itertools
import json
import random
from fractions import Fraction

import pytest

from isopairs import tkk
from isopairs.constructions import isoquaternionic_pair, series_gl, series_osp, series_q
from isopairs.pairs import AxiomReport, Failure, PairStructure
from isopairs.supercore import SuperSpace

F = Fraction


def zero_pair(kind="isotopic"):
    v = SuperSpace.make(["a", "b"], [0, 1])
    return PairStructure(v, v, kind, {}, {})


def test_zero_pair_gives_abelian_superalgebra():
    alg = tkk.superalgebra_from_pair(zero_pair(), verified=True)
    assert alg.g0_dim == 0
    assert alg.table == {}
    assert tkk.check_superalgebra(alg).passed


def test_gl11_superalgebra_passes():
    alg = tkk.superalgebra_from_pair(series_gl(1, 1).pair, verified=True)
    assert tkk.check_superalgebra(alg).passed
    d1, d2 = 4, 4
    assert alg.g0_dim <= d1 * d1 + d2 * d2  # closure bound
    assert alg.dim == alg.g0_dim + d1 + d2
    # g1 elements carry the twisted parity
    assert alg.parities[alg.g0_dim :] == tuple(
        (p + 1) % 2 for p in (0, 1, 1, 0, 0, 1, 1, 0)
    )


def test_isoquaternionic_superalgebra_passes():
    alg = tkk.superalgebra_from_pair(isoquaternionic_pair().pair, verified=True)
    rep = tkk.check_superalgebra(alg)
    assert rep.passed
    names = {r.identity for r in rep.reports}
    assert names == {
        "superalgebra.antisymmetry",
        "superalgebra.polarization",
        "superalgebra.submodule",
        "superalgebra.super_jacobi",
    }


def test_superalgebra_precondition_errors():
    with pytest.raises(tkk.PreconditionError):
        tkk.superalgebra_from_pair(zero_pair("superJordan"), verified=True)
    v = SuperSpace.make(["a"], [0])
    broken = PairStructure(v, v, "isotopic", {(0, 0, 0): {0: F(1)}}, {})
    with pytest.raises(tkk.PreconditionError):
        tkk.superalgebra_from_pair(broken)  # fails verify (antisymmetry)


def test_wrong_sigma_fails_on_odd_pair():
    alg = tkk.superalgebra_from_pair(
        series_gl(1, 1).pair, sigma=tkk.SigmaConvention(), verified=True
    )
    assert not tkk.check_superalgebra(alg).passed


def test_sigma_scan_on_q1_contains_pinned():
    passing = tkk.scan_sigma_conventions([series_q(1).pair])
    assert tkk.PINNED_SIGMA in passing
    assert len(passing) < 128  # the scan actually discriminates


def test_perturbed_table_fails():
    alg = tkk.superalgebra_from_pair(series_gl(1, 1).pair, verified=True)
    key = next(iter(alg.table))
    tampered = dict(alg.table)
    comps = dict(tampered[key])
    some = next(iter(comps))
    comps[some] = comps[some] + 1
    tampered[key] = comps
    bad = tkk.PolarizedSuperalgebra(
        alg.pair,
        alg.labels,
        alg.parities,
        alg.grading,
        tampered,
        alg.g0_ops,
        alg.g0_recipes,
        alg.sigma,
    )
    assert not tkk.check_superalgebra(bad).passed


def test_g0_equivariance():
    for pair in (series_gl(1, 1).pair, isoquaternionic_pair().pair):
        alg = tkk.superalgebra_from_pair(pair, verified=True)
        assert tkk.g0_equivariance_report(alg).passed


def test_small_series_superalgebras_pass():
    from isopairs.constructions import series_osp, series_osq

    for pair in (series_q(1).pair, series_osp(1, 1, 1).pair, series_osq(2).pair):
        alg = tkk.superalgebra_from_pair(pair, verified=True)
        assert tkk.check_superalgebra(alg).passed


def test_superalgebra_json_dump():
    alg = tkk.superalgebra_from_pair(series_gl(1, 0).pair, verified=True)
    data = alg.to_json()
    s = json.dumps(data, sort_keys=True)
    assert json.loads(s) == data
    assert data["grading"].count("+") == 1


def test_zero_pair_lts():
    lts = tkk.lts_from_pair(zero_pair("superJordan"), verified=True)
    assert lts.tensor == {}
    assert tkk.check_lts_axioms(lts).passed


def test_lts_from_flipped_gl10():
    lts = tkk.lts_from_pair(series_gl(1, 0).pair.parity_flip())
    assert tkk.check_lts_axioms(lts).passed
    assert lts.space.parities == (1, 1)  # input (flipped) parities kept


def test_lts_from_flipped_gl11():
    lts = tkk.lts_from_pair(series_gl(1, 1).pair.parity_flip())
    rep = tkk.check_lts_axioms(lts)
    assert rep.passed
    assert {r.identity for r in rep.reports} == {
        "lts.polarization",
        "lts.antisymmetry",
        "lts.cyclic",
        "lts.derivation",
    }


def test_lts_nonzero_and_polarized():
    lts = tkk.lts_from_pair(series_gl(1, 1).pair.parity_flip())
    assert lts.tensor  # nontrivial product
    d = lts.split
    for (i, j, k) in lts.tensor:
        # first two arguments always come from opposite summands
        assert (i < d) != (j < d)


def test_lts_precondition():
    with pytest.raises(tkk.PreconditionError):
        tkk.lts_from_pair(series_gl(1, 1).pair)  # isotopic, not superJordan


def test_perturbed_lts_fails():
    lts = tkk.lts_from_pair(series_gl(1, 1).pair.parity_flip())
    key = next(iter(lts.tensor))
    bad_tensor = dict(lts.tensor)
    comps = dict(bad_tensor[key])
    some = next(iter(comps))
    comps[some] = comps[some] + 1
    bad_tensor[key] = comps
    bad = tkk.PolarizedLTS(lts.space, lts.split, bad_tensor)
    assert not tkk.check_lts_axioms(bad).passed


def _derivation_oracle(l, cap=tkk.FAILURE_CAP):
    """lts.derivation as a plain loop over all N^5 basis tuples, the
    reference for the sparse join in check_lts_axioms."""
    N = l.dim
    p = l.space.parities
    T = l.product_basis

    def combine(terms):
        out = {}
        for f, vec, prod in terms:
            for k, c in vec.items():
                for o, d in prod(k).items():
                    out[o] = out.get(o, 0) + f * c * d
        return {o: v for o, v in out.items() if v}

    failures, count = [], 0
    for a, b, c, d, e in itertools.product(range(N), repeat=5):
        s2 = -1 if ((p[a] + p[b]) * p[c]) % 2 else 1
        s3 = -1 if ((p[a] + p[b]) * (p[c] + p[d])) % 2 else 1
        res = combine(
            [
                (1, T(c, d, e), lambda k: T(a, b, k)),
                (-1, T(a, b, c), lambda k: T(k, d, e)),
                (-s2, T(a, b, d), lambda k: T(c, k, e)),
                (-s3, T(a, b, e), lambda k: T(c, d, k)),
            ]
        )
        if res:
            count += 1
            if len(failures) < cap:
                failures.append(
                    Failure({"a": a, "b": b, "c": c, "d": d, "e": e}, res)
                )
    return AxiomReport("lts.derivation", 0, N**5, count, failures)


def _perturbed_lts(pair, seed, edits):
    """The triple system of the flipped pair with ``edits`` random
    changes to its tensor: bumped, new and deleted components."""
    lts = tkk.lts_from_pair(pair.parity_flip(), verified=True)
    rng = random.Random(seed)
    tensor = {k: dict(v) for k, v in lts.tensor.items()}
    N = lts.dim
    for step in range(edits):
        key = rng.choice(sorted(tensor))
        if step % 3 == 0:
            o = rng.choice(sorted(tensor[key]))
            tensor[key][o] += F(rng.choice((-2, 1, 3)), rng.choice((1, 2)))
        elif step % 3 == 1:
            new = tuple(rng.randrange(N) for _ in range(3))
            tensor.setdefault(new, {})[rng.randrange(N)] = F(rng.randrange(1, 4))
        else:
            del tensor[key]
    return tkk.PolarizedLTS(lts.space, lts.split, tensor)


@pytest.mark.parametrize(
    "build, seed, edits",
    [
        (lambda: series_gl(1, 1), 0, 1),
        (lambda: series_gl(1, 1), 1, 3),
        (lambda: series_gl(1, 1), 2, 6),
        (lambda: series_osp(2, 1, 1), 3, 4),
    ],
    ids=["gl11-1", "gl11-3", "gl11-6", "osp+21-4"],
)
def test_lts_derivation_matches_loop_oracle(build, seed, edits):
    lts = _perturbed_lts(build().pair, seed, edits)
    got = tkk.check_lts_axioms(lts)
    want = tkk.check_lts_axioms(lts)
    want.reports[-1] = _derivation_oracle(lts)
    assert got.to_json() == want.to_json()
    # past the cap, so the order of the kept failures is compared too
    assert got.reports[-1].failure_count > tkk.FAILURE_CAP
