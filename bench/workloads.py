"""Workloads of the isopairs benchmark: seeded job lists and their gates.

A job is one user-level operation, as one ``isopair`` subcommand runs it
after parsing: ``verify`` of one pair, a hull build plus its check, a
triple-system build plus its check, a highest-weight module plus its
checks, or one sampled W-O pair check.  Every job carries a gate that
is evaluated outside the timed region; its facts hold by construction
for every seed, so a job that raises or fails its gate is an error.

Each workload takes ``small``: the same jobs on the smallest inputs,
used by the benchmark's smoke test.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from isopairs import constructions as C
from isopairs import pairs as P
from isopairs import polyfields as PF
from isopairs import reps as R
from isopairs import tkk as TK

import inputs as I

# Letters of each identity on (own side, other side); the exhaustive
# tuple count of an orientation is d_own^a * d_other^b.
_LETTERS = {
    "antisymmetry.isotopic": (2, 1),
    "symmetry.superJordan": (2, 1),
    "jacobi_analog": (3, 2),
    "compatibility": (3, 2),
    "super_jordan": (3, 2),
}


def canonical_digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def expected_totals(pair) -> list:
    """(identity, orientation, total) of every report verify must give."""
    d1, d2 = pair.v1.dim, pair.v2.dim
    out = [("evenness[m1]", 0, d2 * d1 * d1), ("evenness[m2]", 0, d1 * d2 * d2)]
    if pair.kind == P.ISOTOPIC:
        names = ["antisymmetry.isotopic", "jacobi_analog", "compatibility"]
    else:
        names = ["symmetry.superJordan", "super_jordan"]
    for name in names:
        a, b = _LETTERS[name]
        out.append((name, 1, d1**a * d2**b))
        out.append((name, 2, d2**a * d1**b))
    return out


@dataclass
class Job:
    name: str
    op: str  # end-to-end metric the job's time counts toward, without "_s"
    args: Callable[[], tuple]  # fresh arguments, made outside the timed region
    call: Callable  # the timed operation
    gate: Callable  # result -> (ok, payload whose digest is compared)


def _verify_job(name, pair, passes) -> Job:
    def gate(report):
        shape = [(r.identity, r.orientation, r.total) for r in report.reports]
        ok = report.passed == passes and shape == expected_totals(pair)
        return ok, report.to_json()

    return Job(name, "verify", lambda: (I.fresh(pair),), lambda p: P.verify(p), gate)


def _hull(pair):
    alg = TK.superalgebra_from_pair(pair)
    return alg, TK.check_superalgebra(alg)


def _lts(pair):
    lts = TK.lts_from_pair(pair)
    return lts, TK.check_lts_axioms(lts)


def _hw(graded, chi1, chi2, cap):
    module = R.hw_split_module(graded, chi1, chi2, cap=cap)
    return module, R.check_rep(module.rep), R.check_split(module.rep, module.split)


def _poly(n, m, maxdeg, trials, seed):
    return PF.sample_check_w_o_pair(n, m, maxdeg=maxdeg, trials=trials, seed=seed)


def verify_sparse(seed: int, small: bool = False) -> list:
    rng = random.Random(seed)
    big = (1, 1) if small else (2, 2)
    mid = (1, 1) if small else (2, 1)
    big_name, mid_name = (f"gl({n},{m})" for n, m in (big, mid))
    gl_big = I.relabel(C.series_gl(*big).pair, rng)
    gl_mid = C.series_gl(*mid).pair
    flip = I.relabel(gl_mid.parity_flip(), rng)
    perturbed = I.break_symmetry(I.relabel(gl_mid, rng), rng)
    space = C.SuperMatrixSpace(*mid)
    subs = [I.closed_subpair(space, rng) for _ in range(1 if small else 3)]
    jobs = [
        _verify_job(f"verify {big_name} relabelled", gl_big, True),
        _verify_job(f"verify flip {mid_name} relabelled", flip, True),
        _verify_job(f"verify perturbed {mid_name} relabelled", perturbed, False),
    ]
    jobs += [_verify_job(f"verify closed subpair {k}", p, True) for k, p in enumerate(subs)]
    return jobs


def verify_dense(seed: int, small: bool = False) -> list:
    rng = random.Random(seed)
    if small:
        fast = [("gl(1,1)", C.series_gl(1, 1).pair)]
        exact = [("gl(1,1)", C.series_gl(1, 1).pair),
                 ("flip gl(1,1)", C.series_gl(1, 1).pair.parity_flip())]
    else:
        isoq = C.isoquaternionic_pair().pair
        fast = [("gl(2,1)", C.series_gl(2, 1).pair), ("q(2)", C.series_q(2).pair)]
        exact = [("isoq", isoq), ("osp+(2,1)", C.series_osp(2, 1, 1).pair),
                 ("flip isoq", isoq.parity_flip())]
    cases = [(f"{name} transported", I.change_basis(p, rng)) for name, p in fast]
    cases += [(f"{name} transported scaled", I.scale(I.change_basis(p, rng), rng))
              for name, p in exact]
    jobs = [_verify_job(f"verify {name}", p, True) for name, p in cases]
    jobs += [_verify_job(f"verify perturbed {name}", I.break_symmetry(p, rng), False)
             for name, p in cases]
    return jobs


def _gl_grading(pair):
    """deg E_{i,j} = j - i, read before relabelling."""
    def degs(space):
        return tuple(int(j) - int(i) for i, j in (l[1:].split(",") for l in space.labels))
    return R.GradedPairData(pair, degs(pair.v1), degs(pair.v2))


def modules(seed: int, small: bool = False) -> list:
    rng = random.Random(seed)
    hull_name, lts_name = ("gl(1,1)", "gl(1,1)") if small else ("gl(2,1)", "osp+(2,2)")
    hull_pair = I.relabel(C.series_gl(*((1, 1) if small else (2, 1))).pair, rng)
    hull_dims = (6, 14) if small else (16, 34)
    lts_src = C.series_gl(1, 1).pair if small else C.series_osp(2, 2, 1).pair
    lts_pair = I.relabel(lts_src.parity_flip(), rng)
    # isopair rep hw --pair gl:2,0 --weights 1/2,1/2 --cap 6: weight s
    # on each side is chi(E1,1) = 2 s
    gl20 = C.series_gl(2, 0).pair
    lo = gl20.v1.labels.index("E1,1")
    chi = {lo: Fraction(1)}
    cap = 4 if small else 6
    trials = 5 if small else 50
    poly_seed = rng.getrandbits(32)

    def hull_gate(result):
        alg, report = result
        ok = (alg.g0_dim, alg.dim) == hull_dims and report.passed
        return ok, {"g0_dim": alg.g0_dim, "dim": alg.dim, "report": report.to_json()}

    def lts_gate(result):
        lts, report = result
        ok = lts.dim == lts_pair.v1.dim + lts_pair.v2.dim and report.passed
        return ok, {"dim": lts.dim, "report": report.to_json()}

    def hw_gate(result):
        module, rep_report, split_report = result
        ok = (module.total_dim == 4 and module.stabilized
              and rep_report.passed and split_report.passed)
        return ok, {"module": module.dims_json(), "check_rep": rep_report.to_json(),
                    "check_split": split_report.to_json()}

    def poly_gate(report):
        ok = report.passed and all(r.total == trials for r in report.reports)
        return ok, report.to_json()

    return [
        Job(f"tkk {hull_name} relabelled", "hull",
            lambda: (I.fresh(hull_pair),), _hull, hull_gate),
        Job(f"lts flip {lts_name} relabelled", "lts",
            lambda: (I.fresh(lts_pair),), _lts, lts_gate),
        Job(f"rep hw gl(2,0) cap {cap}", "hw",
            lambda: (_gl_grading(I.fresh(gl20)), chi, dict(chi), cap), _hw, hw_gate),
        Job("poly-check W(1|1)", "poly_check",
            lambda: (1, 1, 3, trials, poly_seed), _poly, poly_gate),
    ]


WORKLOADS = {
    "verify-sparse": verify_sparse,
    "verify-dense": verify_dense,
    "modules": modules,
}
