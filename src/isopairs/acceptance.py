"""The acceptance suite: every gate criterion, exact, with timings.

Each criterion returns (passed, details); the runner collects one line
per criterion.  All arithmetic is rational, so every check is a zero
tolerance equality; the only numeric limits are the stated runtime
budgets.  Artifacts produced along the way are round-tripped through
their canonical JSON form byte-for-byte (criterion 13).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from . import constructions as C
from . import polyfields as PF
from . import reps as R
from . import supercore as SC
from . import tkk as TK
from .exactlin import Matrix
from .pairs import (
    AxiomReport,
    PairStructure,
    VerifyReport,
    check_super_jordan,
    verify,
)
from .rng import Lcg64

DEFAULT_SEED = 20260808


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    seconds: float
    details: str = ""

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.number:2d}. {self.name}  ({self.seconds:.2f}s)  {self.details}"


@dataclass
class Artifacts:
    """JSON artifacts collected for the round-trip criterion, together
    with a domain-level parser where one exists."""

    items: list = field(default_factory=list)

    def add(self, name: str, payload: dict, parser: Optional[Callable] = None):
        self.items.append((name, payload, parser))


def _series_for_criterion2():
    return [
        ("gl:1,1", lambda: C.series_gl(1, 1)),
        ("gl:2,1", lambda: C.series_gl(2, 1)),
        ("gl:2,2", lambda: C.series_gl(2, 2)),
        ("osp+:2,2", lambda: C.series_osp(2, 2, 1)),
        ("osp-:2,2", lambda: C.series_osp(2, 2, -1)),
        ("osp+:1,1", lambda: C.series_osp(1, 1, 1)),
        ("osp-:1,1", lambda: C.series_osp(1, 1, -1)),
        ("q:2", lambda: C.series_q(2)),
        ("osq:2", lambda: C.series_osq(2)),
    ]


def criterion_1(artifacts: Artifacts) -> tuple[bool, str]:
    t0 = time.time()
    report = SC.validate_catalog()
    elapsed = time.time() - t0
    ok = all(entry["adopted_equal"] for entry in report.values())
    corrected = {
        name: entry for name, entry in report.items() if entry["correction"]
    }
    ok = ok and all(entry["printed_equal"] is False for entry in corrected.values())
    expected_corrected = {"antisymmetry.isotopic", "super_jordan", "rep.T2"}
    ok = ok and set(corrected) == expected_corrected
    assignments = {
        name: len(entry["adopted"]["assignments"]) for name, entry in report.items()
    }
    ok = ok and assignments["jacobi_analog"] == 32 and assignments["compatibility"] == 32
    ok = ok and elapsed < 1.0
    artifacts.add("identity_catalog", report)
    diffs = ", ".join(sorted(corrected))
    return ok, f"validated {len(report)} identities in {elapsed*1000:.0f}ms; corrected: {diffs}"


def criterion_2(artifacts: Artifacts, state: dict) -> tuple[bool, str]:
    state["series"] = {}
    ok = True
    notes = []
    gl22_seconds = None
    for spec, build in _series_for_criterion2():
        ep = build()
        t0 = time.time()
        report = verify(ep.pair)
        dt = time.time() - t0
        if spec == "gl:2,2":
            gl22_seconds = dt
        state["series"][spec] = ep
        ok = ok and report.passed
        artifacts.add(f"pair:{spec}", ep.pair.to_json(), PairStructure.from_json)
        artifacts.add(f"verify:{spec}", report.to_json(), VerifyReport.from_json)
        p = ep.pair
        notes.append(
            f"{spec}({p.v1.even_dim}|{p.v1.odd_dim},{p.v2.even_dim}|{p.v2.odd_dim})"
            + ("" if report.passed else "=FAIL")
        )
    ok = ok and gl22_seconds is not None and gl22_seconds < 60.0
    return ok, f"gl(2,2) verify {gl22_seconds:.1f}s; " + " ".join(notes)


def criterion_3(artifacts: Artifacts, seed: int) -> tuple[bool, str]:
    rng = Lcg64(seed)
    space = C.SuperMatrixSpace(2, 1)
    closed_ok = 0
    for k in range(20):
        ep = C.random_closed_subpair(space, rng)
        report = verify(ep.pair)
        closed_ok += report.passed
        if k < 3:
            artifacts.add(f"random_subpair_{k}", ep.pair.to_json(), PairStructure.from_json)
    base = C.series_gl(1, 1).pair
    perturbed_fail = 0
    for k in range(20):
        pert = C.random_even_perturbation(base, rng)
        perturbed_fail += not verify(pert).passed
    ok = closed_ok == 20 and perturbed_fail == 20
    return ok, f"{closed_ok}/20 closed subpairs pass, {perturbed_fail}/20 perturbations fail"


def criterion_4(artifacts: Artifacts, state: dict) -> tuple[bool, str]:
    ok = True
    for spec, ep in state["series"].items():
        flipped = ep.pair.parity_flip()
        reports = check_super_jordan(flipped)
        ok = ok and all(r.passed for r in reports)
        if spec == "gl:1,1":
            artifacts.add("flip:gl:1,1", flipped.to_json(), PairStructure.from_json)
            for r in reports:
                artifacts.add(
                    f"flip_check:gl:1,1:{r.orientation}",
                    r.to_json(),
                    AxiomReport.from_json,
                )
    return ok, f"parity flips of {len(state['series'])} series pass check_super_jordan"


def criterion_5(artifacts: Artifacts) -> tuple[bool, str]:
    g = C.sl2()
    kappa = C.killing_form(g)
    # independent oracle: trace of ad-products computed directly
    ads = [g.ad(i) for i in range(3)]
    oracle = lambda i, j: (ads[i] @ ads[j]).trace()
    values_ok = (
        kappa[1, 1] == 8
        and kappa[0, 2] == 4
        and all(kappa[i, j] == oracle(i, j) for i in range(3) for j in range(3))
    )
    ok = values_ok
    details = [f"kappa(h,h)={kappa[1,1]} kappa(e,f)={kappa[0,2]}"]
    for name, gg in (("sl2", g), ("so3", C.so3())):
        mp = C.magnetic_pair(gg, C.killing_form(gg), 1)
        rep = verify(mp)
        eq = C.g_equivariance_report(mp, gg)
        ok = ok and rep.passed and all(r.passed for r in eq)
        artifacts.add(f"magnetic:{name}", mp.to_json(), PairStructure.from_json)
        artifacts.add(f"magnetic_verify:{name}", rep.to_json(), VerifyReport.from_json)
        details.append(f"magnetic {name}: verify={rep.passed}")
    return ok, "; ".join(details)


def criterion_6(artifacts: Artifacts) -> tuple[bool, str]:
    g = C.so3()
    eta = C.killing_form(g).scale(Fraction(-1, 2))
    pair, report = C.sym2_pair(g, eta)
    ok = report["literal"]["well_formed"] is False
    cs = report["c_substituted"]
    ok = ok and cs["m_bracket_antisymmetry"].passed
    ok = ok and cs["invariants_dimension"] == 1
    ok = ok and report["quotient"] is not None
    artifacts.add("sym2:so3", pair.to_json(), PairStructure.from_json)
    artifacts.add("sym2_verify:so3", cs["verify"].to_json(), VerifyReport.from_json)
    verdict = "pass" if cs["verify"].passed else "fail (reported)"
    return ok, (
        f"literal=ill-formed, m-bracket antisymmetry=pass, dim S2(g)^g=1, "
        f"full c-substituted verdict: {verdict}"
    )


def criterion_7(artifacts: Artifacts, state: dict) -> tuple[bool, str]:
    t0 = time.time()
    ok = True
    dims = []
    for name, pair in (
        ("gl(1,1)", C.series_gl(1, 1).pair),
        ("isoq", C.isoquaternionic_pair().pair),
    ):
        alg = TK.superalgebra_from_pair(pair)
        rep = TK.check_superalgebra(alg)
        ok = ok and rep.passed
        ok = ok and alg.g0_dim <= pair.v1.dim**2 + pair.v2.dim**2
        state[f"alg:{name}"] = alg
        artifacts.add(f"superalgebra:{name}", alg.to_json())
        dims.append(f"{name}: g0={alg.g0_dim} dim={alg.dim}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 30.0
    return ok, f"{'; '.join(dims)} ({elapsed:.1f}s)"


def criterion_8(artifacts: Artifacts) -> tuple[bool, str]:
    flipped = C.series_gl(1, 1).pair.parity_flip()
    lts = TK.lts_from_pair(flipped)
    rep = TK.check_lts_axioms(lts)
    artifacts.add("lts_check:flip_gl11", rep.to_json(), VerifyReport.from_json)
    return rep.passed, f"dim V = {lts.dim}, all LTS axiom reports pass"


def criterion_9(artifacts: Artifacts, state: dict) -> tuple[bool, str]:
    result = R.isoquaternion_fundamental()
    ok = result.stabilized and result.total_dim == 4
    crep = R.check_rep(result.rep)
    csplit = R.check_split(result.rep, result.split)
    ok = ok and crep.passed and csplit.passed
    alg = state.get("alg:isoq") or TK.superalgebra_from_pair(C.isoquaternionic_pair().pair)
    hom = R.tkk_rep_from_split(result.rep, result.split, alg)
    ok = ok and hom.passed
    artifacts.add("fundamental_rep", result.rep.to_json(), R.PairRep.from_json)
    artifacts.add("fundamental_dims", result.dims_json())
    artifacts.add("fundamental_tkk", hom.to_json())
    return ok, (
        f"total dim {result.total_dim}, split {len(result.split.h1)}+{len(result.split.h2)}, "
        f"rep/split/hom checks pass ({hom.adopted_form})"
    )


def criterion_10(artifacts: Artifacts, seed: int) -> tuple[bool, str]:
    g = C.sl2()
    T0 = [g.ad(i) for i in range(3)]
    rng = Lcg64(seed ^ 0xA5A5)
    trips = 0
    for trial in range(10):
        while True:
            Q = Matrix.from_rows(
                [[rng.coefficient() for _ in range(3)] for _ in range(3)]
            )
            try:
                r = R.pair_rep_from_lie(g, T0, Q)
            except ValueError:
                continue
            break
        back, rep = R.lie_from_pair_rep(r)
        if rep.passed and all(a == b for a, b in zip(back, T0)):
            trips += 1
        if trial == 0:
            artifacts.add("gk_rep", r.to_json(), R.PairRep.from_json)
    try:
        R.pair_rep_from_lie(g, T0, Matrix.zeros(3, 3))
        singular_rejected = False
    except ValueError:
        singular_rejected = True
    ok = trips == 10 and singular_rejected
    return ok, f"{trips}/10 exact round trips; singular Q rejected: {singular_rejected}"


def criterion_11(artifacts: Artifacts, seed: int) -> tuple[bool, str]:
    rng = Lcg64(seed ^ 0x5A5A)
    space = C.SuperMatrixSpace(2, 1)
    matched = 0
    for k in range(20):
        if k < 10:
            rep = R.tautological_rep(C.random_closed_subpair(space, rng))
        else:
            pair = C.series_gl(2, 0).pair
            H = SC.SuperSpace.make(["h0", "h1", "h2"], [0, 0, 0])
            rnd = lambda: Matrix.from_rows(
                [[rng.coefficient() for _ in range(3)] for _ in range(3)]
            )
            rep = R.PairRep(pair, H, [rnd() for _ in range(4)], [rnd() for _ in range(4)])
        gr = R.graph_from_rep(rep)
        if k == 0:
            artifacts.add("graph_rep", gr.to_json(), R.GraphRep.from_json)
        graph = R.check_graph_rep(gr)
        direct = R.check_rep(rep)
        direct_idents = [r for r in direct.reports if "identity" in r.identity]

        def shape(reports):
            # reports agree up to naming: drop the family index keys
            out = []
            for r in reports:
                fails = []
                for f in r.failures:
                    d = f.to_json()
                    d["tuple"] = {
                        k: v for k, v in d["tuple"].items() if k not in ("alpha", "beta")
                    }
                    fails.append(d)
                out.append((r.total, r.failure_count, fails))
            return out

        same = shape(graph.reports) == shape(direct_idents)
        if k >= 10:
            same = same and not direct.passed  # random reps must actually fail
        matched += same
    return matched == 20, f"{matched}/20 graph verdicts identical to check_rep"


def criterion_12(artifacts: Artifacts, seed: int) -> tuple[bool, str]:
    report = PF.sample_check_w_o_pair(1, 1, maxdeg=3, trials=50, seed=seed)
    artifacts.add("wo_pair_check", report.to_json(), VerifyReport.from_json)
    oracle = next(r for r in report.reports if "operator_oracle" in r.identity)
    identities = [r for r in report.reports if "operator_oracle" not in r.identity]
    ok = report.passed and oracle.failure_count == 0 and all(
        r.total == 50 for r in identities
    )
    return ok, f"{len(identities)} identity reports x 50 trials + operator oracle, all exact"


def criterion_13(artifacts: Artifacts) -> tuple[bool, str]:
    checked = 0
    for name, payload, parser in artifacts.items:
        first = canonical_json(payload)
        reparsed = json.loads(first)
        again = canonical_json(reparsed)
        if first != again:
            return False, f"plain round trip differs for {name}"
        if parser is not None:
            domain = parser(reparsed)
            third = canonical_json(domain.to_json())
            if third != first:
                return False, f"domain round trip differs for {name}"
        checked += 1
    return True, f"{checked} artifacts byte-identical through serialize/parse/serialize"


CRITERIA = [
    (1, "free-envelope validation of all adopted identity forms"),
    (2, "Theorem 1A series build and verify (incl. gl(2,2) under 60s)"),
    (3, "random closed subpairs pass, even perturbations fail"),
    (4, "parity-flip duality: flipped series satisfy the super-Jordan identity"),
    (5, "magnetic pairs over sl2/so3 with Killing form"),
    (6, "sym2 construction verdict report for so3"),
    (7, "Theorem 2B superalgebras pass exhaustive checks (under 30s)"),
    (8, "Theorem 2A triple system from flipped gl(1,1)"),
    (9, "fundamental isoquaternionic module: dim 4 + rep/split/TKK lift"),
    (10, "(g,k) round trip for sl2 adjoint with random invertible Q"),
    (11, "graph representations reduce to Definition-2 verdicts"),
    (12, "W(1|1)-O(1|1) sampled identity and operator-oracle checks"),
    (13, "byte-identical JSON round trips for all artifacts"),
]


def run_all(seed: int = DEFAULT_SEED) -> list:
    artifacts = Artifacts()
    state: dict = {}
    results = []

    def run(number, name, fn):
        t0 = time.time()
        try:
            passed, details = fn()
        except Exception as exc:  # a crashed criterion is a failed criterion
            passed, details = False, f"exception: {exc!r}"
        results.append(CriterionResult(number, name, passed, time.time() - t0, details))

    run(1, CRITERIA[0][1], lambda: criterion_1(artifacts))
    run(2, CRITERIA[1][1], lambda: criterion_2(artifacts, state))
    run(3, CRITERIA[2][1], lambda: criterion_3(artifacts, seed))
    run(4, CRITERIA[3][1], lambda: criterion_4(artifacts, state))
    run(5, CRITERIA[4][1], lambda: criterion_5(artifacts))
    run(6, CRITERIA[5][1], lambda: criterion_6(artifacts))
    run(7, CRITERIA[6][1], lambda: criterion_7(artifacts, state))
    run(8, CRITERIA[7][1], lambda: criterion_8(artifacts))
    run(9, CRITERIA[8][1], lambda: criterion_9(artifacts, state))
    run(10, CRITERIA[9][1], lambda: criterion_10(artifacts, seed))
    run(11, CRITERIA[10][1], lambda: criterion_11(artifacts, seed))
    run(12, CRITERIA[11][1], lambda: criterion_12(artifacts, seed))
    run(13, CRITERIA[12][1], lambda: criterion_13(artifacts))
    return results


def format_table(results: list) -> str:
    lines = [r.line() for r in results]
    total = sum(r.seconds for r in results)
    passed = sum(1 for r in results if r.passed)
    lines.append(f"{passed}/{len(results)} criteria passed in {total:.1f}s")
    return "\n".join(lines)
