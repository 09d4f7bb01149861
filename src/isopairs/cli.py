"""Command-line front end.

Subcommands: make, verify, tkk, lts, rep (check / hw / induce /
graph-check), poly-check, suite.  Exit codes: 0 all checks pass, 1
axiom failures, 2 parse or usage errors, among them a file that is not
JSON, holds an integer past Python's int/str digit limit, or a scalar
outside the "p" / "p/q" form.

Pairs persist as catalog entries: the pair JSON, its verify report, and
a sha256 hash linking the report to the exact pair bytes it was
computed from.  All files are canonical JSON (sorted keys, compact
separators, reduced rationals) so serialize-parse-serialize is
byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction

from . import constructions as C
from . import polyfields as PF
from . import reps as R
from . import tkk as TK
from .acceptance import canonical_json, format_table, run_all
from .exactlin import Matrix, scalar_from_str
from .pairs import PairStructure, VerifyReport, verify
from .supercore import SuperSpace

BUILDERS_HELP = (
    "gl:n,m  osp+:n,m  osp-:n,m  q:n  osq:n  isoq  magnetic:sl2  "
    "magnetic:so3  sym2:so3  wo:n,m  flip:<spec>"
)


class UsageError(ValueError):
    pass


def _pair_sha(pair_json: dict) -> str:
    return hashlib.sha256(canonical_json(pair_json).encode()).hexdigest()


def _sizes(spec: str, arg: str, count: int) -> tuple:
    """The ``count`` sizes of a builder spec: integers >= 0 summing to
    at least 1."""
    try:
        sizes = tuple(int(x) for x in arg.split(","))
    except ValueError:
        sizes = ()
    if len(sizes) != count or min(sizes) < 0 or sum(sizes) < 1:
        want = "a size n >= 1" if count == 1 else "sizes n,m >= 0 with n + m >= 1"
        raise UsageError(f"builder spec {spec!r} needs {want}")
    return sizes


def build_from_spec(spec: str):
    """Returns (pair_or_None, notes dict); wo specs have no finite pair."""
    notes: dict = {}
    try:
        if spec.startswith("flip:"):
            pair, notes = build_from_spec(spec[len("flip:") :])
            if pair is None:
                raise UsageError("cannot flip an infinite-dimensional pair spec")
            notes["flipped"] = True
            return pair.parity_flip(), notes
        if spec == "isoq":
            return C.isoquaternionic_pair().pair, notes
        head, _, arg = spec.partition(":")
        if head == "gl":
            return C.series_gl(*_sizes(spec, arg, 2)).pair, notes
        if head in ("osp+", "osp-"):
            n, m = _sizes(spec, arg, 2)
            return C.series_osp(n, m, 1 if head == "osp+" else -1).pair, notes
        if head == "q":
            return C.series_q(*_sizes(spec, arg, 1)).pair, notes
        if head == "osq":
            ep = C.series_osq(*_sizes(spec, arg, 1))
            notes["convention"] = ep.convention
            notes["attempts"] = ep.attempts
            p = ep.pair
            notes["dimensions"] = {
                "v1": f"{p.v1.even_dim}|{p.v1.odd_dim}",
                "v2": f"{p.v2.even_dim}|{p.v2.odd_dim}",
            }
            return p, notes
        if head == "magnetic":
            g = {"sl2": C.sl2, "so3": C.so3}[arg]()
            return C.magnetic_pair(g, C.killing_form(g), 1), notes
        if head == "sym2":
            g = {"so3": C.so3, "sl2": C.sl2}[arg]()
            eta = C.killing_form(g).scale(Fraction(-1, 2))
            pair, report = C.sym2_pair(g, eta)
            notes["literal_reading"] = report["literal"]
            notes["invariants_dimension"] = report["c_substituted"][
                "invariants_dimension"
            ]
            return pair, notes
        if head == "wo":
            n, m = _sizes(spec, arg, 2)
            notes["type"] = "wo_pair"
            notes["n"], notes["m"] = n, m
            return None, notes
    except UsageError:
        raise
    except (KeyError, ValueError) as exc:
        raise UsageError(f"unknown builder spec {spec!r} (known: {BUILDERS_HELP})") from exc
    raise UsageError(f"unknown builder spec {spec!r} (known: {BUILDERS_HELP})")


def _write(path: str, payload: dict):
    try:
        with open(path, "w") as fh:
            fh.write(canonical_json(payload))
    except OSError as exc:
        raise UsageError(str(exc)) from exc


def _load(path: str, parse, what: str):
    """``parse`` of the JSON object in ``path``; anything else, or one it
    rejects, is a one-line UsageError saying the file is not ``what``."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(str(exc)) from exc
    except ValueError as exc:  # an integer literal past Python's int/str digit limit
        raise UsageError(f"{path}: malformed JSON: {exc}") from exc
    try:
        if type(obj) is not dict:
            raise TypeError(f"expected a JSON object, got {json.dumps(obj)[:40]}")
        return parse(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{path}: not a {what}: {exc}") from exc


def _pair_from_file(path: str) -> PairStructure:
    """A pair file, or the pair of a catalog entry."""
    def parse(obj):
        return PairStructure.from_json(obj["pair"] if isinstance(obj.get("pair"), dict) else obj)

    return _load(path, parse, "pair or catalog file")


def _check_sample_args(n: int, m: int, maxdeg: int, trials: int):
    try:
        PF.check_sample_args(n, m, maxdeg, trials)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_make(args) -> int:
    pair, notes = build_from_spec(args.spec)
    if pair is None:  # wo pair: persist the descriptor and a sampled report
        _check_sample_args(notes["n"], notes["m"], 3, args.trials)
        report = PF.sample_check_w_o_pair(
            notes["n"], notes["m"], maxdeg=3, trials=args.trials, seed=args.seed
        )
        entry = {
            "name": args.spec,
            "spec": args.spec,
            "wo": {"n": notes["n"], "m": notes["m"]},
            "sampled_report": report.to_json(),
            "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        _write(args.out, entry)
        print(f"{args.spec}: sampled check {'pass' if report.passed else 'FAIL'} -> {args.out}")
        return 0 if report.passed else 1
    report = verify(pair)
    pj = pair.to_json()
    sha = _pair_sha(pj)
    entry = {
        "name": args.spec,
        "spec": args.spec,
        "pair": pj,
        "pair_sha256": sha,
        "verify_report": report.to_json(),
        "report_pair_sha256": sha,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "notes": notes,
    }
    _write(args.out, entry)
    p = pair
    dims = f"V1 {p.v1.even_dim}|{p.v1.odd_dim}, V2 {p.v2.even_dim}|{p.v2.odd_dim}"
    print(f"{args.spec}: {dims}; verify {'pass' if report.passed else 'FAIL'} -> {args.out}")
    return 0 if report.passed else 1


def _print_report(report: VerifyReport, as_json: bool):
    if as_json:
        sys.stdout.write(canonical_json(report.to_json()))
        return
    for r in report.reports:
        status = "pass" if r.passed else f"FAIL ({r.failure_count}/{r.total})"
        orient = f" orientation {r.orientation}" if r.orientation else ""
        print(f"  {r.identity}{orient}: {status}  [form: {r.adopted_form}]")
        for f in r.failures[:3]:
            print(f"    at {f.to_json()['tuple']}: residual {f.to_json()['residual']}")
    print("verdict:", "pass" if report.passed else "FAIL")


def cmd_verify(args) -> int:
    pair = _pair_from_file(args.file)
    report = verify(pair)
    _print_report(report, args.json)
    return 0 if report.passed else 1


def cmd_tkk(args) -> int:
    pair = _pair_from_file(args.file)
    alg = TK.superalgebra_from_pair(pair)
    report = TK.check_superalgebra(alg)
    if args.out:
        _write(args.out, alg.to_json())
    print(
        f"g0 dim {alg.g0_dim}, total dim {alg.dim}, sigma {TK.SIGMA}; "
        f"check_superalgebra {'pass' if report.passed else 'FAIL'}"
    )
    if not report.passed:
        _print_report(report, args.json)
    return 0 if report.passed else 1


def cmd_lts(args) -> int:
    pair = _pair_from_file(args.file)
    lts = TK.lts_from_pair(pair)
    report = TK.check_lts_axioms(lts)
    print(
        f"triple system dim {lts.dim} (split {lts.split}+{lts.dim - lts.split}); "
        f"axioms {'pass' if report.passed else 'FAIL'}"
    )
    if not report.passed or args.json:
        _print_report(report, args.json)
    return 0 if report.passed else 1


def cmd_rep_check(args) -> int:
    def parse(obj):
        rep = R.PairRep.from_json(obj)
        if "split" not in obj:
            return rep, None
        # a split that does not partition H raises SpaceMismatch here
        return rep, R.check_split(rep, R.SplitData.from_json(obj["split"]))

    rep, sreport = _load(args.file, parse, "representation file")
    report = R.check_rep(rep)
    _print_report(report, args.json)
    if sreport is None:
        return 0 if report.passed else 1
    _print_report(sreport, args.json)
    return 0 if report.passed and sreport.passed else 1


def _parse_weights(text: str) -> list:
    try:
        return [scalar_from_str(t) for t in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad rational in {text!r}: {exc}") from exc


def _positive_int(text: str) -> int:
    if text.isdigit() and int(text) > 0:
        return int(text)
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def cmd_rep_hw(args) -> int:
    pair, _ = build_from_spec(args.pair)
    if pair is None:
        raise UsageError("rep hw needs a finite matrix pair")
    try:
        graded = R.diagonal_grading(pair)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    weights = _parse_weights(args.weights)
    if len(weights) != 2:
        raise UsageError("--weights takes two rationals, e.g. 1/2,1/2")
    # weight s per side pins chi(E00) = 0, chi(E11) = 2 s (vacuum
    # h-eigenvalue -2s); see isoquaternion_fundamental for the derivation
    labels = list(pair.v1.labels)
    size = max(int(l[1:].split(",")[0]) for l in labels) + 1
    lo = labels.index(f"E{size-1},{size-1}")
    chi1 = {lo: 2 * weights[0]}
    chi2 = {lo: 2 * weights[1]}
    result = R.hw_split_module(graded, chi1, chi2, cap=args.cap)
    payload = result.dims_json()
    if result.rep is not None:
        payload["rep"] = result.rep.to_json()
        payload["split"] = result.split.to_json()
    if args.out:
        _write(args.out, payload)
    print(
        f"total dim {result.total_dim}, stabilized: {result.stabilized}; "
        + " ".join(f"H{s}[{d}]={n}" for (s, d), n in sorted(result.dims.items()))
    )
    if result.rep is not None:
        ok = R.check_rep(result.rep).passed and R.check_split(result.rep, result.split).passed
        print("check_rep + check_split:", "pass" if ok else "FAIL")
        return 0 if ok else 1
    return 0 if result.stabilized else 1


def cmd_rep_induce(args) -> int:
    pair, _ = build_from_spec(args.pair)
    if pair is None:
        raise UsageError("rep induce needs a finite matrix pair")
    # each side's even diagonal elements, read off its own labels: odd
    # ones (q:n's oi,i, every one of a flipped pair's) cannot sit in the
    # even diagonal subpair
    subs, dspaces = [], []
    for space in (pair.v1, pair.v2):
        indices = [l[1:].split(",") for l in space.labels]
        if any(len(ij) < 2 for ij in indices):
            raise UsageError("rep induce needs a matrix pair with labels <letter>i,j")
        diag = [k for k, ij in enumerate(indices) if ij[0] == ij[1] and not space.parities[k]]
        subs.append([[int(k == d) for k in range(space.dim)] for d in diag])
        dspaces.append(SuperSpace.make([space.labels[k] for k in diag], [0] * len(diag)))
    n, n2 = (d.dim for d in dspaces)
    if not n or n2 != n:
        raise UsageError("rep induce needs as many even diagonal elements <letter>i,i on each "
                         f"side, at least one; this pair has {n} and {n2}")
    chi = _parse_weights(args.chi) if args.chi else [Fraction(0)] * n
    if len(chi) != n:
        raise UsageError(f"--chi takes {n} rationals for this pair")
    subpair = PairStructure(*dspaces, "isotopic", {}, {})
    H0 = SuperSpace.make(["w1", "w2"], [0, 0])
    T1 = [Matrix.from_rows([[0, 0], [c, 0]]) for c in chi]
    T2 = [Matrix.from_rows([[0, c], [0, 0]]) for c in chi]
    subrep = R.PairRep(subpair, H0, T1, T2)
    split0 = R.SplitData((0,), (1,))
    result, containment = R.induced_split_module(
        pair, *subs, subrep, split0, cap=args.cap
    )
    print(
        f"induced from the diagonal subpair: total dim {result.total_dim}, "
        f"stabilized: {result.stabilized}; "
        + " ".join(f"H{s}={n}" for (s, _), n in sorted(result.dims.items(), key=str))
    )
    if containment is not None:
        print("contains subrep:", "pass" if containment.passed else "FAIL")
    if args.out:
        _write(args.out, result.dims_json())
    if result.rep is None:
        return 1
    # the word engine runs without the radical here, so a module that
    # closes within the cap can still be a quotient that is no rep
    ok = R.check_rep(result.rep).passed and R.check_split(result.rep, result.split).passed
    print("check_rep + check_split:", "pass" if ok else "FAIL")
    return 0 if ok and containment.passed else 1


def cmd_rep_graph_check(args) -> int:
    gr = _load(args.file, R.GraphRep.from_json, "graph-representation file")
    report = R.check_graph_rep(gr)
    _print_report(report, args.json)
    return 0 if report.passed else 1


def cmd_poly_check(args) -> int:
    _check_sample_args(args.n, args.m, args.maxdeg, args.trials)
    if args.bracket_fields:
        xs, ys, fs = args.bracket_fields
        X = PF.parse_field(xs, args.n, args.m)
        Y = PF.parse_field(ys, args.n, args.m)
        f = PF.parse_poly(fs, args.n, args.m)
        print(PF.iso_bracket_fields(X, Y, f))
        return 0
    if args.bracket_functions:
        fs, gs, xs = args.bracket_functions
        f = PF.parse_poly(fs, args.n, args.m)
        g = PF.parse_poly(gs, args.n, args.m)
        X = PF.parse_field(xs, args.n, args.m)
        print(PF.iso_bracket_functions(f, g, X).pretty())
        return 0
    report = PF.sample_check_w_o_pair(
        args.n, args.m, maxdeg=args.maxdeg, trials=args.trials, seed=args.seed
    )
    _print_report(report, args.json)
    return 0 if report.passed else 1


def cmd_suite(args) -> int:
    results = run_all(seed=args.seed)
    print(format_table(results))
    return 0 if all(r.passed for r in results) else 1


def make_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="isopair",
        description="exact computer algebra for isotopic and super-Jordan pairs",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make", help=f"build a pair ({BUILDERS_HELP})")
    p.add_argument("spec")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--trials", type=int, default=50, help="wo specs: sampled trials")
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(fn=cmd_make)

    p = sub.add_parser("verify", help="verify a pair or catalog file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("tkk", help="polarized superalgebra of an isotopic pair")
    p.add_argument("file")
    p.add_argument("-o", "--out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_tkk)

    p = sub.add_parser("lts", help="polarized triple system of a super-Jordan pair")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_lts)

    rep = sub.add_parser("rep", help="representation tools")
    rsub = rep.add_subparsers(dest="rep_command", required=True)
    p = rsub.add_parser("check", help="check a representation file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_rep_check)
    p = rsub.add_parser("hw", help="highest-weight split module")
    p.add_argument("--pair", required=True)
    p.add_argument("--weights", required=True, help="two rationals, e.g. 1/2,1/2")
    p.add_argument("--cap", type=_positive_int, default=6)
    p.add_argument("-o", "--out")
    p.set_defaults(fn=cmd_rep_hw)
    p = rsub.add_parser("induce", help="induce from the even diagonal subpair")
    p.add_argument("--pair", required=True)
    p.add_argument("--chi", default="", help="character values on the even diagonal units")
    p.add_argument("--cap", type=_positive_int, default=3)
    p.add_argument("-o", "--out")
    p.set_defaults(fn=cmd_rep_induce)
    p = rsub.add_parser("graph-check", help="check a graph-representation file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_rep_graph_check)

    p = sub.add_parser("poly-check", help="sampled checks for the W-O pair")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--maxdeg", type=int, default=3)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.add_argument(
        "--bracket-fields",
        nargs=3,
        metavar=("X", "Y", "F"),
        help='[X,Y]_F for parsed fields/poly, e.g. "dx1" "x1*dx1" "x1"',
    )
    p.add_argument(
        "--bracket-functions",
        nargs=3,
        metavar=("F", "G", "X"),
        help='[F,G]_X, e.g. "x1" "1" "dx1" (t_j are the odd variables)',
    )
    p.set_defaults(fn=cmd_poly_check)

    p = sub.add_parser("suite", help="run the full acceptance suite")
    p.add_argument("--seed", type=int, default=20260808)
    p.set_defaults(fn=cmd_suite)
    return top


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, PF.ParseError, PF.InhomogeneousInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TK.PreconditionError, R.PreconditionError) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
