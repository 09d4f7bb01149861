"""isopairs benchmark runner.

    python3 bench/run.py --workload verify-sparse --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from the seed, then runs its job list
closed loop, one job after another in this one process (jobs=1), for
about ``--seconds``: a new pass over the list starts only while at
least half of it fits, judged by the previous pass.  Every job's
result is gated outside the timed region.  Human-readable lines come
first, with every end-to-end time of the workload's operations; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``setup_s`` is the median over repeats of a fresh-interpreter import
plus building the inputs; ``norm_wall_s`` the median over passes of the
time in the jobs.  Both are normalised to a fixed machine speed measured
while they run (see ``speed.py``); the raw seconds, ``wall_s`` for the
jobs, are printed above the result line.  ``peak_rss_mb`` is the peak
resident memory of this process.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics instead; its spans are written to
``.bench_trace/<workload>-seed<seed>.jsonl`` under the checkout.

The ``--jobs``/``ISOPAIR_JOBS`` process-pool path of the checkers is
deliberately not measured: every call runs with the default jobs=1.
"""

import os

# pin native thread pools before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["ISOPAIR_JOBS"] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

# Setup (a fresh-interpreter import plus building the inputs) is repeated
# this many times and its median reported: one build of these small
# inputs is shorter than the timer's noise on a shared machine.
SETUP_REPEATS = 5

# metric names and units of the result line, with --trace 0 and 1
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# the pairs checkers that verify runs, each traced as its own span
CHECKS = ("check_evenness", "check_symmetry", "check_jacobi_analog",
          "check_compatibility", "check_super_jordan")


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def _environment() -> dict:
    import numpy

    return {
        "commit": _commit(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": list(os.getloadavg()),
        "jobs": 1,
        "threads": {v: os.environ[v] for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _trace_targets():
    from isopairs import constructions as C
    from isopairs import exactlin as E
    from isopairs import pairs as P
    from isopairs import polyfields as PF
    from isopairs import reps as R
    from isopairs import tkk as TK
    from tracing import Target

    def reports(r):
        return {"tuples": sum(x.total for x in r),
                "failing": sum(x.failure_count for x in r)}

    targets = [Target("pairs.verify", P, "verify")]
    targets += [Target(f"pairs.{f}", P, f, reports) for f in CHECKS]
    targets += [
        Target("exactlin.matmul", E.Matrix, "__matmul__"),
        Target("exactlin.insert", E.IncrementalSpan, "insert", lambda r: {"useful": int(r)}),
        Target("exactlin.contains", E.IncrementalSpan, "contains"),
        Target("exactlin.solve", E.IncrementalSpan, "solve"),
        Target("exactlin.rref", E, "rref"),
        Target("tkk.superalgebra_from_pair", TK, "superalgebra_from_pair",
               lambda r: {"g0_dim": r.g0_dim}),
        Target("tkk.check_superalgebra", TK, "check_superalgebra"),
        Target("tkk.lts_from_pair", TK, "lts_from_pair"),
        Target("tkk.check_lts_axioms", TK, "check_lts_axioms"),
        Target("reps.hw_split_module", R, "hw_split_module",
               lambda r: {"module_dim": r.total_dim}),
        Target("reps.check_rep", R, "check_rep"),
        Target("reps.check_split", R, "check_split"),
        Target("polyfields.sample_check_w_o_pair", PF, "sample_check_w_o_pair",
               lambda r: {"trials": sum(x.total for x in r.reports)}),
    ]
    targets += [Target("constructions." + f, C, f) for f in (
        "series_gl", "series_osp", "series_q", "isoquaternionic_pair",
        "envelope_pair", "random_closed_subpair")]
    modules = [sys.modules[f"isopairs.{m}"] for m in
               ("pairs", "exactlin", "tkk", "reps", "polyfields", "constructions",
                "supercore", "cli", "acceptance")
               if f"isopairs.{m}" in sys.modules]
    return targets, modules


def layer_metrics(s, wall: float) -> dict:
    """Per-layer metrics of one traced pass over the job list.  Times are
    totals over the pass's calls; counts are sums over calls (tkk.g0_dim
    adds both hull builds of modules, the second one inside
    lts_from_pair); pairs.wall_share is the pairs layer's share of the
    traced pass."""
    m = {}
    for f in CHECKS:
        m[f"pairs.{f}_s"] = s.seconds(f"pairs.{f}")
    checks = [f"pairs.{f}" for f in CHECKS]
    m["pairs.verify_s"] = s.seconds("pairs.verify")
    m["pairs.tuples"] = sum(s.attr_sum(c, "tuples") for c in checks)
    m["pairs.failing_tuples"] = sum(s.attr_sum(c, "failing") for c in checks)
    m["pairs.wall_share"] = s.layer_seconds("pairs.") / wall if wall else 0.0
    for f in ("matmul", "insert", "contains", "solve", "rref"):
        m[f"exactlin.{f}_calls"] = s.calls(f"exactlin.{f}")
        m[f"exactlin.{f}_s"] = s.seconds(f"exactlin.{f}")
    inserts = m["exactlin.insert_calls"]
    m["exactlin.insert_useful_ratio"] = (
        s.attr_sum("exactlin.insert", "useful") / inserts if inserts else 0.0)
    m["tkk.superalgebra_from_pair_s"] = s.seconds("tkk.superalgebra_from_pair")
    m["tkk.superalgebra_from_pair_self_s"] = s.self_seconds("tkk.superalgebra_from_pair")
    m["tkk.check_superalgebra_s"] = s.seconds("tkk.check_superalgebra")
    m["tkk.lts_from_pair_s"] = s.seconds("tkk.lts_from_pair")
    m["tkk.check_lts_axioms_s"] = s.seconds("tkk.check_lts_axioms")
    m["tkk.g0_dim"] = s.attr_sum("tkk.superalgebra_from_pair", "g0_dim")
    m["reps.hw_split_module_s"] = s.seconds("reps.hw_split_module")
    m["reps.hw_split_module_self_s"] = s.self_seconds("reps.hw_split_module")
    m["reps.check_rep_s"] = s.seconds("reps.check_rep")
    m["reps.check_split_s"] = s.seconds("reps.check_split")
    m["reps.module_dim"] = s.attr_sum("reps.hw_split_module", "module_dim")
    m["polyfields.sample_check_w_o_pair_s"] = s.seconds("polyfields.sample_check_w_o_pair")
    m["polyfields.trials"] = s.attr_sum("polyfields.sample_check_w_o_pair", "trials")
    return m


# Import in a fresh interpreter, as every isopair command pays it; the
# child times only the import statement, with the speed probe running,
# and prints the raw time and the speed factor.  The probe loads
# fractions before the timer starts, about 3 ms of the import's 0.2 s.
IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:3]; import speed; "
                "p = speed.SpeedProbe(); p.start(); t = time.perf_counter(); "
                "import isopairs.cli; dt = time.perf_counter() - t; "
                "print(dt, speed.factor(p.stop()))")


def import_seconds() -> tuple:
    """(raw, factor) of one import in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(HERE), str(ROOT / "src")],
                         capture_output=True, text=True, check=True, timeout=120)
    raw, f = out.stdout.split()
    return float(raw), float(f)


def timed_build(build, seed, small) -> tuple:
    """(jobs, raw seconds, speed factor) of building the inputs."""
    probe = speed.SpeedProbe()
    probe.start()
    try:
        t = time.perf_counter()
        jobs = build(seed, small=small)
        dt = time.perf_counter() - t
    finally:
        samples = probe.stop()
    return jobs, dt, speed.factor(samples)


class Outcome:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests: dict = {}


def run_pass(jobs, outcome, expected, tracer=None):
    """One closed-loop pass over the job list with the speed probe
    running; returns (raw wall, normalised per-op times).  Each job is
    normalised by the samples from the last one before it to one taken
    right after it."""
    from workloads import canonical_digest

    per_op: dict = {}
    wall = 0.0
    probe = speed.SpeedProbe()
    probe.start()
    try:
        for job in jobs:
            args = job.args()
            gc.collect()
            ok = True
            result = None
            first = len(probe.samples) - 1  # the last sample before the job
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = job.call(*args)
                else:
                    with tracer.span("job:" + job.name):
                        result = job.call(*args)
            except Exception:  # a job that raises is an error, the run goes on
                traceback.print_exc()
                ok = False
            dt = time.perf_counter() - t0
            probe.sample()
            dt_norm = dt * speed.factor(probe.samples[first:])
            if ok:
                ok, payload = job.gate(result)
                digest = canonical_digest(payload)
                outcome.digests[job.name] = digest
                if job.name in expected and expected[job.name] != digest:
                    print(f"digest mismatch: {job.name}", file=sys.stderr)
                    ok = False
                if not ok:
                    print(f"gate failed: {job.name}", file=sys.stderr)
            outcome.attempted += 1
            outcome.failed += not ok
            per_op[job.op] = per_op.get(job.op, 0.0) + dt_norm
            wall += dt
    finally:
        probe.stop()
    return wall, per_op


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="smallest inputs (smoke test); no digests are compared")
    args = ap.parse_args(argv)

    load_at_start = os.getloadavg()
    if not (ROOT / "src" / "isopairs").is_dir():
        print(f"no program to measure at {ROOT / 'src' / 'isopairs'}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    env = _environment()
    env["loadavg"] = list(load_at_start)
    print("# environment " + json.dumps(env, sort_keys=True))

    build = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.prepare(*_trace_targets())
        tracer.install()

    outcome = Outcome()
    imports, raw_setups, setups = [], [], []
    for k in range(SETUP_REPEATS):
        if tracer:
            tracer.phase = f"setup{k}"
        imp, imp_f = import_seconds()
        jobs, dt, f = timed_build(build, args.seed, args.small)
        imports.append(imp * imp_f)
        raw_setups.append(imp + dt)
        setups.append(imp * imp_f + dt * f)
    setup_s = statistics.median(setups)

    expected = {}
    if not args.small:
        digests = json.loads((HERE / "digests.json").read_text())
        expected = digests.get(args.workload, {}).get(str(args.seed), {})

    start = time.perf_counter()
    walls, norm_walls, ops, traced_walls, traced_norm, layer = [], [], [], [], [], []
    while True:
        pass_start = time.perf_counter()
        if tracer:
            tracer.uninstall()
        wall, per_op = run_pass(jobs, outcome, expected)
        walls.append(wall)
        norm_walls.append(sum(per_op.values()))
        ops.append(per_op)
        if tracer:
            tracer.install()
            tracer.phase = f"jobs{len(traced_walls)}"
            twall, tops = run_pass(jobs, outcome, expected, tracer)
            traced_walls.append(twall)
            traced_norm.append(sum(tops.values()))
            layer.append(layer_metrics(tracing.Summary(tracer.spans, tracer.phase), twall))
        now = time.perf_counter()
        # start another pass only if at least half of it fits
        if now - start + (now - pass_start) / 2 > args.seconds:
            break
    if tracer:
        tracer.uninstall()
        tracer.write(ROOT / ".bench_trace" / f"{args.workload}-seed{args.seed}.jsonl")

    wall_s = statistics.median(walls)
    norm_wall_s = statistics.median(norm_walls)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    error_rate = outcome.failed / outcome.attempted
    print(f"# workload {args.workload} seed {args.seed}: {len(walls)} passes, "
          f"{outcome.attempted} jobs; medians over passes")
    print(f"#   setup_s        {setup_s:.4f} s at nominal speed (import "
          f"{statistics.median(imports):.4f} s; raw {statistics.median(raw_setups):.4f} s)")
    print(f"#   wall_s         {wall_s:.4f} s raw (passes: "
          + ", ".join(f"{w:.3f}" for w in walls) + ")")
    print(f"#   norm_wall_s    {norm_wall_s:.4f} s at nominal speed (passes: "
          + ", ".join(f"{w:.3f}" for w in norm_walls) + ")")
    # per-operation times at nominal speed, not in the result line
    for op in ops[0]:
        v = statistics.median(o[op] for o in ops)
        print(f"#   {op + '_s':<14} {v:.4f} s")
    print(f"#   peak_rss_mb    {peak_rss_mb:.1f} MB")
    print(f"#   error_rate     {error_rate:.4f} ({outcome.failed}/{outcome.attempted})")
    print("# digests " + json.dumps(outcome.digests, sort_keys=True))

    if tracer:
        metrics = {}
        for name in layer[0]:
            metrics[name] = statistics.median(row[name] for row in layer)
        metrics["trace.wall_s"] = statistics.median(traced_walls)
        # at nominal speed, so that a change of machine speed between the
        # untraced and the traced pass does not show as overhead
        metrics["trace.overhead_s"] = statistics.median(traced_norm) - norm_wall_s
        cons = [tracing.Summary(tracer.spans, f"setup{k}").layer_seconds("constructions.")
                for k in range(SETUP_REPEATS)]
        metrics["constructions.build_s"] = statistics.median(cons)
        print(f"#   trace overhead {metrics['trace.overhead_s']:.4f} s on "
              f"{norm_wall_s:.4f} s untraced, at nominal speed")
    else:
        metrics = {"setup_s": setup_s, "norm_wall_s": norm_wall_s,
                   "peak_rss_mb": peak_rss_mb}
    spec = SPEC["per_layer" if tracer else "end_to_end"]
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec}
    print(json.dumps({"correct": outcome.failed == 0, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
