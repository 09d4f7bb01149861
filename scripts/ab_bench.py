#!/usr/bin/env python3
"""Compare two checkouts on benchmark workloads in alternating pairs.

Usage: python scripts/ab_bench.py PARENT_DIR CHANGE_DIR --workload W [W ...]
           --seed S --pairs N [--out BENCH_x.json]

For each workload in turn, runs ``bench/run.py --trace 0`` of each
checkout, unchanged, N times per side in a fresh interpreter each, for
the ``run_seconds`` of CHANGE_DIR/BENCHMARK.json: pair k runs the parent
first when k is even and the change first when k is odd.  For every
end-to-end metric of CHANGE_DIR/BENCHMARK.json, and for every
per-operation time that bench/run.py prints, it prints each side's
median and quartiles and the number of pairs the change wins (ties
count for neither side), and whether a gain may be claimed: wins in at
least nine tenths of the pairs and medians further apart than the
parent's interquartile range.  It flags a regression when an end-to-end
metric's change median is worse than the parent's by more than the
metric's ``bound`` (a fraction of the parent median), or when the
change's share of failed operations is larger than the parent's.

With ``--out`` the summary is written in the layout of the BENCH_*.json
files, after each workload: a file that exists keeps its other keys and
workloads, and each workload's entry, which holds its own seed, pair
count and command, is replaced.  Each side is labelled by the commit
bench/run.py reports, or by the checkout's resolved path when it
reports none (a checkout that is not a git work tree).  Exits 1 if, on
any workload, a run fails, reports an incorrect result or failed
operations, the two sides' job digests differ, or a regression is
flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its result line, per-operation times, digests
    and commit."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                         timeout=20 * seconds + 600)
    if out.returncode != 0:
        raise RuntimeError(f"{checkout}: bench/run.py exited {out.returncode}\n{out.stderr}")
    lines = out.stdout.splitlines()
    run = json.loads(lines[-1])
    run["ops"], run["digests"] = {}, {}
    for line in lines[:-1]:
        if line.startswith("# environment "):
            run["commit"] = json.loads(line[len("# environment "):])["commit"]
        elif line.startswith("# digests "):
            run["digests"] = json.loads(line[len("# digests "):])
        elif line.startswith("#   "):
            # per-operation times: "#   <op>_s   <value> s", only those
            # bench/run.py prints without a note in parentheses
            parts = line[4:].split()
            if len(parts) == 3 and parts[0].endswith("_s") and parts[2] == "s":
                run["ops"][parts[0]] = float(parts[1])
    return run


def checkout_label(run: dict, checkout: Path) -> str:
    """The commit of a run, or its checkout's resolved path without one."""
    commit = run.get("commit", "unknown")
    return str(checkout.resolve()) if commit == "unknown" else commit


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(statistics.median(values), 4), "q1": round(q1, 4),
            "q3": round(q3, 4), "runs": [round(v, 4) for v in values]}


def compare(parent: list, change: list, lower_is_better: bool, bound=None) -> dict:
    """Medians, quartiles and pair wins of two sides' runs; with a
    ``bound``, whether the change median is worse by more than that
    fraction of the parent median."""
    sign = 1 if lower_is_better else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p, c = summary(parent), summary(change)
    pct = 100 * (c["median"] - p["median"]) / p["median"] if p["median"] else 0.0
    claimable = (wins >= 0.9 * len(parent)
                 and sign * (p["median"] - c["median"]) > p["q3"] - p["q1"])
    out = {"parent": p, "change": c, "change_better_pairs": wins,
           "median_change_pct": round(pct, 1), "gain_claimable": claimable}
    if bound is not None:
        out["regression"] = sign * (c["median"] - p["median"]) > bound * abs(p["median"])
    return out


def ab_workload(args, workload: str, spec: list, seconds: float) -> tuple:
    """(entry, ok, runs) of one workload's alternating pairs."""
    runs = {"parent": [], "change": []}
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            run = run_once(getattr(args, side), workload, args.seed, seconds)
            runs[side].append(run)
            print(f"{workload} pair {k} {side}: " + ", ".join(
                f"{m['name']} {run['metrics'][m['name']]['value']:.4f}" for m in spec), flush=True)

    entry = {"command": f"python3 bench/run.py --workload {workload} --seed {args.seed} "
                        f"--seconds {seconds:g} --trace 0",
             "seed": args.seed, "pairs": args.pairs}
    for m in spec:
        name = m["name"]
        entry[name] = compare(*([r["metrics"][name]["value"] for r in runs[side]]
                                for side in ("parent", "change")),
                              m["better"] == "lower", m["bound"])
    entry["operations"] = {
        key: {side: sum(r[key] for r in runs[side]) for side in runs}
        for key in ("attempted", "failed")}
    share = {side: entry["operations"]["failed"][side]
             / max(entry["operations"]["attempted"][side], 1)
             for side in runs}
    entry["operations"]["failed_share_regression"] = share["change"] > share["parent"]
    regressions = [m["name"] for m in spec if entry[m["name"]]["regression"]]
    if entry["operations"]["failed_share_regression"]:
        regressions.append("failed-operation share")
    ops = [op for op in runs["parent"][0]["ops"] if all(op in r["ops"] for r in runs["change"])]
    entry["jobs"] = {op: compare([r["ops"][op] for r in runs["parent"]],
                                 [r["ops"][op] for r in runs["change"]], True) for op in ops}
    digests = {json.dumps(r["digests"], sort_keys=True) for side in runs for r in runs[side]}
    ok = (len(digests) == 1
          and all(r["correct"] and not r["failed"] for side in runs for r in runs[side]))

    print(f"# {workload} seed {args.seed}, {args.pairs} pairs of {seconds:g} s runs")
    for m in spec:
        rows = [(m["name"], entry[m["name"]])]
        if m["name"] == "norm_wall_s":
            rows += [(f"  job {op}", r) for op, r in entry["jobs"].items()]
        for label, r in rows:
            p, c = r["parent"], r["change"]
            print(f"{label:<26} parent {p['median']:.4f} [{p['q1']:.4f}, {p['q3']:.4f}]  "
                  f"change {c['median']:.4f} [{c['q1']:.4f}, {c['q3']:.4f}]  "
                  f"{r['median_change_pct']:+.1f}%  wins {r['change_better_pairs']}/{args.pairs}"
                  + ("  gain claimable" if r["gain_claimable"] else "")
                  + (f"  REGRESSION beyond the {m['bound']:.0%} bound"
                     if r.get("regression") else ""))
    print("operations", entry["operations"], "digests identical" if len(digests) == 1
          else "DIGESTS DIFFER")
    if entry["operations"]["failed_share_regression"]:
        print(f"REGRESSION: failed-operation share {share['parent']:.4f} -> {share['change']:.4f}")

    return entry, ok and not regressions, runs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True, nargs="+")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("need --pairs >= 2 for quartiles")

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    spec, seconds = bench["end_to_end"], bench["run_seconds"]
    passed = True
    for workload in args.workload:
        entry, ok, runs = ab_workload(args, workload, spec, seconds)
        passed &= ok
        if args.out:
            doc = json.loads(args.out.read_text()) if args.out.exists() else {}
            doc.update({
                "parent": checkout_label(runs["parent"][0], args.parent),
                "change": checkout_label(runs["change"][0], args.change),
                "order": "alternating: parent first on even pairs, change first on odd pairs",
                "metrics_note": "medians and quartiles (inclusive method) over each side's runs, "
                                "listed in pair order; jobs are the per-operation times "
                                "bench/run.py prints (medians over passes at nominal speed)",
            })
            doc.setdefault("workloads", {})[workload] = entry
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
