#!/usr/bin/env python3
"""Check every benchmark job's report against bench/digests.json.

Usage: python scripts/check_digests.py [seed ...]   (default: seeds 0-10)

Runs each job of every workload once per seed, untimed, and compares the
SHA-256 of its gated report with the digest recorded for that workload,
seed and job.  Prints one line per workload and seed and exits 1 if any
job fails its gate, has no recorded digest, or gives a different report.
Reads bench/ and writes nothing.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import workloads  # noqa: E402


def main(seeds) -> int:
    recorded = json.loads((BENCH / "digests.json").read_text())
    bad = 0
    for name, build in workloads.WORKLOADS.items():
        for seed in seeds:
            expected = recorded.get(name, {}).get(str(seed), {})
            wrong = []
            jobs = build(seed)
            for job in jobs:
                ok, payload = job.gate(job.call(*job.args()))
                if not ok:
                    wrong.append(f"{job.name} (fails its gate)")
                elif expected.get(job.name) != workloads.canonical_digest(payload):
                    wrong.append(job.name)
            bad += len(wrong)
            status = "identical" if not wrong else "DIFFERS: " + "; ".join(wrong)
            print(f"{name} seed {seed}: {len(jobs)} jobs, {status}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]] or range(11)))
