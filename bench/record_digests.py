"""Write bench/digests.json: the SHA-256 of every job's gated report.

    python3 bench/record_digests.py 0 1 2 ...

Runs each job of every workload once per seed, untimed, and records the
digest of its canonical report JSON.  The runner compares against these
on the recorded seeds, so an evaluator that reorders or drops failures
counts as an error there.  Record only at a commit whose reports are
known good; a job that fails its gate is not recorded.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402


def main(seeds) -> int:
    path = HERE / "digests.json"
    digests = json.loads(path.read_text())
    for name, build in workloads.WORKLOADS.items():
        for seed in seeds:
            row = digests.setdefault(name, {}).setdefault(str(seed), {})
            for job in build(seed):
                ok, payload = job.gate(job.call(*job.args()))
                if not ok:
                    print(f"{name} seed {seed}: {job.name} fails its gate", file=sys.stderr)
                    return 1
                row[job.name] = workloads.canonical_digest(payload)
            print(f"{name} seed {seed}: {len(row)} jobs", flush=True)
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]]))
