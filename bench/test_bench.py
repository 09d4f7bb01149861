"""Tests of the benchmark itself; run with ``python -m pytest bench``.

No timing is asserted: the smoke test only checks that every workload
and the traced mode run on the smallest inputs, print every metric and
report no errors.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from isopairs import constructions as C  # noqa: E402
from isopairs.pairs import PairStructure  # noqa: E402
from isopairs.reps import GradedPairData  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
# every end-to-end metric the runner prints, per workload
PRINTED = {
    "verify-sparse": ["verify_s"],
    "verify-dense": ["verify_s"],
    "modules": ["hull_s", "lts_s", "hw_s", "poly_check_s"],
}


def _canonical(arg):
    if isinstance(arg, PairStructure):
        return arg.to_json()
    if isinstance(arg, GradedPairData):
        return [arg.pair.to_json(), arg.deg1, arg.deg2]
    return repr(arg)


def _inputs_bytes(seed: int) -> dict:
    """Every job's arguments, serialized, keyed by (workload, job)."""
    return {
        (name, job.name): json.dumps([_canonical(a) for a in job.args()], sort_keys=True)
        for name, build in workloads.WORKLOADS.items()
        for job in build(seed)
    }


def test_workloads_match_benchmark_json():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


def test_same_seed_same_bytes_and_seeds_differ():
    first, again, other = _inputs_bytes(7), _inputs_bytes(7), _inputs_bytes(8)
    assert first == again
    assert first.keys() == other.keys()
    # every seeded job changes with the seed; the fixed rep hw input does not
    changed = {k for k in first if first[k] != other[k]}
    assert changed == {k for k in first if not k[1].startswith("rep hw")}


def test_scaled_pair_leaves_the_int64_range():
    import random

    rng = random.Random(3)
    pair = inputs.scale(inputs.change_basis(C.isoquaternionic_pair().pair, rng), rng)
    biggest = max(abs(c) for t in (pair.m1, pair.m2) for v in t.values() for c in v.values())
    assert biggest > inputs.SCALE_FLOOR


def test_speed_probe_samples_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe(interval=0.005)
    probe.start()
    end = time.perf_counter() + 0.1
    while time.perf_counter() < end:
        pass
    samples = probe.stop()
    assert len(samples) >= 4 and all(t > 0 for t in samples)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert speed.factor([speed.NOMINAL_S] * 3) == pytest.approx(1.0)
    assert speed.factor([2 * speed.NOMINAL_S]) == pytest.approx(0.5)


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke(workload, trace):
    out = _run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    printed = {line.split()[1] for line in lines if line.startswith("#   ")}
    want = {"setup_s", "wall_s", "norm_wall_s", "peak_rss_mb", "error_rate",
            *PRINTED[workload]}
    assert want <= printed
    assert "error_rate     0.0000" in out.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, NAMES[0], 0)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
