"""scripts/ab_bench.py: gain claims and regression flags, on stub runs."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab_bench.py"
SPEC = [{"name": "norm_wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05}]


@pytest.fixture
def ab():
    spec = importlib.util.spec_from_file_location("ab_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stub(ab, monkeypatch, tmp_path, values, failed=None, commits=None):
    """Point ab_bench at two empty checkouts whose runs report ``values``
    (side -> metric -> value), ``failed`` (side -> failed count) and
    ``commits`` (side -> commit; none where absent)."""
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        json.dumps({"run_seconds": 1, "end_to_end": SPEC}))
    failed, commits = failed or {}, commits or {}

    def run_once(checkout, workload, seed, seconds):
        side = checkout.name
        bad = failed.get(side, 0)
        run = {"correct": not bad, "attempted": 10, "failed": bad, "ops": {}, "digests": {},
               "metrics": {m: {"value": v} for m, v in values[side].items()}}
        if side in commits:
            run["commit"] = commits[side]
        return run

    monkeypatch.setattr(ab, "run_once", run_once)
    out = tmp_path / "bench.json"
    code = ab.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                    "--workload", "w", "--seed", "0", "--pairs", "3", "--out", str(out)])
    return code, json.loads(out.read_text())["workloads"]["w"]


def test_a_gain_within_every_bound_passes(ab, monkeypatch, tmp_path, capsys):
    code, entry = _stub(ab, monkeypatch, tmp_path, {
        "parent": {"norm_wall_s": 1.0, "peak_rss_mb": 40.0},
        "change": {"norm_wall_s": 0.8, "peak_rss_mb": 41.0}})
    assert code == 0
    assert entry["norm_wall_s"]["gain_claimable"] and not entry["norm_wall_s"]["regression"]
    assert not entry["peak_rss_mb"]["regression"]  # +2.5% is inside the 5% bound
    assert "REGRESSION" not in capsys.readouterr().out


def test_a_metric_worse_than_its_bound_is_flagged(ab, monkeypatch, tmp_path, capsys):
    code, entry = _stub(ab, monkeypatch, tmp_path, {
        "parent": {"norm_wall_s": 1.0, "peak_rss_mb": 40.0},
        "change": {"norm_wall_s": 0.9, "peak_rss_mb": 42.5}})
    assert code == 1
    assert entry["peak_rss_mb"]["regression"] and not entry["norm_wall_s"]["regression"]
    flagged = [line for line in capsys.readouterr().out.splitlines() if "REGRESSION" in line]
    assert len(flagged) == 1 and flagged[0].startswith("peak_rss_mb")


def test_a_larger_failed_share_is_flagged(ab, monkeypatch, tmp_path, capsys):
    same = {"norm_wall_s": 1.0, "peak_rss_mb": 40.0}
    code, entry = _stub(ab, monkeypatch, tmp_path, {"parent": same, "change": same},
                        failed={"change": 1})
    assert code == 1 and entry["operations"]["failed_share_regression"]
    assert "REGRESSION: failed-operation share 0.0000 -> 0.1000" in capsys.readouterr().out


def test_a_checkout_without_a_commit_is_labelled_by_its_path(ab, monkeypatch, tmp_path):
    same = {"norm_wall_s": 1.0, "peak_rss_mb": 40.0}
    _stub(ab, monkeypatch, tmp_path, {"parent": same, "change": same},
          commits={"change": "3e889e60c721e9fb6ae6e1fcea9585096b571dc3"})
    doc = json.loads((tmp_path / "bench.json").read_text())
    assert doc["parent"] == str((tmp_path / "parent").resolve())
    assert doc["change"] == "3e889e60c721e9fb6ae6e1fcea9585096b571dc3"


def test_each_workload_keeps_its_own_seed_pairs_and_command(ab, monkeypatch, tmp_path):
    # two runs with different seeds and pair counts, written into one file
    same = {"norm_wall_s": 1.0, "peak_rss_mb": 40.0}
    _stub(ab, monkeypatch, tmp_path, {"parent": same, "change": same})  # w: seed 0, 3 pairs
    out = tmp_path / "bench.json"
    ab.main([str(tmp_path / "parent"), str(tmp_path / "change"),
             "--workload", "v", "--seed", "7", "--pairs", "2", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert {name: (entry["seed"], entry["pairs"], entry["command"])
            for name, entry in doc["workloads"].items()} == {
        "w": (0, 3, "python3 bench/run.py --workload w --seed 0 --seconds 1 --trace 0"),
        "v": (7, 2, "python3 bench/run.py --workload v --seed 7 --seconds 1 --trace 0"),
    }
    assert not {"seed", "pairs", "command"} & set(doc)


def test_several_workloads_run_in_one_command(ab, monkeypatch, tmp_path, capsys):
    # each workload gets its own pairs and entry; one flagged workload
    # fails the command
    values = {"parent": {"norm_wall_s": 1.0, "peak_rss_mb": 40.0},
              "change": {"norm_wall_s": 0.8, "peak_rss_mb": 40.0}}
    assert _stub(ab, monkeypatch, tmp_path, values)[0] == 0  # w alone passes
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((workload, checkout.name))
        v = dict(values[checkout.name], peak_rss_mb=45.0 if (
            workload == "v" and checkout.name == "change") else 40.0)
        return {"correct": True, "attempted": 10, "failed": 0, "ops": {}, "digests": {},
                "metrics": {m: {"value": x} for m, x in v.items()}}

    monkeypatch.setattr(ab, "run_once", run_once)
    out = tmp_path / "both.json"
    code = ab.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                    "--workload", "w", "v", "--seed", "0", "--pairs", "2", "--out", str(out)])
    assert code == 1
    assert calls == [("w", "parent"), ("w", "change"), ("w", "change"), ("w", "parent"),
                     ("v", "parent"), ("v", "change"), ("v", "change"), ("v", "parent")]
    doc = json.loads(out.read_text())["workloads"]
    assert list(doc) == ["w", "v"] and all(e["pairs"] == 2 for e in doc.values())
    assert not doc["w"]["peak_rss_mb"]["regression"] and doc["v"]["peak_rss_mb"]["regression"]
    assert doc["w"]["norm_wall_s"]["change"]["runs"] == [0.8, 0.8]
    flagged = [line for line in capsys.readouterr().out.splitlines() if "REGRESSION" in line]
    assert len(flagged) == 1 and flagged[0].startswith("peak_rss_mb")
