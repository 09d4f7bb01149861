"""Command-line interface and catalog persistence."""

import copy
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from isopairs import reps as R
from isopairs.acceptance import canonical_json
from isopairs.cli import build_from_spec, main
from isopairs.exactlin import Matrix
from isopairs.pairs import PairStructure
from isopairs.rng import Lcg64
from isopairs.supercore import SuperSpace


def run(argv):
    return main(argv)


def test_make_and_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "gl11.json"
    assert run(["make", "gl:1,1", "-o", str(out)]) == 0
    entry = json.loads(out.read_text())
    assert entry["pair_sha256"] == entry["report_pair_sha256"]
    assert entry["verify_report"]["passed"]
    # canonical file: parse -> serialize is byte-identical
    assert canonical_json(entry) == out.read_text()
    assert run(["verify", str(out)]) == 0
    captured = capsys.readouterr()
    assert "verdict: pass" in captured.out


def test_make_gl10_trivial(tmp_path):
    out = tmp_path / "gl10.json"
    assert run(["make", "gl:1,0", "-o", str(out)]) == 0
    pair = PairStructure.from_json(json.loads(out.read_text())["pair"])
    assert pair.v1.dim == 1 and pair.m1 == {}


def test_make_osq_notes_dimensions(tmp_path):
    out = tmp_path / "osq2.json"
    assert run(["make", "osq:2", "-o", str(out)]) == 0
    entry = json.loads(out.read_text())
    assert entry["notes"]["convention"] == "supertranspose"
    assert entry["notes"]["dimensions"]["v1"] == "3|0"


# SHA-256 of the canonical `isopair make osq:n -o` entry without its
# `created` timestamp
OSQ_DIGESTS = {
    "osq:1": "ddb0ed35698e979adf044e64e89eb589fa02f71d25cdfa3d0eea2765ae55f0e2",
    "osq:2": "3a366384bce86ddff3d78becafee6565247c303eb23908171ac8ef09343d5e64",
    "osq:3": "812398d93a4b6e5e72e7bd0a0771c4b9407cc5585d2ac477882fb1f2f74c71df",
}


@pytest.mark.parametrize("spec", sorted(OSQ_DIGESTS))
def test_make_osq_entries_pinned(spec, tmp_path):
    out = tmp_path / "osq.json"
    assert run(["make", spec, "-o", str(out)]) == 0
    entry = json.loads(out.read_text())
    del entry["created"]
    assert hashlib.sha256(canonical_json(entry).encode()).hexdigest() == OSQ_DIGESTS[spec]


def test_verify_detects_corruption(tmp_path, capsys):
    out = tmp_path / "gl11.json"
    run(["make", "gl:1,1", "-o", str(out)])
    entry = json.loads(out.read_text())
    # corrupt one structure constant
    entry["pair"]["m1"][0]["out"][0]["c"] = "7"
    bad = tmp_path / "bad_pair.json"
    bad.write_text(canonical_json(entry))
    assert run(["verify", str(bad)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_malformed_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"v1": [1, 2')
    assert run(["verify", str(bad)]) == 2
    assert "line" in capsys.readouterr().err


def _verify_edited_pair(tmp_path, capsys, edit):
    """Exit code and stderr of verify on a gl(1,1) catalog file after
    ``edit`` changes its pair JSON."""
    out = tmp_path / "gl11.json"
    run(["make", "gl:1,1", "-o", str(out)])
    capsys.readouterr()
    entry = json.loads(out.read_text())
    edit(entry["pair"])
    bad = tmp_path / "edited.json"
    bad.write_text(canonical_json(entry))
    code = run(["verify", str(bad)])
    return code, capsys.readouterr().err


def test_verify_negative_index_exit_2(tmp_path, capsys):
    def edit(pair):
        pair["m1"][0]["u"] = -1

    code, err = _verify_edited_pair(tmp_path, capsys, edit)
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and "out of range" in err


def test_verify_zero_denominator_exit_2(tmp_path, capsys):
    def edit(pair):
        pair["m1"][0]["out"][0]["c"] = "1/0"

    code, err = _verify_edited_pair(tmp_path, capsys, edit)
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and "zero denominator" in err


def test_verify_duplicate_entries_exit_2(tmp_path, capsys):
    def duplicate_row(pair):
        pair["m1"].append(dict(pair["m1"][0], out=[{"idx": 0, "c": "5"}]))

    def duplicate_output(pair):
        out = pair["m2"][0]["out"]
        out.append(dict(out[0], c="5"))

    for edit, what in ((duplicate_row, "tensor row"), (duplicate_output, "output index")):
        code, err = _verify_edited_pair(tmp_path, capsys, edit)
        assert code == 2
        assert len(err.strip().splitlines()) == 1 and f"duplicate {what}" in err


@pytest.mark.parametrize("value", [0.9, "0", True, 1.0])
@pytest.mark.parametrize("field", ["u", "x", "y", "idx"])
def test_verify_non_integer_index_exit_2(tmp_path, capsys, field, value):
    # int() would truncate 0.9 to 0 or parse "0", so a row could silently
    # replace another one instead of being rejected
    def edit(pair):
        row = pair["m1"][1]
        (row["out"][0] if field == "idx" else row)[field] = value

    code, err = _verify_edited_pair(tmp_path, capsys, edit)
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and "must be a JSON integer" in err


@pytest.mark.parametrize("value", [0.1, 1.0, True, None])
def test_verify_non_string_coefficient_exit_2(tmp_path, capsys, value):
    def edit(pair):
        pair["m2"][0]["out"][0]["c"] = value

    code, err = _verify_edited_pair(tmp_path, capsys, edit)
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and "string or an integer" in err


def test_verify_integer_coefficient_accepted(tmp_path, capsys):
    def edit(pair):
        for row in pair["m1"] + pair["m2"]:
            for e in row["out"]:
                if "/" not in e["c"]:
                    e["c"] = int(e["c"])

    code, err = _verify_edited_pair(tmp_path, capsys, edit)
    assert code == 0 and not err


def test_unknown_spec_exit_2(tmp_path, capsys):
    assert run(["make", "zzz:9", "-o", str(tmp_path / "x.json")]) == 2
    assert "unknown builder spec" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["make", "verify"])
def test_jobs_flag_is_a_usage_error(tmp_path, capsys, command):
    out = tmp_path / "q1.json"
    run(["make", "q:1", "-o", str(out)])
    capsys.readouterr()  # drop the make line
    args = ["q:1", "-o", str(out)] if command == "make" else [str(out)]
    with pytest.raises(SystemExit) as exc:
        run([command, *args, "--jobs", "2"])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--jobs" in errors[0]


def test_tkk_and_lts_commands(tmp_path, capsys):
    pair_file = tmp_path / "gl11.json"
    run(["make", "gl:1,1", "-o", str(pair_file)])
    alg_file = tmp_path / "alg.json"
    capsys.readouterr()
    assert run(["tkk", str(pair_file), "-o", str(alg_file)]) == 0
    # the line pins the printed Koszul sign sigma
    assert capsys.readouterr().out == (
        "g0 dim 6, total dim 14, sigma (-1)^p(x)p(u)*(-1)^p(x)*(-1)^p(u); "
        "check_superalgebra pass\n")
    dumped = json.loads(alg_file.read_text())
    assert dumped["grading"].count("0") == dumped["labels"].index("E0,0+")
    flip_file = tmp_path / "flip.json"
    assert run(["make", "flip:gl:1,1", "-o", str(flip_file)]) == 0
    assert run(["lts", str(flip_file)]) == 0
    assert "axioms pass" in capsys.readouterr().out


def test_lts_on_isotopic_pair_fails_precondition(tmp_path, capsys):
    pair_file = tmp_path / "gl11.json"
    run(["make", "gl:1,1", "-o", str(pair_file)])
    assert run(["lts", str(pair_file)]) == 1
    assert "precondition" in capsys.readouterr().err


# SHA-256 of [exit code, stdout, stderr, the -o file or None] for
# ``isopair tkk FILE -o OUT`` and ``isopair lts FILE --json`` on each spec's
# pair file, recorded before the hull and the triple system were read off
# the generators D(x, u); the first is the tkk run, the second the lts run
TKK_LTS_DIGESTS = {
    "flip:gl:1,0": (
        "16d3b61208e0bd0368137fa3ade0f1c959a3578eb5394834c3b4c126ae089a5e",
        "a1032b126ee4db789022d0ad8d8d18d1e43c7abc173d74df25ba6be112e5909d",
    ),
    "flip:gl:1,1": (
        "16d3b61208e0bd0368137fa3ade0f1c959a3578eb5394834c3b4c126ae089a5e",
        "e9d3a22a017b1fada86cd28c2f613208303921bd6a8d1e6a6a0ee7d3c81d7b0f",
    ),
    "flip:gl:2,1": (
        "16d3b61208e0bd0368137fa3ade0f1c959a3578eb5394834c3b4c126ae089a5e",
        "f9cd7a3d034e602ab9268c451ddae15f05e8cb9a45c9ca1f48673ae3a67f8a2a",
    ),
    "flip:gl:2,2": (
        "16d3b61208e0bd0368137fa3ade0f1c959a3578eb5394834c3b4c126ae089a5e",
        "90a3fcb5a8448b2cca45f344d447a035323f255c219948be7ed711ca05ad19c0",
    ),
    "flip:isoq": (
        "16d3b61208e0bd0368137fa3ade0f1c959a3578eb5394834c3b4c126ae089a5e",
        "e9d3a22a017b1fada86cd28c2f613208303921bd6a8d1e6a6a0ee7d3c81d7b0f",
    ),
    "flip:magnetic:sl2": (
        "16d3b61208e0bd0368137fa3ade0f1c959a3578eb5394834c3b4c126ae089a5e",
        "9a3b299bd4f8a6e20cecbbe0bf3e2de4d847e09d7a18c138a0d702a01ade9f36",
    ),
    "flip:osp+:2,2": (
        "16d3b61208e0bd0368137fa3ade0f1c959a3578eb5394834c3b4c126ae089a5e",
        "58456a7009433eb69e4576b28c82e83bb974b8b89fdae697da090a6b7c859be3",
    ),
    "flip:osp-:2,2": (
        "16d3b61208e0bd0368137fa3ade0f1c959a3578eb5394834c3b4c126ae089a5e",
        "58456a7009433eb69e4576b28c82e83bb974b8b89fdae697da090a6b7c859be3",
    ),
    "flip:osq:2": (
        "16d3b61208e0bd0368137fa3ade0f1c959a3578eb5394834c3b4c126ae089a5e",
        "2b42d4a0daed38b66a124f4d34abba4a0b38d65f6ebe65920f3d95a5994996a6",
    ),
    "flip:q:1": (
        "16d3b61208e0bd0368137fa3ade0f1c959a3578eb5394834c3b4c126ae089a5e",
        "8d833e611ce19c0ea482d91b3213829434633f436bfa80725954b41e9ba2100b",
    ),
    "flip:q:2": (
        "16d3b61208e0bd0368137fa3ade0f1c959a3578eb5394834c3b4c126ae089a5e",
        "58456a7009433eb69e4576b28c82e83bb974b8b89fdae697da090a6b7c859be3",
    ),
    "gl:1,0": (
        "167483f364e6cc7bd40d2fe9c129e8b904e73417f2c665ac6ebd3aae84e224c1",
        "6f93a4fec7d3626c46f80fdebe5088450924c42681c89b444b8fdb8fc32ba81a",
    ),
    "gl:1,1": (
        "ae65a285e46b0d1bddb19a00a2aab6e0fee9ef5475134966caf6c70c14e4c808",
        "6f93a4fec7d3626c46f80fdebe5088450924c42681c89b444b8fdb8fc32ba81a",
    ),
    "gl:2,1": (
        "e90826b975d3450623a4d11b258f3e5aa6f776a1efa81c19d2821040065280a3",
        "6f93a4fec7d3626c46f80fdebe5088450924c42681c89b444b8fdb8fc32ba81a",
    ),
    "gl:2,2": (
        "101b889b11b7d237bc7d7ae31e169910a2b9e1f20182b548ed7a4ee265359721",
        "6f93a4fec7d3626c46f80fdebe5088450924c42681c89b444b8fdb8fc32ba81a",
    ),
    "isoq": (
        "698de688276bfe4e8ee4a90439a93d929f82ec3af529514dae9a061805dc0e7e",
        "6f93a4fec7d3626c46f80fdebe5088450924c42681c89b444b8fdb8fc32ba81a",
    ),
    "magnetic:sl2": (
        "86c5c3163bd0869f90604771c4bb3187e1c72a17785304fbb8a975689432c840",
        "6f93a4fec7d3626c46f80fdebe5088450924c42681c89b444b8fdb8fc32ba81a",
    ),
    "osp+:2,2": (
        "cbf1459e0bd3cd7456d850d84285d56c9304eb51e215dd93682f266800d172b7",
        "6f93a4fec7d3626c46f80fdebe5088450924c42681c89b444b8fdb8fc32ba81a",
    ),
    "osp-:2,2": (
        "076a651239514f5a5a642df95b5501c981c197830c9484e625889788fa86122d",
        "6f93a4fec7d3626c46f80fdebe5088450924c42681c89b444b8fdb8fc32ba81a",
    ),
    "osq:2": (
        "6f369828fbcd0d6775f1d543356fbe276251b4b79017335dd6ce8c7320d38498",
        "6f93a4fec7d3626c46f80fdebe5088450924c42681c89b444b8fdb8fc32ba81a",
    ),
    "q:1": (
        "b4e87b60b4a88ebd620577b49ba5cc0412b0326f99044919bc62842b0d13a8c3",
        "6f93a4fec7d3626c46f80fdebe5088450924c42681c89b444b8fdb8fc32ba81a",
    ),
    "q:2": (
        "6b4a9cc00a2458cb3ab62bb38e6143dd873edbf7c7606177fef81950380eab3e",
        "6f93a4fec7d3626c46f80fdebe5088450924c42681c89b444b8fdb8fc32ba81a",
    ),
}


@pytest.mark.parametrize("spec", sorted(TKK_LTS_DIGESTS))
def test_tkk_and_lts_outputs_pinned(spec, tmp_path, capsys):
    pair_file, alg_file = tmp_path / "pair.json", tmp_path / "alg.json"
    assert run(["make", spec, "-o", str(pair_file)]) == 0
    capsys.readouterr()
    got = []
    for argv in (["tkk", str(pair_file), "-o", str(alg_file)], ["lts", str(pair_file), "--json"]):
        alg_file.unlink(missing_ok=True)
        code = run(argv)
        captured = capsys.readouterr()
        written = alg_file.read_text() if alg_file.exists() else None
        record = [code, captured.out, captured.err, written]
        got.append(hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest())
    assert tuple(got) == TKK_LTS_DIGESTS[spec]


def test_tkk_with_a_wrong_sigma_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    # under this sign form a commutator of two generators leaves their
    # span, which is a precondition failure, not a traceback
    from isopairs import tkk

    pair_file = tmp_path / "gl11.json"
    run(["make", "gl:1,1", "-o", str(pair_file)])
    capsys.readouterr()
    monkeypatch.setattr(tkk, "_sigma", lambda px, pu, pv: 1)
    assert run(["tkk", str(pair_file)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("precondition violated: ")
    assert "span" in lines[0] and "Traceback" not in captured.err


def test_rep_hw_on_super_jordan_pair_fails_precondition(capsys):
    # Definition 2 is imposed on isotopic pairs only: a super-Jordan pair
    # is a precondition failure, not an empty module that passes its checks
    assert run(["rep", "hw", "--pair", "flip:gl:2,0", "--weights", "1/2,1/2", "--cap", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("precondition violated:")


def test_rep_hw_without_matrix_units_is_a_usage_error(capsys):
    assert run(["rep", "hw", "--pair", "osp+:2,2", "--weights", "1/2,1/2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: hw grading needs a matrix-unit pair (gl series)\n"


def test_rep_hw_fundamental(capsys):
    code = run(["rep", "hw", "--pair", "gl:2,0", "--weights", "1/2,1/2", "--cap", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "total dim 4" in out and "pass" in out


# SHA-256 of the stdout and of the -o JSON of `isopair rep ...`, recorded
# before the word engine listed each antisymmetric instance pair once
_STDOUT_DIM4 = "bbfcfc63f3b7e31aaad713fd6dc15f6f767a3669b671e8ef4362d8ab432d6f6f"
_STDOUT_DIM1 = "7ca08ec97dcb56150aa37b94e8c601f9622ce60eda27322ce593c005ce82601e"
_STDOUT_DIM0 = "bed00c97bef3038f1c88c89d4895a7092877ac79a09bab51d82ba3f473691c38"
_STDOUT_DIM6 = "af61a7cf13535151d93dd27d3a616c015152034ee7dd024c13d5d9429da8d5f6"


_REP_PINS = [
    (["hw", "--pair", "gl:2,0", "--weights", "1/2,1/2", "--cap", "7"], _STDOUT_DIM4,
     "278b4d59c42cdbcbd10c6a0449678f6cd5ecfcd24bad3cf1d79a883415d26baf"),
    (["hw", "--pair", "gl:2,0", "--weights", "1,0"], _STDOUT_DIM1,
     "c7a744378943d2943e63105e8a446f1382a18521691448bc35d5671e2a1b0c24"),
    (["hw", "--pair", "gl:2,0", "--weights", "0,0"],
     "21497ccc90b5fa8df7ed941f0bab82a3249701d2abb25fda57b5a008f60d92df",
     "e4be81b6d5b8c320b2b23e160df731ca52a532670d0d4699a28f99b9d1e463bc"),
    (["hw", "--pair", "gl:2,0", "--weights", "3/2,-1/2"], _STDOUT_DIM0,
     "348c8855cfa24ecfc59412c65d41b87b17db0b4ef8ae1a4661ae0da6fbed58e7"),
    (["hw", "--pair", "gl:1,1", "--weights", "1/2,1/2"], _STDOUT_DIM4,
     "bb3a488e1de827f9a0b7c8c5065e2eae0bdbc71f7916f90c03116ff455a6ab92"),
    (["hw", "--pair", "gl:1,1", "--weights", "1,-1"], _STDOUT_DIM0,
     "03eae49e6b58e5f0733844182e7cea115e45da81ef5eaa984f3d0c2ed9a4ba59"),
    (["hw", "--pair", "gl:2,1", "--weights", "1/2,1/2", "--cap", "4"], _STDOUT_DIM6,
     "888a9aeff90fdd5affe874b64fa18b99a4515e8f7429de3d3323fec1476a0ce6"),
    (["hw", "--pair", "gl:2,1", "--weights", "1,0", "--cap", "4"], _STDOUT_DIM1,
     "4de82fa051fc5e3d64c4213bd0d1b65477d04c9a22acd08c2b6a64f201c588ec"),
    (["hw", "--pair", "gl:3,0", "--weights", "1,0", "--cap", "4"], _STDOUT_DIM1,
     "67b9354b7674c8f0e2a442a6fb50cec0bce57b2707c3290b5ad8c6911b68f2ef"),
    (["hw", "--pair", "gl:1,2", "--weights", "1/2,1/2", "--cap", "4"], _STDOUT_DIM6,
     "987fe5c245e943add2fa6487a1b56d2a7ff41ef15691e531a7199a8efed699d8"),
    (["induce", "--pair", "gl:2,0", "--chi", "1,0", "--cap", "6"],
     "0d7b2b2389c0d2a4cdd0aa3ede5a02ca9452deaa15cc3018714afc9fc0da676f",
     "57eec379d0ae5dfbc69b41cb45d35c129d73fa4af6e82709c0fe41c376575c6a"),
]


@pytest.mark.parametrize("argv, stdout_sha, json_sha", _REP_PINS,
                         ids=[" ".join(argv) for argv, _, _ in _REP_PINS])
def test_rep_outputs_are_pinned(tmp_path, capsys, argv, stdout_sha, json_sha):
    out = tmp_path / "module.json"
    assert run(["rep", *argv, "-o", str(out)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_sha
    assert hashlib.sha256(out.read_bytes()).hexdigest() == json_sha


def test_rep_check_command(tmp_path, capsys):
    from isopairs.reps import isoquaternion_fundamental

    res = isoquaternion_fundamental()
    payload = res.rep.to_json()
    payload["split"] = res.split.to_json()
    f = tmp_path / "rep.json"
    f.write_text(canonical_json(payload))
    assert run(["rep", "check", str(f)]) == 0
    assert "verdict: pass" in capsys.readouterr().out


def test_rep_graph_check_command(tmp_path, capsys):
    from isopairs.reps import graph_from_rep, isoquaternion_fundamental

    gr = graph_from_rep(isoquaternion_fundamental().rep)
    f = tmp_path / "graph.json"
    f.write_text(canonical_json(gr.to_json()))
    assert run(["rep", "graph-check", str(f)]) == 0


def test_poly_check_command(capsys):
    assert run(["poly-check", "--n", "1", "--m", "1", "--trials", "5"]) == 0
    assert "verdict: pass" in capsys.readouterr().out


def test_poly_bracket_evaluation(capsys):
    # [f, g]_X with f = x1, g = 1, X = d/dx1 evaluates to -1
    assert run(
        ["poly-check", "--n", "1", "--m", "1",
         "--bracket-functions", "x1", "1", "dx1"]
    ) == 0
    assert capsys.readouterr().out.strip() == "-1"
    assert run(
        ["poly-check", "--n", "1", "--m", "0",
         "--bracket-fields", "dx1", "x1*dx1", "1"]
    ) == 0
    assert "dx1" in capsys.readouterr().out
    # parse errors exit with code 2
    assert run(
        ["poly-check", "--n", "1", "--m", "0", "--bracket-functions", "x7", "1", "dx1"]
    ) == 2


@pytest.mark.parametrize("argv", [
    ["--bracket-functions", "1/0", "1", "dx1"],
    ["--bracket-fields", "1/0*dx1", "dx1", "1"],
], ids=["functions", "fields"])
def test_poly_zero_denominator_exits_2_with_one_line(capsys, argv):
    assert run(["poly-check", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad factor '1/0'\n"


@pytest.mark.parametrize("argv, factor", [
    (["--bracket-functions", "x1^-1", "1", "dx1"], "x1^-1"),
    (["--m", "1", "--bracket-functions", "x1", "t1^-1", "dx1"], "t1^-1"),
    (["--bracket-fields", "x1^-1*dx1", "dx1", "1"], "x1^-1"),
], ids=["functions-x", "functions-t", "fields"])
def test_poly_negative_exponent_exits_2_naming_the_factor(capsys, argv, factor):
    assert run(["poly-check", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: negative exponent in '{factor}'\n"


@pytest.mark.parametrize("argv, out", [
    (["--m", "1", "--bracket-functions", "x1", "1", "dx1"], "-1"),
    (["--m", "2", "--bracket-functions", "x1*t1 + 1/2*t2", "t1*t2 - 2*x1",
      "t1*dx1 + x1*t2*dx1 + x1*dt1"],
     "1*t1*t2 + 2*x1^2*t1*t2 + -2*x1^3"),
    (["--m", "2", "--bracket-fields", "t1*dx1 + x1*t2*dx1 + x1*dt1",
      "t2*dx1 + t1*t2*dt1 + x1^2*dt2", "x1*t1 + 1/2*t2"],
     "SuperVectorField((1/2*x1^2*t1 + 1*x1^2*t2 + -1*x1^4*t1)*dx1"
     " + (-2*x1*t1*t2 + 1*x1^2*t1*t2 + 1/2*x1^3)*dt1"
     " + (1*x1*t1*t2 + -3*x1^3*t1*t2 + 1*x1^4)*dt2)"),
], ids=["readme", "functions-m2", "fields-m2"])
def test_poly_bracket_output_is_pinned(capsys, argv, out):
    # with m = 2, products merge odd blocks with both Koszul signs
    assert run(["poly-check", "--n", "1", *argv]) == 0
    assert capsys.readouterr().out == out + "\n"


def test_wo_make(tmp_path):
    out = tmp_path / "wo.json"
    assert run(["make", "wo:1,1", "-o", str(out), "--trials", "5"]) == 0
    entry = json.loads(out.read_text())
    assert entry["wo"] == {"n": 1, "m": 1}
    assert entry["sampled_report"]["passed"]


def test_build_from_spec_known_set():
    for spec in ("gl:2,1", "osp+:2,2", "q:2", "osq:2", "magnetic:sl2", "sym2:so3", "isoq"):
        pair, _ = build_from_spec(spec)
        assert pair is not None


def _single_error_line(err: str) -> bool:
    return len(err.strip().splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize("weights", ["1/0,1", "abc,1"])
def test_rep_hw_bad_weights_exit_2(capsys, weights):
    assert run(["rep", "hw", "--pair", "gl:2,0", "--weights", weights]) == 2
    assert _single_error_line(capsys.readouterr().err)


@pytest.mark.parametrize(
    "argv",
    [
        ["rep", "hw", "--pair", "gl:2,0", "--weights", "1/2,1/2", "--cap", "0"],
        ["rep", "induce", "--pair", "gl:2,0", "--cap", "0"],
    ],
)
def test_rep_cap_zero_rejected_at_parse_time(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    # argparse prints its usage line, then one error line
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--cap" in errors[0]


def test_rep_induce_bad_chi_exit_2(capsys):
    assert run(["rep", "induce", "--pair", "gl:2,0", "--chi", "x"]) == 2
    assert _single_error_line(capsys.readouterr().err)


@pytest.mark.parametrize(
    "split", [{"h": [0]}, {"h1": [99], "h2": []}, {"h1": [0.0, 3.0], "h2": [1, 2]}]
)
def test_rep_check_malformed_split_exit_2(tmp_path, capsys, split):
    from isopairs.reps import isoquaternion_fundamental

    payload = isoquaternion_fundamental().rep.to_json()
    payload["split"] = split
    f = tmp_path / "rep.json"
    f.write_text(canonical_json(payload))
    assert run(["rep", "check", str(f)]) == 2
    err = capsys.readouterr().err
    assert _single_error_line(err) and "not a representation file" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "0", "--m", "0"],
        ["--n", "-1"],
        ["--maxdeg", "-1"],
        ["--maxdeg", "0"],
        ["--trials", "-3"],
        ["--m", "-1", "--bracket-fields", "dx1", "x1*dx1", "x1"],
    ],
)
def test_poly_check_bad_options_exit_2(capsys, argv):
    assert run(["poly-check", *argv]) == 2
    assert _single_error_line(capsys.readouterr().err)


def test_poly_check_zero_trials_passes(capsys):
    assert run(["poly-check", "--trials", "0"]) == 0
    assert "verdict: pass" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["gl:-1,2"], ["gl:0,0"], ["gl:1"], ["osp+:0,0"], ["osp-:-1,1"], ["q:0"],
        ["osq:-1"], ["wo:0,0"], ["wo:-1,2"], ["flip:gl:-1,2"],
        ["wo:1,1", "--trials", "-3"],
    ],
)
def test_make_bad_sizes_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "x.json"
    assert run(["make", *argv, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert _single_error_line(err) and "need" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["make", "gl:1,1"], ["tkk", "PAIR"], ["rep", "hw", "--pair", "gl:2,0", "--weights", "1/2,1/2"],
    ["rep", "induce", "--pair", "gl:2,0", "--chi", "1,0"],
], ids=["make", "tkk", "rep hw", "rep induce"])
def test_output_into_a_missing_directory_exit_2(tmp_path, capsys, argv):
    pair_file = tmp_path / "gl11.json"
    run(["make", "gl:1,1", "-o", str(pair_file)])
    capsys.readouterr()
    out = tmp_path / "missing" / "x.json"
    argv = [str(pair_file) if a == "PAIR" else a for a in argv]
    assert run([*argv, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert _single_error_line(err) and str(out) in err


def _gl11_rep_json():
    from isopairs.constructions import series_gl
    from isopairs.reps import tautological_rep

    return tautological_rep(series_gl(1, 1)).to_json()


def _gl11_graph_json():
    from isopairs.constructions import series_gl
    from isopairs.reps import graph_from_rep, tautological_rep

    return graph_from_rep(tautological_rep(series_gl(1, 1))).to_json()


def _edited(payload, path, value):
    *head, last = path
    target = payload
    for key in head:
        target = target[key]
    target[last] = value
    return payload


@pytest.mark.parametrize(
    "path, value",
    [
        (("T1s",), [[]]),  # a family with no operators
        (("T1s", 0, 0), [["1"]]),  # a 1 x 1 operator on a two-dimensional H
    ],
    ids=["empty-family", "operator-shape"],
)
def test_graph_check_malformed_families_exit_2(tmp_path, capsys, path, value):
    f = tmp_path / "graph.json"
    f.write_text(canonical_json(_edited(_gl11_graph_json(), path, value)))
    assert run(["rep", "graph-check", str(f)]) == 2
    err = capsys.readouterr().err
    assert _single_error_line(err) and "not a graph-representation file" in err


@pytest.mark.parametrize(
    "path, value",
    [
        (("T1", 0, 0, 0), 1.5),  # a float scalar
        (("T1", 0, 0, 0), 0.1),  # a float that is not exactly 1/10
        (("H", "labels"), "ab"),  # labels given as a string
    ],
    ids=["float-1.5", "float-0.1", "labels-string"],
)
def test_rep_check_malformed_wire_values_exit_2(tmp_path, capsys, path, value):
    f = tmp_path / "rep.json"
    f.write_text(canonical_json(_edited(_gl11_rep_json(), path, value)))
    assert run(["rep", "check", str(f)]) == 2
    err = capsys.readouterr().err
    assert _single_error_line(err) and "not a representation file" in err


@pytest.mark.parametrize("document", ["7", "null", "[]", '"x"', "true", "1.5"])
@pytest.mark.parametrize(
    "command",
    [["verify"], ["tkk"], ["lts"], ["rep", "check"], ["rep", "graph-check"]],
    ids=" ".join,
)
def test_non_object_document_exit_2(tmp_path, capsys, command, document):
    f = tmp_path / "doc.json"
    f.write_text(document)
    assert run([*command, str(f)]) == 2
    err = capsys.readouterr().err
    assert _single_error_line(err) and "expected a JSON object" in err


# ---------------------------------------------------------------------------
# the exit-code contract under mutated input files

_FUZZ_VALUES = (None, [], {}, "x", -1, 1.5, True, 10**20, "1/0")
_FUZZ_COMMANDS = (["verify"], ["tkk"], ["lts"], ["rep", "check"], ["rep", "graph-check"])


def _places(doc, path=()):
    """The path of every value in a JSON document, the document first."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _places(value, path + (key,))


def _value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutation(doc, path, value, delete):
    """``doc`` with the value at ``path`` replaced by ``value``, or its
    key deleted when ``delete`` and the value sits in an object."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    if delete and isinstance(parent, dict):
        del parent[last]
    else:
        parent[last] = value
    return doc


def _fuzz_inputs(tmp_path):
    """A `make gl:1,1` catalog entry, the rep of `rep hw` on gl(2,0)
    with its split, and that rep as a one-family graph representation."""
    from isopairs.reps import PairRep, graph_from_rep

    assert run(["make", "gl:1,1", "-o", str(tmp_path / "pair.json")]) == 0
    hw = tmp_path / "hw.json"
    assert run(["rep", "hw", "--pair", "gl:2,0", "--weights", "1/2,1/2", "--cap", "4",
                "-o", str(hw)]) == 0
    out = json.loads(hw.read_text())
    graph = graph_from_rep(PairRep.from_json(out["rep"])).to_json()
    pair = json.loads((tmp_path / "pair.json").read_text())
    return {"pair": pair, "rep": {**out["rep"], "split": out["split"]}, "graph": graph}


def test_mutated_inputs_keep_the_exit_code_contract(tmp_path, capsys):
    # every value of the three files, the whole document included, may
    # be replaced by one of _FUZZ_VALUES, or its key deleted; every
    # command then exits 0, 1 or 2, never with a traceback, and exit 2
    # comes with one error line
    rng = Lcg64(20261018)
    inputs = _fuzz_inputs(tmp_path)
    capsys.readouterr()
    for name, doc in inputs.items():
        places = list(_places(doc))
        mutations = [((), value, False) for value in _FUZZ_VALUES]
        mutations += [(rng.choice(places), rng.choice(_FUZZ_VALUES), rng.below(4) == 0)
                      for _ in range(25)]
        for path, value, delete in mutations:
            f = tmp_path / f"{name}.mutated.json"
            f.write_text(json.dumps(_mutation(doc, path, value, delete)))
            for command in _FUZZ_COMMANDS:
                code = run([*command, str(f)])
                err = capsys.readouterr().err
                assert code in (0, 1, 2), (name, path, value, delete, command)
                assert code != 2 or _single_error_line(err), (name, path, value, err)


_READERS = {"pair": (["verify"], ["tkk"], ["lts"]), "rep": (["rep", "check"],),
            "graph": (["rep", "graph-check"],)}


@pytest.mark.parametrize("scalar", ["huge-int", "exponent"])
def test_file_readers_exit_2_fast_on_oversized_numbers(tmp_path, capsys, scalar):
    # the first scalar string of each input file becomes a JSON integer
    # of 4,301 digits (past Python's int/str digit limit, so json.load
    # raises a plain ValueError) or the 10-character "1e10000000", which
    # the p / p/q wire format does not allow; every command that reads
    # the file exits 2 with one error line, in a fresh interpreter under
    # a time limit
    inputs = _fuzz_inputs(tmp_path)
    capsys.readouterr()
    env = {**os.environ, "PYTHONPATH": str(Path(R.__file__).resolve().parents[1])}
    for name, doc in inputs.items():
        path = next(p for p in _places(doc)
                    if isinstance(_value_at(doc, p), str) and _value_at(doc, p).isdigit())
        text = json.dumps(_mutation(doc, path, "1e10000000", False))
        if scalar == "huge-int":
            text = text.replace('"1e10000000"', "1" + "0" * 4300)
        f = tmp_path / f"{name}.{scalar}.json"
        f.write_text(text)
        for command in _READERS[name]:
            out = subprocess.run([sys.executable, "-m", "isopairs.cli", *command, str(f)],
                                 capture_output=True, text=True, env=env, timeout=20)
            assert out.returncode == 2 and _single_error_line(out.stderr), (command, out.stderr)


def test_rep_induce_embeds_only_the_even_diagonal(capsys):
    # q:1's diagonal holds the even e0,0 and the odd o0,0: the subpair
    # is e0,0 alone, so --chi takes one value, and the module is the one
    # induced from e0,0 (a rep from cap 5 on)
    assert run(["rep", "induce", "--pair", "q:1", "--chi", "1", "--cap", "5"]) == 0
    out = capsys.readouterr().out
    pair, _ = build_from_spec("q:1")
    sub = [[int(label == "e0,0") for label in pair.v1.labels]]
    dspace = SuperSpace.make(["e0,0"], [0])
    subrep = R.PairRep(PairStructure(dspace, dspace, "isotopic", {}, {}),
                       SuperSpace.make(["w1", "w2"], [0, 0]),
                       [Matrix.from_rows([[0, 0], [1, 0]])], [Matrix.from_rows([[0, 1], [0, 0]])])
    want, containment = R.induced_split_module(pair, sub, sub, subrep, R.SplitData((0,), (1,)),
                                               cap=5)
    assert f"total dim {want.total_dim}," in out
    assert containment.passed and "contains subrep: pass" in out
    assert "check_rep + check_split: pass" in out


@pytest.mark.parametrize("argv", [
    ["--pair", "gl:2,0", "--chi", "1,0", "--cap", "5"],
    ["--pair", "q:1", "--chi", "1", "--cap", "3"],
], ids=["gl20", "q1"])
def test_rep_induce_exits_1_when_the_module_is_no_rep(capsys, argv):
    # the module closes within the cap and contains the subrep, but
    # relations among longer words are missing: check_rep fails on it
    assert run(["rep", "induce", *argv]) == 1
    out = capsys.readouterr().out
    assert "stabilized: True" in out and "contains subrep: pass" in out
    assert "check_rep + check_split: FAIL" in out


@pytest.mark.parametrize("argv", [
    ["--pair", "gl:1,1", "--chi", "1,2", "--cap", "3"],
    ["--pair", "gl:2,0", "--chi", "1,0", "--cap", "3"],
], ids=["gl11", "gl20"])
def test_rep_induce_exits_1_unless_stabilized(capsys, argv):
    assert run(["rep", "induce", *argv]) == 1
    out = capsys.readouterr().out
    assert "stabilized: False" in out and "contains subrep" not in out


def test_rep_induce_exits_1_when_containment_fails(capsys, monkeypatch):
    real = R.induced_split_module

    def failing(*args, **kwargs):
        result, containment = real(*args, **kwargs)
        return result, replace(containment, failure_count=1)

    monkeypatch.setattr(R, "induced_split_module", failing)
    assert run(["rep", "induce", "--pair", "q:1", "--chi", "1", "--cap", "5"]) == 1
    out = capsys.readouterr().out
    assert "stabilized: True" in out and "contains subrep: FAIL" in out
    assert "check_rep + check_split: pass" in out


@pytest.mark.parametrize("spec", ["flip:gl:1,1", "flip:gl:2,1", "osq:2", "osp+:0,2"])
def test_rep_induce_without_even_diagonal_exit_2(capsys, spec):
    # every diagonal element of a flipped gl pair is odd; osq:2's V2
    # (k0,1) and osp+:0,2's (w0,1) hold no diagonal element at all
    assert run(["rep", "induce", "--pair", spec]) == 2
    err = capsys.readouterr().err
    assert _single_error_line(err) and "even diagonal" in err


def test_rep_induce_embeds_each_side_by_its_own_labels(monkeypatch):
    # osp+:2,2's even diagonal is d2,2 and d3,3 on V1 but s0,0 and s1,1
    # on V2, at other indices
    seen = {}
    real = R.induced_split_module

    def spy(pair, sub1, sub2, subrep, *args, **kwargs):
        seen.update({1: sub1, 2: sub2, "subrep": subrep})
        return real(pair, sub1, sub2, subrep, *args, **kwargs)

    monkeypatch.setattr(R, "induced_split_module", spy)
    run(["rep", "induce", "--pair", "osp+:2,2", "--cap", "2"])
    pair, _ = build_from_spec("osp+:2,2")
    for side, want in ((1, ["d2,2", "d3,3"]), (2, ["s0,0", "s1,1"])):
        labels = pair.space(side).labels
        assert [[labels[k] for k, c in enumerate(e) if c] for e in seen[side]] == [[l] for l in want]
        assert all(sum(e) == 1 for e in seen[side])
        assert list(seen["subrep"].pair.space(side).labels) == want


@pytest.mark.parametrize("spec", ["magnetic:sl2", "magnetic:so3", "sym2:so3"])
def test_rep_induce_needs_matrix_labels_exit_2(capsys, spec):
    # labels without <letter>i,j indices have no diagonal subpair
    assert run(["rep", "induce", "--pair", spec]) == 2
    err = capsys.readouterr().err
    assert _single_error_line(err) and "<letter>i,j" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--bracket-fields", "dx1+t1*dx1", "dx1", "x1"],
        ["--bracket-functions", "x1+t1", "1", "dx1"],
    ],
)
def test_poly_check_inhomogeneous_input_exit_2(capsys, argv):
    assert run(["poly-check", "--n", "1", "--m", "1", *argv]) == 2
    err = capsys.readouterr().err
    assert _single_error_line(err) and "inhomogeneous" in err
