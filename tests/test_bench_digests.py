"""The benchmark's job reports, pinned byte for byte.

Runs the verify-sparse, verify-dense and modules jobs of seed 0 through
``bench/workloads.py`` and compares the SHA-256 of each gated report
with the one recorded in ``bench/digests.json``; the modules jobs cover
the hull, triple-system, highest-weight module and W-O reports.  Also
checks that the verify jobs exercise every form of the identity
evaluator.  Reads ``bench/`` and writes nothing.
"""

import functools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from isopairs import pairs as P  # noqa: E402
from isopairs.supercore import CATALOG  # noqa: E402

PINNED_WORKLOADS = ("verify-sparse", "verify-dense", "modules")


@functools.lru_cache(maxsize=None)
def _jobs(workload):
    return {job.name: job for job in workloads.WORKLOADS[workload](0)}


@pytest.mark.parametrize("workload", PINNED_WORKLOADS)
def test_verify_reports_match_recorded_digests(workload):
    recorded = json.loads((BENCH / "digests.json").read_text())[workload]["0"]
    for name, job in _jobs(workload).items():
        ok, payload = job.gate(job.call(*job.args()))
        assert ok, name
        assert workloads.canonical_digest(payload) == recorded[name], name


@pytest.mark.parametrize("workload, job, form", [
    ("verify-sparse", "verify gl(2,2) relabelled", ("join", np.int64)),
    ("verify-dense", "verify gl(2,1) transported", ("dense", np.float64)),
    ("verify-dense", "verify osp+(2,1) transported scaled", ("join", np.int64)),
    ("verify-dense", "verify perturbed osp+(2,1) transported scaled",
     ("multimodular", np.float64)),
])
def test_bench_jobs_pin_the_evaluator_form(workload, job, form):
    # the sparse pair takes the join and the basis-changed dense pair the
    # float64 dense form.  Scaling by one odd factor past 2^31 is content
    # that the evaluator divides out, so the scaled pair is as far below
    # 2^53 as it was before scaling, where its join has fewer
    # contributions than its dense form has cells; perturbed after
    # scaling, it has content 1 and a checked bound past 2^62, and takes
    # the multimodular form.  The degree-1 symmetry stays far below 2^53
    # and its join has as many contributions as its dense form has
    # cells, so it takes the float64 dense form on all four
    (pair,) = _jobs(workload)[job].args()
    if pair.kind == P.ISOTOPIC:
        symmetry, deep = "antisymmetry.isotopic", ("jacobi_analog", "compatibility")
    else:
        symmetry, deep = "symmetry.superJordan", ("super_jordan",)
    for orientation in (1, 2):
        assert P._form(pair, CATALOG[symmetry], orientation) == ("dense", np.float64)
        for name in deep:
            assert P._form(pair, CATALOG[name], orientation) == form


@pytest.mark.parametrize("job, build, forms", [
    ("tkk gl(2,1) relabelled", "superalgebra_from_pair", {
        "superalgebra.antisymmetry": ("dense", np.float64),
        "superalgebra.super_jacobi": ("join", np.int64),
    }),
    ("lts flip osp+(2,2) relabelled", "lts_from_pair", {
        "lts.antisymmetry": ("dense", np.float64),
        "lts.cyclic": ("dense", np.float64),
        "lts.derivation": ("join", np.int64),
    }),
])
def test_modules_jobs_pin_the_evaluator_form(job, build, forms):
    # the hull and triple-system identities run on the one evaluator:
    # the degree-1 ones take the float64 dense form, whose blocks have as
    # many cells as the join has contributions, and the degree-2 ones,
    # over sparse tensors, the join
    from isopairs import tkk
    from isopairs.supercore import TKK_CATALOG

    (pair,) = _jobs("modules")[job].args()
    structure = getattr(tkk, build)(pair)
    for name, form in forms.items():
        assert P._form(structure, TKK_CATALOG[name], 0) == form
