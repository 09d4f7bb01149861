"""The acceptance gate: one test (and one printed line) per criterion.

All checks are exact rational equalities; the only numeric limits are
the runtime budgets stated inside the criteria themselves.  Run with
``pytest -s tests/test_acceptance.py`` to see the per-criterion table.
"""

import hashlib

import pytest

from isopairs.acceptance import DEFAULT_SEED, Artifacts, canonical_json, run_all

RESULTS = None
DIGESTS = {}  # artifact name -> SHA-256 of its canonical JSON, as run_all adds it


@pytest.fixture(scope="module")
def results():
    global RESULTS
    if RESULTS is None:
        add = Artifacts.add

        def recording(self, name, payload, parser=None):
            DIGESTS[name] = hashlib.sha256(canonical_json(payload).encode()).hexdigest()
            add(self, name, payload, parser)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Artifacts, "add", recording)
            RESULTS = {r.number: r for r in run_all(seed=DEFAULT_SEED)}
    return RESULTS


def _check(results, number):
    r = results[number]
    print(r.line())
    assert r.passed, r.line()


def test_criterion_01_identity_validation(results):
    _check(results, 1)


def test_criterion_02_series_build_and_verify(results):
    _check(results, 2)
    assert results[2].seconds < 60.0


def test_criterion_03_envelope_oracle(results):
    _check(results, 3)


def test_criterion_04_parity_flip_duality(results):
    _check(results, 4)


def test_criterion_05_magnetic_pairs(results):
    _check(results, 5)


def test_criterion_06_sym2_verdict(results):
    _check(results, 6)


def test_criterion_07_superalgebras(results):
    _check(results, 7)
    assert results[7].seconds < 30.0


def test_criterion_08_triple_system(results):
    _check(results, 8)


def test_criterion_09_fundamental_module(results):
    _check(results, 9)


def test_criterion_10_gk_round_trip(results):
    _check(results, 10)


def test_criterion_11_graph_representations(results):
    _check(results, 11)


def test_criterion_12_wo_pair_sampling(results):
    _check(results, 12)


def test_criterion_13_serialization_round_trips(results):
    _check(results, 13)


# The SHA-256 of every artifact's canonical JSON at DEFAULT_SEED, recorded
# from the run before the elimination engine was unified: refactors must
# keep every answer byte-identical.
PINNED_DIGESTS = {
    "identity_catalog":
        "470b7e9c5b7f97cc2d1ad39ee54f2a7652aaebb46372cf99b0f6ea412a57bc64",
    "pair:gl:1,1":
        "fa03ae070e18737494162247c88d57aa469d0a663e5b997344f626cd7ba865ff",
    "verify:gl:1,1":
        "e5aa73b60947d0673c726f27aa15553f1e860308aa56ccc382df30737259b038",
    "pair:gl:2,1":
        "98f9acbd4481045045ec73ad5a5dbe9558d407cd5c93cdf5a94af8233f9a2c67",
    "verify:gl:2,1":
        "18ffd824edd6f096ae64e6fe1e9640ec28d58d6d843f3b146d386c87d4055a7e",
    "pair:gl:2,2":
        "bc8e57c145b73a281f432f5483f346809cc4e6239bef5a3bb707603db5aa6657",
    "verify:gl:2,2":
        "d0150acf2553612c1759732e4fafda9954100735ede2df23e7dec13d4210ff4a",
    "pair:osp+:2,2":
        "79ff05e742a6c67036d2a923bdc7f2ce783c68815fe3ffb76ce935fc94995519",
    "verify:osp+:2,2":
        "ce5fb4726276bc82f3960623b45a92da973349b554e7ee08e2396c6ddec51c7f",
    "pair:osp-:2,2":
        "a0fd0019ab209a30c90dd81231a364ae15bca69c664141194b4d7bf91fc81470",
    "verify:osp-:2,2":
        "ce5fb4726276bc82f3960623b45a92da973349b554e7ee08e2396c6ddec51c7f",
    "pair:osp+:1,1":
        "98da654505b854a8fc40ec8c30cfb0f1f55a276cddad69e97bde27177f8a152c",
    "verify:osp+:1,1":
        "79a95cc2a505b7c067e83b56d830f1d0a1bfa5750e6c28b890f73646de68b2c8",
    "pair:osp-:1,1":
        "b901cb0f60e833029b7be28931282388291b23e5527996d57ab75f0721a8755f",
    "verify:osp-:1,1":
        "79a95cc2a505b7c067e83b56d830f1d0a1bfa5750e6c28b890f73646de68b2c8",
    "pair:q:2":
        "b4bd24944dbc3cdd652a123a19ab07aa873208b2b236712623fedeb173165261",
    "verify:q:2":
        "ce5fb4726276bc82f3960623b45a92da973349b554e7ee08e2396c6ddec51c7f",
    "pair:osq:2":
        "fa5cbdd56732dea05cbc00d4b447d25c158a5e48da255afcb34e949ecc7cdb65",
    "verify:osq:2":
        "71828ff1548ab0aedb2f425b6235d90ba2e47cd539bb47351047a999d2fd130c",
    "random_subpair_0":
        "79ea708636dce23bb6983b56a86cc9a64f7ecfa6514389324bc0ca214b55b3c1",
    "random_subpair_1":
        "93a8fab4a8be38833e648caf573018d318f54e187f08a7e9af03f4a7fb3fae35",
    "random_subpair_2":
        "c70bab11963de847b8ad57403ddbd72e8a6a01dea33f8116867d6f62b35a2716",
    "flip:gl:1,1":
        "ccb69d06c145004ab8c96d551e6fed3c0837ae7f627acb57c9ff54dbb92e5030",
    "flip_check:gl:1,1:1":
        "7362471b4d7b8adaa69a2be528ca52295a2aaf6b5dce3c71b20fcbd15a53a32f",
    "flip_check:gl:1,1:2":
        "5346dd5801f972ae9e3bb8e25b6ffd380745fbbb73681a2ce700ab1ecb6685d3",
    "magnetic:sl2":
        "c7ac5ee60e00fe3222921aaf2631471eeb265b6dee4beb41b756c6a2e2d7cb7b",
    "magnetic_verify:sl2":
        "8a24d627f353ee31a41117b4c682d0eead3046b11fcfb852df0b037c14f3b4cf",
    "magnetic:so3":
        "5b86e395ea987fda1ff827f5423716ae8211634bcbfde6131174c9dd6dea7f8c",
    "magnetic_verify:so3":
        "8a24d627f353ee31a41117b4c682d0eead3046b11fcfb852df0b037c14f3b4cf",
    "sym2:so3":
        "eccd60b9ef95b32655843b51aeddefae75b4968c130647c50a91511cdb1e45a4",
    "sym2_verify:so3":
        "ebbcdc7ab65707afed0254276043ddad7df0415f5b1f4f4c7ac56e4f26f4c60f",
    "superalgebra:gl(1,1)":
        "f06f3489767ba33bf09daed3773f43ba83c06042f4909545a4efbffa81e5b088",
    "superalgebra:isoq":
        "f73c6e5e6398607caa46b9b3d7de45118d4e3ad65e906ac1c606befa75c654c7",
    "lts_check:flip_gl11":
        "5835bc9884593b814f515864b4a471c1dd80470d304ff623b4426a6e55facb04",
    "fundamental_rep":
        "dec041a1f68a74ddc7c25f9fc8c93df1b21b864a71137a8dc78600015fca3ca0",
    "fundamental_dims":
        "f3f465befef643a59dd028166ff7bc9b8d510f343c367dcf55db87d553a3deac",
    "fundamental_tkk":
        "3bfc86af8fe7ee25b0db9769e51ad1dd692ec1ac8e838816dc36c19c51a21324",
    "gk_rep":
        "5e56fd0fca63f39d33b762306a31bbf2d946c496f9250b3a1224269c0725dd09",
    "graph_rep":
        "8b394a2c3f73f95f824a7af774b3085253752dd1bb8f3583cdd41ef78409a684",
    "wo_pair_check":
        "7054d1985ec1a2465b35cf0fd2600cd1a3f8a4e2c41afc84f2e6f7a077f69d4a",
}


def test_artifacts_keep_their_pinned_digests(results):
    assert DIGESTS == PINNED_DIGESTS
