"""Sign kernel and free-envelope validator."""

import hashlib
import itertools
import os
import subprocess
import sys

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from isopairs import supercore as sc
from isopairs.exactlin import axpy

bits = st.integers(0, 1)


def test_sign_a_values():
    assert sc.sign_a(0, 0, 0) == 1
    assert sc.sign_a(1, 1, 1) == -1
    assert sc.sign_a(1, 0, 1) == -1


def test_sign_b_values():
    assert sc.sign_b(0, 0, 0, 0) == 1
    assert sc.sign_b(1, 1, 1, 1) == 1
    assert sc.sign_b(1, 1, 0, 0) == -1


@given(bits, bits, bits)
def test_sign_a_symmetric(p, q, r):
    base = sc.sign_a(p, q, r)
    for perm in itertools.permutations((p, q, r)):
        assert sc.sign_a(*perm) == base


@given(bits, bits, bits, bits)
def test_sign_b_cyclic_and_reversal(p, q, r, s):
    base = sc.sign_b(p, q, r, s)
    assert sc.sign_b(q, r, s, p) == base
    assert sc.sign_b(s, r, q, p) == base


def test_superspace_invariants():
    space = sc.SuperSpace.make(["a", "b", "c"], [0, 1, 0])
    assert space.dim == 3
    assert space.even_dim == 2 and space.odd_dim == 1
    assert space.flipped().parities == (1, 0, 1)
    with pytest.raises(ValueError):
        sc.SuperSpace.make(["a", "a"], [0, 0])


def test_expand_commutator_all_even():
    t = sc.template(sc.term(1, sc.NO_SIGN, sc.Bracket(sc.X, sc.Y, sc.U, "comm")))
    words = sc.expand_template(t, {"X": 0, "Y": 0, "U": 0})
    assert words == {("X", "U", "Y"): 1, ("Y", "U", "X"): -1}


def test_expand_commutator_odd_pair():
    t = sc.template(sc.term(1, sc.NO_SIGN, sc.Bracket(sc.X, sc.Y, sc.U, "comm")))
    words = sc.expand_template(t, {"X": 1, "Y": 1, "U": 0})
    assert words == {("X", "U", "Y"): 1, ("Y", "U", "X"): 1}


def test_expand_circle_all_even():
    t = sc.template(sc.term(1, sc.NO_SIGN, sc.Bracket(sc.X, sc.Y, sc.U, "circ")))
    words = sc.expand_template(t, {"X": 0, "Y": 0, "U": 0})
    assert words == {("X", "U", "Y"): 1, ("Y", "U", "X"): 1}


def test_expansion_linear_in_terms():
    t1 = sc.template(sc.term(1, sc.NO_SIGN, sc.Bracket(sc.X, sc.Y, sc.U, "comm")))
    t2 = sc.template(
        sc.term(Fraction(1, 2), sc.apairs("X", "U", "Y"), sc.WordExpr(("X", "U", "Y")))
    )
    both = sc.IdentityTemplate(t1.terms + t2.terms)
    for bitsv in itertools.product((0, 1), repeat=3):
        parities = dict(zip(("X", "Y", "U"), bitsv))
        a = sc.expand_template(t1, parities)
        b = sc.expand_template(t2, parities)
        merged = axpy(dict(a), 1, b)
        assert merged == sc.expand_template(both, parities)


def test_validate_antisymmetry_adopted_and_printed():
    rep = sc.ANTISYM_ISOTOPIC.validate()
    assert rep.equal and len(rep.verdicts) == 8
    printed = sc.ANTISYM_ISOTOPIC.validate_printed()
    assert not printed.equal
    # already fails on the all-even assignment
    assert not printed.verdicts[0].equal


def test_validate_jordan_symmetry():
    assert sc.SYMMETRY_JORDAN.validate().equal


def test_naive_swap_fails():
    lhs = sc.template(sc.term(1, sc.NO_SIGN, sc.Bracket(sc.X, sc.Y, sc.U, "comm")))
    rhs = sc.template(sc.term(1, sc.NO_SIGN, sc.Bracket(sc.Y, sc.X, sc.U, "comm")))
    rep = sc.validate_identity(lhs, rhs)
    assert not rep.verdicts[0].equal  # all-even already mismatches


def test_catalog_all_adopted_forms_validate():
    report = sc.validate_catalog()
    for name, entry in report.items():
        assert entry["adopted_equal"], name
        if "printed_equal" in entry:
            assert entry["printed_equal"] is False, name


def test_even_assignment_reduces_to_plain_check():
    # with all letters even every A and B factor is +1
    for ident in sc.CATALOG.values():
        letters = tuple(
            sorted(
                set(ident.lhs.letters()) | set(ident.rhs.letters()),
                key=sc.LETTERS.index,
            )
        )
        parities = {l: 0 for l in letters}
        for t in ident.lhs.terms + ident.rhs.terms:
            assert sc.eval_sign_pairs(t.sign_pairs, parities) == 1


def test_find_correction_rediscovers_adopted_forms():
    for ident in (sc.ANTISYM_ISOTOPIC, sc.SUPER_JORDAN, sc.REP_IDENTITY_2):
        found = sc.find_correction(ident.lhs, ident.printed_rhs)
        assert found is not None
        cand, _ = found
        assert sc.validate_identity(ident.lhs, cand).equal
        assert cand == ident.rhs


def test_validation_report_json():
    rep = sc.SUPER_JORDAN.validate_printed()
    data = rep.to_json()
    assert data["equal"] is False
    bad = [a for a in data["assignments"] if not a["equal"]]
    assert bad and "diff_word" in bad[0]


@pytest.mark.parametrize("name", sorted(sc.TKK_CATALOG))
def test_tkk_templates_validate_and_one_sign_mutations_fail(name):
    # each hull and triple-system identity holds in the free envelope,
    # and flipping the sign of any one term, or dropping its Koszul
    # factor, breaks it
    ident = sc.TKK_CATALOG[name]
    report = ident.validate()
    assert report.equal
    assert report.letters == ident.letters == tuple(ident.sides)
    assert set(ident.sides.values()) == {0}
    for side in ("lhs", "rhs"):
        terms = getattr(ident, side).terms
        for k, t in enumerate(terms):
            mutations = [sc.TemplateTerm(-t.coeff, t.sign_pairs, t.expr)]
            if t.sign_pairs:
                mutations.append(sc.TemplateTerm(t.coeff, sc.NO_SIGN, t.expr))
            for m in mutations:
                mutated = sc.IdentityTemplate(terms[:k] + (m,) + terms[k + 1:])
                lhs, rhs = (mutated, ident.rhs) if side == "lhs" else (ident.lhs, mutated)
                assert not sc.validate_identity(lhs, rhs).equal, (name, side, k)


def test_comm_and_triple_envelope_models():
    i, j, k = map(sc.Letter, "ijk")
    # [i, j] = ij - (-1)^(ij) ji
    assert sc.expand_expr(sc.Comm(i, j), {"i": 1, "j": 1}) == {("i", "j"): 1, ("j", "i"): 1}
    assert sc.expand_expr(sc.Comm(i, j), {"i": 0, "j": 1}) == {("i", "j"): 1, ("j", "i"): -1}
    # [i j k] = [[i, j], k]
    parities = {"i": 1, "j": 0, "k": 1}
    assert sc.expand_expr(sc.Triple(i, j, k), parities) == sc.expand_expr(
        sc.Comm(sc.Comm(i, j), k), parities
    )


def test_tkk_templates_stay_out_of_the_published_catalog():
    assert not set(sc.TKK_CATALOG) & set(sc.CATALOG)
    assert sc.letter_key("X") < sc.letter_key("V") < sc.letter_key("a") < sc.letter_key("i")


@pytest.mark.parametrize("name", sorted(sc.EQUIVARIANCE))
def test_derivation_templates_validate_and_one_sign_mutations_fail(name):
    # d [X,Y]_U = [dX,Y]_U + (-1)^(dX) [X,Y]_dU + (-1)^(d(X+U)) [X,dY]_U
    # holds in the free envelope for all 16 parity assignments; flipping
    # any one term, or dropping its Koszul factor, breaks it
    ident = sc.EQUIVARIANCE[name]
    report = ident.validate()
    assert report.equal and len(report.verdicts) == 16
    d = ident.letters[0]
    assert ident.letters == (d, "U", "X", "Y") and ident.sides[d] == 0
    assert report.letters == tuple(sorted(ident.sides, key=sc.letter_key))
    for side in ("lhs", "rhs"):
        terms = getattr(ident, side).terms
        for k, t in enumerate(terms):
            mutations = [sc.TemplateTerm(-t.coeff, t.sign_pairs, t.expr)]
            if t.sign_pairs:
                mutations.append(sc.TemplateTerm(t.coeff, sc.NO_SIGN, t.expr))
            for m in mutations:
                mutated = sc.IdentityTemplate(terms[:k] + (m,) + terms[k + 1:])
                lhs, rhs = (mutated, ident.rhs) if side == "lhs" else (ident.lhs, mutated)
                assert not sc.validate_identity(lhs, rhs).equal, (name, side, k)


def test_act_envelope_model_is_the_super_commutator():
    d, x = sc.Letter("D"), sc.Letter("X")
    for p in itertools.product((0, 1), repeat=2):
        parities = dict(zip("DX", p))
        assert sc.expand_expr(sc.Act(d, x), parities) == sc.expand_expr(sc.Comm(d, x), parities)
    assert sc.expr_letters(sc.Act(d, sc.Bracket(x, sc.Y, sc.U))) == ("D", "U", "X", "Y")


def test_derivation_templates_stay_out_of_the_other_catalogs():
    assert not set(sc.EQUIVARIANCE) & (set(sc.CATALOG) | set(sc.TKK_CATALOG))
    # every other identity enumerates its letters in letter_key order
    for ident in [*sc.CATALOG.values(), *sc.TKK_CATALOG.values()]:
        assert ident.letters == tuple(sorted(ident.sides, key=sc.letter_key)), ident.name


def test_validate_identities_stdout_keeps_its_pinned_digest():
    """scripts/validate_identities.py prints the catalog's validation
    report; its stdout is pinned byte for byte."""
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = subprocess.run([sys.executable, str(root / "scripts" / "validate_identities.py")],
                         capture_output=True, env=env, check=True).stdout
    assert hashlib.sha256(out).hexdigest() == (
        "7723aaab488bd9a6d99b535efc72b0ac6505c38b8b4a9246f0165c7948d5249d")
