from __future__ import annotations

import json
from fractions import Fraction

import pytest

from floersurgery import (
    MissingGradings,
    NotCoprime,
    TargetSummary,
    V0Zero,
    chi_relation,
    cosmetic_pair_scan,
    dedekind,
    dedekind_necessary,
    genus_bound,
    k_special,
    lens_complement,
    load_model,
    n_bound,
    surgery,
    v0_bound,
    z_special,
)
from floersurgery.cone import ConeResult, SurgeryResult
from floersurgery.fmod import Tau
from floersurgery.obstruct import FAIL, INAPPLICABLE, PASS, _matches, assemble_report
from conftest import sigma237_synthetic_doc


def trefoil_2_3_summary(trefoil) -> TargetSummary:
    s = surgery(trefoil, 2, 3)
    return TargetSummary(h1_order=2, dim_red=s.total_dim_red, chi_red=s.chi_red)


def test_target_summary_invariants():
    with pytest.raises(ValueError):
        TargetSummary(h1_order=1, dim_red=0, chi_red=1)
    with pytest.raises(ValueError):
        TargetSummary(h1_order=1, dim_red=2, chi_red=1)


def test_z_special_rejects_two_slopes(trefoil):
    z = trefoil_2_3_summary(trefoil)
    assert z.chi_red % 2 == 1
    for pair in ([3, 7], [1, 3], [5, 9], [1, 9]):
        assert z_special(z, 2, pair).status == FAIL
    assert z_special(z, 2, [3]).status == PASS


def test_z_special_inapplicable_cases():
    even = TargetSummary(h1_order=2, dim_red=2, chi_red=0)
    assert z_special(even, 2, [3, 7]).status == INAPPLICABLE
    odd = TargetSummary(h1_order=2, dim_red=1, chi_red=1)
    assert z_special(odd, 1, [3, 7]).status == INAPPLICABLE  # p = 1 is vacuous


def test_z_special_straddle_witness():
    z = TargetSummary(h1_order=5, dim_red=1, chi_red=1)
    v = z_special(z, 3, [2, 4])  # 3 sits between
    assert v.status == FAIL and v.witness["reason"] == "straddle"
    v = z_special(z, 3, [4, 5])  # no multiple of 3 in between
    assert v.status == PASS


def test_z_special_count_bound():
    z = TargetSummary(h1_order=5, dim_red=1, chi_red=1)
    # phi(5) = 4; five slopes inside one gap of multiples of 7 is impossible
    v = z_special(z, 7, [8, 9, 10, 11, 12])
    assert v.status == FAIL and v.witness["reason"] == "count"


def test_chi_relation():
    ok_zero = chi_relation(0, TargetSummary(1, 0, 0), 5)
    assert [v.status for v in ok_zero] == [PASS, PASS]
    ok = chi_relation(1, TargetSummary(1, 3, 3), 3)
    assert [v.status for v in ok] == [PASS, PASS]
    bad = chi_relation(0, TargetSummary(1, 1, 1), 2)
    assert [v.status for v in bad] == [FAIL, FAIL]


def test_z_special_agrees_with_chi_divisibility(trefoil):
    # straddling slopes with H1 not dividing chi must fail both rules
    z = trefoil_2_3_summary(trefoil)
    zs = z_special(z, 2, [1, 3])
    divis = chi_relation(0, z, 2)[1]
    assert zs.status == FAIL and divis.status == FAIL


def test_dedekind_necessary():
    assert dedekind_necessary(2, 1, 1).status == PASS
    assert dedekind_necessary(5, 1, 1).status == FAIL
    assert dedekind_necessary(3, 1, 2).status == PASS
    assert dedekind(1, 3) == dedekind(-2, 3)


def test_k_special_arithmetic(sigma237):
    z = TargetSummary(h1_order=2, dim_red=3, chi_red=3)
    assert n_bound(sigma237, z) == 2 * 2 * 1 + 3 == 7
    assert k_special(sigma237, z, 2, 9).status == PASS  # constraints only
    assert k_special(sigma237, z, 2, 7).status == INAPPLICABLE
    assert k_special(sigma237, z, 2, -9).status == PASS


def test_k_special_l_space_ambient(trefoil):
    z = TargetSummary(h1_order=2, dim_red=3, chi_red=3)
    v = k_special(trefoil.ambient, z, 2, 100)
    assert v.status == INAPPLICABLE


def test_k_special_conclusions(sigma237_synthetic):
    z = TargetSummary(h1_order=2, dim_red=3, chi_red=3)
    v = k_special(
        sigma237_synthetic.ambient, z, 2, 9, sigma237_synthetic
    )
    assert v.status == PASS
    assert all(v.witness["conclusions"].values())


def test_k_special_perturbations_flip_targeted_conclusion(sigma237_synthetic):
    z = TargetSummary(h1_order=2, dim_red=3, chi_red=3)

    v0_doc = sigma237_synthetic_doc()
    v0_doc["V"] = [1, 0]
    v0_doc["a_red"]["0"]["v_matrix"] = [[0]]
    v0_doc["a_red"]["0"]["h_matrix"] = [[0]]
    v = k_special(
        sigma237_synthetic.ambient, z, 2, 9, load_model(v0_doc)
    )
    assert v.status == FAIL
    c = v.witness["conclusions"]
    assert not c["v0_zero"]
    assert c["dims_even_match"] and c["dims_odd_match"]

    even_doc = sigma237_synthetic_doc()
    even_doc["a_red"]["0"]["generators"].append({"grading": "0", "parity": 0})
    even_doc["a_red"]["0"]["u_matrix"] = [[0, 0], [0, 0]]
    even_doc["a_red"]["0"]["v_matrix"] = [[1, 0]]
    even_doc["a_red"]["0"]["h_matrix"] = [[1, 0]]
    v = k_special(sigma237_synthetic.ambient, z, 2, 9, load_model(even_doc))
    c = v.witness["conclusions"]
    assert v.status == FAIL
    assert not c["dims_even_match"]
    assert c["v0_zero"] and c["dims_odd_match"]

    odd_doc = sigma237_synthetic_doc()
    odd_doc["a_red"]["0"]["generators"].append({"grading": "-3", "parity": 1})
    odd_doc["a_red"]["0"]["u_matrix"] = [[0, 0], [0, 0]]
    odd_doc["a_red"]["0"]["v_matrix"] = [[1, 0]]
    odd_doc["a_red"]["0"]["h_matrix"] = [[1, 0]]
    v = k_special(sigma237_synthetic.ambient, z, 2, 9, load_model(odd_doc))
    c = v.witness["conclusions"]
    assert v.status == FAIL
    assert not c["dims_odd_match"]
    assert c["v0_zero"] and c["dims_even_match"]


def test_v0_bound(trefoil):
    z5 = TargetSummary(h1_order=2, dim_red=5, chi_red=5)
    v = v0_bound(trefoil, z5, 2, 7)
    assert v.status == PASS  # boundary case: 7 <= 2 + 5/1
    assert v.witness["n_i"] == [3, 2]
    assert v.witness["forced_dim"] == 5
    z3 = TargetSummary(h1_order=2, dim_red=3, chi_red=3)
    assert v0_bound(trefoil, z3, 2, 7).status == FAIL


def test_v0_bound_monotone_in_dim_red(trefoil):
    seen_fail = False
    for dim in range(0, 9):
        z = TargetSummary(h1_order=2, dim_red=dim, chi_red=dim % 2)
        status = v0_bound(trefoil, z, 2, 7).status
        if status == FAIL:
            seen_fail = True
        else:
            # once passing, larger dims keep passing
            for dim2 in range(dim, 9):
                z2 = TargetSummary(h1_order=2, dim_red=dim2, chi_red=dim2 % 2)
                assert v0_bound(trefoil, z2, 2, 7).status == PASS
            break
    assert seen_fail


def test_v0_bound_needs_positive_v0(figure8):
    z = TargetSummary(h1_order=2, dim_red=5, chi_red=5)
    with pytest.raises(V0Zero):
        v0_bound(figure8, z, 2, 7)


def test_genus_bound(sigma237):
    z = TargetSummary(h1_order=1, dim_red=4, chi_red=0, max_excess=Fraction(4))
    v = genus_bound(sigma237, z, 1, 3)
    assert v.status == FAIL
    assert v.witness["D_Y"] == Fraction(-1)
    assert v.witness["bound"] == Fraction(5, 2)
    v = genus_bound(sigma237, z, 1, 2)
    assert v.status == PASS
    v = genus_bound(sigma237, z, 1, 1)
    assert v.status == PASS


def test_genus_bound_equal_excess(sigma237):
    # D(Z) = D(Y) leaves only floor(q/p) = 0
    z = TargetSummary(h1_order=1, dim_red=1, chi_red=1, max_excess=Fraction(-1))
    assert genus_bound(sigma237, z, 3, 2).status == PASS
    assert genus_bound(sigma237, z, 2, 3).status == FAIL


def test_genus_bound_missing_gradings(sigma237):
    z = TargetSummary(h1_order=1, dim_red=1, chi_red=1)
    with pytest.raises(MissingGradings):
        genus_bound(sigma237, z, 1, 3)


def test_lens_complement():
    v = lens_complement(4, 1, 2)
    assert v.witness["candidates"] == [0, -2]
    assert v.status == PASS
    # square-free p with p not dividing w^2: no candidates
    for p in (2, 3, 5, 6, 7, 10):
        for w in range(1, p):
            v = lens_complement(p, 1, w)
            assert v.witness["candidates"] == []
            assert v.status == FAIL
    v = lens_complement(5, 1, 0)
    assert v.witness["candidates"] == [1, -1]
    with pytest.raises(NotCoprime):
        lens_complement(4, 2, 2)


def test_cosmetic_scan_trefoil(trefoil):
    assert cosmetic_pair_scan(trefoil, 2, [1, 3, 5, 7]) == []


def test_cosmetic_scan_figure8(figure8):
    assert cosmetic_pair_scan(figure8, 2, [1, 3, 5]) == []


def test_cosmetic_scan_unknot_finds_the_classical_pair(unknot):
    # 2/1 and 2/3 on the unknot give the same oriented lens space; the
    # solid-torus exterior is exactly the case the conjecture excludes
    assert cosmetic_pair_scan(unknot, 2, [1, 3]) == [(1, 3)]


def _synthetic_p5(blocks) -> SurgeryResult:
    """A p = 5 surgery result whose block j has the given (d, red)."""
    results = tuple(
        ConeResult(p=5, q=1, i=j, d=d, red=red, depth=0)
        for j, (d, red) in enumerate(blocks)
    )
    return SurgeryResult(model_name="synthetic", p=5, q=1, results=results)


def test_matches_is_affine_relabelling():
    # five pairwise distinct blocks, so the aligning permutation is unique
    blocks = [
        (Fraction(j, 5), (Tau(Fraction(j, 5) - 1, 1 + j % 2, 1),) * (j % 3))
        for j in range(5)
    ]
    base = _synthetic_p5(blocks)
    # i -> 2 i + 3 mod 5 is affine
    relabelled = [None] * 5
    for j in range(5):
        relabelled[(2 * j + 3) % 5] = blocks[j]
    assert _matches(base, _synthetic_p5(relabelled), 5)
    # swapping two blocks keeps the multiset but is no affine map mod 5
    swapped = [blocks[1], blocks[0]] + blocks[2:]
    assert not _matches(base, _synthetic_p5(swapped), 5)
    # one changed d-invariant
    changed = [(blocks[0][0] + 2, blocks[0][1])] + blocks[1:]
    assert not _matches(base, _synthetic_p5(changed), 5)


def test_reports_are_reproducible(trefoil):
    z = trefoil_2_3_summary(trefoil)
    r1 = assemble_report([z_special(z, 2, [3, 7]), chi_relation(0, z, 2)])
    r2 = assemble_report([z_special(z, 2, [3, 7]), chi_relation(0, z, 2)])
    assert r1.to_json() == r2.to_json()


def test_report_json_round_trip(trefoil):
    from floersurgery.obstruct import canonical_json

    z = trefoil_2_3_summary(trefoil)
    report = assemble_report([z_special(z, 2, [3, 7])])
    text = report.to_json()
    assert canonical_json(json.loads(text)) == text
