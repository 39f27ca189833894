from __future__ import annotations

import json
import sys
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest

from floersurgery import (
    KnotModel,
    MissingGradings,
    NotCoprime,
    TargetSummary,
    TooLarge,
    V0Zero,
    chi_relation,
    cone,
    cosmetic_pair_scan,
    d_sandwich,
    dedekind,
    dedekind_necessary,
    genus_bound,
    k_special,
    lens_complement,
    load_model,
    n_bound,
    obstruct,
    surgery,
    v0_bound,
    z_special,
)
from floersurgery.cone import ConeResult, SurgeryResult
from floersurgery.fmod import Tau
from floersurgery.numth import lens_d_at, lens_d_numerators
from floersurgery.obstruct import (
    FAIL,
    INAPPLICABLE,
    PASS,
    _matches,
    canonical_json,
)
from conftest import sigma237_synthetic_doc, solved_blocks


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
    v = k_special(trefoil.ambient, z, 2, 101)
    assert v.status == INAPPLICABLE


def test_k_special_conclusions(sigma237_synthetic):
    z = TargetSummary(h1_order=2, dim_red=3, chi_red=3)
    v = k_special(
        sigma237_synthetic.ambient, z, 2, 9, sigma237_synthetic
    )
    assert v.status == PASS
    assert all(v.witness["conclusions"].values())


def test_k_special_reads_the_one_hook_of_a_genus_0_model(sigma237_synthetic, spy):
    # a genus-0 model has the hooks of G = 1: k = 0 alone, the ambient
    # copy, read from the one columns() call
    doc = sigma237_synthetic_doc()
    doc["genus"], doc["V"], doc["a_red"] = 0, [0], {}
    model = load_model(doc)
    keys, columns = [], KnotModel.columns

    class Read(dict):
        def __getitem__(self, k):
            keys.append(k)
            return dict.__getitem__(self, k)

    read = spy(KnotModel, "columns", lambda self: Read(columns(self)))
    z = TargetSummary(h1_order=2, dim_red=1, chi_red=-1)
    v = k_special(sigma237_synthetic.ambient, z, 2, 9, model)
    assert len(read) == 1 and keys == [0]
    assert v.status == PASS
    assert v.witness["N"] == 5
    assert list(v.witness["conclusions"].values()) == [True] * 4


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


def test_genus_bound(sigma237, trefoil):
    z = TargetSummary(h1_order=1, dim_red=4, chi_red=0, max_excess=Fraction(4))
    v = genus_bound(sigma237, z, 1, 3)
    assert v.status == FAIL
    assert v.witness["D_Y"] == Fraction(-1)
    assert v.witness["bound"] == Fraction(5, 2)
    v = genus_bound(sigma237, z, 1, 2)
    assert v.status == PASS
    v = genus_bound(sigma237, z, 1, 1)
    assert v.status == PASS
    # an L-space ambient has no reduced generator, hence no excess D(Y)
    assert trefoil.ambient.min_excess() is None
    v = genus_bound(trefoil.ambient, z, 1, 3)
    assert v.status == INAPPLICABLE
    assert v.witness == {"note": "ambient is an L-space; no reduced gradings"}


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


def test_cosmetic_scan_sums_each_chi_once_and_asserts_divisibility(
    unknot, monkeypatch
):
    chi_red = cone.SurgeryResult.chi_red
    summed = []

    def counted(res):
        summed.append(res.q)
        return chi_red.fget(res)

    monkeypatch.setattr(cone.SurgeryResult, "chi_red", property(counted))
    hits = cosmetic_pair_scan(unknot, 5, range(1, 13))
    straddling = [q1 for q1, q2 in hits if q1 // 5 != q2 // 5]
    assert (len(hits), len(straddling)) == (14, 12)
    # the members of a class share chi(HF_red): only classes that straddle
    # read it, once each, at their first q (the classes {1, 6, 11},
    # {2, 3, 7, 8, 12} and {4, 9}), not once per straddling q1
    assert summed == [1, 2, 4]
    # a straddling hit whose chi(HF_red) is not divisible by p is refused
    monkeypatch.setattr(cone.SurgeryResult, "chi_red", property(lambda res: 1))
    with pytest.raises(AssertionError, match=r"hit \(1,3\) violates the divisibility"):
        cosmetic_pair_scan(unknot, 2, [1, 3])


def test_cosmetic_scan_solves_each_block_shape_once(figure8, genus2_stress, spy):
    shaped = spy(cone, "_shape", record=lambda model, p, q, i: (q, i))
    solved = spy(cone, "cone_homology", record=lambda model, shape: shaped[-1])
    # the scan solves each shape once, at the first q and block that has
    # it, as one _shape per block finds them (surgery computes the shape
    # once per run of blocks); surgeries run one by one solve each
    # shape once per q
    stress_shapes = [(1, 0), (1, 1), (1, 2), (1, 22), (8, 15)]
    cases = (
        (figure8, 43, range(1, 7), [(1, 0), (1, 1)], 12),
        (genus2_stress, 23, range(1, 9), stress_shapes, 32),
    )
    for model, p, qs, shapes, per_surgery in cases:
        first = {}
        for q in qs:
            for i in range(p):
                first.setdefault(cone._shape(model, p, q, i), (q, i))
        assert list(first.values()) == shapes
        solved.clear()
        cosmetic_pair_scan(model, p, qs)
        assert solved == shapes
        solved.clear()
        for q in qs:
            surgery(model, p, q)
        assert len(solved) == per_surgery


def test_cosmetic_scan_reads_off_each_distinct_block_once(
    figure8, trefoil, genus2_stress, spy
):
    read, recorded = spy(cone, "_read_off"), spy(obstruct, "surgery").results
    # d and bars are built once per distinct block homology over the whole
    # scan; a solve returns int offsets and reads nothing off.  One
    # read-off per (shape, lens numerator) would give 89, 71 and 80.
    cases = (
        (figure8, 43, range(1, 7), 89),
        (trefoil, 41, range(1, 6), 66),
        (genus2_stress, 23, range(1, 9), 44),
    )
    for model, p, qs, n_distinct in cases:
        read.clear()
        recorded.clear()
        cosmetic_pair_scan(model, p, qs)
        blocks = [r for res in recorded for r in res.results]
        objects = {(r.d, r.red): (id(r.d), id(r.red)) for r in blocks}
        assert len(read) == len(objects) == n_distinct, model.name
        # blocks of one homology share its d and bars
        assert all(objects[r.d, r.red] == (id(r.d), id(r.red)) for r in blocks)


def test_scan_blocks_of_one_shape_and_lens_value_share_d_and_bars(figure8, spy):
    recorded = spy(obstruct, "surgery").results
    cosmetic_pair_scan(figure8, 43, range(1, 7))
    groups: dict = {}
    for res in recorded:
        lens = lens_d_numerators(43, res.q)
        for i, r in enumerate(res.results):
            key = (cone._shape(figure8, 43, res.q, i), lens[i])
            groups.setdefault(key, []).append((res.q, r))
    for blocks in groups.values():
        d, red = blocks[0][1].d, blocks[0][1].red
        assert all(r.d is d and r.red is red for _, r in blocks)
    # sharing reaches across the scan's q
    assert any(len({q for q, _ in blocks}) > 1 for blocks in groups.values())


def test_d_sandwich_reads_one_lens_table(trefoil, spy):
    # the bounds and the surgery read integer lens tables for the whole
    # slope; no block reads its own d(L(p,q), i) from lens_d_at, through
    # any module binding of it, as ``from .numth import`` makes them
    modules = [m for n, m in sys.modules.items() if n.startswith("floersurgery")]
    calls = [
        spy(module, "lens_d_at")
        for module in modules
        if vars(module).get("lens_d_at") is lens_d_at
    ]
    assert calls
    assert d_sandwich(trefoil, 3000, 1).status == PASS
    assert all(c == [] for c in calls)


def test_d_sandwich_reads_the_surgery(trefoil, genus2_stress, spy, monkeypatch):
    solved = solved_blocks(spy)
    verdict = d_sandwich(trefoil, 3000, 1)
    assert 0 < len(solved) <= 2 * trefoil.genus + 2
    rows = verdict.witness["per_block"]
    assert [row["i"] for row in rows] == list(range(3000))
    whole = surgery(trefoil, 3000, 1)
    assert [row["d"] for row in rows] == [r.d for r in whole.results]
    # too large a cone raises at the block that raises when every block
    # is solved (block 5 of genus2_stress 9/5, at most 19 generators),
    # with its message
    monkeypatch.setattr(cone, "MAX_GENERATORS", 19)
    solved.clear()
    with pytest.raises(TooLarge) as sandwich:
        d_sandwich(genus2_stress, 9, 5)
    assert solved[-1] == 5
    with pytest.raises(TooLarge) as every:
        for i in range(9):
            cone.cone_homology(genus2_stress, cone._shape(genus2_stress, 9, 5, i))
    assert str(sandwich.value) == f"genus2_stress at 9/5 block {i}: {every.value}" == (
        "genus2_stress at 9/5 block 5: cone of 20 generators, more than 19"
    )


def test_d_sandwich_reads_the_odd_bar_once(sigma237_synthetic, spy):
    # the lower bound of every block subtracts the ambient's longest odd
    # bar, which takes a barcode of the ambient reduced part
    calls = spy(type(sigma237_synthetic.ambient), "max_odd_bar")
    verdict = d_sandwich(sigma237_synthetic, 7, 1)
    assert len(verdict.witness["per_block"]) == 7
    assert not verdict.witness["equality_required"]
    assert len(calls) == 1


def _ids(res: SurgeryResult, seen: dict) -> tuple:
    """Block ids of a result built by hand: one per distinct (d, red) in
    ``seen``."""
    return tuple(seen.setdefault((r.d, r.red), len(seen)) for r in res.results)


def _synthetic_p5(blocks) -> SurgeryResult:
    """A p = 5 surgery result whose block j has the given (d, red)."""
    results = tuple(
        ConeResult(i=j, d=d, red=red)
        for j, (d, red) in enumerate(blocks)
    )
    return SurgeryResult(model_name="synthetic", p=5, q=1, results=results)


def test_matches_is_affine_relabelling():
    # five pairwise distinct blocks, so the aligning permutation is unique
    blocks = [
        (Fraction(j, 5), (Tau(Fraction(j, 5) - 1, 1 + j % 2, 1),) * (j % 3))
        for j in range(5)
    ]
    seen: dict = {}
    base = _ids(_synthetic_p5(blocks), seen)
    # i -> 2 i + 3 mod 5 is affine
    relabelled = [None] * 5
    for j in range(5):
        relabelled[(2 * j + 3) % 5] = blocks[j]
    assert _matches(base, _ids(_synthetic_p5(relabelled), seen), 5)
    # swapping two blocks keeps the multiset but is no affine map mod 5
    swapped = [blocks[1], blocks[0]] + blocks[2:]
    assert not _matches(base, _ids(_synthetic_p5(swapped), seen), 5)
    # one changed d-invariant
    changed = [(blocks[0][0] + 2, blocks[0][1])] + blocks[1:]
    assert not _matches(base, _ids(_synthetic_p5(changed), seen), 5)


def _same_homology(r1: ConeResult, r2: ConeResult) -> bool:
    return (r1.d, r1.red) == (r2.d, r2.red)


def _matches_by_brute_force(res1, res2, p: int) -> bool:
    return any(
        all(
            _same_homology(res1.results[i], res2.results[(a * i + b) % p])
            for i in range(p)
        )
        for a in range(1, p + 1)
        if gcd(a, p) == 1
        for b in range(p)
    )


def test_matches_equals_the_search_over_every_relabelling(
    unknot, trefoil, figure8, genus2_stress
):
    # _matches tries only the offsets b that send block 0 to a block with
    # its homology; every ordered pair of surgeries, a surgery with
    # itself included, must get the answer of the search over all b
    outcomes = set()
    for model in (unknot, trefoil, figure8, genus2_stress):
        for p in range(1, 14):
            shapes: dict = {}
            interner: dict = {}
            results = [
                surgery(model, p, q, shapes=shapes, interner=interner)
                for q in range(1, 10)
                if gcd(p, q) == 1
            ]
            for res1, res2 in product(results, repeat=2):
                expected = _matches_by_brute_force(res1, res2, p)
                matched = _matches(res1.ids, res2.ids, p)
                assert matched == expected, (model.name, p)
                outcomes.add((expected, res1.q == res2.q))
    assert outcomes == {(True, True), (True, False), (False, False)}


@pytest.mark.parametrize("name, p, n_hits", [("unknot", 5, 408), ("figure8", 7, 0)])
def test_grouped_scan_equals_the_scan_over_all_pairs(
    name, p, n_hits, request, spy
):
    # the scan pairs only surgeries with equal multisets of block ids;
    # the search over every relabelling of every pair must find the same
    model = request.getfixturevalue(name)
    recorded = spy(obstruct, "surgery").results
    hits = cosmetic_pair_scan(model, p, range(1, 61))
    every_pair = [
        (res1.q, res2.q)
        for idx, res1 in enumerate(recorded)
        for res2 in recorded[idx + 1 :]
        if _matches_by_brute_force(res1, res2, p)
    ]
    assert hits == every_pair
    assert len(hits) == n_hits


def test_block_keys_are_equal_exactly_when_the_homology_is(
    figure8, trefoil, genus2_stress, spy
):
    # every pair of blocks of the scans at the benchmark's primes
    recorded = spy(obstruct, "surgery").results
    for model, p, qs in (
        (figure8, 43, range(1, 7)),
        (trefoil, 37, range(1, 6)),
        (genus2_stress, 23, range(1, 9)),
    ):
        recorded.clear()
        cosmetic_pair_scan(model, p, qs)
        blocks = [block for res in recorded for block in zip(res.results, res.ids)]
        for (r1, id1), (r2, id2) in combinations(blocks, 2):
            assert (id1 == id2) == _same_homology(r1, r2), model.name


def test_reports_are_reproducible(trefoil):
    z = trefoil_2_3_summary(trefoil)
    r1 = canonical_json({"verdicts": [z_special(z, 2, [3, 7]), *chi_relation(0, z, 2)]})
    r2 = canonical_json({"verdicts": [z_special(z, 2, [3, 7]), *chi_relation(0, z, 2)]})
    assert r1 == r2


def test_report_json_round_trip(trefoil):
    z = trefoil_2_3_summary(trefoil)
    text = canonical_json({"verdicts": [z_special(z, 2, [3, 7])]})
    assert canonical_json(json.loads(text)) == text
    assert json.loads(text)["verdicts"][0]["rule"] == "Z_SPECIAL"
    with pytest.raises(TypeError, match="Object of type set is not JSON serializable"):
        canonical_json({"slopes": {3, 7}})
