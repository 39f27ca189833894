"""Acceptance suite: one test per criterion, printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All comparisons are exact (integers and rationals); no tolerances.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import gcd, lcm

from floersurgery import (
    SurgerySpec,
    TargetSummary,
    barcode,
    d_invariant_bounds,
    dedekind,
    default_depth,
    k_special,
    lens_complement,
    lens_d,
    lens_lambda,
    load_model,
    surgery,
    z_special,
)
from floersurgery.obstruct import FAIL, INAPPLICABLE, PASS
from conftest import (
    random_presentation,
    rank_profile_matches,
    read_block,
    sigma237_synthetic_doc,
)


def _report(name: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}")
    assert ok, name


def test_criterion_1_trefoil_dimensions(trefoil):
    ok = True
    for m in (3, 5, 7, 9):
        start = time.perf_counter()
        result = surgery(trefoil, 2, m)
        elapsed = time.perf_counter() - start
        ok = ok and result.total_dim_red == m - 2 and elapsed < 1.0
    _report("criterion 1: trefoil 2/m reduced dimension m-2, under 1s each", ok)


def test_criterion_2_figure8_dimensions(figure8):
    ok = True
    for n in (1, 3, 5):
        start = time.perf_counter()
        result = surgery(figure8, 2, n)
        elapsed = time.perf_counter() - start
        ok = ok and result.total_dim_red == n and elapsed < 1.0
    _report("criterion 2: figure-eight 2/n reduced dimension n, under 1s", ok)


def test_criterion_3_unknot_sanity(unknot):
    rng = random.Random(20260810)
    ok = True
    seen = 0
    while seen < 20:
        p = rng.randint(2, 30)
        q = rng.randint(1, 30)
        if gcd(p, q) != 1:
            continue
        seen += 1
        result = surgery(unknot, p, q)
        ok = ok and result.total_dim_red == 0
        ok = ok and [r.d for r in result.results] == lens_d(p, q)
    _report("criterion 3: 20 random unknot surgeries match lens data exactly", ok)


def test_criterion_4_lens_sum_identity():
    ok = True
    for p in range(1, 201):
        for q in range(1, p + 1):
            if gcd(p, q) != 1:
                continue
            # one exact integer sum over a common denominator (4p in practice)
            # instead of p Fraction additions
            table = lens_d(p, q)
            common = lcm(*{d.denominator for d in table})
            total = Fraction(
                sum(d.numerator * (common // d.denominator) for d in table), common
            )
            if total != p * dedekind(q, p):
                ok = False
            if total != -2 * p * lens_lambda(p, q):
                ok = False
    _report("criterion 4: sum of lens correction terms = p s(q,p), p <= 200", ok)


def test_criterion_5_dedekind_reciprocity():
    rng = random.Random(1889)
    ok = True
    seen = 0
    while seen < 500:
        p = rng.randint(1, 1000)
        q = rng.randint(1, 1000)
        if gcd(p, q) != 1:
            continue
        seen += 1
        lhs = dedekind(q, p) + dedekind(p, q)
        rhs = Fraction(-1, 4) + (
            Fraction(p, q) + Fraction(q, p) + Fraction(1, p * q)
        ) / 12
        ok = ok and lhs == rhs
    _report("criterion 5: 500 random Dedekind reciprocity instances, exact", ok)


def test_criterion_6_d_sandwich(unknot, trefoil, figure8):
    ok = True
    for model in (unknot, trefoil, figure8):
        for p in range(1, 13):
            for q in range(1, 13):
                if gcd(p, q) != 1:
                    continue
                for i in range(p):
                    spec = SurgerySpec(p, q, i)
                    lo, up = d_invariant_bounds(model, spec)
                    d = read_block(model, spec).d
                    ok = ok and lo <= d <= up
                    # ambient S^3 has no odd bars: equality branch
                    ok = ok and d == up
    _report("criterion 6: d-invariants inside bounds, equality over S3", ok)


def test_criterion_7_truncation_stability(trefoil, figure8, solve_at):
    ok = True
    cases = [(trefoil, 2, m) for m in (3, 5, 7, 9)]
    cases += [(figure8, 2, n) for n in (1, 3, 5)]
    for model, p, q in cases:
        for i in range(p):
            spec = SurgerySpec(p, q, i)
            n0 = default_depth(model, spec)
            base, deeper, deepest = (solve_at(model, spec, n0 + s) for s in (0, 2, 4))
            ok = ok and base == deeper == deepest
    _report("criterion 7: int offsets identical at depths N, N+2, N+4", ok)


def test_criterion_8_slope_count_gate(trefoil):
    s = surgery(trefoil, 2, 3)
    z_odd = TargetSummary(h1_order=2, dim_red=s.total_dim_red, chi_red=s.chi_red)
    ok = z_odd.chi_red % 2 == 1
    for pair in ([1, 3], [3, 7], [5, 9], [1, 11]):
        ok = ok and z_special(z_odd, 2, pair).status == FAIL
    z_even = TargetSummary(h1_order=2, dim_red=2, chi_red=0)
    ok = ok and z_special(z_even, 2, [3, 7]).status == INAPPLICABLE
    _report("criterion 8: odd-chi target rejects two slopes; even-chi inapplicable", ok)


def test_criterion_9_forced_conclusions(sigma237_synthetic):
    z = TargetSummary(h1_order=2, dim_red=3, chi_red=3)
    ambient = sigma237_synthetic.ambient
    base = k_special(ambient, z, 2, 9, sigma237_synthetic)
    ok = base.status == PASS and all(base.witness["conclusions"].values())

    v0_doc = sigma237_synthetic_doc()
    v0_doc["V"] = [1, 0]
    v0_doc["a_red"]["0"]["v_matrix"] = [[0]]
    v0_doc["a_red"]["0"]["h_matrix"] = [[0]]
    flipped = k_special(ambient, z, 2, 9, load_model(v0_doc))
    c = flipped.witness["conclusions"]
    ok = ok and flipped.status == FAIL and not c["v0_zero"]
    ok = ok and c["dims_even_match"] and c["dims_odd_match"]

    even_doc = sigma237_synthetic_doc()
    even_doc["a_red"]["0"]["generators"].append({"grading": "0", "parity": 0})
    even_doc["a_red"]["0"]["u_matrix"] = [[0, 0], [0, 0]]
    even_doc["a_red"]["0"]["v_matrix"] = [[1, 0]]
    even_doc["a_red"]["0"]["h_matrix"] = [[1, 0]]
    flipped = k_special(ambient, z, 2, 9, load_model(even_doc))
    c = flipped.witness["conclusions"]
    ok = ok and flipped.status == FAIL and not c["dims_even_match"]
    ok = ok and c["v0_zero"] and c["dims_odd_match"]

    odd_doc = sigma237_synthetic_doc()
    odd_doc["a_red"]["0"]["generators"].append({"grading": "-3", "parity": 1})
    odd_doc["a_red"]["0"]["u_matrix"] = [[0, 0], [0, 0]]
    odd_doc["a_red"]["0"]["v_matrix"] = [[1, 0]]
    odd_doc["a_red"]["0"]["h_matrix"] = [[1, 0]]
    flipped = k_special(ambient, z, 2, 9, load_model(odd_doc))
    c = flipped.witness["conclusions"]
    ok = ok and flipped.status == FAIL and not c["dims_odd_match"]
    ok = ok and c["v0_zero"] and c["dims_even_match"]

    alex_doc = sigma237_synthetic_doc()
    alex_doc["V"] = [1, 0]  # torsion couples to V_0 when dimensions match
    alex_doc["a_red"]["0"]["v_matrix"] = [[0]]
    alex_doc["a_red"]["0"]["h_matrix"] = [[0]]
    flipped = k_special(ambient, z, 2, 9, load_model(alex_doc))
    ok = ok and not flipped.witness["conclusions"]["alexander_trivial"]
    _report("criterion 9: synthetic model passes; perturbations flip conclusions", ok)


def _square_free(p: int) -> bool:
    f = 2
    while f * f <= p:
        if p % (f * f) == 0:
            return False
        f += 1
    return True


def test_criterion_10_lens_complement_slopes():
    ok = True
    for p in range(2, 51):
        if not _square_free(p):
            continue
        for q in (1, p - 1):
            if gcd(p, q) != 1:
                continue
            for w in range(0, 2 * p + 1):
                if (w * w) % p == 0:
                    continue
                verdict = lens_complement(p, q, w)
                ok = ok and verdict.witness["candidates"] == []
    v = lens_complement(4, 1, 2)
    ok = ok and v.witness["candidates"] == [0, -2]
    _report("criterion 10: square-free p empties candidates; 4/1 w=2 gives {0,-2}", ok)


def test_criterion_11_barcode_rank_profiles():
    rng = random.Random(424242)
    ok = True
    for _ in range(1000):
        pres = random_presentation(rng, max_dim=12)
        bars = barcode(pres)
        ok = ok and sum(n for _, n in bars) == pres.dim
        ok = ok and rank_profile_matches(pres, bars)
    _report("criterion 11: 1000 random barcodes match rank(U^j) profiles", ok)
