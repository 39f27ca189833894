from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest

from floersurgery import (
    CassonWalkerInput,
    FiniteUPresentation,
    KnotModel,
    SurgerySpec,
    Tau,
    TruncationTooSmall,
    V0NonZero,
    build_cone,
    casson_walker_surgery,
    cone_homology,
    d_invariant_bounds,
    default_depth,
    lambda_from_hf,
    lens_d,
    reduced_cone,
    surgery,
    torsion_coefficients,
)
from floersurgery import cone, gf2
from floersurgery.knotmodel import ReducedBlock


def test_spec_validation():
    with pytest.raises(Exception):
        SurgerySpec(4, 2, 0)
    with pytest.raises(ValueError):
        SurgerySpec(3, 1, 3)
    with pytest.raises(Exception):
        SurgerySpec(0, 1, 0)


def test_window_enumeration_oracle(trefoil, figure8, unknot):
    # window ends computed by the closed forms must match brute force
    for model in (unknot, trefoil, figure8):
        G = max(model.genus, 1)
        for p, q in ((2, 3), (2, 1), (3, 5), (5, 2), (12, 1)):
            for i in range(p):
                spec = SurgerySpec(p, q, i)
                pres = build_cone(model, spec, default_depth(model, spec))
                ks = [(i + p * n) // q for n in range(-50, 50)]
                n_plus = min(n for n in range(-50, 50) if ks[n + 50] >= G)
                n_minus = max(n for n in range(-50, 50) if ks[n + 50] <= -G)
                assert pres.window.n_min == n_minus + 1
                assert pres.window.n_max == n_plus
                assert pres.window.b_min == n_minus + 2
                assert pres.window.b_max == n_plus
                # one more hook column than target columns
                assert len(pres.window.a_columns) == len(pres.window.b_columns) + 1


def test_window_figure8_2_1_block1(figure8):
    # single hook column with k = 1, no target columns
    pres = build_cone(figure8, SurgerySpec(2, 1, 1), 8)
    assert list(pres.window.a_columns) == [0]
    assert list(pres.window.b_columns) == []
    assert pres.k_of[0] == 1


def test_window_trefoil_2_3_block0(trefoil):
    pres = build_cone(trefoil, SurgerySpec(2, 3, 0), 8)
    assert [pres.k_of[n] for n in pres.window.a_columns] == [0, 0, 1]


def test_grading_telescope(trefoil, figure8, unknot):
    # consecutive target columns differ by exactly 2 k(n)
    for model in (unknot, trefoil, figure8):
        for p, q in ((2, 3), (3, 4), (5, 3)):
            for i in range(p):
                pres = build_cone(model, SurgerySpec(p, q, i), 8)
                cols = sorted(pres.b_grading)
                for a, b in zip(cols, cols[1:]):
                    k = pres.k_of[a]
                    assert pres.b_grading[b] - pres.b_grading[a] == 2 * k


def test_anchor_grading(unknot, trefoil):
    # grading of the bottom tower element of target column 0 when retained
    for model in (unknot, trefoil):
        pres = build_cone(model, SurgerySpec(2, 3, 0), 8)
        d_lens = lens_d(2, 3)[0]
        assert (
            pres.anchor + pres.b_grading[1] - 2 * pres.k_of[0]
            == model.ambient.d + d_lens - 1
        )


def test_non_integral_block_grading_is_rejected(figure8):
    # a hand-built model whose block-0 generator sits half a step off the
    # tower's grading line must not be silently rounded into the cone
    pres = FiniteUPresentation((Fraction(-1, 2),), (1,), (0,))
    model = KnotModel(
        "figure8_half",
        figure8.ambient,
        figure8.genus,
        figure8.V,
        {0: ReducedBlock(pres, (0,), (0,))},
    )
    for spec in (SurgerySpec(1, 1, 0), SurgerySpec(3, 2, 1)):
        with pytest.raises(AssertionError, match="grading line"):
            build_cone(model, spec, 12)


def test_unknot_cone_is_lens_space(unknot):
    for p, q in ((2, 1), (3, 1), (1, 1), (1, 5), (5, 3), (7, 2)):
        result = surgery(unknot, p, q)
        assert result.total_dim_red == 0
        assert list(result.d_table) == lens_d(p, q)


def test_trefoil_2_3_frozen_values(trefoil):
    r0 = cone_homology(trefoil, SurgerySpec(2, 3, 0))
    assert r0.d == Fraction(-7, 4)
    assert r0.red == (Tau(Fraction(-7, 4), 1, 0),)
    r1 = cone_homology(trefoil, SurgerySpec(2, 3, 1))
    assert r1.d == Fraction(-9, 4)
    assert r1.red == ()


def test_trefoil_dim_formula(trefoil):
    for m in (3, 5, 7, 9, 11):
        assert surgery(trefoil, 2, m).total_dim_red == m - 2


def test_figure8_dim_formula(figure8):
    for n in (1, 3, 5, 7):
        result = surgery(figure8, 2, n)
        assert result.total_dim_red == n
        for r in result.results:
            for bar in r.red:
                assert bar.parity == 1
                assert bar.bottom == r.d - 1


def test_exactly_one_tower_per_block(trefoil, figure8):
    # the tower is unique by construction; its data must be reproducible
    for model in (trefoil, figure8):
        for p, q in ((2, 3), (3, 2), (4, 3)):
            for i in range(p):
                a = cone_homology(model, SurgerySpec(p, q, i))
                b = cone_homology(model, SurgerySpec(p, q, i))
                assert a.same_homology(b)


def test_misgraded_block_map_is_rejected(sigma237_synthetic):
    # a hand-built model whose block-0 generator sits two steps too high,
    # with the identity v/h maps left in place: the cone map would not
    # have degree -1, and building the cone must say so
    blk = sigma237_synthetic.block(0)
    shifted = replace(blk.pres, gradings=tuple(g + 2 for g in blk.pres.gradings))
    model = KnotModel(
        "sigma237_shifted",
        sigma237_synthetic.ambient,
        sigma237_synthetic.genus,
        sigma237_synthetic.V,
        {0: replace(blk, pres=shifted)},
    )
    for spec in (SurgerySpec(1, 1, 0), SurgerySpec(3, 2, 1)):
        with pytest.raises(AssertionError, match="not of degree -1"):
            build_cone(model, spec, 12)


def test_kernel_not_u_stable_is_reported(trefoil, monkeypatch):
    # corrupt U on the A-row so that it sends a kernel vector at g to a
    # generator at g - 2 that d does not kill; the kernel pass must stop
    spec = SurgerySpec(2, 5, 0)
    pres = build_cone(trefoil, spec, default_depth(trefoil, spec))
    u_dom = dict(pres.u_dom)
    for g, cols in pres.d_cols.items():
        below = pres.d_cols.get(g - 2, ())
        live = [j for j, col in enumerate(below) if col]
        kernel = gf2.nullspace(list(cols))
        if live and kernel:
            t = next(gf2.bits(kernel[0]))
            u = list(u_dom[g])
            u[t] ^= 1 << live[0]
            u_dom[g] = tuple(u)
            break
    else:
        pytest.fail("no grading with a kernel vector above a non-cycle")
    broken = replace(pres, u_dom=u_dom)
    monkeypatch.setattr(cone, "build_cone", lambda *args: broken)
    with pytest.raises(AssertionError, match="kernel not U-stable"):
        cone_homology(trefoil, spec)


def test_truncation_stability_explicit_depths(trefoil, figure8):
    for model, p, q in ((trefoil, 2, 5), (figure8, 2, 3)):
        for i in range(p):
            spec = SurgerySpec(p, q, i)
            n0 = default_depth(model, spec)
            base = cone_homology(model, spec, n0)
            deeper = cone_homology(model, spec, n0 + 2)
            deepest = cone_homology(model, spec, n0 + 4)
            assert base.same_homology(deeper)
            assert base.same_homology(deepest)


def test_depth_below_minimum_raises(trefoil):
    with pytest.raises(TruncationTooSmall):
        cone_homology(trefoil, SurgerySpec(2, 3, 0), 1)


def test_d_invariant_bounds_unknot(unknot):
    for p, q in ((2, 1), (5, 3), (9, 2)):
        for i in range(p):
            lo, up = d_invariant_bounds(unknot, SurgerySpec(p, q, i))
            assert lo == up == lens_d(p, q)[i]


def test_d_sandwich_s3_models(trefoil, figure8, unknot):
    # ambient S^3 has no odd bars, so the bounds pinch to equality
    for model in (unknot, trefoil, figure8):
        for p in range(1, 8):
            for q in range(1, 8):
                if gcd(p, q) != 1:
                    continue
                for i in range(p):
                    spec = SurgerySpec(p, q, i)
                    lo, up = d_invariant_bounds(model, spec)
                    assert lo == up
                    assert cone_homology(model, spec).d == up


def test_d_bounds_width_on_sigma237(sigma237_synthetic):
    lo, up = d_invariant_bounds(sigma237_synthetic, SurgerySpec(2, 1, 0))
    assert up - lo == 2
    r = cone_homology(sigma237_synthetic, SurgerySpec(2, 1, 0))
    assert lo <= r.d <= up


def test_reduced_cone_examples(figure8, unknot, sigma237_synthetic):
    # both maps vanish on the figure-eight hook generator
    assert reduced_cone(figure8, SurgerySpec(2, 1, 0)) == (1, 0)
    assert reduced_cone(unknot, SurgerySpec(2, 1, 0)) == (0, 0)
    # rank-nullity on a model with identity blocks
    for p, q in ((2, 1), (3, 2), (2, 5)):
        for i in range(p):
            spec = SurgerySpec(p, q, i)
            kd, cd = reduced_cone(sigma237_synthetic, spec)
            pres = build_cone(sigma237_synthetic, spec, 8)
            dim_a = len(list(pres.window.a_columns))
            dim_b = len(list(pres.window.b_columns))
            dim_red = sigma237_synthetic.ambient.dim_red
            assert kd - cd == (dim_a - dim_b) * dim_red


def test_reduced_cone_requires_v0_zero(trefoil):
    with pytest.raises(V0NonZero):
        reduced_cone(trefoil, SurgerySpec(2, 3, 0))


def test_kernel_cokernel_inequalities(sigma237_synthetic, figure8):
    # reduced kernel/cokernel dimensions against the full homology
    for model in (figure8, sigma237_synthetic):
        dim_y = model.ambient.dim_red
        for p in (1, 2, 3):
            for q in range(1, 8):
                if gcd(p, q) != 1:
                    continue
                for i in range(p):
                    spec = SurgerySpec(p, q, i)
                    kd, cd = reduced_cone(model, spec)
                    full = cone_homology(model, spec)
                    assert kd <= full.dim_red
                    assert kd + cd <= full.dim_red + dim_y


def test_lambda_consistency_through_cone(trefoil, figure8, unknot):
    # chi and the d-sum of the computed surgery must reproduce the
    # Casson-Walker surgery formula value exactly
    for model in (unknot, trefoil, figure8):
        delta2 = torsion_coefficients(model).delta2
        lam_y = lambda_from_hf(model.ambient.chi_red, model.ambient.d, 1)
        for p in range(1, 6):
            for q in range(1, 6):
                if gcd(p, q) != 1:
                    continue
                result = surgery(model, p, q)
                via_cone = lambda_from_hf(result.chi_red, result.d_sum, p)
                via_formula = casson_walker_surgery(
                    CassonWalkerInput(lam_y, 1, delta2, p, q)
                )
                assert via_cone == via_formula


def genus2_stress_model():
    from floersurgery import load_model

    return load_model(
        {
            "name": "genus2_stress",
            "ambient": {
                "name": "Ystress",
                "d": "0",
                "b_red": [
                    {"grading": "2", "parity": 0},
                    {"grading": "4", "parity": 0},
                    {"grading": "-3", "parity": 1},
                ],
                "u_matrix": [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
            },
            "genus": 2,
            "V": [1, 0, 0],
            "a_red": {
                "0": {
                    "generators": [
                        {"grading": "4", "parity": 0},
                        {"grading": "1", "parity": 1},
                    ],
                    "u_matrix": [[0, 0], [0, 0]],
                    "v_matrix": [[1, 0], [0, 0], [0, 0]],
                    "h_matrix": [[1, 0], [0, 0], [0, 0]],
                    "tower_offset": "0",
                },
                "1": {
                    "generators": [
                        {"grading": "2", "parity": 0},
                        {"grading": "4", "parity": 0},
                        {"grading": "-3", "parity": 1},
                    ],
                    "u_matrix": [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
                    "v_matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                    "h_matrix": [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
                    "tower_offset": "0",
                },
            },
        }
    )


def test_genus2_model_lambda_consistency_and_sandwich():
    model = genus2_stress_model()
    delta2 = torsion_coefficients(model).delta2
    lam_y = lambda_from_hf(model.ambient.chi_red, model.ambient.d, 1)
    assert lam_y == 1 and delta2 == 0
    for p in range(1, 6):
        for q in range(1, 8):
            if gcd(p, q) != 1:
                continue
            result = surgery(model, p, q)
            via_cone = lambda_from_hf(result.chi_red, result.d_sum, p)
            via_formula = casson_walker_surgery(
                CassonWalkerInput(lam_y, 1, delta2, p, q)
            )
            assert via_cone == via_formula
            for r in result.results:
                lo, up = d_invariant_bounds(model, SurgerySpec(p, q, r.i))
                assert lo <= r.d <= up
                assert up - lo == 2  # one odd bar of length 1 upstairs


def test_genus2_model_frozen_block():
    model = genus2_stress_model()
    r = cone_homology(model, SurgerySpec(3, 5, 1))
    assert r.d == Fraction(-11, 6)
    assert [(b.bottom, b.length, b.parity) for b in r.red] == [
        (Fraction(-23, 6), 1, 0),
        (Fraction(-11, 6), 1, 0),
        (Fraction(-5, 6), 1, 1),
        (Fraction(-5, 6), 1, 1),
        (Fraction(13, 6), 1, 0),
        (Fraction(19, 6), 1, 1),
    ]


def test_parities_relative_to_tower(sigma237_synthetic):
    for p, q in ((2, 1), (3, 1)):
        for i in range(p):
            r = cone_homology(sigma237_synthetic, SurgerySpec(p, q, i))
            for bar in r.red:
                assert (bar.bottom - r.d).denominator == 1
                assert bar.parity == (bar.bottom - r.d).numerator % 2
