from __future__ import annotations

import importlib
import pkgutil
from dataclasses import is_dataclass, replace
from fractions import Fraction
from math import gcd

import pytest

import floersurgery
from floersurgery import (
    CassonWalkerInput,
    ConeResult,
    FiniteUPresentation,
    InvalidPresentation,
    KnotModel,
    ModelError,
    NotCoprime,
    SurgeryResult,
    SurgerySpec,
    Tau,
    TooLarge,
    TruncationTooSmall,
    casson_walker_surgery,
    d_invariant_bounds,
    default_depth,
    lambda_from_hf,
    lens_d,
    load_model,
    surgery,
    torsion_coefficients,
)
from floersurgery import cone, gf2
from floersurgery.cli import main
from floersurgery.cone import _shape, build_cone, cone_homology
from floersurgery.numth import lens_d_at, lens_d_numerators

from conftest import (
    depth_floor_reference,
    read_block,
    solved_blocks,
    staircase_doc,
    tower_bars_reference,
    window_floor_reference,
)
from referee import random_model, referee


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
                shape = _shape(model, p, q, i)
                pres = build_cone(model, shape, default_depth(model, shape))
                ks = [(i + p * n) // q for n in range(-50, 50)]
                n_plus = min(n for n in range(-50, 50) if ks[n + 50] >= G)
                n_minus = max(n for n in range(-50, 50) if ks[n + 50] <= -G)
                # A-columns n_minus + 1 .. n_plus, B-columns n_minus + 2 .. n_plus
                assert list(pres.a_grading) == list(range(n_minus + 1, n_plus + 1))
                assert list(pres.b_grading) == list(range(n_minus + 2, n_plus + 1))
                # the shape is their k-sequence, the last k written as G
                assert pres.shape == (*ks[n_minus + 51 : n_plus + 50], G)


def test_window_figure8_2_1_block1(figure8):
    # single hook column with k = 1, no target columns
    pres = build_cone(figure8, _shape(figure8, 2, 1, 1), 8)
    assert list(pres.a_grading) == [0]
    assert list(pres.b_grading) == []
    assert pres.shape == (1,)


def test_window_trefoil_2_3_block0(trefoil):
    pres = build_cone(trefoil, _shape(trefoil, 2, 3, 0), 8)
    assert list(pres.a_grading) == [0, 1, 2]
    assert pres.shape == (0, 0, 1)


def test_grading_telescope(trefoil, figure8, unknot):
    # consecutive target columns differ by exactly 2 k(n)
    for model in (unknot, trefoil, figure8):
        for p, q in ((2, 3), (3, 4), (5, 3)):
            for i in range(p):
                pres = build_cone(model, _shape(model, p, q, i), 8)
                k_of = dict(zip(pres.a_grading, pres.shape))
                cols = sorted(pres.b_grading)
                for a, b in zip(cols, cols[1:]):
                    k = k_of[a]
                    assert pres.b_grading[b] - pres.b_grading[a] == 2 * k


def test_anchor_grading(unknot, trefoil):
    # the bottom tower element of target column 0, when retained, is the
    # cone's offset 0, which a block reads at d(Y) + d(L(p,q), i) - 1
    for model in (unknot, trefoil):
        spec = SurgerySpec(2, 3, 0)
        pres = build_cone(model, _shape(model, 2, 3, 0), 8)
        k_of = dict(zip(pres.a_grading, pres.shape))
        assert pres.b_grading[1] - 2 * k_of[0] == 0
        d_lens = lens_d(2, 3)[0]
        assert read_block(model, spec, (0, ())).d == model.ambient.d + d_lens - 1


def test_non_integral_block_grading_is_rejected():
    # a block generator half a step off the tower's grading line cannot be
    # built, so it can never be silently rounded into the cone
    with pytest.raises(ValueError, match="not an int offset"):
        FiniteUPresentation((Fraction(-1, 2),), (0,))


def test_unknot_cone_is_lens_space(unknot):
    for p, q in ((2, 1), (3, 1), (1, 1), (1, 5), (5, 3), (7, 2)):
        result = surgery(unknot, p, q)
        assert result.total_dim_red == 0
        assert [r.d for r in result.results] == lens_d(p, q)


def test_trefoil_2_3_frozen_values(trefoil):
    assert cone_homology(trefoil, _shape(trefoil, 2, 3, 0)) == (-1, ((0, 1),))
    assert cone_homology(trefoil, _shape(trefoil, 2, 3, 1)) == (-1, ())
    r0 = read_block(trefoil, SurgerySpec(2, 3, 0))
    assert r0.d == Fraction(-7, 4)
    assert r0.red == (Tau(Fraction(-7, 4), 1, 0),)
    r1 = read_block(trefoil, SurgerySpec(2, 3, 1))
    assert r1.d == Fraction(-9, 4)
    assert r1.red == ()
    assert surgery(trefoil, 2, 3).results == (r0, r1)


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
                a = cone_homology(model, _shape(model, p, q, i))
                b = cone_homology(model, _shape(model, p, q, i))
                assert a == b


def test_misgraded_block_map_is_rejected(sigma237_synthetic):
    # a hand-built model whose block-0 generator sits two steps too high,
    # with the identity v/h maps left in place: the maps are not of the
    # degree V_0 and H_0 ask, and the constructor says so
    blk = sigma237_synthetic.columns()[0].block
    shifted = replace(blk.pres, gradings=tuple(g + 2 for g in blk.pres.gradings))
    with pytest.raises(ModelError) as raised:
        KnotModel(
            "sigma237_shifted",
            sigma237_synthetic.ambient,
            sigma237_synthetic.genus,
            sigma237_synthetic.V,
            {0: replace(blk, pres=shifted)},
        )
    assert raised.value.code == "MapNotEquivariant"
    assert str(raised.value) == (
        "MapNotEquivariant: v_matrix[0] is not homogeneous of degree 0 at column 0"
    )


def test_a_block_whose_u_is_not_of_degree_minus_2_is_rejected(sigma237_synthetic):
    # two generators at one grading, U sending one to the other: zero maps
    # would commute with this U, but the presentation refuses itself where
    # it is built, so no block and no model can hold it
    g = sigma237_synthetic.columns()[0].block.pres.gradings[0]
    with pytest.raises(InvalidPresentation) as exc:
        FiniteUPresentation((g, g), (0b10, 0))
    assert str(exc.value) == f"U sends e0 (grading {g}) to e1 (grading {g})"


def test_build_cone_lays_out_only_reduced_generators(
    trefoil, genus2_stress, sigma237_synthetic, spy
):
    # the towers are their bottoms and the ceiling, nothing else, and the
    # reduced summand lays out only reduced generators: a staircase has
    # none, so nothing is laid out or eliminated; otherwise the pass
    # eliminates each reduced A-generator once, as a column of d
    eliminated = spy(gf2, "nullspace")
    slopes = [(1, 1), (2, 3), (5, 2), (7, 4)]
    for model in [load_model(staircase_doc(V)) for V in ([1, 0], [3, 2, 2, 1, 1, 0])]:
        for p, q in slopes:
            pres = build_cone(model, _shape(model, p, q, p - 1), 8)
            assert pres.reduced == 0
            assert cone._reduced_bars(model, pres) == ([], [])
    assert eliminated == []
    for model in (genus2_stress, sigma237_synthetic):
        for p, q in slopes:
            for i in range(p):
                shape = _shape(model, p, q, i)
                pres = build_cone(model, shape, default_depth(model, shape))
                del eliminated[:]
                cone._reduced_bars(model, pres)
                a_red = sum(model.columns()[k].block.pres.dim for k in pres.shape)
                b_red = model.ambient.dim_red * len(pres.b_grading)
                assert sum(len(cols) for cols, *_ in eliminated) == a_red
                assert pres.reduced == a_red + b_red
    # a deeper cone differs only in how far its towers reach
    shape = _shape(trefoil, 2, 1, 0)
    shallow, deep = build_cone(trefoil, shape, 8), build_cone(trefoil, shape, 40000)
    assert deep.ceiling - shallow.ceiling == 2 * (40000 - 8)
    assert replace(deep, ceiling=shallow.ceiling) == shallow


def test_tower_bars_without_b_columns(figure8):
    # one hook column and no edge: the only bar is the surviving tower,
    # as a (bottom, length) offset pair
    pres = build_cone(figure8, _shape(figure8, 2, 1, 1), 8)
    assert pres.b_grading == {}
    bottom = pres.a_grading[0]
    length = (pres.ceiling - bottom) // 2 + 1
    assert cone._tower_bars(pres) == [(bottom, length)]


def test_edge_born_at_the_younger_bottom_gives_no_bar(trefoil):
    # trefoil 2/3 block 0: A-columns 0, 1 at -1 and 2 at 1 with V_1 = 0,
    # so edge 2 is born at column 2's bottom and ends that run at once;
    # edge 1 joins two runs at -1 one step above them and ends one
    pres = build_cone(trefoil, _shape(trefoil, 2, 3, 0), 8)
    assert pres.a_grading == {0: -1, 1: -1, 2: 1}
    assert pres.b_grading == {1: 0, 2: 0}
    length = (pres.ceiling + 1) // 2 + 1
    assert cone._tower_bars(pres) == [(-1, 1), (-1, length)]


def staircase_v(genus: int) -> list[int]:
    """V_k = ceil((g - k)/2): a staircase that drops at every other k."""
    return [(genus - k + 1) // 2 for k in range(genus + 1)]


def test_tower_sweep_matches_the_union_find_reference(
    unknot, trefoil, figure8, genus2_stress, sigma237_synthetic
):
    # the two-pointer sweep assumes unimodal B-bottoms; the reference
    # union-find sorts the edges and assumes nothing.  Every block of
    # every model at p <= 9, q <= 11, at depths N and N + 2
    staircases = [load_model(staircase_doc(staircase_v(g))) for g in range(13)]
    models = [unknot, trefoil, figure8, genus2_stress, sigma237_synthetic]
    slopes = [(p, q) for p in range(1, 10) for q in range(1, 12) if gcd(p, q) == 1]
    cases = 0
    for model in models + staircases:
        for p, q in slopes:
            for i in range(p):
                shape = _shape(model, p, q, i)
                n = default_depth(model, shape)
                for depth in (n, n + 2):
                    pres = build_cone(model, shape, depth)
                    bars = sorted(cone._tower_bars(pres))
                    case = (model.name, p, q, i)
                    assert bars == sorted(tower_bars_reference(pres)), case
                    cases += 1
    assert cases == 2 * len(models + staircases) * sum(p for p, _ in slopes)
    # the presentation that loses its first tower and the edge to it
    pres = build_cone(trefoil, _shape(trefoil, 2, 3, 0), 10)
    a_grading, b_grading = dict(pres.a_grading), dict(pres.b_grading)
    del a_grading[min(a_grading)], b_grading[min(b_grading)]
    lost = replace(pres, a_grading=a_grading, b_grading=b_grading)
    assert sorted(cone._tower_bars(lost)) == sorted(tower_bars_reference(lost))


def test_tower_sweep_refuses_b_bottoms_that_are_not_unimodal(figure8):
    # B-bottoms 0, 4, 2, 6 rise, fall and rise again: the edges alive at
    # grading 3 are not one interval, so the sweep must raise where the
    # union-find reference still returns bars
    pres = build_cone(figure8, _shape(figure8, 1, 1, 0), 8)
    hand_built = replace(
        pres,
        a_grading={0: -1, 1: -1, 2: -1, 3: -1, 4: -1},
        b_grading={1: 0, 2: 4, 3: 2, 4: 6},
    )
    assert len(tower_bars_reference(hand_built)) == 5
    with pytest.raises(AssertionError, match="not unimodal"):
        cone._tower_bars(hand_built)


def test_an_empty_target_tower_is_reported(monkeypatch):
    # no depth above the floor empties a target tower; with the floor
    # lifted, a negative depth puts the ceiling below B-bottoms, and the
    # first such column along the window is named
    model = load_model(staircase_doc([3, 2, 2, 1, 1, 0]))
    monkeypatch.setattr(cone, "_depth_floor", lambda model: -100)
    shape = _shape(model, 1, 1, 0)
    pres = build_cone(model, shape, 8)
    for depth, column in ((-1, 5), (-6, -3)):
        ceiling = pres.ceiling - 2 * (8 - depth)
        assert column == min(n for n, b in pres.b_grading.items() if b > ceiling - 1)
        with pytest.raises(TruncationTooSmall) as raised:
            build_cone(model, shape, depth)
        assert str(raised.value) == f"empty target tower in column {column}"


def test_edge_born_at_the_ceiling_is_reported(trefoil, monkeypatch):
    # cut the same cone at grading 1, where both edges are born: the bar
    # ended by edge 1 tops out two below the ceiling, next to the tower;
    # trefoil has no reduced generator, so the towers are all there is.
    # The referee, cut far above, has that bar: (-1, 1), whose top is -1
    shape = _shape(trefoil, 2, 3, 0)
    pres = build_cone(trefoil, shape, 8)
    broken = replace(pres, ceiling=max(pres.b_grading.values()) + 1)
    tower, bars = referee(trefoil, 2, 3, 0)
    ((bottom, n),) = [(tower + b, n) for b, n in bars]
    assert (bottom, n) == (-1, 1) and bottom + 2 * (n - 1) == broken.ceiling - 2
    monkeypatch.setattr(cone, "build_cone", lambda *args: broken)
    with pytest.raises(TruncationTooSmall) as raised:
        cone_homology(trefoil, shape)
    assert str(raised.value) == "2 chains reach the ceiling; expected exactly one tower"


def test_a_cokernel_bar_at_the_ceiling_is_reported(genus2_stress, monkeypatch):
    # genus2_stress 1/2 block 0 has cokernel bars (-3, 1) and (4, 1), and
    # the reduced summand has no depth: cut at 6, the bar at 4 tops out at
    # the ceiling and the solve is refused; cut at 7, it ends two below,
    # and the solve is the true one
    shape = _shape(genus2_stress, 1, 2, 0)
    pres = build_cone(genus2_stress, shape, default_depth(genus2_stress, shape))
    assert cone._reduced_bars(genus2_stress, pres)[1] == [(-3, 1), (4, 1)]
    solved = cone_homology(genus2_stress, shape)
    monkeypatch.setattr(cone, "build_cone", lambda *args: replace(pres, ceiling=6))
    with pytest.raises(TruncationTooSmall) as raised:
        cone_homology(genus2_stress, shape)
    assert str(raised.value) == "cokernel reaches the ceiling"
    monkeypatch.setattr(cone, "build_cone", lambda *args: replace(pres, ceiling=7))
    assert cone_homology(genus2_stress, shape) == solved


def losing_a_tower(model, shape, depth):
    """``build_cone``, whose deeper presentation loses its first tower and
    the edge to it."""
    pres = build_cone(model, shape, depth)
    if depth != default_depth(model, shape) + 2:
        return pres
    a_grading, b_grading = dict(pres.a_grading), dict(pres.b_grading)
    del a_grading[min(a_grading)], b_grading[min(b_grading)]
    return replace(pres, a_grading=a_grading, b_grading=b_grading)


def test_a_disagreement_at_the_deeper_depth_trips_the_certificate(
    trefoil, capsys, monkeypatch
):
    # the deeper presentation loses its first tower and the edge to it, so
    # the bar that edge ended is gone at N + 2 alone; each depth is valid
    # on its own, and only the comparison of the two can see it
    shape = _shape(trefoil, 2, 3, 0)
    n = default_depth(trefoil, shape)
    assert len(cone._tower_bars(build_cone(trefoil, shape, n + 2))) == 2
    assert len(cone._tower_bars(losing_a_tower(trefoil, shape, n + 2))) == 1
    monkeypatch.setattr(cone, "build_cone", losing_a_tower)
    message = "results change when the towers are cut two levels higher"
    with pytest.raises(TruncationTooSmall) as raised:
        cone_homology(trefoil, shape)
    assert str(raised.value) == message
    assert main(["surgery", "trefoil_rh_s3", "2/3"]) == 3
    error = f"error: trefoil_rh_s3 at 2/3 block 0: {message}\n"
    assert capsys.readouterr() == ("", error)


def test_a_per_depth_error_is_raised_before_the_deeper_pass(trefoil, spy):
    # the depth-N cone is cut so that two chains reach its ceiling: that
    # error comes from the first pass, and no cone at N + 2 is built
    shape = _shape(trefoil, 2, 3, 0)
    n = default_depth(trefoil, shape)
    pres = build_cone(trefoil, shape, n)
    broken = replace(pres, ceiling=max(pres.b_grading.values()) + 1)
    built = spy(
        cone, "build_cone", lambda *args: broken, record=lambda m, s, depth: depth
    )
    with pytest.raises(TruncationTooSmall) as raised:
        cone_homology(trefoil, shape)
    assert str(raised.value) == "2 chains reach the ceiling; expected exactly one tower"
    assert built == [n]


def test_only_read_off_builds_fractions(trefoil, genus2_stress, spy):
    # cone_homology returns int offsets and builds no Fraction or Tau;
    # surgery reads off each new interner key once, in _read_off: one
    # Fraction for d, and a Fraction and a Tau per distinct bar, whose
    # bottom is that Fraction; equal bars, adjacent in the sorted bars,
    # are one Tau
    fractions, taus = spy(cone, "Fraction"), spy(cone, "Tau")
    reads, with_bars = spy(cone, "_read_off"), []
    genus12 = load_model(staircase_doc(staircase_v(12)))
    for model, p, q in ((trefoil, 3, 2), (genus2_stress, 2, 5), (genus12, 1, 2)):
        for i in range(p):
            tower, bars = cone.cone_homology(model, _shape(model, p, q, i))
            assert type(tower) is int
            assert all(type(b) is type(n) is int for b, n in bars)
        assert fractions == taus == reads == []
        interner = {}
        surgery(model, p, q, interner=interner)
        assert len(reads) == len(interner) > 0
        assert len(fractions) == sum(1 + len(set(bars)) for _, _, bars in reads)
        assert len(taus) == sum(len(set(bars)) for _, _, bars in reads)
        assert all(type(bottom) is Fraction for bottom, _, _ in taus)
        for (_, _, bars), (_, red) in zip(reads, reads.results):
            pairs = list(zip(red, red[1:]))
            assert [s is t for s, t in pairs] == [s == t for s, t in pairs]
        with_bars += [bars for _, _, bars in reads if bars]
        for calls in (fractions, taus, reads):
            calls.clear()
        reads.results.clear()
    assert with_bars


def test_equal_bars_share_one_tau_at_large_q(figure8):
    # at large q nearly every bar of a block is equal: the read-off equals
    # the per-bar one, one Tau per bar, from the solve's offsets, and holds
    # one Tau per distinct bar (2,001 bars in 2 Taus at figure-eight 2/2001)
    staircase = load_model(staircase_doc(staircase_v(5)))
    held = {}
    for model, p, q in ((figure8, 2, 2001), (staircase, 3, 401)):
        shapes = {}
        results = surgery(model, p, q, shapes=shapes).results
        for i, r in enumerate(results):
            tower, bars = shapes[model, _shape(model, p, q, i)]
            assert r.d == model.ambient.d - 1 + lens_d_at(p, q, i) + tower
            assert r.red == tuple(Tau(r.d + b, n, b % 2) for b, n in bars)
            assert len({id(t) for t in r.red}) == len(set(r.red))
        held[model.name] = {id(t) for r in results for t in r.red}
    assert len(held[figure8.name]) == 2


def test_a_solve_computes_no_shape(trefoil, genus2_stress, spy, monkeypatch):
    # a solve reads the shape it is given and computes none; default_depth
    # reads the model alone, so forcing it changes nothing
    calls = spy(cone, "_shape")
    genus12 = load_model(staircase_doc(staircase_v(12)))
    for model, p, q in ((trefoil, 3, 2), (genus2_stress, 2, 5), (genus12, 1, 2)):
        for i in range(p):
            shape = cone._shape(model, p, q, i)
            calls.clear()
            cone.cone_homology(model, shape)
            assert calls == []
            depth = default_depth(model, shape) + 2
            with monkeypatch.context() as forced:
                forced.setattr(cone, "default_depth", lambda model, shape: depth)
                cone.cone_homology(model, shape)
            assert calls == []


def test_truncation_stability_explicit_depths(trefoil, figure8, solve_at):
    for model, p, q in ((trefoil, 2, 5), (figure8, 2, 3)):
        for i in range(p):
            shape = _shape(model, p, q, i)
            n0 = default_depth(model, shape)
            base = solve_at(model, shape, n0)
            deeper = solve_at(model, shape, n0 + 2)
            deepest = solve_at(model, shape, n0 + 4)
            assert base == deeper == deepest


def test_depth_below_minimum_raises(trefoil, solve_at):
    with pytest.raises(TruncationTooSmall) as raised:
        solve_at(trefoil, _shape(trefoil, 2, 3, 0), 1)
    assert str(raised.value) == "towers cut below the safe minimum"


def test_floor_on_retained_maps_keeps_the_homology(
    unknot, trefoil, figure8, genus2_stress, sigma237_synthetic, solve_at
):
    # no window's floor over its retained maps exceeds the model's, and
    # the window of 1/2, where every |k| < G is interior, reaches it; the
    # floor over every A-column, boundary columns included, gives the
    # library's homology
    models = [unknot, trefoil, figure8, genus2_stress, sigma237_synthetic] + [
        load_model(staircase_doc(V))
        for V in ([2, 1, 1, 0], [3, 2, 2, 1, 1, 0], staircase_v(12))
    ]
    slopes = [(p, q) for p in range(1, 8) for q in range(1, 8) if gcd(p, q) == 1]
    for model in models:
        floor = cone._depth_floor(model)
        half = cone._shape(model, 1, 2, 0)
        assert window_floor_reference(model, half) == floor, model.name
        for p, q in slopes:
            for i in range(p):
                spec = SurgerySpec(p, q, i)
                shape = cone._shape(model, p, q, i)
                assert window_floor_reference(model, shape) <= floor, (p, q, i)
                old_depth = 2 * depth_floor_reference(model, spec) + 4
                assert solve_at(model, shape, old_depth) == cone_homology(model, shape)


@pytest.mark.parametrize(
    "name, expected", [("unknot", 4), ("trefoil", 8), ("figure8", 6)]
)
def test_default_depth_does_not_grow_with_p(name, expected, request):
    model = request.getfixturevalue(name)
    depths = {
        default_depth(model, SurgerySpec(p, q, i))
        for p in (1, 2, 101, 1009)
        for q in (1, 2, 3, 5)
        if gcd(p, q) == 1
        for i in range(p)
    }
    assert depths == {expected}


def test_blocks_of_one_shape_have_one_cone(
    unknot, trefoil, figure8, genus2_stress, sigma237_synthetic
):
    # the shape is the key surgery shares results by: two blocks of one
    # shape, at one p and any q, must have one depth and one cone
    for model in (unknot, trefoil, figure8, genus2_stress, sigma237_synthetic):
        for p in range(1, 14):
            groups = {}
            for q in range(1, 10):
                if gcd(p, q) == 1:
                    for i in range(p):
                        shape = cone._shape(model, p, q, i)
                        groups.setdefault(shape, []).append(SurgerySpec(p, q, i))
            for shape, specs in groups.items():
                depth = default_depth(model, specs[0])
                ref = build_cone(model, shape, depth)
                assert ref.shape == shape
                for spec in specs[1:]:
                    assert default_depth(model, spec) == depth
                    own = _shape(model, spec.p, spec.q, spec.i)
                    assert build_cone(model, own, depth) == ref


def test_surgery_solves_each_block_shape_once(trefoil, spy):
    solved = solved_blocks(spy)
    # at p/1 the window of every block i >= G is the one column n = 0,
    # of k = i >= G: one shape
    result = surgery(trefoil, 3000, 1)
    assert len(result.results) == 3000
    assert len(solved) <= 2 * trefoil.genus + 2
    # three blocks, three window k-sequences: none is shared
    solved.clear()
    surgery(load_model(staircase_doc([1, 1, 0])), 3, 2)
    assert solved == [0, 1, 2]


def test_interval_rule_gives_every_block_its_shape(
    unknot, trefoil, figure8, genus2_stress, sigma237_synthetic, spy
):
    # surgery computes the shape once per run of blocks; every block must
    # read the shapes entry of its own _shape, its d that entry's tower
    # above its own anchor, as one _shape per block would give it, and a
    # block's _shape differs from the one before only at a cut b q mod p
    solved_blocks(spy, stub=True)
    staircases = [load_model(staircase_doc(staircase_v(g))) for g in range(1, 13)]
    models = [unknot, trefoil, figure8, genus2_stress, sigma237_synthetic, *staircases]
    cases = [
        (model, p, q)
        for model in models
        for p in range(1, 26)
        for q in range(1, 26)
        if gcd(p, q) == 1
    ]
    for model, p, q in cases + [(trefoil, 3000, 1), (figure8, 2, 20001)]:
        shapes = {}
        lens = lens_d_numerators(p, q)
        base = model.ambient.d - 1
        for r in surgery(model, p, q, shapes=shapes).results:
            tower, _ = shapes[model, cone._shape(model, p, q, r.i)]
            anchor = base + Fraction(lens[r.i], 4 * p)
            assert r.d == anchor + tower, (model.name, p, q, r.i)
        G = max(model.genus, 1)
        cuts = {b * q % p for b in range(1 - G, G + 1)}
        each = [cone._shape(model, p, q, i) for i in range(p)]
        for i in range(1, p):
            assert each[i] == each[i - 1] or i in cuts, (model.name, p, q, i)


def test_surgery_computes_at_most_2g_shapes(trefoil, genus2_stress, spy):
    # one _shape per run of blocks between the cuts b q mod p, -G < b <= G,
    # at the run's first block
    solved_blocks(spy, stub=True)
    calls = spy(cone, "_shape", record=lambda model, p, q, i: i)
    genus12 = load_model(staircase_doc(staircase_v(12)))
    for model, p, q, blocks in (
        (trefoil, 3000, 1, [0, 1]),
        (genus2_stress, 41, 5, [0, 5, 10, 36]),
        (genus12, 3, 2, [0, 1, 2]),
    ):
        calls.clear()
        surgery(model, p, q)
        assert calls == blocks
        assert len(calls) <= 2 * max(model.genus, 1)


def test_surgery_refuses_the_first_block_whose_window_is_too_large(
    genus2_stress, spy
):
    # at 5/208332 blocks 0-2 lay out 249,999 tower bottoms and block 3
    # 250,001: block 3, not the first block of the slope, is refused
    for i in range(3):
        assert len(cone._shape(genus2_stress, 5, 208332, i)) == 125000
    solved = solved_blocks(spy, stub=True)
    with pytest.raises(TooLarge) as raised:
        surgery(genus2_stress, 5, 208332)
    assert str(raised.value) == (
        "genus2_stress at 5/208332 block 3: window of 125001 A-columns: "
        "250001 tower bottoms, more than 250000 generators"
    )
    assert solved == [0, 2]


def test_a_solve_is_its_shape_entry(
    unknot, trefoil, figure8, genus2_stress, sigma237_synthetic
):
    # cone_homology returns ints, and every block's solve is the entry
    # that a fresh surgery keeps for the block's shape, solved at the
    # shape's lowest block index
    staircases = [load_model(staircase_doc(staircase_v(g))) for g in range(1, 9)]
    models = [unknot, trefoil, figure8, genus2_stress, sigma237_synthetic, *staircases]
    for model in models:
        for p in range(1, 14):
            for q in range(1, 14):
                if gcd(p, q) != 1:
                    continue
                shapes = {}
                surgery(model, p, q, shapes=shapes)
                for i in range(p):
                    shape = _shape(model, p, q, i)
                    tower, bars = solved = cone_homology(model, shape)
                    assert type(tower) is int and type(bars) is tuple
                    assert all(type(b) is type(n) is int for b, n in bars)
                    entry = shapes[model, shape]
                    assert solved == entry, (model.name, p, q, i)


def test_block_ids_are_equal_exactly_when_the_homology_is(
    unknot, trefoil, figure8, genus2_stress, sigma237_synthetic
):
    # one shapes dict and one interner per model over every coprime
    # p, q <= 13: two blocks at one p share an id exactly when they share
    # d and bars, and blocks at different p never share one
    staircases = [load_model(staircase_doc(staircase_v(g))) for g in range(1, 9)]
    models = [unknot, trefoil, figure8, genus2_stress, sigma237_synthetic, *staircases]
    for model in models:
        shapes, interner = {}, {}
        values_of_id, ids_of_value = {}, {}
        for p in range(1, 14):
            for q in range(1, 14):
                if gcd(p, q) != 1:
                    continue
                res = surgery(model, p, q, shapes=shapes, interner=interner)
                assert len(res.ids) == p
                for r, block_id in zip(res.results, res.ids):
                    value = (p, r.d, r.red)
                    values_of_id.setdefault(block_id, set()).add(value)
                    ids_of_value.setdefault(value, set()).add(block_id)
        assert all(len(v) == 1 for v in values_of_id.values()), model.name
        assert all(len(v) == 1 for v in ids_of_value.values()), model.name
        assert sorted(values_of_id) == list(range(len(interner)))


def test_one_cache_serves_every_p(trefoil, spy):
    # a shape's offsets do not depend on p or q: one shapes dict (and one
    # interner) over every coprime p, q < 30 solves each shape once, and
    # every surgery equals the one computed with fresh dicts
    slopes = [(p, q) for p in range(1, 30) for q in range(1, 30) if gcd(p, q) == 1]
    shapes, interner = {}, {}
    solved = spy(cone, "cone_homology")
    shared = [
        surgery(trefoil, p, q, shapes=shapes, interner=interner) for p, q in slopes
    ]
    assert len(solved) == len(shapes) <= 30
    assert shared == [surgery(trefoil, p, q) for p, q in slopes]


def test_one_interner_serves_every_ambient():
    # an interner key is the block's d, unreduced, and its bars, so one
    # interner serves surgeries over several ambients: the staircase over
    # an ambient with d = -2 (or d = 2/3) reads its own d, not S^3's, and
    # ids keep their order of first appearance
    s3_doc = staircase_doc([2, 2, 1, 0])
    s3 = load_model(s3_doc)
    interner = {}
    first = surgery(s3, 3, 2, interner=interner)
    assert [r.d for r in first.results] == [Fraction(-23, 6)] * 2 + [Fraction(-9, 2)]
    assert first.ids == (0, 0, 1)
    for d, ids in (("-2", (2, 2, 3)), ("2/3", (4, 4, 5))):
        doc = dict(s3_doc, ambient=dict(s3_doc["ambient"], name="Y", d=d))
        shifted = surgery(load_model(doc), 3, 2, interner=interner)
        moved = [r.d + Fraction(d) for r in first.results]
        assert [r.d for r in shifted.results] == moved
        assert shifted == surgery(load_model(doc), 3, 2)
        assert shifted.ids == ids
    assert surgery(s3, 3, 2, interner=interner).ids == first.ids


def test_one_shapes_dict_serves_every_model(trefoil, figure8):
    # a shape's offsets are its model's, so a shapes dict keys them by
    # model and shape: figure-eight at 3/2 after trefoil on one dict reads
    # its own blocks (d = 1/6 at blocks 0 and 1, not trefoil's -11/6)
    shapes, interner = {}, {}
    first = surgery(trefoil, 3, 2, shapes=shapes, interner=interner)
    second = surgery(figure8, 3, 2, shapes=shapes, interner=interner)
    assert first == surgery(trefoil, 3, 2)
    assert second == surgery(figure8, 3, 2)
    assert [r.d for r in second.results[:2]] == [Fraction(1, 6)] * 2


@pytest.mark.parametrize(
    "p, q, error, message",
    [
        (3, 0, NotCoprime, "gcd(3, 0) = 3: q=0 is not coprime to p=3"),
        (1, 0, NotCoprime, "need q >= 1, got 1/0"),
        (3, -2, NotCoprime, "need q >= 1, got 3/-2"),
        (4, 2, NotCoprime, "gcd(4, 2) = 2: q=2 is not coprime to p=4"),
        (0, 1, NotCoprime, "p must be positive, got 0"),
        (
            2,
            100000001,
            TooLarge,
            "window of 50000002 A-columns: 100000003 tower bottoms, more than "
            "250000 generators",
        ),
    ],
)
def test_surgery_checks_the_slope_before_any_block(trefoil, p, q, error, message):
    # the slope is checked once, before the lens table and the first
    # window; the window guard still refuses block 0 of 2/100000001, and
    # surgery names the block
    with pytest.raises(error) as raised:
        surgery(trefoil, p, q)
    block = "" if error is NotCoprime else f"trefoil_rh_s3 at {p}/{q} block 0: "
    assert str(raised.value) == block + message


def _ceiling_at(ceiling):
    """A patch making every cone's ceiling ``ceiling(pres)``."""

    def cut(model, shape, depth):
        pres = build_cone(model, shape, depth)
        return replace(pres, ceiling=ceiling(pres))

    return lambda monkeypatch: monkeypatch.setattr(cone, "build_cone", cut)


def _no_depth_floor(monkeypatch):
    # with the floor lifted, depth -1 puts the ceiling below B-bottoms
    monkeypatch.setattr(cone, "_depth_floor", lambda model: -100)
    monkeypatch.setattr(cone, "default_depth", lambda model, shape: -1)


@pytest.mark.parametrize(
    "patch, name, p, q, i, error, what",
    [
        pytest.param(
            lambda monkeypatch: monkeypatch.setattr(cone, "MAX_GENERATORS", 19),
            "genus2_stress", 9, 5, 5, TooLarge,
            "cone of 20 generators, more than 19",
            id="cone_size",
        ),
        pytest.param(
            lambda monkeypatch: monkeypatch.setattr(
                cone, "default_depth", lambda model, shape: 1
            ),
            "trefoil", 2, 3, 0, TruncationTooSmall,
            "towers cut below the safe minimum",
            id="depth_floor",
        ),
        pytest.param(
            _no_depth_floor, "staircase", 1, 1, 0, TruncationTooSmall,
            "empty target tower in column 5",
            id="empty_target_tower",
        ),
        pytest.param(
            _ceiling_at(lambda pres: 6), "genus2_stress", 1, 2, 0,
            TruncationTooSmall, "cokernel reaches the ceiling",
            id="cokernel_ceiling",
        ),
        pytest.param(
            _ceiling_at(lambda pres: max(pres.b_grading.values()) + 1),
            "trefoil", 2, 3, 0, TruncationTooSmall,
            "2 chains reach the ceiling; expected exactly one tower",
            id="tower_ceiling",
        ),
        pytest.param(
            lambda monkeypatch: monkeypatch.setattr(
                cone, "build_cone", losing_a_tower
            ),
            "trefoil", 2, 3, 0, TruncationTooSmall,
            "results change when the towers are cut two levels higher",
            id="certificate",
        ),
    ],
)
def test_surgery_names_the_block_of_a_cone_error_once(
    patch, name, p, q, i, error, what, request, monkeypatch
):
    # each error a solve can raise, through surgery: the message names no
    # block, and surgery puts the block in front of it (the window guard's
    # is test_surgery_checks_the_slope_before_any_block's last case)
    if name == "staircase":
        model = load_model(staircase_doc([3, 2, 2, 1, 1, 0]))
    else:
        model = request.getfixturevalue(name)
    patch(monkeypatch)
    with pytest.raises(error) as raised:
        surgery(model, p, q)
    block = f"{model.name} at {p}/{q} block {i}: "
    assert str(raised.value) == block + what
    assert str(raised.value).count(block) == 1


def test_first_trefoil_window_over_the_limit(trefoil):
    # block 0 of trefoil 2/q has (q + 3)/2 A-columns and one B-column
    # fewer; 2/249997 lays out 249,999 tower bottoms, 2/249999 250,001
    assert len(cone._shape(trefoil, 2, 249997, 0)) == 125000
    with pytest.raises(TooLarge, match="250001 tower bottoms"):
        cone._shape(trefoil, 2, 249999, 0)


def test_size_guard_counts_the_generators_a_pass_lays_out(
    trefoil, genus2_stress, monkeypatch, spy
):
    for model in (trefoil, genus2_stress):
        monkeypatch.undo()
        eliminated = spy(gf2, "nullspace")
        shape = _shape(model, 3, 2, 1)
        pres = build_cone(model, shape, 10)
        # the counting properties count every tower generator up to the
        # ceiling, and ``reduced`` every reduced generator of the window's
        # columns, of which the pass eliminates the A-row's
        for bottom, top, towers in (
            (pres.a_grading, pres.ceiling, pres.dom_gradings),
            (pres.b_grading, pres.ceiling - 1, pres.cod_gradings),
        ):
            levels = [g for b in bottom.values() for g in range(b, top + 1, 2)]
            assert towers == tuple(sorted(levels))
        a_red = sum(model.columns()[k].block.pres.dim for k in pres.shape)
        reduced = a_red + model.ambient.dim_red * len(pres.b_grading)
        assert pres.reduced == reduced
        cone._reduced_bars(model, pres)
        assert sum(len(cols) for cols, *_ in eliminated) == (
            a_red if not model.ambient.is_l_space else 0
        )
        # a cone has one bottom per tower and every reduced generator,
        # however high the towers reach
        towers = len(pres.a_grading) + len(pres.b_grading)
        gens = towers + reduced
        monkeypatch.setattr(cone, "MAX_GENERATORS", gens)
        assert build_cone(model, shape, 10) == pres
        assert build_cone(model, shape, 10**6).ceiling == pres.ceiling + 2 * (10**6 - 10)
        monkeypatch.setattr(cone, "MAX_GENERATORS", gens - 1)
        with pytest.raises(TooLarge) as raised:
            build_cone(model, shape, 10)
        assert str(raised.value) == f"cone of {gens} generators, more than {gens - 1}"
        if reduced:
            # the window's bottoms fit, the whole pass does not
            assert cone._shape(model, 3, 2, 1) == shape
        else:
            # the bottoms alone are over, refused before the window is walked
            with pytest.raises(TooLarge) as raised:
                cone._shape(model, 3, 2, 1)
            assert str(raised.value) == (
                f"window of {len(pres.a_grading)} A-columns: "
                f"{towers} tower bottoms, more than {gens - 1} generators"
            )


@pytest.mark.parametrize(
    "name, p, q, bars",
    [("genus16", 5, 127, 3932), ("trefoil", 2, 200001, 199999)],
)
def test_large_q_surgery_runs(name, p, q, bars, request):
    # refused while the guard counted tower generators up to the ceiling,
    # which no pass lays out; checked against the L-space closed forms of
    # test_oracles: (2g - 1) q - p bars, and Casson-Walker
    if name == "genus16":
        model = load_model(staircase_doc(staircase_v(16)))
    else:
        model = request.getfixturevalue(name)
    g = model.genus
    result = surgery(model, p, q)
    assert sum(len(r.red) for r in result.results) == (2 * g - 1) * q - p == bars
    delta2 = 2 * model.V[0] + 4 * sum(model.V[1:g])
    via_cone = lambda_from_hf(result.chi_red, result.d_sum, p)
    assert via_cone == casson_walker_surgery(CassonWalkerInput(0, 1, delta2, p, q))


def _fraction_sum(result) -> Fraction:
    return sum((r.d for r in result.results), Fraction(0))


@pytest.mark.parametrize("seed", range(6))
def test_d_sum_is_the_fraction_sum_on_random_models(seed):
    model = random_model(seed)
    for p, q in ((1, 1), (2, 3), (5, 2), (7, 4), (12, 5)):
        result = surgery(model, p, q)
        assert result.d_sum == _fraction_sum(result), (p, q)
        assert type(result.d_sum) is Fraction


def _parity_sums(bars) -> tuple[int, int]:
    return (
        sum(b.length for b in bars if b.parity == 0),
        sum(b.length for b in bars if b.parity == 1),
    )


@pytest.mark.parametrize("seed", range(6))
def test_dims_sum_each_parity_on_random_models(seed):
    # every seed's slopes hold bars of both parities
    model = random_model(seed)
    for p, q in ((5, 2), (7, 4), (12, 5)):
        result = surgery(model, p, q)
        for r in result.results:
            even, odd = _parity_sums(r.red)
            assert r.dims == (even, odd)
            assert (r.dim_red, r.chi_red) == (even + odd, even - odd)
        even, odd = _parity_sums([b for r in result.results for b in r.red])
        assert even > 0 and odd > 0, (p, q)
        assert result.dims == (even, odd), (p, q)
        assert (result.total_dim_red, result.chi_red) == (even + odd, even - odd)


def test_d_sum_is_the_fraction_sum_over_a_fractional_ambient_d():
    # over d(Y) = 5/3 the blocks' d have several denominators, so their
    # lcm is more than some of them
    doc = staircase_doc([2, 2, 1, 0])
    model = load_model(dict(doc, ambient=dict(doc["ambient"], name="Y", d="5/3")))
    for p, q in ((4, 3), (7, 2), (12, 7)):
        result = surgery(model, p, q)
        denominators = {r.d.denominator for r in result.results}
        assert len(denominators) > 1, (p, q)
        assert result.d_sum == _fraction_sum(result), (p, q)
        assert str(result.d_sum) == str(_fraction_sum(result))
    # and by hand, where the lcm 36 is more than every denominator
    ds = (Fraction(1, 4), Fraction(1, 6), Fraction(-2, 9))
    blocks = tuple(ConeResult(i, d, ()) for i, d in enumerate(ds))
    result = SurgeryResult("Y", 3, 1, blocks)
    assert result.d_sum == _fraction_sum(result) == Fraction(7, 36)


def test_every_record_is_a_frozen_slotted_dataclass(trefoil):
    # no record carries a per-instance dict, and none can be changed
    records = {
        cls.__name__: cls
        for info in pkgutil.iter_modules(floersurgery.__path__)
        for cls in vars(importlib.import_module(f"floersurgery.{info.name}")).values()
        if is_dataclass(cls) and cls.__module__ == f"floersurgery.{info.name}"
    }
    assert {"Column", "ConeResult", "LensInvariants", "Verdict"} <= set(records)
    for name, cls in records.items():
        assert cls.__dataclass_params__.frozen, name
        assert "__slots__" in vars(cls), name
    assert not hasattr(surgery(trefoil, 3, 2).results[0], "__dict__")


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
                    assert read_block(model, spec).d == up


def test_d_bounds_width_on_sigma237(sigma237_synthetic):
    lo, up = d_invariant_bounds(sigma237_synthetic, SurgerySpec(2, 1, 0))
    assert up - lo == 2
    r = read_block(sigma237_synthetic, SurgerySpec(2, 1, 0))
    assert lo <= r.d <= up


def reduced_dims(model, shape) -> tuple[int, int]:
    """(dim ker, dim coker) of d on the reduced summand, from the bars of
    ``cone._reduced_bars``; no tower depth changes them."""
    pres = build_cone(model, shape, default_depth(model, shape))
    ker, cok = cone._reduced_bars(model, pres)
    return sum(n for _, n in ker), sum(n for _, n in cok)


def test_reduced_cone_examples(figure8, unknot, sigma237_synthetic):
    # both maps vanish on the figure-eight hook generator
    assert reduced_dims(figure8, _shape(figure8, 2, 1, 0)) == (1, 0)
    assert reduced_dims(unknot, _shape(unknot, 2, 1, 0)) == (0, 0)
    # rank-nullity on a model with identity blocks
    for p, q in ((2, 1), (3, 2), (2, 5)):
        for i in range(p):
            shape = _shape(sigma237_synthetic, p, q, i)
            kd, cd = reduced_dims(sigma237_synthetic, shape)
            pres = build_cone(sigma237_synthetic, shape, 8)
            dim_a = len(pres.a_grading)
            dim_b = len(pres.b_grading)
            dim_red = sigma237_synthetic.ambient.dim_red
            assert kd - cd == (dim_a - dim_b) * dim_red


def test_kernel_cokernel_inequalities(sigma237_synthetic, figure8):
    # reduced kernel/cokernel dimensions against the full homology, read
    # by the referee
    for model in (figure8, sigma237_synthetic):
        dim_y = model.ambient.dim_red
        for p in (1, 2, 3):
            for q in range(1, 8):
                if gcd(p, q) != 1:
                    continue
                for i in range(p):
                    kd, cd = reduced_dims(model, _shape(model, p, q, i))
                    full = sum(n for _, n in referee(model, p, q, i)[1])
                    assert kd <= full
                    assert kd + cd <= full + dim_y


def test_the_cokernel_u_action_is_read_modulo_the_image():
    # Genus 1, V = (0, 0), over an ambient at d = 0 whose reduced e0, e1,
    # e2 sit at 0, 2, 0 with U e1 = e2; block 0 has a0, a1 at 0, -2 with
    # U a0 = a1, v = 0 and h a0 = e0 + e2.  By hand at 1/2: the window
    # has k = 0, 0, 1 in A-columns 0, 1, 2 (a and a' the block's copies
    # in columns 0 and 1, f the ambient's in column 2, where v is the
    # identity) and B-columns 1, 2 (e^1, e^2).  Every A-bottom is 1 and
    # every B-bottom 0, so the tower's bottom is 1 and d = -1 + 1 = 0.
    # The kernel is a0' + f0 + f2, with U-image a1', plus a1: bars at -1
    # of lengths 2 and 1.  The cokernel class of e1^1 at 2 has U-image e2^1;
    # modulo the image <e0^1 + e2^1, e0^2, e2^2> at 0 that is e0^1 != 0,
    # so its bar has length 2.  Read unreduced, e2^1 is not on the
    # cokernel's basis, and that bar splits into two of length 1.
    model = load_model(
        {
            "name": "cokernel_u",
            "ambient": {
                "name": "Y",
                "d": "0",
                "b_red": [{"grading": g, "parity": 0} for g in ("0", "2", "0")],
                "u_matrix": [[0, 0, 0], [0, 0, 0], [0, 1, 0]],
            },
            "genus": 1,
            "V": [0, 0],
            "a_red": {
                "0": {
                    "generators": [
                        {"grading": "0", "parity": 0},
                        {"grading": "-2", "parity": 0},
                    ],
                    "u_matrix": [[0, 0], [1, 0]],
                    "v_matrix": [[0, 0], [0, 0], [0, 0]],
                    "h_matrix": [[1, 0], [0, 0], [1, 0]],
                    "tower_offset": "0",
                }
            },
        }
    )
    (half,) = surgery(model, 1, 2).results
    assert half.d == 0
    assert half.red == (Tau(-2, 1, 0), Tau(-2, 2, 0), Tau(-1, 2, 1))
    first, second = surgery(model, 2, 3).results
    F = Fraction
    assert first.d == F(1, 4)
    assert first.red == (Tau(F(-7, 4), 1, 0), Tau(F(-7, 4), 2, 0), Tau(F(-3, 4), 2, 1))
    assert second.d == F(-1, 4)
    assert second.red == (Tau(F(-9, 4), 2, 0),)


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


def test_genus2_model_lambda_consistency_and_sandwich(genus2_stress):
    model = genus2_stress
    delta2 = torsion_coefficients(model).delta2
    lam_y = lambda_from_hf(model.ambient.chi_red, model.ambient.d, 1)
    assert lam_y == 1 and delta2 == 0
    slopes = [(p, q) for p in range(1, 6) for q in range(1, 8) if gcd(p, q) == 1]
    # at 7/3001 the largest pass lays out 9,871 generators; its towers
    # counted up to the ceiling would be 782,905
    for p, q in slopes + [(7, 3001)]:
        result = surgery(model, p, q)
        via_cone = lambda_from_hf(result.chi_red, result.d_sum, p)
        via_formula = casson_walker_surgery(CassonWalkerInput(lam_y, 1, delta2, p, q))
        assert via_cone == via_formula
        for r in result.results:
            lo, up = d_invariant_bounds(model, SurgerySpec(p, q, r.i))
            assert lo <= r.d <= up
            assert up - lo == 2  # one odd bar of length 1 upstairs


def test_genus2_model_frozen_block(genus2_stress):
    r = read_block(genus2_stress, SurgerySpec(3, 5, 1))
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
    # the library's own read-off, which gives a bar at offset b from the
    # tower the parity b mod 2
    for p, q in ((2, 1), (3, 1)):
        for r in surgery(sigma237_synthetic, p, q).results:
            for bar in r.red:
                assert (bar.bottom - r.d).denominator == 1
                assert bar.parity == (bar.bottom - r.d).numerator % 2


def test_a_cone_without_reduced_generators_is_eliminated_by_nobody(
    unknot, trefoil, solve_at, spy
):
    # over S^3 an L-space knot's cone has no reduced generator, so its
    # homology is the tower bars alone: the reduced summand gives no bar
    # and nothing is eliminated, and the general path gives the same
    # offsets
    eliminated = spy(gf2, "nullspace")
    staircases = [load_model(staircase_doc(staircase_v(g))) for g in range(1, 9)]
    for model in [unknot, trefoil, *staircases]:
        for p in range(1, 14):
            for q in range(1, 14):
                if gcd(p, q) != 1:
                    continue
                for i in range(p):
                    shape = _shape(model, p, q, i)
                    n = default_depth(model, shape)
                    for depth in (n, n + 2):
                        pres = build_cone(model, shape, depth)
                        assert pres.reduced == 0
                        assert cone._reduced_bars(model, pres) == ([], [])
                        general = cone._offsets(pres, cone._tower_bars(pres), [])
                        assert solve_at(model, shape, depth) == general
    assert eliminated == []


def test_l_space_surgery_eliminates_nothing(spy):
    model = load_model(staircase_doc(staircase_v(16)))
    solved = spy(cone, "cone_homology", record=lambda model, shape: shape)
    eliminated = spy(gf2, "nullspace")
    barcoded = spy(cone, "barcode", lambda m: [])
    res = surgery(model, 3, 2)
    assert len(res.results) == 3 and len(solved) == 3
    assert eliminated == barcoded == []


def test_reduced_generators_are_eliminated_once_per_pass(
    spy, figure8, genus2_stress, sigma237_synthetic
):
    # the reduced summand has no depth, so it is solved once per solve,
    # from the depth-N pass: by one pass over an ambient with reduced
    # homology, and over S^3 by the figure-eight's stored bars, with no
    # elimination and no cone barcode, also where its window holds
    # k = 0, its one nonempty block
    solved = spy(cone, "cone_homology", record=lambda model, shape: shape)
    passes = spy(cone, "_reduced_bars", record=lambda model, pres: solved[-1])
    eliminated = spy(gf2, "nullspace")
    for model in (genus2_stress, sigma237_synthetic):
        for p, q in ((2, 5), (7, 3), (13, 1)):
            del solved[:], passes[:], eliminated[:]
            surgery(model, p, q)
            assert solved and passes == solved and eliminated
    barcoded = spy(cone, "barcode", lambda m: [])
    holding = []
    for p, q in ((1, 2), (5, 1), (7, 3), (13, 2)):
        del solved[:], passes[:], eliminated[:]
        surgery(figure8, p, q)
        assert solved and passes == solved
        assert eliminated == barcoded == []
        reduced = [shape for shape in solved if 0 in shape]
        holding.append(len(reduced) / len(solved))
    assert min(holding) < 1 and max(holding) > 0  # both kinds of window occur


def test_the_reduced_summand_is_laid_out_once_per_solve_over_reduced_ambients(
    unknot, trefoil, figure8, genus2_stress, sigma237_synthetic, spy
):
    # one pass per solve where d needs elimination; over S^3 the stored
    # bars are read and nothing is eliminated, figure-eight's reduced
    # generators included
    passes = spy(cone, "_reduced_bars", record=lambda model, pres: pres.shape)
    eliminated = spy(gf2, "nullspace")
    staircase = load_model(staircase_doc(staircase_v(4)))
    slopes = [(1, 1), (2, 5), (7, 3), (13, 1)]
    for model in (genus2_stress, sigma237_synthetic):
        for p, q in slopes:
            for i in range(p):
                shape = _shape(model, p, q, i)
                del passes[:]
                cone_homology(model, shape)
                assert passes == [shape], (model.name, p, q, i)
    del eliminated[:]
    for model in (unknot, trefoil, figure8, staircase):
        for p, q in slopes:
            for i in range(p):
                cone_homology(model, _shape(model, p, q, i))
        surgery(model, 5, 2)
    assert eliminated == []
