"""Generated staircase families against closed forms from the literature.

Every model here is a staircase in S^3: V non-increasing, dropping by at
most one per step, V_{g-1} = 1 and V_g = 0, with empty reduced blocks, so
the cone sees exactly the data of a genus-g L-space knot.  The expected
values come from formulas, not from the cone code path:

* the reduced Floer homology of p/q surgery on a genus-g L-space knot has
  max(0, (2g - 1) q - p) bars (Ozsvath-Szabo, Knot Floer homology and
  rational surgeries, arXiv math/0504404);
* the Casson-Walker invariant of p/q surgery is lambda(L(p,q)) +
  q Delta''(1) / (2p), where Delta''(1) = 2 t_0 + 4 (t_1 + ... + t_{g-1})
  and the torsion coefficients t_k of an L-space knot are its V_k;
* conjugation: block i and block (q - 1 - i) mod p have the same d and
  reduced bars, since k_j(n) = -k_i(-n) and the block at -k is the block
  at k with its two maps swapped.

The referee (``referee.py``), which shares no code with the cone, must
meet the staircases' closed forms alone, and ``cone_homology`` must
equal it on the shipped models, a genus-5 staircase and random models
over ambients with reduced homology.  ``surgery``, which solves each
block shape once, is checked against ``cone_homology`` on every block,
its offsets read at the block's own anchor, and a cosmetic scan, which
solves each shape once across all of its q, against a fresh
``surgery`` for every q.  ``surgery`` must not see the order of a
model's bases: random models give the same results with every basis
shuffled.  Conjugation is checked on the shipped models too, and knots
of S^3 moved to an L-space ambient at d = -2 against their S^3 blocks,
each shifted by -2.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace
from itertools import combinations
from fractions import Fraction
from math import ceil, gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from floersurgery import (
    CassonWalkerInput,
    FiniteUPresentation,
    FloerError,
    KnotModel,
    SurgerySpec,
    TooLarge,
    barcode,
    casson_walker_surgery,
    cone,
    cosmetic_pair_scan,
    default_depth,
    lambda_from_hf,
    load_model,
    obstruct,
    surgery,
)
from floersurgery.cli import resolve_model_path
from floersurgery.knotmodel import ReducedBlock
from floersurgery.numth import lens_d_at
from floersurgery.obstruct import _matches

from conftest import read_block, staircase_doc
from referee import random_model, random_models, referee

SLOPES = [(p, q) for p in range(1, 8) for q in range(1, 8) if gcd(p, q) == 1]


def staircases(genus: int) -> list[list[int]]:
    """T(2, 2g+1), V_k = ceil((g - k)/2), and the staircase that drops at
    every step, V_k = g - k (the same sequence when g = 1).  The second
    has Alexander polynomial t^g - 1 + t^-g, which no knot in S^3 with an
    L-space surgery has for g >= 2 (its t^(g-1) coefficient is 0, not -1),
    but the cone and both formulas see only V."""
    torus = [ceil((genus - k) / 2) for k in range(genus + 1)]
    steep = [genus - k for k in range(genus + 1)]
    return [torus] if torus == steep else [torus, steep]


FAMILY = [V for genus in range(1, 5) for V in staircases(genus)]


@pytest.mark.parametrize("V", FAMILY, ids=lambda V: "V" + "".join(map(str, V)))
def test_lspace_staircases_against_closed_forms(V):
    genus = len(V) - 1
    model = load_model(staircase_doc(V))
    delta2 = 2 * V[0] + 4 * sum(V[1:genus])
    for p, q in SLOPES:
        result = surgery(model, p, q)
        bars = sum(len(r.red) for r in result.results)
        assert bars == max(0, (2 * genus - 1) * q - p), (p, q)
        via_cone = lambda_from_hf(result.chi_red, result.d_sum, p)
        via_formula = casson_walker_surgery(CassonWalkerInput(0, 1, delta2, p, q))
        assert via_cone == via_formula, (p, q)


def test_split_solve_matches_the_truncated_cone_reference(
    unknot, trefoil, figure8, genus2_stress, sigma237_synthetic, solve_at
):
    # the tower summand by persistence plus the reduced summand, solved
    # once, against the referee, which lays out the whole truncated cone
    # at a depth of its own, on the library's window and on the window
    # widened by one column each side, at every coprime p, q <= 7: a solve
    # forced to depth N or N + 2 returns the offsets of its first pass,
    # cut there
    models = [unknot, trefoil, figure8, genus2_stress, sigma237_synthetic]
    models += [load_model(staircase_doc(V)) for V in [*FAMILY, [3, 2, 2, 1, 1, 0]]]
    blocks = 0
    for model in models:
        for p, q in SLOPES:
            for i in range(p):
                shape = cone._shape(model, p, q, i)
                n = default_depth(model, shape)
                expected = referee(model, p, q, i)
                assert referee(model, p, q, i, widen=1) == expected
                for depth in (n, n + 2):
                    assert solve_at(model, shape, depth) == expected
                blocks += 1
    assert blocks == 13 * 136


def test_l_space_read_equals_the_elimination(unknot, trefoil, figure8):
    # over an L-space ambient the reduced summand's bars are the model's
    # per-k barcodes, each at its column's A-bottom, with no elimination:
    # the referee, which eliminates every generator, finds that homology
    staircases = [load_model(staircase_doc(V)) for V in FAMILY]
    cases = [(figure8, 60)] + [(model, 14) for model in [unknot, trefoil, *staircases]]
    nonempty = 0
    for model, q_end in cases:
        for p in range(1, 8):
            for q in range(1, q_end):
                if gcd(p, q) != 1:
                    continue
                for i in range(p):
                    shape = cone._shape(model, p, q, i)
                    solved = cone.cone_homology(model, shape)
                    assert solved == referee(model, p, q, i), (model.name, p, q, i)
                    pres = cone.build_cone(model, shape, default_depth(model, shape))
                    nonempty += bool(cone._reduced_bars(model, pres)[0])
    assert nonempty


@pytest.mark.parametrize("V", FAMILY, ids=lambda V: "V" + "".join(map(str, V)))
def test_the_referee_alone_meets_the_closed_forms(V):
    # the guard on the guard: the referee, with no library solve, gives
    # the staircases' bar count and Casson-Walker value, so a referee bug
    # cannot hide behind agreement with the library
    genus = len(V) - 1
    model = load_model(staircase_doc(V))
    delta2 = 2 * V[0] + 4 * sum(V[1:genus])
    for p, q in SLOPES:
        bars, chi, d_sum = 0, 0, Fraction(0)
        for i in range(p):
            tower, red = referee(model, p, q, i)
            bars += len(red)
            chi += sum(n if b % 2 == 0 else -n for b, n in red)
            d_sum += model.ambient.d - 1 + lens_d_at(p, q, i) + tower
        assert bars == max(0, (2 * genus - 1) * q - p), (p, q)
        via_referee = lambda_from_hf(chi, d_sum, p)
        assert via_referee == casson_walker_surgery(
            CassonWalkerInput(0, 1, delta2, p, q)
        ), (p, q)


def test_the_referee_does_not_depend_on_its_depth(genus2_stress, sigma237_synthetic):
    # the ceiling sits above every generator, so any depth >= 1 reads the
    # same homology
    for model in (genus2_stress, sigma237_synthetic):
        for p, q in ((1, 1), (2, 3), (5, 2)):
            for i in range(p):
                expected = referee(model, p, q, i)
                for depth in (1, 5):
                    assert referee(model, p, q, i, depth=depth) == expected


def test_the_library_equals_the_referee_on_random_models():
    # 40 random models over ambients with reduced homology, at the small
    # slopes, on the library's window and widened by one column; the grid
    # at every coprime p <= 5, q <= 7 is tests/referee_grid.py
    slopes = [(p, q) for p in range(1, 4) for q in range(1, 4) if gcd(p, q) == 1]
    blocks = 0
    for seed in range(40):
        model = random_model(seed)
        for p, q in slopes:
            for i in range(p):
                solved = cone.cone_homology(model, cone._shape(model, p, q, i))
                for widen in (0, 1):
                    assert referee(model, p, q, i, widen) == solved, (seed, p, q, i)
                blocks += 1
    assert blocks == 40 * 13


@settings(max_examples=25, deadline=None, derandomize=True)
@given(model=random_models, p=st.integers(1, 6), q=st.integers(1, 9))
def test_random_models_agree_with_the_referee(model, p, q):
    assume(gcd(p, q) == 1)
    for i in range(p):
        solved = cone.cone_homology(model, cone._shape(model, p, q, i))
        assert referee(model, p, q, i) == solved, (model.name, p, q, i)


def _reordered(model: KnotModel, rng: random.Random) -> KnotModel:
    """The model with the generators of its ambient and of every stored
    block shuffled, each column of U, v and h moved with its generator
    and each bit with the generator it names."""

    def moved(mask: int, rank: list[int]) -> int:
        return sum(1 << rank[b] for b in range(mask.bit_length()) if mask >> b & 1)

    def shuffled(pres: FiniteUPresentation) -> tuple[list[int], list[int]]:
        order = list(range(pres.dim))  # new generator j is old order[j]
        rng.shuffle(order)
        rank = [0] * pres.dim
        for j, c in enumerate(order):
            rank[c] = j
        return order, rank

    amb = model.ambient.b_red
    amb_order, amb_rank = shuffled(amb)
    b_red = FiniteUPresentation(
        tuple(amb.gradings[c] for c in amb_order),
        tuple(moved(amb.u_cols[c], amb_rank) for c in amb_order),
    )
    blocks = {}
    for k in range(model.genus):
        block = model.columns()[k].block
        order, rank = shuffled(block.pres)
        pres = FiniteUPresentation(
            tuple(block.pres.gradings[c] for c in order),
            tuple(moved(block.pres.u_cols[c], rank) for c in order),
        )
        blocks[k] = ReducedBlock(
            pres,
            tuple(moved(block.v_cols[c], amb_rank) for c in order),
            tuple(moved(block.h_cols[c], amb_rank) for c in order),
        )
    ambient = replace(model.ambient, b_red=b_red)
    return KnotModel(model.name, ambient, model.genus, model.V, blocks)


def test_surgery_does_not_depend_on_the_order_of_a_basis():
    # 40 random models against copies with the basis of the ambient and
    # of every block shuffled; most of the shuffled ambients differ
    rng, reordered = random.Random(0), 0
    for seed in range(40):
        model = random_model(seed)
        other = _reordered(model, rng)
        reordered += other.ambient.b_red != model.ambient.b_red
        for p in range(1, 6):
            for q in range(1, 8):
                if gcd(p, q) == 1:
                    assert surgery(other, p, q) == surgery(model, p, q), (seed, p, q)
    assert reordered >= 20


def test_surgery_equals_every_block_solved(
    unknot, trefoil, figure8, genus2_stress, sigma237_synthetic
):
    # surgery solves each window k-sequence once and shifts the result to
    # the other blocks of that shape; cone_homology solves every block
    models = [unknot, trefoil, figure8, genus2_stress, sigma237_synthetic]
    models += [load_model(staircase_doc(V)) for V in FAMILY[:5]]
    slopes = [(p, q) for p in (1, 2, 3, 5, 7, 8, 11, 13, 19) for q in range(1, 8)]
    cases = [(model, p, q) for model in models for p, q in slopes if gcd(p, q) == 1]
    cases += [(trefoil, 301, 1), (figure8, 97, 5), (genus2_stress, 43, 3)]
    for model, p, q in cases:
        blocks = tuple(read_block(model, SurgerySpec(p, q, i)) for i in range(p))
        assert surgery(model, p, q).results == blocks, (model.name, p, q)
        for r in blocks:
            twin = blocks[(q - 1 - r.i) % p]
            assert (r.d, r.red) == (twin.d, twin.red), (model.name, p, q, r.i)


def test_spin_c_conjugation_pairs_block_i_with_q_minus_1_minus_i(
    unknot, trefoil, figure8, genus2_stress, sigma237_synthetic
):
    # conjugation sends block i to j = (q - 1 - i) mod p: k_j(n) = -k_i(-n),
    # so j's window is i's read backwards and negated, and the block at -k
    # is the one at k with its maps swapped, so j has i's d and bars
    models = [unknot, trefoil, figure8, genus2_stress, sigma237_synthetic]
    models += [
        load_model(staircase_doc(V)) for genus in range(1, 9) for V in staircases(genus)
    ]
    for model in models:
        G = max(model.genus, 1)
        for p in range(1, 12):
            for q in range(1, 14):
                if gcd(p, q) != 1:
                    continue
                blocks = surgery(model, p, q).results
                for i, r in enumerate(blocks):
                    j = (q - 1 - i) % p
                    case = (model.name, p, q, i)
                    assert (blocks[j].d, blocks[j].red) == (r.d, r.red), case
                    shape = cone._shape(model, p, q, i)
                    conjugate = (*(-k for k in reversed(shape[:-1])), G)
                    assert cone._shape(model, p, q, j) == conjugate, case


def test_an_l_space_ambient_with_nonzero_d_shifts_every_block():
    # the same knots over an L-space ambient at d = -2, such as the
    # Poincare sphere: every block keeps its bars relative to its d, and
    # d and every bar bottom move by -2
    poincare = {"name": "P", "d": "-2", "b_red": [], "u_matrix": []}
    docs = [
        json.loads(resolve_model_path(name).read_text(encoding="utf-8"))
        for name in ("trefoil_rh_s3", "figure8_s3")
    ]
    docs.append(staircase_doc([2, 1, 1, 0]))
    blocks = 0
    for doc in docs:
        s3, moved = load_model(doc), load_model(dict(doc, ambient=poincare))
        for p in range(1, 12):
            for q in range(1, 14):
                if gcd(p, q) != 1:
                    continue
                there = surgery(moved, p, q).results
                for r, m in zip(surgery(s3, p, q).results, there, strict=True):
                    shifted = tuple(replace(b, bottom=b.bottom - 2) for b in r.red)
                    assert (m.d, m.red) == (r.d - 2, shifted), (doc["name"], p, q, r.i)
                    blocks += 1
    assert blocks == 3 * 580  # the blocks of the coprime p <= 11, q <= 13


def test_surgery_raises_at_the_first_block_that_raises(genus2_stress, monkeypatch):
    # the first block of each shape is solved, and it is the lowest block
    # index with that shape: with at most 19 generators genus2_stress 9/5
    # passes blocks 0-4 and raises at block 5, whose cone has 20
    monkeypatch.setattr(cone, "MAX_GENERATORS", 19)
    with pytest.raises(TooLarge) as shared:
        surgery(genus2_stress, 9, 5)
    with pytest.raises(TooLarge) as every:
        for i in range(9):
            cone.cone_homology(genus2_stress, cone._shape(genus2_stress, 9, 5, i))
    assert str(shared.value) == f"genus2_stress at 9/5 block {i}: {every.value}" == (
        "genus2_stress at 9/5 block 5: cone of 20 generators, more than 19"
    )


SCAN_MODELS = ["unknot", "trefoil", "figure8", "genus2_stress"]
SCAN_MODELS += [f"staircase{genus}" for genus in (3, 6, 9)]


@pytest.mark.parametrize("name", SCAN_MODELS)
def test_scan_surgeries_equal_fresh_surgeries(name, request, spy, monkeypatch):
    # a scan shares one dict of block shapes across its q; every surgery
    # it runs must equal a fresh one, q and i included, its hits must be
    # the fresh surgeries' matches, and at a depth too small it must raise
    # where the fresh surgeries first raise, in q order
    if name.startswith("staircase"):
        model = load_model(staircase_doc(staircases(int(name[9:]))[0]))
    else:
        model = request.getfixturevalue(name)
    qs = range(1, 10)
    recorded = spy(obstruct, "surgery").results
    default = cone.default_depth
    raised = 0
    for p in (1, 2, 3, 5, 7, 11, 13, 23, 41):
        pairs = None
        for depth in (None, 12, 3):
            forced = default if depth is None else lambda model, spec, n=depth: n
            monkeypatch.setattr(cone, "default_depth", forced)
            # fresh shapes per surgery; one interner gives comparable ids
            fresh, error, interner = {}, None, {}
            try:
                for q in (q for q in qs if gcd(p, q) == 1):
                    fresh[q] = surgery(model, p, q, interner=interner)
            except FloerError as err:
                error = err
            recorded.clear()
            if error is not None:
                raised += 1
                with pytest.raises(type(error)) as scan_error:
                    cosmetic_pair_scan(model, p, qs)
                assert str(scan_error.value) == str(error), (p, depth)
                assert recorded == list(fresh.values()), (p, depth)
                continue
            hits = cosmetic_pair_scan(model, p, qs)
            assert recorded == list(fresh.values()), (p, depth)
            # matching ignores depth, so one depth's pairs serve all
            if pairs is None:
                pairs = [
                    (q1, q2)
                    for q1, q2 in combinations(fresh, 2)
                    if _matches(fresh[q1].ids, fresh[q2].ids, p)
                ]
            assert hits == pairs, (p, depth)
    # depth 3 is below the minimum of every model but these two
    assert bool(raised) == (name not in ("unknot", "figure8"))


def farey_triples(n_max: int) -> list:
    """Every slope r3 = p3/q3 in lowest terms with 1 <= p3, q3 <= n_max and
    its Farey parents r1 < r3 < r2, as (r1, r2, r3) of (p, q) pairs:
    p1 q2 - p2 q1 = -1 and r3 = (p1 + p2)/(q1 + q2).  The parents of an
    integer n are n - 1 and infinity, (1, 0); a triple with the parent 0
    is left out, as the calculator does not compute slope 0."""
    triples = []
    for p3 in range(1, n_max + 1):
        for q3 in range(1, n_max + 1):
            if gcd(p3, q3) != 1:
                continue
            q1 = pow(p3, -1, q3) or q3  # p3 q1 = 1 mod q3, 0 < q1 <= q3
            p1 = (p3 * q1 - 1) // q3
            if p1:
                triples.append(((p1, q1), (p3 - p1, q3 - q1), (p3, q3)))
    return triples


def test_exact_triangle_bounds_every_hat_rank(
    unknot, trefoil, figure8, genus2_stress, sigma237_synthetic
):
    # the surgery exact triangle (Ozsvath-Szabo, arXiv math/0105202) for
    # slopes at distance one: each HF-hat rank is at most the sum of the
    # other two.  A block's rank is 1 + 2 #bars, the ambient's (slope
    # infinity) 1 + 2 #bars of its reduced part.  Over an L-space ambient
    # the rank is p + 2 max(0, (2 nu - 1) q - p) + 2 q #bars(A^red)
    # (arXiv math/0504404, Prop. 9.6), a linear form plus
    # |p - (2 nu - 1) q|, and Farey neighbours never straddle an integer,
    # so there the largest rank is the sum of the other two
    triples = farey_triples(25)
    assert ((24, 1), (1, 0), (25, 1)) in triples and len(triples) == 374
    models = [unknot, trefoil, figure8, genus2_stress, sigma237_synthetic]
    models += [load_model(staircase_doc(staircases(g)[0])) for g in (2, 4, 7)]
    for model in models:
        shapes, interner = {}, {}
        ranks = {(1, 0): 1 + 2 * len(barcode(model.ambient.b_red))}
        for triple in triples:
            for p, q in triple:
                if (p, q) not in ranks:
                    res = surgery(model, p, q, shapes=shapes, interner=interner)
                    ranks[p, q] = sum(1 + 2 * len(r.red) for r in res.results)
            low, mid, high = sorted(ranks[slope] for slope in triple)
            assert high <= low + mid, (model.name, triple)
            if model.ambient.is_l_space:
                assert high == low + mid, (model.name, triple)
