from __future__ import annotations

import copy
from fractions import Fraction

import pytest

from floersurgery import (
    FiniteUPresentation,
    ModelError,
    alexander_trivial,
    euler_z2,
    gf2,
    load_model,
    torsion_coefficients,
)
from conftest import sigma237_synthetic_doc


def base_doc() -> dict:
    return copy.deepcopy(sigma237_synthetic_doc())


def test_shipped_unknot(unknot):
    assert unknot.genus == 0
    assert unknot.V == (0,)
    assert unknot.ambient.dim_red == 0
    assert unknot.ambient.d == 0
    # every hook block is the (empty) ambient reduced part
    assert unknot.block(0).pres.dim == 0
    assert unknot.block(5).pres.dim == 0


def test_shipped_trefoil(trefoil):
    assert trefoil.genus == 1
    assert trefoil.V == (1, 0)
    assert trefoil.block(0).pres.dim == 0
    assert trefoil.ambient.is_l_space


def test_shipped_figure8(figure8):
    assert figure8.genus == 1
    assert figure8.V == (0, 0)
    blk = figure8.block(0)
    assert blk.pres.dim == 1
    assert blk.pres.parities == (1,)
    assert blk.pres.gradings == (Fraction(-1),)
    assert blk.pres.u_cols == (0,)  # generator lies in ker U
    assert blk.v_cols == (0,)
    assert blk.h_cols == (0,)


def test_torsion_coefficients_shipped(unknot, trefoil, figure8):
    assert torsion_coefficients(unknot).t == ()
    assert torsion_coefficients(unknot).delta2 == 0
    assert torsion_coefficients(trefoil).t == (1,)
    assert torsion_coefficients(trefoil).delta2 == 2
    assert torsion_coefficients(figure8).t == (-1,)
    assert torsion_coefficients(figure8).delta2 == -2


def _t0_oracle(model, depth: int = 9) -> int:
    """Independent torsion oracle: rank computation for the tower part of
    the k=0 vertical map at truncation, plus the reduced Euler difference.

    U^{V_0}: tau(depth) -> tau(depth - V_0) is onto, so its kernel has
    dimension V_0, all of it in even parity.
    """
    v0 = model.v_at(0)
    cols = [
        (1 << (j - v0)) if j >= v0 else 0 for j in range(depth)
    ]  # columns of U^{v0} into tau(depth - v0)
    ker = depth - gf2.rank(cols)
    assert gf2.rank(cols) == depth - v0  # onto the truncated target
    return ker + euler_z2(model.block(0).pres) - euler_z2(model.ambient.b_red)


def _t0_from_alexander(coeffs: dict[int, int]) -> int:
    # t_0 = sum_{j >= 1} j * a_j for symmetric Delta = sum a_j t^j
    return sum(j * a for j, a in coeffs.items() if j >= 1)


def test_torsion_against_oracles(trefoil, figure8):
    assert _t0_oracle(trefoil) == 1
    assert _t0_oracle(figure8) == -1
    assert torsion_coefficients(trefoil).t[0] == _t0_oracle(trefoil)
    assert torsion_coefficients(figure8).t[0] == _t0_oracle(figure8)
    # Delta(trefoil) = t - 1 + t^-1, Delta(figure8) = -t + 3 - t^-1
    assert _t0_from_alexander({1: 1, 0: -1, -1: 1}) == 1
    assert _t0_from_alexander({1: -1, 0: 3, -1: -1}) == -1


def test_alexander_trivial(unknot, trefoil):
    assert alexander_trivial(unknot)
    assert not alexander_trivial(trefoil)
    # genus-1 model with the hook reduced part equal to the ambient one
    doc = base_doc()
    assert alexander_trivial(load_model(doc))


def test_vh_values(trefoil):
    assert (trefoil.v_at(0), trefoil.h_at(0)) == (1, 1)
    assert (trefoil.v_at(-1), trefoil.h_at(-1)) == (1, 0)
    for k in range(1, 6):
        assert (trefoil.v_at(k), trefoil.h_at(k)) == (0, k)


def test_vh_identity_window(trefoil, figure8, unknot):
    for model in (trefoil, figure8, unknot):
        g = model.genus
        prev = None
        for k in range(-2 * g - 2, 2 * g + 3):
            v, h = model.v_at(k), model.h_at(k)
            assert h - v == k
            assert v >= 0 and h >= 0
            if prev is not None:
                assert prev >= v  # V non-increasing in k
            prev = v


def test_delta2_mod_four():
    for v0 in (0, 1, 2, 3):
        doc = base_doc()
        doc["V"] = [v0, 0]
        if v0 > 0:
            # a nonzero map can no longer be homogeneous of degree -2 V_0
            doc["a_red"]["0"]["v_matrix"] = [[0]]
            doc["a_red"]["0"]["h_matrix"] = [[0]]
        model = load_model(doc)
        prof = torsion_coefficients(model)
        assert prof.delta2 % 4 in (0, 2)
        assert (prof.delta2 - 2 * prof.t[0]) % 4 == 0


def test_monotonicity_violation():
    doc = base_doc()
    doc["genus"] = 2
    doc["V"] = [0, 1, 0]
    doc["a_red"]["1"] = copy.deepcopy(doc["a_red"]["0"])
    with pytest.raises(ModelError) as exc:
        load_model(doc)
    assert exc.value.code == "MonotonicityViolation"


def test_genus_violation():
    doc = base_doc()
    doc["V"] = [1, 1]
    doc["a_red"]["0"]["v_matrix"] = [[0]]
    doc["a_red"]["0"]["h_matrix"] = [[0]]
    with pytest.raises(ModelError) as exc:
        load_model(doc)
    assert exc.value.code == "GenusViolation"


def test_map_not_equivariant_wrong_degree():
    doc = base_doc()
    doc["V"] = [1, 0]  # v-map must now drop tower-relative degree by 2
    with pytest.raises(ModelError) as exc:
        load_model(doc)
    assert exc.value.code == "MapNotEquivariant"


def test_map_not_u_equivariant():
    doc = base_doc()
    doc["ambient"]["b_red"] = [
        {"grading": "-1", "parity": 1},
        {"grading": "1", "parity": 1},
    ]
    doc["ambient"]["u_matrix"] = [[0, 1], [0, 0]]
    doc["a_red"]["0"]["generators"] = [
        {"grading": "-1", "parity": 1},
        {"grading": "1", "parity": 1},
    ]
    doc["a_red"]["0"]["u_matrix"] = [[0, 0], [0, 0]]  # U = 0 upstairs
    doc["a_red"]["0"]["v_matrix"] = [[0, 0], [0, 1]]  # does not commute
    doc["a_red"]["0"]["h_matrix"] = [[0, 0], [0, 0]]
    with pytest.raises(ModelError) as exc:
        load_model(doc)
    assert exc.value.code == "MapNotEquivariant"


def test_parity_mismatch():
    doc = base_doc()
    doc["a_red"]["0"]["generators"] = [{"grading": "-1", "parity": 0}]
    with pytest.raises(ModelError) as exc:
        load_model(doc)
    assert exc.value.code == "ParityMismatch"


def test_symmetry_violation_on_stored_negative_block():
    doc = base_doc()
    doc["genus"] = 2
    doc["V"] = [0, 0, 0]
    doc["a_red"]["1"] = copy.deepcopy(doc["a_red"]["0"])
    doc["a_red"]["1"]["h_matrix"] = [[0]]  # degree -2 H_1 kills the identity
    good = copy.deepcopy(doc)
    good["a_red"]["-1"] = {
        "generators": [{"grading": "-1", "parity": 1}],
        "u_matrix": [[0]],
        "v_matrix": [[0]],  # = h of k=1
        "h_matrix": [[1]],  # = v of k=1
        "tower_offset": "0",
    }
    load_model(good)  # matching stored negative block is accepted
    bad = copy.deepcopy(good)
    bad["a_red"]["-1"]["h_matrix"] = [[0]]  # degree-legal but wrong
    with pytest.raises(ModelError) as exc:
        load_model(bad)
    assert exc.value.code == "SymmetryViolation"


def test_syntax_errors():
    with pytest.raises(ModelError) as exc:
        load_model({"name": "x"})
    assert exc.value.code == "Syntax"
    doc = base_doc()
    doc["V"] = [0]
    with pytest.raises(ModelError) as exc:
        load_model(doc)
    assert exc.value.code == "Syntax"
    doc = base_doc()
    doc["ambient"]["d"] = 0.25
    with pytest.raises(ModelError) as exc:
        load_model(doc)
    assert exc.value.code == "Syntax"


def test_relabelling_basis_gives_same_torsion(figure8):
    doc = {
        "name": "figure8_relabelled",
        "ambient": {"name": "S3", "d": "0", "b_red": [], "u_matrix": []},
        "genus": 1,
        "V": [0, 0],
        "a_red": {
            "0": {
                # same module, grading scale shifted wholesale
                "generators": [{"grading": "9", "parity": 1}],
                "u_matrix": [[0]],
                "v_matrix": [],
                "h_matrix": [],
                "tower_offset": "10",
            }
        },
    }
    other = load_model(doc)
    assert torsion_coefficients(other) == torsion_coefficients(figure8)


def test_derived_blocks(figure8, trefoil):
    # |k| >= genus: ambient reduced part with identity vertical map
    blk = figure8.block(1)
    assert blk.pres.dim == figure8.ambient.dim_red
    assert blk.v_cols == tuple(gf2.identity(figure8.ambient.dim_red))
    # negative k swaps the two maps
    doc = base_doc()
    doc["genus"] = 2
    doc["V"] = [0, 0, 0]
    doc["a_red"]["1"] = copy.deepcopy(doc["a_red"]["0"])
    doc["a_red"]["1"]["h_matrix"] = [[0]]
    model = load_model(doc)
    blk = model.block(-1)
    assert blk.v_cols == model.block(1).h_cols
    assert blk.h_cols == model.block(1).v_cols
