from __future__ import annotations

import copy
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import floersurgery
from floersurgery import (
    ModelError,
    alexander_trivial,
    barcode,
    cli,
    euler_z2,
    fmod,
    gf2,
    load_model,
    load_model_or_ambient,
    torsion_coefficients,
)
from floersurgery.knotmodel import KnotModel, parse_rational

from conftest import STRESS_MODEL, rank, sigma237_synthetic_doc, staircase_doc


def base_doc() -> dict:
    return copy.deepcopy(sigma237_synthetic_doc())


def test_shipped_unknot(unknot):
    assert unknot.genus == 0
    assert unknot.V == (0,)
    assert unknot.ambient.dim_red == 0
    assert unknot.ambient.d == 0
    # its one hook block is the (empty) ambient reduced part
    assert unknot.columns()[0].block.pres.dim == 0


def test_shipped_trefoil(trefoil):
    assert trefoil.genus == 1
    assert trefoil.V == (1, 0)
    assert trefoil.columns()[0].block.pres.dim == 0
    assert trefoil.ambient.is_l_space


def test_shipped_figure8(figure8):
    assert figure8.genus == 1
    assert figure8.V == (0, 0)
    blk = figure8.columns()[0].block
    assert blk.pres.dim == 1
    assert blk.pres.gradings == (-1,)
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
    ker = depth - rank(cols)
    assert rank(cols) == depth - v0  # onto the truncated target
    chi_a = euler_z2(model.columns()[0].block.pres)
    return ker + chi_a - euler_z2(model.ambient.b_red)


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


@pytest.mark.parametrize(
    "genus, V, code",
    [(1, (0, 1), "MonotonicityViolation"), (-1, (0,), "Syntax"), (1, (1,), "Syntax")],
    ids=["V_increasing", "negative_genus", "V_too_short"],
)
def test_hand_built_models_are_refused(trefoil, genus, V, code):
    # the constructor checks the genus and V, so a model built by hand is
    # refused with the error that a file with that genus and V gets
    with pytest.raises(ModelError) as built:
        KnotModel("bad", trefoil.ambient, genus, V, {0: trefoil.columns()[0].block})
    doc = json.loads(cli.resolve_model_path("trefoil_rh_s3").read_text("utf-8"))
    doc["genus"], doc["V"] = genus, list(V)
    with pytest.raises(ModelError) as loaded:
        load_model(doc)
    assert built.value.code == loaded.value.code == code
    assert str(built.value) == str(loaded.value)


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


@pytest.mark.parametrize("where", ["a_red", "ambient"])
def test_half_step_grading_is_rejected(where):
    # block 0 has tower_offset "0" and the ambient d is "0": -1/2 is half a
    # step off either tower's grading line
    doc = base_doc()
    if where == "a_red":
        gens = doc["a_red"]["0"]["generators"]
    else:
        gens = doc["ambient"]["b_red"]
    gens[0]["grading"] = "-1/2"
    with pytest.raises(ModelError) as exc:
        load_model(doc)
    assert exc.value.code == "ParityMismatch"
    assert "is not an integer" in str(exc.value)


SHIPPED = Path(floersurgery.__file__).parent / "models"
MODEL_FILES = sorted(SHIPPED.glob("*.json")) + [STRESS_MODEL]


@pytest.mark.parametrize("spelling", ["00", "+0", " 0", "-0"])
@pytest.mark.parametrize("first", [True, False], ids=["then-0", "after-0"])
def test_a_second_spelling_of_a_block_key_is_rejected(spelling, first):
    # int() reads each spelling as 0, so one of two valid blocks of k = 0
    # would be dropped without a word
    doc = json.loads((SHIPPED / "figure8_s3.json").read_text(encoding="utf-8"))
    block = doc["a_red"]["0"]
    other = {**block, "generators": [], "u_matrix": []}
    pairs = [(spelling, other), ("0", block)]
    doc["a_red"] = dict(pairs if first else pairs[::-1])
    with pytest.raises(ModelError) as exc:
        load_model(doc)
    assert exc.value.code == "Syntax"
    assert repr(spelling) in str(exc.value)


def _declared_chi(gens: list[dict]) -> int:
    return sum(1 if g["parity"] == 0 else -1 for g in gens)


@pytest.mark.parametrize("path", MODEL_FILES, ids=lambda path: path.stem)
def test_euler_matches_declared_parities(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    model, ambient = load_model_or_ambient(path)
    assert euler_z2(ambient.b_red) == _declared_chi(doc["ambient"]["b_red"])
    for key, raw in doc.get("a_red", {}).items():
        pres = model.columns()[int(key)].block.pres
        assert euler_z2(pres) == _declared_chi(raw["generators"])


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
    blk = figure8.columns()[1].block
    assert blk.pres.dim == figure8.ambient.dim_red
    assert blk.v_cols == tuple(gf2.identity(figure8.ambient.dim_red))
    # negative k swaps the two maps
    doc = base_doc()
    doc["genus"] = 2
    doc["V"] = [0, 0, 0]
    doc["a_red"]["1"] = copy.deepcopy(doc["a_red"]["0"])
    doc["a_red"]["1"]["h_matrix"] = [[0]]
    model = load_model(doc)
    blk, stored = model.columns()[-1].block, model.columns()[1].block
    assert blk.v_cols == stored.h_cols
    assert blk.h_cols == stored.v_cols


def test_blocks_are_built_once_with_the_model(
    unknot, trefoil, figure8, genus2_stress, sigma237_synthetic
):
    # columns()[k].block is a lookup for |k| < G: one object on every
    # call, and for k < 0 the stored block's presentation with v_cols and
    # h_cols swapped.
    # The conjugates share the stored presentations, so the longest reduced
    # bar and the torsion coefficients read the stored blocks as before
    V = [6, 5, 5, 4, 4, 3, 3, 2, 2, 1, 1, 1, 0]
    expected = [
        (unknot, 0, ()),
        (trefoil, 0, (1,)),
        (figure8, 1, (-1,)),
        (genus2_stress, 2, (0, 0)),
        (sigma237_synthetic, 1, (0,)),
        (load_model(staircase_doc(V)), 0, tuple(V[:-1])),
    ]
    for model, longest, t in expected:
        G = max(model.genus, 1)
        for k in range(1 - G, G):
            assert model.columns()[k].block is model.columns()[k].block
        for k in range(1, model.genus):
            stored, conjugate = model.columns()[k].block, model.columns()[-k].block
            assert conjugate.pres is stored.pres
            assert conjugate.v_cols == stored.h_cols
            assert conjugate.h_cols == stored.v_cols
        assert model.max_reduced_bar() == longest
        assert torsion_coefficients(model).t == t


def test_column_records_are_the_model_read_per_k(
    unknot, trefoil, figure8, genus2_stress, sigma237_synthetic, spy
):
    # one record (block, v, h, dim, top, bars) for each k in (-G, G],
    # G = max(genus, 1) (so k = 0, 1 for the genus-0 unknot), equal to the
    # model's own lookups and barcode, built at construction and kept: a
    # load calls no columns(), and every call returns the one dict
    built = spy(KnotModel, "columns")
    staircases = [
        load_model(staircase_doc([(g - k + 1) // 2 for k in range(g + 1)]))
        for g in range(1, 13)
    ]
    assert built == []
    models = [unknot, trefoil, figure8, genus2_stress, sigma237_synthetic]
    for model in models + staircases:
        G = max(model.genus, 1)
        records = model.columns()
        assert list(records) == list(range(1 - G, G + 1))
        for k, record in records.items():
            pres = record.block.pres
            if abs(k) >= model.genus:  # the ambient's reduced part
                assert pres is model.ambient.b_red
            assert (record.v, record.h) == (model.v_at(k), model.h_at(k))
            top = max(pres.gradings) if pres.dim else 0
            assert (record.dim, record.top) == (pres.dim, top)
            assert record.bars == tuple(barcode(pres))
        assert model.columns() is records


def test_a_load_builds_one_model(spy):
    # a load parses the document and constructs its KnotModel once; the
    # constructor checks V, the maps, the blocks and the symmetry
    built = spy(KnotModel, "__init__", record=lambda model, *args: args)
    redundant = base_doc()  # genus 1: k = 1 and -1 are the ambient block
    block = redundant["a_red"]["0"]
    redundant["a_red"]["1"] = dict(block, v_matrix=[[1]], h_matrix=[[0]])
    redundant["a_red"]["-1"] = dict(block, v_matrix=[[0]], h_matrix=[[1]])
    figure8 = cli.resolve_model_path("figure8_s3")
    sources = [base_doc(), redundant, staircase_doc([2, 1, 0]), STRESS_MODEL, figure8]
    for source in sources:
        del built[:]
        load_model(source)
        assert len(built) == 1
    # a map error (the identity v at V_0 = 1) is still reported before a
    # missing block (k = 1), and the constructor raises it: a load does
    # nothing after constructing its one model
    broken = staircase_doc([1, 1, 0])
    broken["ambient"] = base_doc()["ambient"]
    broken["a_red"] = {"0": base_doc()["a_red"]["0"]}
    del built[:]
    with pytest.raises(ModelError) as exc:
        load_model(broken)
    assert exc.value.code == "MapNotEquivariant" and len(built) == 1
    with pytest.raises(ModelError) as direct:
        KnotModel(*built[0])
    assert str(direct.value) == str(exc.value)


def test_each_presentation_is_validated_once(spy):
    # a presentation validates itself where it is built: a load validates
    # the ambient's and each stored block's once, and neither the loader
    # nor a barcode validates again
    calls = spy(fmod, "validate")
    figure8 = cli.resolve_model_path("figure8_s3")
    for source, presentations in ((STRESS_MODEL, 3), (figure8, 2)):
        calls.clear()
        model = load_model(source)
        assert len(calls) == presentations
        calls.clear()
        barcode(model.ambient.b_red), barcode(model.columns()[0].block.pres)
        assert calls == []


@pytest.mark.parametrize("u_matrix", [[1], []], ids=["row_not_a_list", "empty"])
def test_u_matrix_must_list_every_row(u_matrix):
    doc = base_doc()
    doc["a_red"]["0"]["u_matrix"] = u_matrix  # block 0 has one generator
    with pytest.raises(ModelError) as exc:
        load_model(doc)
    assert exc.value.code == "Syntax"
    assert "a_red[0].u_matrix must be 1x1" in str(exc.value)


def test_validate_error_code_appears_once():
    doc = base_doc()
    doc["a_red"]["0"]["generators"] = [
        {"grading": "-1", "parity": 1},
        {"grading": "3", "parity": 1},
    ]
    doc["a_red"]["0"]["u_matrix"] = [[0, 1], [0, 0]]  # U: degree 4 -> -1
    with pytest.raises(ModelError) as exc:
        load_model(doc)
    assert exc.value.code == "NonHomogeneousU"
    assert str(exc.value).count("NonHomogeneousU") == 1
    assert str(exc.value).startswith("NonHomogeneousU: a_red[0]: U sends e1")


def test_dense_non_homogeneous_block_is_refused_without_matrix_products(
    spy, tmp_path
):
    # hostile input: 300 generators at one grading under a dense random U,
    # so about half of the 90,000 entries break homogeneity; the refusal
    # reads each entry once and multiplies no matrices
    n = 300
    rng = random.Random(n)
    doc = base_doc()
    block = doc["a_red"]["0"]
    block["generators"] = [{"grading": "-1", "parity": 1}] * n
    block["u_matrix"] = [[rng.getrandbits(1) for _ in range(n)] for _ in range(n)]
    block["v_matrix"] = block["h_matrix"] = [[0] * n]
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    products = spy(gf2, "mat_mul")
    validated = spy(fmod, "validate")
    with pytest.raises(ModelError) as exc:
        load_model(path)
    assert exc.value.code == "NonHomogeneousU"
    assert len(validated) == 2  # the ambient's b_red, then block 0
    assert products == []


def _bool_parity(doc):
    doc["a_red"]["0"]["generators"][0]["parity"] = True


def _bool_u_entry(doc):
    doc["ambient"]["u_matrix"] = [[False]]


def _bool_v_entry(doc):
    doc["a_red"]["0"]["v_matrix"] = [[True]]


@pytest.mark.parametrize(
    "edit", [_bool_parity, _bool_u_entry, _bool_v_entry], ids=["parity", "u", "v"]
)
def test_booleans_are_not_zero_or_one(edit):
    doc = base_doc()
    edit(doc)
    with pytest.raises(ModelError) as exc:
        load_model(doc)
    assert exc.value.code == "Syntax"
    assert "must be 0 or 1" in str(exc.value)


JUNK = [None, True, 1.5, -1, "1/0", "3/2", [], [1], [[1]], {}, 10**6]
_DELETE = object()


def _key_paths(node, prefix=()):
    """Every key or index path into a JSON document, parents first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _key_paths(child, prefix + (key,))


def _mutations(doc):
    """Each path deleted, then set to each JUNK value, on a fresh copy."""
    for where in _key_paths(doc):
        for value in [_DELETE, *JUNK]:
            mutated = copy.deepcopy(doc)
            parent = mutated
            for key in where[:-1]:
                parent = parent[key]
            if value is _DELETE:
                del parent[where[-1]]
            else:
                parent[where[-1]] = copy.deepcopy(value)
            yield where, value, mutated


@pytest.mark.parametrize("path", MODEL_FILES, ids=lambda path: path.stem)
def test_any_single_field_mutation_loads_or_raises_model_error(
    path, tmp_path, capsys
):
    doc = json.loads(path.read_text(encoding="utf-8"))
    for n, (where, value, mutated) in enumerate(_mutations(doc)):
        shown = "<deleted>" if value is _DELETE else repr(value)
        label = f"{path.stem} {list(where)} = {shown}"
        try:
            load_model_or_ambient(mutated)
        except ModelError:
            pass
        except Exception as e:
            pytest.fail(f"{label}: {type(e).__name__}: {e}")
        if n % 25 == 0:
            mutated_file = tmp_path / f"mutation{n}.json"
            mutated_file.write_text(json.dumps(mutated), encoding="utf-8")
            code = cli.main(["validate", str(mutated_file)])
            capsys.readouterr()
            assert code in (0, 2), label


@pytest.mark.parametrize("text", ["1.5", " 3", "1_000", "3/-4", "+", "1/"])
def test_parse_rational_accepts_only_signed_digits_over_digits(text):
    assert parse_rational("-3/4", "x") == Fraction(-3, 4)
    assert parse_rational("+7", "x") == 7
    with pytest.raises(ModelError, match="is not a rational"):
        parse_rational(text, "x")
