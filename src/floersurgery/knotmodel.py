"""Input data model for a knot K in an integer homology sphere Y.

A model is a finite description sufficient to run the surgery machinery:
the ambient summary (d-invariant of Y and the reduced part of HF+(Y)),
the genus g, the sequence V_0 >= V_1 >= ... >= V_g = 0, and for each
k in {-(g-1), ..., g-1} the reduced summand of the k-th hook module
together with the two U-equivariant maps into the reduced ambient part.

Model files are JSON documents::

    {
      "name": "figure8_s3",
      "ambient": {
        "name": "S3",
        "d": "0",
        "b_red": [{"grading": "-1", "parity": 1}, ...],
        "u_matrix": [[0, ...], ...]
      },
      "genus": 1,
      "V": [0, 0],
      "a_red": {
        "0": {"generators": [{"grading": "-1", "parity": 1}],
               "u_matrix": [[0]],
               "v_matrix": [],
               "h_matrix": [],
               "tower_offset": "0"}
      }
    }

Rationals are strings "a/b" (or plain integers).  Ambient ``b_red``
gradings are absolute, anchored so the ambient tower generator sits at
``d``.  Generators of an ``a_red`` block are graded on a per-block scale
whose tower generator sits at ``tower_offset``; internally only the
differences (grading - tower_offset) matter.  ``v_matrix``/``h_matrix``
are row-major over F_2 with rows indexed by ``b_red`` generators and
columns by the block generators.

Only k >= 0 blocks are stored; negative k is derived by the symmetry
that swaps the two maps.  Blocks with |k| >= genus are the ambient
reduced part with the appropriate identity map and may be omitted.
Stored blocks in the derived range are checked against the derivation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Union

from . import gf2
from .errors import ModelError
from .fmod import (
    FiniteUPresentation,
    as_grading,
    barcode,
    degree_violations,
    euler_z2,
    validate,
)


@dataclass(frozen=True)
class AmbientSummary:
    """d-invariant and reduced Floer homology of the ambient homology sphere.

    ``b_red`` is graded tower-relatively: a generator's grading is its
    offset from the tower generator, whose absolute grading is ``d``.
    """

    name: str
    d: Fraction
    b_red: FiniteUPresentation

    def dims(self) -> tuple[int, int]:
        even = sum(1 for p in self.b_red.parities if p == 0)
        odd = self.b_red.dim - even
        return even, odd

    @property
    def chi_red(self) -> int:
        return euler_z2(self.b_red)

    @property
    def dim_red(self) -> int:
        return self.b_red.dim

    @property
    def is_l_space(self) -> bool:
        return self.b_red.dim == 0

    def max_odd_bar(self) -> int:
        """Length of the longest odd-parity bar of the reduced part."""
        return max((b.length for b in barcode(self.b_red) if b.parity == 1), default=0)

    def max_bar(self) -> int:
        return max((b.length for b in barcode(self.b_red)), default=0)

    def min_excess(self) -> Fraction | None:
        """min over reduced generators of (grading - d); None if L-space."""
        if self.b_red.dim == 0:
            return None
        return min(self.b_red.gradings)


@dataclass(frozen=True)
class ReducedBlock:
    """Reduced summand of one hook module with its two maps to b_red.

    ``pres`` is graded tower-relatively: the grading of a generator is its
    offset from the (implicit) tower generator of the hook module.
    """

    pres: FiniteUPresentation
    v_cols: tuple[int, ...]
    h_cols: tuple[int, ...]


@dataclass(frozen=True)
class TorsionProfile:
    """Torsion coefficients t_0..t_{g-1} and the Alexander second derivative."""

    t: tuple[int, ...]
    delta2: int


class KnotModel:
    """Validated, immutable knot model."""

    def __init__(
        self,
        name: str,
        ambient: AmbientSummary,
        genus: int,
        V: tuple[int, ...],
        blocks: dict[int, ReducedBlock],
    ):
        self.name = name
        self.ambient = ambient
        self.genus = genus
        self.V = V
        self._blocks = dict(blocks)
        self._max_reduced_bar: int | None = None

    def v_at(self, k: int) -> int:
        """V_k for any integer k, extended by V_{-j} = V_j + j."""
        if k >= 0:
            return self.V[k] if k <= self.genus else 0
        return self.v_at(-k) + (-k)

    def h_at(self, k: int) -> int:
        """H_k = V_k + k."""
        return self.v_at(k) + k

    def _identity_block(self) -> ReducedBlock:
        b = self.ambient.b_red
        ident = tuple(gf2.identity(b.dim))
        return ReducedBlock(b, ident, ident)

    def block(self, k: int) -> ReducedBlock:
        """Reduced block for any k; derived outside the stored range."""
        if abs(k) >= self.genus:
            return self._identity_block()
        if k >= 0:
            return self._blocks[k]
        pos = self._blocks[-k]
        return ReducedBlock(pos.pres, v_cols=pos.h_cols, h_cols=pos.v_cols)

    def max_reduced_bar(self) -> int:
        """Longest bar of the ambient reduced part or of any stored block.

        Computed on the first call and kept: the model is immutable.
        """
        if self._max_reduced_bar is None:
            self._max_reduced_bar = max(
                [self.ambient.max_bar()]
                + [b.length for blk in self._blocks.values() for b in barcode(blk.pres)]
            )
        return self._max_reduced_bar


def torsion_coefficients(m: KnotModel) -> TorsionProfile:
    """Torsion coefficients t_k = V_k + chi(A_red[k]) - chi(B_red), k >= 0.

    The V_k term counts the tower kernel of U^{V_k} (parity 0); the chi
    difference is what the reduced parts contribute.  delta2 is
    2 t_0 + 4 (t_1 + ... + t_{g-1}).
    """
    chi_b = m.ambient.chi_red
    t = tuple(
        m.v_at(k) + euler_z2(m.block(k).pres) - chi_b for k in range(m.genus)
    )
    delta2 = 0
    if t:
        delta2 = 2 * t[0] + 4 * sum(t[1:])
    return TorsionProfile(t=t, delta2=delta2)


def alexander_trivial(m: KnotModel) -> bool:
    """True iff every torsion coefficient vanishes."""
    return all(x == 0 for x in torsion_coefficients(m).t)


def _fail(code: str, message: str) -> ModelError:
    return ModelError(code, message)


def _parse_rational(x, what: str) -> Fraction:
    if isinstance(x, float):
        raise _fail("Syntax", f"{what} must be exact (string 'a/b' or int), got float")
    try:
        return as_grading(x)
    except (ValueError, TypeError) as e:
        raise _fail("Syntax", f"{what}: {e}") from e


def _parse_presentation(
    gens, u_matrix, offset: Fraction, what: str
) -> FiniteUPresentation:
    if not isinstance(gens, list):
        raise _fail("Syntax", f"{what}: generators must be a list")
    gradings = []
    parities = []
    for idx, g in enumerate(gens):
        if not isinstance(g, dict) or "grading" not in g or "parity" not in g:
            raise _fail("Syntax", f"{what}: generator {idx} needs grading and parity")
        gradings.append(_parse_rational(g["grading"], f"{what} generator {idx}") - offset)
        if g["parity"] not in (0, 1):
            raise _fail("Syntax", f"{what}: generator {idx} parity must be 0 or 1")
        parities.append(g["parity"])
    if not isinstance(u_matrix, list):
        raise _fail("Syntax", f"{what}: u_matrix must be a matrix")
    try:
        pres = FiniteUPresentation.from_rows(gradings, parities, u_matrix)
    except ValueError as e:
        raise _fail("Syntax", f"{what}: {e}") from e
    for off in pres.gradings:
        if off.denominator != 1:
            raise _fail(
                "ParityMismatch",
                f"{what}: generator grading offset {off} is not an integer",
            )
    for off, par in zip(pres.gradings, pres.parities):
        if off.numerator % 2 != par:
            raise _fail(
                "ParityMismatch",
                f"{what}: declared parity {par} disagrees with grading offset {off}",
            )
    errs = validate(pres)
    if errs:
        code = errs[0].split(":", 1)[0]
        raise _fail(code, f"{what}: {errs[0]}")
    return pres


def _parse_map(rows, dim_from: int, dim_to: int, what: str) -> tuple[int, ...]:
    if not isinstance(rows, list):
        raise _fail("Syntax", f"{what} must be a matrix")
    if rows == [] and (dim_from == 0 or dim_to == 0):
        return tuple([0] * dim_from)
    if len(rows) != dim_to or any(
        not isinstance(r, list) or len(r) != dim_from for r in rows
    ):
        raise _fail("Syntax", f"{what} must be {dim_to}x{dim_from}")
    cols = [0] * dim_from
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            if entry not in (0, 1):
                raise _fail("Syntax", f"{what} entries must be 0 or 1")
            if entry:
                cols[j] |= 1 << i
    return tuple(cols)


def _check_map(
    name: str,
    cols: tuple[int, ...],
    dom: FiniteUPresentation,
    cod: FiniteUPresentation,
    degree: int,
) -> None:
    """U-equivariance and homogeneity of a block map.

    Both sides are graded tower-relatively; the map must shift that
    degree by exactly ``degree``.
    """
    lhs = gf2.mat_mul(list(cod.u_cols), list(cols))
    rhs = gf2.mat_mul(list(cols), list(dom.u_cols))
    if lhs != rhs:
        raise _fail("MapNotEquivariant", f"{name} does not commute with U")
    for j, _ in degree_violations(cols, dom.gradings, cod.gradings, degree):
        raise _fail(
            "MapNotEquivariant",
            f"{name} is not homogeneous of degree {degree} at column {j}",
        )


def load_ambient(doc: dict, what: str = "ambient") -> AmbientSummary:
    if not isinstance(doc, dict):
        raise _fail("Syntax", f"{what} must be an object")
    for key in ("name", "d", "b_red", "u_matrix"):
        if key not in doc:
            raise _fail("Syntax", f"{what} is missing '{key}'")
    d = _parse_rational(doc["d"], f"{what}.d")
    b_red = _parse_presentation(doc["b_red"], doc["u_matrix"], d, f"{what}.b_red")
    return AmbientSummary(name=str(doc["name"]), d=d, b_red=b_red)


def load_ambient_file(path: Union[str, Path]) -> AmbientSummary:
    doc = _read_json(path)
    if "ambient" not in doc:
        raise _fail("Syntax", "ambient summary file needs an 'ambient' object")
    return load_ambient(doc["ambient"])


def _read_json(path: Union[str, Path]) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise _fail("Syntax", f"cannot read {path}: {e}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise _fail("Syntax", f"{path} is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise _fail("Syntax", f"{path}: top level must be an object")
    return doc


def load_model(source: Union[str, Path, dict]) -> KnotModel:
    """Load and fully validate a knot model from a file path or a dict."""
    doc = source if isinstance(source, dict) else _read_json(source)

    for key in ("name", "ambient", "genus", "V", "a_red"):
        if key not in doc:
            raise _fail("Syntax", f"model is missing '{key}'")
    name = str(doc["name"])
    ambient = load_ambient(doc["ambient"])

    genus = doc["genus"]
    if not isinstance(genus, int) or isinstance(genus, bool) or genus < 0:
        raise _fail("Syntax", "genus must be a non-negative integer")

    V = doc["V"]
    if (
        not isinstance(V, list)
        or len(V) != genus + 1
        or any(not isinstance(v, int) or isinstance(v, bool) for v in V)
    ):
        raise _fail("Syntax", f"V must list the {genus + 1} integers V_0..V_g")
    if any(v < 0 for v in V):
        raise _fail("Syntax", "V entries must be non-negative")
    for a, b in zip(V, V[1:]):
        if a < b:
            raise _fail("MonotonicityViolation", f"V is not non-increasing: {V}")
    if V[genus] != 0:
        raise _fail("GenusViolation", f"V_g must vanish at the genus, got V={V}")

    a_red = doc["a_red"]
    if not isinstance(a_red, dict):
        raise _fail("Syntax", "a_red must map k to blocks")
    parsed: dict[int, ReducedBlock] = {}
    for key, raw in a_red.items():
        try:
            k = int(key)
        except (TypeError, ValueError):
            raise _fail("Syntax", f"a_red key {key!r} is not an integer") from None
        if not isinstance(raw, dict):
            raise _fail("Syntax", f"a_red[{k}] must be an object")
        for fkey in ("generators", "u_matrix", "v_matrix", "h_matrix", "tower_offset"):
            if fkey not in raw:
                raise _fail("Syntax", f"a_red[{k}] is missing '{fkey}'")
        offset = _parse_rational(raw["tower_offset"], f"a_red[{k}].tower_offset")
        pres = _parse_presentation(
            raw["generators"], raw["u_matrix"], offset, f"a_red[{k}]"
        )
        v_cols = _parse_map(
            raw["v_matrix"], pres.dim, ambient.b_red.dim, f"a_red[{k}].v_matrix"
        )
        h_cols = _parse_map(
            raw["h_matrix"], pres.dim, ambient.b_red.dim, f"a_red[{k}].h_matrix"
        )
        parsed[k] = ReducedBlock(pres, v_cols, h_cols)

    model = KnotModel(name, ambient, genus, tuple(V), {})

    # maps must be U-equivariant and homogeneous for the declared V_k/H_k
    for k, blk in parsed.items():
        _check_map(
            f"v_matrix[{k}]", blk.v_cols, blk.pres, ambient.b_red, -2 * model.v_at(k)
        )
        _check_map(
            f"h_matrix[{k}]", blk.h_cols, blk.pres, ambient.b_red, -2 * model.h_at(k)
        )

    stored: dict[int, ReducedBlock] = {}
    for k in range(genus):
        if k not in parsed:
            raise _fail("Syntax", f"a_red is missing the block for k={k}")
        stored[k] = parsed[k]
    model = KnotModel(name, ambient, genus, tuple(V), stored)

    # redundant blocks must agree with what the symmetry derives
    for k, blk in parsed.items():
        if 0 <= k < genus:
            continue
        derived = model.block(k)
        same = blk.pres == derived.pres
        if abs(k) >= genus:
            # only the isomorphism direction is pinned out there
            same = same and (
                blk.v_cols == derived.v_cols
                if k >= 0
                else blk.h_cols == derived.h_cols
            )
        else:
            same = same and blk.v_cols == derived.v_cols
            same = same and blk.h_cols == derived.h_cols
        if not same:
            raise _fail(
                "SymmetryViolation",
                f"a_red[{k}] disagrees with the block derived from k={abs(k)}",
            )
    return model
