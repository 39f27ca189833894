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

Rationals are JSON integers or strings "a/b" or "a", with a an optionally
signed run of digits and b a run of digits; exponents, decimal points,
spaces and underscores are refused.  Ambient ``b_red``
gradings are absolute, anchored so the ambient tower generator sits at
``d``.  Generators of an ``a_red`` block are graded on a per-block scale
whose tower generator sits at ``tower_offset``.  A loaded model keeps
only the differences grading - d and grading - tower_offset, as ``int``
offsets: each must be an integer, and its parity the declared one.
Matrices are row-major over F_2: entry [i][j] is the coefficient of
generator i in the image of generator j, so ``u_matrix`` is n x n over
the module's own generators, and ``v_matrix``/``h_matrix`` have rows
indexed by ``b_red`` generators and columns by the block generators.
Every row is a list of exactly that many entries, each the integer 0 or
1 (JSON booleans are rejected); ``[]`` stands for a matrix only when
one of its dimensions is 0.  A malformed value anywhere is a ``Syntax``
error.

An ``a_red`` key is k written as ``str(k)`` ("0", not "00", "+0" or
"-0"), so no two keys name one block.  Only k >= 0 blocks are stored;
negative k is derived by the symmetry that swaps the two maps.  Blocks
with |k| >= genus are the ambient reduced part with the appropriate
identity map and may be omitted.
Stored blocks in the derived range are checked against the derivation.

``load_model`` parses (JSON types, rationals, matrices, parities); each
presentation validates itself as it is built, and the ``KnotModel``
constructor, which a hand-built model goes through too, checks the rest.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Union

from . import gf2
from .errors import InvalidPresentation, ModelError
from .fmod import FiniteUPresentation, barcode, degree_violations, euler_z2


@dataclass(frozen=True, slots=True)
class AmbientSummary:
    """d-invariant and reduced Floer homology of the ambient homology sphere.

    ``b_red`` is graded tower-relatively: a generator's grading is its
    offset from the tower generator, whose absolute grading is ``d``.
    """

    name: str
    d: Fraction
    b_red: FiniteUPresentation

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
        return max((n for b, n in barcode(self.b_red) if b % 2), default=0)

    def min_excess(self) -> Fraction | None:
        """min over reduced generators of (grading - d); None if L-space."""
        if self.b_red.dim == 0:
            return None
        return Fraction(min(self.b_red.gradings))


@dataclass(frozen=True, slots=True)
class ReducedBlock:
    """Reduced summand of one hook module with its two maps to b_red.

    ``pres`` is graded tower-relatively: the grading of a generator is its
    offset from the (implicit) tower generator of the hook module.
    """

    pres: FiniteUPresentation
    v_cols: tuple[int, ...]
    h_cols: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class TorsionProfile:
    """Torsion coefficients t_0..t_{g-1} and the Alexander second derivative."""

    t: tuple[int, ...]
    delta2: int


@dataclass(frozen=True, slots=True)
class Column:
    """The record of one k in ``KnotModel.columns``."""

    block: ReducedBlock
    v: int
    h: int
    dim: int
    top: int
    bars: tuple[tuple[int, int], ...]


class KnotModel:
    """Valid, immutable knot model, checked and built at construction.

    The genus must be non-negative and ``V`` list V_0..V_g, non-negative,
    non-increasing and with V_g = 0.  ``blocks`` holds every block the
    source gives, keyed by k.  Each given block's two maps must be
    U-equivariant and homogeneous of degree -2 V_k and -2 H_k
    (``_check_map``), every 0 <= k < genus needs a block, and a block
    given outside that range must agree with the one the symmetry
    derives; a failure is the ModelError a model file gets.  The
    ``columns`` records, the one way to read a block, and
    ``max_reduced_bar`` are built at once, from one barcode of every
    stored presentation and of the ambient's, and ``max_v_plus_h`` from
    the records.
    """

    def __init__(
        self,
        name: str,
        ambient: AmbientSummary,
        genus: int,
        V: list[int] | tuple[int, ...],
        blocks: dict[int, ReducedBlock],
    ):
        self.name = name
        self.ambient = ambient
        self.genus = genus
        self.V = tuple(V)
        if genus < 0:
            raise ModelError("Syntax", "genus must be a non-negative integer")
        if len(V) != genus + 1:
            raise ModelError("Syntax", f"V must list the {genus + 1} integers V_0..V_g")
        if any(v < 0 for v in V):
            raise ModelError("Syntax", "V entries must be non-negative")
        if any(a < b for a, b in zip(V, V[1:])):
            raise ModelError(
                "MonotonicityViolation", f"V is not non-increasing: {list(V)}"
            )
        if V[genus]:
            raise ModelError(
                "GenusViolation", f"V_g must vanish at the genus, got V={list(V)}"
            )
        amb = ambient.b_red
        for k, blk in blocks.items():
            v = self.v_at(k)
            _check_map(f"v_matrix[{k}]", blk.v_cols, blk.pres, amb, -2 * v)
            _check_map(f"h_matrix[{k}]", blk.h_cols, blk.pres, amb, -2 * (v + k))
        for k in range(genus):
            if k not in blocks:
                raise ModelError("Syntax", f"a_red is missing the block for k={k}")

        # one barcode of the ambient's reduced part and of each distinct
        # stored presentation; a conjugate block shares its stored block's
        bars = {amb: tuple(barcode(amb))}
        for k in range(genus):
            if blocks[k].pres not in bars:
                bars[blocks[k].pres] = tuple(barcode(blocks[k].pres))
        ident = tuple(gf2.identity(amb.dim))
        identity = ReducedBlock(amb, ident, ident)
        G = max(genus, 1)
        self._columns = {}
        for k in range(1 - G, G + 1):
            if abs(k) >= genus:
                blk = identity
            elif k >= 0:
                blk = blocks[k]
            else:
                stored = blocks[-k]
                blk = ReducedBlock(stored.pres, stored.h_cols, stored.v_cols)
            v, pres = self.v_at(k), blk.pres
            top = max(pres.gradings, default=0)
            self._columns[k] = Column(blk, v, v + k, pres.dim, top, bars[pres])
        # V_{-k} + H_{-k} = V_k + H_k, so 0 <= k < G suffice
        self._max_v_plus_h = max(
            self._columns[k].v + self._columns[k].h for k in range(G)
        )
        self._max_reduced_bar = max(
            (n for pairs in bars.values() for _, n in pairs), default=0
        )

        # redundant blocks must agree with what the symmetry derives; for
        # |k| >= genus only the isomorphism direction is pinned
        for k, blk in blocks.items():
            if 0 <= k < genus:
                continue
            if abs(k) < genus:
                derived = self._columns[k].block
            elif k >= 0:
                derived = ReducedBlock(amb, ident, blk.h_cols)
            else:
                derived = ReducedBlock(amb, blk.v_cols, ident)
            if blk != derived:
                raise ModelError(
                    "SymmetryViolation",
                    f"a_red[{k}] disagrees with the block derived from k={abs(k)}",
                )

    def v_at(self, k: int) -> int:
        """V_k for any integer k: 0 above the genus, and V_{-j} = V_j + j."""
        V = self.V
        if k >= 0:
            return V[k] if k < len(V) else 0
        return (V[-k] if -k < len(V) else 0) - k

    def h_at(self, k: int) -> int:
        """H_k = V_k + k."""
        return self.v_at(k) + k

    def max_v_plus_h(self) -> int:
        """Max over |k| < G, G = max(genus, 1), of V_k + H_k, built at
        construction from the ``columns`` records."""
        return self._max_v_plus_h

    def max_reduced_bar(self) -> int:
        """Longest bar of the ambient reduced part or of any stored block,
        checked and built at construction from the barcodes the
        ``columns`` records hold."""
        return self._max_reduced_bar

    def columns(self) -> dict[int, Column]:
        """The record (block, v, h, dim, top, bars) of every k in (-G, G],
        G = max(genus, 1), the k a cone window reads, and the one way to
        read a block: stored for 0 <= k < genus, with v and h swapped for
        k < 0, else the ambient's reduced part with identity maps (so h is
        not of degree -2 H_G at k = G, where no window reads it).  Then
        ``v_at(k)``, ``h_at(k)``, the block's reduced dimension, highest
        grading (0 when it has none) and barcode.  Built at construction."""
        return self._columns


def torsion_coefficients(m: KnotModel) -> TorsionProfile:
    """Torsion coefficients t_k = V_k + chi(A_red[k]) - chi(B_red), k >= 0.

    The V_k term counts the tower kernel of U^{V_k} (parity 0); the chi
    difference is what the reduced parts contribute.  delta2 is
    2 t_0 + 4 (t_1 + ... + t_{g-1}).
    """
    chi_b = m.ambient.chi_red
    t = tuple(
        m.v_at(k) + euler_z2(m.columns()[k].block.pres) - chi_b
        for k in range(m.genus)
    )
    delta2 = 0
    if t:
        delta2 = 2 * t[0] + 4 * sum(t[1:])
    return TorsionProfile(t=t, delta2=delta2)


def alexander_trivial(m: KnotModel) -> bool:
    """True iff every torsion coefficient vanishes."""
    return all(x == 0 for x in torsion_coefficients(m).t)


def _is_int(x) -> bool:
    """A JSON integer: ``true``/``false`` load as ``bool`` and are not one."""
    return isinstance(x, int) and not isinstance(x, bool)


# an optional sign, digits and an optional /digits: no exponent, point,
# space or underscore, which Fraction would also accept
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(x, what: str) -> Fraction:
    """An exact rational from an int, a Fraction or a string like '-3/4'."""
    if isinstance(x, float):
        raise ModelError(
            "Syntax", f"{what} must be exact (string 'a/b' or int), got float"
        )
    if _is_int(x) or isinstance(x, Fraction):
        return Fraction(x)
    if not isinstance(x, str):
        raise ModelError("Syntax", f"{what}: not an exact grading: {x!r}")
    if _RATIONAL.fullmatch(x) is None:
        raise ModelError(
            "Syntax", f"{what}: {x!r} is not a rational 'a/b' or an integer"
        )
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ModelError("Syntax", f"{what}: zero denominator in {x!r}") from None
    except ValueError as e:
        raise ModelError("Syntax", f"{what}: {e}") from None


def _parse_matrix(rows, n_rows: int, n_cols: int, what: str) -> tuple[int, ...]:
    """Column bitmasks of a row-major ``n_rows`` x ``n_cols`` 0/1 matrix."""
    if rows == [] and 0 in (n_rows, n_cols):
        return (0,) * n_cols
    if (
        not isinstance(rows, list)
        or len(rows) != n_rows
        or any(not isinstance(r, list) or len(r) != n_cols for r in rows)
    ):
        raise ModelError("Syntax", f"{what} must be {n_rows}x{n_cols}")
    cols = [0] * n_cols
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            if not _is_int(entry) or entry not in (0, 1):
                raise ModelError("Syntax", f"{what} entries must be 0 or 1")
            if entry:
                cols[j] |= 1 << i
    return tuple(cols)


def _parse_presentation(
    gens, u_matrix, offset: Fraction, what: str
) -> FiniteUPresentation:
    """The one place a file's rational gradings become ``int`` offsets
    from the tower generator at ``offset``; each declared parity must be
    its offset mod 2."""
    if not isinstance(gens, list):
        raise ModelError("Syntax", f"{what}: generators must be a list")
    gradings = []
    for idx, g in enumerate(gens):
        if not isinstance(g, dict) or "grading" not in g or "parity" not in g:
            raise ModelError(
                "Syntax", f"{what}: generator {idx} needs grading and parity"
            )
        off = parse_rational(g["grading"], f"{what} generator {idx}") - offset
        par = g["parity"]
        if not _is_int(par) or par not in (0, 1):
            raise ModelError(
                "Syntax", f"{what}: generator {idx} parity must be 0 or 1"
            )
        if off.denominator != 1:
            raise ModelError(
                "ParityMismatch",
                f"{what}: generator grading offset {off} is not an integer",
            )
        if off.numerator % 2 != par:
            raise ModelError(
                "ParityMismatch",
                f"{what}: declared parity {par} disagrees with grading offset {off}",
            )
        gradings.append(off.numerator)
    n = len(gradings)
    u_cols = _parse_matrix(u_matrix, n, n, f"{what}.u_matrix")
    try:
        return FiniteUPresentation(tuple(gradings), u_cols)
    except InvalidPresentation as e:
        raise ModelError("NonHomogeneousU", f"{what}: {e}") from None


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
        raise ModelError("MapNotEquivariant", f"{name} does not commute with U")
    for j, _ in degree_violations(cols, dom.gradings, cod.gradings, degree):
        raise ModelError(
            "MapNotEquivariant",
            f"{name} is not homogeneous of degree {degree} at column {j}",
        )


def load_ambient(doc: dict) -> AmbientSummary:
    if not isinstance(doc, dict):
        raise ModelError("Syntax", "ambient must be an object")
    for key in ("name", "d", "b_red", "u_matrix"):
        if key not in doc:
            raise ModelError("Syntax", f"ambient is missing '{key}'")
    d = parse_rational(doc["d"], "ambient.d")
    b_red = _parse_presentation(doc["b_red"], doc["u_matrix"], d, "ambient")
    return AmbientSummary(name=str(doc["name"]), d=d, b_red=b_red)


def _read_json(path: Union[str, Path]) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ModelError("Syntax", f"cannot read {path}: {e}") from e
    try:
        doc = json.loads(text)
    except ValueError as e:
        # a JSONDecodeError, or an integer literal over int's digit limit
        raise ModelError("Syntax", f"{path} is not valid JSON: {e}") from e
    except RecursionError:
        raise ModelError("Syntax", f"{path} is nested too deeply") from None
    if not isinstance(doc, dict):
        raise ModelError("Syntax", f"{path}: top level must be an object")
    return doc


def load_model(source: Union[str, Path, dict]) -> KnotModel:
    """Load and fully validate a knot model from a file path or a dict:
    the document is parsed here, and ``KnotModel`` checks what it holds."""
    doc = source if isinstance(source, dict) else _read_json(source)

    for key in ("name", "ambient", "genus", "V", "a_red"):
        if key not in doc:
            raise ModelError("Syntax", f"model is missing '{key}'")
    name = str(doc["name"])
    ambient = load_ambient(doc["ambient"])

    genus, V = doc["genus"], doc["V"]
    if not _is_int(genus):
        raise ModelError("Syntax", "genus must be a non-negative integer")
    if not isinstance(V, list) or not all(_is_int(v) for v in V):
        raise ModelError("Syntax", f"V must list the {genus + 1} integers V_0..V_g")

    a_red = doc["a_red"]
    if not isinstance(a_red, dict):
        raise ModelError("Syntax", "a_red must map k to blocks")
    parsed: dict[int, ReducedBlock] = {}
    for key, raw in a_red.items():
        try:
            k = int(key)
        except (TypeError, ValueError):
            raise ModelError("Syntax", f"a_red key {key!r} is not an integer") from None
        if key != str(k):
            raise ModelError("Syntax", f"a_red key {key!r} must be written {str(k)!r}")
        if not isinstance(raw, dict):
            raise ModelError("Syntax", f"a_red[{k}] must be an object")
        for fkey in ("generators", "u_matrix", "v_matrix", "h_matrix", "tower_offset"):
            if fkey not in raw:
                raise ModelError("Syntax", f"a_red[{k}] is missing '{fkey}'")
        offset = parse_rational(raw["tower_offset"], f"a_red[{k}].tower_offset")
        pres = _parse_presentation(
            raw["generators"], raw["u_matrix"], offset, f"a_red[{k}]"
        )
        v_cols = _parse_matrix(
            raw["v_matrix"], ambient.b_red.dim, pres.dim, f"a_red[{k}].v_matrix"
        )
        h_cols = _parse_matrix(
            raw["h_matrix"], ambient.b_red.dim, pres.dim, f"a_red[{k}].h_matrix"
        )
        parsed[k] = ReducedBlock(pres, v_cols, h_cols)
    return KnotModel(name, ambient, genus, V, parsed)


def load_model_or_ambient(
    source: Union[str, Path, dict],
) -> tuple[KnotModel | None, AmbientSummary]:
    """Load a knot model, or (None, summary) from an ambient summary.

    A document is read as an ambient summary only when it has an
    'ambient' object and none of the model keys genus, V, a_red; any
    other document must load as a model and reports the model's error.
    """
    doc = source if isinstance(source, dict) else _read_json(source)
    if "ambient" in doc and not doc.keys() & {"genus", "V", "a_red"}:
        return None, load_ambient(doc["ambient"])
    model = load_model(doc)
    return model, model.ambient
