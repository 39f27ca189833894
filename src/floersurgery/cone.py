"""Truncated mapping cone for p/q surgery and its homology.

For coprime p, q > 0 and a block index 0 <= i < p the surgery complex is
a two-row complex: a row of hook modules A_{k(n)} with
k(n) = floor((i + p n)/q), mapped to a row of ambient modules B by a
vertical map from column n to column n (U^{V_k} on towers, the stored
reduced matrix on reduced parts) and a diagonal map from n to n + 1
(U^{H_k}, the other stored matrix).  Outside a finite window the map is
an isomorphism column by column, so the window carries the full
homology.  With G = max(genus, 1) its A-columns run from the first n
with k(n) > -G to the first n with k(n) >= G, and its B-columns are the
same less the first.  The block's shape (``_shape``) is that window's
k-sequence, with the last k, always >= G, written as G: there V_k = 0,
the block is the identity for every k >= G and the H-target is not
retained, so nothing reads that k.  Column 0 is the first column with
k >= 0 and the window always holds it, so the shape alone places the
window: its first column is minus the number of negative k.

Each block is relatively Z-graded: inside the cone every grading is an
``int`` offset from the generator of the B-tower in column 0, propagated
along columns by b_{n+1} - b_n = 2 k(n); model presentations already
hold ``int`` offsets from their own towers.  That generator sits at the
block's anchor d(Y) - 1 + d(L(p,q), i), which the cone never reads:
``cone_homology`` returns int offsets, and ``surgery`` places them at the
anchor.  Towers are cut at a common grading ceiling.

The cone is the direct sum of its towers and its reduced part: tower
entries of d hit only B-towers, reduced columns only reduced generators,
and U never mixes the two.  ``build_cone`` walks the shape once, reading
one column record (``KnotModel.columns``) per run of equal k, for the
tower bottoms and the ceiling.  A tower is its bottom plus the ceiling;
its summand has kernel bars only, by 0-dimensional persistence of the
window's path graph (A-columns are vertices, B-columns edges joining
their neighbours).  k(n) is nondecreasing, so the B-bottoms fall and
then rise along the window: the edges alive at any grading are one
interval around the lowest, and a sweep outward from it is exact.  The
reduced summand has no depth and is solved once per shape
(``_reduced_bars``).  Over an L-space ambient, such as S^3, the B-row
has no reduced generator, so d is zero on the summand: its homology is
the A-columns' barcodes from the column records, each moved to its
column's A-bottom.  Over any other ambient ``_reduced_summand`` lays the
summand out grading by grading from the model's maps, which its
constructor checked to be U-equivariant and homogeneous, and one
ascending pass eliminates d once per grading, giving the kernel there
and the image one grading down, hence the cokernel, both decomposed into
bars.  The unique kernel bar reaching the ceiling is the tower of the
surgered manifold and its bottom the d-invariant; every other bar is
reduced homology.

A cone's size is one tower bottom per retained A- and B-column plus every
reduced generator, bounded by MAX_GENERATORS (``_shape`` checks the
bottoms before walking the window, ``build_cone`` the whole count).  How
high the towers reach, the truncation depth, is one value per model
(``_depth_floor``) and costs nothing: it lives only in the certificate
of ``cone_homology``, which cuts the towers at ``default_depth`` and two
levels deeper, reads each with the solve's reduced bars, and raises
TruncationTooSmall unless both give the same int offsets.  No
presentation, result or message carries it.

The shape fixes a block's cone up to a grading shift and depends on
neither p nor q: a block of the shape is that complex at its own anchor,
d(Y) - 1 + N/4p, N its entry of the integer lens table N = 4p d(L(p,q), .)
that ``surgery`` reads once per call.  ``surgery`` solves each shape once
and keeps ``cone_homology``'s offsets, the tower's bottom from the anchor
and each bar's from the tower's, so block (shape, N) has
d(Y) - 1 + (N + 4p tower)/4p for d and its exact key is the ints
(N + 4p tower, 4p, bars).  An interner maps each key to a small int id
and one d and tuple of bars, built as Fractions by ``_read_off``, the one
place this module builds them, only at the key's first appearance.
It computes the shape once per interval of blocks, not once per block.
With t = (i + (G - 1) q) mod p, the first A-column of block i has
i + p n = (1 - G) q + t, column j has k = 1 - G + floor((t + j p)/q),
and the window ends at the first j with t + j p >= (2G - 1) q.  So the
shape changes with t only where t + j p = a q, 1 <= a <= 2G - 1, that is
at the cuts t = a q mod p: at most 2G intervals of t, each of one shape.
A cosmetic scan at one model and one p passes ``surgery`` one dict of
shapes and one interner, so each shape is solved once across all of its
q and blocks compare on their ids; surgeries at several p may share both.
``cone_homology`` reads only the model and a shape, so callers may solve
shapes concurrently.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from . import gf2
from .errors import ConeTooLarge, NotCoprime, TruncationTooSmall
from .fmod import FiniteUPresentation, Tau, barcode
from .knotmodel import KnotModel
from .numth import lens_d_numerators, require_slope

# most generators a cone may have: a tower bottom per retained column plus
# every reduced generator (trefoil 2/200001 has 200,003)
MAX_GENERATORS = 250_000


@dataclass(frozen=True)
class SurgerySpec:
    """Coprime positive surgery coefficients and a block index 0 <= i < p."""

    p: int
    q: int
    i: int = 0

    def __post_init__(self) -> None:
        require_slope(self.p, self.q)
        if self.q < 1:
            raise NotCoprime(f"need q >= 1, got {self.p}/{self.q}")
        if not 0 <= self.i < self.p:
            raise ValueError(f"block index {self.i} outside 0..{self.p - 1}")


@dataclass(frozen=True)
class ConePresentation:
    """The towers of a finite cone, by their bottoms and the ceiling.

    ``shape`` is the window's k-sequence (``_shape``); ``a_grading`` and
    ``b_grading`` are keyed by the retained A- and B-columns, ascending.
    ``ceiling`` and the tower bottoms are ``int`` offsets from the B-tower
    generator in column 0, at the block's anchor d(Y) - 1 + d(L(p,q), i).
    The A-tower of column n runs from ``a_grading[n]`` up to the ceiling
    in steps of 2, the B-tower from ``b_grading[n]`` up to one below it.
    ``reduced`` counts the reduced generators of both rows.
    """

    shape: tuple[int, ...]
    ceiling: int
    a_grading: dict[int, int]
    b_grading: dict[int, int]
    reduced: int

    @property
    def dom_gradings(self) -> tuple[int, ...]:
        """Grading of every A-tower generator up to the ceiling, ascending."""
        return _gradings(self.a_grading, self.ceiling)

    @property
    def cod_gradings(self) -> tuple[int, ...]:
        """Grading of every B-tower generator up to the ceiling, ascending."""
        return _gradings(self.b_grading, self.ceiling - 1)


def _gradings(bottom: dict[int, int], top: int) -> tuple[int, ...]:
    return tuple(sorted(g for b in bottom.values() for g in range(b, top + 1, 2)))


class RowComplex(NamedTuple):
    """A two-row complex laid out grading by grading: ``d_cols[g]`` holds
    the columns of the A-generators at g over the B-generators at g - 1;
    ``u_dom[g]`` and ``u_cod[g]`` the U-columns over the same row at
    g - 2.  Gradings without generators have no entry."""

    d_cols: dict[int, tuple[int, ...]]
    u_dom: dict[int, tuple[int, ...]]
    u_cod: dict[int, tuple[int, ...]]


@dataclass(frozen=True)
class ConeResult:
    """Homology of one block: d-invariant, reduced bars, graded dimensions.
    The slope is on ``SurgeryResult`` and the library reads the block index
    from its position there; ``i`` stays while perfbench's SlopeScan.check
    reads it (ROADMAP item 1)."""

    i: int
    d: Fraction
    red: tuple[Tau, ...]

    @property
    def dims(self) -> tuple[int, int]:
        even = sum(b.length for b in self.red if b.parity == 0)
        odd = sum(b.length for b in self.red if b.parity == 1)
        return even, odd

    @property
    def dim_red(self) -> int:
        return sum(b.length for b in self.red)

    @property
    def chi_red(self) -> int:
        even, odd = self.dims
        return even - odd


@dataclass(frozen=True)
class SurgeryResult:
    """The slope's block results, block i at position i, their aggregates,
    and each block's id in the interner of ``surgery`` (never compared)."""

    model_name: str
    p: int
    q: int
    results: tuple[ConeResult, ...]
    ids: tuple[int, ...] = field(default=(), compare=False, repr=False)

    @property
    def total_dim_red(self) -> int:
        return sum(r.dim_red for r in self.results)

    @property
    def chi_red(self) -> int:
        return sum(r.chi_red for r in self.results)

    @property
    def d_sum(self) -> Fraction:
        return sum(r.d for r in self.results)


def _shape(model: KnotModel, p: int, q: int, i: int) -> tuple[int, ...]:
    """The window's k-sequence, with the last k written as G; the module
    docstring states the window.  Raises ConeTooLarge, before the window
    is walked, when its tower bottoms alone, one per A-column and one per
    B-column, are more than MAX_GENERATORS."""
    G = max(model.genus, 1)
    n_plus = -((-(G * q - i)) // p)  # ceil((G q - i)/p)
    n_minus = ((1 - G) * q - 1 - i) // p
    columns = n_plus - n_minus
    bottoms = 2 * columns - 1  # one B-column fewer than A-columns
    if bottoms > MAX_GENERATORS:
        raise ConeTooLarge(
            f"window of {columns} A-columns: {bottoms} tower bottoms, "
            f"more than {MAX_GENERATORS} generators"
        )
    return (*[(i + p * n) // q for n in range(n_minus + 1, n_plus)], G)


def default_depth(model: KnotModel, block) -> int:
    """Stability-safe truncation depth: twice the model's depth floor
    (``_depth_floor``) plus 4, one value for every block of every slope.
    ``block`` is not read; it stays while ``floersurgery.default_depth``
    is public and perfbench's tests pass a spec (ROADMAP item 2).

    The one depth rule: build_cone refuses depths below floor + 2.
    """
    return 2 * _depth_floor(model) + 4


def _depth_floor(model: KnotModel) -> int:
    """The model's depth floor: the max over |k| < G of V_k + H_k plus the
    longest reduced bar, from the column records.  V_{-k} + H_{-k} =
    V_k + H_k, so 0 <= k < G suffice.  A window's column k counts V_k only
    when its own B-column is retained and H_k only when the next one is,
    so no window's maps need more; at slope 1/2 every |k| < G is an
    interior column, so some window needs all of it."""
    columns = model.columns()
    vh = max(columns[k].v + columns[k].h for k in range(max(model.genus, 1)))
    return vh + model.max_reduced_bar()


class _Row:
    """The reduced generators of one row, laid out grading by grading.

    Column n has reduced generators c at bottom[n] + reduced[n].gradings[c]:
    ``at[g]`` = [(n, c), ...] lists those at g (gradings ascending),
    ``place[n, c]`` is the local index at g, and ``u[g]`` holds the
    U-columns.  Every model map is homogeneous (``KnotModel`` checks them
    at construction), so an image lies at one grading.
    """

    def __init__(
        self, bottom: dict[int, int], reduced: dict[int, FiniteUPresentation]
    ):
        at: dict[int, list[tuple[int, int]]] = {}
        for n, pres in reduced.items():
            for c, off in enumerate(pres.gradings):
                at.setdefault(bottom[n] + off, []).append((n, c))
        self.at = dict(sorted(at.items()))
        self.place = {
            key: idx for keys in self.at.values() for idx, key in enumerate(keys)
        }
        self.u = {
            g: tuple(self.image(reduced[n].u_cols[c], n) for n, c in keys)
            for g, keys in self.at.items()
        }

    def image(self, mask: int, n: int) -> int:
        """The reduced generators c of column n set in mask, as a bitmask
        over the generators at their grading."""
        out = 0
        for c in gf2.bits(mask):
            out |= 1 << self.place[n, c]
        return out


def build_cone(model: KnotModel, shape: tuple, depth: int) -> ConePresentation:
    """The cone of the shape (``_shape``), its towers cut at the given
    depth (only ``cone_homology``'s certificate chooses it) and its
    reduced generators counted, not laid out: ConeTooLarge when the cone
    has more than MAX_GENERATORS.  The walk reads one ``model.columns()``
    record per run of equal k."""
    if depth < _depth_floor(model) + 2:
        raise TruncationTooSmall("towers cut below the safe minimum")
    negative = bisect_left(shape, 0)  # the shape is nondecreasing
    amb = model.ambient.b_red

    # b(n + 1) = b(n) + 2 k(n) from b(0) = 0, one column record read per
    # run of k; a column with reduced generators adds its highest to ``tops``
    columns = model.columns()
    a_grading, b_grading, tops = {}, {}, []
    a_red, b, run = 0, -2 * sum(shape[:negative]), None
    for n, k in enumerate(shape, -negative):
        if k != run:
            run, column = k, columns[k]
            v, dim, top = column.v, column.dim, column.top
        a = b + 1 - 2 * v
        a_grading[n], b_grading[n] = a, b
        if dim:
            tops.append(a + top)
            a_red += dim
        b += 2 * k
    del b_grading[-negative]  # the first B-column is not retained
    reduced = a_red + len(b_grading) * amb.dim
    gens = len(a_grading) + len(b_grading) + reduced
    if gens > MAX_GENERATORS:
        raise ConeTooLarge(f"cone of {gens} generators, more than {MAX_GENERATORS}")

    # common ceiling, where all A-towers top out: the highest A-bottom or
    # reduced generator rounded up to odd (every A-bottom is), plus 2 depth
    b_top = max(b_grading.values(), default=None)
    if amb.dim and b_grading:
        tops.append(b_top + max(amb.gradings))
    ceiling = (max([*a_grading.values(), *tops]) | 1) + 2 * depth

    if b_top is not None and b_top > ceiling - 1:
        n = next(n for n, b in b_grading.items() if b > ceiling - 1)
        raise TruncationTooSmall(f"empty target tower in column {n}")
    return ConePresentation(shape, ceiling, a_grading, b_grading, reduced)


def _reduced_summand(model: KnotModel, pres: ConePresentation) -> RowComplex:
    """The reduced summand at the bottoms of ``pres``, laid out grading by
    grading.  Over an L-space ambient the B-row is empty."""
    columns, b_grading = model.columns(), pres.b_grading
    blocks = {n: columns[k].block for n, k in zip(pres.a_grading, pres.shape)}
    dom = _Row(pres.a_grading, {n: blk.pres for n, blk in blocks.items()})
    cod = _Row(b_grading, dict.fromkeys(b_grading, model.ambient.b_red))

    # reduced A-column n maps to B-column n by v_cols and to B-column
    # n + 1 by h_cols; columns outside the window are not retained
    d_cols = {}
    for g, keys in dom.at.items():
        cols = []
        for n, c in keys:
            col = 0
            for m, red_cols in ((n, blocks[n].v_cols), (n + 1, blocks[n].h_cols)):
                if m in b_grading:
                    col ^= cod.image(red_cols[c], m)
            cols.append(col)
        d_cols[g] = tuple(cols)
    return RowComplex(d_cols, dom.u, cod.u)


def _presentation(basis: list[tuple[int, int, int]]) -> FiniteUPresentation:
    """The module on ``basis``: triples (g, key, w), ascending in g, where U
    sends the element to those at g - 2 whose keys are bits of w."""
    pos: dict[tuple[int, int], int] = {}
    u_cols = []
    for j, (g, key, w) in enumerate(basis):
        pos[g, key] = j
        u_cols.append(sum(1 << pos[g - 2, b] for b in gf2.bits(w) if (g - 2, b) in pos))
    return FiniteUPresentation(tuple(g for g, _, _ in basis), tuple(u_cols))


def _kernel_and_cokernel(pres: RowComplex) -> tuple[FiniteUPresentation, ...]:
    """ker d and coker d with their U-actions, eliminating each d_cols[g] once.

    The nullspace of d_cols[g] is the kernel at g and leaves the image at
    g - 1 in an echelon.  Kernel vectors lead with their dependent column
    and are otherwise independent columns, so a kernel element's
    coordinates are its bits on the dependent columns.  The cokernel at g
    is represented on the non-pivot coordinates of the image at g, where
    reducing against the image puts U-images from g + 2.
    """
    image = {g - 1: gf2.Echelon() for g in pres.d_cols}
    kernel = []
    for g, cols in pres.d_cols.items():
        for vec in gf2.nullspace(list(cols), image[g - 1]):
            w = gf2.mat_vec(pres.u_dom[g], vec)
            kernel.append((g, vec.bit_length() - 1, w))
    empty = gf2.Echelon()
    cokernel = [
        (g, i, image.get(g - 2, empty).reduce(w)[0])
        for g, u in pres.u_cod.items()
        for i, w in enumerate(u)
        if i not in image.get(g, empty).pivots
    ]
    return _presentation(kernel), _presentation(cokernel)


def _tower_bars(pres: ConePresentation) -> list[tuple[int, int]]:
    """Kernel bars (bottom, length) of the tower summand, by persistence.

    The towers form a path graph filtered by grading: A-column n is a
    vertex born at a_grading[n], B-column m an edge joining m - 1 and m
    born at b_grading[m] + 1, where both tower maps into B_m switch on.
    The kernel at g is spanned by the runs of vertices joined by the edges
    alive at g, and the tower map is onto, so the summand has no cokernel.
    k(n) is nondecreasing, so the B-bottoms fall, then rise, and the edges
    alive at g are one interval around the lowest edge, grown by the lower
    frontier edge (AssertionError at a birth below the last).  Each joins
    a vertex to the run; the higher bottom of the two ends in a bar up to
    two below the edge (elder rule), and the run reaches the ceiling.
    """
    a = list(pres.a_grading.values())  # edge j joins vertices j and j + 1
    born = [b + 1 for b in pres.b_grading.values()]
    last = min(born, default=None)
    right = born.index(last) if born else 0
    left, run, bars = right - 1, a[right], []
    while left >= 0 or right < len(born):
        if right == len(born) or (left >= 0 and born[left] <= born[right]):
            birth, low, left = born[left], a[left], left - 1
        else:
            birth, low, right = born[right], a[right + 1], right + 1
        if birth < last:
            raise AssertionError("B-tower bottoms not unimodal along the window")
        last = birth
        if low < run:
            low, run = run, low
        if birth > low:
            bars.append((low, (birth - low) // 2))
    return bars + [(run, (pres.ceiling - run) // 2 + 1)]


def _offsets(pres: ConePresentation, ker: list, cok: list) -> tuple:
    """Int offsets from the kernel bars (bottom, length) of ``pres``, its
    tower bars included, and its cokernel bars: the bottom of the one
    kernel bar whose top reaches ceiling - 2 (the tower), from the B-tower
    generator in column 0, and the other bars as (b, length), b from the
    tower, sorted."""
    ceiling = pres.ceiling
    if any(b + 2 * n >= ceiling for b, n in cok):
        raise TruncationTooSmall("cokernel reaches the ceiling")
    near = [bar for bar in ker if bar[0] + 2 * bar[1] >= ceiling]
    if len(near) != 1:
        raise TruncationTooSmall(
            f"{len(near)} chains reach the ceiling; expected exactly one tower"
        )
    tower = near[0][0]
    bars = sorted(bar for bar in ker + cok if bar is not near[0])
    return tower, tuple((b - tower, n) for b, n in bars)


def _read_off(num: int, den: int, bars) -> tuple[Fraction, tuple[Tau, ...]]:
    """d at the grading num/den and the bars (b, length) above it: bar b
    sits at (num + b den)/den, one Fraction from integers, and its parity,
    its distance from the tower mod 2, is b mod 2."""
    red = tuple(Tau(Fraction(num + b * den, den), n, b % 2) for b, n in bars)
    return Fraction(num, den), red


def _reduced_bars(model: KnotModel, pres: ConePresentation) -> tuple[list, list]:
    """Kernel and cokernel bars (bottom, length) of the reduced summand:
    none without a reduced generator.  Over an L-space ambient the B-row
    has no reduced generator, so d is zero there: the kernel is the
    A-columns' barcodes from the model's column records, each moved to its
    column's A-bottom, and there is no cokernel.  Otherwise the summand is
    laid out (``_reduced_summand``) and d eliminated
    (``_kernel_and_cokernel``), once each."""
    if not pres.reduced:
        return [], []
    if not model.ambient.is_l_space:
        kernel, cokernel = _kernel_and_cokernel(_reduced_summand(model, pres))
        return barcode(kernel), barcode(cokernel)
    columns = model.columns()
    return [
        (a + b, n)
        for a, k in zip(pres.a_grading.values(), pres.shape)
        for b, n in columns[k].bars
    ], []


def cone_homology(model: KnotModel, shape: tuple) -> tuple[int, tuple]:
    """Homology of the shape's truncated cone as int offsets (tower,
    ((b, length), ...)), certified stable in the depth: the d-invariant's
    offset from a block's anchor d(Y) - 1 + d(L(p,q), i) and each reduced
    bar's bottom b from the d-invariant, parity b mod 2, sorted.  Every
    block of the shape has them; ``surgery(...).results[i]`` reads them off.

    The certificate is the one place a depth is chosen: the towers are
    built cut at N = ``default_depth`` and at N + 2, and each pass is read
    to ``_offsets``; any disagreement raises TruncationTooSmall.  The
    reduced summand has no depth, so its bars are solved once
    (``_reduced_bars``), at the depth-N pass's bottoms, and read at both
    depths.  The towers (``_tower_bars``) and the ceiling checks of
    ``build_cone`` and ``_offsets`` run at both depths.
    """
    n = default_depth(model, shape)
    pres = build_cone(model, shape, n)
    ker, cok = _reduced_bars(model, pres)
    offsets = _offsets(pres, _tower_bars(pres) + ker, cok)
    deeper = build_cone(model, shape, n + 2)
    if _offsets(deeper, _tower_bars(deeper) + ker, cok) != offsets:
        raise TruncationTooSmall(
            "results change when the towers are cut two levels higher"
        )
    return offsets


def surgery(
    model: KnotModel,
    p: int,
    q: int,
    *,
    shapes: dict[tuple[int, ...], tuple[int, tuple]] | None = None,
    interner: dict[tuple, tuple[int, Fraction, tuple[Tau, ...]]] | None = None,
) -> SurgeryResult:
    """Full surgery computation: one ConeResult per block index.

    The slope is checked before any block.  Each block shape is solved
    once, by ``cone_homology`` at its lowest block index, and its int
    offsets (tower, ((b, length), ...)) are kept in ``shapes``.  ``_shape``
    runs once per interval of blocks, at most 2G times per slope, in block
    order (the module docstring), so the solves, their order and the
    refused block are those of one ``_shape`` per block.  An error of
    either is raised again, of its type, as "<model> at <p>/<q> block <i>:
    <error>", the one place a cone error names its block.  ``interner``
    maps each block's exact key (N + 4p tower, 4p, bars) to (id, d, red),
    read off at the key's first appearance, the only Fractions a call
    builds; a key is built once per (interval, N) in a call.  Blocks at
    one p share an id in ``SurgeryResult.ids`` exactly when they share d
    and bars; blocks at different p never do.

    Both dicts are read and extended, new per call by default.  Surgeries
    of one model may share them, whatever their p and q.  A shape whose
    solve raises is never stored, so shared dicts change no result and no
    error.
    """
    SurgerySpec(p, q)  # the slope's errors, before any block
    shapes = {} if shapes is None else shapes
    interner = {} if interner is None else interner
    table = lens_d_numerators(p, q)  # refused above MAX_TABLE_P first
    # the interval of t = (i + (G - 1) q) mod p between the cuts, per block
    G = max(model.genus, 1)
    cuts = sorted({a * q % p for a in range(1, 2 * G)} | {p})
    by_t: list[int] = []
    for j, (low, high) in enumerate(zip([0, *cuts], cuts)):
        by_t += [j] * (high - low)
    start = (G - 1) * q % p
    # offset o of block i is at d(Y) - 1 + T/4p = (num + den T)/4p den, T = N + 4p o
    scale, ambient = 4 * p, model.ambient.d
    num, den = (ambient.numerator - ambient.denominator) * scale, ambient.denominator
    entries: list = [None] * len(cuts)  # per interval: 4p tower, bars, {N: block}
    results, ids = [], []
    for i, (lens, j) in enumerate(zip(table, by_t[start:] + by_t[:start])):
        entry = entries[j]
        if entry is None:
            try:
                shape = _shape(model, p, q, i)
                if shape not in shapes:
                    shapes[shape] = cone_homology(model, shape)
            except (ConeTooLarge, TruncationTooSmall) as e:
                raise type(e)(f"{model.name} at {p}/{q} block {i}: {e}") from e
            tower, bars = shapes[shape]
            entry = entries[j] = (scale * tower, bars, {})
        offset, bars, by_lens = entry
        block = by_lens.get(lens)
        if block is None:
            key = (lens + offset, scale, bars)
            block = interner.get(key)
            if block is None:
                d, red = _read_off(num + den * key[0], den * scale, bars)
                block = interner[key] = (len(interner), d, red)
            by_lens[lens] = block
        ids.append(block[0])
        results.append(ConeResult(i, block[1], block[2]))
    return SurgeryResult(model.name, p, q, tuple(results), tuple(ids))
