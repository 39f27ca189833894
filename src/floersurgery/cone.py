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
column's A-bottom.  Over any other ambient each reduced generator takes
the next number at its grading, so a vector at a grading is a bitmask
over the generators there, and each column of a map has its bits moved
onto their numbers; the model's maps are homogeneous (its constructor
checks them), so each column lies at one grading.  One ascending pass
eliminates d once per grading, giving the kernel there and the image
one grading down, hence the cokernel, all decomposed into bars.  The
unique kernel bar reaching the ceiling is the tower of the surgered
manifold and its bottom the d-invariant; every other bar is reduced
homology.

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
and each bar's from the tower's, so block (shape, N) has d = d(Y) - 1 +
(N + 4p tower)/4p and, with d(Y) - 1 = c/e in lowest terms, its exact
key is the ints (4pc + e (N + 4p tower), 4pe, bars).  An interner maps
each key to a small int id and one d and tuple of bars, built from the
key as Fractions by ``_read_off``, the one place this module builds
them, only at the key's first appearance: one Tau per distinct bar,
which equal bars share.
It computes the shape once per run of blocks, not once per block.  From
block i - 1 to block i, k(n) = floor((i + p n)/q) rises by one exactly
at the n with i + p n = c q, and such an n exists exactly when i = c q
mod p.  Only -G < c <= G moves what the shape holds: c = 1 - G brings a
column into the window, 1 - G < c < G moves a k inside it, and c = G
makes that column the window's last; a column of c <= -G stays before
the window, and one of c > G already had k >= G.  So the shape changes
only at the cuts i = b q mod p, -G < b <= G, and b = 0 puts block 0
first: at most 2G runs of blocks, each of one shape.
``obstruct.recognise``, and so a cosmetic scan, passes ``surgery`` one
dict of shapes and one interner, so each shape is solved once across all
of its cases and blocks compare on their ids; any surgeries may share both.
``cone_homology`` reads only the model and a shape, so callers may solve
shapes concurrently.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from . import gf2
from .errors import NotCoprime, TooLarge, TruncationTooSmall
from .fmod import FiniteUPresentation, Tau, barcode
from .knotmodel import KnotModel
from .numth import lens_d_numerators, require_slope

# most generators a cone may have: a tower bottom per retained column plus
# every reduced generator (trefoil 2/200001 has 200,003)
MAX_GENERATORS = 250_000


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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
        return _dims(self.red)

    @property
    def dim_red(self) -> int:
        return sum(self.dims)

    @property
    def chi_red(self) -> int:
        even, odd = self.dims
        return even - odd


def _dims(bars) -> tuple[int, int]:
    """Reduced dimensions in even and odd grading, one pass over ``bars``."""
    dims = [0, 0]
    for bar in bars:
        dims[bar.parity] += bar.length
    return dims[0], dims[1]


@dataclass(frozen=True, slots=True)
class SurgeryResult:
    """The slope's block results, block i at position i, their aggregates,
    and each block's id in the interner of ``surgery`` (never compared)."""

    model_name: str
    p: int
    q: int
    results: tuple[ConeResult, ...]
    ids: tuple[int, ...] = field(default=(), compare=False, repr=False)

    @property
    def dims(self) -> tuple[int, int]:
        """The blocks' reduced dimensions in even and odd grading, summed
        in one pass over all of their bars."""
        return _dims(bar for r in self.results for bar in r.red)

    @property
    def total_dim_red(self) -> int:
        return sum(self.dims)

    @property
    def chi_red(self) -> int:
        even, odd = self.dims
        return even - odd

    @property
    def d_sum(self) -> Fraction:
        """The blocks' d summed as numerators over the lcm of their
        denominators: one Fraction, not one per block."""
        ds = [r.d for r in self.results]
        den = lcm(*{d.denominator for d in ds})
        return Fraction(sum(d.numerator * (den // d.denominator) for d in ds), den)


def _shape(model: KnotModel, p: int, q: int, i: int) -> tuple[int, ...]:
    """The window's k-sequence, with the last k written as G; the module
    docstring states the window.  Raises TooLarge, before the window
    is walked, when its tower bottoms alone, one per A-column and one per
    B-column, are more than MAX_GENERATORS."""
    G = max(model.genus, 1)
    n_plus = -((-(G * q - i)) // p)  # ceil((G q - i)/p)
    n_minus = ((1 - G) * q - 1 - i) // p
    columns = n_plus - n_minus
    bottoms = 2 * columns - 1  # one B-column fewer than A-columns
    if bottoms > MAX_GENERATORS:
        raise TooLarge(
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
    """The model's depth floor: the max over |k| < G of V_k + H_k, which
    the model builds with its column records, plus the longest reduced
    bar.  A window's column k counts V_k only when its own B-column is
    retained and H_k only when the next one is, so no window's maps need
    more; at slope 1/2 every |k| < G is an interior column, so some
    window needs all of it."""
    return model.max_v_plus_h() + model.max_reduced_bar()


def build_cone(model: KnotModel, shape: tuple, depth: int) -> ConePresentation:
    """The cone of the shape (``_shape``), its towers cut at the given
    depth (only ``cone_homology``'s certificate chooses it) and its
    reduced generators counted, not laid out: TooLarge when the cone
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
        raise TooLarge(f"cone of {gens} generators, more than {MAX_GENERATORS}")

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


def _presentation(basis: list[tuple[int, int, int]]) -> FiniteUPresentation:
    """The module on ``basis``: triples (g, key, w), ascending in g, where U
    sends the element to those at g - 2 whose keys are bits of w."""
    pos: dict[tuple[int, int], int] = {}
    u_cols = []
    for j, (g, key, w) in enumerate(basis):
        pos[g, key] = j
        u_cols.append(sum(1 << pos[g - 2, b] for b in gf2.bits(w) if (g - 2, b) in pos))
    return FiniteUPresentation(tuple(g for g, _, _ in basis), tuple(u_cols))


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
    last, end = min(born, default=None), len(born)
    right = born.index(last) if born else 0
    left, run, bars = right - 1, a[right], []
    while left >= 0 or right < end:
        if right == end or (left >= 0 and born[left] <= born[right]):
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
    bars = sorted(ker + cok)
    del bars[bisect_left(bars, near[0])]
    tower = near[0][0]
    return tower, tuple((b - tower, n) for b, n in bars)


def _read_off(num: int, den: int, bars) -> tuple[Fraction, tuple[Tau, ...]]:
    """d at the grading num/den and the bars (b, length) above it: bar b
    sits at (num + b den)/den, one Fraction from integers, and its parity,
    its distance from the tower mod 2, is b mod 2.  The bars are sorted,
    so equal bars are adjacent and share one Tau, built at the first."""
    red, last = [], None
    for bar in bars:
        if bar != last:
            b, n = last = bar
            tau = Tau(Fraction(num + b * den, den), n, b % 2)
        red.append(tau)
    return Fraction(num, den), tuple(red)


def _numbered(bottom: int, gradings: tuple[int, ...], count: dict) -> tuple[int, ...]:
    """Each generator's number at its grading g = bottom + offset: the
    next one there, in index order, after the ``count[g]`` already handed
    out, which it advances."""
    numbers = []
    for off in gradings:
        g = bottom + off
        numbers.append(count.get(g, 0))
        count[g] = numbers[-1] + 1
    return tuple(numbers)


def _moved(mask: int, numbers: tuple[int, ...]) -> int:
    """The nonzero mask with bit b moved to bit numbers[b]."""
    if not mask & (mask - 1):  # one bit, as most model columns hold
        return 1 << numbers[mask.bit_length() - 1]
    return sum(1 << numbers[b] for b in gf2.bits(mask))


def _reduced_bars(model: KnotModel, pres: ConePresentation) -> tuple[list, list]:
    """Kernel and cokernel bars (bottom, length) of the reduced summand:
    none without a reduced generator.  Over an L-space ambient the B-row
    has none, so d is zero: the kernel is the A-columns' barcodes from
    the column records, each moved to its column's A-bottom.

    Otherwise one pass lays the summand out and eliminates it.  Each
    generator takes the next number at its grading (``_numbered``),
    column after column in window order and in its module's index order,
    the order its columns are appended at g in, so a vector at g is a
    bitmask over the generators at g, and each column of U, v or h has
    its bits moved onto those numbers (``_moved``).  The model's maps are homogeneous (its constructor
    checks them), so each such column lies at one grading and its moved
    bits number generators there.  d is eliminated once per A-grading g,
    ascending: the nullspace of its columns is the kernel at g, keyed by
    each vector's dependent generator, and leaves the image at g - 1 in
    an echelon.  The cokernel is the B-generators that are no pivot of
    the image, their U-images reduced against the image two gradings down.
    """
    if not pres.reduced:
        return [], []
    columns = model.columns()
    if model.ambient.is_l_space:
        return [
            (a + b, n)
            for a, k in zip(pres.a_grading.values(), pres.shape)
            for b, n in columns[k].bars
        ], []
    amb = model.ambient.b_red
    b_count, b_numbers, b_at = {}, {}, {}
    for m, b in pres.b_grading.items():
        numbers = b_numbers[m] = _numbered(b, amb.gradings, b_count)
        for off, u in zip(amb.gradings, amb.u_cols):
            b_at.setdefault(b + off, []).append(u and _moved(u, numbers))

    # d sends A-column n by v into B-column n and by h into n + 1, where retained
    a_count, a_at, d_at = {}, {}, {}
    for (n, a), k in zip(pres.a_grading.items(), pres.shape):
        block = columns[k].block
        numbers = _numbered(a, block.pres.gradings, a_count)
        for off, u, v, h in zip(
            block.pres.gradings, block.pres.u_cols, block.v_cols, block.h_cols
        ):
            a_at.setdefault(a + off, []).append(u and _moved(u, numbers))
            d = 0
            for m, col in ((n, v), (n + 1, h)):
                if col and m in b_numbers:
                    d |= _moved(col, b_numbers[m])
            d_at.setdefault(a + off, []).append(d)
    del b_numbers, a_count, b_count  # freed before the elimination, the solve's peak

    image, kernel = {}, []
    for g in sorted(a_at):
        image[g - 1] = gf2.Echelon()
        for vec in gf2.nullspace(d_at.pop(g), image[g - 1]):
            kernel.append((g, vec.bit_length() - 1, gf2.mat_vec(a_at[g], vec)))
    empty, cokernel = gf2.Echelon(), []
    for g in sorted(b_at):
        pivots, below = image.get(g, empty).pivots, image.get(g - 2, empty)
        for i, u in enumerate(b_at[g]):
            if i not in pivots:
                cokernel.append((g, i, below.reduce(u)[0]))
    del image, a_at, b_at  # and these before the barcodes
    return barcode(_presentation(kernel)), barcode(_presentation(cokernel))


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
    shapes: dict[tuple[KnotModel, tuple[int, ...]], tuple[int, tuple]] | None = None,
    interner: dict[tuple, tuple[int, Fraction, tuple[Tau, ...]]] | None = None,
) -> SurgeryResult:
    """Full surgery computation: one ConeResult per block index.

    The slope is checked before any block.  Each block shape is solved
    once, by ``cone_homology`` at its lowest block index, and its int
    offsets (tower, ((b, length), ...)) are kept in ``shapes`` under
    (model, shape).  ``_shape`` runs once per run of blocks, at its lowest
    block, at most 2G times per slope, in block order (the module
    docstring), so the solves, their order and the refused block are
    those of one ``_shape`` per block.  An error of either is raised
    again, of its type, as "<model> at <p>/<q> block <i>: <error>", the
    one place a cone error names its block.
    ``interner`` maps each block's exact key to (id, d, red), read off the
    key at its first appearance, the only Fractions a call builds; a key
    is built once per (run, N) in a call.  Blocks share an id in
    ``SurgeryResult.ids`` only when they share d and bars, and over one
    ambient at one p exactly then.

    Both dicts are read and extended, new per call by default, and any
    surgeries may share both.  A shape whose solve raises is never
    stored, so shared dicts change no result and no error.
    """
    SurgerySpec(p, q)  # the slope's errors, before any block
    shapes = {} if shapes is None else shapes
    interner = {} if interner is None else interner
    table = lens_d_numerators(p, q)  # refused above MAX_TABLE_P first
    # the runs of blocks between the cuts b q mod p, -G < b <= G, block 0 first
    G = max(model.genus, 1)
    cuts = sorted({b * q % p for b in range(1 - G, G + 1)} | {p})
    # d(Y) - 1 + (N + 4p tower)/4p = (num + scale tower + den N)/scale
    a, den = model.ambient.d.as_integer_ratio()
    scale, num = 4 * p * den, 4 * p * (a - den)
    results, ids = [], []
    for low, high in zip(cuts, cuts[1:]):
        try:
            shape = _shape(model, p, q, low)
            if (model, shape) not in shapes:
                shapes[model, shape] = cone_homology(model, shape)
        except (TooLarge, TruncationTooSmall) as e:
            raise type(e)(f"{model.name} at {p}/{q} block {low}: {e}") from e
        tower, bars = shapes[model, shape]
        base, by_lens = num + scale * tower, {}
        for i in range(low, high):
            lens = table[i]
            block = by_lens.get(lens)
            if block is None:
                key = (base + den * lens, scale, bars)
                block = interner.get(key)
                if block is None:
                    block = interner[key] = (len(interner), *_read_off(*key))
                by_lens[lens] = block
            ids.append(block[0])
            results.append(ConeResult(i, block[1], block[2]))
    return SurgeryResult(model.name, p, q, tuple(results), tuple(ids))
