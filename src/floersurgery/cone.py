"""Truncated mapping cone for p/q surgery and its homology.

For coprime p, q > 0 and a block index 0 <= i < p the surgery complex is
a finite two-row complex: a row of hook modules A_{k(n)} with
k(n) = floor((i + p n)/q), mapped to a row of ambient modules B by a
vertical map (U^{V_k} on towers, the stored reduced matrix on reduced
parts) and a diagonal map (U^{H_k}, the other stored matrix).  Outside a
finite window the map is an isomorphism column by column, so the window

    A-columns  n_minus+1 .. n_plus,   B-columns  n_minus+2 .. n_plus

with n_plus = min{n : k(n) >= G}, n_minus = max{n : k(n) <= -G} and
G = max(genus, 1) carries the full homology.

Each block is relatively Z-graded, so one rational anchor fixes every
absolute grading in it: the generator of the B-tower in column 0, at
d(Y) + d(L(p,q), i) - 1.  Inside the cone every grading is an ``int``
offset from that anchor, propagated along columns by
b_{n+1} - b_n = 2 k(n); model gradings enter through one conversion that
rejects anything off the integer line, and ``Fraction`` comes back only
when the result is read off.  Towers are cut at a common grading ceiling.

The cone is stored grading by grading (d has degree -1, U degree -2):
local bitmask columns over the generators one or two gradings down, the
towers first, numbered by bottom, so the towers present at a grading are
a prefix of that order.  Reduced model maps are checked against their
target grading as they are placed.  One ascending pass eliminates each
grading's d once; that gives the kernel there and the image one grading
down, hence the cokernel, and both are decomposed into bars.  The
unique kernel bar reaching the ceiling is the tower of the surgered
manifold and its bottom is the d-invariant; every other bar is reduced
homology.  Results are recomputed two levels deeper and must agree,
otherwise TruncationTooSmall is raised.

Each block index i is computed independently from immutable inputs, so
callers may evaluate different i concurrently.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import gf2
from .errors import NotCoprime, TruncationTooSmall, V0NonZero
from .fmod import FiniteUPresentation, Tau, barcode
from .knotmodel import KnotModel
from .numth import lens_d_at


@dataclass(frozen=True)
class SurgerySpec:
    """Coprime positive surgery coefficients and a block index 0 <= i < p."""

    p: int
    q: int
    i: int = 0

    def __post_init__(self) -> None:
        if self.p < 1 or self.q < 1:
            raise NotCoprime(f"need p, q >= 1, got {self.p}/{self.q}")
        if gcd(self.p, self.q) != 1:
            raise NotCoprime(f"gcd({self.p}, {self.q}) != 1")
        if not 0 <= self.i < self.p:
            raise ValueError(f"block index {self.i} outside 0..{self.p - 1}")


@dataclass(frozen=True)
class ConeWindow:
    """Retained columns: A-columns n_min..n_max, B-columns b_min..b_max."""

    G: int
    n_min: int
    n_max: int
    b_min: int
    b_max: int

    @property
    def a_columns(self) -> range:
        return range(self.n_min, self.n_max + 1)

    @property
    def b_columns(self) -> range:
        return range(self.b_min, self.b_max + 1)


@dataclass(frozen=True)
class ConePresentation:
    """Assembled finite cone, stored grading by grading.

    ``anchor`` is the absolute grading of the B-tower generator in column
    0; ``ceiling``, the column gradings and the grading keys (ascending)
    are ``int`` offsets from it.  ``d_cols[g]`` holds the columns of the
    A-generators at g over the B-generators at g - 1; ``u_dom[g]`` and
    ``u_cod[g]`` the U-columns over the same row at g - 2.  At each grading
    the towers come first, sorted by bottom (``a_grading``/``b_grading``);
    as all end at the ceiling (one below it for B), the towers present at g
    are a prefix of that order and keep their index at every grading.
    """

    spec: SurgerySpec
    window: ConeWindow
    depth: int
    anchor: Fraction
    ceiling: int
    k_of: dict[int, int]
    a_grading: dict[int, int]
    b_grading: dict[int, int]
    d_cols: dict[int, tuple[int, ...]]
    u_dom: dict[int, tuple[int, ...]]
    u_cod: dict[int, tuple[int, ...]]

    @property
    def dom_gradings(self) -> tuple[int, ...]:
        """Grading of every A-generator, one entry per generator."""
        return tuple(g for g, cols in self.u_dom.items() for _ in cols)

    @property
    def cod_gradings(self) -> tuple[int, ...]:
        """Grading of every B-generator, one entry per generator."""
        return tuple(g for g, cols in self.u_cod.items() for _ in cols)


@dataclass(frozen=True)
class ConeResult:
    """Homology of one block: d-invariant, reduced bars, graded dimensions."""

    p: int
    q: int
    i: int
    d: Fraction
    red: tuple[Tau, ...]
    depth: int

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

    def same_homology(self, other: "ConeResult") -> bool:
        return self.d == other.d and self.red == other.red


@dataclass(frozen=True)
class SurgeryResult:
    """Per-block results for all i together with their aggregates."""

    model_name: str
    p: int
    q: int
    results: tuple[ConeResult, ...]

    @property
    def total_dim_red(self) -> int:
        return sum(r.dim_red for r in self.results)

    @property
    def chi_red(self) -> int:
        return sum(r.chi_red for r in self.results)

    @property
    def d_sum(self) -> Fraction:
        return sum((r.d for r in self.results), Fraction(0))

    @property
    def d_table(self) -> tuple[Fraction, ...]:
        return tuple(r.d for r in self.results)


def _window(model: KnotModel, spec: SurgerySpec) -> ConeWindow:
    p, q, i = spec.p, spec.q, spec.i
    G = max(model.genus, 1)
    n_plus = -((-(G * q - i)) // p)  # ceil((G q - i)/p)
    n_minus = ((1 - G) * q - 1 - i) // p
    return ConeWindow(
        G=G, n_min=n_minus + 1, n_max=n_plus, b_min=n_minus + 2, b_max=n_plus
    )


def _k_of(spec: SurgerySpec, n: int) -> int:
    return (spec.i + spec.p * n) // spec.q


def _depth_floor(model: KnotModel, spec: SurgerySpec) -> int:
    """max(V_k + H_k) over the window's A-columns plus the longest reduced bar.

    The one depth rule: build_cone refuses depths below floor + 2, and
    default_depth is 2 floor + 4.
    """
    win = _window(model, spec)
    ks = [_k_of(spec, n) for n in win.a_columns]
    max_vh = max((model.v_at(k) + model.h_at(k) for k in ks), default=0)
    return max_vh + model.max_reduced_bar()


def default_depth(model: KnotModel, spec: SurgerySpec) -> int:
    """Stability-safe truncation depth for this model and slope."""
    return 2 * _depth_floor(model, spec) + 4


def _offset(g: Fraction) -> int:
    """A tower-relative model grading as a cone offset; it must be integral."""
    if g.denominator != 1:
        raise AssertionError("cone gradings off the ceiling's grading line")
    return g.numerator


def _towers(bottoms: list[int], top: int, g: int) -> int:
    """How many towers with these sorted bottoms, all topping out at
    ``top`` in steps of 2, have a generator at grading g."""
    return bisect_right(bottoms, g) if (top - g) % 2 == 0 else 0


class _Row:
    """One row of the cone laid out grading by grading.

    Column n has a tower from bottom[n] up to top in steps of 2 and
    reduced generators c at bottom[n] + offsets[c], where reduced[n] =
    (offsets, U-columns).  At grading g the first ``towers[g]`` columns of
    ``order`` (sorted by bottom, tower number ``index[n]``) have their
    tower present; the reduced generators ``at[g]`` = [(n, c), ...]
    follow, ``place[n, c]`` = (g, local index), and ``u[g]`` holds the
    U-columns.
    """

    def __init__(self, bottom: dict[int, int], top: int, reduced: dict):
        self.order = sorted(bottom, key=bottom.__getitem__)
        self.index = {n: t for t, n in enumerate(self.order)}
        bottoms = [bottom[n] for n in self.order]
        self.towers = {
            g: _towers(bottoms, top, g)
            for g in range(min(bottoms, default=top + 1), top + 1, 2)
        }
        self.at: dict[int, list[tuple[int, int]]] = {}
        for n, (offsets, _) in reduced.items():
            for c, off in enumerate(offsets):
                self.at.setdefault(bottom[n] + off, []).append((n, c))
        self.gradings = sorted(self.towers.keys() | self.at.keys())
        self.place = {
            key: (g, idx)
            for g in self.gradings
            for idx, key in enumerate(self.at.get(g, ()), self.towers.get(g, 0))
        }
        self.u = {}
        for g in self.gradings:
            # U keeps a tower's number; the towers at g - 2 are a prefix
            below = self.towers.get(g - 2, 0)
            cols = [1 << t if t < below else 0 for t in range(self.towers.get(g, 0))]
            for n, c in self.at.get(g, ()):
                u = reduced[n][1][c]
                cols.append(self.image(u, n, g - 2, "U not of degree -2 in the cone"))
            self.u[g] = tuple(cols)

    def image(self, mask: int, n: int, g: int, error: str) -> int:
        """The reduced generators c of column n set in mask, as a bitmask
        over the generators at grading g; each must sit at g."""
        out = 0
        for c in gf2.bits(mask):
            h, idx = self.place[n, c]
            if h != g:
                raise AssertionError(error)
            out |= 1 << idx
        return out


def build_cone(model: KnotModel, spec: SurgerySpec, depth: int) -> ConePresentation:
    """Assemble the truncated cone at the given tower depth."""
    minimum = _depth_floor(model, spec) + 2
    if depth < minimum:
        raise TruncationTooSmall(
            f"depth {depth} below safe minimum {minimum} "
            f"for {model.name} at {spec.p}/{spec.q}"
        )
    win = _window(model, spec)
    k_of = {n: _k_of(spec, n) for n in win.a_columns}
    blocks = {n: model.block(k_of[n]) for n in win.a_columns}
    a_red = {
        n: ([_offset(g) for g in blk.pres.gradings], blk.pres.u_cols)
        for n, blk in blocks.items()
    }
    b_red = model.ambient.b_red
    amb = ([_offset(g) for g in b_red.gradings], b_red.u_cols)

    anchor = model.ambient.d + lens_d_at(spec.p, spec.q, spec.i) - 1
    b_grading = {0: 0}
    for n in range(0, max(win.n_max, 0)):
        b_grading[n + 1] = b_grading[n] + 2 * _k_of(spec, n)
    for n in range(0, min(win.n_min, 0), -1):
        b_grading[n - 1] = b_grading[n] - 2 * _k_of(spec, n - 1)
    a_grading = {
        n: b_grading[n] + 1 - 2 * model.v_at(k_of[n]) for n in win.a_columns
    }
    b_grading = {n: b_grading[n] for n in win.b_columns}

    # common ceiling: all A-towers top out at the same grading
    a_ref = a_grading[win.n_min]
    base = max(
        [a_grading[n] + g for n in win.a_columns for g in [0] + a_red[n][0]]
        + [b_grading[n] + g for n in win.b_columns for g in amb[0]]
    )
    ceiling = a_ref + 2 * ((base - a_ref + 1) // 2) + 2 * depth

    for n in win.b_columns:
        if b_grading[n] > ceiling - 1:
            raise TruncationTooSmall(f"empty target tower in column {n}")
    dom = _Row(a_grading, ceiling, a_red)
    cod = _Row(b_grading, ceiling - 1, {n: amb for n in win.b_columns})

    # A-column n maps to B-column n by U^{V_k} (v_cols on the reduced part)
    # and to B-column n + 1 by U^{H_k} (h_cols); columns outside the
    # window are not retained.  A tower generator at g hits the B-tower of
    # a retained neighbour exactly when that tower reaches down to g - 1.
    d_cols = {}
    for g in dom.gradings:
        cols = []
        for n in dom.order[: dom.towers.get(g, 0)]:
            col = 0
            for m in (n, n + 1):
                if m in cod.index and b_grading[m] < g:
                    col |= 1 << cod.index[m]
            cols.append(col)
        for n, c in dom.at.get(g, ()):
            error = f"cone map not of degree -1 at reduced generator {(n, c)}"
            col = 0
            for m, red_cols in ((n, blocks[n].v_cols), (n + 1, blocks[n].h_cols)):
                if m in cod.index:
                    col ^= cod.image(red_cols[c], m, g - 1, error)
            cols.append(col)
        d_cols[g] = tuple(cols)

    return ConePresentation(
        spec=spec,
        window=win,
        depth=depth,
        anchor=anchor,
        ceiling=ceiling,
        k_of=k_of,
        a_grading=a_grading,
        b_grading=b_grading,
        d_cols=d_cols,
        u_dom=dom.u,
        u_cod=cod.u,
    )


def _presentation(basis: list[tuple[int, int, int]]) -> FiniteUPresentation:
    """The module on ``basis``: triples (g, key, w), ascending in g, where U
    sends the element to those at g - 2 whose keys are bits of w."""
    pos: dict[tuple[int, int], int] = {}
    u_cols = []
    for j, (g, key, w) in enumerate(basis):
        pos[g, key] = j
        u_cols.append(sum(1 << pos[g - 2, b] for b in gf2.bits(w) if (g - 2, b) in pos))
    gradings = tuple(g for g, _, _ in basis)
    return FiniteUPresentation(gradings, tuple(g % 2 for g in gradings), tuple(u_cols))


def _kernel_and_cokernel(pres: ConePresentation) -> tuple[FiniteUPresentation, ...]:
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
            if gf2.mat_vec(pres.d_cols.get(g - 2, ()), w):
                raise AssertionError("kernel not U-stable")
            kernel.append((g, vec.bit_length() - 1, w))
    empty = gf2.Echelon()
    cokernel = [
        (g, i, image.get(g - 2, empty).reduce(w)[0])
        for g, u in pres.u_cod.items()
        for i, w in enumerate(u)
        if i not in image.get(g, empty).pivots
    ]
    return _presentation(kernel), _presentation(cokernel)


def _homology_once(model: KnotModel, spec: SurgerySpec, depth: int) -> ConeResult:
    pres = build_cone(model, spec, depth)
    kernel, cokernel = _kernel_and_cokernel(pres)
    ker_bars = barcode(kernel)
    cok_bars = barcode(cokernel)

    near_ceiling = [b for b in ker_bars if b.top >= pres.ceiling - 2]
    if [b for b in cok_bars if b.top >= pres.ceiling - 2]:
        raise TruncationTooSmall(
            f"cokernel reaches the ceiling at depth {depth} for "
            f"{spec.p}/{spec.q} block {spec.i}"
        )
    if len(near_ceiling) != 1:
        raise TruncationTooSmall(
            f"{len(near_ceiling)} chains reach the ceiling at depth {depth} "
            f"for {spec.p}/{spec.q} block {spec.i}; expected exactly one tower"
        )
    tower = near_ceiling[0]
    d = pres.anchor + tower.bottom
    red = [
        Tau(pres.anchor + bar.bottom, bar.length, (bar.bottom - tower.bottom) % 2)
        for bar in ker_bars + cok_bars
        if bar is not tower
    ]
    return ConeResult(
        p=spec.p, q=spec.q, i=spec.i, d=d, red=tuple(sorted(red)), depth=depth
    )


def cone_homology(
    model: KnotModel, spec: SurgerySpec, depth: int | None = None
) -> ConeResult:
    """Homology of the truncated cone, certified stable in the depth.

    The computation runs at the requested (or default) depth and again
    two levels deeper; any disagreement raises TruncationTooSmall.
    """
    n = depth if depth is not None else default_depth(model, spec)
    first = _homology_once(model, spec, n)
    second = _homology_once(model, spec, n + 2)
    if not first.same_homology(second):
        raise TruncationTooSmall(
            f"results at depths {n} and {n + 2} disagree for "
            f"{spec.p}/{spec.q} block {spec.i}"
        )
    return first


def surgery(
    model: KnotModel, p: int, q: int, depth: int | None = None
) -> SurgeryResult:
    """Full surgery computation: one ConeResult per block index."""
    results = tuple(
        cone_homology(model, SurgerySpec(p, q, i), depth) for i in range(p)
    )
    return SurgeryResult(model_name=model.name, p=p, q=q, results=results)


def d_invariant_bounds(
    model: KnotModel, spec: SurgerySpec
) -> tuple[Fraction, Fraction]:
    """(lower, upper) bounds for the d-invariant of the i-th block.

    upper = d(Y) + d(L(p,q), i) - 2 max(V_{floor(i/q)}, H_{floor((i-p)/q)});
    lower subtracts twice the longest odd bar of the ambient reduced part.
    """
    v = model.v_at(spec.i // spec.q)
    h = model.h_at((spec.i - spec.p) // spec.q)
    upper = (
        model.ambient.d + lens_d_at(spec.p, spec.q, spec.i) - 2 * max(v, h)
    )
    lower = upper - 2 * model.ambient.max_odd_bar()
    return lower, upper


def reduced_cone(model: KnotModel, spec: SurgerySpec) -> tuple[int, int]:
    """(dim ker, dim coker) of the reduced-blocks-only cone map.

    Only defined when V_0 = 0.  The map is the restriction of the cone
    built at the minimum depth to its reduced columns and rows (at each
    grading, those after the towers), which no tower depth changes.
    """
    if model.v_at(0) != 0:
        raise V0NonZero(f"V_0 = {model.v_at(0)} for {model.name}")
    pres = build_cone(model, spec, _depth_floor(model, spec) + 2)
    a_bottoms = sorted(pres.a_grading.values())
    b_bottoms = sorted(pres.b_grading.values())
    dim_dom = dim_cod = r = 0
    for g, cols in pres.d_cols.items():
        red = cols[_towers(a_bottoms, pres.ceiling, g) :]
        dim_dom += len(red)
        r += gf2.rank(red)
    for g, cols in pres.u_cod.items():
        dim_cod += len(cols) - _towers(b_bottoms, pres.ceiling - 1, g)
    return dim_dom - r, dim_cod - r
