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
when the result is read off.  Towers are cut at a common grading ceiling;
homology is kernel plus cokernel of the assembled degree -1 matrix over
F_2, decomposed into bars.  The unique kernel bar reaching the ceiling
is the tower of the surgered manifold and its bottom is the d-invariant;
every other bar is reduced homology.  Results are recomputed two levels
deeper and must agree, otherwise TruncationTooSmall is raised.

Each block index i is computed independently from immutable inputs, so
callers may evaluate different i concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import gf2
from .errors import NotCoprime, TruncationTooSmall, V0NonZero
from .fmod import (
    FiniteUPresentation,
    GradedModule,
    Tau,
    Tower,
    barcode,
    degree_violations,
)
from .knotmodel import KnotModel
from .numth import lens_d


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
    """Assembled finite cone: graded basis on both sides and the matrix.

    ``anchor`` is the absolute grading of the B-tower generator in column
    0; ``ceiling``, the column gradings and the basis gradings are ``int``
    offsets from it, so the absolute grading of basis vector j is
    ``anchor + dom_gradings[j]``.
    """

    spec: SurgerySpec
    window: ConeWindow
    depth: int
    anchor: Fraction
    ceiling: int
    k_of: dict[int, int]
    a_grading: dict[int, int]
    b_grading: dict[int, int]
    dom_gradings: tuple[int, ...]
    cod_gradings: tuple[int, ...]
    dom_desc: tuple[tuple, ...]
    cod_desc: tuple[tuple, ...]
    d_cols: tuple[int, ...]
    u_dom: tuple[int, ...]
    u_cod: tuple[int, ...]


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

    def as_graded_module(self) -> GradedModule:
        return GradedModule(towers=(Tower(self.d),), bars=self.red)

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


def _row(columns, grading, tower_len, reduced):
    """Basis descriptors, gradings and U-columns of one row of the cone,
    and the index where each column's tower starts.

    Each column n contributes a tower ("t", n, j) at grading[n] + 2 j for
    j < tower_len(n), then its reduced part ("r", n, c); ``reduced(n)``
    gives that part's tower-relative gradings and U-columns.  Both pieces
    are contiguous, so maps into them are shifts of local indices.
    """
    desc: list[tuple] = []
    gradings: list[int] = []
    u: list[int] = []
    starts: dict[int, int] = {}
    for n in columns:
        start = starts[n] = len(desc)
        for j in range(tower_len(n)):
            desc.append(("t", n, j))
            gradings.append(grading[n] + 2 * j)
            u.append(1 << (start + j - 1) if j else 0)
        start = len(desc)
        red_gradings, red_u = reduced(n)
        for c, g in enumerate(red_gradings):
            desc.append(("r", n, c))
            gradings.append(grading[n] + g)
            u.append(red_u[c] << start)
    return desc, gradings, u, starts


def build_cone(model: KnotModel, spec: SurgerySpec, depth: int) -> ConePresentation:
    """Assemble the truncated cone at the given tower depth."""
    minimum = _depth_floor(model, spec) + 2
    if depth < minimum:
        raise TruncationTooSmall(
            f"depth {depth} below safe minimum {minimum} "
            f"for {model.name} at {spec.p}/{spec.q}"
        )
    win = _window(model, spec)
    k_of = {n: _k_of(spec, n) for n in range(win.n_min - 1, win.n_max + 2)}
    red_g = {
        k: [_offset(g) for g in model.block(k).pres.gradings]
        for k in {k_of[n] for n in win.a_columns}
    }
    amb_g = [_offset(g) for g in model.ambient.b_red.gradings]

    anchor = model.ambient.d + lens_d(spec.p, spec.q)[spec.i] - 1
    b_grading = {0: 0}
    lo = min(win.n_min, 0)
    hi = max(win.n_max + 1, 0)
    for n in range(0, hi):
        b_grading[n + 1] = b_grading[n] + 2 * k_of.get(n, _k_of(spec, n))
    for n in range(0, lo, -1):
        b_grading[n - 1] = b_grading[n] - 2 * k_of.get(n - 1, _k_of(spec, n - 1))
    a_grading = {
        n: b_grading[n] + 1 - 2 * model.v_at(k_of[n]) for n in win.a_columns
    }

    # common ceiling: all A-towers top out at the same grading
    a_ref = a_grading[win.n_min]
    base = max(
        [a_grading[n] + g for n in win.a_columns for g in [0] + red_g[k_of[n]]]
        + [b_grading[n] + g for n in win.b_columns for g in amb_g]
    )
    ceiling = a_ref + 2 * ((base - a_ref + 1) // 2) + 2 * depth

    def tower_len_a(n: int) -> int:
        return (ceiling - a_grading[n]) // 2 + 1

    def tower_len_b(n: int) -> int:
        return (ceiling - 1 - b_grading[n]) // 2 + 1

    for n in win.b_columns:
        if tower_len_b(n) < 1:
            raise TruncationTooSmall(f"empty target tower in column {n}")
    dom_desc, dom_gradings, u_dom, _ = _row(
        win.a_columns,
        a_grading,
        tower_len_a,
        lambda n: (red_g[k_of[n]], model.block(k_of[n]).pres.u_cols),
    )
    cod_desc, cod_gradings, u_cod, cod_start = _row(
        win.b_columns,
        b_grading,
        tower_len_b,
        lambda n: (amb_g, model.ambient.b_red.u_cols),
    )

    # A-column n maps to B-column n by U^{V_k} (v_cols on the reduced part)
    # and to B-column n + 1 by U^{H_k} (h_cols); columns outside the
    # window are not retained
    d_cols = []
    for kind, n, j in dom_desc:
        k = k_of[n]
        blk = model.block(k)
        col = 0
        for m, power, red_cols in (
            (n, model.v_at(k), blk.v_cols),
            (n + 1, model.h_at(k), blk.h_cols),
        ):
            if m not in cod_start:
                continue
            if kind == "r":
                col ^= red_cols[j] << (cod_start[m] + tower_len_b(m))
            elif j >= power:
                col ^= 1 << (cod_start[m] + j - power)
        d_cols.append(col)

    pres = ConePresentation(
        spec=spec,
        window=win,
        depth=depth,
        anchor=anchor,
        ceiling=ceiling,
        k_of={n: k_of[n] for n in win.a_columns},
        a_grading=a_grading,
        b_grading={n: b_grading[n] for n in win.b_columns},
        dom_gradings=tuple(dom_gradings),
        cod_gradings=tuple(cod_gradings),
        dom_desc=tuple(dom_desc),
        cod_desc=tuple(cod_desc),
        d_cols=tuple(d_cols),
        u_dom=tuple(u_dom),
        u_cod=tuple(u_cod),
    )
    _check_degrees(pres)
    return pres


def _check_degrees(pres: ConePresentation) -> None:
    """Structural audit: the cone map has degree -1 and both U's degree -2."""
    dom, cod = pres.dom_gradings, pres.cod_gradings
    for j, _ in degree_violations(pres.d_cols, dom, cod, -1):
        raise AssertionError(
            f"cone map not of degree -1 at column {pres.dom_desc[j]}"
        )
    for gradings, cols in ((dom, pres.u_dom), (cod, pres.u_cod)):
        for _ in degree_violations(cols, gradings, gradings, -2):
            raise AssertionError("U not of degree -2 in the cone")


def _group_by_grading(gradings: tuple[int, ...]) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for idx, g in enumerate(gradings):
        out.setdefault(g, []).append(idx)
    return out


def _kernel_presentation(pres: ConePresentation) -> FiniteUPresentation:
    dom_by_g = _group_by_grading(pres.dom_gradings)
    vecs: list[int] = []
    gradings: list[int] = []
    for g in sorted(dom_by_g):
        idxs = dom_by_g[g]
        sub = [pres.d_cols[j] for j in idxs]
        for combo in gf2.nullspace(sub):
            vec = 0
            for t in gf2.bits(combo):
                vec |= 1 << idxs[t]
            vecs.append(vec)
            gradings.append(g)
    ech_by_g: dict[int, gf2.Echelon] = {}
    for idx, vec in enumerate(vecs):
        ech_by_g.setdefault(gradings[idx], gf2.Echelon()).insert(vec, 1 << idx)
    u_dom = list(pres.u_dom)
    u_cols = []
    for idx, vec in enumerate(vecs):
        img = gf2.mat_vec(u_dom, vec)
        if img == 0:
            u_cols.append(0)
            continue
        ech = ech_by_g.get(gradings[idx] - 2)
        assert ech is not None
        res, combo = ech.reduce(img)
        assert res == 0, "kernel not U-stable"
        u_cols.append(combo)
    return FiniteUPresentation(
        gradings=tuple(gradings),
        parities=tuple(g % 2 for g in gradings),
        u_cols=tuple(u_cols),
    )


def _cokernel_presentation(pres: ConePresentation) -> FiniteUPresentation:
    cod_by_g = _group_by_grading(pres.cod_gradings)
    image_ech: dict[int, gf2.Echelon] = {}
    for j, col in enumerate(pres.d_cols):
        if col:
            g = pres.dom_gradings[j] - 1
            image_ech.setdefault(g, gf2.Echelon()).insert(col)
    reps: list[int] = []
    gradings: list[int] = []
    pos_of: dict[int, int] = {}
    for g in sorted(cod_by_g):
        pivots = image_ech[g].pivots if g in image_ech else {}
        for i in cod_by_g[g]:
            if i not in pivots:
                pos_of[i] = len(reps)
                reps.append(i)
                gradings.append(g)
    u_cod = list(pres.u_cod)
    u_cols = []
    for i in reps:
        w = u_cod[i]
        g2 = pres.cod_gradings[i] - 2
        if g2 in image_ech:
            w, _ = image_ech[g2].reduce(w)
        col = 0
        for b in gf2.bits(w):
            col |= 1 << pos_of[b]
        u_cols.append(col)
    return FiniteUPresentation(
        gradings=tuple(gradings),
        parities=tuple(g % 2 for g in gradings),
        u_cols=tuple(u_cols),
    )


def _homology_once(model: KnotModel, spec: SurgerySpec, depth: int) -> ConeResult:
    pres = build_cone(model, spec, depth)
    ker_bars = barcode(_kernel_presentation(pres))
    cok_bars = barcode(_cokernel_presentation(pres))

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
        model.ambient.d + lens_d(spec.p, spec.q)[spec.i] - 2 * max(v, h)
    )
    lower = upper - 2 * model.ambient.max_odd_bar()
    return lower, upper


def reduced_cone(model: KnotModel, spec: SurgerySpec) -> tuple[int, int]:
    """(dim ker, dim coker) of the reduced-blocks-only cone map.

    Only defined when V_0 = 0.  The map is the restriction of the cone
    built at the minimum depth to its reduced ("r") columns and rows,
    which no tower depth changes.
    """
    if model.v_at(0) != 0:
        raise V0NonZero(f"V_0 = {model.v_at(0)} for {model.name}")
    pres = build_cone(model, spec, _depth_floor(model, spec) + 2)
    cols = [c for c, desc in zip(pres.d_cols, pres.dom_desc) if desc[0] == "r"]
    dim_cod = sum(1 for desc in pres.cod_desc if desc[0] == "r")
    r = gf2.rank(cols)
    return len(cols) - r, dim_cod - r
