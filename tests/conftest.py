from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from floersurgery import (
    ConeResult,
    FiniteUPresentation,
    Tau,
    barcode,
    cone,
    gf2,
    load_model,
    load_model_or_ambient,
)
from floersurgery.cli import resolve_model_path
from floersurgery.numth import lens_d_at


def read_block(model, spec, offsets=None) -> ConeResult:
    """Block ``spec`` as a ConeResult: ``cone_homology``'s offsets (tower,
    ((b, length), ...)) for the block's shape, or the given ones, read at
    the block's own anchor d(Y) - 1 + d(L(p,q), i) from ``lens_d_at``,
    with neither the lens table nor the interner of ``surgery``.  Looks
    up ``cone.cone_homology`` at call time."""
    p, q, i = spec.p, spec.q, spec.i
    if offsets is None:
        offsets = cone.cone_homology(model, cone._shape(model, p, q, i))
    tower, bars = offsets
    d = model.ambient.d - 1 + lens_d_at(p, q, i) + tower
    red = tuple(Tau(d + b, length, b % 2) for b, length in bars)
    return ConeResult(i, d, red)


@pytest.fixture
def solve_at(monkeypatch):
    """``cone_homology``'s offsets with the certificate's depth N forced to
    the given one, through ``cone.default_depth``; N + 2 is checked as ever."""

    def solve(model, shape, depth):
        with monkeypatch.context() as forced:
            forced.setattr(cone, "default_depth", lambda model, shape: depth)
            return cone.cone_homology(model, shape)

    return solve


def solved_blocks(spy, stub=False):
    """The block index of each ``cone_homology`` call from now on, in call
    order: that of the last ``_shape`` call, which ``surgery`` makes for
    the block it solves.  With ``stub`` a solve returns no bars and the
    tower i above the block's anchor, so a solve's block index shows in the
    offsets of its shape and in the d of every block of the shape."""
    shaped = spy(cone, "_shape", record=lambda model, p, q, i: i)
    solve = (lambda model, shape: (shaped[-1], ())) if stub else None
    return spy(cone, "cone_homology", solve, record=lambda model, shape: shaped[-1])


class Calls(list):
    """What a call to a spied attribute records as it starts, in call
    order; ``results`` holds what each call returned, as it returns."""

    def __init__(self):
        super().__init__()
        self.results = []


@pytest.fixture
def spy(monkeypatch):
    """``spy(owner, name)`` wraps the attribute ``name`` of ``owner`` (or
    puts ``fn`` in its place) for the rest of the test and returns its
    Calls: the tuple of each call's positional arguments, or
    ``record(*args)`` when given.  A method's first argument is self."""

    def install(owner, name, fn=None, *, record=None):
        inner = getattr(owner, name) if fn is None else fn
        calls = Calls()

        def wrapper(*args, **kwargs):
            calls.append(args if record is None else record(*args))
            result = inner(*args, **kwargs)
            calls.results.append(result)
            return result

        monkeypatch.setattr(owner, name, wrapper)
        return calls

    return install


@pytest.fixture(scope="session")
def unknot():
    return load_model(resolve_model_path("unknot_s3"))


@pytest.fixture(scope="session")
def trefoil():
    return load_model(resolve_model_path("trefoil_rh_s3"))


@pytest.fixture(scope="session")
def figure8():
    return load_model(resolve_model_path("figure8_s3"))


# read only: the benchmark's own model file
STRESS_MODEL = Path(__file__).resolve().parents[1] / "perfbench/models/genus2_stress.json"


@pytest.fixture(scope="session")
def genus2_stress():
    return load_model(STRESS_MODEL)


@pytest.fixture(scope="session")
def sigma237():
    return load_model_or_ambient(resolve_model_path("sigma237_ambient"))[1]


def sigma237_synthetic_doc() -> dict:
    """Genus-1 model over the sigma237 ambient with V_0 = 0 and the hook
    reduced part a copy of the ambient one, both maps the identity."""
    return {
        "name": "synthetic_sigma237",
        "ambient": {
            "name": "Sigma(2,3,7)",
            "d": "0",
            "b_red": [{"grading": "-1", "parity": 1}],
            "u_matrix": [[0]],
        },
        "genus": 1,
        "V": [0, 0],
        "a_red": {
            "0": {
                "generators": [{"grading": "-1", "parity": 1}],
                "u_matrix": [[0]],
                "v_matrix": [[1]],
                "h_matrix": [[1]],
                "tower_offset": "0",
            }
        },
    }


@pytest.fixture(scope="session")
def sigma237_synthetic():
    return load_model(sigma237_synthetic_doc())


def staircase_doc(V: list[int]) -> dict:
    """Model in S^3 with the staircase V_0, ..., V_g and empty reduced
    blocks, the data of an L-space knot of genus g = len(V) - 1."""
    genus = len(V) - 1
    empty = {
        "generators": [],
        "u_matrix": [],
        "v_matrix": [],
        "h_matrix": [],
        "tower_offset": "0",
    }
    return {
        "name": f"staircase_{'_'.join(map(str, V))}",
        "ambient": {"name": "S3", "d": "0", "b_red": [], "u_matrix": []},
        "genus": genus,
        "V": list(V),
        "a_red": {str(k): dict(empty) for k in range(genus)},
    }


def depth_floor_reference(model, spec) -> int:
    """The depth floor counting V_k + H_k on every A-column of the window,
    boundary columns with a non-retained target included: always at least
    the library's floor, and growing with p/q."""
    G = max(model.genus, 1)
    p, q, i = spec.p, spec.q, spec.i
    n_plus = -((-(G * q - i)) // p)
    n_minus = ((1 - G) * q - 1 - i) // p
    ks = [(i + p * n) // q for n in range(n_minus + 1, n_plus + 1)]
    return max(model.v_at(k) + model.h_at(k) for k in ks) + model.max_reduced_bar()


def window_floor_reference(model, shape) -> int:
    """The depth floor of one window, counting only the maps into retained
    B-columns: V_k + H_k on interior columns, H_k alone on the first and
    V_k alone on the last, plus the longest reduced bar."""
    columns, last = model.columns(), len(shape) - 1
    ends = [columns[shape[0]].h, columns[shape[last]].v] if last else [0]
    vh = [columns[k].v + columns[k].h for k in set(shape[1:last])]
    return max(vh + ends) + model.max_reduced_bar()


def generators(laid_out) -> int:
    """The number of generators of a ``cone.RowComplex``, both rows."""
    rows = (laid_out.u_dom, laid_out.u_cod)
    return sum(len(cols) for row in rows for cols in row.values())


def whole_cone(model, pres):
    """The truncated cone with every generator laid out, grading by
    grading (ascending), as a ``cone.RowComplex``: the towers of ``pres``
    from their bottoms and the ceiling, then the reduced summand of
    ``cone._reduced_summand``, on every ambient, L-space ambients
    included.  At each grading the towers present come first, sorted by
    bottom, so they are a prefix of that order and keep their index at
    every grading; the reduced columns follow, shifted past the towers at
    their target grading."""

    def towers(bottom, top):
        order = sorted(bottom, key=bottom.__getitem__)
        return {
            g: [n for n in order if bottom[n] <= g]
            for g in range(min(bottom.values(), default=top + 1), top + 1, 2)
        }

    a_at = towers(pres.a_grading, pres.ceiling)
    b_at = towers(pres.b_grading, pres.ceiling - 1)
    b_index = {n: t for ns in b_at.values() for t, n in enumerate(ns)}

    def lay_out(tower_cols, reduced, target_at, step):
        out = {}
        for g in sorted(tower_cols.keys() | reduced.keys()):
            shift = len(target_at.get(g - step, ()))
            out[g] = tuple(tower_cols.get(g, [])) + tuple(
                col << shift for col in reduced.get(g, ())
            )
        return out

    def tower_u(at):
        # U keeps a tower's number; the towers at g - 2 are a prefix
        return {
            g: [1 << t if t < len(at.get(g - 2, ())) else 0 for t in range(len(ns))]
            for g, ns in at.items()
        }

    # a tower generator at g hits the B-tower of a retained neighbour
    # exactly when that tower reaches down to g - 1
    d_towers = {
        g: [
            sum(
                1 << b_index[m]
                for m in (n, n + 1)
                if m in pres.b_grading and pres.b_grading[m] < g
            )
            for n in ns
        ]
        for g, ns in a_at.items()
    }
    red = cone._reduced_summand(model, pres)
    return cone.RowComplex(
        d_cols=lay_out(d_towers, red.d_cols, b_at, 1),
        u_dom=lay_out(tower_u(a_at), red.u_dom, a_at, 2),
        u_cod=lay_out(tower_u(b_at), red.u_cod, b_at, 2),
    )


def truncated_cone_reference(model, shape, depth, whole=None):
    """The block's homology by eliminating the whole truncated cone, tower
    generators included: kernel and cokernel of every d_cols[g] of
    ``whole_cone``, barcoded, then read off to offsets by the library's
    own ``_offsets``.  Looks up ``cone.build_cone`` at call time, so a test
    may inject a presentation, or pass the laid-out cone itself as
    ``whole``."""
    pres = cone.build_cone(model, shape, depth)
    if whole is None:
        whole = whole_cone(model, pres)
    kernel, cokernel = cone._kernel_and_cokernel(whole)
    return cone._offsets(pres, barcode(kernel), barcode(cokernel))


def tower_bars_reference(pres) -> list[tuple[int, int]]:
    """Kernel bars (bottom, length) of the tower summand by union-find
    with the elder rule, over the edges sorted by birth: it assumes
    nothing of the order of the B-bottoms along the window."""
    bottom = dict(pres.a_grading)
    root = {n: n for n in bottom}

    def find(n: int) -> int:
        while root[n] != n:
            root[n] = root[root[n]]
            n = root[n]
        return n

    bars = []
    for m in sorted(pres.b_grading, key=pres.b_grading.__getitem__):
        elder, younger = sorted((find(m - 1), find(m)), key=bottom.__getitem__)
        root[younger] = elder
        low, birth = bottom[younger], pres.b_grading[m] + 1
        if birth > low:
            bars.append((low, (birth - low) // 2))
    low = min(bottom.values())
    bars.append((low, (pres.ceiling - low) // 2 + 1))
    return bars


def reduced_cone(model, shape) -> tuple[int, int]:
    """(dim ker, dim coker) of the reduced-blocks-only cone map, for a
    model with V_0 = 0.  The map is d on the reduced summand as
    ``cone._reduced_summand`` lays it out, on every ambient; no tower
    depth changes it."""
    assert model.v_at(0) == 0, f"V_0 = {model.v_at(0)} for {model.name}"
    pres = cone.build_cone(model, shape, cone.default_depth(model, shape))
    red = cone._reduced_summand(model, pres)
    dim_dom = sum(len(cols) for cols in red.d_cols.values())
    dim_cod = sum(len(cols) for cols in red.u_cod.values())
    r = sum(rank(cols) for cols in red.d_cols.values())
    return dim_dom - r, dim_cod - r


def random_presentation(rng: random.Random, max_dim: int = 12) -> FiniteUPresentation:
    """Random homogeneous nilpotent U-presentation.

    Gradings are int offsets in -4..4; homogeneity of degree -2 makes any
    such matrix nilpotent.
    """
    n = rng.randint(0, max_dim)
    gradings = [rng.randint(-4, 4) for _ in range(n)]
    cols = [0] * n
    for j in range(n):
        for i in range(n):
            if gradings[i] == gradings[j] - 2 and rng.random() < 0.4:
                cols[j] |= 1 << i
    return FiniteUPresentation(tuple(gradings), tuple(cols))


def rank(vecs) -> int:
    """Dimension of the GF(2) span of the bitmask vectors."""
    ech = gf2.Echelon()
    for v in vecs:
        ech.insert(v)
    return len(ech.pivots)


def u_power_rank(pres: FiniteUPresentation, j: int) -> int:
    """rank of U^j, by direct matrix power."""
    cols = gf2.identity(pres.dim)
    for _ in range(j):
        cols = gf2.mat_mul(list(pres.u_cols), cols)
    return rank(cols)


def inverse(cols: list[int]) -> list[int]:
    """Inverse of a square invertible GF(2) matrix given by columns."""
    ech = gf2.Echelon()
    for j, c in enumerate(cols):
        added, _, _ = ech.insert(c, 1 << j)
        if not added:
            raise ValueError("matrix is not invertible")
    return [ech.reduce(1 << i)[1] for i in range(len(cols))]


def rank_profile_matches(pres: FiniteUPresentation, bars) -> bool:
    """Brute-force oracle: rank(U^j) must equal sum_i max(N_i - j, 0),
    and each grading level must carry as many bar slots as basis vectors."""
    for j in range(pres.dim + 1):
        expected = sum(max(n - j, 0) for _, n in bars)
        if u_power_rank(pres, j) != expected:
            return False
    levels: dict = {}
    for g in pres.gradings:
        levels[g] = levels.get(g, 0) + 1
    covered: dict = {}
    for bottom, n in bars:
        for step in range(n):
            g = bottom + 2 * step
            covered[g] = covered.get(g, 0) + 1
    return covered == levels


def dedekind_reference(q: int, p: int) -> Fraction:
    """s(q, p) by the O(p) integer sum: k -> kq permutes the nonzero
    residues mod p, so the sawtooth sum collapses to sum_k k (kq mod p)."""
    if p == 1:
        return Fraction(0)
    total = sum(k * ((k * q) % p) for k in range(1, p))
    return Fraction(total, p * p) - Fraction(p - 1, 4)


def lens_d_reference(p: int, q: int) -> list[Fraction]:
    """d(L(p,q), i) for i = 0..p-1 by the Ozsvath-Szabo recursion in
    Fraction arithmetic, one whole table per level."""
    if p == 1:
        return [Fraction(0)]
    r = q % p
    sub = lens_d_reference(r, p % r)
    return [
        Fraction((2 * i + 1 - p - r) ** 2 - p * r, 4 * p * r) - sub[i % r]
        for i in range(p)
    ]


def coprime_pairs(p_max: int) -> list[tuple[int, int]]:
    """Every (p, q) with 1 <= q <= p <= p_max and gcd(p, q) = 1."""
    return [
        (p, q) for p in range(1, p_max + 1) for q in range(1, p + 1) if gcd(p, q) == 1
    ]
