"""An independent referee for the truncated mapping cone, and random models.

``referee`` computes one block's homology from the model's public
accessors alone: ``v_at``, ``h_at``, ``columns()[k].block`` for |k| < G
and the ambient.  It shares no code with ``cone``, ``fmod.barcode`` or
``gf2``.

* The window is the one the ``cone`` module docstring states, optionally
  widened by some columns on each side: A-columns from the first n with
  k(n) = floor((i + p n)/q) > -G to the first with k(n) >= G, B-columns
  the same less the first.  A column with |k| >= G is the ambient's
  reduced part, with v = U^{V_k} and h = U^{H_k}, built here from
  ``v_at``, ``h_at`` and the ambient, never from a column record.
* b_{n+1} = b_n + 2 k(n) from b_0 = 0 and a_n = b_n + 1 - 2 V_{k(n)}.  The
  ceiling is the highest generator rounded up to odd plus 2 ``depth``, a
  fixed depth of the referee's own.  Every tower and reduced generator up
  to it is laid out, with d and U as dense GF(2) vectors per grading.
* The generators up to the ceiling are a subcomplex whose homology is the
  cone's at every grading up to the ceiling; at the ceiling itself only
  the tower lives, as it sits above every bottom and reduced generator.
  r(g, j), the rank of U^j from H_g to H_{g - 2j}, comes from the matrices
  of U on bases of homology, and the bars by inclusion-exclusion: the
  bars with top g and length L are t(g, L - 1) - t(g, L), with
  t(g, j) = r(g, j) - r(g + 2, j + 1), stopping once t(g, j) = 0.  The
  tower is the one bar whose top is the ceiling.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from hypothesis import strategies as st

from floersurgery import AmbientSummary, FiniteUPresentation, KnotModel
from floersurgery.knotmodel import ReducedBlock

DEPTH = 2


def _apply(cols, x: int) -> int:
    """The image of the vector x under the map with columns cols."""
    out = 0
    for j in _bits(x):
        out ^= cols[j]
    return out


def _bits(x: int):
    """The set bit positions of x, lowest first."""
    j = 0
    while x:
        if x & 1:
            yield j
        x >>= 1
        j += 1


def _power(cols, e: int) -> list[int]:
    """The columns of the e-th power of a square map."""
    out = []
    for j in range(len(cols)):
        x = 1 << j
        for _ in range(e):
            x = _apply(cols, x)
        out.append(x)
    return out


class _Span:
    """Vectors added one by one, each kept under its highest bit after
    reduction by those before, with a tag recording what it came from."""

    def __init__(self):
        self.top = {}

    def reduce(self, v: int, tag: int = 0) -> tuple[int, int]:
        while v:
            hit = self.top.get(v.bit_length() - 1)
            if hit is None:
                break
            v ^= hit[0]
            tag ^= hit[1]
        return v, tag

    def add(self, v: int, tag: int = 0) -> tuple[int, int]:
        v, tag = self.reduce(v, tag)
        if v:
            self.top[v.bit_length() - 1] = (v, tag)
        return v, tag


def _rank(vectors) -> int:
    span = _Span()
    for v in vectors:
        span.add(v)
    return len(span.top)


def window(model, p: int, q: int, i: int, widen: int = 0) -> dict[int, int]:
    """k(n) of every A-column n of block i's window, widened by ``widen``
    columns on each side, in window order."""
    G = max(model.genus, 1)
    first = last = 0
    while (i + p * (first - 1)) // q > -G:
        first -= 1
    while (i + p * last) // q < G:
        last += 1
    return {n: (i + p * n) // q for n in range(first - widen, last + widen + 1)}


def _column(model, k: int):
    """(gradings, U-, v- and h-columns) of the reduced part of A_k."""
    if abs(k) < max(model.genus, 1):
        block = model.columns()[k].block
        return block.pres.gradings, block.pres.u_cols, block.v_cols, block.h_cols
    amb = model.ambient.b_red
    u = amb.u_cols
    return amb.gradings, u, _power(u, model.v_at(k)), _power(u, model.h_at(k))


def referee(model, p: int, q: int, i: int, widen: int = 0, depth: int = DEPTH):
    """Block i's homology as ``cone.cone_homology`` gives it: (tower,
    ((b, length), ...)), the tower's bottom from the B-tower generator in
    column 0 and each other bar's bottom b from the tower, sorted."""
    ks = window(model, p, q, i, widen)
    A = list(ks)
    B = A[1:]
    retained = set(B)
    b = {0: 0}
    for n in range(0, A[-1]):
        b[n + 1] = b[n] + 2 * ks[n]
    for n in range(-1, A[0] - 1, -1):
        b[n] = b[n + 1] - 2 * ks[n]
    a = {n: b[n] + 1 - 2 * model.v_at(ks[n]) for n in A}
    col = {n: _column(model, ks[n]) for n in A}
    amb = model.ambient.b_red
    highest = [a[n] for n in A] + [b[m] + 1 for m in B]
    highest += [a[n] + off for n in A for off in col[n][0]]
    highest += [b[m] + off + 1 for m in B for off in amb.gradings]
    ceiling = (max(highest) | 1) + 2 * depth

    # the generators at each grading: (column, -1) a tower's, (column, c)
    # the c-th reduced one
    a_at: dict[int, list] = {}
    b_at: dict[int, list] = {}
    for n in A:
        for g in range(a[n], ceiling + 1, 2):
            a_at.setdefault(g, []).append((n, -1))
        for c, off in enumerate(col[n][0]):
            a_at.setdefault(a[n] + off, []).append((n, c))
    for m in B:
        for g in range(b[m], ceiling, 2):
            b_at.setdefault(g, []).append((m, -1))
        for c, off in enumerate(amb.gradings):
            b_at.setdefault(b[m] + off, []).append((m, c))
    a_index = {g: {x: j for j, x in enumerate(xs)} for g, xs in a_at.items()}
    b_index = {g: {x: j for j, x in enumerate(xs)} for g, xs in b_at.items()}

    def d(g: int) -> list[int]:
        """Columns of d from A_g to B_{g - 1}: v into column n, h into
        n + 1, where retained."""
        out, index = [], b_index.get(g - 1, {})
        for n, c in a_at.get(g, []):
            x = 0
            for m, maps in ((n, col[n][2]), (n + 1, col[n][3])):
                if m not in retained:
                    continue
                if c < 0:
                    x |= 1 << index[m, -1] if b[m] <= g - 1 else 0
                else:
                    x |= sum(1 << index[m, t] for t in _bits(maps[c]))
            out.append(x)
        return out

    a_u = {n: col[n][1] for n in A}
    b_u = dict.fromkeys(B, amb.u_cols)

    def lowered(at, index, bottom, u, g: int, x: int) -> int:
        """U of the vector x over a row's generators at g, over those at
        g - 2: a tower steps down unless at its bottom."""
        out, below = 0, index.get(g - 2, {})
        for j in _bits(x):
            n, c = at[g][j]
            if c < 0:
                out |= 1 << below[n, -1] if g - 2 >= bottom[n] else 0
            else:
                out |= sum(1 << below[n, t] for t in _bits(u[n][c]))
        return out

    # H_g = ker d on A_g plus B_g modulo d(A_{g+1}), on a basis of kernel
    # vectors and of the B-generators that lead no image vector
    gradings = range(min([*a_at, *b_at]), ceiling + 1)
    kernel, image, free = {}, {}, {}
    for g in gradings:
        span, ker = _Span(), _Span()
        for j, column in enumerate(d(g)):
            v, tag = span.add(column, 1 << j)
            if not v:
                ker.add(tag, 1 << len(ker.top))
        kernel[g] = ker
        image[g - 1] = span
    for g in gradings:
        leads = image.get(g, _Span()).top
        free[g] = [j for j in range(len(b_at.get(g, []))) if j not in leads]

    def coordinates(g: int, z: int, y: int) -> int:
        """The class of the cycle (z on A_g, y on B_g) on the basis of H_g."""
        z, tag = kernel[g].reduce(z)
        assert z == 0, "not a cycle"
        spare, im = free[g], image.get(g, _Span())
        while y:
            y, _ = im.reduce(y)
            if y:
                top = y.bit_length() - 1
                tag |= 1 << (len(kernel[g].top) + spare.index(top))
                y ^= 1 << top
        return tag

    dim, U = {}, {}
    for g in gradings:
        ker = sorted(kernel[g].top.values(), key=lambda entry: entry[1])
        basis = [(lowered(a_at, a_index, a, a_u, g, z), 0) for z, _ in ker]
        basis += [(0, lowered(b_at, b_index, b, b_u, g, 1 << j)) for j in free[g]]
        dim[g] = len(basis)
        U[g] = [coordinates(g - 2, z, y) if g - 2 in kernel else 0 for z, y in basis]

    def ranks(g: int):
        """r(g, 0), r(g, 1), ...: the rank of U^j from H_g, until 0."""
        cols, h = [1 << j for j in range(dim.get(g, 0))], g
        while True:
            r = _rank(cols)
            yield r
            if not r:
                return
            cols, h = [_apply(U[h], c) for c in cols], h - 2

    bars = []
    for g in gradings:
        mine, above = ranks(g), ranks(g + 2)
        next(above)
        last = None
        for j, r in enumerate(mine):
            t = r - next(above, 0)
            if j:
                bars += [(g - 2 * (j - 1), j)] * (last - t)
            if not t:
                break
            last = t
    towers = [bar for bar in bars if bar[0] + 2 * (bar[1] - 1) == ceiling]
    assert len(towers) == 1, towers
    bars.remove(towers[0])
    tower = towers[0][0]
    return tower, tuple((bottom - tower, n) for bottom, n in sorted(bars))


def _random_bars(rng: random.Random, count: int, tops: tuple[int, int]):
    """Gradings and U-columns of ``count`` bars, tops in ``tops`` and
    lengths 1-3, and each bar's (top index, top, length)."""
    gradings, u, bars = [], [], []
    for _ in range(count):
        top, length = rng.randint(*tops), rng.randint(1, 3)
        bars.append((len(gradings), top, length))
        for j in range(length):
            gradings.append(top - 2 * j)
            u.append(1 << len(gradings) if j < length - 1 else 0)
    return FiniteUPresentation(tuple(gradings), tuple(u)), bars


def random_model(seed: int) -> KnotModel:
    """A random model: genus 1-3, V dropping by 0 or 1 per step with
    V_{g-1} = 1, over an ambient of 1-3 bars at d = 0 (tops in -3..3).
    Block k has 0-3 bars (tops in -4..4); v (h) sends a bar's top to a
    random ambient element y at top - 2 V_k (top - 2 H_k) with
    U^length y = 0, and the rest of the bar to the U-multiples of y."""
    rng = random.Random(seed)
    genus = rng.randint(1, 3)
    V = [0, 1]
    while len(V) <= genus:
        V.append(V[-1] + rng.randint(0, 1))
    V.reverse()
    amb, _ = _random_bars(rng, rng.randint(1, 3), (-3, 3))

    def image(grading: int, length: int) -> list[int]:
        """The U-multiples of a random y at the grading, U^length y = 0."""
        at = [j for j, g in enumerate(amb.gradings) if g == grading]
        ys = [
            sum(1 << j for j, bit in zip(at, bits) if bit)
            for bits in product((0, 1), repeat=len(at))
        ]
        killer = _power(amb.u_cols, length)
        y = rng.choice([y for y in ys if not _apply(killer, y)])
        return [_apply(_power(amb.u_cols, j), y) for j in range(length)]

    blocks = {}
    for k in range(genus):
        pres, bars = _random_bars(rng, rng.randint(0, 3), (-4, 4))
        v, h = [0] * pres.dim, [0] * pres.dim
        for start, top, length in bars:
            v[start : start + length] = image(top - 2 * V[k], length)
            h[start : start + length] = image(top - 2 * (V[k] + k), length)
        blocks[k] = ReducedBlock(pres, tuple(v), tuple(h))
    ambient = AmbientSummary("random", Fraction(0), amb)
    return KnotModel(f"random_{seed}", ambient, genus, V, blocks)


random_models = st.integers(min_value=0, max_value=2**32).map(random_model)
