"""Absolutely Q-graded, relatively Z-graded finite F_2[U]-modules.

A finite module is carried concretely by :class:`FiniteUPresentation`
(a graded basis and the U matrix, U lowering grading by 2), valid by
construction, and decomposed by :func:`barcode` into its bars tau_d(N),
dimension N, bottom grading d, killed by U^N but not U^{N-1}, as ``int``
pairs (d, N).  A presentation's gradings are ``int`` offsets from a
tower generator: the module's own for a loaded model block or ambient
reduced part, the block's anchor for a cone kernel or cokernel, where
``surgery`` reads the offsets off as :class:`Tau` bars at ``Fraction``
gradings.  The Z_2-parity of a generator or a bar is its grading mod 2.

All values are immutable after construction and all operations are pure
functions, so concurrent evaluation needs no coordination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from . import gf2
from .errors import InvalidPresentation


@dataclass(frozen=True, order=True, slots=True)
class Tau:
    """A reduced bar of a surgery result: the length-N truncated tower at
    the absolute grading ``bottom``, its dimension N and its Z_2-parity.
    """

    bottom: Fraction
    length: int
    parity: int = 0

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("tau length must be positive")
        if self.parity not in (0, 1):
            raise ValueError("parity must be 0 or 1")


@dataclass(frozen=True, slots=True)
class FiniteUPresentation:
    """Concrete finite F_2[U]-module: graded basis plus the U matrix.

    ``gradings[j]`` is the ``int`` offset of e_j from the module's tower
    and ``u_cols[j]`` the bitmask of U(e_j) over basis indices.  A bad
    field raises ValueError and a bad U InvalidPresentation (``validate``).
    """

    gradings: tuple[int, ...]
    u_cols: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.gradings)
        if len(self.u_cols) != n:
            raise ValueError("basis fields must have equal lengths")
        for g in self.gradings:
            if not isinstance(g, int) or isinstance(g, bool):
                raise ValueError(f"grading {g!r} is not an int offset")
        for c in self.u_cols:
            if c < 0 or c >> n:
                raise ValueError("U column has bits outside the basis")
        validate(self)

    @property
    def dim(self) -> int:
        return len(self.gradings)


def degree_violations(
    cols: Sequence[int], src: Sequence, dst: Sequence, shift
) -> Iterator[tuple[int, int]]:
    """Yield (j, i) for every entry e_i of cols[j] with dst[i] != src[j] + shift.

    The map is homogeneous of degree ``shift`` iff nothing is yielded.  One
    target per nonzero column: linear in the basis plus the nonzero entries.
    """
    for j, col in enumerate(cols):
        if col:
            target = src[j] + shift
            for i in gf2.bits(col):
                if dst[i] != target:
                    yield j, i


def validate(m: FiniteUPresentation) -> None:
    """Check that U is homogeneous of degree -2, which is all validity is.

    Raises InvalidPresentation naming the first offending entry, in
    column order.  It stops there, so it runs in time linear in the basis
    size plus the nonzero entries of U up to that entry
    (:func:`degree_violations` with shift -2: e_i may occur in U(e_j)
    only if g_i = g_j - 2).

    Nilpotency needs no test of its own: if U has degree -2, U^n(e_j) != 0
    needs basis vectors at the n + 1 distinct gradings g_j, g_j - 2, ...,
    g_j - 2n, but there are only n basis vectors, so U^n = 0.
    """
    gs = m.gradings
    for j, i in degree_violations(m.u_cols, gs, gs, -2):
        raise InvalidPresentation(
            f"U sends e{j} (grading {gs[j]}) to e{i} (grading {gs[i]})"
        )


def barcode(m: FiniteUPresentation) -> list[tuple[int, int]]:
    """The unique multiset of bars of a presentation, as sorted ``int``
    pairs (bottom, length); a bar's parity is bottom mod 2.

    Grading-ordered column reduction: sweep each grading line top-down
    over its occupied gradings, carrying one vector per live bar (U is
    zero into an empty grading, so no bar lives across one).  When the
    U-images of live vectors become dependent the youngest bar dies
    (elder rule); basis vectors not spanned by surviving images are born
    as new bars.  The surviving images are the stored vectors of their
    echelon, so that echelon spans the live vectors two gradings down and
    is carried there, not rebuilt.
    """
    by_grading: dict = {}
    for i, g in enumerate(m.gradings):
        by_grading.setdefault(g, []).append(i)

    lines: dict = {}
    for g in by_grading:
        lines.setdefault(g % 2, []).append(g)

    u = list(m.u_cols)
    bars: list[tuple[int, int]] = []
    for gradings in lines.values():
        active: list[tuple[int, int]] = []  # (vector, birth), elder first
        live = gf2.Echelon()  # spanned by the live vectors, which it stores
        for g in sorted(gradings, reverse=True):
            for b in by_grading[g]:
                added, res, _ = live.insert(1 << b)
                if added:
                    active.append((res, g))
            survivors: list[tuple[int, int]] = []
            live = gf2.Echelon()
            for vec, birth in active:
                added, res, _ = live.insert(gf2.mat_vec(u, vec))
                if added:
                    survivors.append((res, birth))
                else:
                    bars.append((g, (birth - g) // 2 + 1))
            active = survivors
        if active:
            raise AssertionError("bars still live below the lowest grading")
    return sorted(bars)


def parity_dims(m: FiniteUPresentation) -> tuple[int, int]:
    """Dimensions (even, odd) of the two Z_2-graded parts."""
    odd = sum(g % 2 for g in m.gradings)
    return m.dim - odd, odd


def euler_z2(m: FiniteUPresentation) -> int:
    """Euler characteristic in the Z_2-grading: dim(even) - dim(odd)."""
    even, odd = parity_dims(m)
    return even - odd
