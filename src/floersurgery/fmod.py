"""Absolutely Q-graded, relatively Z-graded F_2[U]-modules.

The value type used throughout the package is a finite direct sum of
towers T+_d (U acts surjectively, one-dimensional kernel at the bottom
grading d, U lowers grading by 2) and finite bars tau_d(N) (dimension N,
killed by U^N but not U^{N-1}).  Finite modules are carried concretely by
:class:`FiniteUPresentation` and decomposed into bars by :func:`barcode`.
Gradings are ``Fraction`` at the API; the checks and the decomposition
use only differences, ``%`` and ``//``, so they are exact on ``int``
gradings too (the cone passes integer offsets from one rational anchor).

All values are immutable after construction and all operations are pure
functions, so concurrent evaluation needs no coordination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

from . import gf2
from .errors import InfiniteModule, InvalidPresentation


def as_grading(x: Union[int, str, Fraction]) -> Fraction:
    """Parse a grading: int, Fraction or a string like '-3/4'."""
    if isinstance(x, bool):
        raise ValueError(f"not a grading: {x!r}")
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise ValueError(f"not an exact grading: {x!r}")


@dataclass(frozen=True, order=True)
class Tower:
    """The module F[U,U^-1]/U.F[U] with its generator 1 at grading bottom."""

    bottom: Fraction


@dataclass(frozen=True, order=True)
class Tau:
    """Length-N truncated tower: bottom grading, dimension N, Z_2-parity."""

    bottom: Fraction
    length: int
    parity: int = 0

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("tau length must be positive")
        if self.parity not in (0, 1):
            raise ValueError("parity must be 0 or 1")

    @property
    def top(self) -> Fraction:
        return self.bottom + 2 * (self.length - 1)


@dataclass(frozen=True)
class GradedModule:
    """Finite direct sum of towers and bars, kept in canonical sorted order.

    Towers carry parity 0 by convention; when a tower is present every bar
    parity must equal its bottom-grading offset from the tower mod 2.
    """

    towers: tuple[Tower, ...] = ()
    bars: tuple[Tau, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "towers", tuple(sorted(self.towers)))
        object.__setattr__(self, "bars", tuple(sorted(self.bars)))
        if self.towers:
            anchor = self.towers[0].bottom
            for t in self.towers[1:]:
                diff = t.bottom - anchor
                if diff.denominator != 1 or diff.numerator % 2 != 0:
                    raise ValueError(
                        f"tower bottoms {anchor} and {t.bottom} do not differ "
                        "by an even integer"
                    )
            for b in self.bars:
                diff = b.bottom - anchor
                if diff.denominator != 1:
                    raise ValueError(
                        f"bar at {b.bottom} is not integrally graded against "
                        f"the tower at {anchor}"
                    )
                if diff.numerator % 2 != b.parity:
                    raise ValueError(
                        f"bar at {b.bottom} declares parity {b.parity} but "
                        f"sits at offset {diff} from the tower"
                    )

    @property
    def dim_red(self) -> int:
        return sum(b.length for b in self.bars)

    def dims(self) -> tuple[int, int]:
        """(even, odd) dimensions of the finite part."""
        even = sum(b.length for b in self.bars if b.parity == 0)
        odd = sum(b.length for b in self.bars if b.parity == 1)
        return even, odd


@dataclass(frozen=True)
class FiniteUPresentation:
    """Concrete finite F_2[U]-module: graded basis plus the U matrix.

    ``u_cols[j]`` is the bitmask of U(e_j) over basis indices.  Use
    :meth:`from_rows` to build from a row-major 0/1 matrix where entry
    [i][j] is the coefficient of e_i in U(e_j).
    """

    gradings: tuple[Fraction, ...]
    parities: tuple[int, ...]
    u_cols: tuple[int, ...]
    labels: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        n = len(self.gradings)
        if len(self.parities) != n or len(self.u_cols) != n:
            raise ValueError("basis fields must have equal lengths")
        if not self.labels:
            object.__setattr__(self, "labels", tuple(f"e{i}" for i in range(n)))
        elif len(self.labels) != n:
            raise ValueError("labels must match basis length")
        for c in self.u_cols:
            if c < 0 or c >> n:
                raise ValueError("U column has bits outside the basis")
        if any(p not in (0, 1) for p in self.parities):
            raise ValueError("parities must be 0 or 1")

    @property
    def dim(self) -> int:
        return len(self.gradings)

    @classmethod
    def from_rows(
        cls,
        gradings: Iterable[Union[int, str, Fraction]],
        parities: Iterable[int],
        rows: list[list[int]],
        labels: Iterable[str] = (),
    ) -> "FiniteUPresentation":
        gs = tuple(as_grading(g) for g in gradings)
        n = len(gs)
        if rows and (len(rows) != n or any(len(r) != n for r in rows)):
            raise ValueError(f"U matrix must be {n}x{n}")
        cols = [0] * n
        for i, row in enumerate(rows):
            for j, entry in enumerate(row):
                if entry not in (0, 1):
                    raise ValueError("U matrix entries must be 0 or 1")
                if entry:
                    cols[j] |= 1 << i
        return cls(gs, tuple(parities), tuple(cols), tuple(labels))


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


def validate(m: FiniteUPresentation) -> list[str]:
    """Check degree -2 homogeneity of U, nilpotency and parity consistency.

    Returns a list of messages, each prefixed with one of the codes
    NonHomogeneousU, NotNilpotent, ParityMismatch; empty means valid.
    Runs in time linear in the basis size plus the nonzero entries of U.

    * Homogeneity: e_i may occur in U(e_j) only if g_i = g_j - 2
      (:func:`degree_violations` with shift -2).
    * Nilpotency follows from homogeneity, so U^n is only computed when
      homogeneity has failed: if U has degree -2, U^n(e_j) != 0 needs basis
      vectors at the n + 1 distinct gradings g_j, g_j - 2, ..., g_j - 2n,
      but there are only n basis vectors.
    * Parity: every pair at an integral grading distance must declare
      parities that differ by that distance mod 2.  Gradings are integrally
      apart exactly when they share the class g mod 1, and the pairwise
      condition holds exactly when every element agrees with the first
      element of its class (agreement is transitive), so each element is
      compared with that one anchor only.
    """
    errs: list[str] = []
    n = m.dim
    gs = m.gradings
    for j, i in degree_violations(m.u_cols, gs, gs, -2):
        errs.append(
            f"NonHomogeneousU: U sends {m.labels[j]} (grading "
            f"{gs[j]}) to {m.labels[i]} (grading {gs[i]})"
        )
    if errs:
        cols = list(gf2.identity(n))
        u = list(m.u_cols)
        for _ in range(n):
            cols = gf2.mat_mul(u, cols)
        if not gf2.is_zero(cols):
            errs.append(f"NotNilpotent: U^{n} is nonzero")
    anchors: dict = {}
    for j, g in enumerate(gs):
        a = anchors.setdefault(g % 1, j)
        diff = gs[a] - g
        if (m.parities[a] - m.parities[j] - diff) % 2:
            errs.append(
                f"ParityMismatch: {m.labels[a]} and {m.labels[j]} are "
                f"{diff} apart but declare parities "
                f"{m.parities[a]}/{m.parities[j]}"
            )
    return errs


def _require_valid(m: FiniteUPresentation) -> None:
    errs = validate(m)
    if errs:
        raise InvalidPresentation(errs)


def barcode(m: FiniteUPresentation) -> list[Tau]:
    """Decompose a valid presentation into its unique multiset of bars.

    Grading-ordered column reduction: sweep each grading line top-down,
    carrying one vector per live bar.  When the U-images of live vectors
    become dependent the youngest bar dies (elder rule); basis vectors not
    spanned by surviving images are born as new bars.  The surviving
    images are the stored vectors of their echelon, so that echelon spans
    the live vectors two gradings down and is carried there, not rebuilt.
    """
    _require_valid(m)
    by_grading: dict = {}
    for i, g in enumerate(m.gradings):
        by_grading.setdefault(g, []).append(i)
    parity_at = {m.gradings[i]: m.parities[i] for i in range(m.dim)}

    lines: dict = {}
    for g in by_grading:
        lines.setdefault(g % 2, []).append(g)

    u = list(m.u_cols)
    bars: list[Tau] = []
    for gradings in lines.values():
        top, bottom = max(gradings), min(gradings)
        active: list[tuple[int, Fraction]] = []  # (vector, birth), elder first
        live = gf2.Echelon()  # spanned by the live vectors, which it stores
        g = top
        while g >= bottom:
            for b in by_grading.get(g, []):
                added, res, _ = live.insert(1 << b)
                if added:
                    active.append((res, g))
            survivors: list[tuple[int, Fraction]] = []
            live = gf2.Echelon()
            for vec, birth in active:
                added, res, _ = live.insert(gf2.mat_vec(u, vec))
                if added:
                    survivors.append((res, birth))
                else:
                    length = (birth - g) // 2 + 1
                    bars.append(Tau(g, length, parity_at[g]))
            active = survivors
            g -= 2
        if active:
            raise AssertionError("bars still live below the lowest grading")
    return sorted(bars)


def as_graded_module(m: FiniteUPresentation) -> GradedModule:
    return GradedModule(towers=(), bars=tuple(barcode(m)))


def euler_z2(m: Union[GradedModule, FiniteUPresentation]) -> int:
    """Euler characteristic in the Z_2-grading: dim(even) - dim(odd)."""
    if isinstance(m, GradedModule):
        if m.towers:
            raise InfiniteModule("module contains towers")
        even, odd = m.dims()
        return even - odd
    return sum(1 if p == 0 else -1 for p in m.parities)
