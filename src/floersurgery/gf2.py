"""Exact linear algebra over GF(2) using int bitmasks.

A vector is a Python int whose bit ``i`` is coordinate ``i``.  A linear map
is a list of columns, ``cols[j]`` being the image of the j-th domain basis
vector as a bitmask over the codomain.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def bits(x: int) -> Iterator[int]:
    """Yield the set bit positions of x, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def mat_vec(cols: list[int], x: int) -> int:
    """Apply the map given by cols to the vector x."""
    r = 0
    for j in bits(x):
        r ^= cols[j]
    return r


def mat_mul(a_cols: list[int], b_cols: list[int]) -> list[int]:
    """Compose: column j of the result is a(b(e_j))."""
    return [mat_vec(a_cols, c) for c in b_cols]


def identity(n: int) -> list[int]:
    return [1 << i for i in range(n)]


def is_zero(cols: Iterable[int]) -> bool:
    return all(c == 0 for c in cols)


class Echelon:
    """Fully reduced echelon basis with combination tracking.

    Pivot of a stored vector is its highest set bit; stored vectors never
    contain another vector's pivot bit, so residues of :meth:`reduce` are
    canonical coset representatives supported on non-pivot coordinates.
    """

    def __init__(self) -> None:
        self.pivots: dict[int, tuple[int, int]] = {}

    def __len__(self) -> int:
        return len(self.pivots)

    def reduce(self, v: int, combo: int = 0) -> tuple[int, int]:
        """Reduce v modulo the span; return (residue, combination)."""
        out = 0
        while v:
            b = v.bit_length() - 1
            if b in self.pivots:
                pv, pc = self.pivots[b]
                v ^= pv
                combo ^= pc
            else:
                out |= 1 << b
                v ^= 1 << b
        return out, combo

    def insert(self, v: int, combo: int = 0) -> tuple[bool, int, int]:
        """Insert v; return (added, residue, combination).

        ``added`` is False when v was already in the span, in which case
        ``combination`` expresses v in terms of previously inserted tags.
        """
        res, combo = self.reduce(v, combo)
        if res == 0:
            return False, 0, combo
        b = res.bit_length() - 1
        # keep the basis fully reduced
        for pb, (pv, pc) in list(self.pivots.items()):
            if (pv >> b) & 1:
                self.pivots[pb] = (pv ^ res, pc ^ combo)
        self.pivots[b] = (res, combo)
        return True, res, combo


def rank(vecs: Iterable[int]) -> int:
    ech = Echelon()
    for v in vecs:
        ech.insert(v)
    return len(ech)


def nullspace(cols: list[int]) -> list[int]:
    """Kernel basis of the map with the given columns.

    Returned vectors are bitmasks over domain coordinates.
    """
    ech = Echelon()
    out = []
    for j, c in enumerate(cols):
        added, _, combo = ech.insert(c, 1 << j)
        if not added:
            out.append(combo)
    return out
