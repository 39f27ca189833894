"""Exact linear algebra over GF(2) using int bitmasks.

A vector is a Python int whose bit ``i`` is coordinate ``i``.  A linear map
is a list of columns, ``cols[j]`` being the image of the j-th domain basis
vector as a bitmask over the codomain.  Spans are semi-echelon: each
vector is eliminated once and never reduced again (:class:`Echelon`).
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
    """Semi-echelon basis with combination tracking.

    ``pivots[b]`` is the stored vector whose highest set bit is b.
    :meth:`reduce` clears each leading pivot bit with that vector, so
    residues contain no pivot bit; every nonzero vector of the span leads
    with a pivot bit, so residues are canonical coset representatives.
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
        self.pivots[res.bit_length() - 1] = (res, combo)
        return True, res, combo


def rank(vecs: Iterable[int]) -> int:
    ech = Echelon()
    for v in vecs:
        ech.insert(v)
    return len(ech)


def nullspace(cols: list[int], ech: Echelon | None = None) -> list[int]:
    """Kernel basis of the map with the given columns.

    One bitmask over domain coordinates per column j dependent on earlier
    ones: e_j plus independent columns before j.  The columns are inserted
    into ``ech``, which may be passed in empty to keep the image.
    """
    ech = Echelon() if ech is None else ech
    out = []
    for j, c in enumerate(cols):
        added, _, combo = ech.insert(c, 1 << j)
        if not added:
            out.append(combo)
    return out
