from __future__ import annotations

import random

from floersurgery import gf2
from conftest import inverse, rank


def test_rank_and_nullspace_small():
    # columns of a 3x3 matrix with rank 2
    cols = [0b011, 0b110, 0b101]  # third = first ^ second
    assert rank(cols) == 2
    null = gf2.nullspace(cols)
    assert len(null) == 1
    for combo in null:
        assert gf2.mat_vec(cols, combo) == 0


def test_mat_mul_identity():
    rng = random.Random(7)
    n = 6
    cols = [rng.getrandbits(n) for _ in range(n)]
    assert gf2.mat_mul(cols, gf2.identity(n)) == cols
    assert gf2.mat_mul(gf2.identity(n), cols) == cols


def test_nullspace_rank_nullity_random():
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randint(0, 10)
        m = rng.randint(0, 10)
        cols = [rng.getrandbits(m) if m else 0 for _ in range(n)]
        null = gf2.nullspace(cols)
        assert rank(cols) + len(null) == n
        for combo in null:
            assert combo != 0
            assert gf2.mat_vec(cols, combo) == 0


def test_echelon_reduce_is_canonical():
    ech = gf2.Echelon()
    ech.insert(0b1100)
    ech.insert(0b0110)
    # residues never contain pivot bits
    for v in range(16):
        res, _ = ech.reduce(v)
        for piv in ech.pivots:
            assert not (res >> piv) & 1
    # same coset -> same residue
    r1, _ = ech.reduce(0b1010)
    r2, _ = ech.reduce(0b1010 ^ 0b1100)
    assert r1 == r2


def test_inverse_round_trip():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 8)
        while True:
            cols = [rng.getrandbits(n) for _ in range(n)]
            if rank(cols) == n:
                break
        inv = inverse(cols)
        assert gf2.mat_mul(cols, inv) == gf2.identity(n)
        assert gf2.mat_mul(inv, cols) == gf2.identity(n)


def test_echelon_is_independent_of_insertion_order():
    rng = random.Random(23)
    for _ in range(200):
        m = rng.randint(1, 9)
        cols = [rng.getrandbits(m) for _ in range(rng.randint(0, 9))]
        first = gf2.Echelon()
        for c in cols:
            first.insert(c)
        for _ in range(3):
            shuffled = cols[:]
            rng.shuffle(shuffled)
            other = gf2.Echelon()
            for c in shuffled:
                other.insert(c)
            assert other.pivots.keys() == first.pivots.keys()
            for v in range(1 << m):
                assert other.reduce(v)[0] == first.reduce(v)[0]


def test_nullspace_vectors_lead_with_their_dependent_column():
    rng = random.Random(29)
    for _ in range(200):
        m = rng.randint(0, 8)
        cols = [rng.getrandbits(m) if m else 0 for _ in range(rng.randint(0, 10))]
        null = gf2.nullspace(cols)
        tops = [v.bit_length() - 1 for v in null]
        assert len(set(tops)) == len(tops)
        for j in tops:
            # column j depends on the columns before it
            assert rank(cols[:j]) == rank(cols[: j + 1])


def test_nullspace_keeps_the_image_echelon():
    rng = random.Random(31)
    for _ in range(200):
        m = rng.randint(0, 8)
        cols = [rng.getrandbits(m) if m else 0 for _ in range(rng.randint(0, 10))]
        image = gf2.Echelon()
        assert gf2.nullspace(cols, image) == gf2.nullspace(cols)
        direct = gf2.Echelon()
        for c in cols:
            direct.insert(c)
        assert image.pivots.keys() == direct.pivots.keys()
        for v in range(1 << m):
            assert image.reduce(v)[0] == direct.reduce(v)[0]
