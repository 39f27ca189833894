from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

from floersurgery import FiniteUPresentation, gf2, load_ambient_file, load_model
from floersurgery.cli import resolve_model_path


@pytest.fixture(scope="session")
def unknot():
    return load_model(resolve_model_path("unknot_s3"))


@pytest.fixture(scope="session")
def trefoil():
    return load_model(resolve_model_path("trefoil_rh_s3"))


@pytest.fixture(scope="session")
def figure8():
    return load_model(resolve_model_path("figure8_s3"))


@pytest.fixture(scope="session")
def sigma237():
    return load_ambient_file(resolve_model_path("sigma237_ambient"))


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


def random_presentation(rng: random.Random, max_dim: int = 12) -> FiniteUPresentation:
    """Random homogeneous nilpotent U-presentation.

    Gradings live on at most two lines (integer and half-integer);
    homogeneity of degree -2 makes any such matrix nilpotent.
    """
    n = rng.randint(0, max_dim)
    gradings = []
    parities = []
    for _ in range(n):
        level = rng.randint(-4, 4)
        offset = rng.choice([Fraction(0), Fraction(1, 2)])
        g = level + offset
        gradings.append(g)
        parities.append(level % 2)
    cols = [0] * n
    for j in range(n):
        for i in range(n):
            if gradings[i] == gradings[j] - 2 and rng.random() < 0.4:
                cols[j] |= 1 << i
    return FiniteUPresentation(tuple(gradings), tuple(parities), tuple(cols))


def u_power_rank(pres: FiniteUPresentation, j: int) -> int:
    """rank of U^j, by direct matrix power."""
    cols = gf2.identity(pres.dim)
    for _ in range(j):
        cols = gf2.mat_mul(list(pres.u_cols), cols)
    return gf2.rank(cols)


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
        expected = sum(max(b.length - j, 0) for b in bars)
        if u_power_rank(pres, j) != expected:
            return False
    levels: dict = {}
    for g in pres.gradings:
        levels[g] = levels.get(g, 0) + 1
    covered: dict = {}
    for b in bars:
        for step in range(b.length):
            g = b.bottom + 2 * step
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
