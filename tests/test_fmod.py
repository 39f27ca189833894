from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floersurgery import (
    FiniteUPresentation,
    InvalidPresentation,
    Tau,
    barcode,
    euler_z2,
    gf2,
    validate,
)
from conftest import (
    inverse,
    random_presentation,
    rank,
    rank_profile_matches,
    u_power_rank,
)


def test_validate_zero_module():
    assert validate(FiniteUPresentation((), ())) is None


def test_validate_one_dim():
    m = FiniteUPresentation((0,), (0,))
    assert validate(m) is None


def test_validate_non_homogeneous_u():
    # U maps a degree-0 vector onto a degree -1 vector: degree -2 fails
    with pytest.raises(InvalidPresentation) as exc:
        FiniteUPresentation((-1, 0), (0, 0b01))
    assert str(exc.value) == "U sends e1 (grading 0) to e0 (grading -1)"


def test_validate_not_nilpotent():
    # a self-loop is not nilpotent, and homogeneity alone refuses it
    with pytest.raises(InvalidPresentation) as exc:
        FiniteUPresentation((0,), (1,))
    assert str(exc.value) == "U sends e0 (grading 0) to e0 (grading 0)"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Tau(0, 0), "tau length must be positive"),
        (lambda: Tau(0, 1, 2), "parity must be 0 or 1"),
        (lambda: FiniteUPresentation((0, 2), (0,)), "equal lengths"),
        (lambda: FiniteUPresentation((0,), (0b10,)), "bits outside the basis"),
    ],
    ids=["tau_length", "tau_parity", "field_lengths", "u_outside_basis"],
)
def test_bad_fields_are_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_barcode_single_jordan_block():
    # one U-chain of size 3 with top grading 4
    m = FiniteUPresentation((0, 2, 4), (0, 0b001, 0b010))
    assert barcode(m) == [(0, 3)]


def test_barcode_u_zero_splits():
    m = FiniteUPresentation((0, 5), (0, 0))
    assert barcode(m) == [(0, 1), (5, 1)]


def test_barcode_random_6dim_against_rank_oracle():
    rng = random.Random(606)
    for _ in range(100):
        m = random_presentation(rng, max_dim=6)
        bars = barcode(m)
        assert sum(n for _, n in bars) == m.dim
        assert rank_profile_matches(m, bars)


def _random_invertible_block(rng: random.Random, n: int) -> list[int]:
    while True:
        cols = [rng.getrandbits(n) for _ in range(n)]
        if rank(cols) == n:
            return cols


def conjugate_by_graded_basis_change(
    m: FiniteUPresentation, rng: random.Random
) -> FiniteUPresentation:
    """P U P^-1 for a random invertible grading-preserving P."""
    by_g: dict[int, list[int]] = {}
    for i, g in enumerate(m.gradings):
        by_g.setdefault(g, []).append(i)
    p_cols = [0] * m.dim
    for idxs in by_g.values():
        block = _random_invertible_block(rng, len(idxs))
        for loc_j, glob_j in enumerate(idxs):
            col = 0
            for loc_i in gf2.bits(block[loc_j]):
                col |= 1 << idxs[loc_i]
            p_cols[glob_j] = col
    p_inv = inverse(p_cols)
    new_u = gf2.mat_mul(p_cols, gf2.mat_mul(list(m.u_cols), p_inv))
    return FiniteUPresentation(m.gradings, tuple(new_u))


def test_barcode_invariant_under_basis_change():
    rng = random.Random(99)
    for _ in range(60):
        m = random_presentation(rng, max_dim=8)
        conj = conjugate_by_graded_basis_change(m, rng)
        assert barcode(m) == barcode(conj)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_euler_matches_dim_mod_2(seed):
    rng = random.Random(seed)
    m = random_presentation(rng, max_dim=10)
    assert euler_z2(m) % 2 == m.dim % 2


def test_euler_examples():
    assert euler_z2(FiniteUPresentation((), ())) == 0
    # tau(3) has uniform parity since U preserves parity
    tau3 = FiniteUPresentation((0, 2, 4), (0, 0b001, 0b010))
    assert barcode(tau3) == [(0, 3)]
    assert euler_z2(tau3) == 3
    # figure-eight hook reduced part: one generator at parity 1
    fig8_a0 = FiniteUPresentation((-1,), (0,))
    assert euler_z2(fig8_a0) == -1


def test_u_decreases_grading_by_two_enforced():
    rng = random.Random(5)
    for _ in range(40):
        m = random_presentation(rng, max_dim=8)
        assert validate(m) is None
        for j, col in enumerate(m.u_cols):
            for i in gf2.bits(col):
                assert m.gradings[i] == m.gradings[j] - 2


def reference_validate(
    gradings: list[int], u_cols: list[int]
) -> tuple[list[str], bool]:
    """Brute force: the homogeneity message of every entry, and whether
    U^n = 0 by n matrix products, each run unconditionally."""
    errs = []
    for j, col in enumerate(u_cols):
        for i in gf2.bits(col):
            if gradings[i] != gradings[j] - 2:
                errs.append(
                    f"U sends e{j} (grading {gradings[j]}) "
                    f"to e{i} (grading {gradings[i]})"
                )
    n = len(gradings)
    cols = gf2.identity(n)
    for _ in range(n):
        cols = gf2.mat_mul(list(u_cols), cols)
    return errs, not any(cols)


def _break(gradings: list[int], cols: list[int], rng: random.Random, kind: str):
    """One defect of the given kind, placed at random, in place."""
    j, i = rng.randrange(len(cols)), rng.randrange(len(cols))
    if kind == "odd_shift":
        gradings[j] += rng.choice([-3, -1, 1, 3])
    elif kind == "random_bit":
        cols[j] ^= 1 << i
    elif kind == "self_loop":
        cols[j] |= 1 << j


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.lists(
        st.sampled_from(["odd_shift", "random_bit", "self_loop"]),
        max_size=4,
    ),
)
def test_validate_matches_reference(seed, defects):
    # a valid presentation constructs and validates clean; a broken one is
    # refused at construction with the reference's first error
    rng = random.Random(seed)
    m = random_presentation(rng, max_dim=8)
    gradings, cols = list(m.gradings), list(m.u_cols)
    if m.dim:
        for kind in defects:
            _break(gradings, cols, rng, kind)
    expected, nilpotent = reference_validate(gradings, cols)
    # a U that is not nilpotent is never homogeneous, so the verdict is
    # the one of homogeneity and nilpotency checked together
    assert nilpotent or expected
    if not expected:
        assert validate(FiniteUPresentation(tuple(gradings), tuple(cols))) is None
        return
    with pytest.raises(InvalidPresentation) as exc:
        FiniteUPresentation(tuple(gradings), tuple(cols))
    assert str(exc.value) == expected[0]


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_valid_presentations_are_nilpotent(seed):
    # every grading of a run of `span` steps is occupied, so a U-chain can
    # be as long as the basis and U^(n-1) may be nonzero, but U^n never is
    rng = random.Random(seed)
    n = rng.randint(0, 12)
    span, density = rng.randint(1, max(n, 1)), rng.random()
    gradings = [2 * (i % span) for i in range(n)]
    rng.shuffle(gradings)
    cols = [0] * n
    for j in range(n):
        for i in range(n):
            if gradings[i] == gradings[j] - 2 and rng.random() < density:
                cols[j] |= 1 << i
    m = FiniteUPresentation(tuple(gradings), tuple(cols))
    assert validate(m) is None
    assert u_power_rank(m, m.dim) == 0


def test_validate_homogeneous_runs_no_matrix_products(spy):
    # validating a homogeneous U multiplies no matrices
    calls = spy(gf2, "mat_mul")
    rng = random.Random(7)
    for _ in range(50):
        assert validate(random_presentation(rng, max_dim=12)) is None
    # nor does refusing a non-homogeneous U, not even a dense one, whose
    # 1,600 bad entries give one message, the first in column order
    for n in (1, 40):
        with pytest.raises(InvalidPresentation) as exc:
            FiniteUPresentation((0,) * n, (2**n - 1,) * n)
        assert str(exc.value) == "U sends e0 (grading 0) to e0 (grading 0)"
    assert calls == []
