from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floersurgery import (
    FiniteUPresentation,
    GradedModule,
    InfiniteModule,
    Tau,
    Tower,
    as_graded_module,
    barcode,
    euler_z2,
    gf2,
    validate,
)
from conftest import inverse, random_presentation, rank_profile_matches


def test_validate_zero_module():
    assert validate(FiniteUPresentation((), (), ())) == []


def test_validate_one_dim():
    m = FiniteUPresentation((Fraction(0),), (0,), (0,))
    assert validate(m) == []


def test_validate_non_homogeneous_u():
    # U maps a degree-0 vector onto a degree -1 vector: degree -2 fails
    m = FiniteUPresentation((Fraction(-1), Fraction(0)), (1, 0), (0, 0b01))
    errs = validate(m)
    assert any(e.startswith("NonHomogeneousU") for e in errs)


def test_validate_not_nilpotent():
    m = FiniteUPresentation((Fraction(0),), (0,), (1,))
    errs = validate(m)
    assert any(e.startswith("NotNilpotent") for e in errs)


def test_validate_parity_mismatch():
    m = FiniteUPresentation((Fraction(0), Fraction(2)), (0, 1), (0, 0))
    errs = validate(m)
    assert any(e.startswith("ParityMismatch") for e in errs)


def test_barcode_single_jordan_block():
    # one U-chain of size 3 with top grading 4
    m = FiniteUPresentation(
        (Fraction(0), Fraction(2), Fraction(4)), (0, 0, 0), (0, 0b001, 0b010)
    )
    assert barcode(m) == [Tau(Fraction(0), 3, 0)]


def test_barcode_u_zero_splits():
    m = FiniteUPresentation((Fraction(0), Fraction(5)), (0, 1), (0, 0))
    assert barcode(m) == [Tau(Fraction(0), 1, 0), Tau(Fraction(5), 1, 1)]


def test_barcode_random_6dim_against_rank_oracle():
    rng = random.Random(606)
    for _ in range(100):
        m = random_presentation(rng, max_dim=6)
        bars = barcode(m)
        assert sum(b.length for b in bars) == m.dim
        assert rank_profile_matches(m, bars)


def _random_invertible_block(rng: random.Random, n: int) -> list[int]:
    while True:
        cols = [rng.getrandbits(n) for _ in range(n)]
        if gf2.rank(cols) == n:
            return cols


def conjugate_by_graded_basis_change(
    m: FiniteUPresentation, rng: random.Random
) -> FiniteUPresentation:
    """P U P^-1 for a random invertible grading-preserving P."""
    by_g: dict[Fraction, list[int]] = {}
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
    return FiniteUPresentation(m.gradings, m.parities, tuple(new_u))


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
    assert euler_z2(FiniteUPresentation((), (), ())) == 0
    # tau(3) has uniform parity since U preserves parity
    tau3 = GradedModule(bars=(Tau(Fraction(0), 3, 0),))
    assert euler_z2(tau3) == 3
    # figure-eight hook reduced part: one generator at parity 1
    fig8_a0 = FiniteUPresentation((Fraction(-1),), (1,), (0,))
    assert euler_z2(fig8_a0) == -1


def test_euler_rejects_towers():
    m = GradedModule(towers=(Tower(Fraction(0)),))
    with pytest.raises(InfiniteModule):
        euler_z2(m)


def test_iso_check_examples():
    t0 = GradedModule(towers=(Tower(Fraction(0)),))
    assert t0 == GradedModule(towers=(Tower(Fraction(0)),))
    a = GradedModule(towers=(Tower(Fraction(0)),), bars=(Tau(Fraction(1), 2, 1),))
    b = GradedModule(towers=(Tower(Fraction(0)),), bars=(Tau(Fraction(1), 1, 1),))
    assert a != b


def test_iso_check_on_conjugated_presentations():
    rng = random.Random(123)
    for _ in range(30):
        m = random_presentation(rng, max_dim=8)
        conj = conjugate_by_graded_basis_change(m, rng)
        assert as_graded_module(m) == as_graded_module(conj)


def test_graded_module_rejects_bad_parity_against_tower():
    with pytest.raises(ValueError):
        GradedModule(
            towers=(Tower(Fraction(0)),), bars=(Tau(Fraction(1), 1, 0),)
        )
    with pytest.raises(ValueError):
        GradedModule(
            towers=(Tower(Fraction(0)), Tower(Fraction(1))),
        )


def test_u_decreases_grading_by_two_enforced():
    rng = random.Random(5)
    for _ in range(40):
        m = random_presentation(rng, max_dim=8)
        assert validate(m) == []
        for j, col in enumerate(m.u_cols):
            for i in gf2.bits(col):
                assert m.gradings[i] == m.gradings[j] - 2


def reference_validate(m: FiniteUPresentation) -> list[str]:
    """Brute-force validation: Fraction homogeneity per entry, the U^n
    power test and the pairwise parity loop, each run unconditionally."""
    errs = []
    for j, col in enumerate(m.u_cols):
        for i in gf2.bits(col):
            if m.gradings[i] != m.gradings[j] - 2:
                errs.append(
                    f"NonHomogeneousU: U sends {m.labels[j]} (grading "
                    f"{m.gradings[j]}) to {m.labels[i]} (grading {m.gradings[i]})"
                )
    cols = gf2.identity(m.dim)
    for _ in range(m.dim):
        cols = gf2.mat_mul(list(m.u_cols), cols)
    if not gf2.is_zero(cols):
        errs.append(f"NotNilpotent: U^{m.dim} is nonzero")
    for i in range(m.dim):
        for j in range(i + 1, m.dim):
            diff = m.gradings[i] - m.gradings[j]
            if diff.denominator != 1:
                continue
            if (m.parities[i] - m.parities[j]) % 2 != diff.numerator % 2:
                errs.append(f"ParityMismatch: {i} and {j}")
    return errs


def _codes(errs: list[str]) -> list[str]:
    return [e.split(":", 1)[0] for e in errs]


def _break(m: FiniteUPresentation, rng: random.Random, kind: str):
    """One defect of the given kind, placed at random."""
    gradings, parities, cols = list(m.gradings), list(m.parities), list(m.u_cols)
    j, i = rng.randrange(m.dim), rng.randrange(m.dim)
    if kind == "flip_parity":
        parities[j] ^= 1
    elif kind == "random_bit":
        cols[j] ^= 1 << i
    elif kind == "self_loop":
        cols[j] |= 1 << j
    elif kind == "thirds":
        gradings[j] += Fraction(rng.choice([1, 2]), 3)
        parities[j] = rng.randint(0, 1)
    return FiniteUPresentation(tuple(gradings), tuple(parities), tuple(cols))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.lists(
        st.sampled_from(["flip_parity", "random_bit", "self_loop", "thirds"]),
        max_size=4,
    ),
)
def test_validate_matches_reference(seed, defects):
    rng = random.Random(seed)
    m = random_presentation(rng, max_dim=8)
    if m.dim:
        for kind in defects:
            m = _break(m, rng, kind)
    got, want = validate(m), reference_validate(m)
    assert bool(got) == bool(want)
    assert set(_codes(got)) == set(_codes(want))
    assert _codes(got)[:1] == _codes(want)[:1]
    assert [e for e in got if not e.startswith("ParityMismatch")] == [
        e for e in want if not e.startswith("ParityMismatch")
    ]


def test_validate_homogeneous_runs_no_matrix_products(monkeypatch):
    calls = []
    real = gf2.mat_mul

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(gf2, "mat_mul", counting)
    rng = random.Random(7)
    for _ in range(50):
        assert validate(random_presentation(rng, max_dim=12)) == []
    assert calls == []
    # a non-homogeneous U still gets the power test
    loop = FiniteUPresentation((Fraction(0),), (0,), (1,))
    assert _codes(validate(loop)) == ["NonHomogeneousU", "NotNilpotent"]
    assert calls
