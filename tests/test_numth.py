from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floersurgery import (
    CassonWalkerInput,
    NotCoprime,
    NumberTooLarge,
    TableTooLarge,
    casson_walker_surgery,
    dedekind,
    lambda_from_hf,
    lens_d,
    lens_invariants,
    lens_lambda,
    totient,
)
from floersurgery.numth import (
    MAX_TABLE_P,
    MAX_TOTIENT_N,
    LensInvariants,
    lens_d_at,
    lens_d_numerators,
)
from conftest import coprime_pairs, dedekind_reference, lens_d_reference


def sawtooth(x: Fraction) -> Fraction:
    if x.denominator == 1:
        return Fraction(0)
    return x - (x.numerator // x.denominator) - Fraction(1, 2)


def dedekind_by_summation(q: int, p: int) -> Fraction:
    return sum(
        (sawtooth(Fraction(k, p)) * sawtooth(Fraction(k * q, p)) for k in range(1, p)),
        Fraction(0),
    )


def test_dedekind_matches_reference_oracle():
    for p in range(1, 201):
        for q in range(-p + 1, p + 1):
            if gcd(p, q) == 1:
                assert dedekind(q, p) == dedekind_reference(q, p), (q, p)


def test_lens_tables_match_reference_oracle():
    for p, q in coprime_pairs(120):
        table = lens_d_reference(p, q)
        assert lens_d(p, q) == table, (p, q)
        s = dedekind_reference(q, p)
        assert lens_invariants(p, q) == LensInvariants(
            p=p, q=q, s=s, lam=-s / 2, tau=-4 * p * s, d_table=tuple(table)
        ), (p, q)


def test_lens_d_at_is_the_table_entry():
    for p, q in coprime_pairs(120):
        table = lens_d(p, q)
        assert [lens_d_at(p, q, i) for i in range(p)] == table, (p, q)


def test_lens_d_numerators_are_the_table_over_4p():
    for p, q in coprime_pairs(60):
        numerators = lens_d_numerators(p, q)
        assert numerators == [4 * p * lens_d_at(p, q, i) for i in range(p)], (p, q)
        assert all(type(n) is int for n in numerators), (p, q)
        assert lens_d(p, q) == [Fraction(n, 4 * p) for n in numerators], (p, q)


def test_lens_tables_are_conjugation_symmetric():
    # d(L(p,q), i) = d(L(p,q), (q-1-i) mod p), which the table fold
    # relies on, checked on the Fraction oracle; the same grid pins the
    # integer table at q <= 0 and q > p, which coprime_pairs never reaches.
    for p in range(1, 61):
        for q in range(1 - p, 2 * p + 1):
            if gcd(p, q) != 1:
                continue
            table = lens_d_reference(p, q)
            assert [table[(q - 1 - i) % p] for i in range(p)] == table, (p, q)
            assert lens_d_numerators(p, q) == [
                d.numerator * (4 * p // d.denominator) for d in table
            ], (p, q)
    for p, q in coprime_pairs(200):
        numerators = lens_d_numerators(p, q)
        assert [numerators[(q - 1 - i) % p] for i in range(p)] == numerators, (p, q)


# (p, q) with r = q mod p and p - r of every possible parity (both even
# is not coprime), r = 1, r = p - 1, q outside 1..p, and p <= 3
PALINDROME_CASES = (
    *((10, 3), (12, 7), (11, 4), (13, 6), (11, 3), (13, 5)),
    *((17, 1), (16, 1), (17, 16), (16, 15), (17, -1), (16, 33)),
    *((1, 1), (1, 0), (1, -3), (2, 1), (2, -1), (2, 3)),
    *((3, 1), (3, 2), (3, -1), (3, 5)),
)


def test_lens_tables_at_the_palindrome_boundaries():
    for p, q in PALINDROME_CASES:
        table = lens_d_reference(p, q)
        assert lens_d_numerators(p, q) == [4 * p * d for d in table], (p, q)
        assert lens_d(p, q) == table, (p, q)
        assert lens_invariants(p, q).d_table == tuple(table), (p, q)


@pytest.mark.parametrize(
    "p, q", [(10007, 2), (10007, 5003), (100003, 7), (100003, 50002)]
)
def test_large_lens_tables_agree_with_single_entries(p, q):
    r = q % p
    # both ends and both centres of the palindromes 0..r-1 and r..p-1
    fixed = {0, r - 1, r, p - 1, (r - 1) // 2, r // 2, (p + r - 1) // 2, (p + r) // 2}
    rest = sorted(set(range(p)) - fixed)
    indices = sorted(fixed | set(random.Random(p * q).sample(rest, 64 - len(fixed))))
    assert len(indices) == 64
    numerators = lens_d_numerators(p, q)
    assert len(numerators) == p
    assert [numerators[i] for i in indices] == [
        4 * p * lens_d_at(p, q, i) for i in indices
    ], (p, q)
    inv = lens_invariants(p, q)
    assert [inv.d_table[i] for i in indices] == [
        Fraction(numerators[i], 4 * p) for i in indices
    ], (p, q)
    # sum d = p s, in integers: sum of 4p d over the Fraction table
    assert sum(d.numerator * (4 * p // d.denominator) for d in inv.d_table) == (
        4 * p * p * inv.s
    ), (p, q)
    assert inv.s == dedekind(q, p)
    assert inv.lam == -inv.s / 2
    assert inv.tau == -4 * p * inv.s


def test_whole_tables_are_refused_above_the_limit():
    p = MAX_TABLE_P + 1
    for table in (lens_d_numerators, lens_d, lens_invariants):
        with pytest.raises(TableTooLarge, match=f"{p} entries.*limit of {MAX_TABLE_P}"):
            table(p, 1)
    assert len(lens_d_numerators(MAX_TABLE_P, 1)) == MAX_TABLE_P
    # single entries and Dedekind sums stay O(log p) at any p
    p = 10**20 - 1
    assert lens_d_at(p, 1, 0) == Fraction(p - 1, 4)
    assert dedekind(1, p) == Fraction((p - 1) * (p - 2), 12 * p)


def test_lens_d_at_rejects_bad_input():
    for i in (-1, 5):
        with pytest.raises(ValueError):
            lens_d_at(5, 2, i)
    with pytest.raises(NotCoprime):
        lens_d_at(4, 2, 0)


def test_dedekind_small_values():
    assert dedekind(1, 2) == 0
    assert dedekind(1, 3) == Fraction(1, 18)
    assert dedekind(1, 1) == 0


def test_dedekind_matches_direct_summation():
    rng = random.Random(17)
    for _ in range(50):
        p = rng.randint(1, 60)
        q = rng.randint(-60, 60)
        if gcd(p, q) != 1:
            continue
        assert dedekind(q, p) == dedekind_by_summation(q, p)


def test_dedekind_odd_in_q():
    assert dedekind(-1, 5) == -dedekind(1, 5)
    for p in (3, 5, 7, 11):
        for q in range(1, p):
            if gcd(p, q) == 1:
                assert dedekind(-q, p) == -dedekind(q, p)


def test_dedekind_periodicity():
    for p in (2, 3, 5, 12):
        for q in range(1, 2 * p):
            if gcd(p, q) == 1:
                assert dedekind(q + p, p) == dedekind(q, p)


def test_dedekind_rejects_non_coprime():
    with pytest.raises(NotCoprime):
        dedekind(2, 4)


def reciprocity_holds(q: int, p: int) -> bool:
    lhs = dedekind(q, p) + dedekind(p, q)
    rhs = Fraction(-1, 4) + (
        Fraction(p, q) + Fraction(q, p) + Fraction(1, p * q)
    ) / 12
    return lhs == rhs


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=1000), st.integers(min_value=1, max_value=1000))
def test_dedekind_reciprocity(p, q):
    if gcd(p, q) != 1:
        return
    assert reciprocity_holds(q, p)


def test_lens_d_anchors():
    assert lens_d(1, 1) == [Fraction(0)]
    assert sorted(lens_d(2, 1)) == [Fraction(-1, 4), Fraction(1, 4)]
    assert lens_d(3, 1) == [Fraction(1, 2), Fraction(-1, 6), Fraction(-1, 6)]


def test_lens_d_sum_identity():
    for p in range(1, 61):
        for q in range(1, p + 1):
            if gcd(p, q) != 1:
                continue
            table = lens_d(p, q)
            assert len(table) == p
            assert sum(table) == -2 * p * lens_lambda(p, q)
            assert sum(table) == p * dedekind(q, p)


def test_lens_d_orientation_reversal():
    for p in range(2, 40):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            direct = sorted(lens_d(p, q))
            reversed_ = sorted(-d for d in lens_d(p, p - q))
            assert direct == reversed_


def test_lens_d_periodic_in_q():
    assert lens_d(2, 3) == lens_d(2, 1)
    assert lens_d(5, 8) == lens_d(5, 3)


def test_lens_invariants_bundle():
    inv = lens_invariants(2, 1)
    assert inv.s == 0 and inv.lam == 0 and inv.tau == 0
    assert sorted(inv.d_table) == [Fraction(-1, 4), Fraction(1, 4)]
    inv = lens_invariants(3, 1)
    assert inv.lam == -Fraction(1, 36)
    assert inv.tau == -4 * 3 * Fraction(1, 18)


def test_casson_walker_surgery_examples():
    # unknot-like data: second derivative vanishes
    for p, q in ((2, 1), (3, 2), (7, 5)):
        val = casson_walker_surgery(CassonWalkerInput(Fraction(0), 1, 0, p, q))
        assert val == lens_lambda(p, q)
    # right-handed trefoil data at 2/3
    val = casson_walker_surgery(CassonWalkerInput(Fraction(0), 1, 2, 2, 3))
    assert val == lens_lambda(2, 3) + Fraction(3, 2)
    # figure-eight data at 2/1
    val = casson_walker_surgery(CassonWalkerInput(Fraction(0), 1, -2, 2, 1))
    assert val == lens_lambda(2, 1) - Fraction(1, 2)


def test_casson_walker_additive_in_delta2():
    base = CassonWalkerInput(Fraction(1, 3), 1, 0, 3, 2)
    v0 = casson_walker_surgery(base)
    v2 = casson_walker_surgery(CassonWalkerInput(Fraction(1, 3), 1, 2, 3, 2))
    v4 = casson_walker_surgery(CassonWalkerInput(Fraction(1, 3), 1, 4, 3, 2))
    assert v2 - v0 == v4 - v2


def test_casson_walker_correction_odd_in_q():
    for p, q, d2 in ((2, 3, 6), (5, 4, 2)):
        plus = casson_walker_surgery(CassonWalkerInput(Fraction(0), 1, d2, p, q))
        assert plus - lens_lambda(p, q) == Fraction(q * d2, 2 * p)


def test_lambda_from_hf():
    assert lambda_from_hf(0, Fraction(0), 1) == 0
    # lens space: chi_red = 0, so lambda = -sum(d)/2p
    for p, q in ((2, 1), (5, 2), (7, 3)):
        d_sum = sum(lens_d(p, q), Fraction(0))
        assert lambda_from_hf(0, d_sum, p) == -d_sum / (2 * p)
        assert lambda_from_hf(0, d_sum, p) == lens_lambda(p, q)
    # one odd generator, d = 0: the value is -1
    assert lambda_from_hf(-1, Fraction(0), 1) == -1


def test_totient():
    assert totient(1) == 1
    assert totient(2) == 1
    assert totient(12) == 4
    for n in range(1, 200):
        brute = sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
        assert totient(n) == brute
    with pytest.raises(ValueError):
        totient(0)


def test_totient_is_refused_above_the_limit():
    # the limit itself is factored: 10^14 = 2^14 5^14
    assert totient(MAX_TOTIENT_N) == 4 * 10**13
    message = f"totient of {MAX_TOTIENT_N + 1}: more than the limit of {MAX_TOTIENT_N}"
    with pytest.raises(NumberTooLarge) as raised:
        totient(MAX_TOTIENT_N + 1)
    assert str(raised.value) == message
