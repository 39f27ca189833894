from __future__ import annotations

import random
import sys
import threading
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floersurgery import (
    CassonWalkerInput,
    NotCoprime,
    TargetSummary,
    TooLarge,
    casson_walker_surgery,
    dedekind,
    lambda_from_hf,
    lens_d,
    lens_invariants,
    lens_lambda,
    totient,
    v0_bound,
)
from floersurgery import numth
from floersurgery.cli import parse_q_values
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
        sigma = 12 * p * dedekind_reference(q, p)  # an integer
        assert sigma.denominator == 1, (p, q)
        assert lens_invariants(p, q) == LensInvariants(
            p=p, q=q, sigma=sigma.numerator, d_table=tuple(table)
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


def test_a_table_is_its_inverse_partners_relabelled():
    # qq* = 1 mod p makes L(p,q) and L(p,q*) one oriented manifold: their
    # tables, folded along two different Euclid chains, agree under
    # i -> q*(i+1) - 1, and so do their Dedekind sums
    for p, q in coprime_pairs(80):
        r = pow(q, -1, p)
        table, partner = lens_d_numerators(p, q), lens_d_numerators(p, r)
        assert table == [partner[(r * (i + 1) - 1) % p] for i in range(p)], (p, q)
        assert dedekind(q, p) == dedekind(r, p), (p, q)


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
    "p, q",
    [
        *((10007, 2), (10007, 5003), (100003, 7), (100003, 50002)),
        # chains whose lower levels are large: consecutive Fibonacci
        # numbers, and q = p - 1, whose child L(p - 1, 1) is about p long
        *((121393, 75025), (100003, 100002)),
    ],
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


def test_lens_invariants_refuses_a_table_off_the_sum_identity(store, monkeypatch):
    # one numerator off by one breaks 3 sum N = p sigma, and the check
    # names the slope before any Fraction is built (from an empty store,
    # as a held L(11,3) would skip the fold)
    halves = numth._d_halves

    def corrupt(chain):
        first, second = halves(chain)
        second[0] += 1
        return first, second

    monkeypatch.setattr(numth, "_d_halves", corrupt)
    with pytest.raises(AssertionError, match=r"lens invariants of \(11,4\) violate"):
        lens_invariants(11, 4)


def test_whole_tables_are_refused_above_the_limit(trefoil):
    p = MAX_TABLE_P + 1
    for table in (lens_d_numerators, lens_d, lens_invariants):
        with pytest.raises(TooLarge, match=f"{p} entries.*limit of {MAX_TABLE_P}"):
            table(p, 1)
    # V0_BOUND's n_i witness has p entries, and a cosmetic scan lists its q
    with pytest.raises(TooLarge, match=f"{p} entries.*limit of {MAX_TABLE_P}"):
        v0_bound(trefoil, TargetSummary(h1_order=1, dim_red=1, chi_red=1), p, 1)
    with pytest.raises(TooLarge, match=f"{p} q values.*limit of {MAX_TABLE_P}"):
        parse_q_values([f"1..{p}"])
    assert len(lens_d_numerators(MAX_TABLE_P, 1)) == MAX_TABLE_P
    # a slope that is no slope is refused as such, at any size
    for table in (lens_d_numerators, lens_d, lens_invariants):
        with pytest.raises(NotCoprime):
            table(MAX_TABLE_P + 2, 2)
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
    assert inv.sigma == 2 and inv.s == Fraction(1, 18)  # sigma = 12p s
    assert inv.lam == -Fraction(1, 36)
    assert inv.tau == -4 * 3 * Fraction(1, 18)


def test_lens_table_forms_the_halves_only():
    # form((first, second), 4p) is called once per table, on about p/2
    # entries, and its entries are mirrored
    for p, q in (*PALINDROME_CASES, *coprime_pairs(40)):
        sizes = []

        def form(halves, den):
            sizes.append([len(half) for half in halves])
            return [[(n, den) for n in half] for half in halves]

        inv = numth.lens_table(p, q, form)
        assert inv.d_table == tuple((n, 4 * p) for n in lens_d_numerators(p, q))
        assert len(sizes) == 1 and len(sizes[0]) == 2, (p, q)
        assert sum(sizes[0]) <= p // 2 + 1, (p, q)


@pytest.fixture
def store():
    """The lens store, emptied before and after the test."""
    numth._store.clear()
    yield numth._store
    numth._store.clear()


def held(store) -> tuple[int, int]:
    """The store's entries and marked p, and the entries of its held
    tables, counted afresh: what store.held and store.slots count."""
    entries = store.tables.values()
    tables = [inv for e in entries for inv in e.tables.values()]
    return sum(map(len, entries)) + len(entries), sum(len(t.d_table) for t in tables)


def counts(store) -> tuple[int, int]:
    return store.held, store.slots


def fraction_table(p: int, q: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(n, 4 * p) for n in lens_d_numerators(p, q))


def test_stored_tables_match_their_numerators_in_any_order(store):
    # the second order reads what the first stored
    pairs = coprime_pairs(60)
    for seed in (1, 2):
        random.Random(seed).shuffle(pairs)
        for p, q in pairs:
            assert lens_invariants(p, q).d_table == fraction_table(p, q), (p, q)
    assert counts(store) == held(store)
    assert store.held <= numth._STORE_ENTRIES


def test_one_numerator_at_two_p_is_two_values(store):
    # N = -2 is d = -1/4 in L(2,1) and d = -1/6 in L(3,1); the second
    # round reads both from the store
    assert -2 in lens_d_numerators(2, 1) and -2 in lens_d_numerators(3, 1)
    for p, q in ((2, 1), (3, 1)) * 2:
        assert lens_invariants(p, q).d_table == fraction_table(p, q), (p, q)


def test_one_p_and_numerator_is_one_object_across_calls(store):
    p = 97
    lens_invariants(p, 1)  # the first table at p marks it
    seen = {}
    # 49 = 2^-1 mod 97 is read off the held L(97, 2), and 2 again off itself
    for q in (1, 2, 5, 96, 2, 49):
        for n, entry in zip(lens_d_numerators(p, q), lens_invariants(p, q).d_table):
            assert seen.setdefault(n, entry) is entry, (q, n)
    assert sorted(store.tables[4 * p].tables) == [1, 2, 5, 96]
    assert counts(store) == held(store) == (len(seen) + 1, 4 * p)


def test_a_sweep_builds_one_fraction_per_distinct_p_and_numerator(store, spy):
    pairs = coprime_pairs(60)
    firsts = {p: (p, q) for p, q in reversed(pairs)}
    built = spy(numth, "Fraction")
    # the first table at each p is built afresh and stores only its mark
    for p, q in firsts.values():
        lens_invariants(p, q)
    halves = [numth._d_halves(numth._euclid_chain(*pair)) for pair in firsts.values()]
    assert len(built) == sum(len(a) + len(b) for a, b in halves)
    assert counts(store) == held(store) == (len(firsts), 0)
    # from then on each (p, N) is built once, and a second sweep builds
    # none; the tables formed from the store are held, and read again
    distinct = {(p, n) for p, q in pairs for n in lens_d_numerators(p, q)}
    before = len(built)
    for _ in range(2):
        for p, q in pairs:
            lens_invariants(p, q)
        assert len(built) - before == len(distinct) == store.held - len(firsts)
        assert store.slots == held(store)[1] > 0


def test_a_table_above_the_bound_leaves_the_store_unchanged(store):
    lens_invariants(7, 2)
    lens_invariants(7, 3)
    before = {den: dict(entries) for den, entries in store.tables.items()}
    p = numth._STORE_ENTRIES + 1
    for _ in range(2):
        assert lens_invariants(p, 2).d_table == fraction_table(p, 2)
        assert counts(store) == held(store) and store.tables == before
    # at the bound itself the table marks its p
    p = numth._STORE_ENTRIES
    assert lens_invariants(p, 1).d_table == fraction_table(p, 1)
    assert 4 * p in store.tables and counts(store) == held(store)


def test_overflowing_the_store_empties_it_first(store, monkeypatch):
    limit = 64
    monkeypatch.setattr(numth, "_STORE_ENTRIES", limit)
    pairs = coprime_pairs(40)
    random.Random(3).shuffle(pairs)
    emptied = stored = 0
    for p, q in pairs:
        size = store.held
        assert lens_invariants(p, q).d_table == fraction_table(p, q), (p, q)
        assert counts(store) == held(store), (p, q)
        assert store.held <= limit and store.slots <= 8 * limit, (p, q)
        stored = max(stored, store.held - len(store.tables))
        if store.held < size:  # emptied: this table marked its p afresh
            emptied += 1
            assert store.tables == {4 * p: {}}, (p, q)
    assert emptied > 10 and stored > limit // 2


def test_a_held_table_is_relabelled_with_no_fold(store, spy):
    # the second table at p is held, and its inverse partner, the table
    # itself and their residues outside 1..p are read off it
    cases = ((97, 2), (97, 96), (120, 7), (120, 49), (61, 1), (13, 5))
    for p, q in cases:
        lens_invariants(p, 1 if q != 1 else 2)
        lens_invariants(p, q)
    tables = {}
    for p, q in cases:
        r = pow(q, -1, p)
        for k in (r, q, r + p, q - p, r - 3 * p):
            tables[p, k] = fraction_table(p, k)
    folds = spy(numth, "_d_halves")
    for (p, k), table in tables.items():
        assert lens_invariants(p, k).d_table == table, (p, k)
    assert folds == []


def test_held_tables_keep_the_checks_and_the_edge_cases(store, spy):
    # the slope is checked before any lookup, so a held table at p
    # changes no refusal
    for q in (1, 5, 7, 5, 7):
        lens_invariants(12, q)
    assert store.tables[48].tables
    for q in (2, 0, 6, -4):
        with pytest.raises(NotCoprime):
            lens_invariants(12, q)
    with pytest.raises(TooLarge, match=f"limit of {MAX_TABLE_P}"):
        lens_invariants(MAX_TABLE_P + 1, 1)
    # p = 1 and 2, q <= 0 and q > p: three rounds, the last two reading
    # held tables
    cases = [(p, q) for p in (1, 2, 3, 12) for q in range(-2 * p, 2 * p + 2)]
    tables = {(p, q): fraction_table(p, q) for p, q in cases if gcd(p, q) == 1}
    folds = spy(numth, "_d_halves")
    for _ in range(3):
        for (p, q), table in tables.items():
            assert lens_invariants(p, q).d_table == table, (p, q)
    assert 0 < len(folds) < len(tables)
    assert counts(store) == held(store)


def test_held_tables_stay_within_their_budget(store, monkeypatch):
    # the tables at p = 97 hold 443 distinct N but about 4,700 entries,
    # so a store of 512 entries fills its 8 x 512 held slots first, and
    # the table that would overflow them empties the store
    limit, p = 512, 97
    monkeypatch.setattr(numth, "_STORE_ENTRIES", limit)
    qs = list(range(1, p)) * 2
    random.Random(5).shuffle(qs)
    emptied = 0
    for q in qs:
        slots = store.slots
        assert lens_invariants(p, q).d_table == fraction_table(p, q), q
        assert counts(store) == held(store), q
        assert store.held <= limit and store.slots <= 8 * limit, q
        if store.slots < slots:
            emptied += 1
            assert store.tables == {}, q
    assert emptied > 0


def test_the_relabelled_path_checks_the_dedekind_sum(store, monkeypatch):
    # s(q*,p) = s(q,p), so a sigma off the held table's names the slope
    for q in (1, 3, 3):
        lens_invariants(11, q)
    sigma = numth._sigma
    monkeypatch.setattr(numth, "_sigma", lambda chain: sigma(chain) + 12)
    folds = []
    monkeypatch.setattr(numth, "_d_halves", lambda chain: folds.append(chain))
    for q in (4, 3):
        with pytest.raises(AssertionError, match=rf"lens invariants of \(11,{q}\)"):
            lens_invariants(11, q)
    assert folds == []


def test_threads_share_the_store_and_its_count(store):
    # more threads than cores, switching often, miss on the same p at
    # once: a lost or doubled count shows as held off the entries the
    # store holds (without the lock it reads thousands over)
    pairs = [(p, q) for p in (4093, 4099) for q in range(1, 7)]
    tables = {pair: fraction_table(*pair) for pair in pairs}
    wrong = []

    def sweep(seed):
        order = pairs[:]
        random.Random(seed).shuffle(order)
        for p, q in order:
            if lens_invariants(p, q).d_table != tables[p, q]:
                wrong.append((p, q))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=sweep, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert counts(store) == held(store)
    assert store.held <= numth._STORE_ENTRIES


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
    with pytest.raises(ValueError, match="h1_order must be positive"):
        casson_walker_surgery(CassonWalkerInput(Fraction(0), 0, -2, 2, 1))


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
    with pytest.raises(ValueError, match="h1_order must be positive"):
        lambda_from_hf(-1, Fraction(0), 0)


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
    with pytest.raises(TooLarge) as raised:
        totient(MAX_TOTIENT_N + 1)
    assert str(raised.value) == message
