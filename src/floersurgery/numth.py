"""Exact number-theoretic invariants of lens spaces and surgeries.

Dedekind sums, lens-space correction terms, Casson-Walker values and the
Euler totient, all in exact rational arithmetic.  The three quantities
are tied together by identities; the first two read lambda and tau off
s, and the third is a self-check:

    lambda(L(p,q)) = -s(q,p)/2
    tau(L(p,q))    = -4p s(q,p)
    sum_i d(L(p,q), i) = -2p lambda(L(p,q)) = p s(q,p)

Dedekind sums and correction terms both fold, in integers, over the
Euclid chain (p, r) -> (r, p mod r) -> ... of r = q mod p: s(q,p) by
reciprocity as the integer 12p s(q,p), O(log p) steps, and the table
d(L(p,q), .) as the integers 4p d(L(p,q), i) (lens_d_numerators).
The table is symmetric under spin^c conjugation,
d(L(p,q), i) = d(L(p,q), (q-1-i) mod p), so its entries 0..r-1 form
one palindrome and r..p-1 another.  Every level of the fold computes
only the first half of each of its own palindromes, from the halves of
the level below, and mirrors the rest by slicing.  A table of entries
has one builder, lens_table: it checks the integer halves against
sum d = p s, forms the entries of both halves of (N_i) over 4p and
mirrors the results.  The CLI forms text, so it prints without a
Fraction per entry.  lens_invariants forms Fractions through one
module-level store, {4p: {N: Fraction(N, 4p)}}: the first table at a p
is built afresh and only marks p, and from the second on each (p, N) is
built once across calls, so later tables at the same p share the same
immutable objects.  The 4,386 tables of p <= 120 hold 178,519 half
entries but only 26,427 distinct (p, N).  The tables formed from the
store are held on their p, by q mod p.  When qq* = 1 (mod p), L(p,q)
and L(p,q*) are one oriented manifold, and

    d(L(p,q), i) = d(L(p,q*), (q*(i+1) - 1) mod p),

so a table whose own or inverse partner's table is held is read off
it, after checking s(q,p) = s(q*,p), with no fold and no new Fraction:
while the store keeps one table of a pair {q, q*}, neither is folded
again, and a relabelled table is not held itself.  The store holds at
most _STORE_ENTRIES entries and marks in all and is emptied before a
table that would overflow it, and its held tables at most
8 _STORE_ENTRIES entries in all (8 bytes each against about 135 per
Fraction), a table that would overflow them emptying it; a table of p
above _STORE_ENTRIES bypasses it.  It changes no value, only which
equal Fraction object is returned.
lens_table's record, LensInvariants, a slotted frozen dataclass, stores
only p, q, the integer sigma = 12p s(q,p) and the table, and reads s,
lambda and tau off sigma.  A whole table is refused above MAX_TABLE_P
entries (TooLarge); lens_d_at folds a single entry in O(log p) at any
p.  Fraction appears only in return values; apart from the store, which
a lock guards, nothing is kept between calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle, repeat
from math import gcd
from threading import Lock
from typing import Callable

from .errors import NotCoprime, TooLarge

# The largest p of a whole lens table: `floersurgery lens 600000 7` prints
# a table of this size in 0.36-0.53 s as a whole process, text or JSON
# (2 CPUs, Python 3.11).  Larger tables are refused.
MAX_TABLE_P = 600_000
# The most entries and marked p the lens store keeps, and an eighth of
# the entries its held tables may have: all 26,427 distinct (p, N) of the
# tables of p <= 120 fit, with the 188,921 entries of the 2,382 tables a
# shuffled sweep holds, and a full store takes about 7 MiB (tracemalloc).
_STORE_ENTRIES = 2**15
# The largest n whose totient trial division finishes in about a second.
MAX_TOTIENT_N = 10**14


def require_slope(p: int, q: int = 1) -> None:
    """p/q must be a surgery slope: p >= 1 and gcd(p, q) = 1 (q may be
    negative)."""
    if p < 1:
        raise NotCoprime(f"p must be positive, got {p}")
    g = gcd(p, q)
    if g != 1:
        raise NotCoprime(f"gcd({p}, {q}) = {g}: q={q} is not coprime to p={p}")


def _euclid_chain(p: int, q: int) -> list[tuple[int, int]]:
    """Pairs (p, r), (r, p mod r), ... with r = q mod p, top first,
    down to the last pair whose remainder is 1 (empty for p = 1)."""
    require_slope(p, q)
    chain = []
    r = q % p
    while p > 1:
        chain.append((p, r))
        p, r = r, p % r
    return chain


def _sigma(chain: list[tuple[int, int]]) -> int:
    # sigma = 12 p s(r, p), an integer because 6p s(r, p) is one.
    # Reciprocity s(r,p) + s(p mod r, r) = (p/r + r/p + 1/(pr))/12 - 1/4
    # times 12p makes each step an exact integer division; s = 0 at p = 1.
    sigma = 0
    for p, r in reversed(chain):
        sigma = (p * p + r * r + 1 - p * sigma) // r - 3 * p
    return sigma


def dedekind(q: int, p: int) -> Fraction:
    """Classical Dedekind sum s(q, p) = sum_k ((k/p)) ((kq/p)), by
    reciprocity along the Euclid chain of (p, q mod p)."""
    return Fraction(_sigma(_euclid_chain(p, q)), 12 * p)


def _table_chain(p: int, q: int) -> list[tuple[int, int]]:
    """_euclid_chain of a whole table, refused above MAX_TABLE_P entries."""
    chain = _euclid_chain(p, q)
    if p > MAX_TABLE_P:
        raise TooLarge(
            f"the lens table of L({p},{q}) has {p} entries, "
            f"more than the limit of {MAX_TABLE_P}"
        )
    return chain


def _d_halves(chain: list[tuple[int, int]]) -> tuple[list[int], list[int]]:
    # N_i = 4p d(L(p,r), i) from the Ozsvath-Szabo recursion
    #   d(L(p,r), i) = ((2i+1-p-r)^2 - pr) / (4pr) - d(L(r, p mod r), i mod r),
    # times 4p; the division by r is exact.  N = [0] at p = 1.  Every
    # level has N_i = N_{(r-1-i) mod p}, so it keeps only the first halves
    # of its palindromes 0..r-1 (c = 2i+1-p-r < 1-p) and r..p-1 (c < 1):
    # the child terms p (N' + r) are formed on the child's halves, mirrored
    # to the child's whole table, and the two halves folded from them.
    first, second = [], [0]
    for p, r in reversed(chain):
        terms = _mirror(
            [p * (n + r) for n in first], [p * (n + r) for n in second], r, p % r
        )
        first = [(c * c - t) // r for c, t in zip(range(1 - p - r, 1 - p, 2), terms)]
        second = [
            (c * c - t) // r for c, t in zip(range(1 + r - p, 1, 2), cycle(terms))
        ]
    return first, second


def _mirror(first: list, second: list, p: int, r: int) -> list:
    # The whole table of L(p, q), r = q mod p, from the first halves of
    # its two palindromes.
    return first + first[: r // 2][::-1] + second + second[: (p - r) // 2][::-1]


def lens_d_numerators(p: int, q: int) -> list[int]:
    """The integers 4p d(L(p,q), i), i = 0..p-1: lens_d over its denominator."""
    return _mirror(*_d_halves(_table_chain(p, q)), p, q % p)


def lens_d(p: int, q: int) -> list[Fraction]:
    """Correction terms d(L(p,q), i) for i = 0..p-1: lens_invariants'
    checked d_table, as a list.

    Computed by the standard continued-fraction recursion with d of the
    3-sphere as base case.  q is reduced mod p first; the index labels
    are the surgery-block labels used by the cone module, pinned only up
    to affine relabeling.
    """
    return list(lens_invariants(p, q).d_table)


def lens_d_at(p: int, q: int, i: int) -> Fraction:
    """The single entry lens_d(p, q)[i], 0 <= i < p, in O(log p) steps."""
    chain = _euclid_chain(p, q)
    if not 0 <= i < p:
        raise ValueError(f"index {i} outside 0..{p - 1}")
    steps = []  # (p, r, 2i+1-p-r) at each level, i reduced mod each r
    for pk, r in chain:
        steps.append((pk, r, 2 * i + 1 - pk - r))
        i %= r
    n = 0
    for pk, r, c in reversed(steps):
        n = (c * c - pk * r - pk * n) // r
    return Fraction(n, 4 * p)


def lens_lambda(p: int, q: int) -> Fraction:
    """Casson-Walker invariant of L(p,q): -s(q,p)/2."""
    return -dedekind(q, p) / 2


@dataclass(frozen=True, slots=True)
class LensInvariants:
    """Invariant bundle of L(p,q), cross-checked by lens_table.  It stores
    the integer sigma = 12p s(q,p); s, lambda and tau are read off it, so
    they cannot disagree.  d_table holds each entry d(L(p,q), i) in the
    form its builder was given: Fractions from lens_invariants."""

    p: int
    q: int
    sigma: int
    d_table: tuple

    @property
    def s(self) -> Fraction:
        """Dedekind sum s(q,p) = sigma/12p."""
        return Fraction(self.sigma, 12 * self.p)

    @property
    def lam(self) -> Fraction:
        """Casson-Walker lambda(L(p,q)) = -s/2 = -sigma/24p."""
        return Fraction(-self.sigma, 24 * self.p)

    @property
    def tau(self) -> Fraction:
        """tau(L(p,q)) = -4p s = -sigma/3."""
        return Fraction(-self.sigma, 3)


def lens_table(
    p: int, q: int, form: Callable[[tuple[list[int], list[int]], int], list]
) -> LensInvariants:
    """sigma and the d-table of L(p,q), both from one Euclid chain, with
    entry i formed from N_i = 4p d(L(p,q), i) and 4p.

    The integer halves are checked against sum d = p s (3 sum N = p
    sigma) before any entry is formed.  form((first, second), 4p)
    returns the entries of the two halves of the N_i, each in order: it
    forms about p/2 entries, once per table, and the rest are mirrored.
    TooLarge above MAX_TABLE_P.
    """
    return _table(p, q, _table_chain(p, q), form)


def _table(p: int, q: int, chain: list[tuple[int, int]], form) -> LensInvariants:
    # lens_table on the chain _table_chain(p, q) gave
    sigma = _sigma(chain)
    first, second = _d_halves(chain)
    r = q % p
    # the pieces _mirror joins into the table, summed without joining them
    parts = (first, first[: r // 2], second, second[: (p - r) // 2])
    if 3 * sum(map(sum, parts)) != p * sigma:
        raise AssertionError(
            f"lens invariants of ({p},{q}) violate sum d = -2p lambda"
        )
    first, second = form((first, second), 4 * p)
    return LensInvariants(p, q, sigma, tuple(_mirror(first, second, p, r)))


def _fractions(halves, den: int) -> list[list[Fraction]]:
    """Fraction(N, den) of each N of each half, built afresh."""
    return [list(map(Fraction, half, repeat(den))) for half in halves]


class _Entries(dict):
    """{N: Fraction(N, den)} at one den = 4p, each built at its first
    lookup, and tables, the tables at p formed from them, by q mod p."""

    __slots__ = ("den", "tables")

    def __init__(self, den: int):
        self.den = den
        self.tables: dict[int, LensInvariants] = {}

    def __missing__(self, n: int) -> Fraction:
        entry = self[n] = Fraction(n, self.den)
        return entry


class _FractionStore:
    """The Fractions of the lens tables formed so far, one _Entries per
    denominator 4p, and held, which counts their entries and their p;
    and the tables formed from them, whose entries slots counts.  held
    never exceeds _STORE_ENTRIES nor slots 8 _STORE_ENTRIES: a table
    that could take held over empties the store first, and one that
    would take slots over empties it and is not held.  The lock makes
    each table's check, lookups and count one step."""

    __slots__ = ("tables", "held", "slots", "lock")

    def __init__(self):
        self.lock = Lock()
        self.clear()

    def clear(self) -> None:
        self.tables: dict[int, _Entries] = {}
        self.held = 0
        self.slots = 0

    def fractions(self, halves, den: int) -> list[list[Fraction]]:
        """lens_table's form: Fraction(N, den) of each N of the two halves
        of one table at den = 4p.  The first table at a p is built afresh,
        as one seen once may not come again, and only marks p; a later
        one reads the store, which builds each missing entry once.  A
        table of p above _STORE_ENTRIES is built afresh and not marked."""
        if den > 4 * _STORE_ENTRIES:
            return _fractions(halves, den)
        with self.lock:
            # a table adds at most one entry per N, or 1 to mark p
            if self.held + sum(map(len, halves)) > _STORE_ENTRIES:
                self.clear()
            entries = self.tables.get(den)
            if entries is not None:
                size = len(entries)
                formed = [list(map(entries.__getitem__, half)) for half in halves]
                self.held += len(entries) - size
                return formed
            self.tables[den] = _Entries(den)
            self.held += 1
        return _fractions(halves, den)

    def partner(self, p: int, r: int):
        """(entries, held): the _Entries of p, if p is marked, and the
        table held there of L(p, r) or else of L(p, r*), r* = r^-1 mod p,
        if any (else None)."""
        with self.lock:
            entries = self.tables.get(4 * p)
            if entries is None:
                return None, None
            tables = entries.tables
            return entries, tables.get(r) or tables.get(pow(r, -1, p))

    def hold(self, entries, inv: LensInvariants) -> None:
        """Hold inv, formed after partner gave entries, while they are
        still the store's: it was then formed from them, so its entries
        are counted.  A table that would take slots over 8 _STORE_ENTRIES
        empties the store instead."""
        p = inv.p
        with self.lock:
            if entries is None or self.tables.get(4 * p) is not entries:
                return
            if self.slots + p > 8 * _STORE_ENTRIES:
                self.clear()
            elif entries.tables.setdefault(inv.q % p, inv) is inv:
                self.slots += p


_store = _FractionStore()


def lens_invariants(p: int, q: int) -> LensInvariants:
    """lens_table with Fraction entries, and the bundle reads s, lambda
    and tau off sigma.  From the second table at a p on, each (p, N) is
    built once and kept in a module-level store bounded by _STORE_ENTRIES
    (2^15) entries, so later tables at p return the same immutable
    objects, and the table is held there.  When the table of L(p, q) or
    of its inverse partner L(p, q*), qq* = 1 (mod p), is held, the table
    is read off it with no fold, entry i at (q*(i+1) - 1) mod p of the
    partner's, once sigma is checked against the held one (s(q*,p) =
    s(q,p)).  Held tables have at most 8 _STORE_ENTRIES entries in all.
    A table that would overflow either bound empties the store, and a
    table of p above _STORE_ENTRIES builds its Fractions afresh without
    touching it.  The slope and the size are checked before any lookup."""
    chain = _table_chain(p, q)
    entries, held = _store.partner(p, q % p)
    if held is None:
        inv = _table(p, q, chain, _store.fractions)
        _store.hold(entries, inv)
        return inv
    sigma = _sigma(chain)
    if sigma != held.sigma:
        raise AssertionError(
            f"lens invariants of ({p},{q}) violate s(q,p) = s({held.q},p)"
        )
    r, d = held.q % p, held.d_table
    if r != q % p:
        d = tuple([d[(r * i - 1) % p] for i in range(1, p + 1)])
    return LensInvariants(p, q, sigma, d)


@dataclass(frozen=True, slots=True)
class CassonWalkerInput:
    """Data feeding the Casson-Walker surgery formula."""

    lambda_y: Fraction
    h1_order: int
    delta2: int
    p: int
    q: int


def casson_walker_surgery(data: CassonWalkerInput) -> Fraction:
    """lambda of p/q surgery: lambda(Y) + lambda(L(p,q)) + q delta2 / (2p|H1|)."""
    require_slope(data.p, data.q)
    if data.h1_order < 1:
        raise ValueError("h1_order must be positive")
    correction = Fraction(data.q * data.delta2, 2 * data.p * data.h1_order)
    return data.lambda_y + lens_lambda(data.p, data.q) + correction


def lambda_from_hf(chi_red: int, d_sum: Fraction, h1_order: int) -> Fraction:
    """Casson-Walker value from Floer data: (chi_red - d_sum/2) / |H1|."""
    if h1_order < 1:
        raise ValueError("h1_order must be positive")
    return (Fraction(chi_red) - Fraction(d_sum) / 2) / h1_order


def totient(n: int) -> int:
    """Euler's totient, by trial division; TooLarge above MAX_TOTIENT_N."""
    if n < 1:
        raise ValueError("totient needs n >= 1")
    if n > MAX_TOTIENT_N:
        raise TooLarge(f"totient of {n}: more than the limit of {MAX_TOTIENT_N}")
    result = n
    m = n
    f = 2
    while f * f <= m:
        if m % f == 0:
            while m % f == 0:
                m //= f
            result -= result // f
        f += 1
    if m > 1:
        result -= result // m
    return result
