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
the level below, and mirrors the rest by slicing.  The Fraction table
has one builder, lens_invariants: it checks the integers, builds one
Fraction per entry of the halves (about p/2) and mirrors them.  Its
record, LensInvariants, a slotted frozen dataclass, stores only p, q, s
and the table.  A whole table is refused above MAX_TABLE_P entries
(TooLarge); lens_d_at folds a single entry in O(log p) at any p.
Fraction appears only in return values; nothing is cached, so every
function is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle, repeat
from math import gcd

from .errors import NotCoprime, TooLarge

# The largest p of a whole lens table: `floersurgery lens p 3` prints a
# table of this size in about a second.  Larger tables are refused.
MAX_TABLE_P = 600_000
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
    """Invariant bundle of L(p,q), cross-checked by lens_invariants.
    lambda and tau are read off s, so they cannot disagree with it."""

    p: int
    q: int
    s: Fraction
    d_table: tuple[Fraction, ...]

    @property
    def lam(self) -> Fraction:
        """Casson-Walker lambda(L(p,q)) = -s/2."""
        return -self.s / 2

    @property
    def tau(self) -> Fraction:
        """tau(L(p,q)) = -4p s."""
        return -4 * self.p * self.s


def lens_invariants(p: int, q: int) -> LensInvariants:
    """Dedekind sum s(q,p) and the d-table of L(p,q), both from one
    Euclid chain; the bundle reads lambda and tau off s.

    s is sigma = 12p s(q,p) over 12p.  The integer table is checked
    against sum d = p s (3 sum N = p sigma) before it is returned;
    TooLarge above MAX_TABLE_P.
    """
    chain = _table_chain(p, q)
    sigma = _sigma(chain)
    first, second = _d_halves(chain)
    r = q % p
    if 3 * sum(_mirror(first, second, p, r)) != p * sigma:
        raise AssertionError(
            f"lens invariants of ({p},{q}) violate sum d = -2p lambda"
        )
    den = repeat(4 * p)  # one Fraction per entry of the halves, then mirrored
    first, second = list(map(Fraction, first, den)), list(map(Fraction, second, den))
    return LensInvariants(
        p=p,
        q=q,
        s=Fraction(sigma, 12 * p),
        d_table=tuple(_mirror(first, second, p, r)),
    )


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
