"""Exact number-theoretic invariants of lens spaces and surgeries.

Dedekind sums, lens-space correction terms, Casson-Walker values and the
Euler totient, all in exact rational arithmetic.  The three quantities
are tied together by identities that double as self-checks:

    lambda(L(p,q)) = -s(q,p)/2
    tau(L(p,q))    = -4p s(q,p)
    sum_i d(L(p,q), i) = -2p lambda(L(p,q)) = p s(q,p)

Dedekind sums and correction terms both fold, in integers, over the
Euclid chain (p, r) -> (r, p mod r) -> ... of r = q mod p: s(q,p) by
reciprocity as the integer 12p s(q,p), O(log p) steps, and the table
d(L(p,q), .) as the integer numerators 4p d(L(p,q), i).  lens_d_at
folds a single entry in O(log p).  Fraction appears only in return
values; nothing is cached, so every function is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle
from math import gcd

from .errors import NotCoprime


def _require_coprime(p: int, q: int) -> None:
    if p < 1:
        raise NotCoprime(f"p must be positive, got {p}")
    if gcd(p, q) != 1:
        raise NotCoprime(f"gcd({p}, {q}) != 1")


def _euclid_chain(p: int, q: int) -> list[tuple[int, int]]:
    """Pairs (p, r), (r, p mod r), ... with r = q mod p, top first,
    down to the last pair whose remainder is 1 (empty for p = 1)."""
    _require_coprime(p, q)
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


def _d_numerators(chain: list[tuple[int, int]]) -> list[int]:
    # N_i = 4p d(L(p,r), i) from the Ozsvath-Szabo recursion
    #   d(L(p,r), i) = ((2i+1-p-r)^2 - pr) / (4pr) - d(L(r, p mod r), i mod r),
    # times 4p; the division by r is exact.  N = [0] at p = 1.
    table = [0]
    for p, r in reversed(chain):
        table = [
            (c * c - p * r - p * n) // r
            for c, n in zip(range(1 - p - r, p - r, 2), cycle(table))
        ]
    return table


def _over(numerators: list[int], denominator: int) -> list[Fraction]:
    # One Fraction per distinct numerator: tables repeat about half their values.
    value = {n: Fraction(n, denominator) for n in set(numerators)}
    return [value[n] for n in numerators]


def lens_d(p: int, q: int) -> list[Fraction]:
    """Correction terms d(L(p,q), i) for i = 0..p-1.

    Computed by the standard continued-fraction recursion with d of the
    3-sphere as base case.  q is reduced mod p first; the index labels
    are the surgery-block labels used by the cone module, pinned only up
    to affine relabeling.
    """
    return _over(_d_numerators(_euclid_chain(p, q)), 4 * p)


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


def lens_tau(p: int, q: int) -> Fraction:
    """Casson-Gordon invariant of L(p,q): -4p s(q,p)."""
    return -4 * p * dedekind(q, p)


@dataclass(frozen=True)
class LensInvariants:
    """Invariant bundle of L(p,q), cross-checked on construction."""

    p: int
    q: int
    s: Fraction
    lam: Fraction
    tau: Fraction
    d_table: tuple[Fraction, ...]


def lens_invariants(p: int, q: int) -> LensInvariants:
    chain = _euclid_chain(p, q)
    sigma = _sigma(chain)
    numerators = _d_numerators(chain)
    # sum d = p s  <=>  sum N = 4p^2 s = p sigma / 3
    if 3 * sum(numerators) != p * sigma:
        raise AssertionError(
            f"lens invariants of ({p},{q}) violate sum d = -2p lambda"
        )
    s = Fraction(sigma, 12 * p)
    return LensInvariants(
        p=p,
        q=q,
        s=s,
        lam=-s / 2,
        tau=-4 * p * s,
        d_table=tuple(_over(numerators, 4 * p)),
    )


@dataclass(frozen=True)
class CassonWalkerInput:
    """Data feeding the Casson-Walker surgery formula."""

    lambda_y: Fraction
    h1_order: int
    delta2: int
    p: int
    q: int


def casson_walker_surgery(data: CassonWalkerInput) -> Fraction:
    """lambda of p/q surgery: lambda(Y) + lambda(L(p,q)) + q delta2 / (2p|H1|)."""
    _require_coprime(data.p, data.q)
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
    """Euler's totient."""
    if n < 1:
        raise ValueError("totient needs n >= 1")
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
