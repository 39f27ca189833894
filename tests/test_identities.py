"""Classical surgery identities between different knots and slopes.

The models are L-space knots in S^3 built from their Alexander
polynomials alone: for an L-space knot with Delta = sum_j a_j t^j the
torsion coefficients are the V_k, so V_k = sum_{j >= 1} j a_{k+j}
(``staircase_from_alexander``).  Torus knots T(m,n) are L-space knots,
and so is the (m,n)-cable C_{m,n}(K) of an L-space knot K, of winding
number m, when n/m >= 2g(K) - 1 (Hedden, On knot Floer homology and
cabling II, IMRN 2009; Hom, A note on cabling and L-space surgeries, AGT
2011), with Delta = Delta_K(t^m) Delta_{T(m,n)}(t).

The identities are topological, so they check the cone's windows,
towers, lens anchors and large q against each other across genera and
slopes, with no closed form of the Floer homology:

* Moser (Pacific J. Math. 1971): S^3_{mn+-1}(T(m,n)) = L(mn+-1, n^2), the
  unknot's surgery at slope (mn+-1)/n^2;
* Gordon (Trans. AMS 1983): S^3_{(kmn+-1)/k}(C_{m,n}(K)) =
  S^3_{(kmn+-1)/(km^2)}(K), and the reducible surgery S^3_{mn}(C_{m,n}(K))
  = L(m, n) # S^3_{n/m}(K), whose d-invariants are the sums of one of
  each summand's.

Surgeries are compared through ``recognise``, as ``cosmetic_pair_scan``
compares them: block ids from one interner, up to an affine relabelling
of the blocks, all models solving their shapes in one dict.  Every
surgery here is an L-space, so no reduced bar is checked.
"""

from __future__ import annotations

from collections import Counter
from functools import cache

import pytest

from floersurgery import lens_d, load_model, recognise, surgery

from conftest import staircase_doc


def _times(a: list[int], b: list[int]) -> list[int]:
    """The product of two polynomials, coefficients lowest degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _over(a: list[int], b: list[int]) -> list[int]:
    """a / b for a monic b that divides a, coefficients lowest first."""
    a, quotient = list(a), [0] * (len(a) - len(b) + 1)
    for i in range(len(quotient) - 1, -1, -1):
        quotient[i] = c = a[i + len(b) - 1]
        for j, y in enumerate(b):
            a[i + j] -= c * y
    assert not any(a), "the division is not exact"
    return quotient


def _power_minus_one(n: int) -> list[int]:
    """t^n - 1."""
    return [-1] + [0] * (n - 1) + [1]


def torus_alexander(m: int, n: int) -> list[int]:
    """Delta of T(m,n), (t^mn - 1)(t - 1)/((t^m - 1)(t^n - 1)), lowest first."""
    top = _times(_power_minus_one(m * n), _power_minus_one(1))
    return _over(top, _times(_power_minus_one(m), _power_minus_one(n)))


def cable_alexander(knot: list[int], m: int, n: int) -> list[int]:
    """Delta of the (m,n)-cable of a knot: Delta_K(t^m) Delta_{T(m,n)}(t)."""
    spread = [0] * (m * (len(knot) - 1) + 1)
    spread[::m] = knot
    return _times(spread, torus_alexander(m, n))


def staircase_from_alexander(delta: list[int]):
    """The L-space knot model of a symmetric Delta, its coefficients lowest
    degree first: genus g is half the degree and V_k = sum_{j >= 1} j a_{k+j},
    a_s the coefficient of t^(g + s)."""
    g = (len(delta) - 1) // 2
    V = [sum(j * delta[g + k + j] for j in range(1, g - k + 1)) for k in range(g + 1)]
    return load_model(staircase_doc(V))


def genus(m: int, n: int, knot_genus: int = 0) -> int:
    """The genus of the (m,n)-cable of a knot of the given genus, or of
    T(m,n) itself at genus 0."""
    return m * knot_genus + (m - 1) * (n - 1) // 2


# every torus knot here, and every (m,n)-cable of one, n/m >= 2g(K) - 1
TORUS = [(2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (4, 5)]
CABLES = {
    (2, 3): [(2, 3), (2, 5), (3, 4), (3, 5)],
    (2, 5): [(2, 7), (2, 9), (3, 10), (3, 11)],
    (3, 4): [(2, 11), (2, 13), (3, 16), (3, 17)],
}
# (knot, cable, k): every cable at k = 1, and one or two per knot at k = 2
GORDON = [(knot, cable, 1) for knot in CABLES for cable in CABLES[knot]] + [
    ((2, 3), (2, 3), 2),
    ((2, 3), (3, 4), 2),
    ((2, 5), (2, 7), 2),
    ((3, 4), (2, 11), 2),
]


@cache
def model_of(delta: tuple[int, ...]):
    """The model of a Delta, built once per Delta."""
    return staircase_from_alexander(list(delta))


def test_alexander_polynomials_give_the_semigroup_staircases():
    # V_k of T(m,n) counts the gaps of the semigroup <m, n> at or above
    # g + k; a cable's Delta is symmetric, has Delta(1) = 1 and twice the
    # cable's genus for its degree
    assert torus_alexander(2, 3) == [1, -1, 1]
    assert torus_alexander(3, 4) == [1, -1, 0, 1, 0, -1, 1]
    for m, n in TORUS:
        g = genus(m, n)
        gaps = set(range(2 * g)) - {a * m + b * n for a in range(n) for b in range(m)}
        V = tuple(sum(gap >= g + k for gap in gaps) for k in range(g + 1))
        assert staircase_from_alexander(torus_alexander(m, n)).V == V
    for knot, cables in CABLES.items():
        for m, n in cables:
            delta = cable_alexander(torus_alexander(*knot), m, n)
            assert delta == delta[::-1] and sum(delta) == 1
            assert len(delta) - 1 == 2 * genus(m, n, genus(*knot))


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("m, n", TORUS)
def test_moser_torus_knot_surgery_is_a_lens_space(unknot, m, n, sign):
    p = m * n + sign
    torus = model_of(tuple(torus_alexander(m, n)))
    _, classes = recognise([(torus, p, 1), (unknot, p, n * n % p)])
    assert classes == [[0, 1]]


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("m, n", TORUS)
def test_moser_lens_space_is_its_inverse_slope_lens_space(unknot, m, n, sign):
    # L(p, x) = L(p, 1/x): the unknot at n^-2 joins the class of the
    # torus knot's p/1 by matching its first member, the torus knot
    p = m * n + sign
    torus = model_of(tuple(torus_alexander(m, n)))
    cases = [(torus, p, 1), (unknot, p, n * n % p), (unknot, p, pow(n, -2, p))]
    assert recognise(cases)[1] == [[0, 1, 2]]


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("knot, cable, k", GORDON)
def test_gordon_cable_surgery_is_a_surgery_on_the_companion(knot, cable, k, sign):
    (m, n), delta = cable, torus_alexander(*knot)
    p = k * m * n + sign
    companion = model_of(tuple(delta))
    cabled = model_of(tuple(cable_alexander(delta, m, n)))
    _, classes = recognise([(cabled, p, k), (companion, p, k * m * m)])
    assert classes == [[0, 1]]


@pytest.mark.parametrize("m, n", [(2, 3), (2, 5), (2, 7), (3, 4), (3, 5)])
def test_gordon_reducible_cable_surgery_is_a_connected_sum(m, n):
    # S^3_{mn}(C_{m,n}(T(2,3))) = L(m, n) # S^3_{n/m}(T(2,3)): the d of a
    # connected sum is the sum of its summands', one spin^c each
    trefoil = torus_alexander(2, 3)
    cabled = staircase_from_alexander(cable_alexander(trefoil, m, n))
    summand = surgery(staircase_from_alexander(trefoil), n, m).results
    expected = Counter(a + r.d for a in lens_d(m, n) for r in summand)
    assert Counter(r.d for r in surgery(cabled, m * n, 1).results) == expected
