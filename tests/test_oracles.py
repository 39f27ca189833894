"""Generated staircase families against closed forms from the literature.

Every model here is a staircase in S^3: V non-increasing, dropping by at
most one per step, V_{g-1} = 1 and V_g = 0, with empty reduced blocks, so
the cone sees exactly the data of a genus-g L-space knot.  The expected
values come from formulas, not from the cone code path:

* the reduced Floer homology of p/q surgery on a genus-g L-space knot has
  max(0, (2g - 1) q - p) bars (Ozsvath-Szabo, Knot Floer homology and
  rational surgeries, arXiv math/0504404);
* the Casson-Walker invariant of p/q surgery is lambda(L(p,q)) +
  q Delta''(1) / (2p), where Delta''(1) = 2 t_0 + 4 (t_1 + ... + t_{g-1})
  and the torsion coefficients t_k of an L-space knot are its V_k.
"""

from __future__ import annotations

from math import ceil, gcd

import pytest

from floersurgery import (
    CassonWalkerInput,
    casson_walker_surgery,
    lambda_from_hf,
    load_model,
    surgery,
)

from conftest import staircase_doc

SLOPES = [(p, q) for p in range(1, 8) for q in range(1, 8) if gcd(p, q) == 1]


def staircases(genus: int) -> list[list[int]]:
    """T(2, 2g+1), V_k = ceil((g - k)/2), and the staircase that drops at
    every step, V_k = g - k (the same sequence when g = 1).  The second
    has Alexander polynomial t^g - 1 + t^-g, which no knot in S^3 with an
    L-space surgery has for g >= 2 (its t^(g-1) coefficient is 0, not -1),
    but the cone and both formulas see only V."""
    torus = [ceil((genus - k) / 2) for k in range(genus + 1)]
    steep = [genus - k for k in range(genus + 1)]
    return [torus] if torus == steep else [torus, steep]


FAMILY = [V for genus in range(1, 5) for V in staircases(genus)]


@pytest.mark.parametrize("V", FAMILY, ids=lambda V: "V" + "".join(map(str, V)))
def test_lspace_staircases_against_closed_forms(V):
    genus = len(V) - 1
    model = load_model(staircase_doc(V))
    delta2 = 2 * V[0] + 4 * sum(V[1:genus])
    for p, q in SLOPES:
        result = surgery(model, p, q)
        bars = sum(len(r.red) for r in result.results)
        assert bars == max(0, (2 * genus - 1) * q - p), (p, q)
        via_cone = lambda_from_hf(result.chi_red, result.d_sum, p)
        via_formula = casson_walker_surgery(CassonWalkerInput(0, 1, delta2, p, q))
        assert via_cone == via_formula, (p, q)
