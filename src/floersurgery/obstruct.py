"""Executable surgery obstructions with structured verdicts.

Every rule examines a hypothetical surgery scenario and returns a
:class:`Verdict`.  Status semantics are uniform across rules:

* ``fail``          -- the scenario is obstructed (it cannot occur);
* ``pass``          -- the rule applies and is consistent with the data;
* ``inapplicable``  -- the rule's hypotheses are not met.

Each verdict carries the exact inputs that produced it in ``witness``,
so identical inputs give identical verdicts.  A cosmetic scan is one
call to ``recognise``, which solves each block shape once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Optional

from .cone import SurgeryResult, SurgerySpec, surgery
from .errors import MissingGradings, NotCoprime, TooLarge, V0Zero
from .fmod import parity_dims
from .knotmodel import AmbientSummary, KnotModel, alexander_trivial
from .numth import (
    MAX_TABLE_P,
    dedekind,
    lens_d_at,
    lens_invariants,
    require_slope,
    totient,
)

PASS = "pass"
FAIL = "fail"
INAPPLICABLE = "inapplicable"


@dataclass(frozen=True, slots=True)
class TargetSummary:
    """Floer-theoretic summary of the surgered manifold Z."""

    h1_order: int
    dim_red: int
    chi_red: int
    max_excess: Optional[Fraction] = None  # max over reduced z of gr(z) - d(Z,i)

    def __post_init__(self) -> None:
        if self.h1_order < 1:
            raise ValueError("h1_order must be positive")
        if self.dim_red < 0:
            raise ValueError("dim_red must be non-negative")
        if abs(self.chi_red) > self.dim_red:
            raise ValueError("|chi_red| cannot exceed dim_red")
        if (self.chi_red - self.dim_red) % 2 != 0:
            raise ValueError("chi_red and dim_red must agree mod 2")


@dataclass(frozen=True, slots=True)
class Verdict:
    rule: str
    status: str
    witness: dict = field(default_factory=dict)


def canonical_json(obj) -> str:
    """Canonical rendering: sorted keys, fixed separators, exact rationals."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_jsonable)


def _jsonable(x):
    """The JSON form of the two types ``json`` cannot hold."""
    if isinstance(x, Verdict):
        return {"rule": x.rule, "status": x.status, "witness": x.witness}
    if isinstance(x, Fraction):
        return str(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def z_special(z: TargetSummary, p: int, q_list: list[int]) -> Verdict:
    """Slope-count gate for a target whose |H1| does not divide chi_red.

    When the divisibility fails, no two surgery slopes p/q for the same Z
    may straddle a multiple of p, and at most phi(|H1(Z)|) slopes exist.
    """
    require_slope(p)
    qs = sorted(set(q_list))
    for q in qs:
        require_slope(p, q)
    witness: dict = {"p": p, "q_list": qs, "h1_order": z.h1_order, "chi_red": z.chi_red}
    if p == 1:
        return Verdict("Z_SPECIAL", INAPPLICABLE, {**witness, "note": "p=1 is vacuous"})
    if z.chi_red % z.h1_order == 0:
        return Verdict(
            "Z_SPECIAL",
            INAPPLICABLE,
            {**witness, "note": "|H1(Z)| divides chi(HF_red(Z))"},
        )
    bound = totient(z.h1_order)
    if len(qs) > bound:
        return Verdict(
            "Z_SPECIAL", FAIL, {**witness, "slope_bound": bound, "reason": "count"}
        )
    for a, b in zip(qs, qs[1:]):
        if a // p != b // p:  # p > 1 divides neither a nor b
            return Verdict(
                "Z_SPECIAL",
                FAIL,
                {**witness, "reason": "straddle", "pair": [a, b]},
            )
    return Verdict("Z_SPECIAL", PASS, {**witness, "slope_bound": bound})


def chi_relation(y_chi: int, z: TargetSummary, p: int) -> list[Verdict]:
    """chi(HF_red(Z)) = p chi(HF_red(Y)) and p | chi(HF_red(Z)).

    The equality is forced when Z arises from both a positive and a
    negative slope with numerator p; the divisibility whenever two
    slopes straddle a multiple of p.
    """
    require_slope(p)
    witness = {"p": p, "chi_red_z": z.chi_red, "chi_red_y": y_chi}
    eq = Verdict(
        "CHI_EQ",
        PASS if z.chi_red == p * y_chi else FAIL,
        {**witness, "expected": p * y_chi},
    )
    div = Verdict(
        "CHI_DIVIS",
        PASS if z.chi_red % p == 0 else FAIL,
        witness,
    )
    return [eq, div]


def dedekind_necessary(p: int, q1: int, q2: int) -> Verdict:
    """s(q1, p) = s(-q2, p) is necessary for Z = Y_{p/q1}(K) = Y_{-p/q2}(K)."""
    s1 = dedekind(q1, p)
    s2 = dedekind(-q2, p)
    status = PASS if s1 == s2 else FAIL
    return Verdict(
        "DEDEKIND_NECESSARY",
        status,
        {"p": p, "q1": q1, "q2": q2, "s_q1": s1, "s_minus_q2": s2},
    )


def n_bound(y: AmbientSummary, z: TargetSummary) -> int:
    """N(Y, Z) = 2 |H1(Z)| dim(HF_red(Y)) + dim(HF_red(Z))."""
    return 2 * z.h1_order * y.dim_red + z.dim_red


def k_special(
    y: AmbientSummary,
    z: TargetSummary,
    p: int,
    q: int,
    model: Optional[KnotModel] = None,
) -> Verdict:
    """Forced conclusions for a knot whose |q| exceeds N(Y, Z).

    With a model the four conclusions (V_0 = 0, trivial Alexander
    polynomial, even and odd reduced dimensions matching the ambient
    ones in every hook module) are evaluated individually; the verdict
    fails if any of them does.
    """
    require_slope(p, q)
    witness: dict = {"p": p, "q": q}
    if y.is_l_space:
        return Verdict(
            "K_SPECIAL",
            INAPPLICABLE,
            {
                **witness,
                "note": "ambient is an L-space; the direct slope bound "
                "|q| <= |H1(Z)| + dim HF_red(Z) applies instead",
            },
        )
    n = n_bound(y, z)
    witness["N"] = n
    if abs(q) <= n:
        return Verdict(
            "K_SPECIAL", INAPPLICABLE, {**witness, "note": "|q| does not exceed N(Y,Z)"}
        )
    conclusions = {
        "v0_zero": None,
        "alexander_trivial": None,
        "dims_even_match": None,
        "dims_odd_match": None,
    }
    if model is None:
        witness["conclusions"] = conclusions
        witness["note"] = "no model supplied; conclusions are forced constraints"
        return Verdict("K_SPECIAL", PASS, witness)
    even_y, odd_y = parity_dims(y.b_red)
    G, columns = max(model.genus, 1), model.columns()
    dims = [parity_dims(columns[k].block.pres) for k in range(1 - G, G)]
    conclusions = {
        "v0_zero": model.v_at(0) == 0,
        "alexander_trivial": alexander_trivial(model),
        "dims_even_match": all(even == even_y for even, _ in dims),
        "dims_odd_match": all(odd == odd_y for _, odd in dims),
    }
    witness["conclusions"] = conclusions
    status = PASS if all(conclusions.values()) else FAIL
    return Verdict("K_SPECIAL", status, witness)


def v0_bound(model: KnotModel, z: TargetSummary, p: int, q: int) -> Verdict:
    """Slope bound q <= p + dim(HF_red(Z)) / V_0 for knots with V_0 > 0.

    Also exposes the intermediate count: block i contributes at least
    n_i V_0 to the reduced part, n_i = #{0 <= j < q : j = i mod p} - 1.
    That witness has p entries, so p above MAX_TABLE_P is refused
    (TooLarge) before it is built.
    """
    v0 = model.v_at(0)
    if v0 == 0:
        raise V0Zero(f"V_0 = 0 for {model.name}; the bound needs V_0 > 0")
    if q < 1:
        raise NotCoprime("the bound applies to positive slopes")
    require_slope(p, q)
    if p > MAX_TABLE_P:
        raise TooLarge(
            f"the n_i witness has {p} entries, more than the limit of {MAX_TABLE_P}"
        )
    n_i = [max(0, len(range(i, q, p)) - 1) for i in range(p)]
    bound = p + Fraction(z.dim_red, v0)
    witness = {
        "p": p,
        "q": q,
        "v0": v0,
        "dim_red_z": z.dim_red,
        "bound": bound,
        "n_i": n_i,
        "forced_dim": v0 * max(0, q - p),
    }
    return Verdict("V0_BOUND", FAIL if q > bound else PASS, witness)


def genus_bound(y: AmbientSummary, z: TargetSummary, p: int, q: int) -> Verdict:
    """floor(q/p) <= (D(Z) - D(Y)) / 2 for exceptional knots of genus > 1.

    D(Z) is the supplied maximal grading excess of reduced elements of Z;
    D(Y) the minimal excess over the ambient reduced part.
    """
    require_slope(p, q)
    if z.max_excess is None:
        raise MissingGradings("target grading excess D(Z) was not supplied")
    d_y = y.min_excess()
    if d_y is None:
        return Verdict(
            "GENUS_BOUND",
            INAPPLICABLE,
            {"note": "ambient is an L-space; no reduced gradings"},
        )
    bound = (z.max_excess - d_y) / 2
    witness = {
        "p": p,
        "q": q,
        "floor_q_over_p": q // p,
        "D_Z": z.max_excess,
        "D_Y": d_y,
        "bound": bound,
    }
    return Verdict("GENUS_BOUND", FAIL if q // p > bound else PASS, witness)


def d_invariant_bounds(
    model: KnotModel, spec: SurgerySpec
) -> tuple[Fraction, Fraction]:
    """(lower, upper) bounds for the d-invariant of the i-th block.

    upper = d(Y) + d(L(p,q), i) - 2 max(V_{floor(i/q)}, H_{floor((i-p)/q)});
    lower subtracts twice the longest odd bar of the ambient reduced part.
    """
    p, q, i = spec.p, spec.q, spec.i
    odd_bar = model.ambient.max_odd_bar()
    return _d_bounds(model, p, q, i, lens_d_at(p, q, i), odd_bar)


def _d_bounds(
    model: KnotModel, p: int, q: int, i: int, lens: Fraction, odd_bar: int
) -> tuple[Fraction, Fraction]:
    """d_invariant_bounds of block i of p/q, given lens = d(L(p,q), i) and
    the longest odd bar of the ambient reduced part."""
    v, h = model.v_at(i // q), model.h_at((i - p) // q)
    upper = model.ambient.d + lens - 2 * max(v, h)
    return upper - 2 * odd_bar, upper


def d_sandwich(model: KnotModel, p: int, q: int) -> Verdict:
    """Computed d-invariants must lie between the two structural bounds.

    When the ambient reduced part has no odd bars the bounds coincide
    and equality is asserted.  The bounds read one lens table.
    """
    require_slope(p)
    odd_bar = model.ambient.max_odd_bar()
    rows = []
    ok = True
    results = surgery(model, p, q).results
    for i, (result, lens) in enumerate(zip(results, lens_invariants(p, q).d_table)):
        lower, upper = _d_bounds(model, p, q, i, lens, odd_bar)
        inside = lower <= result.d <= upper
        if odd_bar == 0:
            inside = inside and result.d == upper
        ok = ok and inside
        rows.append(
            {"i": i, "lower": lower, "d": result.d, "upper": upper, "ok": inside}
        )
    witness = {
        "p": p,
        "q": q,
        "model": model.name,
        "equality_required": odd_bar == 0,
        "per_block": rows,
    }
    return Verdict("D_SANDWICH", PASS if ok else FAIL, witness)


def lens_complement(p: int, q: int, w: int) -> Verdict:
    """Integer slope candidates n = -q w^2/p +- 1 for a knot of winding w.

    An empty candidate set obstructs any non-trivial surgery returning
    the lens space, so the verdict fails; when candidates exist at most
    one of them can actually occur.
    """
    require_slope(p, q)
    if w < 0:
        raise ValueError("winding number must be non-negative")
    witness: dict = {"p": p, "q": q, "w": w}
    if (w * w) % p != 0:
        return Verdict(
            "LENS_COMPLEMENT",
            FAIL,
            {**witness, "candidates": [], "note": "p does not divide w^2"},
        )
    base = -q * (w * w) // p
    candidates = [base + 1, base - 1]
    return Verdict(
        "LENS_COMPLEMENT",
        PASS,
        {
            **witness,
            "candidates": candidates,
            "note": "at most one candidate can occur",
        },
    )


def _matches(ids1: tuple, ids2: tuple, p: int) -> bool:
    """Does a relabelling i -> a i + b mod p (a a unit) send every block of
    one surgery to one of the other with the same homology?  The surgeries
    are given by their block ids from one interner (``surgery``).  Block 0
    goes to block b, so only the b whose block has block 0's id are tried."""
    first = ids1[0]
    offsets = [b for b, k in enumerate(ids2) if k == first]
    for a in range(1, p + 1):
        if gcd(a, p) != 1:
            continue
        for b in offsets:
            if all(ids1[i] == ids2[(a * i + b) % p] for i in range(p)):
                return True
    return False


def unscanned(p: int, q_range: list[int]) -> dict[str, list[int]]:
    """The q of q_range that a cosmetic scan at p skips, ascending, by
    reason: not positive, or not coprime to p."""
    skipped: dict[str, list[int]] = {}
    for q in sorted(set(q_range)):
        if q < 1 or gcd(p, q) != 1:
            why = "not positive" if q < 1 else f"not coprime to {p}"
            skipped.setdefault(why, []).append(q)
    return skipped


def recognise(cases) -> tuple[list[SurgeryResult], list[list[int]]]:
    """The surgeries of the (model, p, q) triples ``cases``, on one dict of
    shapes and one interner (see ``surgery``), and their classes: ascending
    lists of indices of cases whose Floer data match (``_matches``), by
    first index.  Relabellings form a group, so a case meets only the first
    member of each class with its multiset of block ids, which they keep."""
    shapes, interner = {}, {}
    results = [surgery(*case, shapes=shapes, interner=interner) for case in cases]
    classes, by_ids = [], {}
    for j, res in enumerate(results):
        same = by_ids.setdefault(tuple(sorted(res.ids)), [])
        for c in same:
            if _matches(results[c[0]].ids, res.ids, res.p):
                c.append(j)
                break
        else:
            classes.append([j])
            same.append(classes[-1])
    return results, classes


def cosmetic_pair_scan(
    model: KnotModel, p: int, q_range: list[int]
) -> list[tuple[int, int]]:
    """All pairs q1 < q2 whose surgeries have matching Floer data.

    Matching is up to an affine relabeling of the p blocks, so a pair is
    only reported when some relabeling aligns every d-invariant and
    every reduced bar; this quantification makes the scan conservative.
    The pairs lie within the classes of ``recognise``.  A class that
    straddles a multiple of p is asserted to have p | chi(HF_red), which
    its members share, as the divisibility rule demands.
    """
    require_slope(p)
    qs = sorted(set(q_range).difference(*unscanned(p, q_range).values()))
    results, classes = recognise([(model, p, q) for q in qs])
    hits = []
    for c in classes:
        q1, q2 = qs[c[0]], qs[c[-1]]
        if q1 // p != q2 // p and results[c[0]].chi_red % p != 0:
            raise AssertionError(
                f"cosmetic hit ({q1},{q2}) violates the divisibility rule"
            )
        hits += combinations([qs[j] for j in c], 2)
    return sorted(hits)
