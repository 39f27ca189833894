"""Seeded inputs, solvers and correctness gates of the benchmark workloads.

Each workload is built from a seed (same seed, same inputs), loads its
models in ``setup``, computes case ``i`` in ``solve_case(i)`` and checks
every case's output (or the exception it raised) in ``check`` against
oracles that do not use the matrix path:

* genus_ladder -- surgeries on generated staircase L-space models.  The
  reduced bar count must be max(0, (2g-1)q - p) (Ozsvath-Szabo, Knot
  Floer homology and rational surgeries, arXiv math/0504404) and the
  Casson-Walker value read off HF must match the surgery formula.
* slope_scan -- cosmetic_pair_scan on three models at seeded primes p.
  Every surgery passes the Casson-Walker check, every block's d lies in
  d_invariant_bounds, and every reported pair has equal multisets of
  d-invariants and reduced bars.
* lens_sweep -- lens_invariants for every coprime 1 <= q <= p <= 120 in
  a seeded order.  sum_i d(L(p,q), i) = p s(q,p) and Dedekind
  reciprocity must hold.

The library only ever sees the generated inputs.  Calls go through the
``floersurgery`` package attributes at call time, so a tracer installed
over them sees every call.
"""

from __future__ import annotations

import hashlib
import json
import random
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path

import floersurgery
from floersurgery import cli, obstruct

MODELS_DIR = Path(__file__).resolve().parent / "models"

# genus_ladder: (genus, p, q) per case.
LADDER = ((12, 1, 2), (16, 3, 2), (18, 2, 1), (20, 1, 1), (20, 3, 2))

# slope_scan: (model, q runs over 1..q_max), and the rows of primes p
# (one per model) that the seed draws from.  The rows cost the same
# within about 1%: figure-eight moves up the band as the trefoil moves
# down, so the seed changes the cones but not the run time.
SCAN_MODELS = (("figure8_s3", 6), ("trefoil_rh_s3", 5), ("genus2_stress", 8))
SCAN_PRIMES = ((41, 41, 23), (43, 37, 23))

LENS_P_MAX = 120


def staircase_doc(genus: int, rng: random.Random) -> dict:
    """Model document of an L-space knot in S^3 with a staircase V.

    V drops by one at ceil(g/2) positions, so V_0 = ceil(g/2) and
    V_g = 0.  One drop sits at k = g-1 (making g the genus); each other
    drop is placed by ``rng`` in its own pair of positions {2m, 2m+1}.
    That keeps max_k (V_k + H_k), and with it the truncation depth and
    the cone size, the same for every seed.  The reduced blocks are
    empty, as for any L-space knot.
    """
    drops = {genus - 1}
    drops.update(2 * m + rng.randrange(2) for m in range((genus + 1) // 2 - 1))
    V = []
    v = (genus + 1) // 2
    for k in range(genus + 1):
        V.append(v)
        if k in drops:
            v -= 1
    empty = {
        "generators": [],
        "u_matrix": [],
        "v_matrix": [],
        "h_matrix": [],
        "tower_offset": "0",
    }
    return {
        "name": f"staircase_g{genus}",
        "ambient": {"name": "S3", "d": "0", "b_red": [], "u_matrix": []},
        "genus": genus,
        "V": V,
        "a_red": {str(k): dict(empty) for k in range(genus)},
    }


def model_doc(name: str) -> dict:
    """A shipped model (as a CLI user names it) or one of the benchmark's."""
    local = MODELS_DIR / f"{name}.json"
    path = local if local.is_file() else cli.resolve_model_path(name)
    return json.loads(path.read_text(encoding="utf-8"))


@dataclass
class Verdict:
    attempted: int
    failures: list[str]  # one entry per failed case
    digest: str


def digest(records) -> str:
    text = json.dumps(records, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def surgery_record(res) -> list:
    return [
        res.p,
        res.q,
        [[r.d, [[b.bottom, b.length, b.parity] for b in r.red]] for r in res.results],
    ]


def casson_walker_problem(model, res) -> str | None:
    """Casson-Walker value from the Floer data against the surgery formula."""
    lam_y = floersurgery.lambda_from_hf(model.ambient.chi_red, model.ambient.d, 1)
    delta2 = floersurgery.torsion_coefficients(model).delta2
    via_hf = floersurgery.lambda_from_hf(res.chi_red, res.d_sum, res.p)
    via_formula = floersurgery.casson_walker_surgery(
        floersurgery.CassonWalkerInput(lam_y, 1, delta2, res.p, res.q)
    )
    if via_hf != via_formula:
        return f"Casson-Walker {via_hf} from HF, {via_formula} from the formula"
    return None


class GenusLadder:
    name = "genus_ladder"

    def __init__(self, seed: int, cases=LADDER):
        rng = random.Random(seed)
        self.cases = [(staircase_doc(g, rng), p, q) for g, p, q in cases]

    def setup(self) -> None:
        self.models = [floersurgery.load_model(doc) for doc, _, _ in self.cases]

    def solve_case(self, i: int):
        _, p, q = self.cases[i]
        return floersurgery.surgery(self.models[i], p, q)

    def check(self, outputs: list) -> Verdict:
        failures = []
        records = []
        for model, (doc, p, q), res in zip(self.models, self.cases, outputs):
            case = f"g={doc['genus']} V={doc['V']} {p}/{q}"
            if isinstance(res, Exception):
                failures.append(f"{case}: raised {res!r}")
                continue
            problems = []
            bars = sum(len(r.red) for r in res.results)
            expected = max(0, (2 * doc["genus"] - 1) * q - p)
            if bars != expected:
                problems.append(f"{bars} reduced bars, expected {expected}")
            cw = casson_walker_problem(model, res)
            if cw:
                problems.append(cw)
            if problems:
                failures.append(f"{case}: " + "; ".join(problems))
            records.append([doc["V"], surgery_record(res)])
        return Verdict(len(self.cases), failures, digest(records))


@contextmanager
def recorded_surgeries():
    """Collect the SurgeryResult of every surgery the obstruct module runs."""
    results = []
    inner = obstruct.surgery

    def surgery(*args, **kwargs):
        res = inner(*args, **kwargs)
        results.append(res)
        return res

    obstruct.surgery = surgery
    try:
        yield results
    finally:
        obstruct.surgery = inner


class SlopeScan:
    name = "slope_scan"

    def __init__(self, seed: int, models=SCAN_MODELS, primes=SCAN_PRIMES):
        row = random.Random(seed).choice(primes)
        self.cases = [
            (model_doc(name), p, list(range(1, q_max + 1)))
            for (name, q_max), p in zip(models, row)
        ]

    def setup(self) -> None:
        self.models = [floersurgery.load_model(doc) for doc, _, _ in self.cases]

    def solve_case(self, i: int):
        _, p, qs = self.cases[i]
        with recorded_surgeries() as computed:
            hits = floersurgery.cosmetic_pair_scan(self.models[i], p, qs)
        return hits, computed

    def check(self, outputs: list) -> Verdict:
        failures = []
        records = []
        attempted = 0
        for model, (_, p, qs), out in zip(self.models, self.cases, outputs):
            expected_qs = [q for q in qs if gcd(p, q) == 1]
            attempted += len(expected_qs)
            if isinstance(out, Exception):
                failures += [
                    f"{model.name} {p}/{q}: scan raised {out!r}" for q in expected_qs
                ]
                continue
            hits, computed = out
            by_q = {res.q: res for res in computed}
            for q in expected_qs:
                res = by_q.get(q)
                if res is None:
                    failures.append(f"{model.name} {p}/{q}: never computed")
                    continue
                problems = [casson_walker_problem(model, res)]
                for r in res.results:
                    lo, up = floersurgery.d_invariant_bounds(
                        model, floersurgery.SurgerySpec(p, q, r.i)
                    )
                    if not lo <= r.d <= up:
                        problems.append(f"block {r.i}: d={r.d} outside [{lo}, {up}]")
                problems = [x for x in problems if x]
                if problems:
                    failures.append(f"{model.name} {p}/{q}: " + "; ".join(problems))
            for q1, q2 in hits:
                if q1 in by_q and q2 in by_q and _invariant_multiset(
                    by_q[q1]
                ) != _invariant_multiset(by_q[q2]):
                    failures.append(
                        f"{model.name} {p}: reported pair ({q1},{q2}) has "
                        "different d-invariants or bars"
                    )
            surgeries = [surgery_record(by_q[q]) for q in sorted(by_q)]
            records.append([model.name, p, list(hits), surgeries])
        return Verdict(attempted, failures, digest(records))


def _invariant_multiset(res) -> list:
    return sorted((r.d, r.red) for r in res.results)


def coprime_pairs(p_max: int) -> list[tuple[int, int]]:
    return [
        (p, q) for p in range(1, p_max + 1) for q in range(1, p + 1) if gcd(p, q) == 1
    ]


class LensSweep:
    name = "lens_sweep"

    def __init__(self, seed: int, p_max: int = LENS_P_MAX):
        self.cases = coprime_pairs(p_max)
        random.Random(seed).shuffle(self.cases)

    def setup(self) -> None:
        pass

    def solve_case(self, i: int):
        return floersurgery.lens_invariants(*self.cases[i])

    def check(self, outputs: list) -> Verdict:
        failures = []
        records = []
        for (p, q), inv in zip(self.cases, outputs):
            case = f"L({p},{q})"
            if isinstance(inv, Exception):
                failures.append(f"{case}: raised {inv!r}")
                continue
            problems = []
            if sum(inv.d_table, Fraction(0)) != p * inv.s:
                problems.append(f"sum of d is {sum(inv.d_table)}, not p s(q,p)")
            # s(q,p) + s(p,q) = (p/q + q/p + 1/(pq)) / 12 - 1/4
            reciprocity = (
                Fraction(p, q) + Fraction(q, p) + Fraction(1, p * q)
            ) / 12 - Fraction(1, 4)
            if inv.s + floersurgery.dedekind(p, q) != reciprocity:
                problems.append("Dedekind reciprocity fails")
            if problems:
                failures.append(f"{case}: " + "; ".join(problems))
            records.append([p, q, inv.s, inv.lam, inv.tau, list(inv.d_table)])
        records.sort()
        return Verdict(len(self.cases), failures, digest(records))


WORKLOADS = {w.name: w for w in (GenusLadder, SlopeScan, LensSweep)}
