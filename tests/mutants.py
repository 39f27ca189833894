"""Planted bugs that tier-1 must catch: a ratchet on the tests' strength.

Run from the repository root as

    python tests/mutants.py

Each entry of BUGS is one single-line bug: a file of the package, a line
of it (stripped, found exactly once), the line that replaces it, why the
bug is wrong, and the node ids of a few quick tier-1 tests that catch
it.  The script copies ``src/`` to a temporary directory, plants one bug
there, and runs those tests against the copy with ``pytest -x``; the bug
is caught when they fail.  It first runs every named test on the
unplanted copy, which must pass.  EQUIVALENT lists bugs that change no
reachable behaviour, with the reason; each is planted and run against
whole test files, and must survive, so a test that starts to catch one
moves it to BUGS.  Prints one line per bug and exits 1 if a listed bug
survives, an equivalent one is caught, or a line is not found.  Tier-1
does not collect this file; CI runs it as a step of its own.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src/floersurgery")
TIMEOUT_S = 120  # each run takes a few seconds with no bug planted


class Bug(NamedTuple):
    file: str
    old: str
    new: str
    why: str
    tests: tuple[str, ...]


def node(file: str, *tests: str) -> tuple[str, ...]:
    """The node ids of the named tests of one tier-1 test file."""
    return tuple(f"tests/{file}::{test}" for test in tests)


numth = partial(node, "test_numth.py")
cone = partial(node, "test_cone.py")
oracles = partial(node, "test_oracles.py")
COKERNEL_U = cone("test_the_cokernel_u_action_is_read_modulo_the_image")
GENUS2 = cone("test_genus2_model_frozen_block")
REFEREE = oracles("test_random_models_agree_with_the_referee")

BUGS = [
    Bug(
        "numth.py",
        "first = [(c * c - t) // r for c, t in zip(range(1 - p - r, 1 - p, 2), terms)]",
        "first = [(c * c + t) // r for c, t in zip(range(1 - p - r, 1 - p, 2), terms)]",
        "the lens fold adds the child's terms instead of subtracting them",
        numth("test_lens_tables_at_the_palindrome_boundaries", "test_lens_d_anchors"),
    ),
    Bug(
        "numth.py",
        "sigma = (p * p + r * r + 1 - p * sigma) // r - 3 * p",
        "sigma = (p * p + r * r - 1 - p * sigma) // r - 3 * p",
        "Dedekind reciprocity loses its 1/(pr) term",
        numth("test_dedekind_small_values", "test_dedekind_matches_reference_oracle"),
    ),
    Bug(
        "numth.py",
        "if p > MAX_TABLE_P:",
        "if p > MAX_TABLE_P + 1:",
        "a whole lens table one entry over the limit is built, not refused",
        numth("test_whole_tables_are_refused_above_the_limit"),
    ),
    Bug(
        "numth.py",
        "if 3 * sum(_mirror(first, second, p, r)) != p * sigma:",
        "if False:",
        "lens_invariants returns a table that breaks sum d = p s",
        numth("test_lens_invariants_refuses_a_table_off_the_sum_identity"),
    ),
    Bug(
        "cone.py",
        "n_minus = ((1 - G) * q - 1 - i) // p",
        "n_minus = ((1 - G) * q - i) // p",
        "_shape's window starts one column late when p divides (1 - G) q - i",
        cone("test_window_enumeration_oracle", "test_window_trefoil_2_3_block0"),
    ),
    Bug(
        "cone.py",
        "cuts = sorted({b * q % p for b in range(1 - G, G + 1)} | {p})",
        "cuts = sorted({b * q % p for b in range(1 - G, G)} | {p})",
        "surgery drops the last cut b = G, so two shapes share a run",
        cone(
            "test_trefoil_2_3_frozen_values",
            "test_surgery_computes_at_most_2g_shapes",
        ),
    ),
    Bug(
        "cone.py",
        "cuts = sorted({b * q % p for b in range(1 - G, G + 1)} | {p})",
        "cuts = sorted({b * q % p for b in range(2 - G, G + 1)} | {p})",
        "surgery drops the lowest cut b = 1 - G, so two shapes share a run",
        cone("test_unknot_cone_is_lens_space", "test_trefoil_2_3_frozen_values"),
    ),
    Bug(
        "cone.py",
        "if low < run:",
        "if low > run:",
        "the tower sweep's elder rule keeps the younger run",
        cone(
            "test_edge_born_at_the_younger_bottom_gives_no_bar",
            "test_tower_sweep_matches_the_union_find_reference",
        ),
    ),
    Bug(
        "cone.py",
        "del bars[bisect_left(bars, near[0])]",
        "del bars[0]",
        "_offsets drops the lowest bar instead of the tower",
        cone("test_trefoil_2_3_frozen_values", "test_exactly_one_tower_per_block"),
    ),
    Bug(
        "cone.py",
        "cokernel.append((g, i, below.reduce(u)[0]))",
        "cokernel.append((g, i, u))",
        "_reduced_bars leaves a cokernel generator's U-image unreduced",
        COKERNEL_U + oracles("test_the_library_equals_the_referee_on_random_models"),
    ),
    Bug(
        "cone.py",
        "count[g] = numbers[-1] + 1",
        "count[g] = numbers[-1]",
        "_numbered hands the next generator at a grading the number just taken",
        GENUS2 + REFEREE,
    ),
    Bug(
        "cone.py",
        "return 1 << numbers[mask.bit_length() - 1]",
        "return 1 << numbers[0]",
        "_moved sends a one-bit column to the number of generator 0",
        GENUS2 + REFEREE,
    ),
    Bug(
        "cone.py",
        "return sum(1 << numbers[b] for b in gf2.bits(mask))",
        "return 1 << numbers[mask.bit_length() - 1]",
        "_moved keeps only the highest bit of a column of several",
        COKERNEL_U + oracles("test_the_library_equals_the_referee_on_random_models"),
    ),
    Bug(
        "cone.py",
        "for m, col in ((n, v), (n + 1, h)):",
        "for m, col in ((n, h), (n + 1, v)):",
        "_reduced_bars sends v into B-column n + 1 and h into n",
        GENUS2 + REFEREE,
    ),
    Bug(
        "cone.py",
        "a_at.setdefault(a + off, []).append(u and _moved(u, numbers))",
        "a_at.setdefault(a + off, []).append(u)",
        "_reduced_bars leaves an A-generator's U-image on its block's indices",
        COKERNEL_U + REFEREE,
    ),
    Bug(
        "cone.py",
        "b_at.setdefault(b + off, []).append(u and _moved(u, numbers))",
        "b_at.setdefault(b + off, []).append(u)",
        "_reduced_bars leaves a B-generator's U-image on the ambient's indices",
        COKERNEL_U + REFEREE,
    ),
    Bug(
        "cone.py",
        "(a + b, n)",
        "(a + b + 2, n)",
        "_reduced_bars moves an L-space column's barcode above its A-bottom",
        cone("test_figure8_dim_formula"),
    ),
    Bug(
        "cone.py",
        "tau = Tau(Fraction(num + b * den, den), n, b % 2)",
        "tau = Tau(Fraction(num + b * den, den), n, (b + 1) % 2)",
        "_read_off gives each bar the other parity",
        cone("test_trefoil_2_3_frozen_values", "test_parities_relative_to_tower"),
    ),
    Bug(
        "cone.py",
        "key = (base + den * lens, scale, bars)",
        "key = (base + lens, scale, bars)",
        "the interner key adds N unscaled by the denominator of d(Y), which "
        "only an ambient whose d is not an integer shows",
        cone("test_one_interner_serves_every_ambient"),
    ),
    Bug(
        "cone.py",
        "den = lcm(*{d.denominator for d in ds})",
        "den = max(d.denominator for d in ds)",
        "d_sum rescales the blocks' numerators to the largest denominator, "
        "which the others need not divide",
        cone("test_d_sum_is_the_fraction_sum_over_a_fractional_ambient_d"),
    ),
    Bug(
        "obstruct.py",
        "offsets = [b for b, k in enumerate(ids2) if k == first]",
        "offsets = [0]",
        "_matches tries only the relabellings that fix block 0",
        (
            *node("test_obstruct.py", "test_matches_is_affine_relabelling"),
            *node(
                "test_identities.py",
                "test_moser_torus_knot_surgery_is_a_lens_space",
            ),
        ),
    ),
    Bug(
        "obstruct.py",
        "c.append(j)",
        "classes.append([j])",
        "recognise opens a class of its own for every case, so nothing matches",
        (
            *node(
                "test_obstruct.py",
                "test_cosmetic_scan_unknot_finds_the_classical_pair",
            ),
            *node(
                "test_identities.py",
                "test_moser_torus_knot_surgery_is_a_lens_space",
            ),
        ),
    ),
    Bug(
        "obstruct.py",
        "if q1 // p != q2 // p and results[c[0]].chi_red % p != 0:",
        "if q1 // p == q2 // p and results[c[0]].chi_red % p != 0:",
        "the scan checks divisibility on the classes that straddle no "
        "multiple of p instead of on those that do",
        node(
            "test_obstruct.py",
            "test_cosmetic_scan_sums_each_chi_once_and_asserts_divisibility",
        ),
    ),
    Bug(
        "knotmodel.py",
        "if lhs != rhs:",
        "if False:",
        "the model constructor no longer checks a map's U-equivariance",
        node("test_knotmodel.py", "test_map_not_u_equivariant"),
    ),
    Bug(
        "knotmodel.py",
        "if blk != derived:",
        "if blk.pres != derived.pres:",
        "a redundant block's maps are not checked against the symmetry",
        node("test_knotmodel.py", "test_symmetry_violation_on_stored_negative_block"),
    ),
    Bug(
        "knotmodel.py",
        'raise ModelError("NonHomogeneousU", f"{what}: {e}") from None',
        'raise ModelError("MapNotEquivariant", f"{what}: {e}") from None',
        "a presentation's refused U is reported under another model error code",
        node(
            "test_knotmodel.py",
            "test_validate_error_code_appears_once",
            "test_dense_non_homogeneous_block_is_refused_without_matrix_products",
        ),
    ),
    Bug(
        "fmod.py",
        "for j, i in degree_violations(m.u_cols, gs, gs, -2):",
        "for j, i in degree_violations(m.u_cols, gs, gs, 2):",
        "validate asks U to raise gradings by 2 instead of lowering them",
        node(
            "test_fmod.py",
            "test_u_decreases_grading_by_two_enforced",
            "test_validate_matches_reference",
            "test_validate_homogeneous_runs_no_matrix_products",
        ),
    ),
]

EQUIVALENT: list[Bug] = []


def planted(src: Path, bug: Bug) -> str:
    """Plant the bug in the copy at ``src``, keeping the line's indent;
    an error message if its line is not found exactly once."""
    path = src / "floersurgery" / bug.file
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    hits = [j for j, line in enumerate(lines) if bug.old in line]
    if len(hits) != 1:
        return f"{len(hits)} lines of {bug.file} hold {bug.old!r}"
    line = lines[hits[0]]
    lines[hits[0]] = line.replace(bug.old, bug.new)
    path.write_text("".join(lines), encoding="utf-8")
    return ""


def failing(src: Path, tests) -> str:
    """The first test that fails against the package at ``src``, or ""
    when they all pass (the exit code when pytest names none, and a run
    past TIMEOUT_S, as a planted bug may loop, counts as failing).  Only
    the failing test's name is read, so asserts run plain: rewriting them
    would cost each run about a second of its few."""
    command = [
        sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
        "--assert=plain", "--hypothesis-seed=0", "-o", f"pythonpath={src}", *tests,
    ]
    try:
        run = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return f"a run of more than {TIMEOUT_S} s"
    if run.returncode == 0:
        return ""
    names = [line.split()[1] for line in run.stdout.splitlines()
             if line.startswith(("FAILED ", "ERROR "))]
    return names[0] if names else f"pytest exit code {run.returncode}"


def main() -> int:
    start, failures = time.perf_counter(), 0
    with tempfile.TemporaryDirectory() as scratch:
        src = Path(scratch) / "src"
        shutil.copytree(ROOT / PACKAGE, src / "floersurgery")
        named = sorted({t for bug in BUGS + EQUIVALENT for t in bug.tests})
        broken = failing(src, named)
        if broken:
            print(f"with no bug planted, {broken} fails")
            return 1
        runs = [(bug, False) for bug in BUGS] + [(bug, True) for bug in EQUIVALENT]
        for bug, equivalent in runs:
            shutil.rmtree(src)
            shutil.copytree(ROOT / PACKAGE, src / "floersurgery")
            error = planted(src, bug)
            caught = "" if error else failing(src, bug.tests)
            if error:
                status = f"NOT PLANTED: {error}"
            elif caught:
                status = f"caught by {caught}"
                status += ", yet LISTED AS EQUIVALENT" if equivalent else ""
            else:
                status = "survived, as an equivalent bug" if equivalent else "SURVIVED"
            failures += bool(error) or bool(caught) == equivalent
            print(f"{bug.file}: {bug.why}: {status}")
    print(f"{len(BUGS)} bugs, {len(EQUIVALENT)} equivalent, {failures} failures "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
