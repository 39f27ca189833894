"""The library against the referee on a grid of random models.

Run from the repository root as

    PYTHONPATH=src python tests/referee_grid.py

It builds MODELS random models (``referee.random_model``, seeds 0 to
MODELS - 1) and solves every block at every coprime p <= 5,
q <= 7 with ``cone.cone_homology``; the referee must give the same
offsets on the library's window and on the window widened by one column
each side.  Prints the block count and the time, and exits 1 at the
first mismatch.  Tier-1 does not collect this file (its name does not
start with ``test_``); CI runs it as a step of its own.
"""

from __future__ import annotations

import sys
import time
from math import gcd

from floersurgery import cone

from referee import random_model, referee

MODELS = 200
SLOPES = [(p, q) for p in range(1, 6) for q in range(1, 8) if gcd(p, q) == 1]


def main() -> int:
    start, blocks = time.perf_counter(), 0
    for seed in range(MODELS):
        model = random_model(seed)
        for p, q in SLOPES:
            for i in range(p):
                solved = cone.cone_homology(model, cone._shape(model, p, q, i))
                for widen in (0, 1):
                    refereed = referee(model, p, q, i, widen)
                    if refereed != solved:
                        print(f"seed {seed} at {p}/{q} block {i}, widened by "
                              f"{widen}: library {solved}, referee {refereed}")
                        return 1
                blocks += 1
    print(f"{blocks} blocks of {MODELS} random models agree with the referee "
          f"in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
