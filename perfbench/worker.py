"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1

Imports floersurgery from the checkout's ``src``, builds and loads the
workload's inputs, solves its cases one by one, checks every case and
prints one JSON line: the monotonic clock when the models were ready
(the parent turns it into setup time), the solve time, the peak
resident memory, the case counts, failure messages and a digest of the
outputs.  With ``--trace 1`` it also reports per-layer metrics and
writes its spans under ``.perfbench/spans``.  ``run.py`` starts this;
run it by hand only to debug.

Host speed.  On a shared machine the same code runs up to 2x slower
for seconds at a time when neighbours are busy.  So while the cases
run, a timer interrupts every SEGMENT_S seconds and times a fixed probe
(plain Python reference work, no library code).  Each segment between
two probes is scaled by (PROBE_REF_S / p) ** SLOWDOWN_EXPONENT, p being
the mean of the probes at its two ends, and ``wall_s`` is the sum: the
solve time on a host where the probe takes PROBE_REF_S.  The solve
slows a little more than the probe (time ~ p ** 1.26 on genus_ladder,
p ** 1.08 on slope_scan, fitted over repetitions on a 2-vCPU Xeon
host); with the exponent at 1.25 the run-to-run spread of wall_s on
those two workloads fell from 16-24% (unscaled) to 2-3%.  ``wall_raw_s``
is the unscaled sum.  Probe time is excluded from both, and from every
traced span.  Set-up time is scaled the same way by the first probe.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SEGMENT_S = 0.25
PROBE_REF_S = 0.005  # about the probe's time on an idle 2-vCPU Xeon host
SLOWDOWN_EXPONENT = 1.25


def _reference_work() -> tuple:
    """Fixed pure-Python work (Fraction sums, integer bit mixing).

    The mix resembles the library's (rational gradings, bitmask
    columns), so its run time follows the solve time's host slowdowns
    (the solve time goes as its power SLOWDOWN_EXPONENT).
    """
    total = Fraction(0)
    for k in range(1, 800):
        total += Fraction(k * 7 % 13, k)
    x = 0
    for i in range(25000):
        x ^= (x << 1 | i) & 0xFFFFFFFF
    return total, x


def probe_s() -> float:
    """Host speed now: the fastest of three runs of the reference work."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _reference_work()
        best = min(best, time.perf_counter() - start)
    return best


def scaled(seconds: float, probe: float) -> float:
    """``seconds`` measured while the probe took ``probe``, at reference speed."""
    return seconds * (PROBE_REF_S / probe) ** SLOWDOWN_EXPONENT


class HostClock:
    """Times the work inside ``with`` in segments between host probes."""

    def __init__(self, trace=None):
        self.trace = trace
        # (work seconds, probe before, probe after) per segment
        self.segments: list[tuple[float, float, float]] = []

    def __enter__(self) -> "HostClock":
        _reference_work()  # warm up
        self._before = probe_s()
        self._mark = time.perf_counter()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SEGMENT_S, SEGMENT_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._close_segment()

    def _on_alarm(self, signum, frame) -> None:
        self._close_segment()

    def _close_segment(self) -> None:
        measured = time.perf_counter() - self._mark
        with self.trace.excluded() if self.trace else nullcontext():
            after = probe_s()
        self.segments.append((measured, self._before, after))
        self._before = after
        self._mark = time.perf_counter()

    @property
    def wall_s(self) -> float:
        return sum(scaled(t, (b + a) / 2) for t, b, a in self.segments)

    @property
    def raw_s(self) -> float:
        return sum(t for t, _, _ in self.segments)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "floersurgery" / "__init__.py").is_file():
        print(f"no floersurgery sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import floersurgery
    import floersurgery.cli  # noqa: F401  (a CLI user pays this import too)

    if Path(floersurgery.__file__).resolve().parent != SRC / "floersurgery":
        print(f"imported floersurgery from {floersurgery.__file__}", file=sys.stderr)
        return 2

    import tracer
    import workloads

    trace = tracer.Tracer() if args.trace else None
    if trace:
        trace.install()
        trace.active = True
    work = workloads.WORKLOADS[args.workload](args.seed)
    work.setup()
    ready = time.monotonic()

    outputs = []
    with HostClock(trace) as clock:
        for i in range(len(work.cases)):
            try:
                outputs.append(work.solve_case(i))
            except Exception as exc:  # a failed case is counted by check(), not fatal
                outputs.append(exc)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    record = {
        "ready_monotonic": ready,
        "ready_probe_s": clock.segments[0][1],
        "wall_s": clock.wall_s,
        "wall_raw_s": clock.raw_s,
        "segments": clock.segments,
        "peak_rss_kib": peak_kib,
    }
    if trace:
        trace.active = False
        record["layers"] = trace.metrics()
    verdict = work.check(outputs)
    record.update(
        attempted=verdict.attempted,
        failures=verdict.failures,
        digest=verdict.digest,
    )
    if trace:
        spans = f"{args.workload}-seed{args.seed}.tsv"
        trace.write(ROOT / ".perfbench" / "spans" / spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
