"""Benchmark of the floersurgery calculator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see workloads.py for the
inputs and why each was chosen): genus_ladder, slope_scan, lens_sweep.

Every repetition runs in a fresh interpreter (worker.py), so imports
and the library's caches start cold, as they do for a CLI user.
Repetitions of the same seeded inputs run one after another, single
threaded, for about S seconds (at least three).  With ``--trace 0`` the
result carries the medians over repetitions of

* wall_s        time to solve the whole case list after set-up;
* setup_s       time from starting the interpreter to models ready
                (import, input generation, load_model validation);
* peak_rss_mib  peak resident memory of the repetition.

Both times are scaled to a reference host speed (see worker.py: on a
shared host the raw times swing by up to 2x); the summary lines also
show the unscaled medians and the median probe.

With ``--trace 1`` untraced and traced repetitions alternate; the
result carries the per-layer metrics of the traced ones (counts must
repeat exactly; times are medians, each scaled by its repetition's
wall_s / unscaled wall) and trace.overhead_s, the traced minus the
untraced median wall_s.

Every case is checked (see workloads.py); for the default seed the
digest of all outputs must also equal the one in digests.json.  A human
summary with fail_frac (failed cases / attempted cases) goes to stdout,
failure messages to stderr, and the last stdout line is the JSON
result.  Each result is also appended, with the Python version, CPU
count and commit, to .perfbench/results.jsonl.  Exit status: 0 when
every case passed, 1 when a check failed, 2 when the benchmark could
not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("genus_ladder", "slope_scan", "lens_sweep")
DEFAULT_SEED = 0  # digests.json holds the output digests for this seed
MIN_REPS = 3
TIME_LIMIT_S = 170  # the whole command must end well within 180 s


class BenchError(Exception):
    """The benchmark itself could not run."""


def run_worker(workload: str, seed: int, trace: bool, deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(int(trace)),
    ]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition ran over {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"worker exited with {proc.returncode}:\n{proc.stderr.strip()[-2000:]}"
        )
    try:
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"worker printed no result: {proc.stdout[-500:]!r}") from exc
    rec["setup_raw_s"] = rec.pop("ready_monotonic") - started
    rec["setup_s"] = scaled(rec["setup_raw_s"], rec["ready_probe_s"])
    rec["elapsed_s"] = time.monotonic() - started
    return rec


def repetitions(workload: str, seed: int, seconds: float, trace: bool):
    """Run repetitions for about ``seconds``; return (untraced, traced) records."""
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        use_trace = trace and len(traced) < len(plain)
        (traced if use_trace else plain).append(
            run_worker(workload, seed, use_trace, deadline)
        )
        done = len(plain) >= MIN_REPS and (not trace or len(traced) >= MIN_REPS)
        # predict the next repetition from the last one of its kind
        nxt = traced if trace and len(traced) < len(plain) else plain
        expected = (nxt or plain)[-1]["elapsed_s"]
        if time.monotonic() + expected > (start + seconds if done else deadline):
            if not done:
                raise BenchError(f"{MIN_REPS} repetitions overran {TIME_LIMIT_S} s")
            return plain, traced


def machine() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT, capture_output=True, text=True, timeout=10,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
    }


def committed_digest(workload: str) -> str:
    return json.loads((HERE / "digests.json").read_text(encoding="utf-8"))[workload]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        plain, traced = repetitions(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except BenchError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2

    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(len(r["failures"]) for r in reps)
    problems = sorted({f for r in reps for f in r["failures"]})
    digests = {r["digest"] for r in reps}
    if len(digests) != 1:
        problems.append("outputs differ between repetitions of the same inputs")
    elif args.seed == DEFAULT_SEED and digests != {committed_digest(args.workload)}:
        problems.append(f"output digest {digests.pop()} differs from digests.json")

    def median_of(key: str) -> float:
        return statistics.median(r[key] for r in plain)

    wall = median_of("wall_s")
    if args.trace:
        metrics = {}
        for name, (_, unit) in traced[0]["layers"].items():
            values = [r["layers"][name][0] for r in traced]
            if unit == "count":
                if len(set(values)) != 1:
                    problems.append(f"{name} differs between repetitions: {values}")
                metrics[name] = {"value": values[0], "unit": unit}
                continue
            if unit == "s":  # to reference speed, by the repetition's own factor
                values = [
                    v * r["wall_s"] / r["wall_raw_s"] for v, r in zip(values, traced)
                ]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(r["wall_s"] for r in traced) - wall,
            "unit": "s",
        }
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": median_of("setup_s"), "unit": "s"},
            "peak_rss_mib": {"value": median_of("peak_rss_kib") / 1024, "unit": "MiB"},
        }

    correct = failed == 0 and not problems
    for line in problems[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    info = machine()
    print(
        f"{args.workload} seed={args.seed} trace={args.trace} "
        f"reps={len(plain)}+{len(traced)} "
        f"python={info['python']} nproc={info['nproc']} commit={info['commit'][:12]}"
    )
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    probes = [b for r in plain for _, b, _ in r["segments"]]
    print(
        f"  unscaled: wall = {median_of('wall_raw_s'):.6g} s, "
        f"setup = {median_of('setup_raw_s'):.6g} s, "
        f"probe = {statistics.median(probes) * 1e3:.4g} ms"
    )
    print(f"  fail_frac = {failed / attempted:.6g} ({failed}/{attempted} cases)")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    with (out / "results.jsonl").open("a", encoding="utf-8") as f:
        f.write(json.dumps({
            **info,
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "reps": [
                {k: v for k, v in r.items() if k not in ("failures", "layers")}
                for r in reps
            ],
            "result": result,
        }) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
