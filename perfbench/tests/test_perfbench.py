"""Tests of the benchmark's own machinery: inputs, gates and tracing.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import floersurgery  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SMALL_LADDER = ((4, 3, 2), (5, 1, 1))
SMALL_SCAN = dict(models=(("trefoil_rh_s3", 3), ("genus2_stress", 4)), primes=((5, 3),))


def solved(work):
    work.setup()
    return [work.solve_case(i) for i in range(len(work.cases))]


@pytest.mark.parametrize("seed", [0, 1, 2, 7, 1234])
def test_staircase_models_load_and_keep_their_shape(seed):
    rng = random.Random(seed)
    for genus in (1, 2, 3, 12, 20):
        model = floersurgery.load_model(workloads.staircase_doc(genus, rng))
        V = model.V
        assert V[0] == (genus + 1) // 2 and V[genus - 1] == 1 and V[genus] == 0
        assert all(a - b in (0, 1) for a, b in zip(V, V[1:]))


def test_staircase_depth_does_not_depend_on_the_seed():
    spec = floersurgery.SurgerySpec(3, 2, 0)
    models = [
        floersurgery.load_model(workloads.staircase_doc(20, random.Random(seed)))
        for seed in range(10)
    ]
    depths = {floersurgery.default_depth(model, spec) for model in models}
    assert len(depths) == 1


@pytest.mark.parametrize("seed", [0, 3, 99])
def test_every_workload_sets_up_for_several_seeds(seed):
    workloads.GenusLadder(seed).setup()
    scan = workloads.SlopeScan(seed)
    scan.setup()
    assert [m.name for m in scan.models] == [name for name, _ in workloads.SCAN_MODELS]
    assert tuple(p for _, p, _ in scan.cases) in workloads.SCAN_PRIMES
    lens = workloads.LensSweep(seed)
    assert sorted(lens.cases) == workloads.coprime_pairs(workloads.LENS_P_MAX)


def test_same_seed_same_inputs():
    a, b = workloads.GenusLadder(5), workloads.GenusLadder(5)
    assert [c[0]["V"] for c in a.cases] == [c[0]["V"] for c in b.cases]
    assert workloads.LensSweep(5).cases == workloads.LensSweep(5).cases


def _drop_one_bar(res):
    blocks = list(res.results)
    for idx, block in enumerate(blocks):
        if block.red:
            blocks[idx] = dataclasses.replace(block, red=block.red[1:])
            return dataclasses.replace(res, results=tuple(blocks))
    raise AssertionError("no reduced bar to drop")


def _shift_d(res, block_index=0):
    blocks = list(res.results)
    block = blocks[block_index]
    blocks[block_index] = dataclasses.replace(block, d=block.d + 2)
    return dataclasses.replace(res, results=tuple(blocks))


def test_ladder_gate_passes_and_trips_on_corruption():
    work = workloads.GenusLadder(0, cases=SMALL_LADDER)
    outputs = solved(work)
    good = work.check(outputs)
    assert good.attempted == 2 and good.failures == []

    bad = work.check([_drop_one_bar(outputs[0]), outputs[1]])
    assert len(bad.failures) == 1 and "reduced bars" in bad.failures[0]
    assert bad.digest != good.digest

    bad = work.check([outputs[0], _shift_d(outputs[1])])
    assert len(bad.failures) == 1 and "Casson-Walker" in bad.failures[0]

    raised = work.check([outputs[0], RuntimeError("boom")])
    assert len(raised.failures) == 1 and "raised" in raised.failures[0]


def test_scan_gate_trips_on_d_outside_bounds():
    work = workloads.SlopeScan(0, **SMALL_SCAN)
    outputs = solved(work)
    assert work.check(outputs).failures == []
    hits, computed = outputs[0]
    corrupted = [(hits, [_shift_d(computed[0])] + computed[1:]), outputs[1]]
    failures = work.check(corrupted).failures
    assert len(failures) == 1 and "outside" in failures[0]


def test_lens_gate_trips_on_corrupted_table():
    work = workloads.LensSweep(0, p_max=12)
    outputs = solved(work)
    assert work.check(outputs).failures == []
    idx = next(i for i, (p, _) in enumerate(work.cases) if p == 7)
    inv = outputs[idx]
    table = (inv.d_table[0] + 1,) + inv.d_table[1:]
    outputs[idx] = dataclasses.replace(inv, d_table=table)
    failures = work.check(outputs).failures
    assert len(failures) == 1 and "sum of d" in failures[0]


def test_self_times_on_synthetic_span_tree():
    # 0 [0,100) has children 1 [10,40) and 2 [50,70); 1 has child 3 [20,30)
    parent = [-1, 0, 0, 1]
    start = [0, 10, 50, 20]
    end = [100, 40, 70, 30]
    assert tracer.self_times(parent, start, end) == [50, 20, 20, 10]


def test_layer_times_leave_out_excluded_spans():
    trace = tracer.Tracer()
    trace.names += ["cone.cone_homology", "cone.build_cone"]
    home, build = len(trace.names) - 2, len(trace.names) - 1
    # cone_homology [0,100) runs build_cone [10,20), a probe [30,40) and
    # the depth+2 pass from build_cone [50,60) on
    for name, start, end, parent in (
        (home, 0, 100, -1),
        (build, 10, 20, 0),
        (tracer.EXCLUDED, 30, 40, 0),
        (build, 50, 60, 0),
    ):
        trace.name_of.append(name)
        trace.start.append(start)
        trace.end.append(end)
        trace.parent.append(parent)
    metrics = {name: value for name, (value, _) in trace.metrics().items()}
    assert metrics["cone.cone_homology.self_s"] == pytest.approx(70e-9)
    assert metrics["cone.build_cone.self_s"] == pytest.approx(20e-9)
    assert metrics["cone.rerun_share"] == pytest.approx(50 / 90)


def _traced_counts(work):
    trace = tracer.Tracer()
    trace.install()
    try:
        trace.active = True
        solved(work)
        trace.active = False
    finally:
        trace.uninstall()
    return trace


def test_tracer_wraps_every_binding_and_restores_them():
    def bindings():
        fs = floersurgery
        return fs.cone.barcode, fs.knotmodel.barcode, fs.fmod.validate, fs.surgery

    before = bindings()
    trace = _traced_counts(workloads.GenusLadder(0, cases=SMALL_LADDER))
    assert bindings() == before
    metrics = {name: value for name, (value, _) in trace.metrics().items()}
    assert metrics["cone.cone_homology.calls"] == 3 + 1  # blocks of 3/2 and 1/1
    assert metrics["cone.build_cone.calls"] == 2 * metrics["cone.cone_homology.calls"]
    assert metrics["fmod.validate.calls"] >= metrics["fmod.barcode.calls"] > 0
    # once in default_depth and once per build_cone, for each block
    assert metrics["knotmodel.max_reduced_bar.calls"] == 3 * 4
    assert metrics["knotmodel.max_reduced_bar.useful_ratio"] == 2 / 12
    assert 0 < metrics["cone.rerun_share"] < 1


def test_count_metrics_repeat_exactly_across_traced_runs():
    counts = []
    for _ in range(2):
        metrics = _traced_counts(workloads.SlopeScan(0, **SMALL_SCAN)).metrics()
        counts.append({k: v for k, (v, u) in metrics.items() if u == tracer.COUNT})
    assert counts[0] == counts[1]
    assert counts[0]["obstruct.cosmetic_pair_scan.pairs"] == 3 + 3  # C(3,2) + C(3,2)


def test_run_fails_without_the_library_sources(tmp_path):
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lens_sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    lines = proc.stdout.strip().splitlines()
    assert not lines or not lines[-1].startswith("{")
    assert "no floersurgery sources" in proc.stderr


def test_committed_digests_cover_every_workload():
    digests = json.loads((BENCH / "digests.json").read_text())
    assert set(digests) == set(workloads.WORKLOADS)
