"""Tests of the benchmark itself: failures are counted, the tracer wraps and
restores every reference, and the metric names match BENCHMARK.json.

    PYTHONPATH=src python -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402

from qgft import engine, groups, models, verify  # noqa: E402
from qgft import fourier as ft  # noqa: E402


def run_once(workload, sweeps=1):
    workload.setup()
    ops = []
    for index in range(sweeps):
        batch = workload.sweep(index)
        workload.check(batch)
        ops += batch
    return ops


def test_tail_is_p99_or_the_highest_percentile_with_ten_beyond():
    assert run.tail(list(range(1000))) == (989, 99.0)
    value, pct = run.tail(list(range(100)))
    assert value == 89 and pct == 90.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert run.tail(list(range(21))) == (20, 100.0)
    assert run.tail(list(range(22)))[0] == 11


def test_phase_on_one_column_fails_pentagon_and_is_counted(tmp_path):
    w = models.build(groups.dihedral(2)).qg.w.copy()
    corrupted = w.copy()
    corrupted[:, 5] *= np.exp(0.3j)

    def unitaries(seed):
        return [("clean", w), ("phase", corrupted)]

    ops = run_once(workloads.VerifyDense(7, tmp_path, make_unitaries=unitaries))
    assert [op.passed for op in ops] == [True, False]
    assert "first failing check: pentagon" in ops[1].error
    tally = run.Tally()
    tally.add(1.0, ops)
    metrics, details = run.end_to_end([1.0], tally)
    assert metrics["pass_ratio"] == 0.5
    assert details["failures"][0]["op"] == "verify phase"


def test_wrong_oracle_value_is_counted(tmp_path, monkeypatch):
    stream = workloads.TransformStream(3, group="cyclic:3", dense_group="dihedral:2")
    assert all(op.passed for op in run_once(stream, sweeps=2))

    exact = models.classical_convolution
    monkeypatch.setattr(models, "classical_convolution",
                        lambda g, a, c: exact(g, a, c) + 1e-6)
    ops = run_once(stream)
    failed = sorted(op.name for op in ops if not op.passed)
    assert failed == ["convolve@cyclic:3", "convolve_direct@cyclic:3"]
    assert max(op.margin for op in ops) > 1.0


def test_no_failures_on_a_second_seed():
    for seed in (1, 2):
        stream = workloads.TransformStream(seed, group="s3", dense_group="dihedral:3")
        assert all(op.passed for op in run_once(stream))


def test_tracer_wraps_every_reference_and_restores_them():
    original = engine.check_pentagon
    model = models.build(groups.cyclic(3))
    a = models.pi(model, np.arange(1.0, 4.0))
    tracer = Tracer()
    tracer.install()
    try:
        assert verify.check_pentagon is engine.check_pentagon is not original
        with tracer.run("sweep-0", "bench.sweep"):
            ft.convolve(model.qg, a, a)
        ft.fourier(model.qg, a)  # outside a run: not recorded
    finally:
        tracer.remove()
    assert verify.check_pentagon is engine.check_pentagon is original

    summary = summarize(tracer.spans, {"sweep-0"})
    assert summary.calls["fourier.convolve"] == 1
    assert summary.calls["fourier.fourier"] == 2
    assert summary.calls["fourier.inverse_fourier"] == 1
    root = tracer.spans[0]
    assert root.parent is None and root.name == "bench.sweep"
    assert all(s.run == "sweep-0" for s in tracer.spans)
    # Self times partition the root span.
    assert sum(summary.self_s.values()) == pytest.approx(root.seconds, rel=1e-9)
    assert summary.self_s["fourier"] == pytest.approx(
        summary.seconds["fourier.convolve"], rel=1e-9)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
