"""Checks on the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

The counters that ``run.EXACT`` names must repeat exactly for a seed, and
tracing must not change what the library returns: the traced counts agree
with counts read from the untraced outputs.  Small pools keep this fast.
"""

import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import run  # noqa: E402

run._require_source()

import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

SMALL = {
    "soundness": {"draws": 6},
    "scalar": {"cases": 40},
    "high-order": {"size": 6},
    "cli": {"blocks": 1},
}


def small_workload(name, seed, workdir):
    cls = workloads.CLASSES[name]
    sub = type(cls.__name__, (cls,), SMALL[name])
    if name == "cli":
        return sub(seed, run.ROOT, str(workdir))
    return sub(seed)


def traced_pass(wl):
    tracer = Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        start = time.perf_counter()
        results = [tracer.op(i, wl.run_traced, item) for i, item in enumerate(wl.pool)]
        wall = time.perf_counter() - start
        tracer.enabled = False
    finally:
        tracer.uninstall()
    return layer_metrics(tracer, 1, wall), results


@pytest.mark.parametrize("name", sorted(SMALL))
def test_exact_counts_repeat_and_match_untraced_outputs(name, tmp_path):
    wl = small_workload(name, 7, tmp_path)
    plain = [wl.run_traced(item) for item in wl.pool]
    first, traced = traced_pass(wl)
    second, _ = traced_pass(wl)

    assert {k: first[k] for k in run.EXACT if k in first} == {
        k: second[k] for k in run.EXACT if k in second
    }
    assert [wl.signature(r) for r in traced] == [wl.signature(r) for r in plain]
    assert all(wl.check(item, r) is None for item, r in zip(wl.pool, plain))
    # Spans cover the traced wall time but for the loop between ops.
    assert 0.0 <= first["trace.unaccounted_s"] < 0.05 * first["trace.wall_s"]

    verdicts = [v for r in plain for v in wl.verdicts(r)]
    if name in ("soundness", "high-order"):
        assert first["gft_checks.sweeps"] == len(verdicts) > 0
        for verdict in ("pass", "fail", "inconclusive"):
            assert first[f"gft_checks.{verdict}"] == verdicts.count(verdict)
        assert first["gft_checks.points_per_sweep"] == 4 * 4096
    if name == "scalar":
        assert first["special_fn.terms"] == sum(e.terms_used for r in plain for e in r[:6])
        assert first["gft_checks.sweeps"] == 0
    if name == "soundness":
        assert first["theorems.calls"] == sum(len(draw) for draw in wl.pool)


def test_without_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scalar", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_gauge_scales_each_block_by_the_nearby_kernel_readings(monkeypatch):
    import speed

    readings = iter([1.0] * 6 + [2.0, 2.0, 2.0, 4.0, 4.0, 4.0])
    monkeypatch.setattr(speed, "kernel", lambda: next(readings) * speed.REFERENCE_S)
    monkeypatch.setattr(speed, "BLOCK_S", 0.0)  # every tick closes a block
    gauge = speed.Gauge()  # five warm-up readings, then reading 0 = 1.0
    for _ in range(5):
        gauge.tick()  # readings 1-5: 2, 2, 2, 4, 4
    gauge.close()  # reading 6: 4
    # Block j lies between readings j and j+1; its scale is 1 over the
    # median of readings j-1 .. j+2.
    assert gauge.scales() == [1 / 2, 1 / 2, 1 / 2, 1 / 3, 1 / 4, 1 / 4]
    assert len(gauge.walls) == 6
