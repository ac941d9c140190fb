"""The benchmark's hold on the library, checked in the ordinary test run.

``bench/tracer.py`` wraps library names it finds by attribute (the
``PowerSeries`` methods, ``gft_checks._sweep`` and ``_golden_max``) and
``bench/workloads.py`` calls the public checkers; renaming or deleting one of
them breaks the benchmark.  This runs one pool item of each in-process
workload under the tracer, importing the bench modules without writing
bytecode next to them.
"""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, BENCH)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import tracer
        import workloads
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(BENCH)
    return tracer, workloads


def test_traced_workload_items(bench):
    tracer, workloads = bench
    t = tracer.Tracer()
    t.install()
    runs = []
    try:
        for cls in (workloads.Soundness, workloads.Scalar, workloads.HighOrder):
            wl = cls(1)
            t.enabled = True
            runs.append((wl, wl.pool[0], t.op(0, wl.run_traced, wl.pool[0])))
            t.enabled = False
            if cls is workloads.Soundness:
                soundness = tracer.layer_metrics(t, 1, 1.0)
    finally:
        t.uninstall()
    for wl, item, result in runs:
        assert wl.check(item, result) is None, wl.name
        assert wl.signature(result) == wl.signature(wl.run(item)), wl.name
    # 118 Brent probes over the item's 12 sweeps, 7, 5, 16, 4, 10, 7, 9, 14,
    # 6, 16, 13 and 11 in call order.  The search starts from the heights
    # sampled at the grid argmax and its two neighbours, so it spends no
    # probes finding the peak; past the first steps it fits parabolas to a
    # peak flat to rounding, so each count follows the last bits of the
    # probed heights.  Probes from the phased table of the rows' terms read
    # 118; Horner probes, equal to within a few ulps, read 115 (7, 4, 13, 4,
    # 9, 7, 8, 13, 5, 16, 14, 16), one golden-section start 155, and
    # golden-section search 54 per sweep.
    assert soundness["gft_checks.sweeps"] == 12
    assert soundness["gft_checks.refine_evals_per_sweep"] == 118 / 12
    counts = tracer.layer_metrics(t, 1, 1.0)
    assert counts["gft_checks.sweeps"] > 0
    assert counts["gft_checks.refine_evals_per_sweep"] > 0
    assert counts["theorems.calls"] == len(workloads.Soundness(1).pool[0])
    assert counts["special_fn.calls"] > 0
