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
    # 67 Brent probes over the item's 12 sweeps, 4, 4, 7, 4, 10, 5, 4, 4, 4,
    # 4, 8 and 9 in call order.  The search starts from the heights sampled
    # at the grid argmax and its two neighbours, so it spends no probes
    # finding the peak.  It stops once both ends of a bracket at most 64
    # times the best probe's distance to its nearer end are within 4 eps of
    # the best height (the rounding stop).  Each count follows the last
    # bits of the probed heights: the probes now sum a Taylor table of
    # e^{i n delta} (``series_ops._probe_rows``), whose heights differ from
    # the phased-exponential probe's by an ulp or two, and that probe read
    # 75 (5, 4, 9, 4, 6, 4, 6, 7, 5, 12, 7, 6); without the rounding stop
    # it read 118, one golden-section start 155, and golden-section search
    # 54 per sweep.
    assert soundness["gft_checks.sweeps"] == 12
    assert soundness["gft_checks.refine_evals_per_sweep"] == 67 / 12
    counts = tracer.layer_metrics(t, 1, 1.0)
    assert counts["gft_checks.sweeps"] > 0
    assert counts["gft_checks.refine_evals_per_sweep"] > 0
    assert counts["theorems.calls"] == len(workloads.Soundness(1).pool[0])
    assert counts["special_fn.calls"] > 0
