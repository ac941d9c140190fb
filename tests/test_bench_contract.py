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

from besselstar import gft_checks, series_ops

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
                # item 10 reaches the grid sweep, so the probes stay traced
                t.enabled = True
                runs.append((wl, wl.pool[10], t.op(1, wl.run_traced, wl.pool[10])))
                t.enabled = False
                sampled = tracer.layer_metrics(t, 1, 1.0)
    finally:
        t.uninstall()
    for wl, item, result in runs:
        assert wl.check(item, result) is None, wl.name
        assert wl.signature(result) == wl.signature(wl.run(item)), wl.name
    # No Brent probe over item 0's 12 sweeps: each passes from its
    # coefficients (``gft_checks._coefficient_bound`` below 1 - guard, or
    # 1/4 - guard for the two quarter bounds) before any transform, so no
    # sweep samples or refines.  Item 10 adds 7 sweeps, 6 of them passed
    # from the coefficients and 1 refined on the grid with 5 probes
    # (``gft_checks._golden_max``): 5 probes over the 19 sweeps.  (Item 1's
    # two grid sweeps now pass from samples of |z| = 1,
    # ``gft_checks._circle_bound``.)
    assert soundness["gft_checks.sweeps"] == 12
    assert soundness["gft_checks.refine_evals_per_sweep"] == 0
    assert sampled["gft_checks.sweeps"] == 19
    assert sampled["gft_checks.refine_evals_per_sweep"] == 5 / 19
    counts = tracer.layer_metrics(t, 1, 1.0)
    assert counts["gft_checks.sweeps"] > 0
    assert counts["gft_checks.refine_evals_per_sweep"] > 0
    pool = workloads.Soundness(1).pool
    assert counts["theorems.calls"] == len(pool[0]) + len(pool[10])
    assert counts["special_fn.calls"] > 0


def _proven_pass_on_the_grid(bench, monkeypatch, workload, items, evidence):
    """Run a few pool items; every sweep proven with this evidence must also
    pass the grid sweep, with a bound at least the sampled sup.  Returns how
    many there were."""
    _, workloads = bench
    swept = []
    real_sweep = gft_checks._sweep

    def spy(*args, **kwargs):
        report = real_sweep(*args, **kwargs)
        swept.append((args, kwargs, report))
        return report

    monkeypatch.setattr(gft_checks, "_sweep", spy)
    wl = getattr(workloads, workload)(1)
    for item in wl.pool[:items]:
        wl.run(item)
    proven = [sweep for sweep in swept if sweep[2].evidence == evidence]
    for (w, grid), kwargs, rep in proven:
        sampled = gft_checks._sampled_sweep(w, series_ops._Terms(w.series), grid, **kwargs)
        assert sampled.passed and rep.sup_value >= sampled.sup_value, rep
    return len(proven)


@pytest.mark.parametrize("workload,items", [("Soundness", 6), ("HighOrder", 10)])
def test_coefficient_passes_pass_on_the_grid(bench, monkeypatch, workload, items):
    assert _proven_pass_on_the_grid(bench, monkeypatch, workload, items, "coefficients")


# Soundness items 1, 3 and 4 hold the circle passes of these items; the
# high-order checks either pass from their coefficients or fail.
@pytest.mark.parametrize("workload,items,count", [("Soundness", 6, 4), ("HighOrder", 10, 0)])
def test_circle_passes_pass_on_the_grid(bench, monkeypatch, workload, items, count):
    assert _proven_pass_on_the_grid(bench, monkeypatch, workload, items, "circle") == count
