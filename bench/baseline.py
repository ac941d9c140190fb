"""Re-measure the single-call figures quoted as the starting baseline.

    python3 bench/baseline.py

Prints one JSON object: the machine, then the median of repeated timings of
a 200-draw criterion-6 pass, ``check_class(..., "Se")`` on the default grid,
Horner evaluation of one 4096-point circle at degree 64, one scalar
``phi_eval`` and ``hyp_omega_Se(verify=True)``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from besselstar import gft_checks, series_ops, special_fn, theorems  # noqa: E402


def per_call(fn, calls: int, rounds: int = 7) -> float:
    """Median over rounds of the mean seconds per call."""
    fn()
    samples = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - t0) / calls)
    return statistics.median(samples)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> int:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads

    vartheta = series_ops.series_of_vartheta(special_fn.BesselParams(1.5, 1, 1))
    phi64 = series_ops.series_of_phi(special_fn.BesselParams(1, 0, 2), 64)
    circle = gft_checks.DiskGrid().circle(0.999)
    params = special_fn.BesselParams(1, 0, 2)
    omega_params = special_fn.BesselParams(1.5, 1, 1)

    sound = type("Criterion6", (workloads.Soundness,), {"draws": 200})(1006)

    def criterion6():
        for item in sound.pool:
            sound.run(item)

    out = {
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
        },
        "criterion6_200_draws_s": per_call(criterion6, 1, rounds=3),
        "check_class_Se_ms": 1e3 * per_call(lambda: gft_checks.check_class(vartheta, "Se"), 20),
        "horner_4096_deg64_ms": 1e3 * per_call(lambda: phi64.eval(circle), 200),
        "phi_eval_us": 1e6 * per_call(lambda: special_fn.phi_eval(params, 0.25), 20000),
        "hyp_omega_Se_verify_ms": 1e3
        * per_call(lambda: theorems.hyp_omega_Se(omega_params, verify=True), 10),
    }
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
