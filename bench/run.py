"""Benchmark of besselstar: one command, four seeded workloads, one client.

    python3 bench/run.py --workload soundness --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and imports the library from ``src/``.  The
client is closed-loop: one op at a time, in one process, with no threads.  A
workload's seed fixes a pool of op inputs (see ``workloads.py``); the timed
window runs whole passes over that pool until ``--seconds`` have elapsed and
at least 100 ops are done, so every run sees the same mix of ops and at least
ten latency samples lie beyond p90.

``--trace 0`` prints the end-to-end metrics, measured with tracing off.  The
host's speed drifts by up to 1.6x over seconds to minutes, so the timed
figures are scaled to a fixed host speed by a reference kernel read between
blocks of ops (``speed.py``); the raw figures are printed above the result.
The whole run is pinned to the CPU it starts on, so the kernel readings and
the CLI processes run where the ops run.
``--trace 1`` is a separate run: it alternates untraced passes with traced
passes that wrap each module's public functions (``tracer.py``), and prints
the per-layer metrics per pass plus the tracing overhead.  The spans
are written to ``.bench_build/traces/``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The command exits 2 without a result when the
checkout holds no ``src/besselstar``.
"""

from __future__ import annotations

import argparse
import array
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_build")

MIN_OPS = 100  # p90 then has at least ten samples beyond it
SETUP_REPS = 5  # fresh processes timed for setup_s; the median is reported
IMPORT_REPS = 3  # fresh processes timed for cli.import_s

# Metric names and units, in the order they are reported.
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

# Per-layer counts that must repeat exactly for a given seed, traced or not.
EXACT = (
    "special_fn.calls",
    "special_fn.terms",
    "special_fn.raised",
    "series_ops.build_calls",
    "series_ops.coeffs_built",
    "series_ops.eval_circle_calls",
    "series_ops.eval_circle_madds",
    "series_ops.eval_point_calls",
    "gft_checks.sweeps",
    "gft_checks.points_per_sweep",
    "gft_checks.refine_evals_per_sweep",
    "gft_checks.pass",
    "gft_checks.fail",
    "gft_checks.inconclusive",
    "theorems.calls",
    "theorems.sweeps_per_call",
    "theorems.applicable_share",
    "cli.bytes_out",
    "trace.spans",
)



def _report(metrics: dict, section: str) -> dict:
    """Metrics with their units from BENCHMARK.json, whose names they must match."""
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    if metrics.keys() != units.keys():
        raise RuntimeError(
            f"metrics and BENCHMARK.json {section} differ: {sorted(metrics.keys() ^ units.keys())}"
        )
    return {k: {"value": metrics[k], "unit": u} for k, u in units.items()}


def _require_source() -> None:
    if not os.path.isfile(os.path.join(SRC, "besselstar", "__init__.py")):
        print(
            f"bench: no besselstar source under {SRC}; run from the root of a checkout",
            file=sys.stderr,
        )
        sys.exit(2)
    sys.path.insert(0, SRC)


def _child_seconds(argv: list[str]) -> float:
    """Run a fresh interpreter that prints a duration as its last word."""
    proc = subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {argv} exited {proc.returncode}: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def measure_setup(workload: str, seed: int) -> float:
    """Median time to import besselstar and generate the inputs, fresh process,
    at the reference speed."""
    argv = [os.path.abspath(__file__), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPS):
        scale, seconds = speed.scale_around(_child_seconds, argv)
        times.append(seconds * scale)
    return statistics.median(times)


def _pin_to_current_cpu() -> None:
    """Keep this process and its children on the CPU it runs on now."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, AttributeError, IndexError, ValueError):
        pass  # no such interface: run unpinned


def measure_cli_import() -> float:
    code = (
        "import time; t = time.perf_counter(); import besselstar.cli; "
        "print(time.perf_counter() - t)"
    )
    return statistics.median(_child_seconds(["-c", code]) for _ in range(IMPORT_REPS))


def setup_probe(workload: str, seed: int) -> None:
    t0 = time.perf_counter()
    import workloads

    workloads.make(workload, seed, ROOT, OUT)
    print(time.perf_counter() - t0)


class Outcome:
    """Failures and first-pass outputs of a sequence of passes over a pool."""

    def __init__(self, wl):
        self.wl = wl
        self.first: list = [None] * len(wl.pool)
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def record(self, idx: int, item, call) -> float:
        """Run one op, time it, check it; returns the latency in seconds."""
        t0 = time.perf_counter()
        try:
            result = call(item)
            err = None
        except Exception as exc:  # an op that raises counts as failed
            result, err = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        self.attempted += 1
        if err is None:
            err = self.wl.check(item, result)
        if err is None:
            sig = self.wl.signature(result)
            if self.first[idx] is None:
                self.first[idx] = (result, sig)
            elif sig != self.first[idx][1]:
                err = f"op {idx}: output differs from an earlier run of the same input"
        if err is not None:
            self.failed += 1
            self.failures.append(err)
        return latency

    def first_pairs(self) -> list:
        return [(item, f[0]) for item, f in zip(self.wl.pool, self.first) if f is not None]


def one_pass(outcome: Outcome, call, latencies, tracer=None, gauge=None, blocks=None) -> float:
    """One whole pass over the pool; appends the latencies, returns the wall time.

    With a gauge, each op's block index goes to ``blocks``.
    """
    start = time.perf_counter()
    for idx, item in enumerate(outcome.wl.pool):
        if tracer is None:
            latencies.append(outcome.record(idx, item, call))
        else:
            latencies.append(tracer.op(len(latencies), outcome.record, idx, item, call))
        if gauge is not None:
            blocks.append(gauge.block)
            gauge.tick()
    return time.perf_counter() - start


def run_passes(outcome: Outcome, call, seconds: float, min_ops: int):
    """Whole passes over the pool until seconds elapsed and min_ops done.

    Returns the latencies and the run's wall time, both at the reference
    speed, the raw latencies and wall time, the number of passes and the gauge.
    """
    raw = array.array("d")  # compact, so peak RSS hardly depends on the op count
    blocks = array.array("l")
    gauge = speed.Gauge()
    passes = 0
    elapsed = 0.0
    while elapsed < seconds or len(raw) < min_ops:
        elapsed += one_pass(outcome, call, raw, gauge=gauge, blocks=blocks)
        passes += 1
    gauge.close()
    scales = gauge.scales()
    latencies = array.array("d", (lat * scales[b] for lat, b in zip(raw, blocks)))
    return latencies, gauge.scaled_wall(), raw, sum(gauge.walls), passes, gauge


def end_to_end(wl, workload: str, seed: int, seconds: float) -> tuple[dict, Outcome]:
    for item in wl.pool[: wl.warmup]:
        wl.run(item)
    outcome = Outcome(wl)
    latencies, wall, raw, raw_wall, passes, gauge = run_passes(outcome, wl.run, seconds, MIN_OPS)
    # Read before the set-up probes start, so that for cli the largest child
    # is a CLI process.
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    setup_s = measure_setup(workload, seed)
    deep = wl.deep_check(outcome.first_pairs())
    # The deep checks cover the first pass; every pool item ran once per pass.
    outcome.failed += passes * len({pos for pos, _ in deep})
    outcome.failures.extend(msg for _, msg in deep)

    verdicts = [v for _, res in outcome.first_pairs() for v in wl.verdicts(res)]
    conclusive = sum(v != "inconclusive" for v in verdicts)
    ms = sorted(x * 1e3 for x in latencies)
    cuts = statistics.quantiles(ms, n=10, method="inclusive")
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / wall,
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": cuts[8],
        "ok_share": 1.0 - min(outcome.failed, outcome.attempted) / outcome.attempted,
        # A workload without sweeps has no verdict to withhold: share 1.
        "conclusive_share": conclusive / len(verdicts) if verdicts else 1.0,
        "peak_rss_mb": peak_rss_mb,
    }
    raw_ms = sorted(x * 1e3 for x in raw)
    print(f"samples = {len(latencies)} ops over {passes} passes of {len(wl.pool)}")
    print(
        f"raw (unscaled) ops_per_s = {len(raw) / raw_wall!r}, latency_p50_ms = "
        f"{statistics.median(raw_ms)!r}, latency_p90_ms = "
        f"{statistics.quantiles(raw_ms, n=10, method='inclusive')[8]!r}"
    )
    print(
        f"reference kernel = {gauge.median_s() * 1e3!r} ms median over "
        f"{len(gauge.readings)} readings (scale 1 at {speed.REFERENCE_S * 1e3!r} ms)"
    )
    print(f"sweeps = {len(verdicts)} in one pass, {len(verdicts) - conclusive} inconclusive")
    return _report(metrics, "end_to_end"), outcome


def traced(wl, workload: str, seed: int, seconds: float) -> tuple[dict, Outcome]:
    from tracer import Tracer, layer_metrics

    import_s = measure_cli_import()
    for item in wl.pool[: wl.warmup]:
        wl.run_traced(item)
    outcome = Outcome(wl)
    plain, traced_lat = array.array("d"), array.array("d")
    plain_wall = wall = 0.0
    passes = 0
    tracer = Tracer()
    tracer.install()
    try:
        # Untraced and traced passes alternate, so drift of the host's speed
        # falls on both alike and the overhead compares like with like.
        while plain_wall + wall < seconds:
            plain_wall += one_pass(outcome, wl.run_traced, plain)
            tracer.enabled = True
            wall += one_pass(outcome, wl.run_traced, traced_lat, tracer)
            tracer.enabled = False
            passes += 1
    finally:
        tracer.uninstall()

    metrics = layer_metrics(tracer, passes, wall)
    metrics["cli.import_s"] = import_s
    metrics["trace.ops_per_s"] = len(traced_lat) / wall
    metrics["trace.untraced_ops_per_s"] = len(plain) / plain_wall
    metrics["trace.overhead_share"] = wall / plain_wall - 1.0
    main_by_kind: dict[str, list[float]] = {}
    for item, lat in zip(wl.pool * passes, plain):
        main_by_kind.setdefault(wl.kind(item), []).append(lat)
    for kind in ("check", "eval", "figure"):
        metrics[f"cli.main_s.{kind}"] = statistics.fmean(main_by_kind.get(kind, [0.0]))
    metrics["cli.start_s"] = 0.0
    metrics["cli.bytes_out"] = 0
    if workload == "cli":
        # One pass as processes: start cost is process latency minus main().
        procs = [outcome.record(idx, item, wl.run) for idx, item in enumerate(wl.pool)]
        metrics["cli.start_s"] = statistics.fmean(procs) - statistics.fmean(plain)
        metrics["cli.bytes_out"] = sum(wl.bytes_out(r) for _, r in outcome.first_pairs())

    os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
    span_path = os.path.join(OUT, "traces", f"{workload}-seed{seed}.jsonl")
    tracer.write_spans(span_path)
    print(
        f"spans = {len(tracer.spans)} written to {os.path.relpath(span_path, ROOT)}, "
        f"{tracer.dropped} more not kept"
    )
    print(f"traced = {len(traced_lat)} ops over {passes} passes; untraced {len(plain)} ops")
    layers = {k: metrics[k] for k in metrics if k.endswith(".self_s")}
    print(
        f"self_s per pass = {layers}; outside any span {metrics['trace.unaccounted_s']}; "
        f"wall per pass = {metrics['trace.wall_s']}"
    )
    for part in ("eval_point", "eval_circle"):
        share = metrics[f"series_ops.{part}_s"] / metrics["trace.wall_s"]
        print(f"share of traced wall in series_ops.{part} = {share:.3f}")
    return _report(metrics, "per_layer"), outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("soundness", "scalar", "high-order", "cli")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _require_source()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    _pin_to_current_cpu()

    import workloads

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        wl = workloads.make(args.workload, args.seed, ROOT, workdir)
        measure = traced if args.trace else end_to_end
        metrics, outcome = measure(wl, args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    for msg in outcome.failures[:10]:
        print(f"FAILED: {msg}")
    failed = min(outcome.failed, outcome.attempted)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": outcome.attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
