"""Span tracer that times calls into the library's modules from outside.

The tracer never edits the library: it replaces the public functions of each
module (and a few methods and private helpers that carry the sweep) with
timing wrappers, in every ``besselstar`` namespace that binds them.  That
matters because ``theorems``, ``cli`` and the package ``__init__`` bind names
from the lower modules at import time.

Spans are kept in memory as ``(span_id, name, start, end, parent_id, op_id)``
and written out at the end; spans beyond ``MAX_SPANS`` are counted but not
kept.  Self time is span time minus child span time, accumulated on a stack as
spans close.  The layers' self times, the self time of the bench's own op
spans and the time outside any span (the loop between ops) add up to the
traced wall time.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# Spans kept in memory and written out; later spans are only counted.
MAX_SPANS = 200_000

LAYERS = ("special_fn", "series_ops", "gft_checks", "theorems", "cli")

# Private helpers wrapped on top of the public functions: the sweep engine
# and its golden-section refinement, which every membership check runs.
_EXTRA = {"gft_checks": ("_sweep", "_golden_max")}

# Methods wrapped on classes, keyed by module then class.
_METHODS = {
    "special_fn": {"BesselParams": ("__post_init__", "shift")},
    "series_ops": {
        "PowerSeries": (
            "__post_init__",
            "eval",
            "differentiate",
            "shift_up",
            "scale",
            "__add__",
            "__sub__",
            "max_deviation",
        )
    },
}

# series_ops spans that are not series construction.
_SERIES_NON_BUILD = {"eval_circle", "eval_point", "eval_series", "max_deviation"}

# Spans of the bench itself (one per op) use this layer name.
BENCH = "bench"


def _group(name: str) -> str:
    """Span group: series construction is one group, every other span its own."""
    layer, attr = name.split(".", 1)
    if layer == "series_ops" and attr not in _SERIES_NON_BUILD:
        return "series_ops.build"
    return name


class _Frame:
    __slots__ = ("layer", "name", "group", "start", "child", "span_id", "parent", "sweeps")

    def __init__(self, layer, name, start, span_id, parent):
        self.layer = layer
        self.name = name
        self.group = _group(name)
        self.start = start
        self.child = 0.0
        self.span_id = span_id
        self.parent = parent
        self.sweeps = 0


class Tracer:
    """Collects spans and per-layer counters while ``enabled`` is true."""

    def __init__(self):
        self.enabled = False
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op_id = 0
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._sweep_depth = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.busy_s: dict[str, float] = defaultdict(float)
        self.time_s: dict[str, float] = defaultdict(float)  # per span group, entry spans
        self.count: Counter = Counter()

    # -- spans ---------------------------------------------------------------

    def _enter(self, layer: str, name: str) -> _Frame:
        parent = self._stack[-1] if self._stack else None
        self._next_id += 1
        frame = _Frame(layer, name, time.perf_counter(), self._next_id, parent)
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> float:
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame.start
        self.self_s[frame.layer] += dur - frame.child
        parent = frame.parent
        if parent is not None:
            parent.child += dur
            parent.sweeps += frame.sweeps
        if parent is None or parent.layer != frame.layer:
            self.busy_s[frame.layer] += dur
            self.count[frame.layer + ".entry_calls"] += 1
        if parent is None or parent.group != frame.group:
            self.time_s[frame.group] += dur
            self.count[frame.group + ".calls"] += 1
        if len(self.spans) < MAX_SPANS:
            self.spans.append(
                (
                    frame.span_id,
                    frame.name,
                    frame.start,
                    end,
                    parent.span_id if parent is not None else None,
                    self.op_id,
                )
            )
        else:
            self.dropped += 1
        return dur

    def op(self, op_id: int, fn, *args):
        """Run one bench op as a root span of the bench layer."""
        self.op_id = op_id
        frame = self._enter(BENCH, "bench.op")
        try:
            return fn(*args)
        finally:
            self._exit(frame)

    def _is_entry(self, frame: _Frame) -> bool:
        return frame.parent is None or frame.parent.layer != frame.layer

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, layer: str, attr: str, fn):
        tracer = self
        name = f"{layer}.{attr}"
        after = _AFTER.get(name) or _AFTER_BY_LAYER.get(layer)

        if name == "series_ops.eval":

            def wrapper(series, z):
                if not tracer.enabled:
                    return fn(series, z)
                point = np.ndim(z) == 0
                frame = tracer._enter(
                    layer, "series_ops.eval_point" if point else "series_ops.eval_circle"
                )
                try:
                    return fn(series, z)
                finally:
                    tracer._exit(frame)
                    if not point:
                        tracer.count["series_ops.eval_circle_madds"] += series.order * np.size(z)

        elif name == "gft_checks._golden_max":

            def wrapper(fun, lo, hi, *args, **kwargs):
                if not tracer.enabled or tracer._sweep_depth == 0:
                    return fn(fun, lo, hi, *args, **kwargs)

                def counted(t):
                    tracer.count["gft_checks.refine_evals"] += 1
                    return fun(t)

                frame = tracer._enter(layer, name)
                try:
                    return fn(counted, lo, hi, *args, **kwargs)
                finally:
                    tracer._exit(frame)

        else:

            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                frame = tracer._enter(layer, name)
                if name == "gft_checks._sweep":
                    tracer._sweep_depth += 1
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    tracer._exit(frame)
                    if tracer._is_entry(frame):
                        tracer.count[layer + ".raised"] += 1
                    raise
                finally:
                    if name == "gft_checks._sweep":
                        tracer._sweep_depth -= 1
                tracer._exit(frame)
                if after is not None:
                    after(tracer, frame, args, result)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", attr)
        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded ``besselstar`` namespace."""
        import besselstar.cli  # noqa: F401  (loads every module)

        mods = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "besselstar"}
        replace: dict[int, object] = {}
        for layer in LAYERS:
            mod = mods[f"besselstar.{layer}"]
            names = [
                n
                for n, obj in vars(mod).items()
                if inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not n.startswith("_")
            ]
            for attr in names + list(_EXTRA.get(layer, ())):
                fn = getattr(mod, attr)
                replace[id(fn)] = self._wrap(layer, attr, fn)
            for cls_name, methods in _METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    attr = cls_name if meth == "__post_init__" else meth
                    self._patch(cls, meth, self._wrap(layer, attr, fn))
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace and inspect.isfunction(obj):
                    self._patch(mod, attr, replace[id(obj)])

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _after_special(tracer, frame, args, result):
    if tracer._is_entry(frame) and hasattr(result, "terms_used"):
        tracer.count["special_fn.terms"] += result.terms_used


def _after_series_init(tracer, frame, args, result):
    tracer.count["series_ops.coeffs_built"] += len(args[0].coeffs)


def _after_sweep(tracer, frame, args, result):
    tracer.count["gft_checks.sweeps"] += 1
    tracer.count["gft_checks." + result.verdict] += 1
    grid = result.grid
    tracer.count["gft_checks.points"] += len(grid.radii) * grid.angles_per_circle
    if frame.parent is not None:
        frame.parent.sweeps += 1


def _after_theorem(tracer, frame, args, result):
    if tracer._is_entry(frame):
        tracer.count["theorems.sweeps"] += frame.sweeps
        if hasattr(result, "applicable"):
            tracer.count["theorems.reports"] += 1
            tracer.count["theorems.applicable"] += bool(result.applicable)


_AFTER = {"series_ops.PowerSeries": _after_series_init, "gft_checks._sweep": _after_sweep}
_AFTER_BY_LAYER = {"special_fn": _after_special, "theorems": _after_theorem}


def layer_metrics(tracer: Tracer, passes: int, wall_s: float) -> dict[str, float]:
    """Per-layer figures per pass over the workload's op pool.

    Counts are exact for a given seed because every pass runs the same ops;
    times are the traced window divided by the number of passes.
    """
    c = tracer.count
    p = float(passes)

    def per(x):
        return x / p

    def ratio(num, den):
        return num / den if den else 0.0

    layer_self = {layer: tracer.self_s.get(layer, 0.0) for layer in LAYERS}
    out = {
        "special_fn.calls": per(c["special_fn.entry_calls"]),
        "special_fn.busy_s": per(tracer.busy_s.get("special_fn", 0.0)),
        "special_fn.terms": per(c["special_fn.terms"]),
        "special_fn.raised": per(c["special_fn.raised"]),
        "series_ops.build_calls": per(c["series_ops.build.calls"]),
        "series_ops.build_s": per(tracer.time_s.get("series_ops.build", 0.0)),
        "series_ops.coeffs_built": per(c["series_ops.coeffs_built"]),
        "series_ops.eval_circle_calls": per(c["series_ops.eval_circle.calls"]),
        "series_ops.eval_circle_s": per(tracer.time_s.get("series_ops.eval_circle", 0.0)),
        "series_ops.eval_circle_madds": per(c["series_ops.eval_circle_madds"]),
        "series_ops.eval_point_calls": per(c["series_ops.eval_point.calls"]),
        "series_ops.eval_point_s": per(tracer.time_s.get("series_ops.eval_point", 0.0)),
        "series_ops.self_s": per(layer_self["series_ops"]),
        "gft_checks.sweeps": per(c["gft_checks.sweeps"]),
        "gft_checks.busy_s": per(tracer.busy_s.get("gft_checks", 0.0)),
        "gft_checks.self_s": per(layer_self["gft_checks"]),
        "gft_checks.points_per_sweep": ratio(c["gft_checks.points"], c["gft_checks.sweeps"]),
        "gft_checks.refine_evals_per_sweep": ratio(
            c["gft_checks.refine_evals"], c["gft_checks.sweeps"]
        ),
        "gft_checks.pass": per(c["gft_checks.pass"]),
        "gft_checks.fail": per(c["gft_checks.fail"]),
        "gft_checks.inconclusive": per(c["gft_checks.inconclusive"]),
        "theorems.calls": per(c["theorems.entry_calls"]),
        "theorems.busy_s": per(tracer.busy_s.get("theorems", 0.0)),
        "theorems.self_s": per(layer_self["theorems"]),
        "theorems.sweeps_per_call": ratio(c["theorems.sweeps"], c["theorems.entry_calls"]),
        "theorems.applicable_share": ratio(c["theorems.applicable"], c["theorems.reports"]),
        "special_fn.self_s": per(layer_self["special_fn"]),
        "cli.self_s": per(layer_self["cli"]),
        "cli.enclosure_s": per(tracer.time_s.get("cli.points_enclosed", 0.0)),
    }
    bench_self = tracer.self_s.get(BENCH, 0.0)
    out["trace.wall_s"] = wall_s / p
    out["bench.self_s"] = bench_self / p
    out["trace.unaccounted_s"] = (wall_s - bench_self - sum(layer_self.values())) / p
    out["trace.spans"] = per(tracer._next_id)
    return out
