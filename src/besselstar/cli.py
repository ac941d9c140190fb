"""Command-line front end: evaluate, check, and reproduce the disk figures.

Subcommands, with the series, grid and output options each one takes
    eval      evaluate phi / omega / a named family member at a point
              (--tol)
    check     run a sufficient-condition or class membership check
              (--order, --grid-radii, --grid-angles, --json)
    figure    export the image of a circle |z| = r under a chosen quantity
              as CSV (and a standalone SVG), with an optional boundary overlay
              (--order)
    selftest  quick built-in sanity battery (none)

An option a subcommand does not read is a usage error, and so is an option
of `check` that its job (the theorem `--theorem` names, or the input of
`--class`) does not read.  `check --theorem` takes the names of THEOREMS; a
figure's `inside` says whether every curve point lies in the region its
overlay encloses.

Exit codes: 0 pass, 1 fail, 2 usage, 3 math error, 4 inconclusive, 5 I/O.
All numbers in CSV/JSON output are printed with 17 significant digits.

Each subcommand imports only the modules it uses, inside the function that
uses them: `eval` loads special_fn and errors alone and never numpy; `check`,
`figure` and `selftest` import numpy, series_ops and gft_checks, and theorems
only for `check --theorem` and `selftest` (every Bessel series builder,
`--normalized-phi`'s included, is in series_ops).  The package itself is lazy
(``import besselstar`` runs no submodule).  With PYTHONDONTWRITEBYTECODE=1
there is no bytecode cache, so every fresh process also compiles each module
it imports.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import special_fn
from .errors import BesselstarError
from .special_fn import BesselParams

if TYPE_CHECKING:  # names in annotations only; each function imports what it runs
    import numpy as np

    from .gft_checks import AnalyticMap, DiskGrid
    from .series_ops import PowerSeries

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_MATH = 3
EXIT_INCONCLUSIVE = 4
EXIT_IO = 5

# The default of --order and FigureSpec.order: series_ops.DEFAULT_ORDER, written
# out so that no numpy is loaded to read it (a test keeps the two equal).  `check`
# resolves it after refusing a given --order that its job does not read.
_DEFAULT_ORDER = 64


# ---------------------------------------------------------------------------
# Formatting: deterministic 17-significant-digit output.


def _fmt(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


def _print(line: str, out=None) -> None:
    """Print one line to out (stdout by default) and flush it.

    A reader that closes the pipe early ends the output, not the run: the
    descriptor is pointed at the null device, so the rest of the output and
    the flush at exit go nowhere, no traceback is printed and the exit code
    stays the one the command computes.
    """
    out = sys.stdout if out is None else out
    try:
        print(line, file=out, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)


def dumps(obj) -> str:
    """Minimal JSON emitter with fixed float formatting."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, numbers.Integral):  # int and numpy's integers
        return str(int(obj))
    if isinstance(obj, numbers.Real):  # float and numpy's floating types
        return _fmt(float(obj))
    if isinstance(obj, complex):
        return dumps([obj.real, obj.imag])
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, dict):
        inner = ", ".join(f"{dumps(str(k))}: {dumps(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# Figure export.


def exp_boundary(n_points: int = 4096) -> np.ndarray:
    """The closed boundary curve of the image of the unit disk under e^z."""
    import numpy as np

    theta = np.arange(n_points) * (2.0 * math.pi / n_points)
    return np.exp(np.exp(1j * theta))


def circle_boundary(radius: float, n_points: int = 4096) -> np.ndarray:
    import numpy as np

    theta = np.arange(n_points) * (2.0 * math.pi / n_points)
    return radius * np.exp(1j * theta)


# Overlay name -> (boundary curve of n points, use_log, bound): the overlay
# encloses exactly {w : |log w| < bound} (use_log) or {w : |w| < bound}.
_CONVEX_RADIUS = 1.0 - 1.0 / math.e
_OVERLAYS = {
    "exp_boundary": (exp_boundary, True, 1.0),
    "circle_1m1e": (lambda n: circle_boundary(_CONVEX_RADIUS, n), False, _CONVEX_RADIUS),
}

# Figure quantity -> (class whose gft_checks.RATIOS entry it plots, overlay).
# 'phi' is the normalized function itself, 'starlike' z v'/v and
# 'convex-ratio' z v''/v' (the Ke ratio less 1) for v = z*phi.
FIGURE_QUANTITIES = {
    "phi": ("Pe", "exp_boundary"),
    "starlike": ("Se", "exp_boundary"),
    "convex-ratio": ("Ke", "circle_1m1e"),
}


@dataclass(frozen=True)
class FigureSpec:
    """What to draw: a quantity of the function with the given parameters.

    quantity is one of FIGURE_QUANTITIES; order is the series truncation
    degree.  function_id is a label of the form '<quantity>:<nu>,<b>,<c>'
    (real parts with %g, imaginary parts appended when nonzero).
    """

    quantity: str
    params: BesselParams
    radius: float = 0.999
    points: int = 2048
    overlay_exp_boundary: bool = True
    order: int = _DEFAULT_ORDER

    def __post_init__(self) -> None:
        if self.quantity not in FIGURE_QUANTITIES:
            raise ValueError(f"unknown quantity {self.quantity!r}")
        if not 0.0 < self.radius < 1.0:
            raise ValueError(f"radius must lie in (0, 1), got {self.radius}")
        if self.points < 64:
            raise ValueError(f"points must be >= 64, got {self.points}")

    @property
    def function_id(self) -> str:
        p = self.params
        return f"{self.quantity}:" + ",".join(
            f"{v.real:g}" + ("" if v.imag == 0 else format(v.imag, "+g") + "j")
            for v in (p.nu, p.b, p.c)
        )


def figure_curve(spec: FigureSpec) -> np.ndarray:
    """Image of the circle |z| = radius under the quantity of the spec."""
    from . import gft_checks, series_ops

    class_id = FIGURE_QUANTITIES[spec.quantity][0]
    f = series_ops.series_of_phi(spec.params, spec.order)
    if class_id != "Pe":
        f = f.shift_up()
    w = gft_checks.RATIOS[class_id](*series_ops.eval_rows(f, spec.radius, spec.points))
    return w - 1.0 if class_id == "Ke" else w


def _write_csv(path: str, theta: np.ndarray, values: np.ndarray) -> None:
    lines = ["theta,re,im"]
    for t, v in zip(theta, values):
        lines.append(f"{_fmt(float(t))},{_fmt(float(v.real))},{_fmt(float(v.imag))}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_svg(path: str, curves: list[tuple[np.ndarray, str]]) -> None:
    # Self-contained SVG: fixed 640x640 canvas, data bbox padded 5%.
    import numpy as np

    all_pts = np.concatenate([c for c, _ in curves])
    x0, x1 = float(all_pts.real.min()), float(all_pts.real.max())
    y0, y1 = float(all_pts.imag.min()), float(all_pts.imag.max())
    pad = 0.05 * max(x1 - x0, y1 - y0, 1e-9)
    x0, x1, y0, y1 = x0 - pad, x1 + pad, y0 - pad, y1 + pad
    side = 640.0
    scale = side / max(x1 - x0, y1 - y0)

    def to_px(c: complex) -> tuple[float, float]:
        return (c.real - x0) * scale, (y1 - c.imag) * scale  # SVG y axis points down

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {side:g} {side:g}" '
        f'width="{side:g}" height="{side:g}">',
        f'<rect width="{side:g}" height="{side:g}" fill="white"/>',
    ]
    for pts, color in curves:
        closed = np.append(pts, pts[0])
        coords = " ".join(f"{x:.4f},{y:.4f}" for x, y in (to_px(complex(p)) for p in closed))
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def cmd_figure(spec: FigureSpec, csv_path: str, svg_path: str) -> dict:
    """Write the CSV (plus overlay CSV) and SVG for a figure spec.

    Returns a summary dict whose inside is True when every curve point lies
    in the region the overlay encloses (tested by membership, not on the
    drawn polygon), and None without an overlay.
    """
    import numpy as np

    from . import gft_checks

    theta = np.arange(spec.points) * (2.0 * math.pi / spec.points)
    curve = figure_curve(spec)
    files = []
    _write_csv(csv_path, theta, curve)
    files.append(csv_path)
    overlay = FIGURE_QUANTITIES[spec.quantity][1] if spec.overlay_exp_boundary else None
    inside = None
    svg_curves = [(curve, "#1f4e9c")]
    if overlay is not None:
        boundary_of, use_log, bound = _OVERLAYS[overlay]
        boundary = boundary_of(spec.points)
        overlay_path = csv_path[:-4] + "_overlay.csv" if csv_path.endswith(".csv") else csv_path + ".overlay"
        _write_csv(overlay_path, theta, boundary)
        files.append(overlay_path)
        inside = bool((gft_checks._magnitudes(curve, use_log) < bound).all())
        svg_curves.append((boundary, "#666666"))
    _write_svg(svg_path, svg_curves)
    files.append(svg_path)
    return {
        "function_id": spec.function_id,
        "radius": spec.radius,
        "points": spec.points,
        "overlay": overlay,
        "inside": inside,
        "files": files,
    }


# ---------------------------------------------------------------------------
# Argument plumbing.


def _complex_arg(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}") from None


def _order_arg(text: str) -> int:
    """--order: a truncation degree in [1, MAX_ORDER]; anything else is a usage error."""
    from .series_ops import MAX_ORDER

    try:
        order = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not 1 <= order <= MAX_ORDER:
        raise argparse.ArgumentTypeError(f"order must lie in [1, {MAX_ORDER}], got {order}")
    return order


def _grid_from_args(args) -> DiskGrid:
    """The grid of --grid-radii/--grid-angles; a bad value is a usage error."""
    from .gft_checks import DiskGrid

    kwargs = {}
    try:
        if args.grid_radii is not None:
            kwargs["radii"] = tuple(float(r) for r in args.grid_radii.split(","))
        if args.grid_angles is not None:
            kwargs["angles_per_circle"] = args.grid_angles
        return DiskGrid(**kwargs)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid: {exc}") from None


def _nu_from_args(args) -> complex:
    if args.nu is None:
        raise argparse.ArgumentTypeError("--nu is required here")
    return args.nu


def _params_from_args(args) -> BesselParams:
    b = args.b if args.b is not None else 1.0
    c = args.c if args.c is not None else 1.0
    return BesselParams(_nu_from_args(args), b, c)


def _halfplane_map() -> AnalyticMap:
    # z/(1-z) exactly, for convexity premises where truncation would lie.
    from .gft_checks import AnalyticMap

    return AnalyticMap(
        lambda z: z / (1.0 - z),
        lambda z: 1.0 / (1.0 - z) ** 2,
        lambda z: 2.0 / (1.0 - z) ** 3,
    )


def _series(coeffs) -> PowerSeries:
    """PowerSeries(coeffs), importing series_ops only when a generator is used."""
    from .series_ops import PowerSeries

    return PowerSeries(coeffs)


# `--fn` stock generators: name -> series of the given order.
GENERATORS = {
    "z": lambda order: _series((0.0, 1.0) + (0.0,) * (order - 1)),
    "halfplane": lambda order: _series((0.0,) + (1.0,) * order),
}


def _c_sign(args) -> int:
    return 1 if args.c is None or args.c.real >= 0 else -1


def _condition(t, a, g):
    """The CONDITIONS row --theorem names: an order-form row (b set) reads
    --nu and the sign of --c, any other row (nu, b, c)."""
    order_form = t.CONDITIONS[a.theorem].b is not None
    subject = _nu_from_args(a) if order_form else _params_from_args(a)
    return t._run_condition(a.theorem, subject, a.verify, g, a.order, _c_sign(a))


def _generator(args) -> PowerSeries:
    """The stock generator of the chain and example theorems (default halfplane)."""
    return GENERATORS[args.fn or "halfplane"](args.order)


def _bkc_chain(part: str):
    return lambda t, a, g: t.hyp_bkc_chain(
        _params_from_args(a),
        _generator(a),
        part=part,
        f_exact=_halfplane_map() if part == "a" and a.fn in (None, "halfplane") else None,
        verify=a.verify,
        grid=g,
    )


# `check --theorem NAME`: NAME -> adapter (theorems, args, grid) -> TheoremReport,
# handed the theorems module, which only the commands that use it import.  The
# rows of theorems.CONDITIONS share one adapter, which reads the row; the keys,
# in this order, are the argparse choices.
THEOREMS = {
    "Pe": _condition,
    "Ke": _condition,
    "Se": _condition,
    "omega-Se": _condition,
    "bkc-chain-a": _bkc_chain("a"),
    "bkc-chain-b": _bkc_chain("b"),
    "bessel-a": _condition,
    "bessel-b": _condition,
    "spherical-a": _condition,
    "spherical-b": _condition,
    "libera-Ke": _condition,
    "libera-Se": _condition,
    "chain-bessel": lambda t, a, g: t.bessel_chain_step(
        _nu_from_args(a), c_sign=_c_sign(a), verify=a.verify, grid=g, order=a.order
    ),
    "ex-linear": lambda t, a, g: t.example_linear_report(
        _params_from_args(a), _generator(a), 1.0 if a.alpha is None else a.alpha, a.verify, g
    ),
    "ex-product": lambda t, a, g: t.example_product_report(
        _params_from_args(a), _generator(a), verify=a.verify, grid=g
    ),
}


# What each `check` job reads of the options that not every job reads, by argparse
# dest (None when not given); every job reads --json.  A job is the theorem
# --theorem names, or the one input of --class.  A theorem reads --nu, --verify,
# --order and the grid; a CONDITIONS row also reads --b and --c, or in order form
# (b set) only the sign of --c, as chain-bessel does, and such a --c must be 1 or
# -1.  A CONDITIONS row builds and sweeps a series only with --verify, so without
# it the row reads neither --order nor the grid.  A class job reads its input,
# --libera and the grid, a built input also --order, and a Bessel input also
# --nu, --b and --c; --alpha and --verify serve --theorem only.
_SWEEP = ("order", "grid_radii", "grid_angles")
_UNSHARED = (
    "nu", "b", "c", "fn", "alpha", "verify", "vartheta", "normalized_phi", "series_json",
    "libera",
) + _SWEEP
_PARAMS, _SIGN = ("nu", "verify", "b", "c") + _SWEEP, ("nu", "verify", "c") + _SWEEP
_INPUTS = ("vartheta", "normalized_phi", "fn", "series_json")
_READS = {
    "bkc-chain-a": _PARAMS + ("fn",),
    "bkc-chain-b": _PARAMS + ("fn",),
    "chain-bessel": _SIGN,
    "ex-linear": _PARAMS + ("fn", "alpha"),
    "ex-product": _PARAMS + ("fn",),
    "vartheta": ("vartheta", "libera", "nu", "b", "c") + _SWEEP,
    "normalized_phi": ("normalized_phi", "libera", "nu", "b", "c") + _SWEEP,
    "fn": ("fn", "libera") + _SWEEP,
    "series_json": ("series_json", "libera", "grid_radii", "grid_angles"),
}


def _refuse_unread(args, conditions=None) -> None:
    """Refuse an option the `check` job does not read, as a usage error.

    conditions is theorems.CONDITIONS, for a --theorem job.  A --class job
    needs exactly one input.
    """
    if args.theorem:
        job, row = f"--theorem {args.theorem}", conditions.get(args.theorem)
        reads = _READS[args.theorem] if row is None else _SIGN if row.b is not None else _PARAMS
        sign = reads is _SIGN
        if row is not None and not args.verify:
            reads = tuple(d for d in reads if d not in _SWEEP)
    else:
        inputs = [d for d in _INPUTS if getattr(args, d) is not None]
        if len(inputs) != 1:
            raise argparse.ArgumentTypeError(
                "choose exactly one of --vartheta, --normalized-phi, --fn, --series-json"
            )
        job = f"--class {args.class_id} --{inputs[0].replace('_', '-')}"
        reads, sign = _READS[inputs[0]], False
    unread = [d for d in _UNSHARED if d not in reads and getattr(args, d) is not None]
    if unread:
        names = ", ".join("--" + d.replace("_", "-") for d in unread)
        raise argparse.ArgumentTypeError(f"{job} does not read {names}")
    if sign and args.c not in (None, 1, -1):
        raise argparse.ArgumentTypeError(f"{job} takes --c only as 1 or -1")


def _class_target(args, order: int):
    """Build the function under test for `check --class` from its one input."""
    from .series_ops import libera, normalized_phi_deficit, series_of_vartheta

    if args.vartheta:
        series = series_of_vartheta(_params_from_args(args), order)
    elif args.normalized_phi:
        series = normalized_phi_deficit(_params_from_args(args), order)
    elif args.series_json is not None:
        series = _read_series_json(args.series_json)
    else:
        series = GENERATORS[args.fn](order)
    if args.libera:
        series = libera(series)
    return series


def _read_series_json(path: str) -> PowerSeries:
    """The series in a `--series-json` file: a nonempty JSON array of [re, im] number pairs.

    An unreadable path raises OSError; any other content is a usage error,
    NaN, Infinity and a number beyond the float range (an int too) included.
    """
    from .series_ops import PowerSeries

    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        pairs = json.loads(raw, parse_int=float)
    except ValueError as exc:  # not JSON, or not in a Unicode encoding
        raise argparse.ArgumentTypeError(f"--series-json {path}: {exc}") from None
    if not (
        isinstance(pairs, list)
        and pairs
        and all(
            isinstance(pair, list)
            and len(pair) == 2
            and all(isinstance(x, float) and math.isfinite(x) for x in pair)
            for pair in pairs
        )
    ):
        raise argparse.ArgumentTypeError(
            f"--series-json {path}: expected a nonempty JSON array of [re, im] finite number pairs"
        )
    return PowerSeries.from_coefficient_pairs(pairs)


def _theorem_verdict(report) -> str:
    """A theorem report's verdict: its conclusion check's, else pass when applicable."""
    if report.conclusion_check is not None:
        return report.conclusion_check.verdict
    return "pass" if report.applicable else "fail"


def _verdict_code(verdict: str) -> int:
    return {"pass": EXIT_PASS, "fail": EXIT_FAIL, "inconclusive": EXIT_INCONCLUSIVE}[verdict]


# ---------------------------------------------------------------------------
# Self test.


def run_selftest(out=None) -> int:
    """Small built-in battery touching every module; returns an exit code."""
    from . import series_ops, theorems
    from .gft_checks import check_class, check_subordinate_exp

    out = out if out is not None else sys.stdout
    failures = 0

    def report(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        line = f"{'ok' if ok else 'FAIL'}  {name}"
        if detail and not ok:
            line += f"  ({detail})"
        _print(line, out)
        if not ok:
            failures += 1

    p = BesselParams(1, 0, 2)
    val = special_fn.phi_eval(p, 0.25).value
    ref = math.sin(math.sqrt(0.5)) / math.sqrt(0.5)
    report("phi(1,0,2) closed form", abs(val - ref) < 1e-12, f"{val} vs {ref}")

    r = special_fn.phi_derivative(p, 0.3, 1).value
    rec = -p.c / (4 * p.kappa) * special_fn.phi_eval(p.shift(1), 0.3).value
    report("derivative recurrence", abs(r - rec) < 1e-12, f"{r} vs {rec}")

    rep = check_subordinate_exp(series_ops.series_of_phi(p))
    report("phi(1,0,2) subordinate to e^z", rep.passed, rep.verdict)

    bad = check_class(series_ops.series_of_vartheta(BesselParams(-0.5, 1, 1)), "Se")
    report("z*cos(sqrt z) not starlike", bad.verdict == "fail", bad.verdict)

    curve = theorems.extremal_curve("g2")
    _, want = theorems.expected_extremum("g2")
    report("boundary curve maximum", abs(curve.extremal_value - want) < 1e-10)

    _print("selftest PASS" if failures == 0 else f"selftest FAIL ({failures})", out)
    return EXIT_PASS if failures == 0 else EXIT_FAIL


# ---------------------------------------------------------------------------
# Entry point.


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="besselstar",
        description="generalized Bessel evaluation and exponential starlikeness checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    order_help = "series truncation degree (64)"

    pe = sub.add_parser("eval", help="evaluate a function at a point")
    pe.add_argument("--tol", type=float, default=1e-12, help="series tolerance")
    kind = pe.add_mutually_exclusive_group(required=True)
    kind.add_argument("--phi", action="store_true", help="normalized function phi")
    kind.add_argument("--omega", action="store_true", help="unnormalized function omega")
    kind.add_argument("--named", choices=sorted(special_fn.FAMILIES), help="named family")
    pe.add_argument("--nu", type=_complex_arg, required=True)
    pe.add_argument("--b", type=_complex_arg, default=None)
    pe.add_argument("--c", type=_complex_arg, default=None)
    pe.add_argument("--z", type=_complex_arg, required=True)
    pe.add_argument("--branch-cut-angle", type=float, default=0.0)

    pc = sub.add_parser("check", help="membership / condition checks")
    pc.add_argument("--order", type=_order_arg, default=None, help=order_help)
    pc.add_argument("--grid-radii", default=None, help="comma list of radii in (0,1)")
    pc.add_argument("--grid-angles", type=int, default=None, help="samples per circle")
    pc.add_argument("--json", action="store_true", help="machine-readable output only")
    what = pc.add_mutually_exclusive_group(required=True)
    what.add_argument("--theorem", choices=tuple(THEOREMS))
    what.add_argument("--class", dest="class_id", choices=("Se", "Ke"))
    pc.add_argument("--nu", type=_complex_arg, default=None)
    pc.add_argument("--b", type=_complex_arg, default=None)
    pc.add_argument("--c", type=_complex_arg, default=None)
    pc.add_argument("--alpha", type=float, default=None, help="weight for ex-linear (1)")
    flag = {"action": "store_true", "default": None}  # None when not given
    pc.add_argument("--verify", **flag, help="also verify the conclusion")
    pc.add_argument("--vartheta", **flag, help="test z*phi(z)")
    pc.add_argument("--normalized-phi", **flag, help="test -4 kappa (phi - 1)/c")
    pc.add_argument("--fn", choices=tuple(GENERATORS), default=None, help="stock generator")
    pc.add_argument(
        "--series-json", default=None, help="path to a JSON array of [re, im] coefficients"
    )
    pc.add_argument("--libera", **flag, help="apply the Libera operator first")

    pf = sub.add_parser("figure", help="export figure CSV/SVG")
    pf.add_argument("--order", type=_order_arg, default=_DEFAULT_ORDER, help=order_help)
    pf.add_argument("--quantity", choices=tuple(FIGURE_QUANTITIES), required=True)
    pf.add_argument("--nu", type=_complex_arg, required=True)
    pf.add_argument("--b", type=_complex_arg, default=None)
    pf.add_argument("--c", type=_complex_arg, default=None)
    pf.add_argument("--radius", type=float, default=0.999)
    pf.add_argument("--points", type=int, default=2048)
    pf.add_argument("--no-overlay", action="store_true", help="skip the boundary overlay")
    pf.add_argument("--csv", default=None, help="CSV output path")
    pf.add_argument("--svg", default=None, help="SVG output path")

    sub.add_parser("selftest", help="run the built-in battery")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "eval":
            if args.phi:
                res = special_fn.phi_eval(_params_from_args(args), args.z, tol=args.tol)
            elif args.omega:
                res = special_fn.omega_eval(
                    _params_from_args(args),
                    args.z,
                    branch_cut_angle=args.branch_cut_angle,
                    tol=args.tol,
                )
            else:
                res = special_fn.named_family(args.named, args.nu, args.z, tol=args.tol)
            _print(
                dumps(
                    {
                        "value": [res.value.real, res.value.imag],
                        "terms_used": res.terms_used,
                        "tail_bound": res.tail_bound,
                    }
                )
            )
            return EXIT_PASS

        if args.command == "check":
            grid = _grid_from_args(args)
            if args.theorem:
                from . import theorems

                _refuse_unread(args, theorems.CONDITIONS)
                args.order = args.order or _DEFAULT_ORDER
                report = THEOREMS[args.theorem](theorems, args, grid)
                verdict = _theorem_verdict(report)
            else:
                _refuse_unread(args)
                from .gft_checks import check_class

                series = _class_target(args, args.order or _DEFAULT_ORDER)
                report = check_class(series, args.class_id, grid=grid)
                verdict = report.verdict
            _print(dumps(report.to_json_dict()))
            if not args.json:
                print(f"[{verdict}]", file=sys.stderr)
            return _verdict_code(verdict)

        if args.command == "figure":
            params = _params_from_args(args)
            try:
                spec = FigureSpec(
                    args.quantity,
                    params,
                    radius=args.radius,
                    points=args.points,
                    overlay_exp_boundary=not args.no_overlay,
                    order=args.order,
                )
            except ValueError as exc:  # --radius or --points out of range
                raise argparse.ArgumentTypeError(f"bad figure: {exc}") from None
            nums = "_".join(
                format(v, "g").replace("-", "m").replace(".", "p")
                for v in (params.nu.real, params.b.real, params.c.real)
            )
            stem = f"figure_{args.quantity.replace('-', '_')}_{nums}"
            csv_path = args.csv or f"{stem}.csv"
            svg_path = args.svg or f"{stem}.svg"
            _print(dumps(cmd_figure(spec, csv_path, svg_path)))
            return EXIT_PASS

        if args.command == "selftest":
            return run_selftest()

    except BesselstarError as exc:
        print(f"math error: {exc}", file=sys.stderr)
        return EXIT_MATH
    except argparse.ArgumentTypeError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OverflowError) as exc:
        print(f"math error: {exc}", file=sys.stderr)
        return EXIT_MATH
    except OSError as exc:  # reading --series-json, or writing a figure's files
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO

    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
