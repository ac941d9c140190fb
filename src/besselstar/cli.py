"""Command-line front end: evaluate, check, and reproduce the disk figures.

Subcommands
    eval      evaluate phi / omega / a named family member at a point
    check     run a sufficient-condition or class membership check
    figure    export the image of a circle |z| = r under a chosen quantity
              as CSV (and a standalone SVG), with an optional boundary overlay
    selftest  quick built-in sanity battery

Exit codes: 0 pass, 1 fail, 2 usage, 3 math error, 4 inconclusive, 5 I/O.
All numbers in CSV/JSON output are printed with 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import gft_checks, series_ops, special_fn, theorems
from .errors import BesselstarError
from .gft_checks import AnalyticMap, DiskGrid, check_class, check_subordinate_exp
from .series_ops import PowerSeries, libera, series_of_vartheta
from .special_fn import BesselParams

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_MATH = 3
EXIT_INCONCLUSIVE = 4
EXIT_IO = 5


# ---------------------------------------------------------------------------
# Formatting: deterministic 17-significant-digit output.


def _fmt(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


def dumps(obj) -> str:
    """Minimal JSON emitter with fixed float formatting."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(float(obj))
    if isinstance(obj, complex):
        return dumps([obj.real, obj.imag])
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if isinstance(obj, dict):
        inner = ", ".join(f"{dumps(str(k))}: {dumps(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# Geometry: winding-number point-in-region test for the figure verdicts.


def winding_number(vertices: np.ndarray, point: complex) -> int:
    """Winding number of a closed polygonal curve around a point.

    vertices is an array of complex corners in traversal order (the closing
    edge back to the first vertex is implied).  Nonzero means the point is
    enclosed.
    """
    x1, y1 = vertices.real, vertices.imag
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    px, py = point.real, point.imag
    is_left = (x2 - x1) * (py - y1) - (px - x1) * (y2 - y1)
    up = (y1 <= py) & (y2 > py) & (is_left > 0)
    down = (y1 > py) & (y2 <= py) & (is_left < 0)
    return int(up.sum()) - int(down.sum())


def points_enclosed(points: np.ndarray, boundary: np.ndarray) -> bool:
    """True when every point has nonzero winding number w.r.t. the boundary."""
    return all(winding_number(boundary, complex(p)) != 0 for p in np.asarray(points))


def exp_boundary(n_points: int = 4096) -> np.ndarray:
    """The closed boundary curve of the image of the unit disk under e^z."""
    theta = np.arange(n_points) * (2.0 * math.pi / n_points)
    return np.exp(np.exp(1j * theta))


def circle_boundary(radius: float, n_points: int = 4096) -> np.ndarray:
    theta = np.arange(n_points) * (2.0 * math.pi / n_points)
    return radius * np.exp(1j * theta)


# ---------------------------------------------------------------------------
# Figure export.


@dataclass(frozen=True)
class FigureSpec:
    """What to draw: a quantity id plus sampling options.

    function_id has the form '<quantity>:<nu>,<b>,<c>' with quantity one of
    'phi' (the normalized function itself), 'starlike' (z v'/v for
    v = z*phi) or 'convex-ratio' (z v''/v').  When params is given it holds
    the exact parameters and the numbers in function_id are only a label;
    order is the series truncation degree.
    """

    function_id: str
    radius: float = 0.999
    points: int = 2048
    overlay_exp_boundary: bool = True
    params: BesselParams | None = None
    order: int = series_ops.DEFAULT_ORDER

    def __post_init__(self) -> None:
        if not 0.0 < self.radius < 1.0:
            raise ValueError(f"radius must lie in (0, 1), got {self.radius}")
        if self.points < 64:
            raise ValueError(f"points must be >= 64, got {self.points}")


def _parse_function_id(
    function_id: str, params: BesselParams | None = None
) -> tuple[str, BesselParams]:
    """Quantity and parameters of a function id; given params win over its numbers."""
    try:
        quantity, rest = function_id.split(":", 1)
        if params is None:
            nu_s, b_s, c_s = rest.split(",")
            params = BesselParams(complex(nu_s), complex(b_s), complex(c_s))
    except (ValueError, TypeError) as exc:
        raise ValueError(
            f"bad function id {function_id!r}; expected '<quantity>:<nu>,<b>,<c>'"
        ) from exc
    if quantity not in ("phi", "starlike", "convex-ratio"):
        raise ValueError(f"unknown quantity {quantity!r}")
    return quantity, params


def figure_curve(spec: FigureSpec) -> np.ndarray:
    """Image of the circle |z| = radius under the quantity of the spec."""
    quantity, params = _parse_function_id(spec.function_id, spec.params)
    theta = np.arange(spec.points) * (2.0 * math.pi / spec.points)
    zs = spec.radius * np.exp(1j * theta)
    phi = series_ops.series_of_phi(params, spec.order)
    if quantity == "phi":
        return phi.eval(zs)
    v = phi.shift_up()
    d1 = v.differentiate()
    d2 = d1.differentiate()
    if quantity == "starlike":
        return zs * d1.eval(zs) / v.eval(zs)
    return zs * d2.eval(zs) / d1.eval(zs)


def figure_overlay(spec: FigureSpec) -> tuple[str, np.ndarray] | None:
    """Overlay curve: exp-image boundary, or the circle |w| = 1 - 1/e for
    the convex-ratio quantity (whose bound is a disk, not the exp image)."""
    if not spec.overlay_exp_boundary:
        return None
    quantity, _ = _parse_function_id(spec.function_id, spec.params)
    if quantity == "convex-ratio":
        return "circle_1m1e", circle_boundary(1.0 - 1.0 / math.e, spec.points)
    return "exp_boundary", exp_boundary(spec.points)


def _write_csv(path: str, theta: np.ndarray, values: np.ndarray) -> None:
    lines = ["theta,re,im"]
    for t, v in zip(theta, values):
        lines.append(f"{_fmt(float(t))},{_fmt(float(v.real))},{_fmt(float(v.imag))}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_svg(path: str, curves: list[tuple[np.ndarray, str]]) -> None:
    # Self-contained SVG: fixed 640x640 canvas, data bbox padded 5%.
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

    Returns a summary dict with the winding-number verdict: inside is True
    when every curve point is enclosed by the overlay boundary.
    """
    theta = np.arange(spec.points) * (2.0 * math.pi / spec.points)
    curve = figure_curve(spec)
    files = []
    _write_csv(csv_path, theta, curve)
    files.append(csv_path)
    overlay = figure_overlay(spec)
    inside = None
    svg_curves = [(curve, "#1f4e9c")]
    if overlay is not None:
        name, boundary = overlay
        overlay_path = csv_path[:-4] + "_overlay.csv" if csv_path.endswith(".csv") else csv_path + ".overlay"
        _write_csv(overlay_path, theta, boundary)
        files.append(overlay_path)
        inside = points_enclosed(curve, boundary)
        svg_curves.append((boundary, "#666666"))
    _write_svg(svg_path, svg_curves)
    files.append(svg_path)
    return {
        "function_id": spec.function_id,
        "radius": spec.radius,
        "points": spec.points,
        "overlay": overlay[0] if overlay is not None else None,
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


def _grid_from_args(args) -> DiskGrid:
    radii = tuple(float(r) for r in args.grid_radii.split(",")) if args.grid_radii else None
    kwargs = {}
    if radii:
        kwargs["radii"] = radii
    if args.grid_angles:
        kwargs["angles_per_circle"] = args.grid_angles
    return DiskGrid(**kwargs)


def _params_from_args(args) -> BesselParams:
    if args.nu is None:
        raise argparse.ArgumentTypeError("--nu is required here")
    b = args.b if args.b is not None else 1.0
    c = args.c if args.c is not None else 1.0
    return BesselParams(args.nu, b, c)


def _halfplane_map() -> AnalyticMap:
    # z/(1-z) exactly, for convexity premises where truncation would lie.
    return AnalyticMap(
        lambda z: z / (1.0 - z),
        lambda z: 1.0 / (1.0 - z) ** 2,
        lambda z: 2.0 / (1.0 - z) ** 3,
    )


def _generator_series(name: str, order: int) -> PowerSeries:
    if name == "z":
        return PowerSeries((0.0, 1.0) + (0.0,) * (order - 1))
    if name == "halfplane":
        return PowerSeries((0.0,) + (1.0,) * order)
    raise argparse.ArgumentTypeError(f"unknown generator {name!r} (expected z or halfplane)")


_THEOREMS = (
    "Pe",
    "Ke",
    "Se",
    "omega-Se",
    "bkc-chain-a",
    "bkc-chain-b",
    "bessel-a",
    "bessel-b",
    "spherical-a",
    "spherical-b",
    "libera-Ke",
    "libera-Se",
    "chain-bessel",
    "ex-linear",
    "ex-product",
)


def _run_theorem(args, grid: DiskGrid):
    name = args.theorem
    verify = args.verify
    order = args.order
    if name in ("Pe", "Ke", "Se"):
        fn = {"Pe": theorems.hyp_Pe, "Ke": theorems.hyp_Ke, "Se": theorems.hyp_Se}[name]
        return fn(_params_from_args(args), verify=verify, grid=grid, order=order)
    if name == "omega-Se":
        return theorems.hyp_omega_Se(_params_from_args(args), verify=verify, grid=grid, order=order)
    if name in ("bessel-a", "bessel-b", "spherical-a", "spherical-b"):
        family, part = name.split("-")
        c_sign = 1 if args.c is None else (1 if args.c.real >= 0 else -1)
        return theorems.hyp_corollaries(
            args.nu, family, part, c_sign=c_sign, verify=verify, grid=grid, order=order
        )
    if name in ("libera-Ke", "libera-Se"):
        return theorems.hyp_libera(
            _params_from_args(args), name.split("-")[1], verify=verify, grid=grid, order=order
        )
    if name == "chain-bessel":
        c_sign = 1 if args.c is None else (1 if args.c.real >= 0 else -1)
        return theorems.bessel_chain_step(
            args.nu.real, c_sign=c_sign, verify=verify, grid=grid, order=order
        )
    if name in ("bkc-chain-a", "bkc-chain-b"):
        fn_name = args.fn or "halfplane"
        f = _generator_series(fn_name, args.order)
        f_exact = _halfplane_map() if fn_name == "halfplane" else None
        return theorems.hyp_bkc_chain(
            _params_from_args(args),
            f,
            part=name[-1],
            f_exact=f_exact,
            verify=verify,
            grid=grid,
        )
    if name in ("ex-linear", "ex-product"):
        f = _generator_series(args.fn or "halfplane", args.order)
        params = _params_from_args(args)
        if name == "ex-linear":
            return theorems.example_linear_report(
                params, f, alpha=args.alpha, verify=verify, grid=grid
            )
        return theorems.example_product_report(params, f, verify=verify, grid=grid)
    raise argparse.ArgumentTypeError(f"unknown theorem {name!r}")


def _class_target(args, order: int):
    """Build the function under test for `check --class`."""
    chosen = [
        bool(args.vartheta),
        bool(args.normalized_phi),
        args.fn is not None,
        args.series_json is not None,
    ]
    if sum(chosen) != 1:
        raise argparse.ArgumentTypeError(
            "choose exactly one of --vartheta, --normalized-phi, --fn, --series-json"
        )
    if args.vartheta:
        series = series_of_vartheta(_params_from_args(args), order)
    elif args.normalized_phi:
        series = theorems.normalized_phi_deficit(_params_from_args(args), order)
    elif args.series_json is not None:
        with open(args.series_json, encoding="utf-8") as fh:
            series = PowerSeries.from_coefficient_pairs(json.load(fh))
    else:
        series = _generator_series(args.fn, order)
    if args.libera:
        series = libera(series)
    return series


def _report_exit_code(report) -> int:
    if isinstance(report, theorems.TheoremReport):
        if report.conclusion_check is not None:
            return _verdict_code(report.conclusion_check.verdict)
        return EXIT_PASS if report.applicable else EXIT_FAIL
    return _verdict_code(report.verdict)


def _verdict_code(verdict: str) -> int:
    return {"pass": EXIT_PASS, "fail": EXIT_FAIL, "inconclusive": EXIT_INCONCLUSIVE}[verdict]


# ---------------------------------------------------------------------------
# Self test.


def run_selftest(out=None) -> int:
    """Small built-in battery touching every module; returns an exit code."""
    out = out if out is not None else sys.stdout
    failures = 0

    def report(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        line = f"{'ok' if ok else 'FAIL'}  {name}"
        if detail and not ok:
            line += f"  ({detail})"
        print(line, file=out)
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

    bad = check_class(series_of_vartheta(BesselParams(-0.5, 1, 1)), "Se")
    report("z*cos(sqrt z) not starlike", bad.verdict == "fail", bad.verdict)

    curve = theorems.extremal_curve("g2")
    _, want = theorems.expected_extremum("g2")
    report("boundary curve maximum", abs(curve.extremal_value - want) < 1e-10)

    print(("selftest PASS" if failures == 0 else f"selftest FAIL ({failures})"), file=out)
    return EXIT_PASS if failures == 0 else EXIT_FAIL


# ---------------------------------------------------------------------------
# Entry point.


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=1e-12, help="series tolerance")
    common.add_argument("--grid-radii", default=None, help="comma list of radii in (0,1)")
    common.add_argument("--grid-angles", type=int, default=None, help="samples per circle")
    common.add_argument("--json", action="store_true", help="machine-readable output only")
    common.add_argument("--order", type=int, default=64, help="series truncation degree")

    parser = argparse.ArgumentParser(
        prog="besselstar",
        description="generalized Bessel evaluation and exponential starlikeness checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", parents=[common], help="evaluate a function at a point")
    kind = pe.add_mutually_exclusive_group(required=True)
    kind.add_argument("--phi", action="store_true", help="normalized function phi")
    kind.add_argument("--omega", action="store_true", help="unnormalized function omega")
    kind.add_argument("--named", choices=sorted(special_fn.FAMILIES), help="named family")
    pe.add_argument("--nu", type=_complex_arg, required=True)
    pe.add_argument("--b", type=_complex_arg, default=None)
    pe.add_argument("--c", type=_complex_arg, default=None)
    pe.add_argument("--z", type=_complex_arg, required=True)
    pe.add_argument("--branch-cut-angle", type=float, default=0.0)

    pc = sub.add_parser("check", parents=[common], help="membership / condition checks")
    what = pc.add_mutually_exclusive_group(required=True)
    what.add_argument("--theorem", choices=_THEOREMS)
    what.add_argument("--class", dest="class_id", choices=("Se", "Ke"))
    pc.add_argument("--nu", type=_complex_arg, default=None)
    pc.add_argument("--b", type=_complex_arg, default=None)
    pc.add_argument("--c", type=_complex_arg, default=None)
    pc.add_argument("--alpha", type=float, default=1.0, help="weight for ex-linear")
    pc.add_argument("--verify", action="store_true", help="also verify the conclusion")
    pc.add_argument("--vartheta", action="store_true", help="test z*phi(z)")
    pc.add_argument(
        "--normalized-phi", action="store_true", help="test -4 kappa (phi - 1)/c"
    )
    pc.add_argument("--fn", choices=("z", "halfplane"), default=None, help="stock generator")
    pc.add_argument(
        "--series-json", default=None, help="path to a JSON array of [re, im] coefficients"
    )
    pc.add_argument("--libera", action="store_true", help="apply the Libera operator first")

    pf = sub.add_parser("figure", parents=[common], help="export figure CSV/SVG")
    pf.add_argument("--quantity", choices=("phi", "starlike", "convex-ratio"), required=True)
    pf.add_argument("--nu", type=_complex_arg, required=True)
    pf.add_argument("--b", type=_complex_arg, default=None)
    pf.add_argument("--c", type=_complex_arg, default=None)
    pf.add_argument("--radius", type=float, default=0.999)
    pf.add_argument("--points", type=int, default=2048)
    pf.add_argument("--no-overlay", action="store_true", help="skip the boundary overlay")
    pf.add_argument("--csv", default=None, help="CSV output path")
    pf.add_argument("--svg", default=None, help="SVG output path")

    sub.add_parser("selftest", parents=[common], help="run the built-in battery")
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
            print(
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
                report = _run_theorem(args, grid)
            else:
                series = _class_target(args, args.order)
                report = check_class(series, args.class_id, grid=grid)
            print(dumps(report.to_json_dict()))
            code = _report_exit_code(report)
            if not args.json:
                label = {0: "pass", 1: "fail", 4: "inconclusive"}[code]
                print(f"[{label}]", file=sys.stderr)
            return code

        if args.command == "figure":
            params = _params_from_args(args)
            nu, b, c = params.nu, params.b, params.c
            fid = f"{args.quantity}:" + ",".join(
                f"{v.real:g}" + ("" if v.imag == 0 else format(v.imag, "+g") + "j")
                for v in (nu, b, c)
            )
            spec = FigureSpec(
                function_id=fid,
                radius=args.radius,
                points=args.points,
                overlay_exp_boundary=not args.no_overlay,
                params=params,
                order=args.order,
            )
            nums = "_".join(
                format(v, "g").replace("-", "m").replace(".", "p")
                for v in (nu.real, b.real, c.real)
            )
            stem = f"figure_{args.quantity.replace('-', '_')}_{nums}"
            csv_path = args.csv or f"{stem}.csv"
            svg_path = args.svg or f"{stem}.svg"
            try:
                summary = cmd_figure(spec, csv_path, svg_path)
            except OSError as exc:
                print(f"I/O error: {exc}", file=sys.stderr)
                return EXIT_IO
            print(dumps(summary))
            return EXIT_PASS

        if args.command == "selftest":
            return run_selftest()

    except BesselstarError as exc:
        print(f"math error: {exc}", file=sys.stderr)
        return EXIT_MATH
    except argparse.ArgumentTypeError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"math error: {exc}", file=sys.stderr)
        return EXIT_MATH

    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
