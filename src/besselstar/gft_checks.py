"""Numerical membership checks for the exponential starlike/convex classes.

A function p with p(0) = 1 is subordinate to e^z exactly when |log p| < 1 on
the unit disk (principal logarithm; subordination to e^z also forces
re p > 0).  Membership of f in the exponential starlike class is
|log(z f'/f)| < 1, and in the exponential convex class |log(1 + z f''/f')| < 1.

"For all z in the disk" is operationalized as dense sampling of circles
|z| = r up to r = 0.999, followed by a golden-section refinement around the
sampled maximum.  Analytic quantities attain their suprema on the boundary,
so the per-circle suprema must be nondecreasing in r; a violation marks the
run inconclusive.  This is numerical verification, not proof, and reports
carry the sampled evidence (supremum, witness, margin).

A quantity backed by a truncated series (a PowerSeries, or a SeriesQuantity
built from one) is sampled through ``series_ops.eval_rows``: on the N uniform
angles of a grid circle, f, z f' and z^2 f'' come from one batched inverse
FFT of the scaled coefficients, exact for degree < N and exact with the
higher coefficients folded onto n mod N otherwise.  Each refinement probe is
pure Python: a Horner pass over Python complex numbers and cmath for
|log w|, with zero or non-finite values counted as unbounded.  Closed-form
AnalyticMaps have no coefficients and are evaluated at the circle points.

All report types are immutable and the sweeps are pure, so concurrent use
from many threads is safe.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NotNormalized, OutOfDomain, ZeroDenominator
from .series_ops import PowerSeries, eval_rows

# Verdict guard band: pass requires sup < threshold - guard.
GUARD_DEFAULT = 1e-6

# Sampling slack allowed in the per-radius monotonicity sanity check.
MONOTONE_SLACK = 1e-9

# Denominators (and subordination targets) below this count as vanishing.
ZERO_TOL = 1e-14

CLASS_IDS = ("Pe", "Se", "Ke", "bound_quarter", "custom")
VERDICTS = ("pass", "fail", "inconclusive")


@dataclass(frozen=True)
class DiskGrid:
    """Sampling plan: circles |z| = r with uniform angles on [0, 2*pi)."""

    radii: tuple[float, ...] = (0.5, 0.9, 0.99, 0.999)
    angles_per_circle: int = 4096

    def __post_init__(self) -> None:
        rs = tuple(float(r) for r in self.radii)
        if not rs:
            raise ValueError("grid needs at least one radius")
        if any(not 0.0 < r < 1.0 for r in rs):
            raise ValueError(f"radii must lie in (0, 1), got {rs}")
        if any(rs[i] >= rs[i + 1] for i in range(len(rs) - 1)):
            raise ValueError("radii must be strictly ascending")
        if int(self.angles_per_circle) < 1:
            raise ValueError("angles_per_circle must be positive")
        object.__setattr__(self, "radii", rs)
        object.__setattr__(self, "angles_per_circle", int(self.angles_per_circle))

    def angles(self) -> np.ndarray:
        n = self.angles_per_circle
        return np.arange(n) * (2.0 * math.pi / n)

    def circle(self, r: float) -> np.ndarray:
        return r * _unit_roots(self.angles_per_circle)


@functools.lru_cache(maxsize=8)
def _unit_roots(n: int) -> np.ndarray:
    """exp(i theta_k) on the n uniform grid angles, shared read-only."""
    roots = np.exp(1j * (np.arange(n) * (2.0 * math.pi / n)))
    roots.setflags(write=False)
    return roots


@dataclass(frozen=True)
class MembershipReport:
    """Verdict of a sampled membership check, with witness and margin.

    sup_value is the refined supremum of the monitored quantity, witness the
    sample point where it was (or a violation was) found, and margin the
    distance threshold - sup_value (negative on failure).
    """

    class_id: str
    verdict: str
    sup_value: float
    witness: complex
    margin: float
    grid: DiskGrid
    threshold: float = 1.0

    def __post_init__(self) -> None:
        if self.class_id not in CLASS_IDS:
            raise ValueError(f"class_id must be one of {CLASS_IDS}")
        if self.verdict not in VERDICTS:
            raise ValueError(f"verdict must be one of {VERDICTS}")

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self) -> dict:
        return {
            "class": self.class_id,
            "verdict": self.verdict,
            "sup": self.sup_value,
            "witness": [self.witness.real, self.witness.imag],
            "margin": self.margin,
            "grid": {
                "radii": list(self.grid.radii),
                "angles": self.grid.angles_per_circle,
            },
        }


class AnalyticMap:
    """A disk function bundled with its first two derivatives.

    Evaluators must accept scalars and numpy arrays.  Derivatives of
    series-backed functions come from exact coefficient shifts; finite
    differences are never used here.
    """

    def __init__(self, value, deriv1=None, deriv2=None):
        self._value = value
        self._deriv1 = deriv1
        self._deriv2 = deriv2

    @classmethod
    def from_series(cls, series: PowerSeries) -> "AnalyticMap":
        d1 = series.differentiate()
        d2 = d1.differentiate()
        return cls(series.eval, d1.eval, d2.eval)

    def value(self, z):
        return self._value(z)

    def deriv1(self, z):
        if self._deriv1 is None:
            raise ValueError("this map was built without a first derivative")
        return self._deriv1(z)

    def deriv2(self, z):
        if self._deriv2 is None:
            raise ValueError("this map was built without a second derivative")
        return self._deriv2(z)


def as_analytic_map(f) -> AnalyticMap:
    """Coerce a PowerSeries, AnalyticMap or bare callable into an AnalyticMap."""
    if isinstance(f, AnalyticMap):
        return f
    if isinstance(f, PowerSeries):
        return AnalyticMap.from_series(f)
    if callable(f):
        return AnalyticMap(f)
    raise TypeError(f"cannot interpret {type(f).__name__} as an analytic map")


@dataclass(frozen=True)
class SeriesQuantity:
    """The quantity w = combine(f, z f', z^2 f'') of a truncated series f.

    combine receives the three rows of ``eval_rows``: numpy arrays on a grid
    circle, Python complex numbers at a refinement probe.  A zero denominator
    at a probe raises ZeroDivisionError, which the sweep counts as an
    unbounded value.
    """

    series: PowerSeries
    combine: Callable


def _value_row(f, zf1, zzf2):
    return f


def _starlike_rows(f, zf1, zzf2):
    return zf1 / f


def _convex_rows(f, zf1, zzf2):
    return 1.0 + zzf2 / zf1


def _check_in_class_a(f0: complex, f1: complex) -> None:
    """Verify f(0) = 0, f'(0) = 1 (the normalized class)."""
    if abs(f0) > 1e-9 or abs(f1 - 1.0) > 1e-9:
        raise NotNormalized(f"expected f(0)=0 and f'(0)=1, got f(0)={f0!r}, f'(0)={f1!r}")


def starlike_quantity(f, z: complex) -> complex:
    """The ratio z f'(z) / f(z); equals 1 at z = 0 for normalized f."""
    fmap = as_analytic_map(f)
    z = complex(z)
    if z == 0:
        return 1.0 + 0.0j
    den = complex(np.asarray(fmap.value(z), dtype=complex))
    if abs(den) <= ZERO_TOL:
        raise ZeroDenominator(f"f({z!r}) vanishes")
    return z * complex(np.asarray(fmap.deriv1(z), dtype=complex)) / den


def convex_quantity(f, z: complex) -> complex:
    """The ratio 1 + z f''(z) / f'(z); equals 1 at z = 0 for normalized f."""
    fmap = as_analytic_map(f)
    z = complex(z)
    den = complex(np.asarray(fmap.deriv1(z), dtype=complex))
    if abs(den) <= ZERO_TOL:
        raise ZeroDenominator(f"f'({z!r}) vanishes")
    return 1.0 + z * complex(np.asarray(fmap.deriv2(z), dtype=complex)) / den


def _golden_max(fun, lo: float, hi: float, iters: int = 90) -> tuple[float, float]:
    """Golden-section maximizer on [lo, hi] for a scalar function."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fun(d)
        if b - a < 1e-13:
            break
    mid = 0.5 * (a + b)
    return mid, fun(mid)


def _magnitudes(values: np.ndarray, use_log: bool) -> np.ndarray:
    """|log w| (as hypot(log|w|, arg w)) or |w| per sample; non-finite -> inf."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.hypot(np.log(np.abs(values)), np.angle(values)) if use_log else np.abs(values)
    return np.where(np.isfinite(out), out, np.inf)


def _magnitude(value: complex, use_log: bool) -> float:
    """|log w| or |w| at one probe; zero (for the log) or non-finite -> inf."""
    if not cmath.isfinite(value) or (use_log and value == 0):
        return math.inf
    return abs(cmath.log(value)) if use_log else math.hypot(value.real, value.imag)


def _sample(w, grid: DiskGrid, r: float) -> np.ndarray:
    """Values of the quantity on the grid circle |z| = r."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if isinstance(w, SeriesQuantity):
            values = w.combine(*eval_rows(w.series, r, grid.angles_per_circle))
        else:
            values = w(grid.circle(r))
        return np.asarray(values, dtype=complex)


def _probe(w, z: complex) -> complex:
    """Value of the quantity at one point."""
    if isinstance(w, SeriesQuantity):
        return w.combine(*eval_rows(w.series, z))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return complex(w(z))


def _sweep(
    w,
    grid: DiskGrid,
    guard: float,
    threshold: float,
    class_id: str,
    use_log: bool,
    require_positive_real: bool,
) -> MembershipReport:
    """Shared circle-sweep engine behind the membership checks.

    w is a SeriesQuantity (sampled through the FFT rows of its series) or a
    callable of z (evaluated at the circle points).  Monitors |log w|
    (use_log) or |w| over every grid circle, refines the sampled argmax by
    golden-section search, and issues the verdict:

    * fail          -- a sample (or the refined point) reaches the threshold,
                       or w vanishes / loses positive real part where required;
    * pass          -- refined sup < threshold - guard and the per-circle
                       suprema are nondecreasing in r (maximum principle);
    * inconclusive  -- everything else (sup inside the guard band, or
                       monotonicity broken, which flags an evaluation problem).
    """
    step = 2.0 * math.pi / grid.angles_per_circle
    roots = _unit_roots(grid.angles_per_circle)
    per_radius: list[float] = []
    sup = -math.inf
    witness = 0.0 + 0.0j
    witness_theta = 0.0
    witness_radius = grid.radii[-1]
    violation_witness: complex | None = None

    for r in grid.radii:
        values = _sample(w, grid, r)
        bad = ~np.isfinite(values)
        if use_log:
            bad |= np.abs(values) <= ZERO_TOL
        if require_positive_real:
            bad |= values.real <= 0.0
        mags = _magnitudes(values, use_log)
        k = int(np.argmax(mags))
        per_radius.append(float(mags[k]))
        if per_radius[-1] > sup:
            sup = per_radius[-1]
            witness = r * complex(roots[k])
            witness_theta = k * step
            witness_radius = r
        if bad.any() and violation_witness is None:
            violation_witness = r * complex(roots[int(np.argmax(bad))])

    violated = violation_witness is not None
    if not violated and math.isfinite(sup):
        # Refine around the sampled argmax; the quantity is smooth there.
        r = witness_radius

        def height(t: float) -> float:
            try:
                return _magnitude(_probe(w, r * complex(math.cos(t), math.sin(t))), use_log)
            except ZeroDivisionError:
                return math.inf

        t_star, refined = _golden_max(height, witness_theta - step, witness_theta + step)
        if refined > sup:
            sup = refined
            witness = r * complex(math.cos(t_star), math.sin(t_star))

    if violated:
        witness = violation_witness
    margin = threshold - sup
    monotone = all(
        per_radius[i] <= per_radius[i + 1] + MONOTONE_SLACK
        for i in range(len(per_radius) - 1)
    )
    if violated or sup >= threshold:
        verdict = "fail"
    elif monotone and sup < threshold - guard:
        verdict = "pass"
    else:
        verdict = "inconclusive"
    return MembershipReport(
        class_id=class_id,
        verdict=verdict,
        sup_value=sup,
        witness=witness,
        margin=margin,
        grid=grid,
        threshold=threshold,
    )


def check_subordinate_exp(
    w,
    grid: DiskGrid | None = None,
    guard: float = GUARD_DEFAULT,
    class_id: str = "Pe",
) -> MembershipReport:
    """Check |log w| < 1 on the disk for an analytic w with w(0) = 1.

    Samples where w vanishes or has re w <= 0 fail immediately: subordination
    to e^z forces positive real part, and the principal logarithm is then
    continuous along each sampled circle.
    """
    grid = grid or DiskGrid()
    if isinstance(w, PowerSeries):
        center = w.coefficient(0)
        quantity = SeriesQuantity(w, _value_row)
    else:
        quantity = as_analytic_map(w).value
        center = complex(np.asarray(quantity(0.0 + 0.0j), dtype=complex))
    if abs(center - 1.0) > 1e-9:
        raise NotNormalized(f"subordination to e^z needs w(0) = 1, got {center!r}")
    return _sweep(
        quantity,
        grid,
        guard,
        threshold=1.0,
        class_id=class_id,
        use_log=True,
        require_positive_real=True,
    )


def check_class(
    f,
    class_id: str,
    grid: DiskGrid | None = None,
    guard: float = GUARD_DEFAULT,
) -> MembershipReport:
    """Exponential starlike ('Se') or convex ('Ke') membership of normalized f."""
    if class_id not in ("Se", "Ke"):
        raise ValueError(f"class_id must be 'Se' or 'Ke', got {class_id!r}")
    grid = grid or DiskGrid()
    if isinstance(f, PowerSeries):
        _check_in_class_a(f.coefficient(0), f.coefficient(1))
        w = SeriesQuantity(f, _starlike_rows if class_id == "Se" else _convex_rows)
    else:
        fmap = as_analytic_map(f)
        _check_in_class_a(
            complex(np.asarray(fmap.value(0.0 + 0.0j), dtype=complex)),
            complex(np.asarray(fmap.deriv1(0.0 + 0.0j), dtype=complex)),
        )
        if class_id == "Se":

            def w(zs):
                return zs * np.asarray(fmap.deriv1(zs), dtype=complex) / np.asarray(
                    fmap.value(zs), dtype=complex
                )

        else:

            def w(zs):
                return 1.0 + zs * np.asarray(fmap.deriv2(zs), dtype=complex) / np.asarray(
                    fmap.deriv1(zs), dtype=complex
                )

    return _sweep(
        w,
        grid,
        guard,
        threshold=1.0,
        class_id=class_id,
        use_log=True,
        require_positive_real=True,
    )


def _finite(values):
    """values, unless some of them are not finite (then ZeroDenominator)."""
    if isinstance(values, complex):
        ok = cmath.isfinite(values)
    else:
        ok = np.isfinite(values).all()
    if not ok:
        raise ZeroDenominator("quantity could not be evaluated on the grid")
    return values


def check_quarter_bound(
    p,
    grid: DiskGrid | None = None,
    guard: float = GUARD_DEFAULT,
) -> MembershipReport:
    """Check |p| < 1/4 on the disk for analytic p with p(0) = 0.

    p is a SeriesQuantity, a PowerSeries, an AnalyticMap or a callable of z.
    Raises ZeroDenominator when p cannot be evaluated at a sample (the ratio
    it represents has a vanishing denominator there).
    """
    grid = grid or DiskGrid()
    if isinstance(p, PowerSeries):
        p = SeriesQuantity(p, _value_row)
    if isinstance(p, SeriesQuantity):
        combine = p.combine
        quantity = SeriesQuantity(p.series, lambda *rows: _finite(combine(*rows)))
    else:
        value = as_analytic_map(p).value

        def quantity(zs):
            return _finite(value(zs))

    return _sweep(
        quantity,
        grid,
        guard,
        threshold=0.25,
        class_id="bound_quarter",
        use_log=False,
        require_positive_real=False,
    )


def log_bound_lemma_check(w: complex) -> bool:
    """Verify |log(1 + w)| <= 1.5 |w| for |w| < 1/2 (a quantitative log bound)."""
    w = complex(w)
    if abs(w) >= 0.5:
        raise OutOfDomain(f"the bound needs |w| < 1/2, got |w| = {abs(w)}")
    return abs(np.log(1.0 + w)) <= 1.5 * abs(w)
