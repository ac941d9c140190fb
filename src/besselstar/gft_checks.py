"""Numerical membership checks for the exponential starlike/convex classes.

A function p with p(0) = 1 is subordinate to e^z exactly when |log p| < 1 on
the unit disk (principal logarithm; subordination to e^z also forces
re p > 0).  Membership of f in the exponential starlike class is
|log(z f'/f)| < 1, and in the exponential convex class |log(1 + z f''/f')| < 1.

A check first tries to prove a pass, in two stages.  Each class ratio of
``RATIOS`` is a quotient w = N/D of polynomials in the series'
coefficients.  From the coefficients alone, on the closed unit disk the
triangle inequality bounds |w - 1| by rho = sum |N_n - D_n| / (|D_k| -
sum_{n != k} |D_n|), so |log w| by -log(1 - rho) when rho < 1, and |w|
likewise (``_coefficient_bound``, rounded up).  When that bound is too
loose, N and D are sampled at M points of |z| = 1, M a power of two set by
the degree and the derivative sums sum n |c_n| (at most angles / 8, 512 on
the default plan).  Between samples each factor moves by at most (pi / M)
sum n |c_n|, which bounds |log w| or |w| on every arc; the winding
certificate at r = 1 and the maximum principle carry that bound to the
whole closed disk (``_circle_bound``, rounded up).  A bound below the
threshold by the guard is a pass on the closed disk, reported with the
bound as its sup and evidence "coefficients" (no sample read, no witness)
or "circle" (witness: the sample of the arc that attains the bound).

Every other check is decided on a grid.  "For all z in the disk" is then
operationalized as dense sampling of circles |z| = r up to r = 0.999,
followed by a Brent (parabolic + golden-section) refinement around the
sampled maximum, which starts from the heights already sampled there and
at the two neighbouring angles (the ends of its bracket).  It stops at
sqrt(eps) in theta, or earlier at rounding: once both ends of a narrow
bracket are within a few ulps of the best height, a quadratic peak can lie
only rounding above it (see HEIGHT_ROUNDING).  |log w| and |w| are
subharmonic only where w is analytic (and, for the log, zero-free), so
every grid pass rests on a certificate that w has no zero or pole inside
the disk.  Each ratio names the factors whose zeros matter.  A factor is
tested first from its coefficients: when its lowest term dominates the
others on |z| = 1, Rouche's theorem leaves it no zero in the whole open
disk but those at 0.  Only a factor that fails that test is counted, by
the argument principle, on the outermost grid circle from the samples
already taken, when a derivative bound shows those samples resolve it.  A ratio with no factor
that matters (|w| of a polynomial) needs no count.  With the certificate,
the maximum principle puts the supremum over the disk on that circle, so
the circle alone decides: pass, fail or inconclusive.  The plan's inner
circles are evidence, sampled only when the certificate is not given, and
can then only fail the run or leave it inconclusive.  A factor with a zero
inside makes the run fail; one that may vanish near the circle leaves it
inconclusive.  A grid verdict is numerical verification, not proof, and
its report carries the sampled evidence (evidence "samples", supremum,
witness, margin).  The proof stages only ever pass: whatever they do not
pass goes to the grid unchanged, so every fail and inconclusive verdict
comes from the grid.

The sweep takes one kind of quantity, a ``SeriesQuantity``: a truncated
PowerSeries f read through a ``Ratio`` w = combine(f, z f', z^2 f'') that
names the rows it reads and its factors.  Each monitored quantity is
written once, in ``RATIOS``: w = f for Pe (reads f), z f'/f for Se (f and
z f') and 1 + z^2 f''/(z f') for Ke (z f' and z^2 f'').  The checks here,
the theorems and the CLI figures all evaluate it from there.  Any other
input, such as a closed-form map or a bare callable, raises TypeError: it
has no coefficients to certify a pass with.

On the circles, a series goes through the kernel of ``series_ops.eval_rows``:
one batched inverse FFT of only the rows the ratio reads gives them on the N
uniform angles of every circle asked for, exact for degree < N and exact
with the higher coefficients folded onto n mod N otherwise.  One table of
the series' arrays (coefficients, r^n, row weights) serves every transform,
probe and certificate of a sweep.  The combine, the magnitudes and the
per-circle maxima are then single (R, N) array passes.  A refinement probe
lies within one grid step of the sampled argmax, so each row there is the
circle's trigonometric sum phased by the small angle offset: the rows'
terms at the argmax are tabulated once per refinement, with the Taylor
moments of that offset on default grids (``series_ops._probe_rows``), and
each probe is a short Horner pass per row, with Python complex rows into
the combine and cmath for |log w|, zero denominators or non-finite values
counting as unbounded.

All report types are immutable and the sweeps are pure, so concurrent use
from many threads is safe.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import NotNormalized, OutOfDomain, ZeroDenominator
from .series_ops import (
    PowerSeries,
    _circle_rows,
    _horner_rows,
    _indices,
    _probe_rows,
    _Terms,
    _unit_roots,
)

# Verdict guard band: pass requires sup < threshold - GUARD_DEFAULT.
GUARD_DEFAULT = 1e-6

# Denominators (and subordination targets) below this count as vanishing.
ZERO_TOL = 1e-14

# Normalization tolerance: f(0) = 0, f'(0) = 1 and w(0) = 1 hold within this,
# and a certified factor's lowest nonzero coefficient must exceed it.
NORMALIZED_TOL = 1e-9

CLASS_IDS = ("Pe", "Se", "Ke", "bound_quarter", "custom")
VERDICTS = ("pass", "fail", "inconclusive")
EVIDENCE = ("coefficients", "circle", "samples")


@dataclass(frozen=True)
class DiskGrid:
    """Sampling plan: circles |z| = r with uniform angles on [0, 2*pi).

    A certified grid verdict samples only the outermost circle; the inner
    ones are evidence, sampled when the certificate is not given.  A pass
    from the coefficients samples none, and one from |z| = 1 samples that
    circle at angles_per_circle / 8 points or fewer.  Reports carry the
    whole plan either way.
    """

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

    def circle(self, r: float) -> np.ndarray:
        return r * _unit_roots(self.angles_per_circle)


# The plan every check uses when given none; immutable, so one serves all.
DEFAULT_GRID = DiskGrid()


@dataclass(frozen=True)
class MembershipReport:
    """Verdict of a membership check, with its evidence, witness and margin.

    evidence says what decided the verdict.  "coefficients": a pass proven
    from the series' coefficients alone, on the whole closed unit disk;
    sup_value is then that proven bound and witness is None, as no sample
    was read.  "circle": a pass proven on the whole closed unit disk from
    samples of |z| = 1 and a bound between them; sup_value is that proven
    bound and witness the sample, on |z| = 1, of the arc that attains it.
    "samples": the grid sweep; sup_value is the refined supremum of the
    monitored quantity and witness the sample point where it was (or a
    violation was) found.  margin is the distance threshold - sup_value
    (negative on failure), and grid the sampling plan in every case.
    """

    class_id: str
    verdict: str
    sup_value: float
    witness: complex | None
    margin: float
    grid: DiskGrid
    threshold: float = 1.0
    evidence: str = "samples"

    def __post_init__(self) -> None:
        if self.class_id not in CLASS_IDS:
            raise ValueError(f"class_id must be one of {CLASS_IDS}")
        if self.verdict not in VERDICTS:
            raise ValueError(f"verdict must be one of {VERDICTS}")
        if self.evidence not in EVIDENCE:
            raise ValueError(f"evidence must be one of {EVIDENCE}")

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self) -> dict:
        return {
            "class": self.class_id,
            "verdict": self.verdict,
            "evidence": self.evidence,
            "sup": self.sup_value,
            "witness": None if self.witness is None else [self.witness.real, self.witness.imag],
            "margin": self.margin,
            "grid": {
                "radii": list(self.grid.radii),
                "angles": self.grid.angles_per_circle,
            },
        }


class AnalyticMap:
    """A closed-form disk function bundled with its first two derivatives.

    Evaluators must accept scalars and numpy arrays; finite differences are
    never used here.  No sweep takes a map: it has no coefficients to
    certify a pass with.  A map serves one job, the exact f of the
    convexity premise of ``theorems.hyp_bkc_chain``, where a truncation of
    slowly decaying coefficients would misrepresent f near |z| = 1.
    """

    def __init__(self, value, deriv1, deriv2):
        self.value = value
        self.deriv1 = deriv1
        self.deriv2 = deriv2


class Ratio(NamedTuple):
    """A quantity w = combine(f, z f', z^2 f'') that reads only some rows.

    rows lists the indices (0: f, 1: z f', 2: z^2 f'') of the rows combine
    reads; the sweep computes only those and passes None for the others.

    zeros and poles name the factors of w, each a sum of rows given by their
    indices: w is analytic in the disk where no pole factor vanishes, and
    also zero-free where no zero factor vanishes, apart from the centre,
    where the caller's normalization leaves w finite and nonzero.  Both are
    required, () for none, so that a factor left out cannot read as none.
    A grid pass needs the sweep to certify that no factor that matters
    vanishes inside the outermost grid circle (see ``_sampled_sweep``).
    Only the Ratios of ``RATIOS`` are also bounded from the coefficients
    and from |z| = 1 (see ``_sweep``): the bounds rest on their combine
    being the quotient of their factors.
    """

    combine: Callable
    rows: tuple[int, ...]
    zeros: tuple[tuple[int, ...], ...]
    poles: tuple[tuple[int, ...], ...]

    def __call__(self, f, zf1, zzf2):
        return self.combine(f, zf1, zzf2)


@dataclass(frozen=True)
class SeriesQuantity:
    """The quantity w = combine(f, z f', z^2 f'') of a truncated power series f.

    This is the one form of quantity the sweep takes: series is a
    PowerSeries and combine a Ratio; anything else raises TypeError.
    combine receives only the rows it reads, None for the others: (R, N)
    numpy arrays on R circles, and Python complex numbers at a refinement
    probe.  A zero denominator at a probe raises ZeroDivisionError, which
    the sweep counts as an unbounded value.  The Ratio's factors let the
    sweep certify a pass on the outermost circle by counting their zeros
    from the coefficients.
    """

    series: PowerSeries
    combine: Ratio

    def __post_init__(self) -> None:
        if not isinstance(self.series, PowerSeries):
            raise TypeError(
                f"the sweep takes a PowerSeries, not {type(self.series).__name__}: "
                "a pass is certified from its coefficients"
            )
        if not isinstance(self.combine, Ratio):
            raise TypeError(
                f"a PowerSeries quantity needs a Ratio that states its factors, "
                f"not {type(self.combine).__name__}"
            )

    @property
    def rows(self) -> tuple[int, ...]:
        return self.combine.rows

    def factors(self, use_log: bool) -> tuple[tuple[int, ...], ...]:
        """The factors whose zeros matter: poles for |w|, also zeros for |log w|."""
        ratio = self.combine
        return ratio.poles + ratio.zeros if use_log else ratio.poles


def _value(f, zf1, zzf2):
    return f


def _starlike(f, zf1, zzf2):
    return zf1 / f


def _convex(f, zf1, zzf2):
    return 1.0 + zzf2 / zf1


# The monitored quantity w of each class as a function of the rows
# (f, z f', z^2 f''): f itself (Pe: |log f| < 1), z f'/f (Se) and
# 1 + z f''/f' = (z f' + z^2 f'')/(z f') (Ke), each with the rows it reads
# and its factors: zeros f (Pe); zeros z f' and poles f (Se); zeros
# z f' + z^2 f'' = z (z f')' and poles z f' (Ke).  This is the one place the
# ratios are written; every check, theorem and figure evaluates them from here.
RATIOS = {
    "Pe": Ratio(_value, (0,), zeros=((0,),), poles=()),
    "Se": Ratio(_starlike, (0, 1), zeros=((1,),), poles=((0,),)),
    "Ke": Ratio(_convex, (1, 2), zeros=((1, 2),), poles=((1,),)),
}


def _quantity(f, class_id: str) -> SeriesQuantity:
    """The class quantity of a PowerSeries f (TypeError for anything else)."""
    return SeriesQuantity(f, RATIOS[class_id])


def _circle_values(w: SeriesQuantity, terms: _Terms, radii, angles: int):
    """w on the circles of the given radii, one row per radius, and the rows it read.

    terms is the table of w's series.  Only the rows w reads are computed,
    on all the circles by one batched inverse FFT, and they are returned
    for the winding certificate.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rows = _placed(w.rows, _circle_rows(terms, radii, angles, w.rows))
        return np.asarray(w.combine(*rows), dtype=complex), rows


def _check_in_class_a(f: PowerSeries) -> None:
    """Verify f(0) = 0, f'(0) = 1 (the normalized class)."""
    f0, f1 = f.coefficient(0), f.coefficient(1)
    if abs(f0) > NORMALIZED_TOL or abs(f1 - 1.0) > NORMALIZED_TOL:
        raise NotNormalized(f"expected f(0)=0 and f'(0)=1, got f(0)={f0!r}, f'(0)={f1!r}")


def _ratio_at(f, z: complex, class_id: str) -> complex:
    """The Se or Ke ratio of a PowerSeries f at one point, from one pass over its rows.

    At z = 0 it is the limit: z f'/f tends to 0 when f(0) != 0 and to 1 when
    f(0) = 0 != f'(0); 1 + z f''/f' tends to 1 when f'(0) != 0.  A vanishing
    f'(0) there (with f(0) = 0 for Se) raises ZeroDenominator.  Elsewhere the
    denominator row (f for Se, z f' for Ke) vanishes when den / z does: z f'
    and a normalized f are O(|z|) near 0, so an absolute test on den would
    reject every |z| <= ZERO_TOL.
    """
    w = _quantity(f, class_id)
    z = complex(z)
    if z == 0:
        if class_id == "Se" and abs(f.coefficient(0)) > ZERO_TOL:
            return 0j
        if abs(f.coefficient(1)) <= ZERO_TOL:
            raise ZeroDenominator(f"the {class_id} ratio has no finite limit at 0")
        return 1.0 + 0.0j
    rows = _placed(w.rows, _horner_rows(f, z, w.rows))
    den = rows[0] if class_id == "Se" else rows[1]
    if abs(den / z) <= ZERO_TOL:
        raise ZeroDenominator(f"the {class_id} ratio has a vanishing denominator at {z!r}")
    return complex(w.combine(*rows))


def starlike_quantity(f: PowerSeries, z: complex) -> complex:
    """The ratio z f'(z) / f(z) of a PowerSeries f; at z = 0 its limit (1 for normalized f)."""
    return _ratio_at(f, z, "Se")


def convex_quantity(f: PowerSeries, z: complex) -> complex:
    """The ratio 1 + z f''(z) / f'(z) of a PowerSeries f; at z = 0 its limit (1 if f'(0) != 0)."""
    return _ratio_at(f, z, "Ke")


# Brent's tolerance in theta (radians): probes are at least this far apart,
# and refinement stops once the best probe lies within twice it of both ends
# of the bracket.  At a smooth maximum the height error is about
# |h''| delta^2 / 2, so a delta of order sqrt(eps) changes the sup only by
# rounding.  The tolerance is absolute: near theta = 0 a relative one
# shrinks to nothing.
THETA_TOL = math.sqrt(sys.float_info.epsilon)

# The rounding stop.  A height is |log w| or |w| from rows summed over a few
# hundred terms, and heights probed within a THETA_TOL of each other differ
# by a few ulps, so heights closer than HEIGHT_ROUNDING * max(1, h) cannot
# be told apart.  Near the peak h(t) = h* - c (t - t*)^2 / 2.  Take the best
# probe x in the bracket (a, b), at p = x - a and q = b - x from its ends,
# with both end heights within tau of h(x).  If t* lies between a and x, at
# u = x - t*, then u <= p / 2 (since h(a) <= h(x)), and h(x) - h(b) =
# c (2 u q + q^2) / 2 <= tau gives c u <= tau / q, so the peak is at most
# h* - h(x) = c u^2 / 2 <= tau p / (4 q) above the best probe; the other
# side gives tau q / (4 p).  Stopping once b - a <= NARROW_BRACKET *
# min(p, q) keeps that under NARROW_BRACKET * tau / 4 = 64 eps max(1, h),
# about 1.4e-14 for h <= 1: as much as Brent's own stop leaves, c (2
# THETA_TOL)^2 / 2 = 2 c eps, on a peak of curvature c = 32.  A sampled
# peak whose grid neighbours already agree with it to rounding has
# p = q = one grid step and stops before its first probe.
HEIGHT_ROUNDING = 4.0 * sys.float_info.epsilon
NARROW_BRACKET = 64.0

# A bound on Brent's probes.  The stops above end the sweeps' searches long
# before it: a dozen probes at most on the tested grids.
MAX_PROBES = 90


def _golden_max(fun, lo: float, hi: float, sampled) -> tuple[float, float]:
    """Brent's bracketed maximizer on [lo, hi] for a scalar function.

    Each step is the vertex of the parabola through the three best points
    (x, w, v), or a golden-section step into the larger part of the bracket
    when that vertex falls outside it or the parabolic steps stop shrinking
    (R. P. Brent, Algorithms for Minimization without Derivatives, 1973,
    ch. 5).  The search starts from the sampled heights, sampled = (x,
    f(lo), f(x), f(hi)) with f(x) the largest of the three: x is the best
    point and the ends are w and v, so the first step is a golden-section
    step.  Stops when x is within 2 THETA_TOL of both ends, after
    MAX_PROBES probes, at the first probe valued inf, or at rounding: once
    the heights at both ends of the bracket are within HEIGHT_ROUNDING *
    max(1, f(x)) of f(x) and the bracket is at most NARROW_BRACKET times
    the distance from x to its nearer end, so the peak can lie only
    rounding above f(x).  Returns the best point and its value; fun is
    called once per probe.
    """
    golden = (3.0 - math.sqrt(5.0)) / 2.0
    a, b = lo, hi
    x, fa, fx, fb = sampled
    (fw, w), (fv, v) = ((fa, a), (fb, b)) if fa >= fb else ((fb, b), (fa, a))
    d = e = 0.0
    for _ in range(MAX_PROBES):
        if fx == math.inf or max(x - a, b - x) <= 2.0 * THETA_TOL:
            break
        if (
            b - a <= NARROW_BRACKET * min(x - a, b - x)
            and fx - min(fa, fb) <= HEIGHT_ROUNDING * max(1.0, fx)
        ):
            break
        mid = 0.5 * (a + b)
        parabolic = False
        if abs(e) > THETA_TOL:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            # Accept the vertex only inside (a, b) and when the step is under
            # half the one before last, so the bracket keeps shrinking.
            parabolic = abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x)
            e = d
        if parabolic:
            d = p / q
            if x + d - a < 2.0 * THETA_TOL or b - (x + d) < 2.0 * THETA_TOL:
                d = math.copysign(THETA_TOL, mid - x)
        else:
            e = (a if x >= mid else b) - x
            d = golden * e
        u = x + (d if abs(d) >= THETA_TOL else math.copysign(THETA_TOL, d))
        fu = fun(u)
        if fu >= fx:
            if u < x:
                b, fb = x, fx
            else:
                a, fa = x, fx
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a, fa = u, fu
            else:
                b, fb = u, fu
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v in (x, w):
                v, fv = u, fu
    return x, fx


def _magnitudes(values: np.ndarray, use_log: bool, modulus=None) -> np.ndarray:
    """|log w| (as hypot(log|w|, arg w)) or |w| per sample; non-finite -> inf.

    modulus is |values|, when the caller has it already.
    """
    if modulus is None:
        modulus = np.abs(values)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.hypot(np.log(modulus), np.angle(values)) if use_log else modulus
    return np.where(np.isfinite(out), out, np.inf)


def _magnitude(value: complex, use_log: bool) -> float:
    """|log w| or |w| at one probe; zero (for the log) or non-finite -> inf."""
    if not cmath.isfinite(value) or (use_log and value == 0):
        return math.inf
    return abs(cmath.log(value)) if use_log else math.hypot(value.real, value.imag)


def _placed(indices: tuple[int, ...], values) -> list:
    """The three rows with values at the listed indices and None elsewhere."""
    rows = [None, None, None]
    for i, row in zip(indices, values):
        rows[i] = row
    return rows


def _dominance_floor(sizes: np.ndarray, k: int) -> float:
    """A lower bound on |P(z) / z^k| over the closed unit disk, when positive.

    sizes are the moduli |c_n| of the coefficients of a polynomial P, as
    computed, and c_n = 0 for n < k.  On |z| <= 1 the triangle inequality
    gives |P(z) / z^k| >= |c_k| - sum_{n > k} |c_n|.  The floor is that,
    computed, less a rounding slack of (N + 9) eps times the total T =
    sum_n |c_n|, for N coefficients.  Each size (|a_n| times an integer row
    weight, or |a_0 - 1|) is within 3 u of exact, u = eps / 2; their sum
    is within (N - 1) u of its exact value in any summation order; and the
    rest, the floor and the slack's product add a rounding each.  That is
    at most (N + 11) u T at first order, so the floor lies at least
    (N + 7) u T below the exact bound, and T is at least that bound: a
    relative spare of (N + 7) u, which also covers the (N + 3) u of a sum
    of N sizes divided by the floor (``_coefficient_bound``).
    """
    total = float(sizes.sum())
    lead = float(sizes[k])
    return lead - (total - lead) - (sizes.size + 9) * sys.float_info.epsilon * total


def _lowest_term_dominates(sizes: np.ndarray, k: int) -> bool:
    """Whether |c_k| exceeds sum_{n != k} |c_n| by more than their rounding.

    sizes are the moduli |c_n| of the coefficients of a polynomial P, as
    computed, and k is its order of vanishing.  If the exact moduli satisfy
    sum_{n != k} |c_n| < |c_k|, then on |z| = 1 |P(z) - c_k z^k| < |c_k z^k|,
    so by Rouche's theorem P has as many zeros in the open unit disk as
    c_k z^k, namely k, and none on the circle (Henrici, Applied and
    Computational Complex Analysis I, 1974, on Rouche's theorem).  The test
    asks for a positive ``_dominance_floor``: the computed |c_k| must exceed
    the computed rest by twice the first-order rounding of the sums.
    """
    return _dominance_floor(sizes, k) > 0.0


def _factor_sizes(w: SeriesQuantity) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The moduli |N_n|, |D_n| and |N_n - D_n| of the factors of w = N / D.

    w's Ratio must be one of ``RATIOS``.  Each is a quotient w = N/D of two
    polynomials: N is its zero factor and D its pole factor, or D = 1 when
    it has none, with coefficients N_n and D_n read off the series' own
    (row weights summed, as in ``_winding_certificate``).
    """
    ratio = w.combine
    sizes = np.abs(w.series.coeffs)
    _, weights = _indices(sizes.size)
    top = _factor_sum(weights, ratio.zeros[0])
    num = sizes * top
    if ratio.poles:
        bottom = _factor_sum(weights, ratio.poles[0])
        # the weights are integers, so their difference is exact
        return num, sizes * bottom, sizes * np.abs(top - bottom)
    den = np.zeros(sizes.size)
    den[0] = 1.0
    diff = num.copy()
    diff[0] = abs(w.series.coefficient(0) - 1.0)
    return num, den, diff


def _coefficient_bound(sizes, use_log: bool) -> float:
    """A proven bound on |log w| (use_log) or |w| over the closed unit disk, else inf.

    sizes are the moduli (|N_n|, |D_n|, |N_n - D_n|) of the factors of w =
    N/D (``_factor_sizes``).  Take k the first index where D_n is exactly
    nonzero, and require N_n = D_n = 0 for n < k.  On |z| <= 1,
    |D(z) / z^k| >= floor (``_dominance_floor``) and |(N - D)(z) / z^k| <=
    sum_n |N_n - D_n|.  When floor > 0, w is analytic there and |w - 1| <=
    rho = sum_n |N_n - D_n| / floor (Rouche's theorem in quotient form;
    Henrici, Applied and Computational Complex Analysis I, 1974).  When
    rho < 1, w is zero-free with re w > 0 and |log w| <= sum_m rho^m / m =
    -log(1 - rho); the paper's classes need this below 1, and the disk
    |w - 1| < 1 - 1/e lies inside e^D (Mendiratta, Nagpal & Ravichandran,
    Bull. Malays. Math. Sci. Soc. 38, 2015).  For |w| the bound is
    sum_n |N_n| / floor.  For Pe (w = f, D = 1) rho is |a_0 - 1| +
    sum_{n >= 1} |a_n|: dividing by |a_0| would bound log(f / a_0), not
    log f.

    Every step rounds up: the floor's spare covers the numerator's sum and
    the division, and the logarithm gets 4 eps for the ulps of log1p.  The
    bound is for the PowerSeries as given, up to |z| = 1.
    """
    num, den, diff = sizes
    nonzero = np.flatnonzero(den)
    if not nonzero.size or num[: nonzero[0]].any():
        return math.inf
    floor = _dominance_floor(den, nonzero[0])
    if not floor > 0.0:
        return math.inf
    rho = float((diff if use_log else num).sum()) / floor
    if not use_log:
        return rho
    if not rho < 1.0:
        return math.inf
    return -math.log1p(-rho) * (1.0 + 4.0 * sys.float_info.epsilon)


def _factor_sum(rows, factor: tuple[int, ...]):
    """The sum of the rows (or row weights) a factor names."""
    first, *rest = factor
    # starting the sum from the first row copies no lone row
    return sum((rows[i] for i in rest), rows[first])


def _winding_certificate(terms: _Terms, rows, factors, r: float, angles: int):
    """Whether each factor's only zero inside |z| < r is its zero at 0.

    terms is the table of the series, rows are its (R, N) rows on circles
    whose last is |z| = r, as the sweep transformed them, and each factor P
    is the sum of the rows its indices name.  Its coefficients are c_n =
    w(n) a_n, with w the sum of the named rows' weights, and its order of
    vanishing at 0 is k, the index of its first exactly nonzero c_n; unless
    |c_k| exceeds NORMALIZED_TOL, the factor is unresolved.

    The coefficients are tested first: when the lowest term dominates the
    others on |z| = 1 (``_lowest_term_dominates``), Rouche's theorem gives P
    exactly k zeros in the whole open unit disk, the same count as at 0,
    and the factor passes with no sample read.  Only a factor that fails
    that test is counted from its samples on |z| = r.

    By the argument principle, P has as many zeros inside the circle as its
    winding number sum_k arg(P_{k+1} / P_k) / (2 pi) over the samples, with
    principal arguments (Delves & Lyness, Math. Comp. 21, 1967); the factor
    passes when that equals k.  The count is exact only when the samples
    resolve P.  With S = sum_n |c_n| n r^n, |dP/dtheta| <= S on the circle,
    so P stays within m * step * S of P(theta_k) over the next m grid steps.
    While that, plus a rounding slack, is below min_k |P(theta_k)|, those
    arcs keep in disks that exclude 0 and each principal argument is the
    true change; the sum runs over every m-th sample, for the largest such
    m.  If m = 1 fails too, P may vanish near the circle and is unresolved.
    The slack, 2 (N + degree + 1) eps sum_n |c_n| r^n, is twice the
    classical bound for a sum of that many terms, for the rounding of the
    transform (folded aliases included) at both ends of an arc.

    Returns False when a counted factor has a zero inside besides its zero
    at 0, else None when some factor is not resolved (a zero near the circle
    or a lowest coefficient not above the tolerance), else True.
    """
    n, weights = terms.n, terms.weights
    sizes = np.abs(terms.coeffs)
    radial = sizes * terms.powers(r)
    resolved = True
    for factor in factors:
        weight = _factor_sum(weights, factor)
        moduli = sizes * weight
        nonzero = np.flatnonzero(moduli)
        order = nonzero[0] if nonzero.size and moduli[nonzero[0]] > NORMALIZED_TOL else None
        if order is not None and _lowest_term_dominates(moduli, order):
            continue
        values = _factor_sum(rows, factor)[-1]
        slack = _transform_slack(angles, n.size, float(radial @ weight))
        drift = 2.0 * math.pi / angles * float(radial @ (n * weight))
        floor = float(np.abs(values).min()) - slack
        if order is None or not floor > drift:
            resolved = False
            continue
        stride = min(math.ceil(floor / drift) - 1, angles) if drift else angles
        picked = values[::stride]
        turns = np.angle(picked[1:] / picked[:-1]).sum() + cmath.phase(picked[0] / picked[-1])
        if round(float(turns) / (2.0 * math.pi)) != order:
            return False
    return True if resolved else None


# The circle stage's sample count M: the least power of two above the
# degree whose arc term (pi / M) sum n |c_n| is at most this share of
# sum |c_n| for each factor, and at most a grid's angles / 8.  On the
# soundness pool of seed 201 it proves as many sweeps (67) as M = 512 does;
# a share of 1/16 proves 55.
ARC_SHARE = 1.0 / 64.0


def _transform_slack(angles: int, size: int, total: float) -> float:
    """Twice the classical rounding bound of one transformed sample of a factor.

    size is the number of coefficients and total the sum of their moduli on
    the circle (see ``_winding_certificate``).
    """
    return 2.0 * (angles + size) * sys.float_info.epsilon * total


def _circle_bound(
    w: SeriesQuantity, terms: _Terms, sizes, angles: int, use_log: bool, limit: float
) -> tuple[float, complex] | None:
    """A proven bound below limit on |log w| (use_log) or |w| over the closed disk, else None.

    Returns the bound and its witness on |z| = 1.  w's Ratio must be one of
    ``RATIOS``, a quotient w = N/D of its zero and pole factors (D = 1 for
    Pe), terms the table of its series and sizes their coefficient moduli
    (``_factor_sizes``).  With k the first index where D_n is exactly
    nonzero, N must vanish at 0 to order k at least (to order k exactly for
    |log w|), and each factor the certificate counts must have its order-k
    coefficient above NORMALIZED_TOL, so the zeros at 0 the certificate
    allows are the factors' own: w is then analytic at 0 (and nonzero there
    for the log), with w(0) = N_k / D_k.

    Sample count.  Per factor, T = sum |c_n| and S = sum n |c_n|.  M is the
    least power of two above the degree with (pi / M) S <= ARC_SHARE T for
    each factor, and at most angles / 8.  When even that cap leaves
    (pi / M) S >= T for a factor, no sample could resolve it (it is at most
    T in modulus), and nothing is transformed.

    Bound on each arc.  The rows w reads are transformed at the M angles
    theta_k of |z| = 1.  Each point of the circle lies within pi / M of some
    theta_k, and |dP/dtheta| <= S there, so on the arc around theta_k a
    factor P stays within delta = (pi / M) S + slack of its computed sample
    P~_k.  The slack is that of ``_winding_certificate``: half of it covers
    the transform's rounding, the other half the rounding of delta itself,
    which is below T.  With w~_k = N~_k / D~_k, on the arc
    |N D~ - N~ D| <= delta_N |D~| + |N~| delta_D, so

        |w - w~_k| <= e_k = (delta_N + |w~_k| delta_D) / (|D~_k| - delta_D)

    while |D~_k| > delta_D, which also keeps D from vanishing on the arc.
    Hence |w| <= |w~_k| + e_k.  For the log, write w = w~_k (1 + u) with
    |u| <= t = e_k / |w~_k| < 1: the branch Log w~_k + log(1 + u) of log w
    has modulus at most |Log w~_k| - log(1 - t).  The bound is the largest
    over the arcs, raised by 16 eps (1 + bound) for the ulps of the
    quotient, its modulus, logarithm and argument, e_k and log1p.  The
    witness is the sample of the arc that attains it.

    Pass.  A bound below limit is a pass on the closed disk once
    ``_winding_certificate``, run at r = 1 on the same rows, shows that each
    factor that matters vanishes inside only at 0.  Then w is analytic (for
    the log, also zero-free) on the closed disk, and the maximum principle
    carries the circle's bound inside.  For the log, the arc branches agree
    where arcs meet (two logs of one value, both of modulus below pi), so
    they form a continuous log of w on the circle.  It differs from the
    analytic log L of w with L(0) = Log w(0) by a constant 2 pi i m.  By the
    mean-value identity, L(0) is the mean of L over the circle, so
    |2 pi m| <= |L(0)| + bound.  The checks' normalization gives w(0) = 1
    (within NORMALIZED_TOL for Pe), so |L(0)| is at most about
    NORMALIZED_TOL, and a bound below 1 makes m = 0: L is the principal
    log, bounded on the circle and so on the disk.
    """
    ratio = w.combine
    num, den, _ = sizes
    n = _indices(num.size)[0]
    # (factor, T, S) for N, and for D unless D = 1
    factors = [(ratio.zeros[0], float(num.sum()), float(num @ n))]
    if ratio.poles:
        factors.append((ratio.poles[0], float(den.sum()), float(den @ n)))
    cap = angles // 8
    if not cap or not all(math.pi / cap * moment < total for _, total, moment in factors):
        return None
    nonzero = np.flatnonzero(den)
    if not nonzero.size or num[: nonzero[0]].any():
        return None
    order = nonzero[0]
    if not den[order] > NORMALIZED_TOL or (use_log and not num[order] > NORMALIZED_TOL):
        return None
    m = 1 << (num.size - 1).bit_length()
    while m < cap and any(math.pi / m * moment > ARC_SHARE * total for _, total, moment in factors):
        m *= 2
    m = min(m, cap)
    rows = _placed(ratio.rows, _circle_rows(terms, (1.0,), m, ratio.rows))
    # each factor's samples and its distance delta from them over an arc
    (top, d_top), *pole = [
        (_factor_sum(rows, factor)[0], math.pi / m * moment + _transform_slack(m, num.size, total))
        for factor, total, moment in factors
    ]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if pole:
            ((bottom, d_bottom),) = pole
            room = np.abs(bottom) - d_bottom
            quotient = top / bottom
            modulus = np.abs(quotient)
            error = np.where(room > 0.0, (d_top + modulus * d_bottom) / room, math.inf)
        else:
            quotient, modulus, error = top, np.abs(top), d_top
        if use_log:
            heights = _magnitudes(quotient, True, modulus) - np.log1p(-error / modulus)
        else:
            heights = modulus + error
    k = int(heights.argmax())
    bound = float(heights[k])
    bound += 16.0 * sys.float_info.epsilon * (1.0 + bound)
    # an arc with t >= 1 has a nan or inf height, which fails this too
    if not bound < limit:
        return None
    if not _winding_certificate(terms, rows, w.factors(use_log), 1.0, m):
        return None
    return bound, complex(_unit_roots(m)[k])


def _report(class_id, verdict, sup, witness, grid, threshold, evidence="samples"):
    """The MembershipReport of a verdict with sup_value sup and margin threshold - sup."""
    return MembershipReport(
        class_id, verdict, sup, witness, threshold - sup, grid, threshold, evidence
    )


def _sweep(
    w: SeriesQuantity,
    grid: DiskGrid,
    threshold: float,
    class_id: str,
    use_log: bool,
) -> MembershipReport:
    """Shared engine behind the membership checks: two proof stages, then the grid.

    When w's Ratio is one of ``RATIOS`` (compared field by field, combine
    included, so a Ratio with the same factors but another combine does not
    qualify), two stages try to prove |log w| (use_log) or |w| below
    threshold - GUARD_DEFAULT on the whole closed unit disk.  First
    ``_coefficient_bound``, from the series' coefficients: a pass has
    evidence "coefficients" and witness None, and no transform, refinement
    or winding count runs.  Then ``_circle_bound``, from one transform of
    the rows w reads at a few hundred points of |z| = 1, a bound between
    samples, and the winding certificate at r = 1: a pass has evidence
    "circle" and its witness on |z| = 1.  Either way sup_value is the
    proven bound and margin threshold - bound.  Every other quantity, and
    every check neither stage passes, goes to the grid sweep
    (``_sampled_sweep``) unchanged, whose report has evidence "samples", so
    every fail and inconclusive report comes from the grid.  grid is the
    plan in every case.  The table of w's series (``series_ops._Terms``) is
    built once, past the coefficient stage, for the circle stage and the grid.
    """
    if w.combine in RATIOS.values():
        limit = threshold - GUARD_DEFAULT
        sizes = _factor_sizes(w)
        bound = _coefficient_bound(sizes, use_log)
        if bound < limit:
            return _report(class_id, "pass", bound, None, grid, threshold, "coefficients")
        terms = _Terms(w.series)
        circle = _circle_bound(w, terms, sizes, grid.angles_per_circle, use_log, limit)
        if circle:
            return _report(class_id, "pass", *circle, grid, threshold, "circle")
    else:
        terms = _Terms(w.series)
    return _sampled_sweep(w, terms, grid, threshold, class_id, use_log)


def _sampled_sweep(
    w: SeriesQuantity,
    terms: _Terms,
    grid: DiskGrid,
    threshold: float,
    class_id: str,
    use_log: bool,
) -> MembershipReport:
    """The grid sweep behind ``_sweep``, for what the proof stages do not pass.

    Monitors |log w| (use_log) or |w| over the grid circles in single (R, N)
    passes, judging each circle once.  The series is sampled through one
    batched inverse FFT of only the rows w reads and probed from a table of
    those rows' terms at the refined sample; terms, the sweep's table of its
    arrays (``series_ops._Terms``), serves every transform, probe and
    certificate.
    The sweep refines the sampled argmax once by Brent (parabolic +
    golden-section) search, starting from the heights sampled at the argmax
    and at its two neighbours (the bracket ends), until the bracket is
    sqrt(eps) in theta or already flat to rounding (``_golden_max``), and
    issues the verdict:

    * fail          -- a sample (or the refined point) reaches the threshold
                       or is not finite, w vanishes or loses positive real
                       part (for |log w|: subordination to e^z forces
                       re w > 0), or a factor of w has a zero inside the
                       outermost circle;
    * pass          -- the certificate holds and the refined sup on the
                       outermost circle is below threshold - GUARD_DEFAULT;
    * inconclusive  -- everything else (sup inside the guard band, or a
                       factor with a zero too near the outermost circle to
                       count).

    The outermost circle is sampled and judged first.  The factors of w
    that matter (the poles, and for |log w| also the zeros) are certified
    by ``_winding_certificate``: from their coefficients, or else counted
    on that circle from the rows already transformed; a ratio with none of
    them, such as |w| of a polynomial, is certified as it stands.  If each
    vanishes inside only at 0, w is analytic (and for |log w| zero-free) in
    the disk, so |w| or |log w| is subharmonic and, by the maximum
    principle, its supremum over the disk is the one on that circle.  The
    refined sup there then decides at once, and the inner circles of the
    plan are not sampled: pass below threshold - GUARD_DEFAULT (the only
    grid pass), fail at the threshold or above, inconclusive in between.
    No inner sample could exceed that circle's supremum, so none could move
    the verdict.  Without the certificate the inner circles are sampled and
    judged with the outer one for the evidence, and the verdict is fail or
    inconclusive.
    """
    n = grid.angles_per_circle
    step = 2.0 * math.pi / n
    roots = _unit_roots(n)
    last = len(grid.radii) - 1

    def judge(values):
        modulus = np.abs(values)
        bad = ~np.isfinite(values)
        if use_log:
            bad |= modulus <= ZERO_TOL
            bad |= values.real <= 0.0
        return bad, _magnitudes(values, use_log, modulus)

    def refine(i: int, k: int, heights: np.ndarray) -> tuple[float, complex]:
        # Brent around sample k of circle i; the quantity is smooth there.
        r = grid.radii[i]
        theta = k * step
        near = _probe_rows(terms, r, k, n, w.rows)

        def height(t: float) -> float:
            try:
                return _magnitude(w.combine(*_placed(w.rows, near(t - theta))), use_log)
            except ZeroDivisionError:
                return math.inf

        top = float(heights[k])
        sampled = (theta, float(heights[k - 1]), top, float(heights[(k + 1) % n]))
        t_star, refined = _golden_max(height, theta - step, theta + step, sampled)
        if refined > top:
            return refined, r * complex(math.cos(t_star), math.sin(t_star))
        return top, r * complex(roots[k])

    certified = None
    outer, rows = _circle_values(w, terms, grid.radii[last:], n)
    bad, mags = judge(outer)
    k = int(mags[0].argmax())
    if not bad.any() and math.isfinite(mags[0, k]):
        certified = _winding_certificate(terms, rows, w.factors(use_log), grid.radii[last], n)
        if certified:
            sup, witness = refine(last, k, mags[0])
            if sup < threshold - GUARD_DEFAULT:
                return _report(class_id, "pass", sup, witness, grid, threshold)
            verdict = "fail" if sup >= threshold else "inconclusive"
            return _report(class_id, verdict, sup, witness, grid, threshold)
    del rows, outer
    if last:
        # The outer circle is judged already: judge only the inner ones.
        inner_bad, inner_mags = judge(_circle_values(w, terms, grid.radii[:last], n)[0])
        bad = np.concatenate((inner_bad, bad))
        mags = np.concatenate((inner_mags, mags))
    ks = mags.argmax(axis=1)
    per_radius = mags[np.arange(len(ks)), ks].tolist()
    # The first circle with the largest sampled maximum holds the witness.
    i = int(np.argmax(per_radius))
    k, sup = int(ks[i]), per_radius[i]
    witness = grid.radii[i] * complex(roots[k])

    violated = bool(bad.any())
    if violated:
        j, k_bad = divmod(int(np.argmax(bad)), n)
        witness = grid.radii[j] * complex(roots[k_bad])
    elif math.isfinite(sup):
        sup, witness = refine(i, k, mags[i])

    fails = violated or sup >= threshold or certified is False
    return _report(class_id, "fail" if fails else "inconclusive", sup, witness, grid, threshold)


def check_subordinate_exp(w: PowerSeries, grid: DiskGrid | None = None) -> MembershipReport:
    """Check |log w| < 1 on the disk for a PowerSeries w with w(0) = 1.

    Samples where w vanishes or has re w <= 0 fail immediately: subordination
    to e^z forces positive real part, and the principal logarithm is then
    continuous along each sampled circle.
    """
    quantity = _quantity(w, "Pe")
    center = w.coefficient(0)
    if abs(center - 1.0) > NORMALIZED_TOL:
        raise NotNormalized(f"subordination to e^z needs w(0) = 1, got {center!r}")
    return _sweep(quantity, grid or DEFAULT_GRID, threshold=1.0, class_id="Pe", use_log=True)


def check_class(f: PowerSeries, class_id: str, grid: DiskGrid | None = None) -> MembershipReport:
    """Exponential starlike ('Se') or convex ('Ke') membership of a normalized PowerSeries f."""
    if class_id not in ("Se", "Ke"):
        raise ValueError(f"class_id must be 'Se' or 'Ke', got {class_id!r}")
    quantity = _quantity(f, class_id)
    _check_in_class_a(f)
    return _sweep(quantity, grid or DEFAULT_GRID, threshold=1.0, class_id=class_id, use_log=True)


def check_quarter_bound(p, grid: DiskGrid | None = None) -> MembershipReport:
    """Check |p| < 1/4 on the disk for analytic p with p(0) = 0.

    p is a PowerSeries, or a SeriesQuantity over one whose Ratio states its
    poles; anything else raises TypeError.  The pass rests on the
    certificate that no pole factor vanishes inside the disk.  A sample
    where p is not finite (its ratio's denominator vanishes there) fails
    the check with its witness there, as in every other check.
    """
    if not isinstance(p, SeriesQuantity):
        p = _quantity(p, "Pe")
    return _sweep(p, grid or DEFAULT_GRID, threshold=0.25, class_id="bound_quarter", use_log=False)


def log_bound_lemma_check(w: complex) -> bool:
    """Verify |log(1 + w)| <= 1.5 |w| for |w| < 1/2 (a quantitative log bound)."""
    w = complex(w)
    if abs(w) >= 0.5:
        raise OutOfDomain(f"the bound needs |w| < 1/2, got |w| = {abs(w)}")
    return abs(cmath.log(1.0 + w)) <= 1.5 * abs(w)
