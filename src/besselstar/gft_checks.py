"""Numerical membership checks for the exponential starlike/convex classes.

A function p with p(0) = 1 is subordinate to e^z exactly when |log p| < 1 on
the unit disk (principal logarithm; subordination to e^z also forces
re p > 0).  Membership of f in the exponential starlike class is
|log(z f'/f)| < 1, and in the exponential convex class |log(1 + z f''/f')| < 1.

"For all z in the disk" is operationalized as dense sampling of circles
|z| = r up to r = 0.999, followed by a Brent (parabolic + golden-section)
refinement around the sampled maximum, which starts from the heights
already sampled there and at the two neighbouring angles (the ends of its
bracket).  It stops at sqrt(eps) in theta, or earlier at rounding: once
both ends of a narrow bracket are within a few ulps of the best height, a
quadratic peak can lie only rounding above it (see HEIGHT_ROUNDING).
|log w| and |w| are subharmonic only where w is
analytic (and, for the log, zero-free), so every pass rests on a
certificate that w has no zero or pole inside the disk.  Each ratio names
the factors whose zeros matter.  A factor is tested first from its
coefficients: when its lowest term dominates the others on |z| = 1,
Rouche's theorem leaves it no zero in the whole open disk but those at 0.
Only a factor that fails that test is counted, by the argument principle,
on the outermost grid circle from the samples already taken, when a
derivative bound shows those samples resolve it.  A ratio with no factor
that matters (|w| of a polynomial) needs no count.  With the certificate,
the supremum over the disk is the one on that circle, and only a passing
outer circle passes.  The plan's inner circles are evidence: they are
sampled when the certificate is not given or the outer circle does not
pass, and can then only fail the run or leave it inconclusive.  A factor
with a zero inside makes the run fail; one that may vanish near the circle
leaves it inconclusive.  This is numerical verification, not proof, and
reports carry the sampled evidence (supremum, witness, margin).

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
    _probe_rows,
    _Terms,
    _unit_roots,
)

# Verdict guard band: pass requires sup < threshold - GUARD_DEFAULT.
GUARD_DEFAULT = 1e-6

# Denominators (and subordination targets) below this count as vanishing.
ZERO_TOL = 1e-14

# Normalization tolerance: f(0) = 0, f'(0) = 1 and w(0) = 1 hold within this,
# and a coefficient of a certified factor below it counts as zero.
NORMALIZED_TOL = 1e-9

CLASS_IDS = ("Pe", "Se", "Ke", "bound_quarter", "custom")
VERDICTS = ("pass", "fail", "inconclusive")


@dataclass(frozen=True)
class DiskGrid:
    """Sampling plan: circles |z| = r with uniform angles on [0, 2*pi).

    A pass samples only the outermost circle; the inner ones are evidence,
    sampled when the certificate is not given or that circle does not pass.
    Reports carry the whole plan either way.
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
    A pass needs the sweep to certify that no factor that matters vanishes
    inside the outermost grid circle (see ``_sweep``).
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


def _lowest_term_dominates(sizes: np.ndarray, k: int) -> bool:
    """Whether |c_k| exceeds sum_{n != k} |c_n| by more than their rounding.

    sizes are the moduli |c_n| of the coefficients of a polynomial P, as
    computed (|a_n| times an integer row weight: within 3 u of exact, u =
    eps / 2), and k is its order of vanishing.  If the exact moduli satisfy
    sum_{n != k} |c_n| < |c_k|, then on |z| = 1 |P(z) - c_k z^k| < |c_k z^k|,
    so by Rouche's theorem P has as many zeros in the open unit disk as
    c_k z^k, namely k, and none on the circle (Henrici, Applied and
    Computational Complex Analysis I, 1974, on Rouche's theorem).  The sum
    of the sizes is within (N - 1) u of its exact value for N coefficients,
    in any summation order, and the rest, that total minus |c_k|, adds one
    more rounding; with the 3 u of each size that is (N + 9) u of the
    total at first order.  The test asks for twice that margin, (N + 9) eps
    times the total, between the computed rest and the computed |c_k|.
    """
    total = float(sizes.sum())
    lead = float(sizes[k])
    return total - lead + (sizes.size + 9) * sys.float_info.epsilon * total < lead


def _winding_certificate(terms: _Terms, rows, factors, r: float, angles: int):
    """Whether each factor's only zero inside |z| < r is its zero at 0.

    terms is the table of the series, rows are its (R, N) rows on circles
    whose last is |z| = r, as the sweep transformed them, and each factor P
    is the sum of the rows its indices name.  Its coefficients are c_n =
    w(n) a_n, with w the sum of the named rows' weights, and its order of
    vanishing at 0 is k, the index of its first |c_n| above NORMALIZED_TOL.

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
    or no coefficient above the tolerance), else True.
    """
    n, weights = terms.n, terms.weights
    sizes = np.abs(terms.coeffs)
    radial = sizes * terms.powers(r)
    resolved = True
    for first, *rest in factors:
        # starting the sums from the first row copies no lone row
        weight = sum((weights[i] for i in rest), weights[first])
        nonzero = np.flatnonzero(sizes * weight > NORMALIZED_TOL)
        if nonzero.size and _lowest_term_dominates(sizes * weight, nonzero[0]):
            continue
        values = sum((rows[i] for i in rest), rows[first])[-1]
        slack = 2.0 * (angles + n.size) * sys.float_info.epsilon * float(radial @ weight)
        drift = 2.0 * math.pi / angles * float(radial @ (n * weight))
        floor = float(np.abs(values).min()) - slack
        if not nonzero.size or not floor > drift:
            resolved = False
            continue
        stride = min(math.ceil(floor / drift) - 1, angles) if drift else angles
        picked = values[::stride]
        turns = np.angle(picked[1:] / picked[:-1]).sum() + cmath.phase(picked[0] / picked[-1])
        if round(float(turns) / (2.0 * math.pi)) != nonzero[0]:
            return False
    return True if resolved else None


def _sweep(
    w: SeriesQuantity,
    grid: DiskGrid,
    threshold: float,
    class_id: str,
    use_log: bool,
) -> MembershipReport:
    """Shared circle-sweep engine behind the membership checks.

    Monitors |log w| (use_log) or |w| over the grid circles in single (R, N)
    passes, judging each circle once.  The series is sampled through one
    batched inverse FFT of only the rows w reads and probed from a table of
    those rows' terms at the refined sample, with one table of its arrays
    (``series_ops._Terms``) for every transform, probe and certificate.
    The sweep refines the sampled argmax once by Brent (parabolic +
    golden-section) search, starting from the heights sampled at the argmax
    and at its two neighbours (the bracket ends), until the bracket is
    sqrt(eps) in theta or already flat to rounding (``_golden_max``), and
    issues the verdict:

    * fail          -- a sample (or the refined point) reaches the threshold,
                       w vanishes or loses positive real part (for |log w|:
                       subordination to e^z forces re w > 0), or a factor of
                       w has a zero inside the outermost circle;
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
    the disk, so |w| or |log w| is subharmonic and its supremum over the
    disk is the one on that circle: when the circle passes, the sweep
    passes there, and the inner circles of the plan are not sampled.  This
    is the only pass.  Otherwise the inner circles are sampled and judged
    with the outer one for the evidence: a certified outer circle that did
    not pass already holds a sup in the guard band or above, so the verdict
    is fail or inconclusive.  A refinement already made on the outer circle
    is reused.
    """
    n = grid.angles_per_circle
    step = 2.0 * math.pi / n
    roots = _unit_roots(n)
    last = len(grid.radii) - 1
    terms = _Terms(w.series)

    def judge(values):
        modulus = np.abs(values)
        bad = ~np.isfinite(values)
        if use_log:
            bad |= modulus <= ZERO_TOL
            bad |= values.real <= 0.0
        return bad, _magnitudes(values, use_log, modulus)

    def report(verdict: str, sup: float, witness: complex) -> MembershipReport:
        return MembershipReport(
            class_id=class_id,
            verdict=verdict,
            sup_value=sup,
            witness=witness,
            margin=threshold - sup,
            grid=grid,
            threshold=threshold,
        )

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

    certified, best = None, None
    outer, rows = _circle_values(w, terms, grid.radii[last:], n)
    bad, mags = judge(outer)
    k = int(mags[0].argmax())
    if not bad.any() and math.isfinite(mags[0, k]):
        certified = _winding_certificate(terms, rows, w.factors(use_log), grid.radii[last], n)
        if certified:
            best = refine(last, k, mags[0])
            if best[0] < threshold - GUARD_DEFAULT:
                return report("pass", *best)
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
        if best is None:
            best = refine(i, k, mags[i])
        # A reused outer refinement stands unless an inner sample beats it.
        if best[0] >= sup:
            sup, witness = best

    fails = violated or sup >= threshold or certified is False
    return report("fail" if fails else "inconclusive", sup, witness)


def check_subordinate_exp(
    w: PowerSeries, grid: DiskGrid | None = None, class_id: str = "Pe"
) -> MembershipReport:
    """Check |log w| < 1 on the disk for a PowerSeries w with w(0) = 1.

    Samples where w vanishes or has re w <= 0 fail immediately: subordination
    to e^z forces positive real part, and the principal logarithm is then
    continuous along each sampled circle.
    """
    quantity = _quantity(w, "Pe")
    center = w.coefficient(0)
    if abs(center - 1.0) > NORMALIZED_TOL:
        raise NotNormalized(f"subordination to e^z needs w(0) = 1, got {center!r}")
    return _exp_sweep(quantity, grid, class_id)


def check_class(f: PowerSeries, class_id: str, grid: DiskGrid | None = None) -> MembershipReport:
    """Exponential starlike ('Se') or convex ('Ke') membership of a normalized PowerSeries f."""
    if class_id not in ("Se", "Ke"):
        raise ValueError(f"class_id must be 'Se' or 'Ke', got {class_id!r}")
    quantity = _quantity(f, class_id)
    _check_in_class_a(f)
    return _exp_sweep(quantity, grid, class_id)


def _exp_sweep(
    quantity: SeriesQuantity, grid: DiskGrid | None, class_id: str
) -> MembershipReport:
    """|log w| < 1 over the grid: the sweep behind every e^z membership check."""
    return _sweep(quantity, grid or DiskGrid(), threshold=1.0, class_id=class_id, use_log=True)


def _finite(values):
    """values, unless some of them are not finite (then ZeroDenominator)."""
    if isinstance(values, complex):
        ok = cmath.isfinite(values)
    else:
        ok = np.isfinite(values).all()
    if not ok:
        raise ZeroDenominator("quantity could not be evaluated on the grid")
    return values


def check_quarter_bound(p, grid: DiskGrid | None = None) -> MembershipReport:
    """Check |p| < 1/4 on the disk for analytic p with p(0) = 0.

    p is a PowerSeries, or a SeriesQuantity over one whose Ratio states its
    poles; anything else raises TypeError.  The pass rests on the
    certificate that no pole factor vanishes inside the disk.  Raises
    ZeroDenominator when p cannot be evaluated at a sample (the ratio it
    represents has a vanishing denominator there).
    """
    if not isinstance(p, SeriesQuantity):
        p = _quantity(p, "Pe")
    checked = p.combine._replace(combine=lambda *rows: _finite(p.combine(*rows)))
    return _sweep(
        SeriesQuantity(p.series, checked),
        grid or DiskGrid(),
        threshold=0.25,
        class_id="bound_quarter",
        use_log=False,
    )


def log_bound_lemma_check(w: complex) -> bool:
    """Verify |log(1 + w)| <= 1.5 |w| for |w| < 1/2 (a quantitative log bound)."""
    w = complex(w)
    if abs(w) >= 0.5:
        raise OutOfDomain(f"the bound needs |w| < 1/2, got |w| = {abs(w)}")
    return abs(cmath.log(1.0 + w)) <= 1.5 * abs(w)
