"""Numerical membership checks for the exponential starlike/convex classes.

A function p with p(0) = 1 is subordinate to e^z exactly when |log p| < 1 on
the unit disk (principal logarithm; subordination to e^z also forces
re p > 0).  Membership of f in the exponential starlike class is
|log(z f'/f)| < 1, and in the exponential convex class |log(1 + z f''/f')| < 1.

The sweep takes one kind of quantity, a ``SeriesQuantity``: a truncated
PowerSeries f read through a ``Ratio`` w = combine(f, theta f, theta^2 f),
theta = z d/dz, that names the highest row it reads and its factors, one
row each.  Each class ratio is written once, in ``RATIOS``: w = f for Pe,
and the one quotient theta^(p+1) f / theta^p f, z f'/f at p = 0 for Se and
1 + z f''/f' at p = 1 for Ke; the checks, the theorems and the CLI figures
all evaluate it from there.  Any other input, such as a closed-form map,
raises TypeError: it has no coefficients to certify with.

A check first tries to prove a pass on the closed unit disk, in two stages:
from the coefficients alone, by the triangle inequality
(``_coefficient_bound``), and else from M samples of |z| = 1, M from the
degree alone, with a second-order bound between them that also keeps each
factor of w off 0, carried inside by the argument principle on those arcs
and the maximum principle (``_circle_bound``); neither reads the grid.  A
bound below the threshold by the guard is a pass, reported with the bound
as its sup and evidence "coefficients" (no sample read, no witness) or
"circle" (witness: the sample of the arc that attains the bound).  The
proof stages only ever pass: whatever they do not pass goes to the grid
unchanged, so every fail and inconclusive verdict comes from the grid.

The grid samples circles |z| = r up to r = 0.999 and refines the sampled
maximum by Brent (parabolic + golden-section) search, from the heights
already sampled at it and its two neighbours, to sqrt(eps) in theta (Brent's
own width rule, its one stop).  |log w| and |w| are subharmonic only where w
is analytic (and, for the log, zero-free), so a grid pass rests on a
certificate that each factor that matters vanishes inside only at 0, counted
by the argument principle on the outermost circle's arcs by the rule the
circle stage applies to its pole factor (``_arc_distance``).  The
certificate only chooses which circles are read: with it, the outermost
alone, which by the maximum principle holds the supremum; without it, the
inner circles too, save those whose disk the coefficient stage bounds below
the outer circle's samples.  One rule then gives every grid verdict: fail
on a flagged sample, a sup at the threshold or a zero inside, pass on a
certified sup below the threshold by the guard, inconclusive otherwise.  A
grid verdict is numerical verification, not proof, and its report carries
the sampled evidence (evidence "samples", supremum, witness, margin).

A sweep builds one table of its series' arrays (``series_ops._Terms``)
before the coefficient stage: the moduli |a_n| and those of each row p,
n^p |a_n|, are computed there once and read again by the circle stage,
every winding certificate and the grid.  Circles use the FFT: one batched
inverse transform of the rows 0..top, up to the highest row w reads, gives
them at every circle's N angles (exact, degrees n >= N folded onto n mod N).
Every point, each refinement probe included, uses Horner
(``series_ops._horner_rows``), so a refined witness is the very point its sup
was read at; non-finite values count as unbounded.

All report types are immutable and the sweeps are pure, so concurrent use
from many threads is safe.
"""

from __future__ import annotations

import cmath
import functools
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


@dataclass(frozen=True)
class DiskGrid:
    """Sampling plan: circles |z| = r with uniform angles on [0, 2*pi).

    The grid sweep reads the outermost circle first, and its winding
    certificate, which transforms that circle once more for the factors'
    rows, chooses the inner circles read: none when it holds, as the
    maximum principle then puts the disk's supremum on the outermost
    circle, and otherwise each one whose disk bound does not clear it (see
    ``_sampled_sweep``).  A pass from the coefficients samples no circle,
    and one from |z| = 1 samples that circle at a count set by the series'
    degree, whatever the plan.  Reports carry the whole plan either way.
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
    """A quantity w = combine(theta^0 f, ..., theta^top f) of the rows 0..top.

    top is the highest index p of a row theta^p f (0: f, 1: z f', 2: z f' +
    z^2 f'') combine reads; the sweep computes rows 0..top and no others.

    zeros and poles name the factors of w, each one row theta^p f by its
    index p: w is analytic in the disk where no pole factor vanishes, and
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
    top: int
    zeros: tuple[int, ...]
    poles: tuple[int, ...]

    def __call__(self, *rows):
        return self.combine(*rows)


@dataclass(frozen=True)
class SeriesQuantity:
    """The quantity w = combine(f, theta f, theta^2 f) of a truncated power series f.

    This is the one form of quantity the sweep takes: series is a
    PowerSeries and combine a Ratio; anything else raises TypeError.
    combine receives the rows 0..top of its Ratio: (R, N) numpy arrays on
    R circles, and Python complex numbers at a refinement probe.  A zero
    denominator at a probe raises ZeroDivisionError, which the sweep counts
    as an unbounded value.  The Ratio's factors let the sweep certify a pass
    on the outermost circle by counting their zeros on its arcs.
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

    def factors(self, use_log: bool) -> tuple[int, ...]:
        """The factor rows whose zeros matter: poles for |w|, also zeros for |log w|."""
        ratio = self.combine
        return ratio.poles + ratio.zeros if use_log else ratio.poles


def _value(*rows):
    return rows[0]


def _quotient(p: int) -> Callable:
    """theta^(p+1) f / theta^p f, the quotient of row p + 1 over row p."""
    return lambda *rows: rows[p + 1] / rows[p]


# The monitored quantity w of each class as a function of the rows
# (f, theta f, theta^2 f): f itself (Pe: |log f| < 1), theta f / f = z f'/f
# (Se) and theta^2 f / theta f = 1 + z f''/f' (Ke), each with the highest row
# it reads and its factors: zeros f (Pe); zeros row p + 1 and poles row p for
# the quotient at p (Se, p = 0; Ke, p = 1).  This is the one place the
# ratios are written; every check, theorem and figure evaluates them from here.
RATIOS = {
    "Pe": Ratio(_value, top=0, zeros=(0,), poles=()),
    "Se": Ratio(_quotient(0), top=1, zeros=(1,), poles=(0,)),
    "Ke": Ratio(_quotient(1), top=2, zeros=(2,), poles=(1,)),
}


def _quantity(f, class_id: str) -> SeriesQuantity:
    """The class quantity of a PowerSeries f (TypeError for anything else)."""
    return SeriesQuantity(f, RATIOS[class_id])


def _circle_values(w: SeriesQuantity, terms: _Terms, radii, angles: int):
    """w on the circles of the given radii, one row per radius, from one batched FFT of its rows."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rows = _circle_rows(terms, radii, angles, w.combine.top)
        return np.asarray(w.combine(*rows), dtype=complex)


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
    denominator, the ratio's pole row (f for Se, z f' for Ke), vanishes when
    den / z does: z f' and a normalized f are O(|z|) near 0, so an absolute
    test on den would reject every |z| <= ZERO_TOL.
    """
    w = _quantity(f, class_id)
    z = complex(z)
    if z == 0:
        if class_id == "Se" and abs(f.coefficient(0)) > ZERO_TOL:
            return 0j
        if abs(f.coefficient(1)) <= ZERO_TOL:
            raise ZeroDenominator(f"the {class_id} ratio has no finite limit at 0")
        return 1.0 + 0.0j
    rows = _horner_rows(f, z, w.combine.top)
    den = rows[w.combine.poles[0]]
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

# A bound on Brent's probes.  The width rule above ends the sweeps' searches
# long before it: 22 probes at most on the tested grids, on a peak flat to
# rounding over its whole bracket.
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
    step.  Brent's width rule is the one stop: x within 2 THETA_TOL of
    both ends; the search also ends at the first probe valued inf or after
    MAX_PROBES probes.  Returns the best point and its value; fun is called
    once per probe.
    """
    golden = (3.0 - math.sqrt(5.0)) / 2.0
    a, b = lo, hi
    x, fa, fx, fb = sampled
    (fw, w), (fv, v) = ((fa, a), (fb, b)) if fa >= fb else ((fb, b), (fa, a))
    d = e = 0.0
    for _ in range(MAX_PROBES):
        if fx == math.inf or max(x - a, b - x) <= 2.0 * THETA_TOL:
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
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
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


def _lowest_order(num: np.ndarray, den: np.ndarray) -> int | None:
    """The first index k where den is nonzero, when num vanishes below k; else None."""
    k = next((k for k in range(den.size) if den[k] or num[k]), None)
    return k if k is not None and den[k] else None


@functools.lru_cache(maxsize=32)
def _gap_weights(size: int, top: int, bottom: int) -> np.ndarray:
    """|n^top - n^bottom|, the gap of the weights of two rows, shared read-only."""
    # the weights are floats exact below 2^53, so their difference is exact there
    weights = _indices(size)[1]
    gap = np.abs(weights[top] - weights[bottom])
    gap.setflags(write=False)
    return gap


def _factor_sizes(w: SeriesQuantity, terms: _Terms) -> tuple:
    """The moduli |N_n|, |D_n| and |N_n - D_n| of the factors of w = N / D, and their order.

    w's Ratio must be one of ``RATIOS``: N is its zero row and D its pole
    row, or D = 1 when it has none, their coefficients the series' own
    times the row weights n^p.  The moduli of N and D are the table's,
    which the certificate reads again.  The order is k, the first index
    where D_n is nonzero, when N_n = 0 for every n < k, and None otherwise.
    """
    ratio = w.combine
    top = ratio.zeros[0]
    num = terms.moduli(top)
    if ratio.poles:
        bottom = ratio.poles[0]
        den = terms.moduli(bottom)
        diff = terms.sizes * _gap_weights(num.size, top, bottom)
    else:
        den = np.eye(1, num.size)[0]  # D = 1
        diff = num.copy()
        diff[0] = abs(w.series.coefficient(0) - 1.0)
    return num, den, diff, _lowest_order(num, den)


def _coefficient_bound(sizes, use_log: bool, slack=(0.0, 0.0)) -> float:
    """A proven bound on |log w| (use_log) or |w| over the closed unit disk, else inf.

    sizes are the moduli (|N_n|, |D_n|, |N_n - D_n|) of the factors of w =
    N/D and k, their order (``_factor_sizes``): the first index where D_n
    is exactly nonzero, with N_n = D_n = 0 for n < k.  On |z| <= 1,
    |D(z) / z^k| >= floor (``_dominance_floor``) and |(N - D)(z) / z^k| <=
    sum_n |N_n - D_n|.  When floor > 0, w is analytic there and |w - 1| <=
    rho = sum_n |N_n - D_n| / floor (Rouche's theorem in quotient form;
    Henrici, Applied and Computational Complex Analysis I, 1974).  When
    1 - rho > ZERO_TOL, w is zero-free with re w > 0 and |log w| <= sum_m
    rho^m / m = -log(1 - rho); the paper's classes need this below 1, and the disk
    |w - 1| < 1 - 1/e lies inside e^D (Mendiratta, Nagpal & Ravichandran,
    Bull. Malays. Math. Sci. Soc. 38, 2015).  For |w| the bound is
    sum_n |N_n| / floor.  For Pe (w = f, D = 1) rho is |a_0 - 1| +
    sum_{n >= 1} |a_n|: dividing by |a_0| would bound log(f / a_0), not
    log f.

    Every step rounds up: the floor's spare covers the numerator's sum and
    the division, and the logarithm gets 4 eps for the ulps of log1p.  The
    bound is for the PowerSeries as given, up to |z| = 1.  slack = (s_N,
    s_D) lowers the floor by s_D and raises the numerator by s_N + s_D (s_N
    for |w|), to cover any N~ / D~ with |N~ - N| <= s_N, |D~ - D| <= s_D.
    """
    num, den, diff, order = sizes
    if order is None:
        return math.inf
    floor = _dominance_floor(den, order) - slack[1]
    if not floor > 0.0:
        return math.inf
    if not use_log:
        return (float(num.sum()) + slack[0]) / floor
    rho = (float(diff.sum()) + slack[0] + slack[1]) / floor
    if not 1.0 - rho > ZERO_TOL:
        return math.inf
    return -math.log1p(-rho) * (1.0 + 4.0 * sys.float_info.epsilon)


def _winding_certificate(terms: _Terms, factors, r: float, angles: int):
    """Whether each factor's only zero inside a grid circle |z| = r < 1 is its zero at 0.

    It serves the grid sweep and the chain's convexity premise.  terms is
    the table of the series, and each factor P is the row theta^p f its
    index p names, with coefficients c_n = n^p a_n and order k at 0, the
    index of its first exactly nonzero c_n; unless |c_k| exceeds
    NORMALIZED_TOL, the factor is unresolved.  The rows up to p + 1 of the
    highest factor are transformed once, at the N angles of |z| = r.

    The rule is the circle stage's for its pole factor (``_circle_bound``):
    P is resolved when every sample clears its arc distance, |P~_k| >
    delta_k (``_arc_distance``), so that each principal argument of
    P~_(k+1) / P~_k is P's true turn.  By the argument principle, P then
    has as many zeros inside as those turns sum to over all N samples,
    divided by 2 pi (Delves & Lyness, Math. Comp. 21, 1967), and the factor
    passes when that equals k.

    Returns False when a counted factor has a zero inside besides its zero
    at 0, else None when some factor is not resolved (a zero near the circle
    or a lowest coefficient not above the tolerance), else True.
    """
    if not factors:
        return True
    rows = _circle_rows(terms, (r,), angles, max(factors) + 1)[:, 0]
    resolved = True
    for p in factors:
        moduli = terms.moduli(p)
        order = _lowest_order(moduli, moduli)
        clear = np.abs(rows[p]) > _arc_distance(terms, rows, p, r, angles)
        if order is None or not moduli[order] > NORMALIZED_TOL or not clear.all():
            resolved = False
        elif _turns(rows[p]) != order:
            return False
    return True if resolved else None


def _turns(values: np.ndarray) -> int:
    """The winding number of closed samples, by the principal arguments of their ratios."""
    turns = np.angle(values[1:] / values[:-1]).sum() + cmath.phase(values[0] / values[-1])
    return round(float(turns) / (2.0 * math.pi))


def _transform_slack(angles: int, size: int, total: float) -> float:
    """Twice the classical rounding bound of a transformed sample, folded aliases included.

    angles is the transform's length, size the number of coefficients and
    total the sum of their moduli |c_n| r^n on the circle |z| = r: for
    both proof rules' arcs (``_arc_distance``) and an inner disk's bound.
    """
    return 2.0 * (angles + size) * sys.float_info.epsilon * total


def _arc_distance(terms: _Terms, rows, p: int, r: float, m: int) -> np.ndarray:
    """delta_k, how far the factor row p strays from its computed sample P~_k on arc k.

    The circle stage (r = 1) and the grid's winding certificate read their
    arcs from here.  rows are the table's rows, up to p + 1 at least, at
    the m angles theta_k of |z| = r; each point of the circle lies within h
    = pi / m of some theta_k.  The angle derivative of P = theta^p f,
    coefficients c_n = n^p a_n, is i times row p + 1, and its second is at
    most U = sum n^2 |c_n| r^n, so by Taylor's theorem P stays within

        delta_k = h |P'~_k| + (h^2 / 2) U + slack_p + slack_(p+1)

    of P~_k on the arc around theta_k.  Each slack is its row's
    ``_transform_slack``: half covers the transform's rounding of that row,
    the other half the rounding of delta_k, whose terms are below T + S (T
    = sum |c_n| r^n, S = sum n |c_n| r^n) wherever it decides anything: on
    |z| = 1, m exceeds the degree and (h^2 / 2) U <= (pi N / 2 m) h S for N
    coefficients; on a grid circle delta_k only meets |P~_k|, within
    rounding of T at most.
    """
    h = math.pi / m
    radial = r**terms.n
    low, high, curve = (float((terms.moduli(q) * radial).sum()) for q in (p, p + 1, p + 2))
    slack = _transform_slack(m, terms.n.size, low + high)
    return h * np.abs(rows[p + 1]) + h * h / 2.0 * curve + slack


def _circle_bound(
    w: SeriesQuantity, terms: _Terms, sizes, use_log: bool, limit: float
) -> tuple[float, complex] | None:
    """A proven bound below limit on |log w| (use_log) or |w| over the closed disk, else None.

    Returns the bound and its witness on |z| = 1.  w's Ratio must be one of
    ``RATIOS``, a quotient w = N/D of its zero and pole factors (D = 1 for
    Pe), terms the table of its series and sizes their moduli and order k
    (``_factor_sizes``).  N must vanish at 0 to order k exactly for |log w|,
    and each factor's order-k coefficient must exceed NORMALIZED_TOL, so w
    is analytic at 0 (and nonzero there for the log), w(0) = N_k / D_k.

    Bound on each arc.  The rows 0..top + 1 of w are transformed at M
    angles theta_k of |z| = 1, M the least power of two above the degree and
    at least 256, and each factor P stays within its arc distance delta_k
    of its computed sample P~_k on the arc around theta_k
    (``_arc_distance``).  With w~_k = N~_k / D~_k, on the arc |N D~ - N~ D|
    <= delta_N |D~| + |N~| delta_D, so

        |w - w~_k| <= e_k = (delta_N + |w~_k| delta_D) / (|D~_k| - delta_D)

    while that room is positive, which keeps D off 0 on the arc.  Hence
    |w| <= |w~_k| + e_k.  For the log, write w = w~_k (1 + u) with |u| <= t
    = e_k / |w~_k| < 1, which keeps N off 0 too: the branch Log w~_k +
    log(1 + u) of log w has modulus at most |Log w~_k| - log(1 - t).  The
    bound is the largest over the arcs, raised by 16 eps (1 + bound) for the
    ulps of the quotient, its modulus, logarithm and argument, e_k and
    log1p; its witness is its arc's sample.  A finite bound needs |P~_k| >
    delta_k >= h |P'~_k| at all M samples of each factor that matters.  As M
    exceeds the degree, Parseval rules that out when h^2 sum n^2 |c_n|^2 >=
    sum |c_n|^2 (with a spare of (N + 9) eps for the sums' rounding), and
    then nothing is transformed.

    Pass.  The bound is a pass on the closed disk once each factor that
    matters vanishes inside only at 0.  With room on every arc, each
    principal argument of D~_(k+1) / D~_k is D's true turn, so D passes when
    they sum to 2 pi k (``_turns``), the rule the grid's winding certificate
    applies to every factor.  For the log, the bound must also be
    below pi: the arc branches, two logs of one value where arcs meet, then
    agree and form a log of w on the circle, so w winds 0 times and N has as
    many zeros inside as D (none for Pe), all at 0.  Then w is analytic (for
    the log, zero-free) on the closed disk, and the maximum principle carries
    the bound inside.  That log differs from the analytic log L of w with
    L(0) = Log w(0) by some 2 pi i m; L(0) is the mean of L on the circle, so
    |2 pi m| <= |L(0)| + bound, and as w(0) = 1 (within NORMALIZED_TOL for
    Pe), a bound below pi makes m = 0 and keeps L principal.
    """
    num, den, _, order = sizes
    if order is None:
        return None
    if not den[order] > NORMALIZED_TOL or (use_log and not num[order] > NORMALIZED_TOL):
        return None
    # 256: the least floor keeping every soundness-pool circle proof (seeds 201, 73)
    m = max(256, 1 << (num.size - 1).bit_length())
    h = math.pi / m
    spare = 1.0 + (num.size + 9) * sys.float_info.epsilon
    with np.errstate(over="ignore"):  # a sum that overflows proves nothing
        for p in w.factors(use_log):
            low, high = terms.moduli(p), terms.moduli(p + 1)
            if h * h * float(high @ high) >= float(low @ low) * spare:
                return None
    rows = _circle_rows(terms, (1.0,), m, w.combine.top + 1)[:, 0]
    # each factor's samples and its distance delta_k from them on arc k: N, then D unless D = 1
    (top, d_top), *pole = [
        (rows[p], _arc_distance(terms, rows, p, 1.0, m))
        for p in w.combine.zeros[:1] + w.combine.poles[:1]
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
    if not bound < (min(limit, math.pi) if use_log else limit):
        return None
    if pole and _turns(bottom) != order:
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
    included), ``_coefficient_bound`` and then ``_circle_bound`` try to
    prove |log w| (use_log) or |w| below threshold - GUARD_DEFAULT on the
    whole closed unit disk: a pass has evidence "coefficients" (witness
    None; no transform, refinement or winding count runs) or "circle" (its
    witness on |z| = 1), with the proven bound as sup_value.  Every other
    quantity, and every check neither stage passes, goes to the grid sweep
    (``_sampled_sweep``) unchanged.  grid is the plan in every case.  The
    table of w's series (``series_ops._Terms``) is built once, before the
    coefficient stage; its moduli and the factors' serve every later stage.
    """
    terms = _Terms(w.series)
    sizes = _factor_sizes(w, terms) if w.combine in RATIOS.values() else None
    if sizes:
        limit = threshold - GUARD_DEFAULT
        bound = _coefficient_bound(sizes, use_log)
        if bound < limit:
            return _report(class_id, "pass", bound, None, grid, threshold, "coefficients")
        circle = _circle_bound(w, terms, sizes, use_log, limit)
        if circle:
            return _report(class_id, "pass", *circle, grid, threshold, "circle")
    return _sampled_sweep(w, terms, grid, threshold, class_id, use_log, sizes)


def _sampled_sweep(
    w: SeriesQuantity,
    terms: _Terms,
    grid: DiskGrid,
    threshold: float,
    class_id: str,
    use_log: bool,
    sizes=None,
) -> MembershipReport:
    """The grid sweep behind ``_sweep``, for what the proof stages do not pass.

    Monitors |log w| (use_log) or |w| on the grid circles in single (R, N)
    passes, with terms, the sweep's table (``series_ops._Terms``), for every
    transform and certificate, in three steps.

    1. The outermost circle is judged.  When no sample there is flagged,
       ``_winding_certificate`` counts on its arcs whether each factor that
       matters (the poles, and for |log w| also the zeros) vanishes inside
       only at 0.
    2. The circles to read are chosen.  Certified, none of the inner ones:
       w is then analytic (for the log, zero-free) inside, so by the
       maximum principle the outermost circle holds the disk's supremum.
       Otherwise each inner circle is read unless its disk bound clears it.
       Given sizes, the factors' moduli of a ``RATIOS`` quotient
       (``_factor_sizes``), the coefficient stage on f(r z), moduli |c_n|
       r^n (each row theta^p f is dilation-invariant, so this is w(r z)),
       with each factor's ``_transform_slack`` at r folded in, bounds every
       computed sample on |z| <= r (the slack's spare half covers the
       roundings of r^n).  A bound below the outer circle's sampled maximum
       less GUARD_DEFAULT, with 1 - rho > ZERO_TOL for |log w|, clears the
       circle: it holds neither the sup nor a flagged sample.  From the
       smallest radius up, the first circle not cleared and every larger
       one are read, since the bound grows with r.
    3. The sup is the largest sampled height; the first flagged sample, else
       the first sample of the first circle that attains the sup, is the
       witness.  With no sample flagged the sup is refined once around it
       (``_golden_max``, each probe one Horner pass), and one rule gives the
       verdict:

    * fail          -- a sample is flagged (w not finite, and for |log w|
                       also w vanishing or losing positive real part:
                       subordination to e^z forces re w > 0), the sup
                       reaches the threshold, or the certificate is False
                       (a factor has a zero inside besides its zero at 0);
    * pass          -- the certificate is True and the sup is below
                       threshold - GUARD_DEFAULT;
    * inconclusive  -- everything else: a certified sup inside the guard
                       band, or an uncertified one below the threshold (a
                       factor with a zero too near the outermost circle to
                       count).
    """
    n = grid.angles_per_circle
    last = len(grid.radii) - 1

    def judge(radii):
        values = _circle_values(w, terms, radii, n)
        modulus = np.abs(values)
        bad = ~np.isfinite(values)
        if use_log:
            bad |= modulus <= ZERO_TOL
            bad |= values.real <= 0.0
        return bad, _magnitudes(values, use_log, modulus)

    bad, mags = judge(grid.radii[last:])
    outer = float(mags.max())
    certified = None
    if not bad.any() and math.isfinite(outer):
        certified = _winding_certificate(terms, w.factors(use_log), grid.radii[last], n)
    # skip counts the inner circles not read: all of them once certified,
    # else those cleared by their disk bound
    skip = last if certified else 0
    for r in grid.radii[skip:last] if sizes else ():
        radial = r**terms.n
        dilated = tuple(moduli * radial for moduli in sizes[:3]) + sizes[3:]
        slack = [_transform_slack(n, terms.n.size, float(m.sum())) for m in dilated[:2]]
        if not _coefficient_bound(dilated, use_log, slack) < outer - GUARD_DEFAULT:
            break
        skip += 1
    if skip < last:
        inner_bad, inner_mags = judge(grid.radii[skip:last])
        bad = np.concatenate((inner_bad, bad))
        mags = np.concatenate((inner_mags, mags))

    flagged = bool(bad.any())
    # row-major: the first flagged sample, else the first circle's first sample at the sup
    j, k = divmod(int(np.argmax(bad if flagged else mags)), n)
    r, sup = grid.radii[skip + j], float(mags.max())
    witness = r * complex(_unit_roots(n)[k])
    if not flagged and math.isfinite(sup):
        # Brent around sample k, from it and its two neighbours; the quantity is smooth there
        step = 2.0 * math.pi / n

        def height(t: float) -> float:
            rows = _horner_rows(w.series, r * complex(math.cos(t), math.sin(t)), w.combine.top)
            try:
                return _magnitude(w.combine(*rows), use_log)
            except ZeroDivisionError:
                return math.inf

        theta = k * step
        sampled = (theta, float(mags[j, k - 1]), sup, float(mags[j, (k + 1) % n]))
        t_star, refined = _golden_max(height, theta - step, theta + step, sampled)
        if refined > sup:
            sup, witness = refined, r * complex(math.cos(t_star), math.sin(t_star))

    if flagged or sup >= threshold or certified is False:
        verdict = "fail"
    elif certified and sup < threshold - GUARD_DEFAULT:
        verdict = "pass"
    else:
        verdict = "inconclusive"
    return _report(class_id, verdict, sup, witness, grid, threshold)


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
