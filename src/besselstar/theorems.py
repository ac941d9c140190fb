"""Sufficient-condition checkers for exponential starlikeness/convexity.

Each checker evaluates the printed parameter inequalities of one sufficient
condition, reports the arithmetic (LHS, RHS, slack) per hypothesis, and can
optionally verify the guaranteed conclusion numerically through the disk
sweeps in gft_checks.  Every threshold constant is computed from e at
runtime; none is hard-coded as a decimal.

The ten conditions whose hypotheses are closed-form inequalities in
(nu, b, c) are the rows of one table, ``CONDITIONS``: each row names its
theorem id, its hypotheses, the series whose membership it concludes, the
class of that conclusion and, for omega-Se, the auxiliary quarter-bound
quantity.  One runner evaluates any row: ``check --theorem`` calls it by the
row's name, and ``hyp_Pe``, ``hyp_Ke``, ``hyp_Se``, ``hyp_omega_Se``,
``hyp_corollaries`` and ``hyp_libera`` check their arguments and call it.
The chain steps and the two-term examples have sampled premises and keep
their own checkers.

The module also exposes the boundary extremal curves that drive the
admissibility arguments (trigonometric expressions in theta whose extrema
have closed forms), refined here by Brent (parabolic + golden-section)
search to sqrt(eps) in theta.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .errors import ConsistencyError, NotNormalized
from .gft_checks import (
    DEFAULT_GRID,
    RATIOS,
    AnalyticMap,
    DiskGrid,
    MembershipReport,
    Ratio,
    SeriesQuantity,
    _circle_values,
    _golden_max,
    _quantity,
    _sweep,
    _winding_certificate,
    check_class,
    check_quarter_bound,
    check_subordinate_exp,
)
from .series_ops import (
    DEFAULT_ORDER,
    PowerSeries,
    _odd_lift,
    _Terms,
    _unit_roots,
    alexander,
    b_operator,
    libera,
    normalized_phi_deficit,
    series_of_phi,
    series_of_vartheta,
)
from .special_fn import BesselParams, _require_finite

_E = math.e

# Right-hand side of the convexity-condition inequality |kappa-2| + |c|/(4(e-1)) <= ...
KE_INEQ_RHS = (_E * _E + _E - 1.0) / (_E * _E * (_E - 1.0))

# Same bound specialized to |c| = 1 (Bessel/modified Bessel orders).
BESSEL_ORDER_RHS = 1.0 / (_E * _E) + 3.0 / (4.0 * (_E - 1.0))

# Specialization to the spherical normalization (inequality in 2*nu).
SPHERICAL_ORDER_RHS = 2.0 / (_E * _E) + 3.0 / (2.0 * (_E - 1.0))

# Strict bound of the linear two-term differential test: |...| < alpha - 1/e.
ALPHA_FLOOR = 1.0 / _E

# Strict bound of the product two-term differential test.
PRODUCT_INEQ_RHS = 1.0 / _E - 1.0 / (_E * _E) + 1.0


@dataclass(frozen=True)
class Hypothesis:
    """One scalar hypothesis with its computed arithmetic.

    slack is the margin toward satisfaction: positive means the hypothesis
    holds strictly, zero is the equality case, which only ">=" and "<="
    admit.
    """

    name: str
    lhs: float
    relation: str  # ">=", "<=", ">", "<" or "!="
    rhs: float
    holds: bool
    slack: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def _hyp_ge(name: str, lhs: float, rhs: float) -> Hypothesis:
    return Hypothesis(name, lhs, ">=", rhs, lhs >= rhs, lhs - rhs)


def _hyp_le(name: str, lhs: float, rhs: float) -> Hypothesis:
    return Hypothesis(name, lhs, "<=", rhs, lhs <= rhs, rhs - lhs)


def _hyp_nonzero(name: str, value: complex) -> Hypothesis:
    mag = abs(value)
    return Hypothesis(name, mag, "!=", 0.0, mag > 0.0, mag)


def _hyp_sampled(name: str, report: MembershipReport, relation: str = "<=") -> Hypothesis:
    """A swept premise as a hypothesis: its report's sup against its threshold.

    The sup is a proven closed-disk bound when the report's evidence is
    "coefficients" or "circle", and the refined sampled sup otherwise; the
    "(sampled)" in a premise's name does not say which (the report's
    evidence does)."""
    return Hypothesis(
        name, report.sup_value, relation, report.threshold, report.passed, report.margin
    )


@dataclass(frozen=True)
class TheoremReport:
    """Result of one sufficient-condition check.

    applicable is the conjunction of the hypothesis booleans; the conclusion
    check is attached only when it was requested and the condition applies.
    aux_checks carries secondary sampled bounds some conditions also assert.
    """

    theorem_id: str
    hypotheses: tuple[Hypothesis, ...]
    applicable: bool
    conclusion_check: MembershipReport | None = None
    aux_checks: tuple[MembershipReport, ...] = field(default=())

    def to_json_dict(self) -> dict:
        out = {
            "theorem": self.theorem_id,
            "hypotheses": [h.to_json_dict() for h in self.hypotheses],
            "applicable": self.applicable,
            "conclusion": self.conclusion_check.to_json_dict()
            if self.conclusion_check is not None
            else None,
        }
        if self.aux_checks:
            out["aux"] = [c.to_json_dict() for c in self.aux_checks]
        return out


# ---------------------------------------------------------------------------
# The table of closed-form conditions.


def _pe_hypotheses(params: BesselParams) -> tuple[Hypothesis, ...]:
    return (_hyp_ge("re(kappa) >= |c|/4 + 1", params.kappa.real, abs(params.c) / 4.0 + 1.0),)


def _kappa_hypotheses(shift: int) -> Callable:
    """c != 0, re(kappa) >= |c|/4 + shift and
    |kappa - (2 + shift)| + |c|/(4(e-1)) <= (e^2 + e - 1)/(e^2 (e-1)):
    the convexity condition (shift 0) and the starlikeness condition, which
    is the same inequality one order down (shift 1)."""
    plus = " + 1" if shift else ""

    def hypotheses(params: BesselParams) -> tuple[Hypothesis, ...]:
        kappa, c = params.kappa, params.c
        return (
            _hyp_nonzero("c != 0", c),
            _hyp_ge(f"re(kappa) >= |c|/4{plus}", kappa.real, abs(c) / 4.0 + shift),
            _hyp_le(
                f"|kappa-{2 + shift}| + |c|/(4(e-1)) <= (e^2+e-1)/(e^2(e-1))",
                abs(kappa - (2.0 + shift)) + abs(c) / (4.0 * (_E - 1.0)),
                KE_INEQ_RHS,
            ),
        )

    return hypotheses


def _omega_hypotheses(params: BesselParams) -> tuple[Hypothesis, ...]:
    if abs(params.kappa.imag) > 1e-12:
        raise ValueError(f"this condition needs real kappa, got {params.kappa!r}")
    c = abs(params.c)
    threshold = max(c / 4.0 + 1.0, 5.0 * c / 3.0 + 0.75)
    return (_hyp_ge("kappa >= max(|c|/4 + 1, 5|c|/3 + 3/4)", params.kappa.real, threshold),)


# The order-form bound of each family, keyed by the scale of nu in it:
# (term in nu, printed bound, value).
_ORDER_BOUNDS = {
    1: ("nu", "1/e^2 + 3/(4(e-1))", BESSEL_ORDER_RHS),
    2: ("2nu", "2/e^2 + 3/(2(e-1))", SPHERICAL_ORDER_RHS),
}


def _in_nu(floor: float, scale: int, center: int) -> Callable:
    """re(nu) >= floor and |scale nu - center| <= the family's order bound."""
    term, bound, rhs = _ORDER_BOUNDS[scale]
    return lambda nu: (
        _hyp_ge(f"re(nu) >= {floor}", nu.real, floor),
        _hyp_le(f"|{term}-{center}| <= {bound}", abs(scale * nu - center), rhs),
    )


def _phi_starlike(h: PowerSeries) -> SeriesQuantity:
    """p = z phi'/phi, the starlike ratio of phi itself, read off h = z phi(z^2).

    The odd coefficients of h are those of phi, so phi is not built again.
    """
    return SeriesQuantity(PowerSeries(h.coeffs[1::2]), RATIOS["Se"])


@dataclass(frozen=True)
class _Condition:
    """One row of the table.

    hypotheses maps the checker's subject (BesselParams, or nu for the
    order-form corollaries, whose parameters (nu, b, c_sign) are built only
    once the hypotheses hold) to its Hypothesis tuple; target(params, order)
    builds the series whose membership in class_id ('Pe', 'Ke' or 'Se') the
    condition concludes; aux(target), when given, is a quantity derived from
    that series whose quarter bound is sampled alongside.
    """

    theorem_id: str
    hypotheses: Callable
    target: Callable
    class_id: str
    b: int | None = None
    aux: Callable | None = None


# The function each class conclusion is about: phi (Pe), -4 kappa (phi - 1)/c
# (Ke) and z phi (Se).  The lambdas look the builders up at call time, so a
# wrapper installed on a module (such as a tracer) sees each call.
_TARGETS = {
    "Pe": lambda p, n: series_of_phi(p, n),
    "Ke": lambda p, n: normalized_phi_deficit(p, n),
    "Se": lambda p, n: series_of_vartheta(p, n),
}
_KE, _SE = _kappa_hypotheses(0), _kappa_hypotheses(1)

CONDITIONS = {
    "Pe": _Condition("ThmPe", _pe_hypotheses, _TARGETS["Pe"], "Pe"),
    "Ke": _Condition("ThmKe", _KE, _TARGETS["Ke"], "Ke"),
    "Se": _Condition("ThmSe", _SE, _TARGETS["Se"], "Se"),
    "omega-Se": _Condition("ThmOmegaSe", _omega_hypotheses, _odd_lift, "Se", aux=_phi_starlike),
    "bessel-a": _Condition("CorBessel_a", _in_nu(-0.75, 1, 1), _TARGETS["Ke"], "Ke", b=1),
    "bessel-b": _Condition("CorBessel_b", _in_nu(0.25, 1, 2), _TARGETS["Se"], "Se", b=1),
    "spherical-a": _Condition("CorSpherical_a", _in_nu(-1.25, 2, 1), _TARGETS["Ke"], "Ke", b=2),
    "spherical-b": _Condition("CorSpherical_b", _in_nu(-0.25, 2, 3), _TARGETS["Se"], "Se", b=2),
    "libera-Ke": _Condition("CorLibera", _KE, lambda p, n: libera(_TARGETS["Ke"](p, n)), "Ke"),
    "libera-Se": _Condition("CorLibera", _SE, lambda p, n: libera(_TARGETS["Se"](p, n)), "Se"),
}


def _run_condition(
    name: str, subject, verify: bool, grid: DiskGrid | None, order: int, c_sign: int = 1
) -> TheoremReport:
    """Evaluate the row ``name`` of CONDITIONS on its subject.

    The subject is nu for an order-form row (b set), with parameters (nu, b,
    c_sign), refused with ValueError unless finite, and BesselParams for any
    other row.  The hypotheses come first (omega-Se's refuse a complex
    kappa); parameters are built, and the conclusion (and any quarter bound)
    swept, only when verify is set and every hypothesis holds.
    """
    cond = CONDITIONS[name]
    if cond.b is not None:
        subject = _require_finite(subject, "nu")
    hyps = cond.hypotheses(subject)
    applicable = all(h.holds for h in hyps)
    conclusion = None
    aux: tuple[MembershipReport, ...] = ()
    if verify and applicable:
        params = subject if cond.b is None else BesselParams(subject, cond.b, c_sign)
        target = cond.target(params, order)
        if cond.class_id == "Pe":
            conclusion = check_subordinate_exp(target, grid=grid)
        else:
            conclusion = check_class(target, cond.class_id, grid=grid)
        if cond.aux is not None:
            aux = (check_quarter_bound(cond.aux(target), grid=grid),)
    return TheoremReport(cond.theorem_id, hyps, applicable, conclusion, aux)


def hyp_Pe(
    params: BesselParams,
    verify: bool = False,
    grid: DiskGrid | None = None,
    order: int = DEFAULT_ORDER,
) -> TheoremReport:
    """Sufficient condition for phi itself: re(kappa) >= |c|/4 + 1.

    Conclusion on request: phi is subordinate to e^z (|log phi| < 1 sampled
    over the grid).  c = 0 degenerates to phi identically 1, which passes.
    """
    return _run_condition("Pe", params, verify, grid, order)


def hyp_Ke(
    params: BesselParams,
    verify: bool = False,
    grid: DiskGrid | None = None,
    order: int = DEFAULT_ORDER,
) -> TheoremReport:
    """Exponential convexity of -4*kappa*(phi - 1)/c.

    Hypotheses: c != 0, re(kappa) >= |c|/4, and
    |kappa - 2| + |c| / (4(e-1)) <= (e^2 + e - 1) / (e^2 (e-1)).
    Equality cases count as applicable (the inequalities are non-strict).
    """
    return _run_condition("Ke", params, verify, grid, order)


def hyp_Se(
    params: BesselParams,
    verify: bool = False,
    grid: DiskGrid | None = None,
    order: int = DEFAULT_ORDER,
) -> TheoremReport:
    """Exponential starlikeness of vartheta(z) = z * phi(z).

    Hypotheses: c != 0, re(kappa) >= |c|/4 + 1, and
    |kappa - 3| + |c| / (4(e-1)) <= (e^2 + e - 1) / (e^2 (e-1)).
    This is the convexity condition shifted one order down and carried
    through the duality between the convex and starlike classes.
    """
    return _run_condition("Se", params, verify, grid, order)


def hyp_corollaries(
    nu: complex,
    family: str,
    part: str,
    c_sign: int = 1,
    verify: bool = False,
    grid: DiskGrid | None = None,
    order: int = DEFAULT_ORDER,
) -> TheoremReport:
    """Order-form specializations for the classical families (|c| = 1).

    family 'bessel' fixes b = 1 (kappa = nu + 1); 'spherical' fixes b = 2
    (kappa = nu + 3/2; the printed inequality is stated in 2*nu).  Part 'a'
    is the convexity form, part 'b' the starlikeness form.  c_sign selects
    the ordinary (+1) or modified (-1) variant for the conclusion check; the
    hypotheses depend on |c| only.
    """
    if family not in ("bessel", "spherical"):
        raise ValueError(f"family must be 'bessel' or 'spherical', got {family!r}")
    if part not in ("a", "b"):
        raise ValueError(f"part must be 'a' or 'b', got {part!r}")
    if c_sign not in (1, -1):
        raise ValueError(f"c_sign must be +1 or -1, got {c_sign!r}")
    return _run_condition(f"{family}-{part}", nu, verify, grid, order, c_sign)


def hyp_libera(
    params: BesselParams,
    class_id: str,
    verify: bool = False,
    grid: DiskGrid | None = None,
    order: int = DEFAULT_ORDER,
) -> TheoremReport:
    """Libera image membership under the same parameter hypotheses.

    Both target classes are closed under convolution with convex functions,
    and the Libera operator is such a convolution; so under the convexity
    hypotheses ('Ke') the Libera image of -4*kappa*(phi-1)/c is exponentially
    convex, and under the starlikeness hypotheses ('Se') the Libera image of
    vartheta is exponentially starlike.
    """
    if class_id not in ("Se", "Ke"):
        raise ValueError(f"class_id must be 'Se' or 'Ke', got {class_id!r}")
    return _run_condition(f"libera-{class_id}", params, verify, grid, order)


def hyp_omega_Se(
    params: BesselParams,
    verify: bool = False,
    grid: DiskGrid | None = None,
    order: int = DEFAULT_ORDER,
) -> TheoremReport:
    """Starlikeness of the re-normalized unnormalized function (real kappa).

    Hypothesis: kappa >= max(|c|/4 + 1, 5|c|/3 + 3/4).  The function under
    test is h(z) = z * phi(z^2), the normalized form of z^(1-nu) omega up to
    a constant.  The proof route also bounds p = z phi'/phi by 1/4 on the
    disk; that quarter bound is sampled alongside and attached as an
    auxiliary check.  A complex kappa raises ValueError.
    """
    return _run_condition("omega-Se", params, verify, grid, order)


# ---------------------------------------------------------------------------
# Chain steps: conditions with sampled premises.


@functools.lru_cache(maxsize=8)
def _circle_and_square(angles: int, r: float) -> np.ndarray:
    """The rows z = r exp(i theta_k) (``DiskGrid.circle``) and z * z, shared read-only."""
    z = r * _unit_roots(angles)
    pair = np.stack((z, z * z))
    pair.setflags(write=False)
    return pair


def _convexity_premise(
    name: str, f: PowerSeries | AnalyticMap, grid: DiskGrid
) -> Hypothesis:
    """Sampled convexity: min of re(1 + z f''/f') on the outermost circle must be > 0.

    Where f' has no zero, re(1 + z f''/f') is harmonic, so by the minimum
    principle its minimum over the disk lies on that circle.  A series is
    sampled there through its FFT rows (``_circle_values``), and the pole
    factor z f' of the Ke ratio is counted on that circle's arcs
    (``_winding_certificate``); unless it is
    certified to vanish only at 0, the premise fails with lhs -inf, as for
    a non-finite sample.  An exact map is evaluated there from its two
    derivatives as the rows z f' and z f' + z^2 f'', on a read-only circle
    and its square cached per grid; with no coefficients to count with, its
    f' is taken as given.
    """
    n, r = grid.angles_per_circle, grid.radii[-1]
    if isinstance(f, AnalyticMap):
        z, zz = _circle_and_square(n, r)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            zf1 = z * f.deriv1(z)
            q = RATIOS["Ke"](None, zf1, zf1 + zz * f.deriv2(z))
        certified = True
    else:
        w = _quantity(f, "Ke")
        terms = _Terms(f)
        q = _circle_values(w, terms, (r,), n)
        certified = _winding_certificate(terms, w.factors(False), r, n)
    min_re = float(q.real.min()) if certified and np.isfinite(q).all() else -math.inf
    return Hypothesis(name, min_re, ">", 0.0, min_re > 0.0, min_re)


def hyp_bkc_chain(
    params: BesselParams,
    f: PowerSeries,
    part: str = "a",
    f_exact: AnalyticMap | None = None,
    verify: bool = False,
    grid: DiskGrid | None = None,
) -> TheoremReport:
    """One step up the convolution-operator order chain.

    With re(kappa) >= max(2, |c|/4 + im(kappa)^2/6 + 3/2):

    * part 'a': f convex and B[kappa-1] f exponentially starlike imply
      B[kappa] f exponentially starlike;
    * part 'b': z f' convex and B[kappa-1] f exponentially convex imply
      B[kappa] f exponentially convex.

    The convexity premise is sampled on the outermost grid circle, where
    re(1 + z f''/f'), harmonic once f' is zero-free, has its minimum (a
    verification, not a proof).  A truncated series misrepresents slowly
    decaying coefficients near |z| = 1, so an exact evaluator for f may be
    supplied via f_exact for that premise only (part 'a'; part 'b' raises
    ValueError when given one); the operator images always use the series.
    The lhs of the B[kappa-1] premise is its report's sup: a proven bound
    for evidence "coefficients" or "circle", else the sampled sup.
    """
    if part not in ("a", "b"):
        raise ValueError(f"part must be 'a' or 'b', got {part!r}")
    if part == "b" and f_exact is not None:
        raise ValueError("f_exact serves the convexity premise of part 'a' only")
    if not f.is_normalized:
        raise NotNormalized("the chain step needs f with a_0 = 0 and a_1 = 1")
    grid = grid or DEFAULT_GRID
    kappa, c = params.kappa, params.c
    class_id = "Se" if part == "a" else "Ke"

    threshold = max(2.0, abs(c) / 4.0 + kappa.imag**2 / 6.0 + 1.5)
    hyps: list[Hypothesis] = [
        _hyp_ge("re(kappa) >= max(2, |c|/4 + im(kappa)^2/6 + 3/2)", kappa.real, threshold)
    ]
    aux: list[MembershipReport] = []

    if hyps[0].holds:
        if part == "a":
            generator = f_exact if f_exact is not None else f
            hyps.append(_convexity_premise("f is convex (sampled)", generator, grid))
        else:
            # z f' needs its own two derivatives, so use the series transform.
            zfprime = alexander(f, "to_starlike")
            hyps.append(_convexity_premise("z f' is convex (sampled)", zfprime, grid))

    if len(hyps) == 2 and hyps[1].holds:
        premise = check_class(b_operator(params.shift(-1), f), class_id, grid=grid)
        aux.append(premise)
        hyps.append(_hyp_sampled(f"B[kappa-1] f in {class_id} (sampled)", premise))

    applicable = len(hyps) == 3 and all(h.holds for h in hyps)
    conclusion = None
    if verify and applicable:
        conclusion = check_class(b_operator(params, f), class_id, grid=grid)
    return TheoremReport("ThmBkcChain", tuple(hyps), applicable, conclusion, tuple(aux))


def bessel_chain_step(
    nu: complex,
    c_sign: int = 1,
    verify: bool = False,
    grid: DiskGrid | None = None,
    order: int = DEFAULT_ORDER,
) -> TheoremReport:
    """Order-raising step for the normalized Bessel forms (real nu >= 1).

    If z*calJ(nu) is exponentially starlike then so is z*calJ(nu+1) (same for
    the modified variant).  The starlikeness premise is sampled; the chain
    hypothesis nu >= 1 is the printed one.  A nu that is not finite, or has
    a nonzero imaginary part, raises ValueError.
    """
    if c_sign not in (1, -1):
        raise ValueError(f"c_sign must be +1 or -1, got {c_sign!r}")
    nu = _require_finite(nu, "nu")
    if nu.imag:
        raise ValueError(f"the chain step needs real nu, got {nu!r}")
    nu = nu.real
    hyps: list[Hypothesis] = [_hyp_ge("nu >= 1", nu, 1.0)]
    aux: list[MembershipReport] = []
    grid = grid or DEFAULT_GRID

    if hyps[0].holds:
        premise = check_class(
            series_of_vartheta(BesselParams(nu, 1, c_sign), order), "Se", grid=grid
        )
        aux.append(premise)
        hyps.append(_hyp_sampled("z calJ(nu) in Se (sampled)", premise))

    applicable = len(hyps) == 2 and all(h.holds for h in hyps)
    conclusion = None
    if verify and applicable:
        conclusion = check_class(
            series_of_vartheta(BesselParams(nu + 1.0, 1, c_sign), order), "Se", grid=grid
        )
    return TheoremReport("CorBkcBessel", tuple(hyps), applicable, conclusion, tuple(aux))


# ---------------------------------------------------------------------------
# Boundary extremal curves.


@dataclass(frozen=True)
class ExtremalCurve:
    """Sampled boundary-extremal curve with its refined extremum.

    kind 'g1' and 'ell2' share the same trigonometric expression (minimized),
    'g2' is maximized, 'ell1' is minimized with m standing for the product
    alpha * m, the only combination in which those parameters enter.
    """

    kind: str
    m: float
    samples: tuple[tuple[float, float], ...]
    extremal_theta: float
    extremal_value: float


def _curve_g1(theta, m: float):
    ec = np.exp(np.cos(theta))
    e2 = np.exp(2.0 * np.cos(theta))
    re = m * ec * np.cos(theta + np.sin(theta)) + e2 * np.cos(2.0 * np.sin(theta)) - 1.0
    im = m * ec * np.sin(theta + np.sin(theta)) + e2 * np.sin(2.0 * np.sin(theta))
    return re * re + im * im


def _curve_g2(theta, m: float):
    return 1.0 + np.exp(2.0 * np.cos(theta)) - 2.0 * np.exp(np.cos(theta)) * np.cos(
        np.sin(theta)
    )


def _curve_ell1(theta, m: float):
    ec = np.exp(np.cos(theta))
    re = ec * np.cos(np.sin(theta)) + m * np.cos(theta) - 1.0
    im = ec * np.sin(np.sin(theta)) + m * np.sin(theta)
    return re * re + im * im


_CURVES = {
    "g1": (_curve_g1, "min"),
    "g2": (_curve_g2, "max"),
    "ell1": (_curve_ell1, "min"),
    "ell2": (_curve_g1, "min"),
}


def expected_extremum(kind: str, m: float = 1.0) -> tuple[float, float]:
    """Claimed extremal location and closed-form value for the given curve."""
    if kind in ("g1", "ell2"):
        return math.pi, (-m / _E + 1.0 / (_E * _E) - 1.0) ** 2
    if kind == "g2":
        return 0.0, (_E - 1.0) ** 2
    if kind == "ell1":
        return math.pi, (1.0 / _E - m - 1.0) ** 2
    raise ValueError(f"unknown curve kind {kind!r}")


def extremal_curve(kind: str, m: float = 1.0, n_samples: int = 2048) -> ExtremalCurve:
    """Sample a boundary extremal curve and refine its extremum.

    The curve is sampled on n_samples uniform angles in [0, 2*pi); the
    extremal sample is then refined by Brent (parabolic + golden-section)
    search to sqrt(eps) in theta over its neighbouring bracket, starting
    from the sampled heights there, as the disk sweep does.  The reported
    theta is reduced to [0, 2*pi).
    """
    if kind not in _CURVES:
        raise ValueError(f"unknown curve kind {kind!r}; expected one of {sorted(_CURVES)}")
    if m < 1.0:
        raise ValueError(f"m must be >= 1, got {m}")
    fun, sense = _CURVES[kind]
    theta = np.arange(n_samples) * (2.0 * math.pi / n_samples)
    values = fun(theta, m)
    k = int(np.argmin(values) if sense == "min" else np.argmax(values))
    step = 2.0 * math.pi / n_samples

    sign = 1.0 if sense == "max" else -1.0
    heights = sign * values[[k - 1, k, (k + 1) % n_samples]]
    t_star, signed = _golden_max(
        lambda t: sign * float(fun(np.asarray([t]), m)[0]),
        float(theta[k]) - step,
        float(theta[k]) + step,
        (float(theta[k]), *map(float, heights)),
    )
    value = sign * signed
    # A tiny negative t_star reduces to exactly 2 pi in floating point.
    t_star = t_star % (2.0 * math.pi)
    if t_star == 2.0 * math.pi:
        t_star = 0.0
    return ExtremalCurve(
        kind=kind,
        m=float(m),
        samples=tuple((float(t), float(v)) for t, v in zip(theta, values)),
        extremal_theta=float(t_star),
        extremal_value=float(value),
    )


# ---------------------------------------------------------------------------
# Two-term differential inequality tests for operator images.


def _example_report(
    theorem_id: str,
    premise_name: str,
    params: BesselParams,
    f: PowerSeries,
    combine,
    threshold: float,
    verify: bool,
    grid: DiskGrid | None,
) -> TheoremReport:
    """Sweep a two-term premise on g = B[kappa] f and report it.

    The sampled premise is the one hypothesis and its report the one aux
    check.  When it passes, g must be exponentially starlike; that
    conclusion is checked (and attached when verify is set), and a
    ConsistencyError is raised if it fails (it never should).
    """
    grid = grid or DEFAULT_GRID
    g = b_operator(params, f)
    star, conv = RATIOS["Se"], RATIOS["Ke"]
    # combine(z g'/g, 1 + z g''/g') - 1 on the rows of g, analytic where
    # neither g nor z g' vanishes
    premise_ratio = Ratio(
        lambda *rows: combine(star(*rows), conv(*rows)) - 1.0,
        top=2,
        zeros=(),
        poles=(0, 1),
    )
    premise = _sweep(
        SeriesQuantity(g, premise_ratio),
        grid,
        threshold=threshold,
        class_id="custom",
        use_log=False,
    )
    conclusion = None
    if premise.passed:
        conclusion = check_class(g, "Se", grid=grid)
        if conclusion.verdict == "fail":
            raise ConsistencyError(
                "the sampled premise holds but the starlikeness conclusion failed"
            )
    return TheoremReport(
        theorem_id,
        (_hyp_sampled(premise_name, premise, "<"),),
        premise.passed,
        conclusion if verify else None,
        (premise,),
    )


def example_linear_report(
    params: BesselParams,
    f: PowerSeries,
    alpha: float,
    verify: bool = False,
    grid: DiskGrid | None = None,
) -> TheoremReport:
    """Linear differential test for g = B[kappa] f with finite weight alpha > 1/e.

    Premise: |(1-alpha) z g'/g + alpha (1 + z g''/g') - 1| < alpha - 1/e on
    the disk, sampled; its report is ``aux_checks[0]``.  When the sampled
    premise passes, g must be exponentially starlike; that conclusion is
    re-checked and a ConsistencyError is raised if it does not hold (it never
    should).
    """
    if not ALPHA_FLOOR < alpha < math.inf:
        raise ValueError(f"alpha must exceed 1/e = {ALPHA_FLOOR:.6f}, got {alpha}")
    return _example_report(
        "Ex_linear",
        "sup |(1-a) z g'/g + a (1 + z g''/g') - 1| < a - 1/e",
        params,
        f,
        lambda star, conv: (1.0 - alpha) * star + alpha * conv,
        alpha - ALPHA_FLOOR,
        verify,
        grid,
    )


def example_product_report(
    params: BesselParams,
    f: PowerSeries,
    verify: bool = False,
    grid: DiskGrid | None = None,
) -> TheoremReport:
    """Product differential test for g = B[kappa] f.

    Premise: |(z g'/g)(1 + z g''/g') - 1| < 1/e - 1/e^2 + 1 on the disk,
    sampled; its report is ``aux_checks[0]``.  A sampled pass forces
    exponential starlikeness of g (re-checked as in the linear test).
    """
    return _example_report(
        "Ex_product",
        "sup |(z g'/g)(1 + z g''/g') - 1| < 1/e - 1/e^2 + 1",
        params,
        f,
        lambda star, conv: star * conv,
        PRODUCT_INEQ_RHS,
        verify,
        grid,
    )
