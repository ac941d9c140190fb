"""Sufficient-condition checkers for exponential starlikeness/convexity.

Each checker evaluates the printed parameter inequalities of one sufficient
condition, reports the arithmetic (LHS, RHS, slack) per hypothesis, and can
optionally verify the guaranteed conclusion numerically through the disk
sweeps in gft_checks.  Every threshold constant is computed from e at
runtime; none is hard-coded as a decimal.

The module also exposes the boundary extremal curves that drive the
admissibility arguments (trigonometric expressions in theta whose extrema
have closed forms), refined here by golden-section search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, NotNormalized
from .gft_checks import (
    AnalyticMap,
    DiskGrid,
    MembershipReport,
    SeriesQuantity,
    _convex_rows,
    _golden_max,
    _sample,
    _starlike_rows,
    _sweep,
    check_class,
    check_quarter_bound,
    check_subordinate_exp,
)
from .series_ops import (
    PowerSeries,
    alexander,
    b_operator,
    libera,
    series_of_phi,
    series_of_vartheta,
)
from .special_fn import BesselParams

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

THEOREM_IDS = (
    "ThmPe",
    "ThmKe",
    "ThmSe",
    "CorBessel_a",
    "CorBessel_b",
    "CorSpherical_a",
    "CorSpherical_b",
    "CorLibera",
    "ThmOmegaSe",
    "ThmBkcChain",
    "CorBkcBessel",
    "Ex_linear",
    "Ex_product",
)


@dataclass(frozen=True)
class Hypothesis:
    """One scalar hypothesis with its computed arithmetic.

    slack is the margin toward satisfaction: positive means the hypothesis
    holds strictly, zero is the (admitted) equality case.
    """

    name: str
    lhs: float
    relation: str  # ">=", "<=", "<" or "!="
    rhs: float
    holds: bool
    slack: float

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "relation": self.relation,
            "rhs": self.rhs,
            "holds": self.holds,
            "slack": self.slack,
        }


def _hyp_ge(name: str, lhs: float, rhs: float) -> Hypothesis:
    return Hypothesis(name, lhs, ">=", rhs, lhs >= rhs, lhs - rhs)


def _hyp_le(name: str, lhs: float, rhs: float) -> Hypothesis:
    return Hypothesis(name, lhs, "<=", rhs, lhs <= rhs, rhs - lhs)


def _hyp_nonzero(name: str, value: complex) -> Hypothesis:
    mag = abs(value)
    return Hypothesis(name, mag, "!=", 0.0, mag > 0.0, mag)


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

    def __post_init__(self) -> None:
        if self.theorem_id not in THEOREM_IDS:
            raise ValueError(f"unknown theorem id {self.theorem_id!r}")

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


def normalized_phi_deficit(params: BesselParams, order: int) -> PowerSeries:
    """Series of -4*kappa*(phi - 1)/c, the normalized convexity candidate."""
    if params.c == 0:
        raise ValueError("the normalized deficit needs c != 0")
    phi = series_of_phi(params, order)
    scale = -4.0 * params.kappa / params.c
    coeffs = [0.0 + 0.0j]
    coeffs.extend(scale * phi.coefficient(n) for n in range(1, order + 1))
    return PowerSeries(tuple(coeffs))


def hyp_Pe(
    params: BesselParams,
    verify: bool = False,
    grid: DiskGrid | None = None,
    order: int = 64,
) -> TheoremReport:
    """Sufficient condition for phi itself: re(kappa) >= |c|/4 + 1.

    Conclusion on request: phi is subordinate to e^z (|log phi| < 1 sampled
    over the grid).  c = 0 degenerates to phi identically 1, which passes.
    """
    kappa, c = params.kappa, params.c
    hyps = (_hyp_ge("re(kappa) >= |c|/4 + 1", kappa.real, abs(c) / 4.0 + 1.0),)
    applicable = all(h.holds for h in hyps)
    conclusion = None
    if verify and applicable:
        conclusion = check_subordinate_exp(series_of_phi(params, order), grid=grid)
    return TheoremReport("ThmPe", hyps, applicable, conclusion)


def hyp_Ke(
    params: BesselParams,
    verify: bool = False,
    grid: DiskGrid | None = None,
    order: int = 64,
) -> TheoremReport:
    """Exponential convexity of -4*kappa*(phi - 1)/c.

    Hypotheses: c != 0, re(kappa) >= |c|/4, and
    |kappa - 2| + |c| / (4(e-1)) <= (e^2 + e - 1) / (e^2 (e-1)).
    Equality cases count as applicable (the inequalities are non-strict).
    """
    kappa, c = params.kappa, params.c
    hyps = (
        _hyp_nonzero("c != 0", c),
        _hyp_ge("re(kappa) >= |c|/4", kappa.real, abs(c) / 4.0),
        _hyp_le(
            "|kappa-2| + |c|/(4(e-1)) <= (e^2+e-1)/(e^2(e-1))",
            abs(kappa - 2.0) + abs(c) / (4.0 * (_E - 1.0)),
            KE_INEQ_RHS,
        ),
    )
    applicable = all(h.holds for h in hyps)
    conclusion = None
    if verify and applicable:
        conclusion = check_class(normalized_phi_deficit(params, order), "Ke", grid=grid)
    return TheoremReport("ThmKe", hyps, applicable, conclusion)


def hyp_Se(
    params: BesselParams,
    verify: bool = False,
    grid: DiskGrid | None = None,
    order: int = 64,
) -> TheoremReport:
    """Exponential starlikeness of vartheta(z) = z * phi(z).

    Hypotheses: c != 0, re(kappa) >= |c|/4 + 1, and
    |kappa - 3| + |c| / (4(e-1)) <= (e^2 + e - 1) / (e^2 (e-1)).
    This is the convexity condition shifted one order down and carried
    through the duality between the convex and starlike classes.
    """
    kappa, c = params.kappa, params.c
    hyps = (
        _hyp_nonzero("c != 0", c),
        _hyp_ge("re(kappa) >= |c|/4 + 1", kappa.real, abs(c) / 4.0 + 1.0),
        _hyp_le(
            "|kappa-3| + |c|/(4(e-1)) <= (e^2+e-1)/(e^2(e-1))",
            abs(kappa - 3.0) + abs(c) / (4.0 * (_E - 1.0)),
            KE_INEQ_RHS,
        ),
    )
    applicable = all(h.holds for h in hyps)
    conclusion = None
    if verify and applicable:
        conclusion = check_class(series_of_vartheta(params, order), "Se", grid=grid)
    return TheoremReport("ThmSe", hyps, applicable, conclusion)


def hyp_corollaries(
    nu: complex,
    family: str,
    part: str,
    c_sign: int = 1,
    verify: bool = False,
    grid: DiskGrid | None = None,
    order: int = 64,
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
    nu = complex(nu)

    if family == "bessel":
        theorem_id = "CorBessel_a" if part == "a" else "CorBessel_b"
        b = 1
        if part == "a":
            hyps = (
                _hyp_ge("re(nu) >= -0.75", nu.real, -0.75),
                _hyp_le("|nu-1| <= 1/e^2 + 3/(4(e-1))", abs(nu - 1.0), BESSEL_ORDER_RHS),
            )
        else:
            hyps = (
                _hyp_ge("re(nu) >= 0.25", nu.real, 0.25),
                _hyp_le("|nu-2| <= 1/e^2 + 3/(4(e-1))", abs(nu - 2.0), BESSEL_ORDER_RHS),
            )
    else:
        theorem_id = "CorSpherical_a" if part == "a" else "CorSpherical_b"
        b = 2
        if part == "a":
            hyps = (
                _hyp_ge("re(nu) >= -1.25", nu.real, -1.25),
                _hyp_le(
                    "|2nu-1| <= 2/e^2 + 3/(2(e-1))", abs(2.0 * nu - 1.0), SPHERICAL_ORDER_RHS
                ),
            )
        else:
            hyps = (
                _hyp_ge("re(nu) >= -0.25", nu.real, -0.25),
                _hyp_le(
                    "|2nu-3| <= 2/e^2 + 3/(2(e-1))", abs(2.0 * nu - 3.0), SPHERICAL_ORDER_RHS
                ),
            )

    applicable = all(h.holds for h in hyps)
    conclusion = None
    if verify and applicable:
        params = BesselParams(nu, b, c_sign)
        if part == "a":
            conclusion = check_class(normalized_phi_deficit(params, order), "Ke", grid=grid)
        else:
            conclusion = check_class(series_of_vartheta(params, order), "Se", grid=grid)
    return TheoremReport(theorem_id, hyps, applicable, conclusion)


def hyp_libera(
    params: BesselParams,
    class_id: str,
    verify: bool = False,
    grid: DiskGrid | None = None,
    order: int = 64,
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
    base = hyp_Ke(params) if class_id == "Ke" else hyp_Se(params)
    conclusion = None
    if verify and base.applicable:
        source = (
            normalized_phi_deficit(params, order)
            if class_id == "Ke"
            else series_of_vartheta(params, order)
        )
        conclusion = check_class(libera(source), class_id, grid=grid)
    return TheoremReport("CorLibera", base.hypotheses, base.applicable, conclusion)


def hyp_omega_Se(
    params: BesselParams,
    verify: bool = False,
    grid: DiskGrid | None = None,
    order: int = 64,
) -> TheoremReport:
    """Starlikeness of the re-normalized unnormalized function (real kappa).

    Hypothesis: kappa >= max(|c|/4 + 1, 5|c|/3 + 3/4).  The function under
    test is h(z) = z * phi(z^2), the normalized form of z^(1-nu) omega up to
    a constant.  The proof route also bounds p = z phi'/phi by 1/4 on the
    disk; that quarter bound is sampled alongside and attached as an
    auxiliary check.
    """
    kappa, c = params.kappa, params.c
    if abs(kappa.imag) > 1e-12:
        raise ValueError(f"this condition needs real kappa, got {kappa!r}")
    threshold = max(abs(c) / 4.0 + 1.0, 5.0 * abs(c) / 3.0 + 0.75)
    hyps = (
        _hyp_ge("kappa >= max(|c|/4 + 1, 5|c|/3 + 3/4)", kappa.real, threshold),
    )
    applicable = all(h.holds for h in hyps)
    conclusion = None
    aux: tuple[MembershipReport, ...] = ()
    if verify and applicable:
        phi = series_of_phi(params, order)
        # h(z) = z * phi(z^2): interleave zeros, then shift one degree up.
        h_coeffs = [0.0 + 0.0j] * (2 * order + 2)
        for n in range(order + 1):
            h_coeffs[2 * n + 1] = phi.coefficient(n)
        conclusion = check_class(PowerSeries(tuple(h_coeffs)), "Se", grid=grid)
        # p = z phi'/phi, the starlike ratio of phi itself.
        aux = (check_quarter_bound(SeriesQuantity(phi, _starlike_rows), grid=grid),)
    return TheoremReport("ThmOmegaSe", hyps, applicable, conclusion, aux)


def _convexity_premise(
    name: str, f: PowerSeries | AnalyticMap, grid: DiskGrid
) -> Hypothesis:
    """Sampled convexity: min over the grid of re(1 + z f''/f') must be > 0.

    A series is sampled through its FFT rows, a closed-form map at the
    circle points.
    """
    if isinstance(f, PowerSeries):
        quantity = SeriesQuantity(f, _convex_rows)
    else:

        def quantity(zs):
            return 1.0 + zs * np.asarray(f.deriv2(zs), dtype=complex) / np.asarray(
                f.deriv1(zs), dtype=complex
            )

    min_re = math.inf
    for r in grid.radii:
        q = _sample(quantity, grid, r)
        if not np.isfinite(q).all():
            min_re = -math.inf
            break
        min_re = min(min_re, float(q.real.min()))
    return Hypothesis(name, min_re, ">=", 0.0, min_re > 0.0, min_re)


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

    The convexity premise is sampled on the grid (a verification, not a
    proof).  Because a truncated series misrepresents slowly decaying
    coefficients near |z| = 1, an exact evaluator for f may be supplied via
    f_exact and is then used for that premise only; the operator images
    always use the series, whose coefficients decay factorially.
    """
    if part not in ("a", "b"):
        raise ValueError(f"part must be 'a' or 'b', got {part!r}")
    if not f.is_normalized:
        raise NotNormalized("the chain step needs f with a_0 = 0 and a_1 = 1")
    grid = grid or DiskGrid()
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
        lower = b_operator(params.shift(-1), f)
        premise = check_class(lower, class_id, grid=grid)
        aux.append(premise)
        hyps.append(
            Hypothesis(
                f"B[kappa-1] f in {class_id} (sampled)",
                premise.sup_value,
                "<=",
                premise.threshold,
                premise.passed,
                premise.margin,
            )
        )

    applicable = len(hyps) == 3 and all(h.holds for h in hyps)
    conclusion = None
    if verify and applicable:
        conclusion = check_class(b_operator(params, f), class_id, grid=grid)
    return TheoremReport("ThmBkcChain", tuple(hyps), applicable, conclusion, tuple(aux))


def bessel_chain_step(
    nu: float,
    c_sign: int = 1,
    verify: bool = False,
    grid: DiskGrid | None = None,
    order: int = 64,
) -> TheoremReport:
    """Order-raising step for the normalized Bessel forms (real nu >= 1).

    If z*calJ(nu) is exponentially starlike then so is z*calJ(nu+1) (same for
    the modified variant).  The starlikeness premise is sampled; the chain
    hypothesis nu >= 1 is the printed one.
    """
    if c_sign not in (1, -1):
        raise ValueError(f"c_sign must be +1 or -1, got {c_sign!r}")
    nu = float(nu)
    hyps: list[Hypothesis] = [_hyp_ge("nu >= 1", nu, 1.0)]
    aux: list[MembershipReport] = []
    grid = grid or DiskGrid()

    if hyps[0].holds:
        premise = check_class(
            series_of_vartheta(BesselParams(nu, 1, c_sign), order), "Se", grid=grid
        )
        aux.append(premise)
        hyps.append(
            Hypothesis(
                "z calJ(nu) in Se (sampled)",
                premise.sup_value,
                "<=",
                premise.threshold,
                premise.passed,
                premise.margin,
            )
        )

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
    extremal sample is then refined by golden-section search in its
    neighbouring bracket.  The reported theta is reduced to [0, 2*pi).
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
    t_star, signed = _golden_max(
        lambda t: sign * float(fun(np.asarray([t]), m)[0]),
        float(theta[k]) - step,
        float(theta[k]) + step,
        iters=200,
    )
    value = sign * signed
    t_star = t_star % (2.0 * math.pi)
    return ExtremalCurve(
        kind=kind,
        m=float(m),
        samples=tuple((float(t), float(v)) for t, v in zip(theta, values)),
        extremal_theta=float(t_star),
        extremal_value=float(value),
    )


# ---------------------------------------------------------------------------
# Two-term differential inequality tests for operator images.


def _operator_image_quantity(g: PowerSeries, combine) -> SeriesQuantity:
    """The quantity combine(z g'/g, 1 + z g''/g') - 1 on the rows of g."""

    def rows(f, zf1, zzf2):
        return combine(zf1 / f, 1.0 + zzf2 / zf1) - 1.0

    return SeriesQuantity(g, rows)


def _example_premise(
    params: BesselParams,
    f: PowerSeries,
    combine,
    threshold: float,
    grid: DiskGrid | None,
    guard: float,
) -> tuple[MembershipReport, MembershipReport | None]:
    """Sweep a two-term premise on g = B[kappa] f, then its conclusion.

    When the sampled premise passes, g must be exponentially starlike; that
    conclusion is checked and returned, and a ConsistencyError is raised if
    it fails (it never should).
    """
    grid = grid or DiskGrid()
    g = b_operator(params, f)
    report = _sweep(
        _operator_image_quantity(g, combine),
        grid,
        guard,
        threshold=threshold,
        class_id="custom",
        use_log=False,
        require_positive_real=False,
    )
    conclusion = None
    if report.passed:
        conclusion = check_class(g, "Se", grid=grid)
        if conclusion.verdict == "fail":
            raise ConsistencyError(
                "the sampled premise holds but the starlikeness conclusion failed"
            )
    return report, conclusion


def _linear_premise(params, f, alpha, grid, guard):
    if alpha <= ALPHA_FLOOR:
        raise ValueError(f"alpha must exceed 1/e = {ALPHA_FLOOR:.6f}, got {alpha}")
    return _example_premise(
        params,
        f,
        lambda star, conv: (1.0 - alpha) * star + alpha * conv,
        alpha - ALPHA_FLOOR,
        grid,
        guard,
    )


def _product_premise(params, f, grid, guard):
    return _example_premise(
        params, f, lambda star, conv: star * conv, PRODUCT_INEQ_RHS, grid, guard
    )


def example_linear_check(
    params: BesselParams,
    f: PowerSeries,
    alpha: float,
    grid: DiskGrid | None = None,
    guard: float = 1e-6,
) -> MembershipReport:
    """Linear differential test for g = B[kappa] f with weight alpha > 1/e.

    Premise: |(1-alpha) z g'/g + alpha (1 + z g''/g') - 1| < alpha - 1/e on
    the disk.  When the sampled premise passes, g must be exponentially
    starlike; that conclusion is re-checked and a ConsistencyError is raised
    if it does not hold (it never should).
    """
    return _linear_premise(params, f, alpha, grid, guard)[0]


def example_product_check(
    params: BesselParams,
    f: PowerSeries,
    grid: DiskGrid | None = None,
    guard: float = 1e-6,
) -> MembershipReport:
    """Product differential test for g = B[kappa] f.

    Premise: |(z g'/g)(1 + z g''/g') - 1| < 1/e - 1/e^2 + 1 on the disk; a
    sampled pass forces exponential starlikeness of g (re-checked as in the
    linear test).
    """
    return _product_premise(params, f, grid, guard)[0]


def _example_report(
    theorem_id: str,
    premise_name: str,
    premise: MembershipReport,
    conclusion: MembershipReport | None,
    verify: bool,
) -> TheoremReport:
    hyp = Hypothesis(
        premise_name, premise.sup_value, "<", premise.threshold, premise.passed, premise.margin
    )
    return TheoremReport(
        theorem_id, (hyp,), premise.passed, conclusion if verify else None, (premise,)
    )


def example_linear_report(
    params: BesselParams,
    f: PowerSeries,
    alpha: float,
    verify: bool = False,
    grid: DiskGrid | None = None,
) -> TheoremReport:
    """TheoremReport wrapper around the linear differential test."""
    premise, conclusion = _linear_premise(params, f, alpha, grid, 1e-6)
    return _example_report(
        "Ex_linear",
        "sup |(1-a) z g'/g + a (1 + z g''/g') - 1| < a - 1/e",
        premise,
        conclusion,
        verify,
    )


def example_product_report(
    params: BesselParams,
    f: PowerSeries,
    verify: bool = False,
    grid: DiskGrid | None = None,
) -> TheoremReport:
    """TheoremReport wrapper around the product differential test."""
    premise, conclusion = _product_premise(params, f, grid, 1e-6)
    return _example_report(
        "Ex_product",
        "sup |(z g'/g)(1 + z g''/g') - 1| < 1/e - 1/e^2 + 1",
        premise,
        conclusion,
        verify,
    )
