"""Generalized Bessel functions of the first kind and their normalized form.

The central object is the entire function

    phi(z) = sum_{n>=0} (-c/4)^n / ( (kappa)_n * n! ) * z^n,   kappa = nu + (b+1)/2,

the normalized form of the generalized Bessel function omega of order nu with
parameters b and c.  omega itself is recovered through

    omega(z) = z^nu * phi(z^2) / (2^nu * Gamma(kappa)).

The classical Bessel, modified Bessel, spherical Bessel and modified spherical
Bessel functions are the special cases (b, c) = (1, 1), (1, -1), (2, 1), (2, -1).

All evaluations are truncated power series with an explicit geometric tail
bound; the functions are entire, so convergence holds for every z.  A sum
stops at the first n with rho = |t(n+1)/t(n)| < 1/2, |t(n+1)| / (1 - rho) <= tol
and n + order + re(kappa) >= 0: only then can no later ratio grow, which the
geometric bound needs (``_sum_with_tail_bound`` derives it).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .errors import BranchError, MaxTermsExceeded, PoleError

# Construction rejects kappa closer than this to a non-positive integer.
KAPPA_POLE_TOL = 1e-12

# Default cap on the number of series terms.
MAX_TERMS_DEFAULT = 500

MIN_TOL = 1e-15

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_LOG_2 = math.log(2.0)

# Lanczos rational approximation, g = 607/128, 15 terms (Godfrey's set).
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_COEF = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)
_LANCZOS_TERMS = tuple(enumerate(_LANCZOS_COEF))[1:]


def _require_finite(z: complex, what: str = "z") -> complex:
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"{what} must have finite real and imaginary parts, got {z!r}")
    return z


def _nonpositive_integer_distance(z: complex) -> float:
    """Distance from z to the nearest element of {0, -1, -2, ...}."""
    n = round(z.real)
    if n > 0:
        n = 0
    return abs(z - n)


@dataclass(frozen=True)
class BesselParams:
    """Parameter triple (nu, b, c); kappa = nu + (b+1)/2 is derived at construction.

    Construction fails when kappa sits within ``KAPPA_POLE_TOL`` of a
    non-positive integer, where the series coefficients blow up.
    """

    nu: complex
    b: complex
    c: complex
    kappa: complex = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nu", _require_finite(self.nu, "nu"))
        object.__setattr__(self, "b", _require_finite(self.b, "b"))
        object.__setattr__(self, "c", _require_finite(self.c, "c"))
        kappa = self.nu + (self.b + 1.0) / 2.0
        object.__setattr__(self, "kappa", kappa)
        if _nonpositive_integer_distance(kappa) <= KAPPA_POLE_TOL:
            raise PoleError(
                f"kappa = {kappa!r} is within {KAPPA_POLE_TOL} of a non-positive integer"
            )

    def shift(self, amount: complex = 1) -> "BesselParams":
        """Parameters of the order-shifted function (nu -> nu + amount)."""
        return BesselParams(self.nu + amount, self.b, self.c)


@dataclass(frozen=True)
class EvalResult:
    """Value of a truncated series together with its accounting.

    tail_bound is an upper estimate of the modulus of the discarded tail;
    terms_used counts the summed terms.
    """

    value: complex
    terms_used: int
    tail_bound: float


def _sinpi(z: complex) -> complex:
    # sin(pi z) with argument reduction so accuracy survives near integers.
    n = round(z.real)
    s = cmath.sin(math.pi * (z - n))
    return -s if (n & 1) else s


def gamma(z: complex) -> complex:
    """Euler gamma function on the complex plane.

    Fixed-coefficient Lanczos rational approximation on re(z) >= 1/2, the
    reflection formula elsewhere.  Relative error stays below 1e-13 for
    |z| <= 50 and along re z up to 170 (measured against an
    arbitrary-precision reference).  The power t^(z - 1/2) e^(-t) is one
    exponential, so it stays finite as long as gamma does (re z up to about
    171.6); beyond that, OverflowError.
    """
    z = _require_finite(z)
    if z.real < 0.5:
        if _nonpositive_integer_distance(z) <= KAPPA_POLE_TOL:
            raise PoleError(f"gamma pole at {z!r}")
        return math.pi / (_sinpi(z) * gamma(1.0 - z))
    w = z - 1.0
    acc = _LANCZOS_COEF[0]
    for k, coef in _LANCZOS_TERMS:
        acc += coef / (w + k)
    t = w + _LANCZOS_G + 0.5
    return _SQRT_TWO_PI * cmath.exp((w + 0.5) * cmath.log(t) - t) * acc


def pochhammer(x: complex, n: int) -> complex:
    """Rising factorial x (x+1) ... (x+n-1), with the empty product equal to 1.

    Computed by direct multiplication rather than gamma ratios, so arguments
    at or near the gamma poles are handled exactly (a zero factor gives 0).
    """
    if n < 0 or n != int(n):
        raise ValueError(f"n must be a non-negative integer, got {n!r}")
    x = _require_finite(x, "x")
    out = 1.0 + 0.0j
    for k in range(int(n)):
        out *= x + k
    return out


def _sum_with_tail_bound(
    first_term: complex,
    q: complex,
    kappa: complex,
    order: int,
    z: complex,
    tol: float,
    max_terms: int,
) -> EvalResult:
    """Sum t(0) = first_term, t(n+1) = t(n) * q / ((kappa + n + order) (n + 1)) * z.

    phi (order 0, q = -c/4) or its derivative of that order.  The estimate
    |t(n+1)| / (1 - rho(n)), rho(n) = |t(n+1)/t(n)|, bounds the tail if no
    later ratio |q z| / (|kappa + m + order| (m + 1)) exceeds rho(n).  Once
    n + order + re(kappa) >= 0, |kappa + m + order| grows with m (its real
    part grows, its imaginary part is fixed), and so does m + 1; before that,
    a factor near a pole can still come.  So the sum stops at the first n
    with rho(n) < 1/2, estimate <= tol and n + order + re(kappa) >= 0, or at
    a zero term (every later one is zero).  For order 0 the added 0 is exact
    (kappa + n is never -0.0): phi's terms are those of q / ((kappa + n) (n + 1)).
    A NaN tol is refused (no tail would ever meet it), and so is an infinite
    one (the first term would pass for the sum).
    """
    if not MIN_TOL <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= {MIN_TOL}, got {tol}")
    total = 0.0 + 0.0j
    term = complex(first_term)
    mag = abs(term)
    for n in range(max_terms + 1):
        total += term
        if mag == 0.0:
            return EvalResult(total, n + 1, 0.0)
        nxt = term * (q / ((kappa + n + order) * (n + 1))) * z
        nxt_mag = abs(nxt)
        rho = nxt_mag / mag
        if rho < 0.5:
            tail = nxt_mag / (1.0 - rho)
            if tail <= tol and n + order + kappa.real >= 0.0:
                return EvalResult(total, n + 1, tail)
        term = nxt
        mag = nxt_mag
    raise MaxTermsExceeded(
        f"series did not meet tol={tol} within {max_terms} terms (|z|={abs(z):.3g})"
    )


def phi_eval(
    params: BesselParams,
    z: complex,
    tol: float = 1e-12,
    max_terms: int = MAX_TERMS_DEFAULT,
) -> EvalResult:
    """Evaluate the normalized generalized Bessel function phi at z.

    phi(0) = 1 and phi is entire; the returned tail_bound is <= tol.
    """
    z = _require_finite(z)
    return _sum_with_tail_bound(1.0, -params.c / 4.0, params.kappa, 0, z, tol, max_terms)


def phi_derivative(
    params: BesselParams,
    z: complex,
    order: int,
    tol: float = 1e-12,
    max_terms: int = MAX_TERMS_DEFAULT,
) -> EvalResult:
    """Term-wise derivative of phi of the given order (1, 2 or 3) at z."""
    if order not in (1, 2, 3):
        raise ValueError(f"order must be 1, 2 or 3, got {order!r}")
    z = _require_finite(z)
    q = -params.c / 4.0
    # Leading term of the k-th derivative: k! * b_k = (-c/4)^k / (kappa)_k.
    first = q ** order / pochhammer(params.kappa, order)
    return _sum_with_tail_bound(first, q, params.kappa, order, z, tol, max_terms)


def _power_with_cut(z: complex, exponent: complex, cut_angle: float) -> complex:
    """z**exponent with the branch cut of log rotated to the ray at pi + cut_angle."""
    w = z * cmath.exp(-1j * cut_angle)
    if w.imag == 0.0 and w.real < 0.0:
        raise BranchError(
            f"z = {z!r} lies on the branch cut (cut rotated by {cut_angle} rad)"
        )
    log_z = cmath.log(w) + 1j * cut_angle
    return cmath.exp(exponent * log_z)


def omega_eval(
    params: BesselParams,
    z: complex,
    branch_cut_angle: float = 0.0,
    tol: float = 1e-12,
    max_terms: int = MAX_TERMS_DEFAULT,
) -> EvalResult:
    """Generalized Bessel function omega of the first kind at z.

    Computed as omega(z) = z^nu * phi(z^2) / (2^nu * Gamma(kappa)).  The
    power z^nu uses the principal branch rotated by branch_cut_angle, which
    must be finite.  z = 0 is admitted only for re(nu) > 0 (value 0) or nu = 0.
    """
    z = _require_finite(z)
    if not cmath.isfinite(branch_cut_angle):
        raise ValueError(f"branch_cut_angle must be finite, got {branch_cut_angle!r}")
    nu = params.nu
    if z == 0:
        if nu == 0:
            g = gamma(params.kappa)
            return EvalResult(1.0 / g, 1, 0.0)
        if nu.real > 0:
            return EvalResult(0j, 1, 0.0)
        raise BranchError(f"z = 0 is outside the domain of omega for nu = {nu!r}")
    prefactor = _power_with_cut(z, nu, branch_cut_angle) / (
        cmath.exp(nu * _LOG_2) * gamma(params.kappa)
    )
    inner = phi_eval(params, z * z, tol=tol, max_terms=max_terms)
    return EvalResult(prefactor * inner.value, inner.terms_used, abs(prefactor) * inner.tail_bound)


# name -> (b, c, base evaluation, output scale)
FAMILIES: dict[str, tuple[complex, complex, str, float]] = {
    "J": (1, 1, "omega", 1.0),
    "I": (1, -1, "omega", 1.0),
    "j_sph": (2, 1, "omega", math.sqrt(math.pi) / 2.0),
    "i_sph": (2, -1, "omega", math.sqrt(math.pi) / 2.0),
    "calJ": (1, 1, "phi", 1.0),
    "calI": (1, -1, "phi", 1.0),
    "frakj": (2, 1, "phi", 1.0),
    "fraki": (2, -1, "phi", 1.0),
}


def named_family(
    name: str,
    nu: complex,
    z: complex,
    tol: float = 1e-12,
    max_terms: int = MAX_TERMS_DEFAULT,
) -> EvalResult:
    """Evaluate a classical member of the generalized Bessel family.

    J, I, j_sph, i_sph are the (modified/spherical) Bessel functions of the
    first kind.  calJ, calI, frakj, fraki are their normalized companions
    taking the value 1 at 0: e.g. calJ(nu, z) = 2^nu Gamma(nu+1) z^(-nu/2)
    J(nu, sqrt(z)), which coincides with phi for (b, c) = (1, 1).
    """
    try:
        b, c, base, scale = FAMILIES[name]
    except KeyError:
        raise ValueError(
            f"unknown family {name!r}; expected one of {sorted(FAMILIES)}"
        ) from None
    params = BesselParams(nu, b, c)
    if base == "phi":
        return phi_eval(params, z, tol=tol, max_terms=max_terms)
    res = omega_eval(params, z, tol=tol, max_terms=max_terms)
    if scale != 1.0:
        res = EvalResult(scale * res.value, res.terms_used, scale * res.tail_bound)
    return res
