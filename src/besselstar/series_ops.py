"""Truncated power series about 0 and the convolution-type operators on them.

Series are plain coefficient vectors.  The operators implemented here act
coefficient-wise (Hadamard product, the Bessel convolution operator, the
Libera averaging operator, the starlike/convex transform pair), so degree-64
truncations are exact up to the stored degree.

``eval_rows`` is the evaluation kernel of the disk sweeps: it returns f, z f'
and z^2 f'' together, on a whole grid circle by one inverse FFT or at one
point by a pure-Python Horner pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonvanishingAtZero, NotNormalized, OutOfDomain
from .special_fn import BesselParams

# Default truncation degree; Bessel-type coefficients decay factorially, so
# the degree-64 tail is far below double precision for moderate parameters.
DEFAULT_ORDER = 64

# Two series are considered equal when coefficients agree within this.
COEFF_TOL = 1e-12

# Evaluation guard radius: polynomial evaluation far outside the closed unit
# disk says nothing about the function the series truncates.
EVAL_RADIUS = 1.05


@dataclass(frozen=True)
class PowerSeries:
    """Coefficients (a_0, ..., a_N) of a polynomial truncation about 0."""

    coeffs: tuple[complex, ...]

    def __post_init__(self) -> None:
        cs = tuple(complex(c) for c in self.coeffs)
        if not cs:
            raise ValueError("a series needs at least the constant coefficient")
        if not all(math.isfinite(c.real) and math.isfinite(c.imag) for c in cs):
            raise ValueError("series coefficients must be finite")
        object.__setattr__(self, "coeffs", cs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> complex:
        return self.coeffs[n] if 0 <= n <= self.order else 0.0 + 0.0j

    @property
    def is_normalized(self) -> bool:
        """True when a_0 = 0 and a_1 = 1 within COEFF_TOL."""
        return (
            abs(self.coefficient(0)) <= COEFF_TOL
            and abs(self.coefficient(1) - 1.0) <= COEFF_TOL
        )

    def eval(self, z):
        """Horner evaluation; accepts a scalar or a numpy array, |z| <= 1.05."""
        zs = np.asarray(z, dtype=complex)
        if zs.size and float(np.max(np.abs(zs))) > EVAL_RADIUS:
            raise OutOfDomain(f"series evaluation restricted to |z| <= {EVAL_RADIUS}")
        acc = np.full(zs.shape, self.coeffs[-1], dtype=complex)
        for c in self.coeffs[-2::-1]:
            acc = acc * zs + c
        if np.isscalar(z) or zs.shape == ():
            return complex(acc)
        return acc

    def differentiate(self) -> "PowerSeries":
        """Exact coefficient-shift derivative."""
        if self.order == 0:
            return PowerSeries((0.0,))
        return PowerSeries(
            tuple((n + 1) * c for n, c in enumerate(self.coeffs[1:]))
        )

    def shift_up(self) -> "PowerSeries":
        """Multiply by z (degree grows by one)."""
        return PowerSeries((0.0,) + self.coeffs)

    def scale(self, factor: complex) -> "PowerSeries":
        return PowerSeries(tuple(factor * c for c in self.coeffs))

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        n = max(self.order, other.order)
        return PowerSeries(
            tuple(self.coefficient(k) + other.coefficient(k) for k in range(n + 1))
        )

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        return self + other.scale(-1.0)

    def max_deviation(self, other: "PowerSeries") -> float:
        n = max(self.order, other.order)
        return max(
            abs(self.coefficient(k) - other.coefficient(k)) for k in range(n + 1)
        )

    def to_coefficient_pairs(self) -> list[list[float]]:
        """JSON-friendly form: one [re, im] pair per coefficient."""
        return [[c.real, c.imag] for c in self.coeffs]

    @classmethod
    def from_coefficient_pairs(cls, pairs) -> "PowerSeries":
        return cls(tuple(complex(p[0], p[1]) for p in pairs))


def eval_rows(series: PowerSeries, z, angles: int | None = None):
    """The rows f, z f' and z^2 f'' of the truncation, for |z| <= 1.05.

    With ``angles=N``, z is a radius r and the result is a (3, N) complex
    array of the rows at the N uniform angles z_k = r exp(2 pi i k / N).  On
    that circle sum_n a_n z_k^n is the unnormalized inverse DFT of a_n r^n, so
    one batched inverse FFT of a_n r^n, n a_n r^n and n (n-1) a_n r^n gives
    all three rows; coefficients of degree n >= N alias onto n mod N and are
    summed there first, which keeps the result exact (Trefethen, Approximation
    Theory and Approximation Practice, SIAM 2013, on trigonometric
    interpolation).

    Without ``angles``, z is one point and the result is three Python complex
    numbers from one Horner pass that carries f, f' and f''/2 together.
    """
    if angles is None:
        z = complex(z)
        if abs(z) > EVAL_RADIUS:
            raise OutOfDomain(f"series evaluation restricted to |z| <= {EVAL_RADIUS}")
        cs = series.coeffs
        p, d1, d2 = cs[-1], 0j, 0j
        for c in cs[-2::-1]:
            d2 = d2 * z + d1
            d1 = d1 * z + p
            p = p * z + c
        return p, z * d1, 2.0 * z * z * d2
    r = float(z)
    if abs(r) > EVAL_RADIUS:
        raise OutOfDomain(f"series evaluation restricted to |z| <= {EVAL_RADIUS}")
    n = np.arange(series.order + 1)
    scaled = np.array(series.coeffs, dtype=complex) * r**n
    rows = np.stack((scaled, n * scaled, (n * (n - 1.0)) * scaled))
    if n.size > angles:
        width = -(-n.size // angles) * angles
        rows = np.pad(rows, ((0, 0), (0, width - n.size)))
        rows = rows.reshape(3, -1, angles).sum(axis=1)
    return np.fft.ifft(rows, n=angles, norm="forward")


def series_of_phi(params: BesselParams, order: int = DEFAULT_ORDER) -> PowerSeries:
    """Coefficients b_n = (-c/4)^n / ((kappa)_n n!) of the normalized function."""
    if order < 0 or order > 500:
        raise ValueError(f"order must lie in [0, 500], got {order}")
    kappa = params.kappa
    q = -params.c / 4.0
    out = [1.0 + 0.0j]
    for n in range(order):
        out.append(out[-1] * q / ((kappa + n) * (n + 1)))
    return PowerSeries(tuple(out))


def series_of_vartheta(params: BesselParams, order: int = DEFAULT_ORDER) -> PowerSeries:
    """Series of z * phi(z), the normalized-class member attached to phi."""
    if order < 1:
        raise ValueError("vartheta needs order >= 1")
    return series_of_phi(params, order - 1).shift_up()


def hadamard(f: PowerSeries, g: PowerSeries) -> PowerSeries:
    """Coefficient-wise (Hadamard) product; the result keeps the shorter degree."""
    n = min(f.order, g.order)
    return PowerSeries(tuple(f.coeffs[k] * g.coeffs[k] for k in range(n + 1)))


def b_operator(params: BesselParams, f: PowerSeries) -> PowerSeries:
    """Bessel convolution operator: z + sum_n (-c/4)^n a_{n+1} / ((kappa)_n n!) z^{n+1}.

    Equals the Hadamard product of f with the vartheta series; satisfies the
    order recurrence z (B[kappa+1] f)' = kappa B[kappa] f - (kappa-1) B[kappa+1] f.
    """
    if not f.is_normalized:
        raise NotNormalized("b_operator needs a_0 = 0 and a_1 = 1")
    kappa = params.kappa
    q = -params.c / 4.0
    out = [0.0 + 0.0j]
    weight = 1.0 + 0.0j  # (-c/4)^n / ((kappa)_n n!)
    for n in range(f.order):
        out.append(weight * f.coefficient(n + 1))
        weight = weight * q / ((kappa + n) * (n + 1))
    return PowerSeries(tuple(out))


def libera(f: PowerSeries) -> PowerSeries:
    """Libera averaging operator L[f](z) = (2/z) * integral of f from 0 to z.

    Coefficient map a_n -> 2 a_n / (n+1); requires a_0 = 0.
    """
    if abs(f.coefficient(0)) > COEFF_TOL:
        raise NonvanishingAtZero("libera requires f(0) = 0")
    out = [0.0 + 0.0j]
    for n in range(1, f.order + 1):
        out.append(2.0 * f.coefficient(n) / (n + 1))
    return PowerSeries(tuple(out))


def libera_kernel(order: int = DEFAULT_ORDER) -> PowerSeries:
    """Series of -2 (z + log(1-z)) / z, the convolution kernel of libera.

    Built symbolically from log(1-z) = -sum z^n / n; coefficient of z^n is
    2/(n+1), so hadamard(f, kernel) reproduces libera(f).
    """
    return PowerSeries(tuple([0.0] + [2.0 / (n + 1) for n in range(1, order + 1)]))


def alexander(f: PowerSeries, direction: str) -> PowerSeries:
    """Starlike/convex transform pair: 'to_starlike' sends f to z f',
    'to_convex' inverts it (a_n -> a_n / n).  Exact inverses of each other."""
    if direction not in ("to_starlike", "to_convex"):
        raise ValueError(f"direction must be 'to_starlike' or 'to_convex', got {direction!r}")
    if not f.is_normalized:
        raise NotNormalized("alexander transform expects a_0 = 0 and a_1 = 1")
    out = [0.0 + 0.0j]
    for n in range(1, f.order + 1):
        out.append(n * f.coefficient(n) if direction == "to_starlike" else f.coefficient(n) / n)
    return PowerSeries(tuple(out))


def eval_series(f: PowerSeries, z: complex) -> complex:
    """Horner evaluation of the truncated polynomial at a point, |z| <= 1.05."""
    return f.eval(complex(z))
