"""Truncated power series about 0 and the convolution-type operators on them.

Series are plain coefficient vectors.  The operators implemented here act
coefficient-wise (Hadamard product, the Bessel convolution operator, the
Libera averaging operator, the starlike/convex transform pair), so degree-64
truncations are exact up to the stored degree.

The operators and the constructor make one pass over the coefficient tuple,
with no per-index lookup.

``eval_rows`` is the evaluation kernel of the disk sweeps: it returns f, z f'
and z^2 f'' together, on all the circles of a grid by one batched inverse FFT
or at a general point by a pure-Python Horner pass.  The sweeps call its
kernel with the rows their ratio reads, and only those rows are transformed.
Their refinement probes lie within one grid step of a sampled angle and use
``_probe_rows``: a table of the rows' terms, phased to that angle once, from
which each probe is one vector exponential and a dot product per row.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import NonvanishingAtZero, NotNormalized, OutOfDomain
from .special_fn import BesselParams

# Default truncation degree; Bessel-type coefficients decay factorially, so
# the degree-64 tail is far below double precision for moderate parameters.
DEFAULT_ORDER = 64

# Largest truncation degree the series builders accept.
MAX_ORDER = 500

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
        cs = tuple(map(complex, self.coeffs))
        if not cs:
            raise ValueError("a series needs at least the constant coefficient")
        if not all(map(cmath.isfinite, cs)):
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


# The rows of ``eval_rows`` by index: 0 is f, 1 is z f', 2 is z^2 f''.
ALL_ROWS = (0, 1, 2)


def eval_rows(series: PowerSeries, z, angles: int | None = None):
    """The rows f, z f' and z^2 f'' of the truncation, for |z| <= 1.05.

    With ``angles=N``, z is a radius r and the result is a (3, N) complex
    array of the rows at the N uniform angles z_k = r exp(2 pi i k / N); for
    an array of R radii it is a (3, R, N) array from the same single inverse
    FFT.  On that circle sum_n a_n z_k^n is the unnormalized inverse DFT of
    a_n r^n, so one batched inverse FFT of a_n r^n, n a_n r^n and
    n (n-1) a_n r^n over all radii gives all the rows; coefficients of degree
    n >= N alias onto n mod N and are summed there first, which keeps the
    result exact (Trefethen, Approximation Theory and Approximation Practice,
    SIAM 2013, on trigonometric interpolation).

    Without ``angles``, z is one point and the result is three Python complex
    numbers from one Horner pass that carries f, f' and f''/2 together.
    """
    return _eval_rows(series, z, angles, ALL_ROWS)


def _eval_rows(series: PowerSeries, z, angles: int | None, rows: tuple[int, ...]):
    """``eval_rows`` restricted to the rows listed (ascending) in rows.

    Only those rows are scaled and transformed, and the Horner pass carries
    only the accumulators up to the highest order listed.  The result holds
    the listed rows in order: an array with one leading entry per row on the
    circles, a tuple at a point.  Each row equals the matching row of the
    full call bit for bit.
    """
    if angles is None:
        z = complex(z)
        if abs(z) > EVAL_RADIUS:
            raise OutOfDomain(f"series evaluation restricted to |z| <= {EVAL_RADIUS}")
        cs = series.coeffs
        top = rows[-1]
        p, d1, d2 = cs[-1], 0j, 0j
        if top == 0:
            for c in cs[-2::-1]:
                p = p * z + c
        elif top == 1:
            for c in cs[-2::-1]:
                d1 = d1 * z + p
                p = p * z + c
        else:
            for c in cs[-2::-1]:
                d2 = d2 * z + d1
                d1 = d1 * z + p
                p = p * z + c
        full = (p, z * d1, 2.0 * z * z * d2)
        return tuple(full[i] for i in rows)
    r = np.asarray(z, dtype=float)
    if (np.abs(r) > EVAL_RADIUS).any():
        raise OutOfDomain(f"series evaluation restricted to |z| <= {EVAL_RADIUS}")
    n = np.arange(series.order + 1)
    scaled = np.array(series.coeffs, dtype=complex) * r[..., None] ** n
    weights = (None, n, n * (n - 1.0))
    coeff_rows = np.stack([weights[i] * scaled if i else scaled for i in rows])
    if n.size > angles:
        width = -(-n.size // angles) * angles
        pad = [(0, 0)] * (coeff_rows.ndim - 1) + [(0, width - n.size)]
        coeff_rows = np.pad(coeff_rows, pad)
        coeff_rows = coeff_rows.reshape(coeff_rows.shape[:-1] + (-1, angles)).sum(axis=-2)
    return np.fft.ifft(coeff_rows, n=angles, norm="forward")


@functools.lru_cache(maxsize=8)
def _unit_roots(n: int) -> np.ndarray:
    """exp(i theta_k) on the n uniform grid angles, shared read-only."""
    roots = np.exp(1j * (np.arange(n) * (2.0 * math.pi / n)))
    roots.setflags(write=False)
    return roots


def _probe_rows(series: PowerSeries, r: float, k: int, angles: int, rows: tuple[int, ...]):
    """The listed rows near the grid point r exp(i theta_k), theta_k = 2 pi k / angles.

    Returns a function of delta that gives the rows at r exp(i (theta_k +
    delta)) as a tuple of Python complex numbers, in the order of rows.  Row
    j is sum_n w_j(n) a_n r^n e^{i n theta_k} e^{i n delta}, with weights 1,
    n and n (n-1).  The terms w_j(n) a_n r^n e^{i n theta_k} are tabulated
    once, with e^{i n theta_k} read from the grid's unit roots at (k n) mod
    angles, so each call costs one vector exponential and one dot product
    per row instead of a Horner pass.  Each row is computed alone, so it has
    the same bits whatever other rows are listed.  The sweep calls it with
    |delta| up to one grid step.
    """
    n = np.arange(series.order + 1)
    scaled = np.array(series.coeffs, dtype=complex) * r**n * _unit_roots(angles)[k * n % angles]
    weights = (None, n, n * (n - 1.0))
    table = [weights[i] * scaled if i else scaled for i in rows]
    phase = 1j * n

    def at(delta: float) -> tuple[complex, ...]:
        shift = np.exp(delta * phase)
        return tuple(complex(np.dot(row, shift)) for row in table)

    return at


def series_of_phi(params: BesselParams, order: int = DEFAULT_ORDER) -> PowerSeries:
    """Coefficients b_n = (-c/4)^n / ((kappa)_n n!) of the normalized function."""
    if order < 0 or order > MAX_ORDER:
        raise ValueError(f"order must lie in [0, {MAX_ORDER}], got {order}")
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
    return PowerSeries(tuple(map(operator.mul, f.coeffs, g.coeffs)))


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
    for n, a in enumerate(f.coeffs[1:]):
        out.append(weight * a)
        weight = weight * q / ((kappa + n) * (n + 1))
    return PowerSeries(tuple(out))


def libera(f: PowerSeries) -> PowerSeries:
    """Libera averaging operator L[f](z) = (2/z) * integral of f from 0 to z.

    Coefficient map a_n -> 2 a_n / (n+1); requires a_0 = 0.
    """
    if abs(f.coefficient(0)) > COEFF_TOL:
        raise NonvanishingAtZero("libera requires f(0) = 0")
    return PowerSeries(
        (0.0 + 0.0j,) + tuple(2.0 * a / (n + 1) for n, a in enumerate(f.coeffs[1:], 1))
    )


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
    terms = enumerate(f.coeffs[1:], 1)
    if direction == "to_starlike":
        return PowerSeries((0.0 + 0.0j,) + tuple(n * a for n, a in terms))
    return PowerSeries((0.0 + 0.0j,) + tuple(a / n for n, a in terms))
