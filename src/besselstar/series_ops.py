"""Truncated power series about 0 and the convolution-type operators on them.

A series holds its coefficients once, as a read-only complex array that every
layer reads as it is.  The operators act coefficient-wise (Hadamard product,
the Bessel convolution operator, the Libera averaging operator, the
starlike/convex transform pair), so degree-64 truncations are exact up to the
stored degree; the Bessel weights b_n of ``series_of_phi`` and ``b_operator``
are one cumulative product of their ratios.  numpy's complex multiply may
round differently from Python's, even for swapped operands, so products and
quotients of coefficients go through ``_times`` and ``_over``: separate real
operations, as CPython's _Py_c_prod and _Py_c_quot form them, which keep the
bits (signed zeros included) of a loop over Python complex numbers.

``eval_rows`` is the evaluation kernel of the disk sweeps: it returns f, z f'
and z^2 f'' together, on all the circles of a grid by one batched inverse FFT
or at a general point by a pure-Python Horner pass.  The sweeps call its
kernels with the rows their ratio reads: ``_circle_rows`` transforms only
those rows, from one table of the series' arrays per sweep (``_Terms``), and
``_horner_rows`` returns only those rows at a point.
Their refinement probes lie within one grid step of a sampled angle and use
``_probe_rows``: the rows' terms are phased to that angle once, and when
degree times the grid step is at most 1 (every default grid up to
MAX_ORDER) a few Taylor moments of e^{i n delta} per row, from one product
with a table cached per degree and grid, make each probe one pure-Python
Horner pass of 10 to 18 terms, within a stated bound of the exact sum.
Coarser grids phase each probe by one vector exponential and a dot product
per row.
"""

from __future__ import annotations

import functools
import math
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


def _times(a, b) -> np.ndarray:
    """a * b elementwise, as Python multiplies complex numbers (real operands get +0.0j)."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real, out.imag = a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real
    return out


def _over(a, n) -> np.ndarray:
    """a / n elementwise for a complex array a and positive reals n, as Python divides."""
    out = np.empty(a.shape, dtype=complex)
    out.real, out.imag = (a.real + a.imag * 0.0) / n, (a.imag - a.real * 0.0) / n
    return out


@dataclass(frozen=True, eq=False)
class PowerSeries:
    """Coefficients (a_0, ..., a_N) of a polynomial truncation about 0.

    coeffs is a read-only 1-D complex array, copied from the caller's
    sequence or array and checked finite once (copies and pickles too).
    Series are equal when their arrays have equal lengths and entries (0.0
    equals -0.0), and hash as the tuple of their coefficients.  Products and
    quotients of coefficients round as Python's do (``_times``, ``_over``).
    """

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        cs = np.array(self.coeffs, dtype=complex)
        if cs.ndim != 1 or not cs.size or not np.isfinite(cs).all():
            raise ValueError("a series needs one or more finite coefficients in a flat sequence")
        cs.setflags(write=False)
        object.__setattr__(self, "coeffs", cs)

    def __eq__(self, other) -> bool:
        return isinstance(other, PowerSeries) and np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self) -> int:
        return hash(tuple(self.coeffs.tolist()))

    def __reduce__(self):
        return PowerSeries, (self.coeffs,)

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    def coefficient(self, n: int) -> complex:
        return complex(self.coeffs[n]) if 0 <= n <= self.order else 0.0 + 0.0j

    @property
    def is_normalized(self) -> bool:
        """True when a_0 = 0 and a_1 = 1 within COEFF_TOL."""
        return abs(self.coefficient(0)) <= COEFF_TOL and abs(self.coefficient(1) - 1.0) <= COEFF_TOL

    def eval(self, z):
        """Horner evaluation; accepts a scalar or a numpy array, |z| <= 1.05.

        A scalar is ``_horner_rows(self, z, (0,))``; an array takes the same
        Horner steps entry by entry through ``_times``, so each entry has the
        bits of the scalar value at its point.
        """
        zs = np.asarray(z, dtype=complex)
        if zs.shape == ():
            return _horner_rows(self, zs, (0,))[0]
        if zs.size and float(np.max(np.abs(zs))) > EVAL_RADIUS:
            raise OutOfDomain(f"series evaluation restricted to |z| <= {EVAL_RADIUS}")
        acc = np.full(zs.shape, self.coeffs[-1], dtype=complex)
        for c in self.coeffs[-2::-1].tolist():
            acc = _times(acc, zs) + c
        return acc

    def differentiate(self) -> "PowerSeries":
        """Exact coefficient-shift derivative."""
        n = np.arange(1, self.coeffs.size)
        return PowerSeries(_times(n, self.coeffs[1:]) if n.size else (0.0,))

    def shift_up(self) -> "PowerSeries":
        """Multiply by z (degree grows by one)."""
        return PowerSeries(np.concatenate(([0.0j], self.coeffs)))

    def scale(self, factor: complex) -> "PowerSeries":
        return PowerSeries(_times(factor, self.coeffs))

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        short, long = sorted((self.coeffs, other.coeffs), key=len)
        return PowerSeries(long + np.pad(short, (0, long.size - short.size)))

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        return self + other.scale(-1.0)

    def max_deviation(self, other: "PowerSeries") -> float:
        # a - b up to the signs of zeros, whose hypot is Python's abs(a - b)
        d = (self - other).coeffs
        return float(np.hypot(d.real, d.imag).max())

    def to_coefficient_pairs(self) -> list[list[float]]:
        """JSON-friendly form: one [re, im] pair per coefficient."""
        return self.coeffs.view(float).reshape(-1, 2).tolist()

    @classmethod
    def from_coefficient_pairs(cls, pairs) -> "PowerSeries":
        return cls([complex(p[0], p[1]) for p in pairs])


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
    if angles is None:
        return _horner_rows(series, z, ALL_ROWS)
    return _circle_rows(_Terms(series), z, angles, ALL_ROWS)


@functools.lru_cache(maxsize=8)
def _indices(size: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The indices n = 0..size-1 and the row weights 1, n and n (n-1), shared read-only."""
    n = np.arange(size)
    weights = (np.ones(size), n, n * (n - 1.0))
    for array in weights:
        array.setflags(write=False)
    return n, weights


class _Terms:
    """The arrays every circle evaluation of one series reads, built once.

    coeffs is the series' own array of a_n, n the indices and weights the
    row weights 1, n and n (n-1) (rows f, z f' and z^2 f''), the last two
    shared read-only by every series of the same degree (``_indices``), and
    ``powers(r)`` is r^n, kept per radius.  A sweep builds one table for its
    series and hands it to ``_circle_rows``, ``_probe_rows`` and the winding
    certificate, so none of them rebuilds these arrays.
    """

    def __init__(self, series: PowerSeries):
        self.coeffs = series.coeffs
        self.n, self.weights = _indices(self.coeffs.size)
        self._powers: dict[float, np.ndarray] = {}

    def powers(self, r: float) -> np.ndarray:
        """r^n for the circle of radius r."""
        r = float(r)
        out = self._powers.get(r)
        if out is None:
            out = self._powers[r] = r**self.n
        return out

    def scaled(self, r: float) -> np.ndarray:
        """a_n r^n on the circle of radius r."""
        return self.coeffs * self.powers(r)


def _horner_rows(series: PowerSeries, z, rows: tuple[int, ...]) -> tuple[complex, ...]:
    """``eval_rows`` at one point, restricted to the rows listed (ascending).

    One Horner pass carries f, f' and f''/2.  No accumulator reads a higher
    one, so each row has the same bits whatever rows are listed.
    """
    z = complex(z)
    if abs(z) > EVAL_RADIUS:
        raise OutOfDomain(f"series evaluation restricted to |z| <= {EVAL_RADIUS}")
    cs = series.coeffs.tolist()
    p, d1, d2 = cs[-1], 0j, 0j
    for c in cs[-2::-1]:
        d2 = d2 * z + d1
        d1 = d1 * z + p
        p = p * z + c
    full = (p, z * d1, 2.0 * z * z * d2)
    return tuple(full[i] for i in rows)


def _circle_rows(terms: _Terms, radii, angles: int, rows: tuple[int, ...]) -> np.ndarray:
    """``eval_rows`` on circles of the table's series, restricted to the rows listed (ascending).

    Only those rows are scaled and transformed; the result has one leading
    entry per listed row, and each row equals the matching row of the full
    call bit for bit.
    """
    radii = np.asarray(radii, dtype=float)
    if (np.abs(radii) > EVAL_RADIUS).any():
        raise OutOfDomain(f"series evaluation restricted to |z| <= {EVAL_RADIUS}")
    scaled = np.array([terms.scaled(r) for r in radii.ravel()]).reshape(radii.shape + (-1,))
    weights = terms.weights
    coeff_rows = np.stack([weights[i] * scaled if i else scaled for i in rows])
    size = scaled.shape[-1]
    if size > angles:
        width = -(-size // angles) * angles
        pad = [(0, 0)] * (coeff_rows.ndim - 1) + [(0, width - size)]
        coeff_rows = np.pad(coeff_rows, pad)
        coeff_rows = coeff_rows.reshape(coeff_rows.shape[:-1] + (-1, angles)).sum(axis=-2)
    return np.fft.ifft(coeff_rows, n=angles, norm="forward")


@functools.lru_cache(maxsize=8)
def _unit_roots(n: int) -> np.ndarray:
    """exp(i theta_k) on the n uniform grid angles, shared read-only."""
    roots = np.exp(1j * (np.arange(n) * (2.0 * math.pi / n)))
    roots.setflags(write=False)
    return roots


# Truncation bound of the Taylor probes: the moments kept leave a remainder
# below this times sum_n |T_n|, under the rounding of the moments themselves.
_TAYLOR_TAIL = 2.0**-55


@functools.lru_cache(maxsize=8)
def _taylor_weights(degree: int, angles: int) -> np.ndarray:
    """The (J, degree+1) table (n step)^m / m!, m < J, step = 2 pi / angles, shared read-only.

    J is the smallest count with (degree step)^J / J! e^{degree step} <=
    _TAYLOR_TAIL, which bounds the remainder of e^{x u} after J terms for
    0 <= x <= degree step and |u| <= 1: J = 10 at degree 64 and 17 at
    degree 400, on 4096 angles.
    """
    x = degree * (2.0 * math.pi / angles)
    count, tail = 0, math.exp(x)
    while tail > _TAYLOR_TAIL:
        count += 1
        tail *= x / count
    nstep = np.arange(degree + 1) * (2.0 * math.pi / angles)
    table = np.empty((count, degree + 1))
    table[0] = 1.0
    for m in range(1, count):
        table[m] = table[m - 1] * nstep / m
    table.setflags(write=False)
    return table


def _probe_rows(terms: _Terms, r: float, k: int, angles: int, rows: tuple[int, ...]):
    """The listed rows near the grid point r exp(i theta_k), theta_k = 2 pi k / angles.

    Returns a function of delta that gives the rows at r exp(i (theta_k +
    delta)) as a tuple of Python complex numbers, in the order of rows, for
    |delta| up to one grid step (the sweep's bracket).  Row j is sum_n T_n
    e^{i n delta} with T_n = w_j(n) a_n r^n e^{i n theta_k}, weights 1, n and
    n (n-1); the terms are tabulated once, from the table's a_n r^n and
    e^{i n theta_k} read from the grid's unit roots at (k n) mod angles.
    Each row is computed alone, so it has the same bits whatever other rows
    are listed.

    When degree * step <= 1 (every default grid up to MAX_ORDER), e^{i n
    delta} = sum_m ((n step)^m / m!) u^m with u = i delta / step, |u| <= 1,
    so each row is the polynomial sum_m mu_m u^m whose J moments mu_m =
    sum_n ((n step)^m / m!) T_n come from one product with the cached table
    of ``_taylor_weights``; a probe is one pure-Python Horner pass over them.
    Against the exact sum of the tabulated T_n its error is at most
    ((N + 4 J + 1) eps e^{degree step} + _TAYLOR_TAIL) sum_n |T_n| for N
    terms: the table entries are within 3 m u of exact (u = eps / 2), the
    moments add the rounding of an N-term sum, Horner with |u| <= 1 that of
    J complex steps, each summed over m with weights whose total is at most
    e^{degree step}; the remainder after J terms is below _TAYLOR_TAIL.

    On coarser grids that series converges too slowly, and each probe is
    one vector exponential e^{i n delta} and a dot product per row.
    """
    n = terms.n
    scaled = terms.scaled(r) * _unit_roots(angles)[k * n % angles]
    weights = terms.weights
    table = [weights[i] * scaled if i else scaled for i in rows]
    step = 2.0 * math.pi / angles
    if (n.size - 1) * step > 1.0:
        phase = 1j * n

        def phased(delta: float) -> tuple[complex, ...]:
            shift = np.exp(delta * phase)
            return tuple(complex(np.dot(row, shift)) for row in table)

        return phased

    taylor = _taylor_weights(n.size - 1, angles)
    # highest moment first, for Horner
    moments = [
        (taylor @ row.view(float).reshape(-1, 2)).view(complex)[::-1, 0].tolist()
        for row in table
    ]

    def at(delta: float) -> tuple[complex, ...]:
        u = complex(0.0, delta / step)
        out = []
        for top, *rest in moments:
            acc = top
            for mu in rest:
                acc = acc * u + mu
            out.append(acc)
        return tuple(out)

    return at


def _bessel_weights(params: BesselParams, order: int) -> np.ndarray:
    """b_n = (-c/4)^n / ((kappa)_n n!) for n = 0..order, as one array.

    The cumulative product of the ratios b_{n+1}/b_n = (-c/4)/((kappa+n)(n+1)).
    """
    n = np.arange(order)
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = (-params.c / 4.0) / ((params.kappa + n) * (n + 1.0))
        return np.cumprod(np.concatenate(([1.0 + 0.0j], ratios)))


def series_of_phi(params: BesselParams, order: int = DEFAULT_ORDER) -> PowerSeries:
    """Coefficients b_n = (-c/4)^n / ((kappa)_n n!) of the normalized function."""
    if order < 0 or order > MAX_ORDER:
        raise ValueError(f"order must lie in [0, {MAX_ORDER}], got {order}")
    return PowerSeries(_bessel_weights(params, order))


def series_of_vartheta(params: BesselParams, order: int = DEFAULT_ORDER) -> PowerSeries:
    """Series of z * phi(z), the normalized-class member attached to phi."""
    if order < 1:
        raise ValueError("vartheta needs order >= 1")
    return series_of_phi(params, order - 1).shift_up()


def hadamard(f: PowerSeries, g: PowerSeries) -> PowerSeries:
    """Coefficient-wise (Hadamard) product; the result keeps the shorter degree."""
    return PowerSeries(_times(f.coeffs[: g.coeffs.size], g.coeffs[: f.coeffs.size]))


def b_operator(params: BesselParams, f: PowerSeries) -> PowerSeries:
    """Bessel convolution operator: z + sum_n (-c/4)^n a_{n+1} / ((kappa)_n n!) z^{n+1}.

    Equals the Hadamard product of f with the vartheta series; satisfies the
    order recurrence z (B[kappa+1] f)' = kappa B[kappa] f - (kappa-1) B[kappa+1] f.
    """
    if not f.is_normalized:
        raise NotNormalized("b_operator needs a_0 = 0 and a_1 = 1")
    weights = _bessel_weights(params, f.order - 1)
    return PowerSeries(np.concatenate(([0.0j], _times(f.coeffs[1:], weights))))


def libera(f: PowerSeries) -> PowerSeries:
    """Libera averaging operator L[f](z) = (2/z) * integral of f from 0 to z.

    Coefficient map a_n -> 2 a_n / (n+1); requires a_0 = 0.
    """
    if abs(f.coefficient(0)) > COEFF_TOL:
        raise NonvanishingAtZero("libera requires f(0) = 0")
    n = _indices(f.coeffs.size)[0][1:]
    return PowerSeries(np.concatenate(([0.0j], _over(_times(2.0, f.coeffs[1:]), n + 1))))


def libera_kernel(order: int = DEFAULT_ORDER) -> PowerSeries:
    """Series of -2 (z + log(1-z)) / z, the convolution kernel of libera.

    Built symbolically from log(1-z) = -sum z^n / n; coefficient of z^n is
    2/(n+1), so hadamard(f, kernel) reproduces libera(f).
    """
    return PowerSeries(np.concatenate(([0.0], 2.0 / np.arange(2.0, order + 2))))


def alexander(f: PowerSeries, direction: str) -> PowerSeries:
    """Starlike/convex transform pair: 'to_starlike' sends f to z f',
    'to_convex' inverts it (a_n -> a_n / n).  Exact inverses of each other."""
    if direction not in ("to_starlike", "to_convex"):
        raise ValueError(f"direction must be 'to_starlike' or 'to_convex', got {direction!r}")
    if not f.is_normalized:
        raise NotNormalized("alexander transform expects a_0 = 0 and a_1 = 1")
    n, tail = _indices(f.coeffs.size)[0][1:], f.coeffs[1:]
    tail = _times(n, tail) if direction == "to_starlike" else _over(tail, n)
    return PowerSeries(np.concatenate(([0.0j], tail)))
