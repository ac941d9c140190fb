"""Truncated power series about 0 and the convolution-type operators on them.

A series holds its coefficients once, as a read-only complex array that every
layer reads as it is.  The operators act coefficient-wise (Hadamard product,
the Bessel convolution operator, the Libera averaging operator, the
starlike/convex transform pair), so degree-64 truncations are exact up to the
stored degree.  A Bessel-type builder writes its one array: the weights b_n,
one cumulative product of their ratios, go straight to their entries
(``_bessel_weights``), and the series is checked once.  numpy's complex
multiply may round differently from Python's, even for swapped operands, so
products and quotients of coefficients go through ``_times`` and ``_over``:
separate real operations, as CPython's _Py_c_prod and _Py_c_quot form them,
which keep the bits (signed zeros included) of a Python complex loop.

``eval_rows`` is the evaluation kernel of the disk sweeps.  Its rows are the
Euler powers theta^p f of the Euler operator theta = z d/dz: f, z f' and
z f' + z^2 f'', row p with coefficients n^p a_n.  It returns them together,
on all the circles of a grid by one batched inverse FFT or at a general point
by a pure-Python Horner pass.  On |z| = 1 the angle derivative of row p is
i times row p + 1, so the sum n |n^p a_n| that bounds that derivative is the
coefficient total of the next row.  The sweeps call the kernels with the
highest row they read, top, and get rows 0..top: ``_circle_rows``
transforms only those rows, from one table of the series' arrays per sweep
(``_Terms``, which also carries the moduli the sweep's bounds read), and
``_horner_rows`` runs only the accumulators row top needs at a point.
Circles use the FFT; every point, the sweep's refinement probes and
``PowerSeries.eval`` included, uses Horner.
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

# Highest index n of a Bessel weight b_n the builders compute, checked by
# ``_bessel_weights``: phi reaches degree MAX_ORDER, and vartheta and a
# ``b_operator`` image degree MAX_ORDER + 1.
MAX_ORDER = 500

# The tolerance of the coefficient tests a_0 = 0 and a_1 = 1 (``is_normalized``,
# and ``libera``'s a_0); series equality compares coefficients exactly.
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

        A scalar is ``_horner_rows(self, z, 0)[0]``; an array is evaluated
        entry by entry with it, so each entry has the bits of the scalar value
        at its point.
        """
        zs = np.asarray(z, dtype=complex)
        if zs.shape == ():
            return _horner_rows(self, zs, 0)[0]
        values = [_horner_rows(self, point, 0)[0] for point in zs.ravel().tolist()]
        return np.array(values, dtype=complex).reshape(zs.shape)

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


def eval_rows(series: PowerSeries, z, angles: int | None = None):
    """The rows f, z f' and z f' + z^2 f'' (theta^p f, p = 0, 1, 2), for |z| <= 1.05.

    With ``angles=N``, z is a radius r (or an array of R radii) and the
    result a (3, N) (or (3, R, N)) array of the rows at z_k = r exp(2 pi i k
    / N): sum_n a_n z_k^n is the unnormalized inverse DFT of a_n r^n, so one
    batched inverse FFT of a_n r^n, n a_n r^n and n^2 a_n r^n gives all
    rows, exactly once coefficients of degree n >= N are summed onto n mod N
    (Trefethen, Approximation Theory and Approximation Practice, SIAM 2013).
    Without ``angles``, z is one point and the result is three Python complex
    numbers from one Horner pass that carries f, f' and f''/2 together.
    """
    if angles is None:
        return _horner_rows(series, z, 2)
    return _circle_rows(_Terms(series), z, angles, 2)


@functools.lru_cache(maxsize=8)
def _indices(size: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The indices n = 0..size-1 and the row weights n^0 to n^4 as floats, shared read-only."""
    # n^3 weighs Ke's row 3, n^4 only its sum n^2 |c_n| of row 2; in int64, n^4 wraps past 55108
    n = np.arange(size, dtype=float)
    weights = (np.ones(size), n, n * n, n * n * n, n * n * n * n)
    for array in weights:
        array.setflags(write=False)
    return n, weights


class _Terms:
    """The arrays every evaluation and bound of one series reads, built once.

    coeffs is the series' own array of a_n, n the indices and weights the
    row weights n^p, p = 0..4 (``_indices``, shared read-only by every
    series of the same degree), sizes the moduli |a_n|, and ``moduli(p)``
    those of row p, n^p |a_n|, kept per row.  A sweep builds one table for
    its series and hands it to its bounds, ``_circle_rows`` and the winding
    certificate, so none of them rebuilds these arrays.
    """

    def __init__(self, series: PowerSeries):
        self.coeffs = series.coeffs
        self.n, self.weights = _indices(self.coeffs.size)
        self.sizes = np.abs(self.coeffs)
        # the row f has weight 1, so its moduli are the sizes themselves
        self._moduli: dict[int, np.ndarray] = {0: self.sizes}

    def moduli(self, row: int) -> np.ndarray:
        """|c_n| = n^row |a_n|, the moduli of the coefficients of row theta^row f."""
        out = self._moduli.get(row)
        if out is None:
            out = self._moduli[row] = self.sizes * self.weights[row]
        return out


def _horner_rows(series: PowerSeries, z, top: int) -> tuple[complex, ...]:
    """``eval_rows`` at one point, rows 0..top (theta^p f for p <= top).

    One Horner pass carries f, or f and f', or f, f' and f''/2: only the
    accumulators row top needs.  No accumulator reads a higher one, so row
    p has the same bits whatever the top.
    """
    z = complex(z)
    if abs(z) > EVAL_RADIUS:
        raise OutOfDomain(f"series evaluation restricted to |z| <= {EVAL_RADIUS}")
    cs = series.coeffs.tolist()
    p, d1, d2 = cs[-1], 0j, 0j
    if top == 0:
        for c in cs[-2::-1]:
            p = p * z + c
        return (p,)
    if top == 1:
        for c in cs[-2::-1]:
            d1, p = d1 * z + p, p * z + c
        return p, z * d1
    for c in cs[-2::-1]:
        d2, d1, p = d2 * z + d1, d1 * z + p, p * z + c
    zf1 = z * d1
    return p, zf1, zf1 + 2.0 * z * z * d2


def _circle_rows(terms: _Terms, radii, angles: int, top: int) -> np.ndarray:
    """``eval_rows`` on circles of the table's series, rows 0..top (theta^p f for p <= top).

    Only those rows are scaled and transformed; the result has top + 1
    leading entries, and row p equals row p of the full call bit for bit.
    """
    radii = np.asarray(radii, dtype=float)
    if (np.abs(radii) > EVAL_RADIUS).any():
        raise OutOfDomain(f"series evaluation restricted to |z| <= {EVAL_RADIUS}")
    # r^n is 1 on the unit circle, so it is not computed there
    scaled = np.array(
        [terms.coeffs * (terms.weights[0] if r == 1.0 else r**terms.n) for r in radii.ravel()]
    )
    scaled = scaled.reshape(radii.shape + (-1,))
    coeff_rows = np.stack([scaled] + [terms.weights[p] * scaled for p in range(1, top + 1)])
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


@functools.lru_cache(maxsize=8)
def _ratio_indices(order: int) -> np.ndarray:
    """The rows n and n + 1 for n < order, complex as numpy casts them, shared read-only."""
    pair = np.arange(order) + np.array([[0.0], [1.0]], dtype=complex)
    pair.setflags(write=False)
    return pair


def _bessel_weights(params: BesselParams, order: int, start=0, step=1, factor=None) -> np.ndarray:
    """b_n = (-c/4)^n / ((kappa)_n n!), n = 0..order, at entries start + step n of a zero array.

    The cumulative product of the ratios b_{n+1}/b_n = (-c/4)/((kappa+n)(n+1)),
    written into the builder's one array, then times factor (``_times``) if
    given.  order must lie in [0, MAX_ORDER].  An overflow is left inf or
    nan, for the series' own check.
    """
    if order < 0 or order > MAX_ORDER:
        raise ValueError(f"the Bessel weight index must lie in [0, {MAX_ORDER}], got {order}")
    out = np.zeros(start + step * order + 1, dtype=complex)
    weights = out[start::step]
    weights[0] = 1.0
    n, n1 = _ratio_indices(order)
    with np.errstate(over="ignore", invalid="ignore"):
        np.divide(-params.c / 4.0, (params.kappa + n) * n1, out=weights[1:])
        np.multiply.accumulate(weights, out=weights)
        if factor is not None:
            weights[:] = _times(factor, weights)
    return out


def series_of_phi(params: BesselParams, order: int = DEFAULT_ORDER) -> PowerSeries:
    """Coefficients b_n = (-c/4)^n / ((kappa)_n n!) of the normalized function."""
    return PowerSeries(_bessel_weights(params, order))


def series_of_vartheta(params: BesselParams, order: int = DEFAULT_ORDER) -> PowerSeries:
    """Series of z * phi(z), the normalized-class member attached to phi."""
    if order < 1:
        raise ValueError("vartheta needs order >= 1")
    return PowerSeries(_bessel_weights(params, order - 1, start=1))


def normalized_phi_deficit(params: BesselParams, order: int) -> PowerSeries:
    """Series of -4*kappa*(phi - 1)/c, the normalized convexity candidate."""
    if params.c == 0:
        raise ValueError("the normalized deficit needs c != 0")
    coeffs = _bessel_weights(params, order, factor=-4.0 * params.kappa / params.c)
    coeffs[0] = 0.0
    return PowerSeries(coeffs)


def _odd_lift(params: BesselParams, order: int) -> PowerSeries:
    """h(z) = z phi(z^2), the normalized form of z^(1-nu) omega up to a constant."""
    return PowerSeries(_bessel_weights(params, order, start=1, step=2))


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
    return PowerSeries(_bessel_weights(params, f.order - 1, start=1, factor=f.coeffs[1:]))


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
