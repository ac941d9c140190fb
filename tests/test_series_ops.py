import cmath
import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.polynomial.polynomial import polyval

from besselstar import (
    BesselParams,
    NonvanishingAtZero,
    NotNormalized,
    OutOfDomain,
    PowerSeries,
    alexander,
    b_operator,
    eval_rows,
    hadamard,
    libera,
    libera_kernel,
    normalized_phi_deficit,
    phi_eval,
    series_ops,
    series_of_phi,
    series_of_vartheta,
    theorems,
)

import oracles


def random_normalized(rng, degree=40):
    coeffs = [0.0, 1.0] + [
        complex(a, b) for a, b in rng.normal(0, 1, (degree - 1, 2))
    ]
    return PowerSeries(tuple(coeffs))


def identity_series(order=64):
    return PowerSeries((0.0, 1.0) + (0.0,) * (order - 1))


def halfplane_series(order=64):
    # z / (1 - z) truncated: all coefficients 1 from degree 1 on
    return PowerSeries((0.0,) + (1.0,) * order)


class TestPowerSeries:
    def test_coefficient_padding(self):
        s = PowerSeries((1.0, 2.0))
        assert s.coefficient(5) == 0

    def test_normalized_flag(self):
        assert identity_series().is_normalized
        assert not PowerSeries((1.0, 1.0)).is_normalized
        assert not PowerSeries((0.0, 2.0)).is_normalized

    def test_differentiate(self):
        s = PowerSeries((5.0, 3.0, 2.0))  # 5 + 3z + 2z^2
        assert tuple(s.differentiate().coeffs.tolist()) == (3.0, 4.0)

    def test_eval_at_zero_gives_constant(self):
        s = PowerSeries((2.5 + 1j, 7.0))
        assert s.eval(0) == 2.5 + 1j

    def test_eval_guard(self):
        with pytest.raises(OutOfDomain):
            PowerSeries((1.0, 1.0)).eval(1.2)

    def test_eval_vectorized_matches_scalar(self):
        s = series_of_phi(BesselParams(1, 0, 2))
        zs = oracles.disk_points(np.random.default_rng(3), 16)
        vec = s.eval(zs)
        for z, v in zip(zs, vec):
            assert abs(s.eval(complex(z)) - v) < 1e-15

    def test_json_pairs_roundtrip(self):
        s = PowerSeries((0.0, 1.0, 0.5 - 0.25j))
        pairs = s.to_coefficient_pairs()
        assert pairs == [[0.0, 0.0], [1.0, 0.0], [0.5, -0.25]]
        assert all(type(x) is float for pair in pairs for x in pair)
        again = PowerSeries.from_coefficient_pairs(pairs)
        assert tuple(again.coeffs.tolist()) == tuple(s.coeffs.tolist())

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            PowerSeries((1.0, float("nan")))


class TestSeriesOfPhi:
    def test_constant_coefficient(self):
        s = series_of_phi(BesselParams(1, 0, 2))
        assert s.coefficient(0) == 1

    def test_linear_coefficient(self):
        # kappa = 3/2, c = 2: b_1 = -(c/4)/kappa = -1/3
        s = series_of_phi(BesselParams(1, 0, 2))
        assert abs(s.coefficient(1) - (-1.0 / 3.0)) < 1e-15

    def test_matches_phi_eval(self):
        p = BesselParams(2, 0, 6)
        s = series_of_phi(p)
        rng = np.random.default_rng(5)
        for z in oracles.disk_points(rng, 20):
            res = phi_eval(p, complex(z), tol=1e-14)
            assert abs(s.eval(complex(z)) - res.value) <= res.tail_bound + 1e-13

    def test_vartheta_is_normalized(self):
        assert series_of_vartheta(BesselParams(1, 0, 2)).is_normalized
        assert series_of_vartheta(BesselParams(-2.5, 1, -1)).is_normalized


class TestHadamard:
    def test_identity_element(self):
        f = random_normalized(np.random.default_rng(9))
        ones = halfplane_series(f.order)
        assert hadamard(f, ones).max_deviation(f) == 0

    def test_vartheta_fixed_point(self):
        v = series_of_vartheta(BesselParams(1.5, 1, 1))
        assert hadamard(v, halfplane_series(v.order)).max_deviation(v) == 0

    def test_commutative(self):
        rng = np.random.default_rng(13)
        f, g = random_normalized(rng), random_normalized(rng)
        assert hadamard(f, g).max_deviation(hadamard(g, f)) == 0

    def test_truncates_to_shorter(self):
        f = PowerSeries((1.0, 2.0, 3.0))
        g = PowerSeries((1.0, 1.0))
        assert hadamard(f, g).order == 1


class TestBOperator:
    def test_fixes_identity(self):
        p = BesselParams(1.5, 1, 1)
        assert b_operator(p, identity_series()).max_deviation(identity_series()) == 0

    def test_halfplane_gives_vartheta(self):
        p = BesselParams(1.5, 1, 1)
        got = b_operator(p, halfplane_series())
        want = series_of_vartheta(p, 64)
        assert got.max_deviation(want) < 1e-15

    def test_equals_hadamard_with_vartheta(self):
        rng = np.random.default_rng(17)
        p = BesselParams(0.8, 1, 3)
        f = random_normalized(rng)
        via_hadamard = hadamard(series_of_vartheta(p, f.order), f)
        assert b_operator(p, f).max_deviation(via_hadamard) < 1e-15

    def test_requires_normalized(self):
        with pytest.raises(NotNormalized):
            b_operator(BesselParams(1, 0, 2), PowerSeries((0.0, 2.0)))

    def test_order_recurrence_coefficientwise(self):
        # z (B[kappa+1] f)' = kappa B[kappa] f - (kappa - 1) B[kappa+1] f
        rng = np.random.default_rng(19)
        for _ in range(30):
            nu = complex(rng.uniform(-3, 5), rng.uniform(-2, 2))
            b = rng.uniform(-1, 2)
            c = complex(rng.uniform(-8, 8), rng.uniform(-4, 4))
            kappa = nu + (b + 1) / 2
            n0 = min(0, round(kappa.real))
            if min(abs(kappa - n0), abs(kappa + 1 - min(0, round(kappa.real + 1)))) < 0.1:
                continue
            p = BesselParams(nu, b, c)
            f = random_normalized(rng)
            low = b_operator(p, f)
            high = b_operator(p.shift(1), f)
            lhs = high.differentiate().shift_up()
            rhs = low.scale(kappa) - high.scale(kappa - 1)
            assert lhs.max_deviation(rhs) < 1e-12


class TestLibera:
    def test_fixes_identity(self):
        assert libera(identity_series()).max_deviation(identity_series()) == 0

    def test_monomial_map(self):
        out = libera(PowerSeries((0.0, 0.0, 1.0)))  # z^2 -> (2/3) z^2
        assert abs(out.coefficient(2) - 2.0 / 3.0) < 1e-15

    def test_rejects_constant_term(self):
        with pytest.raises(NonvanishingAtZero):
            libera(PowerSeries((1.0, 1.0)))

    def test_equals_kernel_convolution(self):
        rng = np.random.default_rng(23)
        f = random_normalized(rng)
        via_kernel = hadamard(f, libera_kernel(f.order))
        assert libera(f).max_deviation(via_kernel) < 1e-12

    def test_closed_form_image(self):
        # the Libera image of -6 (normalized J_{1/2} - 1) is (12/z)(z + 2 cos sqrt z - 2)
        import mpmath as mp

        p = BesselParams(0.5, 1, 1)
        phi = series_of_phi(p, 64)
        f = PowerSeries((0.0,) + tuple(-6.0 * phi.coefficient(n) for n in range(1, 65)))
        image = libera(f)
        rng = np.random.default_rng(29)
        for z in oracles.disk_points(rng, 10, rmin=0.05, rmax=0.95):
            z = complex(z)
            w = mp.sqrt(z)
            want = complex(12 / mp.mpmathify(z) * (z + 2 * mp.cos(w) - 2))
            assert abs(image.eval(z) - want) < 1e-10


class TestAlexander:
    def test_fixes_identity(self):
        for direction in ("to_starlike", "to_convex"):
            out = alexander(identity_series(), direction)
            assert out.max_deviation(identity_series()) == 0

    def test_roundtrip(self):
        # exact inverse maps; in doubles the n*a/n trip can cost one ulp
        rng = np.random.default_rng(31)
        f = random_normalized(rng)
        back = alexander(alexander(f, "to_starlike"), "to_convex")
        assert back.max_deviation(f) < 1e-15

    def test_roundtrip_exact_on_dyadic(self):
        # power-of-two degrees make the float trip exact end to end
        f = PowerSeries((0.0, 1.0, 0.75, 0.0, 0.015625))
        back = alexander(alexander(f, "to_starlike"), "to_convex")
        assert back.max_deviation(f) == 0

    def test_derivative_recurrence_image(self):
        # -4 (kappa-1) (phi at previous order - 1)/c maps to z*phi under z f'
        p = BesselParams(1.5, 1, 1)  # kappa = 5/2
        prev = p.shift(-1)
        kappa = p.kappa
        phi_prev = series_of_phi(prev, 64)
        f = PowerSeries(
            (0.0,)
            + tuple(
                -4 * (kappa - 1) / p.c * phi_prev.coefficient(n) for n in range(1, 65)
            )
        )
        got = alexander(f, "to_starlike")
        want = series_of_vartheta(p, 64)
        assert got.max_deviation(want) < 1e-12

    def test_requires_normalized(self):
        with pytest.raises(NotNormalized):
            alexander(PowerSeries((0.5, 1.0)), "to_starlike")

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            alexander(identity_series(), "sideways")


class TestEvalSeries:
    def test_constant_term(self):
        assert PowerSeries((3.0 - 2j, 1.0)).eval(0) == 3.0 - 2j

    def test_linearity(self):
        rng = np.random.default_rng(37)
        f, g = random_normalized(rng), random_normalized(rng)
        z = 0.4 + 0.3j
        assert abs((f + g).eval(z) - (f.eval(z) + g.eval(z))) < 1e-12

    def test_guard_radius(self):
        with pytest.raises(OutOfDomain):
            PowerSeries((0.0, 1.0)).eval(1.1)

    def test_inside_guard_ok(self):
        assert PowerSeries((0.0, 1.0)).eval(1.04) == pytest.approx(1.04)


def random_complex_series(rng, degree, decay=1.0):
    """Complex Gaussian coefficients scaled by decay**n."""
    c = rng.normal(0, 1, (degree + 1, 2)) @ np.array([1.0, 1j])
    return PowerSeries(tuple(c * decay ** np.arange(degree + 1)))


def polyval_rows(series, zs):
    """Reference rows theta^p f (f, z f', z f' + z^2 f'') by numpy Horner on n^p a_n."""
    a = np.array(series.coeffs)
    n = np.arange(a.size)
    return np.array([polyval(zs, n**p * a) for p in range(3)])


class TestEvalRows:
    # (degree, angles): degree below N, and degree >= N where the
    # coefficients of degree n alias onto n mod N.
    CASES = [(64, 4096), (10, 64), (63, 64), (64, 64), (64, 8), (400, 8), (400, 4096)]

    @pytest.mark.parametrize("degree,angles", CASES)
    @pytest.mark.parametrize("r", [0.5, 0.999])
    def test_circle_matches_polyval(self, degree, angles, r):
        rng = np.random.default_rng(degree * 7 + angles)
        f = random_complex_series(rng, degree)
        zs = r * np.exp(2j * math.pi * np.arange(angles) / angles)
        got = eval_rows(f, r, angles)
        assert got.shape == (3, angles)
        want = polyval_rows(f, zs)
        err = np.max(np.abs(got - want), axis=1)
        assert (err <= 1e-13 * oracles.rows_scale(f, r)).all(), err / oracles.rows_scale(f, r)

    @pytest.mark.parametrize("degree,angles", CASES)
    def test_point_equals_circle(self, degree, angles):
        rng = np.random.default_rng(degree + 3 * angles)
        f = random_complex_series(rng, degree)
        r = 0.999
        circle = eval_rows(f, r, angles)
        scale = oracles.rows_scale(f, r)
        for k in range(0, angles, max(1, angles // 16)):
            z = r * np.exp(2j * math.pi * k / angles)
            point = eval_rows(f, complex(z))
            assert all(isinstance(v, complex) for v in point)
            assert (np.abs(np.array(point) - circle[:, k]) <= 1e-13 * scale).all()

    def test_point_matches_derivatives(self):
        rng = np.random.default_rng(53)
        f = random_complex_series(rng, 40, decay=0.9)
        d1 = f.differentiate()
        d2 = d1.differentiate()
        for z in oracles.disk_points(rng, 20, rmax=1.0):
            z = complex(z)
            rows = eval_rows(f, z)
            want = (f.eval(z), z * d1.eval(z), z * d1.eval(z) + z * z * d2.eval(z))
            for got, ref in zip(rows, want):
                assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))

    @pytest.mark.parametrize("p", [0, 1])
    def test_angle_derivative_is_next_row(self, p):
        # Row p is theta^p f, theta = z d/dz, and on z = exp(i t) the angle
        # derivative d/dt is i theta: d(row p)/dt = i row p + 1, at a point
        # (Horner) and at the FFT samples.  The reference is the five-point
        # central difference of Horner's row p with step h, whose error is
        # at most h^4/30 max |d^5 row p / dt^5| <= h^4/30 S(p + 5), plus the
        # rounding of its four Horner values (weights 1, 8, 8, 1 over 12 h),
        # each within 2 N eps S(p) for N coefficients, S(k) = sum_n n^k |a_n|.
        rng = np.random.default_rng(59 + p)
        f = random_complex_series(rng, 12, decay=0.5)
        a = np.abs(f.coeffs)
        n = np.arange(a.size)
        S = lambda k: float(np.sum(n**k * a))  # noqa: E731
        h = 1e-3
        tol = h**4 / 30.0 * S(p + 5) + 3.0 * a.size * np.finfo(float).eps * S(p) / h
        angles = 16
        circle = eval_rows(f, 1.0, angles)
        for k in range(angles):
            t = 2.0 * math.pi * k / angles
            row = lambda s: series_ops._horner_rows(f, cmath.exp(1j * s), p)[p]  # noqa: E731
            diff = (row(t - 2 * h) - 8 * row(t - h) + 8 * row(t + h) - row(t + 2 * h)) / (12 * h)
            point = eval_rows(f, cmath.exp(1j * t))
            assert abs(diff - 1j * point[p + 1]) <= tol, (k, diff, point[p + 1], tol)
            assert abs(diff - 1j * circle[p + 1, k]) <= tol, (k, diff, circle[p + 1, k], tol)

    @staticmethod
    def one_circle_rows(series, r, angles):
        """Reference: the rows on one circle, one transform per radius."""
        n = np.arange(series.order + 1)
        scaled = np.array(series.coeffs, dtype=complex) * r**n
        rows = np.stack((scaled, n * scaled, (n * n) * scaled))
        if n.size > angles:
            width = -(-n.size // angles) * angles
            rows = np.pad(rows, ((0, 0), (0, width - n.size)))
            rows = rows.reshape(3, -1, angles).sum(axis=1)
        return np.fft.ifft(rows, n=angles, norm="forward")

    @pytest.mark.parametrize("degree,angles", [(10, 64), (64, 4096), (64, 8), (400, 8)])
    def test_radii_array_equals_per_radius(self, degree, angles):
        # one batched transform over all radii, bit for bit the per-radius rows
        rng = np.random.default_rng(degree + 5 * angles)
        f = random_complex_series(rng, degree)
        radii = (0.5, 0.999)
        batched = eval_rows(f, np.array(radii), angles)
        assert batched.shape == (3, len(radii), angles)
        for i, r in enumerate(radii):
            want = self.one_circle_rows(f, r, angles).tobytes()
            assert batched[:, i].tobytes() == want
            assert eval_rows(f, r, angles).tobytes() == want

    def test_constant_series(self):
        f = PowerSeries((2.5 - 1j,))
        assert eval_rows(f, 0.3 + 0.4j) == (2.5 - 1j, 0j, 0j)
        rows = eval_rows(f, 0.9, 8)
        assert np.array_equal(rows[0], np.full(8, 2.5 - 1j))
        assert not rows[1:].any()

    def test_out_of_domain_on_both_paths(self):
        f = identity_series()
        with pytest.raises(OutOfDomain):
            eval_rows(f, 1.06, 16)
        with pytest.raises(OutOfDomain):
            eval_rows(f, 0.75 + 0.75j)
        eval_rows(f, 1.05, 16)
        eval_rows(f, 1.05j)


def _bits(coeffs) -> bytes:
    return np.array(coeffs, dtype=complex).tobytes()


def _loop_operators(params, f):
    """Reference: the operators as per-index loops over ``coefficient(n)``."""
    kappa, q = params.kappa, -params.c / 4.0
    b_op, weight = [0.0 + 0.0j], 1.0 + 0.0j
    for n in range(f.order):
        b_op.append(weight * f.coefficient(n + 1))
        weight = weight * q / ((kappa + n) * (n + 1))
    lib = [0.0 + 0.0j] + [2.0 * f.coefficient(n) / (n + 1) for n in range(1, f.order + 1)]
    star = [0.0 + 0.0j] + [n * f.coefficient(n) for n in range(1, f.order + 1)]
    conv = [0.0 + 0.0j] + [f.coefficient(n) / n for n in range(1, f.order + 1)]
    return b_op, lib, star, conv


class TestLoopFreeConstruction:
    def test_operators_bit_identical_to_loops(self):
        rng = np.random.default_rng(401)
        tail = tuple(random_complex_series(rng, 400, decay=0.99).coeffs[2:].tolist())
        f = PowerSeries((0.0, 1.0) + tail)
        params = BesselParams(2.3 + 0.7j, 0.4, 1.9 - 1.1j)
        b_op, lib, star, conv = _loop_operators(params, f)
        # b_operator weighs by the cumulative product of the ratios, which
        # rounds differently from the loop, and is the Hadamard product with
        # vartheta bit for bit
        got = np.array(b_operator(params, f).coeffs)
        assert np.all(np.abs(got - b_op) <= 1e-13 * np.abs(np.array(b_op)))
        vartheta = series_of_vartheta(params, f.order)
        assert _bits(got) == _bits(hadamard(f, vartheta).coeffs)
        assert _bits(libera(f).coeffs) == _bits(lib)
        assert _bits(alexander(f, "to_starlike").coeffs) == _bits(star)
        assert _bits(alexander(f, "to_convex").coeffs) == _bits(conv)
        g = random_complex_series(rng, 300)
        want = _bits([f.coefficient(k) * g.coefficient(k) for k in range(301)])
        assert _bits(hadamard(f, g).coeffs) == want == _bits(hadamard(g, f).coeffs)
        phi = series_of_phi(params, 400)
        scale = -4.0 * params.kappa / params.c
        want = [0j] + [scale * phi.coefficient(n) for n in range(1, 401)]
        assert _bits(normalized_phi_deficit(params, 400).coeffs) == _bits(want)

    def test_constructor_bit_identical_to_loop(self):
        rng = np.random.default_rng(402)
        raw = list(rng.normal(size=(401, 2)) @ [1.0, 1j])
        mixed = raw[:100] + [float(x.real) for x in raw[100:200]] + [1, 2] + raw[202:]
        got = PowerSeries(tuple(mixed)).coeffs
        want = tuple(complex(c) for c in mixed)
        assert got.dtype == complex and got.shape == (401,) and not got.flags.writeable
        assert _bits(got) == _bits(want)

    @pytest.mark.parametrize(
        "bad", [math.inf, -math.inf, math.nan, complex(0, math.inf), complex(math.nan, 0)]
    )
    def test_nonfinite_still_raises(self, bad):
        with pytest.raises(ValueError):
            PowerSeries((0.0, 1.0) + (0.5j,) * 398 + (bad,))


# Parts with both signed zeros, small integers and general doubles, so the
# products' signed zeros and their rounding are both exercised.
_parts = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -2.0]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)
_complexes = st.builds(complex, _parts, _parts)
_coefficient_lists = st.lists(_complexes, min_size=2, max_size=12)
# Points of |z| <= 0.74 sqrt(2) < EVAL_RADIUS, with both signed zeros.
_point_parts = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.74, 0.74))
_points = st.builds(complex, _point_parts, _point_parts)


def _hex(w: complex) -> tuple[str, str]:
    return w.real.hex(), w.imag.hex()


def _normalized(cs: list) -> list:
    """cs with a_0 a signed zero and a_1 = 1, as the normalized operators need."""
    return [complex(0.0, math.copysign(0.0, cs[0].imag)), 1.0 + 0.0j] + cs[2:]


class TestArrayRepresentation:
    """Coefficients are one read-only complex array with the bits of Python complex loops."""

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(cs=_coefficient_lists, ds=_coefficient_lists, factor=_complexes)
    def test_operators_match_python_complex_loops(self, cs, ds, factor):
        f, g = PowerSeries(cs), PowerSeries(ds)
        pad = max(len(cs), len(ds))
        fp, gp, neg = (x + [0.0 + 0.0j] * (pad - len(x)) for x in (cs, ds, [-1.0 * d for d in ds]))
        assert _bits(f.differentiate().coeffs) == _bits(
            [(n + 1) * c for n, c in enumerate(cs[1:])]
        )
        assert _bits(f.shift_up().coeffs) == _bits([complex(0.0)] + cs)
        assert _bits(f.scale(factor).coeffs) == _bits([factor * c for c in cs])
        assert _bits((f + g).coeffs) == _bits([a + b for a, b in zip(fp, gp)])
        # f - g was f + g.scale(-1.0), padded after the scaling
        assert _bits((f - g).coeffs) == _bits([a + b for a, b in zip(fp, neg)])
        assert f.max_deviation(g) == max(abs(a - b) for a, b in zip(fp, gp))
        # Hadamard products are the loop's and commute bit for bit
        want = _bits([a * b for a, b in zip(cs, ds)])
        assert _bits(hadamard(f, g).coeffs) == want == _bits(hadamard(g, f).coeffs)
        h = _normalized(cs)
        f = PowerSeries(h)
        tail = list(enumerate(h[1:], 1))
        assert _bits(libera(f).coeffs) == _bits([0j] + [2.0 * a / (n + 1) for n, a in tail])
        star = alexander(f, "to_starlike").coeffs
        assert _bits(star) == _bits([0j] + [n * a for n, a in tail])
        convex = alexander(f, "to_convex").coeffs
        assert _bits(convex) == _bits([0j] + [a / n for n, a in tail])
        params = BesselParams(complex(factor.real % 3.0, factor.imag % 1.0), 1.0, ds[0] + 0.5)
        weights = series_ops._bessel_weights(params, f.order - 1).tolist()
        want = [0j] + [a * w for a, w in zip(h[1:], weights)]
        assert _bits(b_operator(params, f).coeffs) == _bits(want)

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(kappa=_complexes, c=_complexes, order=st.integers(1, 40))
    def test_theorem_builders_match_python_complex_loops(self, kappa, c, order):
        # kappa kept off the poles 0, -1, -2, ... of the weights
        assume(c != 0)
        params = BesselParams(complex(kappa.real % 4.0 + 0.5, kappa.imag), 1.0, c)
        phi = series_of_phi(params, order).coeffs.tolist()
        scale = -4.0 * params.kappa / params.c
        want = [0j] + [scale * a for a in phi[1:]]
        assert _bits(normalized_phi_deficit(params, order).coeffs) == _bits(want)
        lift = [0.0 + 0.0j] * (2 * order + 2)
        lift[1::2] = phi
        assert _bits(theorems._odd_lift(params, order).coeffs) == _bits(lift)

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(cs=_coefficient_lists, zs=st.lists(_points, min_size=1, max_size=6))
    def test_eval_has_one_value_per_point(self, cs, zs):
        # an array entry, the scalar value and the sweeps' point kernel at the
        # same point carry the same bits, signed zeros included
        f = PowerSeries(cs)
        values = f.eval(np.array(zs, dtype=complex)).tolist()
        for z, value in zip(zs, values):
            want = _hex(series_ops._horner_rows(f, z, 0)[0])
            assert _hex(f.eval(z)) == _hex(value) == want

    def test_eval_of_phi_has_one_value_per_point(self):
        # degree-64 phi series, where numpy's own multiply moved the last bit
        # at about 3 points in 10
        rng = np.random.default_rng(16)
        for _ in range(30):
            nu, c = (complex(*rng.uniform(lo, hi, 2)) for lo, hi in ((0, 3), (-3, 3)))
            f = series_of_phi(BesselParams(nu, 1, c), 64)
            zs = rng.uniform(-0.6, 0.6, 10) + 1j * rng.uniform(-0.6, 0.6, 10)
            for z, value in zip(zs.tolist(), f.eval(zs).tolist()):
                want = _hex(series_ops._horner_rows(f, z, 0)[0])
                assert _hex(value) == _hex(f.eval(z)) == want

    def test_coefficients_are_read_only(self):
        s = PowerSeries((0.0, 1.0, 0.5j))
        with pytest.raises(ValueError):
            s.coeffs[1] = 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.coeffs = np.zeros(3, dtype=complex)
        assert s.coeffs.dtype == complex and s.coeffs.ndim == 1
        # copies and pickles are rebuilt read-only too
        for again in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert again == s and not again.coeffs.flags.writeable

    def test_callers_array_is_copied(self):
        a = np.array([0.0, 1.0, 0.5j])
        s = PowerSeries(a)
        assert not np.shares_memory(a, s.coeffs) and a.flags.writeable
        a[1] = 7.0
        assert s.coefficient(1) == 1.0
        # a read-only array, such as another series' coefficients, too
        t = PowerSeries(s.coeffs)
        assert not np.shares_memory(t.coeffs, s.coeffs)

    def test_equality_and_hash(self):
        s = PowerSeries((0.0, 1.0, 0.5j))
        same = PowerSeries(np.array([-0.0, 1.0 + 0.0j, complex(-0.0, 0.5)]))
        assert s == same and hash(s) == hash(same)
        assert len({s, same}) == 1
        assert s != PowerSeries((0.0, 1.0, 0.5j, 0.0))
        assert s != PowerSeries((0.0, 1.0, 0.5))
        assert s != (0.0, 1.0, 0.5j)

    @pytest.mark.parametrize("bad", [(), 1.0, [[0.0, 1.0]]])
    def test_shape_checked(self, bad):
        with pytest.raises(ValueError):
            PowerSeries(bad)


class TestBesselWeights:
    """``series_of_phi`` and ``b_operator`` weigh by one cumulative product of ratios."""

    @pytest.mark.parametrize(
        "nu,b,c",
        [(1.3 + 0.7j, 0.4, 1.9 - 1.1j), (0.2, 1, 5.0), (4.2 - 0.3j, 1, 30000 * cmath.exp(0.7j))],
    )
    def test_order_500_against_mpmath(self, nu, b, c):
        # b_n = (-c/4)^n / ((kappa)_n n!) at 40 digits.  Each ratio rounds a
        # few times, so b_n carries at most about 3 n eps of relative error
        # (measured: 1.3e-14 at n <= 500 for |c| = 30000, whose 467 first
        # coefficients lie between 1e-290 and 1e72); past 1e-290 the
        # doubles are subnormal or zero and only their size is checked.
        # b_operator multiplies a_{n+1} by the same b_n.
        import mpmath as mp

        params = BesselParams(nu, b, c)
        with mp.workdps(40):
            kappa, q = mp.mpc(params.kappa), mp.mpc(-params.c / 4.0)
            want = [q**n / (mp.rf(kappa, n) * mp.factorial(n)) for n in range(501)]
        normal = np.array([abs(x) > 1e-290 for x in want])
        want = np.array([complex(x) for x in want])
        halfplane = PowerSeries((0.0,) + (1.0,) * 501)
        for got in (series_of_phi(params, 500).coeffs, b_operator(params, halfplane).coeffs[1:]):
            got = np.array(got)
            assert np.all(np.abs(got - want)[normal] <= 1e-13 * np.abs(want[normal]))
            assert np.all(np.abs(got[~normal]) <= 1e-289)


def _old_weights(params, order):
    """b_0..b_order as the builders formed them before they wrote one array:
    a concatenate of 1 and the ratios, then one cumulative product."""
    n = np.arange(order)
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = (-params.c / 4.0) / ((params.kappa + n) * (n + 1.0))
        return np.cumprod(np.concatenate(([1.0 + 0.0j], ratios)))


def _old_phi(params, order):
    return PowerSeries(_old_weights(params, order))


# Parameters with signed-zero parts, and some |c| large enough that the
# weights overflow within a few terms.
_param_parts = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -2.0]), st.floats(-6.0, 6.0, allow_nan=False)
)
_big = st.sampled_from([1e120, -3e200, 7e307])
_c_parts = st.one_of(_param_parts, _big)


def _params(nu_re, nu_im, b, c_re, c_im):
    try:
        return BesselParams(complex(nu_re, nu_im), b, complex(c_re, c_im))
    except Exception:  # kappa on a pole
        return None


def _same_outcome(new, old):
    """new() and old() return series with the same bits, or raise the same ValueError."""
    try:
        want = old()
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            new()
        assert str(got.value) == str(exc)
        return False
    assert _bits(new().coeffs) == _bits(want.coeffs)
    return True


class TestOneArrayBuilders:
    """Each builder writes its one array and equals the composition it replaced, bit for bit."""

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(
        nu_re=_param_parts,
        nu_im=_param_parts,
        b=st.sampled_from([1.0, 0.0, -0.0, 2.0, 0.5]),
        c_re=_c_parts,
        c_im=_c_parts,
        order=st.integers(1, 70),
    )
    def test_builders_match_their_compositions(self, nu_re, nu_im, b, c_re, c_im, order):
        params = _params(nu_re, nu_im, b, c_re, c_im)
        assume(params is not None)
        assert _bits(series_ops._bessel_weights(params, order)) == _bits(
            _old_weights(params, order)
        )
        _same_outcome(
            lambda: series_of_vartheta(params, order),
            lambda: _old_phi(params, order - 1).shift_up(),
        )

        def lift():
            coeffs = np.zeros(2 * order + 2, dtype=complex)
            coeffs[1::2] = _old_phi(params, order).coeffs
            return PowerSeries(coeffs)

        _same_outcome(lambda: theorems._odd_lift(params, order), lift)
        if params.c != 0:

            def deficit():
                scale = -4.0 * params.kappa / params.c
                phi = _old_phi(params, order)
                with np.errstate(over="ignore", invalid="ignore"):
                    tail = series_ops._times(scale, phi.coeffs[1:])
                return PowerSeries(np.concatenate(([0.0j], tail)))

            _same_outcome(lambda: normalized_phi_deficit(params, order), deficit)

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(
        cs=_coefficient_lists,
        nu_re=_param_parts,
        nu_im=_param_parts,
        c_re=_c_parts,
        c_im=_c_parts,
    )
    def test_b_operator_matches_its_composition(self, cs, nu_re, nu_im, c_re, c_im):
        params = _params(nu_re, nu_im, 1.0, c_re, c_im)
        assume(params is not None)
        f = PowerSeries(_normalized(cs))

        def composed():
            weights = _old_weights(params, f.order - 1)
            with np.errstate(over="ignore", invalid="ignore"):
                tail = series_ops._times(f.coeffs[1:], weights)
            return PowerSeries(np.concatenate(([0.0j], tail)))

        _same_outcome(lambda: b_operator(params, f), composed)

    def test_overflowing_weights_raise(self):
        params = BesselParams(0.5, 1, 3e200)
        for build in (
            lambda: series_of_phi(params, 8),
            lambda: series_of_vartheta(params, 8),
            lambda: theorems._odd_lift(params, 8),
            lambda: normalized_phi_deficit(params, 8),
            lambda: b_operator(params, halfplane_series(8)),
        ):
            with pytest.raises(ValueError, match="finite coefficients"):
                build()

    def test_order_range_is_checked_in_the_weights(self):
        # MAX_ORDER bounds the highest Bessel weight index, which every
        # builder checks through _bessel_weights: vartheta and a b_operator
        # image may reach degree MAX_ORDER + 1, one above phi and the other
        # builders.  Before, vartheta accepted that degree while MAX_ORDER
        # read as the largest degree, and b_operator checked no degree.
        params = BesselParams(0.5, 1, 1)
        top = series_ops.MAX_ORDER
        assert series_of_vartheta(params, top + 1).order == top + 1
        assert b_operator(params, halfplane_series(top + 1)).order == top + 1
        for build, order in (
            (series_of_phi, top + 1),
            (series_of_phi, -1),
            (series_of_vartheta, top + 2),
            (theorems._odd_lift, top + 1),
            (normalized_phi_deficit, top + 1),
            (lambda p, n: b_operator(p, halfplane_series(n)), top + 2),
            (lambda p, n: b_operator(p, halfplane_series(n)), 601),
        ):
            with pytest.raises(ValueError, match="weight index must lie in"):
                build(params, order)
        with pytest.raises(ValueError, match="order >= 1"):
            series_of_vartheta(params, 0)


class TestPointRows:
    """``_horner_rows`` runs only the accumulators its top row needs."""

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(cs=_coefficient_lists, z=_points)
    def test_rows_keep_their_bits_in_every_subset(self, cs, z):
        # the subsets the kernel takes are the prefixes 0..top
        f = PowerSeries(cs)
        full = series_ops._horner_rows(f, z, 2)
        assert tuple(map(_hex, full)) == tuple(map(_hex, eval_rows(f, z)))
        assert _hex(f.eval(z)) == _hex(full[0])
        for top in (0, 1):
            got = series_ops._horner_rows(f, z, top)
            assert [_hex(v) for v in got] == [_hex(v) for v in full[: top + 1]]

    @pytest.mark.parametrize("degree", [64, 400])
    def test_row_bits_do_not_depend_on_the_subset(self, degree):
        # at a refinement probe's kind of point: 0.37 of a grid step off a
        # grid angle of the circle |z| = 0.99, signed zeros included
        f = random_complex_series(np.random.default_rng(degree), degree)
        t = (1234 + 0.37) * 2.0 * math.pi / 4096
        z = 0.99 * complex(math.cos(t), math.sin(t))
        full = series_ops._horner_rows(f, z, 2)
        for top in (0, 1, 2):
            got = series_ops._horner_rows(f, z, top)
            assert [_hex(v) for v in got] == [_hex(v) for v in full[: top + 1]]
