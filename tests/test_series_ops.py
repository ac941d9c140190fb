import math

import numpy as np
import pytest
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
    eval_series,
    hadamard,
    libera,
    libera_kernel,
    phi_eval,
    series_of_phi,
    series_of_vartheta,
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
        assert s.differentiate().coeffs == (3.0, 4.0)

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
        again = PowerSeries.from_coefficient_pairs(s.to_coefficient_pairs())
        assert again.coeffs == s.coeffs

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
        assert eval_series(PowerSeries((3.0 - 2j, 1.0)), 0) == 3.0 - 2j

    def test_linearity(self):
        rng = np.random.default_rng(37)
        f, g = random_normalized(rng), random_normalized(rng)
        z = 0.4 + 0.3j
        assert abs((f + g).eval(z) - (f.eval(z) + g.eval(z))) < 1e-12

    def test_guard_radius(self):
        with pytest.raises(OutOfDomain):
            eval_series(PowerSeries((0.0, 1.0)), 1.1)

    def test_inside_guard_ok(self):
        assert eval_series(PowerSeries((0.0, 1.0)), 1.04) == pytest.approx(1.04)


def random_complex_series(rng, degree, decay=1.0):
    """Complex Gaussian coefficients scaled by decay**n."""
    c = rng.normal(0, 1, (degree + 1, 2)) @ np.array([1.0, 1j])
    return PowerSeries(tuple(c * decay ** np.arange(degree + 1)))


def polyval_rows(series, zs):
    """Reference rows f, z f', z^2 f'' by numpy Horner on shifted coefficients."""
    a = np.array(series.coeffs)
    n = np.arange(a.size)
    return np.array([polyval(zs, a), polyval(zs, n * a), polyval(zs, n * (n - 1) * a)])


def rows_scale(series, r):
    """sum_n |n^j a_n| r^n per row: the size of Horner's rounding error at radius r."""
    a = np.abs(np.array(series.coeffs))
    n = np.arange(a.size)
    rn = r ** n
    return np.array([np.sum(a * rn), np.sum(n * a * rn), np.sum(n * (n - 1) * a * rn)])


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
        assert (err <= 1e-13 * rows_scale(f, r)).all(), err / rows_scale(f, r)

    @pytest.mark.parametrize("degree,angles", CASES)
    def test_point_equals_circle(self, degree, angles):
        rng = np.random.default_rng(degree + 3 * angles)
        f = random_complex_series(rng, degree)
        r = 0.999
        circle = eval_rows(f, r, angles)
        scale = rows_scale(f, r)
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
            want = (f.eval(z), z * d1.eval(z), z * z * d2.eval(z))
            for got, ref in zip(rows, want):
                assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))

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
