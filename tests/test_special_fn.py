import cmath
import dataclasses
import math

import numpy as np
import pytest

from besselstar import (
    BesselParams,
    BranchError,
    MaxTermsExceeded,
    PoleError,
    gamma,
    named_family,
    omega_eval,
    phi_derivative,
    phi_eval,
    pochhammer,
)

import oracles


class TestGamma:
    def test_at_one(self):
        assert abs(gamma(1) - 1.0) < 1e-13

    def test_half_integer(self):
        # Gamma(5/2) = (3/4) sqrt(pi) via the recurrence from Gamma(1/2)
        want = 0.75 * math.sqrt(math.pi)
        assert abs(gamma(2.5) - want) < 1e-13 * want

    def test_complex_point(self):
        want = oracles.gamma_reference(1 + 1j)
        assert abs(gamma(1 + 1j) - want) / abs(want) < 1e-12

    def test_accuracy_disk_50(self):
        rng = np.random.default_rng(101)
        checked = 0
        while checked < 400:
            z = complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
            if abs(z) > 50:
                continue
            n = min(0, round(z.real))
            if abs(z - n) < 0.1:
                continue
            want = oracles.gamma_reference(z)
            assert oracles.rel_err(gamma(z), want) < 1e-13, f"z={z}"
            checked += 1

    def test_reflection_region(self):
        for z in (-3.3, -0.5 + 2j, -17.25, -46.5 - 3j):
            want = oracles.gamma_reference(z)
            assert oracles.rel_err(gamma(z), want) < 1e-13

    @pytest.mark.parametrize("z", [150, 170, 150 + 3j])
    def test_large_real_part(self, z):
        # the power t^(z - 1/2) e^(-t) is one exponential: it overflowed
        # alone from re z ~ 142.7, while gamma stays finite to about 171.6
        want = oracles.gamma_reference(z)
        assert oracles.rel_err(gamma(z), want) < 2e-13

    def test_overflow_past_the_double_range(self):
        with pytest.raises(OverflowError):
            gamma(200)

    def test_poles_rejected(self):
        for z in (0, -1, -7, -3 + 1e-13j):
            with pytest.raises(PoleError):
                gamma(z)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            gamma(complex("inf"))


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(3.7 - 2j, 0) == 1

    def test_direct_product(self):
        assert abs(pochhammer(1.5, 3) - 105.0 / 8.0) < 1e-14

    def test_zero_factor(self):
        assert pochhammer(-2, 3) == 0

    def test_matches_gamma_ratio(self):
        x = 2.3 + 0.7j
        want = oracles.gamma_reference(x + 5) / oracles.gamma_reference(x)
        assert oracles.rel_err(pochhammer(x, 5), want) < 1e-13

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            pochhammer(1.0, -1)


class TestBesselParams:
    def test_kappa_derived(self):
        p = BesselParams(1, 0, 2)
        assert p.kappa == 1.5

    def test_shift(self):
        p = BesselParams(1, 0, 2)
        assert p.shift(1).kappa == 2.5
        assert p.shift(-1).kappa == 0.5

    @pytest.mark.parametrize("nu,b", [(-0.5, 0), (-1.5, 0), (-3.5, 4)])
    def test_nonpositive_integer_kappa_rejected(self, nu, b):
        with pytest.raises(PoleError):
            BesselParams(nu, b, 1)

    def test_near_pole_rejected(self):
        with pytest.raises(PoleError):
            BesselParams(-1.0 + 1e-13, 1, 1)  # kappa within 1e-13 of 0

    def test_negative_half_integer_kappa_ok(self):
        assert BesselParams(-2.5, 1, 1).kappa == -1.5

    def test_kappa_field_is_invisible(self):
        # kappa is stored at construction but takes no part in equality,
        # hashing, repr or pattern matching
        p, q = BesselParams(1, 0.5 - 1j, 2), BesselParams(1, 0.5 - 1j, 2)
        assert p == q and hash(p) == hash(q)
        assert hash(p) == hash((p.nu, p.b, p.c))
        assert repr(p) == "BesselParams(nu=(1+0j), b=(0.5-1j), c=(2+0j))"
        assert BesselParams.__match_args__ == ("nu", "b", "c")
        assert p != BesselParams(1, 0.5 - 1j, 3)

    def test_kappa_recomputed_by_replace(self):
        p = dataclasses.replace(BesselParams(1, 0, 2), nu=2.5)
        assert p.kappa == 3.0
        assert dataclasses.replace(p, b=2).kappa == 4.0

    def test_kappa_is_frozen(self):
        p = BesselParams(1, 0, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.kappa = 7.0
        assert p.kappa == 1.5


class TestPhiEval:
    def test_value_at_zero(self):
        res = phi_eval(BesselParams(3.3 + 1j, 0.2, 5), 0)
        assert res.value == 1
        assert res.tail_bound == 0.0

    def test_closed_form_small_sample(self):
        rng = np.random.default_rng(7)
        for label, (nu, b, c), kind, cf in oracles.CLOSED_FORMS:
            p = BesselParams(nu, b, c)
            for z in oracles.disk_points(rng, 5):
                z = complex(z)
                got = phi_eval(p, z, tol=1e-13).value
                if kind == "vartheta":
                    got = z * got
                assert oracles.rel_err(got, cf(z)) < 1e-11, label

    def test_tail_bound_respects_tol(self):
        res = phi_eval(BesselParams(2, 0, 6), 0.9 + 0.3j, tol=1e-9)
        assert res.tail_bound <= 1e-9

    def test_tail_bound_honest(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = BesselParams(rng.uniform(0.3, 6), rng.uniform(0, 2), rng.uniform(-8, 8))
            z = complex(*rng.uniform(-2, 2, 2))
            loose = phi_eval(p, z, tol=1e-6)
            tight = phi_eval(p, z, tol=1e-15)
            assert abs(loose.value - tight.value) <= loose.tail_bound + 1e-15

    def test_term_cap_does_not_change_value(self):
        p = BesselParams(1, 0, 2)
        a = phi_eval(p, 0.7 - 0.2j, max_terms=500)
        b = phi_eval(p, 0.7 - 0.2j, max_terms=1000)
        assert a.value == b.value

    def test_entire_beyond_disk(self):
        res = phi_eval(BesselParams(1, 0, 2), 9.0)
        want = oracles.phi_reference(1, 0, 2, 9.0)
        assert oracles.rel_err(res.value, want) < 1e-11

    def test_max_terms_exceeded(self):
        with pytest.raises(MaxTermsExceeded):
            phi_eval(BesselParams(1, 0, 2), 40.0, max_terms=6)

    def test_tiny_tol_rejected(self):
        with pytest.raises(ValueError):
            phi_eval(BesselParams(1, 0, 2), 0.5, tol=1e-16)

    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda tol: phi_eval(BesselParams(1, 1, 1), 1.0, tol=tol),
            lambda tol: phi_derivative(BesselParams(1, 1, 1), 1.0, 2, tol=tol),
            lambda tol: omega_eval(BesselParams(1, 1, 1), 0.5, tol=tol),
            lambda tol: named_family("J", 1, 0.5, tol=tol),
        ],
    )
    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tol_rejected(self, evaluate, tol):
        # no tail is ever <= NaN: the sum would run until its terms underflow
        # and report a tail bound of 0; with tol = inf the first term would
        # pass for the sum
        with pytest.raises(ValueError, match="tol"):
            evaluate(tol)


class TestPhiDerivative:
    def test_first_derivative_at_zero(self):
        p = BesselParams(1, 0, 2)
        want = -p.c / (4 * p.kappa)
        assert abs(phi_derivative(p, 0, 1).value - want) < 1e-15

    def test_order_recurrence(self):
        # 4 kappa phi'(z) = -c phi_{next order}(z)
        p = BesselParams(1, 0, 2)
        z = 0.3
        lhs = 4 * p.kappa * phi_derivative(p, z, 1, tol=1e-14).value
        rhs = -p.c * phi_eval(p.shift(1), z, tol=1e-14).value
        assert abs(lhs - rhs) < 1e-12

    def test_ode_residual(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            p = BesselParams(rng.uniform(0.3, 5), rng.uniform(0, 2), rng.uniform(-6, 6))
            z = complex(*rng.uniform(-1.4, 1.4, 2))
            f = phi_eval(p, z, tol=1e-14).value
            f1 = phi_derivative(p, z, 1, tol=1e-14).value
            f2 = phi_derivative(p, z, 2, tol=1e-14).value
            res = 4 * z * z * f2 + 4 * p.kappa * z * f1 + p.c * z * f
            assert abs(res) < 1e-10

    def test_bad_order(self):
        with pytest.raises(ValueError):
            phi_derivative(BesselParams(1, 0, 2), 0.1, 4)


class TestRecurrenceInvariants:
    """Randomized identities tying derivatives to order shifts."""

    def _random_params(self, rng):
        while True:
            nu = complex(rng.uniform(-4, 6), rng.uniform(-2, 2))
            b = complex(rng.uniform(-1, 3), rng.uniform(-1, 1))
            c = complex(rng.uniform(-8, 8), rng.uniform(-4, 4))
            kappa = nu + (b + 1) / 2
            n = min(0, round(kappa.real))
            if abs(kappa - n) > 0.1 and abs(kappa) < 20 and abs(c) > 1e-3:
                return BesselParams(nu, b, c)

    def test_derivative_order_shift(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            p = self._random_params(rng)
            z = complex(*rng.uniform(-1.4, 1.4, 2))
            lhs = 4 * p.kappa * phi_derivative(p, z, 1, tol=1e-14).value
            rhs = -p.c * phi_eval(p.shift(1), z, tol=1e-14).value
            assert abs(lhs - rhs) < 1e-10

    def test_shifted_ode(self):
        # p = -4 kappa phi' / c satisfies the order-raised equation
        rng = np.random.default_rng(37)
        for _ in range(40):
            p = self._random_params(rng)
            z = complex(*rng.uniform(-1.4, 1.4, 2))
            s = -4 * p.kappa / p.c
            p0 = s * phi_derivative(p, z, 1, tol=1e-14).value
            p1 = s * phi_derivative(p, z, 2, tol=1e-14).value
            p2 = s * phi_derivative(p, z, 3, tol=1e-14).value
            res = 4 * z * z * p2 + 4 * (p.kappa + 1) * z * p1 + p.c * z * p0
            assert abs(res) < 1e-10


class TestOmegaEval:
    def test_half_order_first_kind(self):
        # omega(1) for nu=1/2, b=c=1 equals sqrt(2/pi) sin(1)
        res = omega_eval(BesselParams(0.5, 1, 1), 1.0)
        want = math.sqrt(2 / math.pi) * math.sin(1.0)
        assert oracles.rel_err(res.value, want) < 1e-12

    def test_half_order_modified(self):
        res = omega_eval(BesselParams(0.5, 1, -1), 1.0)
        want = math.sqrt(2 / math.pi) * math.sinh(1.0)
        assert oracles.rel_err(res.value, want) < 1e-12

    def test_zero_argument_order_zero(self):
        res = omega_eval(BesselParams(0, 1, 1), 0.0)
        assert isinstance(res.value, complex)
        assert abs(res.value - 1.0) < 1e-13  # 1/Gamma(1)

    def test_zero_argument_positive_order(self):
        # a complex zero, like every other value omega_eval returns
        for nu in (1, 2):
            value = omega_eval(BesselParams(nu, 1, 1), 0.0).value
            assert isinstance(value, complex) and value == 0

    def test_zero_argument_negative_order(self):
        with pytest.raises(BranchError):
            omega_eval(BesselParams(-0.5, 1, 1), 0.0)

    def test_direct_series_consistency(self):
        # Direct defining series with gamma factors, summed independently.
        rng = np.random.default_rng(41)
        p = BesselParams(0.75, 1.0, 2.0)
        for _ in range(10):
            z = complex(rng.uniform(0.2, 1.5), rng.uniform(-1.0, 1.0))
            direct = 0j
            for n in range(40):
                direct += (
                    (-p.c) ** n
                    / (math.factorial(n) * oracles.gamma_reference(p.nu + n + (p.b + 1) / 2))
                    * (z / 2) ** (2 * n + p.nu)
                )
            got = omega_eval(p, z).value
            assert oracles.rel_err(got, direct) < 1e-11

    def test_branch_cut_error(self):
        with pytest.raises(BranchError):
            omega_eval(BesselParams(0.5, 1, 1), -0.5)

    def test_branch_cut_rotation(self):
        # rotating the cut away makes the negative axis evaluable; the value
        # agrees with the principal-branch limit from above, which is what a
        # high-precision reference returns on the cut
        import mpmath as mp

        res = omega_eval(BesselParams(0.5, 1, 1), -0.5, branch_cut_angle=math.pi / 2)
        want = complex(mp.besselj(0.5, mp.mpc(-0.5, 0)))
        assert oracles.rel_err(res.value, want) < 1e-11

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("nu, z", [(1, 0.5), (1, 0), (0, 0)])
    def test_non_finite_branch_cut_angle_rejected(self, angle, nu, z):
        # a NaN or infinite rotation gave a NaN value; refused at every z
        with pytest.raises(ValueError, match="branch_cut_angle"):
            omega_eval(BesselParams(nu, 1, 1), z, branch_cut_angle=angle)

    def test_branch_cut_rotation_continuity(self):
        # off the cut, the rotated branch agrees with the principal one
        z = 0.4 + 0.7j
        a = omega_eval(BesselParams(0.5, 1, 1), z).value
        b = omega_eval(BesselParams(0.5, 1, 1), z, branch_cut_angle=0.3).value
        assert abs(a - b) < 1e-13

    def test_against_mpmath_besselj(self):
        import mpmath as mp

        for nu, z in ((1.5, 0.8), (2.0, 1.2 + 0.4j), (0.25, 0.6 - 0.3j)):
            want = complex(mp.besselj(nu, mp.mpmathify(z)))
            got = omega_eval(BesselParams(nu, 1, 1), z).value
            assert oracles.rel_err(got, want) < 1e-11


class TestNearPole:
    """kappa within 1e-10 of a pole: a small |kappa + n| late in the series.

    The stop rule used to accept the geometric tail estimate before the
    small factor entered, returning a value off by 1e-6 with a tail bound
    near 1e-14.  Each value must now lie within its tail bound (plus
    rounding) of a 40-digit term-wise sum.
    """

    @staticmethod
    def _reference(params, z, order):
        import mpmath as mp

        with mp.workdps(40):
            kappa, q, z = (mp.mpmathify(complex(x)) for x in (params.kappa, -params.c / 4, z))
            total, term = mp.mpc(0), q**order / mp.rf(kappa, order)
            for n in range(80):
                total += term
                term = term * q * z / ((kappa + n + order) * (n + 1))
            return total

    @pytest.mark.parametrize(
        "nu,c,order",
        [(-6 + 1e-11j, 0.04, 0), (-9 + 1e-10j, 1, 0), (-9 + 1e-10j, 1, 1)],
    )
    def test_phi_and_derivative_within_tail(self, nu, c, order):
        p = BesselParams(nu, 1, c)
        res = phi_eval(p, 1.0) if order == 0 else phi_derivative(p, 1.0, order)
        want = complex(self._reference(p, 1.0, order))
        assert abs(res.value - want) <= res.tail_bound + 1e-13 * abs(want)

    def test_omega_within_tail(self):
        import mpmath as mp

        p = BesselParams(-6 + 1e-11j, 1, 0.04)
        res = omega_eval(p, 1.0)
        with mp.workdps(40):
            scale = mp.power(2, mp.mpmathify(p.nu)) * mp.gamma(mp.mpmathify(p.kappa))
            want = complex(self._reference(p, 1.0, 0) / scale)
        assert abs(res.value - want) <= res.tail_bound + 1e-13 * abs(want)

    def test_far_negative_kappa_stops_at_a_zero_term(self):
        # n + re(kappa) >= 0 needs n >= 600, past max_terms; the terms
        # underflow to exactly zero long before, and a zero term ends the sum
        p = BesselParams(-600.5, 1, 1)
        res = phi_eval(p, 1.0)
        assert res.tail_bound == 0.0 and res.terms_used < 100
        want = complex(self._reference(p, 1.0, 0))
        assert abs(res.value - want) <= 1e-13 * abs(want)


class TestNamedFamily:
    def test_normalized_j_half(self):
        res = named_family("calJ", 0.5, 0.49)
        want = math.sin(0.7) / 0.7
        assert oracles.rel_err(res.value, want) < 1e-12

    def test_normalized_i_half(self):
        res = named_family("calI", 0.5, 0.49)
        want = math.sinh(0.7) / 0.7
        assert oracles.rel_err(res.value, want) < 1e-12

    def test_normalization_at_zero(self):
        for name in ("calJ", "calI", "frakj", "fraki"):
            assert named_family(name, 1.7, 0).value == 1

    def test_j_family_is_omega(self):
        got = named_family("J", 1.5, 0.8).value
        want = omega_eval(BesselParams(1.5, 1, 1), 0.8).value
        assert got == want

    def test_spherical_scaling(self):
        # j_sph = sqrt(pi)/2 * omega with b=2, c=1
        got = named_family("j_sph", 1.0, 0.9).value
        want = math.sqrt(math.pi) / 2 * omega_eval(BesselParams(1.0, 2, 1), 0.9).value
        assert oracles.rel_err(got, want) < 1e-14

    def test_spherical_against_mpmath(self):
        import mpmath as mp

        # spherical j_nu(x) = sqrt(pi/(2x)) J_{nu+1/2}(x)
        x = 1.3
        want = complex(mp.sqrt(mp.pi / (2 * x)) * mp.besselj(1.5, x))
        got = named_family("j_sph", 1.0, x).value
        assert oracles.rel_err(got, want) < 1e-11

    def test_normalized_family_matches_phi(self):
        z = 0.3 + 0.2j
        got = named_family("frakj", 0.8, z).value
        want = phi_eval(BesselParams(0.8, 2, 1), z).value
        assert got == want

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            named_family("Y", 1.0, 0.5)
