import cmath
import json
import math

import numpy as np
import pytest

from besselstar import (
    AnalyticMap,
    BesselParams,
    DiskGrid,
    PowerSeries,
    bessel_chain_step,
    check_class,
    example_linear_report,
    example_product_report,
    expected_extremum,
    extremal_curve,
    hyp_Ke,
    hyp_Pe,
    hyp_Se,
    hyp_bkc_chain,
    hyp_corollaries,
    hyp_libera,
    hyp_omega_Se,
    series_of_vartheta,
)
from besselstar import cli, gft_checks, series_ops, theorems

E = math.e

FAST_GRID = DiskGrid(radii=(0.5, 0.9, 0.99, 0.999), angles_per_circle=1024)


def halfplane_series(order=64):
    return PowerSeries((0.0,) + (1.0,) * order)


def halfplane_map():
    return AnalyticMap(
        lambda z: z / (1.0 - z),
        lambda z: 1.0 / (1.0 - z) ** 2,
        lambda z: 2.0 / (1.0 - z) ** 3,
    )


def identity_series(order=64):
    return PowerSeries((0.0, 1.0) + (0.0,) * (order - 1))


def sampled_convexity(f, grid):
    """1 + z f''/f' on the grid circles, as the convexity premise samples it.

    A map is evaluated circle by circle at the grid points, as the quotient
    of its rows z f' + z^2 f'' and z f'.
    """
    if isinstance(f, AnalyticMap):
        rows = [(z * f.deriv1(z), z * z * f.deriv2(z)) for z in map(grid.circle, grid.radii)]
        return np.array([(zf1 + zzf2) / zf1 for zf1, zzf2 in rows])
    w = theorems._quantity(f, "Ke")
    terms = series_ops._Terms(f)
    return theorems._circle_values(w, terms, grid.radii, grid.angles_per_circle)


class TestConstants:
    def test_convexity_rhs_value(self):
        # (e^2 + e - 1)/(e^2 (e - 1)), cross-computed at high precision
        assert theorems.KE_INEQ_RHS == pytest.approx(0.71731199010593912, abs=1e-15)

    def test_bessel_rhs_value(self):
        assert theorems.BESSEL_ORDER_RHS == pytest.approx(0.57181781338860751, abs=1e-15)

    def test_product_rhs_value(self):
        assert theorems.PRODUCT_INEQ_RHS == pytest.approx(1.2325441579348296, abs=1e-15)

    def test_bessel_rhs_consistent_with_general(self):
        # |c| = 1 specialization: general RHS minus 1/(4(e-1))
        want = theorems.KE_INEQ_RHS - 1.0 / (4.0 * (E - 1.0))
        assert abs(theorems.BESSEL_ORDER_RHS - want) < 1e-15

    def test_spherical_rhs_is_doubled_bessel(self):
        assert abs(theorems.SPHERICAL_ORDER_RHS - 2.0 * theorems.BESSEL_ORDER_RHS) < 1e-15


class TestHypPe:
    def test_equality_case_applicable(self):
        rep = hyp_Pe(BesselParams(1, 0, 2), verify=True, grid=FAST_GRID)
        assert rep.applicable
        assert rep.hypotheses[0].slack == 0.0
        assert rep.conclusion_check.verdict == "pass"

    def test_large_parameters(self):
        rep = hyp_Pe(BesselParams(15.5, 0, 60), verify=True, grid=FAST_GRID)
        assert rep.applicable
        assert rep.conclusion_check.verdict == "pass"

    def test_c_zero_trivial(self):
        rep = hyp_Pe(BesselParams(1.5, 0, 0), verify=True, grid=FAST_GRID)
        assert rep.applicable
        assert rep.conclusion_check.verdict == "pass"
        assert rep.conclusion_check.sup_value == 0.0

    def test_not_applicable(self):
        rep = hyp_Pe(BesselParams(0.2, 0, 2), verify=True)
        assert not rep.applicable
        assert rep.conclusion_check is None

    def test_no_verify_skips_conclusion(self):
        rep = hyp_Pe(BesselParams(1, 0, 2))
        assert rep.conclusion_check is None


class TestHypKe:
    def test_order_half_bessel(self):
        rep = hyp_Ke(BesselParams(0.5, 1, 1), verify=True, grid=FAST_GRID)
        assert rep.applicable
        assert rep.conclusion_check.verdict == "pass"

    def test_modified_variant(self):
        rep = hyp_Ke(BesselParams(0.5, 1, -1), verify=True, grid=FAST_GRID)
        assert rep.applicable
        assert rep.conclusion_check.verdict == "pass"

    def test_boundary_equality_applicable(self):
        c = 4.0 * (E - 1.0) * theorems.KE_INEQ_RHS
        rep = hyp_Ke(BesselParams(2.0 - 1.0, 1, c))  # kappa = 2 exactly
        assert rep.applicable
        assert rep.hypotheses[2].slack == pytest.approx(0.0, abs=1e-15)

    def test_far_kappa_not_applicable(self):
        rep = hyp_Ke(BesselParams(4, 1, 1))  # kappa = 5, |kappa-2| = 3
        assert not rep.applicable

    def test_c_zero_not_applicable(self):
        rep = hyp_Ke(BesselParams(1, 1, 0))
        assert not rep.applicable


class TestHypSe:
    def test_order_3half_bessel(self):
        rep = hyp_Se(BesselParams(1.5, 1, 1), verify=True, grid=FAST_GRID)
        assert rep.applicable
        assert rep.conclusion_check.verdict == "pass"

    def test_order_5half_modified(self):
        rep = hyp_Se(BesselParams(2.5, 1, -1), verify=True, grid=FAST_GRID)
        assert rep.applicable
        assert rep.conclusion_check.verdict == "pass"

    def test_counterexample_not_applicable_and_fails(self):
        p = BesselParams(-0.5, 1, 1)
        rep = hyp_Se(p)
        assert not rep.applicable
        direct = check_class(series_of_vartheta(p), "Se", grid=FAST_GRID)
        assert direct.verdict == "fail"

    def test_shift_equivalence_with_convexity_condition(self):
        # the starlike condition at kappa equals the convexity condition at kappa-1
        rng = np.random.default_rng(53)
        for _ in range(60):
            nu = complex(rng.uniform(-2, 5), rng.uniform(-1, 1))
            b = rng.uniform(-0.5, 2)
            c = complex(rng.uniform(-4, 4), rng.uniform(-2, 2))
            kappa = nu + (b + 1) / 2
            if min(abs(kappa - min(0, round(kappa.real))), abs(c)) < 0.1:
                continue
            if abs(kappa + 1 - min(0, round(kappa.real + 1))) < 0.1:
                continue
            ke = hyp_Ke(BesselParams(nu, b, c))
            se = hyp_Se(BesselParams(nu + 1, b, c))
            assert ke.applicable == se.applicable


class TestCorollaries:
    def test_bessel_a_half(self):
        rep = hyp_corollaries(0.5, "bessel", "a", verify=True, grid=FAST_GRID)
        assert rep.applicable
        assert rep.conclusion_check.verdict == "pass"

    def test_bessel_b_three_half(self):
        rep = hyp_corollaries(1.5, "bessel", "b", verify=True, grid=FAST_GRID)
        assert rep.applicable
        assert rep.conclusion_check.verdict == "pass"

    def test_bessel_b_negative_not_applicable(self):
        rep = hyp_corollaries(-2.5, "bessel", "b")
        assert not rep.applicable

    def test_modified_conclusion(self):
        rep = hyp_corollaries(0.5, "bessel", "a", c_sign=-1, verify=True, grid=FAST_GRID)
        assert rep.applicable
        assert rep.conclusion_check.verdict == "pass"

    def test_spherical_thresholds(self):
        assert hyp_corollaries(-1.25, "spherical", "a").hypotheses[0].holds
        assert not hyp_corollaries(-1.26, "spherical", "a").hypotheses[0].holds
        assert hyp_corollaries(-0.25, "spherical", "b").hypotheses[0].holds
        assert not hyp_corollaries(-0.26, "spherical", "b").hypotheses[0].holds

    def test_spherical_matches_general_condition(self):
        # |2nu - 1| <= 2/e^2 + 3/(2(e-1)) is |kappa-2| <= ... at kappa = nu + 3/2
        rng = np.random.default_rng(59)
        for _ in range(40):
            nu = complex(rng.uniform(-2, 3), rng.uniform(-1, 1))
            kappa = nu + 1.5
            if abs(kappa - min(0, round(kappa.real))) < 0.1:
                continue
            general = hyp_Ke(BesselParams(nu, 2, 1))
            special = hyp_corollaries(nu, "spherical", "a")
            assert general.applicable == special.applicable

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            hyp_corollaries(1.0, "bessel", "c")
        with pytest.raises(ValueError):
            hyp_corollaries(1.0, "airy", "a")
        with pytest.raises(ValueError):
            hyp_corollaries(1.0, "bessel", "a", c_sign=2)


class TestHypLibera:
    def test_convex_image(self):
        rep = hyp_libera(BesselParams(0.5, 1, 1), "Ke", verify=True, grid=FAST_GRID)
        assert rep.theorem_id == "CorLibera"
        assert rep.applicable
        assert rep.conclusion_check.verdict == "pass"

    def test_starlike_image(self):
        rep = hyp_libera(BesselParams(1.5, 1, 1), "Se", verify=True, grid=FAST_GRID)
        assert rep.applicable
        assert rep.conclusion_check.verdict == "pass"


class TestHypOmegaSe:
    def test_order_3half(self):
        rep = hyp_omega_Se(BesselParams(1.5, 1, 1), verify=True, grid=FAST_GRID)
        assert rep.applicable
        assert rep.conclusion_check.verdict == "pass"
        assert len(rep.aux_checks) == 1
        assert rep.aux_checks[0].class_id == "bound_quarter"
        assert rep.aux_checks[0].verdict == "pass"

    def test_boundary_order(self):
        # nu = 17/12 puts kappa exactly on the threshold 5/3 + 3/4
        rep = hyp_omega_Se(BesselParams(17.0 / 12.0, 1, 1), verify=True, grid=FAST_GRID)
        assert rep.applicable
        assert rep.hypotheses[0].slack == pytest.approx(0.0, abs=1e-15)
        assert rep.conclusion_check.verdict == "pass"

    def test_c_zero(self):
        rep = hyp_omega_Se(BesselParams(0.5, 0, 0), verify=True, grid=FAST_GRID)
        assert rep.applicable
        assert rep.conclusion_check.verdict == "pass"

    def test_complex_kappa_rejected(self):
        with pytest.raises(ValueError):
            hyp_omega_Se(BesselParams(1.5 + 1j, 1, 1))

    def test_row_refuses_complex_kappa(self):
        # the refusal is the row's, so the runner refuses too
        with pytest.raises(ValueError, match="needs real kappa"):
            theorems._run_condition("omega-Se", BesselParams(1.5 + 1j, 1, 1), False, None, 64)

    def test_below_threshold(self):
        assert not hyp_omega_Se(BesselParams(1.0, 1, 1)).applicable

    def test_closed_form_instance(self):
        # h for nu=3/2, b=c=1 is 3 (sin z - z cos z)/z^2; spot check the series
        import mpmath as mp

        from besselstar import series_of_phi

        phi = series_of_phi(BesselParams(1.5, 1, 1), 40)
        for x in (0.3, 0.75 + 0.2j):
            z = complex(x)
            h = z * phi.eval(z * z)
            want = complex(3 * (mp.sin(z) - z * mp.cos(z)) / z**2)
            assert abs(h - want) < 1e-12


    def test_phi_built_once(self, monkeypatch):
        # the quarter bound reads phi off the odd coefficients of the target
        # h = z phi(z^2), so one verified check computes the Bessel weights
        # of phi once, written straight into h
        params = BesselParams(1.5, 1, 1)
        real = series_ops._bessel_weights
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(series_ops, "_bessel_weights", counting)
        rep = hyp_omega_Se(params, verify=True, grid=FAST_GRID)
        assert len(built) == 1
        monkeypatch.setattr(series_ops, "_bessel_weights", real)
        phi = series_ops.series_of_phi(params, 64)
        assert series_ops._odd_lift(params, 64).coeffs[1::2].tobytes() == phi.coeffs.tobytes()
        quarter = gft_checks.check_quarter_bound(
            gft_checks.SeriesQuantity(phi, gft_checks.RATIOS["Se"]), grid=FAST_GRID
        )
        assert rep.aux_checks == (quarter,)
        assert rep.conclusion_check == check_class(series_ops._odd_lift(params, 64), "Se",
                                                   grid=FAST_GRID)


class TestConvexityPremise:
    def test_zero_of_derivative_inside_fails(self):
        # f' vanishes at |z| ~ 0.077, inside the smallest grid circle, while
        # re(1 + z f''/f') stays above 0.79 on every sampled circle; the
        # winding count of z f' on the outer circle sees the zero
        kappa, c = 0.0239 + 0.1599j, 2.283 - 3.569j
        f = series_of_vartheta(BesselParams(kappa - 1, 1, c))
        grid = DiskGrid()
        sampled = sampled_convexity(f, grid).real.min()
        assert sampled > 0.79
        h = theorems._convexity_premise("f is convex (sampled)", f, grid)
        assert h.lhs == -math.inf and not h.holds
        rep = hyp_bkc_chain(BesselParams(kappa + 3, 1, c), f, part="a")
        assert [h.holds for h in rep.hypotheses] == [True, False]
        assert not rep.applicable

    @pytest.mark.parametrize("part", ["a", "b"])
    def test_premise_reports_its_strict_relation(self, part):
        # the premise holds when min re(1 + z f''/f') > 0, and says so:
        # passing premises, a failing one (part a: f = z + 0.4 z^2 reads
        # about -2.98 at z = -0.999) and uncertified ones (f' = 1 - 2 z
        # vanishes at 1/2), whose lhs is -inf
        premises = []
        for f in (identity_series(), series_of_vartheta(BesselParams(2.5, 1, 1)),
                  PowerSeries((0.0, 1.0, 0.4)), PowerSeries((0.0, 1.0, -1.0))):
            rep = hyp_bkc_chain(BesselParams(2.5, 1, 1), f, part=part, grid=FAST_GRID)
            premises += [h for h in rep.hypotheses if h.name.endswith("is convex (sampled)")]
        assert len(premises) == 4
        assert {h.holds for h in premises} == {True, False}
        for h in premises:
            assert (h.relation, h.rhs) == (">", 0.0)
            assert h.holds == (h.lhs > h.rhs)

    @pytest.mark.parametrize("f", [series_of_vartheta(BesselParams(2.5, 1, 1)),
                                   identity_series(), PowerSeries((0.0, 1.0, 0.2 - 0.1j)),
                                   series_of_vartheta(BesselParams(1.5 + 0.5j, 1, 2 - 1j))])
    def test_zero_free_lhs_unchanged(self, f):
        # the premise samples the outermost circle alone; its minimum is the
        # minimum over every circle of the plan
        grid = DiskGrid()
        want = float(sampled_convexity(f, grid).real.min())
        h = theorems._convexity_premise("f is convex (sampled)", f, grid)
        assert h.lhs.hex() == want.hex()
        assert h.holds == (want > 0.0)

    def test_outer_circle_only(self, monkeypatch):
        # re(1 + z f''/f') is harmonic where f' is zero-free, so its minimum
        # lies on the outermost circle, the one circle the premise evaluates;
        # a series is transformed there twice, for its samples and for the
        # winding certificate's rows
        grid = DiskGrid()
        full = halfplane_map()
        shapes = []

        def counted(name, fn):
            def evaluate(z):
                shapes.append((name, np.shape(z)))
                return fn(z)
            return evaluate

        spied = AnalyticMap(full.value, counted("f'", full.deriv1), counted("f''", full.deriv2))
        assert theorems._convexity_premise("f is convex (sampled)", spied, grid).holds
        n = grid.angles_per_circle
        assert shapes == [("f'", (n,)), ("f''", (n,))]

        radii = []
        circle_rows = gft_checks._circle_rows

        def spy(terms, rs, angles, top):
            radii.append(tuple(rs))
            return circle_rows(terms, rs, angles, top)

        monkeypatch.setattr(gft_checks, "_circle_rows", spy)
        f = series_of_vartheta(BesselParams(2.5, 1, 1))
        assert theorems._convexity_premise("f is convex (sampled)", f, grid).holds
        assert radii == [(grid.radii[-1],)] * 2

    def test_map_unchanged(self):
        grid = DiskGrid()
        h = theorems._convexity_premise("f is convex (sampled)", halfplane_map(), grid)
        want = float(sampled_convexity(halfplane_map(), grid).real.min())
        assert h.lhs.hex() == want.hex() and h.holds

    @pytest.mark.parametrize("coeffs", [(0.0, 1.0), (0.0, 1.0, 0.1 - 0.05j, 0.02j, -0.005)])
    def test_map_and_series_agree(self, coeffs):
        # the same polynomial as a series (FFT rows) and as an exact map (its
        # two derivatives): both paths form the rows z f' and z f' + z^2 f''
        # and take one quotient, so their minima agree to rounding
        a = np.array(coeffs, dtype=complex)
        d1, d2 = np.polyder(a[::-1]), np.polyder(a[::-1], 2)
        exact = AnalyticMap(
            lambda z: np.polyval(a[::-1], z),
            lambda z: np.polyval(d1, z),
            lambda z: np.polyval(d2, z),
        )
        grid = DiskGrid()
        by_map = theorems._convexity_premise("f is convex (sampled)", exact, grid)
        by_series = theorems._convexity_premise("f is convex (sampled)", PowerSeries(coeffs), grid)
        assert by_map.holds and by_series.holds
        assert abs(by_map.lhs - by_series.lhs) <= 1e-14 * max(1.0, abs(by_series.lhs))


class TestHypBkcChain:
    def test_identity_generator_trivial(self):
        p = BesselParams(2.5, 1, 1)  # kappa = 7/2
        rep = hyp_bkc_chain(p, identity_series(), part="a", verify=True, grid=FAST_GRID)
        assert rep.applicable
        assert rep.conclusion_check.verdict == "pass"

    def test_halfplane_chain_step(self):
        p = BesselParams(2.5, 1, 1)
        rep = hyp_bkc_chain(
            p, halfplane_series(), part="a", f_exact=halfplane_map(), verify=True,
            grid=FAST_GRID,
        )
        assert rep.applicable
        assert [h.holds for h in rep.hypotheses] == [True, True, True]
        assert rep.conclusion_check.verdict == "pass"

    def test_value_free_map_serves_part_a(self):
        # the convexity premise reads 1 + z f''/f' only, so a map without a
        # usable value gives the same report as the full one
        def no_value(z):
            raise AssertionError("the Ke ratio reads no f")

        full = halfplane_map()
        derivatives_only = AnalyticMap(no_value, full.deriv1, full.deriv2)
        p = BesselParams(2.5, 1, 1)
        reports = [
            hyp_bkc_chain(p, halfplane_series(), part="a", f_exact=m, grid=FAST_GRID)
            for m in (full, derivatives_only)
        ]
        assert reports[0] == reports[1] and reports[1].applicable

    def test_low_kappa_not_applicable(self):
        rep = hyp_bkc_chain(BesselParams(0.5, 1, 1), identity_series(), part="a")
        assert not rep.applicable
        assert len(rep.hypotheses) == 1  # later premises not evaluated

    def test_part_b(self):
        p = BesselParams(2.5, 1, 1)
        rep = hyp_bkc_chain(p, identity_series(), part="b", verify=True, grid=FAST_GRID)
        assert rep.applicable
        assert rep.conclusion_check.verdict == "pass"

    def test_part_b_refuses_exact_map(self):
        # part b's premise is on z f', which an exact f does not give
        with pytest.raises(ValueError, match="part 'a' only"):
            hyp_bkc_chain(
                BesselParams(2.5, 1, 1), halfplane_series(), part="b", f_exact=halfplane_map()
            )

    def test_imaginary_kappa_raises_threshold(self):
        # im(kappa)^2/6 enters the required real part
        p = BesselParams(2.5 + 2j, 1, 1)  # re kappa = 3.5 < 1/4 + 4/6 + 3/2 is false...
        rep = hyp_bkc_chain(p, identity_series(), part="a")
        want = max(2.0, 0.25 + 4.0 / 6.0 + 1.5)
        assert rep.hypotheses[0].rhs == pytest.approx(want)

    def test_not_normalized(self):
        from besselstar import NotNormalized

        with pytest.raises(NotNormalized):
            hyp_bkc_chain(BesselParams(2.5, 1, 1), PowerSeries((0.0, 2.0)), part="a")


class TestBesselChainStep:
    def test_first_step(self):
        rep = bessel_chain_step(1.5, verify=True, grid=FAST_GRID)
        assert rep.theorem_id == "CorBkcBessel"
        assert rep.applicable
        assert rep.conclusion_check.verdict == "pass"

    def test_below_one_not_applicable(self):
        rep = bessel_chain_step(0.5)
        assert not rep.applicable

    def test_modified_variant(self):
        rep = bessel_chain_step(1.5, c_sign=-1, verify=True, grid=FAST_GRID)
        assert rep.applicable
        assert rep.conclusion_check.verdict == "pass"

    def test_complex_nu_refused(self):
        with pytest.raises(ValueError, match="needs real nu"):
            bessel_chain_step(1.5 + 2j)
        # a zero imaginary part, of either sign, is a real nu
        for nu in (1.5, 1.5 + 0j, complex(1.5, -0.0)):
            assert bessel_chain_step(nu).hypotheses[0].lhs == 1.5


class TestExtremalCurves:
    @pytest.mark.parametrize("kind", ["g1", "g2", "ell1", "ell2"])
    @pytest.mark.parametrize("m", [1.0, 1.5, 2.0, 5.0])
    def test_matches_expected(self, kind, m):
        curve = extremal_curve(kind, m)
        theta_want, value_want = expected_extremum(kind, m)
        delta = abs(curve.extremal_theta - theta_want) % (2.0 * math.pi)
        delta = min(delta, 2.0 * math.pi - delta)
        assert delta < 1e-6
        assert abs(curve.extremal_value - value_want) < 1e-10

    def test_g1_value_formula(self):
        _, v = expected_extremum("g1", 1.0)
        assert v == pytest.approx((1.0 / E - 1.0 / E**2 + 1.0) ** 2)

    def test_g2_value_formula(self):
        _, v = expected_extremum("g2")
        assert v == pytest.approx((E - 1.0) ** 2)

    def test_ell2_equals_g1(self):
        a = extremal_curve("g1", 1.5)
        b = extremal_curve("ell2", 1.5)
        assert a.extremal_value == pytest.approx(b.extremal_value, abs=1e-14)

    def test_ell1_lower_bound(self):
        # sqrt of the minimum is the admissibility distance m + 1 - 1/e
        for m in (1.0, 3.0):
            curve = extremal_curve("ell1", m)
            assert math.sqrt(curve.extremal_value) == pytest.approx(m + 1.0 - 1.0 / E)

    def test_samples_recorded(self):
        curve = extremal_curve("g2", n_samples=256)
        assert len(curve.samples) == 256
        assert 0.0 <= curve.extremal_theta < 2.0 * math.pi

    def test_tiny_negative_theta_reduced(self, monkeypatch):
        # -1e-17 % (2 pi) rounds to exactly 2 pi
        monkeypatch.setattr(
            theorems, "_golden_max", lambda fun, lo, hi, sampled: (-1e-17, fun(0.0))
        )
        curve = extremal_curve("g2", n_samples=256)
        assert 0.0 <= curve.extremal_theta < 2.0 * math.pi

    def test_m_below_one_rejected(self):
        with pytest.raises(ValueError):
            extremal_curve("g1", 0.5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            extremal_curve("g3")


class TestExampleChecks:
    def test_linear_identity_generator(self):
        rep = example_linear_report(
            BesselParams(1.5, 1, 1), identity_series(), alpha=1.0
        ).aux_checks[0]
        assert rep.verdict == "pass"
        assert rep.sup_value < 1e-14

    def test_linear_alpha_validation(self):
        # NaN and infinity ran, the first to a NaN bound and exit 1
        for alpha in (0.3, math.nan, math.inf):
            with pytest.raises(ValueError):
                example_linear_report(BesselParams(1.5, 1, 1), identity_series(), alpha=alpha)

    def test_linear_negative_order_case(self):
        # the order -5/2 function passes the sampled premise with alpha = 1
        rep = example_linear_report(
            BesselParams(-2.5, 1, 1), halfplane_series(), alpha=1.0, grid=FAST_GRID
        ).aux_checks[0]
        assert rep.verdict == "pass"
        assert rep.threshold == pytest.approx(1.0 - 1.0 / E)
        assert rep.margin > 1e-3

    def test_product_identity_generator(self):
        rep = example_product_report(BesselParams(1.5, 1, 1), identity_series()).aux_checks[0]
        assert rep.verdict == "pass"

    def test_product_passes_for_3half(self):
        rep = example_product_report(
            BesselParams(1.5, 1, 1), halfplane_series(), grid=FAST_GRID
        ).aux_checks[0]
        assert rep.verdict == "pass"

    @pytest.mark.parametrize("kind", ["linear", "product"])
    def test_premise_reads_rows_to_two(self, monkeypatch, kind):
        # the premise combines z g'/g and 1 + z g''/g': it runs on rows 0..2
        # and needs row 2
        premises = []

        def spy(w, *args, **kwargs):
            premises.append(w.combine)
            return gft_checks._sweep(w, *args, **kwargs)

        monkeypatch.setattr(theorems, "_sweep", spy)
        params, f = BesselParams(1.5, 1, 1), identity_series()
        if kind == "linear":
            example_linear_report(params, f, alpha=1.0)
        else:
            example_product_report(params, f)
        (ratio,) = premises
        assert ratio.top == 2
        rows = (2.0 + 1.0j, 3.0 - 1.0j, 5.0 + 2.0j)
        assert cmath.isfinite(ratio(*rows))
        with pytest.raises(IndexError):
            ratio(*rows[:2])

    @pytest.mark.parametrize("verify", [True, False])
    @pytest.mark.parametrize("kind", ["linear", "product"])
    def test_report_sweeps_premise_and_conclusion_once(self, monkeypatch, kind, verify):
        # a passing premise sweeps once and its forced conclusion once; the
        # report reuses that conclusion instead of sweeping it again
        calls = []
        real_sweep = gft_checks._sweep

        def counting(*args, **kwargs):
            calls.append(kwargs["class_id"])
            return real_sweep(*args, **kwargs)

        monkeypatch.setattr(gft_checks, "_sweep", counting)
        monkeypatch.setattr(theorems, "_sweep", counting)
        params = BesselParams(1.5, 1, 1)
        if kind == "linear":
            rep = example_linear_report(
                params, halfplane_series(), alpha=1.0, verify=verify, grid=FAST_GRID
            )
        else:
            rep = example_product_report(params, halfplane_series(), verify=verify, grid=FAST_GRID)
        assert rep.applicable
        assert calls == ["custom", "Se"]
        if verify:
            direct = check_class(series_of_vartheta(params), "Se", grid=FAST_GRID)
            assert rep.conclusion_check == direct
        else:
            assert rep.conclusion_check is None

    @pytest.mark.parametrize("kind", ["linear", "product"])
    def test_premise_pass_is_full_plan_report(self, monkeypatch, kind):
        # the premise ratio declares its poles (the zeros of g and z g'), so
        # its pass is decided on the outer circle; every inner circle of the
        # plan samples strictly lower, so a sweep of the whole plan would
        # give the same report
        swept = []
        real_sweep = theorems._sweep

        def spy(w, grid, **kwargs):
            rep = real_sweep(w, grid, **kwargs)
            if kwargs["class_id"] == "custom":
                terms = series_ops._Terms(w.series)
                values = gft_checks._circle_values(
                    w, terms, grid.radii, grid.angles_per_circle
                )
                per_radius = gft_checks._magnitudes(values, use_log=False).max(axis=1)
                swept.append((w.combine.poles, rep, per_radius))
            return rep

        monkeypatch.setattr(theorems, "_sweep", spy)
        params = BesselParams(1.5, 1, 1)
        if kind == "linear":
            example_linear_report(params, halfplane_series(), alpha=1.0)
        else:
            example_product_report(params, halfplane_series())
        (poles, early, per_radius), = swept
        assert poles == (0, 1)
        assert early.passed
        assert per_radius[:-1].max() < per_radius[-1] <= early.sup_value

    def test_product_contrapositive(self):
        # order -1/2: conclusion fails, so the sampled premise must fail too
        p = BesselParams(-0.5, 1, 1)
        rep = example_product_report(p, halfplane_series(), grid=FAST_GRID).aux_checks[0]
        assert rep.verdict == "fail"
        direct = check_class(series_of_vartheta(p), "Se", grid=FAST_GRID)
        assert direct.verdict == "fail"


class TestReportSerialization:
    def test_theorem_json(self):
        rep = hyp_omega_Se(BesselParams(1.5, 1, 1), verify=True, grid=FAST_GRID)
        d = rep.to_json_dict()
        assert d["theorem"] == "ThmOmegaSe"
        assert d["applicable"] is True
        assert {"name", "lhs", "relation", "rhs", "holds", "slack"} == set(
            d["hypotheses"][0]
        )
        assert d["conclusion"]["verdict"] == "pass"
        assert d["aux"][0]["class"] == "bound_quarter"


class TestTheoremTable:
    # `check --theorem NAME ... --json` (no --verify, 1024 angles): exit code,
    # theorem id and (name, relation, lhs, rhs, holds) of every hypothesis,
    # as the per-theorem checkers printed them before the table existed.
    # Arithmetic hypotheses compare exactly; sampled ones (SAMPLED) to 1e-9.
    RECORDED = {
        "Pe": (["--nu", "1", "--b", "0", "--c", "2"], 0, "ThmPe", [
            ("re(kappa) >= |c|/4 + 1", ">=", 1.5, 1.5, True)]),
        "Ke": (["--nu", "1.5", "--b", "1", "--c", "1+0.5j"], 0, "ThmKe", [
            ("c != 0", "!=", 1.118033988749895, 0, True),
            ("re(kappa) >= |c|/4", ">=", 2.5, 0.2795084971874737, True),
            ("|kappa-2| + |c|/(4(e-1)) <= (e^2+e-1)/(e^2(e-1))", "<=",
             0.6626674347351603, 0.7173119901059392, True)]),
        "Se": (["--nu", "2.5", "--b", "1", "--c", "1"], 0, "ThmSe", [
            ("c != 0", "!=", 1, 0, True),
            ("re(kappa) >= |c|/4 + 1", ">=", 3.5, 1.25, True),
            ("|kappa-3| + |c|/(4(e-1)) <= (e^2+e-1)/(e^2(e-1))", "<=",
             0.6454941767173317, 0.7173119901059392, True)]),
        "omega-Se": (["--nu", "1.5", "--b", "1", "--c", "1"], 0, "ThmOmegaSe", [
            ("kappa >= max(|c|/4 + 1, 5|c|/3 + 3/4)", ">=", 2.5, 2.416666666666667, True)]),
        "bkc-chain-a": (["--nu", "2.5", "--b", "1", "--c", "1"], 0, "ThmBkcChain", [
            ("re(kappa) >= max(2, |c|/4 + im(kappa)^2/6 + 3/2)", ">=", 3.5, 2, True),
            ("f is convex (sampled)", ">", 0.0005002501250623848, 0, True),
            # passed from the coefficients: the closed-disk bound, above the
            # grid sweep's refined sup 0.10857057995599648
            ("B[kappa-1] f in Se (sampled)", "<=", 0.12755565087002782, 1, True)]),
        "bkc-chain-b": (["--nu", "0.5", "--b", "1", "--c", "1"], 1, "ThmBkcChain", [
            ("re(kappa) >= max(2, |c|/4 + im(kappa)^2/6 + 3/2)", ">=", 1.5, 2, False)]),
        "bessel-a": (["--nu", "1.2"], 0, "CorBessel_a", [
            ("re(nu) >= -0.75", ">=", 1.2, -0.75, True),
            ("|nu-1| <= 1/e^2 + 3/(4(e-1))", "<=", 0.19999999999999996, 0.5718178133886076,
             True)]),
        "bessel-b": (["--nu", "2+0.1j"], 0, "CorBessel_b", [
            ("re(nu) >= 0.25", ">=", 2, 0.25, True),
            ("|nu-2| <= 1/e^2 + 3/(4(e-1))", "<=", 0.1, 0.5718178133886076, True)]),
        "spherical-a": (["--nu", "0.5"], 0, "CorSpherical_a", [
            ("re(nu) >= -1.25", ">=", 0.5, -1.25, True),
            ("|2nu-1| <= 2/e^2 + 3/(2(e-1))", "<=", 0, 1.1436356267772152, True)]),
        "spherical-b": (["--nu", "-1"], 1, "CorSpherical_b", [
            ("re(nu) >= -0.25", ">=", -1, -0.25, False),
            ("|2nu-3| <= 2/e^2 + 3/(2(e-1))", "<=", 5, 1.1436356267772152, False)]),
        "libera-Ke": (["--nu", "1.5", "--b", "1", "--c", "-1"], 0, "CorLibera", [
            ("c != 0", "!=", 1, 0, True),
            ("re(kappa) >= |c|/4", ">=", 2.5, 0.25, True),
            ("|kappa-2| + |c|/(4(e-1)) <= (e^2+e-1)/(e^2(e-1))", "<=",
             0.6454941767173317, 0.7173119901059392, True)]),
        "libera-Se": (["--nu", "2.5", "--b", "1", "--c", "2"], 1, "CorLibera", [
            ("c != 0", "!=", 2, 0, True),
            ("re(kappa) >= |c|/4 + 1", ">=", 3.5, 1.5, True),
            ("|kappa-3| + |c|/(4(e-1)) <= (e^2+e-1)/(e^2(e-1))", "<=",
             0.7909883534346632, 0.7173119901059392, False)]),
        "chain-bessel": (["--nu", "0.5"], 1, "CorBkcBessel", [
            ("nu >= 1", ">=", 0.5, 1, False)]),
        "ex-linear": (["--nu", "-2.5", "--b", "1", "--c", "1", "--alpha", "1.0"], 0,
                      "Ex_linear", [
            ("sup |(1-a) z g'/g + a (1 + z g''/g') - 1| < a - 1/e", "<",
             0.5301483851509763, 0.6321205588285577, True)]),
        "ex-product": (["--nu", "1.5", "--b", "1", "--c", "1"], 0, "Ex_product", [
            ("sup |(z g'/g)(1 + z g''/g') - 1| < 1/e - 1/e^2 + 1", "<",
             0.3011922128976687, 1.2325441579348295, True)]),
    }
    SAMPLED = {
        "f is convex (sampled)",
        "B[kappa-1] f in Se (sampled)",
        "sup |(1-a) z g'/g + a (1 + z g''/g') - 1| < a - 1/e",
        "sup |(z g'/g)(1 + z g''/g') - 1| < 1/e - 1/e^2 + 1",
    }

    def test_covers_every_cli_theorem(self):
        assert list(self.RECORDED) == list(cli.THEOREMS)

    @pytest.mark.parametrize("name", list(RECORDED))
    def test_hypotheses_match_recorded(self, capsys, name):
        args, code, theorem_id, want = self.RECORDED[name]
        # an unverified CONDITIONS row sweeps nothing, and refuses a grid
        grid = [] if name in theorems.CONDITIONS else ["--grid-angles", "1024"]
        got_code = cli.main(["check", "--theorem", name, *args, *grid, "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert (got_code, doc["theorem"]) == (code, theorem_id)
        keys = ("name", "relation", "lhs", "rhs", "holds")
        got = [tuple(h[k] for k in keys) for h in doc["hypotheses"]]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            if w[0] in self.SAMPLED:
                assert g[:2] == w[:2] and g[3:] == w[3:]
                assert g[2] == pytest.approx(w[2], rel=1e-9)
            else:
                assert g == w

    def test_corollary_hypotheses_precede_parameters(self, capsys):
        # nu = -1 with b = 1 puts kappa on the pole 0: the failed hypotheses
        # must stop the check before BesselParams is built
        rep = hyp_corollaries(-1, "bessel", "a", verify=True)
        assert not rep.applicable
        assert rep.conclusion_check is None
        assert cli.main(["check", "--theorem", "bessel-a", "--nu", "-1", "--verify"]) == 1
        capsys.readouterr()

    def test_table_rows(self):
        assert set(theorems.CONDITIONS) == {
            "Pe", "Ke", "Se", "omega-Se", "bessel-a", "bessel-b",
            "spherical-a", "spherical-b", "libera-Ke", "libera-Se",
        }
        # the ten rows carry nine theorem ids: the Libera rows share CorLibera
        assert len({row.theorem_id for row in theorems.CONDITIONS.values()}) == 9

    def test_cli_reads_the_table(self):
        # every row is one CLI name, run by the one adapter that reads it
        rows = {name for name, adapter in cli.THEOREMS.items() if adapter is cli._condition}
        assert rows == set(theorems.CONDITIONS)
