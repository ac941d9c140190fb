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
    example_linear_check,
    example_linear_report,
    example_product_check,
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
from besselstar import gft_checks, theorems

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

    def test_low_kappa_not_applicable(self):
        rep = hyp_bkc_chain(BesselParams(0.5, 1, 1), identity_series(), part="a")
        assert not rep.applicable
        assert len(rep.hypotheses) == 1  # later premises not evaluated

    def test_part_b(self):
        p = BesselParams(2.5, 1, 1)
        rep = hyp_bkc_chain(p, identity_series(), part="b", verify=True, grid=FAST_GRID)
        assert rep.applicable
        assert rep.conclusion_check.verdict == "pass"

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

    def test_m_below_one_rejected(self):
        with pytest.raises(ValueError):
            extremal_curve("g1", 0.5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            extremal_curve("g3")


class TestExampleChecks:
    def test_linear_identity_generator(self):
        rep = example_linear_check(BesselParams(1.5, 1, 1), identity_series(), alpha=1.0)
        assert rep.verdict == "pass"
        assert rep.sup_value < 1e-14

    def test_linear_alpha_validation(self):
        with pytest.raises(ValueError):
            example_linear_check(BesselParams(1.5, 1, 1), identity_series(), alpha=0.3)

    def test_linear_negative_order_case(self):
        # the order -5/2 function passes the sampled premise with alpha = 1
        rep = example_linear_check(
            BesselParams(-2.5, 1, 1), halfplane_series(), alpha=1.0, grid=FAST_GRID
        )
        assert rep.verdict == "pass"
        assert rep.threshold == pytest.approx(1.0 - 1.0 / E)
        assert rep.margin > 1e-3

    def test_product_identity_generator(self):
        rep = example_product_check(BesselParams(1.5, 1, 1), identity_series())
        assert rep.verdict == "pass"

    def test_product_passes_for_3half(self):
        rep = example_product_check(
            BesselParams(1.5, 1, 1), halfplane_series(), grid=FAST_GRID
        )
        assert rep.verdict == "pass"

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

    def test_product_contrapositive(self):
        # order -1/2: conclusion fails, so the sampled premise must fail too
        p = BesselParams(-0.5, 1, 1)
        rep = example_product_check(p, halfplane_series(), grid=FAST_GRID)
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

    def test_unknown_theorem_id_rejected(self):
        from besselstar import TheoremReport

        with pytest.raises(ValueError):
            TheoremReport("ThmBogus", (), True)
