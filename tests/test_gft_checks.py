import concurrent.futures
import math

import numpy as np
import pytest

from besselstar import (
    AnalyticMap,
    SeriesQuantity,
    b_operator,
    gft_checks,
    normalized_phi_deficit,
    BesselParams,
    DiskGrid,
    NotNormalized,
    OutOfDomain,
    PowerSeries,
    ZeroDenominator,
    alexander,
    check_class,
    check_quarter_bound,
    check_subordinate_exp,
    convex_quantity,
    libera,
    log_bound_lemma_check,
    series_of_phi,
    series_of_vartheta,
    starlike_quantity,
)

import oracles


IDENTITY = PowerSeries((0.0, 1.0) + (0.0,) * 63)


class TestDiskGrid:
    def test_defaults(self):
        g = DiskGrid()
        assert g.radii == (0.5, 0.9, 0.99, 0.999)
        assert g.angles_per_circle == 4096

    def test_circle_shape(self):
        g = DiskGrid(radii=(0.5,), angles_per_circle=8)
        zs = g.circle(0.5)
        assert zs.shape == (8,)
        assert np.allclose(np.abs(zs), 0.5)

    @pytest.mark.parametrize(
        "radii", [(), (0.0, 0.5), (0.5, 0.5), (0.9, 0.5), (0.5, 1.0)]
    )
    def test_bad_radii(self, radii):
        with pytest.raises(ValueError):
            DiskGrid(radii=radii)

    def test_bad_angles(self):
        with pytest.raises(ValueError):
            DiskGrid(angles_per_circle=0)


class TestQuantities:
    def test_starlike_identity(self):
        for z in (0, 0.5, -0.3 + 0.4j):
            assert starlike_quantity(IDENTITY, z) == 1

    def test_starlike_zero_denominator(self):
        # f = z - z^2/... choose f with a zero inside: f(z) = z(1 - z/0.5)
        f = PowerSeries((0.0, 1.0, -2.0))
        with pytest.raises(ZeroDenominator):
            starlike_quantity(f, 0.5)

    def test_starlike_bessel_form_bounded(self):
        v = series_of_vartheta(BesselParams(1.5, 1, 1))
        grid = DiskGrid()
        for r in grid.radii:
            for z in grid.circle(r)[::512]:
                w = starlike_quantity(v, complex(z))
                assert abs(np.log(w)) < 1.0

    def test_starlike_counterexample_exceeds(self):
        v = series_of_vartheta(BesselParams(-0.5, 1, 1))  # z cos(sqrt z)
        z = 0.999
        w = starlike_quantity(v, z)
        assert abs(np.log(w)) > 1.0

    def test_convex_identity(self):
        for z in (0, 0.7, 0.2 - 0.6j):
            assert convex_quantity(IDENTITY, z) == 1

    def test_convex_closed_form_agreement(self):
        # 1 + z f''/f' for f built on the order-1/2 normalized function equals
        # ((1-z) sin w - w cos w) / (2 w cos w - 2 sin w), w = sqrt z
        import mpmath as mp

        phi = series_of_phi(BesselParams(0.5, 1, 1), 64)
        f = PowerSeries((0.0,) + tuple(-6.0 * phi.coefficient(n) for n in range(1, 65)))
        rng = np.random.default_rng(43)
        for z in oracles.disk_points(rng, 12, rmin=0.05, rmax=0.95):
            z = complex(z)
            w = mp.sqrt(z)
            want = complex(
                ((1 - mp.mpmathify(z)) * mp.sin(w) - w * mp.cos(w))
                / (2 * w * mp.cos(w) - 2 * mp.sin(w))
            )
            got = convex_quantity(f, z)
            assert abs(got - want) < 1e-10

    def test_convex_zero_denominator(self):
        f = PowerSeries((0.0, 1.0, -1.0))  # f' = 1 - 2z vanishes at 1/2
        with pytest.raises(ZeroDenominator):
            convex_quantity(f, 0.5)


class TestCheckSubordinateExp:
    def test_constant_one_passes(self):
        rep = check_subordinate_exp(lambda zs: np.ones_like(zs))
        assert rep.verdict == "pass"
        assert rep.sup_value == 0.0
        assert rep.margin == 1.0

    def test_exp_105_fails(self):
        rep = check_subordinate_exp(lambda zs: np.exp(1.05 * zs))
        assert rep.verdict == "fail"
        assert rep.sup_value > 1.0

    def test_phi_example_passes(self):
        rep = check_subordinate_exp(series_of_phi(BesselParams(1, 0, 2)))
        assert rep.verdict == "pass"
        assert rep.margin > 0.5

    def test_negative_real_part_fails(self):
        rep = check_subordinate_exp(lambda zs: 1.0 - 1.5 * zs)  # re w <= 0 for z near 1
        assert rep.verdict == "fail"

    def test_center_normalization_enforced(self):
        with pytest.raises(NotNormalized):
            check_subordinate_exp(lambda zs: 0.2 - zs)

    def test_report_json_shape(self):
        rep = check_subordinate_exp(series_of_phi(BesselParams(1, 0, 2)))
        d = rep.to_json_dict()
        assert set(d) == {"class", "verdict", "sup", "witness", "margin", "grid"}
        assert set(d["grid"]) == {"radii", "angles"}
        assert isinstance(d["witness"], list) and len(d["witness"]) == 2

    def test_guard_band_inconclusive(self):
        # sup = c * 0.999 = 0.9999997 sits inside the default guard band below 1
        c = 0.9999997 / 0.999
        rep = check_subordinate_exp(lambda zs: np.exp(c * zs))
        assert rep.verdict == "inconclusive"
        assert 1.0 - 1e-6 <= rep.sup_value < 1.0

    def test_witness_near_argmax(self):
        # |log w| = 0.3 |z + z^2/2| peaks on the positive real axis
        rep = check_subordinate_exp(lambda zs: np.exp(0.3 * (zs + zs * zs / 2.0)))
        assert abs(abs(rep.witness) - 0.999) < 1e-12
        assert abs(rep.witness.imag) < 1e-6
        want = 0.3 * (0.999 + 0.999**2 / 2.0)
        assert rep.sup_value == pytest.approx(want, abs=1e-9)


class TestCheckClass:
    def test_identity_starlike(self):
        rep = check_class(IDENTITY, "Se")
        assert rep.verdict == "pass"
        assert rep.sup_value < 1e-15  # z * 1/z up to rounding

    def test_bessel_52_starlike(self):
        rep = check_class(series_of_vartheta(BesselParams(2.5, 1, 1)), "Se")
        assert rep.verdict == "pass"

    def test_counterexample_fails(self):
        # z (cos sqrt z + sqrt z sin sqrt z) is not even univalent
        rep = check_class(series_of_vartheta(BesselParams(-1.5, 1, 1)), "Se")
        assert rep.verdict == "fail"

    def test_not_normalized_rejected(self):
        with pytest.raises(NotNormalized):
            check_class(PowerSeries((0.0, 0.0, 1.0)), "Se")

    def test_bad_class_id(self):
        with pytest.raises(ValueError):
            check_class(IDENTITY, "Pe")

    def test_accepts_analytic_map(self):
        fmap = AnalyticMap(lambda z: z, lambda z: np.ones_like(z), lambda z: np.zeros_like(z))
        rep = check_class(fmap, "Ke")
        assert rep.verdict == "pass"

    def test_alexander_duality_consistency(self):
        # convexity of f and starlikeness of z f' must agree
        cases = [
            series_of_vartheta(BesselParams(1.5, 1, 1)),
            series_of_vartheta(BesselParams(2.5, 1, -1)),
        ]
        for f in cases:
            ke = check_class(f, "Ke")
            se = check_class(alexander(f, "to_starlike"), "Se")
            assert ke.verdict == se.verdict

    def test_libera_closure_spot_check(self):
        for params in (BesselParams(1.5, 1, 1), BesselParams(2.5, 1, 1)):
            v = series_of_vartheta(params)
            assert check_class(v, "Se").verdict == "pass"
            assert check_class(libera(v), "Se").verdict == "pass"


class TestMonotonicity:
    def test_per_radius_sup_nondecreasing(self):
        functions = [
            series_of_phi(BesselParams(1, 0, 2)),
            series_of_phi(BesselParams(8, 0, 30)),
        ]
        for s in functions:
            sups = []
            for r in (0.3, 0.5, 0.7, 0.9, 0.99):
                rep = check_subordinate_exp(s, grid=DiskGrid(radii=(r,)))
                sups.append(rep.sup_value)
            assert all(sups[i] <= sups[i + 1] + 1e-9 for i in range(len(sups) - 1))

    def test_positive_real_part_on_pass(self):
        s = series_of_phi(BesselParams(1, 0, 2))
        assert check_subordinate_exp(s).verdict == "pass"
        grid = DiskGrid()
        for r in grid.radii:
            assert (s.eval(grid.circle(r)).real > 0).all()


class TestQuarterBound:
    def test_zero_function_passes(self):
        rep = check_quarter_bound(lambda zs: np.zeros_like(zs))
        assert rep.verdict == "pass"
        assert rep.sup_value == 0.0
        assert rep.threshold == 0.25

    def test_z_over_three_fails(self):
        rep = check_quarter_bound(lambda zs: zs / 3.0)
        assert rep.verdict == "fail"
        assert rep.sup_value > 0.25

    def test_bessel_ratio_passes(self):
        phi = series_of_phi(BesselParams(1.5, 1, 1))  # kappa = 5/2
        d1 = phi.differentiate()
        rep = check_quarter_bound(lambda zs: zs * d1.eval(zs) / phi.eval(zs))
        assert rep.verdict == "pass"

    def test_zero_denominator_raises(self):
        def p(zs):
            return zs / (zs - 0.5)

        with pytest.raises(ZeroDenominator):
            check_quarter_bound(p, grid=DiskGrid(radii=(0.5,), angles_per_circle=4))


class TestLogBoundLemma:
    def test_at_zero(self):
        assert log_bound_lemma_check(0.0)

    def test_positive_end(self):
        assert log_bound_lemma_check(0.49)  # |log 1.49| ~ 0.3988 <= 0.735

    def test_negative_end(self):
        assert log_bound_lemma_check(-0.49)  # |log 0.51| ~ 0.6733 <= 0.735

    def test_random_complex(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            w = complex(*rng.uniform(-0.35, 0.35, 2))
            if abs(w) < 0.5:
                assert log_bound_lemma_check(w)

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            log_bound_lemma_check(0.5)


class TestConcurrency:
    def test_parallel_checks_deterministic(self):
        v = series_of_vartheta(BesselParams(1.5, 1, 1))
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            reports = list(pool.map(lambda _: check_class(v, "Se"), range(8)))
        first = reports[0]
        for rep in reports[1:]:
            assert rep == first


class TestSweepKernel:
    @pytest.mark.parametrize("value", [0j, complex(math.inf, 0), complex(-math.inf, 1),
                                       complex(0, math.inf), complex(math.nan, 0)])
    def test_log_magnitude_unbounded(self, value):
        assert gft_checks._magnitude(value, use_log=True) == math.inf
        assert gft_checks._magnitudes(np.array([value]), use_log=True)[0] == math.inf

    @pytest.mark.parametrize("value", [complex(math.inf, 0), complex(math.nan, 1)])
    def test_modulus_unbounded(self, value):
        assert gft_checks._magnitude(value, use_log=False) == math.inf
        assert gft_checks._magnitudes(np.array([value]), use_log=False)[0] == math.inf

    def test_magnitudes_match_complex_log(self):
        rng = np.random.default_rng(59)
        w = rng.normal(size=4096) + 1j * rng.normal(size=4096)
        got = gft_checks._magnitudes(w, use_log=True)
        assert np.max(np.abs(got - np.abs(np.log(w)))) < 1e-15 * 4
        for v in w[:64]:
            assert abs(gft_checks._magnitude(complex(v), True) - abs(np.log(v))) < 4e-15

    def test_probe_count_per_sweep(self, monkeypatch):
        # golden section from a bracket of two grid steps (2 * 2 pi / 4096)
        # down to 1e-13: 2 initial probes, 51 iterations, 1 midpoint.
        counts = []
        real_golden = gft_checks._golden_max

        def counting(fun, lo, hi, *args, **kwargs):
            calls = []

            def counted(t):
                calls.append(t)
                return fun(t)

            out = real_golden(counted, lo, hi, *args, **kwargs)
            counts.append(len(calls))
            return out

        monkeypatch.setattr(gft_checks, "_golden_max", counting)
        check_class(series_of_vartheta(BesselParams(2.5, 1, 1)), "Se")
        check_class(series_of_vartheta(BesselParams(2.5, 1, 1)), "Ke")
        check_subordinate_exp(lambda zs: np.exp(0.3 * zs))
        assert counts == [54, 54, 54]

    def test_series_and_map_agree(self):
        v = series_of_vartheta(BesselParams(1.5, 1, -1))
        for class_id in ("Se", "Ke"):
            via_series = check_class(v, class_id)
            via_map = check_class(AnalyticMap(v.eval, v.differentiate().eval,
                                              v.differentiate().differentiate().eval), class_id)
            assert via_series.verdict == via_map.verdict
            assert abs(via_series.sup_value - via_map.sup_value) < 1e-12

    def test_grid_point_witness(self):
        # a failing sample is reported at its grid point
        rep = check_class(series_of_vartheta(BesselParams(-1.5, 1, 1)), "Se")
        assert rep.verdict == "fail"
        n = rep.grid.angles_per_circle
        k = round(np.angle(rep.witness) / (2 * math.pi / n)) % n
        r = abs(rep.witness)
        assert min(abs(r - x) for x in rep.grid.radii) < 1e-15
        assert abs(rep.witness - rep.grid.circle(r)[k]) < 1e-15

    def test_quarter_bound_series_quantity(self):
        phi = series_of_phi(BesselParams(1.5, 1, 1))
        d1 = phi.differentiate()
        rows = check_quarter_bound(SeriesQuantity(phi, lambda f, zf1, zzf2: zf1 / f))
        direct = check_quarter_bound(lambda zs: zs * d1.eval(zs) / phi.eval(zs))
        assert rows.verdict == direct.verdict == "pass"
        assert abs(rows.sup_value - direct.sup_value) < 1e-12

    def test_quarter_bound_series_zero_denominator(self):
        # phi = 1 - 2z vanishes at z = 1/2, a grid point
        phi = PowerSeries((1.0, -2.0))
        with pytest.raises(ZeroDenominator):
            check_quarter_bound(
                SeriesQuantity(phi, lambda f, zf1, zzf2: zf1 / f),
                grid=DiskGrid(radii=(0.5,), angles_per_circle=4),
            )


def _oracle_battery():
    """(series, quantity) pairs: criterion-6 style draws at order 64 for the
    five verified conditions (applicable or not), plus degree-400 series."""
    rng = np.random.default_rng(61)
    out = []
    halfplane = PowerSeries((0.0,) + (1.0,) * 64)
    while len(out) < 30:
        b = rng.uniform(-1, 2)
        c = rng.uniform(0.05, 4.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        kap = complex(rng.uniform(1.2, 6), rng.uniform(-2, 2))
        params = BesselParams(kap - (b + 1) / 2, b, c)
        phi = series_of_phi(params, 64)
        h = [0j] * 130
        h[1::2] = phi.coeffs
        out += [
            (phi, "Pe"),
            (normalized_phi_deficit(params, 64), "Ke"),
            (series_of_vartheta(params, 64), "Se"),
            (PowerSeries(tuple(h)), "Se"),
            (b_operator(params, halfplane), "Se"),
        ]
    n = np.arange(2, 401)
    for p in (1.6, 1.9):
        u = np.sqrt(rng.uniform(0, 1, n.size)) * np.exp(1j * rng.uniform(0, 2 * np.pi, n.size))
        f = PowerSeries((0.0, 1.0) + tuple(0.2 * u / n**p))
        out += [(libera(f), "Se"), (libera(f), "Ke"), (alexander(f, "to_starlike"), "Se")]
    out.append((series_of_vartheta(BesselParams(2.5, 1, 1), 400), "Ke"))
    return out


class TestHornerOracle:
    def test_battery_matches_reference(self):
        verdicts = set()
        for series, quantity in _oracle_battery():
            if quantity == "Pe":
                rep = check_subordinate_exp(series)
            else:
                rep = check_class(series, quantity)
            verdict, sup = oracles.horner_sweep(series.coeffs, quantity)
            assert rep.verdict == verdict, (quantity, series.order)
            if math.isfinite(sup):
                assert abs(rep.sup_value - sup) <= 1e-10, (quantity, rep.sup_value, sup)
            else:
                assert rep.sup_value == sup
            verdicts.add(verdict)
        assert verdicts == {"pass", "fail"}
