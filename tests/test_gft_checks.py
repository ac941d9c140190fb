import cmath
import concurrent.futures
import fractions
import json
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from besselstar import (
    AnalyticMap,
    SeriesQuantity,
    b_operator,
    gft_checks,
    normalized_phi_deficit,
    series_ops,
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
    eval_rows,
    libera,
    log_bound_lemma_check,
    series_of_phi,
    series_of_vartheta,
    starlike_quantity,
)

import oracles


IDENTITY = PowerSeries((0.0, 1.0) + (0.0,) * 63)

# z/(1 - z) truncated at degree 64
HALFPLANE = PowerSeries((0.0,) + (1.0,) * 64)


def exp_series(h, order=48):
    """The series of exp(h(z)) for a polynomial h = (0, h_1, h_2, ...).

    From w' = h' w: n a_n = sum_k k h_k a_{n-k}.
    """
    a = [1.0 + 0.0j]
    for n in range(1, order + 1):
        a.append(sum(k * h[k] * a[n - k] for k in range(1, min(n, len(h) - 1) + 1)) / n)
    return PowerSeries(tuple(a))


def grid_sweep(w, class_id, grid=None):
    """The sampled sweep a check falls back to when neither proof stage passes it.

    w is a PowerSeries read through the class ratio (class_id "Pe", "Se" or
    "Ke", threshold 1 on |log w|), or for class_id "quarter" a
    SeriesQuantity under the quarter bound's threshold 1/4 on |w|.
    """
    grid = grid or DiskGrid()
    if class_id == "quarter":
        terms = series_ops._Terms(w.series)
        return gft_checks._sampled_sweep(w, terms, grid, 0.25, "bound_quarter", False)
    quantity = gft_checks._quantity(w, class_id)
    terms = series_ops._Terms(quantity.series)
    return gft_checks._sampled_sweep(quantity, terms, grid, 1.0, class_id, True)


def pole_map(z):
    # 0.001 z / (z - 0.995): below 1/4 on every grid circle, but with a pole
    # inside |z| = 0.999
    return 0.001 * z / (z - 0.995)


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

    @pytest.mark.parametrize(
        "coeffs,want",
        [
            ((1.0, 1.0), 0.0),  # f(0) != 0: z f'/f -> 0
            ((1e-15, 1.0), 1.0),  # f(0) below ZERO_TOL counts as 0
            ((0.0, 2.0, 1.0), 1.0),  # simple zero, not normalized
            ((0.0, 1e-15, 1.0), None),  # f(0) = f'(0) = 0 up to ZERO_TOL
        ],
    )
    def test_starlike_limit_at_zero(self, coeffs, want):
        f = PowerSeries(coeffs)
        if want is None:
            with pytest.raises(ZeroDenominator):
                starlike_quantity(f, 0)
        else:
            assert starlike_quantity(f, 0) == want
            assert abs(starlike_quantity(f, 1e-9) - want) < 1e-5  # the limit

    @pytest.mark.parametrize(
        "coeffs,want",
        [
            ((1.0, 3.0, 1.0), 1.0),  # f'(0) != 0, whatever f(0)
            ((0.0, 1e-15, 1.0), None),  # f'(0) below ZERO_TOL
        ],
    )
    def test_convex_limit_at_zero(self, coeffs, want):
        f = PowerSeries(coeffs)
        if want is None:
            with pytest.raises(ZeroDenominator):
                convex_quantity(f, 0)
        else:
            assert convex_quantity(f, 0) == want
            assert abs(convex_quantity(f, 1e-9) - want) < 1e-5  # the limit

    def test_normalized_limit_is_exactly_one(self):
        for f in (IDENTITY, series_of_vartheta(BesselParams(2.5, 1, 1)), HALFPLANE):
            assert starlike_quantity(f, 0) == 1
            assert convex_quantity(f, 0) == 1

    @pytest.mark.parametrize("z", [1e-15, 1e-30, -1e-15j, 1e-30 - 1e-30j])
    def test_ratios_near_zero(self, z):
        # f and z f' of a normalized f are O(|z|): both ratios are about 1
        # there, not a vanishing denominator
        for f in (PowerSeries((0.0, 1.0, 0.5)), HALFPLANE):
            assert abs(starlike_quantity(f, z) - 1) < 1e-12
            assert abs(convex_quantity(f, z) - 1) < 1e-12

    def test_zero_away_from_centre_still_raises(self):
        with pytest.raises(ZeroDenominator):
            starlike_quantity(PowerSeries((0.0, 1.0, -1.0)), 1.0)


class TestCheckSubordinateExp:
    def test_constant_one_passes(self):
        rep = check_subordinate_exp(PowerSeries((1.0,) + (0.0,) * 64))
        assert rep.verdict == "pass"
        assert rep.sup_value == 0.0
        assert rep.margin == 1.0

    def test_exp_105_fails(self):
        rep = check_subordinate_exp(exp_series((0.0, 1.05)))
        assert rep.verdict == "fail"
        assert rep.sup_value > 1.0

    def test_phi_example_passes(self):
        rep = check_subordinate_exp(series_of_phi(BesselParams(1, 0, 2)))
        assert rep.verdict == "pass"
        assert rep.margin > 0.5

    def test_negative_real_part_fails(self):
        rep = check_subordinate_exp(PowerSeries((1.0, -1.5)))  # re w <= 0 for z near 1
        assert rep.verdict == "fail"

    def test_center_normalization_enforced(self):
        with pytest.raises(NotNormalized):
            check_subordinate_exp(PowerSeries((0.2, -1.0)))

    def test_report_json_shape(self):
        rep = check_subordinate_exp(series_of_phi(BesselParams(1, 0, 2)))
        d = rep.to_json_dict()
        assert set(d) == {"class", "verdict", "evidence", "sup", "witness", "margin", "grid"}
        assert set(d["grid"]) == {"radii", "angles"}
        # a pass proven from the coefficients reads no sample
        assert d["evidence"] == "coefficients" and d["witness"] is None
        d = grid_sweep(series_of_phi(BesselParams(1, 0, 2)), "Pe").to_json_dict()
        assert d["evidence"] == "samples"
        assert isinstance(d["witness"], list) and len(d["witness"]) == 2

    def test_guard_band_inconclusive(self):
        # sup = c * 0.999 = 0.9999997 sits inside the default guard band below 1
        c = 0.9999997 / 0.999
        rep = check_subordinate_exp(exp_series((0.0, c)))
        assert rep.verdict == "inconclusive"
        assert 1.0 - 1e-6 <= rep.sup_value < 1.0

    def test_witness_near_argmax(self):
        # |log w| = 0.3 |z + z^2/2| peaks on the positive real axis
        rep = grid_sweep(exp_series((0.0, 0.3, 0.15)), "Pe")
        assert abs(abs(rep.witness) - 0.999) < 1e-12
        assert abs(rep.witness.imag) < 1e-6
        want = 0.3 * (0.999 + 0.999**2 / 2.0)
        assert rep.sup_value == pytest.approx(want, abs=1e-9)
        # the coefficients pass it on the closed disk, where the sup is 0.45
        proven = check_subordinate_exp(exp_series((0.0, 0.3, 0.15)))
        assert proven.evidence == "coefficients" and proven.witness is None
        assert proven.sup_value >= want


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

    @pytest.mark.parametrize("class_id", ["Se", "Ke"])
    def test_value_only_map_rejected(self, class_id):
        # a bare callable has no coefficients to certify a pass with, even
        # f = z, which is in both classes
        with pytest.raises(TypeError, match="PowerSeries"):
            check_class(lambda z: z, class_id)

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
        rep = check_quarter_bound(PowerSeries((0.0,) * 65))
        assert rep.verdict == "pass"
        assert rep.sup_value == 0.0
        assert rep.threshold == 0.25

    def test_z_over_three_fails(self):
        rep = check_quarter_bound(PowerSeries((0.0, 1.0 / 3.0)))
        assert rep.verdict == "fail"
        assert rep.sup_value > 0.25

    def test_bessel_ratio_passes(self):
        phi = series_of_phi(BesselParams(1.5, 1, 1))  # kappa = 5/2
        rep = check_quarter_bound(SeriesQuantity(phi, gft_checks.RATIOS["Se"]))
        assert rep.verdict == "pass"

    def test_zero_denominator_fails(self):
        # z / (z - 1/2), with f = z - 1/2 and z f' = z: a pole at a grid
        # point, whose non-finite sample fails the check there
        ratio = gft_checks.Ratio(lambda f, zf1, zzf2: zf1 / f, (0, 1), zeros=(), poles=((0,),))
        p = SeriesQuantity(PowerSeries((-0.5, 1.0)), ratio)
        rep = check_quarter_bound(p, grid=DiskGrid(radii=(0.5,), angles_per_circle=4))
        assert rep.verdict == "fail" and rep.evidence == "samples"
        assert rep.witness == 0.5

    def test_pole_inside_fails(self):
        # pole_map as a series ratio: the pole factor z - 0.995 winds once
        # around 0 on the outer circle, so the sweep fails though every
        # sample lies below the bound
        ratio = gft_checks.Ratio(
            lambda f, zf1, zzf2: 0.001 * zf1 / f, (0, 1), zeros=(), poles=((0,),)
        )
        rep = check_quarter_bound(SeriesQuantity(PowerSeries((-0.995, 1.0)), ratio))
        assert rep.verdict == "fail"
        assert rep.sup_value < 0.25 - gft_checks.GUARD_DEFAULT


class TestQuantityModel:
    """One quantity form: a PowerSeries read through a Ratio that states its factors."""

    @pytest.mark.parametrize("as_map", [False, True])
    @pytest.mark.parametrize(
        "check,shift",
        [
            (check_quarter_bound, 0.0),
            (check_subordinate_exp, 1.0),
            (lambda f: check_class(f, "Se"), 0.0),
            (lambda f: check_class(f, "Ke"), 0.0),
            (lambda f: starlike_quantity(f, 0.5), 0.0),
            (lambda f: convex_quantity(f, 0.5), 0.0),
        ],
        ids=["quarter", "subordinate", "Se", "Ke", "starlike", "convex"],
    )
    def test_maps_and_callables_are_refused(self, check, shift, as_map):
        # a closed-form function has no coefficients to certify a pass with:
        # the samples of pole_map stay below 1/4 and those of |log(1 +
        # pole_map)| below 1, so a sweep of its values alone passes both
        def f(z):
            return shift + pole_map(z)

        if as_map:
            f = AnalyticMap(f, lambda z: -0.000995 / (z - 0.995) ** 2,
                            lambda z: 0.00199 / (z - 0.995) ** 3)
        with pytest.raises(TypeError, match="PowerSeries"):
            check(f)

    def test_plain_combine_is_refused(self):
        # a Ratio names its rows and factors; a plain function names neither,
        # and a Ratio needs both kinds of factor stated
        with pytest.raises(TypeError, match="PowerSeries"):
            SeriesQuantity(IDENTITY, lambda f, zf1, zzf2: zf1 / f)
        with pytest.raises(TypeError):
            gft_checks.Ratio(lambda f, zf1, zzf2: zf1 / f, (0, 1))
        with pytest.raises(TypeError, match="PowerSeries"):
            gft_checks._quantity(3.0, "Pe")

    def test_constant_map_subordinate(self):
        # a degree-0 series: w = 1 has |log w| = 0 everywhere
        rep = check_subordinate_exp(PowerSeries((1.0,)))
        assert rep.verdict == "pass"
        assert rep.sup_value == 0.0

    def test_constant_map_quarter_bound(self):
        rep = check_quarter_bound(PowerSeries((0.0,)))
        assert rep.verdict == "pass"
        assert rep.sup_value == 0.0
        zero = SeriesQuantity(PowerSeries((0.0,)), gft_checks.RATIOS["Pe"])
        assert check_quarter_bound(zero) == rep


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

    @pytest.mark.parametrize("w", [0.0, 0.49, -0.49, 0.3 - 0.35j])
    def test_python_bool(self, w):
        # the bound holds on all of |w| < 1/2 (there |log(1+w)| <= -log(1-|w|)
        # <= 1.39 |w|), so every in-domain value reads True
        result = log_bound_lemma_check(w)
        assert result is True
        assert json.dumps({"holds": result}) == '{"holds": true}'


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
        # Brent's search on a bracket of two grid steps (2 * 2 pi / 4096),
        # starting from the sampled heights at the grid argmax (the bracket
        # centre) and at the two bracket ends.  It stops once the best probe
        # is within 2 * THETA_TOL of both ends, or at rounding: both end
        # heights within HEIGHT_ROUNDING (4 eps for heights below 1) of the
        # best one and the bracket at most NARROW_BRACKET (64) times the best
        # probe's distance to its nearer end.  The Se and Ke heights of a
        # real-coefficient series are even in theta, so they peak at that
        # centre: one golden-section probe 0.38 of a step to its left, then
        # a parabolic step through the three points that lands on the
        # centre and is pushed THETA_TOL to its right.  For Ke that probe
        # reads the sampled peak to the last bit, so it becomes the best
        # point with the centre as the left end, and one probe at 2
        # THETA_TOL, lower, closes the bracket: 3 probes.  For Se it too
        # reads the sampled peak, but the probe at 2 THETA_TOL reads two
        # ulps above it and becomes the best point, one THETA_TOL from the
        # left end; nine golden-section steps then bring the right end in
        # from a grid step to 39322, 15021, 5739, 2193, 839, 322, 124, 48.6
        # and 19.8 THETA_TOL right of the centre, where its height is 1e-16
        # below the best and the bracket is 18.8 THETA_TOL wide: the
        # rounding stop, 12 probes.  These counts follow the last bits of
        # the probed heights: the phased-exponential probe the Taylor table
        # replaced read one ulp low at THETA_TOL, closed the right side
        # instead and stopped after 5 (over the 1,323 refined sweeps of the
        # soundness and high-order pools of seeds 201 and 73, the Taylor
        # probe spends 5.74 probes per sweep, the phased one 5.82).
        # |log exp(0.3 z)| = 0.3 r is constant on the circle, so the sampled
        # heights of its degree-48 series at the centre and both ends agree
        # to 5.6e-16 and the centred bracket stops before any probe: 0.
        # The golden-section search Brent replaced made 54 probes on each.
        counts = []
        real_golden = gft_checks._golden_max

        def counting(fun, lo, hi, sampled):
            calls = []

            def counted(t):
                calls.append(t)
                return fun(t)

            out = real_golden(counted, lo, hi, sampled)
            counts.append(len(calls))
            return out

        monkeypatch.setattr(gft_checks, "_golden_max", counting)
        cases = [
            (series_of_vartheta(BesselParams(2.5, 1, 1)), "Se"),
            (series_of_vartheta(BesselParams(2.5, 1, 1)), "Ke"),
            (exp_series((0.0, 0.3)), "Pe"),
        ]
        sampled = [grid_sweep(f, class_id) for f, class_id in cases]
        assert counts == [12, 3, 0]
        # the public checks pass all three from the coefficients: no probe
        for (f, class_id), rep in zip(cases, sampled):
            proven = _public_check(f, class_id)
            assert proven.evidence == "coefficients"
            assert proven.sup_value >= rep.sup_value
        assert counts == [12, 3, 0]

    @pytest.mark.parametrize("class_id", ["Pe", "Se", "Ke"])
    def test_ratio_rows_are_rows_of_full_call(self, class_id):
        # Pe reads f, Se f and z f', Ke z f' and z^2 f''
        rows = gft_checks.RATIOS[class_id].rows
        assert rows == {"Pe": (0,), "Se": (0, 1), "Ke": (1, 2)}[class_id]
        rng = np.random.default_rng(67)
        radii = np.array([0.5, 0.999])
        for degree, angles in ((64, 4096), (64, 8), (400, 8)):
            f = PowerSeries(tuple(rng.normal(size=(degree + 1, 2)) @ [1.0, 1j]))
            subset = series_ops._circle_rows(series_ops._Terms(f), radii, angles, rows)
            assert subset.tobytes() == eval_rows(f, radii, angles)[list(rows)].tobytes()
            z = 0.999 * complex(math.cos(0.3), math.sin(0.3))
            full = eval_rows(f, z)
            assert series_ops._horner_rows(f, z, rows) == tuple(full[i] for i in rows)

    def test_one_transform_per_series_sweep(self, monkeypatch):
        # One inverse FFT per sweep, of only the rows the ratio reads: Pe
        # reads f (1 row), Se and Ke two rows.  These three pass early: the
        # outermost circle passes and the winding certificate of the ratio's
        # factors holds on it, so that circle (1 radius) is the only one
        # transformed.  A sweep whose certificate does not hold there
        # transforms its outer circle alone too (2 rows, 1 radius), and the
        # other radii of the plan follow in one transform (2 rows, 3 radii).
        shapes = []
        real_ifft = np.fft.ifft

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a)[:-1])
            return real_ifft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "ifft", spy)
        params = BesselParams(2.5, 1, 1)
        grid = DiskGrid()
        radii = len(grid.radii)
        grid_sweep(series_of_phi(params), "Pe", grid)
        assert shapes == [(1, 1)]
        for class_id in ("Se", "Ke"):
            shapes.clear()
            grid_sweep(series_of_vartheta(params), class_id, grid)
            assert shapes == [(2, 1)]
        # the public checks pass all three from the coefficients: no transform
        shapes.clear()
        proven = [check_subordinate_exp(series_of_phi(params), grid=grid)] + [
            check_class(series_of_vartheta(params), class_id, grid=grid)
            for class_id in ("Se", "Ke")
        ]
        assert shapes == []
        assert all(rep.evidence == "coefficients" for rep in proven)
        # the grid sweep of a failing series (the public check first tries
        # the closed disk on |z| = 1, and falls back to this same sweep)
        shapes.clear()
        failing = grid_sweep(series_of_vartheta(BesselParams(-1.5, 1, 1)), "Se", grid)
        assert failing.verdict == "fail"
        assert shapes == [(2, 1), (2, radii - 1)]

    def test_refined_sup_not_below_samples(self):
        for series, quantity in _oracle_battery():
            grid = DiskGrid()
            if quantity == "Pe":
                rep = check_subordinate_exp(series, grid=grid)
            else:
                rep = check_class(series, quantity, grid=grid)
            terms = series_ops._Terms(series)
            w = gft_checks._quantity(series, quantity)
            values, _ = gft_checks._circle_values(w, terms, grid.radii, grid.angles_per_circle)
            sampled = gft_checks._magnitudes(values, use_log=True).max(axis=1)
            assert rep.sup_value >= sampled.max(), quantity

    def test_series_and_map_agree(self):
        # the sweep's transformed rows against the same function evaluated
        # pointwise, by numpy's polyval on every circle (the Horner oracle)
        v = series_of_vartheta(BesselParams(1.5, 1, -1))
        for class_id in ("Se", "Ke"):
            via_series = grid_sweep(v, class_id)
            verdict, sup = oracles.horner_sweep(v.coeffs, class_id)
            assert via_series.verdict == verdict == "pass"
            assert abs(via_series.sup_value - sup) < 1e-12
            proven = check_class(v, class_id)
            assert proven.evidence == "coefficients" and proven.sup_value >= sup

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
        # z phi'/phi from the transformed rows against polyval on 2^16 angles
        # of the outer circle (a pass samples that circle alone)
        phi = series_of_phi(BesselParams(1.5, 1, 1))
        w = SeriesQuantity(phi, gft_checks.RATIOS["Se"])
        rows = grid_sweep(w, "quarter")
        zs = 0.999 * np.exp(2j * np.pi * np.arange(2**16) / 2**16)
        dense = float(np.abs(oracles.quantity_values(phi.coeffs, "Se", zs)).max())
        assert rows.verdict == "pass"
        assert abs(rows.witness) == 0.999
        assert abs(rows.sup_value - dense) < 1e-12
        proven = check_quarter_bound(w)
        assert proven.evidence == "coefficients" and proven.sup_value >= dense

    def test_quarter_bound_series_zero_denominator(self):
        # phi = 1 - 2z vanishes at z = 1/2, a grid point: that sample of
        # z phi'/phi is not finite, and the check fails there
        phi = PowerSeries((1.0, -2.0))
        rep = check_quarter_bound(
            SeriesQuantity(phi, gft_checks.RATIOS["Se"]),
            grid=DiskGrid(radii=(0.5,), angles_per_circle=4),
        )
        assert rep.verdict == "fail" and rep.evidence == "samples"
        assert rep.witness == 0.5

    @pytest.mark.parametrize(
        "params,transformed",
        [
            ((1.5, 1, 1), 0),  # passed from the coefficients
            ((1, 1, 4), 1),  # circle stage, then the grid
            ((2, 1, 6), 1),
            ((-0.5, 1, 1), 1),  # grid fail
        ],
    )
    def test_one_table_per_sweep(self, monkeypatch, params, transformed):
        # the sweep builds the table of its series once, for the circle stage
        # and the grid, and not at all for a pass from the coefficients
        built = []

        class Counted(series_ops._Terms):
            def __init__(self, series):
                built.append(series)
                super().__init__(series)

        monkeypatch.setattr(gft_checks, "_Terms", Counted)
        f = series_of_vartheta(BesselParams(*params))
        rep = check_class(f, "Se")
        assert len(built) == transformed
        if transformed:
            assert rep.evidence == "samples"


class TestWindingCertificate:
    RADIUS = 0.999

    @classmethod
    def _certificate(cls, series, factors):
        # the factors counted on the outer circle of the default grid
        rows = eval_rows(series, (cls.RADIUS,), 4096)
        terms = series_ops._Terms(series)
        return gft_checks._winding_certificate(terms, rows, factors, cls.RADIUS, 4096)

    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize(
        "modulus,want", [(0.9, False), (1.1, True), (0.999 - 1e-5, None), (0.999 + 1e-5, None)]
    )
    def test_one_zero(self, order, modulus, want):
        # z^order (1 - z/z0) winds order + 1 times on |z| = 0.999 when z0
        # is inside (a zero besides the one at 0: False), order times when
        # it is outside (True), and its samples cannot resolve a z0 within
        # 1e-5 of the circle (None).  Only |z0| = 1.1 has 1/|z0| < 1, its
        # lowest term dominating on |z| = 1: certified from the coefficients.
        # The others are counted from the samples, 0.999 + 1e-5 included: a
        # coefficient test on |z| = 0.999 would certify that one, so it
        # guards the test's radius 1.
        z0 = modulus * cmath.exp(0.3j)
        f = PowerSeries((0.0,) * order + (1.0, -1.0 / z0))
        assert self._certificate(f, ((0,),)) is want

    def test_order_at_zero_is_the_first_exact_nonzero(self):
        # f = 1e-12 + z + 0.1 z^2 vanishes near -1e-12.  Its first exactly
        # nonzero coefficient is a_0, not above NORMALIZED_TOL, so the factor
        # f is unresolved rather than its zero near 0 counted as the one at
        # 0, and the grid sweep, which used to pass f with sup 0.1176, is
        # inconclusive.  With a_0 = 0 exactly, f is certified.
        f = PowerSeries((1e-12, 1.0, 0.1))
        assert self._certificate(f, ((0,),)) is None
        rep = check_class(f, "Se")
        assert (rep.verdict, rep.evidence) == ("inconclusive", "samples")
        assert self._certificate(PowerSeries((0.0, 1.0, 0.1)), ((0,),)) is True

    def test_small_kappa_battery(self):
        # kappa in (0.001, 1.2) + i(-0.3, 0.3), |c| in (0.2, 6), b = 1: phi
        # often has zeros inside the disk.  The certificate agrees with an
        # np.roots zero count polished by mpmath, no pass has a zero of f/z or
        # f' (Se) or of f' or (z f')' (Ke) inside, and some draws that pass
        # on the full plan's samples alone (the Horner oracle, which counts
        # no zeros) have one: the certificate is what turns them into fails.
        rng = np.random.default_rng(83)
        passes = caught = dominated = 0
        for _ in range(50):
            kappa = complex(rng.uniform(0.001, 1.2), rng.uniform(-0.3, 0.3))
            c = rng.uniform(0.2, 6.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            params = BesselParams(kappa - 1.0, 1, c)
            for class_id, f in (
                ("Se", series_of_vartheta(params)),
                ("Ke", normalized_phi_deficit(params, 64)),
            ):
                ratio = gft_checks.RATIOS[class_id]
                factors = ratio.poles + ratio.zeros
                a = np.array(f.coeffs)
                n = np.arange(a.size)
                # rows 0, 1, 2 carry a_n, n a_n and n (n - 1) a_n
                weights = (np.ones(a.size), n, n * (n - 1.0))
                zeros = 0
                for factor in factors:
                    coeffs = a * sum(weights[i] for i in factor)
                    inside = oracles.zeros_inside(coeffs, 1.0)
                    zeros += sum(abs(z) < self.RADIUS for z in inside)
                    # a factor certified from its coefficients has no zero in
                    # the whole open disk besides those at 0
                    sizes = np.abs(coeffs)
                    k = np.flatnonzero(sizes > gft_checks.NORMALIZED_TOL)[0]
                    if gft_checks._lowest_term_dominates(sizes, k):
                        assert not inside, (class_id, kappa, c, factor)
                        dominated += 1
                certificate = self._certificate(f, factors)
                assert certificate in (zeros == 0, None), (class_id, kappa, c, zeros)
                rep = check_class(f, class_id)
                if rep.passed:
                    assert zeros == 0, (class_id, kappa, c)
                    passes += 1
                if zeros and oracles.horner_sweep(f.coeffs, class_id)[0] == "pass":
                    assert rep.verdict == "fail"
                    caught += 1
        assert passes > 20 and caught > 0 and dominated > 0, (passes, caught, dominated)


class TestLowestTermDominates:
    """The coefficient (Rouche) test that certifies a factor before any sample."""

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(
        degree=st.integers(1, 64),
        order=st.integers(0, 2),
        ratio=st.floats(0.2, 1.5),
        seed=st.integers(0, 2**16),
    )
    def test_certified_factor_has_no_zero_in_closed_disk(self, degree, order, ratio, seed):
        # P = z^k Q with Q of degree >= 1 and its other coefficients summing
        # to ratio |q_0| in modulus; whenever the test certifies P, the zeros
        # of Q = P / z^k lie outside the closed unit disk (np.roots, with the
        # few within 1e-8 of the circle polished by mpmath at 40 digits)
        order = min(order, degree - 1)
        rng = np.random.default_rng(seed)
        q = rng.normal(size=(degree - order + 1, 2)) @ [1.0, 1j]
        q[1:] *= rng.uniform(0.0, 1.0, q.size - 1) ** 3
        q[1:] *= ratio * abs(q[0]) / np.abs(q[1:]).sum()
        coeffs = np.concatenate((np.zeros(order), q))
        sizes = np.abs(coeffs)
        k = np.flatnonzero(sizes > gft_checks.NORMALIZED_TOL)[0]
        assert k == order
        if not gft_checks._lowest_term_dominates(sizes, k):
            return
        if np.abs(np.roots(q[::-1])).min() <= 1.0 + 1e-8:
            assert not oracles.zeros_inside(q, 1.0)

    def test_rounding_slack_refuses_a_sum_that_rounds_low(self):
        # P = lead - (1 - 2^-52) z - 2^-55 (z^2 + ... + z^6), lead = 1 - 2^-53:
        # the exact moduli of the rest sum to lead + 2^-55, so P(0) > 0 >
        # P(1) and P has a real zero in (0, 1).  Summed in floats, each
        # 2^-55 is a quarter ulp of the running sum and is lost, so the
        # computed rest is below the computed lead; only the slack refuses.
        lead = 1.0 - 2.0**-53
        rest = [1.0 - 2.0**-52] + [2.0**-55] * 5
        sizes = np.array([lead] + rest)
        assert float(sizes.sum()) - lead < lead
        assert sum(map(fractions.Fraction, rest)) > fractions.Fraction(lead)
        assert not gft_checks._lowest_term_dominates(sizes, 0)

    def test_terms_below_the_order_count(self):
        # P = -5e-10 + z - (1 - 1e-10) z^2 vanishes to order 1 by the
        # tolerance, but its constant term moves the second zero inside the
        # unit disk, to 1 - 4e-10: a sum over n > k alone would certify it
        coeffs = np.array([-5e-10, 1.0, -(1.0 - 1e-10)])
        assert min(abs(abs(z) - (1.0 - 4e-10)) for z in np.roots(coeffs[::-1])) < 1e-15
        assert not gft_checks._lowest_term_dominates(np.abs(coeffs), 1)
        assert gft_checks._lowest_term_dominates(np.abs(coeffs[1:]), 0)


def _random_coeffs(kind, degree, scale, seed):
    """Random decaying coefficients fit for kind: normalized f for Se and Ke,
    f(0) within NORMALIZED_TOL of 1 for Pe, phi(0) = 1 for the quarter
    bound on z phi'/phi."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(degree + 2, 2)) @ [1.0, 1j]
    a *= scale / np.arange(1, degree + 3) ** rng.uniform(1.0, 3.0)
    if kind in ("Se", "Ke"):
        a[:2] = 0.0, 1.0
    elif kind == "Pe":
        a[0] = 1.0 + complex(*rng.uniform(-1e-9, 1e-9, 2)) / 2.0
    else:
        a[0] = 1.0
    return a


def _bessel_series(kind, params):
    """The series each kind's checks read for these parameters."""
    return {
        "Pe": series_of_phi,
        "Se": series_of_vartheta,
        "Ke": lambda p: normalized_phi_deficit(p, 64),
        "quarter": series_of_phi,
    }[kind](params)


class TestCoefficientBound:
    """The closed-disk bound that passes a sweep from the coefficients alone."""

    @staticmethod
    def _bound(coeffs, kind):
        ratio = gft_checks.RATIOS["Se" if kind == "quarter" else kind]
        w = SeriesQuantity(PowerSeries(tuple(coeffs)), ratio)
        return gft_checks._coefficient_bound(gft_checks._factor_sizes(w), use_log=kind != "quarter")

    @settings(max_examples=80, deadline=None, database=None, derandomize=True)
    @given(
        kind=st.sampled_from(["Pe", "Se", "Ke", "quarter"]),
        degree=st.integers(1, 40),
        scale=st.floats(0.02, 1.5),
        seed=st.integers(0, 2**16),
    )
    def test_bound_covers_random_polynomials(self, kind, degree, scale, seed):
        # a finite bound is at least the sup on |z| = 1 (dense polyval
        # samples + golden section)
        a = _random_coeffs(kind, degree, scale, seed)
        bound = self._bound(a, kind)
        assume(math.isfinite(bound))
        quantity = "Se" if kind == "quarter" else kind
        sup = oracles.circle_sup(a, quantity, use_log=kind != "quarter")
        assert bound >= sup - 1e-14, (bound, sup)

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(
        kappa=st.builds(complex, st.floats(1.3, 8.0), st.floats(-1.5, 1.5)),
        c=st.builds(cmath.rect, st.floats(0.05, 4.0), st.floats(0.0, 2.0 * math.pi)),
        kind=st.sampled_from(["Pe", "Se", "Ke", "quarter"]),
    )
    def test_bound_covers_bessel_series(self, kappa, c, kind):
        f = _bessel_series(kind, BesselParams(kappa - 1.0, 1, c))
        bound = self._bound(f.coeffs, kind)
        assume(math.isfinite(bound))
        quantity = "Se" if kind == "quarter" else kind
        sup = oracles.circle_sup(f.coeffs, quantity, use_log=kind != "quarter")
        assert bound >= sup - 1e-14, (bound, sup)

    def test_pe_bound_is_for_log_f_not_log_f_over_b0(self):
        # w = b_0 - 0.5 z with b_0 = 1 - 9e-10: |log w| peaks at z = 1 at
        # -log(0.5 - 9e-10), 1.8e-9 above -log(1 - 0.5 / b_0), the bound of
        # log(w / b_0); rho = |b_0 - 1| + 0.5 covers log w itself
        b0 = 1.0 - 9e-10
        exact = -mp.log(mp.mpf(b0) - mp.mpf(0.5))
        bound = self._bound((b0, -0.5), "Pe")
        assert bound >= exact
        assert -math.log1p(-0.5 / b0) < exact

    def test_rounding_slack_covers_a_sum_that_rounds_low(self):
        # p = 0.2 z + 2^-58 (z^2 + ... + z^6) has |p| = p(1) = 0.2 + 5 2^-58 at
        # its peak; each 2^-58 is an eighth of an ulp of the running sum and is
        # lost, so the computed sum is 0.2 and only the slack covers the rest
        coeffs = (0.0, 0.2) + (2.0**-58,) * 5
        assert float(np.abs(np.array(coeffs)).sum()) == 0.2
        exact = sum(map(fractions.Fraction, coeffs))
        bound = check_quarter_bound(PowerSeries(coeffs)).sup_value
        assert fractions.Fraction(bound) >= exact

    def test_nonzero_a0_within_tolerance_falls_back_to_samples(self):
        # a_0 = 1e-12 is normalized within NORMALIZED_TOL, but f/z then has a
        # pole near 0: no closed-disk bound, and the grid sweep decides
        f = PowerSeries((1e-12, 1.0, 0.1))
        assert self._bound(f.coeffs, "Se") == math.inf
        rep = check_class(f, "Se")
        assert rep.evidence == "samples"
        assert check_class(PowerSeries((0.0, 1.0, 0.1)), "Se").evidence == "coefficients"

    @pytest.mark.parametrize("scale", [3.0, 4.0])
    def test_same_factors_other_combine_is_sampled(self, scale):
        # a Ratio with the Se rows and factors but w scaled: the Se quotient
        # says nothing about it.  |log 3 z f'/f| = log 3 > 1 for f = z, and
        # |4 z phi'/phi| > 1/4 for phi of kappa = 5/2
        ratio = gft_checks.Ratio(
            lambda f, zf1, zzf2: scale * zf1 / f, (0, 1), zeros=((1,),), poles=((0,),)
        )
        if scale == 3.0:
            w = SeriesQuantity(IDENTITY, ratio)
            rep = gft_checks._sweep(w, DiskGrid(), 1.0, "custom", True)
        else:
            w = SeriesQuantity(series_of_phi(BesselParams(1.5, 1, 1)), ratio)
            rep = check_quarter_bound(w)
        assert rep.evidence == "samples"
        assert rep.verdict == "fail"


class TestCircleBound:
    """The closed-disk bound from samples of |z| = 1 (``_circle_bound``)."""

    @staticmethod
    def _quantity(coeffs, kind):
        ratio = gft_checks.RATIOS["Se" if kind == "quarter" else kind]
        return SeriesQuantity(PowerSeries(tuple(coeffs)), ratio), kind != "quarter"

    @classmethod
    def _bound(cls, coeffs, kind, angles=4096):
        # the bound with no limit: None only when it is not certified
        w, use_log = cls._quantity(coeffs, kind)
        sizes = gft_checks._factor_sizes(w)
        terms = series_ops._Terms(w.series)
        return gft_checks._circle_bound(w, terms, sizes, angles, use_log, math.inf)

    @settings(max_examples=80, deadline=None, database=None, derandomize=True)
    @given(
        kind=st.sampled_from(["Pe", "Se", "Ke", "quarter"]),
        degree=st.integers(1, 40),
        scale=st.floats(0.02, 3.0),
        seed=st.integers(0, 2**16),
    )
    def test_bound_covers_random_polynomials(self, kind, degree, scale, seed):
        a = _random_coeffs(kind, degree, scale, seed)
        proof = self._bound(a, kind)
        assume(proof is not None)
        quantity = "Se" if kind == "quarter" else kind
        sup = oracles.circle_sup(a, quantity, use_log=kind != "quarter")
        assert proof[0] >= sup, (proof, sup)

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(
        kappa=st.builds(complex, st.floats(0.8, 8.0), st.floats(-1.5, 1.5)),
        c=st.builds(cmath.rect, st.floats(0.05, 10.0), st.floats(0.0, 2.0 * math.pi)),
        kind=st.sampled_from(["Pe", "Se", "Ke", "quarter"]),
    )
    def test_bound_covers_bessel_series(self, kappa, c, kind):
        f = _bessel_series(kind, BesselParams(kappa - 1.0, 1, c))
        proof = self._bound(f.coeffs, kind)
        assume(proof is not None)
        quantity = "Se" if kind == "quarter" else kind
        sup = oracles.circle_sup(f.coeffs, quantity, use_log=kind != "quarter")
        assert proof[0] >= sup, (proof, sup)

    @pytest.mark.parametrize(
        "kind,params",
        [
            ("Se", BesselParams(2, 1, 4)),
            ("Ke", BesselParams(1.5, 1, 2)),
            ("Pe", BesselParams(1.5, 1, 6)),
            ("quarter", BesselParams(1.5, 1, 6)),
        ],
    )
    def test_bound_rounds_its_formula_up(self, monkeypatch, kind, params):
        # The float bound is at least its stated formula evaluated at 40
        # digits on the samples it read (``oracles.arc_bound``), with the
        # transform's rounding taken as half the slack: the other half and
        # the final 16 eps cover the float steps, so the bound lies above the
        # formula by about that other half.  A smaller slack or
        # between-sample term would fall below it.
        read = []
        circle_rows = gft_checks._circle_rows

        def rows_spy(terms, radii, angles, rows):
            out = circle_rows(terms, radii, angles, rows)
            read.append((angles, dict(zip(rows, out[:, 0]))))
            return out

        monkeypatch.setattr(gft_checks, "_circle_rows", rows_spy)
        f = _bessel_series(kind, params)
        w, use_log = self._quantity(f.coeffs, kind)
        bound, witness = self._bound(f.coeffs, kind)
        ((m, rows),) = read
        ratio = w.combine
        pole = ratio.poles[0] if ratio.poles else ()
        exact = oracles.arc_bound(f.coeffs, rows, ratio.zeros[0], pole, m, use_log)
        assert mp.mpf(bound) >= exact
        assert bound - exact < 1e-10
        assert abs(witness) == 1.0

    def test_zero_inside_is_not_passed(self):
        # f = z - 10 z^2 vanishes at 0.1, so z f'/f = (0.1 - 2z)/(0.1 - z) has
        # a pole inside, though on |z| = 1 it stays near 2 (|log w| < 0.82);
        # the certificate at r = 1 counts two zeros of f and refuses the
        # circle, and the grid sweep fails the check
        f = PowerSeries((0.0, 1.0, -10.0))
        assert self._bound(f.coeffs, "Se") is None
        rep = check_class(f, "Se")
        assert (rep.verdict, rep.evidence) == ("fail", "samples")

    @pytest.mark.parametrize("angles", [4096, 1024])
    def test_circle_pass_reads_one_circle(self, monkeypatch, angles):
        # one transform at r = 1 of at most angles / 8 points, and no Brent
        # search
        calls, probes = [], []
        circle_rows = gft_checks._circle_rows

        def rows_spy(terms, radii, n, rows):
            calls.append((tuple(radii), n))
            return circle_rows(terms, radii, n, rows)

        monkeypatch.setattr(gft_checks, "_circle_rows", rows_spy)
        monkeypatch.setattr(gft_checks, "_golden_max", lambda *args: probes.append(args))
        grid = DiskGrid(angles_per_circle=angles)
        rep = check_class(series_of_vartheta(BesselParams(2, 1, 4)), "Se", grid=grid)
        assert (rep.verdict, rep.evidence) == ("pass", "circle")
        assert rep.grid == grid and abs(rep.witness) == 1.0
        ((radii, n),) = calls
        assert radii == (1.0,) and n <= angles // 8
        assert probes == []


class TestEarlyExit:
    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(
        kappa=st.builds(complex, st.floats(1.3, 6.0), st.floats(-1.0, 1.0)),
        c=st.builds(cmath.rect, st.floats(0.05, 3.0), st.floats(0.0, 2.0 * math.pi)),
        kind=st.sampled_from(["Pe", "Se", "Ke", "quarter"]),
    )
    def test_early_pass_is_full_plan_report(self, kappa, c, kind):
        # A pass is decided on the outer circle.  Every inner circle of the
        # plan samples strictly lower, so a sweep of the whole plan would
        # refine the same sample and report the same sup and witness.
        params = BesselParams(kappa - 1.0, 1, c)
        if kind == "quarter":
            w = SeriesQuantity(series_of_phi(params), gft_checks.RATIOS["Se"])
            early = grid_sweep(w, kind)
            public = check_quarter_bound(w)
        else:
            f = {
                "Pe": series_of_phi,
                "Se": series_of_vartheta,
                "Ke": lambda p: normalized_phi_deficit(p, 64),
            }[kind](params)
            w = gft_checks._quantity(f, kind)
            early = grid_sweep(f, kind)
            public = gft_checks._sweep(
                w, gft_checks.DEFAULT_GRID, threshold=1.0, class_id=kind, use_log=True
            )
        assume(early.passed)
        # the public check passes too, with a proven bound when it can
        assert public.passed
        if public.evidence != "samples":
            assert public.sup_value >= early.sup_value
        else:
            assert public == early
        grid = DiskGrid()
        assert early.grid == grid and abs(abs(early.witness) - grid.radii[-1]) < 1e-15
        terms = series_ops._Terms(w.series)
        values, _ = gft_checks._circle_values(w, terms, grid.radii, grid.angles_per_circle)
        per_radius = gft_checks._magnitudes(values, kind != "quarter").max(axis=1)
        assert per_radius[:-1].max() < per_radius[-1] <= early.sup_value


    def test_certified_outer_non_pass_samples_outer_circle_only(self, monkeypatch):
        # B[kappa-1] of the truncated halfplane map, the premise of a chain
        # draw: its factors are certified, so by the maximum principle the
        # outermost circle holds the disk's supremum, and its refined sup
        # above 1 fails the sweep there with no inner circle sampled
        radii, certificates = [], []
        circle_rows = gft_checks._circle_rows
        certificate = gft_checks._winding_certificate

        def rows_spy(terms, rs, angles, rows):
            radii.append(tuple(rs))
            return circle_rows(terms, rs, angles, rows)

        def certificate_spy(*args):
            certificates.append(certificate(*args))
            return certificates[-1]

        monkeypatch.setattr(gft_checks, "_circle_rows", rows_spy)
        monkeypatch.setattr(gft_checks, "_winding_certificate", certificate_spy)
        params = BesselParams(
            2.634063664924114 - 0.3760100571327152j,
            0.37518632238226246,
            0.781270460553173 + 5.463346761884182j,
        ).shift(-1)
        f = b_operator(params, HALFPLANE)
        rep = grid_sweep(f, "Se")
        assert (rep.verdict, rep.evidence) == ("fail", "samples")
        assert rep.sup_value.hex() == "0x1.4ca17ccd65bf3p+0"
        assert rep.witness.real.hex() == "-0x1.a2ddf73d096cfp-5"
        assert rep.witness.imag.hex() == "-0x1.fed14e7793cbep-1"
        assert certificates == [True]
        assert radii == [(DiskGrid().radii[-1],)]
        # the public check bounds nothing below 1 on |z| = 1 and falls back
        # to the same sweep
        assert check_class(f, "Se") == rep


class TestBrentMaximizer:
    STEP = 2.0 * math.pi / 4096

    @staticmethod
    def _counted(fun):
        calls = []

        def counted(t):
            calls.append(t)
            return fun(t)

        return counted, calls

    def test_off_grid_peak(self):
        # a peak 0.3 of a grid step off the bracket centre
        centre = 100 * self.STEP
        t0 = centre + 0.3 * self.STEP
        fun, calls = self._counted(lambda t: math.cos(t - t0))
        lo, hi = centre - self.STEP, centre + self.STEP
        sampled = (centre, math.cos(lo - t0), math.cos(centre - t0), math.cos(hi - t0))
        t, value = gft_checks._golden_max(fun, lo, hi, sampled)
        assert abs(t - t0) <= 1e-7
        assert abs(value - 1.0) <= 1e-15
        assert len(calls) <= 15
        assert (t, value) in ((c, math.cos(c - t0)) for c in calls)

    @pytest.mark.parametrize("iters", [5, 90])
    def test_constant_stops_within_iters(self, monkeypatch, iters):
        # a constant height with 1e-12 of ripple between two lower sampled
        # ends: the ripple defeats the rounding stop, and Brent's width rule
        # ends the walk after 21 probes, unless MAX_PROBES ends it first
        monkeypatch.setattr(gft_checks, "MAX_PROBES", iters)
        fun, calls = self._counted(lambda t: 0.25 + 1e-12 * math.sin(1e9 * t))
        t, value = gft_checks._golden_max(fun, -self.STEP, self.STEP, (0.0, 0.0, 0.25, 0.0))
        assert len(calls) == min(iters, 21)
        assert abs(value - 0.25) <= 1e-12
        assert -self.STEP <= t <= self.STEP

    def test_inf_probe_ends_search(self):
        # the third probe lands on a pole: the search stops there with inf
        def pole(t):
            return math.inf if len(calls) == 3 else math.cos(t)

        fun, calls = self._counted(pole)
        sampled = (0.0, math.cos(self.STEP), 1.0, math.cos(self.STEP))
        t, value = gft_checks._golden_max(fun, -self.STEP, self.STEP, sampled)
        assert value == math.inf
        assert len(calls) == 3
        assert t == calls[-1]

    def test_refined_sup_beats_dense_samples(self, monkeypatch):
        # the refined sup is at least the largest of 20,001 polyval samples
        # over the bracket the sweep refined
        brackets = []
        real_brent = gft_checks._golden_max

        def spy(fun, lo, hi, sampled):
            brackets.append((lo, hi))
            return real_brent(fun, lo, hi, sampled)

        monkeypatch.setattr(gft_checks, "_golden_max", spy)
        refined = 0
        proven = 0
        for series, quantity in _oracle_battery():
            brackets.clear()
            rep = grid_sweep(series, quantity)
            if not brackets:
                continue
            (lo, hi), = brackets
            zs = abs(rep.witness) * np.exp(1j * np.linspace(lo, hi, 20001))
            w = oracles.quantity_values(series.coeffs, quantity, zs)
            dense = float(np.max(np.abs(np.log(w))))
            assert rep.sup_value >= dense - 1e-13 * max(1.0, rep.sup_value), quantity
            refined += 1
            public = _public_check(series, quantity)
            if public.evidence == "coefficients":
                assert public.sup_value >= dense, quantity
                proven += 1
        assert refined > 20 and proven > 0


def _public_check(series, quantity):
    if quantity == "Pe":
        return check_subordinate_exp(series)
    return check_class(series, quantity)


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
        proven = 0
        for series, quantity in _oracle_battery():
            rep = grid_sweep(series, quantity)
            verdict, sup = oracles.horner_sweep(series.coeffs, quantity)
            assert rep.verdict == verdict, (quantity, series.order)
            if math.isfinite(sup):
                assert abs(rep.sup_value - sup) <= 1e-10, (quantity, rep.sup_value, sup)
            else:
                assert rep.sup_value == sup
            verdicts.add(verdict)
            public = _public_check(series, quantity)
            assert public.verdict == verdict, (quantity, series.order)
            if public.evidence == "coefficients":
                assert public.sup_value >= sup, (quantity, public.sup_value, sup)
                proven += 1
        assert verdicts == {"pass", "fail"} and proven > 0


class TestRoundingStop:
    STEP = 2.0 * math.pi / 4096

    def test_flat_peak_stops_within_a_few_probes(self):
        # A peak 0.3 of a step off the bracket centre whose heights over the
        # whole bracket differ by at most 1e-16, as |log w| is near a flat
        # maximum: the sampled heights already agree to rounding, so the
        # search stops at once, where Brent's width rule alone takes 22.
        t0 = 0.3 * self.STEP
        calls = []

        def fun(t):
            calls.append(t)
            return 0.5 - 1e-16 * ((t - t0) / self.STEP) ** 2

        sampled = (0.0, fun(-self.STEP), fun(0.0), fun(self.STEP))
        calls.clear()
        t, value = gft_checks._golden_max(fun, -self.STEP, self.STEP, sampled)
        assert len(calls) <= 3
        assert value >= max(sampled[1:]) and abs(value - 0.5) <= 2e-16
        assert -self.STEP <= t <= self.STEP

    def test_curved_peak_is_not_cut_short(self):
        # heights that differ by more than rounding across the bracket keep
        # the search going until Brent's rule, at the true peak
        t0 = 0.3 * self.STEP
        fun = lambda t: 0.5 * math.cos(t - t0)  # noqa: E731
        sampled = (0.0, fun(-self.STEP), fun(0.0), fun(self.STEP))
        t, value = gft_checks._golden_max(fun, -self.STEP, self.STEP, sampled)
        assert abs(t - t0) <= 1e-7 and abs(value - 0.5) <= 1e-16
