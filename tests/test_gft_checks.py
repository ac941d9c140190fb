import cmath
import concurrent.futures
import fractions
import functools
import json
import math
import sys

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
    SeriesQuantity under the quarter bound's threshold 1/4 on |w|.  As in
    ``_sweep``, a quantity read through one of ``RATIOS`` hands the sweep
    its factors' moduli, so inner circles its disk bound clears go unsampled.
    """
    grid = grid or DiskGrid()
    if class_id == "quarter":
        quantity, threshold, class_id, use_log = w, 0.25, "bound_quarter", False
    else:
        quantity, threshold, use_log = gft_checks._quantity(w, class_id), 1.0, True
    terms = series_ops._Terms(quantity.series)
    sizes = None
    if quantity.combine in gft_checks.RATIOS.values():
        sizes = gft_checks._factor_sizes(quantity, terms)
    return gft_checks._sampled_sweep(
        quantity, terms, grid, threshold, class_id, use_log, sizes
    )


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
        ratio = gft_checks.Ratio(lambda f, zf1: zf1 / f, 1, zeros=(), poles=(0,))
        p = SeriesQuantity(PowerSeries((-0.5, 1.0)), ratio)
        rep = check_quarter_bound(p, grid=DiskGrid(radii=(0.5,), angles_per_circle=4))
        assert rep.verdict == "fail" and rep.evidence == "samples"
        assert rep.witness == 0.5

    def test_pole_inside_fails(self):
        # pole_map as a series ratio: the pole factor z - 0.995 winds once
        # around 0 on the outer circle, so the sweep fails though every
        # sample lies below the bound
        ratio = gft_checks.Ratio(lambda f, zf1: 0.001 * zf1 / f, 1, zeros=(), poles=(0,))
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
        # a Ratio names its top row and factors; a plain function names
        # neither, and a Ratio needs both kinds of factor stated
        with pytest.raises(TypeError, match="PowerSeries"):
            SeriesQuantity(IDENTITY, lambda f, zf1: zf1 / f)
        with pytest.raises(TypeError):
            gft_checks.Ratio(lambda f, zf1: zf1 / f, 1)
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
        # Brent's search on a bracket of two grid steps (2 * 2 pi / 4096,
        # 205,887 THETA_TOL), starting from the sampled heights at the grid
        # argmax (the bracket centre) and at the two bracket ends.  Its one
        # stop is the width rule: the best probe within 2 * THETA_TOL of both
        # ends.  The Se and Ke heights of a real-coefficient series are even
        # in theta, so they peak at that centre: one golden-section probe
        # 0.38 of a step to its left, then a parabolic step through the
        # three points that lands on the centre and is pushed THETA_TOL to
        # its right.  Each probe is a Horner pass at its point.  For Se that
        # one reads 1.1e-16 below the sampled peak, so the centre stays the
        # best point and the right end closes to THETA_TOL.  A parabolic
        # step to 109, a golden-section one to 41.7 and a parabolic one to
        # 16.9 THETA_TOL left of the centre read 6.3e-15, 1.0e-15 and
        # 1.4e-16 low; there the heights differ by rounding alone, and a
        # parabolic step to 7.85 and golden-section steps to 3.0 and 1.15
        # THETA_TOL walk the left end in: 8 probes.  For Ke the probe
        # THETA_TOL right of the centre reads 2.8e-17 high and becomes the
        # best point; a parabolic step to 4.38 THETA_TOL, level with the
        # sampled peak, closes the right end, a golden-section step to 2.29
        # reads 1.9e-16 high and becomes the best, and a step pushed
        # THETA_TOL past it leaves the bracket [1.0, 3.29] THETA_TOL, within
        # 2 THETA_TOL of it on both sides: 5 probes.
        # These counts follow the last bits of the probed heights.  Over the
        # 1,323 sweeps of the soundness and high-order pools of seeds 201 and
        # 73 that the grid refines when it decides them all, the width rule
        # spends 8.28 probes per sweep, 22 at most.
        # |log exp(0.3 z)| = 0.3 r is constant on the circle, so every height
        # of its degree-48 series agrees with the sampled peak to 5.6e-16 and
        # no parabola finds a peak: after three parabolic steps among the
        # first five, 17 golden-section steps, each cutting the bracket to
        # 0.618 of its width, leave the centre within 2 THETA_TOL of both
        # ends, [-1.07, 1.60] THETA_TOL: 22 probes.
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
        assert counts == [8, 5, 22]
        # the public checks pass all three from the coefficients: no probe
        for (f, class_id), rep in zip(cases, sampled):
            proven = _public_check(f, class_id)
            assert proven.evidence == "coefficients"
            assert proven.sup_value >= rep.sup_value
        assert counts == [8, 5, 22]

    @pytest.mark.parametrize("class_id", ["Pe", "Se", "Ke"])
    def test_ratio_rows_are_rows_of_full_call(self, class_id):
        # rows 0..top of either kernel are those of the full call, bit for
        # bit, for the tops 0 (Pe), 1 (Se) and 2 (Ke)
        top = gft_checks.RATIOS[class_id].top
        rng = np.random.default_rng(67)
        radii = np.array([0.5, 0.999])
        for degree, angles in ((64, 4096), (64, 8), (400, 8)):
            f = PowerSeries(tuple(rng.normal(size=(degree + 1, 2)) @ [1.0, 1j]))
            prefix = series_ops._circle_rows(series_ops._Terms(f), radii, angles, top)
            assert prefix.shape == (top + 1, radii.size, angles)
            assert prefix.tobytes() == eval_rows(f, radii, angles)[: top + 1].tobytes()
            z = 0.999 * complex(math.cos(0.3), math.sin(0.3))
            point = series_ops._horner_rows(f, z, top)
            assert np.array(point).tobytes() == np.array(eval_rows(f, z)[: top + 1]).tobytes()

    @pytest.mark.parametrize("class_id,top", [("Pe", 0), ("Se", 1), ("Ke", 2)])
    def test_ratio_reads_rows_to_its_top(self, class_id, top):
        # Pe reads f, Se f and z f', Ke z f' and z f' + z^2 f'': the combine
        # runs on rows 0..top and needs row top
        ratio = gft_checks.RATIOS[class_id]
        assert ratio.top == top
        rows = (2.0 + 1.0j, 3.0 - 1.0j, 5.0 + 2.0j)
        want = rows[0] if top == 0 else rows[top] / rows[top - 1]
        assert ratio(*rows[: top + 1]) == want
        with pytest.raises(IndexError):
            ratio(*rows[:top])

    def test_one_transform_per_series_sweep(self, monkeypatch):
        # One inverse FFT per sweep of the rows 0..top the ratio reads (Pe
        # reads f, 1 row; Se 2 rows and Ke 3), and one more when the winding
        # certificate runs: it transforms the rows 0..p + 1 of its highest
        # factor p, Pe's f (2 rows), Se's z f' (3) and Ke's z f' + z^2 f''
        # (4).  These three pass early: the outermost circle passes and the
        # certificate of the ratio's factors holds on it, so that circle (1
        # radius) is the only one transformed.  A sweep that fails on a
        # sample of its outer circle runs no certificate and transforms that
        # circle alone (2 rows, 1 radius), and the other radii of the plan
        # that no disk bound clears follow in one transform: 2 of the 3 when
        # r = 0.5 is cleared.  One whose certificate runs and does not hold
        # transforms all 3 when none is cleared.
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
        assert shapes == [(1, 1), (2, 1)]
        for class_id, rows in (("Se", 2), ("Ke", 3)):
            shapes.clear()
            grid_sweep(series_of_vartheta(params), class_id, grid)
            assert shapes == [(rows, 1), (rows + 1, 1)]
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
        assert shapes == [(2, 1), (2, radii - 2)]
        # phi has a zero at |z| ~ 0.04: no inner disk is bounded, none cleared
        shapes.clear()
        failing = grid_sweep(series_of_vartheta(BesselParams(-0.99, 1, 1)), "Se", grid)
        assert failing.verdict == "fail"
        assert shapes == [(2, 1), (3, 1), (2, radii - 1)]

    def test_refined_sup_not_below_samples(self):
        for series, quantity in _oracle_battery():
            grid = DiskGrid()
            if quantity == "Pe":
                rep = check_subordinate_exp(series, grid=grid)
            else:
                rep = check_class(series, quantity, grid=grid)
            terms = series_ops._Terms(series)
            w = gft_checks._quantity(series, quantity)
            values = gft_checks._circle_values(w, terms, grid.radii, grid.angles_per_circle)
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
        "params,sampled",
        [
            ((1.5, 1, 1), 0),  # passed from the coefficients
            ((1, 1, 4.08), 1),  # circle stage, then a grid pass
            ((2, 1, 6.42), 1),
            ((-0.5, 1, 1), 1),  # grid fail
        ],
    )
    def test_one_table_per_sweep(self, monkeypatch, params, sampled):
        # the sweep builds the table of its series once, before the
        # coefficient stage, and every later stage reads that one
        built = []

        class Counted(series_ops._Terms):
            def __init__(self, series):
                built.append(series)
                super().__init__(series)

        monkeypatch.setattr(gft_checks, "_Terms", Counted)
        f = series_of_vartheta(BesselParams(*params))
        rep = check_class(f, "Se")
        assert len(built) == 1
        assert rep.evidence == ("samples" if sampled else "coefficients")

    @pytest.mark.parametrize(
        "params,kind",
        [
            ((1.5, 1, 1), "Se"),  # coefficients
            ((3, 1, 6), "Se"),  # circle
            ((1, 1, 4.08), "Se"),  # circle stage, then a certified grid pass
            ((-0.5, 1, 1), "Se"),  # grid fail
            ((1.5, 1, 2), "Ke"),  # circle
            ((1.5, 1, 1), "Pe"),
        ],
    )
    def test_moduli_computed_once(self, monkeypatch, params, kind):
        # |a_n| is taken once per sweep: the coefficient stage, the circle
        # stage and the winding certificates all read the table's moduli
        f = series_of_vartheta(BesselParams(*params))
        if kind == "Pe":
            f = series_of_phi(BesselParams(*params))
        taken = []
        real_abs = np.abs

        def counting(x, *args, **kwargs):
            if x is f.coeffs:
                taken.append(x)
            return real_abs(x, *args, **kwargs)

        monkeypatch.setattr(np, "abs", counting)
        if kind == "Pe":
            rep = gft_checks.check_subordinate_exp(f)
        else:
            rep = check_class(f, kind)
        monkeypatch.setattr(np, "abs", real_abs)
        assert len(taken) == 1
        want = check_class(f, kind) if kind != "Pe" else gft_checks.check_subordinate_exp(f)
        assert rep == want


class TestWindingCertificate:
    RADIUS = 0.999

    @classmethod
    def _certificate(cls, series, factors):
        # the factors counted on the outer circle of the default grid
        terms = series_ops._Terms(series)
        return gft_checks._winding_certificate(terms, factors, cls.RADIUS, 4096)

    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize(
        "modulus,want", [(0.9, False), (1.1, True), (0.999 - 1e-5, None), (0.999 + 1e-5, None)]
    )
    def test_one_zero(self, order, modulus, want):
        # z^order (1 - z/z0) winds order + 1 times on |z| = 0.999 when z0
        # is inside (a zero besides the one at 0: False), order times when
        # it is outside (True), and its samples cannot resolve a z0 within
        # 1e-5 of the circle (None).  Every factor is counted from its
        # samples, |z0| = 1.1 too, though its lowest term dominates on
        # |z| = 1: no coefficient test certifies a factor.
        z0 = modulus * cmath.exp(0.3j)
        f = PowerSeries((0.0,) * order + (1.0, -1.0 / z0))
        assert self._certificate(f, (0,)) is want

    @pytest.mark.parametrize("p", [0, 1])
    def test_drift_is_the_total_of_the_next_row(self, p):
        # The factor row p is P = z^p (1 + c z^38), |c| 0.999^38 = 2: 38
        # zeros inside |z| = 0.999 besides those at 0.  On the arc around a
        # sample P drifts from it by at most its arc distance, whose first
        # term is h = pi / N times row p + 1's sample, at most h times that
        # row's total sum n |c_n| r^n (0.06).  The smallest sample, about
        # 0.999^p, clears it, so the samples resolve P, and the count over
        # all N of them sees every turn.  The next test guards the distance.
        coeffs = [0.0] * (p + 39)
        coeffs[p] = 1.0
        coeffs[p + 38] = 2.0 / self.RADIUS**38 / (p + 38) ** p
        assert self._certificate(PowerSeries(coeffs), (p,)) is False

    @pytest.mark.parametrize("p", [0, 1])
    def test_samples_within_the_drift_leave_the_factor_unresolved(self, p):
        # The factor row p is P = z^p (1 - s (z / 0.999)^400), s = 0.75: its
        # zeros besides those at 0 lie on |z| = 0.999 s^(-1/400) = 0.99972,
        # just outside the circle.  On the circle min |P| = 0.999^p (1 - s),
        # at sample 0, but on the arc around it P may drift from that sample
        # by its arc distance, h |P'~_0| + (h^2 / 2) sum n^2 |c_n| r^n, h =
        # pi / N, P' = theta P being row p + 1.  The smallest sample clears
        # the first term (0.23) but not the sum (0.265): the samples do not
        # resolve P, though their count would be right, and a first-order
        # distance would have counted P and certified it.
        m, s = 400, 0.75
        coeffs = [0.0] * (p + m + 1)
        coeffs[p] = 1.0
        coeffs[p + m] = -s / self.RADIUS**m / (p + m) ** p
        f = PowerSeries(coeffs)
        n = np.arange(f.coeffs.size)
        curve = float(np.abs(f.coeffs) * self.RADIUS**n @ n ** float(p + 2))
        rows = eval_rows(f, (self.RADIUS,), 4096)
        h = math.pi / 4096
        first = h * abs(rows[p + 1][0][0])
        smallest = float(np.abs(rows[p][0]).min())
        assert smallest == abs(rows[p][0][0])
        assert first < smallest < first + h * h / 2.0 * curve
        assert self._certificate(f, (p,)) is None

    @pytest.mark.parametrize("radius,angles", [(RADIUS, 4096), (1.0, 512)])
    def test_each_factor_reads_its_own_moduli(self, radius, angles):
        # f = z + 0.6 z^2: its lowest term dominates, so f vanishes in the
        # disk only at 0; but z f' = z + 1.2 z^2 vanishes at -1/1.2 too, and
        # the count of that zero factor must see it
        f = PowerSeries((0.0, 1.0, 0.6))
        se = gft_checks.RATIOS["Se"]
        terms = series_ops._Terms(f)
        factors = se.poles + se.zeros
        assert gft_checks._winding_certificate(terms, factors, radius, angles) is False
        assert gft_checks._winding_certificate(terms, se.poles, radius, angles) is True

    def test_counted_factor_uses_the_circle_radius(self, monkeypatch):
        # the slack (and the whole arc distance) of a counted factor weigh
        # |c_n| r^n: on r = 1 that is |c_n| itself, on any smaller circle it
        # is not.  The slack is that of the rows p and p + 1 together.
        f = series_of_vartheta(BesselParams(-0.99, 1, 1))  # f has a zero inside
        totals = []
        slack = gft_checks._transform_slack

        def spy(angles, size, total):
            totals.append(total)
            return slack(angles, size, total)

        monkeypatch.setattr(gft_checks, "_transform_slack", spy)
        for r in (self.RADIUS, 1.0):
            gft_checks._winding_certificate(series_ops._Terms(f), (0,), r, 512)
        sizes, n = np.abs(f.coeffs), np.arange(f.coeffs.size, dtype=float)
        radial = self.RADIUS**n
        assert totals == [
            float((sizes * radial).sum()) + float((sizes * n * radial).sum()),
            float(sizes.sum()) + float((sizes * n).sum()),
        ]

    @pytest.mark.parametrize("angles", [64, 4096])
    def test_never_wrong_near_the_circle(self, angles):
        # P = z^k prod_j (1 - z / z_j) with 1 to 12 zeros at 0.99 < |z_j| <
        # 1.01, seeded: the certificate of the factor P on |z| = 0.999 is None
        # or says whether no z_j lies inside, never the opposite.  The draws
        # are kept 1e-9 off the circle, so that the rounding of the
        # coefficients cannot move a zero across it.
        rng = np.random.default_rng(2027 + angles)
        seen = {True: 0, False: 0, None: 0}
        for _ in range(300):
            zeros = rng.uniform(0.99, 1.01, rng.integers(1, 13))
            zeros = zeros[np.abs(zeros - self.RADIUS) > 1e-9]
            zeros = zeros * np.exp(2j * np.pi * rng.uniform(size=zeros.size))
            k = int(rng.integers(0, 3))
            coeffs = np.zeros(k + zeros.size + 1, dtype=complex)
            coeffs[k:] = np.poly(zeros)[::-1] / np.prod(-zeros)
            certificate = gft_checks._winding_certificate(
                series_ops._Terms(PowerSeries(coeffs)), (0,), self.RADIUS, angles
            )
            assert certificate in (None, bool((np.abs(zeros) > self.RADIUS).all()))
            seen[certificate] += 1
        # at 64 angles, h = pi / 64 is too long an arc to resolve a zero so
        # near the circle, and every draw is None
        assert min(seen.values()) > 0 if angles == 4096 else seen[None] == 300, seen

    def test_order_at_zero_is_the_first_exact_nonzero(self):
        # f = 1e-12 + z + 0.1 z^2 vanishes near -1e-12.  Its first exactly
        # nonzero coefficient is a_0, not above NORMALIZED_TOL, so the factor
        # f is unresolved rather than its zero near 0 counted as the one at
        # 0, and the grid sweep, which used to pass f with sup 0.1176, is
        # inconclusive.  With a_0 = 0 exactly, f is certified.
        f = PowerSeries((1e-12, 1.0, 0.1))
        assert self._certificate(f, (0,)) is None
        rep = check_class(f, "Se")
        assert (rep.verdict, rep.evidence) == ("inconclusive", "samples")
        assert self._certificate(PowerSeries((0.0, 1.0, 0.1)), (0,)) is True

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
                zeros = 0
                for p in factors:
                    # row p, theta^p f, has coefficients n^p a_n
                    coeffs = a * n**p
                    inside = oracles.zeros_inside(coeffs, 1.0)
                    zeros += sum(abs(z) < self.RADIUS for z in inside)
                    # a factor whose lowest term dominates has no zero in
                    # the whole open disk besides those at 0
                    sizes = np.abs(coeffs)
                    k = np.flatnonzero(sizes > gft_checks.NORMALIZED_TOL)[0]
                    if gft_checks._dominance_floor(sizes, k) > 0.0:
                        assert not inside, (class_id, kappa, c, p)
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
    """The dominance (Rouche) test behind the coefficient stage's floor: a
    positive ``_dominance_floor`` leaves a factor no zero in the disk but 0."""

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
        if not gft_checks._dominance_floor(sizes, k) > 0.0:
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
        assert not gft_checks._dominance_floor(sizes, 0) > 0.0

    def test_terms_below_the_order_count(self):
        # P = -5e-10 + z - (1 - 1e-10) z^2 vanishes to order 1 by the
        # tolerance, but its constant term moves the second zero inside the
        # unit disk, to 1 - 4e-10: a sum over n > k alone would certify it
        coeffs = np.array([-5e-10, 1.0, -(1.0 - 1e-10)])
        assert min(abs(abs(z) - (1.0 - 4e-10)) for z in np.roots(coeffs[::-1])) < 1e-15
        assert not gft_checks._dominance_floor(np.abs(coeffs), 1) > 0.0
        assert gft_checks._dominance_floor(np.abs(coeffs[1:]), 0) > 0.0


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
        sizes = gft_checks._factor_sizes(w, series_ops._Terms(w.series))
        return gft_checks._coefficient_bound(sizes, use_log=kind != "quarter")

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

    def test_no_bound_for_rho_within_zero_tol_of_1(self):
        # w = 1 - (1 - 5e-15) z: rho is within ZERO_TOL of 1, and w(1) =
        # 5e-15 is a sample the grid flags as vanishing.  -log(1 - rho),
        # about 33, is no bound: it would clear a circle holding that sample.
        assert self._bound((1.0, -(1.0 - 5e-15)), "Pe") == math.inf
        assert math.isfinite(self._bound((1.0, -(1.0 - 5e-14)), "Pe"))
        # a slack that brings rho within ZERO_TOL of 1 leaves no bound either
        w = SeriesQuantity(PowerSeries((1.0, -0.5)), gft_checks.RATIOS["Pe"])
        sizes = gft_checks._factor_sizes(w, series_ops._Terms(w.series))
        assert math.isfinite(gft_checks._coefficient_bound(sizes, True, (0.25, 0.0)))
        assert gft_checks._coefficient_bound(sizes, True, (0.5, 0.0)) == math.inf

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
        ratio = gft_checks.Ratio(lambda f, zf1: scale * zf1 / f, 1, zeros=(1,), poles=(0,))
        if scale == 3.0:
            w = SeriesQuantity(IDENTITY, ratio)
            rep = gft_checks._sweep(w, DiskGrid(), 1.0, "custom", True)
        else:
            w = SeriesQuantity(series_of_phi(BesselParams(1.5, 1, 1)), ratio)
            rep = check_quarter_bound(w)
        assert rep.evidence == "samples"
        assert rep.verdict == "fail"


@functools.lru_cache(maxsize=2)
def _mp_roots(size):
    """exp(2 pi i j / size) for j = 0..size-1, at 30 digits."""
    with mp.workdps(30):
        step = mp.expjpi(mp.mpf(2) / size)
        roots = [mp.mpc(1)]
        for _ in range(size - 1):
            roots.append(roots[-1] * step)
    return roots


class TestArcDistance:
    """The one arc bound both proof rules read (``_arc_distance``), on its own arcs."""

    # f = z - z^2/2 as its row 0, and row 2 of a quartic f, whose arc
    # distance reads rows 2 and 3 and the curvature weights n^4 |a_n|
    CASES = {"critical": ((0.0, 1.0, -0.5), 0), "row-2": ((0.0, 1.0, 0.3 - 0.2j, 0.0, 0.1j), 2)}

    @pytest.mark.parametrize("r", [1.0, 0.999])
    @pytest.mark.parametrize("m", [256, 4096])
    @pytest.mark.parametrize("coeffs,p", CASES.values(), ids=list(CASES))
    def test_every_point_of_an_arc_lies_within_it(self, coeffs, p, r, m):
        # Every point of the arc around theta_k, |theta - theta_k| <= h = pi
        # / m, lies within delta_k of the computed sample P~_k: P = theta^p f
        # summed at 30 digits (and rounded once) at theta_k + j h / 2, j =
        # -2..2, against the transformed rows the stages read.
        terms = series_ops._Terms(PowerSeries(coeffs))
        rows = series_ops._circle_rows(terms, (r,), m, p + 1)[:, 0]
        delta = gft_checks._arc_distance(terms, rows, p, r, m)
        size = 4 * m
        roots = _mp_roots(size)
        with mp.workdps(30):
            c = [(n, mp.mpc(a) * n**p * mp.mpf(r) ** n) for n, a in enumerate(coeffs) if a]
            exact = np.array([complex(sum(cn * roots[j * n % size] for n, cn in c))
                              for j in range(size)])
        arcs = 4 * np.arange(m)[:, None] + np.arange(-2, 3)
        moved = np.abs(exact[arcs % size] - rows[p][:, None])
        assert (moved <= delta[:, None]).all()
        if coeffs == (0.0, 1.0, -0.5) and r == 1.0:
            # P' = i (z - z^2) vanishes at theta = 0: P moves about h^2 / 2
            # from its sample there, and only the term (h^2 / 2) sum n^2 |c_n|
            # = 3 h^2 / 2 covers it
            h = math.pi / m
            assert abs(rows[p + 1][0]) < 1e-15
            assert moved[0].max() > h * h / 2.0 * 0.99 > delta[0] - 3.0 * h * h / 2.0


class TestCircleBound:
    """The closed-disk bound from samples of |z| = 1 (``_circle_bound``)."""

    @staticmethod
    def _quantity(coeffs, kind):
        ratio = gft_checks.RATIOS["Se" if kind == "quarter" else kind]
        return SeriesQuantity(PowerSeries(tuple(coeffs)), ratio), kind != "quarter"

    @classmethod
    def _bound(cls, coeffs, kind):
        # the bound with no limit: None only when it is not certified
        w, use_log = cls._quantity(coeffs, kind)
        terms = series_ops._Terms(w.series)
        sizes = gft_checks._factor_sizes(w, terms)
        return gft_checks._circle_bound(w, terms, sizes, use_log, math.inf)

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
        # The float bound is at least its stated second-order formula
        # evaluated at 40 digits on the samples it read, each factor's row
        # and the row after it (``oracles.arc_bound``), with the transform's
        # rounding of each row taken as half its slack: the other halves and
        # the final 16 eps cover the float steps, so the bound lies above the
        # formula by about those halves.  A smaller (h^2/2) term, or a
        # dropped slack of either row, would fall below it.
        read = []
        circle_rows = gft_checks._circle_rows

        def rows_spy(terms, radii, angles, top):
            out = circle_rows(terms, radii, angles, top)
            read.append((angles, out[:, 0]))
            return out

        monkeypatch.setattr(gft_checks, "_circle_rows", rows_spy)
        f = _bessel_series(kind, params)
        w, use_log = self._quantity(f.coeffs, kind)
        bound, witness = self._bound(f.coeffs, kind)
        ((m, rows),) = read
        ratio = w.combine
        pole = ratio.poles[0] if ratio.poles else None
        exact = oracles.arc_bound(f.coeffs, rows, ratio.zeros[0], pole, m, use_log)
        assert mp.mpf(bound) >= exact
        assert bound - exact < 1e-10
        assert abs(witness) == 1.0

    def test_zero_inside_is_not_passed(self):
        # f = z - 10 z^2 vanishes at 0.1, so z f'/f = (0.1 - 2z)/(0.1 - z) has
        # a pole inside, though on |z| = 1 it stays near 2 (|log w| < 0.82);
        # the samples of the pole factor f on |z| = 1 turn twice, once more
        # than its order at 0, so the circle stage refuses it, and the grid
        # sweep fails the check
        f = PowerSeries((0.0, 1.0, -10.0))
        assert self._bound(f.coeffs, "Se") is None
        rep = check_class(f, "Se")
        assert (rep.verdict, rep.evidence) == ("fail", "samples")

    def test_no_order_is_refused_by_both_stages(self, monkeypatch):
        # f = 0: the pole factor f of z f'/f has no exactly nonzero
        # coefficient, so the factors have no order at 0, the coefficient
        # stage bounds nothing (inf, here and for the inner disk it tries)
        # and the circle stage proves nothing; the grid fails the quarter
        # bound at its first sample, z f'/f = 0/0 being non-finite
        stages = []

        def spying(stage):
            def spy(*args, **kwargs):
                stages.append(stage(*args, **kwargs))
                return stages[-1]
            return spy

        for name in ("_coefficient_bound", "_circle_bound"):
            monkeypatch.setattr(gft_checks, name, spying(getattr(gft_checks, name)))
        w = SeriesQuantity(PowerSeries((0.0, 0.0)), gft_checks.RATIOS["Se"])
        assert gft_checks._factor_sizes(w, series_ops._Terms(w.series))[3] is None
        rep = check_quarter_bound(w)
        assert stages == [math.inf, None, math.inf]
        assert (rep.verdict, rep.evidence, rep.witness) == ("fail", "samples", 0.5)
        assert rep.sup_value == math.inf and rep.margin == -math.inf

    def test_log_bound_is_held_below_pi(self):
        # f = 1 + 3z vanishes at -1/3, so w = f winds once on |z| = 1 and
        # |Log w| reaches |log 2 + i pi| = 3.30 at z = -1.  From pi on, the
        # arc branches need not form one log of w, so not even an unlimited
        # call returns that bound as a proof.
        assert self._bound((1.0, 3.0), "Pe") is None

    # The chain premise B[kappa-1] f in Se of a draw in the soundness pool
    # of seed 73, f the truncated halfplane map: by mpmath at 40 digits
    # |log z f'/f| reaches 1.00010 at r = 0.9999 and 1.00031 on |z| = 1,
    # so this polynomial is not in Se, yet the grid, which reads r <= 0.999
    # only, passes it with sup 0.99819.
    WRONG_PASS = BesselParams(
        2.292461205178838 + 0.9180936424432447j,
        0.4779085678645787,
        -2.098320413794537 + 4.143858151090514j,
    )

    def test_known_wrong_pass_is_never_proven(self):
        f = b_operator(self.WRONG_PASS.shift(-1), HALFPLANE)
        bound, _ = self._bound(f.coeffs, "Se")
        assert bound > 1.0
        assert check_class(f, "Se").evidence == "samples"

    @pytest.mark.xfail(strict=True, reason="the grid passes r <= 0.999 only")
    def test_known_wrong_pass_is_not_a_pass(self):
        f = b_operator(self.WRONG_PASS.shift(-1), HALFPLANE)
        assert not check_class(f, "Se").passed

    @pytest.mark.parametrize("angles", [4096, 1024])
    def test_circle_pass_reads_one_circle(self, monkeypatch, angles):
        # one transform at r = 1 of M = 256 points, set by the degree (64)
        # alone whatever the grid, and no Brent search
        calls, probes = [], []
        circle_rows = gft_checks._circle_rows

        def rows_spy(terms, radii, n, top):
            calls.append((tuple(radii), n))
            return circle_rows(terms, radii, n, top)

        monkeypatch.setattr(gft_checks, "_circle_rows", rows_spy)
        monkeypatch.setattr(gft_checks, "_golden_max", lambda *args: probes.append(args))
        grid = DiskGrid(angles_per_circle=angles)
        rep = check_class(series_of_vartheta(BesselParams(2, 1, 4)), "Se", grid=grid)
        assert (rep.verdict, rep.evidence) == ("pass", "circle")
        assert rep.grid == grid and abs(rep.witness) == 1.0
        ((radii, n),) = calls
        assert radii == (1.0,) and n == 256
        assert probes == []

    @classmethod
    def _transformed(cls, monkeypatch, coeffs, kind):
        # the proof (None without one) and whether |z| = 1 was transformed
        calls = []
        circle_rows = gft_checks._circle_rows
        monkeypatch.setattr(
            gft_checks, "_circle_rows", lambda *args: calls.append(args) or circle_rows(*args)
        )
        proof = cls._bound(coeffs, kind)
        monkeypatch.setattr(gft_checks, "_circle_rows", circle_rows)
        return proof, bool(calls)

    @pytest.mark.parametrize("tail,skipped", [(0.05, False), (0.5, True), (1.5, True)])
    def test_skip_is_the_parseval_bound(self, monkeypatch, tail, skipped):
        # w = 1 + tail z^200 at M = 256, h = pi / 256: a finite bound needs
        # |w~_k| > h |w'~_k| at every sample, which Parseval rules out when
        # h^2 (200 tail)^2 >= 1 + tail^2, that is tail >= 0.4462.  Then nothing
        # is transformed, whether the lowest term dominates (tail < 1) or not.
        proof, transformed = self._transformed(monkeypatch, [1.0] + [0.0] * 199 + [tail], "Pe")
        assert transformed is not skipped
        assert (proof is None) is skipped

    @pytest.mark.parametrize("gap,skipped", [(-1e-12, False), (1e-14, False), (1e-12, True)])
    def test_skip_clears_the_rounding_of_its_sums(self, monkeypatch, gap, skipped):
        # tail set at 40 digits so that h^2 (200 tail)^2 = (1 + gap)(1 + tail^2)
        # for w = 1 + tail z^200: the float sums are within a few ulps of
        # these, and the skip fires only when the inequality clears their
        # rounding spare, (N + 9) eps = 4.7e-14 for these N = 201 coefficients
        with mp.workdps(40):
            hh = mp.mpf(math.pi / 256) ** 2
            ratio = 1 + mp.mpf(gap)
            tail = float(mp.sqrt(ratio / (40000 * hh - ratio)))
        _, transformed = self._transformed(monkeypatch, [1.0] + [0.0] * 199 + [tail], "Pe")
        assert transformed is not skipped

    @pytest.mark.parametrize("kind", ["Pe", "Se", "Ke", "quarter"])
    def test_skip_only_where_no_bound_is_finite(self, monkeypatch, kind):
        # Whenever the stage skips its transform, some factor that matters has
        # a transformed sample with |P~_k| <= h |P'~_k| <= delta_k, so no arc
        # bound was finite and no proof is lost.  Random series of degree 8 to
        # 400, their terms from z^2 on tilted by n^q, q in [0, 2], so that
        # every kind has high terms heavy enough to skip.
        rng = np.random.default_rng({"Pe": 11, "Se": 12, "Ke": 13, "quarter": 14}[kind])
        skips = transforms = 0
        for _ in range(30):
            degree = int(rng.integers(8, 401))
            scale = float(rng.uniform(0.3, 10.0))
            a = _random_coeffs(kind, degree, scale, int(rng.integers(2**16)))
            a[2:] *= np.arange(2, a.size) ** rng.uniform(0.0, 2.0)
            proof, transformed = self._transformed(monkeypatch, a, kind)
            if transformed:
                transforms += 1
                continue
            assert proof is None
            skips += 1
            w, use_log = self._quantity(a, kind)
            m = max(256, 1 << (a.size - 1).bit_length())
            terms = series_ops._Terms(w.series)
            rows = series_ops._circle_rows(terms, (1.0,), m, w.combine.top + 1)
            h = math.pi / m
            assert any(
                (np.abs(rows[p][0]) <= h * np.abs(rows[p + 1][0])).any()
                for p in w.factors(use_log)
            ), (kind, degree, scale)
        assert skips > 0 and transforms > 0, (skips, transforms)

    def test_no_winding_certificate_at_r_1(self, monkeypatch):
        # The stage counts D's turns on its own arcs and never calls the grid's
        # first-order certificate: proofs of each kind, a refusal of a pole
        # inside (f = z - 10 z^2, Se) and a skipped transform (Ke, tail 1).
        calls = []
        monkeypatch.setattr(gft_checks, "_winding_certificate", lambda *args: calls.append(args))
        cases = [
            ("Se", series_of_vartheta(BesselParams(2, 1, 4)).coeffs, True),
            ("Ke", normalized_phi_deficit(BesselParams(1.5, 1, 2), 64).coeffs, True),
            ("Pe", series_of_phi(BesselParams(1.5, 1, 6)).coeffs, True),
            ("quarter", series_of_phi(BesselParams(1.5, 1, 6)).coeffs, True),
            ("Se", (0.0, 1.0, -10.0), False),
            ("Ke", (0.0, 1.0) + (0.0,) * 98 + (1.0,), False),
        ]
        for kind, coeffs, proven in cases:
            assert (self._bound(coeffs, kind) is not None) is proven, kind
        assert calls == []

    def test_curvature_weight_does_not_wrap(self):
        # n^4 passes 2^63 above n = 55108, so in int64 the sum U = sum n^4 |a_n|
        # of Ke's zero row wraps negative for this f = z + a z^2 + tail z^n,
        # and the bound drops below |log(1 + z f''/f')| sampled on |z| = 1
        n, a, tail = 55200, 0.1, 0.05 / 55200**2
        coeffs = np.zeros(n + 1)
        coeffs[[1, 2, n]] = 1.0, a, tail
        terms = series_ops._Terms(PowerSeries(coeffs))
        np.testing.assert_allclose(terms.moduli(4), coeffs * np.arange(n + 1.0) ** 4, rtol=1e-15)
        m = 1 << 18
        k = np.arange(m)
        z, z2, zn = (np.exp(2j * np.pi * (k * p % m) / m) for p in (1, 2, n))
        # theta f and theta^2 f, whose quotient is 1 + z f''/f'
        rows = [z + 2**p * a * z2 + n**p * tail * zn for p in (1, 2)]
        sup = float(np.abs(np.log(rows[1] / rows[0])).max())
        proof = self._bound(coeffs, "Ke")
        assert proof is None or proof[0] >= sup, (proof, sup)


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
        values = gft_checks._circle_values(w, terms, grid.radii, grid.angles_per_circle)
        per_radius = gft_checks._magnitudes(values, kind != "quarter").max(axis=1)
        assert per_radius[:-1].max() < per_radius[-1] <= early.sup_value


    def test_certified_outer_non_pass_samples_outer_circle_only(self, monkeypatch):
        # B[kappa-1] of the truncated halfplane map, the premise of a chain
        # draw: its factors are certified, so by the maximum principle the
        # outermost circle holds the disk's supremum, and its refined sup
        # above 1 fails the sweep there with no inner circle sampled: the
        # one circle is transformed twice, for the sweep's samples and for
        # the certificate's rows
        radii, certificates = [], []
        circle_rows = gft_checks._circle_rows
        certificate = gft_checks._winding_certificate

        def rows_spy(terms, rs, angles, top):
            radii.append(tuple(rs))
            return circle_rows(terms, rs, angles, top)

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
        # the last bits of the refined sup, and so where Brent stops, follow
        # the probes: Horner passes at the probed points since the
        # Taylor-moment probe table went (that table read sup
        # 0x1.4ca17ccd65bf3p+0 at a witness 1.1e-11 away)
        assert rep.sup_value.hex() == "0x1.4ca17ccd65bf5p+0"
        assert rep.witness.real.hex() == "-0x1.a2ddf73b84fb2p-5"
        assert rep.witness.imag.hex() == "-0x1.fed14e77950a6p-1"
        assert certificates == [True]
        assert radii == [(DiskGrid().radii[-1],)] * 2
        # the public check bounds nothing below 1 on |z| = 1 and falls back
        # to the same sweep
        assert check_class(f, "Se") == rep


def lacunary(seed, lead, lo, hi, size):
    """z^lead plus terms of modulus size, at seeded phases, on the degrees lo..hi.

    Far enough out the terms are too large for the coefficient stage and
    the circle stage, but on small circles they vanish: the inner disk
    bounds clear there.
    """
    coeffs = np.zeros(hi + 1, dtype=complex)
    coeffs[lead] = 1.0
    phases = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, hi + 1 - lo)
    coeffs[lo:] = size * np.exp(1j * phases)
    return PowerSeries(coeffs)


class TestInnerCircleSkip:
    """Inner circles cleared by their disk bound move no reported number."""

    # the check, how many inner circles its disk bounds clear, and the radius
    # of its witness
    CASES = {
        # the witness is a sample of |z| = 0.9 with re w <= 0
        "Se-64-bad-sample-inside": (
            lambda: check_class(series_of_vartheta(BesselParams(-1.5, 1, 1)), "Se"), 1, 0.9
        ),
        "Se-400": (
            lambda: check_class(series_of_vartheta(BesselParams(-1.7, 1, 1), 400), "Se"), 1, 0.9
        ),
        "Se-400-lacunary": (lambda: check_class(lacunary(1, 1, 300, 400, 0.01), "Se"), 2, 0.99),
        "Ke-64-lacunary": (lambda: check_class(lacunary(1, 1, 40, 64, 0.0075), "Ke"), 1, 0.9),
        "Ke-400-lacunary": (lambda: check_class(lacunary(1, 1, 300, 400, 1e-4), "Ke"), 2, 0.99),
        "Pe-64": (lambda: check_subordinate_exp(series_of_phi(BesselParams(-1.2, 1, 1))), 1, 0.9),
        # a refined sup above 1 on |z| = 0.999, two inner circles cleared;
        # at 512 angles f is not resolved there (at 4096 it is, and that
        # circle alone fails it)
        "Pe-64-lacunary": (
            lambda: check_subordinate_exp(
                lacunary(1, 0, 40, 64, 0.075), DiskGrid(angles_per_circle=512)
            ),
            2,
            0.999,
        ),
        # w = 1 + a z^64 with a 0.99^64 = 0.966: |z| = 0.99 holds the sup,
        # |log 0.034| = 3.38, which its bound meets, above the outer maximum
        # 3.16 (where w vanishes between the two circles)
        "Pe-64-sup-inside-tight": (
            lambda: check_subordinate_exp(PowerSeries((1.0,) + (0.0,) * 63 + (0.966 / 0.99**64,))),
            2,
            0.999,
        ),
        # no factor is certified on |z| = 0.999 and every inner circle
        # clears; at 1024 angles f is not resolved there (at 4096 it is, and
        # the check is a grid pass)
        "Pe-400-inconclusive": (
            lambda: check_subordinate_exp(
                lacunary(1, 0, 300, 400, 0.02), DiskGrid(angles_per_circle=1024)
            ),
            3,
            0.999,
        ),
        # the omega-Se quarter bound |z phi'/phi| < 1/4, its sup on |z| = 0.9
        "quarter-sup-inside": (
            lambda: check_quarter_bound(
                SeriesQuantity(series_of_phi(BesselParams(-1.2, 1, 1)), gft_checks.RATIOS["Se"])
            ),
            1,
            0.9,
        ),
        # phi has a zero at |z| ~ 0.04: no inner circle clears
        "Se-64-none-cleared": (
            lambda: check_class(series_of_vartheta(BesselParams(-0.99, 1, 1)), "Se"), 0, 0.999
        ),
    }

    @pytest.mark.parametrize("check, cleared, radius", CASES.values(), ids=CASES)
    def test_report_equals_the_full_plan(self, monkeypatch, check, cleared, radius):
        radii = []
        circle_values = gft_checks._circle_values

        def spy(w, terms, rs, angles):
            radii.append(tuple(rs))
            return circle_values(w, terms, rs, angles)

        monkeypatch.setattr(gft_checks, "_circle_values", spy)
        rep = check()
        plan = DiskGrid().radii
        assert rep.verdict != "pass" and rep.evidence == "samples"
        assert abs(abs(rep.witness) - radius) < 1e-12
        assert radii == [plan[-1:]] + ([plan[cleared:-1]] if cleared < len(plan) - 1 else [])
        # the disk bound forced to inf inside the grid sweep: every inner
        # circle is sampled
        sampled = gft_checks._sampled_sweep

        def unbounded(*args):
            with monkeypatch.context() as patch:
                patch.setattr(gft_checks, "_coefficient_bound", lambda *_: math.inf)
                return sampled(*args)

        monkeypatch.setattr(gft_checks, "_sampled_sweep", unbounded)
        radii.clear()
        full = check()
        assert radii == [plan[-1:], plan[:-1]]
        assert rep == full and rep.to_json_dict() == full.to_json_dict()

    def test_clearing_bound_folds_in_the_slack(self, monkeypatch):
        # |z| = 0.5 of vartheta(-1.5, 1, 1) is cleared by the Se bound of the
        # moduli |c_n| 0.5^n with each factor's transform slack at r = 0.5,
        # which lies above the same bound without the slack
        calls = []
        bound = gft_checks._coefficient_bound

        def spy(sizes, use_log, slack=(0.0, 0.0)):
            calls.append((sizes, slack, bound(sizes, use_log, slack)))
            return calls[-1][-1]

        monkeypatch.setattr(gft_checks, "_coefficient_bound", spy)
        f = series_of_vartheta(BesselParams(-1.5, 1, 1))
        check_class(f, "Se")
        terms = series_ops._Terms(f)
        sizes = gft_checks._factor_sizes(gft_checks._quantity(f, "Se"), terms)
        radial = 0.5 ** np.arange(f.coeffs.size)
        dilated = tuple(moduli * radial for moduli in sizes[:3]) + sizes[3:]
        slack = [2.0 * (4096 + f.coeffs.size) * sys.float_info.epsilon * float(m.sum())
                 for m in dilated[:2]]
        # the coefficient stage, then |z| = 0.5 (cleared) and 0.9 (not)
        assert len(calls) == 3
        (_, used, cleared), (_, _, kept) = calls[1:]
        assert used == slack and cleared == bound(dilated, True, slack)
        assert bound(dilated, True) < cleared < kept


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
        # ends: Brent's width rule ends the walk after 21 probes, unless
        # MAX_PROBES ends it first
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
        # over the bracket the sweep refined, and it is |log w| at its own
        # witness: every probe is a Horner pass at the point it reports.
        # Against |log w| there by mpmath, it may differ only by what row
        # errors of 1e-13 times the rows' scale (the bound TestEvalRows
        # holds the kernels to) and the rounding of the log can explain.
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
            r = abs(rep.witness)
            row_error = 1e-13 * oracles.rows_scale(series, r)
            exact, spread = oracles.log_height(series.coeffs, quantity, rep.witness, row_error)
            tol = spread + 8.0 * np.finfo(float).eps * max(1.0, exact)
            assert abs(rep.sup_value - exact) <= tol, (quantity, rep.sup_value, exact, tol)
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
    """Heights that agree to rounding do not stop the search: Brent's width rule does."""

    STEP = 2.0 * math.pi / 4096

    def test_flat_peak_runs_to_the_width_rule(self):
        # A peak 0.3 of a step off the bracket centre whose heights over the
        # whole bracket differ by at most 1e-16, as |log w| is near a flat
        # maximum: the sampled heights already agree to rounding, and the
        # search runs on until Brent's width rule stops it, 22 probes.
        t0 = 0.3 * self.STEP
        calls = []

        def fun(t):
            calls.append(t)
            return 0.5 - 1e-16 * ((t - t0) / self.STEP) ** 2

        sampled = (0.0, fun(-self.STEP), fun(0.0), fun(self.STEP))
        calls.clear()
        t, value = gft_checks._golden_max(fun, -self.STEP, self.STEP, sampled)
        assert len(calls) == 22
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
