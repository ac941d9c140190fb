"""Acceptance battery.

One test per criterion; each prints a single PASS line (with capture
suspended, so the lines always reach the terminal) once its assertions hold.
"""

import math
import time

import numpy as np
import pytest

from besselstar import (
    AnalyticMap,
    BesselParams,
    DiskGrid,
    PowerSeries,
    bessel_chain_step,
    check_class,
    check_subordinate_exp,
    example_linear_report,
    expected_extremum,
    extremal_curve,
    hyp_Ke,
    hyp_Pe,
    hyp_Se,
    hyp_bkc_chain,
    hyp_omega_Se,
    libera,
    normalized_phi_deficit,
    phi_derivative,
    phi_eval,
    series_of_phi,
    series_of_vartheta,
)
from besselstar.cli import FigureSpec, cmd_figure

import oracles

E = math.e


@pytest.fixture
def announce(capfd):
    def _announce(n, label, detail=""):
        line = f"ACCEPTANCE {n} ({label}): PASS"
        if detail:
            line += f" -- {detail}"
        with capfd.disabled():
            print(line, flush=True)

    return _announce


def halfplane_series(order=64):
    return PowerSeries((0.0,) + (1.0,) * order)


def halfplane_map():
    return AnalyticMap(
        lambda z: z / (1.0 - z),
        lambda z: 1.0 / (1.0 - z) ** 2,
        lambda z: 2.0 / (1.0 - z) ** 3,
    )


def test_criterion_1_closed_form_identities(announce):
    """Nine printed elementary closed forms, 200 points each, rel err <= 1e-11."""
    t0 = time.monotonic()
    rng = np.random.default_rng(1001)
    points = oracles.disk_points(rng, 200, rmin=1e-3, rmax=1.0)
    worst = 0.0
    for label, (nu, b, c), kind, closed_form in oracles.CLOSED_FORMS:
        params = BesselParams(nu, b, c)
        for z in points:
            z = complex(z)
            got = phi_eval(params, z, tol=1e-13).value
            if kind == "vartheta":
                got = z * got
            err = oracles.rel_err(got, closed_form(z))
            worst = max(worst, err)
            assert err <= 1e-11, f"{label} at z={z}: rel err {err:.3e}"
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"criterion 1 runtime {elapsed:.1f}s"
    announce(1, "closed-form identities", f"9 functions x 200 pts, worst {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_recurrence_and_ode_residuals(announce):
    """Derivative recurrence, both differential equations, and the operator
    order recurrence: 500 randomized cases, residuals below 1e-10."""
    from besselstar import b_operator

    t0 = time.monotonic()
    rng = np.random.default_rng(1002)

    def random_params():
        while True:
            nu = complex(rng.uniform(-4, 6), rng.uniform(-2, 2))
            b = complex(rng.uniform(-1, 3), rng.uniform(-1, 1))
            c = complex(rng.uniform(-8, 8), rng.uniform(-5, 5))
            kappa = nu + (b + 1) / 2
            near = min(
                abs(kappa - min(0, round(kappa.real))),
                abs(kappa + 1 - min(0, round(kappa.real + 1))),
            )
            if near > 0.1 and abs(kappa) < 20 and abs(c) > 1e-2:
                return BesselParams(nu, b, c)

    worst = {"deriv_shift": 0.0, "ode": 0.0, "ode_shifted": 0.0, "operator": 0.0}

    for _ in range(125):  # derivative / order-shift recurrence
        p = random_params()
        z = complex(*rng.uniform(-math.sqrt(2), math.sqrt(2), 2))
        lhs = 4 * p.kappa * phi_derivative(p, z, 1, tol=1e-14).value
        rhs = -p.c * phi_eval(p.shift(1), z, tol=1e-14).value
        worst["deriv_shift"] = max(worst["deriv_shift"], abs(lhs - rhs))

    for _ in range(125):  # the second-order equation for phi
        p = random_params()
        z = complex(*rng.uniform(-math.sqrt(2), math.sqrt(2), 2))
        f = phi_eval(p, z, tol=1e-14).value
        f1 = phi_derivative(p, z, 1, tol=1e-14).value
        f2 = phi_derivative(p, z, 2, tol=1e-14).value
        res = 4 * z * z * f2 + 4 * p.kappa * z * f1 + p.c * z * f
        worst["ode"] = max(worst["ode"], abs(res))

    for _ in range(125):  # order-raised equation for the scaled derivative
        p = random_params()
        z = complex(*rng.uniform(-math.sqrt(2), math.sqrt(2), 2))
        s = -4 * p.kappa / p.c
        p0 = s * phi_derivative(p, z, 1, tol=1e-14).value
        p1 = s * phi_derivative(p, z, 2, tol=1e-14).value
        p2 = s * phi_derivative(p, z, 3, tol=1e-14).value
        res = 4 * z * z * p2 + 4 * (p.kappa + 1) * z * p1 + p.c * z * p0
        worst["ode_shifted"] = max(worst["ode_shifted"], abs(res))

    for _ in range(125):  # operator order recurrence, coefficient-wise
        p = random_params()
        degree = int(rng.integers(8, 41))
        coeffs = [0.0, 1.0] + [complex(a, b) for a, b in rng.normal(0, 1, (degree - 1, 2))]
        f = PowerSeries(tuple(coeffs))
        low = b_operator(p, f)
        high = b_operator(p.shift(1), f)
        lhs = high.differentiate().shift_up()
        rhs = low.scale(p.kappa) - high.scale(p.kappa - 1)
        worst["operator"] = max(worst["operator"], lhs.max_deviation(rhs))

    assert worst["deriv_shift"] < 1e-10
    assert worst["ode"] < 1e-10
    assert worst["ode_shifted"] < 1e-10
    assert worst["operator"] < 1e-12
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"criterion 2 runtime {elapsed:.1f}s"
    announce(
        2,
        "recurrence/ODE residuals",
        "500 cases, worst "
        + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
        + f", {elapsed:.2f}s",
    )


FIGURE_SETS = (
    (1.0, 0.0, 2.0),    # kappa 3/2,  c 2
    (2.0, 0.0, 6.0),    # kappa 5/2,  c 6
    (3.0, 2.0, 10.0),   # kappa 9/2,  c 10
    (8.0, 0.0, 30.0),   # kappa 17/2, c 30
    (15.5, 0.0, 60.0),  # kappa 16,   c 60
)


def test_criterion_3_figure_reproduction(tmp_path, announce):
    """The five plotted parameter sets stay subordinate with margin > 1e-3 and
    their circle images sit inside the target region {w : |log w| < 1}."""
    margins = []
    for nu, b, c in FIGURE_SETS:
        params = BesselParams(nu, b, c)
        rep = hyp_Pe(params, verify=True)
        assert rep.applicable, (nu, b, c)
        assert rep.conclusion_check.verdict == "pass", (nu, b, c)
        assert rep.conclusion_check.margin > 1e-3, (nu, b, c)
        margins.append(rep.conclusion_check.margin)

        spec = FigureSpec("phi", params, radius=0.999, points=2048)
        summary = cmd_figure(
            spec,
            str(tmp_path / f"fig_{nu:g}.csv"),
            str(tmp_path / f"fig_{nu:g}.svg"),
        )
        assert summary["inside"] is True, (nu, b, c)
    announce(3, "figure reproduction", f"5 sets inside, min margin {min(margins):.4f}")


def test_criterion_4_counterexamples(announce):
    """Starlikeness fails where the plots say it fails, and the linear
    differential test certifies the order -5/2 functions with margin."""
    fail_half = check_class(series_of_vartheta(BesselParams(-0.5, 1, 1)), "Se")
    assert fail_half.verdict == "fail"
    fail_3half = check_class(series_of_vartheta(BesselParams(-1.5, 1, 1)), "Se")
    assert fail_3half.verdict == "fail"

    margins = []
    for c in (1, -1):
        rep = example_linear_report(
            BesselParams(-2.5, 1, c), halfplane_series(), alpha=1.0
        ).aux_checks[0]
        assert rep.verdict == "pass", c
        assert rep.margin > 1e-3, c
        margins.append(rep.margin)
        direct = check_class(series_of_vartheta(BesselParams(-2.5, 1, c)), "Se")
        assert direct.verdict == "pass", c
    announce(
        4,
        "counterexamples",
        f"two fail as plotted; order -5/2 certified, min margin {min(margins):.4f}",
    )


def test_criterion_5_extremal_oracles(announce):
    """Refined extrema match the closed forms to 1e-10 at the claimed angles."""
    for m in (1.0, 1.5, 2.0, 5.0):
        for kind in ("g1", "ell2"):
            curve = extremal_curve(kind, m)
            theta_want, value_want = expected_extremum(kind, m)
            delta = abs(curve.extremal_theta - theta_want) % (2 * math.pi)
            assert min(delta, 2 * math.pi - delta) < 1e-6, (kind, m)
            assert abs(curve.extremal_value - value_want) < 1e-10, (kind, m)
    curve = extremal_curve("g2")
    theta_want, value_want = expected_extremum("g2")
    delta = abs(curve.extremal_theta - theta_want) % (2 * math.pi)
    assert min(delta, 2 * math.pi - delta) < 1e-6
    assert abs(curve.extremal_value - value_want) < 1e-10
    announce(5, "extremal oracles", "g1/ell2 minima and g2 maximum match closed forms")


def test_criterion_6_soundness_sweep(announce):
    """200 randomized parameter draws; no applicable hypothesis set may have a
    failing conclusion across the five verified sufficient conditions."""
    t0 = time.monotonic()
    rng = np.random.default_rng(1006)
    failures = []
    counters = {"inconclusive": 0}
    applicable_counts = {"Pe": 0, "Ke": 0, "Se": 0, "omega": 0, "chain": 0}

    def draw_c(max_abs):
        return rng.uniform(0.05, max_abs) * np.exp(1j * rng.uniform(0, 2 * np.pi))

    def valid(kappa):
        return (
            abs(kappa - min(0, round(kappa.real))) > 0.1
            and abs(kappa) < 20
            and abs(kappa + 1 - min(0, round(kappa.real + 1))) > 0.1
        )

    def tally(name, report):
        if report.applicable:
            applicable_counts[name] += 1
            checks = list(report.aux_checks)
            if report.conclusion_check is not None:
                checks.append(report.conclusion_check)
            for chk in checks:
                if chk.verdict == "fail":
                    failures.append((name, report))
                elif chk.verdict == "inconclusive":
                    counters["inconclusive"] += 1

    ke_room = 0.7173119901059391  # (e^2+e-1)/(e^2(e-1)), for constructing draws

    for i in range(200):
        b = rng.uniform(-1, 2)

        # subordination of phi itself
        c = draw_c(10.0)
        kap = (
            abs(c) / 4 + 1 + rng.uniform(0, 3) + 1j * rng.uniform(-5, 5)
            if i % 2 == 0
            else complex(rng.uniform(-3, 6), rng.uniform(-5, 5))
        )
        if valid(kap):
            tally("Pe", hyp_Pe(BesselParams(kap - (b + 1) / 2, b, c), verify=True))

        # convexity condition
        c = draw_c(4.9)
        room = ke_room - abs(c) / (4 * (E - 1))
        radius = rng.uniform(0, max(room, 0.0)) if (room > 0 and i % 2 == 0) else rng.uniform(0, 1.5)
        kap = 2 + radius * np.exp(1j * rng.uniform(0, 2 * np.pi))
        if valid(kap):
            tally("Ke", hyp_Ke(BesselParams(kap - (b + 1) / 2, b, c), verify=True))

        # starlikeness condition
        c = draw_c(4.9)
        room = ke_room - abs(c) / (4 * (E - 1))
        radius = rng.uniform(0, max(room, 0.0)) if (room > 0 and i % 2 == 0) else rng.uniform(0, 1.5)
        kap = 3 + radius * np.exp(1j * rng.uniform(0, 2 * np.pi))
        if valid(kap):
            tally("Se", hyp_Se(BesselParams(kap - (b + 1) / 2, b, c), verify=True))

        # real-order unnormalized form
        c = draw_c(10.0)
        thr = max(abs(c) / 4 + 1, 5 * abs(c) / 3 + 0.75)
        kap = complex(thr + rng.uniform(0, 19 - thr) if (i % 2 == 0 and thr < 19) else rng.uniform(0.8, 19))
        if valid(kap):
            tally("omega", hyp_omega_Se(BesselParams(kap - (b + 1) / 2, b, c), verify=True))

        # operator chain step with the half-plane generator
        c = draw_c(6.0)
        if i % 2 == 0:
            imk = rng.uniform(-1.5, 1.5)
            kap = complex(max(2, abs(c) / 4 + imk**2 / 6 + 1.5) + rng.uniform(0, 2), imk)
        else:
            kap = complex(rng.uniform(1, 6), rng.uniform(-2, 2))
        if valid(kap):
            tally(
                "chain",
                hyp_bkc_chain(
                    BesselParams(kap - (b + 1) / 2, b, c),
                    halfplane_series(),
                    part="a",
                    f_exact=halfplane_map(),
                    verify=True,
                ),
            )

    elapsed = time.monotonic() - t0
    assert not failures, f"{len(failures)} counterexamples: {failures[:3]}"
    assert elapsed < 120.0, f"criterion 6 runtime {elapsed:.1f}s"
    counts = ", ".join(f"{k}={v}" for k, v in applicable_counts.items())
    announce(
        6,
        "soundness sweep",
        f"applicable {counts}; 0 failures, {counters['inconclusive']} inconclusive, {elapsed:.1f}s",
    )


def test_criterion_7_chain_corollary(announce):
    """Five order-raising steps starting from the order-3/2 starlike form."""
    nu = 1.5
    for step in range(1, 6):
        rep = bessel_chain_step(nu, verify=True)
        assert rep.applicable, f"step {step}"
        assert rep.conclusion_check.verdict == "pass", f"step {step}"
        nu += 1.0
    announce(7, "chain corollary", "orders 5/2 .. 13/2 all starlike")


def test_criterion_8_libera_images(announce):
    """The two printed Libera images are convex resp. starlike with margin,
    and match their elementary closed forms to 1e-10."""
    import mpmath as mp

    # for order 1/2 with b = c = 1 the normalized deficit is exactly -6 (calJ - 1)
    ke_source = normalized_phi_deficit(BesselParams(0.5, 1, 1), 64)
    ke_image = libera(ke_source)
    rep_ke = check_class(ke_image, "Ke")
    assert rep_ke.verdict == "pass"
    assert rep_ke.margin > 1e-3

    se_source = series_of_vartheta(BesselParams(1.5, 1, 1), 64)
    se_image = libera(se_source)
    rep_se = check_class(se_image, "Se")
    assert rep_se.verdict == "pass"
    assert rep_se.margin > 1e-3

    rng = np.random.default_rng(1008)
    for z in oracles.disk_points(rng, 25, rmin=0.05, rmax=0.95):
        z = complex(z)
        w = mp.sqrt(z)
        want_ke = complex(12 / mp.mpmathify(z) * (z + 2 * mp.cos(w) - 2))
        assert abs(ke_image.eval(z) - want_ke) < 1e-10
        want_se = complex(-12 / mp.mpmathify(z) * (w * mp.sin(w) + 2 * mp.cos(w) - 2))
        assert abs(se_image.eval(z) - want_se) < 1e-10
    announce(
        8,
        "Libera images",
        f"Ke margin {rep_ke.margin:.4f}, Se margin {rep_se.margin:.4f}, closed forms to 1e-10",
    )
