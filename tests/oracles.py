"""High-precision reference evaluations used as independent test oracles.

Everything here goes through mpmath at 40 digits, or (horner_sweep) through
numpy's polyval, independent of the library code paths under test.
"""

import mpmath as mp
import numpy as np
from numpy.polynomial.polynomial import polyval

mp.mp.dps = 40


def phi_reference(nu, b, c, z, terms=200):
    """Direct high-precision summation of the normalized series."""
    kappa = mp.mpmathify(nu) + (mp.mpmathify(b) + 1) / 2
    z = mp.mpmathify(complex(z))
    total = mp.mpc(0)
    term = mp.mpc(1)
    for n in range(terms):
        total += term
        term = term * (-mp.mpmathify(c) / 4) * z / ((kappa + n) * (n + 1))
    return complex(total)


def gamma_reference(z):
    return complex(mp.gamma(mp.mpmathify(complex(z))))


def _w(z):
    return mp.sqrt(mp.mpmathify(complex(z)))


# Printed elementary closed forms, evaluated at high precision.  Keys are the
# (nu, b, c) triples; 'vartheta' entries are z * phi(z).


def cf_sinc_sqrt2(z):
    w = mp.sqrt(2 * mp.mpmathify(complex(z)))
    return complex(mp.sin(w) / w)


def cf_order2_c6(z):
    z = mp.mpmathify(complex(z))
    w = mp.sqrt(6 * z)
    return complex((mp.sqrt(6) * mp.sin(w) / z**mp.mpf(1.5) - 6 * mp.cos(w) / z) / 12)


def cf_order3_c10(z):
    z = mp.mpmathify(complex(z))
    w = mp.sqrt(10 * z)
    return complex(
        (
            21 * (-3 + 2 * z) * mp.cos(w) / z**3
            + 63 * (1 - 4 * z) * mp.sin(w) / (mp.sqrt(10) * z**mp.mpf(3.5))
        )
        / 40
    )


def cf_calJ_half(z):
    w = _w(z)
    return complex(mp.sin(w) / w)


def cf_calI_half(z):
    w = _w(z)
    return complex(mp.sinh(w) / w)


def cf_zcalJ_3half(z):
    w = _w(z)
    return complex(3 * (mp.sin(w) / w - mp.cos(w)))


def cf_zcalI_3half(z):
    w = _w(z)
    return complex(3 * (mp.cosh(w) - mp.sinh(w) / w))


def cf_zcalJ_5half(z):
    z = mp.mpmathify(complex(z))
    w = mp.sqrt(z)
    return complex(15 * ((3 - z) * mp.sin(w) - 3 * w * mp.cos(w)) / z**mp.mpf(1.5))


def cf_zcalI_5half(z):
    # hyperbolic companion of the order-5/2 form (cosh in the second term)
    z = mp.mpmathify(complex(z))
    w = mp.sqrt(z)
    return complex(15 * ((3 + z) * mp.sinh(w) - 3 * w * mp.cosh(w)) / z**mp.mpf(1.5))


# (label, (nu, b, c), kind, closed_form); kind 'phi' compares phi itself,
# 'vartheta' compares z * phi(z).
CLOSED_FORMS = (
    ("sin(sqrt(2z))/sqrt(2z)", (1, 0, 2), "phi", cf_sinc_sqrt2),
    ("order-2, c=6", (2, 0, 6), "phi", cf_order2_c6),
    ("order-3, b=2, c=10", (3, 2, 10), "phi", cf_order3_c10),
    ("normalized J, order 1/2", (0.5, 1, 1), "phi", cf_calJ_half),
    ("normalized I, order 1/2", (0.5, 1, -1), "phi", cf_calI_half),
    ("z * normalized J, order 3/2", (1.5, 1, 1), "vartheta", cf_zcalJ_3half),
    ("z * normalized I, order 3/2", (1.5, 1, -1), "vartheta", cf_zcalI_3half),
    ("z * normalized J, order 5/2", (2.5, 1, 1), "vartheta", cf_zcalJ_5half),
    ("z * normalized I, order 5/2", (2.5, 1, -1), "vartheta", cf_zcalI_5half),
)


def disk_points(rng, n, rmin=1e-3, rmax=1.0):
    """n pseudo-random points with rmin <= |z| <= rmax (area-uniform)."""
    r = np.sqrt(rng.uniform(rmin * rmin, rmax * rmax, n))
    th = rng.uniform(0.0, 2.0 * np.pi, n)
    return r * np.exp(1j * th)


def rel_err(got, want):
    scale = max(abs(want), 1e-300)
    return abs(got - want) / scale


def horner_sweep(coeffs, quantity, radii=(0.5, 0.9, 0.99, 0.999), n=4096, guard=1e-6):
    """Brute-force reference of the membership sweep on a truncated series.

    quantity 'Pe' monitors |log f|, 'Se' |log(z f'/f)| and 'Ke'
    |log(1 + z f''/f')|.  Every circle is evaluated by numpy's polyval
    (Horner) on the differentiated coefficients and |log w| by complex
    np.log.  The sampled argmax is refined by three rounds of 2001-point
    local sampling instead of golden-section search.  Verdict rules follow
    the documented sweep: fail on a sample with w non-finite, |w| <= 1e-14 or
    re w <= 0, or on sup >= 1; pass when sup < 1 - guard and the per-circle
    suprema grow with r (slack 1e-9); inconclusive otherwise.

    Returns (verdict, sup).
    """
    a = np.asarray(coeffs, dtype=complex)
    k = np.arange(a.size)
    d1 = (a * k)[1:]
    d2 = (d1 * k[:-1])[1:]

    def values(zs):
        if quantity == "Pe":
            return polyval(zs, a)
        if quantity == "Se":
            return zs * polyval(zs, d1) / polyval(zs, a)
        return 1.0 + zs * polyval(zs, d2) / polyval(zs, d1)

    def sampled(zs):
        with np.errstate(all="ignore"):
            w = values(zs)
            mags = np.abs(np.log(w))
        return w, np.where(np.isfinite(mags), mags, np.inf)

    step = 2.0 * np.pi / n
    theta = np.arange(n) * step
    per_radius = []
    broken = False
    sup, r_star, t_star = -np.inf, None, None
    for r in radii:
        w, mags = sampled(r * np.exp(1j * theta))
        with np.errstate(all="ignore"):
            broken |= bool((~np.isfinite(w) | (np.abs(w) <= 1e-14) | (w.real <= 0)).any())
        j = int(np.argmax(mags))
        per_radius.append(float(mags[j]))
        if mags[j] > sup:
            sup, r_star, t_star = float(mags[j]), r, theta[j]
    if not broken and np.isfinite(sup):
        lo, hi = t_star - step, t_star + step
        for _ in range(3):
            ts = np.linspace(lo, hi, 2001)
            _, mags = sampled(r_star * np.exp(1j * ts))
            j = int(np.argmax(mags))
            sup = max(sup, float(mags[j]))
            h = ts[1] - ts[0]
            lo, hi = ts[j] - h, ts[j] + h
    monotone = all(per_radius[i] <= per_radius[i + 1] + 1e-9 for i in range(len(per_radius) - 1))
    if broken or sup >= 1.0:
        return "fail", sup
    if monotone and sup < 1.0 - guard:
        return "pass", sup
    return "inconclusive", sup
