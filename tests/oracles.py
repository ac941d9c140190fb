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


def quantity_values(coeffs, quantity, zs):
    """w at the points zs by numpy's polyval: f ('Pe'), z f'/f ('Se') or
    1 + z f''/f' ('Ke') of the series with these coefficients."""
    a = np.asarray(coeffs, dtype=complex)
    k = np.arange(a.size)
    d1 = (a * k)[1:]
    d2 = (d1 * k[:-1])[1:]
    if quantity == "Pe":
        return polyval(zs, a)
    if quantity == "Se":
        return zs * polyval(zs, d1) / polyval(zs, a)
    return 1.0 + zs * polyval(zs, d2) / polyval(zs, d1)


def horner_sweep(coeffs, quantity, radii=(0.5, 0.9, 0.99, 0.999), n=4096, guard=1e-6):
    """Brute-force reference of the membership sweep on a truncated series.

    quantity 'Pe' monitors |log f|, 'Se' |log(z f'/f)| and 'Ke'
    |log(1 + z f''/f')|.  Every circle is evaluated by numpy's polyval
    (Horner) on the differentiated coefficients and |log w| by complex
    np.log.  The sampled argmax is refined by three rounds of 2001-point
    local sampling instead of the library's Brent search.  Verdict rules follow
    the documented sweep: fail on a sample with w non-finite, |w| <= 1e-14 or
    re w <= 0, or on sup >= 1; pass when sup < 1 - guard and the per-circle
    suprema grow with r (slack 1e-9); inconclusive otherwise.

    Returns (verdict, sup).
    """

    def sampled(zs):
        with np.errstate(all="ignore"):
            w = quantity_values(coeffs, quantity, zs)
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


def rows_scale(series, r):
    """sum_n n^p |a_n| r^n per row p: the size of Horner's rounding error at radius r."""
    a = np.abs(np.array(series.coeffs))
    n = np.arange(a.size)
    rn = r ** n
    return np.array([np.sum(n**p * a * rn) for p in range(3)])


def log_height(coeffs, quantity, z, row_error):
    """|log w| at z by mpmath at 30 digits, and how far row errors can move it.

    w is f ('Pe'), z f'/f ('Se') or 1 + z f''/f' ('Ke'), from the rows
    theta^p f (f, z f' and z f' + z^2 f'') of the series summed at z.  The
    second value bounds, to first order, the change of |log w| when row p
    moves by row_error[p]: log w is log f, or log theta^(p+1) f -
    log theta^p f for Se (p = 0) and Ke (p = 1), and a log moves by at most
    the change of its argument over its modulus.
    """
    with mp.workdps(30):
        z = mp.mpc(z.real, z.imag)
        rows = [mp.mpc(0)] * 3
        zn = mp.mpc(1)
        for n, a in enumerate(coeffs):
            term = mp.mpc(a.real, a.imag) * zn
            rows = [row + n**p * term for p, row in enumerate(rows)]
            zn *= z
        if quantity == "Pe":
            w, spread = rows[0], row_error[0] / abs(rows[0])
        else:
            p = 0 if quantity == "Se" else 1
            w = rows[p + 1] / rows[p]
            spread = row_error[p] / abs(rows[p]) + row_error[p + 1] / abs(rows[p + 1])
        return float(abs(mp.log(w))), float(spread)


def zeros_inside(coeffs, radius):
    """Zeros of sum_n c_n z^n in 0 < |z| < radius, with multiplicity.

    Candidates come from np.roots on the polynomial stripped of the
    coefficients below 1e-20 of the largest at both ends: the leading ones
    are its zero at 0, and the trailing ones cannot move a zero inside the
    unit disk by a visible amount.  Each candidate within 0.05 of the disk
    is then polished by mpmath.findroot on the full polynomial at 40 digits.
    """
    c = np.asarray(coeffs, dtype=complex)
    big = np.flatnonzero(np.abs(c) > 1e-20 * np.abs(c).max())
    c = c[big[0]:big[-1] + 1]
    full = [mp.mpc(complex(x)) for x in coeffs[::-1]]
    out = []
    for root in np.roots(c[::-1]):
        if abs(root) < radius + 0.05:
            z = complex(mp.findroot(lambda z: mp.polyval(full, z), mp.mpc(complex(root))))
            if 1e-12 < abs(z) < radius:
                out.append(z)
    return out


def circle_sup(coeffs, quantity, use_log=True, n=8192, r=1.0):
    """Sup of |log w| (use_log) or |w| on |z| = r, w as in quantity_values.

    n polyval samples, then 80 golden-section steps on the two grid steps
    around the best one; independent of the library's sweep and its Brent
    search.  Non-finite heights count as inf.
    """
    step = 2.0 * np.pi / n

    def heights(t):
        with np.errstate(all="ignore"):
            w = quantity_values(coeffs, quantity, r * np.exp(1j * np.asarray(t, dtype=float)))
            h = np.abs(np.log(w)) if use_log else np.abs(w)
        return np.where(np.isfinite(h), h, np.inf)

    sampled = heights(np.arange(n) * step)
    k = int(np.argmax(sampled))
    best = float(sampled[k])
    a, b = (k - 1) * step, (k + 1) * step
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(80):
        c, d = b - ratio * (b - a), a + ratio * (b - a)
        hc, hd = heights([c, d])
        best = max(best, float(hc), float(hd))
        if hc >= hd:
            b = d
        else:
            a = c
    return best


def arc_bound(coeffs, rows, zero, pole, m, use_log=True):
    """The circle stage's bound on |log w| or |w|, w = N/D, at 40 digits.

    rows maps a row index p (theta^p f: 0 is f, 1 z f', 2 z f' + z^2 f'', 3
    theta^3 f) to its m samples on |z| = 1 as the library computed them;
    zero and pole are the rows N and D (pole None for D = 1).  On the arc
    around sample k a factor row p, with coefficients c_n = n^p a_n, is
    within delta_k = h |P'_k| + (h^2/2) U + (m + size) eps (T + S) of its
    sample (Taylor's theorem to second order), h = pi/m, P'_k the sample
    of row p + 1, T = sum |c_n|, S = sum n |c_n|, U = sum n^2 |c_n|, size
    coefficients.  e_k = (delta_N + |w_k| delta_D) / (|D_k| - delta_D)
    bounds |w - w_k| there; the arc's height is |Log w_k| - log(1 -
    e_k/|w_k|) or |w_k| + e_k.  Returns the largest height, inf when an arc
    is not resolved.
    """
    sizes = [abs(mp.mpc(complex(c))) for c in coeffs]
    eps = mp.mpf(2) ** -52
    h = mp.pi / m

    def factor(p):
        samples = [mp.mpc(complex(rows[p][k])) for k in range(m)]
        total, moment, curvature = (
            mp.fsum(n ** (p + j) * x for n, x in enumerate(sizes)) for j in range(3)
        )
        fixed = h**2 / 2 * curvature + (m + len(sizes)) * eps * (total + moment)
        deltas = [h * abs(mp.mpc(complex(rows[p + 1][k]))) + fixed for k in range(m)]
        return samples, deltas

    top, d_top = factor(zero)
    bottom, d_bottom = factor(pole) if pole is not None else ([mp.mpc(1)] * m, [0] * m)
    best = -mp.inf
    for n_k, d_k, dn_k, dd_k in zip(top, bottom, d_top, d_bottom):
        room = abs(d_k) - dd_k
        if room <= 0:
            return mp.inf
        w = n_k / d_k
        e = (dn_k + abs(w) * dd_k) / room
        if not use_log:
            best = max(best, abs(w) + e)
        elif e >= abs(w):
            return mp.inf
        else:
            best = max(best, abs(mp.log(w)) - mp.log1p(-e / abs(w)))
    return best
