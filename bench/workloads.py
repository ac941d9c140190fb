"""Seeded workloads of the benchmark.

Each workload turns a seed into a fixed pool of op inputs (plain numbers,
coefficient tuples and argument lists); the library sees only those inputs.
One op is one library call sequence, timed from outside:

* ``soundness``  -- two criterion-6 draws: their sufficient-condition calls
  with ``verify=True``;
* ``scalar``     -- one scalar evaluation case (phi, its derivatives, omega,
  a named family member and gamma at one point);
* ``high-order`` -- one build-and-check of a degree-400 series;
* ``cli``        -- one ``python -m besselstar.cli`` process.

Every op has an output check.  Cheap checks run after each op; the costly
independent ones (mpmath, a second polynomial evaluation) run once per pool
item after the timed window, on the outputs of the first pass.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import numpy as np
from numpy.polynomial.polynomial import polyval

from besselstar import cli, gft_checks, series_ops, special_fn, theorems
from besselstar.gft_checks import AnalyticMap, MembershipReport
from besselstar.series_ops import PowerSeries
from besselstar.special_fn import BesselParams

E = math.e
# (e^2+e-1)/(e^2(e-1)): the right-hand side shared by the Ke and Se conditions.
KE_ROOM = (E * E + E - 1.0) / (E * E * (E - 1.0))


def _pole_distance(kappa: complex) -> float:
    return abs(kappa - min(0, round(kappa.real)))


def _valid_kappa(kappa: complex) -> bool:
    """Criterion-6 filter: kappa and kappa+1 away from poles, |kappa| < 20."""
    return _pole_distance(kappa) > 0.1 and abs(kappa) < 20 and _pole_distance(kappa + 1) > 0.1


def _report_verdicts(report) -> list[str]:
    """Verdicts of every sweep a TheoremReport or MembershipReport carries."""
    if isinstance(report, MembershipReport):
        return [report.verdict]
    checks = list(report.aux_checks)
    if report.conclusion_check is not None:
        checks.append(report.conclusion_check)
    return [c.verdict for c in checks]


def _membership_signature(rep: MembershipReport) -> tuple:
    return (rep.class_id, rep.verdict, rep.sup_value, rep.witness, rep.margin)


class Workload:
    name = ""
    warmup = 1  # pool items run untimed before the window

    def __init__(self, seed: int):
        self.pool = self.generate(np.random.default_rng(seed))

    def generate(self, rng) -> list:
        raise NotImplementedError

    def run(self, item):
        """The timed op."""
        raise NotImplementedError

    def run_traced(self, item):
        """The op as the traced run executes it (in process)."""
        return self.run(item)

    def check(self, item, result) -> str | None:
        """Cheap output check after every op; a string names the failure."""
        return None

    def signature(self, result):
        """Hashable summary compared across passes: outputs must repeat exactly."""
        return result

    def verdicts(self, result) -> list[str]:
        """Verdicts of the sweeps (MembershipReports) behind one op."""
        return []

    def deep_check(self, pairs) -> list[tuple[int, str]]:
        """Costly independent checks over (item, result) of the first pass.

        Each failure is the position of its pair in ``pairs`` and a message.
        """
        return []

    def kind(self, item) -> str:
        """Command kind, for per-kind timings."""
        return self.name


# ---------------------------------------------------------------------------
# soundness: the product's core job.  The criterion-6 draw distribution over
# the five verified conditions on the default 4 x 4096 grid at order 64.  The
# sweep (sampling plus golden-section refinement) dominates; it is the
# workload any sweep or theorem-table change must win on.  One op is a pair of
# consecutive draws, one built to meet the hypotheses and one drawn freely, with
# their (up to) ten condition calls.  Single calls cluster by condition (about
# 10, 13, 35 and 40 ms) and the two kinds of draw by cost (about 150 and 75 ms),
# so a median over calls or draws jumps between clusters; over pairs it does not.


def _halfplane_map() -> AnalyticMap:
    return AnalyticMap(
        lambda z: z / (1.0 - z),
        lambda z: 1.0 / (1.0 - z) ** 2,
        lambda z: 2.0 / (1.0 - z) ** 3,
    )


class Soundness(Workload):
    name = "soundness"
    draws = 120
    warmup = 1

    def generate(self, rng) -> list:
        items = []

        def draw_c(max_abs):
            return complex(rng.uniform(0.05, max_abs) * np.exp(1j * rng.uniform(0, 2 * np.pi)))

        for i in range(self.draws):
            calls = []

            def add(cond, kap, b, c):
                kap = complex(kap)
                if _valid_kappa(kap):
                    calls.append((cond, kap - (b + 1) / 2, b, c))

            b = float(rng.uniform(-1, 2))
            c = draw_c(10.0)
            kap = (
                abs(c) / 4 + 1 + rng.uniform(0, 3) + 1j * rng.uniform(-5, 5)
                if i % 2 == 0
                else complex(rng.uniform(-3, 6), rng.uniform(-5, 5))
            )
            add("Pe", kap, b, c)
            for cond, centre in (("Ke", 2.0), ("Se", 3.0)):
                c = draw_c(4.9)
                room = KE_ROOM - abs(c) / (4 * (E - 1))
                radius = (
                    rng.uniform(0, max(room, 0.0))
                    if (room > 0 and i % 2 == 0)
                    else rng.uniform(0, 1.5)
                )
                add(cond, centre + radius * np.exp(1j * rng.uniform(0, 2 * np.pi)), b, c)
            c = draw_c(10.0)
            thr = max(abs(c) / 4 + 1, 5 * abs(c) / 3 + 0.75)
            kap = (
                thr + rng.uniform(0, 19 - thr)
                if (i % 2 == 0 and thr < 19)
                else rng.uniform(0.8, 19)
            )
            add("omega", kap, b, c)
            c = draw_c(6.0)
            if i % 2 == 0:
                imk = rng.uniform(-1.5, 1.5)
                kap = complex(max(2, abs(c) / 4 + imk**2 / 6 + 1.5) + rng.uniform(0, 2), imk)
            else:
                kap = complex(rng.uniform(1, 6), rng.uniform(-2, 2))
            add("chain", kap, b, c)
            if i % 2 == 0:
                items.append(tuple(calls))
            else:
                items[-1] += tuple(calls)
        return items

    def run(self, draw):
        return tuple(self._call(*call) for call in draw)

    @staticmethod
    def _call(cond, nu, b, c):
        params = BesselParams(nu, b, c)
        if cond == "Pe":
            return theorems.hyp_Pe(params, verify=True)
        if cond == "Ke":
            return theorems.hyp_Ke(params, verify=True)
        if cond == "Se":
            return theorems.hyp_Se(params, verify=True)
        if cond == "omega":
            return theorems.hyp_omega_Se(params, verify=True)
        return theorems.hyp_bkc_chain(
            params,
            PowerSeries((0.0,) + (1.0,) * 64),
            part="a",
            f_exact=_halfplane_map(),
            verify=True,
        )

    def check(self, draw, reports) -> str | None:
        for call, report in zip(draw, reports):
            if not report.applicable:
                continue
            if report.conclusion_check is None:
                return f"{call[0]}: applicable but no conclusion was verified"
            if "fail" in _report_verdicts(report):
                return f"{call[0]} at {call[1:]}: applicable condition with a failing check"
        return None

    def signature(self, reports):
        return tuple(
            (
                r.applicable,
                tuple(h.lhs for h in r.hypotheses),
                tuple(
                    _membership_signature(c)
                    for c in (r.conclusion_check, *r.aux_checks)
                    if c is not None
                ),
            )
            for r in reports
        )

    def verdicts(self, reports) -> list[str]:
        return [v for r in reports for v in _report_verdicts(r)]


# ---------------------------------------------------------------------------
# scalar: random complex (nu, b, c, z) over the criterion-1/2 ranges.  All the
# work is special_fn's pure-Python series loop.  It bypasses series_ops and
# the sweep, so a sweep or series change must show no change here.


_FAMILY_NAMES = tuple(sorted(special_fn.FAMILIES))


class Scalar(Workload):
    name = "scalar"
    cases = 2000
    warmup = 200
    oracle_cases = 60

    def generate(self, rng) -> list:
        items = []
        while len(items) < self.cases:
            nu = complex(rng.uniform(-4, 6), rng.uniform(-2, 2))
            b = complex(rng.uniform(-1, 3), rng.uniform(-1, 1))
            c = complex(rng.uniform(-8, 8), rng.uniform(-5, 5))
            z = complex(*rng.uniform(-math.sqrt(2), math.sqrt(2), 2))
            tol = float(10.0 ** -rng.integers(12, 15))
            family = _FAMILY_NAMES[int(rng.integers(len(_FAMILY_NAMES)))]
            kappa = nu + (b + 1) / 2
            fam_b = special_fn.FAMILIES[family][0]
            if not (_valid_kappa(kappa) and abs(c) > 1e-2):
                continue
            if not _valid_kappa(nu + (fam_b + 1) / 2) or abs(z) < 1e-3:
                continue
            items.append((nu, b, c, z, tol, family))
        return items

    def run(self, item):
        nu, b, c, z, tol, family = item
        params = BesselParams(nu, b, c)
        return (
            special_fn.phi_eval(params, z, tol=tol),
            special_fn.phi_derivative(params, z, 1, tol=tol),
            special_fn.phi_derivative(params, z, 2, tol=tol),
            special_fn.phi_derivative(params, z, 3, tol=tol),
            special_fn.omega_eval(params, z, tol=tol),
            special_fn.named_family(family, nu, z, tol=tol),
            special_fn.gamma(params.kappa),
        )

    def check(self, item, result) -> str | None:
        tol = item[4]
        for res in result[:6]:
            v = res.value
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                return f"non-finite value at {item}"
        if any(r.tail_bound > tol for r in result[:4]):
            return f"tail bound above tol at {item}"
        return None

    def signature(self, result):
        return tuple(r.value for r in result[:6]) + (result[6],)

    def deep_check(self, pairs) -> list[tuple[int, str]]:
        """mpmath agreement on a subsample: relative error 1e-11 beyond the
        tail the library reports (its tolerance is absolute, so a derivative
        of small modulus may differ by up to its tail bound)."""
        import mpmath as mp  # test-only dependency, imported after the window

        mp.mp.dps = 40
        failures = []
        step = max(1, len(pairs) // self.oracle_cases)
        for pos in range(0, len(pairs), step):
            item, result = pairs[pos]
            want = _mp_scalar_case(mp, *item[:4], item[5])
            tails = [r.tail_bound for r in result[:6]] + [0.0]
            for label, g, w, tail in zip(_SCALAR_LABELS, self.signature(result), want, tails):
                err = abs(g - w)
                if not err <= 1e-11 * abs(w) + tail:
                    msg = (
                        f"scalar {label} at {item}: error {err:.2e}, "
                        f"|value| {abs(w):.2e}, tail {tail:.2e}"
                    )
                    failures.append((pos, msg))
        return failures


_SCALAR_LABELS = ("phi", "phi'", "phi''", "phi'''", "omega", "named", "gamma")


def _mp_phi_derivatives(mp, kappa, c, z, top=3):
    """phi and its derivatives up to order top, summed term-wise at high precision."""
    totals = [mp.mpc(0)] * (top + 1)
    coeff = mp.mpc(1)  # b_n = (-c/4)^n / ((kappa)_n n!)
    eps = mp.mpf(10) ** -35
    n = 0
    while True:
        terms = [coeff * mp.ff(n, k) * z ** (n - k) if n >= k else 0 for k in range(top + 1)]
        totals = [t + u for t, u in zip(totals, terms)]
        if n > top and max(abs(u) for u in terms) <= eps * (1 + max(abs(t) for t in totals)):
            return totals
        coeff = coeff * (-c / 4) / ((kappa + n) * (n + 1))
        n += 1


def _mp_scalar_case(mp, nu, b, c, z, family):
    """High-precision reference values for one scalar case."""
    nu_m, b_m, c_m, z_m = (mp.mpmathify(complex(x)) for x in (nu, b, c, z))
    kappa = nu_m + (b_m + 1) / 2
    phi = _mp_phi_derivatives(mp, kappa, c_m, z_m)
    omega = (
        mp.power(z_m, nu_m)
        / (mp.power(2, nu_m) * mp.gamma(kappa))
        * _mp_phi_derivatives(mp, kappa, c_m, z_m * z_m, top=0)[0]
    )
    fam_b, fam_c, base, _ = special_fn.FAMILIES[family]
    if family == "J":
        named = mp.besselj(nu_m, z_m)
    elif family == "I":
        named = mp.besseli(nu_m, z_m)
    elif base == "omega":  # spherical j/i from J/I of order nu + 1/2
        bessel = mp.besselj if fam_c == 1 else mp.besseli
        named = mp.sqrt(mp.pi / (2 * z_m)) * bessel(nu_m + mp.mpf(1) / 2, z_m)
    else:
        kap_f = nu_m + (mp.mpmathify(fam_b) + 1) / 2
        named = _mp_phi_derivatives(mp, kap_f, mp.mpmathify(fam_c), z_m, top=0)[0]
    return [complex(v) for v in (*phi, omega, named, mp.gamma(kappa))]


# ---------------------------------------------------------------------------
# high-order: degree-400 series built through b_operator, libera, alexander
# and hadamard, then checked for Se/Ke.  Horner's cost grows with degree, so
# this is the other side of any degree-against-angles trade in circle
# evaluation, and the only workload where series construction does real work.

HIGH_ORDER = 400
# An odd number of kinds in equal shares puts the median and p90 inside one
# kind's cluster of latencies rather than on the gap between two.
_HIGH_KINDS = ("vartheta-Se", "b_operator-Ke", "libera-Se", "hadamard-Se", "alexander-Se")


class HighOrder(Workload):
    name = "high-order"
    size = 50
    warmup = 2

    def generate(self, rng) -> list:
        items = []
        n = np.arange(2, HIGH_ORDER + 1)
        for i in range(self.size):
            kind = _HIGH_KINDS[i % len(_HIGH_KINDS)]
            kap = complex(rng.uniform(3.0, 6.0), rng.uniform(-1.0, 1.0))
            b = float(rng.uniform(-1, 2))
            c = complex(rng.uniform(0.2, 2.5) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            # Slowly decaying coefficients a_n ~ scale * u_n / n^p, |u_n| <= 1.
            # These ranges fix the verdict mix: alexander-Se always fails (a
            # fail skips the refinement, at a third of the cost) and the other
            # kinds pass, so the share of cheap ops does not move with the seed.
            p = rng.uniform(1.5, 2.0)
            scale = rng.uniform(0.05, 0.35)
            u = np.sqrt(rng.uniform(0, 1, n.size)) * np.exp(1j * rng.uniform(0, 2 * np.pi, n.size))
            coeffs = (0.0, 1.0) + tuple(complex(x) for x in scale * u / n**p)
            items.append((kind, kap - (b + 1) / 2, b, c, coeffs))
        return items

    def build(self, item) -> tuple[PowerSeries, str]:
        kind, nu, b, c, coeffs = item
        build_kind, class_id = kind.rsplit("-", 1)
        params = BesselParams(nu, b, c)
        if build_kind == "vartheta":
            return series_ops.series_of_vartheta(params, HIGH_ORDER), class_id
        if build_kind == "b_operator":
            halfplane = PowerSeries((0.0,) + (1.0,) * HIGH_ORDER)
            return series_ops.b_operator(params, halfplane), class_id
        f = PowerSeries(coeffs)
        if build_kind == "libera":
            return series_ops.libera(f), class_id
        if build_kind == "hadamard":
            bessel = series_ops.series_of_vartheta(params, HIGH_ORDER)
            return series_ops.hadamard(f, bessel), class_id
        return series_ops.alexander(f, "to_starlike"), class_id

    def run(self, item):
        g, class_id = self.build(item)
        return g, gft_checks.check_class(g, class_id)

    def check(self, item, result) -> str | None:
        g, _ = result
        if g.order != HIGH_ORDER:
            return f"{item[0]}: degree {g.order}, expected {HIGH_ORDER}"
        return None

    def signature(self, result):
        return _membership_signature(result[1])

    def verdicts(self, result) -> list[str]:
        return [result[1].verdict]

    def deep_check(self, pairs) -> list[tuple[int, str]]:
        failures = []
        for pos, (item, (g, report)) in enumerate(pairs):
            msg = _polyval_check(g, report)
            if msg:
                failures.append((pos, f"high-order {item[0]}: {msg}"))
        return failures


def _polyval_check(g: PowerSeries, report: MembershipReport) -> str | None:
    """Recompute the sampled maximum with numpy's polyval and test the report.

    The reported sup must reach the sampled maximum, and the verdict must
    agree with sup, the guard band and any sample that breaks the class.
    """
    a = np.array(g.coeffs)
    k = np.arange(a.size)
    d1 = (a * k)[1:]
    d2 = (d1 * k[:-1])[1:]
    grid = report.grid
    n = grid.angles_per_circle
    sampled = -math.inf
    broken = False
    for r in grid.radii:
        zs = r * np.exp(2j * math.pi * np.arange(n) / n)
        with np.errstate(all="ignore"):
            if report.class_id == "Se":
                w = zs * polyval(zs, d1) / polyval(zs, a)
            else:
                w = 1.0 + zs * polyval(zs, d2) / polyval(zs, d1)
            mags = np.abs(np.log(w))
        mags = np.where(np.isfinite(mags), mags, np.inf)
        sampled = max(sampled, float(mags.max()))
        bad = ~np.isfinite(w) | (np.abs(w) <= gft_checks.ZERO_TOL) | (w.real <= 0)
        broken |= bool(bad.any())
    sup, thr = report.sup_value, report.threshold
    if not sup >= sampled - 1e-9 * max(1.0, abs(sampled)):
        return f"sup {sup!r} below the sampled maximum {sampled!r}"
    if report.verdict == "pass" and not sup < thr - gft_checks.GUARD_DEFAULT:
        return f"pass with sup {sup!r} inside the guard band"
    if report.verdict == "inconclusive" and (sup >= thr or broken):
        return f"inconclusive with sup {sup!r} or a broken sample"
    if report.verdict == "fail" and not (sup >= thr or broken):
        return f"fail with sup {sup!r} and no broken sample"
    if broken and report.verdict != "fail":
        return "a sample breaks the class but the verdict is not fail"
    return None


# ---------------------------------------------------------------------------
# cli: one `python -m besselstar.cli` process at a time.  Interpreter start and
# import take most of each call, so this workload catches import-time
# regressions the in-process workloads hide; `figure` uses one circle, the
# O(N^2) winding test and file writes; the ex-* commands sweep twice.

_CLI_THEOREMS = (
    "Se", "omega-Se", "libera-Se", "bessel-b", "chain-bessel", "ex-linear", "ex-product"
)


def _num(x) -> str:
    x = complex(x)
    if x.imag == 0:
        return f"{x.real:.6f}"
    return f"{x.real:.6f}{x.imag:+.6f}j"


class Cli(Workload):
    name = "cli"
    blocks = 4
    warmup = 1

    def __init__(self, seed: int, root: str, workdir: str):
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        super().__init__(seed)

    def generate(self, rng) -> list:
        items = []
        for blk in range(self.blocks):
            for thm in _CLI_THEOREMS:
                items.append(self._theorem_args(rng, thm))
            items.append(self._class_args(rng, "Se"))
            items.append(self._class_args(rng, "Ke"))
            for kind in ("phi", "omega" if blk % 2 == 0 else "named"):
                items.append(self._eval_args(rng, kind))
            for q in ("phi", "starlike" if blk % 2 == 0 else "convex-ratio"):
                items.append(self._figure_args(rng, q, len(items)))
        return items

    def _theorem_args(self, rng, thm):
        args = ["check", "--theorem", thm, "--verify"]
        if thm in ("bessel-b", "chain-bessel"):
            nu = rng.uniform(1.0, 3.0) if thm == "chain-bessel" else rng.uniform(1.3, 2.7)
            sign = 1 if rng.uniform() < 0.5 else -1
            return args + [f"--nu={_num(nu)}", f"--c={sign}"]
        if thm == "omega-Se":
            c = rng.uniform(-1.5, 1.5)
            kap = max(abs(c) / 4 + 1, 5 * abs(c) / 3 + 0.75) + rng.uniform(-0.3, 3)
            b = rng.uniform(-1, 2)
            return args + [f"--nu={_num(kap - (b + 1) / 2)}", f"--b={_num(b)}", f"--c={_num(c)}"]
        if thm in ("Se", "libera-Se"):
            c = rng.uniform(0.1, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            kap = 3 + rng.uniform(0, 0.8) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        else:  # ex-linear / ex-product: operator images of the half-plane map
            c = rng.uniform(0.1, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            kap = complex(rng.uniform(1.5, 5.0), rng.uniform(-0.5, 0.5))
        b = rng.uniform(-1, 2)
        args += [f"--nu={_num(kap - (b + 1) / 2)}", f"--b={_num(b)}", f"--c={_num(c)}"]
        if thm == "ex-linear":
            args.append(f"--alpha={rng.uniform(0.5, 1.5):.6f}")
        return args

    def _class_args(self, rng, class_id):
        args = ["check", "--class", class_id]
        pick = int(rng.integers(3))
        if pick == 2:
            return args + ["--fn", "z" if class_id == "Se" else "halfplane"]
        kap = complex(rng.uniform(1.5, 5.0), rng.uniform(-1, 1))
        b = rng.uniform(-1, 2)
        c = rng.uniform(0.1, 3.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        args += [
            "--vartheta" if class_id == "Se" else "--normalized-phi",
            f"--nu={_num(kap - (b + 1) / 2)}",
            f"--b={_num(b)}",
            f"--c={_num(c)}",
        ]
        return args + (["--libera"] if pick == 1 else [])

    def _eval_args(self, rng, kind):
        z = rng.uniform(0.05, 1.2) * np.exp(1j * rng.uniform(-3.0, 3.0))
        nu = complex(rng.uniform(0.2, 4.0), rng.uniform(-1, 1))
        if kind == "named":
            name = _FAMILY_NAMES[int(rng.integers(len(_FAMILY_NAMES)))]
            return ["eval", "--named", name, f"--nu={_num(nu)}", f"--z={_num(z)}"]
        b = rng.uniform(-1, 2)
        c = complex(rng.uniform(-5, 5), rng.uniform(-3, 3))
        return [
            "eval", f"--{kind}", f"--nu={_num(nu)}", f"--b={_num(b)}", f"--c={_num(c)}",
            f"--z={_num(z)}",
        ]

    def _figure_args(self, rng, quantity, index):
        if quantity == "convex-ratio":
            nu, b, c = rng.uniform(1.0, 3.0), 1.0, 1.0
        else:
            nu, b, c = rng.uniform(0.5, 3.0), rng.uniform(0, 2), rng.uniform(0.5, 3.0)
        stem = f"fig{index:02d}"  # relative to the work dir, so output bytes do not name it
        return [
            "figure",
            "--quantity",
            quantity,
            f"--nu={_num(nu)}",
            f"--b={_num(b)}",
            f"--c={_num(c)}",
            "--csv",
            stem + ".csv",
            "--svg",
            stem + ".svg",
        ]

    def run(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "besselstar.cli", *argv],
            env=self.env,
            cwd=self.workdir,
            capture_output=True,
            timeout=120,
        )
        return proc.returncode, proc.stdout, self._files(argv)

    def run_traced(self, argv):
        out, err = StringIO(), StringIO()
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(list(argv))
        finally:
            os.chdir(cwd)
        return code, out.getvalue().encode(), self._files(argv)

    def _files(self, argv) -> tuple:
        if argv[0] != "figure":
            return ()
        csv_path = argv[argv.index("--csv") + 1]
        names = (csv_path, csv_path[:-4] + "_overlay.csv", argv[argv.index("--svg") + 1])
        out = []
        for path in (os.path.join(self.workdir, n) for n in names):
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    data = fh.read()
                out.append((os.path.basename(path), len(data), hashlib.sha256(data).hexdigest()))
        return tuple(out)

    def check(self, argv, result) -> str | None:
        code, stdout, files = result
        try:
            doc = json.loads(stdout)
        except ValueError:
            return f"{argv[:3]}: exit {code}, stdout is not JSON"
        want = _expected_exit(argv[0], doc)
        if code != want:
            return f"{argv[:3]}: exit {code}, JSON verdict says {want}"
        if argv[0] == "figure" and len(files) != len(doc["files"]):
            return f"{argv[:3]}: {len(files)} files written, summary lists {len(doc['files'])}"
        return None

    def verdicts(self, result) -> list[str]:
        doc = json.loads(result[1])
        sweeps = []
        if "verdict" in doc:
            sweeps.append(doc)
        if doc.get("conclusion"):
            sweeps.append(doc["conclusion"])
        sweeps.extend(doc.get("aux", ()))
        return [s["verdict"] for s in sweeps]

    def kind(self, argv) -> str:
        return argv[0]

    @staticmethod
    def bytes_out(result) -> int:
        return len(result[1]) + sum(size for _, size, _ in result[2])


def _expected_exit(command: str, doc: dict) -> int:
    codes = {"pass": 0, "fail": 1, "inconclusive": 4}
    if command != "check":
        return 0
    if "verdict" in doc:
        return codes[doc["verdict"]]
    if doc["conclusion"] is not None:
        return codes[doc["conclusion"]["verdict"]]
    return 0 if doc["applicable"] else 1


CLASSES = {"soundness": Soundness, "scalar": Scalar, "high-order": HighOrder, "cli": Cli}


def make(name: str, seed: int, root: str, workdir: str) -> Workload:
    if name == "cli":
        return Cli(seed, root, workdir)
    return CLASSES[name](seed)
