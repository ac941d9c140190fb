"""Golden theorem reports: every row of ``CONDITIONS`` and both chain parts.

Each case in ``report_golden.json`` holds seeded parameters and the
``to_json_dict()`` of every report at orders 64 and 400: the rows of
``theorems.CONDITIONS`` (the order-form corollaries on their own nu and
c_sign, the omega row on a real kappa) and ``hyp_bkc_chain`` parts a and b
on a small normalized polynomial of the same degree, all verified on the
default grid.  After those cases come single checks on fixed series (the
entries with a "check" key): ``check_quarter_bound`` and
``check_subordinate_exp`` decided by each evidence kind, grid fails of
both, a quarter bound inconclusive in the guard band and an inconclusive
``check_class``.  The test
compares the JSON text, so every float (signed zeros included) must keep its
bits.  Every seventh case has -0.0 imaginary parts.  To write the file
afresh from the current code (only when an output change is intended):

    PYTHONPATH=src python tests/test_report_golden.py > tests/report_golden.json
"""

import json
import math
import os
import sys

import numpy as np

from besselstar import (
    BesselParams,
    PowerSeries,
    SeriesQuantity,
    check_class,
    check_quarter_bound,
    check_subordinate_exp,
    gft_checks,
    series_of_phi,
    theorems,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "report_golden.json")

ORDERS = (64, 400)
COROLLARIES = {
    "bessel-a": 1.0,
    "bessel-b": 2.0,
    "spherical-a": 0.5,
    "spherical-b": 1.5,
}


def _hex(x: complex) -> list[str]:
    x = complex(x)
    return [x.real.hex(), x.imag.hex()]


def _unhex(pair: list[str]) -> complex:
    return complex(float.fromhex(pair[0]), float.fromhex(pair[1]))


def _cases() -> list[dict]:
    """Seeded parameters near the conditions' regions, so most conclusions are verified."""
    rng = np.random.default_rng(1601)
    cases = []
    for i in range(30):
        b = complex(rng.uniform(-1, 3), rng.uniform(-0.5, 0.5))
        if i % 2:
            # a large |c| at the edge of the Pe condition re(kappa) >= |c|/4 + 1
            c = complex(rng.uniform(4.0, 48.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            kappa = complex(abs(c) / 4.0 + 1.0 + rng.uniform(0.0, 0.2), rng.uniform(-0.5, 0.5))
        else:
            c = complex(abs(rng.normal(0.0, 1.5)) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            kappa = complex(rng.uniform(1.6, 4.5), rng.uniform(-0.5, 0.5))
        # at the edge of kappa >= max(|c|/4 + 1, 5|c|/3 + 3/4)
        omega_c = rng.uniform(0.3, 3.0)
        omega_kappa = max(omega_c / 4.0 + 1.0, 5.0 * omega_c / 3.0 + 0.75) + rng.uniform(0.0, 0.2)
        nu = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
        # every third chain polynomial is far from z, at the edge of convexity
        size = 0.25 if i % 3 == 2 else 0.05
        tail = rng.normal(size=(4, 2)) @ [1.0, 1j] * size / np.arange(2, 6) ** 2
        if i % 7 == 3:
            kappa, c, b = complex(kappa.real, -0.0), complex(c.real, -0.0), complex(b.real, -0.0)
            nu = complex(nu.real, -0.0)
        cases.append(
            {
                "nu": _hex(kappa - (b + 1) / 2),
                "b": _hex(b),
                "c": _hex(c),
                "omega_kappa": float(omega_kappa).hex(),
                "omega_c": float(omega_c).hex(),
                "corollary_nu": _hex(nu),
                "c_sign": 1 if i % 2 else -1,
                "chain_tail": [_hex(a) for a in tail],
            }
        )
    return cases


def _exp_series(s: float, order: int = 48) -> list[complex]:
    """The coefficients s^n / n! of exp(s z)."""
    return [complex(s**n / math.factorial(n)) for n in range(order + 1)]


def _checks() -> list[dict]:
    """Single checks: check kind, the ratio a quarter bound reads, and the series."""
    phi = series_of_phi(BesselParams(1.5, 1, 1)).coeffs
    bessel_pole = series_of_phi(BesselParams(1.5, 1, 3)).coeffs
    edge = 0.25 / 0.999 - 5e-7
    checks = [
        ("quarter", "Se", phi),  # coefficients
        ("quarter", "Pe", [0.0, 0.1, 0.1, -0.1]),  # circle: sup sqrt(5)/10, sum 0.3
        ("quarter", "Pe", [0.0, 0.25]),  # samples: 0.999/4 on the grid
        ("quarter", "Pe", [0.0, 1.0 / 3.0]),  # grid fail
        ("quarter", "Se", bessel_pole),  # grid fail
        ("quarter", "Pe", [0.0, edge]),  # inconclusive, in the guard band
        ("exp", "Pe", _exp_series(0.3)),  # coefficients
        ("exp", "Pe", _exp_series(0.5)),  # circle
        ("exp", "Pe", _exp_series(0.99)),  # samples
        ("exp", "Pe", _exp_series(1.2)),  # grid fail
        ("Se", "Se", [1e-12, 1.0, 0.1]),  # inconclusive: f vanishes near 0
    ]
    return [
        {"check": check, "ratio": ratio, "coeffs": [_hex(a) for a in coeffs]}
        for check, ratio, coeffs in checks
    ]


def _check_report(entry: dict) -> dict:
    f = PowerSeries([_unhex(a) for a in entry["coeffs"]])
    if entry["check"] == "quarter":
        p = f if entry["ratio"] == "Pe" else SeriesQuantity(f, gft_checks.RATIOS[entry["ratio"]])
        return check_quarter_bound(p).to_json_dict()
    if entry["check"] == "exp":
        return check_subordinate_exp(f).to_json_dict()
    return check_class(f, entry["check"]).to_json_dict()


def _reports(case: dict, order: int) -> dict:
    params = BesselParams(*(_unhex(case[k]) for k in ("nu", "b", "c")))
    out = {}
    for name, cond in theorems.CONDITIONS.items():
        if name in COROLLARIES:
            subject = _unhex(case["corollary_nu"]) + COROLLARIES[name]
        elif name == "omega-Se":
            # kappa = nu + 1 with b = 1, real for real nu
            kappa, c = (float.fromhex(case[k]) for k in ("omega_kappa", "omega_c"))
            subject = BesselParams(kappa - 1.0, 1, c * case["c_sign"])
        else:
            subject = params
        rep = theorems._run_condition(name, subject, True, None, order, case["c_sign"])
        out[name] = rep.to_json_dict()
    tail = [_unhex(a) for a in case["chain_tail"]]
    f = PowerSeries([0.0, 1.0] + tail + [0.0] * (order - 1 - len(tail)))
    for part in ("a", "b"):
        rep = theorems.hyp_bkc_chain(params, f, part=part, verify=True)
        out[f"chain-{part}"] = rep.to_json_dict()
    return out


def _record(case: dict) -> dict:
    if "check" in case:
        return _check_report(case)
    return {str(order): _reports(case, order) for order in ORDERS}


def _load() -> list[dict]:
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_reports_are_bit_identical():
    changed = []
    for entry in _load():
        inputs = {k: v for k, v in entry.items() if k != "reports"}
        got = json.dumps(_record(inputs), sort_keys=True)
        if got != json.dumps(entry["reports"], sort_keys=True):
            changed.append(inputs)
    assert not changed, changed[:3]


def test_golden_covers_every_row_and_evidence():
    cases = [case for case in _load() if "check" not in case]
    assert len(cases) >= 30
    reports = [
        rep for case in cases for order in ORDERS for rep in case["reports"][str(order)].values()
    ]
    names = set(cases[0]["reports"]["64"])
    assert names == set(theorems.CONDITIONS) | {"chain-a", "chain-b"}
    conclusions = [r["conclusion"] for r in reports if r["conclusion"] is not None]
    assert {c["evidence"] for c in conclusions} == {"coefficients", "circle", "samples"}
    assert sum(r["applicable"] for r in reports) >= len(reports) // 3


def test_golden_checks_cover_every_evidence_and_verdict():
    reports = [(case["check"], case["reports"]) for case in _load() if "check" in case]
    passes = {(check, rep["evidence"]) for check, rep in reports if rep["verdict"] == "pass"}
    for check in ("quarter", "exp"):
        assert {(check, e) for e in ("coefficients", "circle", "samples")} <= passes
    verdicts = {(check, rep["verdict"]) for check, rep in reports}
    assert {("quarter", "fail"), ("exp", "fail"), ("quarter", "inconclusive")} <= verdicts
    assert ("Se", "inconclusive") in verdicts


if __name__ == "__main__":
    cases = _cases() + _checks()
    json.dump([{**case, "reports": _record(case)} for case in cases], sys.stdout, indent=1)
    sys.stdout.write("\n")
