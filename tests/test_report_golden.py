"""Golden theorem reports: every row of ``CONDITIONS`` and both chain parts.

Each case in ``report_golden.json`` holds seeded parameters and the
``to_json_dict()`` of every report at orders 64 and 400: the rows of
``theorems.CONDITIONS`` (the order-form corollaries on their own nu and
c_sign, the omega row on a real kappa) and ``hyp_bkc_chain`` parts a and b
on a small normalized polynomial of the same degree, all verified on the
default grid.  The test compares the JSON text, so every float (signed
zeros included) must keep its bits.  Every seventh case has -0.0 imaginary
parts.  To write the file afresh from the current code (only when an output
change is intended):

    PYTHONPATH=src python tests/test_report_golden.py > tests/report_golden.json
"""

import json
import os
import sys

import numpy as np

from besselstar import BesselParams, PowerSeries, theorems

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
    cases = _load()
    assert len(cases) >= 30
    reports = [
        rep for case in cases for order in ORDERS for rep in case["reports"][str(order)].values()
    ]
    names = set(cases[0]["reports"]["64"])
    assert names == set(theorems.CONDITIONS) | {"chain-a", "chain-b"}
    conclusions = [r["conclusion"] for r in reports if r["conclusion"] is not None]
    assert {c["evidence"] for c in conclusions} == {"coefficients", "circle", "samples"}
    assert sum(r["applicable"] for r in reports) >= len(reports) // 3


if __name__ == "__main__":
    json.dump([{**case, "reports": _record(case)} for case in _cases()], sys.stdout, indent=1)
    sys.stdout.write("\n")
