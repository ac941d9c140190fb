"""Golden scalar outputs: phi, its derivatives, omega, the named families, gamma.

Each case in ``scalar_golden.json`` holds its inputs and the exact bits of the
result (``float.hex`` of the real and imaginary parts, signed zeros included),
``terms_used`` and the hex of ``tail_bound``.  The test asserts that the
library still returns exactly those bits, so a rewrite of the series loop
that reorders any arithmetic fails here.  Every kappa stays more than 0.1
from a non-positive integer.  To write the file afresh from the current code
(only when an output change is intended):

    PYTHONPATH=src python tests/test_scalar_golden.py > tests/scalar_golden.json
"""

import json
import math
import os
import sys

import numpy as np

from besselstar import special_fn
from besselstar.special_fn import BesselParams, _nonpositive_integer_distance

GOLDEN = os.path.join(os.path.dirname(__file__), "scalar_golden.json")

TOLS = (1e-12, 1e-13, 1e-14, 1e-15)
FAMILY_NAMES = tuple(sorted(special_fn.FAMILIES))


def _hex(x: complex) -> list[str]:
    x = complex(x)
    return [x.real.hex(), x.imag.hex()]


def _unhex(pair: list[str]) -> complex:
    return complex(float.fromhex(pair[0]), float.fromhex(pair[1]))


def _cases() -> list[dict]:
    """Seeded inputs; every tenth z (and every seventh parameter set) has a -0.0 imaginary part."""
    rng = np.random.default_rng(1401)
    plan = (
        [("phi", None)] * 40
        + [("derivative", k) for k in (1, 2, 3) for _ in range(20)]
        + [("omega", None)] * 30
        + [("named", name) for name in FAMILY_NAMES for _ in range(5)]
        + [("gamma", None)] * 30
    )
    cases = []
    for i, (fn, extra) in enumerate(plan):
        while True:
            nu = complex(rng.uniform(-4, 6), rng.uniform(-2, 2))
            b = complex(rng.uniform(-1, 3), rng.uniform(-1, 1))
            c = complex(rng.uniform(-8, 8), rng.uniform(-5, 5))
            z = complex(*rng.uniform(-1.5, 1.5, 2))
            tol = TOLS[int(rng.integers(len(TOLS)))]
            cut = float(rng.uniform(-math.pi, math.pi)) if i % 2 else 0.0
            if i % 7 == 3:
                nu, b, c = complex(nu.real, -0.0), complex(b.real, -0.0), complex(c.real, -0.0)
            if i % 10 == 5:
                z = complex(abs(z.real), -0.0)
            if fn == "named":
                b = complex(special_fn.FAMILIES[extra][0])
            if fn == "gamma":
                # half the arguments take the reflection branch (re z < 0.5)
                z = complex(rng.uniform(-6, 0.5) if i % 2 else rng.uniform(0.5, 12), z.imag * 3)
                if _nonpositive_integer_distance(z) > 0.1:
                    break
                continue
            if _nonpositive_integer_distance(nu + (b + 1) / 2) > 0.1 and abs(z) > 1e-3:
                break
        case = {"fn": fn, "nu": _hex(nu), "b": _hex(b), "c": _hex(c), "z": _hex(z)}
        case["tol"] = tol.hex()
        if fn == "derivative":
            case["order"] = extra
        if fn == "omega":
            case["cut"] = cut.hex()
        if fn == "named":
            case["family"] = extra
        cases.append(case)
    return cases


def _evaluate(case: dict):
    nu, b, c, z = (_unhex(case[k]) for k in ("nu", "b", "c", "z"))
    tol = float.fromhex(case["tol"])
    fn = case["fn"]
    if fn == "gamma":
        return special_fn.gamma(z)
    if fn == "named":
        return special_fn.named_family(case["family"], nu, z, tol=tol)
    params = BesselParams(nu, b, c)
    if fn == "phi":
        return special_fn.phi_eval(params, z, tol=tol)
    if fn == "derivative":
        return special_fn.phi_derivative(params, z, case["order"], tol=tol)
    return special_fn.omega_eval(params, z, branch_cut_angle=float.fromhex(case["cut"]), tol=tol)


def _record(case: dict) -> dict:
    res = _evaluate(case)
    if case["fn"] == "gamma":
        return {"value": _hex(res), "terms_used": None, "tail_bound": None}
    return {
        "value": _hex(res.value),
        "terms_used": res.terms_used,
        "tail_bound": float(res.tail_bound).hex(),
    }


def _load() -> list[dict]:
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_scalar_outputs_are_bit_identical():
    outputs = ("value", "terms_used", "tail_bound")
    changed = []
    for entry in _load():
        inputs = {k: v for k, v in entry.items() if k not in outputs}
        got = _record(inputs)
        if got != {k: entry[k] for k in outputs}:
            changed.append((inputs, got))
    assert not changed, changed[:3]


def test_golden_covers_the_named_branches():
    cases = _load()
    assert len(cases) >= 200
    fns = {c["fn"] for c in cases}
    assert fns == {"phi", "derivative", "omega", "named", "gamma"}
    assert {c["order"] for c in cases if c["fn"] == "derivative"} == {1, 2, 3}
    assert {c["family"] for c in cases if c["fn"] == "named"} == set(FAMILY_NAMES)
    assert any(float.fromhex(c["cut"]) != 0.0 for c in cases if c["fn"] == "omega")
    assert any(float.fromhex(c["z"][0]) < 0.5 for c in cases if c["fn"] == "gamma")
    assert {float.fromhex(c["tol"]) for c in cases} == set(TOLS)
    assert any(c["z"][1] == "-0x0.0p+0" for c in cases)


if __name__ == "__main__":
    json.dump([{**case, **_record(case)} for case in _cases()], sys.stdout, indent=1)
    sys.stdout.write("\n")
