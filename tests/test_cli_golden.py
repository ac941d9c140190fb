"""Golden output of `besselstar check`: every --theorem name and the --class inputs.

Each case runs ``cli.main`` on the default grid and compares its exit code
and stdout, byte for byte, with ``cli_check_golden.json``.  To write that
file afresh from the current code (only when an output change is intended):

    PYTHONPATH=src python tests/test_cli_golden.py > tests/cli_check_golden.json
"""

import contextlib
import io
import json
import os
import sys

import pytest

from besselstar import cli

GOLDEN = os.path.join(os.path.dirname(__file__), "cli_check_golden.json")

PARAMS = {
    "Pe": "--nu 1 --b 1 --c 1",
    "Ke": "--nu 1 --b 1 --c 1",
    "Se": "--nu 2.5 --b 1 --c 1",
    "omega-Se": "--nu 2.5 --b 1 --c 1",
    "bkc-chain-a": "--nu 2.5 --b 1 --c 1",
    "bkc-chain-b": "--nu 2.5 --b 1 --c 1 --fn z",
    "bessel-a": "--nu 1",
    "bessel-b": "--nu 2",
    "spherical-a": "--nu 0.5",
    "spherical-b": "--nu 1.5",
    "libera-Ke": "--nu 1 --b 1 --c 1",
    "libera-Se": "--nu 2.5 --b 1 --c 1",
    "chain-bessel": "--nu 1.5",
    "ex-linear": "--nu 1.5 --b 1 --c 1",
    "ex-product": "--nu 1.5 --b 1 --c 1",
}

CASES = [f"check --verify --theorem {name} {PARAMS[name]}" for name in cli.THEOREMS] + [
    # the truncated z f' of the default generator is not convex
    "check --verify --theorem bkc-chain-b --nu 2.5 --b 1 --c 1",
    "check --class Se --vartheta --nu 2.5 --b 1 --c 1",
    "check --class Ke --vartheta --nu 2.5 --b 1 --c 1",
    "check --class Ke --normalized-phi --nu 2.5 --b 1 --c 1",
    "check --class Se --fn z",
    "check --class Ke --fn z",
    "check --class Se --fn halfplane",
    "check --class Ke --fn halfplane",
    "check --class Se --libera --vartheta --nu 1 --b 1 --c 1",
    "check --class Ke --libera --normalized-phi --nu 2.5 --b 1 --c 1",
    # a zero of f inside the disk: the winding certificate fails the sweep
    "check --class Se --vartheta --nu -0.99 --b 1 --c 1",
    # passes proven from samples of |z| = 1 (evidence "circle"), the last in
    # a theorem's conclusion
    "check --class Se --vartheta --nu 3 --b 1 --c 6",
    "check --class Ke --vartheta --nu 1.5 --b 1 --c 2",
    "check --verify --theorem Se --nu 2 --b 1 --c 4",
    # a grid fail whose sup and witness are on |z| = 0.9, with the circle
    # |z| = 0.5 cleared by its disk bound and not sampled
    "check --class Se --vartheta --nu -1.5 --b 1 --c 1",
]


def _run(case: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(case.split())
    return code, out.getvalue()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_every_theorem_has_a_case():
    assert set(PARAMS) == set(cli.THEOREMS)


@pytest.mark.parametrize("case", CASES)
def test_check_output_is_unchanged(golden, case):
    code, stdout = _run(case)
    assert {"exit": code, "stdout": stdout} == golden[case]


if __name__ == "__main__":
    doc = {}
    for case in CASES:
        code, stdout = _run(case)
        doc[case] = {"exit": code, "stdout": stdout}
    json.dump(doc, sys.stdout, indent=1)
    sys.stdout.write("\n")
