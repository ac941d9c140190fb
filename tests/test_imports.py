"""The import contract: the package loads lazily and each CLI subcommand
imports only what it uses, with the same output as an in-process run."""

import os
import subprocess
import sys

import pytest

import besselstar
from besselstar import cli

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p),
)

# The public names of the package, as they stood when it was first made lazy.
PUBLIC_NAMES = [
    "AnalyticMap", "BesselParams", "BesselstarError", "BranchError", "ConsistencyError",
    "DiskGrid", "EvalResult", "ExtremalCurve", "Hypothesis", "MaxTermsExceeded",
    "MembershipReport", "NonvanishingAtZero", "NotNormalized", "OutOfDomain", "PoleError",
    "PowerSeries", "SeriesQuantity", "TheoremReport", "ZeroDenominator", "alexander",
    "b_operator", "bessel_chain_step", "check_class", "check_quarter_bound",
    "check_subordinate_exp", "convex_quantity", "eval_rows", "example_linear_report",
    "example_product_report", "expected_extremum", "extremal_curve", "gamma", "hadamard",
    "hyp_Ke", "hyp_Pe", "hyp_Se", "hyp_bkc_chain", "hyp_corollaries", "hyp_libera",
    "hyp_omega_Se", "libera", "libera_kernel", "log_bound_lemma_check", "named_family",
    "normalized_phi_deficit", "omega_eval", "phi_derivative", "phi_eval", "pochhammer",
    "series_of_phi", "series_of_vartheta", "starlike_quantity",
]  # fmt: skip


def _python(*argv, cwd=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], env=ENV, cwd=cwd, capture_output=True, timeout=120
    )


class TestPackage:
    def test_public_names(self):
        assert len(PUBLIC_NAMES) == 52
        assert besselstar.__all__ == PUBLIC_NAMES
        assert set(PUBLIC_NAMES) <= set(dir(besselstar))

    @pytest.mark.parametrize("name", PUBLIC_NAMES)
    def test_name_is_the_submodules_own_object(self, name):
        obj = getattr(besselstar, name)
        module = sys.modules[obj.__module__]
        assert module.__name__.startswith("besselstar.")
        assert getattr(module, name) is obj

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            besselstar.no_such_name

    @pytest.mark.parametrize("code", ["import besselstar", "import besselstar.cli"])
    def test_import_loads_no_numpy(self, code):
        proc = _python("-c", f"{code}; import sys; print('numpy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == b"False"


def _imported_modules(stderr: bytes) -> set[str]:
    """The modules a `-X importtime` run lists on stderr."""
    return {
        line.rsplit("|", 1)[1].strip()
        for line in stderr.decode().splitlines()
        if line.startswith("import time:") and "|" in line
    } - {"imported package"}


FIGURE = ["figure", "--quantity", "phi", "--nu", "1", "--b", "0", "--c", "2",
          "--points", "64", "--csv", "fig.csv", "--svg", "fig.svg"]  # fmt: skip

# argv -> (loads numpy, loads theorems)
COMMANDS = [
    (["eval", "--phi", "--nu", "1", "--b", "0", "--c", "2", "--z", "0.25"], False, False),
    (["eval", "--omega", "--nu", "0.5", "--z", "-0.5"], False, False),  # math error, exit 3
    (["check", "--class", "Se", "--fn", "z", "--grid-angles", "64"], True, False),
    (["check", "--class", "Ke", "--normalized-phi", "--nu", "2", "--grid-angles", "64"],
     True, False),
    (["check", "--theorem", "Pe", "--nu", "1", "--b", "0", "--c", "2", "--grid-angles", "64"],
     True, True),
    (FIGURE, True, False),
]  # fmt: skip


class TestCliProcess:
    @pytest.mark.parametrize("argv, numpy, theorems", COMMANDS, ids=lambda v: str(v)[:40])
    def test_loads_only_what_it_uses(self, capsys, monkeypatch, tmp_path, argv, numpy, theorems):
        fresh, here = tmp_path / "fresh", tmp_path / "here"
        fresh.mkdir()
        here.mkdir()
        proc = _python("-X", "importtime", "-m", "besselstar.cli", *argv, cwd=fresh)
        modules = _imported_modules(proc.stderr)
        assert "besselstar.special_fn" in modules
        assert ("numpy" in modules) is numpy
        assert ("besselstar.theorems" in modules) is theorems
        if not numpy:
            assert {m for m in modules if m.startswith("besselstar.")} == {
                "besselstar.errors",
                "besselstar.special_fn",
            }

        monkeypatch.chdir(here)
        code = cli.main(list(argv))
        assert proc.returncode == code
        assert proc.stdout == capsys.readouterr().out.encode()
        files = sorted(p.name for p in fresh.iterdir())
        assert files == sorted(p.name for p in here.iterdir())
        assert len(files) == (3 if argv[0] == "figure" else 0)
        for name in files:
            assert (fresh / name).read_bytes() == (here / name).read_bytes()
