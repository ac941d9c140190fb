import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from besselstar import BesselParams, cli
from besselstar.cli import (
    FigureSpec,
    dumps,
    exp_boundary,
    figure_curve,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestJsonEmitter:
    def test_seventeen_digits(self):
        assert dumps(0.1) == "0.10000000000000001"

    def test_short_values_stay_short(self):
        assert dumps(0.5) == "0.5"

    def test_roundtrip(self):
        payload = {"a": [1.5, -2.25], "b": True, "c": None, "d": "x\"y"}
        assert json.loads(dumps(payload)) == payload

    def test_complex_as_pair(self):
        assert json.loads(dumps(1 + 2j)) == [1.0, 2.0]

    def test_infinity(self):
        assert dumps(float("inf")) == "Infinity"

    def test_control_characters_escaped(self):
        text = "a\tb\n\x01\"\\"
        assert json.loads(dumps(text)) == text
        assert json.loads(dumps({text: [text]})) == {text: [text]}

    def test_plain_strings_unchanged(self):
        # the escaping of backslash and quote, and non-ASCII text, as before
        assert dumps('x"y\\z') == '"x\\"y\\\\z"'
        assert dumps("Se: |log w| < 1, \u03ba") == '"Se: |log w| < 1, \u03ba"'


class TestWindingNumber:
    def test_exp_boundary_contains_one(self):
        # the overlay curve winds once around 1 and not around e + 0.1, and
        # lies on the boundary |log w| = 1 of the region `inside` tests
        boundary = exp_boundary(512)

        def winding(p):
            d = boundary - p
            return round(float(np.sum(np.angle(np.roll(d, -1) / d))) / (2 * math.pi))

        assert winding(1.0) == 1
        assert winding(math.e + 0.1) == 0
        assert np.max(np.abs(np.abs(np.log(boundary)) - 1.0)) < 1e-15


class TestEval:
    def test_phi_at_zero(self, capsys):
        code, out = run(capsys, "eval", "--phi", "--nu", "1", "--b", "0", "--c", "2", "--z", "0")
        assert code == 0
        data = json.loads(out)
        assert data["value"] == [1.0, 0.0]
        assert data["tail_bound"] == 0.0

    def test_named_family(self, capsys):
        code, out = run(capsys, "eval", "--named", "calJ", "--nu", "0.5", "--z", "0.49")
        assert code == 0
        value = json.loads(out)["value"]
        assert value[0] == pytest.approx(math.sin(0.7) / 0.7, abs=1e-12)

    def test_omega(self, capsys):
        code, out = run(capsys, "eval", "--omega", "--nu", "0.5", "--b", "1", "--c", "1", "--z", "1")
        assert code == 0
        value = json.loads(out)["value"]
        assert value[0] == pytest.approx(math.sqrt(2 / math.pi) * math.sin(1.0), abs=1e-12)

    def test_omega_at_zero(self, capsys):
        code, out = run(capsys, "eval", "--omega", "--nu", "1", "--b", "1", "--c", "1", "--z", "0")
        assert code == 0
        assert out.startswith('{"value": [0, 0], ')

    def test_math_error_exit_code(self, capsys):
        # kappa = 0 is rejected at construction
        code = main(["eval", "--phi", "--nu", "-0.5", "--b", "0", "--c", "1", "--z", "0"])
        assert code == 3

    def test_branch_cut_is_math_error(self):
        code = main(["eval", "--omega", "--nu", "0.5", "--b", "1", "--c", "1", "--z", "-0.5"])
        assert code == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["--phi", "--nu", "1", "--z", "1", "--tol", "nan"],
            ["--phi", "--nu", "1", "--z", "1", "--tol", "inf"],
            ["--omega", "--tol", "nan"],
            ["--omega", "--branch-cut-angle", "nan"],
            ["--omega", "--branch-cut-angle", "inf"],
            ["--omega", "--branch-cut-angle=-inf"],
        ],
    )
    def test_non_finite_tol_or_angle_is_math_error(self, capsys, argv):
        if argv[0] == "--omega":
            argv += ["--nu", "1", "--b", "1", "--c", "1", "--z", "0.5"]
        code, out = run(capsys, "eval", *argv)
        assert code == 3 and out == ""

    def test_large_order_omega(self, capsys):
        # Gamma(151) is finite; the value underflows to 0 but is no error
        code, out = run(capsys, "eval", "--omega", "--nu", "150", "--z", "0.5")
        assert code == 0
        assert json.loads(out)["value"] == [0.0, 0.0]

    def test_gamma_overflow_is_math_error(self, capsys):
        # Gamma(201) exceeds the double range: a math error, not a crash
        code = main(["eval", "--omega", "--nu", "200", "--z", "0.5"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("math error:") and "Traceback" not in err

    def test_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--phi", "--nu", "spam", "--z", "0"])
        assert exc.value.code == 2


class TestCheck:
    def test_theorem_pass(self, capsys):
        code, out = run(
            capsys,
            "check", "--theorem", "Pe", "--nu", "1", "--b", "0", "--c", "2",
            "--verify", "--grid-angles", "1024", "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["applicable"] is True
        assert data["conclusion"]["verdict"] == "pass"

    def test_class_counterexample_fails(self, capsys):
        code, out = run(
            capsys,
            "check", "--class", "Se", "--vartheta", "--nu", "-0.5", "--b", "1",
            "--c", "1", "--grid-angles", "1024", "--json",
        )
        assert code == 1
        assert json.loads(out)["verdict"] == "fail"

    def test_class_identity_passes(self, capsys):
        code, out = run(capsys, "check", "--class", "Se", "--fn", "z", "--json")
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    @pytest.mark.parametrize("nu", ["-0.99", "-0.999"])
    def test_zero_inside_smallest_circle_fails(self, capsys, nu):
        # kappa = nu + 1 is 0.01 (0.001): phi has a zero at |z| ~ 0.04
        # (0.004), inside every grid circle, and its pole in z f'/f cancels a
        # nearby zero of f', so no sample breaks the class; these passed until
        # the winding certificate counted the zeros of f on the outer circle
        code, out = run(
            capsys, "check", "--class", "Se", "--vartheta", "--nu", nu, "--b", "1", "--c", "1",
            "--json",
        )
        assert code == 1
        assert json.loads(out)["verdict"] == "fail"

    @pytest.mark.parametrize(
        "argv",
        [["--fn", "z"], ["--vartheta", "--nu", "2.5", "--b", "1", "--c", "1"]],
        ids=["Se-z", "Ke-vartheta"],
    )
    def test_six_angles_certified_from_coefficients(self, capsys, argv):
        # On 6 angles the samples cannot resolve a factor that vanishes at
        # 0 (its drift per step exceeds its smallest sample), so both runs
        # were inconclusive (exit 4).  Each factor's lowest term dominates
        # the rest on |z| = 1 (f = z for Se; z f' and z (z f')' of vartheta
        # at kappa = 3.5 for Ke), so the coefficients certify it.
        class_id = "Se" if argv[0] == "--fn" else "Ke"
        code, out = run(capsys, "check", "--class", class_id, *argv, "--grid-angles", "6", "--json")
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_theorem_not_applicable_exit(self, capsys):
        code, out = run(
            capsys, "check", "--theorem", "Ke", "--nu", "4", "--b", "1", "--c", "1", "--json"
        )
        assert code == 1
        assert json.loads(out)["applicable"] is False

    def test_libera_modifier(self, capsys):
        code, out = run(
            capsys,
            "check", "--class", "Se", "--vartheta", "--nu", "1.5", "--b", "1",
            "--c", "1", "--libera", "--grid-angles", "1024", "--json",
        )
        assert code == 0

    def test_example_linear(self, capsys):
        code, out = run(
            capsys,
            "check", "--theorem", "ex-linear", "--nu", "-2.5", "--b", "1", "--c", "1",
            "--alpha", "1.0", "--grid-angles", "1024", "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["theorem"] == "Ex_linear"
        assert data["applicable"] is True
        assert data["aux"][0]["verdict"] == "pass"
        assert data["aux"][0]["margin"] > 1e-3

    def test_example_product(self, capsys):
        code, out = run(
            capsys,
            "check", "--theorem", "ex-product", "--nu", "1.5", "--b", "1", "--c", "1",
            "--verify", "--grid-angles", "1024", "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["theorem"] == "Ex_product"
        assert data["conclusion"]["verdict"] == "pass"

    def test_series_json_input(self, capsys, tmp_path):
        path = tmp_path / "series.json"
        pairs = [[0.0, 0.0], [1.0, 0.0]] + [[0.0, 0.0]] * 62
        path.write_text(json.dumps(pairs))
        code, out = run(
            capsys, "check", "--class", "Se", "--series-json", str(path), "--json"
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_series_json_unreadable_is_io_error(self, capsys, tmp_path, kind):
        # both printed a traceback and exited 1, the code of a failed check
        path = tmp_path / "series.json"
        if kind == "directory":
            path.mkdir()
        assert main(["check", "--class", "Se", "--series-json", str(path), "--json"]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("I/O error:") and "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "content",
        ['{"a": 1}', "[[0,0],[1]]", '[[0,0],[1,0],["x",0]]', "[[0,0],[1,", "[]", "[[0,0],[true,0]]"],
        ids=["object", "short-pair", "string", "truncated", "empty", "bool"],
    )
    def test_series_json_bad_content_is_usage_error(self, capsys, tmp_path, content):
        # the first three printed a traceback and exited 1, the code of a
        # failed check; truncated JSON exited 3 as a math error
        path = tmp_path / "series.json"
        path.write_text(content)
        assert main(["check", "--class", "Se", "--series-json", str(path), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: --series-json")

    def test_series_json_inconclusive_exit_code(self, capsys, tmp_path):
        # f = z exp(cz) has z f'/f = 1 + c z; tune c so the supremum lands
        # inside the guard band just below the threshold
        c = (1.0 - math.exp(-0.9999997)) / 0.999
        coeffs = [[0.0, 0.0]]
        term = 1.0
        for n in range(64):
            coeffs.append([term, 0.0])
            term *= c / (n + 1)
        path = tmp_path / "guardband.json"
        path.write_text(json.dumps(coeffs))
        code, out = run(
            capsys, "check", "--class", "Se", "--series-json", str(path), "--json"
        )
        assert code == 4
        data = json.loads(out)
        assert data["verdict"] == "inconclusive"
        assert 1.0 - 1e-6 <= data["sup"] < 1.0

    def test_chain_bessel(self, capsys):
        code, out = run(
            capsys,
            "check", "--theorem", "chain-bessel", "--nu", "1.5", "--verify",
            "--grid-angles", "1024", "--json",
        )
        assert code == 0
        assert json.loads(out)["conclusion"]["verdict"] == "pass"

    @pytest.mark.parametrize("theorem", ["bessel-a", "chain-bessel", "Se"])
    def test_missing_nu_is_usage_error(self, capsys, theorem):
        assert main(["check", "--theorem", theorem]) == 2
        assert "--nu is required" in capsys.readouterr().err

    def test_chain_bessel_refuses_complex_nu(self, capsys):
        argv = ["check", "--theorem", "chain-bessel", "--nu", "1.5+2j", "--json"]
        assert main(argv) == 3
        assert "needs real nu" in capsys.readouterr().err

    def test_omega_se_refuses_complex_kappa(self, capsys):
        assert main(["check", "--theorem", "omega-Se", "--nu", "1+1j"]) == 3
        assert "needs real kappa" in capsys.readouterr().err

    def test_bkc_chain_halfplane_default(self, capsys):
        code, out = run(
            capsys,
            "check", "--theorem", "bkc-chain-a", "--nu", "2.5", "--b", "1", "--c", "1",
            "--verify", "--grid-angles", "1024", "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["applicable"] is True
        assert data["conclusion"]["verdict"] == "pass"


class TestFigure:
    def test_exp_figure_inside(self, capsys, tmp_path):
        csv = tmp_path / "fig.csv"
        svg = tmp_path / "fig.svg"
        code, out = run(
            capsys,
            "figure", "--quantity", "phi", "--nu", "1", "--b", "0", "--c", "2",
            "--points", "512", "--csv", str(csv), "--svg", str(svg),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["inside"] is True
        assert csv.exists() and svg.exists()
        assert (tmp_path / "fig_overlay.csv").exists()
        header = csv.read_text().splitlines()[0]
        assert header == "theta,re,im"
        assert svg.read_text().startswith("<svg")

    def test_figure_bit_stable(self, capsys, tmp_path):
        args = [
            "figure", "--quantity", "phi", "--nu", "2", "--b", "0", "--c", "6",
            "--points", "256",
        ]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(args + ["--csv", str(a), "--svg", str(tmp_path / "a.svg")])
        main(args + ["--csv", str(b), "--svg", str(tmp_path / "b.svg")])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_starlike_counterexample_exits_region(self, capsys, tmp_path):
        code, out = run(
            capsys,
            "figure", "--quantity", "starlike", "--nu", "-0.5", "--b", "1", "--c", "1",
            "--points", "512", "--csv", str(tmp_path / "c.csv"),
            "--svg", str(tmp_path / "c.svg"),
        )
        assert code == 0
        assert json.loads(out)["inside"] is False

    def test_convex_ratio_inside_circle(self, capsys, tmp_path):
        code, out = run(
            capsys,
            "figure", "--quantity", "convex-ratio", "--nu", "-2.5", "--b", "1", "--c", "1",
            "--points", "512", "--csv", str(tmp_path / "d.csv"),
            "--svg", str(tmp_path / "d.svg"),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["overlay"] == "circle_1m1e"
        assert summary["inside"] is True

    def test_figure_verdict_agrees_with_check(self, capsys, tmp_path):
        # the same function the check command passes stays inside the region
        code_c, _ = run(
            capsys,
            "check", "--theorem", "Pe", "--nu", "8", "--b", "0", "--c", "30",
            "--verify", "--grid-angles", "1024", "--json",
        )
        code_f, out = run(
            capsys,
            "figure", "--quantity", "phi", "--nu", "8", "--b", "0", "--c", "30",
            "--points", "512", "--csv", str(tmp_path / "e.csv"),
            "--svg", str(tmp_path / "e.svg"),
        )
        assert code_c == 0 and code_f == 0
        assert json.loads(out)["inside"] is True

    @staticmethod
    def _csv_curve(path):
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        return np.array([complex(float(re), float(im)) for _, re, im in rows])

    @pytest.mark.parametrize(
        "flags,params,rounded",
        [
            (
                ["--nu", "1.23456789", "--b", "1", "--c", "1"],
                BesselParams(1.23456789, 1, 1),
                BesselParams(1.23457, 1, 1),
            ),
            (
                ["--nu", "1", "--b", "0.5", "--c", "2+1j"],
                BesselParams(1, 0.5, 2 + 1j),
                BesselParams(1, 0.5, 2),
            ),
        ],
    )
    def test_figure_uses_exact_params(self, capsys, tmp_path, flags, params, rounded):
        csv = tmp_path / "p.csv"
        code, out = run(
            capsys,
            "figure", "--quantity", "starlike", *flags, "--points", "128",
            "--csv", str(csv), "--svg", str(tmp_path / "p.svg"),
        )
        assert code == 0
        spec = FigureSpec("starlike", params, points=128)
        assert json.loads(out)["function_id"] == spec.function_id
        curve = self._csv_curve(csv)
        assert np.array_equal(curve, figure_curve(spec))
        # parameters rounded to 6 digits, or stripped of their imaginary part,
        # give a visibly different curve
        other = figure_curve(FigureSpec("starlike", rounded, points=128))
        assert np.max(np.abs(curve - other)) > 1e-7

    def test_figure_honours_order(self, capsys, tmp_path):
        csv = tmp_path / "o.csv"
        code, out = run(
            capsys,
            "figure", "--quantity", "phi", "--nu", "0.5", "--b", "1", "--c", "-20",
            "--order", "4", "--points", "128",
            "--csv", str(csv), "--svg", str(tmp_path / "o.svg"),
        )
        assert code == 0
        params = BesselParams(0.5, 1, -20)
        spec = FigureSpec("phi", params, points=128, order=4)
        assert json.loads(out)["function_id"] == spec.function_id == "phi:0.5,1,-20"
        assert np.array_equal(self._csv_curve(csv), figure_curve(spec))
        full = figure_curve(FigureSpec("phi", params, points=128))
        assert np.max(np.abs(self._csv_curve(csv) - full)) > 1e-3

    def test_io_error_exit_code(self, capsys, tmp_path):
        code = main(
            [
                "figure", "--quantity", "phi", "--nu", "1", "--b", "0", "--c", "2",
                "--points", "64", "--csv", str(tmp_path / "missing" / "x.csv"),
                "--svg", str(tmp_path / "x.svg"),
            ]
        )
        capsys.readouterr()
        assert code == 5

    def test_spec_validation(self):
        params = BesselParams(1, 0, 2)
        with pytest.raises(ValueError):
            FigureSpec("phi", params, radius=1.2)
        with pytest.raises(ValueError):
            FigureSpec("phi", params, points=8)
        with pytest.raises(ValueError):
            FigureSpec("nope", params)


class TestInsideVerdict:
    """`inside` is the membership test of the overlay's region on every curve point."""

    @pytest.mark.parametrize(
        "flags,want",
        [
            (["--quantity", "starlike", "--nu", "-0.5", "--b", "1", "--c", "1"], False),
            (["--quantity", "phi", "--nu", "1", "--b", "0", "--c", "2"], True),
            (["--quantity", "phi", "--nu", "1", "--b", "0", "--c", "2", "--no-overlay"], None),
        ],
    )
    def test_verdicts(self, capsys, tmp_path, flags, want):
        code, out = run(
            capsys, "figure", *flags, "--csv", str(tmp_path / "v.csv"),
            "--svg", str(tmp_path / "v.svg"),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["inside"] is want
        assert (summary["overlay"] is None) == (want is None)


class TestOptions:
    # Every (subcommand, option) pair the subcommand does not read; each was
    # accepted and ignored when all subcommands shared one option set.
    IGNORED = [
        ("eval", "--grid-radii", "0.5"),
        ("eval", "--grid-angles", "7"),
        ("eval", "--order", "2"),
        ("check", "--tol", "3"),
        ("figure", "--tol", "3"),
        ("figure", "--grid-radii", "0.5"),
        ("figure", "--grid-angles", "7"),
        ("selftest", "--tol", "3"),
        ("selftest", "--grid-radii", "0.5"),
        ("selftest", "--grid-angles", "7"),
        ("selftest", "--order", "2"),
        ("eval", "--json", None),
        ("figure", "--json", None),
        ("selftest", "--json", None),
    ]
    BASE = {
        "eval": ["--phi", "--nu", "1", "--b", "0", "--c", "2", "--z", "0.5"],
        "check": ["--class", "Se", "--fn", "z"],
        "figure": ["--quantity", "phi", "--nu", "1"],
        "selftest": [],
    }

    @pytest.mark.parametrize("command,option,value", IGNORED)
    def test_unread_option_is_usage_error(self, capsys, command, option, value):
        with pytest.raises(SystemExit) as exc:
            main([command, *self.BASE[command], option, *([] if value is None else [value])])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_option_count(self):
        assert sum(len(v) for v in cli.SUBCOMMAND_OPTIONS.values()) == 6
        assert len(self.IGNORED) == 5 * 4 - 6


class TestGridOptions:
    BASE = ["check", "--class", "Se", "--fn", "z"]

    @pytest.mark.parametrize(
        "option,value",
        [("--grid-angles", "0"), ("--grid-angles", "-3"), ("--grid-radii", "0.9,0.5"),
         ("--grid-radii", "0.5,x")],
    )
    def test_bad_grid_is_usage_error(self, capsys, option, value):
        # --grid-angles 0 used to sweep the default 4096 angles and exit 0;
        # the others exited 3 as math errors
        assert main([*self.BASE, option, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error:")

    def test_grid_options_are_read(self, capsys):
        code, out = run(capsys, *self.BASE, "--grid-radii", "0.5,0.9", "--grid-angles", "64")
        assert code == 0
        assert json.loads(out)["grid"] == {"radii": [0.5, 0.9], "angles": 64}


class TestOrderOption:
    # Each exited otherwise: the first two 0 (on a degree-1 series, and
    # drawing phi = 1), the last two 3 (naming order 599, and blaming
    # b_operator).
    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "--class", "Se", "--fn", "z", "--order", "0"),
            ("figure", "--quantity", "phi", "--nu", "1", "--order", "0"),
            ("check", "--class", "Se", "--vartheta", "--nu", "1", "--order", "600"),
            ("check", "--theorem", "ex-linear", "--nu", "2", "--order", "0"),
        ],
    )
    def test_out_of_range_is_usage_error(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)  # a figure that ran would write its files here
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "order must lie in [1, 500]" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_default_is_the_library_default(self):
        # written out in cli, so that reading it loads no numpy
        from besselstar import series_ops

        args = cli.build_parser().parse_args(["figure", "--quantity", "phi", "--nu", "1"])
        assert args.order == series_ops.DEFAULT_ORDER
        assert FigureSpec("phi", BesselParams(1, 1, 1)).order == series_ops.DEFAULT_ORDER

    @pytest.mark.parametrize("order", ["1", "500"])
    def test_range_ends_are_read(self, capsys, order):
        code, out = run(
            capsys, "check", "--class", "Se", "--fn", "z", "--order", order, "--grid-angles", "64"
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"


class TestImportCost:
    def test_cli_import_loads_no_heavy_module(self):
        # a CLI process is mostly interpreter start and import: importing the
        # CLI must not set up the FFT or load the test-only dependencies
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        code = (
            "import sys, besselstar.cli; "
            "print([m for m in ('numpy.fft', 'scipy', 'mpmath') if m in sys.modules])"
        )
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestBrokenPipe:
    def test_closed_stdout_keeps_exit_code(self):
        # About 84 kB of JSON (4000 grid radii) overfills the 64 kB pipe, so
        # the process is still writing when the reader stops after 5 bytes:
        # it must exit with the verdict's code (pass, 0) and no traceback.
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        radii = ",".join(f"{0.1 + 2e-4 * i:.4f}" for i in range(4000))
        with subprocess.Popen(
            [sys.executable, "-m", "besselstar.cli", "check", "--class", "Se", "--fn", "z",
             "--grid-radii", radii, "--grid-angles", "64", "--json"],
            env=dict(os.environ, PYTHONPATH=path),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            bufsize=0,
        ) as proc:
            try:
                assert proc.stdout.read(5) == b'{"cla'
                proc.stdout.close()
                stderr = proc.stderr.read()
                code = proc.wait(timeout=60)
            finally:
                proc.kill()
        assert b"Traceback" not in stderr and b"BrokenPipeError" not in stderr, stderr
        assert code == 0


class TestSelftest:
    def test_selftest_passes(self, capsys):
        code, out = run(capsys, "selftest")
        assert code == 0
        assert "selftest PASS" in out
