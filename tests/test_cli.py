import json
import math

import numpy as np
import pytest

from besselstar import BesselParams, cli
from besselstar.cli import (
    FigureSpec,
    circle_boundary,
    cmd_figure,
    dumps,
    exp_boundary,
    figure_curve,
    main,
    points_enclosed,
    winding_number,
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


class TestWindingNumber:
    SQUARE = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j])

    def test_inside(self):
        assert winding_number(self.SQUARE, 0.0 + 0.0j) == 1

    def test_outside(self):
        assert winding_number(self.SQUARE, 3.0 + 0.0j) == 0

    def test_orientation_flips_sign(self):
        assert winding_number(self.SQUARE[::-1], 0.0 + 0.0j) == -1

    def test_points_enclosed(self):
        pts = np.array([0.1 + 0.2j, -0.5 - 0.5j])
        assert points_enclosed(pts, self.SQUARE)
        assert not points_enclosed(np.array([0.0j, 2.0 + 0.0j]), self.SQUARE)

    def test_exp_boundary_contains_one(self):
        boundary = exp_boundary(512)
        assert winding_number(boundary, 1.0 + 0.0j) != 0
        assert winding_number(boundary, complex(math.e + 0.1, 0)) == 0


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

    def test_math_error_exit_code(self, capsys):
        # kappa = 0 is rejected at construction
        code = main(["eval", "--phi", "--nu", "-0.5", "--b", "0", "--c", "1", "--z", "0"])
        assert code == 3

    def test_branch_cut_is_math_error(self):
        code = main(["eval", "--omega", "--nu", "0.5", "--b", "1", "--c", "1", "--z", "-0.5"])
        assert code == 3

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
            "--points", "512", "--csv", str(csv), "--svg", str(svg), "--json",
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
            "--svg", str(tmp_path / "c.svg"), "--json",
        )
        assert code == 0
        assert json.loads(out)["inside"] is False

    def test_convex_ratio_inside_circle(self, capsys, tmp_path):
        code, out = run(
            capsys,
            "figure", "--quantity", "convex-ratio", "--nu", "-2.5", "--b", "1", "--c", "1",
            "--points", "512", "--csv", str(tmp_path / "d.csv"),
            "--svg", str(tmp_path / "d.svg"), "--json",
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
            "--svg", str(tmp_path / "e.svg"), "--json",
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
            "--csv", str(csv), "--svg", str(tmp_path / "p.svg"), "--json",
        )
        assert code == 0
        label = json.loads(out)["function_id"]
        curve = self._csv_curve(csv)
        assert np.array_equal(curve, figure_curve(FigureSpec(label, points=128, params=params)))
        # parameters rounded to 6 digits, or stripped of their imaginary part,
        # give a visibly different curve
        other = figure_curve(FigureSpec(label, points=128, params=rounded))
        assert np.max(np.abs(curve - other)) > 1e-7

    def test_figure_honours_order(self, capsys, tmp_path):
        csv = tmp_path / "o.csv"
        code, out = run(
            capsys,
            "figure", "--quantity", "phi", "--nu", "0.5", "--b", "1", "--c", "-20",
            "--order", "4", "--points", "128",
            "--csv", str(csv), "--svg", str(tmp_path / "o.svg"), "--json",
        )
        assert code == 0
        params = BesselParams(0.5, 1, -20)
        spec = FigureSpec(json.loads(out)["function_id"], points=128, params=params, order=4)
        assert np.array_equal(self._csv_curve(csv), figure_curve(spec))
        full = figure_curve(FigureSpec("phi:0.5,1,-20", points=128, params=params))
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
        with pytest.raises(ValueError):
            FigureSpec("phi:1,0,2", radius=1.2)
        with pytest.raises(ValueError):
            FigureSpec("phi:1,0,2", points=8)
        with pytest.raises(ValueError):
            cli._parse_function_id("nope:1,2,3")


class TestSelftest:
    def test_selftest_passes(self, capsys):
        code, out = run(capsys, "selftest")
        assert code == 0
        assert "selftest PASS" in out
