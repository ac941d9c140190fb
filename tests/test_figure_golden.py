"""Golden figure files: the bytes `besselstar figure` writes.

Each case in ``figure_golden.json`` holds the arguments of one `figure`
command and the SHA-256 of the three files it writes (the curve's CSV, the
overlay's CSV and the SVG), with the summary's ``inside``.  The test runs
each command again into a temporary directory and asserts the same digests,
so any change in a curve's last bit, or in how the files are formatted,
fails here.  To write the file afresh from the current code (only when an
output change is intended):

    PYTHONPATH=src python tests/test_figure_golden.py > tests/figure_golden.json
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from besselstar import cli

GOLDEN = os.path.join(os.path.dirname(__file__), "figure_golden.json")

# One complex parameter set, so that every quantity runs on complex
# coefficients; the figure's default radius, points and order.
PARAMS = ("--nu", "1.3", "--b", "0.7", "--c", "2.1-0.4j")
CASES = [{"args": ["figure", "--quantity", q, *PARAMS]} for q in cli.FIGURE_QUANTITIES]


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _record(case: dict, directory: str) -> dict:
    csv_path = os.path.join(directory, "figure.csv")
    svg_path = os.path.join(directory, "figure.svg")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(case["args"] + ["--csv", csv_path, "--svg", svg_path])
    assert code == cli.EXIT_PASS
    summary = json.loads(out.getvalue())
    overlay_path = os.path.join(directory, "figure_overlay.csv")
    assert summary["files"] == [csv_path, overlay_path, svg_path]
    return {
        "csv": _sha256(csv_path),
        "overlay_csv": _sha256(overlay_path),
        "svg": _sha256(svg_path),
        "inside": summary["inside"],
    }


def _load() -> list[dict]:
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_figure_files_are_byte_identical(tmp_path):
    cases = _load()
    assert [case["args"] for case in cases] == [case["args"] for case in CASES]
    for case in cases:
        got = _record({"args": case["args"]}, str(tmp_path))
        assert got == {k: v for k, v in case.items() if k != "args"}, case["args"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        records = [{**case, **_record(case, directory)} for case in CASES]
    json.dump(records, sys.stdout, indent=1)
    sys.stdout.write("\n")
