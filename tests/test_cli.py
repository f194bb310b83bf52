"""CLI subcommands: schemas, determinism, exit codes, SVG output."""

import json
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from conic_extrema.cli import main

SVG_NS = "{http://www.w3.org/2000/svg}"

TRIANGLE = {"triangle": {"A": [-1.0, 0.0], "B": [1.0, 0.0], "C": [0.0, 1.0]}}
S2 = 0.7071067811865475
HALFPLANES = {
    "halfplanes": [
        {"normal": [0.0, 1.0], "offset": 0.0},
        {"normal": [S2, S2], "offset": S2},
        {"normal": [-S2, S2], "offset": S2},
    ]
}
LEMMA = {"a": 0.5, "omega": 0.2}
CENTER = {"points": [[0.0, 0.0]]}
VERIFY = {"suite": "pencil"}


def run_cli(tmp_path, command, payload, tag, svg=False, extra=()):
    inp = tmp_path / f"{tag}_in.json"
    out = tmp_path / f"{tag}_out.json"
    inp.write_text(json.dumps(payload))
    argv = [command, "--input", str(inp), "--output", str(out)]
    if svg:
        argv += ["--svg", str(tmp_path / f"{tag}.svg")]
    argv += list(extra)
    code = main(argv)
    return code, out


class TestCommands:
    def test_exparabola_output(self, tmp_path):
        code, out = run_cli(tmp_path, "exparabola", TRIANGLE, "tri", svg=True)
        assert code == 0
        doc = json.loads(out.read_text())
        ab = next(e for e in doc["exparabolas"] if e["opposite"] == "C")
        assert ab["lambda"] == pytest.approx(0.0, abs=1e-12)
        assert ab["parameter"] == pytest.approx(2.0, rel=1e-12)
        tree = ET.parse(tmp_path / "tri.svg")
        assert len(tree.findall(f".//{SVG_NS}path")) == 6  # 3 sides + 3 parabolas

    def test_max_parabola_output(self, tmp_path):
        code, out = run_cli(tmp_path, "max-parabola", HALFPLANES, "hp", extra=["--starts", "16"])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["parameter"] == pytest.approx(2.0, rel=1e-9)
        assert sorted(doc["active_constraints"]) == [0, 1, 2]

    def test_lemma_shrink_output(self, tmp_path):
        code, out = run_cli(tmp_path, "lemma-shrink", LEMMA, "ls", svg=True)
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["size_reduced"] is True
        assert doc["cover"]["a"] < 0.5
        tree = ET.parse(tmp_path / "ls.svg")
        # absolute circle + two pair members + cover
        assert len(tree.findall(f".//{SVG_NS}path")) == 4

    def test_min_horocycle_center(self, tmp_path):
        code, out = run_cli(tmp_path, "min-horocycle", CENTER, "mh")
        assert code == 0
        text = out.read_text()
        doc = json.loads(text)
        assert doc["unique"] is False
        assert doc["a"] == pytest.approx(2.0 ** (-0.5), abs=1e-12)
        assert '"a": 0.7071067811865476' in text

    def test_verify_passes(self, tmp_path):
        code, out = run_cli(tmp_path, "verify", VERIFY, "vf")
        assert code == 0
        assert json.loads(out.read_text())["passed"] is True


class TestExitCodes:
    def test_degenerate_triangle_is_domain_error(self, tmp_path, capsys):
        bad = {"triangle": {"A": [0, 0], "B": [1, 0], "C": [2, 0]}}
        code, _ = run_cli(tmp_path, "exparabola", bad, "bad")
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "DegenerateTriangle"

    def test_strip_is_domain_error(self, tmp_path):
        strip = {
            "halfplanes": [
                {"normal": [0.0, 1.0], "offset": 1.0},
                {"normal": [0.0, -1.0], "offset": 1.0},
            ]
        }
        code, _ = run_cli(tmp_path, "max-parabola", strip, "strip")
        assert code == 1

    def test_failed_suite_is_verification_failure(self, tmp_path):
        # above the size bound the reduction guarantee genuinely fails
        sharp = {"suite": "cover", "cases": 4, "samples": 2000, "a_range": [0.72, 0.9]}
        code, out = run_cli(tmp_path, "verify", sharp, "sharp")
        assert code == 2
        assert json.loads(out.read_text())["passed"] is False

    def test_unparseable_input_is_io_error(self, tmp_path):
        inp = tmp_path / "garbage.json"
        inp.write_text("{not json")
        code = main(["exparabola", "--input", str(inp), "--output", str(tmp_path / "o.json")])
        assert code == 3

    def test_missing_key_is_schema_error(self, tmp_path):
        code, _ = run_cli(tmp_path, "exparabola", {"nope": 1}, "schema")
        assert code == 3

    @pytest.mark.parametrize(
        "normal,offset", [([float("nan"), 0.0], 1.0), ([1.0, 0.0], float("inf"))]
    )
    def test_non_finite_halfplane_is_schema_error(self, tmp_path, capsys, normal, offset):
        # json writes these as the NaN / Infinity literals that json.load accepts
        payload = {
            "halfplanes": HALFPLANES["halfplanes"] + [{"normal": normal, "offset": offset}]
        }
        code, _ = run_cli(tmp_path, "max-parabola", payload, "nonfinite")
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "ValueError"

    @pytest.mark.parametrize(
        "command,payload,extra",
        [
            ("max-parabola", HALFPLANES, ["--starts", "0"]),
            ("max-parabola", {**HALFPLANES, "probe_diameter": 0}, []),
            (
                "exparabola",
                {"triangle": {**TRIANGLE["triangle"], "A": [float("nan"), 0.0]}},
                [],
            ),
        ],
    )
    def test_bad_solver_input_is_schema_error(self, tmp_path, capsys, command, payload, extra):
        code, _ = run_cli(tmp_path, command, payload, "badin", extra=extra)
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "ValueError"

    @pytest.mark.parametrize(
        "points,extra",
        [
            ([[float("nan"), 0.1], [0.2, 0.1]], []),
            ([[0.1, float("inf")]], []),
            ([[0.2, 0.1]], ["--grid", "0"]),
        ],
    )
    def test_bad_min_horocycle_input_is_schema_error(self, tmp_path, capsys, points, extra):
        code, _ = run_cli(tmp_path, "min-horocycle", {"points": points}, "badpts", extra=extra)
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "ValueError"


class TestDeterminism:
    @pytest.mark.parametrize(
        "command,payload",
        [
            ("exparabola", TRIANGLE),
            ("max-parabola", HALFPLANES),
            ("lemma-shrink", LEMMA),
            ("min-horocycle", CENTER),
            ("verify", VERIFY),
        ],
    )
    def test_byte_identical_reruns(self, tmp_path, command, payload):
        _, out1 = run_cli(tmp_path, command, payload, "d1", extra=["--seed", "7"])
        _, out2 = run_cli(tmp_path, command, payload, "d2", extra=["--seed", "7"])
        assert out1.read_bytes() == out2.read_bytes()

    def test_round_trip_reparses(self, tmp_path):
        _, out = run_cli(tmp_path, "exparabola", TRIANGLE, "rt")
        doc = json.loads(out.read_text())
        assert {"exparabolas", "triangle"} <= set(doc)

    def test_console_script_entrypoint(self, tmp_path):
        inp = tmp_path / "in.json"
        inp.write_text(json.dumps(TRIANGLE))
        out = tmp_path / "out.json"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "conic_extrema.cli",
                "exparabola",
                "--input",
                str(inp),
                "--output",
                str(out),
            ],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert out.exists()
