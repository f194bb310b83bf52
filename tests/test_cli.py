"""CLI subcommands: schemas, determinism, exit codes, SVG output."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conic_extrema import cli
from conic_extrema.cli import dumps_result, main

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


def run_cli_subprocess(argv, timeout=None):
    """``python -m conic_extrema.cli argv`` with this checkout's src/ on the path."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if "PYTHONPATH" in os.environ else []))}
    return subprocess.run(
        [sys.executable, "-m", "conic_extrema.cli", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


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
            ("max-parabola", {"halfplanes": [{"normal": [1.0, 1.0], "offset": 0.0}]}, []),
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


def strict_json(text):
    """json.loads that refuses the NaN and Infinity literals."""
    def refuse(name):
        raise ValueError(f"non-standard JSON literal {name}")

    return json.loads(text, parse_constant=refuse)


def scaled_payload(command, s):
    if command == "exparabola":
        tri = TRIANGLE["triangle"]
        return {"triangle": {k: [s * v for v in tri[k]] for k in tri}}
    return {"halfplanes": [
        {"normal": h["normal"], "offset": s * h["offset"]} for h in HALFPLANES["halfplanes"]
    ]}


class TestStrictOutput:
    @pytest.mark.parametrize("scale", [1e-200, 1e-150, 1e150, 1e200, 1e300])
    @pytest.mark.parametrize("command", ["exparabola", "max-parabola"])
    def test_extreme_scale_subprocess(self, tmp_path, command, scale):
        # exit 0 or 1, no traceback or warning: stderr is empty or one JSON
        # line, and the output file is strict JSON
        inp = tmp_path / "in.json"
        out = tmp_path / "out.json"
        inp.write_text(json.dumps(scaled_payload(command, scale)))
        proc = run_cli_subprocess(
            [command, "--input", str(inp), "--output", str(out),
             "--svg", str(tmp_path / "fig.svg"), "--starts", "8"]
        )
        assert proc.returncode in (0, 1), proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == (proc.returncode == 1), proc.stderr
        if lines:
            assert "error" in strict_json(lines[0])
        else:
            doc = strict_json(out.read_text())
            p = doc["parameter"] if command == "max-parabola" else doc["exparabolas"][0]["parameter"]
            assert p == pytest.approx(2.0 * scale, rel=1e-12)

    def test_dumps_result_refuses_non_finite(self):
        with pytest.raises(ValueError):
            dumps_result({"parameter": float("inf")})

    def test_non_finite_result_is_domain_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(cli.RUNNERS, "exparabola", lambda data, args: ({"p": float("nan")}, None))
        code, out = run_cli(tmp_path, "exparabola", TRIANGLE, "nan")
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert strict_json(err[0])["error"] == "NonFiniteResult"


def assert_one_json_error_line(text):
    lines = text.splitlines()
    assert len(lines) == 1, text
    assert "error" in strict_json(lines[0])


class TestInputContract:
    @pytest.mark.parametrize(
        "raw", [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000, b"[1, 2]"],
        ids=["not-utf8", "nested-1e5", "not-an-object"],
    )
    def test_unreadable_input_is_io_error(self, tmp_path, capsys, raw):
        inp = tmp_path / "raw.json"
        inp.write_bytes(raw)
        code = main(["verify", "--input", str(inp), "--output", str(tmp_path / "o.json")])
        assert code == 3
        assert_one_json_error_line(capsys.readouterr().err)

    def test_cover_range_without_overlap_is_schema_error(self, tmp_path):
        # below a ~ 0.02 no pair of sizes in the range overlaps: the
        # suite used to redraw pairs forever
        inp = tmp_path / "in.json"
        inp.write_text(json.dumps({"suite": "cover", "a_range": [0.001, 0.002]}))
        proc = run_cli_subprocess(
            ["verify", "--input", str(inp), "--output", str(tmp_path / "o.json")], timeout=60
        )
        assert proc.returncode == 3
        assert_one_json_error_line(proc.stderr)

    @pytest.mark.parametrize("extra", [{"cases": 0}, {"samples": 0}, {"cases": float("inf")}])
    def test_empty_cover_suite_is_schema_error(self, tmp_path, capsys, extra):
        code, _ = run_cli(tmp_path, "verify", {"suite": "cover", **extra}, "empty")
        assert code == 3
        assert_one_json_error_line(capsys.readouterr().err)


# -- contract fuzz: any small payload exits 0..3 with clean stderr -------------

JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(), st.text(max_size=3),
    st.lists(st.floats(-2.0, 2.0), max_size=3), st.dictionaries(st.text(max_size=2), st.none(), max_size=1),
)
NUM = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([float("nan"), float("inf")]), JUNK)
POINT = st.one_of(st.lists(st.floats(-0.9, 0.9), min_size=2, max_size=2), st.lists(NUM, max_size=3))
UNIT = st.floats(0.0, 2.0 * math.pi).map(lambda t: [math.cos(t), math.sin(t)])


def _payload(fields):
    # every key may be missing, and every value may be junk
    return st.one_of(
        st.fixed_dictionaries({}, optional={k: st.one_of(v, JUNK) for k, v in fields.items()}),
        JUNK,
    )


PAYLOADS = {
    "exparabola": _payload(
        {"triangle": st.fixed_dictionaries({}, optional={v: POINT for v in "ABC"})}
    ),
    "max-parabola": _payload({"halfplanes": st.lists(
        st.fixed_dictionaries({}, optional={"normal": st.one_of(UNIT, POINT), "offset": NUM}),
        max_size=5,
    )}),
    "lemma-shrink": _payload({"a": NUM, "omega": NUM}),
    "min-horocycle": _payload({"points": st.lists(POINT, max_size=6)}),
    "verify": _payload({
        "suite": st.sampled_from(["pencil", "cover", "all", "nope"]),
        "cases": st.one_of(st.integers(-1, 3), NUM),
        "samples": st.one_of(st.integers(-1, 200), NUM),
        "a_range": st.lists(NUM, max_size=3),
    }),
}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_contract_fuzz(tmp_path, data):
    command = data.draw(st.sampled_from(sorted(PAYLOADS)))
    payload = data.draw(PAYLOADS[command])
    inp = tmp_path / "fuzz.json"
    inp.write_text(json.dumps(payload))  # NaN and inf as the literals json.load accepts
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--input", str(inp), "--output", str(tmp_path / "o.json"),
                     "--starts", "4", "--grid", "64"])
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert_one_json_error_line(err.getvalue())


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
