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

from conic_extrema import cli, horocycle, maxparabola, minhorocycle, verify
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

    def test_min_horocycle_point_an_ulp_inside_the_absolute(self, tmp_path):
        # its size once rounded to 0, which Horocycle rejects
        point = {"points": [[0.33779470192584776, 0.9412198145761846]]}
        code, out = run_cli(tmp_path, "min-horocycle", point, "ulp")
        assert code == 0
        assert 0.0 < json.loads(out.read_text())["a"] < 1e-7

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
            # a negative size: the radicand test alone sees only a^2
            ("lemma-shrink", {"a": -0.5, "omega": 0.2}, []),
            # one past the bound: the work grows with the count
            ("max-parabola", HALFPLANES, ["--starts", str(maxparabola.MAX_STARTS + 1)]),
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
            ([[0.2, 0.1]], ["--grid", str(minhorocycle.MAX_GRID + 1)]),
        ],
    )
    def test_bad_min_horocycle_input_is_schema_error(self, tmp_path, capsys, points, extra):
        code, _ = run_cli(tmp_path, "min-horocycle", {"points": points}, "badpts", extra=extra)
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "ValueError"


class TestCountOptions:
    @pytest.mark.parametrize(
        "option, value",
        [
            ("--grid", "2.5"),
            ("--grid", "abc"),
            ("--grid", "nan"),
            ("--grid", str(minhorocycle.MAX_GRID + 1)),
            ("--starts", "0"),
            ("--starts", "1e400"),
            ("--starts", "64.5"),
            ("--seed", "-1"),
            ("--seed", "0.5"),
            ("--seed", "true"),
        ],
    )
    def test_malformed_count_is_schema_error(self, tmp_path, capsys, option, value):
        # every command reads the three options, whether it uses them or not
        for command, payload in (("min-horocycle", CENTER), ("lemma-shrink", LEMMA)):
            code, out = run_cli(tmp_path, command, payload, "opt", extra=[option, value])
            assert code == 3 and not out.exists()
            err = capsys.readouterr().err
            assert_one_json_error_line(err)
            assert f"{option[2:]} must be a whole number" in json.loads(err)["message"]

    def test_malformed_count_prints_no_usage_text(self, tmp_path):
        inp = tmp_path / "in.json"
        inp.write_text(json.dumps(CENTER))
        proc = run_cli_subprocess(
            ["min-horocycle", "--input", str(inp), "--output", str(tmp_path / "o.json"),
             "--grid", "2.5"])
        assert proc.returncode == 3
        assert_one_json_error_line(proc.stderr)

    @pytest.mark.parametrize(
        "command, payload, extra",
        [
            ("min-horocycle", {"points": [[0.2, 0.1], [-0.3, 0.4]]}, ["--grid", "720"]),
            ("min-horocycle", {"points": [[0.2, 0.1], [-0.3, 0.4]]}, ["--grid", "720.0"]),
            ("max-parabola", HALFPLANES, ["--starts", "64", "--seed", "0"]),
            ("max-parabola", HALFPLANES, ["--starts", "6.4e1", "--seed", " 0 "]),
        ],
    )
    def test_valid_counts_keep_the_default_bytes(self, tmp_path, command, payload, extra):
        _, default = run_cli(tmp_path, command, payload, "default")
        code, explicit = run_cli(tmp_path, command, payload, "explicit", extra=extra)
        assert code == 0
        assert explicit.read_bytes() == default.read_bytes()


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
    @pytest.mark.parametrize("scale", [1e-310, 1e-308, 1e-200, 1e-150, 1e150, 1e200, 1e300])
    @pytest.mark.parametrize("command", ["exparabola", "max-parabola"])
    def test_extreme_scale_subprocess(self, tmp_path, command, scale):
        # exit 0 or 1, no traceback or warning: stderr is empty or one JSON
        # line, and the output file is strict JSON; a solved figure whose
        # matrix entries (about 1 / p) overflow is NonFiniteResult
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
            assert strict_json(lines[0])["error"] == "NonFiniteResult"
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

    @pytest.mark.parametrize(
        "extra",
        [
            {"cases": 0},
            {"samples": 0},
            {"cases": float("inf")},
            {"a_range": [0.3, float("nan")]},
            {"a_range": [-0.7, -0.5]},
            {"a_range": [0.5, 1.5]},
            # counts that int() would truncate or misread
            {"cases": 2.5},
            {"cases": True},
            {"cases": "3"},
            {"samples": 999.9},
        ],
    )
    def test_empty_cover_suite_is_schema_error(self, tmp_path, capsys, extra):
        code, _ = run_cli(tmp_path, "verify", {"suite": "cover", **extra}, "empty")
        assert code == 3
        err = capsys.readouterr().err
        assert_one_json_error_line(err)
        if "a_range" in extra:
            assert strict_json(err)["error"] == "ValueError"
            assert strict_json(err)["message"].startswith("a_range")
        assert strict_json(err)["error"] == "ValueError"
        assert next(iter(extra)) in strict_json(err)["message"]

    def test_impossible_allocation_is_schema_error(self, tmp_path, capsys, monkeypatch):
        # 10^17 samples need about 2.8 EiB, beyond any address space, so
        # numpy refuses the first batch at once with a MemoryError; the
        # sample bound, which would reject the count first, is lifted here
        monkeypatch.setattr(horocycle, "MAX_SAMPLES", 10**18)
        payload = {"suite": "cover", "cases": 1, "samples": 10**17}
        code, out = run_cli(tmp_path, "verify", payload, "huge")
        assert code == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert_one_json_error_line(err)
        assert strict_json(err)["error"] == "MemoryError"

    @pytest.mark.parametrize("extra", [{"cases": 1e300}, {"samples": 1e12}])
    def test_cover_work_beyond_the_bounds_is_schema_error(self, tmp_path, extra):
        # both counts are bounded before any allocation: 1e300 cases used to
        # build a seed list until memory ran out
        inp = tmp_path / "in.json"
        inp.write_text(json.dumps({"suite": "cover", **extra}))
        proc = run_cli_subprocess(
            ["verify", "--input", str(inp), "--output", str(tmp_path / "o.json")], timeout=60
        )
        assert proc.returncode == 3
        assert_one_json_error_line(proc.stderr)
        err = strict_json(proc.stderr)
        assert err["error"] == "ValueError" and next(iter(extra)) in err["message"]

    @pytest.mark.parametrize(
        "payload",
        [{"suite": "pencil", "cases": -1}, {"suite": "pencil", "samples": 10},
         {"suite": "cover", "cases": 2, "sample": 10}],
    )
    def test_keyword_the_suite_does_not_take_is_schema_error(self, tmp_path, payload):
        # the pencil suite used to ignore both counts and exit 0, and the CLI
        # dropped the misspelt "sample" and ran 20000 samples per case
        inp = tmp_path / "in.json"
        inp.write_text(json.dumps(payload))
        proc = run_cli_subprocess(
            ["verify", "--input", str(inp), "--output", str(tmp_path / "o.json")], timeout=60
        )
        assert proc.returncode == 3
        assert not (tmp_path / "o.json").exists()
        assert_one_json_error_line(proc.stderr)
        err = strict_json(proc.stderr)
        name = payload["suite"]
        key = next(k for k in payload if k != "suite" and k not in verify.SUITE_KEYWORDS[name])
        assert err == {"error": "ValueError", "message": f"suite '{name}' takes no keyword '{key}'"}

    @pytest.mark.parametrize(
        "command, payload, message",
        [
            ("verify", {"suite": "cover", "cases": 2, "samples": 100, "seed": 3},
             "suite 'cover' takes no keyword 'seed'"),
            ("min-horocycle", {"points": [[0.1, 0.2]], "grid": 5},
             "min-horocycle input takes no keyword 'grid'"),
            ("lemma-shrink", {"a": "0.5", "omega": 0.3, "omgea": 1},
             "lemma-shrink input takes no keyword 'omgea'"),
            ("lemma-shrink", {"a": "0.5", "omega": 0.3}, "a must be a JSON number"),
            ("exparabola", {"triangle": {**TRIANGLE["triangle"], "D": [0.0, 2.0]}},
             "triangle takes no keyword 'D'"),
            ("max-parabola", {"halfplanes": [*HALFPLANES["halfplanes"][:2], {
                "normal": [-S2, S2], "offset": S2, "ofset": 1.0}]},
             "half-plane takes no keyword 'ofset'"),
        ],
        ids=["verify-seed", "min-horocycle-grid", "lemma-misspelt", "lemma-string",
             "triangle-key", "halfplane-key"],
    )
    def test_key_the_command_does_not_read_is_schema_error(self, tmp_path, command, payload,
                                                            message):
        # each of these used to exit 0 with the key ignored, or, for a
        # verify seed, exit 3 with a TypeError that named run_suite()
        inp = tmp_path / "in.json"
        inp.write_text(json.dumps(payload))
        proc = run_cli_subprocess(
            [command, "--input", str(inp), "--output", str(tmp_path / "o.json")], timeout=60
        )
        assert proc.returncode == 3
        assert not (tmp_path / "o.json").exists()
        assert_one_json_error_line(proc.stderr)
        assert strict_json(proc.stderr) == {"error": "ValueError", "message": message}

    @pytest.mark.parametrize(
        "command, payload, message",
        [
            ("verify", {"name": "pencil"}, "suite 'all' takes no keyword 'name'"),
            ("lemma-shrink", {"a": 0.5, "omega": True}, "omega must be a JSON number"),
            ("exparabola", {**TRIANGLE, "svg": True}, "exparabola input takes no keyword 'svg'"),
            ("exparabola", {"triangle": {**TRIANGLE["triangle"], "AB": [0.0, 2.0]}},
             "triangle takes no keyword 'AB'"),
            ("max-parabola", {**HALFPLANES, "starts": 8},
             "max-parabola input takes no keyword 'starts'"),
        ],
        ids=["verify-name", "lemma-bool", "exparabola-key", "triangle-two-letters",
             "max-parabola-key"],
    )
    def test_more_keys_and_values_rejected_in_process(self, tmp_path, capsys, command, payload,
                                                      message):
        code, out = run_cli(tmp_path, command, payload, "key")
        err = capsys.readouterr().err
        assert code == 3 and not out.exists()
        assert_one_json_error_line(err)
        assert strict_json(err) == {"error": "ValueError", "message": message}

    def test_keys_the_suite_takes_reach_it(self, tmp_path, capsys):
        payload = {"suite": "cover", "cases": 10, "samples": 2000}
        code, out = run_cli(tmp_path, "verify", payload, "kept")
        assert code == 0 and capsys.readouterr().err == ""
        assert out.read_text() == dumps_result(verify.run_suite("cover", seed=0, cases=10, samples=2000))


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
