"""Smoke test: every workload at its tiny size, untraced and traced.

``regions`` is run too, although BENCHMARK.json leaves it out (see
README.md).

    python3 -m pytest -q bench/test_smoke.py

Each run must exit 0, check every op, and emit every metric that
BENCHMARK.json names for its mode with the declared unit.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["cli-cold", "sampled-checks", "regions", "point-sets"])
def test_every_metric_emitted(workload, trace):
    details, result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["correct"] == (result["failed"] == 0)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    emitted = result["metrics"]
    for metric in declared:
        assert metric["name"] in emitted, metric["name"]
        value = emitted[metric["name"]]
        assert value["unit"] == metric["unit"], metric["name"]
        assert isinstance(value["value"], (int, float)), metric["name"]
    assert set(emitted) == {m["name"] for m in declared}
    assert details["environment"]["conic_extrema"].startswith(str(ROOT / "src"))
    assert details.get("missing_metrics", []) == []
    if workload == "sampled-checks":
        assert details["known_failures"]["flat_triangles"]["triangles"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    """Copied without src/, the benchmark exits nonzero and prints no result."""
    (tmp_path / "bench").mkdir()
    for f in (ROOT / "bench").glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "regions", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
