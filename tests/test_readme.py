"""README examples run as written, so an API change cannot leave them stale."""

import json
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def readme_block(heading: str, lang: str) -> str:
    """The first ```lang fenced block under the ``## heading`` section."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_library_sketch_runs(capsys):
    exec(compile(readme_block("Library sketch", "python"), "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5  # three exparabolas, the max parabola, the horocycle


def test_cli_example_runs(tmp_path):
    # the block calls the console script; a shim stands in for it
    shim = tmp_path / "bin" / "conic-extrema"
    shim.parent.mkdir()
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m conic_extrema.cli "$@"\n')
    shim.chmod(shim.stat().st_mode | stat.S_IEXEC)
    block = readme_block("CLI", "sh")
    env = {
        **os.environ,
        "PATH": os.pathsep.join([str(shim.parent), os.environ.get("PATH", "")]),
        "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]),
    }
    proc = subprocess.run(["sh", "-e", "-c", block], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    expected = re.search(r"# out\.json: a = (\S+), unique = (\w+)", block)
    doc = json.loads((tmp_path / "out.json").read_text())
    assert doc["a"] == float(expected.group(1))
    assert doc["unique"] is (expected.group(2) == "true")
