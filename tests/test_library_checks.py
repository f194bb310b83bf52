"""The library's own checks survive ``python -O``: no ``assert`` in src.
Every name the benchmark tracer wraps still exists in the package."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "conic_extrema"


def test_no_assert_statements_in_the_package():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SRC.is_dir() and not found, found


def test_every_traced_name_resolves():
    # bench/tracer.py imports only the standard library, so it loads here;
    # a deleted name would otherwise show only as a missing benchmark metric
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for mod_name, attr, _ in [*tracer.TARGETS, ("verify", "run_parallel", None)]:
        owner = importlib.import_module(f"conic_extrema.{mod_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{mod_name}.{attr}")
    assert not missing, missing
