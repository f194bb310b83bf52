"""The library's own checks survive ``python -O``: no ``assert`` in src.
The min-horocycle module draws no random numbers, every name the
benchmark tracer wraps still exists in the package, and every count
argument follows the one count rule."""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from conic_extrema import horocycle, maxparabola, minhorocycle, verify
from conic_extrema.exparabola import Triangle

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


def test_min_horocycle_draws_no_random_numbers():
    # its solve and both optimality tests are exact: no sampled angle decides
    tree = ast.parse((SRC / "minhorocycle.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(part for alias in node.names for part in alias.name.split("."))
    assert not names & {"random", "default_rng", "RandomState", "Generator"}


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


REGION = maxparabola.triangle_region(Triangle([-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]), "C")

# id -> (name, least, call taking the count): every count argument of the package
COUNT_ARGUMENTS = {
    "pencil-pairs": ("pairs", 1, lambda v: verify.pencil_interior_preservation(pairs=v, points_per_pair=3)),
    "pencil-points": ("points_per_pair", 1, lambda v: verify.pencil_interior_preservation(pairs=1, points_per_pair=v)),
    "dual-pairs": ("pairs", 1, lambda v: verify.dual_pencil_line_preservation(pairs=v, lines_per_pair=3)),
    "dual-lines": ("lines_per_pair", 1, lambda v: verify.dual_pencil_line_preservation(pairs=1, lines_per_pair=v)),
    "size-cases": ("cases", 1, lambda v: verify.size_reduction_suite(cases=v)),
    "cover-cases": ("cases", 1, lambda v: verify.cover_containment_suite(cases=v, samples=50)),
    "cover-samples": ("samples", 1, lambda v: verify.cover_containment_suite(cases=1, samples=v)),
    "run-cases": ("cases", 1, lambda v: verify.run_suite("cover", cases=v, samples=50)),
    "run-samples": ("samples", 1, lambda v: verify.run_suite("cover", cases=1, samples=v)),
    "check-samples": ("samples", 1, lambda v: horocycle.check_cover_containment(0.5, 0.2, samples=v)),
    "lens-n": ("n", 0, lambda v: horocycle.sample_common_interior(0.5, 0.2, v)),
    "starts": ("starts", 1, lambda v: maxparabola.solve_max_parabola(REGION, starts=v)),
    "grid": ("grid", 1, lambda v: minhorocycle.solve_min_horocycle([[0.2, 0.1]], grid=v)),
}


@pytest.mark.parametrize("name, least, call", COUNT_ARGUMENTS.values(), ids=COUNT_ARGUMENTS)
def test_every_count_argument_follows_the_count_rule(name, least, call):
    # a bool, a string or a fraction used to run, or fail deep in numpy
    for bad in (least - 1, 2.5, True, "3"):
        with pytest.raises(ValueError, match=f"{name} must"):
            call(bad)
    for good in (3, 3.0, np.int64(3)):
        call(good)
