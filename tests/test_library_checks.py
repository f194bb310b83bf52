"""The library's own checks survive ``python -O``: no ``assert`` in src."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "conic_extrema"


def test_no_assert_statements_in_the_package():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SRC.is_dir() and not found, found
