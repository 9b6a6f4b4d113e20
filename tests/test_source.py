"""Static checks on the library source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "linfor"


def test_no_assert_in_library():
    # python -O strips assert statements, so no check may live in one
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
