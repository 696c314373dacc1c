"""Rules the library source keeps.

No invariant may rest on `assert`: `python -O` strips assert statements, so
a broken invariant would pass silently.  Checks raise explicit errors.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "sternsums"


def test_library_has_no_assert_statements():
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
