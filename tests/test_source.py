"""Properties of the library source itself."""

import ast
from pathlib import Path

import moritacat


def test_no_assert_statements():
    # python -O strips assert statements, so a certificate check written
    # as one would silently stop running; checks raise instead.
    sources = sorted(Path(moritacat.__file__).resolve().parent.glob("*.py"))
    assert "homotopy.py" in {path.name for path in sources}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
