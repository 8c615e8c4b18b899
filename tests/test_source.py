"""Properties of the library source itself."""

import ast
from pathlib import Path

import moritacat

SOURCES = sorted(Path(moritacat.__file__).resolve().parent.glob("*.py"))


def test_no_assert_statements():
    # python -O strips assert statements, so a certificate check written
    # as one would silently stop running; checks raise instead.
    assert "homotopy.py" in {path.name for path in SOURCES}
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_line_longer_than_100_characters():
    # The src/ line count is a design target; joined lines must not meet it.
    found = [
        f"{path.name}:{number}"
        for path in SOURCES
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert found == []
