"""The README's examples must run as written."""

import json
import re
from pathlib import Path

from moritacat import jsonio
from moritacat.scalar import format_scalar, parse_scalar

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def section(title):
    """The text of a README section, up to the next heading of its level."""
    level = title.split(" ")[0]
    start = README.index(f"\n{title}\n")
    end = README.find(f"\n{level} ", start + 1)
    return README[start : end if end >= 0 else None]


def fenced(text, language):
    return re.findall(rf"```{language}\n(.*?)```", text, re.DOTALL)


def test_short_session_runs():
    (code,) = fenced(section("### A short session"), "python")
    exec(compile(code, "README.md", "exec"), {})


def test_json_document_scalars_parse():
    text = section("## JSON documents")
    paragraph = text[text.index("Scalars are strings") :].split("\n\n")[0]
    quoted = re.findall(r'`"([^"`]*)"`', paragraph)
    assert len(quoted) == 3
    for scalar in quoted:
        assert format_scalar(parse_scalar(scalar)) == scalar
    (example,) = fenced(text, "json")
    doc = json.loads(example)
    for basis in doc["homs"].values():
        for matrix in basis:
            for scalar in (x for row in matrix for x in row):
                parse_scalar(scalar)
    assert jsonio.category_from_json(doc).dim("x") == 2
