"""Replay the golden command-line corpus.

``tests/golden/cases.json`` records, for each case, a verb with its
input documents (under ``tests/golden/inputs``) and the exact ``--json``
standard output and exit code.  Every case must reproduce byte for byte;
``tests/golden/build.py`` describes how the corpus is frozen.
"""

import json
from pathlib import Path

import pytest

from moritacat.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
VERBS = {
    "validate", "decompose", "saturate", "morita", "hom", "compose",
    "picard", "k0", "tensor", "k0-ring", "universal", "pushout",
    "fibrancy-probe", "lift-check",
}


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_case_replays_byte_identically(case, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN / "inputs")
    monkeypatch.setenv("COLUMNS", "80")  # the width the help cases were frozen at
    code = main(case["argv"] + ["--json"])
    assert capsys.readouterr().out == case["stdout"]
    assert code == case["exit"]


def test_corpus_covers_every_verb():
    verbs = {c["argv"][0] for c in CASES if c["argv"][-1] != "--help"}
    assert verbs == VERBS


def test_corpus_covers_every_help_text():
    helps = {tuple(c["argv"]) for c in CASES if c["argv"][-1] == "--help"}
    assert helps == {("--help",)} | {(verb, "--help") for verb in VERBS}
