"""Write the golden command-line corpus.

Each case is a verb with its input documents and the exact ``--json``
standard output and exit code that ``moritacat.cli.main`` produced for
it; the ``help-*`` cases freeze the usage text of the parser and of
every verb, wrapped at ``HELP_COLUMNS`` columns.  ``tests/test_golden.py`` replays every case and requires the same
bytes, so a refactor that changes any report shows up as a diff.

Run from the repository root to (re)freeze the corpus:

    PYTHONPATH=src python3 tests/golden/build.py

Only regenerate on purpose, after a change that is meant to alter
output, and review the diff of ``cases.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from pathlib import Path

from moritacat import jsonio
from moritacat.cli import main
from moritacat.completion import iota
from moritacat.generate import planted_range_square, random_category
from moritacat.homotopy import ho_morphism
from moritacat.scalar import ExactMatrix
from moritacat.semisimple import SemisimpleForm
from moritacat.starcat import (
    ground_category,
    identity_functor,
    matrix_category,
    star_functor,
    zero_category,
)

HERE = Path(__file__).resolve().parent
# argparse wraps help text to the terminal width, read from COLUMNS.
HELP_COLUMNS = "80"
VERBS = (
    "validate", "decompose", "saturate", "morita", "hom", "compose",
    "picard", "k0", "tensor", "k0-ring", "universal", "pushout",
    "fibrancy-probe", "lift-check",
)

GROUND = {
    "kind": "concrete",
    "objects": [{"name": "x", "dim": 1}],
    "homs": {"x->x": [[["1"]]]},
}
BROKEN = {
    "kind": "concrete",
    "objects": [{"name": "x", "dim": 2}],
    "homs": {"x->x": [[["0", "1"], ["0", "0"]]]},
}
TWO_BLOCKS = {
    "kind": "semisimple",
    "blocks": ["b1", "b2"],
    "objects": [{"name": "x", "mult": [1, 1]}],
}
THREE_BLOCKS = {
    "kind": "semisimple",
    "blocks": ["b1", "b2", "b3"],
    "objects": [{"name": "x", "mult": [1, 1, 1]}],
}


def documents():
    """Input documents by file name."""
    m2 = matrix_category(2)
    e11 = ExactMatrix.from_rows([[1, 0], [0, 0]])
    # A functor from the ground category to M2 sending the identity to a
    # rank-one projection: the unit law fails.
    bad_functor = star_functor(ground_category(), m2, {"x": "x"}, {("x", "x"): [e11]})
    point = SemisimpleForm(("b1",), (("x", (1,)),))
    pair = SemisimpleForm(("c1", "c2"), (("y", (1, 1)),))
    rng = random.Random(7)
    disguised = random_category(rng, max_blocks=2, max_mult=2, max_objects=2)
    rng = random.Random(11)
    lift = planted_range_square(rng, random_category(rng, max_objects=2, min_mult=1), 1)
    rng = random.Random(12)
    no_lift = planted_range_square(rng, random_category(rng, max_objects=2, min_mult=1), 1)
    # Two same-shape disguised categories, for a witness between
    # categories that are not in standard position.
    rng = random.Random(5)
    left = random_category(rng, max_blocks=2, max_mult=1, max_objects=2)
    right = random_category(random.Random(5), max_blocks=2, max_mult=1, max_objects=2)
    return {
        "ground.json": GROUND,
        "broken.json": BROKEN,
        "two_blocks.json": TWO_BLOCKS,
        "three_blocks.json": THREE_BLOCKS,
        "m2.json": jsonio.category_to_json(m2),
        "zero.json": jsonio.category_to_json(zero_category()),
        "disguised.json": jsonio.category_to_json(disguised.category),
        "left.json": jsonio.category_to_json(left.category),
        "right.json": jsonio.category_to_json(right.category),
        "id_m2.json": jsonio.functor_to_json(identity_functor(m2)),
        "bad_functor.json": jsonio.functor_to_json(bad_functor),
        "iota_m2.json": jsonio.functor_to_json(iota(m2)),
        "obj_x2.json": {"word": ["x", "x"], "proj": [["1", "0"], ["0", "0"]]},
        "obj_x.json": {"word": ["x"], "proj": [["1"]]},
        "obj_xx.json": {"word": ["x", "x"], "proj": [["1", "0"], ["0", "1"]]},
        "ho_f.json": jsonio.ho_morphism_to_json(ho_morphism(point, pair, ((1,), (2,)))),
        "ho_g.json": jsonio.ho_morphism_to_json(ho_morphism(pair, point, ((3, 1),))),
        "rn.json": {"objects": {"o1": "x"}, "arrows": {"p1_1": [["1"]]}},
        "lift_f.json": jsonio.functor_to_json(lift.functor),
        "lift_sq.json": jsonio.square_to_json(lift.square),
        "nolift_f.json": jsonio.functor_to_json(no_lift.pushout.inclusion),
        "nolift_sq.json": jsonio.square_to_json(no_lift.square),
    }


CASES = [
    ("validate-ground", ["validate", "ground.json"]),
    ("validate-broken", ["validate", "broken.json"]),
    ("validate-functor", ["validate", "id_m2.json"]),
    ("validate-functor-invalid", ["validate", "bad_functor.json"]),
    ("validate-saturation-functor", ["validate", "iota_m2.json"]),
    ("decompose-m2", ["decompose", "m2.json"]),
    ("decompose-semisimple", ["decompose", "two_blocks.json"]),
    ("decompose-disguised", ["decompose", "disguised.json"]),
    ("saturate-listing", ["saturate", "m2.json"]),
    ("saturate-object", ["saturate", "ground.json", "--object", "obj_x2.json"]),
    ("saturate-hom", ["saturate", "ground.json", "--hom", "obj_x.json", "obj_xx.json"]),
    ("morita-witness", ["morita", "m2.json", "ground.json"]),
    ("morita-witness-disguised", ["morita", "left.json", "right.json"]),
    ("morita-witness-multiplicity", ["morita", "disguised.json", "two_blocks.json"]),
    ("morita-no", ["morita", "ground.json", "two_blocks.json"]),
    ("hom-rank", ["hom", "two_blocks.json", "ground.json"]),
    ("hom-bound", ["hom", "ground.json", "ground.json", "--bound", "3"]),
    ("compose", ["compose", "ho_f.json", "ho_g.json"]),
    ("compose-mismatch", ["compose", "ho_f.json", "ho_f.json"]),
    ("picard-verify", ["picard", "three_blocks.json", "--verify"]),
    ("picard-m2", ["picard", "m2.json"]),
    ("k0-semisimple", ["k0", "two_blocks.json"]),
    ("k0-disguised", ["k0", "disguised.json"]),
    ("tensor", ["tensor", "two_blocks.json", "two_blocks.json"]),
    ("tensor-mixed", ["tensor", "m2.json", "two_blocks.json"]),
    ("k0-ring", ["k0-ring", "three_blocks.json"]),
    ("k0-ring-matrix-block", ["k0-ring", "m2.json"]),
    ("universal-r2", ["universal", "R", "2"]),
    ("universal-s1", ["universal", "S", "1"]),
    ("pushout-interval", ["pushout", "m2.json", "--interval", "x"]),
    ("pushout-range", ["pushout", "ground.json", "--rn", "rn.json"]),
    ("fibrancy-zero", ["fibrancy-probe", "zero.json"]),
    ("fibrancy-m2", ["fibrancy-probe", "m2.json"]),
    ("lift-found", ["lift-check", "lift_f.json", "lift_sq.json"]),
    ("lift-none", ["lift-check", "nolift_f.json", "nolift_sq.json"]),
    ("help", ["--help"]),
    *[(f"help-{verb}", [verb, "--help"]) for verb in VERBS],
]


def run(argv):
    """Exit code and standard output of one in-process run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--json"])
    return code, out.getvalue()


def build():
    inputs = HERE / "inputs"
    inputs.mkdir(exist_ok=True)
    for name, doc in documents().items():
        (inputs / name).write_text(jsonio.dumps(doc), encoding="utf-8")
    cases = []
    previous = os.getcwd()
    os.environ["COLUMNS"] = HELP_COLUMNS
    os.chdir(inputs)
    try:
        for name, argv in CASES:
            code, stdout = run(argv)
            cases.append({"name": name, "argv": argv, "exit": code, "stdout": stdout})
    finally:
        os.chdir(previous)
    text = json.dumps(cases, indent=1, sort_keys=True) + "\n"
    (HERE / "cases.json").write_text(text, encoding="utf-8")
    return cases


if __name__ == "__main__":
    for case in build():
        print(f"{case['exit']}  {case['name']}", file=sys.stderr)
