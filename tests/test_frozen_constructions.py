"""Replay the frozen outputs of the derived constructions.

``tests/golden/constructions.json`` records, for each case below, the
JSON text (``jsonio.dumps``) of a construction's result: the interval and
range-object pushouts with their mediating functors, truncated additive
hulls, the coproduct-versus-product comparison functor, the standard
realizations of the one-object census forms, and representative functors
of class matrices: between the standard realizations of the
``ho-calculus`` benchmark forms (one class with a zero column, so an
empty image summand), between disguised random draws (one of them the
identity class, i.e. the Morita witness), between the ground category
and M_2 both ways, and into and out of the zero category.  Each case must reproduce
byte for byte, so a rewrite of one of these constructions in terms of
another shows up as a diff.

To (re)freeze the outputs, on purpose and after reviewing the diff, run
from the repository root:

    PYTHONPATH=src python3 tests/test_frozen_constructions.py
"""

import json
import random
from pathlib import Path

import pytest

from moritacat import jsonio
from moritacat.completion import additive_hull
from moritacat.generate import (
    collapse_functor,
    one_object_forms,
    random_category,
    random_projection_assignment,
    random_range_cocone,
)
from moritacat.homotopy import comparison_functor, ho_morphism, representative_functor
from moritacat.presentations import (
    interval_mediator,
    pushout_interval,
    pushout_rn,
    rn_pushout_mediator,
)
from moritacat.scalar import ExactMatrix
from moritacat.semisimple import SemisimpleForm, decompose, standard_realization
from moritacat.starcat import (
    coproduct_of_grounds,
    ground_category,
    identity_functor,
    matrix_category,
    zero_category,
)

FROZEN = Path(__file__).resolve().parent / "golden" / "constructions.json"
SWAP = ExactMatrix.from_rows([[0, 1], [1, 0]])


def interval_case(cat, x0, cocone):
    """The interval pushout of ``x0`` and the mediator of the cocone
    ``cocone(po) = (t0, x1_image, u_image)``."""
    po = pushout_interval(cat, x0)
    t0, x1_image, u_image = cocone(po)
    return {
        "category": jsonio.category_to_json(po.category),
        "inclusion": jsonio.functor_to_json(po.inclusion),
        "x0": po.x0,
        "x1": po.x1,
        "u": jsonio.matrix_to_json(po.u),
        "mediator": jsonio.functor_to_json(interval_mediator(po, t0, x1_image, u_image)),
    }


def range_case(n, seed):
    """A range-object pushout of a random projection matrix and the
    mediator of a random competing cocone (seed 180 as in
    ``tests/test_generate.py``)."""
    gen = random_category(random.Random(seed + n), max_objects=2, max_blocks=2)
    g = random_projection_assignment(random.Random(seed + 10 + n), gen, n)
    po = pushout_rn(gen.category, g)
    cocone = random_range_cocone(random.Random(seed + 20 + n), gen, po)
    return {
        "category": jsonio.category_to_json(po.category),
        "inclusion": jsonio.functor_to_json(po.inclusion),
        "range": po.r_name,
        "word": list(po.word),
        "projection": jsonio.matrix_to_json(po.proj),
        "bottom": jsonio.assignment_to_json(po.bottom),
        "mediator": jsonio.functor_to_json(rn_pushout_mediator(po, cocone.t0, cocone.t1)),
    }


def hull_case(cat, length):
    hull = additive_hull(cat, length)
    return {
        "category": jsonio.category_to_json(hull.category),
        "embedding": jsonio.functor_to_json(hull.embedding),
        "words": [[name, list(word)] for name, word in hull.words],
        "max_word_length": hull.max_word_length,
    }


def comparison_case(a, b):
    coproduct, product, functor = comparison_functor(a, b)
    return {
        "coproduct": jsonio.category_to_json(coproduct),
        "product": jsonio.category_to_json(product),
        "functor": jsonio.functor_to_json(functor),
    }


def representative_case(a, b, rows):
    """The representative functor A -> Sat(B) of the class matrix
    ``rows`` (rows indexed by the blocks of B, in decompose's order)."""
    h = ho_morphism(decompose(a).form, decompose(b).form, rows)
    return jsonio.functor_to_json(representative_functor(h, a, b))


def ho_realization(*classes, prefix):
    """The standard realization of a form given by per-object class
    vectors, as the ``ho-calculus`` benchmark builds it."""
    return standard_realization(
        SemisimpleForm(
            tuple(f"b{j + 1}" for j in range(len(classes[0]))),
            tuple((f"{prefix}{i + 1}", c) for i, c in enumerate(classes)),
        )
    )


def ho_forms():
    return {
        "A": ho_realization((1, 1), (0, 2), prefix="a"),
        "A2": ho_realization((2, 0), (1, 1), prefix="p"),
        "B": ho_realization((1, 1), (1, 0), (0, 2), prefix="b"),
        "C": ho_realization((1, 0, 1), (0, 1, 1), (1, 1, 0), prefix="c"),
    }


def representative_cases():
    ho = [
        ("A", "B", ((2, 0), (1, 0))),
        ("A", "A2", ((0, 1), (1, 0))),
        ("A", "A2", ((2, 1), (1, 1))),
        ("B", "C", ((1, 0), (0, 1), (1, 2))),
        ("C", "A", ((1, 0, 2), (0, 1, 1))),
    ]
    cases = {
        f"representative-ho-{src}-{tgt}-{i}": lambda src=src, tgt=tgt, rows=rows: (
            representative_case(ho_forms()[src], ho_forms()[tgt], rows)
        )
        for i, (src, tgt, rows) in enumerate(ho)
    }
    return {
        **cases,
        "representative-random-witness": lambda: representative_case(
            random_draws()[3], random_draws()[5], ((1, 0), (0, 1))
        ),
        "representative-random-2-4": lambda: representative_case(
            random_draws()[2], random_draws()[4], ((1, 0, 2), (0, 1, 0), (1, 0, 0))
        ),
        "representative-ground-m2": lambda: representative_case(
            ground_category(), matrix_category(2), ((2,),)
        ),
        "representative-m2-ground": lambda: representative_case(
            matrix_category(2), ground_category(), ((3,),)
        ),
        "representative-zero-m2": lambda: representative_case(
            zero_category(), matrix_category(2), ((),)
        ),
        "representative-m2-zero": lambda: representative_case(
            matrix_category(2), zero_category(), ()
        ),
        "representative-zero-zero": lambda: representative_case(
            zero_category(), zero_category(), ()
        ),
    }


def realization_cases():
    forms = one_object_forms(3, 2) + [
        SemisimpleForm(("b1", "b2"), (("x", (1, 0)), ("y", (1, 2)))),
        SemisimpleForm(("b1", "b2", "b3"), (("x", (2, 0, 1)), ("y", (0, 1, 1)))),
    ]
    return {
        f"realization-{i}": lambda form=form: {
            "form": jsonio.semisimple_form_to_json(form),
            "category": jsonio.category_to_json(standard_realization(form)),
        }
        for i, form in enumerate(forms)
    }


def random_draws():
    rng = random.Random(5)
    return [
        random_category(rng, max_blocks=3, max_mult=2, max_objects=2).category
        for _ in range(6)
    ]


def disguised(seed):
    return random_category(random.Random(seed), max_blocks=2, max_mult=2, max_objects=2).category


CASES = {
    "interval-ground-identity": lambda: interval_case(
        ground_category(), "x", lambda po: (po.inclusion, po.x1, po.u)
    ),
    "interval-ground-collapse": lambda: interval_case(
        ground_category(), "x", lambda po: (identity_functor(ground_category()), "x", po.u)
    ),
    "interval-m2-swap": lambda: interval_case(
        matrix_category(2), "x", lambda po: (po.inclusion, po.x1, SWAP)
    ),
    "interval-m2-swap-collapse": lambda: interval_case(
        matrix_category(2), "x", lambda po: (identity_functor(matrix_category(2)), "x", SWAP)
    ),
    "interval-two-points": lambda: interval_case(
        coproduct_of_grounds(2), "x2", lambda po: (po.inclusion, po.x1, po.u)
    ),
    **{
        f"range-{n}-{seed}": lambda n=n, seed=seed: range_case(n, seed)
        for n in (0, 1, 2)
        for seed in (180, 300)
    },
    **{
        f"interval-random-{i}": lambda i=i, x0=x0: interval_case(
            random_draws()[i], x0, lambda po: (po.inclusion, po.x1, po.u)
        )
        for i, x0 in ((1, "x2"), (2, "x1"), (3, "x1"), (5, "x2"))
    },
    "collapse-m2-twice": lambda: jsonio.functor_to_json(
        collapse_functor(random.Random(1), matrix_category(2), copies=2)
    ),
    "collapse-disguised-twice": lambda: jsonio.functor_to_json(
        collapse_functor(random.Random(2), disguised(3), copies=2)
    ),
    "hull-ground-2": lambda: hull_case(ground_category(), 2),
    "hull-two-points-1": lambda: hull_case(coproduct_of_grounds(2), 1),
    "comparison-ground-m2": lambda: comparison_case(ground_category(), matrix_category(2)),
    "comparison-points-ground": lambda: comparison_case(
        coproduct_of_grounds(2), ground_category()
    ),
    "comparison-disguised": lambda: comparison_case(disguised(3), disguised(4)),
    **realization_cases(),
    **representative_cases(),
}


def freeze():
    frozen = {name: jsonio.dumps(build()) for name, build in CASES.items()}
    FROZEN.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return frozen


@pytest.fixture(scope="module")
def frozen():
    return json.loads(FROZEN.read_text(encoding="utf-8"))


def test_every_case_is_frozen(frozen):
    assert set(frozen) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_construction_replays_byte_identically(name, frozen):
    assert jsonio.dumps(CASES[name]()) == frozen[name]


if __name__ == "__main__":
    for name in freeze():
        print(name)
