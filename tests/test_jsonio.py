"""Round-trip and strictness tests for the JSON document layer.

Every supported value must satisfy parse(serialize(v)) == v exactly,
and every malformed document must be rejected with a SchemaError that
names the offending location and the violated rule.
"""

import json
import random

import pytest

from moritacat.completion import (
    ProjObject,
    iota,
    validate_proj_object,
)
from moritacat.generate import (
    planted_range_square,
    planted_sum_square,
    random_category,
    random_ho_morphism,
    random_saturation_object,
)
from moritacat.homotopy import ho_morphism
from moritacat.jsonio import (
    SchemaError,
    assignment_from_json,
    assignment_to_json,
    category_from_json,
    category_to_json,
    dumps,
    functor_from_json,
    functor_to_json,
    ho_morphism_from_json,
    ho_morphism_to_json,
    matrix_from_json,
    matrix_to_json,
    parse_document,
    presentation_from_json,
    presentation_to_json,
    proj_object_from_json,
    proj_object_to_json,
    saturation_functor_from_json,
    semisimple_form_from_json,
    semisimple_form_to_json,
    square_from_json,
    square_to_json,
    term_from_json,
    term_to_json,
    to_document,
)
from moritacat.presentations import (
    LiftSquare,
    SumSquare,
    adj,
    build_universal,
    comp,
    gen,
    idm,
    presentation,
    rlp_lift,
    scalar_mul,
    sum_lift,
    zero_term,
    Arrow,
    Relation,
)
from moritacat.scalar import ExactMatrix, GaussianRational, parse_scalar
from moritacat.semisimple import SemisimpleForm, are_morita_equivalent, decompose
from moritacat.starcat import (
    ground_category,
    identity_functor,
    matrix_category,
    star_category,
    validate_category,
    validate_functor,
)

def rng_for(seed):
    return random.Random(seed)


def mat(rows):
    return ExactMatrix.from_rows(
        [[parse_scalar(str(e)) if isinstance(e, str) else e for e in row] for row in rows]
    )


# ---------------------------------------------------------------------------
# matrices and scalars


class TestMatrixDocuments:
    def test_round_trip_rational_and_complex(self):
        m = mat([["1/2", "-3"], ["0", "2/7+1/3*i"]])
        doc = matrix_to_json(m)
        assert matrix_from_json(doc, 2, 2, "$") == m

    def test_zero_row_matrix_keeps_shape(self):
        m = ExactMatrix.zeros(0, 3)
        assert matrix_from_json(matrix_to_json(m), 0, 3, "$") == m

    def test_non_canonical_scalar_rejected_with_rule(self):
        with pytest.raises(SchemaError) as err:
            matrix_from_json([["2/4"]], 1, 1, "$.m")
        assert err.value.pointer == "$.m[0][0]"
        assert "lowest-terms" in err.value.rule

    def test_wrong_shape_rejected(self):
        with pytest.raises(SchemaError) as err:
            matrix_from_json([["1"]], 2, 1, "$.m")
        assert "2 rows" in err.value.rule

    def test_numbers_are_not_scalars(self):
        with pytest.raises(SchemaError) as err:
            matrix_from_json([[1]], 1, 1, "$.m")
        assert err.value.rule == "a string is required"


# ---------------------------------------------------------------------------
# concrete categories


class TestCategoryDocuments:
    def test_one_object_scalar_category_parses(self):
        doc = {
            "kind": "concrete",
            "objects": [{"name": "x", "dim": 1}],
            "homs": {"x->x": [[["1"]]]},
        }
        cat = category_from_json(doc)
        assert cat == ground_category()

    def test_round_trip_small_categories(self):
        for cat in (ground_category(), matrix_category(2), matrix_category(3)):
            assert category_from_json(category_to_json(cat)) == cat

    def test_round_trip_generated_category(self):
        gen_cat = random_category(rng_for(77), max_objects=2).category
        doc = json.loads(dumps(category_to_json(gen_cat)))
        assert category_from_json(doc) == gen_cat

    def test_round_trip_non_identity_unit(self):
        p = mat([["1", "0"], ["0", "0"]])
        cat = star_category([("x", 2, p)], {("x", "x"): [p]})
        doc = category_to_json(cat)
        assert "unit" in doc["objects"][0]
        assert category_from_json(doc) == cat

    def test_identity_unit_not_serialized(self):
        doc = category_to_json(matrix_category(2))
        assert "unit" not in doc["objects"][0]

    def test_omitted_endo_span_gets_identity(self):
        doc = {
            "kind": "concrete",
            "objects": [{"name": "x", "dim": 2}],
            "homs": {},
        }
        cat = category_from_json(doc)
        assert cat.hom_basis("x", "x") == (ExactMatrix.identity(2),)
        assert not validate_category(cat)

    def test_explicit_endo_span_taken_literally(self):
        # A span that misses the unit must stay broken so that
        # validation can report it.
        doc = {
            "kind": "concrete",
            "objects": [{"name": "x", "dim": 2}],
            "homs": {"x->x": [[["0", "1"], ["0", "0"]]]},
        }
        cat = category_from_json(doc)
        problems = validate_category(cat)
        assert any(v.kind == "unit-membership" for v in problems)

    def test_unknown_hom_key_rejected(self):
        doc = {
            "kind": "concrete",
            "objects": [{"name": "x", "dim": 1}],
            "homs": {"x->y": [[["1"]]]},
        }
        with pytest.raises(SchemaError) as err:
            category_from_json(doc)
        assert "declared object names" in err.value.rule

    def test_duplicate_object_names_rejected(self):
        doc = {
            "kind": "concrete",
            "objects": [{"name": "x", "dim": 1}, {"name": "x", "dim": 2}],
            "homs": {},
        }
        with pytest.raises(SchemaError) as err:
            category_from_json(doc)
        assert err.value.rule == "object names must be unique"

    def test_arrow_in_object_name_rejected(self):
        doc = {
            "kind": "concrete",
            "objects": [{"name": "a->b", "dim": 1}],
            "homs": {},
        }
        with pytest.raises(SchemaError):
            category_from_json(doc)

    def test_negative_dimension_rejected(self):
        doc = {"kind": "concrete", "objects": [{"name": "x", "dim": -1}], "homs": {}}
        with pytest.raises(SchemaError) as err:
            category_from_json(doc)
        assert err.value.pointer == "$.objects[0].dim"

    def test_boolean_dimension_rejected(self):
        doc = {"kind": "concrete", "objects": [{"name": "x", "dim": True}], "homs": {}}
        with pytest.raises(SchemaError):
            category_from_json(doc)


# ---------------------------------------------------------------------------
# semisimple forms


class TestSemisimpleDocuments:
    def test_round_trip(self):
        form = SemisimpleForm(
            ("b1", "b2"), (("x", (1, 2)), ("y", (0, 1)))
        )
        assert semisimple_form_from_json(semisimple_form_to_json(form)) == form

    def test_phantom_block_rule_named(self):
        doc = {
            "kind": "semisimple",
            "blocks": ["b1", "b2"],
            "objects": [{"name": "x", "mult": [1, 0]}],
        }
        with pytest.raises(SchemaError) as err:
            semisimple_form_from_json(doc)
        assert 'block "b2"' in err.value.rule

    def test_wrong_mult_length_rejected(self):
        doc = {
            "kind": "semisimple",
            "blocks": ["b1"],
            "objects": [{"name": "x", "mult": [1, 1]}],
        }
        with pytest.raises(SchemaError) as err:
            semisimple_form_from_json(doc)
        assert "one multiplicity per block" in err.value.rule

    def test_negative_mult_rejected(self):
        doc = {
            "kind": "semisimple",
            "blocks": ["b1"],
            "objects": [{"name": "x", "mult": [-1]}],
        }
        with pytest.raises(SchemaError):
            semisimple_form_from_json(doc)


# ---------------------------------------------------------------------------
# saturation objects


class TestProjObjectDocuments:
    def test_round_trip_over_generated_base(self):
        rng = rng_for(31)
        gen_cat = random_category(rng, max_objects=2)
        obj, _ = random_saturation_object(rng, gen_cat)
        doc = proj_object_to_json(obj)
        parsed = proj_object_from_json(doc, gen_cat.category)
        assert parsed == obj
        assert not validate_proj_object(gen_cat.category, parsed)

    def test_unknown_letter_rejected(self):
        base = ground_category()
        doc = {"word": ["nope"], "proj": []}
        with pytest.raises(SchemaError) as err:
            proj_object_from_json(doc, base)
        assert "word letters" in err.value.rule

    def test_projection_shape_follows_word(self):
        base = ground_category()
        doc = {"word": ["x", "x"], "proj": [["1"]]}
        with pytest.raises(SchemaError) as err:
            proj_object_from_json(doc, base)
        assert "2 rows" in err.value.rule


# ---------------------------------------------------------------------------
# functors


class TestFunctorDocuments:
    def test_round_trip_identity_functor(self):
        f = identity_functor(matrix_category(2))
        doc = functor_to_json(f)
        parsed = functor_from_json(doc)
        assert parsed == f
        assert not validate_functor(parsed)

    def test_missing_object_image_rejected(self):
        f = identity_functor(ground_category())
        doc = functor_to_json(f)
        del doc["objects"]["x"]
        with pytest.raises(SchemaError) as err:
            functor_from_json(doc)
        assert "every source object needs an image" in err.value.rule

    def test_extra_arrow_key_rejected(self):
        f = identity_functor(ground_category())
        doc = functor_to_json(f)
        doc["arrows"]["x->y"] = [[["1"]]]
        with pytest.raises(SchemaError) as err:
            functor_from_json(doc)
        assert "nonzero hom spans" in err.value.rule

    def test_wrong_image_count_rejected(self):
        f = identity_functor(matrix_category(2))
        doc = functor_to_json(f)
        doc["arrows"]["x->x"] = doc["arrows"]["x->x"][:-1]
        with pytest.raises(SchemaError) as err:
            functor_from_json(doc)
        assert "one image per basis element" in err.value.rule


class TestSaturationFunctorDocuments:
    def test_round_trip_iota(self):
        cat = matrix_category(2)
        f = iota(cat)
        doc = functor_to_json(f)
        parsed = saturation_functor_from_json(doc)
        assert parsed == f
        assert not validate_functor(parsed)

    def test_round_trip_morita_witness(self):
        ok, witness = are_morita_equivalent(matrix_category(2), ground_category())
        assert ok and witness is not None
        doc = json.loads(dumps(functor_to_json(witness)))
        assert saturation_functor_from_json(doc) == witness

    def test_object_image_must_be_valid_over_target(self):
        cat = ground_category()
        f = iota(cat)
        doc = functor_to_json(f)
        doc["objects"]["x"]["word"] = ["ghost"]
        with pytest.raises(SchemaError):
            saturation_functor_from_json(doc)


# ---------------------------------------------------------------------------
# homotopy-class matrices


class TestHoMorphismDocuments:
    def test_round_trip_generated(self):
        rng = rng_for(5)
        a = SemisimpleForm(("b1", "b2"), (("x", (1, 2)),))
        b = SemisimpleForm(("c1",), (("y", (1,)),))
        h = random_ho_morphism(rng, a, b)
        assert ho_morphism_from_json(ho_morphism_to_json(h)) == h

    def test_negative_entries_rejected(self):
        a = SemisimpleForm(("b1",), (("x", (1,)),))
        doc = ho_morphism_to_json(ho_morphism(a, a, ((1,),)))
        doc["mult"] = [[-1]]
        with pytest.raises(SchemaError) as err:
            ho_morphism_from_json(doc)
        assert "nonnegative" in err.value.rule

    def test_row_count_checked_against_target(self):
        a = SemisimpleForm(("b1",), (("x", (1,)),))
        b = SemisimpleForm(("c1", "c2"), (("y", (1, 1)),))
        doc = ho_morphism_to_json(ho_morphism(a, b, ((1,), (0,))))
        doc["mult"] = [[1]]
        with pytest.raises(SchemaError) as err:
            ho_morphism_from_json(doc)
        assert "one row per target block" in err.value.rule


# ---------------------------------------------------------------------------
# presentations


class TestPresentationDocuments:
    @pytest.mark.parametrize(
        "kind,n", [("R", 2), ("I", None), ("SP", 2), ("F", 0), ("P", 3)]
    )
    def test_round_trip_universal(self, kind, n):
        pres = build_universal(kind) if n is None else build_universal(kind, n)
        doc = json.loads(dumps(presentation_to_json(pres)))
        assert presentation_from_json(doc) == pres

    def test_round_trip_custom_terms(self):
        i = GaussianRational.of(0, 1)
        pres = presentation(
            "custom",
            ["v", "w"],
            [Arrow("a", "v", "w")],
            [
                Relation("left", comp(adj(gen("a")), gen("a")), idm("v")),
                Relation(
                    "scaled",
                    scalar_mul(i, gen("a")),
                    zero_term("v", "w"),
                ),
            ],
        )
        doc = json.loads(dumps(presentation_to_json(pres)))
        assert presentation_from_json(doc) == pres

    def test_singleton_composition_collapses(self):
        doc = {"kind": "comp", "terms": [{"kind": "gen", "name": "a"}]}
        assert term_from_json(doc, "$") == gen("a")

    def test_empty_sum_needs_vertices(self):
        doc = {"kind": "sum", "terms": []}
        with pytest.raises(SchemaError) as err:
            term_from_json(doc, "$")
        assert "src and tgt" in err.value.rule

    def test_zero_term_round_trip(self):
        t = zero_term("v", "w")
        assert term_from_json(term_to_json(t), "$") == t

    def test_ill_typed_presentation_rejected(self):
        pres = build_universal("R", 1)
        doc = presentation_to_json(pres)
        doc["arrows"][0]["src"] = "ghost"
        with pytest.raises(SchemaError) as err:
            presentation_from_json(doc)
        assert "not a well-typed presentation" in err.value.rule

    def test_unknown_term_kind_rejected(self):
        with pytest.raises(SchemaError) as err:
            term_from_json({"kind": "nope"}, "$")
        assert "term kinds" in err.value.rule


# ---------------------------------------------------------------------------
# assignments and squares


class TestSquareDocuments:
    def test_range_square_round_trip_and_lift(self):
        rng = rng_for(21)
        gen_cat = random_category(rng, max_objects=2, min_mult=1)
        scenario = planted_range_square(rng, gen_cat, 1)
        doc = json.loads(dumps(square_to_json(scenario.square)))
        square = square_from_json(doc, scenario.functor)
        assert isinstance(square, LiftSquare)
        assert square == scenario.square
        assert rlp_lift(scenario.functor, square) is not None

    def test_sum_square_round_trip_and_lift(self):
        rng = rng_for(22)
        gen_cat = random_category(rng, max_objects=2, min_mult=1)
        scenario = planted_sum_square(rng, gen_cat, 2)
        doc = json.loads(dumps(square_to_json(scenario.square)))
        square = square_from_json(doc, scenario.functor)
        assert isinstance(square, SumSquare)
        assert square == scenario.square
        assert sum_lift(scenario.functor, square) is not None

    def test_assignment_checks_vertex_coverage(self):
        cat = ground_category()
        pres = build_universal("F", 1)
        with pytest.raises(SchemaError) as err:
            assignment_from_json({"objects": {}, "arrows": {}}, cat, pres, "$")
        assert "needs an object" in err.value.rule

    def test_assignment_rejects_stray_arrow(self):
        cat = ground_category()
        pres = build_universal("F", 1)
        doc = {"objects": {"o1": "x"}, "arrows": {"ghost": [["1"]]}}
        with pytest.raises(SchemaError) as err:
            assignment_from_json(doc, cat, pres, "$")
        assert "arrows of the presentation" in err.value.rule

    def test_assignment_round_trip(self):
        rng = rng_for(23)
        gen_cat = random_category(rng, max_objects=2, min_mult=1)
        scenario = planted_range_square(rng, gen_cat, 2)
        top = scenario.square.top
        doc = assignment_to_json(top)
        parsed = assignment_from_json(
            doc, top.target, build_universal("P", 2), "$"
        )
        assert parsed == top

    def test_sum_square_needs_positive_count(self):
        f = identity_functor(ground_category())
        doc = {
            "kind": "square",
            "family": "S",
            "n": 0,
            "top": {"objects": {}, "arrows": {}},
            "bottom": {"objects": {}, "arrows": {}},
        }
        with pytest.raises(SchemaError) as err:
            square_from_json(doc, f)
        assert "n >= 1" in err.value.rule


# ---------------------------------------------------------------------------
# dispatch and canonical text


class TestDispatch:
    def test_parse_document_dispatches_each_kind(self):
        cat = matrix_category(2)
        values = [
            cat,
            decompose(cat).form,
            identity_functor(cat),
            iota(cat),
            build_universal("R", 2),
            ho_morphism(
                decompose(cat).form, decompose(cat).form, ((1,),)
            ),
        ]
        for v in values:
            assert parse_document(to_document(v)) == v

    def test_unknown_kind_lists_known_ones(self):
        with pytest.raises(SchemaError) as err:
            parse_document({"kind": "mystery"})
        assert "unknown kind" in err.value.rule
        assert "concrete" in err.value.rule

    def test_missing_kind_rejected(self):
        with pytest.raises(SchemaError) as err:
            parse_document({})
        assert 'the "kind" field is required' in err.value.rule

    def test_dumps_is_deterministic(self):
        cat = random_category(rng_for(9), max_objects=2).category
        a = dumps(category_to_json(cat))
        b = dumps(category_to_json(category_from_json(json.loads(a))))
        assert a == b
        assert a.endswith("\n")

    def test_to_document_rejects_unsupported(self):
        with pytest.raises(TypeError):
            to_document(object())
