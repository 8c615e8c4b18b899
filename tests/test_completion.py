"""Additive hulls, the lazy saturation, canonical sums/ranges, and
functor extension."""

from fractions import Fraction

import pytest

from moritacat.completion import (
    ExtendedFunctor,
    LazySaturation,
    ProjObject,
    additive_hull,
    canonical_range,
    canonical_sum,
    extend_along_iota,
    identity_proj_object,
    iota,
    materialize_full_subcategory,
    saturation_functor,
    validate_proj_object,
    word_dim,
    word_name,
    word_unit,
    zero_proj_object,
)
from moritacat.scalar import ExactMatrix, GaussianRational, ShapeError, matrix
from moritacat.starcat import (
    coproduct_of_grounds,
    ground_category,
    is_valid_category,
    is_valid_functor,
    matrix_category,
    star_category,
    validate_functor,
)

E11 = matrix([[1, 0], [0, 0]])
E12 = matrix([[0, 1], [0, 0]])
E21 = matrix([[0, 0], [1, 0]])
E22 = matrix([[0, 0], [0, 1]])


def diag_category():
    return star_category([("x", 2)], {("x", "x"): [E11, E22]})


# --- objects of the saturation ----------------------------------------


def test_identity_and_zero_objects_are_valid():
    base = matrix_category(2)
    assert validate_proj_object(base, identity_proj_object(base, "x")) == []
    assert validate_proj_object(base, zero_proj_object()) == []


def test_blocks_must_lie_in_the_base_spans():
    base = diag_category()
    # E12 is a projection-free direction: diag matrices only.
    obj = ProjObject(("x",), matrix([[1, 0], [0, 0]]))
    assert validate_proj_object(base, obj) == []
    skew = ProjObject(
        ("x",),
        matrix(
            [
                [Fraction(1, 2), Fraction(1, 2)],
                [Fraction(1, 2), Fraction(1, 2)],
            ]
        ),
    )
    problems = validate_proj_object(base, skew)
    assert any("outside hom" in p for p in problems)


def test_non_projection_is_reported():
    base = matrix_category(2)
    assert "projection is not idempotent" in " ".join(
        validate_proj_object(base, ProjObject(("x",), E11 + E22.scale(GaussianRational.of(2))))
    )
    assert "not self-adjoint" in " ".join(
        validate_proj_object(base, ProjObject(("x",), E12))
    )


# --- hom spaces --------------------------------------------------------


def test_saturation_hom_is_the_compressed_block_space():
    base = matrix_category(2)
    sat = LazySaturation(base)
    p = identity_proj_object(base, "x")
    q = ProjObject(("x",), E11)
    assert sat.hom_dim(p, p) == 4
    assert sat.hom_dim(q, q) == 1
    assert sat.hom_dim(p, q) == 2  # E11 * M2 * I
    assert sat.hom_dim(q, p) == 2
    assert sat.hom_span(p, q).contains(E12)
    assert not sat.hom_span(p, q).contains(E21)


def test_hom_cache_is_shared_and_stable():
    base = matrix_category(2)
    sat = LazySaturation(base)
    q = ProjObject(("x",), E11)
    first = sat.hom_basis(q, q)
    second = sat.hom_basis(q, q)
    assert first is second


def test_two_letter_words_get_block_matrix_homs():
    base = diag_category()
    sat = LazySaturation(base)
    w = ProjObject(("x", "x"), word_unit(base, ("x", "x")))
    # Each of the four blocks contributes the 2-dimensional diagonal span.
    assert sat.hom_dim(w, w) == 8
    single = identity_proj_object(base, "x")
    assert sat.hom_dim(single, w) == 4


def test_zero_word_has_no_morphisms():
    base = matrix_category(2)
    sat = LazySaturation(base)
    z = zero_proj_object()
    x = identity_proj_object(base, "x")
    assert sat.hom_dim(z, z) == 0
    assert sat.hom_dim(z, x) == 0
    assert sat.hom_dim(x, z) == 0


# --- canonical sums and ranges ----------------------------------------


def test_canonical_sum_isometries():
    base = matrix_category(2)
    sat = LazySaturation(base)
    q1 = ProjObject(("x",), E11)
    q2 = ProjObject(("x",), E22)
    total, (v1, v2) = canonical_sum(base, [q1, q2])
    assert total.word == ("x", "x")
    assert total.proj == matrix(
        [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]]
    )
    # v_i* v_i is the identity of the i-th summand; cross terms vanish.
    assert v1.adjoint() @ v1 == q1.proj
    assert v2.adjoint() @ v2 == q2.proj
    assert (v1.adjoint() @ v2).is_zero()
    assert v1 @ v1.adjoint() + v2 @ v2.adjoint() == total.proj
    # The isometries are maps of the saturation.
    assert sat.contains_arrow(q1, total, v1)
    assert sat.contains_arrow(q2, total, v2)


def test_canonical_sum_of_nothing_is_the_zero_object():
    base = matrix_category(2)
    total, isos = canonical_sum(base, [])
    assert total == zero_proj_object()
    assert isos == []


def test_canonical_range_splits_projections():
    base = matrix_category(2)
    sat = LazySaturation(base)
    x = identity_proj_object(base, "x")
    rng, v = canonical_range(base, x, E11)
    assert rng == ProjObject(("x",), E11)
    assert v.adjoint() @ v == rng.proj  # v* v = identity of the range
    assert v @ v.adjoint() == E11  # v v* = the projection split
    assert sat.contains_arrow(rng, x, v)


def test_canonical_range_rejects_non_dominated_projections():
    base = matrix_category(2)
    q = ProjObject(("x",), E11)
    with pytest.raises(ValueError):
        canonical_range(base, q, E22)
    with pytest.raises(ValueError):
        canonical_range(base, q, E12)


# --- additive hull -----------------------------------------------------


def test_additive_hull_of_the_ground_category():
    hull = additive_hull(ground_category(), 2)
    names = {n for n, _ in hull.words}
    assert names == {"[]", "[x]", "[x,x]"}
    cat = hull.category
    assert cat.dim("[]") == 0
    assert cat.dim("[x]") == 1
    assert cat.dim("[x,x]") == 2
    assert cat.hom_dim("[x]", "[x,x]") == 2
    assert cat.hom_dim("[x,x]", "[x,x]") == 4
    assert is_valid_category(cat)
    assert is_valid_functor(hull.embedding)
    assert hull.truncated
    assert hull.max_word_length == 2


def test_additive_hull_respects_missing_cross_homs():
    hull = additive_hull(coproduct_of_grounds(2), 1)
    cat = hull.category
    assert cat.hom_dim("[x1]", "[x2]") == 0
    assert cat.hom_dim("[x1]", "[x1]") == 1
    assert word_name(("x1", "x2")) == "[x1,x2]"


# --- materialized subcategories ---------------------------------------


def test_materialized_subcategory_is_a_valid_unit_bearing_category():
    base = matrix_category(2)
    sat = LazySaturation(base)
    objs = {
        "whole": identity_proj_object(base, "x"),
        "corner": ProjObject(("x",), E11),
    }
    sub = materialize_full_subcategory(sat, objs)
    assert is_valid_category(sub)
    assert sub.unit("corner") == E11
    assert sub.hom_dim("corner", "corner") == 1
    assert sub.hom_dim("whole", "corner") == 2


# --- functors into the saturation -------------------------------------


def test_iota_is_a_valid_fully_faithful_functor():
    for base in (matrix_category(2), diag_category(), coproduct_of_grounds(3)):
        emb = iota(base)
        assert validate_functor(emb) == []
        sat = LazySaturation(base)
        for x in base.object_names():
            for y in base.object_names():
                assert sat.hom_dim(
                    emb.apply_object(x), emb.apply_object(y)
                ) == base.hom_dim(x, y)


def test_saturation_functor_validation_catches_broken_images():
    base = ground_category()
    target = matrix_category(2)
    # Sending the unit to a non-projection breaks the unit law.
    bad = saturation_functor(
        base,
        target,
        {"x": ProjObject(("x",), E11)},
        {("x", "x"): [E12]},
    )
    assert validate_functor(bad)


def test_saturation_functor_validation_reports_a_bad_image_object():
    # E12 is in End(x) of M2 but squares to zero, so (x, E12) is not an
    # object of the saturation; validation stops at the image object.
    bad = saturation_functor(
        ground_category(),
        matrix_category(2),
        {"x": ProjObject(("x",), E12)},
        {("x", "x"): [E12]},
    )
    problems = validate_functor(bad)
    assert "image of x: projection is not idempotent" in problems
    assert all(p.startswith("image of x: ") for p in problems)


def test_saturation_functor_checks_image_letters_and_shapes():
    base, target = ground_category(), matrix_category(2)
    with pytest.raises(KeyError):
        saturation_functor(
            base, target, {"x": ProjObject(("ghost",), E11)}, {("x", "x"): [E11]}
        )
    with pytest.raises(ShapeError):
        saturation_functor(
            base, target, {"x": ProjObject(("x",), E11)}, {("x", "x"): [matrix([[1]])]}
        )


def test_extension_agrees_with_the_functor_on_one_letter_words():
    base = ground_category()
    target = matrix_category(2)
    f = saturation_functor(
        base,
        target,
        {"x": ProjObject(("x",), E11)},
        {("x", "x"): [E11]},
    )
    assert validate_functor(f) == []
    ext = extend_along_iota(f)
    assert isinstance(ext, ExtendedFunctor)
    one = identity_proj_object(base, "x")
    assert ext.apply_object(one) == f.apply_object("x")
    assert ext.apply_arrow(one, one, matrix([[1]])) == E11


def test_extension_sends_sums_to_sums_and_ranges_to_ranges():
    base = ground_category()
    target = matrix_category(2)
    f = saturation_functor(
        base,
        target,
        {"x": ProjObject(("x",), E11)},
        {("x", "x"): [E11]},
    )
    ext = extend_along_iota(f)
    one = identity_proj_object(base, "x")
    two, _ = canonical_sum(base, [one, one])
    image = ext.apply_object(two)
    expected, _ = canonical_sum(target, [f.apply_object("x"), f.apply_object("x")])
    assert image == expected
    # A projection onto the first summand maps to the matching range.
    p = matrix([[1, 0], [0, 0]])
    rng, _ = canonical_range(base, two, p)
    img_rng = ext.apply_object(rng)
    expect_rng, _ = canonical_range(target, expected, ext.apply_arrow(two, two, p))
    assert img_rng == expect_rng


def test_extension_preserves_composition_blockwise():
    base = diag_category()
    emb = iota(base)
    ext = extend_along_iota(emb)
    w = ProjObject(("x", "x"), word_unit(base, ("x", "x")))
    sat = LazySaturation(base)
    basis = sat.hom_basis(w, w)
    for a in basis[:3]:
        for b in basis[:3]:
            assert ext.apply_arrow(w, w, b @ a) == ext.apply_arrow(
                w, w, b
            ) @ ext.apply_arrow(w, w, a)
    assert word_dim(base, w.word) == 4
