"""Homotopy classes of functors: matrix normal forms, composition and
sum, isomorphism testing, Picard groups, semi-additivity, and the
brute-force normal-form oracle."""

import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
import sympy

import moritacat
from moritacat import homotopy

from moritacat.completion import (
    LazySaturation,
    ProjObject,
    canonical_sum,
    iota,
    saturation_functor,
    zero_proj_object,
)
from moritacat.homotopy import (
    CertificateError,
    ClassMatrix,
    GcMorphism,
    HoMorphism,
    aut_group,
    class_of_functor,
    comparison_functor,
    compose_into_saturation,
    enumerate_natural_invertibles,
    ho_add,
    ho_compose,
    ho_identity,
    ho_inverse,
    ho_is_iso,
    ho_morphism,
    ho_zero,
    hom_monoid,
    pointwise_sum,
    product_probe_category,
    representative_functor,
    saturation_iso_witness,
    semiadditivity_check,
)
from moritacat.scalar import ExactMatrix, matrix
from moritacat.semisimple import decompose, minimal_projection, object_class
from moritacat.starcat import (
    coproduct_of_grounds,
    ground_category,
    identity_functor,
    matrix_category,
    star_category,
    validate_functor,
    zero_category,
)

GROUND = ground_category()
TWO_POINTS = coproduct_of_grounds(2)
M2 = matrix_category(2)

F_GROUND = decompose(GROUND).form
F_TWO = decompose(TWO_POINTS).form
F_M2 = decompose(M2).form


def rank_pick_functor(cat, base, proj_obj):
    """The functor from the ground category picking one saturation
    object of the base."""
    return saturation_functor(
        cat, base, {"x": proj_obj}, {("x", "x"): [proj_obj.proj]}
    )


# --- the morphism type -------------------------------------------------


def test_any_natural_matrix_is_a_morphism():
    f = ho_morphism(F_TWO, F_TWO, [[5, 0], [2, 7]])
    assert f.shape == (2, 2)
    assert f.entry(1, 0) == 2


def test_negative_entries_rejected():
    with pytest.raises(ValueError):
        ho_morphism(F_GROUND, F_GROUND, [[-1]])


def test_wrong_shape_rejected():
    with pytest.raises(ValueError):
        ho_morphism(F_TWO, F_GROUND, [[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        ho_morphism(F_GROUND, F_GROUND, [[1], [2]])


def test_identity_and_zero():
    i = ho_identity(F_TWO)
    assert i.mult == ((1, 0), (0, 1))
    z = ho_zero(F_GROUND, F_TWO)
    assert z.is_zero() and z.shape == (2, 1)


# --- composition -------------------------------------------------------


def test_identity_composes_trivially():
    f = ho_morphism(F_TWO, F_GROUND, [[3, 4]])
    assert ho_compose(ho_identity(F_GROUND), f) == f
    assert ho_compose(f, ho_identity(F_TWO)) == f


def test_composition_is_matrix_product():
    f = ho_morphism(F_GROUND, F_TWO, [[2], [0]])
    g = ho_morphism(F_TWO, F_TWO, [[1, 0], [1, 1]])
    assert ho_compose(g, f).mult == ((2,), (2,))


def test_composition_shape_mismatch():
    f = ho_morphism(F_GROUND, F_GROUND, [[1]])
    g = ho_morphism(F_TWO, F_TWO, [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        ho_compose(g, f)


def test_zero_laws():
    f = ho_morphism(F_GROUND, F_TWO, [[2], [3]])
    assert ho_compose(ho_zero(F_TWO, F_GROUND), f).is_zero()
    assert ho_compose(f, ho_zero(F_GROUND, F_GROUND)).is_zero()


# --- the abelian monoid ------------------------------------------------


def test_add_zero_is_neutral():
    f = ho_morphism(F_GROUND, F_TWO, [[2], [3]])
    assert ho_add(f, ho_zero(F_GROUND, F_TWO)) == f


def test_add_is_entrywise():
    one = ho_morphism(F_GROUND, F_GROUND, [[1]])
    assert ho_add(one, one).mult == ((2,),)


def test_add_commutes():
    f = ho_morphism(F_TWO, F_TWO, [[1, 2], [3, 4]])
    g = ho_morphism(F_TWO, F_TWO, [[5, 0], [0, 7]])
    assert ho_add(f, g) == ho_add(g, f)


def test_add_shape_mismatch():
    with pytest.raises(ValueError):
        ho_add(
            ho_morphism(F_GROUND, F_GROUND, [[1]]),
            ho_morphism(F_GROUND, F_TWO, [[1], [1]]),
        )


def test_composition_is_bilinear():
    f = ho_morphism(F_GROUND, F_TWO, [[1], [2]])
    f2 = ho_morphism(F_GROUND, F_TWO, [[3], [0]])
    g = ho_morphism(F_TWO, F_TWO, [[1, 1], [0, 2]])
    assert ho_compose(g, ho_add(f, f2)) == ho_add(ho_compose(g, f), ho_compose(g, f2))
    h = ho_morphism(F_TWO, F_GROUND, [[1, 1]])
    h2 = ho_morphism(F_TWO, F_GROUND, [[0, 2]])
    assert ho_compose(ho_add(h, h2), g) == ho_add(ho_compose(h, g), ho_compose(h2, g))


# --- isomorphism testing -----------------------------------------------


def test_identity_is_iso():
    assert ho_is_iso(ho_identity(F_TWO))


def test_doubling_is_not_iso():
    assert not ho_is_iso(ho_morphism(F_GROUND, F_GROUND, [[2]]))


def test_swap_is_iso_with_transpose_inverse():
    swap = ho_morphism(F_TWO, F_TWO, [[0, 1], [1, 0]])
    assert ho_is_iso(swap)
    assert ho_inverse(swap) == swap
    assert ho_compose(ho_inverse(swap), swap) == ho_identity(F_TWO)


def test_non_square_is_not_iso():
    assert not ho_is_iso(ho_morphism(F_GROUND, F_TWO, [[1], [0]]))


def test_inverse_of_non_iso_raises():
    with pytest.raises(ValueError):
        ho_inverse(ho_morphism(F_GROUND, F_GROUND, [[2]]))


def test_iso_agrees_with_two_sided_inverse_search():
    mon = hom_monoid(F_TWO, F_TWO)
    candidates = mon.bounded_elements(2)
    ident = ho_identity(F_TWO)
    isos = []
    for f in candidates:
        has_inverse = any(
            ho_compose(g, f) == ident and ho_compose(f, g) == ident
            for g in candidates
        )
        assert has_inverse == ho_is_iso(f)
        if has_inverse:
            isos.append(f)
    assert len(isos) == 2  # the two permutations of two blocks


# --- the hom monoid ----------------------------------------------------


def test_monoid_shape_and_rank():
    mon = hom_monoid(TWO_POINTS, GROUND)
    assert mon.shape == (1, 2)
    assert mon.rank == 2
    assert mon.generator_labels == (("b1", "b1"), ("b1", "b2"))


def test_monoid_accepts_forms_and_categories():
    assert hom_monoid(F_TWO, F_GROUND) == hom_monoid(TWO_POINTS, GROUND)


def test_monoid_generators_are_elementary():
    mon = hom_monoid(TWO_POINTS, TWO_POINTS)
    g = mon.generator(0, 1)
    assert g.mult == ((0, 1), (0, 0))


def test_bounded_enumeration_counts():
    assert len(hom_monoid(F_GROUND, F_GROUND).bounded_elements(3)) == 4
    assert len(hom_monoid(F_TWO, F_GROUND).bounded_elements(2)) == 6
    mon = hom_monoid(F_GROUND, F_GROUND)
    assert mon.zero() in mon.bounded_elements(0)


@pytest.mark.parametrize("rows", range(3))
@pytest.mark.parametrize("cols", range(4))
def test_bounded_enumeration_matches_the_filtered_walk(rows, cols):
    forms = [decompose(zero_category()).form] + [
        decompose(coproduct_of_grounds(k)).form for k in (1, 2, 3)
    ]
    mon = hom_monoid(forms[cols], forms[rows])
    for bound in range(-1, 4):
        walk = [
            ho_morphism(mon.source_form, mon.target_form, m)
            for m in itertools.product(
                itertools.product(range(max(bound, 0) + 1), repeat=cols), repeat=rows
            )
            if sum(map(sum, m)) <= bound
        ]
        assert mon.bounded_elements(bound) == walk


def test_bounded_enumeration_of_a_three_block_form():
    three = coproduct_of_grounds(3)
    assert len(hom_monoid(three, three).bounded_elements(3)) == 220


# --- classifying functors ----------------------------------------------


def test_inclusion_classifies_to_identity():
    assert class_of_functor(iota(GROUND)) == ho_identity(F_GROUND)
    assert class_of_functor(iota(TWO_POINTS)) == ho_identity(F_TWO)
    assert class_of_functor(iota(M2)) == ho_identity(F_M2)


def test_concrete_functor_is_upgraded():
    assert class_of_functor(identity_functor(GROUND)) == ho_identity(F_GROUND)


def test_constant_zero_functor_classifies_to_zero():
    f = rank_pick_functor(GROUND, GROUND, zero_proj_object())
    assert class_of_functor(f) == ho_zero(F_GROUND, F_GROUND)


def test_rank_one_pick_in_matrix_algebra():
    p = minimal_projection(decompose(M2), 0)
    f = rank_pick_functor(GROUND, M2, p)
    assert class_of_functor(f).mult == ((1,),)


def test_full_unit_pick_in_matrix_algebra_has_class_two():
    f = rank_pick_functor(
        GROUND, M2, ProjObject(("x",), ExactMatrix.identity(2))
    )
    assert class_of_functor(f).mult == ((2,),)


# --- representative functors -------------------------------------------


REPRESENTATIVE_CASES = [
    (F_GROUND, GROUND, GROUND, [[0]]),
    (F_GROUND, GROUND, GROUND, [[3]]),
    (F_GROUND, GROUND, M2, [[2]]),
    (F_M2, M2, GROUND, [[1]]),
    (F_M2, M2, M2, [[2]]),
    (F_TWO, TWO_POINTS, GROUND, [[1, 2]]),
    (F_GROUND, GROUND, TWO_POINTS, [[2], [1]]),
    (F_TWO, TWO_POINTS, TWO_POINTS, [[0, 1], [1, 0]]),
    (F_TWO, TWO_POINTS, TWO_POINTS, [[1, 2], [0, 1]]),
]


@pytest.mark.parametrize("src_form,src,tgt,rows", REPRESENTATIVE_CASES)
def test_representative_roundtrip(src_form, src, tgt, rows):
    h = ho_morphism(src_form, decompose(tgt).form, rows)
    rep = representative_functor(h, src, tgt)
    assert validate_functor(rep) == []
    assert class_of_functor(rep) == h


def test_representative_of_swap_moves_points():
    swap = ho_morphism(F_TWO, F_TWO, [[0, 1], [1, 0]])
    rep = representative_functor(swap, TWO_POINTS, TWO_POINTS)
    assert rep.apply_object("x1").word == ("x2",)
    assert rep.apply_object("x2").word == ("x1",)


def test_representative_form_mismatch_raises():
    with pytest.raises(ValueError):
        representative_functor(
            ho_morphism(F_GROUND, F_GROUND, [[1]]), TWO_POINTS, GROUND
        )


# --- composition at the functor level ----------------------------------


def test_doubling_after_tripling_is_sextupling():
    triple = representative_functor(
        ho_morphism(F_GROUND, F_GROUND, [[3]]), GROUND, GROUND
    )
    double = representative_functor(
        ho_morphism(F_GROUND, F_GROUND, [[2]]), GROUND, GROUND
    )
    composite = compose_into_saturation(double, triple)
    assert validate_functor(composite) == []
    assert class_of_functor(composite).mult == ((6,),)


def test_two_block_composition_matches_matrix_product():
    f = ho_morphism(F_GROUND, F_TWO, [[2], [0]])
    g = ho_morphism(F_TWO, F_TWO, [[1, 0], [1, 1]])
    rep_f = representative_functor(f, GROUND, TWO_POINTS)
    rep_g = representative_functor(g, TWO_POINTS, TWO_POINTS)
    composite = compose_into_saturation(rep_g, rep_f)
    assert class_of_functor(composite) == ho_compose(g, f)
    assert ho_compose(g, f).mult == ((2,), (2,))


FUNCTORIALITY_CASES = [
    (GROUND, GROUND, GROUND, [[2]], [[3]]),
    (GROUND, TWO_POINTS, TWO_POINTS, [[1], [2]], [[1, 1], [0, 2]]),
    (TWO_POINTS, GROUND, M2, [[1, 2]], [[2]]),
    (M2, M2, GROUND, [[2]], [[1]]),
]


@pytest.mark.parametrize("a,b,c,f_rows,g_rows", FUNCTORIALITY_CASES)
def test_classification_is_functorial(a, b, c, f_rows, g_rows):
    f = ho_morphism(decompose(a).form, decompose(b).form, f_rows)
    g = ho_morphism(decompose(b).form, decompose(c).form, g_rows)
    rep_f = representative_functor(f, a, b)
    rep_g = representative_functor(g, b, c)
    composite = compose_into_saturation(rep_g, rep_f)
    assert validate_functor(composite) == []
    assert class_of_functor(composite) == ho_compose(g, f)


def test_composing_non_matching_functors_raises():
    f = representative_functor(
        ho_morphism(F_GROUND, F_GROUND, [[1]]), GROUND, GROUND
    )
    g = representative_functor(
        ho_morphism(F_TWO, F_TWO, [[1, 0], [0, 1]]), TWO_POINTS, TWO_POINTS
    )
    with pytest.raises(ValueError):
        compose_into_saturation(g, f)


# --- pointwise sums ----------------------------------------------------


def test_pointwise_sum_adds_classes():
    one = representative_functor(
        ho_morphism(F_GROUND, F_GROUND, [[1]]), GROUND, GROUND
    )
    total = pointwise_sum(one, one)
    assert validate_functor(total) == []
    assert class_of_functor(total).mult == ((2,),)


def test_pointwise_sum_with_zero_preserves_class():
    f = representative_functor(
        ho_morphism(F_TWO, F_TWO, [[1, 0], [2, 1]]), TWO_POINTS, TWO_POINTS
    )
    zero = representative_functor(
        ho_zero(F_TWO, F_TWO), TWO_POINTS, TWO_POINTS
    )
    total = pointwise_sum(f, zero)
    assert class_of_functor(total) == class_of_functor(f)


def test_pointwise_sum_matches_ho_add_generally():
    f = ho_morphism(F_GROUND, F_TWO, [[1], [2]])
    g = ho_morphism(F_GROUND, F_TWO, [[2], [0]])
    rep = pointwise_sum(
        representative_functor(f, GROUND, TWO_POINTS),
        representative_functor(g, GROUND, TWO_POINTS),
    )
    assert validate_functor(rep) == []
    assert class_of_functor(rep) == ho_add(f, g)


@pytest.mark.parametrize(
    "a, b, f, g",
    [
        (M2, M2, [[1]], [[2]]),
        (TWO_POINTS, M2, [[1, 2]], [[0, 1]]),
        (M2, TWO_POINTS, [[1], [2]], [[2], [0]]),
    ],
    ids=["M2-M2", "two-M2", "M2-two"],
)
def test_pointwise_sum_arrows_match_the_isometry_formula(a, b, f, g):
    """Every arrow image is v_F(y) F(m) v_F(x)* + v_G(y) G(m) v_G(x)*
    over the canonical isometries, entry for entry."""
    fa, fb = decompose(a).form, decompose(b).form
    rf = representative_functor(ho_morphism(fa, fb, f), a, b)
    rg = representative_functor(ho_morphism(fa, fb, g), a, b)
    total = pointwise_sum(rf, rg)

    def isometries(x):
        return canonical_sum(b, [rf.apply_object(x), rg.apply_object(x)])[1]

    for x, y in a.pairs():
        (vfx, vgx), (vfy, vgy) = isometries(x), isometries(y)
        expected = [
            vfy @ fm @ vfx.adjoint() + vgy @ gm @ vgx.adjoint()
            for fm, gm in zip(rf.images(x, y), rg.images(x, y))
        ]
        assert list(total.images(x, y)) == expected


def test_pointwise_sum_needs_matching_ends():
    f = representative_functor(
        ho_morphism(F_GROUND, F_GROUND, [[1]]), GROUND, GROUND
    )
    g = representative_functor(
        ho_morphism(F_TWO, F_TWO, [[1, 0], [0, 1]]), TWO_POINTS, TWO_POINTS
    )
    with pytest.raises(ValueError):
        pointwise_sum(f, g)


# --- unitary isomorphism witnesses -------------------------------------


def test_witness_between_equal_rank_diagonals():
    o1 = ProjObject(("x", "x", "x"), ExactMatrix.diagonal([1, 1, 0]))
    o2 = ProjObject(("x", "x"), ExactMatrix.identity(2))
    u = saturation_iso_witness(GROUND, o1, o2)
    assert u is not None
    assert u.adjoint() @ u == o1.proj
    assert u @ u.adjoint() == o2.proj


def test_witness_between_scattered_diagonals():
    o1 = ProjObject(("x", "x", "x"), ExactMatrix.diagonal([0, 1, 0]))
    o2 = ProjObject(("x",), ExactMatrix.identity(1))
    assert saturation_iso_witness(GROUND, o1, o2) is not None


def test_no_witness_across_ranks():
    o1 = ProjObject(("x", "x"), ExactMatrix.identity(2))
    o2 = ProjObject(("x",), ExactMatrix.identity(1))
    assert saturation_iso_witness(GROUND, o1, o2) is None


def test_witness_in_matrix_algebra_across_words():
    p = minimal_projection(decompose(M2), 0).proj
    two_minimals = ProjObject(
        ("x", "x"),
        ExactMatrix.from_rows(
            [
                [p.entry(0, 0), p.entry(0, 1), 0, 0],
                [p.entry(1, 0), p.entry(1, 1), 0, 0],
                [0, 0, p.entry(0, 0), p.entry(0, 1)],
                [0, 0, p.entry(1, 0), p.entry(1, 1)],
            ]
        ),
    )
    one_unit = ProjObject(("x",), ExactMatrix.identity(2))
    u = saturation_iso_witness(M2, two_minimals, one_unit)
    assert u is not None
    assert u.adjoint() @ u == two_minimals.proj
    assert u @ u.adjoint() == one_unit.proj


def test_witness_between_zero_objects():
    o = ProjObject(("x",), ExactMatrix.zeros(1, 1))
    u = saturation_iso_witness(GROUND, o, zero_proj_object())
    assert u is not None and u.rows == 0 and u.cols == 1


# --- Picard groups -----------------------------------------------------


def test_single_block_picard_is_trivial():
    g = aut_group(M2)
    assert g.order == 1
    assert g.label == "S_1"
    assert g.generators == ()


def test_three_points_picard_is_symmetric_group():
    g = aut_group(coproduct_of_grounds(3))
    assert g.order == 6
    assert g.label == "S_3"
    assert len(g.generators) == 2
    for t in g.generators:
        assert ho_is_iso(t)
        assert ho_compose(t, t) == ho_identity(g.form)


def test_verified_picard_by_enumeration():
    g = aut_group(coproduct_of_grounds(3), verify=True, verify_entry_bound=2)
    assert g.verified
    assert g.verify_entry_bound == 2


@pytest.mark.parametrize("bound", [0, -1])
def test_verified_picard_refuses_a_bound_below_one(bound):
    with pytest.raises(ValueError, match="at least 1"):
        aut_group(coproduct_of_grounds(3), verify=True, verify_entry_bound=bound)
    assert aut_group(coproduct_of_grounds(3), verify_entry_bound=bound).order == 6


def test_enumeration_finds_exactly_the_permutations():
    assert len(enumerate_natural_invertibles(1, 3)) == 1
    census = enumerate_natural_invertibles(2, 2)
    assert sorted(census) == [((0, 1), (1, 0)), ((1, 0), (0, 1))]


def _oracle_matrices():
    """Every 2x2 matrix with entries -2..2, then a seeded sample of 3x3
    and 4x4 matrices with entries -3..3."""
    cases = [[flat[:2], flat[2:]] for flat in itertools.product(range(-2, 3), repeat=4)]
    rng = random.Random(16)
    for n, count in ((3, 300), (4, 400)):
        cases += [
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)] for _ in range(count)
        ]
    return cases


def test_det_and_inverse_match_sympy():
    kinds = set()
    for rows in _oracle_matrices():
        det, inv = homotopy._det_and_inverse(rows)
        expected = sympy.Matrix(rows)
        assert det == expected.det(), rows
        if abs(det) == 1:
            assert sympy.Matrix(inv) == expected.inv(), rows
        else:
            assert inv is None, rows
        kinds.add((len(rows), min(abs(det), 2)))
    # singular, unimodular and |det| > 1 cases at every size
    assert kinds == {(n, d) for n in (2, 3, 4) for d in (0, 1, 2)}


def test_census_at_bound_two_is_the_six_permutations():
    start = time.process_time()
    census = enumerate_natural_invertibles(3, 2)
    assert time.process_time() - start < 2.0
    perms = itertools.permutations(range(3))
    assert sorted(census) == sorted(
        tuple(tuple(int(c == p[r]) for c in range(3)) for r in range(3)) for p in perms
    )


def test_larger_point_sets_scale_factorially():
    g = aut_group(coproduct_of_grounds(4))
    assert g.order == 24
    assert g.label == "S_4"


def test_zero_category_picard_is_trivial():
    g = aut_group(zero_category())
    assert g.order == 1
    assert g.label == "S_0"


# --- semi-additivity ---------------------------------------------------


def test_coproduct_of_grounds_is_also_product():
    cert = semiadditivity_check(GROUND, GROUND)
    assert cert.ok
    coproduct, product, _ = comparison_functor(GROUND, GROUND)
    assert decompose(coproduct).form.k == 2
    assert decompose(product).form.k == 2


def test_zero_summand_is_trivial():
    assert semiadditivity_check(zero_category(), M2).ok
    assert semiadditivity_check(zero_category(), zero_category()).ok


def test_semiadditivity_on_mixed_pairs():
    diag = star_category(
        [("x", 2)],
        {("x", "x"): [matrix([[1, 0], [0, 0]]), matrix([[0, 0], [0, 1]])]},
    )
    assert semiadditivity_check(TWO_POINTS, M2).ok
    assert semiadditivity_check(diag, TWO_POINTS).ok
    assert semiadditivity_check(M2, diag).ok


def test_probe_category_blocks_add():
    product = product_probe_category(TWO_POINTS, M2)
    assert decompose(product).form.k == 3
    assert product.has_object("(x1,x)")
    assert product.dim("(x1,x)") == 3
    assert product.dim("(0,0)") == 0


# --- the normal-form oracle --------------------------------------------


def diagonal_pattern_objects(base, max_length):
    """Every saturation object of the base whose word has bounded
    length and whose projection is a 0/1 diagonal pattern compatible
    with the hom structure (one value per ambient coordinate)."""
    out = []
    names = list(base.object_names())
    for length in range(max_length + 1):
        for word in itertools.product(names, repeat=length):
            total = sum(base.dim(x) for x in word)
            for bits in itertools.product((0, 1), repeat=total):
                proj = (
                    ExactMatrix.diagonal(list(bits))
                    if total
                    else ExactMatrix.zeros(0, 0)
                )
                out.append(ProjObject(tuple(word), proj))
    return out


def picked_classes_partition(base, objects):
    """Partition functor-defining objects by exhaustive pairwise
    intertwiner search against one representative per class."""
    sat_classes = []  # list of (representative, members)
    for o in objects:
        placed = False
        for rep, members in sat_classes:
            if saturation_iso_witness(base, o, rep) is not None:
                members.append(o)
                placed = True
                break
        if not placed:
            sat_classes.append((o, [o]))
    return sat_classes


def test_oracle_ground_to_ground():
    # Functors from the point into Saturation(point), images truncated
    # to words of length <= 3, modulo unitary isomorphism: one class
    # per rank, in bijection with the 1x1 matrices of entry sum <= 3.
    objects = diagonal_pattern_objects(GROUND, 3)
    classes = picked_classes_partition(GROUND, objects)
    matrices = hom_monoid(F_GROUND, F_GROUND).bounded_elements(3)
    assert len(classes) == len(matrices) == 4
    seen = set()
    for rep, _ in classes:
        f = rank_pick_functor(GROUND, GROUND, rep)
        h = class_of_functor(f)
        assert h in matrices
        seen.add(h)
    assert len(seen) == len(matrices)


def test_oracle_ground_to_two_points():
    objects = diagonal_pattern_objects(TWO_POINTS, 2)
    classes = picked_classes_partition(TWO_POINTS, objects)
    matrices = hom_monoid(F_GROUND, F_TWO).bounded_elements(2)
    assert len(classes) == len(matrices) == 6
    seen = set()
    for rep, _ in classes:
        h = class_of_functor(rank_pick_functor(GROUND, TWO_POINTS, rep))
        seen.add(h)
    assert seen == set(matrices)


def test_oracle_witness_iff_equal_class():
    # The decision "same homotopy class" by classes agrees with the
    # exhaustive intertwiner search on every pair of small objects.
    objects = diagonal_pattern_objects(TWO_POINTS, 2)
    d = decompose(TWO_POINTS)
    for o1 in objects[::3]:
        for o2 in objects[::4]:
            witness = saturation_iso_witness(TWO_POINTS, o1, o2)
            same_class = object_class(d, o1) == object_class(d, o2)
            assert (witness is not None) == same_class


def test_oracle_two_points_to_ground():
    # Functor = independent object picks for the two points; classes
    # biject with 1x2 matrices with entries <= 2.
    objects = diagonal_pattern_objects(GROUND, 2)
    classes = picked_classes_partition(GROUND, objects)
    assert len(classes) == 3  # ranks 0, 1, 2
    reps = [rep for rep, _ in classes]
    functor_classes = set()
    for o1, o2 in itertools.product(reps, repeat=2):
        f = saturation_functor(
            TWO_POINTS,
            GROUND,
            {"x1": o1, "x2": o2},
            {
                ("x1", "x1"): [o1.proj],
                ("x2", "x2"): [o2.proj],
            },
        )
        functor_classes.add(class_of_functor(f))
    expected = {
        ho_morphism(F_TWO, F_GROUND, [[r1, r2]])
        for r1 in range(3)
        for r2 in range(3)
    }
    assert functor_classes == expected


def test_oracle_representatives_cover_matrix_algebra_target():
    # Same census with the target a full matrix algebra: diagonal
    # patterns on words of length <= 2 realize exactly classes 0..4.
    objects = diagonal_pattern_objects(M2, 2)
    classes = picked_classes_partition(M2, objects)
    assert len(classes) == 5
    ranks = sorted(
        class_of_functor(rank_pick_functor(GROUND, M2, rep)).entry(0, 0)
        for rep, _ in classes
    )
    assert ranks == [0, 1, 2, 3, 4]


# --- one class-matrix type ---------------------------------------------


def test_one_class_matrix_type():
    assert HoMorphism is GcMorphism is ClassMatrix
    assert ho_morphism(F_TWO, F_TWO, [[1, 0], [2, 3]]).is_effective()
    assert not ClassMatrix(F_GROUND, F_GROUND, ((-1,),)).is_effective()


def test_ho_inverse_is_the_transpose():
    form = decompose(coproduct_of_grounds(3)).form
    p = ho_morphism(form, form, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    assert ho_inverse(p).mult == ((0, 1, 0), (0, 0, 1), (1, 0, 0))


# --- certificates survive python -O ------------------------------------


CERTIFICATE_SCRIPT = """
from moritacat import homotopy
from moritacat.semisimple import decompose
from moritacat.starcat import matrix_category

m2 = matrix_category(2)
h = homotopy.ho_identity(decompose(m2).form)
homotopy.span_membership = lambda target, basis: None
try:
    homotopy.representative_functor(h, m2, m2)
except homotopy.CertificateError as exc:
    print(exc)
else:
    raise SystemExit("no refusal")
"""


def test_representative_certificate_raises(monkeypatch):
    monkeypatch.setattr(homotopy, "span_membership", lambda target, basis: None)
    with pytest.raises(CertificateError, match="outside matrix-unit span"):
        representative_functor(ho_identity(F_M2), M2, M2)


def test_representative_certificate_survives_python_O():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CERTIFICATE_SCRIPT],
        capture_output=True,
        text=True,
        env={
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "PYTHONPATH": str(Path(moritacat.__file__).resolve().parents[1]),
            "PYTHONDONTWRITEBYTECODE": "1",
        },
    )
    assert proc.returncode == 0, proc.stderr
    assert "hom element outside matrix-unit span" in proc.stdout


@pytest.mark.parametrize(
    "census, message",
    [([], "found 0 invertible matrices"), ([((2,),)], "non-permutation invertible")],
)
def test_picard_census_certificate_raises(monkeypatch, census, message):
    monkeypatch.setattr(homotopy, "enumerate_natural_invertibles", lambda k, bound: census)
    with pytest.raises(CertificateError, match=message):
        aut_group(M2, verify=True)


def test_iso_witness_certificate_raises(monkeypatch):
    # A zero bridge between two rank-one objects is not a unitary.
    monkeypatch.setattr(homotopy, "slot_bridge", lambda *args: ExactMatrix.zeros(2, 1))
    o1 = ProjObject(("x",), ExactMatrix.identity(1))
    o2 = ProjObject(("x", "x"), ExactMatrix.diagonal([0, 1]))
    with pytest.raises(CertificateError, match="not a unitary"):
        saturation_iso_witness(GROUND, o1, o2)
