"""Block decomposition, object classes, minimal projections, matrix
units, and the Morita decision in normal form."""

from fractions import Fraction

import pytest

from moritacat.completion import (
    ProjObject,
    canonical_sum,
    identity_proj_object,
    is_morita_equivalence,
    iota,
    zero_proj_object,
)
from moritacat.scalar import ExactMatrix, kron, matrix
from moritacat.semisimple import (
    NotSplitOverBaseField,
    SemisimpleForm,
    are_morita_equivalent,
    decompose,
    matrix_units,
    minimal_projection,
    object_class,
    rational_as_norm,
    standard_realization,
    witness_functor,
)
from moritacat.starcat import (
    coproduct_of_grounds,
    ground_category,
    is_valid_category,
    matrix_category,
    star_category,
    validate_functor,
    zero_category,
)

E11 = matrix([[1, 0], [0, 0]])
E22 = matrix([[0, 0], [0, 1]])


def diag_category():
    return star_category([("x", 2)], {("x", "x"): [E11, E22]})


# --- decompose ---------------------------------------------------------


def test_full_matrix_algebra_is_one_block():
    d = decompose(matrix_category(2))
    assert d.blocks == ("b1",)
    assert d.object_mult["x"] == (2,)
    assert d.unit_ranks == (1,)
    assert d.centrals[0]["x"] == ExactMatrix.identity(2)


def test_diagonal_matrices_are_two_blocks():
    d = decompose(diag_category())
    assert d.blocks == ("b1", "b2")
    assert d.object_mult["x"] == (1, 1)
    assert d.centrals[0]["x"] == E11
    assert d.centrals[1]["x"] == E22


def test_two_points_are_two_blocks():
    d = decompose(coproduct_of_grounds(2))
    assert len(d.blocks) == 2
    assert d.object_mult["x1"] == (1, 0)
    assert d.object_mult["x2"] == (0, 1)


def test_zero_category_has_no_blocks():
    d = decompose(zero_category())
    assert d.blocks == ()
    assert d.object_mult["z"] == ()


def test_multiplicity_realization_is_still_one_block():
    # End(x) = M2 tensor identity: a 2x2 algebra acting twice.
    basis = []
    for i in range(2):
        for j in range(2):
            e = [[0, 0], [0, 0]]
            e[i][j] = 1
            basis.append(kron(matrix(e), ExactMatrix.identity(2)))
    cat = star_category([("x", 4)], {("x", "x"): basis})
    assert is_valid_category(cat)
    d = decompose(cat)
    assert d.blocks == ("b1",)
    assert d.object_mult["x"] == (2,)
    assert d.unit_ranks == (2,)


def test_hermitian_sqrt2_does_not_split():
    s = matrix([[1, 1], [1, -1]])
    cat = star_category(
        [("x", 2)], {("x", "x"): [ExactMatrix.identity(2), s]}
    )
    assert is_valid_category(cat)
    with pytest.raises(NotSplitOverBaseField) as exc:
        decompose(cat)
    assert exc.value.polynomial == "t^2 - 2"
    assert exc.value.coefficients == (Fraction(-2), Fraction(0), Fraction(1))


def test_decomposition_of_a_two_object_category():
    # y sees only the first block of the diagonal pair.
    cat = star_category(
        [("x", 2), ("y", 1)],
        {
            ("x", "x"): [E11, E22],
            ("y", "y"): [ExactMatrix.identity(1)],
            ("x", "y"): [matrix([[1, 0]])],
            ("y", "x"): [matrix([[1], [0]])],
        },
    )
    assert is_valid_category(cat)
    d = decompose(cat)
    assert len(d.blocks) == 2
    assert d.object_mult["x"] == (1, 1)
    assert d.object_mult["y"] == (1, 0)


def test_form_roundtrip_through_standard_realization():
    form = SemisimpleForm(
        ("b1", "b2"), (("x", (1, 1)), ("y", (0, 2)))
    )
    cat = standard_realization(form)
    assert is_valid_category(cat)
    assert decompose(cat).form == form


def test_phantom_blocks_are_rejected():
    with pytest.raises(ValueError):
        SemisimpleForm(("b1", "b2"), (("x", (1, 0)),))


# --- object classes ----------------------------------------------------


def test_class_of_identity_objects_matches_the_stored_class():
    cat = diag_category()
    d = decompose(cat)
    assert object_class(d, "x") == (1, 1)
    assert object_class(d, identity_proj_object(cat, "x")) == (1, 1)
    assert object_class(d, zero_proj_object()) == (0, 0)


def test_class_is_additive_on_canonical_sums():
    cat = diag_category()
    d = decompose(cat)
    a = ProjObject(("x",), E11)
    b = ProjObject(("x",), E22)
    assert object_class(d, a) == (1, 0)
    assert object_class(d, b) == (0, 1)
    total, _ = canonical_sum(cat, [a, b])
    assert object_class(d, total) == (1, 1)
    doubled, _ = canonical_sum(cat, [total, total])
    assert object_class(d, doubled) == (2, 2)


def test_class_divides_out_the_realization_multiplicity():
    basis = []
    for i in range(2):
        for j in range(2):
            e = [[0, 0], [0, 0]]
            e[i][j] = 1
            basis.append(kron(matrix(e), ExactMatrix.identity(2)))
    cat = star_category([("x", 4)], {("x", "x"): basis})
    d = decompose(cat)
    # The identity has ambient rank 4 but class 2: rank of the block
    # unit on a single copy is 2.
    assert object_class(d, identity_proj_object(cat, "x")) == (2,)
    p = kron(E11, ExactMatrix.identity(2))
    assert object_class(d, ProjObject(("x",), p)) == (1,)


# --- minimal projections and matrix units ------------------------------


def test_minimal_projection_in_the_ground_category():
    cat = ground_category()
    d = decompose(cat)
    assert minimal_projection(d, 0) == identity_proj_object(cat, "x")


def test_minimal_projection_in_a_matrix_algebra():
    cat = matrix_category(2)
    d = decompose(cat)
    p = minimal_projection(d, 0)
    assert p.word == ("x",)
    assert p.proj == E11
    assert object_class(d, p) == (1,)


def test_minimal_projection_in_two_points():
    cat = coproduct_of_grounds(2)
    d = decompose(cat)
    assert minimal_projection(d, 1) == identity_proj_object(cat, "x2")


def test_minimal_projection_under_multiplicity():
    basis = []
    for i in range(2):
        for j in range(2):
            e = [[0, 0], [0, 0]]
            e[i][j] = 1
            basis.append(kron(matrix(e), ExactMatrix.identity(2)))
    cat = star_category([("x", 4)], {("x", "x"): basis})
    d = decompose(cat)
    p = minimal_projection(d, 0)
    assert object_class(d, p) == (1,)
    assert p.proj.rank() == 2  # ambient rank = the block unit rank


def test_matrix_units_of_a_matrix_algebra():
    cat = matrix_category(3)
    d = decompose(cat)
    mu = matrix_units(d, 0)
    assert len(mu.slots) == 3
    total = ExactMatrix.zeros(3, 3)
    for f in mu.diagonal:
        assert f.is_projection()
        total = total + f
    assert total == ExactMatrix.identity(3)
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for e in range(3):
                    prod = mu.unit(a, b) @ mu.unit(c, e)
                    if b == c:
                        assert prod == mu.unit(a, e)
                    else:
                        assert prod.is_zero()


def test_matrix_units_span_the_cross_homs():
    cat = star_category(
        [("x", 1), ("y", 1)],
        {
            ("x", "x"): [matrix([[1]])],
            ("y", "y"): [matrix([[1]])],
            ("x", "y"): [matrix([[1]])],
            ("y", "x"): [matrix([[1]])],
        },
    )
    d = decompose(cat)
    assert len(d.blocks) == 1
    mu = matrix_units(d, 0)
    assert mu.slots == (("x", 0), ("y", 0))
    u = mu.unit(1, 0)  # hom(x, y)
    assert u == matrix([[1]])


# --- norms -------------------------------------------------------------


def test_rational_norm_solver():
    five = rational_as_norm(Fraction(5))
    assert five is not None and five.norm() == 5
    one = rational_as_norm(Fraction(1))
    assert one is not None and one.norm() == 1
    half = rational_as_norm(Fraction(1, 2))
    assert half is not None and half.norm() == Fraction(1, 2)
    assert rational_as_norm(Fraction(9, 14)) is None  # 7 divides once
    assert rational_as_norm(Fraction(3)) is None
    assert rational_as_norm(Fraction(-1)) is None
    forty_nine = rational_as_norm(Fraction(49, 25))
    assert forty_nine is not None and forty_nine.norm() == Fraction(49, 25)


# --- the Morita decision -----------------------------------------------


def test_matrix_algebras_of_different_sizes_are_equivalent():
    a, b = matrix_category(2), matrix_category(3, name="y")
    same, wit = are_morita_equivalent(a, b)
    assert same and wit is not None
    assert validate_functor(wit) == []
    cert = is_morita_equivalence(wit)
    assert cert.ok, str(cert)


def test_ground_and_matrix_algebra_are_equivalent():
    same, wit = are_morita_equivalent(ground_category(), matrix_category(2))
    assert same and wit is not None
    assert is_morita_equivalence(wit).ok
    # The witness sends the point to a minimal projection.
    img = wit.apply_object("x")
    assert img.proj.rank() == 1


def test_block_counts_decide_equivalence():
    same, wit = are_morita_equivalent(diag_category(), matrix_category(2))
    assert not same and wit is None
    same2, _ = are_morita_equivalent(diag_category(), coproduct_of_grounds(2))
    assert same2


def test_witness_for_categories_with_several_objects():
    a = star_category(
        [("x", 2), ("y", 1)],
        {
            ("x", "x"): [E11, E22],
            ("y", "y"): [ExactMatrix.identity(1)],
            ("x", "y"): [matrix([[1, 0]])],
            ("y", "x"): [matrix([[1], [0]])],
        },
    )
    b = coproduct_of_grounds(2)
    same, wit = are_morita_equivalent(a, b)
    assert same and wit is not None
    assert validate_functor(wit) == []
    assert is_morita_equivalence(wit).ok
    # x meets both blocks, so its image is a genuine two-letter sum.
    assert wit.apply_object("x").word == ("x1", "x2")


def test_iota_is_always_a_morita_equivalence():
    for cat in (matrix_category(2), diag_category(), coproduct_of_grounds(3)):
        assert is_morita_equivalence(iota(cat)).ok


def test_unital_embedding_is_not_a_morita_equivalence():
    from moritacat.starcat import star_functor

    f = star_functor(
        ground_category(),
        matrix_category(2),
        {"x": "x"},
        {("x", "x"): [ExactMatrix.identity(2)]},
    )
    cert = is_morita_equivalence(f)
    assert not cert.ok
    assert cert.non_bijective_pairs == (("x", "x"),)


def test_missed_block_is_reported():
    from moritacat.completion import saturation_functor

    target = diag_category()
    f = saturation_functor(
        ground_category(),
        target,
        {"x": ProjObject(("x",), E11)},
        {("x", "x"): [E11]},
    )
    cert = is_morita_equivalence(f)
    assert not cert.ok
    assert cert.unreached_blocks == ("b2",)


def test_witness_functor_matches_blocks_in_order():
    a = diag_category()
    b = coproduct_of_grounds(2)
    wit = witness_functor(a, b)
    da, db = decompose(a), decompose(b)
    img = wit.apply_object("x")
    assert object_class(db, img) == object_class(da, "x")
