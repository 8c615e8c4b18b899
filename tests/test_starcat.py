"""Tests for concrete *-categories and *-functors."""

import random

import pytest

from moritacat.scalar import ExactMatrix, ShapeError, matrix
from moritacat.starcat import (
    ConcreteStarCategory,
    ObjectDecl,
    Violation,
    compose_functors,
    coproduct_of_grounds,
    disjoint_union,
    ground_category,
    hom_component_bijective,
    identity_functor,
    is_cofibration,
    is_fully_faithful,
    is_trivial_fibration,
    is_valid_category,
    is_valid_functor,
    matrix_category,
    star_category,
    star_functor,
    validate_category,
    validate_functor,
    zero_category,
)


class TestValidation:
    def test_ground_is_valid(self):
        assert is_valid_category(ground_category())

    def test_full_matrix_category_is_valid(self):
        assert is_valid_category(matrix_category(3))

    def test_zero_category_is_valid(self):
        assert is_valid_category(zero_category())

    def test_upper_triangular_fails_adjoint_closure(self):
        nil = matrix([[0, 1], [0, 0]])
        cat = star_category(
            [("x", 2)],
            {("x", "x"): [ExactMatrix.identity(2), nil]},
        )
        report = validate_category(cat)
        assert any(v.kind == "adjoint" for v in report)

    def test_missing_identity_detected(self):
        cat = star_category(
            [("x", 2)],
            {("x", "x"): [matrix([[1, 0], [0, 0]])]},
        )
        report = validate_category(cat)
        assert any(v.kind == "unit-membership" for v in report)

    def test_dependent_raw_basis_detected(self):
        e = ExactMatrix.identity(1)
        cat = ConcreteStarCategory(
            (ObjectDecl("x", 1, e),),
            ((("x", "x"), (e, e.scale(matrix([[2]]).entry(0, 0)))),),
        )
        report = validate_category(cat)
        assert any(v.kind == "independence" for v in report)

    def test_composition_closure_detected(self):
        # span{1, e12 + e21} on a 2-dim object: self-adjoint, has the
        # unit, but squares escape.
        s = matrix([[0, 1], [1, 0]])
        cat = star_category(
            [("x", 2)],
            {("x", "x"): [ExactMatrix.identity(2), s]},
        )
        # (e12+e21)^2 = identity, so that one closes; a diagonal with
        # three distinct eigenvalues does not.
        t = matrix([[0, 0, 0], [0, 1, 0], [0, 0, 2]])
        cat2 = star_category(
            [("x", 3)], {("x", "x"): [ExactMatrix.identity(3), t]}
        )
        assert is_valid_category(cat)
        report = validate_category(cat2)
        assert any(v.kind == "composition" for v in report)

    def test_closure_of_generating_set_validates(self):
        rng = random.Random(7)
        for _ in range(5):
            n = rng.randint(1, 3)
            gens = [
                ExactMatrix.from_rows(
                    [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
                )
                for _ in range(2)
            ]
            cat = _close_one_object_category(n, gens)
            assert is_valid_category(cat)

    def test_unit_bearing_object(self):
        # One object on an ambient 2-dim space whose unit is a rank-1
        # projection; its endomorphism space is the compressed corner.
        p = matrix([[1, 0], [0, 0]])
        cat = star_category([("x", 2, p)], {("x", "x"): [p]})
        assert is_valid_category(cat)
        bad = star_category(
            [("x", 2, p)], {("x", "x"): [ExactMatrix.identity(2)]}
        )
        assert any(v.kind == "unit-action" for v in validate_category(bad))


def _close_one_object_category(n, generators):
    """Close a generating set under products and adjoints, then add the
    identity; used to manufacture valid categories."""
    from moritacat.scalar import MatrixSpan

    mats = [ExactMatrix.identity(n)] + list(generators)
    while True:
        span = MatrixSpan(n, n, mats)
        new = list(span.matrices)
        grew = False
        candidates = [m.adjoint() for m in new] + [
            a @ b for a in new for b in new
        ]
        for c in candidates:
            if not span.contains(c):
                mats = list(span.matrices) + [c]
                grew = True
                break
        if not grew:
            return star_category([("x", n)], {("x", "x"): span.matrices})


class TestCanonicalForm:
    def test_hom_bases_are_echelonized(self):
        a = matrix([[2, 0], [0, 0]])
        b = matrix([[0, 0], [0, 3]])
        cat = star_category([("x", 2)], {("x", "x"): [a + b, a, b]})
        basis = cat.hom_basis("x", "x")
        assert len(basis) == 2
        assert basis[0] == matrix([[1, 0], [0, 0]])
        assert basis[1] == matrix([[0, 0], [0, 1]])

    def test_zero_spans_dropped(self):
        cat = star_category(
            [("x", 1), ("y", 1)],
            {
                ("x", "x"): [ExactMatrix.identity(1)],
                ("y", "y"): [ExactMatrix.identity(1)],
                ("x", "y"): [ExactMatrix.zeros(1, 1)],
            },
        )
        assert cat.hom_basis("x", "y") == ()


class TestFunctors:
    def test_unital_embedding_is_valid(self):
        f2 = ground_category()
        m2 = matrix_category(2)
        f = star_functor(
            f2, m2, {"x": "x"}, {("x", "x"): [ExactMatrix.identity(2)]}
        )
        assert is_valid_functor(f)
        assert not is_fully_faithful(f)
        assert is_cofibration(f)
        assert not is_trivial_fibration(f)

    def test_non_unital_rejected(self):
        f2 = ground_category()
        m2 = matrix_category(2)
        f = star_functor(
            f2, m2, {"x": "x"}, {("x", "x"): [matrix([[1, 0], [0, 0]])]}
        )
        assert any("unit" in p for p in validate_functor(f))

    def test_identity_functor(self):
        cat = matrix_category(2)
        f = identity_functor(cat)
        assert is_valid_functor(f)
        assert is_fully_faithful(f)
        assert is_trivial_fibration(f)
        assert is_cofibration(f)

    def test_compose(self):
        a = ground_category()
        b = coproduct_of_grounds(2)
        inc = star_functor(
            a, b, {"x": "x1"}, {("x", "x"): [ExactMatrix.identity(1)]}
        )
        swap = star_functor(
            b,
            b,
            {"x1": "x2", "x2": "x1"},
            {
                ("x1", "x1"): [ExactMatrix.identity(1)],
                ("x2", "x2"): [ExactMatrix.identity(1)],
            },
        )
        g = compose_functors(swap, inc)
        assert g.apply_object("x") == "x2"
        assert is_valid_functor(g)

    def test_fully_faithful_iff_injective_plus_dims(self):
        # A doubling functor M2 -> M4 is injective on homs but not full.
        m2 = matrix_category(2)
        m4 = matrix_category(4, name="y")
        from moritacat.scalar import block_diag

        f = star_functor(
            m2,
            m4,
            {"x": "y"},
            {("x", "x"): [block_diag([b, b]) for b in m2.hom_basis("x", "x")]},
        )
        assert is_valid_functor(f)
        images_independent = True  # doubling is injective
        assert images_independent and not is_fully_faithful(f)
        assert not hom_component_bijective(f, "x", "x")

    def test_trivial_fibration_example(self):
        # Collapse a two-copy category onto one copy: hom components are
        # bijections and objects are surjective.
        b = ground_category()
        two = star_category(
            [("x", 1), ("x'", 1)],
            {
                ("x", "x"): [ExactMatrix.identity(1)],
                ("x'", "x'"): [ExactMatrix.identity(1)],
                ("x", "x'"): [ExactMatrix.identity(1)],
                ("x'", "x"): [ExactMatrix.identity(1)],
            },
        )
        collapse = star_functor(
            two,
            b,
            {"x": "x", "x'": "x"},
            {
                ("x", "x"): [ExactMatrix.identity(1)],
                ("x'", "x'"): [ExactMatrix.identity(1)],
                ("x", "x'"): [ExactMatrix.identity(1)],
                ("x'", "x"): [ExactMatrix.identity(1)],
            },
        )
        assert is_valid_functor(collapse)
        assert is_trivial_fibration(collapse)
        assert not is_cofibration(collapse)

    def test_apply_reads_coordinates_off_the_canonical_basis(self):
        from moritacat.scalar import block_diag

        m2 = matrix_category(2)
        double = star_functor(
            m2,
            matrix_category(4, name="y"),
            {"x": "y"},
            {("x", "x"): [block_diag([b, b]) for b in m2.hom_basis("x", "x")]},
        )
        rng = random.Random(3)
        for _ in range(5):
            m = matrix([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
            assert double.apply("x", "x", m) == block_diag([m, m])
        with pytest.raises(ShapeError):
            double.apply("x", "x", matrix([[1]]))

    def test_apply_refuses_a_non_member(self):
        pair = coproduct_of_grounds(2)
        with pytest.raises(ValueError, match="not in the source hom span"):
            identity_functor(pair).apply("x1", "x2", matrix([[1]]))
        diagonal = star_category(
            [("x", 2)], {("x", "x"): [matrix([[1, 0], [0, 0]]), matrix([[0, 0], [0, 1]])]}
        )
        identity = identity_functor(diagonal)
        assert identity.apply("x", "x", matrix([[5, 0], [0, 7]])) == matrix([[5, 0], [0, 7]])
        with pytest.raises(ValueError, match="not in the source hom span"):
            identity.apply("x", "x", matrix([[0, 1], [0, 0]]))


class TestDisjointUnion:
    def test_basic(self):
        u = disjoint_union(ground_category(), matrix_category(2, name="y"))
        assert set(u.object_names()) == {"x", "y"}
        assert u.hom_basis("x", "y") == ()
        assert is_valid_category(u)

    def test_name_clash_renames(self):
        u = disjoint_union(ground_category(), ground_category())
        assert set(u.object_names()) == {"l.x", "r.x"}
