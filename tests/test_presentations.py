"""Presentations: universal quivers, relation checking, comparison
maps, pushouts, lifting, and the fibrancy probe."""

from fractions import Fraction

import pytest

from moritacat.completion import (
    LazySaturation,
    ProjObject,
    canonical_sum,
    identity_proj_object,
    materialize_full_subcategory,
)
from moritacat.completion import is_morita_equivalence
from moritacat.presentations import (
    Arrow,
    LiftSquare,
    Relation,
    SumSquare,
    adj,
    assignment,
    build_universal,
    check_representation,
    comp,
    compose_generating_maps,
    evaluate_term,
    fibrancy_probe,
    gen,
    generating_map,
    idm,
    interval_mediator,
    presentation,
    pull_assignment,
    pushout_interval,
    pushout_rn,
    rlp_lift,
    rn_pushout_mediator,
    scalar_mul,
    sum_lift,
    term_sum,
    term_to_str,
    zero_term,
)
from moritacat.scalar import (
    ExactMatrix,
    GaussianRational,
    ShapeError,
)
from moritacat.semisimple import NotSplitOverBaseField
from moritacat.starcat import (
    ConcreteStarCategory,
    ObjectDecl,
    compose_functors,
    coproduct_of_grounds,
    disjoint_union,
    ground_category,
    identity_functor,
    is_fully_faithful,
    is_trivial_fibration,
    matrix_category,
    star_category,
    star_functor,
    validate_category,
    validate_functor,
    zero_category,
)


def q(re, im=0):
    return GaussianRational.of(Fraction(re), Fraction(im))


def mat(rows):
    return ExactMatrix.from_rows([[q(*e) if isinstance(e, tuple) else q(e) for e in r] for r in rows])


# ---------------------------------------------------------------------------
# universal presentations


def test_free_points_presentation():
    f3 = build_universal("F", 3)
    assert f3.vertices == ("o1", "o2", "o3")
    assert f3.arrows == () and f3.relations == ()
    f0 = build_universal("F", 0)
    assert f0.vertices == ()


def test_sum_presentation():
    s2 = build_universal("S", 2)
    assert s2.vertices == ("o1", "o2", "s(2)")
    assert {a.name for a in s2.arrows} == {"v1", "v2"}
    assert s2.arrow("v1").src == "o1" and s2.arrow("v1").tgt == "s(2)"
    assert len(s2.relations) == 1 + 4


def test_projection_matrix_presentation():
    p1 = build_universal("P", 1)
    assert p1.vertices == ("o1",)
    assert [a.name for a in p1.arrows] == ["p1_1"]
    assert len(p1.relations) == 2
    p3 = build_universal("P", 3)
    assert len(p3.arrows) == 9 and len(p3.relations) == 18
    assert p3.arrow("p2_3").src == "o3" and p3.arrow("p2_3").tgt == "o2"


def test_range_presentation():
    r1 = build_universal("R", 1)
    assert r1.vertices == ("o1", "r(1)")
    assert len(r1.relations) == 1
    r0 = build_universal("R", 0)
    assert r0.vertices == ("r(0)",) and r0.arrows == ()
    assert len(r0.relations) == 1
    zero = build_universal("0")
    assert zero.vertices == ("r(0)",)


def test_combined_presentations():
    sp2 = build_universal("SP", 2)
    assert {a.name for a in sp2.arrows} == {"v1", "v2", "p"}
    assert len(sp2.relations) == 5 + 2
    sr2 = build_universal("SR", 2)
    assert sr2.vertices == ("o1", "o2", "s(2)", "r(2)")
    assert {a.name for a in sr2.arrows} == {"v1", "v2", "v"}
    assert len(sr2.relations) == 5 + 1
    interval = build_universal("I")
    assert interval.vertices == ("0", "1")
    assert len(interval.relations) == 2


def test_invalid_universal_parameters():
    with pytest.raises(ValueError):
        build_universal("S", 0)
    with pytest.raises(ValueError):
        build_universal("P", 0)
    with pytest.raises(ValueError):
        build_universal("R", -1)
    with pytest.raises(ValueError):
        build_universal("Q", 2)
    with pytest.raises(ValueError):
        build_universal("I", 3)


def test_presentation_type_checking():
    a = Arrow("f", "x", "y")
    with pytest.raises(ValueError):
        presentation(
            "bad",
            ("x", "y"),
            (a,),
            (Relation("r", comp(gen("f"), gen("f")), idm("x")),),
        )
    with pytest.raises(ValueError):
        presentation("bad", ("x", "y"), (a,), (Relation("r", gen("f"), idm("x")),))
    with pytest.raises(ValueError):
        presentation("dup", ("x", "x"), (), ())
    ok = presentation(
        "ok",
        ("x", "y"),
        (a,),
        (Relation("iso", comp(adj(gen("f")), gen("f")), idm("x")),),
    )
    assert ok.arrow("f").tgt == "y"


def test_term_printer():
    t = term_sum(comp(adj(gen("f")), gen("g")), scalar_mul(q(1, 1), idm("x")))
    s = term_to_str(t)
    assert "(f)*" in s and "g" in s and "1_x" in s
    assert term_to_str(zero_term("x", "y")) == "0"


# ---------------------------------------------------------------------------
# relation checking against concrete categories


def test_projection_representation_accepted():
    m2 = matrix_category(2)
    asg = assignment(m2, {"o1": "x"}, {"p1_1": mat([[1, 0], [0, 0]])})
    report = check_representation(build_universal("P", 1), asg)
    assert report.ok and bool(report)


def test_projection_representation_rejected():
    m2 = matrix_category(2)
    asg = assignment(m2, {"o1": "x"}, {"p1_1": mat([[1, 1], [0, 0]])})
    report = check_representation(build_universal("P", 1), asg)
    assert not report.ok
    assert "self-adjoint" in report.failure


def test_shape_mismatch_raises():
    m2 = matrix_category(2)
    asg = assignment(m2, {"o1": "x"}, {"p1_1": mat([[1, 0]])})
    with pytest.raises(ShapeError):
        check_representation(build_universal("P", 1), asg)


def test_image_outside_hom_span_reported():
    diag = star_category(
        [("x", 2)],
        {("x", "x"): [mat([[1, 0], [0, 0]]), mat([[0, 0], [0, 1]])]},
    )
    asg = assignment(diag, {"o1": "x"}, {"p1_1": mat([[0, 1], [0, 0]])})
    report = check_representation(build_universal("P", 1), asg)
    assert not report.ok and "outside" in report.failure


def test_scalar_term_evaluation():
    m2 = matrix_category(2)
    pres = presentation("t", ("x",), (Arrow("f", "x", "x"),), ())
    asg = assignment(m2, {"x": "x"}, {"f": mat([[0, 1], [0, 0]])})
    v = evaluate_term(pres, asg, scalar_mul(q(0, 2), gen("f")))
    assert v == mat([[0, (0, 2)], [0, 0]])
    z = evaluate_term(pres, asg, zero_term("x", "x"))
    assert z.is_zero() and z.rows == 2


# ---------------------------------------------------------------------------
# relation checking against the saturation


def _sum_of_two_points():
    base = ground_category()
    sat = LazySaturation(base)
    x = identity_proj_object(base, "x")
    total, (v1, v2) = canonical_sum(base, [x, x])
    return base, sat, x, total, v1, v2


def test_sum_representation_in_saturation():
    base, sat, x, total, v1, v2 = _sum_of_two_points()
    asg = assignment(
        sat,
        {"o1": x, "o2": x, "s(2)": total},
        {"v1": v1, "v2": v2},
    )
    report = check_representation(build_universal("S", 2), asg)
    assert report.ok


def test_sum_representation_rejects_non_isometry():
    base, sat, x, total, v1, v2 = _sum_of_two_points()
    asg = assignment(
        sat,
        {"o1": x, "o2": x, "s(2)": total},
        {"v1": v1, "v2": v1},
    )
    report = check_representation(build_universal("S", 2), asg)
    assert not report.ok
    assert report.failure.startswith("sum")


def test_range_representation_in_saturation():
    base, sat, x, total, v1, v2 = _sum_of_two_points()
    half = Fraction(1, 2)
    p = mat([[half, half], [half, half]])
    rng = ProjObject(total.word, p)
    s1 = p @ v1
    s2 = p @ v2
    asg = assignment(
        sat,
        {"o1": x, "o2": x, "r(2)": rng},
        {"s1": s1, "s2": s2},
    )
    assert check_representation(build_universal("R", 2), asg).ok


# ---------------------------------------------------------------------------
# comparison maps


def _sr_representation(n):
    """A representation of SR(n) on the n-fold sum of the ground point,
    with the retract cut out by the first coordinate."""
    base = ground_category()
    sat = LazySaturation(base)
    x = identity_proj_object(base, "x")
    total, isos = canonical_sum(base, [x] * n)
    e11 = ExactMatrix.zeros(n, n)
    ents = list(e11.entries)
    ents[0] = q(1)
    e11 = ExactMatrix(n, n, tuple(ents))
    rng = ProjObject(total.word, e11)
    objects = {f"o{i}": x for i in range(1, n + 1)}
    objects[f"s({n})"] = total
    objects[f"r({n})"] = rng
    arrows = {f"v{i}": isos[i - 1] for i in range(1, n + 1)}
    arrows["v"] = e11
    return sat, assignment(sat, objects, arrows)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_comparison_diagram_commutes(n):
    sat, sr_asg = _sr_representation(n)
    assert check_representation(build_universal("SR", n), sr_asg).ok

    sp_asg = pull_assignment(generating_map("SP_to_SR", n), sr_asg)
    assert check_representation(build_universal("SP", n), sp_asg).ok
    s_asg = pull_assignment(generating_map("S_to_SP", n), sp_asg)
    assert check_representation(build_universal("S", n), s_asg).ok
    r_asg = pull_assignment(generating_map("R_to_SR", n), sr_asg)
    assert check_representation(build_universal("R", n), r_asg).ok

    via_sp = compose_generating_maps(
        generating_map("SP_to_SR", n), generating_map("P_to_SP", n)
    )
    via_r = compose_generating_maps(
        generating_map("R_to_SR", n), generating_map("R_n", n)
    )
    p1 = pull_assignment(via_sp, sr_asg)
    p2 = pull_assignment(via_r, sr_asg)
    assert check_representation(build_universal("P", n), p1).ok
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assert p1.matrix_of(f"p{i}_{j}") == p2.matrix_of(f"p{i}_{j}")

    f_asg = pull_assignment(generating_map("F_to_P", n), p1)
    assert check_representation(build_universal("F", n), f_asg).ok
    sn_asg = pull_assignment(generating_map("S_n", n), s_asg)
    assert check_representation(build_universal("F", n), sn_asg).ok


def test_generating_map_composition_guard():
    with pytest.raises(ValueError):
        compose_generating_maps(generating_map("R_n", 2), generating_map("S_n", 2))
    with pytest.raises(ValueError):
        generating_map("nope", 1)


def test_zero_corner_generating_map():
    r0 = generating_map("R_n", 0)
    assert r0.source.vertices == ()
    assert r0.target.vertices == ("r(0)",)


# ---------------------------------------------------------------------------
# pushout along the interval


def test_interval_pushout_of_ground():
    g = ground_category()
    po = pushout_interval(g, "x")
    assert po.x1 == "x'"
    assert set(po.category.object_names()) == {"x", "x'"}
    assert validate_category(po.category) == []
    for a in ("x", "x'"):
        for b in ("x", "x'"):
            assert po.category.hom_dim(a, b) == 1
    assert validate_functor(po.inclusion) == []
    assert is_fully_faithful(po.inclusion)
    u = po.u
    assert u.adjoint() @ u == g.unit("x")
    assert u @ u.adjoint() == po.category.unit("x'")


def test_interval_pushout_matches_source_hom_dimensions():
    m2 = matrix_category(2)
    po = pushout_interval(m2, "x")
    assert po.category.hom_dim("x", "x'") == 4
    assert po.category.hom_dim("x'", "x") == 4
    assert po.category.hom_dim("x'", "x'") == 4
    assert validate_category(po.category) == []
    assert is_fully_faithful(po.inclusion)


def test_interval_pushout_twice_gives_fresh_names():
    g = ground_category()
    once = pushout_interval(g, "x")
    twice = pushout_interval(once.category, "x")
    assert twice.x1 == "x''"
    assert set(twice.category.object_names()) == {"x", "x'", "x''"}
    assert validate_category(twice.category) == []


def test_interval_mediator_identity_cocone():
    g = ground_category()
    po = pushout_interval(g, "x")
    t = interval_mediator(po, po.inclusion, po.x1, po.u)
    assert t == identity_functor(po.category)


def test_interval_mediator_collapse_is_trivial_fibration():
    g = ground_category()
    po = pushout_interval(g, "x")
    t = interval_mediator(po, identity_functor(g), "x", ExactMatrix.identity(1))
    assert validate_functor(t) == []
    assert t.apply_object("x'") == "x"
    assert is_trivial_fibration(t)


def test_interval_mediator_rejects_non_unitary():
    g = ground_category()
    po = pushout_interval(g, "x")
    with pytest.raises(ValueError):
        interval_mediator(po, identity_functor(g), "x", mat([[(0, 0)]]))


# ---------------------------------------------------------------------------
# pushout along a projection matrix


def test_pushouts_refuse_non_canonical_hom_bases():
    # The mediators reuse a cocone's stored images on the original
    # pairs, so the pushout must keep the original bases there.
    raw = ConcreteStarCategory(
        (ObjectDecl("x", 1, ExactMatrix.identity(1)),), ((("x", "x"), (mat([[2]]),)),)
    )
    with pytest.raises(ValueError, match="not in canonical form"):
        pushout_interval(raw, "x")
    g = assignment(raw, {"o1": "x"}, {"p1_1": mat([[1]])})
    with pytest.raises(ValueError, match="not in canonical form"):
        pushout_rn(raw, g)


def _m2_with_rank_one_range():
    m2 = matrix_category(2)
    g = assignment(m2, {"o1": "x"}, {"p1_1": mat([[1, 0], [0, 0]])})
    return m2, pushout_rn(m2, g)


def test_rn_pushout_adjoins_rank_one_range():
    m2, po = _m2_with_rank_one_range()
    assert po.r_name == "r(1)"
    cat = po.category
    assert set(cat.object_names()) == {"x", "r(1)"}
    assert validate_category(cat) == []
    assert cat.hom_dim("r(1)", "r(1)") == 1
    assert cat.hom_dim("x", "r(1)") == 2
    assert cat.hom_dim("r(1)", "x") == 2
    assert cat.unit("r(1)") == mat([[1, 0], [0, 0]])
    assert validate_functor(po.inclusion) == []
    assert is_fully_faithful(po.inclusion)
    assert is_morita_equivalence(po.inclusion).ok
    assert check_representation(build_universal("R", 1), po.bottom).ok
    assert po.bottom.matrix_of("s1") == mat([[1, 0], [0, 0]])


def test_rn_pushout_bottom_restricts_to_top():
    m2, po = _m2_with_rank_one_range()
    pulled = pull_assignment(generating_map("R_n", po.n), po.bottom)
    assert pulled.matrix_of("p1_1") == po.g.matrix_of("p1_1")
    assert pulled.object_of("o1") == "x"


def test_rn_pushout_degenerate_identity_projection():
    m2 = matrix_category(2)
    g = assignment(m2, {"o1": "x"}, {"p1_1": ExactMatrix.identity(2)})
    po = pushout_rn(m2, g)
    assert po.category.hom_dim(po.r_name, po.r_name) == 4
    assert is_morita_equivalence(po.inclusion).ok
    assert check_representation(build_universal("R", 1), po.bottom).ok


def test_rn_pushout_two_points():
    pts = coproduct_of_grounds(2)
    g = assignment(
        pts,
        {"o1": "x1", "o2": "x2"},
        {
            "p1_1": mat([[1]]),
            "p1_2": mat([[0]]),
            "p2_1": mat([[0]]),
            "p2_2": mat([[0]]),
        },
    )
    po = pushout_rn(pts, g)
    cat = po.category
    assert cat.hom_dim(po.r_name, po.r_name) == 1
    assert cat.hom_dim("x2", po.r_name) == 0
    assert cat.hom_dim("x1", po.r_name) == 1
    assert is_morita_equivalence(po.inclusion).ok
    assert check_representation(build_universal("R", 2), po.bottom).ok


def test_rn_pushout_zero_case_adds_zero_object():
    m2 = matrix_category(2)
    g = assignment(m2, {}, {})
    po = pushout_rn(m2, g)
    assert po.n == 0
    assert po.category.dim(po.r_name) == 0
    assert validate_category(po.category) == []
    assert is_morita_equivalence(po.inclusion).ok
    assert check_representation(build_universal("R", 0), po.bottom).ok


def test_rn_pushout_rejects_non_projection():
    m2 = matrix_category(2)
    g = assignment(m2, {"o1": "x"}, {"p1_1": mat([[1, 1], [0, 0]])})
    with pytest.raises(ValueError):
        pushout_rn(m2, g)


def test_rn_mediator_identity_cocone():
    m2, po = _m2_with_rank_one_range()
    t = rn_pushout_mediator(po, po.inclusion, po.bottom)
    assert t == identity_functor(po.category)


def test_rn_mediator_nontrivial_cocone():
    pts = coproduct_of_grounds(2)
    g = assignment(
        pts,
        {"o1": "x1", "o2": "x2"},
        {
            "p1_1": mat([[1]]),
            "p1_2": mat([[0]]),
            "p2_1": mat([[0]]),
            "p2_2": mat([[0]]),
        },
    )
    po = pushout_rn(pts, g)
    t1 = assignment(
        pts,
        {"o1": "x1", "o2": "x2", "r(2)": "x1"},
        {"s1": mat([[1]]), "s2": ExactMatrix.zeros(1, 1)},
    )
    t = rn_pushout_mediator(po, identity_functor(pts), t1)
    assert validate_functor(t) == []
    assert t.apply_object(po.r_name) == "x1"
    assert compose_functors(t, po.inclusion) == identity_functor(pts)
    for i in (1, 2):
        src = po.bottom.object_of(f"o{i}")
        got = t.apply(src, po.r_name, po.bottom.matrix_of(f"s{i}"))
        assert got == t1.matrix_of(f"s{i}")


def test_rn_mediator_rejects_non_commuting_cocone():
    m2, po = _m2_with_rank_one_range()
    bad = assignment(
        m2,
        {"o1": "x", "r(1)": "x"},
        {"s1": ExactMatrix.identity(2)},
    )
    with pytest.raises(ValueError, match=r"cocone does not commute on the matrix entry \(1,1\)"):
        rn_pushout_mediator(po, identity_functor(m2), bad)


def test_rn_mediator_rejects_a_cocone_moving_an_object():
    pts = coproduct_of_grounds(2)
    zero = ExactMatrix.zeros(1, 1)
    g = assignment(
        pts,
        {"o1": "x1", "o2": "x2"},
        {"p1_1": mat([[1]]), "p1_2": zero, "p2_1": zero, "p2_2": zero},
    )
    t1 = assignment(
        pts, {"o1": "x1", "o2": "x1", "r(2)": "x1"}, {"s1": mat([[1]]), "s2": zero}
    )
    with pytest.raises(ValueError, match="cocone does not commute on object o2"):
        rn_pushout_mediator(pushout_rn(pts, g), identity_functor(pts), t1)


# ---------------------------------------------------------------------------
# lifting


def test_rlp_lift_through_identity():
    m2, po = _m2_with_rank_one_range()
    cat = po.category
    g = assignment(cat, {"o1": "x"}, {"p1_1": mat([[1, 0], [0, 0]])})
    square = LiftSquare(1, g, po.bottom)
    lift = rlp_lift(identity_functor(cat), square)
    assert lift is not None
    assert lift.object_of("r(1)") == "r(1)"
    assert lift.matrix_of("s1") == po.bottom.matrix_of("s1")


def test_rlp_lift_tautological_square_has_no_lift():
    m2, po = _m2_with_rank_one_range()
    square = LiftSquare(1, po.g, po.bottom)
    assert rlp_lift(po.inclusion, square) is None


def test_rlp_lift_through_collapse():
    m2, po = _m2_with_rank_one_range()
    b = po.category
    doubled = pushout_interval(b, "r(1)")
    collapse = interval_mediator(
        doubled, identity_functor(b), "r(1)", b.unit("r(1)")
    )
    assert is_trivial_fibration(collapse)
    g = assignment(
        doubled.category, {"o1": "x"}, {"p1_1": mat([[1, 0], [0, 0]])}
    )
    square = LiftSquare(1, g, po.bottom)
    lift = rlp_lift(collapse, square)
    assert lift is not None
    assert lift.object_of("r(1)") == "r(1)"
    assert check_representation(build_universal("R", 1), lift).ok
    assert collapse.apply(
        "x", "r(1)", lift.matrix_of("s1")
    ) == po.bottom.matrix_of("s1")


def test_rlp_lift_zero_case():
    base = disjoint_union(matrix_category(2), zero_category())
    square = LiftSquare(
        0,
        assignment(base, {}, {}),
        assignment(base, {"r(0)": "z"}, {}),
    )
    lift = rlp_lift(identity_functor(base), square)
    assert lift is not None and lift.object_of("r(0)") == "z"

    no_zero = matrix_category(2)
    square2 = LiftSquare(
        0,
        assignment(no_zero, {}, {}),
        assignment(base, {"r(0)": "z"}, {}),
    )
    f = star_functor(
        no_zero,
        base,
        {"x": "x"},
        {("x", "x"): list(no_zero.hom_basis("x", "x"))},
    )
    assert rlp_lift(f, square2) is None


def test_rlp_lift_zero_case_skips_nonzero_preimages():
    # x is sent to the zero object, but 1_x is not zero, so x does not
    # represent R(0) and there is no lift.
    m2, z = matrix_category(2), zero_category()
    collapse = star_functor(
        m2,
        z,
        {"x": "z"},
        {("x", "x"): [ExactMatrix.zeros(0, 0)] * len(m2.hom_basis("x", "x"))},
    )
    square = LiftSquare(
        0, assignment(m2, {}, {}), assignment(z, {"r(0)": "z"}, {})
    )
    assert rlp_lift(collapse, square) is None


def test_rlp_lift_rejects_non_commuting_square():
    m2, po = _m2_with_rank_one_range()
    cat = po.category
    g = assignment(cat, {"o1": "x"}, {"p1_1": mat([[0, 0], [0, 1]])})
    with pytest.raises(ValueError):
        rlp_lift(identity_functor(cat), LiftSquare(1, g, po.bottom))


def test_sum_lift_through_collapse():
    base = ground_category()
    sat = LazySaturation(base)
    x = identity_proj_object(base, "x")
    total, (v1, v2) = canonical_sum(base, [x, x])
    b = materialize_full_subcategory(sat, {"x": x, "s": total})
    doubled = pushout_interval(b, "s")
    collapse = interval_mediator(doubled, identity_functor(b), "s", b.unit("s"))
    top = assignment(doubled.category, {"o1": "x", "o2": "x"}, {})
    bottom = assignment(
        b, {"o1": "x", "o2": "x", "s(2)": "s"}, {"v1": v1, "v2": v2}
    )
    assert check_representation(build_universal("S", 2), bottom).ok
    lift = sum_lift(collapse, SumSquare(2, top, bottom))
    assert lift is not None
    assert lift.object_of("s(2)") == "s"
    assert check_representation(build_universal("S", 2), lift).ok


def _doubled_sum_of_two_points():
    """A collapse onto a category holding x and the sum s = x (+) x, and
    the sum square (o1, o2 -> x; s(2) -> s) on it."""
    base = ground_category()
    sat = LazySaturation(base)
    x = identity_proj_object(base, "x")
    total, (v1, v2) = canonical_sum(base, [x, x])
    b = materialize_full_subcategory(sat, {"x": x, "s": total})
    doubled = pushout_interval(b, "s")
    collapse = interval_mediator(doubled, identity_functor(b), "s", b.unit("s"))
    top = assignment(doubled.category, {"o1": "x", "o2": "x"}, {})
    bottom = assignment(
        b, {"o1": "x", "o2": "x", "s(2)": "s"}, {"v1": v1, "v2": v2}
    )
    return b, collapse, top, bottom


def test_sum_lift_rejects_edges_in_the_wrong_category():
    b, collapse, top, bottom = _doubled_sum_of_two_points()
    wrong_top = assignment(b, {"o1": "x", "o2": "x"}, {})
    with pytest.raises(ValueError, match="top edge"):
        sum_lift(collapse, SumSquare(2, wrong_top, bottom))
    wrong_bottom = assignment(
        collapse.source,
        {"o1": "x", "o2": "x", "s(2)": "s"},
        {"v1": bottom.matrix_of("v1"), "v2": bottom.matrix_of("v2")},
    )
    with pytest.raises(ValueError, match="bottom edge"):
        sum_lift(collapse, SumSquare(2, top, wrong_bottom))


def test_sum_lift_rejects_non_commuting_square():
    b, collapse, top, bottom = _doubled_sum_of_two_points()
    top = assignment(collapse.source, {"o1": "x", "o2": "s"}, {})
    with pytest.raises(ValueError, match="does not commute on object o2"):
        sum_lift(collapse, SumSquare(2, top, bottom))


def test_sum_lift_without_a_sum_in_the_source_is_none():
    b, _, _, bottom = _doubled_sum_of_two_points()
    point = ground_category()
    inclusion = star_functor(
        point, b, {"x": "x"}, {("x", "x"): list(b.hom_basis("x", "x"))}
    )
    top = assignment(point, {"o1": "x", "o2": "x"}, {})
    assert sum_lift(inclusion, SumSquare(2, top, bottom)) is None


def test_sum_lift_of_a_non_sum_bottom_edge_is_none():
    # Both legs are the same isometry, so the solved arrows fail the
    # orthogonality relations of S(2).
    b, _, _, bottom = _doubled_sum_of_two_points()
    v1 = bottom.matrix_of("v1")
    not_a_sum = assignment(
        b, {"o1": "x", "o2": "x", "s(2)": "s"}, {"v1": v1, "v2": v1}
    )
    top = assignment(b, {"o1": "x", "o2": "x"}, {})
    assert sum_lift(identity_functor(b), SumSquare(2, top, not_a_sum)) is None


def test_sum_lift_refuses_a_wrong_shaped_bottom_arrow():
    # hom(x, s) is 2x1: a 3x1 v1 failed inside the solve step with an
    # IndexError, and a 1x1 v1 cut the solved system short to "no lift".
    b, collapse, top, bottom = _doubled_sum_of_two_points()
    for v1 in (mat([[1], [0], [0]]), mat([[1]])):
        wrong = assignment(
            b,
            {"o1": "x", "o2": "x", "s(2)": "s"},
            {"v1": v1, "v2": bottom.matrix_of("v2")},
        )
        with pytest.raises(ShapeError, match="bottom edge arrow v1"):
            sum_lift(collapse, SumSquare(2, top, wrong))


def test_rlp_lift_refuses_a_wrong_shaped_bottom_arrow():
    m2, po = _m2_with_rank_one_range()
    cat = po.category
    g = assignment(cat, {"o1": "x"}, {"p1_1": mat([[1, 0], [0, 0]])})
    wrong = assignment(cat, {"o1": "x", "r(1)": "r(1)"}, {"s1": mat([[1], [0]])})
    with pytest.raises(ShapeError, match="bottom edge arrow s1 is 2x1, not 2x2"):
        rlp_lift(identity_functor(cat), LiftSquare(1, g, wrong))


# ---------------------------------------------------------------------------
# fibrancy probe


def test_probe_ground_fails_zero():
    report = fibrancy_probe(ground_category())
    assert report.target_kind == "concrete"
    assert not report.zero.ok
    assert not report.all_pass
    assert "no zero object" in report.failing()


def test_probe_zero_category_passes():
    report = fibrancy_probe(zero_category())
    assert report.zero.ok and report.all_pass
    assert report.verdict == "all probes pass"


def test_probe_finite_category_with_sums_and_ranges():
    base = ground_category()
    sat = LazySaturation(base)
    x = identity_proj_object(base, "x")
    total, _ = canonical_sum(base, [x, x])
    cat = materialize_full_subcategory(sat, {"x": x, "s": total})
    cat = disjoint_union(cat, zero_category())
    report = fibrancy_probe(cat)
    assert report.zero.ok and report.zero.witness == "z"
    by_pair = {p.pair: p for p in report.sums}
    good = by_pair[("x", "x")]
    assert good.ok and good.witness_object == "s"
    v1, v2 = good.isometries
    assert v1.adjoint() @ v1 == cat.unit("x")
    assert (v1.adjoint() @ v2).is_zero()
    assert not by_pair[("x", "s")].ok
    assert not report.all_pass
    split = {(p.base_object, p.class_vector): p for p in report.splittings}
    assert split[("s", (1,))].ok and split[("s", (1,))].witness_object == "x"
    assert split[("s", (0,))].ok and split[("s", (0,))].witness_object == "z"
    p = split[("s", (1,))].projection
    assert p @ p == p and p == p.adjoint() and p.rank() == 1


def test_probe_saturation_is_saturated():
    sat = LazySaturation(matrix_category(2))
    report = fibrancy_probe(sat)
    assert report.target_kind == "saturation"
    assert report.verdict == "saturated" and report.all_pass
    assert report.zero.ok
    assert all(p.ok for p in report.sums)
    assert all(p.ok for p in report.splittings)


def test_probe_propagates_unsplit_block():
    basis = [ExactMatrix.identity(2), mat([[1, 1], [1, -1]])]
    cat = star_category([("x", 2)], {("x", "x"): basis})
    with pytest.raises(NotSplitOverBaseField):
        fibrancy_probe(cat)
