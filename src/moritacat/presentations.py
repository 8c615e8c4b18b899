"""Quivers with *-algebraic relations and the universal categories they
present.

A presentation is a finite quiver plus formal equations between
*-polynomials in the generating arrows.  The presented category itself
is infinite-dimensional in general and is never materialized; every use
here goes through its universal property, which reduces to finite
relation checking: a functor out of a presented category IS an
assignment of objects and matrices satisfying the relations.

The module provides the standard generating presentations (n free
points, universal direct sum, universal projection matrix, universal
range object, their combinations, the unitary interval, and the zero
object), the comparison maps between them, the explicit pushout that
adjoins a range object for a projection matrix (adjoining a unitarily
isomorphic copy of an object is its case for an identity), right-lifting-
property checks against those generating shapes, and the fibrancy
probe that tests a category for zero objects, direct sums, and
projection splittings.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .completion import (
    ExtendedFunctor,
    LazySaturation,
    ProjObject,
    canonical_range,
    canonical_sum,
    identity_proj_object,
    materialize_full_subcategory,
    word_offsets,
    zero_proj_object,
)
from .scalar import (
    CertificateError,
    ExactMatrix,
    GaussianRational,
    ShapeError,
    check_partial_isometry,
    combine,
    from_blocks,
    linear_combination,
)
from .starcat import (
    ConcreteStarCategory,
    StarFunctor,
    star_functor,
)


# ---------------------------------------------------------------------------
# terms and presentations


@dataclass(frozen=True)
class Term:
    """A *-polynomial in named generator arrows.

    Kinds: "gen" (a generator, by name), "id" (identity of a vertex),
    "adj" (adjoint of a term), "comp" (composition, leftmost applied
    last — i.e. matrix product order), "sum" (pointwise sum; an empty
    sum is a zero morphism and carries explicit src/tgt vertices), and
    "scalar" (scalar multiple).
    """

    kind: str
    name: str = None
    terms: tuple = ()
    coeff: GaussianRational = None
    src: str = None
    tgt: str = None


def gen(name: str) -> Term:
    return Term("gen", name=name)


def idm(vertex: str) -> Term:
    return Term("id", name=vertex)


def adj(t: Term) -> Term:
    return Term("adj", terms=(t,))


def comp(*ts) -> Term:
    if not ts:
        raise ValueError("empty composition")
    if len(ts) == 1:
        return ts[0]
    return Term("comp", terms=tuple(ts))


def term_sum(*ts, src=None, tgt=None) -> Term:
    if not ts and (src is None or tgt is None):
        raise ValueError("an empty sum needs explicit src and tgt vertices")
    return Term("sum", terms=tuple(ts), src=src, tgt=tgt)


def zero_term(src: str, tgt: str) -> Term:
    return term_sum(src=src, tgt=tgt)


def scalar_mul(c: GaussianRational, t: Term) -> Term:
    return Term("scalar", terms=(t,), coeff=c)


def term_to_str(t: Term) -> str:
    if t.kind == "gen":
        return t.name
    if t.kind == "id":
        return f"1_{t.name}"
    if t.kind == "adj":
        return f"({term_to_str(t.terms[0])})*"
    if t.kind == "comp":
        return " ".join(term_to_str(s) for s in t.terms)
    if t.kind == "sum":
        if not t.terms:
            return "0"
        return "(" + " + ".join(term_to_str(s) for s in t.terms) + ")"
    if t.kind == "scalar":
        return f"{t.coeff}*({term_to_str(t.terms[0])})"
    raise ValueError(f"unknown term kind {t.kind!r}")


@dataclass(frozen=True)
class Arrow:
    name: str
    src: str
    tgt: str


@dataclass(frozen=True)
class Relation:
    label: str
    lhs: Term
    rhs: Term

    def __str__(self):
        return f"{self.label}: {term_to_str(self.lhs)} = {term_to_str(self.rhs)}"


@dataclass(frozen=True)
class Presentation:
    """A named quiver with *-algebraic relations."""

    name: str
    vertices: tuple  # tuple[str, ...]
    arrows: tuple  # tuple[Arrow, ...]
    relations: tuple  # tuple[Relation, ...]

    def arrow(self, name: str) -> Arrow:
        for a in self.arrows:
            if a.name == name:
                return a
        raise KeyError(f"no arrow named {name!r}")

    def has_vertex(self, v: str) -> bool:
        return v in self.vertices

    def __repr__(self):
        return (
            f"Presentation({self.name}: {len(self.vertices)} vertices, "
            f"{len(self.arrows)} arrows, {len(self.relations)} relations)"
        )


def term_type(pres: Presentation, t: Term):
    """(src, tgt) vertices of a well-typed term; raises on mismatch."""
    if t.kind == "gen":
        a = pres.arrow(t.name)
        return a.src, a.tgt
    if t.kind == "id":
        if not pres.has_vertex(t.name):
            raise KeyError(f"no vertex named {t.name!r}")
        return t.name, t.name
    if t.kind == "adj":
        s, g = term_type(pres, t.terms[0])
        return g, s
    if t.kind == "comp":
        types = [term_type(pres, s) for s in t.terms]
        for left, right in zip(types, types[1:]):
            if right[1] != left[0]:
                raise ValueError(
                    f"composition type mismatch in {term_to_str(t)}"
                )
        return types[-1][0], types[0][1]
    if t.kind == "sum":
        if not t.terms:
            if not (pres.has_vertex(t.src) and pres.has_vertex(t.tgt)):
                raise KeyError("empty sum over unknown vertices")
            return t.src, t.tgt
        types = {term_type(pres, s) for s in t.terms}
        if len(types) != 1:
            raise ValueError(f"sum of mismatched types in {term_to_str(t)}")
        return next(iter(types))
    if t.kind == "scalar":
        return term_type(pres, t.terms[0])
    raise ValueError(f"unknown term kind {t.kind!r}")


def presentation(name, vertices, arrows, relations) -> Presentation:
    """Build and type-check a presentation."""
    vertices = tuple(vertices)
    if len(set(vertices)) != len(vertices):
        raise ValueError("duplicate vertex names")
    arrows = tuple(arrows)
    names = [a.name for a in arrows]
    if len(set(names)) != len(names):
        raise ValueError("duplicate arrow names")
    for a in arrows:
        if a.src not in vertices or a.tgt not in vertices:
            raise KeyError(f"arrow {a.name} touches unknown vertices")
    pres = Presentation(name, vertices, arrows, tuple(relations))
    for rel in pres.relations:
        lt = term_type(pres, rel.lhs)
        rt = term_type(pres, rel.rhs)
        if lt != rt:
            raise ValueError(f"relation {rel.label!r} is not well-typed")
    return pres


# ---------------------------------------------------------------------------
# the universal presentations


def build_universal(kind: str, n: int = None) -> Presentation:
    """The standard generating presentations.

    kind "F": n free points (no arrows); "S": n objects with a direct
    sum; "P": an n x n self-adjoint idempotent matrix of arrows; "R":
    a projection matrix with a range object; "SP": a sum with a
    projection on it; "SR": a sum with a retract; "I": the unitary
    interval; "0": one object with zero endomorphisms.
    """
    if kind in ("I", "0"):
        if n is not None and n != 0:
            raise ValueError(f"kind {kind!r} takes no count")
        if kind == "I":
            u = gen("u")
            return presentation(
                "I",
                ("0", "1"),
                (Arrow("u", "0", "1"),),
                (
                    Relation("u isometry", comp(adj(u), u), idm("0")),
                    Relation("u coisometry", comp(u, adj(u)), idm("1")),
                ),
            )
        return presentation(
            "0",
            ("r(0)",),
            (),
            (Relation("zero identity", idm("r(0)"), zero_term("r(0)", "r(0)")),),
        )

    if n is None or n < 0:
        raise ValueError(f"kind {kind!r} needs a count n >= 0")
    obj = [f"o{i}" for i in range(1, (n or 0) + 1)]

    if kind == "F":
        return presentation(f"F^{n}", obj, (), ())

    if kind == "R":
        if n == 0:
            zero = build_universal("0")
            return Presentation("R(0)", zero.vertices, zero.arrows, zero.relations)
        r = f"r({n})"
        arrows = [Arrow(f"s{i}", f"o{i}", r) for i in range(1, n + 1)]
        rng = Relation(
            "range",
            idm(r),
            term_sum(*[comp(gen(f"s{k}"), adj(gen(f"s{k}"))) for k in range(1, n + 1)]),
        )
        return presentation(f"R({n})", obj + [r], arrows, (rng,))

    if n < 1:
        raise ValueError(f"kind {kind!r} needs n >= 1")

    if kind == "P":
        arrows = [
            Arrow(f"p{i}_{j}", f"o{j}", f"o{i}")
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        ]
        rels = []
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                rels.append(
                    Relation(
                        f"self-adjoint[{i},{j}]",
                        adj(gen(f"p{j}_{i}")),
                        gen(f"p{i}_{j}"),
                    )
                )
                rels.append(
                    Relation(
                        f"idempotent[{i},{j}]",
                        gen(f"p{i}_{j}"),
                        term_sum(
                            *[
                                comp(gen(f"p{i}_{k}"), gen(f"p{k}_{j}"))
                                for k in range(1, n + 1)
                            ]
                        ),
                    )
                )
        return presentation(f"P({n})", obj, arrows, rels)

    def sum_relations(s):
        rels = [
            Relation(
                "sum",
                idm(s),
                term_sum(
                    *[comp(gen(f"v{k}"), adj(gen(f"v{k}"))) for k in range(1, n + 1)]
                ),
            )
        ]
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                lhs = comp(adj(gen(f"v{i}")), gen(f"v{j}"))
                rhs = idm(f"o{i}") if i == j else zero_term(f"o{j}", f"o{i}")
                rels.append(Relation(f"orthogonal[{i},{j}]", lhs, rhs))
        return rels

    if kind == "S":
        s = f"s({n})"
        arrows = [Arrow(f"v{i}", f"o{i}", s) for i in range(1, n + 1)]
        return presentation(f"S({n})", obj + [s], arrows, sum_relations(s))

    if kind == "SP":
        s = f"s({n})"
        arrows = [Arrow(f"v{i}", f"o{i}", s) for i in range(1, n + 1)]
        arrows.append(Arrow("p", s, s))
        rels = sum_relations(s) + [
            Relation("p self-adjoint", adj(gen("p")), gen("p")),
            Relation("p idempotent", comp(gen("p"), gen("p")), gen("p")),
        ]
        return presentation(f"SP({n})", obj + [s], arrows, rels)

    if kind == "SR":
        s, r = f"s({n})", f"r({n})"
        arrows = [Arrow(f"v{i}", f"o{i}", s) for i in range(1, n + 1)]
        arrows.append(Arrow("v", r, s))
        rels = sum_relations(s) + [
            Relation("retract isometry", comp(adj(gen("v")), gen("v")), idm(r)),
        ]
        return presentation(f"SR({n})", obj + [s, r], arrows, rels)

    raise ValueError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# assignments (representations) and relation checking


@dataclass(frozen=True)
class Assignment:
    """A candidate representation of a presentation: an object of the
    target per vertex and a matrix per arrow.  The target is either a
    concrete category (objects are names) or a lazy saturation (objects
    are ProjObjects)."""

    target: object
    objects: tuple  # sorted tuple of (vertex, object)
    arrows: tuple  # sorted tuple of (arrow name, ExactMatrix)

    def object_of(self, vertex: str):
        for v, o in self.objects:
            if v == vertex:
                return o
        raise KeyError(f"no object assigned to vertex {vertex!r}")

    def matrix_of(self, name: str) -> ExactMatrix:
        for a, m in self.arrows:
            if a == name:
                return m
        raise KeyError(f"no matrix assigned to arrow {name!r}")


def assignment(target, objects, arrows) -> Assignment:
    return Assignment(
        target,
        tuple(sorted(objects.items())),
        tuple(sorted(arrows.items())),
    )


def evaluate_term(pres: Presentation, asg: Assignment, t: Term) -> ExactMatrix:
    """The matrix a term evaluates to under an assignment."""
    if t.kind == "gen":
        return asg.matrix_of(t.name)
    if t.kind == "id":
        return asg.target.unit(asg.object_of(t.name))
    if t.kind == "adj":
        return evaluate_term(pres, asg, t.terms[0]).adjoint()
    if t.kind == "comp":
        acc = evaluate_term(pres, asg, t.terms[0])
        for s in t.terms[1:]:
            acc = acc @ evaluate_term(pres, asg, s)
        return acc
    if t.kind == "sum":
        if not t.terms:
            rows = asg.target.dim(asg.object_of(t.tgt))
            cols = asg.target.dim(asg.object_of(t.src))
            return ExactMatrix.zeros(rows, cols)
        acc = evaluate_term(pres, asg, t.terms[0])
        for s in t.terms[1:]:
            acc = acc + evaluate_term(pres, asg, s)
        return acc
    if t.kind == "scalar":
        return evaluate_term(pres, asg, t.terms[0]).scale(t.coeff)
    raise ValueError(f"unknown term kind {t.kind!r}")


@dataclass(frozen=True)
class RepresentationReport:
    ok: bool
    failure: str = None

    def __bool__(self):
        return self.ok

    def __str__(self):
        return "representation OK" if self.ok else f"not a representation: {self.failure}"


def check_representation(pres: Presentation, asg: Assignment) -> RepresentationReport:
    """Does the assignment satisfy every relation of the presentation?

    Arrow matrices must have the exact hom shapes (a mismatch raises
    ShapeError); arrows landing outside the target's hom spans and
    failing relations are reported with the first offender.
    """
    for v in pres.vertices:
        asg.object_of(v)  # raises KeyError when uncovered
    for a in pres.arrows:
        m = asg.matrix_of(a.name)
        rows = asg.target.dim(asg.object_of(a.tgt))
        cols = asg.target.dim(asg.object_of(a.src))
        if m.rows != rows or m.cols != cols:
            raise ShapeError(
                f"arrow {a.name!r} needs a {rows}x{cols} matrix, "
                f"got {m.rows}x{m.cols}"
            )
    for a in pres.arrows:
        m = asg.matrix_of(a.name)
        if not asg.target.contains_arrow(asg.object_of(a.src), asg.object_of(a.tgt), m):
            return RepresentationReport(
                False, f"image of arrow {a.name!r} is outside the target hom space"
            )
    for rel in pres.relations:
        lhs = evaluate_term(pres, asg, rel.lhs)
        rhs = evaluate_term(pres, asg, rel.rhs)
        if lhs != rhs:
            return RepresentationReport(False, str(rel))
    return RepresentationReport(True)


# ---------------------------------------------------------------------------
# the comparison maps


@dataclass(frozen=True)
class GeneratingMap:
    """One of the built-in maps between universal presentations,
    recorded as vertex images and generator-image terms (terms in the
    target's generators)."""

    name: str
    source: Presentation
    target: Presentation
    vertex_map: tuple  # sorted tuple of (source vertex, target vertex)
    arrow_map: tuple  # sorted tuple of (source arrow name, Term)

    def vertex_image(self, v: str) -> str:
        for s, t in self.vertex_map:
            if s == v:
                return t
        raise KeyError(v)

    def arrow_term(self, name: str) -> Term:
        for a, t in self.arrow_map:
            if a == name:
                return t
        raise KeyError(name)


_GENERATING_MAP_NAMES = (
    "F_to_P",
    "S_n",
    "R_n",
    "P_to_SP",
    "S_to_SP",
    "SP_to_SR",
    "R_to_SR",
)


def generating_map(name: str, n: int) -> GeneratingMap:
    """The comparison maps between the universal presentations."""

    def build(src, tgt, vmap, amap):
        return GeneratingMap(
            name, src, tgt, tuple(sorted(vmap.items())), tuple(sorted(amap.items()))
        )

    rng = range(1, n + 1)
    if name == "F_to_P":
        return build(
            build_universal("F", n),
            build_universal("P", n),
            {f"o{i}": f"o{i}" for i in rng},
            {},
        )
    if name == "S_n":
        return build(
            build_universal("F", n),
            build_universal("S", n),
            {f"o{i}": f"o{i}" for i in rng},
            {},
        )
    if name == "R_n":
        if n == 0:
            return build(
                build_universal("F", 0),  # the empty presentation
                build_universal("R", 0),
                {},
                {},
            )
        return build(
            build_universal("P", n),
            build_universal("R", n),
            {f"o{i}": f"o{i}" for i in rng},
            {
                f"p{i}_{j}": comp(adj(gen(f"s{i}")), gen(f"s{j}"))
                for i in rng
                for j in rng
            },
        )
    if name == "P_to_SP":
        return build(
            build_universal("P", n),
            build_universal("SP", n),
            {f"o{i}": f"o{i}" for i in rng},
            {
                f"p{i}_{j}": comp(adj(gen(f"v{i}")), gen("p"), gen(f"v{j}"))
                for i in rng
                for j in rng
            },
        )
    if name == "S_to_SP":
        return build(
            build_universal("S", n),
            build_universal("SP", n),
            {f"o{i}": f"o{i}" for i in rng} | {f"s({n})": f"s({n})"},
            {f"v{i}": gen(f"v{i}") for i in rng},
        )
    if name == "SP_to_SR":
        return build(
            build_universal("SP", n),
            build_universal("SR", n),
            {f"o{i}": f"o{i}" for i in rng} | {f"s({n})": f"s({n})"},
            {f"v{i}": gen(f"v{i}") for i in rng}
            | {"p": comp(gen("v"), adj(gen("v")))},
        )
    if name == "R_to_SR":
        return build(
            build_universal("R", n),
            build_universal("SR", n),
            {f"o{i}": f"o{i}" for i in rng} | {f"r({n})": f"r({n})"},
            {f"s{i}": comp(adj(gen("v")), gen(f"v{i}")) for i in rng},
        )
    raise ValueError(
        f"unknown generating map {name!r}; choose from {_GENERATING_MAP_NAMES}"
    )


def substitute_term(gm: GeneratingMap, t: Term) -> Term:
    """Rewrite a term over the source presentation into one over the
    target, via the map's generator images."""
    if t.kind == "gen":
        return gm.arrow_term(t.name)
    if t.kind == "id":
        return idm(gm.vertex_image(t.name))
    if t.kind == "adj":
        return adj(substitute_term(gm, t.terms[0]))
    if t.kind == "comp":
        return comp(*[substitute_term(gm, s) for s in t.terms])
    if t.kind == "sum":
        if not t.terms:
            return zero_term(gm.vertex_image(t.src), gm.vertex_image(t.tgt))
        return term_sum(*[substitute_term(gm, s) for s in t.terms])
    if t.kind == "scalar":
        return scalar_mul(t.coeff, substitute_term(gm, t.terms[0]))
    raise ValueError(f"unknown term kind {t.kind!r}")


def compose_generating_maps(g: GeneratingMap, f: GeneratingMap) -> GeneratingMap:
    """g after f (f's target presentation must be g's source)."""
    if f.target.name != g.source.name:
        raise ValueError("generating maps are not composable")
    vmap = {v: g.vertex_image(f.vertex_image(v)) for v, _ in f.vertex_map}
    amap = {a: substitute_term(g, t) for a, t in f.arrow_map}
    return GeneratingMap(
        f"{g.name} after {f.name}",
        f.source,
        g.target,
        tuple(sorted(vmap.items())),
        tuple(sorted(amap.items())),
    )


def pull_assignment(gm: GeneratingMap, asg: Assignment) -> Assignment:
    """Restrict a representation of the target presentation to one of
    the source along the map."""
    objects = {v: asg.object_of(gm.vertex_image(v)) for v, _ in gm.vertex_map}
    arrows = {
        a: evaluate_term(gm.target, asg, t) for a, t in gm.arrow_map
    }
    return assignment(asg.target, objects, arrows)


# ---------------------------------------------------------------------------
# pushout: adjoining a range object (a unitary copy is the range of a unit)


def _fresh_name(taken, base: str) -> str:
    candidate = base
    while candidate in taken:
        candidate += "'"
    return candidate


@dataclass(frozen=True)
class RnPushout:
    """A category extended by a range object for a projection matrix.

    The result is the full subcategory of the saturation on the
    original objects plus (word, p); the inclusion of the original
    category is fully faithful and a Morita equivalence, and the new
    object is named ``r_name``.  ``bottom`` is the induced range-object
    assignment (the new leg of the square); ``g`` is the projection-
    matrix assignment that was pushed out.
    """

    category: ConcreteStarCategory
    inclusion: StarFunctor
    g: Assignment
    n: int
    r_name: str
    word: tuple
    proj: ExactMatrix
    bottom: Assignment


@dataclass(frozen=True)
class IntervalPushout(RnPushout):
    """A category extended by a fresh unitarily isomorphic copy x1 of
    one object x0: the range-object pushout of the 1 x 1 projection
    matrix 1_{x0}, whose one leg is the designated unitary u: x0 -> x1
    (concretely the unit of x0)."""

    @property
    def x0(self) -> str:
        return self.word[0]

    @property
    def x1(self) -> str:
        return self.r_name

    @property
    def u(self) -> ExactMatrix:
        return self.proj


def _adjoin_range(a: ConcreteStarCategory, g: Assignment, name: str, kind=RnPushout):
    """Adjoin the range object of the projection matrix g under ``name``:
    the full subcategory of the saturation on a's objects and (word, p).

    The mediators reuse a cocone's stored images on a's own pairs, so
    the materialized bases there must be a's bases."""
    n = len(g.objects)
    word = tuple(g.object_of(f"o{i}") for i in range(1, n + 1))
    grid = [[g.matrix_of(f"p{i}_{j}") for j in range(1, n + 1)] for i in range(1, n + 1)]
    proj = from_blocks(grid) if n else ExactMatrix.zeros(0, 0)
    named = {x: identity_proj_object(a, x) for x in a.object_names()}
    named[name] = ProjObject(word, proj)
    cat = materialize_full_subcategory(LazySaturation(a), named)
    if any(cat.hom_basis(x, y) != a.hom_basis(x, y) for x, y in a.pairs()):
        raise ValueError("the category's hom bases are not in canonical form")
    inclusion = star_functor(a, cat, {x: x for x in a.object_names()}, dict(a.homs))
    # The canonical range-object assignment: the i-th arrow into the
    # new object is the compression of the i-th summand inclusion.
    offsets = word_offsets(a, word)
    arrows = {
        f"s{i}": proj.block(0, offsets[i - 1], offsets[-1], offsets[i])
        @ a.unit(word[i - 1])
        for i in range(1, n + 1)
    }
    objects = {f"o{i}": word[i - 1] for i in range(1, n + 1)}
    objects[f"r({n})"] = name
    bottom = assignment(cat, objects, arrows)
    return kind(cat, inclusion, g, n, name, word, proj, bottom)


def pushout_interval(a: ConcreteStarCategory, x0: str) -> IntervalPushout:
    """Adjoin a second copy of ``x0`` with a connecting unitary: the
    range-object pushout of 1_{x0}.  The copy lives on the same ambient
    space with the same unit, so its hom spaces are those of x0."""
    if not a.has_object(x0):
        raise KeyError(f"no object named {x0!r}")
    g = assignment(a, {"o1": x0}, {"p1_1": a.unit(x0)})
    return _adjoin_range(a, g, _fresh_name(set(a.object_names()), x0 + "'"), IntervalPushout)


def interval_mediator(
    po: IntervalPushout, t0: StarFunctor, x1_image: str, u_image: ExactMatrix
) -> StarFunctor:
    """The unique functor out of an interval pushout agreeing with t0 on
    the original category and sending the designated unitary to
    ``u_image`` (a unitary t0(x0) -> x1_image of t0's target)."""
    t1 = assignment(
        t0.target, {"o1": t0.apply_object(po.x0), "r(1)": x1_image}, {"s1": u_image}
    )
    return rn_pushout_mediator(po, t0, t1)


def pushout_rn(a: ConcreteStarCategory, g: Assignment) -> RnPushout:
    """Adjoin a range object for the projection matrix described by a
    representation g of the n x n projection-matrix presentation in a.

    For n = 0 this adjoins a disjoint zero object.
    """
    if g.target is not a and g.target != a:
        raise ValueError("the projection-matrix assignment must land in the category")
    n = len(g.objects)
    if n > 0:
        report = check_representation(build_universal("P", n), g)
        if not report.ok:
            raise ValueError(f"invalid projection-matrix assignment: {report.failure}")
    return _adjoin_range(a, g, _fresh_name(set(a.object_names()), f"r({n})"))


def rn_pushout_mediator(
    po: RnPushout, t0: StarFunctor, t1: Assignment
) -> StarFunctor:
    """The unique functor out of a range-object pushout restricting to
    t0 on the original category and to t1 on the range-object leg.

    t1 is a representation of the n-ary range presentation in t0's
    (concrete) target whose restriction along the projection-matrix map
    agrees with t0 of the pushed-out assignment.  An object is a word W
    with legs S (the identity for an original object, the row of t1's
    s_i for the range object), and a basis arrow m is sent to
    S_tgt t0(m) S_src*, with t0 applied blockwise over the words.
    """
    a = t0.source
    if a != po.inclusion.source:
        raise ValueError("cocone functor does not start at the pushed-out category")
    c = t0.target
    if t1.target is not c and t1.target != c:
        raise ValueError("the two cocone legs land in different categories")
    n = po.n
    r_pres = build_universal("R", n)
    rep = check_representation(r_pres, t1)
    if not rep.ok:
        raise ValueError(f"range leg is not a representation: {rep.failure}")
    _check_commutes(t0, po.g, t1, n, True, "cocone")

    r_image = t1.object_of(f"r({n})")
    object_map = {x: t0.apply_object(x) for x in a.object_names()}
    object_map[po.r_name] = r_image
    legs = [t1.matrix_of(f"s{i}") for i in range(1, n + 1)]
    frames = {
        x: (identity_proj_object(a, x), ExactMatrix.identity(c.dim(object_map[x])))
        for x in a.object_names()
    }
    frames[po.r_name] = (
        ProjObject(po.word, po.proj),
        from_blocks([legs]) if n else ExactMatrix.zeros(c.dim(r_image), 0),
    )
    extension = ExtendedFunctor(t0)
    arrow_map = dict(t0.arrow_map)
    for (x, y), basis in po.category.homs:
        if po.r_name in (x, y):
            (wx, sx), (wy, sy) = frames[x], frames[y]
            arrow_map[(x, y)] = [
                sy @ extension.apply_arrow(wx, wy, m) @ sx.adjoint() for m in basis
            ]
    return star_functor(po.category, c, object_map, arrow_map)


# ---------------------------------------------------------------------------
# right lifting properties against the generating squares


@dataclass(frozen=True)
class LiftSquare:
    """A commuting square asking for a range-object lift: the top edge
    is a projection-matrix representation in the functor's source, the
    bottom edge a range representation in its target."""

    n: int
    top: Assignment  # P(n) -> source of F
    bottom: Assignment  # R(n) -> target of F


@dataclass(frozen=True)
class SumSquare:
    """A commuting square asking for a direct-sum lift: the top edge
    picks objects of the functor's source, the bottom edge a direct sum
    of their images in the target."""

    n: int
    top: Assignment  # F^n -> source of F
    bottom: Assignment  # S(n) -> target of F


def _solve_arrow_preimage(f: StarFunctor, src, tgt, target_matrix):
    """One exact s in hom(src, tgt) with F(s) = target_matrix, or None.

    Deterministic: the particular solution over the canonical basis.
    Unique whenever the hom component of F is injective (always, for
    trivial fibrations)."""
    basis = f.source.hom_basis(src, tgt)
    images = [m.flatten() for m in f.images(src, tgt)]
    coeffs = linear_combination(images, target_matrix.flatten())
    if coeffs is None:
        return None
    return combine(coeffs, basis, f.source.dim(tgt), f.source.dim(src))


def _check_square_commutes(f: StarFunctor, square, vertex, prefix, entries: bool):
    """Raise ValueError unless the edges land in the functor's ends and
    the square commutes on objects and, with ``entries``, on the
    projection-matrix entries of a range square; ShapeError unless each
    bottom-edge arrow ``prefix``i is dim(apex) x dim(o_i)."""
    g, h = square.top, square.bottom
    if g.target is not f.source and g.target != f.source:
        raise ValueError("top edge does not land in the functor's source")
    if h.target is not f.target and h.target != f.target:
        raise ValueError("bottom edge does not land in the functor's target")
    n = square.n
    rows = f.target.dim(h.object_of(vertex))
    for i in range(1, n + 1):
        arrow = h.matrix_of(f"{prefix}{i}")
        cols = f.target.dim(h.object_of(f"o{i}"))
        if (arrow.rows, arrow.cols) != (rows, cols):
            raise ShapeError(
                f"bottom edge arrow {prefix}{i} is {arrow.rows}x{arrow.cols}, "
                f"not {rows}x{cols}"
            )
    _check_commutes(f, g, h, n, entries, "square")


def _check_commutes(f: StarFunctor, top, bottom, n, entries: bool, what):
    """Raise ValueError unless F(top o_i) = bottom o_i for i = 1..n and,
    with ``entries``, bottom s_i* s_j = F(top p_{i,j}) for every (i, j);
    ``what`` names the diagram in the message."""
    for i in range(1, n + 1):
        if f.apply_object(top.object_of(f"o{i}")) != bottom.object_of(f"o{i}"):
            raise ValueError(f"{what} does not commute on object o{i}")
        if not entries:
            continue
        for j in range(1, n + 1):
            lhs = bottom.matrix_of(f"s{i}").adjoint() @ bottom.matrix_of(f"s{j}")
            rhs = f.apply(
                top.object_of(f"o{j}"),
                top.object_of(f"o{i}"),
                top.matrix_of(f"p{i}_{j}"),
            )
            if lhs != rhs:
                raise ValueError(f"{what} does not commute on the matrix entry ({i},{j})")


def _lift_search(f: StarFunctor, square, kind, vertex, prefix, entries):
    """A lift of a square whose bottom edge represents the universal
    presentation ``kind`` (apex ``vertex``, arrows ``prefix``1..n from the
    points o1..on into it), or None.

    The search scans the source's objects in declaration order for one
    mapping to the bottom edge's apex, then solves the linear equations
    F(a_i) = (bottom a_i) for the arrows a_i into it and verifies the
    presentation's relations.  For trivial fibrations the hom components
    are bijective, so the solutions are forced and the relations follow;
    in general a missing solution means no lift is reported even if an
    exotic one exists outside the solved family.  With n = 0 (only R(0))
    nothing is solved and the relation 1 = 0 keeps the zero objects.
    """
    _check_square_commutes(f, square, vertex, prefix, entries)
    n, g, h = square.n, square.top, square.bottom
    a = f.source
    pres = build_universal(kind, n)
    apex = h.object_of(vertex)
    points = {f"o{i}": g.object_of(f"o{i}") for i in range(1, n + 1)}
    for candidate in a.object_names():
        if f.apply_object(candidate) != apex:
            continue
        arrows = {}
        for i in range(1, n + 1):
            name = f"{prefix}{i}"
            arrow = _solve_arrow_preimage(
                f, points[f"o{i}"], candidate, h.matrix_of(name)
            )
            if arrow is None:
                break
            arrows[name] = arrow
        else:
            lift = assignment(a, {**points, vertex: candidate}, arrows)
            if check_representation(pres, lift).ok:
                return lift
    return None


def rlp_lift(f: StarFunctor, square: LiftSquare):
    """A lift of a range-object square through f, or None (see
    ``_lift_search``); the square must commute on objects and on the
    projection-matrix entries."""
    return _lift_search(f, square, "R", f"r({square.n})", "s", entries=True)


def sum_lift(f: StarFunctor, square: SumSquare):
    """A lift of a direct-sum square through f, or None (see
    ``_lift_search``); the square must commute on objects."""
    return _lift_search(f, square, "S", f"s({square.n})", "v", entries=False)


# ---------------------------------------------------------------------------
# fibrancy probe


@dataclass(frozen=True)
class ZeroProbe:
    ok: bool
    witness: object = None  # object name / ProjObject


@dataclass(frozen=True)
class SumProbe:
    pair: tuple
    ok: bool
    witness_object: object = None
    isometries: tuple = None
    note: str = None


@dataclass(frozen=True)
class SplitProbe:
    base_object: object
    class_vector: tuple
    ok: bool
    witness_object: object = None
    projection: ExactMatrix = None
    isometry: ExactMatrix = None
    note: str = None


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of the zero-object, direct-sum, and splitting probes.

    ``verdict`` is "saturated" only for lazy-saturation targets, which
    pass by construction; finite categories get a per-instance report
    and an ``all_pass`` flag (a finite category with a nonzero block
    always fails some instance)."""

    target_kind: str  # "concrete" | "saturation"
    zero: ZeroProbe
    sums: tuple
    splittings: tuple
    all_pass: bool
    verdict: str

    def failing(self):
        out = []
        if not self.zero.ok:
            out.append("no zero object")
        out.extend(f"no direct sum for {p.pair}" for p in self.sums if not p.ok)
        out.extend(
            f"no range object of class {p.class_vector} for a projection on "
            f"{p.base_object}"
            for p in self.splittings
            if not p.ok
        )
        return out


def fibrancy_probe(target, samples=None, projections=None) -> ProbeReport:
    """Probe a category for a zero object, binary direct sums, and
    projection splittings.

    Concrete categories are probed exhaustively through their block
    decomposition (witnesses are exact matrices, built from matrix
    units where possible); lazy saturations are probed on the given
    sample objects (default: the images of the base objects) and always
    pass, with canonical sums and ranges as witnesses.
    """
    if isinstance(target, LazySaturation):
        return _probe_saturation(target, samples, projections)
    return _probe_concrete(target)


def _probe_saturation(sat, samples, projections):
    base = sat.base
    if samples is None:
        samples = [identity_proj_object(base, x) for x in base.object_names()]
    zero = ZeroProbe(True, zero_proj_object())
    sums = []
    for i, x in enumerate(samples):
        for y in samples[i:]:
            total, isos = canonical_sum(base, [x, y])
            v1, v2 = isos
            if not (v1.adjoint() @ v1 == x.proj and v2.adjoint() @ v2 == y.proj):
                raise CertificateError("a sum injection is not an isometry")
            if v1 @ v1.adjoint() + v2 @ v2.adjoint() != total.proj:
                raise CertificateError("the sum injections do not fill the sum")
            sums.append(SumProbe((x, y), True, total, (v1, v2)))
    if projections is None:
        projections = []
        for x in samples:
            projections.append((x, x.proj))
        for probe in sums:
            total = probe.witness_object
            v1 = probe.isometries[0]
            projections.append((total, v1 @ v1.adjoint()))
    splits = []
    for obj, q in projections:
        rng, v = canonical_range(base, obj, q)
        check_partial_isometry(v, rng.proj, q, "the range isometry does not split the projection")
        splits.append(SplitProbe(obj, None, True, rng, q, v))
    return ProbeReport("saturation", zero, tuple(sums), tuple(splits), True, "saturated")


def _probe_concrete(cat):
    from .semisimple import (
        MinimalProjectionError,
        WitnessObstruction,
        decompose,
        matrix_units,
        object_class,
        slot_bridge,
    )

    d = decompose(cat)
    names = cat.object_names()

    zero_witness = next((x for x in names if cat.unit(x).is_zero()), None)
    zero = ZeroProbe(zero_witness is not None, zero_witness)

    units_note = None
    try:
        for i in range(len(d.blocks)):
            matrix_units(d, i)
    except (WitnessObstruction, MinimalProjectionError) as exc:
        units_note = f"witness construction unavailable: {exc}"

    def find_by_class(cls):
        for z in names:
            if object_class(d, z) == cls:
                return z
        return None

    sums = []
    for i, x in enumerate(names):
        for y in names[i:]:
            cx, cy = object_class(d, x), object_class(d, y)
            need = tuple(a + b for a, b in zip(cx, cy))
            z = find_by_class(need)
            ok = z is not None
            isos = None
            note = None
            if ok and units_note is None:
                v1 = slot_bridge(d, x, z, cx)
                v2 = slot_bridge(d, y, z, cy, cx)
                if not (v1.adjoint() @ v1 == cat.unit(x) and v2.adjoint() @ v2 == cat.unit(y)):
                    raise CertificateError("a sum injection is not an isometry")
                if not (v1.adjoint() @ v2).is_zero():
                    raise CertificateError("the sum injections are not orthogonal")
                if v1 @ v1.adjoint() + v2 @ v2.adjoint() != cat.unit(z):
                    raise CertificateError("the sum injections do not fill the sum")
                isos = (v1, v2)
            elif ok:
                note = units_note
            sums.append(SumProbe((x, y), ok, z, isos, note))

    splits = []
    for x in names:
        cx = object_class(d, x)
        for cls in itertools.product(*(range(b + 1) for b in cx)):
            r = find_by_class(cls)
            ok = r is not None
            proj = None
            iso = None
            note = None
            if ok and units_note is None:
                v = slot_bridge(d, r, x, cls)
                proj = v @ v.adjoint()
                if v.adjoint() @ v != cat.unit(r):
                    raise CertificateError("the range bridge is not an isometry")
                if not (proj @ cat.unit(x) == proj and cat.unit(x) @ proj == proj):
                    raise CertificateError("the range projection is not under the unit")
                iso = v
            elif ok:
                note = units_note
            splits.append(SplitProbe(x, cls, ok, r, proj, iso, note))

    all_pass = zero.ok and all(p.ok for p in sums) and all(p.ok for p in splits)
    verdict = "all probes pass" if all_pass else "probes fail"
    return ProbeReport("concrete", zero, tuple(sums), tuple(splits), all_pass, verdict)
