"""Concrete *-categories and *-functors.

A concrete *-category has finitely many named objects, each realized on
a finite-dimensional Q(i)-space, and for each ordered pair of objects a
linear span of matrices closed under composition and conjugate-transpose.
Hom bases are kept in canonical reduced-echelon form (of the flattened
entry vectors), so equality of categories is structural equality.

There is one functor type, ``StarFunctor``, from a concrete category to
a target that is either a concrete category (objects are names) or the
lazy saturation of one (objects are ``ProjObject``s).  Both targets
answer the same small interface: ``has_object``, ``dim``, ``unit``,
``hom_basis``/``hom_span``/``hom_dim``, ``contains_arrow`` and
``object_problems``.  Construction, application, validation and
composition of functors use only that interface.

Each object carries a "unit": the matrix acting as its identity.  For
ordinary categories the unit is the identity matrix.  Allowing a
projection as the unit makes it possible to materialize full
subcategories of an idempotent completion exactly — the object then
lives on the range of its unit, without ever needing the orthonormal
change of basis that Q(i) cannot express.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalar import (
    ExactMatrix,
    MatrixSpan,
    ShapeError,
    combine,
    vector_in_span,
)


@dataclass(frozen=True)
class ObjectDecl:
    """One object: a name, its ambient dimension, and its unit matrix."""

    name: str
    dim: int
    unit: ExactMatrix

    def __post_init__(self):
        if self.unit.rows != self.dim or self.unit.cols != self.dim:
            raise ShapeError(f"unit of {self.name} has the wrong shape")


@dataclass(frozen=True)
class ConcreteStarCategory:
    """Finitely many objects with matrix hom spans; immutable."""

    objects: tuple  # tuple[ObjectDecl, ...]
    homs: tuple  # sorted tuple of ((src, tgt), tuple[ExactMatrix, ...])

    def __post_init__(self):
        names = [o.name for o in self.objects]
        if len(set(names)) != len(names):
            raise ValueError("duplicate object names")

    # --- lookups ------------------------------------------------------

    def object_names(self):
        return tuple(o.name for o in self.objects)

    def object(self, name: str) -> ObjectDecl:
        for o in self.objects:
            if o.name == name:
                return o
        raise KeyError(f"no object named {name!r}")

    def has_object(self, name: str) -> bool:
        return any(o.name == name for o in self.objects)

    def dim(self, name: str) -> int:
        return self.object(name).dim

    def unit(self, name: str) -> ExactMatrix:
        return self.object(name).unit

    def hom_basis(self, src: str, tgt: str):
        """Canonical basis of Hom(src, tgt); empty tuple for the zero
        space."""
        for (s, t), mats in self.homs:
            if s == src and t == tgt:
                return mats
        if not (self.has_object(src) and self.has_object(tgt)):
            raise KeyError(f"unknown object pair ({src!r}, {tgt!r})")
        return ()

    def hom_span(self, src: str, tgt: str) -> MatrixSpan:
        return MatrixSpan(self.dim(tgt), self.dim(src), self.hom_basis(src, tgt))

    def hom_dim(self, src: str, tgt: str) -> int:
        return len(self.hom_basis(src, tgt))

    def contains_arrow(self, src: str, tgt: str, m: ExactMatrix) -> bool:
        return self.hom_span(src, tgt).contains(m)

    def object_problems(self, name: str):
        return [] if self.has_object(name) else [f"unknown object {name!r}"]

    def pairs(self):
        for a in self.objects:
            for b in self.objects:
                yield a.name, b.name

    def __repr__(self):
        dims = ", ".join(f"{o.name}:{o.dim}" for o in self.objects)
        return f"ConcreteStarCategory({dims})"


def star_category(objects, homs) -> ConcreteStarCategory:
    """Build a category from declarations.

    objects: iterable of (name, dim) or (name, dim, unit-matrix).
    homs: mapping (src, tgt) -> iterable of matrices.

    Each hom span is replaced by its reduced-echelon basis and zero
    spans are dropped; this is the invariant every operation in the
    library expects.  A basis that is already canonical re-canonicalizes
    with zero tests only.
    """
    decls = []
    for spec in objects:
        if len(spec) == 2:
            name, dim = spec
            unit = ExactMatrix.identity(dim)
        else:
            name, dim, unit = spec
        decls.append(ObjectDecl(name, dim, unit))
    by_name = {d.name: d for d in decls}

    processed = {}
    for (src, tgt), mats in homs.items():
        if src not in by_name or tgt not in by_name:
            raise KeyError(f"hom pair ({src!r}, {tgt!r}) names unknown objects")
        mats = tuple(mats)
        for m in mats:
            if m.rows != by_name[tgt].dim or m.cols != by_name[src].dim:
                raise ShapeError(
                    f"hom({src}, {tgt}) contains a matrix of the wrong shape"
                )
        mats = MatrixSpan(by_name[tgt].dim, by_name[src].dim, mats).matrices
        if mats:
            processed[(src, tgt)] = mats

    ordered = tuple(sorted(processed.items(), key=lambda kv: kv[0]))
    return ConcreteStarCategory(tuple(decls), ordered)


# --- validation -------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    kind: str  # "unit-membership" | "unit-action" | "composition" |
    #            "adjoint" | "independence"
    pair: tuple
    detail: str

    def __str__(self):
        return f"[{self.kind}] hom{self.pair}: {self.detail}"


def validate_category(cat: ConcreteStarCategory):
    """Every violated closure/identity/independence invariant.

    Returns a list of Violation records; the category is valid iff the
    list is empty.
    """
    report = []
    spans = {}
    for x, y in cat.pairs():
        basis = cat.hom_basis(x, y)
        spans[(x, y)] = cat.hom_span(x, y)
        if len(basis) != spans[(x, y)].dim:
            report.append(
                Violation(
                    "independence",
                    (x, y),
                    f"{len(basis)} generators span only "
                    f"{spans[(x, y)].dim} dimensions",
                )
            )

    for x in cat.object_names():
        unit = cat.unit(x)
        if not unit.is_projection():
            report.append(
                Violation(
                    "unit-membership", (x, x), "declared unit is not a projection"
                )
            )
        if not spans[(x, x)].contains(unit):
            report.append(
                Violation(
                    "unit-membership",
                    (x, x),
                    "the unit of the object is not in the endomorphism span",
                )
            )

    for x, y in cat.pairs():
        ux, uy = cat.unit(x), cat.unit(y)
        for b in cat.hom_basis(x, y):
            if uy @ b != b or b @ ux != b:
                report.append(
                    Violation(
                        "unit-action",
                        (x, y),
                        f"unit does not act as identity on {b}",
                    )
                )
            if not spans[(y, x)].contains(b.adjoint()):
                report.append(
                    Violation(
                        "adjoint", (x, y), f"adjoint of {b} leaves the spans"
                    )
                )

    for x in cat.object_names():
        for y in cat.object_names():
            for z in cat.object_names():
                for f in cat.hom_basis(x, y):
                    for g in cat.hom_basis(y, z):
                        if not spans[(x, z)].contains(g @ f):
                            report.append(
                                Violation(
                                    "composition",
                                    (x, z),
                                    f"({g}) o ({f}) leaves the spans",
                                )
                            )
    return report


def is_valid_category(cat: ConcreteStarCategory) -> bool:
    return not validate_category(cat)


# --- standard small categories ---------------------------------------


def ground_category() -> ConcreteStarCategory:
    """The one-object category with scalar endomorphisms."""
    return star_category(
        [("x", 1)], {("x", "x"): [ExactMatrix.identity(1)]}
    )


def coproduct_of_grounds(n: int) -> ConcreteStarCategory:
    """n points: n one-dimensional objects with no morphisms between
    them."""
    objects = [(f"x{k + 1}", 1) for k in range(n)]
    homs = {
        (f"x{k + 1}", f"x{k + 1}"): [ExactMatrix.identity(1)] for k in range(n)
    }
    return star_category(objects, homs)


def matrix_category(n: int, name: str = "x") -> ConcreteStarCategory:
    """One object carrying the full n x n matrix algebra."""
    basis = []
    for i in range(n):
        for j in range(n):
            m = [[0] * n for _ in range(n)]
            m[i][j] = 1
            basis.append(ExactMatrix.from_rows(m))
    return star_category([(name, n)], {(name, name): basis})


def zero_category() -> ConcreteStarCategory:
    """One object on the zero space; its identity is the zero map."""
    return star_category([("z", 0)], {("z", "z"): []})


def disjoint_union(a: ConcreteStarCategory, b: ConcreteStarCategory) -> ConcreteStarCategory:
    """Coproduct of two categories; hom spaces across the two halves are
    zero.  Clashing object names are prefixed deterministically."""
    rename = bool(set(a.object_names()) & set(b.object_names()))
    la = (lambda n: f"l.{n}") if rename else (lambda n: n)
    lb = (lambda n: f"r.{n}") if rename else (lambda n: n)
    objects = [(la(o.name), o.dim, o.unit) for o in a.objects] + [
        (lb(o.name), o.dim, o.unit) for o in b.objects
    ]
    homs = {}
    for (s, t), mats in a.homs:
        homs[(la(s), la(t))] = mats
    for (s, t), mats in b.homs:
        homs[(lb(s), lb(t))] = mats
    return star_category(objects, homs)


# --- functors ---------------------------------------------------------


@dataclass(frozen=True)
class StarFunctor:
    """A *-functor from a concrete category to a concrete category or to
    the saturation of one.

    The arrow action is recorded as the images of each canonical hom
    basis element of the source, pair by pair: ambient matrices between
    the image objects' spaces (word spaces for a saturation target).
    """

    source: ConcreteStarCategory
    target: object  # ConcreteStarCategory or completion.LazySaturation
    object_map: tuple  # sorted tuple of (source object, target object)
    arrow_map: tuple  # sorted tuple of ((src, tgt), tuple[ExactMatrix, ...])

    def apply_object(self, name: str):
        for s, t in self.object_map:
            if s == name:
                return t
        raise KeyError(f"functor has no value on object {name!r}")

    def images(self, src: str, tgt: str):
        """The stored images of the canonical basis of Hom(src, tgt)."""
        for pair, mats in self.arrow_map:
            if pair == (src, tgt):
                return mats
        return ()

    def apply(self, src: str, tgt: str, m: ExactMatrix) -> ExactMatrix:
        """Image of an arbitrary element of Hom(src, tgt)."""
        basis = self.source.hom_basis(src, tgt)
        if basis and (m.rows, m.cols) != (basis[0].rows, basis[0].cols):
            raise ShapeError(f"a {m.rows}x{m.cols} matrix is not in hom({src}, {tgt})")
        # Hom bases are canonical: read the coordinates at their pivots.
        coeffs = vector_in_span(m.flatten(), [b.flatten() for b in basis])
        if coeffs is None:
            raise ValueError("matrix is not in the source hom span")
        fs, ft = self.apply_object(src), self.apply_object(tgt)
        images = self.images(src, tgt)
        return combine(coeffs, images, self.target.dim(ft), self.target.dim(fs))


def star_functor(source, target, object_map, arrow_map) -> StarFunctor:
    """Build a StarFunctor from dict-like maps.

    object_map: {source object -> target object}
    arrow_map: {(src, tgt) -> [image of each canonical basis element]}
    Pairs with zero hom space may be omitted.
    """
    om = tuple(sorted(object_map.items(), key=lambda kv: kv[0]))
    for name in source.object_names():
        if name not in object_map:
            raise KeyError(f"object {name!r} has no image")
        if not target.has_object(object_map[name]):
            raise KeyError(f"image object {object_map[name]!r} does not exist")
    am = {}
    for x, y in source.pairs():
        basis = source.hom_basis(x, y)
        if not basis:
            continue
        images = arrow_map.get((x, y))
        if images is None:
            raise KeyError(f"no arrow images for hom({x}, {y})")
        images = tuple(images)
        if len(images) != len(basis):
            raise ValueError(
                f"hom({x}, {y}) needs {len(basis)} images, got {len(images)}"
            )
        rows, cols = target.dim(object_map[y]), target.dim(object_map[x])
        for img in images:
            if img.rows != rows or img.cols != cols:
                raise ShapeError(f"image for hom({x}, {y}) has the wrong shape")
        am[(x, y)] = images
    return StarFunctor(source, target, om, tuple(sorted(am.items())))


def identity_functor(cat: ConcreteStarCategory) -> StarFunctor:
    return star_functor(cat, cat, {x: x for x in cat.object_names()}, dict(cat.homs))


def validate_functor(f: StarFunctor):
    """All ways in which f fails to be a *-functor; empty list if valid.

    Image objects are checked first, through the target's
    ``object_problems``; the functor laws are checked only when every
    image object is sound."""
    problems = []
    src, tgt = f.source, f.target
    for x in src.object_names():
        problems.extend(
            f"image of {x}: {p}" for p in tgt.object_problems(f.apply_object(x))
        )
    if problems:
        return problems

    for x, y in src.pairs():
        basis = src.hom_basis(x, y)
        if not basis:
            continue
        span = tgt.hom_span(f.apply_object(x), f.apply_object(y))
        for b, img in zip(basis, f.images(x, y)):
            if not span.contains(img):
                problems.append(f"image of a hom({x}, {y}) element leaves the target span")
            if f.apply(y, x, b.adjoint()) != img.adjoint():
                problems.append(f"involution not preserved on hom({x}, {y})")

    for x in src.object_names():
        fx = f.apply_object(x)
        if f.apply(x, x, src.unit(x)) != tgt.unit(fx):
            problems.append(f"unit of {x} is not sent to the unit of {fx}")

    for x in src.object_names():
        for y in src.object_names():
            for z in src.object_names():
                for a, fa in zip(src.hom_basis(x, y), f.images(x, y)):
                    for b, fb in zip(src.hom_basis(y, z), f.images(y, z)):
                        if f.apply(x, z, b @ a) != fb @ fa:
                            problems.append(
                                f"composition not preserved on hom({x},{y}) x hom({y},{z})"
                            )
    return problems


def is_valid_functor(f: StarFunctor) -> bool:
    return not validate_functor(f)


def compose_functors(g: StarFunctor, f: StarFunctor) -> StarFunctor:
    """g after f, for f landing in a concrete category: g's source."""
    if f.target is not g.source and f.target != g.source:
        raise ValueError("functors are not composable")
    object_map = {
        x: g.apply_object(f.apply_object(x)) for x in f.source.object_names()
    }
    arrow_map = {}
    for (x, y), images in f.arrow_map:
        fx, fy = f.apply_object(x), f.apply_object(y)
        arrow_map[(x, y)] = [g.apply(fx, fy, img) for img in images]
    return star_functor(f.source, g.target, object_map, arrow_map)


def hom_component_bijective(f: StarFunctor, x: str, y: str) -> bool:
    """Is Hom(x, y) -> Hom(Fx, Fy) a linear bijection?"""
    basis = f.source.hom_basis(x, y)
    fx, fy = f.apply_object(x), f.apply_object(y)
    target_dim = f.target.hom_dim(fx, fy)
    if not basis:
        return target_dim == 0
    image_span = MatrixSpan(f.target.dim(fy), f.target.dim(fx), list(f.images(x, y)))
    return image_span.dim == len(basis) == target_dim


def is_fully_faithful(f: StarFunctor) -> bool:
    return all(hom_component_bijective(f, x, y) for x, y in f.source.pairs())


def is_cofibration(f: StarFunctor) -> bool:
    """Injective on objects."""
    images = [t for _, t in f.object_map]
    return len(set(images)) == len(images)


def is_trivial_fibration(f: StarFunctor) -> bool:
    """Surjective on objects with bijective hom components."""
    targets = {t for _, t in f.object_map}
    if targets != set(f.target.object_names()):
        return False
    return is_fully_faithful(f)
