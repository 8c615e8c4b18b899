"""Group completion, K-theory, tensor products, and the K-ring.

The hom monoids of the homotopy category are free commutative, hence
cancellative, so group completion is the passage from matrices over the
natural numbers to matrices over the integers — no quotient
construction is needed.  K₀ of a category is the group completion of
the hom monoid from the point category: the free abelian group on the
blocks, with the positive cone of genuine objects and the class of
each declared object recorded.

The tensor product acts on semisimple forms (blocks multiply pairwise,
classes multiply as outer products, row-major block order) and is
realized concretely on categories by Kronecker products, which the
tests decompose as an independent check.  The external K₀ pairing is
the Kronecker product of class vectors, and for categories of
commutative product form the diagonal multiplication functor makes K₀
a commutative ring — pointwise multiplication with unit the class of
the category's own identity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .completion import ProjObject, validate_proj_object
# The group-completed operations are the class-matrix operations of
# homotopy, re-exported here under their gc_* names.
from .homotopy import (
    ClassMatrix,
    GcMorphism,
    HoHomMonoid,
    _as_form,
    class_of_functor,
    gc_add,
    gc_compose,
    gc_identity,
    gc_inverse,
    gc_is_iso,
    gc_morphism,
    gc_negate,
    gc_subtract,
    gc_zero,
    ho_identity,
    ho_morphism,
    hom_monoid,
)
from .scalar import kron as matrix_kron
from .semisimple import SemisimpleForm, decompose, object_class
from .starcat import ConcreteStarCategory, ground_category, star_category


class NotCommutativeProductForm(ValueError):
    """The input is not recognized as a finite product of copies of the
    base field (some block meets some object with multiplicity > 1)."""


# ---------------------------------------------------------------------------
# group completion


def group_complete(f: ClassMatrix) -> ClassMatrix:
    """The canonical map into the group completion: the same matrix,
    read over the integers.  It is injective because the underlying
    monoids are cancellative."""
    return f


@dataclass(frozen=True)
class GcHomGroup:
    """The group completion of a hom monoid: the free abelian group on
    the same generators, containing the monoid as its positive cone."""

    monoid: HoHomMonoid

    @property
    def rank(self) -> int:
        return self.monoid.rank

    @property
    def shape(self):
        return self.monoid.shape

    def complete(self, f: ClassMatrix) -> ClassMatrix:
        if (
            f.source_form != self.monoid.source_form
            or f.target_form != self.monoid.target_form
        ):
            raise ValueError("morphism does not live in this hom monoid")
        return group_complete(f)

    def difference(self, f: ClassMatrix, g: ClassMatrix) -> ClassMatrix:
        return gc_subtract(self.complete(f), self.complete(g))


def group_complete_monoid(monoid: HoHomMonoid) -> GcHomGroup:
    return GcHomGroup(monoid)


# ---------------------------------------------------------------------------
# K0


@dataclass(frozen=True)
class K0Group:
    """K₀ of a category: the group completion of the hom monoid from
    the point category.  Free abelian on the blocks; elements are
    integer vectors, the positive cone the vectors with no negative
    entry (the classes of genuine objects)."""

    form: SemisimpleForm
    monoid: HoHomMonoid  # Hom(point, A): shape (k, 1)

    @property
    def rank(self) -> int:
        return self.form.k

    @property
    def blocks(self):
        return self.form.blocks

    def is_element(self, v) -> bool:
        return len(v) == self.rank and all(isinstance(e, int) for e in v)

    def in_cone(self, v) -> bool:
        return self.is_element(v) and all(e >= 0 for e in v)

    @property
    def generators(self):
        return ho_identity(self.form).mult

    def class_of(self, name: str):
        """The K₀ class of a declared object: its multiplicity vector."""
        return tuple(int(e) for e in self.form.class_of(name))

    @property
    def object_classes(self):
        return tuple((n, tuple(int(e) for e in c)) for n, c in self.form.object_classes)


def k0(a) -> K0Group:
    """K₀ as the co-represented functor: the group-completed hom monoid
    from the point category, which is free abelian on the blocks."""
    form = _as_form(a)
    point = decompose(ground_category()).form
    return K0Group(form, hom_monoid(point, form))


def k0_class(cat: ConcreteStarCategory, p: ProjObject):
    """The K₀ class of a saturation object: its per-block rank vector.
    Invariant under unitaries of the saturation and under corner
    inclusions; rejects invalid projections."""
    problems = validate_proj_object(cat, p)
    if problems:
        raise ValueError("; ".join(problems))
    return tuple(int(e) for e in object_class(decompose(cat), p))


def k0_map(functor) -> ClassMatrix:
    """Naturality of K₀: the integer matrix a functor induces on K₀
    groups (the group completion of its homotopy class)."""
    return group_complete(class_of_functor(functor))


# ---------------------------------------------------------------------------
# tensor products


def _pair_label(x: str, y: str) -> str:
    return f"({x},{y})"


def tensor(a, b) -> SemisimpleForm:
    """The tensor product of semisimple forms: blocks are pairs in
    row-major order (first factor major), and the class of a pair of
    objects is the outer product of their classes, flattened the same
    way."""
    fa, fb = _as_form(a), _as_form(b)
    blocks = tuple(
        _pair_label(ba, bb) for ba in fa.blocks for bb in fb.blocks
    )
    object_classes = []
    for x, cx in fa.object_classes:
        for y, cy in fb.object_classes:
            flat = tuple(mx * my for mx in cx for my in cy)
            object_classes.append((_pair_label(x, y), flat))
    return SemisimpleForm(blocks, tuple(object_classes))


def tensor_category(
    a: ConcreteStarCategory, b: ConcreteStarCategory
) -> ConcreteStarCategory:
    """The concrete Kronecker realization of the tensor product:
    objects are pairs with product ambient dimension, homs are spanned
    by Kronecker products of hom basis elements."""
    decls = []
    for x in a.object_names():
        for y in b.object_names():
            decls.append(
                (
                    _pair_label(x, y),
                    a.dim(x) * b.dim(y),
                    matrix_kron(a.unit(x), b.unit(y)),
                )
            )
    homs = {}
    for x1, x2 in a.pairs():
        fa = a.hom_basis(x1, x2)
        if not fa:
            continue
        for y1, y2 in b.pairs():
            fb = b.hom_basis(y1, y2)
            if not fb:
                continue
            homs[(_pair_label(x1, y1), _pair_label(x2, y2))] = [
                matrix_kron(f, g) for f in fa for g in fb
            ]
    return star_category(decls, homs)


def k0_pairing(ga: K0Group, a_vec, gb: K0Group, b_vec):
    """The external pairing K₀(A) ⊗ K₀(B) -> K₀(A⊗B): the Kronecker
    product of class vectors in the tensor block order."""
    if not ga.is_element(a_vec):
        raise ValueError(f"not an element of a rank-{ga.rank} K0 group: {a_vec!r}")
    if not gb.is_element(b_vec):
        raise ValueError(f"not an element of a rank-{gb.rank} K0 group: {b_vec!r}")
    return tuple(ma * mb for ma in a_vec for mb in b_vec)


# ---------------------------------------------------------------------------
# the ring structure on commutative product forms


def is_commutative_product_form(a) -> bool:
    """True iff every block meets every object with multiplicity at
    most one — the forms of finite products of copies of the base
    field."""
    form = _as_form(a)
    return all(m <= 1 for _, c in form.object_classes for m in c)


@dataclass(frozen=True)
class K0Ring:
    """K₀ of a commutative product form as a ring: multiplication is
    the pairing into the tensor square followed by K₀ of the diagonal
    multiplication functor."""

    group: K0Group
    multiplication_class: ClassMatrix  # class of the multiplication functor

    @property
    def rank(self) -> int:
        return self.group.rank

    def unit(self):
        """The class of the identity: (1, ..., 1)."""
        return (1,) * self.rank

    def multiply(self, u, v):
        k = self.rank
        square = k0_pairing(self.group, u, self.group, v)
        m = self.multiplication_class.mult
        return tuple(
            sum(m[i][c] * square[c] for c in range(k * k)) for i in range(k)
        )


def k0_ring(a) -> K0Ring:
    """The ring structure on K₀ of a finite product of base fields.

    The multiplication functor A⊗A -> A exists exactly when every
    block is one-dimensional as seen from every object; its class
    matrix is the diagonal selector (block (i,i) of the tensor square
    maps to block i, off-diagonal pairs to zero), which makes the
    product pointwise with unit (1, ..., 1)."""
    form = _as_form(a)
    if not is_commutative_product_form(form):
        raise NotCommutativeProductForm(
            "some block meets an object with multiplicity > 1; "
            "the input is not a product of base fields"
        )
    square = tensor(form, form)
    k = form.k
    rows = [
        [1 if c == i * k + i else 0 for c in range(k * k)] for i in range(k)
    ]
    return K0Ring(k0(form), ho_morphism(square, form, rows))
