"""The homotopy-category calculus on block multiplicity matrices.

Up to unitary natural isomorphism, a functor between decomposable
categories is classified by a matrix of natural numbers: entry (j, i)
counts how many copies of target block j appear in the image of a
minimal projection of source block i.  This module works with those
matrices directly — composition is matrix product, the direct sum is
entrywise addition, isomorphisms are permutation matrices — and can
produce an explicit representative functor for any matrix, classify a
given functor, and compare the two routes.

Also here: the free-commutative-monoid description of a hom-set, the
automorphism (Picard) group of a category — the symmetric group on its
blocks, optionally re-derived by bounded enumeration of matrices
invertible over the natural numbers — exact unitary-isomorphism
witnesses between saturation objects, and the coproduct-versus-product
comparison that verifies semi-additivity.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .completion import (
    LazySaturation,
    MoritaCertificate,
    canonical_sum,
    extend_along_iota,
    is_morita_equivalence,
    materialize_full_subcategory,
    saturation_functor,
    saturation_inclusion_of,
    word_dim,
)
from .scalar import ExactMatrix, ZERO, span_membership
from .semisimple import (
    Decomposition,
    SemisimpleForm,
    decompose,
    matrix_units,
    minimal_projection,
    object_class,
    slot_bridge,
)
from .starcat import ConcreteStarCategory, StarFunctor, star_category, star_functor


# ---------------------------------------------------------------------------
# morphisms of the homotopy category


@dataclass(frozen=True)
class HoMorphism:
    """A homotopy-category morphism in normal form: a matrix over the
    natural numbers with one row per target block and one column per
    source block.  Every such matrix is a valid morphism; the zero
    matrix is the zero map (factoring through the zero object)."""

    source_form: SemisimpleForm
    target_form: SemisimpleForm
    mult: tuple  # tuple of rows, each a tuple of ints; shape k_target x k_source

    def __post_init__(self):
        kb, ka = self.target_form.k, self.source_form.k
        if len(self.mult) != kb:
            raise ValueError(f"expected {kb} rows, got {len(self.mult)}")
        for row in self.mult:
            if len(row) != ka:
                raise ValueError(f"expected rows of length {ka}")
            for e in row:
                if not isinstance(e, int) or e < 0:
                    raise ValueError("matrix entries must be natural numbers")

    @property
    def shape(self):
        return (self.target_form.k, self.source_form.k)

    def entry(self, j: int, i: int) -> int:
        return self.mult[j][i]

    def is_zero(self) -> bool:
        return all(e == 0 for row in self.mult for e in row)

    def __repr__(self):
        return f"HoMorphism({list(map(list, self.mult))})"


def ho_morphism(source_form, target_form, rows) -> HoMorphism:
    return HoMorphism(
        source_form, target_form, tuple(tuple(int(e) for e in r) for r in rows)
    )


def ho_identity(form: SemisimpleForm) -> HoMorphism:
    k = form.k
    return HoMorphism(
        form, form, tuple(tuple(1 if i == j else 0 for i in range(k)) for j in range(k))
    )


def ho_zero(source_form, target_form) -> HoMorphism:
    return HoMorphism(
        source_form,
        target_form,
        tuple((0,) * source_form.k for _ in range(target_form.k)),
    )


def ho_compose(g: HoMorphism, f: HoMorphism) -> HoMorphism:
    """g after f: the matrix product over the natural numbers."""
    if g.source_form != f.target_form:
        raise ValueError("homotopy morphisms are not composable")
    kb = f.target_form.k
    rows = tuple(
        tuple(
            sum(g.mult[j][m] * f.mult[m][i] for m in range(kb))
            for i in range(f.source_form.k)
        )
        for j in range(g.target_form.k)
    )
    return HoMorphism(f.source_form, g.target_form, rows)


def ho_add(f: HoMorphism, g: HoMorphism) -> HoMorphism:
    """The direct sum: entrywise addition (the class of the pointwise
    direct-sum functor)."""
    if f.source_form != g.source_form or f.target_form != g.target_form:
        raise ValueError("homotopy morphisms of different shapes cannot be added")
    rows = tuple(
        tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(f.mult, g.mult)
    )
    return HoMorphism(f.source_form, f.target_form, rows)


def _is_permutation_matrix(rows) -> bool:
    n = len(rows)
    if any(len(r) != n for r in rows):
        return False
    target = [0] * (n - 1) + [1]
    for r in rows:
        if sorted(r) != target:
            return False
    for j in range(n):
        col = [rows[i][j] for i in range(n)]
        if sorted(col) != target:
            return False
    return True


def ho_is_iso(f: HoMorphism) -> bool:
    """True iff the matrix is a square permutation matrix — the only
    matrices invertible over the natural numbers."""
    if f.source_form.k != f.target_form.k:
        return False
    n = f.source_form.k
    if n == 0:
        return True
    return _is_permutation_matrix([list(r) for r in f.mult])


def ho_inverse(f: HoMorphism) -> HoMorphism:
    """The inverse of an isomorphism: the transpose."""
    if not ho_is_iso(f):
        raise ValueError("not an isomorphism")
    n = f.source_form.k
    rows = tuple(tuple(f.mult[i][j] for i in range(n)) for j in range(n))
    return HoMorphism(f.target_form, f.source_form, rows)


# ---------------------------------------------------------------------------
# the hom monoid


@dataclass(frozen=True)
class HoHomMonoid:
    """The hom-set of the homotopy category as a free commutative
    monoid: one generator per (target block, source block) pair."""

    source_form: SemisimpleForm
    target_form: SemisimpleForm

    @property
    def shape(self):
        return (self.target_form.k, self.source_form.k)

    @property
    def rank(self) -> int:
        return self.source_form.k * self.target_form.k

    @property
    def generator_labels(self):
        return tuple(
            (self.target_form.blocks[j], self.source_form.blocks[i])
            for j in range(self.target_form.k)
            for i in range(self.source_form.k)
        )

    def generator(self, j: int, i: int) -> HoMorphism:
        rows = [[0] * self.source_form.k for _ in range(self.target_form.k)]
        rows[j][i] = 1
        return ho_morphism(self.source_form, self.target_form, rows)

    def zero(self) -> HoMorphism:
        return ho_zero(self.source_form, self.target_form)

    def bounded_elements(self, entry_sum_bound: int):
        """Every morphism whose entries sum to at most the bound, in
        lexicographic order of the flattened matrix."""
        kb, ka = self.target_form.k, self.source_form.k
        cells = kb * ka
        out = []
        for flat in itertools.product(range(entry_sum_bound + 1), repeat=cells):
            if sum(flat) > entry_sum_bound:
                continue
            rows = [flat[r * ka : (r + 1) * ka] for r in range(kb)]
            out.append(ho_morphism(self.source_form, self.target_form, rows))
        return out


def _as_form(x) -> SemisimpleForm:
    if isinstance(x, SemisimpleForm):
        return x
    if isinstance(x, Decomposition):
        return x.form
    return decompose(x).form


def hom_monoid(a, b) -> HoHomMonoid:
    """The hom monoid from a to b (categories, decompositions, or
    forms)."""
    return HoHomMonoid(_as_form(a), _as_form(b))


# ---------------------------------------------------------------------------
# classifying functors


def class_of_functor(f) -> HoMorphism:
    """The normal form of a functor into a saturation: entry (j, i) is
    the multiplicity of target block j in the image of a minimal
    projection of source block i.

    Accepts a functor A -> Sat(B) or a concrete functor A -> B (which
    is upgraded along the inclusion of B into its saturation)."""
    if not isinstance(f, StarFunctor):
        raise TypeError("expected a functor into a saturation")
    if not isinstance(f.target, LazySaturation):
        f = saturation_inclusion_of(f)
    da = decompose(f.source)
    db = decompose(f.target.base)
    ext = extend_along_iota(f)
    ka, kb = len(da.blocks), len(db.blocks)
    cols = []
    for i in range(ka):
        p = minimal_projection(da, i)
        image = ext.apply_object(p)
        cols.append(object_class(db, image))
    rows = tuple(tuple(cols[i][j] for i in range(ka)) for j in range(kb))
    return HoMorphism(da.form, db.form, rows)


def representative_functor(
    h: HoMorphism, a: ConcreteStarCategory, b: ConcreteStarCategory
) -> StarFunctor:
    """The canonical functor A -> Sat(B) in the class of h.

    Each copy of source block i inside an object is sent to the
    canonical sum of h.mult[j][i] copies of the block-j minimal
    projection of B, for every j in block order; matrix units of A go
    to the matching bridges between those summands.
    """
    da, db = decompose(a), decompose(b)
    if da.form != h.source_form or db.form != h.target_form:
        raise ValueError("the matrix does not connect the forms of these categories")
    ka, kb = len(da.blocks), len(db.blocks)
    units = [matrix_units(da, i) for i in range(ka)]
    min_projs = [minimal_projection(db, j) for j in range(kb)]

    def layout(x):
        out = []
        for i in range(ka):
            for copy in range(da.object_mult[x][i]):
                out.append((i, copy))
        return out

    # Each layout slot (i, copy) expands to sub-summands (j, m) for
    # every target block j and m < h.mult[j][i].
    def sub_slots(i):
        return [(j, m) for j in range(kb) for m in range(h.mult[j][i])]

    object_map = {}
    summand_lists = {}
    for x in a.object_names():
        summands = []
        for i, _ in layout(x):
            summands.extend(min_projs[j] for j, _ in sub_slots(i))
        obj, _ = canonical_sum(b, summands)
        object_map[x] = obj
        summand_lists[x] = summands

    def summand_offsets(x):
        offs = [0]
        for po in summand_lists[x]:
            offs.append(offs[-1] + word_dim(b, po.word))
        return offs

    def flat_index(x, slot, sub):
        lay = layout(x)
        s = lay.index(slot)
        i = slot[0]
        before = sum(len(sub_slots(ii)) for ii, _ in lay[:s])
        return before + sub_slots(i).index(sub)

    def unit_image(x, y, i, c_src, c_tgt):
        rows = word_dim(b, object_map[y].word)
        cols = word_dim(b, object_map[x].word)
        offx, offy = summand_offsets(x), summand_offsets(y)
        ents = [[ZERO] * cols for _ in range(rows)]
        for j, m in sub_slots(i):
            p = min_projs[j].proj
            fx = flat_index(x, (i, c_src), (j, m))
            fy = flat_index(y, (i, c_tgt), (j, m))
            for r in range(p.rows):
                for c in range(p.cols):
                    ents[offy[fy] + r][offx[fx] + c] = p.entry(r, c)
        if rows and cols:
            return ExactMatrix.from_rows(ents)
        return ExactMatrix.zeros(rows, cols)

    arrow_map = {}
    for x, y in a.pairs():
        basis = a.hom_basis(x, y)
        if not basis:
            continue
        unit_elements = []
        unit_images = []
        for i in range(ka):
            mu = units[i]
            for sa, (ya, ca) in enumerate(mu.slots):
                if ya != y:
                    continue
                for sb, (xb, cb) in enumerate(mu.slots):
                    if xb != x:
                        continue
                    unit_elements.append(mu.unit(sa, sb))
                    unit_images.append(unit_image(x, y, i, cb, ca))
        images = []
        for belt in basis:
            coeffs = span_membership(belt, unit_elements)
            assert coeffs is not None, "hom element outside matrix-unit span"
            acc = ExactMatrix.zeros(
                word_dim(b, object_map[y].word), word_dim(b, object_map[x].word)
            )
            for coef, img in zip(coeffs, unit_images):
                if not coef.is_zero():
                    acc = acc + img.scale(coef)
            images.append(acc)
        arrow_map[(x, y)] = images
    return saturation_functor(a, b, object_map, arrow_map)


def compose_into_saturation(g: StarFunctor, f: StarFunctor) -> StarFunctor:
    """The composite A -> Sat(C) of f: A -> Sat(B) and g: B -> Sat(C),
    through the extension of g to Sat(B)."""
    if f.target.base != g.source:
        raise ValueError("functors are not composable")
    ext = extend_along_iota(g)
    object_map = {
        x: ext.apply_object(f.apply_object(x)) for x in f.source.object_names()
    }
    arrow_map = {}
    for x, y in f.source.pairs():
        if not f.source.hom_basis(x, y):
            continue
        fx, fy = f.apply_object(x), f.apply_object(y)
        arrow_map[(x, y)] = [
            ext.apply_arrow(fx, fy, img) for img in f.images(x, y)
        ]
    return star_functor(f.source, g.target, object_map, arrow_map)


def pointwise_sum(f: StarFunctor, g: StarFunctor) -> StarFunctor:
    """The pointwise direct sum x -> F(x) (+) G(x), realized on
    canonical sums; its class is the entrywise sum of the classes."""
    if f.source != g.source or f.target != g.target:
        raise ValueError("functors with different ends cannot be summed")
    a, b = f.source, f.target.base
    object_map = {}
    isometries = {}
    for x in a.object_names():
        total, (vf, vg) = canonical_sum(b, [f.apply_object(x), g.apply_object(x)])
        object_map[x] = total
        isometries[x] = (vf, vg)
    arrow_map = {}
    for x, y in a.pairs():
        basis = a.hom_basis(x, y)
        if not basis:
            continue
        vfx, vgx = isometries[x]
        vfy, vgy = isometries[y]
        arrow_map[(x, y)] = [
            vfy @ f.apply(x, y, m) @ vfx.adjoint()
            + vgy @ g.apply(x, y, m) @ vgx.adjoint()
            for m in basis
        ]
    return saturation_functor(a, b, object_map, arrow_map)


def saturation_iso_witness(base: ConcreteStarCategory, o1, o2):
    """An exact unitary between two saturation objects, or None.

    The two objects are materialized as a two-object category, whose
    block decomposition decides the question: equal per-block classes
    give a unitary assembled from matrix-unit bridges, different
    classes certify that no unitary exists (the ranks of the central
    compressions differ).  May raise WitnessObstruction on exotically
    realized inputs whose bridge scalings are not norms."""
    sat = LazySaturation(base)
    sub = materialize_full_subcategory(sat, {"a": o1, "b": o2})
    d = decompose(sub)
    c1, c2 = object_class(d, "a"), object_class(d, "b")
    if c1 != c2:
        return None
    k = len(d.blocks)
    units = [matrix_units(d, i) for i in range(k)]
    zero_off = tuple(0 for _ in range(k))
    u = slot_bridge(units, "a", zero_off, "b", zero_off, c1)
    if u is None:
        u = ExactMatrix.zeros(word_dim(base, o2.word), word_dim(base, o1.word))
    assert u.adjoint() @ u == o1.proj
    assert u @ u.adjoint() == o2.proj
    assert sat.contains_arrow(o1, o2, u)
    return u


# ---------------------------------------------------------------------------
# the automorphism (Picard) group


@dataclass(frozen=True)
class PicardGroup:
    """The automorphism group of a category in the homotopy category:
    the symmetric group on its blocks, given by adjacent-transposition
    generators and its order."""

    form: SemisimpleForm
    order: int
    generators: tuple  # tuple of HoMorphism permutation matrices
    label: str
    verified: bool = False
    verify_entry_bound: int = 0


def _rational_inverse(rows):
    """Exact inverse of an integer matrix over the rationals, or None."""
    n = len(rows)
    aug = [
        [Fraction(e) for e in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [e / pv for e in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [e - factor * p for e, p in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _invertible_over_naturals(rows) -> bool:
    inv = _rational_inverse(rows)
    if inv is None:
        return False
    return all(e.denominator == 1 and e >= 0 for row in inv for e in row)


def enumerate_natural_invertibles(k: int, entry_bound: int):
    """Every k x k matrix with entries up to the bound that has an
    inverse with natural-number entries — exactly the permutation
    matrices."""
    found = []
    for flat in itertools.product(range(entry_bound + 1), repeat=k * k):
        rows = [list(flat[r * k : (r + 1) * k]) for r in range(k)]
        if _invertible_over_naturals(rows):
            found.append(tuple(tuple(r) for r in rows))
    return found


def aut_group(a, verify: bool = False, verify_entry_bound: int = 2) -> PicardGroup:
    """The automorphism group of a category in the homotopy category:
    the full symmetric group on its blocks.

    With verify=True the group is re-derived by enumerating all
    matrices with entries up to the bound and keeping those invertible
    over the natural numbers; the census must consist of exactly the
    k! permutation matrices."""
    form = _as_form(a)
    k = form.k
    generators = []
    for t in range(k - 1):
        rows = [[0] * k for _ in range(k)]
        for j in range(k):
            rows[j][j] = 1
        rows[t][t] = rows[t + 1][t + 1] = 0
        rows[t][t + 1] = rows[t + 1][t] = 1
        generators.append(ho_morphism(form, form, rows))
    order = math.factorial(k)
    verified = False
    if verify:
        census = enumerate_natural_invertibles(k, verify_entry_bound)
        if len(census) != order:
            raise AssertionError(
                f"enumeration found {len(census)} invertible matrices, expected {order}"
            )
        for rows in census:
            if not ho_is_iso(ho_morphism(form, form, rows)):
                raise AssertionError("enumeration found a non-permutation invertible")
        verified = True
    return PicardGroup(
        form, order, tuple(generators), f"S_{k}", verified, verify_entry_bound if verify else 0
    )


# ---------------------------------------------------------------------------
# semi-additivity: coproduct versus product


def _pair_name(x, y):
    return f"({x if x is not None else 0},{y if y is not None else 0})"


def product_probe_category(
    a: ConcreteStarCategory, b: ConcreteStarCategory
) -> ConcreteStarCategory:
    """A finite family of probe objects of the product of the two
    saturations: all pairs (x or 0, y or 0), realized block-diagonally
    with componentwise morphisms."""
    pairs = [
        (x, y)
        for x in list(a.object_names()) + [None]
        for y in list(b.object_names()) + [None]
    ]
    decls = []
    for x, y in pairs:
        dx = a.dim(x) if x is not None else 0
        dy = b.dim(y) if y is not None else 0
        unit = [[ZERO] * (dx + dy) for _ in range(dx + dy)]
        if x is not None:
            ua = a.unit(x)
            for r in range(dx):
                for c in range(dx):
                    unit[r][c] = ua.entry(r, c)
        if y is not None:
            ub = b.unit(y)
            for r in range(dy):
                for c in range(dy):
                    unit[dx + r][dx + c] = ub.entry(r, c)
        decls.append(
            (
                _pair_name(x, y),
                dx + dy,
                ExactMatrix.from_rows(unit)
                if dx + dy
                else ExactMatrix.zeros(0, 0),
            )
        )
    homs = {}
    for x1, y1 in pairs:
        for x2, y2 in pairs:
            d1 = (a.dim(x1) if x1 is not None else 0) + (
                b.dim(y1) if y1 is not None else 0
            )
            d2 = (a.dim(x2) if x2 is not None else 0) + (
                b.dim(y2) if y2 is not None else 0
            )
            dx1 = a.dim(x1) if x1 is not None else 0
            dx2 = a.dim(x2) if x2 is not None else 0
            basis = []
            if x1 is not None and x2 is not None:
                for f in a.hom_basis(x1, x2):
                    m = [[ZERO] * d1 for _ in range(d2)]
                    for r in range(f.rows):
                        for c in range(f.cols):
                            m[r][c] = f.entry(r, c)
                    basis.append(ExactMatrix.from_rows(m))
            if y1 is not None and y2 is not None:
                for g in b.hom_basis(y1, y2):
                    m = [[ZERO] * d1 for _ in range(d2)]
                    for r in range(g.rows):
                        for c in range(g.cols):
                            m[dx2 + r][dx1 + c] = g.entry(r, c)
                    basis.append(ExactMatrix.from_rows(m))
            if basis:
                homs[(_pair_name(x1, y1), _pair_name(x2, y2))] = basis
    return star_category(decls, homs)


def comparison_functor(a: ConcreteStarCategory, b: ConcreteStarCategory):
    """The canonical functor from the coproduct into the product
    probes: x -> (x, 0) and y -> (0, y).  Returns (coproduct, product
    probes, functor)."""
    decls = []
    homs = {}
    for x in a.object_names():
        decls.append((_pair_name(x, None), a.dim(x), a.unit(x)))
    for y in b.object_names():
        decls.append((_pair_name(None, y), b.dim(y), b.unit(y)))
    for x1, x2 in a.pairs():
        basis = a.hom_basis(x1, x2)
        if basis:
            homs[(_pair_name(x1, None), _pair_name(x2, None))] = basis
    for y1, y2 in b.pairs():
        basis = b.hom_basis(y1, y2)
        if basis:
            homs[(_pair_name(None, y1), _pair_name(None, y2))] = basis
    coproduct = star_category(decls, homs)
    product = product_probe_category(a, b)
    functor = star_functor(
        coproduct,
        product,
        {name: name for name in coproduct.object_names()},
        {
            (s, t): list(coproduct.hom_basis(s, t))
            for s, t in coproduct.pairs()
            if coproduct.hom_basis(s, t)
        },
    )
    return coproduct, product, functor


def semiadditivity_check(
    a: ConcreteStarCategory, b: ConcreteStarCategory
) -> MoritaCertificate:
    """Verify that the canonical map from the coproduct to the product
    is a Morita equivalence on the probe family: fully faithful with
    every product block supported by an image object."""
    _, _, functor = comparison_functor(a, b)
    return is_morita_equivalence(functor)
