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
import weakref
from dataclasses import dataclass

from .completion import (
    ExtendedFunctor,
    LazySaturation,
    MoritaCertificate,
    canonical_sum,
    is_morita_equivalence,
    materialize_full_subcategory,
    saturation_functor,
    saturation_inclusion_of,
    word_dim,
)
from .scalar import (
    ZERO,
    CertificateError,
    ExactMatrix,
    block_diag,
    combine,
    span_membership,
)
from .semisimple import (
    BLOCK_SUM_FACTORS,
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
class ClassMatrix:
    """A morphism of the homotopy category or of its group completion in
    normal form: an integer matrix with one row per target block and one
    column per source block.  The hom monoids are free commutative, hence
    cancellative, so group completion is the same matrix read over the
    integers; the effective matrices (natural entries) are the homotopy
    morphisms, and the zero matrix is the zero map (factoring through the
    zero object)."""

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
                if not isinstance(e, int):
                    raise ValueError("matrix entries must be integers")

    @property
    def shape(self):
        return (self.target_form.k, self.source_form.k)

    def entry(self, j: int, i: int) -> int:
        return self.mult[j][i]

    def is_zero(self) -> bool:
        return all(e == 0 for row in self.mult for e in row)

    def is_effective(self) -> bool:
        """True iff every entry is a natural number: the matrix is a
        homotopy morphism, not only a formal difference of two."""
        return all(e >= 0 for row in self.mult for e in row)

    def __repr__(self):
        return f"ClassMatrix({list(map(list, self.mult))})"


HoMorphism = GcMorphism = ClassMatrix


def gc_morphism(source_form, target_form, rows) -> ClassMatrix:
    return ClassMatrix(
        source_form, target_form, tuple(tuple(int(e) for e in r) for r in rows)
    )


def ho_morphism(source_form, target_form, rows) -> ClassMatrix:
    """An effective class matrix; a negative entry raises ValueError."""
    h = gc_morphism(source_form, target_form, rows)
    if not h.is_effective():
        raise ValueError("matrix entries must be natural numbers")
    return h


def ho_identity(form: SemisimpleForm) -> ClassMatrix:
    k = form.k
    return ClassMatrix(
        form, form, tuple(tuple(1 if i == j else 0 for i in range(k)) for j in range(k))
    )


def ho_zero(source_form, target_form) -> ClassMatrix:
    return ClassMatrix(
        source_form,
        target_form,
        tuple((0,) * source_form.k for _ in range(target_form.k)),
    )


def ho_compose(g: ClassMatrix, f: ClassMatrix) -> ClassMatrix:
    """g after f: the matrix product."""
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
    return ClassMatrix(f.source_form, g.target_form, rows)


def ho_add(f: ClassMatrix, g: ClassMatrix) -> ClassMatrix:
    """The direct sum: entrywise addition (the class of the pointwise
    direct-sum functor)."""
    if f.source_form != g.source_form or f.target_form != g.target_form:
        raise ValueError("homotopy morphisms of different shapes cannot be added")
    rows = tuple(
        tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(f.mult, g.mult)
    )
    return ClassMatrix(f.source_form, f.target_form, rows)


def gc_negate(f: ClassMatrix) -> ClassMatrix:
    return ClassMatrix(
        f.source_form, f.target_form, tuple(tuple(-e for e in row) for row in f.mult)
    )


def gc_subtract(f: ClassMatrix, g: ClassMatrix) -> ClassMatrix:
    return ho_add(f, gc_negate(g))


gc_identity, gc_zero, gc_compose, gc_add = ho_identity, ho_zero, ho_compose, ho_add


def _is_unit_vector(v) -> bool:
    return sorted(v) == [0] * (len(v) - 1) + [1]


def ho_is_iso(f: ClassMatrix) -> bool:
    """True iff the matrix is a square permutation matrix (every row and
    every column a unit vector) — the only matrices invertible over the
    natural numbers."""
    if f.source_form.k != f.target_form.k:
        return False
    return all(map(_is_unit_vector, f.mult)) and all(map(_is_unit_vector, zip(*f.mult)))


def _det_and_inverse(rows):
    """(det, inverse) of a square integer matrix; the inverse over the
    integers when det = ±1, else None.

    Fraction-free Gauss–Jordan on [A | I] (Bareiss, 1968): at step k each
    other row becomes (pivot·row − row[k]·pivot_row) // previous pivot, a
    division that is always exact.  The left block ends as p·I with
    det = ±p, so the right block is p·A⁻¹.  Returns det 0 at the first
    column without a pivot."""
    n = len(rows)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    prev, sign = 1, 1
    for k in range(n):
        p = next((r for r in range(k, n) if aug[r][k]), None)
        if p is None:
            return 0, None
        if p != k:
            aug[k], aug[p] = aug[p], aug[k]
            sign = -sign
        pivot_row = aug[k]
        piv = pivot_row[k]
        for r in range(n):
            if r != k:
                f = aug[r][k]
                aug[r] = [(piv * e - f * pe) // prev for e, pe in zip(aug[r], pivot_row)]
        prev = piv
    if prev not in (1, -1):
        return sign * prev, None
    return sign * prev, [[e // prev for e in row[n:]] for row in aug]


def gc_is_iso(f: ClassMatrix) -> bool:
    """True iff the matrix is invertible over the integers: |det| = 1."""
    return f.source_form.k == f.target_form.k and _det_and_inverse(f.mult)[1] is not None


def gc_inverse(f: ClassMatrix) -> ClassMatrix:
    """The inverse over the integers."""
    inv = _det_and_inverse(f.mult)[1] if f.source_form.k == f.target_form.k else None
    if inv is None:
        raise ValueError("not an isomorphism")
    return gc_morphism(f.target_form, f.source_form, inv)


def ho_inverse(f: ClassMatrix) -> ClassMatrix:
    """The inverse of an isomorphism (a permutation matrix, so the
    inverse is its transpose and again effective)."""
    if not ho_is_iso(f):
        raise ValueError("not an isomorphism")
    return gc_morphism(f.target_form, f.source_form, zip(*f.mult))


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

    def generator(self, j: int, i: int) -> ClassMatrix:
        rows = [[0] * self.source_form.k for _ in range(self.target_form.k)]
        rows[j][i] = 1
        return ho_morphism(self.source_form, self.target_form, rows)

    def zero(self) -> ClassMatrix:
        return ho_zero(self.source_form, self.target_form)

    def bounded_elements(self, entry_sum_bound: int):
        """Every morphism whose entries sum to at most the bound, in
        lexicographic order of the flattened matrix."""
        return [
            ho_morphism(self.source_form, self.target_form, rows)
            for rows in _bounded_matrices(*self.shape, entry_sum_bound)
            if sum(map(sum, rows)) <= entry_sum_bound
        ]


def _bounded_matrices(rows: int, cols: int, entry_bound: int):
    """Every rows x cols matrix with entries in 0..entry_bound, as a
    tuple of row tuples, in lexicographic order of the flattened matrix."""
    for flat in itertools.product(range(entry_bound + 1), repeat=rows * cols):
        yield tuple(flat[r * cols : (r + 1) * cols] for r in range(rows))


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


def class_of_functor(f) -> ClassMatrix:
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
    ext = ExtendedFunctor(f)
    ka, kb = len(da.blocks), len(db.blocks)
    cols = []
    for i in range(ka):
        p = minimal_projection(da, i)
        image = ext.apply_object(p)
        cols.append(object_class(db, image))
    rows = tuple(tuple(cols[i][j] for i in range(ka)) for j in range(kb))
    return ClassMatrix(da.form, db.form, rows)


def representative_functor(
    h: ClassMatrix, a: ConcreteStarCategory, b: ConcreteStarCategory
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
        rows = word_dim(b, object_map[y].word)
        cols = word_dim(b, object_map[x].word)
        images = []
        for belt in basis:
            coeffs = span_membership(belt, unit_elements)
            if coeffs is None:
                raise CertificateError("hom element outside matrix-unit span")
            images.append(combine(coeffs, unit_images, rows, cols))
        arrow_map[(x, y)] = images
    return saturation_functor(a, b, object_map, arrow_map)


def compose_into_saturation(g: StarFunctor, f: StarFunctor) -> StarFunctor:
    """The composite A -> Sat(C) of f: A -> Sat(B) and g: B -> Sat(C),
    through the extension of g to Sat(B)."""
    if f.target.base != g.source:
        raise ValueError("functors are not composable")
    ext = ExtendedFunctor(g)
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
        vfx, vgx = isometries[x]
        vfy, vgy = isometries[y]
        arrow_map[(x, y)] = [
            vfy @ fm @ vfx.adjoint() + vgy @ gm @ vgx.adjoint()
            for fm, gm in zip(f.images(x, y), g.images(x, y), strict=True)
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
    if u.adjoint() @ u != o1.proj or u @ u.adjoint() != o2.proj:
        raise CertificateError("the assembled bridge is not a unitary between the objects")
    if not sat.contains_arrow(o1, o2, u):
        raise CertificateError("the assembled bridge is outside the saturation hom space")
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
    generators: tuple  # tuple of ClassMatrix permutation matrices
    label: str
    verified: bool = False
    verify_entry_bound: int = 0


def enumerate_natural_invertibles(k: int, entry_bound: int):
    """Every k x k matrix with entries up to the bound that has an
    inverse with natural-number entries — exactly the permutation
    matrices."""
    census = []
    for rows in _bounded_matrices(k, k, entry_bound):
        inv = _det_and_inverse(rows)[1]
        if inv is not None and all(e >= 0 for row in inv for e in row):
            census.append(rows)
    return census


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
        rows = [list(r) for r in ho_identity(form).mult]
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
    with componentwise morphisms.  The placed bases stay canonical; the
    registered probe's blocks are derived from those of a and b."""
    pairs = [
        (x, y)
        for x in list(a.object_names()) + [None]
        for y in list(b.object_names()) + [None]
    ]

    def dims(x, y):
        return (a.dim(x) if x is not None else 0, b.dim(y) if y is not None else 0)

    decls = []
    for x, y in pairs:
        units = [c.unit(z) for c, z in ((a, x), (b, y)) if z is not None]
        decls.append((_pair_name(x, y), sum(dims(x, y)), block_diag(units)))
    homs = {}
    for x1, y1 in pairs:
        for x2, y2 in pairs:
            (dx1, dy1), (dx2, dy2) = dims(x1, y1), dims(x2, y2)
            basis = []
            if x1 is not None and x2 is not None:
                zero = ExactMatrix.zeros(dy2, dy1)
                basis.extend(block_diag([f, zero]) for f in a.hom_basis(x1, x2))
            if y1 is not None and y2 is not None:
                zero = ExactMatrix.zeros(dx2, dx1)
                basis.extend(block_diag([zero, g]) for g in b.hom_basis(y1, y2))
            if basis:
                homs[(_pair_name(x1, y1), _pair_name(x2, y2))] = basis
    probe = star_category(decls, homs, canonicalize=False)
    BLOCK_SUM_FACTORS[id(probe)] = (a, b, tuple(pairs))
    weakref.finalize(probe, BLOCK_SUM_FACTORS.pop, id(probe), None)
    return probe


def comparison_functor(a: ConcreteStarCategory, b: ConcreteStarCategory):
    """The canonical functor from the coproduct into the product
    probes: x -> (x, 0) and y -> (0, y).  The coproduct is the full
    subcategory of the probes on those objects.  Returns (coproduct,
    product probes, functor)."""
    product = product_probe_category(a, b)
    names = {_pair_name(x, None) for x in a.object_names()}
    names.update(_pair_name(None, y) for y in b.object_names())
    coproduct = star_category(
        [(o.name, o.dim, o.unit) for o in product.objects if o.name in names],
        {(x, y): m for (x, y), m in product.homs if x in names and y in names},
        canonicalize=False,
    )
    functor = star_functor(
        coproduct,
        product,
        {name: name for name in coproduct.object_names()},
        dict(coproduct.homs),
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
