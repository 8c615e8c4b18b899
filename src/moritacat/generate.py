"""Seeded generation of exact test data.

Every generator takes a caller-supplied ``random.Random``, so a single
integer seed reproduces a whole corpus: Gaussian-rational scalars and
matrices, exactly invertible and exactly unitary matrices, idempotents
of known rank, semisimple shapes together with disguised concrete
categories realizing them, collapse functors (trivial fibrations), and
planted lifting squares and pushout cocones with known answers.

Nothing here is part of the mathematical core; the library's own
modules never import this one.  It exists so the test suite can drive
the core on large randomized families without ever leaving exact
arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .completion import (
    LazySaturation,
    ProjObject,
    canonical_sum,
    identity_proj_object,
    materialize_full_subcategory,
    word_offsets,
)
from .homotopy import ClassMatrix, ho_morphism
from .presentations import (
    Assignment,
    LiftSquare,
    RnPushout,
    SumSquare,
    _fresh_name,
    assignment,
    interval_mediator,
    pushout_interval,
    pushout_rn,
)
from .scalar import ExactMatrix, GaussianRational, block_diag, kron
from .semisimple import SemisimpleForm, graded_realization
from .starcat import (
    ConcreteStarCategory,
    StarFunctor,
    identity_functor,
    star_category,
    star_functor,
)


# ---------------------------------------------------------------------------
# scalars and matrices


def random_fraction(rng, bound: int = 3) -> Fraction:
    """A fraction with numerator in [-bound, bound] and denominator in
    [1, bound]."""
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def random_scalar(rng, bound: int = 3) -> GaussianRational:
    """A Gaussian rational with small numerators and denominators;
    roughly half the draws are purely real."""
    real = random_fraction(rng, bound)
    imag = Fraction(0) if rng.randrange(2) else random_fraction(rng, bound)
    return GaussianRational(real, imag)


def random_matrix(rng, rows: int, cols: int, bound: int = 3) -> ExactMatrix:
    return ExactMatrix(
        rows, cols, tuple(random_scalar(rng, bound) for _ in range(rows * cols))
    )


_SCALE_UNITS = (
    GaussianRational(Fraction(-1), Fraction(0)),
    GaussianRational(Fraction(0), Fraction(1)),
    GaussianRational(Fraction(0), Fraction(-1)),
    GaussianRational(Fraction(2), Fraction(0)),
    GaussianRational(Fraction(1, 2), Fraction(0)),
    GaussianRational(Fraction(1), Fraction(1)),
)


def random_invertible(rng, n: int, steps: int = None, bound: int = 2) -> ExactMatrix:
    """An exactly invertible n x n matrix: a product of row swaps,
    shears, and nonzero scalings applied to the identity."""
    m = ExactMatrix.identity(n)
    if n == 0:
        return m
    if steps is None:
        steps = 2 * n + 2
    for _ in range(steps):
        op = rng.randrange(3)
        if op == 0 and n >= 2:
            i, j = rng.sample(range(n), 2)
            rows = [list(m.row(r)) for r in range(n)]
            rows[i], rows[j] = rows[j], rows[i]
            m = ExactMatrix.from_rows(rows)
        elif op == 1 and n >= 2:
            i, j = rng.sample(range(n), 2)
            lam = random_scalar(rng, bound)
            shear = [
                [
                    (1 if r == c else 0) if (r, c) != (i, j) else lam
                    for c in range(n)
                ]
                for r in range(n)
            ]
            m = ExactMatrix.from_rows(shear) @ m
        else:
            i = rng.randrange(n)
            c = _SCALE_UNITS[rng.randrange(len(_SCALE_UNITS))]
            rows = [list(m.row(r)) for r in range(n)]
            rows[i] = [c * v for v in rows[i]]
            m = ExactMatrix.from_rows(rows)
    return m


def random_idempotent(rng, n: int, rank: int = None) -> ExactMatrix:
    """A (generally non-self-adjoint) idempotent: a rank-r coordinate
    projection conjugated by a random invertible matrix."""
    if rank is None:
        rank = rng.randint(0, n)
    s = random_invertible(rng, n)
    d = ExactMatrix.diagonal([1] * rank + [0] * (n - rank))
    return s @ d @ s.inverse()


# Exactly unitary 2x2 rotation cosine/sine pairs.
_ROTATIONS = (
    (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(5, 13), Fraction(12, 13)),
    (Fraction(8, 17), Fraction(15, 17)),
    (Fraction(20, 29), Fraction(21, 29)),
)

_PHASES = (
    GaussianRational(Fraction(1), Fraction(0)),
    GaussianRational(Fraction(-1), Fraction(0)),
    GaussianRational(Fraction(0), Fraction(1)),
    GaussianRational(Fraction(0), Fraction(-1)),
)


def random_unitary(rng, n: int, steps: int = None) -> ExactMatrix:
    """An exactly unitary n x n matrix over the Gaussian rationals: a
    product of slot permutations, fourth-root-of-unity phase diagonals,
    and plane rotations with rational cosine and sine."""
    u = ExactMatrix.identity(n)
    if n == 0:
        return u
    if steps is None:
        steps = n + 2
    for _ in range(steps):
        op = rng.randrange(3)
        if op == 0:
            perm = list(range(n))
            rng.shuffle(perm)
            rows = [
                [1 if c == perm[r] else 0 for c in range(n)] for r in range(n)
            ]
            u = ExactMatrix.from_rows(rows) @ u
        elif op == 1:
            u = (
                ExactMatrix.diagonal(
                    [_PHASES[rng.randrange(len(_PHASES))] for _ in range(n)]
                )
                @ u
            )
        elif n >= 2:
            i, j = sorted(rng.sample(range(n), 2))
            cos, sin = _ROTATIONS[rng.randrange(len(_ROTATIONS))]
            rows = [
                [Fraction(1) if r == c else Fraction(0) for c in range(n)]
                for r in range(n)
            ]
            rows[i][i], rows[i][j] = cos, sin
            rows[j][i], rows[j][j] = -sin, cos
            u = ExactMatrix.from_rows(rows) @ u
    return u


def random_projection(rng, n: int, rank: int = None) -> ExactMatrix:
    """A self-adjoint idempotent: a rank-r coordinate projection
    conjugated by a random exact unitary."""
    if rank is None:
        rank = rng.randint(0, n)
    u = random_unitary(rng, n)
    d = ExactMatrix.diagonal([1] * rank + [0] * (n - rank))
    return u @ d @ u.adjoint()


# ---------------------------------------------------------------------------
# semisimple shapes and disguised realizations


def random_form(
    rng,
    max_blocks: int = 3,
    max_mult: int = 2,
    max_objects: int = 3,
    min_mult: int = 0,
) -> SemisimpleForm:
    """A random semisimple shape: 1..max_blocks blocks, 1..max_objects
    objects, multiplicities in [min_mult, max_mult], with every block
    met by at least one object."""
    k = rng.randint(1, max_blocks)
    count = rng.randint(1, max_objects)
    classes = [
        [rng.randint(min_mult, max_mult) for _ in range(k)] for _ in range(count)
    ]
    for j in range(k):
        if all(c[j] == 0 for c in classes):
            classes[rng.randrange(count)][j] = rng.randint(1, max_mult)
    return SemisimpleForm(
        tuple(f"b{j + 1}" for j in range(k)),
        tuple((f"x{i + 1}", tuple(c)) for i, c in enumerate(classes)),
    )


def one_object_forms(max_blocks: int = 3, max_mult: int = 2):
    """Every one-object semisimple shape with at most max_blocks blocks
    and positive multiplicities at most max_mult, in a deterministic
    order."""
    out = []
    for k in range(1, max_blocks + 1):
        for mults in itertools.product(range(1, max_mult + 1), repeat=k):
            out.append(
                SemisimpleForm(
                    tuple(f"b{j + 1}" for j in range(k)), (("x", mults),)
                )
            )
    return out


def conjugate_category(cat: ConcreteStarCategory, unitaries) -> ConcreteStarCategory:
    """The same category in disguised coordinates: every object's space
    is rotated by its unitary, so hom spans become u_y m u_x*."""
    for x, u in unitaries.items():
        if u.adjoint() @ u != ExactMatrix.identity(cat.dim(x)):
            raise ValueError(f"the matrix for {x!r} is not unitary")
    objs = []
    for o in cat.objects:
        u = unitaries.get(o.name, ExactMatrix.identity(o.dim))
        objs.append((o.name, o.dim, u @ o.unit @ u.adjoint()))
    homs = {}
    for (s, t), mats in cat.homs:
        us = unitaries.get(s, ExactMatrix.identity(cat.dim(s)))
        ut = unitaries.get(t, ExactMatrix.identity(cat.dim(t)))
        homs[(s, t)] = [ut @ m @ us.adjoint() for m in mats]
    return star_category(objs, homs)


@dataclass(frozen=True)
class GeneratedCategory:
    """A concrete category together with the data that built it: its
    semisimple shape, the ambient rank of each block's multiplicity
    slot, and the per-object change-of-basis unitaries.  The extra data
    lets tests manufacture projections and unitaries that provably lie
    in the category's hom spans."""

    category: ConcreteStarCategory
    form: SemisimpleForm
    block_ranks: tuple
    unitaries: tuple  # sorted tuple of (object name, ExactMatrix)

    def unitary_of(self, name: str) -> ExactMatrix:
        for n, u in self.unitaries:
            if n == name:
                return u
        raise KeyError(f"no unitary recorded for {name!r}")

    def slot_pattern(self, name: str, selection) -> ExactMatrix:
        """The diagonal 0/1 matrix, in the undisguised coordinates,
        that keeps exactly the selected multiplicity slots."""
        cls = self.form.class_of(name)
        if len(selection) != len(cls):
            raise ValueError("one slot tuple per block is required")
        entries = []
        for sel, mult, r in zip(selection, cls, self.block_ranks):
            if len(sel) != mult:
                raise ValueError("slot tuple length must match the multiplicity")
            for keep in sel:
                entries.extend([1 if keep else 0] * r)
        return ExactMatrix.diagonal(entries)

    def span_projection(self, name: str, selection) -> ExactMatrix:
        """The projection onto the selected multiplicity slots,
        transported to the category's coordinates.  Always lies in the
        endomorphism span of the object."""
        u = self.unitary_of(name)
        return u @ self.slot_pattern(name, selection) @ u.adjoint()

    def random_selection(self, rng, name: str):
        return tuple(
            tuple(rng.randrange(2) for _ in range(mult))
            for mult in self.form.class_of(name)
        )

    @staticmethod
    def selection_class(selection):
        return tuple(sum(sel) for sel in selection)

    def random_span_projection(self, rng, name: str):
        """A random in-span projection on the object, returned with its
        block class vector."""
        selection = self.random_selection(rng, name)
        return self.span_projection(name, selection), self.selection_class(selection)

    def random_span_unitary(self, rng, name: str) -> ExactMatrix:
        """A random unitary inside the endomorphism span: blockwise a
        unitary mixing the multiplicity slots, constant on each slot's
        ambient copies, transported to the category's coordinates."""
        parts = []
        for mult, r in zip(self.form.class_of(name), self.block_ranks):
            parts.append(kron(random_unitary(rng, mult), ExactMatrix.identity(r)))
        core = block_diag(parts)
        u = self.unitary_of(name)
        return u @ core @ u.adjoint()


def random_category(
    rng,
    max_blocks: int = 3,
    max_mult: int = 2,
    max_objects: int = 3,
    max_rank: int = 1,
    min_mult: int = 0,
    conjugate: bool = True,
) -> GeneratedCategory:
    """A random concrete category of known shape: a graded realization
    of a random semisimple form, optionally disguised by a random exact
    unitary on every object's space."""
    form = random_form(rng, max_blocks, max_mult, max_objects, min_mult)
    ranks = tuple(rng.randint(1, max_rank) for _ in range(form.k))
    plain = graded_realization(form, ranks)
    if conjugate:
        unis = {x: random_unitary(rng, plain.dim(x)) for x in plain.object_names()}
    else:
        unis = {
            x: ExactMatrix.identity(plain.dim(x)) for x in plain.object_names()
        }
    cat = conjugate_category(plain, unis)
    return GeneratedCategory(cat, form, ranks, tuple(sorted(unis.items())))


# ---------------------------------------------------------------------------
# saturation samples


def random_saturation_object(rng, gen: GeneratedCategory, max_word_length: int = 2):
    """A random object of the saturation of a generated category: a
    word in the category's objects with one in-span slot-selection
    projection per letter.  Returns (object, selections)."""
    names = gen.category.object_names()
    length = rng.randint(0, max_word_length)
    word = tuple(names[rng.randrange(len(names))] for _ in range(length))
    selections = tuple(gen.random_selection(rng, x) for x in word)
    parts = [gen.span_projection(x, sel) for x, sel in zip(word, selections)]
    return ProjObject(word, block_diag(parts)), selections


def sub_projection(rng, gen: GeneratedCategory, word, selections) -> ExactMatrix:
    """A random projection dominated by the slot-selection object on
    the given word: per letter, keep a random subset of the already
    selected slots."""
    parts = []
    for x, sel in zip(word, selections):
        smaller = tuple(
            tuple(keep and rng.randrange(2) for keep in block) for block in sel
        )
        parts.append(gen.span_projection(x, smaller))
    return block_diag(parts)


# ---------------------------------------------------------------------------
# homotopy-morphism samples


def random_ho_morphism(
    rng, source_form: SemisimpleForm, target_form: SemisimpleForm, entry_bound: int = 2
) -> ClassMatrix:
    rows = tuple(
        tuple(rng.randint(0, entry_bound) for _ in range(source_form.k))
        for _ in range(target_form.k)
    )
    return ho_morphism(source_form, target_form, rows)


# ---------------------------------------------------------------------------
# collapse functors and planted lifting squares


def collapse_functor(rng, cat: ConcreteStarCategory, copies: int = 1) -> StarFunctor:
    """A trivial fibration onto the category: adjoin ``copies``
    unitarily isomorphic duplicates of randomly chosen objects, then
    collapse every duplicate back onto its original."""
    f = identity_functor(cat)
    for _ in range(copies):
        names = f.source.object_names()
        y = names[rng.randrange(len(names))]
        po = pushout_interval(f.source, y)
        image = f.apply_object(y)
        f = interval_mediator(po, f, image, cat.unit(image))
    return f


def random_projection_assignment(rng, gen: GeneratedCategory, n: int) -> Assignment:
    """A random representation of the n x n projection-matrix
    presentation in the generated category: block diagonal, with one
    in-span projection per randomly chosen object."""
    base = gen.category
    names = base.object_names()
    chosen = [names[rng.randrange(len(names))] for _ in range(n)]
    objects = {f"o{i + 1}": chosen[i] for i in range(n)}
    arrows = {}
    for i in range(n):
        q, _ = gen.random_span_projection(rng, chosen[i])
        for j in range(n):
            if i == j:
                arrows[f"p{i + 1}_{j + 1}"] = q
            else:
                arrows[f"p{i + 1}_{j + 1}"] = ExactMatrix.zeros(
                    base.dim(chosen[i]), base.dim(chosen[j])
                )
    return assignment(base, objects, arrows)


@dataclass(frozen=True)
class RangeSquareScenario:
    """A planted range-object lifting problem: the square commutes by
    construction and the functor, a collapse onto the pushout category,
    is a trivial fibration, so a lift must exist."""

    base: ConcreteStarCategory
    pushout: RnPushout
    functor: StarFunctor
    square: LiftSquare


def planted_range_square(
    rng, gen: GeneratedCategory, n: int, copies: int = 1
) -> RangeSquareScenario:
    base = gen.category
    g = random_projection_assignment(rng, gen, n)
    po = pushout_rn(base, g)
    f = collapse_functor(rng, po.category, copies=copies)
    top = assignment(
        f.source, {v: o for v, o in g.objects}, {a: m for a, m in g.arrows}
    )
    return RangeSquareScenario(base, po, f, LiftSquare(n, top, po.bottom))


@dataclass(frozen=True)
class SumSquareScenario:
    """A planted direct-sum lifting problem, built over a category that
    contains the canonical sum object by construction."""

    base: ConcreteStarCategory
    category: ConcreteStarCategory
    functor: StarFunctor
    square: SumSquare
    sum_object: str


def planted_sum_square(
    rng, gen: GeneratedCategory, n: int, copies: int = 1
) -> SumSquareScenario:
    if n < 1:
        raise ValueError("direct-sum squares need at least one summand")
    base = gen.category
    names = base.object_names()
    chosen = [names[rng.randrange(len(names))] for _ in range(n)]
    parts = [identity_proj_object(base, x) for x in chosen]
    total, isometries = canonical_sum(base, parts)
    sum_name = _fresh_name(names, "sum")
    named = {x: identity_proj_object(base, x) for x in names}
    named[sum_name] = total
    cat = materialize_full_subcategory(LazySaturation(base), named)
    f = collapse_functor(rng, cat, copies=copies)
    top = assignment(f.source, {f"o{i + 1}": chosen[i] for i in range(n)}, {})
    bottom_objects = {f"o{i + 1}": chosen[i] for i in range(n)}
    bottom_objects[f"s({n})"] = sum_name
    bottom = assignment(
        cat,
        bottom_objects,
        {f"v{i + 1}": isometries[i] for i in range(n)},
    )
    return SumSquareScenario(base, cat, f, SumSquare(n, top, bottom), sum_name)


# ---------------------------------------------------------------------------
# randomized cocones for range-object pushouts


@dataclass(frozen=True)
class RangeCocone:
    """A randomized competing cocone for a range-object pushout: the
    original category maps into an extension containing a scrambled
    copy of the range — the word permuted and the projection conjugated
    by an in-span unitary — so the mediating functor must hit exactly
    that copy."""

    category: ConcreteStarCategory
    t0: StarFunctor
    t1: Assignment
    range_name: str
    transport: ExactMatrix


def random_range_cocone(rng, gen: GeneratedCategory, po: RnPushout) -> RangeCocone:
    base = gen.category
    n, word = po.n, po.word
    order = list(range(len(word)))
    rng.shuffle(order)
    new_word = tuple(word[p] for p in order)
    old_offsets = word_offsets(base, word)
    new_offsets = word_offsets(base, new_word)
    total = old_offsets[-1]
    rows = [[0] * total for _ in range(total)]
    for j, p in enumerate(order):
        for t in range(base.dim(word[p])):
            rows[new_offsets[j] + t][old_offsets[p] + t] = 1
    perm = ExactMatrix.from_rows(rows) if total else ExactMatrix.zeros(0, 0)
    mixer = block_diag([gen.random_span_unitary(rng, x) for x in word])
    transport = perm @ mixer
    scrambled = ProjObject(new_word, transport @ po.proj @ transport.adjoint())
    range_name = _fresh_name(base.object_names(), "rr")
    named = {x: identity_proj_object(base, x) for x in base.object_names()}
    named[range_name] = scrambled
    cat = materialize_full_subcategory(LazySaturation(base), named)
    t0 = star_functor(base, cat, {x: x for x in base.object_names()}, dict(base.homs))
    objects = {f"o{i}": po.g.object_of(f"o{i}") for i in range(1, n + 1)}
    objects[f"r({n})"] = range_name
    arrows = {
        f"s{i}": transport @ po.bottom.matrix_of(f"s{i}") for i in range(1, n + 1)
    }
    t1 = assignment(cat, objects, arrows)
    return RangeCocone(cat, t0, t1, range_name, transport)
