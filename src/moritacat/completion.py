"""Additive hulls, idempotent completion, and the lazy saturation.

Objects of the saturation of a base category are pairs (word, p): a
formal word of base objects together with a projection matrix on the
direct sum of their spaces whose blocks lie in the base hom spans.  The
morphisms (w, p) -> (w', p') are the matrices p' m p with block entries
in the base spans; the identity of (w, p) is p itself.

The saturation is infinite, so it is never materialized as a whole:
``LazySaturation`` computes hom spaces on demand and memoizes them
(write-once, safe for concurrent readers).  Finite full subcategories
can be materialized exactly as unit-bearing concrete categories.

A saturation answers the same target interface as a concrete category
(``dim`` is the word dimension, ``unit`` the object's projection,
``object_problems`` is ``validate_proj_object``), so a functor A ->
Sat(B) is an ordinary ``starcat.StarFunctor`` whose target is a
``LazySaturation``; ``SaturationFunctor`` names that same class.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .scalar import CertificateError, ExactMatrix, MatrixSpan, block_diag, from_blocks
from .starcat import (
    ConcreteStarCategory,
    StarFunctor,
    compose_functors,
    star_category,
    star_functor,
)


@dataclass(frozen=True)
class ProjObject:
    """An object of the saturation: a word of base objects and a
    projection on the direct sum of their spaces."""

    word: tuple  # tuple of base object names
    proj: ExactMatrix

    def __repr__(self):
        return f"ProjObject({list(self.word)}, rank {self.proj.rank()})"


def word_dims(base: ConcreteStarCategory, word):
    return [base.dim(x) for x in word]


def word_dim(base: ConcreteStarCategory, word) -> int:
    return sum(word_dims(base, word))


def word_offsets(base: ConcreteStarCategory, word):
    offsets = [0]
    for x in word:
        offsets.append(offsets[-1] + base.dim(x))
    return offsets


def word_unit(base: ConcreteStarCategory, word) -> ExactMatrix:
    """The block-diagonal of the letters' units: the identity of the
    word object before any compression."""
    if not word:
        return ExactMatrix.zeros(0, 0)
    return block_diag([base.unit(x) for x in word])


def matrix_block(base, src_word, tgt_word, m, i, j) -> ExactMatrix:
    """Block (i, j) of a matrix between word spaces: the component from
    letter j of the source into letter i of the target."""
    r = word_offsets(base, tgt_word)
    c = word_offsets(base, src_word)
    return m.block(r[i], c[j], r[i + 1], c[j + 1])


def validate_proj_object(base: ConcreteStarCategory, obj: ProjObject):
    """All constraint violations of a purported saturation object."""
    problems = []
    for x in obj.word:
        if not base.has_object(x):
            problems.append(f"unknown letter {x!r}")
    if problems:
        return problems
    n = word_dim(base, obj.word)
    if obj.proj.rows != n or obj.proj.cols != n:
        return [f"projection must be {n}x{n}"]
    if obj.proj != obj.proj.adjoint():
        problems.append("projection is not self-adjoint")
    if obj.proj @ obj.proj != obj.proj:
        problems.append("projection is not idempotent")
    for i in range(len(obj.word)):
        for j in range(len(obj.word)):
            blk = matrix_block(base, obj.word, obj.word, obj.proj, i, j)
            if not base.contains_arrow(obj.word[j], obj.word[i], blk):
                problems.append(
                    f"block ({i}, {j}) is outside hom({obj.word[j]}, {obj.word[i]})"
                )
    return problems


def identity_proj_object(base: ConcreteStarCategory, name: str) -> ProjObject:
    """The image of a base object: the one-letter word with its unit."""
    return ProjObject((name,), base.unit(name))


def zero_proj_object() -> ProjObject:
    return ProjObject((), ExactMatrix.zeros(0, 0))


class LazySaturation:
    """Hom spaces of the saturation of a base category, memoized.

    The cache is write-once: a computed hom span is never replaced, so
    concurrent readers may race only on who computes first.
    """

    def __init__(self, base: ConcreteStarCategory):
        self.base = base
        self._cache = {}
        self._lock = threading.Lock()

    def __eq__(self, other):
        if not isinstance(other, LazySaturation):
            return NotImplemented
        return self.base == other.base

    def __hash__(self):
        return hash(self.base)

    def has_object(self, obj: ProjObject) -> bool:
        """Letters name base objects and the projection has the word's
        shape; the projection laws are checked by ``object_problems``."""
        if not all(self.base.has_object(x) for x in obj.word):
            return False
        n = self.dim(obj)
        return obj.proj.rows == n and obj.proj.cols == n

    def dim(self, obj: ProjObject) -> int:
        return word_dim(self.base, obj.word)

    def unit(self, obj: ProjObject) -> ExactMatrix:
        return obj.proj

    def object_problems(self, obj: ProjObject):
        return validate_proj_object(self.base, obj)

    def block_generators(self, src: ProjObject, tgt: ProjObject):
        """Compressed generators of Hom(src, tgt): tgt.proj[:, J_i] @ b @
        src.proj[I_j, :] for each basis arrow b from letter j to letter i,
        which is tgt.proj @ g @ src.proj for b placed alone in block (i, j)."""
        base = self.base
        r = word_offsets(base, tgt.word)
        c = word_offsets(base, src.word)
        columns = [tgt.proj.block(0, r[i], r[-1], r[i + 1]) for i in range(len(tgt.word))]
        rows = [src.proj.block(c[j], 0, c[j + 1], c[-1]) for j in range(len(src.word))]
        return [
            columns[i] @ b @ rows[j]
            for i, yi in enumerate(tgt.word)
            for j, xj in enumerate(src.word)
            for b in base.hom_basis(xj, yi)
        ]

    def hom_basis(self, src: ProjObject, tgt: ProjObject):
        """Canonical echelon basis of Hom(src, tgt) in the saturation; the
        memo keeps its span, which ``hom_span`` hands out as it is."""
        key = (src.word, src.proj, tgt.word, tgt.proj)
        span = self._cache.get(key)
        if span is None:
            span = MatrixSpan(self.dim(tgt), self.dim(src), self.block_generators(src, tgt))
            with self._lock:
                span = self._cache.setdefault(key, span)
        return span.matrices

    def hom_span(self, src: ProjObject, tgt: ProjObject) -> MatrixSpan:
        self.hom_basis(src, tgt)
        return self._cache[(src.word, src.proj, tgt.word, tgt.proj)]

    def hom_dim(self, src: ProjObject, tgt: ProjObject) -> int:
        return len(self.hom_basis(src, tgt))

    def contains_arrow(self, src, tgt, m) -> bool:
        return self.hom_span(src, tgt).contains(m)


# --- canonical sums and ranges ----------------------------------------


def canonical_sum(base: ConcreteStarCategory, objs):
    """The canonical direct sum of saturation objects.

    Returns (sum object, isometries): the word is the concatenation,
    the projection the block diagonal, and isometry k is the block
    column with the k-th projection in slot k.  The isometries satisfy
    v_i* v_j = delta_ij and sum v_k v_k* = identity of the sum, exactly.
    """
    objs = list(objs)
    word = tuple(x for o in objs for x in o.word)
    proj = (
        block_diag([o.proj for o in objs])
        if objs
        else ExactMatrix.zeros(0, 0)
    )
    total = word_dim(base, word)
    isometries = []
    offset = 0
    for o in objs:
        d = word_dim(base, o.word)
        top = ExactMatrix.zeros(offset, d)
        bot = ExactMatrix.zeros(total - offset - d, d)
        col = from_blocks([[top], [o.proj], [bot]]) if total else ExactMatrix.zeros(0, 0)
        isometries.append(col)
        offset += d
    return ProjObject(word, proj), isometries


def canonical_range(base, obj: ProjObject, p: ExactMatrix):
    """The canonical range object of a projection p on obj.

    p must be a projection in End(obj); the range object is (word, p)
    and the inclusion isometry is p itself, viewed as a morphism from
    the range into obj.
    """
    if p != p.adjoint() or p @ p != p:
        raise ValueError("canonical_range needs a projection")
    if p @ obj.proj != p or obj.proj @ p != p:
        raise ValueError("projection is not dominated by the object's identity")
    rng = ProjObject(obj.word, p)
    return rng, p


# --- additive hulls ---------------------------------------------------


def word_name(word) -> str:
    return "[" + ",".join(word) + "]"


@dataclass(frozen=True)
class TruncatedHull:
    """A finite truncation, by word length, of the additive hull of a
    category; the hull proper is the colimit over all lengths."""

    category: ConcreteStarCategory
    embedding: StarFunctor
    words: tuple  # sorted tuple of (object name, word tuple)
    max_word_length: int


def additive_hull(base: ConcreteStarCategory, max_word_length: int) -> TruncatedHull:
    """All formal words of length <= max_word_length with block-matrix
    hom spans; includes the empty word (a zero object)."""
    if max_word_length < 0:
        raise ValueError("max_word_length must be >= 0")
    letters = base.object_names()
    words = [()]
    frontier = [()]
    for _ in range(max_word_length):
        frontier = [w + (x,) for w in frontier for x in letters]
        words.extend(frontier)
    objs = {word_name(w): ProjObject(w, word_unit(base, w)) for w in words}
    category = materialize_full_subcategory(LazySaturation(base), objs)
    sigma = star_functor(
        base, category, {x: word_name((x,)) for x in letters}, dict(base.homs)
    )
    return TruncatedHull(
        category,
        sigma,
        tuple(sorted((n, o.word) for n, o in objs.items())),
        max_word_length,
    )


def materialize_full_subcategory(sat: LazySaturation, named_objects):
    """The full subcategory of the saturation on the given objects,
    as a unit-bearing concrete category.

    named_objects: dict name -> ProjObject.  Each object keeps its word
    space as ambient dimension and its projection as unit.
    """
    decls = []
    for name, o in named_objects.items():
        decls.append((name, word_dim(sat.base, o.word), o.proj))
    homs = {
        (na, nb): sat.hom_basis(oa, ob)
        for na, oa in named_objects.items()
        for nb, ob in named_objects.items()
    }
    return star_category(decls, homs)


# --- functors into a saturation ---------------------------------------

# The old class name, kept only because bench/spans.py looks it up.  The
# traced run therefore wraps StarFunctor.apply twice (a starcat and a
# completion span per call); drop this name with that table entry.
SaturationFunctor = StarFunctor


def saturation_functor(source, target_base, object_map, arrow_map) -> StarFunctor:
    """A functor from ``source`` into the saturation of ``target_base``:
    object images are ProjObjects, arrow images full ambient matrices
    between their word spaces."""
    return star_functor(source, LazySaturation(target_base), object_map, arrow_map)


def iota(base: ConcreteStarCategory) -> StarFunctor:
    """The canonical embedding of a category into its saturation."""
    return saturation_functor(
        base,
        base,
        {x: identity_proj_object(base, x) for x in base.object_names()},
        dict(base.homs),
    )


def saturation_inclusion_of(f: StarFunctor) -> StarFunctor:
    """A concrete functor viewed as landing in the target's saturation."""
    return compose_functors(iota(f.target), f)


class ExtendedFunctor:
    """The extension of a functor A -> Sat(C) to Sat(A) -> Sat(C).

    It acts blockwise: a word is sent to the concatenation of the image
    words, a projection (or any block matrix) to the block matrix of the
    images of its blocks.  Canonical sums go to canonical sums and
    canonical ranges to canonical ranges by construction, and on
    one-letter words with their units it agrees with the functor itself
    (extension o iota = functor on the nose).
    """

    def __init__(self, functor: StarFunctor):
        self.functor = functor

    def apply_object(self, obj: ProjObject) -> ProjObject:
        f = self.functor
        word = tuple(
            x for letter in obj.word for x in f.apply_object(letter).word
        )
        proj = self.apply_arrow(obj, obj, obj.proj)
        if not (proj @ proj == proj and proj == proj.adjoint()):
            raise CertificateError("extension did not produce a projection")
        return ProjObject(word, proj)

    def apply_arrow(self, src: ProjObject, tgt: ProjObject, m: ExactMatrix) -> ExactMatrix:
        f = self.functor
        base = f.source
        if not src.word or not tgt.word:
            rows = sum(f.target.dim(f.apply_object(x)) for x in tgt.word)
            cols = sum(f.target.dim(f.apply_object(x)) for x in src.word)
            return ExactMatrix.zeros(rows, cols)
        grid = []
        for i, yi in enumerate(tgt.word):
            row = []
            for j, xj in enumerate(src.word):
                row.append(
                    f.apply(xj, yi, matrix_block(base, src.word, tgt.word, m, i, j))
                )
            grid.append(row)
        return from_blocks(grid)


# --- the Morita-equivalence decision ----------------------------------


@dataclass(frozen=True)
class MoritaCertificate:
    """Outcome of the Morita-equivalence decision for a functor.

    ok is True iff the functor is fully faithful and every block of the
    target is supported by an object in the image closure.  On success,
    ``support`` maps each target block to a witnessing source object;
    on failure the specific obstruction is recorded.
    """

    ok: bool
    non_bijective_pairs: tuple
    unreached_blocks: tuple
    support: tuple  # tuple of (target block name, source object name)

    def __str__(self):
        if self.ok:
            wit = ", ".join(f"{b}<-{x}" for b, x in self.support)
            return f"Morita equivalence (block support: {wit})"
        parts = []
        if self.non_bijective_pairs:
            parts.append(
                "hom components not bijective: "
                + ", ".join(map(str, self.non_bijective_pairs))
            )
        if self.unreached_blocks:
            parts.append("unreached target blocks: " + ", ".join(self.unreached_blocks))
        return "not a Morita equivalence (" + "; ".join(parts) + ")"


def is_morita_equivalence(functor) -> MoritaCertificate:
    """Decide whether a functor is a Morita equivalence.

    Accepts a functor into a concrete category (upgraded along the
    inclusion of its target into the saturation) or into a saturation.
    The decision is: full faithfulness, plus every block of the (base
    of the) target supported by some image object.  Closing the image
    under sums and ranges reaches exactly the classes supported on the
    blocks the image touches, so block support is the whole closure
    condition.

    No target hom space is built: dim Hom(Fx, Fy) is the dot product of
    the block classes of Fx and Fy, which holds for valid saturation
    objects only, so an image object with ``object_problems`` raises
    ``ValueError``.  The rank of the arrow images is computed exactly.
    """
    from .semisimple import decompose, object_class

    if not isinstance(functor.target, LazySaturation):
        functor = saturation_inclusion_of(functor)

    sat = functor.target
    decomp = decompose(sat.base)
    classes = {}
    support = {}
    for x in functor.source.object_names():
        fx = functor.apply_object(x)
        problems = sat.object_problems(fx)
        if problems:
            raise ValueError(f"image of {x}: " + "; ".join(problems))
        classes[x] = object_class(decomp, fx)
        for j, block in enumerate(decomp.blocks):
            if classes[x][j] > 0:
                support.setdefault(block, x)
    unreached = tuple(b for b in decomp.blocks if b not in support)

    non_bijective = []
    for x, y in functor.source.pairs():
        fx, fy = functor.apply_object(x), functor.apply_object(y)
        target_dim = sum(a * b for a, b in zip(classes[x], classes[y]))
        image_dim = MatrixSpan(sat.dim(fy), sat.dim(fx), list(functor.images(x, y))).dim
        if not (image_dim == len(functor.source.hom_basis(x, y)) == target_dim):
            non_bijective.append((x, y))

    ok = not non_bijective and not unreached
    return MoritaCertificate(
        ok,
        tuple(non_bijective),
        unreached,
        tuple(sorted(support.items())),
    )
