"""The block-data fast paths against the slow paths they replace.

``is_morita_equivalence`` reads target hom dimensions from the block
classes of the image objects, ``LazySaturation.block_generators``
compresses block by block, and ``decompose`` derives the blocks of a
product probe from those of its two factors.  The oracles here are the
earlier forms: the certificate built from ``len(sat.hom_basis(fx, fy))``,
the hom basis spanned by ``tgt.proj @ g @ src.proj`` over dense
word-sized generators, and the centrality nullspace of a freshly built
probe that is not registered as a block sum.
"""

import gc
import itertools
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

import moritacat
from moritacat.completion import (
    LazySaturation,
    MoritaCertificate,
    ProjObject,
    is_morita_equivalence,
    iota,
    saturation_inclusion_of,
    word_unit,
    zero_proj_object,
)
from moritacat import semisimple
from moritacat.generate import (
    GeneratedCategory,
    conjugate_category,
    graded_realization,
    one_object_forms,
    random_category,
    random_saturation_object,
    random_unitary,
)
from moritacat.homotopy import (
    comparison_functor,
    compose_into_saturation,
    ho_morphism,
    pointwise_sum,
    product_probe_category,
    representative_functor,
    semiadditivity_check,
)
from moritacat.scalar import ExactMatrix, MatrixSpan, from_blocks, matrix
from moritacat.semisimple import (
    SemisimpleForm,
    decompose,
    object_class,
    standard_realization,
)
from moritacat.starcat import (
    StarFunctor,
    coproduct_of_grounds,
    ground_category,
    matrix_category,
    star_category,
    zero_category,
)

E12 = matrix([[0, 1], [0, 0]])


def hom_basis_certificate(functor) -> MoritaCertificate:
    """The decision with the target dimension read off the saturation
    hom basis."""
    if not isinstance(functor.target, LazySaturation):
        functor = saturation_inclusion_of(functor)
    sat = functor.target
    non_bijective = []
    for x, y in functor.source.pairs():
        fx, fy = functor.apply_object(x), functor.apply_object(y)
        target_dim = len(sat.hom_basis(fx, fy))
        image_dim = MatrixSpan(sat.dim(fy), sat.dim(fx), list(functor.images(x, y))).dim
        if not (image_dim == len(functor.source.hom_basis(x, y)) == target_dim):
            non_bijective.append((x, y))
    decomp = decompose(sat.base)
    support = {}
    for x in functor.source.object_names():
        cls = object_class(decomp, functor.apply_object(x))
        for j, block in enumerate(decomp.blocks):
            if cls[j] > 0 and block not in support:
                support[block] = x
    unreached = tuple(b for b in decomp.blocks if b not in support)
    return MoritaCertificate(
        not non_bijective and not unreached,
        tuple(non_bijective),
        unreached,
        tuple(sorted(support.items())),
    )


def dense_generators(sat, src, tgt):
    """tgt.proj @ g @ src.proj for each word-sized block matrix g that
    holds one base basis arrow and zeros elsewhere."""
    base = sat.base
    gens = []
    for i, yi in enumerate(tgt.word):
        for j, xj in enumerate(src.word):
            for b in base.hom_basis(xj, yi):
                grid = [
                    [
                        b if (ii, jj) == (i, j) else ExactMatrix.zeros(base.dim(yy), base.dim(xx))
                        for jj, xx in enumerate(src.word)
                    ]
                    for ii, yy in enumerate(tgt.word)
                ]
                gens.append(tgt.proj @ from_blocks(grid) @ src.proj)
    return gens


def dense_hom_basis(sat, src, tgt):
    return MatrixSpan(sat.dim(tgt), sat.dim(src), dense_generators(sat, src, tgt)).matrices


# --- categories and functors ------------------------------------------

TWO_POINTS = coproduct_of_grounds(2)


def disguised(classes, seed) -> GeneratedCategory:
    """The two-block category of the given object classes (rank-one
    slots), with every object's space rotated by a random unitary."""
    form = SemisimpleForm(("b1", "b2"), classes)
    plain = graded_realization(form, (1, 1))
    rng = Random(seed)
    unis = {x: random_unitary(rng, plain.dim(x)) for x in plain.object_names()}
    return GeneratedCategory(
        conjugate_category(plain, unis), form, (1, 1), tuple(sorted(unis.items()))
    )


DISGUISED = [
    disguised((("x1", (1, 1)), ("x2", (0, 1))), 3),
    disguised((("x1", (1, 2)), ("x2", (1, 0))), 5),
]


def small_categories():
    """Categories of one and two blocks whose image words stay short."""
    return [TWO_POINTS, matrix_category(2)] + [gen.category for gen in DISGUISED]


def class_matrices(rng, ka, kb):
    """Permutation matrices where the shapes allow, a matrix with a zero
    column, and random non-permutation matrices with entries up to 2."""
    out = []
    if ka == kb:
        for perm in itertools.permutations(range(ka)):
            out.append([[int(perm[i] == j) for i in range(ka)] for j in range(kb)])
    zero_col = [[rng.randint(0, 2) for _ in range(ka)] for _ in range(kb)]
    for row in zero_col:
        row[0] = 0
    out.append(zero_col)
    for _ in range(2):
        out.append([[rng.randint(0, 2) for _ in range(ka)] for _ in range(kb)])
    return out


def representative_functors(seed=7):
    rng = Random(seed)
    cats = small_categories()
    out = []
    for a, b in itertools.product(cats, repeat=2):
        fa, fb = decompose(a).form, decompose(b).form
        for rows in class_matrices(rng, fa.k, fb.k):
            out.append(representative_functor(ho_morphism(fa, fb, rows), a, b))
    return out


REPRESENTATIVES = representative_functors()


# --- same certificate ---------------------------------------------------


def test_representative_functors_cover_both_answers():
    answers = {is_morita_equivalence(f).ok for f in REPRESENTATIVES}
    assert answers == {True, False}


@pytest.mark.parametrize("index", range(len(REPRESENTATIVES)))
def test_representative_functor_certificate_matches_hom_basis_oracle(index):
    f = REPRESENTATIVES[index]
    assert is_morita_equivalence(f) == hom_basis_certificate(f)


def test_composites_and_sums_match_hom_basis_oracle():
    rng = Random(11)
    by_source = {}
    for f in REPRESENTATIVES:
        by_source.setdefault(f.source, []).append(f)
    for f in rng.sample(REPRESENTATIVES, 8):
        g = rng.choice(by_source[f.target.base])
        composite = compose_into_saturation(g, f)
        assert is_morita_equivalence(composite) == hom_basis_certificate(composite)
        same_ends = [h for h in by_source[f.source] if h.target == f.target]
        total = pointwise_sum(f, rng.choice(same_ends))
        assert is_morita_equivalence(total) == hom_basis_certificate(total)


@pytest.mark.parametrize(
    "a, b",
    [
        (ground_category(), ground_category()),
        (TWO_POINTS, matrix_category(2)),
        (matrix_category(2), TWO_POINTS),
    ],
)
def test_semiadditivity_comparison_matches_hom_basis_oracle(a, b):
    _, _, functor = comparison_functor(a, b)
    cert = is_morita_equivalence(functor)
    assert cert == hom_basis_certificate(functor)
    assert cert.ok


def test_concrete_functor_matches_hom_basis_oracle():
    cat = small_categories()[2]
    assert is_morita_equivalence(iota(cat)) == hom_basis_certificate(iota(cat))


def test_decision_builds_no_saturation_hom(monkeypatch):
    expected = [hom_basis_certificate(f) for f in REPRESENTATIVES[:12]]

    def refuse(self, src, tgt):
        raise AssertionError("the decision asked for a saturation hom basis")

    monkeypatch.setattr(LazySaturation, "hom_basis", refuse)
    got = [is_morita_equivalence(f) for f in REPRESENTATIVES[:12]]
    assert got == expected
    _, _, functor = comparison_functor(TWO_POINTS, matrix_category(2))
    assert is_morita_equivalence(functor).ok


# --- same basis ---------------------------------------------------------


def saturation_pairs():
    """Object pairs with repeated letters, the empty word, a rank-zero
    projection and zero hom spaces between distinct points."""
    pairs = []
    m2 = matrix_category(2)
    xx = ProjObject(("x", "x"), word_unit(m2, ("x", "x")))
    e11 = ProjObject(("x",), matrix([[1, 0], [0, 0]]))
    empty = zero_proj_object()
    pairs += [(m2, xx, xx), (m2, e11, xx), (m2, xx, e11), (m2, empty, xx), (m2, xx, empty)]
    pairs.append((m2, ProjObject(("x",), ExactMatrix.zeros(2, 2)), xx))
    x1 = ProjObject(("x1",), ExactMatrix.identity(1))
    x2x1 = ProjObject(("x2", "x1", "x2"), ExactMatrix.identity(3))
    x2 = ProjObject(("x2", "x2"), ExactMatrix.identity(2))
    pairs += [(TWO_POINTS, x1, x2), (TWO_POINTS, x2x1, x1), (TWO_POINTS, x2x1, x2x1)]
    rng = Random(5)
    for gen in DISGUISED:
        objs = [random_saturation_object(rng, gen, max_word_length=3)[0] for _ in range(4)]
        pairs += [(gen.category, s, t) for s in objs for t in objs]
    return pairs


PAIRS = saturation_pairs()


def test_pairs_include_zero_and_nonzero_hom_spaces():
    dims = [len(dense_hom_basis(LazySaturation(b), s, t)) for b, s, t in PAIRS]
    assert 0 in dims and max(dims) > 1


@pytest.mark.parametrize("index", range(len(PAIRS)))
def test_blockwise_hom_basis_matches_dense_oracle(index):
    base, src, tgt = PAIRS[index]
    sat = LazySaturation(base)
    assert sat.block_generators(src, tgt) == dense_generators(sat, src, tgt)
    assert sat.hom_basis(src, tgt) == dense_hom_basis(sat, src, tgt)


def test_hom_span_is_the_memoized_span():
    base, src, tgt = PAIRS[0]
    sat = LazySaturation(base)
    span = sat.hom_span(src, tgt)
    assert sat.hom_span(src, tgt) is span
    assert span.matrices is sat.hom_basis(src, tgt)


# --- the guard ----------------------------------------------------------

GUARD_SCRIPT = """
from moritacat.completion import LazySaturation, ProjObject, is_morita_equivalence
from moritacat.scalar import matrix
from moritacat.starcat import StarFunctor, ground_category, matrix_category

e12 = matrix([[0, 1], [0, 0]])
bad = StarFunctor(
    ground_category(),
    LazySaturation(matrix_category(2)),
    (("x", ProjObject(("x",), e12)),),
    ((("x", "x"), (e12,)),),
)
try:
    is_morita_equivalence(bad)
except ValueError as exc:
    print(exc)
else:
    raise SystemExit("no refusal")
"""


def non_idempotent_image_functor():
    # E12 squares to zero, so (x, E12) is not an object of the
    # saturation; StarFunctor is built directly, with no checks.
    return StarFunctor(
        ground_category(),
        LazySaturation(matrix_category(2)),
        (("x", ProjObject(("x",), E12)),),
        ((("x", "x"), (E12,)),),
    )


def test_unvalidated_image_object_is_refused():
    with pytest.raises(ValueError, match="image of x: .*projection is not idempotent"):
        is_morita_equivalence(non_idempotent_image_functor())


def child_env():
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(Path(moritacat.__file__).resolve().parents[1]),
        "PYTHONDONTWRITEBYTECODE": "1",
    }


def test_refusal_survives_python_O():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", GUARD_SCRIPT],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "image of x: " in proc.stdout
    assert "projection is not idempotent" in proc.stdout


# --- the product probe's blocks, derived from its factors ----------------

CENSUS = [standard_realization(f) for f in one_object_forms(3, 2)]
CENSUS_PAIRS = list(itertools.combinations_with_replacement(CENSUS, 2))


def disguised_pairs():
    """Ten disguised draws, each beside the ground category, on
    alternate sides."""
    rng = Random(5)
    draws = [
        random_category(rng, max_blocks=3, max_mult=2, max_objects=2).category
        for _ in range(10)
    ]
    return [(d, ground_category()) if i % 2 else (ground_category(), d) for i, d in enumerate(draws)]


EDGE_PAIRS = [
    (ground_category(), ground_category()),
    (ground_category(), zero_category()),
    (zero_category(), ground_category()),
    (zero_category(), zero_category()),
]
PROBE_PAIRS = CENSUS_PAIRS + disguised_pairs() + EDGE_PAIRS


def canonicalized(cat):
    """The same declarations, built with re-eliminated hom bases."""
    return star_category([(o.name, o.dim, o.unit) for o in cat.objects], dict(cat.homs))


def block_fields(d):
    return d.blocks, d.object_mult, d.unit_ranks, d.centrals


def test_placed_bases_are_already_canonical():
    assert len(CENSUS_PAIRS) == 105
    for a, b in CENSUS_PAIRS + EDGE_PAIRS:
        coproduct, probe, _ = comparison_functor(a, b)
        assert probe == canonicalized(probe)
        assert coproduct == canonicalized(coproduct)


@pytest.mark.parametrize("index", range(len(PROBE_PAIRS)))
def test_derived_probe_blocks_match_elimination(index):
    a, b = PROBE_PAIRS[index]
    probe = product_probe_category(a, b)
    assert id(probe) in semisimple.BLOCK_SUM_FACTORS
    derived = decompose.__wrapped__(probe)
    fresh = canonicalized(probe)
    assert id(fresh) not in semisimple.BLOCK_SUM_FACTORS
    eliminated = decompose.__wrapped__(fresh)
    assert block_fields(derived) == block_fields(eliminated)


MUTATION_SCRIPT = """
from moritacat import semisimple
from moritacat.homotopy import product_probe_category
from moritacat.scalar import CertificateError
from moritacat.semisimple import Decomposition, SemisimpleForm, decompose, standard_realization
from moritacat.starcat import ground_category

a = standard_realization(SemisimpleForm(("b1", "b2"), (("x", (1, 2)),)))
d = decompose(a)
z1, z2 = d.centrals
swapped = Decomposition(a, d.blocks, (z2, z1), d.object_mult, d.unit_ranks)
dropped = Decomposition(a, d.blocks[:1], (z1,), {"x": d.object_mult["x"][:1]}, d.unit_ranks[:1])
g = decompose(ground_category())
for bad in (swapped, dropped):
    for first, second in ((bad, g), (g, bad)):
        probe = product_probe_category(first.category, second.category)
        pairs = semisimple.BLOCK_SUM_FACTORS[id(probe)][2]
        try:
            semisimple._block_sum_decomposition(probe, first, second, pairs)
        except CertificateError as exc:
            print(exc)
        else:
            raise SystemExit("no refusal")
"""


def assert_four_refusals(out):
    lines = out.splitlines()
    assert len(lines) == 4
    assert sum("block data does not match" in line for line in lines) == 2
    assert sum("summing to the unit" in line for line in lines) == 2


def test_derivation_refuses_a_swapped_or_dropped_factor_block(capsys):
    exec(compile(MUTATION_SCRIPT, "<mutation>", "exec"), {})
    assert_four_refusals(capsys.readouterr().out)


def test_derivation_refusal_survives_python_O():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", MUTATION_SCRIPT],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert_four_refusals(proc.stdout)


def test_probe_registry_keeps_no_dropped_probe():
    # The benchmark's tracer reads decompose.cache_info.
    assert callable(decompose.cache_info)
    a, b = TWO_POINTS, matrix_category(2)
    decompose(product_probe_category(a, b))
    gc.collect()
    registered = len(semisimple.BLOCK_SUM_FACTORS)
    hits = decompose.cache_info().hits
    assert semiadditivity_check(a, b).ok
    assert decompose.cache_info().hits > hits
    gc.collect()
    assert len(semisimple.BLOCK_SUM_FACTORS) == registered
    probe = product_probe_category(matrix_category(3), coproduct_of_grounds(3))
    assert len(semisimple.BLOCK_SUM_FACTORS) == registered + 1
    del probe
    gc.collect()
    assert len(semisimple.BLOCK_SUM_FACTORS) == registered


def test_registration_is_by_identity_and_outlives_an_equal_probe():
    a, b = TWO_POINTS, matrix_category(2)
    first, second = product_probe_category(a, b), product_probe_category(a, b)
    assert first == second and first is not second
    assert id(canonicalized(second)) not in semisimple.BLOCK_SUM_FACTORS
    del first
    gc.collect()
    assert semisimple.BLOCK_SUM_FACTORS[id(second)][:2] == (a, b)
