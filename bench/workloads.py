"""The benchmark's three workloads: inputs, operations and checks.

Every workload is a fixed list of operations made from the seed before
any timing starts.  A list is a whole number of rounds; each round has
the same make-up (the same shapes and the same mix of operations), and
the seed draws the disguising unitaries, the class matrices and the
pairings.  Fixing the shapes keeps the cost of a round nearly the same
from seed to seed; drawing the shapes too made the figures spread.

An operation is a callable run inside the timer and a check run
outside it.  A check returns ``None`` when the result is right,
``FAILED`` when the operation hit a known fault, or a message when the
result is wrong.  Checks compare with facts the generator knows or with
closed formulas computed here, never with stored output.

The library is reached through module attributes at call time, so that
the traced run sees the wrapped functions.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
from fractions import Fraction

from moritacat import cli, completion, homotopy, jsonio, semisimple
from moritacat import generate as gen
from moritacat.scalar import ExactMatrix, GaussianRational
from moritacat.semisimple import SemisimpleForm

FAILED = "failed"

# A run attempts at least this many operations, so that op_p90_ms has
# ten samples beyond it.
MIN_OPS = 100


def whole_rounds(make_round, rounds):
    """At least ``rounds`` rounds, and as many more as MIN_OPS needs."""
    ops = []
    done = 0
    while done < rounds or len(ops) < MIN_OPS:
        ops.extend(make_round(done))
        done += 1
    return ops


class Op:
    """An operation.  ``fault`` marks an operation that hits a known fault
    of the program: only such an operation may count as failed."""

    __slots__ = ("kind", "call", "check", "corrupt", "in_bytes", "fault")

    def __init__(self, kind, call, check, corrupt, in_bytes=0, fault=False):
        self.kind = kind
        self.call = call
        self.check = check
        self.corrupt = corrupt
        self.in_bytes = in_bytes
        self.fault = fault


class Workload:
    def __init__(self, name, ops, warmup):
        self.name = name
        self.ops = ops
        self.warmup = warmup
        self.emitted_bytes = 0


def form(*classes, prefix="x"):
    """A semisimple form from per-object class vectors."""
    k = len(classes[0])
    return SemisimpleForm(
        tuple(f"b{j + 1}" for j in range(k)),
        tuple((f"{prefix}{i + 1}", tuple(c)) for i, c in enumerate(classes)),
    )


PHASES = tuple(GaussianRational(Fraction(re), Fraction(im))
               for re, im in ((1, 0), (-1, 0), (0, 1), (0, -1)))


def disguise_unitary(rng, n):
    """An exact unitary of fixed arithmetic size: a random permutation of
    coordinates, random fourth roots of unity, and rotations by the
    angle with cosine 3/5, one in dimension 2 and two in different
    coordinate planes above it (two in one plane could cancel).

    ``generate.random_unitary`` draws how many rotations to apply, and
    with them the size of every entry; the cost of a decision follows
    that size (three times slower on the same shapes), so the benchmark
    fixes it."""
    perm = list(range(n))
    rng.shuffle(perm)
    u = ExactMatrix.from_rows(
        [[PHASES[rng.randrange(4)] if c == perm[r] else 0 for c in range(n)]
         for r in range(n)]
    )
    planes = list(itertools.combinations(range(n), 2))
    for i, j in rng.sample(planes, min(2, len(planes))):
        sin = Fraction(4, 5) * rng.choice((1, -1))
        rows = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
        rows[i][i], rows[i][j] = Fraction(3, 5), sin
        rows[j][i], rows[j][j] = -sin, Fraction(3, 5)
        u = ExactMatrix.from_rows(rows) @ u
    return u


class Disguiser:
    """Graded realizations of fixed shapes, disguised by random exact
    unitaries: the recipe of ``generate.random_category`` with the form
    and block ranks given instead of drawn.  A category that has already
    been handed out is drawn again, so that no input appears in two
    operations and ``decompose`` cannot answer from its cache.  Every
    shape used below has at least 40 distinct disguises."""

    def __init__(self, rng):
        self.rng = rng
        self.seen = set()

    def __call__(self, shape):
        f, ranks = shape
        plain = gen.graded_realization(f, ranks)
        for _ in range(1000):
            unis = {x: disguise_unitary(self.rng, plain.dim(x)) for x in plain.object_names()}
            cat = gen.conjugate_category(plain, unis)
            if cat not in self.seen:
                self.seen.add(cat)
                return gen.GeneratedCategory(cat, f, tuple(ranks), tuple(sorted(unis.items())))
        raise RuntimeError(f"no fresh disguise of {f} with block ranks {ranks}")


def same_up_to_block_order(found, expected):
    """True when the class vectors agree after some permutation of the
    blocks.  Both map object names to tuples."""
    if set(found) != set(expected):
        return False
    k = len(next(iter(expected.values()), ()))
    if any(len(v) != k for v in found.values()):
        return False
    return any(
        all(tuple(found[x][p] for p in perm) == tuple(expected[x]) for x in expected)
        for perm in itertools.permutations(range(k))
    )


def matmul(g, f):
    return tuple(
        tuple(sum(g[j][m] * f[m][i] for m in range(len(f))) for i in range(len(f[0])))
        for j in range(len(g))
    )


def matadd(f, g):
    return tuple(tuple(a + b for a, b in zip(r, s)) for r, s in zip(f, g))


def is_permutation(h):
    return (
        len(h) == len(h[0])
        and all(sorted(row) == [0] * (len(row) - 1) + [1] for row in h)
        and all(sorted(col) == [0] * (len(col) - 1) + [1] for col in zip(*h))
    )


def flip(h):
    """The class matrix with its first entry changed by one."""
    rows = [list(r) for r in h]
    rows[0][0] = rows[0][0] + 1 if rows[0][0] == 0 else rows[0][0] - 1
    return tuple(tuple(r) for r in rows)


# ---------------------------------------------------------------------------
# morita-decide


# Shapes whose blocks all have multiplicity at most one.  For these the
# witness construction needs no search for minimal projections and no
# norm equation, so an equivalent pair always gets a witness.  Every
# shape has a block of rank two or an object meeting two blocks, so its
# disguised copies differ: a full matrix algebra looks the same in any
# coordinates, and ``decompose`` would answer it from its cache.
YES_SHAPES = {
    1: [
        (form((1,), (1,), (1,)), (2,)),
        (form((1,), (1,), (1,), prefix="y"), (2,)),
    ],
    2: [
        (form((1, 1)), (2, 2)),
        (form((1, 1), (1, 1)), (2, 1)),
        (form((1, 1), (1, 1)), (1, 2)),
        (form((1, 1), (0, 1)), (2, 2)),
        (form((1, 1), (0, 1)), (1, 2)),
        (form((1, 0), (1, 1)), (2, 1)),
        (form((1, 1), (1, 0)), (2, 1)),
        (form((0, 1), (1, 1)), (2, 2)),
    ],
}

# Shapes for the "no" pairs and the semiadditivity checks, with
# multiplicities up to two and block ranks up to two.
ONE_BLOCK_SHAPES = [
    (form((2,)), (2,)),
    (form((1,), (2,)), (2,)),
    (form((2,), (1,)), (2,)),
    (form((1,), (1,), (1,)), (2,)),
]
TWO_BLOCK_SHAPES = [
    (form((1, 2)), (1, 1)),
    (form((2, 1)), (1, 2)),
    (form((1, 1), (0, 1)), (1, 2)),
    (form((1, 0), (1, 1)), (2, 1)),
    (form((2, 0), (1, 1)), (1, 2)),
    (form((1, 1), (1, 2)), (1, 1)),
    (form((0, 1), (2, 1)), (1, 1)),
    (form((1, 2)), (2, 2)),
]
# One shape pair for every semiadditivity check: these checks are where
# op_p90_ms falls, so they should cost about the same.
SEMIADDITIVITY_SHAPES = (
    (form((2,)), (2,)),
    (form((1, 1)), (2, 1)),
)
SEMIADDITIVITY_PER_ROUND = 3


def missing_witness_input():
    """The 91st draw of ``random_category(rng, max_blocks=2, max_mult=2,
    max_objects=2, max_rank=2)`` with ``rng = random.Random(11)``: a block
    of multiplicity two and rank two, for which ``are_morita_equivalent``
    answers ``(True, None)`` against itself.  It does not depend on the
    seed, so it fails the same number of times in every run."""
    rng = random.Random(11)
    for _ in range(91):
        drawn = gen.random_category(
            rng, max_blocks=2, max_mult=2, max_objects=2, max_rank=2
        )
    return drawn


def morita_decide_op(a, b, fault=False):
    expected = a.form.k == b.form.k

    def call():
        return semisimple.are_morita_equivalent(a.category, b.category)

    def check(result):
        equivalent, witness = result
        if equivalent != expected:
            return f"answer {equivalent}, block counts {a.form.k} and {b.form.k}"
        if not equivalent:
            return None if witness is None else "a witness for a 'no' answer"
        if witness is None:
            return FAILED
        cert = completion.is_morita_equivalence(witness)
        if not cert.ok:
            return f"the witness is not a Morita equivalence: {cert}"
        return None

    def corrupt(result):
        return (not result[0], result[1])

    return Op("morita-fault" if fault else ("morita-yes" if expected else "morita-no"),
              call, check, corrupt, fault=fault)


def semiadditivity_op(a, b):
    blocks = a.form.k + b.form.k

    def call():
        return homotopy.semiadditivity_check(a.category, b.category)

    def check(cert):
        if not cert.ok:
            return f"semiadditivity failed: {cert}"
        if len(cert.support) != blocks or cert.unreached_blocks:
            return f"support on {len(cert.support)} blocks, expected {blocks}"
        return None

    def corrupt(cert):
        return type(cert)(cert.ok, cert.non_bijective_pairs, cert.unreached_blocks,
                          cert.support[1:])

    return Op("semiadditivity", call, check, corrupt)


def morita_decide(seed, rounds, workdir):
    rng = random.Random(seed)
    disguised = Disguiser(rng)
    fault_input = missing_witness_input()

    def round_ops(r):
        # Which shapes meet is fixed by the round number, not drawn, so
        # that every seed times the same pairs.
        ops = []
        for shapes in YES_SHAPES.values():
            for i, shape in enumerate(shapes):
                partner = shapes[(i + r + 1) % len(shapes)]
                ops.append(morita_decide_op(disguised(shape), disguised(partner)))
        for i, two in enumerate(TWO_BLOCK_SHAPES):
            one = ONE_BLOCK_SHAPES[(i + r) % len(ONE_BLOCK_SHAPES)]
            pair = [disguised(one), disguised(two)]
            ops.append(morita_decide_op(*(pair if (i + r) % 2 else pair[::-1])))
        one, two = SEMIADDITIVITY_SHAPES
        for _ in range(SEMIADDITIVITY_PER_ROUND):
            ops.append(semiadditivity_op(disguised(one), disguised(two)))
        ops.append(morita_decide_op(fault_input, fault_input, fault=True))
        rng.shuffle(ops)
        return ops

    ops = whole_rounds(round_ops, rounds)
    warmup = morita_decide_op(disguised((form((1, 1), (1, 0)), (1, 1))),
                              disguised((form((1, 1)), (1, 1))))
    return Workload("morita-decide", ops, warmup)


# ---------------------------------------------------------------------------
# ho-calculus


HO_FORMS = {
    "A": form((1, 1), (0, 2), prefix="a"),
    "A2": form((2, 0), (1, 1), prefix="p"),
    "B": form((1, 1), (1, 0), (0, 2), prefix="b"),
    "C": form((1, 0, 1), (0, 1, 1), (1, 1, 0), prefix="c"),
}


def ho_setting():
    """The standard realizations and their forms as ``decompose`` orders
    the blocks; class matrices refer to that order."""
    cats = {name: semisimple.standard_realization(f) for name, f in HO_FORMS.items()}
    return cats, {name: semisimple.decompose(c).form for name, c in cats.items()}


def ho_calculus(seed, rounds, workdir):
    rng = random.Random(seed)
    cats, forms = ho_setting()

    def random_class(tgt, col_sums):
        """A random class matrix into ``tgt`` with the given column sums.
        The column sums fix the image word of every object, and so most
        of the cost; the seed chooses how each sum splits over the
        target blocks."""
        rows = forms[tgt].k
        cols = []
        for total in col_sums:
            cuts = sorted(rng.randint(0, total) for _ in range(rows - 1))
            cols.append([b - a for a, b in zip([0] + cuts, cuts + [total])])
        return tuple(tuple(col[j] for col in cols) for j in range(rows))

    def morphism(src, tgt, h):
        return homotopy.ho_morphism(forms[src], forms[tgt], h)

    def rep(src, tgt, h):
        return homotopy.representative_functor(morphism(src, tgt, h), cats[src], cats[tgt])

    def classify(src, tgt, h):
        def call():
            return homotopy.class_of_functor(rep(src, tgt, h)).mult

        return Op("classify", call, lambda r: None if r == h else f"class {r} of {h}",
                  flip)

    def compose(f, g):
        expected = matmul(g, f)

        def call():
            composite = homotopy.compose_into_saturation(rep("B", "C", g), rep("A", "B", f))
            return homotopy.class_of_functor(composite).mult

        return Op("compose", call,
                  lambda r: None if r == expected else f"class {r}, product {expected}",
                  flip)

    def add(f, g):
        expected = matadd(f, g)

        def call():
            total = homotopy.pointwise_sum(rep("A", "B", f), rep("A", "B", g))
            return homotopy.class_of_functor(total).mult

        return Op("sum", call,
                  lambda r: None if r == expected else f"class {r}, sum {expected}",
                  flip)

    def certify(h):
        expected = is_permutation(h)

        def call():
            return completion.is_morita_equivalence(rep("A", "A2", h)).ok

        return Op("certify", call,
                  lambda ok: None if ok == expected else f"certificate {ok} for {h}",
                  lambda ok: not ok)

    perms = [((1, 0), (0, 1)), ((0, 1), (1, 0))]

    def round_ops(r):
        ops = [
            compose(random_class("B", (1, 1)), random_class("C", (1, 1))),
            compose(random_class("B", (1, 1)), random_class("C", (2, 1))),
            compose(random_class("B", (2, 1)), random_class("C", (1, 1))),
            add(random_class("B", (1, 1)), random_class("B", (1, 1))),
            add(random_class("B", (2, 1)), random_class("B", (1, 1))),
            classify("A", "B", random_class("B", (2, 2))),
            classify("B", "C", random_class("C", (2, 1))),
            classify("A", "A2", random_class("A2", (2, 2))),
            certify(perms[r % 2]),
            certify(random_class("A2", (3, 2))),
            certify(random_class("A2", (3, 2))),
        ]
        rng.shuffle(ops)
        return ops

    ops = whole_rounds(round_ops, rounds)
    warmup = classify("A", "B", ((1, 1), (1, 0)))
    return Workload("ho-calculus", ops, warmup)


# ---------------------------------------------------------------------------
# cli-corpus


# The upper-triangular 2x2 algebra: its span is not closed under the
# adjoint, so it is not a *-category and the CLI should refuse it.
UPPER_TRIANGULAR = {
    "kind": "concrete",
    "objects": [{"name": "x", "dim": 2}],
    "homs": {
        "x->x": [
            [["1", "0"], ["0", "0"]],
            [["0", "1"], ["0", "0"]],
            [["0", "0"], ["0", "1"]],
        ]
    },
}


class Corpus:
    """Writes each document once, under a fresh name."""

    def __init__(self, workdir):
        self.dir = workdir
        self.count = 0

    def write(self, doc):
        self.count += 1
        path = os.path.join(self.dir, f"doc{self.count:05d}.json")
        text = doc if isinstance(doc, str) else jsonio.dumps(doc)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path


def run_cli(argv, workload):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue()
    workload.emitted_bytes += len(text.encode("utf-8"))
    return code, text


def cli_op(kind, argv, paths, workload, check, fault=False):
    size = sum(os.path.getsize(p) for p in paths)

    def call():
        return run_cli(argv, workload)

    def wrapped_check(result):
        code, text = result
        try:
            doc = json.loads(text) if text else None
        except json.JSONDecodeError:
            return FAILED if fault else f"{kind}: output is not JSON"
        outcome = check(code, doc)
        if outcome is not None and fault:
            return FAILED
        return outcome

    def corrupt(result):
        code, text = result
        return (code + 1, text)

    return Op(kind, call, wrapped_check, corrupt, size, fault)


def forms_of(g):
    return {x: tuple(c) for x, c in g.form.object_classes}


def expect(code, want, facts):
    if code != want:
        return f"exit {code}, expected {want}"
    for label, ok in facts:
        if not ok:
            return label
    return None


def cli_corpus(seed, rounds, workdir):
    rng = random.Random(seed)
    disguised = Disguiser(rng)
    corpus = Corpus(workdir)
    workload = Workload("cli-corpus", [], None)
    small = [
        (form((1, 1), (1, 1)), (2, 1)),
        (form((1,), (2,)), (2,)),
        (form((2,), (1,)), (2,)),
        (form((1, 1), (0, 1)), (2, 2)),
        (form((1, 1), (1, 1)), (1, 2)),
    ]

    def category_doc(g):
        return corpus.write(jsonio.category_to_json(g.category))

    def op(kind, argv, paths, check, fault=False):
        return cli_op(kind, list(argv) + ["--json"], paths, workload, check, fault)

    def validate(g):
        p = category_doc(g)
        return op("validate", ["validate", p], [p], lambda c, d: expect(
            c, 0, [("not valid", d and d.get("valid") is True)]))

    def decompose(g):
        p = category_doc(g)
        want = forms_of(g)
        return op("decompose", ["decompose", p], [p], lambda c, d: expect(c, 0, [
            ("classes differ from the generator's form",
             d is not None and same_up_to_block_order(
                 {o["name"]: tuple(o["mult"]) for o in d["objects"]}, want))]))

    def invalid(verb):
        paths = [corpus.write(UPPER_TRIANGULAR) for _ in range(2 if verb == "morita" else 1)]

        def check(c, d):
            lists = [v for v in (d or {}).values() if isinstance(v, list) and v]
            return expect(c, 2, [
                ("no list of violations", any("adjoint" in str(v) for v in lists))])

        return op(f"{verb}-invalid", [verb, *paths], paths, check, fault=True)

    def saturate_object(g):
        p = category_doc(g)
        obj, selections = gen.random_saturation_object(rng, g, max_word_length=2)
        q = corpus.write(jsonio.proj_object_to_json(obj))
        ranks = g.block_ranks
        rank = sum(sum(sum(s) * r for s, r in zip(sel, ranks)) for sel in selections)
        dim = sum(g.category.dim(x) for x in obj.word)
        return op("saturate", ["saturate", p, "--object", q], [p, q],
                  lambda c, d: expect(c, 0, [
                      ("wrong rank", d and d.get("rank") == rank),
                      ("wrong ambient dimension", d and d.get("ambient_dimension") == dim)]))

    def saturate_hom(g):
        p = category_doc(g)
        objs = [gen.random_saturation_object(rng, g, max_word_length=2) for _ in range(2)]
        qs = [corpus.write(jsonio.proj_object_to_json(o)) for o, _ in objs]
        classes = [
            [sum(sum(sel[j]) for sel in sels) for j in range(g.form.k)] for _, sels in objs
        ]
        dim = sum(a * b for a, b in zip(*classes))
        return op("saturate-hom", ["saturate", p, "--hom", *qs], [p, *qs],
                  lambda c, d: expect(c, 0, [
                      ("wrong hom dimension", d and d.get("dimension") == dim)]))

    def morita(a, b):
        pa, pb = category_doc(a), category_doc(b)
        same = a.form.k == b.form.k

        def check(c, d):
            if same:
                return expect(c, 0, [("no witness", d and d.get("witness") is not None)])
            return expect(c, 1, [("answered equivalent", d and d.get("equivalent") is False)])

        return op("morita", ["morita", pa, pb], [pa, pb], check)

    def hom(fa, fb, bound):
        pa = corpus.write(jsonio.semisimple_form_to_json(fa))
        pb = corpus.write(jsonio.semisimple_form_to_json(fb))
        n = fa.k * fb.k
        return op("hom", ["hom", pa, pb, "--bound", str(bound)], [pa, pb],
                  lambda c, d: expect(c, 0, [
                      ("wrong rank", d and d.get("rank") == n),
                      ("wrong element count",
                       d and d.get("bounded_elements") == math.comb(bound + n, n))]))

    def compose(fa, fb, fc):
        f = gen.random_ho_morphism(rng, fa, fb)
        g = gen.random_ho_morphism(rng, fb, fc)
        p1 = corpus.write(jsonio.ho_morphism_to_json(f))
        p2 = corpus.write(jsonio.ho_morphism_to_json(g))
        want = matmul(g.mult, f.mult)
        return op("compose", ["compose", p1, p2], [p1, p2], lambda c, d: expect(c, 0, [
            ("wrong product", d and tuple(map(tuple, d.get("mult", ()))) == want)]))

    def picard(fm):
        p = corpus.write(jsonio.semisimple_form_to_json(fm))
        return op("picard", ["picard", p], [p], lambda c, d: expect(c, 0, [
            ("wrong order", d and d.get("order") == math.factorial(fm.k))]))

    def k0(g):
        p = category_doc(g)
        want = forms_of(g)
        return op("k0", ["k0", p], [p], lambda c, d: expect(c, 0, [
            ("wrong rank", d and d.get("rank") == g.form.k),
            ("wrong classes", d and same_up_to_block_order(
                {x: tuple(v) for x, v in d.get("objects", {}).items()}, want))]))

    def tensor(fa, fb):
        pa = corpus.write(jsonio.semisimple_form_to_json(fa))
        pb = corpus.write(jsonio.semisimple_form_to_json(fb))
        return op("tensor", ["tensor", pa, pb], [pa, pb], lambda c, d: expect(c, 0, [
            ("wrong block count", d and len(d.get("blocks", ())) == fa.k * fb.k)]))

    def k0_ring(fm):
        p = corpus.write(jsonio.semisimple_form_to_json(fm))
        return op("k0-ring", ["k0-ring", p], [p], lambda c, d: expect(c, 0, [
            ("wrong rank", d and d.get("rank") == fm.k),
            ("wrong unit", d and d.get("unit") == [1] * fm.k)]))

    # (kind, n) -> (objects, arrows, relations)
    universal_sizes = {
        "F": lambda n: (n, 0, 0),
        "P": lambda n: (n, n * n, 2 * n * n),
        "R": lambda n: (n + 1, n, 1),
        "S": lambda n: (n + 1, n, 1 + n * n),
        "SP": lambda n: (n + 1, n + 1, 3 + n * n),
        "SR": lambda n: (n + 2, n + 1, 2 + n * n),
    }

    def universal(kind, n):
        want = universal_sizes[kind](n)
        return op("universal", ["universal", kind, str(n)], [], lambda c, d: expect(c, 0, [
            ("wrong size", d and (len(d["objects"]), len(d["arrows"]),
                                  len(d["relations"])) == want)]))

    def pushout_interval(g):
        p = category_doc(g)
        names = g.category.object_names()
        x = names[rng.randrange(len(names))]

        def check(c, d):
            objs = {o["name"]: o["dim"] for o in d["category"]["objects"]} if d else {}
            return expect(c, 0, [
                ("wrong objects", set(objs) == set(names) | {d.get("copy")}),
                ("wrong copy", d and d.get("original") == x
                 and objs.get(d.get("copy")) == g.category.dim(x))])

        return op("pushout", ["pushout", p, "--interval", x], [p], check)

    def pushout_rn(g, n):
        p = category_doc(g)
        asg = gen.random_projection_assignment(rng, g, n)
        q = corpus.write(jsonio.assignment_to_json(asg))
        word = [asg.object_of(f"o{i + 1}") for i in range(n)]
        grid = {name: jsonio.matrix_to_json(m) for name, m in asg.arrows}

        def check(c, d):
            if not d or c != 0:
                return expect(c, 0, [])
            proj, dims = d["projection"], [g.category.dim(x) for x in word]
            offs = [sum(dims[:i]) for i in range(n)]
            blocks_ok = all(
                [row[offs[j]:offs[j] + dims[j]] for row in proj[offs[i]:offs[i] + dims[i]]]
                == grid[f"p{i + 1}_{j + 1}"]
                for i in range(n) for j in range(n)
            )
            return expect(c, 0, [
                ("wrong word", d["word"] == word),
                ("projection is not the assigned matrix", blocks_ok),
                ("range object missing", d["range"] in
                 {o["name"] for o in d["category"]["objects"]})])

        return op("pushout-rn", ["pushout", p, "--rn", q], [p, q], check)

    def fibrancy(g):
        p = category_doc(g)
        # Every object of a generated category is nonzero, so the zero
        # probe must fail.
        return op("fibrancy-probe", ["fibrancy-probe", p], [p], lambda c, d: expect(c, 1, [
            ("probe passed", d and d.get("all_pass") is False),
            ("zero object found", d and d["zero"]["ok"] is False)]))

    def lift(g, family):
        if family == "R":
            sc = gen.planted_range_square(rng, g, 1)
        else:
            sc = gen.planted_sum_square(rng, g, 1)
        pf = corpus.write(jsonio.functor_to_json(sc.functor))
        ps = corpus.write(jsonio.square_to_json(sc.square))
        return op("lift-check", ["lift-check", pf, ps], [pf, ps],
                  lambda c, d: expect(c, 0, [
                      ("no lift", d and d.get("found") is True and d.get("lift")),
                      ("wrong family", d and d.get("family") == family)]))

    turns = {}

    def turn(choices):
        """The choices in turn, so that every seed gets the same mix."""
        i = turns.get(id(choices), 0)
        turns[id(choices)] = i + 1
        return choices[i % len(choices)]

    def pick(shapes):
        return disguised(turn(shapes))

    yes1, yes2 = YES_SHAPES[1], YES_SHAPES[2]
    forms = [form((1,)), form((1, 1)), form((2, 1), (0, 1)), form((1, 1, 1)),
             form((1, 2), (1, 0))]
    product_forms = [form((1, 1)), form((1, 0), (1, 1)), form((1, 1, 1)), form((0, 1), (1, 0))]
    bounds = [2, 3, 4]
    universals = [("P", 2), ("R", 2), ("S", 2), ("SP", 1), ("SR", 2), ("F", 3),
                  ("P", 3), ("R", 3), ("S", 3), ("SP", 2), ("SR", 1), ("F", 2)]
    fibrancy_shapes = [(form((2, 1)), (1, 1)), (form((1, 1), (0, 1)), (1, 2)),
                       (form((1, 0), (1, 1)), (2, 1))]
    lift_shapes = small[:3]

    def round_ops(r):
        batch = [
            validate(pick(small)), validate(pick(small)),
            decompose(pick(small)), decompose(pick(TWO_BLOCK_SHAPES)),
            decompose(pick(TWO_BLOCK_SHAPES)),
            saturate_object(pick(small)), saturate_hom(pick(small)),
            morita(pick(yes2), pick(yes2)), morita(pick(yes2), pick(yes2)),
            morita(pick(yes1), pick(yes2)),
            hom(turn(forms), turn(forms), turn(bounds)),
            hom(turn(forms), turn(forms), turn(bounds)),
            compose(turn(forms), turn(forms), turn(forms)),
            compose(turn(forms), turn(forms), turn(forms)),
            picard(turn(forms)), picard(turn(forms)),
            k0(pick(small)), k0(pick(TWO_BLOCK_SHAPES)),
            tensor(turn(forms), turn(forms)), tensor(turn(forms), turn(forms)),
            k0_ring(turn(product_forms)),
            universal(*turn(universals)), universal(*turn(universals)),
            pushout_interval(pick(small)), pushout_rn(pick(small), 2),
            fibrancy(pick(fibrancy_shapes)),
            lift(pick(lift_shapes), "R"), lift(pick(lift_shapes), "S"),
            invalid("morita"), invalid("decompose"),
        ]
        rng.shuffle(batch)
        return batch

    workload.ops = whole_rounds(round_ops, rounds)
    workload.warmup = morita(disguised(small[0]), disguised(small[3]))
    return workload


WORKLOADS = {
    "morita-decide": morita_decide,
    "ho-calculus": ho_calculus,
    "cli-corpus": cli_corpus,
}
