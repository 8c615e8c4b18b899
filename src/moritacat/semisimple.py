"""Block decomposition of finite-dimensional *-categories over Q(i).

The linking algebra of a valid concrete *-category (the direct sum of
all its hom spaces) is semisimple, because the conjugate-transpose
involution is positive.  Its simple two-sided blocks are found by
splitting the center: self-adjoint central elements have rational
minimal-polynomial coefficients, and their rational eigenvalues yield
exact Lagrange idempotents.  An irreducible factor of degree > 1 means
the algebra does not split over Q(i); this is reported exactly, with
the offending polynomial, rather than approximated.

Multiplicities are recovered without ever diagonalizing: the block-i
multiplicity of an object x is the exact integer square root of
dim(z_i End(x) z_i), and the ambient rank of z_i on x is that
multiplicity times a per-block constant (the multiplicity of the
block's simple module in the representation).  Dividing ambient ranks
by the constant makes object classes independent of how the category
happens to be realized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, wraps

from .completion import ProjObject
from .scalar import (
    I,
    ONE,
    ZERO,
    CertificateError,
    ExactMatrix,
    GaussianRational,
    MatrixSpan,
    block_diag,
    check_partial_isometry,
    combine,
    echelon_basis,
    linear_combination,
    nullspace,
    orthogonal_projection_onto,
    span_membership,
)
from .starcat import ConcreteStarCategory, star_category


class NotSemisimple(Exception):
    """The linking algebra is not semisimple (impossible for validated
    adjoint-closed input; indicates corrupt data)."""


class NotSplitOverBaseField(Exception):
    """A central minimal polynomial has an irreducible factor of degree
    > 1 over Q(i); the blocks are not matrix algebras over Q(i)."""

    def __init__(self, polynomial: str, coefficients):
        super().__init__(
            f"center does not split over Q(i): irreducible factor {polynomial}"
        )
        self.polynomial = polynomial
        self.coefficients = tuple(coefficients)  # low to high, Fractions


class WitnessObstruction(Exception):
    """An exact witness (matrix units, partial isometry) requires
    scaling by the square root of a rational that is not a norm from
    Q(i).  The decision that triggered the construction still stands;
    only the explicit witness is unavailable."""


# ---------------------------------------------------------------------------
# families: block-diagonal elements of the linking algebra


def _fam_mul(a, b):
    return {x: a[x] @ b[x] for x in a}


def _fam_sub(a, b):
    return {x: a[x] - b[x] for x in a}


def _fam_scale(a, c):
    return {x: m.scale(c) for x, m in a.items()}


def _fam_adjoint(a):
    return {x: m.adjoint() for x, m in a.items()}


def _fam_flatten(a, order):
    out = []
    for x in order:
        out.extend(a[x].flatten())
    return tuple(out)


def _fam_is_zero(a):
    return all(m.is_zero() for m in a.values())


# ---------------------------------------------------------------------------
# rational polynomial utilities (factorization delegated to sympy)


def _format_poly(coeffs) -> str:
    """Render a rational polynomial, low-to-high coefficients, as e.g.
    "t^2 - 2"."""
    terms = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if power == 0:
            body = f"{mag}"
        else:
            t = "t" if power == 1 else f"t^{power}"
            body = t if mag == 1 else f"{mag}*{t}"
        terms.append((sign, body))
    if not terms:
        return "0"
    first_sign, first_body = terms[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in terms[1:]:
        text += f" {sign} {body}"
    return text


def _depress(coeffs):
    """Shift a monic rational polynomial t -> t + s to kill the
    second-highest coefficient: the canonical representative of its
    translation orbit (translates generate the same field extension)."""
    d = len(coeffs) - 1
    s = -coeffs[d - 1] / d
    out = [Fraction(0)] * (d + 1)
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        for j in range(k + 1):
            out[j] += c * math.comb(k, j) * s ** (k - j)
    if not (out[d] == 1 and out[d - 1] == 0):
        raise CertificateError("the depressed polynomial is not monic without a t^(d-1) term")
    return tuple(out)


def _factor_rational_poly(coeffs):
    """Factor a monic rational polynomial (low-to-high Fraction
    coefficients) into irreducibles over Q.

    Returns a list of (coefficients low-to-high, exponent) pairs with
    Fraction coefficients, monic, sorted deterministically.
    """
    import sympy

    t = sympy.Symbol("t")
    expr = sum(
        sympy.Rational(c.numerator, c.denominator) * t**k
        for k, c in enumerate(coeffs)
    )
    _, factors = sympy.Poly(expr, t, domain="QQ").factor_list()
    out = []
    for poly, exp in factors:
        cs = [Fraction(c.p, c.q) for c in reversed(poly.all_coeffs())]
        lead = cs[-1]
        cs = [c / lead for c in cs]
        out.append((tuple(cs), int(exp)))
    out.sort()
    return out


# ---------------------------------------------------------------------------
# decomposition


@dataclass(frozen=True)
class SemisimpleForm:
    """The shape of a semisimple *-category: named blocks and, for each
    object, its multiplicity in every block."""

    blocks: tuple  # tuple[str, ...]
    object_classes: tuple  # tuple of (object name, tuple[int, ...])

    def class_of(self, name: str):
        for n, c in self.object_classes:
            if n == name:
                return c
        raise KeyError(name)

    def object_names(self):
        return tuple(n for n, _ in self.object_classes)

    @property
    def k(self) -> int:
        return len(self.blocks)

    def __post_init__(self):
        for n, c in self.object_classes:
            if len(c) != len(self.blocks):
                raise ValueError(f"class of {n!r} has the wrong length")
            if any(m < 0 for m in c):
                raise ValueError(f"negative multiplicity on {n!r}")
        for j, b in enumerate(self.blocks):
            if all(c[j] == 0 for _, c in self.object_classes):
                raise ValueError(f"phantom block {b!r}: no object meets it")


class Decomposition:
    """A category together with its exact block data and the block
    witnesses (minimal projections, matrix units) built from it."""

    def __init__(self, category, blocks, centrals, object_mult, unit_ranks):
        self.category = category
        self.blocks = blocks  # tuple[str]
        self.centrals = centrals  # tuple of families {object -> matrix}
        self.object_mult = object_mult  # {object -> tuple[int]}
        self.unit_ranks = unit_ranks  # tuple[int]: ambient rank of one
        #   block-i multiplicity unit (the constant k_i above)
        self._witnesses = {}  # (witness name, block index) -> witness, write-once

    @property
    def form(self) -> SemisimpleForm:
        return SemisimpleForm(
            self.blocks,
            tuple((x, self.object_mult[x]) for x in self.category.object_names()),
        )

    def central_on_word(self, i, word) -> ExactMatrix:
        z = self.centrals[i]
        if not word:
            return ExactMatrix.zeros(0, 0)
        return block_diag([z[x] for x in word])


# id(probe) -> (a, b, pairs) for each live homotopy.product_probe_category
# probe, dropped when the probe is collected: object n is pairs[n] = (x of a
# or None, y of b or None), block-diagonal.  Keyed by identity, so an equal
# category built any other way is decomposed by elimination.
BLOCK_SUM_FACTORS = {}


def _sort_key(order, fam):
    """Deterministic block order: by first supported object, then by the
    position of the first nonzero entry there."""
    for idx, x in enumerate(order):
        for pos, entry in enumerate(fam[x].entries):
            if not entry.is_zero():
                return (idx, pos)
    return (len(order), 0)


@lru_cache(maxsize=None)
def decompose(cat: ConcreteStarCategory) -> Decomposition:
    """Exact block decomposition of a valid concrete *-category.  A block
    sum the library built (a product probe) gets a decomposition derived
    from its factors' and fully checked, without the centrality nullspace."""
    if id(cat) in BLOCK_SUM_FACTORS:
        a, b, pairs = BLOCK_SUM_FACTORS[id(cat)]
        return _block_sum_decomposition(cat, decompose(a), decompose(b), pairs)
    order = cat.object_names()
    end_bases = {x: cat.hom_basis(x, x) for x in order}

    var_offset = {}
    total_vars = 0
    for x in order:
        var_offset[x] = total_vars
        total_vars += len(end_bases[x])

    if total_vars == 0:
        return Decomposition(cat, (), (), {x: () for x in order}, ())

    # Central elements are block-diagonal families (z_x) with z_x in
    # End(x); centrality is the linear condition z_y b = b z_x for every
    # basis arrow b.
    constraint_rows = []
    for x in order:
        for y in order:
            for b in cat.hom_basis(x, y):
                left = [B @ b for B in end_bases[y]]  # z_y b
                right = [b @ B for B in end_bases[x]]  # b z_x
                for r in range(b.rows):
                    for c in range(b.cols):
                        row = [ZERO] * total_vars
                        for k, m in enumerate(left):
                            row[var_offset[y] + k] = row[var_offset[y] + k] + m.entry(r, c)
                        for k, m in enumerate(right):
                            row[var_offset[x] + k] = row[var_offset[x] + k] - m.entry(r, c)
                        constraint_rows.append(tuple(row))

    center_vectors = nullspace(constraint_rows) if constraint_rows else tuple(
        tuple(ONE if i == j else ZERO for i in range(total_vars))
        for j in range(total_vars)
    )

    def to_family(vec):
        return {
            x: combine(vec[var_offset[x] :], end_bases[x], cat.dim(x), cat.dim(x))
            for x in order
        }

    center = [to_family(v) for v in center_vectors]
    unit_family = {x: cat.unit(x) for x in order}

    # Self-adjoint elements spanning the center over Q(i).
    half = GaussianRational(Fraction(1, 2), Fraction(0))
    half_over_i = GaussianRational(Fraction(0), Fraction(-1, 2))  # 1/(2i)
    hermitians = []
    for z in center:
        zs = _fam_adjoint(z)
        h1 = _fam_scale({x: z[x] + zs[x] for x in order}, half)
        h2 = _fam_scale({x: z[x] - zs[x] for x in order}, half_over_i)
        for h in (h1, h2):
            if not _fam_is_zero(h):
                hermitians.append(h)

    pieces = [unit_family]
    for h in hermitians:
        refined = []
        for e in pieces:
            refined.extend(_split_piece(cat, order, e, h))
        pieces = refined

    pieces = [p for p in pieces if not _fam_is_zero(p)]
    pieces.sort(key=lambda p: _sort_key(order, p))
    return _checked_decomposition(cat, pieces, NotSemisimple)


def _checked_decomposition(cat, pieces, error):
    """The decomposition with central projections pieces, checked: each is
    self-adjoint, multiplicities are exact square roots of dim z End(x) z,
    unit ranks are consistent, and the block data predicts every hom
    dimension.  A failed check raises error."""
    order = cat.object_names()
    if any(p[x] != p[x].adjoint() for p in pieces for x in order):
        raise error("a central idempotent failed self-adjointness; input was not adjoint-closed")
    object_mult = {}
    for x in order:
        mults = []
        for p in pieces:
            z = p[x]
            if z.is_zero():
                mults.append(0)
                continue
            compressed = MatrixSpan(
                cat.dim(x), cat.dim(x), [z @ b @ z for b in cat.hom_basis(x, x)]
            )
            m = math.isqrt(compressed.dim)
            if m * m != compressed.dim:
                raise error(
                    f"dim z End({x}) z = {compressed.dim} is not a perfect "
                    "square; the block structure is inconsistent"
                )
            mults.append(m)
        object_mult[x] = tuple(mults)

    unit_ranks = []
    for i, p in enumerate(pieces):
        k_i = None
        for x in order:
            m = object_mult[x][i]
            if m == 0:
                continue
            r = p[x].rank()
            if r % m != 0 or (k_i is not None and r // m != k_i):
                raise error(
                    f"ambient rank of the block-{i + 1} unit on {x} is not "
                    "a consistent multiple of the multiplicity"
                )
            k_i = r // m
        if k_i is None:
            raise CertificateError("block with no supporting object")
        unit_ranks.append(k_i)

    for x in order:
        for y in order:
            expected = sum(
                object_mult[x][i] * object_mult[y][i] for i in range(len(pieces))
            )
            if cat.hom_dim(x, y) != expected:
                raise error(
                    f"dim hom({x}, {y}) = {cat.hom_dim(x, y)} but the block "
                    f"data predicts {expected}"
                )
    blocks = tuple(f"b{i + 1}" for i in range(len(pieces)))
    return Decomposition(cat, blocks, tuple(pieces), object_mult, tuple(unit_ranks))


def _block_sum_decomposition(cat, da, db, pairs):
    """The decomposition of a block sum (see BLOCK_SUM_FACTORS): blocks
    z + 0 and 0 + z for the blocks z of da and db, in decompose's order.
    Blocks that are not orthogonal central idempotents summing to each
    unit, or block data that differs from the factors', raise
    CertificateError."""
    order, factors = cat.object_names(), (da, db)
    blocks = []  # (family, multiplicity on each object, unit rank)
    for side, part in enumerate(factors):
        for i, z in enumerate(part.centrals):
            fam = {
                name: block_diag(
                    z[o] if s == side else ExactMatrix.zeros(f.category.dim(o), f.category.dim(o))
                    for s, (o, f) in enumerate(zip(objs, factors))
                    if o is not None
                )
                for name, objs in zip(order, pairs)
            }
            mult = tuple(0 if o[side] is None else part.object_mult[o[side]][i] for o in pairs)
            blocks.append((fam, mult, part.unit_ranks[i]))
    blocks.sort(key=lambda block: _sort_key(order, block[0]))
    pieces = [fam for fam, _, _ in blocks]

    for x in order:
        zs, zero = [p[x] for p in pieces], ExactMatrix.zeros(cat.dim(x), cat.dim(x))
        if sum(zs, zero) != cat.unit(x) or any(
            z @ w != (z if i == j else zero) for i, z in enumerate(zs) for j, w in enumerate(zs)
        ):
            raise CertificateError(f"the blocks are not orthogonal idempotents summing to the unit of {x}")
    for (x, y), arrows in cat.homs:
        if any(p[y] @ f != f @ p[x] for f in arrows for p in pieces):
            raise CertificateError(f"a block family is not central on hom({x}, {y})")

    d = _checked_decomposition(cat, pieces, CertificateError)
    got = [tuple(d.object_mult[x][j] for x in order) for j in range(len(pieces))]
    if list(zip(got, d.unit_ranks)) != [(m, r) for _, m, r in blocks]:
        raise CertificateError("the factors' block data does not match the block sum")
    return d


def _split_piece(cat, order, e, h):
    """Split a central projection e along the spectrum of the
    self-adjoint central element h."""
    a = _fam_mul(_fam_mul(e, h), e)
    # Krylov: find the first linear dependence among e, a, a^2, ...
    powers = [e]
    flats = [_fam_flatten(e, order)]
    cur = a
    coeffs = None
    while True:
        flat = _fam_flatten(cur, order)
        coeffs = linear_combination(flats, flat)
        if coeffs is not None:
            break
        powers.append(cur)
        flats.append(flat)
        cur = _fam_mul(cur, a)
    degree = len(powers)
    if degree == 1:
        return [e]

    minpoly = []
    for c in coeffs:
        if c.im != 0:
            raise NotSemisimple(
                "a self-adjoint central element has a non-real minimal "
                "polynomial; input was not adjoint-closed"
            )
        minpoly.append(-c.re)
    minpoly.append(Fraction(1))  # monic, low-to-high

    roots = []
    for factor_coeffs, exp in _factor_rational_poly(minpoly):
        if exp > 1:
            raise NotSemisimple(
                "nilpotent central element found; input was not adjoint-closed"
            )
        if len(factor_coeffs) > 2:
            depressed = _depress(factor_coeffs)
            raise NotSplitOverBaseField(_format_poly(depressed), depressed)
        roots.append(-factor_coeffs[0])
    roots.sort()

    out = []
    for lam in roots:
        acc = e
        for mu in roots:
            if mu == lam:
                continue
            shifted = _fam_sub(
                _fam_mul(acc, a),
                _fam_scale(acc, GaussianRational(mu, Fraction(0))),
            )
            acc = _fam_scale(
                shifted,
                GaussianRational(Fraction(1) / (lam - mu), Fraction(0)),
            )
        out.append(acc)

    total = out[0]
    for f in out[1:]:
        total = {x: total[x] + f[x] for x in order}
    if not all(total[x] == e[x] for x in order):
        raise CertificateError("Lagrange idempotents do not sum to the piece")
    return out


# ---------------------------------------------------------------------------
# classes


def object_class(decomp: Decomposition, obj):
    """The per-block multiplicity vector of a base object (by name) or
    of any saturation object."""
    if isinstance(obj, str):
        return decomp.object_mult[obj]
    if not isinstance(obj, ProjObject):
        raise TypeError("object_class expects an object name or a ProjObject")
    out = []
    for i in range(len(decomp.blocks)):
        z = decomp.central_on_word(i, obj.word)
        r = (z @ obj.proj).rank()
        k = decomp.unit_ranks[i]
        if r % k != 0:
            raise NotSemisimple(
                "projection rank is not a multiple of the block unit rank"
            )
        out.append(r // k)
    return tuple(out)


# ---------------------------------------------------------------------------
# minimal projections


class MinimalProjectionError(Exception):
    """No exact minimal projection was found in the structured search
    pool.  (Possible for exotically realized blocks; never for standard
    realizations.)"""


def _commutant(dim, unit, span_matrices):
    """All T with T = unit T = T unit commuting with every span
    element, as a list of matrices."""
    rows = []
    n = dim

    def add_constraint(mat_of_var):
        # mat_of_var: function var-index -> entry of constraint matrix
        for r in range(n):
            for c in range(n):
                rows.append(tuple(mat_of_var(r, c, k) for k in range(n * n)))

    # Variables: entries of T, row-major.  Constraint: unit T - T = 0.
    def unit_left(r, c, k):
        i, j = divmod(k, n)
        acc = ZERO
        if j == c:
            acc = acc + unit.entry(r, i)
        if (i, j) == (r, c):
            acc = acc - ONE
        return acc

    def unit_right(r, c, k):
        i, j = divmod(k, n)
        acc = ZERO
        if i == r:
            acc = acc + unit.entry(j, c)
        if (i, j) == (r, c):
            acc = acc - ONE
        return acc

    add_constraint(unit_left)
    add_constraint(unit_right)
    for b in span_matrices:
        def commute(r, c, k, b=b):
            i, j = divmod(k, n)
            acc = ZERO
            if i == r:
                acc = acc + b.entry(j, c)  # (T b)[r, c] term
            if j == c:
                acc = acc - b.entry(r, i)  # (b T)[r, c] term
            return acc

        add_constraint(commute)

    basis = nullspace(rows)
    return [ExactMatrix(n, n, v) for v in basis]


def _minimal_projection_in_span(cat, name, unit, mult, unit_rank):
    """An exact projection of block multiplicity one in the corner
    unit End(name) unit, for a projection unit under a block central.

    The corner is a simple matrix algebra of size ``mult`` acting with
    multiplicity ``unit_rank`` on the range of ``unit``.  A projection
    commuting with the commutant and of ambient rank ``unit_rank`` is
    orthogonal projection onto a minimal commutant-submodule; the search
    pool of cyclic vectors covers every structured realization.
    """
    if mult == 1:
        return unit
    dim = cat.dim(name)
    span_matrices = [unit @ b @ unit for b in cat.hom_basis(name, name)]
    commutant = _commutant(dim, unit, span_matrices)
    if len(commutant) != unit_rank * unit_rank:
        raise MinimalProjectionError(
            f"commutant has dimension {len(commutant)}, expected "
            f"{unit_rank * unit_rank}; the block is not a matrix algebra "
            "over Q(i)"
        )
    span = MatrixSpan(dim, dim, list(span_matrices))
    columns = unit.transpose()
    col_vectors = [
        list(v) for v in echelon_basis([columns.row(j) for j in range(columns.rows)])
    ]
    candidates = list(col_vectors)
    for a in range(len(col_vectors)):
        for b in range(a + 1, len(col_vectors)):
            va, vb = col_vectors[a], col_vectors[b]
            candidates.append([x + y for x, y in zip(va, vb)])
            candidates.append([x - y for x, y in zip(va, vb)])
            candidates.append([x + I * y for x, y in zip(va, vb)])
            candidates.append([x - I * y for x, y in zip(va, vb)])
    for w in candidates:
        wcol = ExactMatrix(dim, 1, tuple(w))
        orbit = [c @ wcol for c in commutant]
        basis = echelon_basis([tuple(o.entries) for o in orbit])
        if len(basis) != unit_rank:
            continue
        cols = ExactMatrix.from_rows(
            [[basis[j][i] for j in range(len(basis))] for i in range(dim)]
        )
        e = orthogonal_projection_onto(cols)
        if not span.contains(e):
            continue
        if e @ e != e or e != e.adjoint() or e.rank() != unit_rank:
            continue
        if unit @ e != e or e @ unit != e:
            continue
        return e
    raise MinimalProjectionError(
        "no cyclic vector in the structured pool produced an exact "
        "minimal projection"
    )


def _per_block(build):
    """A block witness kept in the decomposition's write-once store, so
    it is built once per decomposition; a raise is not stored.  The block
    is given by index or by name."""

    @wraps(build)
    def witness(decomp: Decomposition, block):
        i = decomp.blocks.index(block) if isinstance(block, str) else block
        found = decomp._witnesses.get((build.__name__, i))
        if found is None:
            found = decomp._witnesses.setdefault((build.__name__, i), build(decomp, i))
        return found

    return witness


@_per_block
def minimal_projection(decomp: Decomposition, block) -> ProjObject:
    """A saturation object of class one in the given block and zero in
    all others: a one-letter word with an exact minimal projection."""
    cat = decomp.category
    support = next((x for x in cat.object_names() if decomp.object_mult[x][block] > 0), None)
    if support is None:
        raise CertificateError("block with no supporting object")
    z = decomp.centrals[block][support]
    m = decomp.object_mult[support][block]
    e = _minimal_projection_in_span(cat, support, z, m, decomp.unit_ranks[block])
    obj = ProjObject((support,), e)
    cls = object_class(decomp, obj)
    if cls != tuple(1 if j == block else 0 for j in range(len(decomp.blocks))):
        raise CertificateError("the minimal projection is not of class one in its block")
    return obj


# ---------------------------------------------------------------------------
# sums of two squares (for exact isometry scaling)


def _gaussian_int_gcd(a, b):
    """gcd in Z[i]; inputs and output are (re, im) integer pairs."""

    def norm(z):
        return z[0] * z[0] + z[1] * z[1]

    def sub(z, w):
        return (z[0] - w[0], z[1] - w[1])

    def mul(z, w):
        return (z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0])

    def divmod_rounded(z, w):
        n = norm(w)
        xr = Fraction(z[0] * w[0] + z[1] * w[1], n)
        xi = Fraction(z[1] * w[0] - z[0] * w[1], n)
        qr = (xr.numerator * 2 + xr.denominator) // (2 * xr.denominator)
        qi = (xi.numerator * 2 + xi.denominator) // (2 * xi.denominator)
        q = (qr, qi)
        return q, sub(z, mul(q, w))

    while b != (0, 0):
        _, r = divmod_rounded(a, b)
        a, b = b, r
    return a


def _two_squares_prime(p: int):
    """For p = 2 or p = 1 mod 4, a Gaussian integer of norm p."""
    if p == 2:
        return (1, 1)
    r = 2
    while pow(r, (p - 1) // 2, p) != p - 1:
        r += 1
    x = pow(r, (p - 1) // 4, p)
    return _gaussian_int_gcd((p, 0), (x, 1))


def rational_as_norm(q: Fraction):
    """A Gaussian rational of norm q, or None if q is not a norm.

    q > 0 is a norm from Q(i) iff every prime = 3 mod 4 divides the
    reduced numerator and denominator to an even power.
    """
    import sympy

    if q < 0:
        return None
    if q == 0:
        return ZERO
    n = q.numerator * q.denominator
    g = (1, 0)
    for p, e in sympy.factorint(n).items():
        p = int(p)
        if p % 4 == 3:
            if e % 2 != 0:
                return None
            g = (g[0] * p ** (e // 2), g[1] * p ** (e // 2))
        else:
            gp = _two_squares_prime(p)
            for _ in range(e):
                g = (g[0] * gp[0] - g[1] * gp[1], g[0] * gp[1] + g[1] * gp[0])
    result = GaussianRational(
        Fraction(g[0], q.denominator), Fraction(g[1], q.denominator)
    )
    if result.norm() != q:
        raise CertificateError(f"{result} does not have norm {q}")
    return result


# ---------------------------------------------------------------------------
# matrix units (exact, for witness and representative functors)


@dataclass(frozen=True)
class MatrixUnitSystem:
    """A full system of matrix units for one block of the linking
    algebra: slots (object, copy) with diagonal projections and partial
    isometries between them."""

    block_index: int
    slots: tuple  # tuple of (object name, copy index)
    diagonal: tuple  # tuple of ExactMatrix, aligned with slots
    from_reference: tuple  # u_s in hom(ref object, slot object):
    #   u_s* u_s = diagonal[ref], u_s u_s* = diagonal[s]

    def unit(self, a: int, b: int) -> ExactMatrix:
        """The matrix unit from slot b to slot a."""
        return self.from_reference[a] @ self.from_reference[b].adjoint()


@_per_block
def matrix_units(decomp: Decomposition, block_index: int) -> MatrixUnitSystem:
    """Exact matrix units for a block, the first slot holding its minimal
    projection; raises WitnessObstruction when a required scaling is not
    a Q(i)-norm."""
    cat = decomp.category
    i = block_index
    k = decomp.unit_ranks[i]

    slots = []
    diagonal = []
    for x in cat.object_names():
        m = decomp.object_mult[x][i]
        remaining = decomp.centrals[i][x]
        for copy in range(m):
            if slots:
                f = _minimal_projection_in_span(cat, x, remaining, m - copy, k)
            else:
                f = minimal_projection(decomp, i).proj
            slots.append((x, copy))
            diagonal.append(f)
            remaining = remaining - f

    (ref_obj, _), ref_proj = slots[0], diagonal[0]
    from_reference = [ref_proj]
    for (x, _), f in zip(slots[1:], diagonal[1:]):
        basis = cat.hom_basis(ref_obj, x)
        compressed = [f @ b @ ref_proj for b in basis]
        span = MatrixSpan(cat.dim(x), cat.dim(ref_obj), compressed)
        if span.dim != 1:
            raise CertificateError("minimal-to-minimal hom is not a line")
        t = span.matrices[0]
        # t* t is a positive rational multiple of the reference
        # projection; rescale t to a partial isometry exactly.
        tt = t.adjoint() @ t
        coeffs = span_membership(tt, [ref_proj])
        if coeffs is None or coeffs[0].im != 0 or coeffs[0].re <= 0:
            raise CertificateError("t* t is not a positive multiple of the reference projection")
        lam = coeffs[0].re
        mu = rational_as_norm(lam)
        if mu is None:
            raise WitnessObstruction(
                f"partial isometry scaling needs |mu|^2 = {lam}, which is "
                "not a norm from Q(i)"
            )
        u = t.scale(ONE / mu)
        check_partial_isometry(
            u, ref_proj, f, "the matrix unit is not a partial isometry onto its slot"
        )
        from_reference.append(u)
    return MatrixUnitSystem(i, tuple(slots), tuple(diagonal), tuple(from_reference))


def slot_bridge(decomp: Decomposition, src_obj, tgt_obj, counts, tgt_offsets=None):
    """A partial isometry assembled from the decomposition's matrix
    units: per block i it sends the copies [0, counts[i]) of src_obj to
    the copies [tgt_offsets[i], tgt_offsets[i] + counts[i]) of tgt_obj
    (from copy 0 when no offsets are given).  The empty bridge (every
    count zero) is the zero dim(tgt) x dim(src) matrix."""
    cat = decomp.category
    total = ExactMatrix.zeros(cat.dim(tgt_obj), cat.dim(src_obj))
    for i, n in enumerate(counts):
        mu = matrix_units(decomp, i)
        at = tgt_offsets[i] if tgt_offsets else 0
        for c in range(n):
            u_t = mu.from_reference[mu.slots.index((tgt_obj, at + c))]
            u_s = mu.from_reference[mu.slots.index((src_obj, c))]
            total = total + u_t @ u_s.adjoint()
    return total


# ---------------------------------------------------------------------------
# standard realization and Morita equivalence of categories


def graded_realization(form: SemisimpleForm, block_ranks) -> ConcreteStarCategory:
    """A concrete model of a semisimple shape in which each block-i
    multiplicity slot occupies block_ranks[i] ambient dimensions; rank
    one everywhere recovers the minimal standard model."""
    block_ranks = tuple(block_ranks)
    if len(block_ranks) != form.k:
        raise ValueError("one rank per block is required")
    if any(r < 1 for r in block_ranks):
        raise ValueError("block ranks must be positive")
    names = form.object_names()
    dims = {
        x: sum(c * r for c, r in zip(form.class_of(x), block_ranks)) for x in names
    }

    def offsets(x):
        offs = [0]
        for c, r in zip(form.class_of(x), block_ranks):
            offs.append(offs[-1] + c * r)
        return offs

    homs = {}
    for x in names:
        for y in names:
            basis = []
            offx, offy = offsets(x), offsets(y)
            for i in range(form.k):
                mx, my = form.class_of(x)[i], form.class_of(y)[i]
                r = block_ranks[i]
                for a in range(my):
                    for b in range(mx):
                        m = [[0] * dims[x] for _ in range(dims[y])]
                        for t in range(r):
                            m[offy[i] + a * r + t][offx[i] + b * r + t] = 1
                        basis.append(ExactMatrix.from_rows(m))
            if basis:
                homs[(x, y)] = basis
    return star_category([(x, dims[x]) for x in names], homs)


def standard_realization(form: SemisimpleForm) -> ConcreteStarCategory:
    """The canonical concrete model of a semisimple form: each object's
    space is graded by blocks, with all block-compatible matrices."""
    return graded_realization(form, (1,) * form.k)


def witness_functor(a: ConcreteStarCategory, b: ConcreteStarCategory):
    """A Morita-equivalence witness A -> Sat(B) for categories with the
    same number of blocks, matching blocks in order: the representative
    functor of the identity class matrix."""
    from .homotopy import ClassMatrix, ho_identity, representative_functor

    da, db = decompose(a), decompose(b)
    if len(da.blocks) != len(db.blocks):
        raise ValueError("block counts differ; no witness exists")
    identity = ho_identity(da.form).mult
    return representative_functor(ClassMatrix(da.form, db.form, identity), a, b)


def are_morita_equivalent(a: ConcreteStarCategory, b: ConcreteStarCategory):
    """Decide Morita equivalence of two decomposable categories.

    Returns (answer, witness): the answer is True iff the block counts
    agree; on True the witness is a functor A -> Sat(B) passing
    is_morita_equivalence (or None if the exact witness construction
    hits a norm obstruction on an exotically realized input)."""
    da, db = decompose(a), decompose(b)
    if len(da.blocks) != len(db.blocks):
        return False, None
    try:
        return True, witness_functor(a, b)
    except (WitnessObstruction, MinimalProjectionError):
        return True, None
