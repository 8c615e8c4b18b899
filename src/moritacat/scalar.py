"""Exact scalars and exact linear algebra over the Gaussian rationals.

Scalars are elements of Q(i), stored as a pair of arbitrary-precision
rationals.  Matrices are dense, row-major, immutable.  All algorithms
are exact; nothing in this module touches floating point.

One Gauss-Jordan elimination, ``_row_echelon``, underlies every query.
One augmented solve on it, ``_solve``, answers ``solve_right``,
``linear_combination``, ``span_membership`` and ``ExactMatrix.inverse``,
and ``combine`` builds the sums of scaled matrices they describe.

Canonical forms matter: subspaces of matrix spaces are always represented
by the reduced row-echelon basis of their flattened entry vectors, which
makes equality of subspaces decidable by tuple comparison.  A pivot row
is scaled only when its pivot is not already 1, so eliminating a basis
that is already canonical does zero tests only.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction


class ShapeError(ValueError):
    """Incompatible shapes in a matrix operation."""


class SingularMatrixError(ArithmeticError):
    """A matrix that had to be invertible was singular."""


class ScalarFormatError(ValueError):
    """A scalar string did not match the canonical format."""


class CertificateError(Exception):
    """An exact check of a constructed witness failed.  The witnesses
    are built to pass these checks, so this signals a bug, never a
    property of the input; unlike an assert it survives ``python -O``."""


@dataclass(frozen=True)
class GaussianRational:
    """An element a + b*i of Q(i) with exact rational parts."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re, im=0) -> "GaussianRational":
        return GaussianRational(Fraction(re), Fraction(im))

    def __add__(self, other):
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other):
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        """The multiplicative norm a^2 + b^2 (a rational, not a metric)."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


ZERO = GaussianRational(Fraction(0), Fraction(0))
ONE = GaussianRational(Fraction(1), Fraction(0))
I = GaussianRational(Fraction(0), Fraction(1))


def _format_fraction(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_scalar(z: GaussianRational) -> str:
    """Canonical string form: "a/b" for rationals, "a/b+c/d*i" otherwise."""
    if z.im == 0:
        return _format_fraction(z.re)
    sign = "+" if z.im > 0 else "-"
    return f"{_format_fraction(z.re)}{sign}{_format_fraction(abs(z.im))}*i"


_FRACTION_RE = r"-?\d+(?:/\d+)?"
_SCALAR_RE = _re.compile(
    rf"^(?P<re>{_FRACTION_RE})(?:(?P<sign>[+-])(?P<im>\d+(?:/\d+)?)\*i)?$"
)


def _parse_fraction(text: str) -> Fraction:
    try:
        if "/" not in text:
            return Fraction(int(text))
        num_s, den_s = text.split("/")
        num, den = int(num_s), int(den_s)
    except ValueError as exc:  # digits only, so beyond int()'s digit limit
        raise ScalarFormatError(f"scalar is too long: {exc}") from None
    if den <= 0:
        raise ScalarFormatError(f"denominator must be positive: {text!r}")
    from math import gcd

    if gcd(abs(num), den) != 1:
        raise ScalarFormatError(f"fraction not in lowest terms: {text!r}")
    return Fraction(num, den)


def parse_scalar(text: str) -> GaussianRational:
    """Parse the canonical scalar format, rejecting malformed or
    non-lowest-terms input."""
    if not isinstance(text, str):
        raise ScalarFormatError(f"scalar must be a string, got {type(text).__name__}")
    m = _SCALAR_RE.match(text.strip())
    if m is None:
        raise ScalarFormatError(f"malformed scalar: {text!r}")
    re_part = _parse_fraction(m.group("re"))
    if m.group("im") is None:
        return GaussianRational(re_part, Fraction(0))
    im_part = _parse_fraction(m.group("im"))
    if m.group("sign") == "-":
        im_part = -im_part
    return GaussianRational(re_part, im_part)


@dataclass(frozen=True)
class ExactMatrix:
    """A dense rows x cols matrix over Q(i), immutable and hashable."""

    rows: int
    cols: int
    entries: tuple  # row-major tuple of GaussianRational, length rows*cols

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ShapeError(f"negative shape {self.rows}x{self.cols}")
        if len(self.entries) != self.rows * self.cols:
            raise ShapeError(
                f"{len(self.entries)} entries for a {self.rows}x{self.cols} matrix"
            )

    # --- constructors -------------------------------------------------

    @staticmethod
    def from_rows(rows) -> "ExactMatrix":
        rows = [list(r) for r in rows]
        n_rows = len(rows)
        n_cols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != n_cols:
                raise ShapeError("ragged rows")
        entries = tuple(_coerce(e) for row in rows for e in row)
        return ExactMatrix(n_rows, n_cols, entries)

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix(
            n, n, tuple(ONE if i == j else ZERO for i in range(n) for j in range(n))
        )

    @staticmethod
    def zeros(rows: int, cols: int) -> "ExactMatrix":
        return ExactMatrix(rows, cols, (ZERO,) * (rows * cols))

    @staticmethod
    def diagonal(values) -> "ExactMatrix":
        values = [_coerce(v) for v in values]
        n = len(values)
        return ExactMatrix(
            n, n, tuple(values[i] if i == j else ZERO for i in range(n) for j in range(n))
        )

    # --- access -------------------------------------------------------

    def entry(self, i: int, j: int) -> GaussianRational:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def block(self, r0: int, c0: int, r1: int, c1: int) -> "ExactMatrix":
        """Submatrix with rows r0..r1-1 and columns c0..c1-1."""
        ents = tuple(
            self.entries[i * self.cols + j] for i in range(r0, r1) for j in range(c0, c1)
        )
        return ExactMatrix(r1 - r0, c1 - c0, ents)

    def flatten(self) -> tuple:
        return self.entries

    # --- arithmetic ---------------------------------------------------

    def __add__(self, other):
        self._same_shape(other)
        return ExactMatrix(
            self.rows,
            self.cols,
            tuple(a + b for a, b in zip(self.entries, other.entries)),
        )

    def __sub__(self, other):
        self._same_shape(other)
        return ExactMatrix(
            self.rows,
            self.cols,
            tuple(a - b for a, b in zip(self.entries, other.entries)),
        )

    def __neg__(self):
        return ExactMatrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        n, m, k = self.rows, self.cols, other.cols
        out = []
        for i in range(n):
            row_i = self.entries[i * m : (i + 1) * m]
            for j in range(k):
                acc = ZERO
                for t in range(m):
                    a = row_i[t]
                    if a.is_zero():
                        continue
                    b = other.entries[t * k + j]
                    if not b.is_zero():
                        acc = acc + a * b
                out.append(acc)
        return ExactMatrix(n, k, tuple(out))

    def scale(self, c: GaussianRational) -> "ExactMatrix":
        c = _coerce(c)
        return ExactMatrix(self.rows, self.cols, tuple(c * a for a in self.entries))

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            self.cols,
            self.rows,
            tuple(self.entry(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def conj(self) -> "ExactMatrix":
        return ExactMatrix(
            self.rows, self.cols, tuple(a.conjugate() for a in self.entries)
        )

    def adjoint(self) -> "ExactMatrix":
        """Conjugate transpose, the involution of every concrete *-category."""
        return self.transpose().conj()

    def trace(self) -> GaussianRational:
        if self.rows != self.cols:
            raise ShapeError("trace of a non-square matrix")
        acc = ZERO
        for i in range(self.rows):
            acc = acc + self.entry(i, i)
        return acc

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.entries)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_self_adjoint(self) -> bool:
        return self == self.adjoint()

    def is_idempotent(self) -> bool:
        return self.is_square() and self @ self == self

    def is_projection(self) -> bool:
        return self.is_idempotent() and self.is_self_adjoint()

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    # --- elimination-based queries -------------------------------------

    def rank(self) -> int:
        reduced, pivots = _row_echelon([list(self.row(i)) for i in range(self.rows)])
        return len(pivots)

    def inverse(self) -> "ExactMatrix":
        if not self.is_square():
            raise ShapeError("only square matrices can be inverted")
        inv = solve_right(self, ExactMatrix.identity(self.rows))
        if inv is None:
            raise SingularMatrixError("matrix is singular")
        return inv

    def __str__(self):
        return "[" + "; ".join(
            ", ".join(format_scalar(self.entry(i, j)) for j in range(self.cols))
            for i in range(self.rows)
        ) + "]"

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols}: {self})"


def _coerce(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(Fraction(value), Fraction(0))
    if isinstance(value, str):
        return parse_scalar(value)
    raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")


def scalar(value) -> GaussianRational:
    """Coerce an int, Fraction, string, or GaussianRational to a scalar."""
    return _coerce(value)


def matrix(rows) -> ExactMatrix:
    """Build an ExactMatrix from nested lists of coercible entries."""
    return ExactMatrix.from_rows(rows)


# --- block composition ------------------------------------------------


def hstack(mats) -> ExactMatrix:
    mats = list(mats)
    if not mats:
        raise ShapeError("hstack of nothing")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ShapeError("hstack with differing row counts")
    out = []
    for i in range(rows):
        for m in mats:
            out.extend(m.row(i))
    return ExactMatrix(rows, sum(m.cols for m in mats), tuple(out))


def vstack(mats) -> ExactMatrix:
    mats = list(mats)
    if not mats:
        raise ShapeError("vstack of nothing")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ShapeError("vstack with differing column counts")
    out = []
    for m in mats:
        out.extend(m.entries)
    return ExactMatrix(sum(m.rows for m in mats), cols, tuple(out))


def block_diag(mats) -> ExactMatrix:
    mats = list(mats)
    total_r = sum(m.rows for m in mats)
    total_c = sum(m.cols for m in mats)
    out = ExactMatrix.zeros(total_r, total_c)
    ents = list(out.entries)
    r0 = c0 = 0
    for m in mats:
        for i in range(m.rows):
            for j in range(m.cols):
                ents[(r0 + i) * total_c + (c0 + j)] = m.entry(i, j)
        r0 += m.rows
        c0 += m.cols
    return ExactMatrix(total_r, total_c, tuple(ents))


def from_blocks(grid) -> ExactMatrix:
    """Assemble a matrix from a rectangular grid of blocks."""
    return vstack([hstack(row) for row in grid])


def kron(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Kronecker product, row-major convention."""
    out = []
    for i in range(a.rows):
        for k in range(b.rows):
            for j in range(a.cols):
                for l in range(b.cols):
                    out.append(a.entry(i, j) * b.entry(k, l))
    return ExactMatrix(a.rows * b.rows, a.cols * b.cols, tuple(out))


# --- echelon machinery ------------------------------------------------


def _row_echelon(rows, stop_col=None):
    """In-place Gauss-Jordan elimination on a list of lists.

    Returns (rows, pivot_columns) in reduced echelon form: pivots are 1
    and are the only nonzero entries in their columns.  stop_col limits
    pivot search to the first columns (used for augmented systems).
    """
    if not rows:
        return rows, []
    n_cols = len(rows[0])
    limit = n_cols if stop_col is None else stop_col
    pivots = []
    r = 0
    for c in range(limit):
        pivot_row = None
        for i in range(r, len(rows)):
            if not rows[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        if rows[r][c] != ONE:
            inv = ONE / rows[r][c]
            rows[r] = [inv * x for x in rows[r]]
        for i in range(len(rows)):
            if i == r:
                continue
            factor = rows[i][c]
            if factor.is_zero():
                continue
            rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def echelon_basis(vectors):
    """Canonical reduced-echelon basis of the span of the given vectors.

    Vectors are tuples over Q(i); zero rows are dropped, so two spans are
    equal iff their echelon bases are equal as tuples.
    """
    rows = [list(v) for v in vectors]
    reduced, pivots = _row_echelon(rows)
    return tuple(tuple(reduced[i]) for i in range(len(pivots)))


def vector_in_span(vector, echelon_rows):
    """Coefficients of vector over a reduced-echelon basis, or None.

    Because the basis is reduced, the coefficient of each basis row is
    simply the vector's entry at that row's pivot column.
    """
    vec = list(vector)
    coeffs = []
    for row in echelon_rows:
        pivot_col = next(i for i, x in enumerate(row) if not x.is_zero())
        c = vec[pivot_col]
        coeffs.append(c)
        if not c.is_zero():
            vec = [x - c * y for x, y in zip(vec, row)]
    if any(not x.is_zero() for x in vec):
        return None
    return coeffs


class MatrixSpan:
    """A subspace of a matrix space in canonical reduced-echelon form."""

    __slots__ = ("rows", "cols", "basis_vectors", "_matrices")

    def __init__(self, rows, cols, matrices):
        self.rows = rows
        self.cols = cols
        for m in matrices:
            if m.rows != rows or m.cols != cols:
                raise ShapeError("span generator of wrong shape")
        self.basis_vectors = echelon_basis([m.flatten() for m in matrices])
        self._matrices = None

    @property
    def dim(self) -> int:
        return len(self.basis_vectors)

    @property
    def matrices(self):
        if self._matrices is None:
            self._matrices = tuple(
                ExactMatrix(self.rows, self.cols, v) for v in self.basis_vectors
            )
        return self._matrices

    def coefficients(self, m: ExactMatrix):
        if m.rows != self.rows or m.cols != self.cols:
            raise ShapeError("membership query with wrong shape")
        return vector_in_span(m.flatten(), self.basis_vectors)

    def contains(self, m: ExactMatrix) -> bool:
        return self.coefficients(m) is not None

    def __eq__(self, other):
        return (
            isinstance(other, MatrixSpan)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.basis_vectors == other.basis_vectors
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.basis_vectors))

    def __repr__(self):
        return f"MatrixSpan({self.rows}x{self.cols}, dim={self.dim})"


def nullspace(rows):
    """Canonical basis of the right nullspace of a matrix given as a
    list of row tuples."""
    rows = [list(r) for r in rows]
    if not rows:
        return ()
    n = len(rows[0])
    reduced, pivots = _row_echelon(rows)
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [ZERO] * n
        vec[f] = ONE
        for r, p in enumerate(pivots):
            vec[p] = -reduced[r][f]
        basis.append(tuple(vec))
    return tuple(basis)


def _solve(aug, unknowns, width):
    """One solution of an augmented system, or None if it is inconsistent.

    Each row of aug holds the coefficients of the unknowns, then width
    right-hand sides.  The solution has one row of width values per
    unknown: the reduced pivot rows in place, zero at the free unknowns.
    """
    reduced, pivots = _row_echelon(aug, stop_col=unknowns)
    for row in reduced[len(pivots):]:
        if any(not x.is_zero() for x in row[unknowns:]):
            return None
    x = [[ZERO] * width for _ in range(unknowns)]
    for row, p in zip(reduced, pivots):
        x[p] = row[unknowns:]
    return x


def linear_combination(vectors, target):
    """Coefficients writing target as a combination of the vectors
    (tuples over Q(i)), or None.  Deterministic particular solution."""
    vectors = list(vectors)
    aug = [[v[i] for v in vectors] + [t] for i, t in enumerate(target)]
    x = _solve(aug, len(vectors), 1)
    return None if x is None else [row[0] for row in x]


def combine(coeffs, matrices, rows: int, cols: int) -> ExactMatrix:
    """The rows x cols matrix sum of c * m over paired coefficients and
    matrices; zero coefficients are skipped, so an empty sum is zero."""
    acc = [ZERO] * (rows * cols)
    for c, m in zip(coeffs, matrices):
        if c.is_zero():
            continue
        if m.rows != rows or m.cols != cols:
            raise ShapeError(f"combining a {m.rows}x{m.cols} matrix into {rows}x{cols}")
        acc = [a + c * x for a, x in zip(acc, m.entries)]
    return ExactMatrix(rows, cols, tuple(acc))


def span_membership(target: ExactMatrix, basis):
    """Coefficients expressing target over the given matrices, or None.

    The basis need not be independent; a deterministic particular
    solution (free coefficients zero) is returned.  When the basis is
    independent the coefficients are unique.
    """
    basis = list(basis)
    for b in basis:
        if b.rows != target.rows or b.cols != target.cols:
            raise ShapeError("span_membership with mismatched shapes")
    coeffs = linear_combination([b.flatten() for b in basis], target.flatten())
    if coeffs is None:
        return None
    # Verify (cheap, guards against dependent-basis subtleties).
    if combine(coeffs, basis, target.rows, target.cols) != target:
        return None
    return coeffs


def solve_right(a: ExactMatrix, b: ExactMatrix):
    """One exact solution x of a @ x = b, or None if inconsistent."""
    if a.rows != b.rows:
        raise ShapeError("solve_right shape mismatch")
    aug = [list(a.row(i)) + list(b.row(i)) for i in range(a.rows)]
    x = _solve(aug, a.cols, b.cols)
    if x is None:
        return None
    return ExactMatrix(a.cols, b.cols, tuple(e for row in x for e in row))


def range_projection(e: ExactMatrix) -> ExactMatrix:
    """The orthogonal projection onto the range of an idempotent.

    For an idempotent e the element p = e e* (1 + (e-e*)(e*-e))^(-1)
    is the unique projection with p e = e and e p = p; it lies in every
    adjoint-closed unital algebra containing e.  The inverted factor is
    1 plus a positive semidefinite matrix, hence always invertible.
    """
    if not e.is_square():
        raise ShapeError("range_projection needs a square matrix")
    if e @ e != e:
        raise ValueError("range_projection: input is not idempotent")
    d = e - e.adjoint()
    inv = (ExactMatrix.identity(e.rows) + d @ d.adjoint()).inverse()
    p = e @ e.adjoint() @ inv
    if p @ p != p:
        raise CertificateError("range projection is not idempotent")
    if p != p.adjoint():
        raise CertificateError("range projection is not self-adjoint")
    if p @ e != e:
        raise CertificateError("range projection does not fix the idempotent")
    if e @ p != p:
        raise CertificateError("range projection is not absorbed by the idempotent")
    if p.rank() != e.rank():
        raise CertificateError("range projection changed the rank")
    return p


def check_partial_isometry(v: ExactMatrix, p: ExactMatrix, q: ExactMatrix, message: str):
    """Raise CertificateError(message) unless v* v = p and v v* = q."""
    if v.adjoint() @ v != p or v @ v.adjoint() != q:
        raise CertificateError(message)


def orthogonal_projection_onto(columns: ExactMatrix) -> ExactMatrix:
    """Projection onto the column space of an injective exact matrix.

    Uses p = V (V* V)^(-1) V*; the Gram matrix is positive definite for
    independent columns, so the inverse is exact and always exists.
    """
    gram = columns.adjoint() @ columns
    try:
        inv = gram.inverse()
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            "orthogonal_projection_onto requires independent columns"
        ) from exc
    return columns @ inv @ columns.adjoint()
