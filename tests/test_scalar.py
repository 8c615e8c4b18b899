"""Tests for exact scalars, matrices, and range projections.

Expected values were derived by hand (small eliminations and the
projection formula evaluated step by step) and are frozen here.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moritacat
from moritacat import homotopy
from moritacat.scalar import (
    CertificateError,
    ExactMatrix,
    GaussianRational,
    MatrixSpan,
    ScalarFormatError,
    ShapeError,
    SingularMatrixError,
    block_diag,
    combine,
    echelon_basis,
    format_scalar,
    from_blocks,
    hstack,
    kron,
    linear_combination,
    matrix,
    orthogonal_projection_onto,
    parse_scalar,
    range_projection,
    scalar,
    span_membership,
    solve_right,
    vector_in_span,
    vstack,
)

# ---------------------------------------------------------------------------
# scalars


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


gaussians = st.builds(GaussianRational, small_fractions, small_fractions)


class TestGaussianRational:
    def test_field_basics(self):
        a = gr("1/2", "3/4")
        b = gr(2, -1)
        assert a + b == gr("5/2", "-1/4")
        assert a - b == gr("-3/2", "7/4")
        assert a * b == gr("7/4", 1)
        assert (a / b) * b == a

    def test_conjugate_and_norm(self):
        z = gr(3, 4)
        assert z.conjugate() == gr(3, -4)
        assert z.norm() == 25
        assert (z * z.conjugate()) == gr(25, 0)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            gr(1) / gr(0)

    @given(gaussians, gaussians)
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @given(gaussians, gaussians, gaussians)
    def test_mul_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(gaussians)
    def test_conjugation_is_involutive_and_multiplicative(self, a):
        assert a.conjugate().conjugate() == a
        b = gr("1/3", -2)
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()


class TestScalarStrings:
    def test_format(self):
        assert format_scalar(gr(0)) == "0"
        assert format_scalar(gr("3/2")) == "3/2"
        assert format_scalar(gr(-1)) == "-1"
        assert format_scalar(gr("1/2", "3/4")) == "1/2+3/4*i"
        assert format_scalar(gr(0, -2)) == "0-2*i"
        assert format_scalar(gr("-1/2", 1)) == "-1/2+1*i"

    def test_parse_round_trip(self):
        for text in ["0", "7", "-3/2", "1/2+3/4*i", "0-2*i", "-5+1*i"]:
            assert format_scalar(parse_scalar(text)) == text

    @given(gaussians)
    def test_round_trip_everything(self, z):
        assert parse_scalar(format_scalar(z)) == z

    def test_rejects_garbage(self):
        for bad in ["", "i", "1+i", "2/4", "1/-2", "1.5", "1/0", "+1", "1 + 2*i", "2/4+1/2*i"]:
            with pytest.raises(ScalarFormatError):
                parse_scalar(bad)

    def test_rejects_more_digits_than_int_converts(self):
        for text in ["1" + "0" * 5000, "1/1" + "0" * 5000, "0-1" + "0" * 5000 + "*i"]:
            with pytest.raises(ScalarFormatError, match="scalar is too long"):
                parse_scalar(text)


# ---------------------------------------------------------------------------
# matrices


class TestExactMatrix:
    def test_product_and_adjoint(self):
        a = matrix([[1, "0+1*i"], [0, 2]])
        b = matrix([["1/2", 0], [1, 1]])
        ab = a @ b
        assert ab == matrix([["1/2+1*i", "0+1*i"], [2, 2]])
        assert (a @ b).adjoint() == b.adjoint() @ a.adjoint()
        assert a.adjoint() == matrix([[1, 0], ["0-1*i", 2]])

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            matrix([[1, 2]]) @ matrix([[1, 2]])
        with pytest.raises(ShapeError):
            matrix([[1]]) + matrix([[1, 2]])

    def test_rank_of_known_matrices(self):
        assert ExactMatrix.identity(3).rank() == 3
        assert ExactMatrix.zeros(2, 5).rank() == 0
        assert matrix([[1, 2], [2, 4]]).rank() == 1
        assert matrix([[1, 1], [0, 0]]).rank() == 1

    def test_rank_invariant_under_permutation(self):
        m = matrix([[1, 2, 3], [0, 1, 1], [1, 3, 4]])
        permuted = matrix([[1, 3, 4], [1, 2, 3], [0, 1, 1]])
        assert m.rank() == permuted.rank() == 2
        assert m.transpose().rank() == 2

    def test_inverse(self):
        m = matrix([[1, 1], [0, "0+1*i"]])
        inv = m.inverse()
        assert m @ inv == ExactMatrix.identity(2)
        assert inv @ m == ExactMatrix.identity(2)
        with pytest.raises(SingularMatrixError):
            matrix([[1, 2], [2, 4]]).inverse()

    def test_zero_dimensional(self):
        e = ExactMatrix.zeros(0, 0)
        assert e @ e == e
        assert e.rank() == 0
        assert e.inverse() == e
        tall = ExactMatrix.zeros(2, 0)
        wide = ExactMatrix.zeros(0, 2)
        assert (tall @ wide) == ExactMatrix.zeros(2, 2)

    def test_blocks(self):
        a = matrix([[1, 2], [3, 4]])
        b = matrix([[5]])
        d = block_diag([a, b])
        assert d.rows == d.cols == 3
        assert d.entry(2, 2) == gr(5)
        assert d.block(0, 0, 2, 2) == a
        assert hstack([a, matrix([[0], [0]])]).cols == 3
        assert vstack([a, matrix([[0, 0]])]).rows == 3
        assert from_blocks([[a, matrix([[0], [0]])], [matrix([[0, 0]]), b]]) == d

    def test_kron_row_major(self):
        a = matrix([[1, 2]])
        b = matrix([[1], ["0+1*i"]])
        k = kron(a, b)
        assert k == matrix([[1, 2], ["0+1*i", "0+2*i"]])


# ---------------------------------------------------------------------------
# spans and membership


class TestSpans:
    def test_echelon_basis_is_canonical(self):
        v1 = (gr(1), gr(1), gr(0))
        v2 = (gr(0), gr(1), gr(1))
        b1 = echelon_basis([v1, v2])
        b2 = echelon_basis([v2, (gr(2), gr(2), gr(0)), v1])
        assert b1 == b2
        assert len(b1) == 2

    def test_vector_in_span(self):
        basis = echelon_basis([(gr(1), gr(0), gr(1)), (gr(0), gr(1), gr(1))])
        coeffs = vector_in_span((gr(2), gr(3), gr(5)), basis)
        assert coeffs == [gr(2), gr(3)]
        assert vector_in_span((gr(0), gr(0), gr(1)), basis) is None

    def test_span_membership_known(self):
        e11 = matrix([[1, 0], [0, 0]])
        e22 = matrix([[0, 0], [0, 1]])
        coeffs = span_membership(matrix([["1/2", 0], [0, "0+1*i"]]), [e11, e22])
        assert coeffs == [gr("1/2"), gr(0, 1)]
        assert span_membership(matrix([[0, 1], [0, 0]]), [e11, e22]) is None

    def test_span_membership_dependent_basis(self):
        a = matrix([[1, 0], [0, 1]])
        coeffs = span_membership(matrix([[2, 0], [0, 2]]), [a, a])
        assert coeffs is not None
        total = ExactMatrix.zeros(2, 2)
        for c, b in zip(coeffs, [a, a]):
            total = total + b.scale(c)
        assert total == matrix([[2, 0], [0, 2]])

    def test_membership_agrees_with_alternative_elimination(self):
        # Independent cross-check: membership in a span is equivalent to
        # rank not growing when the target is appended, and rank can be
        # computed after arbitrary row permutations.
        gens = [
            matrix([[1, 1], [0, 0]]),
            matrix([[0, 0], [1, "0+1*i"]]),
        ]
        target = matrix([["1/2", "1/2"], [-1, "0-1*i"]])
        span = MatrixSpan(2, 2, gens)
        assert span.contains(target)
        stacked = echelon_basis(
            [m.flatten() for m in gens] + [target.flatten()]
        )
        assert len(stacked) == span.dim
        reversed_gens = echelon_basis(
            [target.flatten()] + [m.flatten() for m in reversed(gens)]
        )
        assert len(reversed_gens) == span.dim

    def test_solve_right(self):
        a = matrix([[1, 2], [3, 4]])
        b = matrix([[1], [1]])
        x = solve_right(a, b)
        assert a @ x == b
        assert solve_right(matrix([[1, 1], [1, 1]]), matrix([[0], [1]])) is None

    def test_combine(self):
        a, b = matrix([[1, 0]]), matrix([[0, 1]])
        assert combine([gr(2), gr(0, 1)], [a, b], 1, 2) == matrix([[2, "0+1*i"]])
        assert combine([], [], 2, 3) == ExactMatrix.zeros(2, 3)
        with pytest.raises(ShapeError):
            combine([gr(1)], [a], 2, 1)

    def test_solve_right_without_equations(self):
        x = solve_right(ExactMatrix.zeros(0, 2), ExactMatrix.zeros(0, 3))
        assert x == ExactMatrix.zeros(2, 3)


# ---------------------------------------------------------------------------
# the solver contract, on small matrices of every rank and of empty shapes

contract = settings(derandomize=True, max_examples=150, deadline=None)

small_entries = st.one_of(
    st.just(gr(0)),
    st.builds(
        GaussianRational,
        st.fractions(min_value=-2, max_value=2, max_denominator=2),
        st.fractions(min_value=-1, max_value=1, max_denominator=2),
    ),
)


def _dense(draw, rows, cols):
    n = rows * cols
    return ExactMatrix(
        rows, cols, tuple(draw(st.lists(small_entries, min_size=n, max_size=n)))
    )


@st.composite
def exact_matrices(draw, rows, cols):
    """A dense matrix, or a product through at most two columns, which is
    rank-deficient whenever both sides exceed two."""
    if draw(st.booleans()):
        return _dense(draw, rows, cols)
    inner = draw(st.integers(0, 2))
    return _dense(draw, rows, inner) @ _dense(draw, inner, cols)


@st.composite
def systems(draw, rows=st.integers(0, 3)):
    """A pair (a, b) for a @ x = b, consistent by construction or drawn
    freely."""
    n, m, k = draw(rows), draw(st.integers(0, 3)), draw(st.integers(0, 3))
    a = draw(exact_matrices(n, m))
    if draw(st.booleans()):
        return a, a @ draw(exact_matrices(m, k))
    return a, draw(exact_matrices(n, k))


def pivot_columns(a):
    basis = echelon_basis([a.row(i) for i in range(a.rows)])
    return {next(j for j, x in enumerate(row) if x) for row in basis}


def columns(a):
    return [tuple(a.entry(i, j) for i in range(a.rows)) for j in range(a.cols)]


class TestSolverContract:
    @contract
    @given(systems())
    def test_solve_right(self, system):
        a, b = system
        x = solve_right(a, b)
        if hstack([a, b]).rank() > a.rank():
            assert x is None
            return
        assert x is not None
        assert (x.rows, x.cols) == (a.cols, b.cols)
        assert a @ x == b
        pivots = pivot_columns(a)
        for j in range(a.cols):
            if j not in pivots:
                assert all(e.is_zero() for e in x.row(j))

    @contract
    @given(st.integers(0, 2), st.integers(0, 2), st.data())
    def test_combinations_agree_with_solve_right(self, r, c, data):
        a, b = data.draw(systems(rows=st.just(r * c)))
        for t in columns(b):
            x = solve_right(a, ExactMatrix(a.rows, 1, t))
            coeffs = linear_combination(columns(a), t)
            basis = [ExactMatrix(r, c, v) for v in columns(a)]
            membership = span_membership(ExactMatrix(r, c, t), basis)
            if x is None:
                assert coeffs is None and membership is None
            else:
                assert coeffs == membership == list(x.entries)

    @contract
    @given(st.integers(0, 3).flatmap(lambda n: exact_matrices(n, n)))
    def test_inverse(self, a):
        n = a.rows
        if a.rank() < n:
            with pytest.raises(SingularMatrixError):
                a.inverse()
            return
        inv = a.inverse()
        assert a @ inv == inv @ a == ExactMatrix.identity(n)

    @contract
    @given(st.integers(0, 4), st.integers(0, 4), st.data())
    def test_echelon_basis_is_a_fixed_point(self, r, c, data):
        a = data.draw(exact_matrices(r, c))
        basis = echelon_basis([a.row(i) for i in range(a.rows)])
        assert echelon_basis(basis) == basis
        for k, row in enumerate(basis):
            p = next(j for j, x in enumerate(row) if x)
            assert row[p] == gr(1)
            assert all(other[p].is_zero() for i, other in enumerate(basis) if i != k)


# ---------------------------------------------------------------------------
# range projections


def random_idempotent(rng, n, r):
    """Idempotent of rank r on an n-dimensional space, built as v @ w
    with w @ v = identity."""
    while True:
        v = ExactMatrix.from_rows(
            [
                [
                    GaussianRational(
                        Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                        Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
                    )
                    for _ in range(r)
                ]
                for _ in range(n)
            ]
        )
        gram = v.adjoint() @ v
        try:
            w = gram.inverse() @ v.adjoint()
        except SingularMatrixError:
            continue
        if v.rank() != r:
            continue
        # Shear the left inverse so the idempotent is generically
        # non-self-adjoint: any w' = w + t (I - v w) keeps w' v = I.
        t = ExactMatrix.from_rows(
            [
                [scalar(rng.randint(-2, 2)) for _ in range(n)]
                for _ in range(r)
            ]
        )
        w = w + t @ (ExactMatrix.identity(n) - v @ w)
        assert w @ v == ExactMatrix.identity(r)
        return v @ w


class TestRangeProjection:
    def test_frozen_two_by_two(self):
        # e = [[1,1],[0,0]]: e e* = [[2,0],[0,0]], the corrective factor
        # is 2*I, so p = [[1,0],[0,0]].
        e = matrix([[1, 1], [0, 0]])
        assert range_projection(e) == matrix([[1, 0], [0, 0]])

    def test_projection_fixed(self):
        p = matrix([["1/2", "1/2"], ["1/2", "1/2"]])
        assert range_projection(p) == p

    def test_identity_and_zero(self):
        assert range_projection(ExactMatrix.identity(3)) == ExactMatrix.identity(3)
        z = ExactMatrix.zeros(2, 2)
        assert range_projection(z) == z

    def test_rejects_non_idempotent(self):
        with pytest.raises(ValueError):
            range_projection(matrix([[1, 1], [1, 1]]))
        with pytest.raises(ShapeError):
            range_projection(matrix([[1, 0]]))

    def test_complex_idempotent(self):
        e = matrix([[1, "0+1*i"], [0, 0]])
        p = range_projection(e)
        assert p.is_projection()
        assert p @ e == e
        assert e @ p == p

    def test_seeded_idempotents(self):
        import random

        rng = random.Random(20211)
        for _ in range(40):
            n = rng.randint(1, 5)
            r = rng.randint(0, n)
            e = (
                ExactMatrix.zeros(n, n)
                if r == 0
                else random_idempotent(rng, n, r)
            )
            p = range_projection(e)
            assert p.is_projection()
            assert p @ e == e
            assert e @ p == p
            assert p.rank() == e.rank() == r


class TestOrthogonalProjection:
    def test_onto_column(self):
        v = matrix([[3], [4]])
        p = orthogonal_projection_onto(v)
        assert p.is_projection()
        assert p @ v == v
        assert p == matrix([["9/25", "12/25"], ["12/25", "16/25"]])

    def test_requires_independent_columns(self):
        with pytest.raises(SingularMatrixError):
            orthogonal_projection_onto(matrix([[1, 1], [1, 1]]))


# ---------------------------------------------------------------------------
# shape and certificate checks survive python -O


CHECKS_SCRIPT = """
from moritacat.scalar import (
    CertificateError, ExactMatrix, ShapeError, matrix, range_projection,
)

for shape in ((-1, 0, ()), (2, 2, ())):
    try:
        ExactMatrix(*shape)
    except ShapeError as exc:
        print(exc)
    else:
        raise SystemExit("no ShapeError")
ExactMatrix.inverse = lambda self: ExactMatrix.identity(self.rows)
try:
    range_projection(matrix([[1, 1], [0, 0]]))
except CertificateError as exc:
    print(exc)
else:
    raise SystemExit("no refusal")
"""


class TestChecksAreRaises:
    def test_malformed_matrix_raises_shape_error(self):
        with pytest.raises(ShapeError, match="negative shape"):
            ExactMatrix(-1, 0, ())
        with pytest.raises(ShapeError, match="1 entries for a 2x2 matrix"):
            ExactMatrix(2, 2, (gr(0),))

    def test_range_projection_certificate_raises(self, monkeypatch):
        # With the identity for the inverse, e = [[1, 1], [0, 0]] gives
        # p = e e* = [[2, 0], [0, 0]], which is not idempotent.
        monkeypatch.setattr(ExactMatrix, "inverse", lambda m: ExactMatrix.identity(m.rows))
        with pytest.raises(CertificateError, match="not idempotent"):
            range_projection(matrix([[1, 1], [0, 0]]))

    def test_homotopy_raises_the_same_certificate_error(self):
        assert homotopy.CertificateError is CertificateError

    def test_checks_survive_python_O(self):
        proc = subprocess.run(
            [sys.executable, "-O", "-c", CHECKS_SCRIPT],
            capture_output=True,
            text=True,
            env={
                "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
                "PYTHONPATH": str(Path(moritacat.__file__).resolve().parents[1]),
                "PYTHONDONTWRITEBYTECODE": "1",
            },
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "negative shape -1x0",
            "0 entries for a 2x2 matrix",
            "range projection is not idempotent",
        ]
