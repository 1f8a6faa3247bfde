import random
from fractions import Fraction

import pytest

from chernflat.linalg import (
    ExactMatrix,
    SingularMatrixError,
    det,
    inverse,
    kernel_basis,
    kernel_from_rows,
    rank,
    rank_of_rows,
    random_invertible,
)
from chernflat.scalars import GaussianRational, I, ONE, ZERO, gaussian

from helpers import random_gaussian


def _random_matrix(rng, rows, cols, span=3):
    return ExactMatrix(
        [[random_gaussian(rng, span) for _ in range(cols)] for _ in range(rows)]
    )


def test_basic_algebra():
    a = ExactMatrix([[gaussian(1), gaussian(2)], [gaussian(3), gaussian(4)]])
    b = ExactMatrix.identity(2)
    assert a * b == a
    assert (a + a) == a * gaussian(2)
    assert (a - a).is_zero()
    assert a.transpose().transpose() == a
    assert a.matvec((ONE, ZERO)) == (gaussian(1), gaussian(3))


def test_conjugate_transpose_and_reality():
    m = ExactMatrix([[I, ONE], [ZERO, -I]])
    assert m.conj_transpose() == m.conj().transpose()
    assert not m.is_real()
    assert ExactMatrix.identity(3).is_real()


def test_rank_and_kernel_small():
    m = ExactMatrix(
        [
            [gaussian(1), gaussian(2), gaussian(3)],
            [gaussian(2), gaussian(4), gaussian(6)],
        ]
    )
    assert rank(m) == 1
    kern = kernel_basis(m)
    assert len(kern) == 2
    for v in kern:
        assert m.matvec(v) == (ZERO, ZERO)


def test_rank_nullity_random():
    rng = random.Random(11)
    for _ in range(40):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = _random_matrix(rng, rows, cols)
        r = rank(m)
        kern = kernel_basis(m)
        assert r + len(kern) == cols
        for v in kern:
            assert all(c == ZERO for c in m.matvec(v))


def test_inverse_round_trip_random():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 6)
        m = random_invertible(n, rng, complex_entries=True, span=3)
        inv = inverse(m)
        assert m * inv == ExactMatrix.identity(n)
        assert inv * m == ExactMatrix.identity(n)


def test_inverse_rejects_singular():
    a, b = GaussianRational(1, 2), GaussianRational(-3, 1)
    singular = [
        ExactMatrix([[ONE, ONE], [ONE, ONE]]),
        # rank 2 over Q(i): the third row is i * row 1 + (1 - i) * row 2
        ExactMatrix([
            [a, b, ONE],
            [b, ONE, a],
            [I * a + (1 - I) * b, I * b + (1 - I), I + (1 - I) * a],
        ]),
        ExactMatrix([[a, b, ONE], [ZERO, ZERO, ZERO], [b, a, I]]),
    ]
    for m in singular:
        assert rank(m) < m.rows
        with pytest.raises(SingularMatrixError):
            inverse(m)


def test_determinant_properties_random():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(1, 5)
        a = _random_matrix(rng, n, n, span=2)
        b = _random_matrix(rng, n, n, span=2)
        assert det(a * b) == det(a) * det(b)
        assert det(a.transpose()) == det(a)
    assert det(ExactMatrix.identity(4)) == ONE


def test_determinant_detects_singularity():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 5)
        m = _random_matrix(rng, n, n)
        assert (det(m) == ZERO) == (rank(m) < n)


def test_sparse_row_kernel_matches_dense():
    rng = random.Random(23)
    for _ in range(30):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 6)
        m = _random_matrix(rng, rows, cols, span=2)
        sparse = [
            {c: m.entry(r, c) for c in range(cols) if m.entry(r, c)}
            for r in range(rows)
        ]
        assert rank_of_rows(cols, sparse) == rank(m)
        kern_sparse = kernel_from_rows(cols, sparse)
        assert len(kern_sparse) == len(kernel_basis(m))
        for v in kern_sparse:
            assert all(c == ZERO for c in m.matvec(v))


def test_from_columns_and_blocks():
    cols = [[ONE, ZERO], [I, ONE]]
    m = ExactMatrix.from_columns(cols)
    assert m.column(0) == (ONE, ZERO)
    assert m.column(1) == (I, ONE)
