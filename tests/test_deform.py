import random
from fractions import Fraction

import pytest

from chernflat.acs import split
from chernflat.constructions import catalog
from chernflat.deform import (
    DeformationSpace,
    deformation_space,
    lie_derivative_direction,
)
from chernflat.linalg import ExactMatrix, kernel_basis
from chernflat.scalars import ONE, ZERO, gaussian

from helpers import satisfies_deformation_equations


def test_deformation_space_known_dimensions():
    expected = {
        "iwasawa_j3": (4, 4, 0),
        "dim4_model": (12, 4, 8),
        "dim5_irreducible": (12, 6, 6),
        "centro1_model(1)": (4, 4, 0),
    }
    for name, (dim, inner, quotient) in expected.items():
        e = catalog(name)
        space = deformation_space(split(e.algebra, e.acs))
        assert space.dimension == dim, name
        assert space.inner_rank == inner, name
        assert space.quotient_dimension == quotient, name


def test_abelian_deformations_count_and_block_shape():
    for k in (1, 2, 3):
        e = catalog(f"abelian({2 * k})")
        space = deformation_space(split(e.algebra, e.acs))
        assert space.dimension == 2 * k * k
        assert space.inner_rank == 0
        assert space.quotient_dimension == 2 * k * k
        for mat in space.matrices():
            for a in range(k):
                for b in range(k):
                    assert mat.entry(a, b) == -mat.entry(k + a, k + b)
                    assert mat.entry(a, k + b) == mat.entry(k + a, b)


def test_kernel_matrices_solve_the_equations():
    rng = random.Random(61)
    for name in ("iwasawa_j3", "dim4_model", "abelian(4)"):
        e = catalog(name)
        space = deformation_space(split(e.algebra, e.acs))
        mats = space.matrices()
        for mat in mats:
            assert satisfies_deformation_equations(e.algebra, e.acs, mat)
        if mats:
            combo = ExactMatrix.zeros(space.n, space.n)
            for mat in mats:
                combo = combo + mat * gaussian(rng.randint(-3, 3))
            assert satisfies_deformation_equations(e.algebra, e.acs, combo)


def test_satisfies_deformation_equations_witnesses():
    e = catalog("iwasawa_j3")
    verdict = satisfies_deformation_equations(e.algebra, e.acs, ExactMatrix.identity(6))
    assert not verdict
    assert verdict.witness[0] == "anticommutation"

    # anti-commutes with the structure but disturbs the bracket
    entries = [[ZERO] * 6 for _ in range(6)]
    entries[0][0] = ONE
    entries[3][3] = -ONE
    l_mat = ExactMatrix(entries)
    assert (l_mat * e.acs.j + e.acs.j * l_mat).is_zero()
    verdict = satisfies_deformation_equations(e.algebra, e.acs, l_mat)
    assert not verdict
    assert verdict.witness[0] == "bracket"

    with pytest.raises(ValueError):
        satisfies_deformation_equations(e.algebra, e.acs, ExactMatrix.identity(4))


def test_deformation_space_requires_flat_pair():
    bic = catalog("complex_heisenberg_bicomplex")
    with pytest.raises(ValueError):
        deformation_space(split(bic.algebra, bic.acs))
    with pytest.raises(ValueError):
        lie_derivative_direction(split(bic.algebra, bic.acs), [ONE, ZERO, ZERO, ZERO, ZERO, ZERO])


def test_lie_derivative_directions_are_inner_solutions():
    rng = random.Random(62)
    e = catalog("iwasawa_j3")
    for _ in range(10):
        x = [gaussian(Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for _ in range(6)]
        direction = lie_derivative_direction(split(e.algebra, e.acs), x)
        jx = e.acs.apply(x)
        assert direction == (e.acs.j * e.algebra.ad(x)) * gaussian(-2)
        assert direction == e.algebra.ad([c + c for c in jx])
        assert satisfies_deformation_equations(e.algebra, e.acs, direction)


def test_abelian_anticommutator_kernel_cross_check():
    # dense, independently assembled anticommutator system
    for k in (1, 2):
        n = 2 * k
        e = catalog(f"abelian({n})")
        j = e.acs.j
        rows = []
        for a in range(n):
            for b in range(n):
                row = [ZERO] * (n * n)
                for c in range(n):
                    row[a * n + c] = row[a * n + c] + j.entry(c, b)
                    row[c * n + b] = row[c * n + b] + j.entry(a, c)
                rows.append(row)
        dense_kernel = kernel_basis(ExactMatrix(rows))
        space = deformation_space(split(e.algebra, e.acs))
        assert len(dense_kernel) == space.dimension
