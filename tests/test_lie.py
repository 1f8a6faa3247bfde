import random
from fractions import Fraction

import pytest

from chernflat.lie import (
    JacobiError,
    LieAlgebra,
    Subspace,
    center,
    is_two_step,
    jacobi_defect,
    lower_central_series,
    nilpotency_step,
)
from chernflat.scalars import ONE, ZERO, gaussian

from helpers import random_two_step_real_algebra
from oracles import basis_bracket, bracket, derived_subalgebra, matvec


def _heis3():
    return LieAlgebra(3, {(0, 1): {2: Fraction(1)}})


def test_constructor_validation():
    with pytest.raises(ValueError):
        LieAlgebra(0, {})
    with pytest.raises(ValueError):
        LieAlgebra(3, {(1, 0): {2: 1}})
    with pytest.raises(ValueError):
        LieAlgebra(3, {(0, 3): {2: 1}})
    with pytest.raises(ValueError):
        LieAlgebra(3, {(0, 1): {3: 1}})
    from chernflat.scalars import GaussianRational

    with pytest.raises(ValueError):
        LieAlgebra(3, {(0, 1): {2: GaussianRational(1, 1)}}, field="Q")
    with pytest.raises(ValueError):
        LieAlgebra(3, {}, field="R")


def test_rows_given_out_of_order_are_stored_with_ascending_targets():
    # the pairs keep their input order; the targets of each row ascend
    raw = {(1, 2): {4: Fraction(3), 3: Fraction(-1)}, (0, 1): {4: Fraction(1, 2), 2: 0, 3: Fraction(2)}}
    g = LieAlgebra(5, raw)
    assert list(g.brackets) == [(1, 2), (0, 1)]
    assert [list(vec) for vec in g.brackets.values()] == [[3, 4], [3, 4]]
    assert g.brackets[(0, 1)] == {3: gaussian(2), 4: gaussian(Fraction(1, 2))}
    assert list(raw[(1, 2)]) == [4, 3]
    assert jacobi_defect(5, g.numerators()) == []


def test_jacobi_enforced_with_witness():
    bad = {(0, 1): {2: 1}, (0, 2): {0: 1}}
    with pytest.raises(JacobiError) as err:
        LieAlgebra(3, bad)
    assert err.value.defects
    triples = [t for t, _ in err.value.defects]
    assert (0, 1, 2) in triples
    with pytest.raises(JacobiError) as err:
        LieAlgebra(3, {(0, 1): {2: gaussian(1)}, (0, 2): {0: gaussian(1)}})
    defects = err.value.defects
    assert defects


def test_bracket_bilinearity_and_antisymmetry():
    g = _heis3()
    assert basis_bracket(g, 0, 1) == (ZERO, ZERO, ONE)
    assert basis_bracket(g, 1, 0) == (ZERO, ZERO, -ONE)
    assert g.structure_constant(1, 0, 2) == -ONE
    x = (gaussian(2), gaussian(3), ZERO)
    y = (gaussian(-1), gaussian(4), gaussian(5))
    xy = bracket(g, x, y)
    assert xy == (ZERO, ZERO, gaussian(2 * 4 - 3 * (-1)))
    assert bracket(g, y, x) == tuple(-c for c in xy)


def test_ad_matrix():
    g = _heis3()
    ad0 = g.basis_ad(0)
    assert matvec(ad0, (ZERO, ONE, ZERO)) == (ZERO, ZERO, ONE)
    assert matvec(ad0, (ZERO, ZERO, ONE)) == (ZERO, ZERO, ZERO)


def test_center_and_derived():
    g = _heis3()
    z = center(g)
    assert z.dim == 1
    assert Subspace(3, [*z.basis, (ZERO, ZERO, ONE)]).dim == z.dim
    assert Subspace(3, [*z.basis, (ONE, ZERO, ZERO)]).dim != z.dim
    d = derived_subalgebra(g)
    assert d.dim == 1
    assert Subspace(3, [*d.basis, (ZERO, ZERO, gaussian(5))]).dim == d.dim


def test_lower_central_series_and_step():
    g = _heis3()
    series = lower_central_series(g)
    assert [t.dim for t in series] == [3, 1, 0]
    assert nilpotency_step(g) == 2
    assert is_two_step(g)
    ab = LieAlgebra(4, {})
    assert nilpotency_step(ab) == 1
    assert is_two_step(ab)
    assert ab.is_abelian()


def test_three_step_is_not_two_step():
    g = LieAlgebra(4, {(0, 1): {2: 1}, (0, 2): {3: 1}})
    assert nilpotency_step(g) == 3
    assert not is_two_step(g)


def test_non_nilpotent_has_no_step():
    g = LieAlgebra(2, {(0, 1): {1: 1}})
    assert nilpotency_step(g) is None


def test_subspace_canonical_equality():
    a = Subspace(3, [(ONE, ONE, ZERO), (ZERO, ZERO, ONE)])
    b = Subspace(3, [(gaussian(2), gaussian(2), gaussian(2)), (ZERO, ZERO, gaussian(-1))])
    assert a == b
    assert all(Subspace(3, [*a.basis, v]).dim == a.dim for v in b.basis)
    c = Subspace(3, [(ONE, ZERO, ZERO)])
    assert a != c


def test_random_two_step_generator_properties():
    rng = random.Random(31)
    for _ in range(30):
        g = random_two_step_real_algebra(rng)
        assert is_two_step(g)
        assert derived_subalgebra(g).dim >= 1
        z = center(g)
        assert all(Subspace(g.dim, [*z.basis, v]).dim == z.dim for v in derived_subalgebra(g).basis)
