import random
from fractions import Fraction

import pytest

from chernflat.acs import (
    AdaptedConstants,
    AlmostComplexStructure,
    check_center_j_invariant,
    is_chern_flat,
    is_qk_chern_flat,
    SectorShapeError,
    nijenhuis,
    reframed_constants,
    split,
    two_step_certificate,
)
from chernflat.constructions import catalog, from_holomorphic_constants
from chernflat.lie import LieAlgebra
from chernflat.linalg import ExactMatrix, inverse, random_invertible
from chernflat.scalars import GaussianRational, I, ONE, ZERO, gaussian

from helpers import combined_frame, random_doubled_pair


def test_structure_validation():
    with pytest.raises(ValueError):
        AlmostComplexStructure(ExactMatrix.identity(2))
    with pytest.raises(ValueError):
        AlmostComplexStructure(ExactMatrix.identity(3))
    with pytest.raises(ValueError):
        AlmostComplexStructure(ExactMatrix([[I, ZERO], [ZERO, -I]]))
    j = AlmostComplexStructure.standard(4)
    assert j.j * j.j == -ExactMatrix.identity(4)


def test_standard_structure_column_convention():
    j = AlmostComplexStructure.standard(4)
    assert j.apply((ONE, ZERO, ZERO, ZERO)) == (ZERO, ZERO, ONE, ZERO)
    assert j.apply((ZERO, ZERO, ONE, ZERO)) == (-ONE, ZERO, ZERO, ZERO)


def test_splitting_eigenvectors_and_frame():
    e = catalog("iwasawa_j3")
    s = split(e.algebra, e.acs)
    assert s.m == 3
    frame = combined_frame(s)
    for k in range(s.m):
        z = frame.column(k)
        jz = tuple(e.acs.j.matvec(z))
        assert jz == tuple(I * c for c in z)
    # combined frame transforms standard coordinates both ways
    for k in range(6):
        v = [Fraction(1 if t == k else 0) for t in range(6)]
        assert combined_frame(s).matvec(s.to_combined(v)) == tuple(gaussian(c) for c in v)


def test_adapted_frame_holomorphic_constants():
    e = catalog("iwasawa_j3")
    s = split(e.algebra, e.acs)
    # the coefficients of [Z_a, Z_b] on conj Z_1..conj Z_3
    assert s.constants[(0, 1)] == {5: gaussian(2)}
    assert (0, 2) not in s.constants
    assert (1, 2) not in s.constants
    # conjugate sector mirrors it: bracket of the two conjugate vectors gives 2 Z_3
    conj_pair = s.constants[(3, 4)]
    assert conj_pair == {2: gaussian(2)}
    # mixed sector vanishes identically
    for a in range(3):
        for b in range(3):
            assert (a, 3 + b) not in s.constants


def test_splitting_works_for_any_rational_structure():
    # a structure with no standard-basis eigen-adaptation still splits
    rng = random.Random(99)
    for _ in range(10):
        p = random_invertible(4, rng, complex_entries=False, span=2)
        j = p * AlmostComplexStructure.standard(4).j * inverse(p)
        acs = AlmostComplexStructure(j)
        g = LieAlgebra(4, {})
        s = split(g, acs)
        assert s.m == 2


def test_nijenhuis_zero_iff_integrable():
    bic = catalog("complex_heisenberg_bicomplex")
    assert nijenhuis(split(bic.algebra, bic.acs)) == {}
    iw = catalog("iwasawa_j3")
    values = nijenhuis(split(iw.algebra, iw.acs))
    assert values
    expected = tuple(gaussian(-4 if k == 2 else 0) for k in range(6))
    assert values[(0, 1)] == expected


def test_chern_flat_diagonal_matters():
    # brackets [J e_i, e_i] do not vanish here although J-pairs look fine off-diagonal
    g = LieAlgebra(4, {(0, 2): {3: 1}})
    acs = AlmostComplexStructure.standard(4)
    v = is_chern_flat(split(g, acs))
    assert not v
    assert v.witness is not None


def test_qk_flat_on_catalog():
    for name in ("iwasawa_j3", "iwasawa_e_frame", "dim4_model", "dim5_irreducible", "abelian(6)"):
        e = catalog(name)
        assert is_chern_flat(split(e.algebra, e.acs))
        assert is_qk_chern_flat(split(e.algebra, e.acs))
    bic = catalog("complex_heisenberg_bicomplex")
    assert is_chern_flat(split(bic.algebra, bic.acs))
    verdict = is_qk_chern_flat(split(bic.algebra, bic.acs))
    assert not verdict
    assert verdict.witness == ("holomorphic-component", 0, 1)


def test_center_j_invariance_requires_flatness():
    iw = catalog("iwasawa_j3")
    assert check_center_j_invariant(split(iw.algebra, iw.acs)) is True
    g = LieAlgebra(4, {(0, 2): {3: 1}})
    acs = AlmostComplexStructure.standard(4)
    with pytest.raises(ValueError):
        check_center_j_invariant(split(g, acs))


def test_two_step_certificate_requires_sector_shape():
    bic = catalog("complex_heisenberg_bicomplex")
    with pytest.raises(ValueError):
        two_step_certificate(split(bic.algebra, bic.acs))
    iw = catalog("iwasawa_j3")
    assert two_step_certificate(split(iw.algebra, iw.acs)) is True


def test_certificate_on_random_doublings():
    rng = random.Random(404)
    for _ in range(10):
        g, acs = random_doubled_pair(rng, max_dim=5)
        assert two_step_certificate(split(g, acs)) is True


def test_reframed_constants_round_trip():
    rng = random.Random(1234)
    iw = catalog("iwasawa_j3")
    c = split(iw.algebra, iw.acs).holomorphic()
    identity = ExactMatrix.identity(3)
    assert reframed_constants(c, identity).table() == {(0, 1): {2: gaussian(2)}}
    for _ in range(10):
        f = random_invertible(3, rng, complex_entries=True, span=2)
        c1 = reframed_constants(c, f)
        # rebuilding from the reframed constants and reframing back recovers the original
        g2, acs2 = from_holomorphic_constants(3, c1.table())
        s2 = split(g2, acs2)
        back = reframed_constants(s2.holomorphic(), inverse(f))
        assert back.table() == {(0, 1): {2: gaussian(2)}}


def test_complexified_algebra_satisfies_jacobi():
    iw = catalog("iwasawa_j3")
    s = split(iw.algebra, iw.acs)
    gc = LieAlgebra(s.dim, s.constants, field="Qi")
    assert gc.field == "Qi"
    assert gc.dim == 6


def test_splitting_requires_a_real_algebra():
    # the splitting keeps only the real half of the table's numerators
    iw = catalog("iwasawa_j3")
    gc = LieAlgebra(6, split(iw.algebra, iw.acs).constants, field="Qi")
    with pytest.raises(ValueError, match=r"^splitting requires a real \(field 'Q'\) algebra$"):
        split(gc, iw.acs)


def test_adapted_constants_construction_and_lookup():
    table = {(0, 1): {2: gaussian(2)}}
    c = AdaptedConstants(3, table)
    assert c.m == 3
    assert c._full[0][1] == {2: gaussian(2)}
    assert c._full[1][0] == {2: gaussian(-2)}
    assert c._full[1][1] == {}
    assert c.table() == {(0, 1): {2: gaussian(2)}}
    with pytest.raises(ValueError):
        AdaptedConstants(3, {(1, 0): {2: 1}})
    with pytest.raises(ValueError):
        AdaptedConstants(3, {(0, 1): {3: 1}})


def test_adapted_constants_enforce_closure_relations():
    # a bracket landing on a non-central conjugate direction cannot close
    with pytest.raises(ValueError):
        AdaptedConstants(2, {(0, 1): {0: 1}})
    with pytest.raises(ValueError):
        AdaptedConstants(3, {(0, 1): {1: 1}})
    AdaptedConstants(3, {(0, 1): {2: 1}, (0, 2): {}})


def test_adapted_constants_from_splitting():
    iw = catalog("iwasawa_j3")
    s = split(iw.algebra, iw.acs)
    view = s.holomorphic()
    assert view.table() == {(0, 1): {2: gaussian(2)}}
    assert view == AdaptedConstants(3, {(0, 1): {2: 2}})
    assert s.holomorphic() is view
    bic = catalog("complex_heisenberg_bicomplex")
    with pytest.raises(SectorShapeError, match="sector shape") as caught:
        split(bic.algebra, bic.acs).holomorphic()
    assert caught.value.witness == ("holomorphic-component", 0, 1)


def test_adapted_constants_reframed_matches_splitting_reframe():
    rng = random.Random(2024)
    iw = catalog("iwasawa_j3")
    s = split(iw.algebra, iw.acs)
    view = s.holomorphic()
    for _ in range(10):
        f = random_invertible(3, rng, complex_entries=True, span=2)
        # the reframed table is the one the rebuilt pair's splitting reports
        reframed = reframed_constants(view, f)
        g2, acs2 = from_holomorphic_constants(3, reframed.table(), check=False)
        assert split(g2, acs2).holomorphic() == reframed
    with pytest.raises(TypeError):
        reframed_constants(s, ExactMatrix.identity(3))
