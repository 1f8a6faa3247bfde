import random

import pytest

from chernflat.acs import (
    is_chern_flat,
    is_qk_chern_flat,
    nijenhuis,
    split,
    two_step_certificate,
)
from chernflat.constructions import (
    CatalogEntry,
    UnknownCatalogNameError,
    catalog,
    catalog_names,
    complexification,
    conjugate_complexification,
    from_holomorphic_constants,
)
from chernflat.forms import HermitianMetric, coupled_two_form_solutions, is_quasi_kaehler
from chernflat.lie import JacobiError, LieAlgebra, center, is_two_step, nilpotency_step
from chernflat.linalg import ExactMatrix
from chernflat.scalars import ZERO, gaussian

from helpers import random_two_step_real_algebra
from oracles import complex_center_dimension, iwasawa_frame_correspondence, random_two_step, verify_frame_isomorphism


def test_conjugate_doubling_of_heisenberg_is_the_model():
    h3 = catalog("heisenberg3").algebra
    g, acs = conjugate_complexification(h3)
    entry = catalog("iwasawa_j3")
    assert g == entry.algebra
    assert acs == entry.acs


def test_ordinary_doubling_of_heisenberg_is_the_bicomplex_model():
    h3 = catalog("heisenberg3").algebra
    g, acs = complexification(h3)
    entry = catalog("complex_heisenberg_bicomplex")
    assert g == entry.algebra
    assert acs == entry.acs


def test_doubling_dimension_and_structure():
    rng = random.Random(31)
    for _ in range(10):
        h = random_two_step_real_algebra(rng, max_dim=5)
        for builder in (complexification, conjugate_complexification):
            g, acs = builder(h)
            assert g.dim == 2 * h.dim
            assert acs.j * acs.j == -ExactMatrix.identity(g.dim)


def test_conjugate_doubling_always_flat_and_quasi_kaehler_shaped():
    rng = random.Random(32)
    for _ in range(15):
        h = random_two_step_real_algebra(rng, max_dim=6)
        g, acs = conjugate_complexification(h)
        assert is_qk_chern_flat(split(g, acs))
        assert two_step_certificate(split(g, acs)) is True


def test_ordinary_doubling_is_integrable():
    rng = random.Random(33)
    for _ in range(10):
        h = random_two_step_real_algebra(rng, max_dim=5)
        g, acs = complexification(h)
        assert nijenhuis(split(g, acs)) == {}
        assert is_chern_flat(split(g, acs))


def test_from_holomorphic_constants_round_trip():
    g, acs = from_holomorphic_constants(3, {(0, 1): {2: 2}})
    entry = catalog("iwasawa_j3")
    assert g == entry.algebra
    assert acs == entry.acs
    s = split(g, acs)
    assert s.constants[(0, 1)] == {5: gaussian(2)}


def test_from_holomorphic_constants_rejects_bad_input():
    with pytest.raises(ValueError):
        from_holomorphic_constants(3, {(1, 0): {2: 1}})
    with pytest.raises(ValueError):
        from_holomorphic_constants(3, {(0, 1): {5: 1}})
    # constants violating the quadratic closure relations break Jacobi
    with pytest.raises(JacobiError):
        from_holomorphic_constants(2, {(0, 1): {0: 1}})


# each family placeholder of catalog_names() at sample parameters; abelian
# at an odd and an even dimension, since only the even one carries a structure
FAMILY_SAMPLES = {
    "abelian(n)": ["abelian(3)", "abelian(4)"],
    "centro1_model(k)": ["centro1_model(1)", "centro1_model(2)"],
    "heisenberg(2k+1)": ["heisenberg(5)"],
}

J_PROPERTIES = {"chern_flat", "qk_chern_flat", "nijenhuis_zero", "two_step", "quasi_kaehler_identity_metric"}

# documented property -> its recomputation from (algebra, structure)
RECOMPUTE = {
    "nilpotency_step": lambda g, acs: nilpotency_step(g),
    "center_dim": lambda g, acs: center(g).dim,
    "chern_flat": lambda g, acs: bool(is_chern_flat(split(g, acs))),
    "qk_chern_flat": lambda g, acs: bool(is_qk_chern_flat(split(g, acs))),
    "nijenhuis_zero": lambda g, acs: nijenhuis(split(g, acs)) == {},
    "two_step": lambda g, acs: is_two_step(g),
    "quasi_kaehler_identity_metric": lambda g, acs: is_quasi_kaehler(
        split(g, acs), HermitianMetric.identity(g.dim // 2)
    ),
    "center_complex_dim": lambda g, acs: complex_center_dimension(split(g, acs)),
    "coupled_solution_dim": lambda g, acs: coupled_two_form_solutions(split(g, acs)).dimension,
}


def _concrete_names():
    return [name for listed in catalog_names() for name in FAMILY_SAMPLES.get(listed, [listed])]


def test_catalog_names_resolve():
    assert catalog_names() == sorted(catalog_names())
    for name in _concrete_names():
        entry = catalog(name)
        assert isinstance(entry, CatalogEntry)
        assert entry.name == name
        assert entry.algebra.dim >= 1
    for name, message in [
        ("nope", "unknown catalog name 'nope'"),
        ("heisenberg(4)", "heisenberg algebras have odd dimension >= 3"),
        ("abelian(0)", "abelian dimension must be positive: abelian(0)"),
        ("abelian(00)", "abelian dimension must be positive: abelian(00)"),
        ("centro1_model(0)", "parameter must be a positive integer"),
        ("heisenberg3(2)", "unknown catalog name 'heisenberg3(2)'"),
    ]:
        with pytest.raises(UnknownCatalogNameError) as info:
            catalog(name)
        assert str(info.value) == message


def test_catalog_properties_match_recomputation():
    for name in _concrete_names():
        entry = catalog(name)
        g, acs, props = entry.algebra, entry.acs, entry.properties
        if acs is not None:
            assert J_PROPERTIES <= set(props), name
        assert {key: RECOMPUTE[key](g, acs) for key in props} == props, name


def test_heisenberg_family():
    for dim in (3, 5, 7):
        g = catalog(f"heisenberg({dim})").algebra
        assert g.dim == dim
        assert is_two_step(g)
        assert center(g).dim == 1
    assert catalog("heisenberg3").algebra == catalog("heisenberg(3)").algebra


def test_centro1_model_shape():
    entry = catalog("centro1_model(2)")
    g, acs = entry.algebra, entry.acs
    assert g.dim == 10
    s = split(g, acs)
    assert s.m == 5
    for i in range(4):
        for j in range(i + 1, 4):
            assert s.constants[(i, j)] == {9: gaussian(1)}


def test_frame_correspondence_between_models():
    a = catalog("iwasawa_j3")
    b = catalog("iwasawa_e_frame")
    phi = iwasawa_frame_correspondence()
    report = verify_frame_isomorphism(a.algebra, b.algebra, phi, a.acs, b.acs)
    assert report.bracket_ok and report.j_ok
    assert bool(report) is True


def test_frame_correspondence_naive_map_fails():
    a = catalog("iwasawa_j3")
    b = catalog("iwasawa_e_frame")
    # identity-looking pairing of third and sixth vectors does not intertwine the brackets
    cols = [
        [1, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, -1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 1],
    ]
    phi = ExactMatrix.from_columns([[gaussian(c) for c in col] for col in cols])
    report = verify_frame_isomorphism(a.algebra, b.algebra, phi, a.acs, b.acs)
    assert not report.bracket_ok
    assert report.witness is not None and report.witness[0] == "bracket"
    assert bool(report) is False


def test_verify_frame_isomorphism_rejects_singular():
    a = catalog("iwasawa_j3")
    zero = ExactMatrix([[ZERO] * 6 for _ in range(6)])
    with pytest.raises(ValueError):
        verify_frame_isomorphism(a.algebra, a.algebra, zero)
    with pytest.raises(ValueError):
        verify_frame_isomorphism(a.algebra, catalog("abelian(4)").algebra, ExactMatrix.identity(6))


def test_random_two_step_output():
    rng = random.Random(34)
    for _ in range(10):
        g, acs = random_two_step(rng)
        assert is_qk_chern_flat(split(g, acs))
        assert is_two_step(g)
