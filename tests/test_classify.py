import random

import pytest

from chernflat.acs import SectorShapeError, reframed_constants, split
from chernflat.classify import (
    Fingerprint,
    NormalFormError,
    center_one_normal_form,
    complex_center_dimension,
    darboux_frame,
    dim4_normal_form,
    fingerprint,
    normal_form,
    random_frame_scramble,
    skew_to_all_ones,
    _intersection_dim,
)
from chernflat.constructions import catalog, from_holomorphic_constants, random_two_step
from chernflat.lie import center, derived_subalgebra
from chernflat.linalg import ExactMatrix, kernel_basis, rank, random_invertible
from chernflat.scalars import ONE, ZERO, gaussian


def random_skew(rng, r, span=2):
    a = ExactMatrix(
        [[gaussian(rng.randint(-span, span)) for _ in range(r)] for _ in range(r)]
    )
    return a - a.transpose()


def standard_pair_block(r, k):
    entries = [[ZERO] * r for _ in range(r)]
    for t in range(k):
        entries[2 * t][2 * t + 1] = ONE
        entries[2 * t + 1][2 * t] = -ONE
    return ExactMatrix(entries)


def test_darboux_frame_random():
    rng = random.Random(51)
    for _ in range(25):
        r = rng.randint(2, 6)
        omega = random_skew(rng, r)
        t_mat, k = darboux_frame(omega)
        assert rank(t_mat) == r
        assert 2 * k == rank(omega)
        assert t_mat.transpose() * omega * t_mat == standard_pair_block(r, k)


def test_darboux_frame_rejects_non_skew():
    with pytest.raises(ValueError):
        darboux_frame(ExactMatrix.identity(2))
    with pytest.raises(ValueError):
        darboux_frame(ExactMatrix([[ZERO, ONE, ZERO], [-ONE, ZERO, ZERO]]))


def test_skew_to_all_ones_random():
    rng = random.Random(52)
    for _ in range(20):
        k = rng.randint(1, 3)
        r = 2 * k
        base = standard_pair_block(r, k)
        p = random_invertible(r, rng, complex_entries=False, span=2)
        omega = p.transpose() * base * p
        t_mat = skew_to_all_ones(omega)
        achieved = t_mat.transpose() * omega * t_mat
        for a in range(r):
            for b in range(r):
                want = ONE if a < b else (-ONE if a > b else ZERO)
                assert achieved.entry(a, b) == want


def test_skew_to_all_ones_rejections():
    with pytest.raises(NormalFormError):
        skew_to_all_ones(ExactMatrix([[ZERO] * 3 for _ in range(3)]))
    with pytest.raises(NormalFormError):
        skew_to_all_ones(ExactMatrix([[ZERO] * 4 for _ in range(4)]))


def test_complex_center_dimension_on_catalog():
    expected = {
        "iwasawa_j3": 1,
        "dim4_model": 2,
        "dim5_irreducible": 2,
        "centro1_model(1)": 1,
        "centro1_model(2)": 1,
    }
    for name, value in expected.items():
        e = catalog(name)
        assert complex_center_dimension(split(e.algebra, e.acs)) == value


def test_complex_center_dimension_needs_sector_shape():
    e = catalog("complex_heisenberg_bicomplex")
    with pytest.raises(ValueError):
        complex_center_dimension(split(e.algebra, e.acs))


def test_dim4_normal_form_fixed_point():
    e = catalog("dim4_model")
    result = dim4_normal_form(split(e.algebra, e.acs).holomorphic())
    assert result.kind == "dim4"
    assert result.constants == {(0, 1): {2: ONE}}


def test_dim4_normal_form_under_scrambles():
    rng = random.Random(53)
    e = catalog("dim4_model")
    # a few full-pair rebuilds, then volume at the constants level
    for _ in range(3):
        g2, acs2, _ = random_frame_scramble(split(e.algebra, e.acs), rng)
        result = dim4_normal_form(split(g2, acs2).holomorphic())
        assert result.constants == {(0, 1): {2: ONE}}
    base = split(e.algebra, e.acs).holomorphic()
    for _ in range(25):
        f = random_invertible(4, rng, complex_entries=True, span=2)
        scrambled = reframed_constants(base, f)
        assert dim4_normal_form(scrambled).constants == {(0, 1): {2: ONE}}


def test_dim4_normal_form_rejections():
    e = catalog("iwasawa_j3")
    with pytest.raises(NormalFormError):
        dim4_normal_form(split(e.algebra, e.acs).holomorphic())
    ab = catalog("abelian(8)")
    with pytest.raises(NormalFormError):
        dim4_normal_form(split(ab.algebra, ab.acs).holomorphic())
    # without the sector shape there are no constants to reduce
    bic = catalog("complex_heisenberg_bicomplex")
    with pytest.raises(SectorShapeError):
        split(bic.algebra, bic.acs).holomorphic()
    # a splitting is not a constants table
    with pytest.raises(TypeError):
        dim4_normal_form(split(catalog("dim4_model").algebra, catalog("dim4_model").acs))
    for name in ("centro1_model(1)", "dim4_model"):
        with pytest.raises(TypeError, match="expects an AdaptedConstants table"):
            center_one_normal_form(split(catalog(name).algebra, catalog(name).acs))


def test_center_one_normal_form_on_models():
    for k in (1, 2):
        e = catalog(f"centro1_model({k})")
        result = center_one_normal_form(split(e.algebra, e.acs).holomorphic())
        assert result.kind == "center_one"
        n = 2 * k + 1
        target = {(a, b): {n - 1: ONE} for a in range(n - 1) for b in range(a + 1, n - 1)}
        assert result.constants == target
        assert result.parameters == {"pairs": k}


def test_center_one_normal_form_on_adapted_doubling():
    # complex dimension 3, one bracket of weight 2: rescaling one direction reaches all-ones
    e = catalog("iwasawa_j3")
    result = center_one_normal_form(split(e.algebra, e.acs).holomorphic())
    assert result.constants == {(0, 1): {2: ONE}}
    from fractions import Fraction

    assert result.frame.column(1) == (ZERO, gaussian(Fraction(1, 2)), ZERO)


def test_center_one_normal_form_under_scrambles():
    rng = random.Random(54)
    e = catalog("centro1_model(2)")
    n = 5
    target = {(a, b): {n - 1: ONE} for a in range(n - 1) for b in range(a + 1, n - 1)}
    for _ in range(2):
        g2, acs2, _ = random_frame_scramble(split(e.algebra, e.acs), rng)
        assert center_one_normal_form(split(g2, acs2).holomorphic()).constants == target
    base = split(e.algebra, e.acs).holomorphic()
    for _ in range(15):
        f = random_invertible(n, rng, complex_entries=True, span=2)
        scrambled = reframed_constants(base, f)
        assert center_one_normal_form(scrambled).constants == target


def test_center_one_rejects_larger_center():
    e = catalog("dim5_irreducible")
    with pytest.raises(NormalFormError):
        center_one_normal_form(split(e.algebra, e.acs).holomorphic())


def test_normal_form_dispatcher():
    assert normal_form(split(*_pair("dim4_model"))).kind == "dim4"
    assert normal_form(split(*_pair("iwasawa_j3"))).kind == "center_one"
    assert normal_form(split(*_pair("centro1_model(2)"))).kind == "center_one"
    with pytest.raises(NormalFormError):
        normal_form(split(*_pair("abelian(6)")))
    with pytest.raises(NormalFormError):
        normal_form(split(*_pair("complex_heisenberg_bicomplex")))
    with pytest.raises(NormalFormError):
        normal_form(split(*_pair("dim5_irreducible")))


def _pair(name):
    e = catalog(name)
    return e.algebra, e.acs


def test_fingerprint_known_values():
    e = catalog("centro1_model(2)")
    fp = fingerprint(e.algebra, e.acs)
    assert fp.as_tuple() == (10, 2, 2, (10, 2, 0), 2, 1, True, False)
    ab = catalog("abelian(4)")
    fpa = fingerprint(ab.algebra, ab.acs)
    assert fpa.qk_sectors is True
    assert fpa.torsion_free is True
    assert fpa.complex_center_dim == 2
    plain = fingerprint(e.algebra)
    assert plain.complex_center_dim is None
    assert plain.dim == 10


def test_fingerprint_invariant_under_scrambles():
    rng = random.Random(55)
    for name in ("iwasawa_j3", "dim4_model", "dim5_irreducible"):
        e = catalog(name)
        base = fingerprint(e.algebra, e.acs).as_tuple()
        for _ in range(2):
            g2, acs2, _ = random_frame_scramble(split(e.algebra, e.acs), rng)
            assert fingerprint(g2, acs2).as_tuple() == base


def test_random_frame_scramble_consistency():
    rng = random.Random(56)
    e = catalog("iwasawa_j3")
    s = split(e.algebra, e.acs)
    g2, acs2, frame = random_frame_scramble(s, rng)
    assert rank(frame) == 3
    g3, acs3 = from_holomorphic_constants(3, reframed_constants(s.holomorphic(), frame).table())
    assert g3 == g2
    assert acs3 == acs2


# -- intersection dimension ----------------------------------------------------


def _kernel_intersection_dim(basis1, basis2) -> int:
    """The kernel formula: dim ker [U | -V] for bases U and V, the oracle."""
    if not basis1 or not basis2:
        return 0
    cols = [list(v) for v in basis1] + [[-c for c in v] for v in basis2]
    return len(kernel_basis(ExactMatrix.from_columns(cols)))


def _intersection_pairs():
    names = [
        "abelian(4)", "centro1_model(1)", "centro1_model(2)", "centro1_model(3)",
        "complex_heisenberg_bicomplex", "dim4_model", "dim5_irreducible",
        "heisenberg(5)", "heisenberg3", "iwasawa_e_frame", "iwasawa_j3",
    ]
    pairs = [(catalog(name).algebra, catalog(name).acs) for name in names]
    pairs += [random_two_step(random.Random(seed)) for seed in range(6)]
    for seed, name in enumerate(["centro1_model(2)", "dim4_model", "iwasawa_j3"]):
        entry = catalog(name)
        pairs.append(random_frame_scramble(split(entry.algebra, entry.acs), random.Random(seed))[:2])
    return pairs


def test_intersection_dim_matches_the_kernel_formula():
    checked = set()
    for g, acs in _intersection_pairs():
        z, d = center(g), derived_subalgebra(g)
        cases = [(z.basis, d.basis), (d.basis, z.basis), (z.basis, [])]
        if acs is not None:
            cases += [(z.basis, [acs.apply(v) for v in z.basis]), (d.basis, [acs.apply(v) for v in d.basis])]
        for u, v in cases:
            dim = _intersection_dim(u, v)
            assert dim == _kernel_intersection_dim(u, v)
            checked.add(dim)
    # the inputs meet in nothing, in part, and in all of a subspace
    assert 0 in checked and len(checked) >= 3
