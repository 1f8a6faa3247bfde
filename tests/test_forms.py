import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chernflat.acs import split
from chernflat.constructions import catalog
from chernflat.forms import (
    HermitianMetric,
    InvariantForm,
    coframe_element,
    coupled_two_form_solutions,
    exterior_d,
    format_form,
    is_quasi_kaehler,
    kaehler_form,
)
from chernflat.linalg import ExactMatrix, det, leading_minors
from chernflat.scalars import GaussianRational, I, ONE, ZERO, gaussian

from helpers import random_gaussian, random_hermitian_metric, random_pure_form
from oracles import apply_j, bidegrees, evaluate, pure_bidegree, real_coframe_coefficients, to_combined
from oracles import two_form_from_skew_matrix, type_components


def random_form(rng, m, mbar, degree, terms=4):
    import itertools

    keys = list(itertools.combinations(range(m + mbar), degree))
    coeffs = {}
    for _ in range(terms):
        key = rng.choice(keys)
        coeffs[key] = coeffs.get(key, ZERO) + random_gaussian(rng)
    return InvariantForm(m, mbar, degree, coeffs)


def test_constructor_validation():
    with pytest.raises(ValueError):
        InvariantForm(2, 2, 2, {(1, 0): 1})
    with pytest.raises(ValueError):
        InvariantForm(2, 2, 2, {(0, 0): 1})
    with pytest.raises(ValueError):
        InvariantForm(2, 2, 2, {(0, 4): 1})
    with pytest.raises(ValueError):
        InvariantForm(2, 2, 2, {(0,): 1})
    f = InvariantForm(2, 2, 2, {(0, 1): 0})
    assert f.is_zero()


def test_wedge_evaluation_convention():
    # (a ^ b)(X, Y) = a(X) b(Y) - a(Y) b(X) on decomposable one-forms
    a = coframe_element(2, 2, 0)
    b = coframe_element(2, 2, 1)
    w = a.wedge(b)
    x = (gaussian(3), gaussian(5), ZERO, ZERO)
    y = (gaussian(2), gaussian(7), ZERO, ZERO)
    assert evaluate(w, [x, y]) == evaluate(a, [x]) * evaluate(b, [y]) - evaluate(a, [y]) * evaluate(b, [x])


def test_wedge_graded_commutativity_and_associativity():
    rng = random.Random(71)
    for _ in range(30):
        m = rng.randint(2, 3)
        p = rng.randint(1, 2)
        q = rng.randint(1, 2)
        a = random_form(rng, m, m, p)
        b = random_form(rng, m, m, q)
        sign = -1 if (p * q) % 2 else 1
        assert a.wedge(b) == sign * b.wedge(a)
        c = random_form(rng, m, m, 1)
        assert a.wedge(b.wedge(c)) == a.wedge(b).wedge(c)
        assert a.wedge(b + b) == a.wedge(b) + a.wedge(b)


def test_conjugate_involution_and_bidegree_swap():
    rng = random.Random(72)
    for _ in range(30):
        m = rng.randint(2, 3)
        p = rng.randint(0, m)
        q = rng.randint(0, m)
        if p + q == 0:
            continue
        f = random_pure_form(rng, m, p + q, p)
        g = f.conjugate()
        assert g.conjugate() == f
        if not f.is_zero():
            assert pure_bidegree(f) == (p, q)
            assert pure_bidegree(g) == (q, p)
        h = random_pure_form(rng, m, 2, 1)
        assert f.wedge(h).conjugate() == g.wedge(h.conjugate())


def test_component_partition():
    rng = random.Random(73)
    for _ in range(25):
        m = rng.randint(2, 3)
        d = rng.randint(1, 3)
        f = random_form(rng, m, m, d)
        total = InvariantForm.zero(m, m, d)
        for p in range(d + 1):
            comp = f.component(p, d - p)
            if not comp.is_zero():
                assert pure_bidegree(comp) == (p, d - p)
            total = total + comp
        assert total == f


def test_coframe_differential_fixture():
    e = catalog("iwasawa_j3")
    s = split(e.algebra, e.acs)
    d3 = exterior_d(s, coframe_element(3, 3, 2))
    assert d3.coeffs == {(3, 4): gaussian(-2)}
    assert exterior_d(s, coframe_element(3, 3, 0)).is_zero()
    assert exterior_d(s, coframe_element(3, 3, 1)).is_zero()


def test_exterior_d_squared_zero():
    rng = random.Random(74)
    entries = [catalog(n) for n in ("iwasawa_j3", "complex_heisenberg_bicomplex", "dim5_irreducible")]
    splits = [split(e.algebra, e.acs) for e in entries]
    for _ in range(40):
        s = rng.choice(splits)
        d = rng.randint(1, 2 * s.m - 2)
        f = random_form(rng, s.m, s.m, d)
        assert exterior_d(s, exterior_d(s, f)).is_zero()


def test_exterior_d_antiderivation():
    rng = random.Random(75)
    e = catalog("iwasawa_j3")
    s = split(e.algebra, e.acs)
    for _ in range(25):
        p = rng.randint(1, 2)
        q = rng.randint(1, 2)
        a = random_form(rng, 3, 3, p)
        b = random_form(rng, 3, 3, q)
        lhs = exterior_d(s, a.wedge(b))
        sign = -1 if p % 2 else 1
        rhs = exterior_d(s, a).wedge(b) + sign * a.wedge(exterior_d(s, b))
        assert lhs == rhs


def test_type_component_shifts():
    e = catalog("iwasawa_j3")
    s = split(e.algebra, e.acs)
    rng = random.Random(76)
    for _ in range(20):
        p = rng.randint(0, 2)
        q = rng.randint(0, 2)
        if p + q == 0 or p + q > 4:
            continue
        f = random_pure_form(rng, 3, p + q, p)
        d = exterior_d(s, f)
        names = ("A", "del", "delbar", "Abar")
        pieces = [type_components(s, f, which) for which in names]
        total = pieces[0]
        for piece in pieces[1:]:
            total = total + piece
        assert total == d
        expected = {
            "A": (p + 2, q - 1),
            "del": (p + 1, q),
            "delbar": (p, q + 1),
            "Abar": (p - 1, q + 2),
        }
        for which, piece in zip(names, pieces):
            if not piece.is_zero():
                assert pure_bidegree(piece) == expected[which]


def test_hermitian_metric_validation():
    with pytest.raises(ValueError):
        HermitianMetric(ExactMatrix([[I]]))
    with pytest.raises(ValueError):
        HermitianMetric(ExactMatrix([[gaussian(0)]]))
    with pytest.raises(ValueError):
        HermitianMetric(ExactMatrix([[ONE, ONE + I], [ONE + I, ONE]]))
    with pytest.raises(ValueError):
        HermitianMetric(
            ExactMatrix([[ONE, gaussian(2)], [gaussian(2), ONE]])
        )
    h = HermitianMetric(ExactMatrix([[gaussian(2), I], [-I, gaussian(3)]]))
    assert h.m == 2
    rng = random.Random(77)
    for _ in range(10):
        random_hermitian_metric(rng, 3)


_small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_small_gaussians = st.builds(GaussianRational, _small, _small)


@st.composite
def hermitian_matrices(draw):
    """Hermitian m x m matrices over Q(i), m = 1..5, of two kinds.

    "ldl" is L D L^*, L unit lower triangular, D real diagonal with positive,
    zero and negative entries, so its k-th leading minor is d_1 ... d_k;
    "free" has independent entries and often a zero diagonal entry, so a
    zero leading minor can be followed by nonzero ones.
    """
    m = draw(st.integers(1, 5))
    if draw(st.sampled_from(["ldl", "free"])) == "ldl":
        low = ExactMatrix([[draw(_small_gaussians) if c < r else int(c == r) for c in range(m)] for r in range(m)])
        d = draw(st.lists(st.sampled_from([1, 2, Fraction(1, 3), 0, -1, Fraction(-5, 2)]), min_size=m, max_size=m))
        diag = ExactMatrix([[d[r] if c == r else 0 for c in range(m)] for r in range(m)])
        return low * diag * low.conj_transpose()
    rows = [[ZERO] * m for _ in range(m)]
    for r in range(m):
        rows[r][r] = gaussian(draw(st.sampled_from([0, 0, 1, 2, -1, Fraction(3, 2)])))
        for c in range(r + 1, m):
            rows[r][c] = draw(_small_gaussians)
            rows[c][r] = rows[r][c].conjugate()
    return ExactMatrix(rows)


def _leading_block(h: ExactMatrix, k: int) -> ExactMatrix:
    return ExactMatrix([[h.entry(i, j) for j in range(k)] for i in range(k)])


@settings(max_examples=200, deadline=None)
@given(h=hermitian_matrices())
def test_one_pass_minors_match_det_of_each_leading_block(h):
    dets = [det(_leading_block(h, k)) for k in range(1, h.rows + 1)]
    # the pass ends after the first zero minor
    stop = next((k for k, d in enumerate(dets, 1) if not d), h.rows)
    assert list(leading_minors(h)) == dets[:stop]
    # the check that ran one det per leading block, and its message
    bad = next((k for k, d in enumerate(dets, 1) if not d.is_real() or d.re <= 0), None)
    if bad is None:
        assert HermitianMetric(h).h == h
    else:
        with pytest.raises(ValueError) as exc:
            HermitianMetric(h)
        assert str(exc.value) == f"leading principal minor {bad} is not positive; metric is not positive definite"


def test_hermitian_inputs_cover_zero_and_negative_minors():
    # a zero minor followed by nonzero ones: the pass stops at the zero one
    swap = ExactMatrix([[0, I], [-I, 1]])
    assert list(leading_minors(swap)) == [ZERO] and det(swap) == gaussian(-1)
    with pytest.raises(ValueError, match="^leading principal minor 1 is not positive"):
        HermitianMetric(swap)
    # positive, then negative, then positive again
    h = ExactMatrix([[1, 2, 0], [2, 1, 0], [0, 0, -1]])
    assert list(leading_minors(h)) == [ONE, gaussian(-3), gaussian(3)]
    with pytest.raises(ValueError, match="^leading principal minor 2 is not positive"):
        HermitianMetric(h)
    with pytest.raises(ValueError, match="square"):
        next(leading_minors(ExactMatrix([[1, 2]])))


def test_kaehler_form_is_real_and_matches_real_coefficients():
    e = catalog("iwasawa_j3")
    s = split(e.algebra, e.acs)
    w = kaehler_form(s, HermitianMetric.identity(3))
    assert w.conjugate() == w
    assert bidegrees(w) == {(1, 1)}
    std = [[Fraction(1 if t == k else 0) for t in range(6)] for k in range(6)]
    coeffs = real_coframe_coefficients(s, w, std)
    assert coeffs == {
        (0, 3): gaussian(1),
        (1, 4): gaussian(1),
        (2, 5): gaussian(1),
    }
    # omega(X, JX) > 0 for a positive metric
    x = std[0]
    jx = apply_j(e.acs, x)
    assert evaluate(w, [to_combined(s, x), to_combined(s, jx)]) == gaussian(1)


def test_quasi_kaehler_predicate():
    e = catalog("iwasawa_j3")
    s = split(e.algebra, e.acs)
    assert is_quasi_kaehler(s, HermitianMetric.identity(3)) is True
    rng = random.Random(78)
    for _ in range(10):
        assert is_quasi_kaehler(s, random_hermitian_metric(rng, 3)) is True
    bic = catalog("complex_heisenberg_bicomplex")
    sb = split(bic.algebra, bic.acs)
    assert is_quasi_kaehler(sb, HermitianMetric.identity(3)) is False


def test_coupled_system_on_model():
    e = catalog("iwasawa_j3")
    s = split(e.algebra, e.acs)
    report = coupled_two_form_solutions(s)
    assert report.dimension == 2
    assert report.all_closed is True
    assert report.non_closed == ()
    for sol in report.solutions:
        assert set(sol.coeffs) <= {(0, 1)}
        assert exterior_d(s, sol).is_zero()


def test_coupled_system_requires_sector_relations():
    bic = catalog("complex_heisenberg_bicomplex")
    with pytest.raises(ValueError):
        coupled_two_form_solutions(split(bic.algebra, bic.acs))


def test_two_form_from_skew_matrix():
    mat = ExactMatrix([[ZERO, gaussian(2), -ONE], [gaussian(-2), ZERO, ZERO], [ONE, ZERO, ZERO]])
    f = two_form_from_skew_matrix(mat, 3)
    assert f.coeffs == {(0, 1): gaussian(2), (0, 2): -ONE}
    with pytest.raises(ValueError):
        two_form_from_skew_matrix(mat, 2)


def test_format_examples():
    f = InvariantForm(3, 3, 2, {(0, 4): GaussianRational(Fraction(1, 2), Fraction(3, 4))})
    assert format_form(f) == "(1/2+3/4*i)*z1^zb2"
    g = InvariantForm(3, 3, 1, {(2,): GaussianRational(0, 2)})
    assert format_form(g) == "2*i*z3"
    assert format_form(InvariantForm.zero(3, 3, 2)) == "0"
    # terms in sorted key order, joined by " + "
    h = InvariantForm(2, 2, 2, {(1, 2): ONE, (0, 3): GaussianRational(0, -1), (0, 1): gaussian(3)})
    assert format_form(h) == "3*z1^z2 + -i*z1^zb2 + 1*z2^zb1"
    assert format_form(InvariantForm(2, 2, 1, {(3,): gaussian(Fraction(-5, 2))})) == "-5/2*zb2"
    assert format_form(InvariantForm(2, 2, 0, {(): GaussianRational(Fraction(1, 3), 1)})) == "(1/3+i)"


def test_evaluate_antisymmetry():
    rng = random.Random(80)
    f = random_form(rng, 3, 3, 2)
    x = [random_gaussian(rng) for _ in range(6)]
    y = [random_gaussian(rng) for _ in range(6)]
    assert evaluate(f, [x, y]) == -evaluate(f, [y, x])
    assert evaluate(f, [x, x]) == ZERO
