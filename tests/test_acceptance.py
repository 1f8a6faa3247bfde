"""End-to-end acceptance suite: the package's headline guarantees.

Each test covers one advertised guarantee and reports a single pass/fail
line under pytest -v.  Every assertion is an exact equality over the
rationals or Gaussian rationals; there are no tolerances anywhere.
"""

import random
from math import factorial

from chernflat.acs import (
    check_center_j_invariant,
    is_chern_flat,
    is_qk_chern_flat,
    nijenhuis,
    reframed_constants,
    split,
    two_step_certificate,
)
from chernflat.classify import center_one_normal_form, dim4_normal_form, skew_to_all_ones
from chernflat.constructions import (
    catalog,
    conjugate_complexification,
    iwasawa_frame_correspondence,
    verify_frame_isomorphism,
)
from chernflat.deform import deformation_space
from chernflat.forms import (
    HermitianMetric,
    coframe_element,
    coupled_two_form_solutions,
    exterior_d,
    is_quasi_kaehler,
    kaehler_form,
    real_coframe_coefficients,
    two_form_from_skew_matrix,
    type_components,
)
from chernflat.lie import jacobi_defect, lower_central_series, nilpotency_step
from chernflat.linalg import (
    ExactMatrix,
    inverse,
    kernel_from_rows,
    random_invertible,
    rank_of_rows,
)
from chernflat.scalars import ONE, ZERO, gaussian

from helpers import (
    random_doubled_pair,
    random_hermitian_metric,
    random_pure_form,
    random_two_step_real_algebra,
    satisfies_deformation_equations,
)

# Representatives of every catalog family that carries a flat quasi-Kaehler
# structure; parametrized families appear up to the documented bounds.
QK_FLAT_NAMES = (
    "iwasawa_j3",
    "iwasawa_e_frame",
    "dim4_model",
    "dim5_irreducible",
    "centro1_model(1)",
    "centro1_model(2)",
    "centro1_model(3)",
    "abelian(2)",
    "abelian(4)",
    "abelian(6)",
    "abelian(8)",
)


def _unit(n, k, value=ONE):
    return tuple(value if t == k else ZERO for t in range(n))


def _all_ones_skew(r):
    return ExactMatrix(
        [[ONE if a < b else (-ONE if a > b else ZERO) for b in range(r)] for a in range(r)]
    )


def test_criterion_01_adapted_model_passes_every_flatness_check():
    entry = catalog("iwasawa_j3")
    g, acs = entry.algebra, entry.acs

    assert jacobi_defect(g.dim, g.numerators()) == []
    assert nilpotency_step(g) == 2

    s = split(g, acs)
    assert is_chern_flat(s).ok is True
    assert is_qk_chern_flat(s).ok is True

    # the three sub-conditions behind the combined verdict, spelled out:
    # (a) sector shape of the complexified constants
    assert s.sector_relations_qk().ok is True
    # (b) the differential of each (1,0)-coframe element is purely (0,2)
    for k in range(s.m):
        d = exterior_d(s, coframe_element(s.m, s.m, k))
        assert d.component(2, 0).is_zero()
        assert d.component(1, 1).is_zero()
    # (c) the structure anticommutes through the bracket on all basis pairs
    n = g.dim
    for i in range(n):
        jei = acs.apply(_unit(n, i))
        for j in range(n):
            w = g.basis_bracket(i, j)
            assert acs.apply(w) == tuple(-c for c in g.bracket(jei, _unit(n, j)))

    assert check_center_j_invariant(s) is True

    # eigenframe brackets: the only holomorphic bracket is the first pair,
    # landing on twice the last conjugate direction, and conjugately so
    two = gaussian(2)
    assert s.m == 3
    assert s.constants[(0, 1)] == {5: two}
    assert s.constants[(3, 4)] == {2: two}
    for a in range(3):
        for b in range(a + 1, 3):
            if (a, b) != (0, 1):
                assert (a, b) not in s.constants
                assert (3 + a, 3 + b) not in s.constants


def test_criterion_02_identity_metric_form_in_the_alternate_frame():
    entry = catalog("iwasawa_j3")
    s = split(entry.algebra, entry.acs)
    omega = kaehler_form(s, HermitianMetric(ExactMatrix.identity(3)))

    phi = iwasawa_frame_correspondence()
    phi_inv = inverse(phi)
    alternate_basis = [phi_inv.column(k) for k in range(6)]
    coeffs = real_coframe_coefficients(s, omega, alternate_basis)
    assert coeffs == {
        (0, 1): gaussian(-1),
        (2, 3): gaussian(-1),
        (4, 5): gaussian(1),
    }


def test_criterion_03_conjugate_doubling_reproduces_the_adapted_model():
    h3 = catalog("heisenberg3").algebra
    g2, acs2 = conjugate_complexification(h3)
    entry = catalog("iwasawa_j3")
    assert g2 == entry.algebra
    assert acs2 == entry.acs

    report = verify_frame_isomorphism(
        g2, entry.algebra, ExactMatrix.identity(6), acs2, entry.acs
    )
    assert report.bracket_ok is True
    assert report.j_ok is True
    assert bool(report)


def test_criterion_04_conjugate_doublings_are_flat_and_two_step():
    rng = random.Random(104)
    for _ in range(50):
        h = random_two_step_real_algebra(rng, max_dim=6)
        assert h.dim <= 6
        g2, acs2 = conjugate_complexification(h)
        s = split(g2, acs2)

        assert is_qk_chern_flat(s).ok is True

        series = lower_central_series(g2)
        assert len(series) == 3
        assert series[1].dim > 0
        assert series[-1].dim == 0

        assert two_step_certificate(s) is True
        # the quadratic relations behind the certificate, recomputed directly:
        # contracting any holomorphic row against the conjugated constants
        # gives exactly zero for every index combination
        m = s.m
        c = s.holomorphic()
        for i in range(m):
            for j in range(i + 1, m):
                cij = {r - m: x for r, x in s.constants.get((i, j), {}).items() if r >= m}
                for k in range(m):
                    for l in range(m):
                        acc = ZERO
                        for r, x in cij.items():
                            acc = acc + x * c._full[r][k].get(l, ZERO).conjugate()
                        assert acc == ZERO


def test_criterion_05_dim4_scrambles_reduce_to_the_single_bracket():
    entry = catalog("dim4_model")
    base = split(entry.algebra, entry.acs).holomorphic()
    target = {(0, 1): {2: ONE}}
    rng = random.Random(105)
    for _ in range(100):
        frame = random_invertible(4, rng, complex_entries=True, span=2)
        scrambled = reframed_constants(base, frame)
        result = dim4_normal_form(scrambled)
        assert result.kind == "dim4"
        assert result.constants == target
        assert reframed_constants(scrambled, result.frame).table() == target


def test_criterion_06_center_one_scrambles_recover_all_ones_constants():
    rng = random.Random(106)
    for pairs in (1, 2, 3):
        entry = catalog(f"centro1_model({pairs})")
        base = split(entry.algebra, entry.acs).holomorphic()
        n = base.m
        assert n == 2 * pairs + 1
        assert n % 2 == 1  # the family only exists in odd complex dimension
        target = {
            (a, b): {n - 1: ONE} for a in range(n - 1) for b in range(a + 1, n - 1)
        }
        for _ in range(50):
            frame = random_invertible(n, rng, complex_entries=True, span=2)
            result = center_one_normal_form(reframed_constants(base, frame))
            assert result.kind == "center_one"
            assert result.constants == target
            assert result.parameters == {"pairs": pairs}

    # the skew reduction driving the recovery is an exact congruence: the
    # residual against the all-ones form is the zero matrix, entry for entry
    for pairs in (1, 2, 3):
        r = 2 * pairs
        all_ones = _all_ones_skew(r)
        zero = ExactMatrix.zeros(r, r)
        for _ in range(20):
            change = random_invertible(r, rng, complex_entries=True, span=2)
            omega = change.transpose() * all_ones * change
            t_mat = skew_to_all_ones(omega)
            assert t_mat.transpose() * omega * t_mat - all_ones == zero

    # nondegeneracy of the all-ones form, by wedge power: the k-th power of
    # its 2-form fills the top degree, scaled by the combinatorial factor k!
    for k in (1, 2, 3):
        r = 2 * k
        form = two_form_from_skew_matrix(_all_ones_skew(r), r)
        power = form
        for _ in range(k - 1):
            power = power.wedge(form)
        assert power.coeffs == {tuple(range(r)): gaussian(factorial(k))}


def test_criterion_07_deformation_dimensions_and_inner_inclusion():
    # rigid models: no essential deformation directions
    for name in ("iwasawa_j3", "centro1_model(1)", "centro1_model(2)", "centro1_model(3)"):
        entry = catalog(name)
        space = deformation_space(split(entry.algebra, entry.acs))
        assert space.quotient_dimension == 0

    # abelian models: 2 k^2 essential directions in real dimension 2k,
    # cross-checked against an independently built anticommutator kernel
    for k in (1, 2, 3, 4):
        entry = catalog(f"abelian({2 * k})")
        space = deformation_space(split(entry.algebra, entry.acs))
        assert space.inner_rank == 0
        assert space.quotient_dimension == 2 * k * k

        n = 2 * k
        j = entry.acs.j
        rows = []
        for a in range(n):
            for b in range(n):
                row = {}
                for c in range(n):
                    v = j.entry(c, b)
                    if v:
                        row[a * n + c] = row.get(a * n + c, ZERO) + v
                for r in range(n):
                    v = j.entry(a, r)
                    if v:
                        row[r * n + b] = row.get(r * n + b, ZERO) + v
                row = {key: v for key, v in row.items() if v}
                if row:
                    rows.append(row)
        brute_kernel = kernel_from_rows(n * n, rows)
        assert len(brute_kernel) == 2 * k * k
        assert len(brute_kernel) == space.dimension

    # inner directions always solve the equations and lie inside the kernel
    for name in QK_FLAT_NAMES:
        entry = catalog(name)
        g = entry.algebra
        space = deformation_space(split(g, entry.acs))
        kernel_rows = [
            {t: c for t, c in enumerate(vec) if c} for vec in space.kernel
        ]
        kernel_rank = rank_of_rows(g.dim * g.dim, kernel_rows)
        assert kernel_rank == space.dimension
        inner_rows = list(kernel_rows)
        for i in range(g.dim):
            ad = g.basis_ad(i)
            assert satisfies_deformation_equations(g, entry.acs, ad).ok is True
            flat = {
                r * g.dim + c: ad.entry(r, c)
                for r in range(g.dim)
                for c in range(g.dim)
                if ad.entry(r, c)
            }
            if flat:
                inner_rows.append(flat)
        assert rank_of_rows(g.dim * g.dim, inner_rows) == kernel_rank


def test_criterion_08_coupled_system_solutions_are_closed():
    rng = random.Random(108)

    def check(s):
        report = coupled_two_form_solutions(s)
        assert report.non_closed == ()
        assert report.all_closed is True
        for beta in report.solutions:
            # membership in the coupled system, verified directly
            residual = (
                exterior_d(s, beta).component(2, 1)
                + exterior_d(s, beta.conjugate()).component(2, 1)
            )
            assert residual.is_zero()
            # and full closedness, not just the (2,1) part
            assert exterior_d(s, beta).is_zero()

    for name in QK_FLAT_NAMES:
        entry = catalog(name)
        check(split(entry.algebra, entry.acs))
    for _ in range(20):
        g2, acs2 = random_doubled_pair(rng, max_dim=6)
        check(split(g2, acs2))


def test_criterion_09_differential_soundness_and_metric_form_purity():
    rng = random.Random(109)

    splittings = []
    for name in QK_FLAT_NAMES + ("complex_heisenberg_bicomplex",):
        entry = catalog(name)
        splittings.append(split(entry.algebra, entry.acs))

    count = 0
    while count < 100:
        s = rng.choice(splittings)
        degree = rng.randint(1, 2 * s.m - 1)
        p = rng.randint(max(0, degree - s.m), min(s.m, degree))
        f = random_pure_form(rng, s.m, degree, p)
        if f.is_zero():
            continue
        count += 1
        d = exterior_d(s, f)
        assert exterior_d(s, d).is_zero()
        pieces = [type_components(s, f, which) for which in ("A", "del", "delbar", "Abar")]
        total = pieces[0]
        for piece in pieces[1:]:
            total = total + piece
        assert total == d

    for name in QK_FLAT_NAMES:
        entry = catalog(name)
        s = split(entry.algebra, entry.acs)
        for _ in range(20):
            h = random_hermitian_metric(rng, s.m)
            omega = kaehler_form(s, h)
            assert type_components(s, omega, "delbar").is_zero()
            assert type_components(s, omega, "del").is_zero()


def test_criterion_10_integrable_counterexample_negative_control():
    entry = catalog("complex_heisenberg_bicomplex")
    g, acs = entry.algebra, entry.acs
    s = split(g, acs)

    assert is_chern_flat(s).ok is True
    assert is_qk_chern_flat(s).ok is False
    assert is_quasi_kaehler(s, HermitianMetric(ExactMatrix.identity(3))) is False

    assert nijenhuis(s) == {}

    model = catalog("iwasawa_j3")
    tensor = nijenhuis(split(model.algebra, model.acs))
    assert tensor != {}
    assert tensor[(0, 1)] == _unit(6, 2, gaussian(-4))


def test_readme_library_tour_states_its_values():
    # the calls of the README "Library tour", each against the value its comment states
    from chernflat import Verdict, catalog, deformation_space, is_qk_chern_flat, normal_form, split

    entry = catalog("iwasawa_j3")
    g, acs = entry.algebra, entry.acs
    D, full, into = g.numerators()
    assert D == 1
    assert full[1][0] == {2: (-1, 0)}
    assert into[4][5] == {0: (-1, 0)}
    s = split(g, acs)
    assert s.constants[(0, 1)] == {5: 2}
    assert is_qk_chern_flat(s) == Verdict(ok=True)
    c = s.holomorphic()
    assert c.table() == {(0, 1): {2: 2}}
    assert normal_form(s).constants == {(0, 1): {2: 1}}
    assert deformation_space(s).quotient_dimension == 0
