"""Differential tests for the deformation space and its inner-direction check.

``deform.deformation_space`` reads the solution space off the holomorphic
constants as K (x) W (``deform._tensor_factors``), carries each solution
matrix to the real basis on ints (``deform._solution_rows``) and checks
that every inner derivation ``deform._inner_vectors``, on ints D times
over, lies in the span.  Its two-step check is the closure check that
``s.holomorphic()`` runs (``acs._closure_defect``, on the numerator views
that K and W are read from); the lower central series (``lie.is_two_step``)
and the dense ``helpers.oracle_closure_defect`` are its oracles, the latter
also on raw and on tampered transported tables.
The full system it replaced, every anticommutation row and every ordered
pair's bracket rows from dense loops over ``structure_constant`` and
``J.entry`` (``helpers.oracle_equation_rows``), and a dense substitution of
the flattened ``basis_ad`` matrices into it, are the oracle.  Both must give
the same ``DeformationSpace``, including the canonical kernel basis, and
the same ``AssertionError`` on a tampered inner vector or row.  Each int
solution row must be a fixed positive multiple of the dense R L_R R^-1
(``helpers.oracle_solution_matrices``), and the rows together must span
the full system's kernel.
"""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from chernflat import acs as acs_module, deform
from chernflat.acs import AlmostComplexStructure, _closure_defect, is_qk_chern_flat, split
from chernflat.constructions import catalog, from_holomorphic_constants, random_two_step
from chernflat.deform import DeformationSpace, _inner_vectors, deformation_space
from chernflat.lie import LieAlgebra, is_two_step
from chernflat.linalg import ExactMatrix, det, inverse, kernel_from_rows, rank_of_rows
from chernflat.scalars import GaussianRational, ZERO, gaussian

from helpers import (
    CONJUGATE_AND_ORDER_TABLE,
    assert_inner_vectors_scale_the_oracle,
    assert_solution_rows_scale_the_oracle,
    echelon_row,
    oracle_closure_defect,
    oracle_equation_rows,
    oracle_inner_vectors,
    random_doubled_pair,
    satisfies_deformation_equations,
    tampered_table,
    transported_pair,
    unchecked_constants,
)


CATALOG = [
    "abelian(2)",
    "abelian(4)",
    "abelian(6)",
    "iwasawa_j3",
    "dim4_model",
    "dim5_irreducible",
    "centro1_model(1)",
    "centro1_model(2)",
    "centro1_model(3)",
]


# -- oracle: the dense loops ----------------------------------------------------


def _oracle_check(rows, inner_vectors):
    for vec in inner_vectors:
        for row in rows:
            acc = ZERO
            for key, coeff in row.items():
                if vec[key]:
                    acc = acc + coeff * vec[key]
            if acc:
                raise AssertionError("inner derivation fails the deformation equations")


def _oracle_deformation_space(g, acs):
    """The DeformationSpace of the full system, or the inner-direction AssertionError.

    An inner direction solves the system exactly when it lies in the span of
    the system's kernel, so membership is one rank count; on the dense
    transported tables it is far cheaper than substituting every inner
    direction into every row, as _oracle_check does.
    """
    n = g.dim
    kernel = kernel_from_rows(n * n, oracle_equation_rows(g, acs))
    inner = [{k: c for k, c in enumerate(v) if c} for v in oracle_inner_vectors(g)]
    if rank_of_rows(n * n, [*({k: c for k, c in enumerate(v) if c} for v in kernel), *inner]) > len(kernel):
        raise AssertionError("inner derivation fails the deformation equations")
    inner_rank = rank_of_rows(n * n, inner)
    return DeformationSpace(n, tuple(kernel), inner_rank, len(kernel) - inner_rank)


# -- inputs ---------------------------------------------------------------------


def _dense_conjugator(j: ExactMatrix, rng) -> ExactMatrix:
    """Rational P, no entry zero, for which P J P^-1 has no zero entry either."""
    n = j.rows
    while True:
        p = ExactMatrix([[Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)])
        if det(p):
            conjugate = p * j * inverse(p)
            if all(conjugate.entry(r, c) for r in range(n) for c in range(n)):
                return p


TRANSPORTED = ["iwasawa_j3", "dim4_model", "centro1_model(1)"]
SHEARED = ["iwasawa_j3", "centro1_model(1)"]
CONJUGATED = ["iwasawa_j3", "dim4_model", "complex_heisenberg_bicomplex", "centro1_model(1)"]

FLAT = [
    *CATALOG,
    *(f"two-step-{seed}" for seed in range(4)),
    "dim5_irreducible-reversed",
    "centro1_model(2)-reversed",
    *(f"{name}-transported" for name in TRANSPORTED),
    *(f"{name}-sheared" for name in SHEARED),
]
# (g, P J P^-1) with a dense rational P: J dense, the pair not flat
ALL = FLAT + [f"{name}-conjugated" for name in CONJUGATED] + [f"doubled-{seed}-conjugated" for seed in range(3)]


@functools.cache
def _pair(label: str):
    """The (g, acs) input named label, built on first use and kept.

    Nothing is built at import, so a defect that breaks construction fails
    the tests that use the input, not the collection.
    """
    if label in CATALOG:
        entry = catalog(label)
        return entry.algebra, entry.acs
    name, _, kind = label.rpartition("-")
    if name == "two-step":
        return random_two_step(random.Random(int(kind)))
    if name.startswith("doubled-"):
        seed = int(name.rpartition("-")[2])
        g, acs = random_doubled_pair(random.Random(seed), max_dim=4)
        p = _dense_conjugator(acs.j, random.Random(5000 + seed))
        return g, AlmostComplexStructure(p * acs.j * inverse(p))
    entry = catalog(name)
    if kind == "reversed":
        # the same table listed in reverse order, pairs and targets alike
        table = {pair: dict(reversed(vec.items())) for pair, vec in reversed(entry.algebra.brackets.items())}
        return LieAlgebra(entry.algebra.dim, table), entry.acs
    if kind == "transported":
        # dense J and a dense table: both carried by a dense rational P
        p = _dense_conjugator(entry.acs.j, random.Random(3000 + TRANSPORTED.index(name)))
        return transported_pair(entry.algebra, entry.acs, p)
    if kind == "sheared":
        # the shear e_{m+k} -> e_k + e_{m+k} gives J_kk = 1 = -J_{m+k,m+k}, so the
        # two anticommutation entries at key k n + (m + k) cancel
        n = entry.algebra.dim
        m = n // 2
        shear = ExactMatrix([[1 if r == c or c == r + m else 0 for c in range(n)] for r in range(n)])
        return transported_pair(entry.algebra, entry.acs, shear)
    p = _dense_conjugator(entry.acs.j, random.Random(4000 + CONJUGATED.index(name)))
    return entry.algebra, AlmostComplexStructure(p * entry.acs.j * inverse(p))


# -- tests ----------------------------------------------------------------------


def test_inputs_cover_dense_structures_and_cancelling_rows():
    dense = [_pair(label)[1] for label in ALL if label.endswith(("transported", "conjugated"))]
    assert dense and all(all(acs.j.entry(r, c) for r in range(acs.dim) for c in range(acs.dim)) for acs in dense)
    # an anticommutation row where J_bb and J_aa meet at key a n + b
    assert any(
        acs.j.entry(a, a) and acs.j.entry(b, b) and (acs.j.entry(b, b) + acs.j.entry(a, a)) == 0
        for _, acs in map(_pair, ALL)
        for a in range(acs.dim)
        for b in range(acs.dim)
    )
    assert all(is_qk_chern_flat(split(g, acs)) and is_two_step(g) for g, acs in map(_pair, FLAT))
    assert not any(is_qk_chern_flat(split(*_pair(label))) for label in ALL if "conjugated" in label)
    # some a outside S whose R^-1 e_a has more than one nonzero coordinate, so the
    # solution matrices are carried back through a dense R^-1 (3-4 such a per transported label)
    mixed = [
        a
        for label in FLAT
        for s in [split(*_pair(label))]
        for a in range(s.dim)
        if a not in s.indices and len(s._r_inv[1][a]) > 1
    ]
    assert len(mixed) >= 3


@pytest.mark.parametrize("label", ALL)
def test_rows_match_the_dense_oracle(label):
    g, acs = _pair(label)
    s = split(g, acs)
    n = g.dim
    oracle_rows = oracle_equation_rows(g, acs)
    # the int inner vectors are D times the dense ad_{e_i}, J or no J
    assert_inner_vectors_scale_the_oracle(g, _inner_vectors(g))
    if label not in FLAT:
        # off the sector shape there are no holomorphic constants to read: deform
        # refuses the pair, and the full system's kernel passes the dense checker
        with pytest.raises(ValueError, match="deformation space requires a quasi-Kaehler flat pair"):
            deformation_space(s)
        for v in kernel_from_rows(n * n, oracle_rows):
            mat = ExactMatrix([[gaussian(v[r * n + c]) for c in range(n)] for r in range(n)])
            assert satisfies_deformation_equations(g, acs, mat)
        return
    k_basis, w_basis = deform._tensor_factors(s)
    dense = assert_solution_rows_scale_the_oracle(s, list(deform._solution_rows(s, k_basis, w_basis)), k_basis, w_basis)
    # every row of the full system vanishes on every solution matrix, and the
    # 2 dim K dim W solutions are independent and as many as the system's kernel
    for mat in dense:
        for row in oracle_rows:
            assert not sum((c * mat[key] for key, c in row.items() if mat[key]), ZERO)
    sparse = [{k: c for k, c in enumerate(mat) if c} for mat in dense]
    assert rank_of_rows(n * n, sparse) == len(dense) == len(kernel_from_rows(n * n, oracle_rows))


# dense rational P with denominators, carried with the table: J and the table dense, the pair flat
_entry = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(data=st.data())
def test_deformation_space_of_transported_pairs_matches_the_full_system(data):
    g, acs = _pair(data.draw(st.sampled_from([label for label in CATALOG + ["two-step-0", "two-step-1"] if _pair(label)[0].dim <= 6])))
    n = g.dim
    p = ExactMatrix([[data.draw(_entry) for _ in range(n)] for _ in range(n)])
    assume(det(p) and any(x.re.denominator > 1 for r in range(n) for x in p.row(r)))
    h, j = transported_pair(g, acs, p)
    space = deformation_space(split(h, j))
    assert space == _oracle_deformation_space(h, j)
    assert all(satisfies_deformation_equations(h, j, mat) for mat in space.matrices())


@pytest.mark.parametrize("label", FLAT)
def test_deformation_space_matches_the_dense_oracle(label):
    g, acs = _pair(label)
    assert deformation_space(split(g, acs)) == _oracle_deformation_space(g, acs)
    assert_inner_vectors_scale_the_oracle(g, _inner_vectors(g))


@pytest.mark.parametrize(
    "delta",
    [GaussianRational(Fraction(1, 3)), GaussianRational(0, Fraction(1, 5)), GaussianRational(Fraction(-2, 7), 3)],
    ids=["real", "imaginary", "complex"],
)
@pytest.mark.parametrize("name", ["iwasawa_j3", "dim5_irreducible", "centro1_model(2)"])
def test_a_tampered_vector_or_row_fails_both_checks(name, delta, monkeypatch):
    entry = catalog(name)
    g = entry.algebra
    s = split(g, entry.acs)
    oracle_rows = oracle_equation_rows(g, entry.acs)
    vectors = _inner_vectors(g)
    dense = assert_inner_vectors_scale_the_oracle(g, vectors)
    sparse = [{k: c for k, c in enumerate(vec) if c} for vec in dense]
    deformation_space(s)
    _oracle_check(oracle_rows, dense)

    # one entry of one inner vector, at a key that some row reads; no
    # single-entry matrix anticommutes with J, so the tampered vector leaves
    # the solution space whatever the entry
    t, key = next((t, key) for t, vec in enumerate(sparse) for key in vec if any(key in row for row in oracle_rows))
    bad_dense = list(dense)
    bad_dense[t] = tuple(c + delta if k == key else c for k, c in enumerate(dense[t]))
    bad_vectors = list(vectors)
    bad_vectors[t] = echelon_row(bad_dense[t])
    with monkeypatch.context() as patch:
        patch.setattr(deform, "_inner_vectors", lambda _: bad_vectors)
        with pytest.raises(AssertionError, match="inner derivation fails the deformation equations"):
            deformation_space(s)
    with pytest.raises(AssertionError, match="inner derivation fails the deformation equations"):
        _oracle_check(oracle_rows, bad_dense)

    # one entry of one solution row that some inner vector needs, at a key that
    # inner vector holds: the single-entry matrix is no solution, so the
    # tampered row takes that inner vector out of the span
    n = g.dim
    k_basis, w_basis = deform._tensor_factors(s)
    rows = list(deform._solution_rows(s, k_basis, w_basis))
    solutions = assert_solution_rows_scale_the_oracle(s, rows, k_basis, w_basis)
    sparse_solutions = [{k: c for k, c in enumerate(mat) if c} for mat in solutions]
    r, vec = next(
        (r, vec)
        for r in range(len(rows))
        for vec in sparse
        if rank_of_rows(n * n, [*sparse_solutions[:r], *sparse_solutions[r + 1 :], vec]) == len(rows)
    )
    key = next(iter(vec))
    bad_rows = list(rows)
    bad_rows[r] = echelon_row(tuple(c + delta if k == key else c for k, c in enumerate(solutions[r])))
    monkeypatch.setattr(deform, "_solution_rows", lambda *_: iter(bad_rows))
    with pytest.raises(AssertionError, match="inner derivation fails the deformation equations"):
        deformation_space(s)

    # the same on the full system: one entry of one row, at a key that some
    # inner vector holds, now pairs that vector to a nonzero value
    r, key = next((r, key) for r, row in enumerate(oracle_rows) for key in row if any(key in vec for vec in sparse))
    bad_oracle_rows = [dict(row) for row in oracle_rows]
    bad_oracle_rows[r][key] = oracle_rows[r][key] + delta
    with pytest.raises(AssertionError, match="inner derivation fails the deformation equations"):
        _oracle_check(bad_oracle_rows, dense)


def test_deformation_space_substitutes_every_inner_direction(monkeypatch):
    # an imaginary part at any key takes a flattened ad out of the span of real solutions
    entry = catalog("iwasawa_j3")
    sweep = deform._inner_vectors

    def tampered(g):
        vectors = sweep(g)
        assert_inner_vectors_scale_the_oracle(g, vectors)
        key = next(iter(vectors[-1]))
        re, im = vectors[-1][key]
        vectors[-1][key] = (re, im + 1)
        return vectors

    monkeypatch.setattr(deform, "_inner_vectors", tampered)
    with pytest.raises(AssertionError, match="inner derivation fails the deformation equations"):
        deformation_space(split(entry.algebra, entry.acs))


# holomorphic constants with non-real Q(i) coefficients, carried by a dense rational P
_coefficient = st.builds(GaussianRational, _entry, _entry)


@st.composite
def _central_tables(draw):
    """(m, table): the generators 0..p-1 bracket onto the central slots p..m-1 only.

    Every triple bracket then vanishes, so the closure relations hold; at
    least one coefficient is not real.
    """
    m = draw(st.integers(3, 6))
    p = draw(st.integers(2, m - 1))
    table = {}
    for i in range(p):
        for j in range(i + 1, p):
            row = {k: c for k in range(p, m) if (c := draw(_coefficient))}
            if row:
                table[(i, j)] = row
    assume(any(c.im for row in table.values() for c in row.values()))
    return m, table


def _factor_dimensions(m: int, table: dict) -> tuple:
    """(dim K, dim W) from dense loops over the antisymmetric constants c_ab^l of table."""

    def c(a, b, l):
        if a == b:
            return ZERO
        return table.get((a, b), {}).get(l, ZERO) if a < b else -table.get((b, a), {}).get(l, ZERO)

    k_rows = [{k: c(k, b, l).conjugate() for k in range(m) if c(k, b, l)} for b in range(m) for l in range(m)]
    w_rows = [{k: c(a, b, k).conjugate() for k in range(m) if c(a, b, k)} for a in range(m) for b in range(a + 1, m)]
    return m - rank_of_rows(m, k_rows), m - rank_of_rows(m, w_rows)


@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(case=_central_tables(), data=st.data())
def test_deformation_space_of_transported_complex_tables_matches_the_full_system(case, data):
    m, table = case
    g, acs = from_holomorphic_constants(m, table)
    n = g.dim
    p = ExactMatrix([[data.draw(_entry) for _ in range(n)] for _ in range(n)])
    assume(det(p))
    h, j = transported_pair(g, acs, p)
    space = deformation_space(split(h, j))
    assert space == _oracle_deformation_space(h, j)
    dim_k, dim_w = _factor_dimensions(m, table)
    assert space.dimension == 2 * dim_k * dim_w


@pytest.mark.parametrize(
    "label, side, drop, outcome",
    [
        ("abelian(4)", 0, 0, "differs"),
        ("abelian(4)", 1, 1, "differs"),
        ("iwasawa_j3", 0, 0, "raises"),
        ("iwasawa_j3", 1, 1, "raises"),
        ("dim4_model", 0, 0, "raises"),
        ("dim4_model", 0, 1, "differs"),
        ("dim4_model", 1, 2, "differs"),
        ("dim5_irreducible", 1, 0, "raises"),
        ("dim4_model-transported", 0, 1, "raises"),
    ],
)
def test_a_dropped_k_or_w_vector_is_caught(label, side, drop, outcome, monkeypatch):
    # side 0 drops a vector of K, side 1 one of W; the answer then loses
    # 2 dim W or 2 dim K directions, and when some inner direction needed
    # the lost ones, the membership check raises instead
    g, acs = _pair(label)
    oracle = _oracle_deformation_space(g, acs)
    factors = deform._tensor_factors

    def dropped(s):
        kept = list(factors(s))
        lost = len(kept[1 - side])
        kept[side] = [v for t, v in enumerate(kept[side]) if t != drop]
        dropped.lost = 2 * lost
        return tuple(kept)

    monkeypatch.setattr(deform, "_tensor_factors", dropped)
    if outcome == "raises":
        with pytest.raises(AssertionError, match="inner derivation fails the deformation equations"):
            deformation_space(split(g, acs))
    else:
        space = deformation_space(split(g, acs))
        assert space != oracle
        assert space.dimension == oracle.dimension - dropped.lost


# -- the two-step check of the holomorphic constants ------------------------------


@pytest.mark.parametrize("label", FLAT)
def test_the_closure_check_agrees_with_the_lower_central_series(label):
    s = split(*_pair(label))
    assert (_closure_defect(s.holomorphic()) is None) == is_two_step(s.g)


@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(case=_central_tables(), data=st.data())
def test_the_closure_check_of_transported_complex_tables_agrees_with_the_lower_central_series(case, data):
    g, acs = from_holomorphic_constants(*case)
    n = g.dim
    p = ExactMatrix([[data.draw(_entry) for _ in range(n)] for _ in range(n)])
    assume(det(p))
    h, j = transported_pair(g, acs, p)
    assert (_closure_defect(split(h, j).holomorphic()) is None) == is_two_step(h)


# any antisymmetric table with Q(i) constants, most of them breaking some closure relation
@st.composite
def _raw_tables(draw):
    m = draw(st.integers(2, 4))
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    table = {}
    for pair in draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True)):
        row = {k: c for k in range(m) if (c := draw(_coefficient))}
        if row:
            table[pair] = row
    return m, table


@settings(max_examples=40, deadline=None)
@given(case=_raw_tables())
@example(case=CONJUGATE_AND_ORDER_TABLE)
def test_the_closure_check_matches_the_closure_defect_on_raw_tables(case):
    # acs._closure_defect on the numerator views, the check behind
    # s.holomorphic() and so behind deform's two-step error, returns the
    # first witness of the dense oracle
    m, table = case
    assert _closure_defect(unchecked_constants(m, table)) == oracle_closure_defect(m, table)


@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(case=_central_tables(), data=st.data())
def test_a_tampered_transported_table_raises_the_two_step_error_at_the_oracle_witness(case, data):
    # the constants of a transported pair with one entry tampered, read by
    # deform in place of the splitting's own
    g, acs = from_holomorphic_constants(*case)
    n = g.dim
    p = ExactMatrix([[data.draw(_entry) for _ in range(n)] for _ in range(n)])
    assume(det(p))
    h, j = transported_pair(g, acs, p)
    m = n // 2
    table = tampered_table(m, split(h, j).holomorphic().table(), random.Random(data.draw(st.integers(0, 2**32 - 1))))
    witness = oracle_closure_defect(m, table)
    assume(witness is not None)
    assert _closure_defect(unchecked_constants(m, table)) == witness
    s = split(h, j)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(acs_module, "_holomorphic_table", lambda _: table)
        with pytest.raises(ValueError, match="^deformation space requires a two-step algebra$"):
            deformation_space(s)


def test_a_broken_closure_relation_raises_the_two_step_error(monkeypatch):
    # c_01 = conj Z_2 and c_02 = conj Z_1 break the closure relation
    # (0, 1, 0, 1); Jacobi rules such a table out, and deform must still read
    # the check
    entry = catalog("iwasawa_j3")
    s = split(entry.algebra, entry.acs)
    table = {(0, 1): {2: GaussianRational(1)}, (0, 2): {1: GaussianRational(1)}}
    assert _closure_defect(unchecked_constants(3, table)) == oracle_closure_defect(3, table) == (0, 1, 0, 1)
    monkeypatch.setattr(acs_module, "_holomorphic_table", lambda _: table)
    with pytest.raises(ValueError, match="^deformation space requires a two-step algebra$"):
        deformation_space(s)
