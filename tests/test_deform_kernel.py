"""Differential tests for the deformation system and its inner-direction check.

``deform._equation_rows`` builds the rows from sparse numerator views of J
(over d_J) and of the bracket table (over D), and ``deform._checked_rows``
substitutes the inner derivations into each row on Gaussian-integer
numerators.  The dense loops they replaced, over all n^4 index tuples through
``structure_constant`` and ``J.entry`` and over dense flattened ``basis_ad``
matrices in GaussianRational arithmetic, are kept below as the oracle.  Each
row must be d_J (anticommutation) or D (bracket) times the oracle's row, with
the same key order; both must give the same ``DeformationSpace`` and the same
``AssertionError`` on a tampered vector or row.
"""

import functools
import random
from fractions import Fraction

import pytest

from chernflat.acs import AlmostComplexStructure, is_qk_chern_flat, split
from chernflat import deform
from chernflat.constructions import catalog, random_two_step
from chernflat.deform import (
    DeformationSpace,
    _checked_rows,
    _equation_rows,
    _inner_vectors,
    deformation_space,
)
from chernflat.lie import LieAlgebra, is_two_step
from chernflat.linalg import ExactMatrix, NumeratorRow, det, inverse, kernel_from_rows, rank_of_rows
from chernflat.scalars import GaussianRational, ZERO, clear_denominators

from helpers import random_doubled_pair

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


def _oracle_equation_rows(g, acs):
    return _oracle_anticommutation_rows(acs) + _oracle_bracket_rows(g)


def _oracle_anticommutation_rows(acs):
    n = acs.dim
    j = acs.j
    rows = []
    for a in range(n):
        for b in range(n):
            row: dict = {}
            for c in range(n):
                v = j.entry(c, b)
                if v:
                    key = a * n + c
                    cur = row.get(key, ZERO) + v
                    if cur:
                        row[key] = cur
                    else:
                        row.pop(key, None)
            for c in range(n):
                v = j.entry(a, c)
                if v:
                    key = c * n + b
                    cur = row.get(key, ZERO) + v
                    if cur:
                        row[key] = cur
                    else:
                        row.pop(key, None)
            if row:
                rows.append(row)
    return rows


def _oracle_bracket_rows(g):
    n = g.dim
    rows = []
    for i in range(n):
        for jdx in range(n):
            if i == jdx:
                continue
            bij = g.basis_bracket(i, jdx)
            for k in range(n):
                row = {}
                for c in range(n):
                    if bij[c]:
                        key = k * n + c
                        cur = row.get(key, ZERO) + bij[c]
                        if cur:
                            row[key] = cur
                        else:
                            row.pop(key, None)
                for r in range(n):
                    v = g.structure_constant(r, jdx, k)
                    if v:
                        key = r * n + i
                        cur = row.get(key, ZERO) + v
                        if cur:
                            row[key] = cur
                        else:
                            row.pop(key, None)
                if row:
                    rows.append(row)
    return rows


def _oracle_inner_vectors(g):
    n = g.dim
    out = []
    for i in range(n):
        mat = g.basis_ad(i)
        vec = tuple(mat.entry(r, c) for r in range(n) for c in range(n))
        if any(vec):
            out.append(vec)
    return out


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
    n = g.dim
    rows = _oracle_equation_rows(g, acs)
    kernel = kernel_from_rows(n * n, rows)
    inner = _oracle_inner_vectors(g)
    _oracle_check(rows, inner)
    inner_rank = rank_of_rows(n * n, [{k: c for k, c in enumerate(v) if c} for v in inner])
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


def _transported(g: LieAlgebra, acs: AlmostComplexStructure, p: ExactMatrix):
    """The pair (g, J) carried by x -> P x: [x, y]' = P[P^-1 x, P^-1 y], J' = P J P^-1."""
    n = g.dim
    p_inv = inverse(p)
    cols = [p_inv.column(a) for a in range(n)]
    brackets = {}
    for a in range(n):
        for b in range(a + 1, n):
            image = p.matvec(g.bracket(cols[a], cols[b]))
            vec = {k: c for k, c in enumerate(image) if c}
            if vec:
                brackets[(a, b)] = vec
    return LieAlgebra(n, brackets), AlmostComplexStructure(p * acs.j * p_inv)


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
        return _transported(entry.algebra, entry.acs, p)
    if kind == "sheared":
        # the shear e_{m+k} -> e_k + e_{m+k} gives J_kk = 1 = -J_{m+k,m+k}, so the
        # two anticommutation entries at key k n + (m + k) cancel
        n = entry.algebra.dim
        m = n // 2
        shear = ExactMatrix([[1 if r == c or c == r + m else 0 for c in range(n)] for r in range(n)])
        return _transported(entry.algebra, entry.acs, shear)
    p = _dense_conjugator(entry.acs.j, random.Random(4000 + CONJUGATED.index(name)))
    return entry.algebra, AlmostComplexStructure(p * entry.acs.j * inverse(p))


def _numerator_row(row: dict, scale) -> dict:
    """scale times a Q(i) row, in the numerator layout {key: (re, im)} with int parts."""
    out = {}
    for key, c in row.items():
        z = c * scale
        assert z.re.denominator == 1 and z.im.denominator == 1
        out[key] = (z.re.numerator, z.im.numerator)
    return out


def _assert_scaled_rows(new, g, acs):
    """new is d_J times each oracle anticommutation row, then D times each bracket row."""
    anti = _oracle_anticommutation_rows(acs)
    old = anti + _oracle_bracket_rows(g)
    scales = [acs.numerators()[0]] * len(anti) + [g.numerators()[0]] * (len(old) - len(anti))
    assert all(type(row) is NumeratorRow for row in new)
    assert new == [_numerator_row(row, d) for row, d in zip(old, scales)]
    # dict equality ignores order; the key order of every row must match too
    assert [list(row) for row in new] == [list(row) for row in old]


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


@pytest.mark.parametrize("label", ALL)
def test_rows_match_the_dense_oracle(label):
    g, acs = _pair(label)
    _assert_scaled_rows(list(_equation_rows(g, acs)), g, acs)


@pytest.mark.parametrize("label", FLAT)
def test_deformation_space_matches_the_dense_oracle(label):
    g, acs = _pair(label)
    assert deformation_space(split(g, acs)) == _oracle_deformation_space(g, acs)
    sparse = [{k: c for k, c in enumerate(v) if c} for v in _oracle_inner_vectors(g)]
    assert [list(v.items()) for v in _inner_vectors(g)] == [list(v.items()) for v in sparse]


@pytest.mark.parametrize(
    "delta",
    [GaussianRational(Fraction(1, 3)), GaussianRational(0, Fraction(1, 5)), GaussianRational(Fraction(-2, 7), 3)],
    ids=["real", "imaginary", "complex"],
)
@pytest.mark.parametrize("name", ["iwasawa_j3", "dim5_irreducible", "centro1_model(2)"])
def test_a_tampered_vector_or_row_fails_both_checks(name, delta):
    entry = catalog(name)
    g, acs = entry.algebra, entry.acs
    rows = list(_equation_rows(g, acs))
    oracle_rows = _oracle_equation_rows(g, acs)
    vectors = _inner_vectors(g)
    dense = _oracle_inner_vectors(g)
    assert list(_checked_rows(rows, vectors)) == rows
    _oracle_check(oracle_rows, dense)

    # one entry of one inner vector, at a key that some row reads
    t, key = next((t, key) for t, vec in enumerate(vectors) for key in vec if any(key in row for row in rows))
    bad_vectors = [dict(vec) for vec in vectors]
    bad_vectors[t][key] = vectors[t][key] + delta
    bad_dense = list(dense)
    bad_dense[t] = tuple(c + delta if k == key else c for k, c in enumerate(dense[t]))
    with pytest.raises(AssertionError, match="inner derivation fails the deformation equations"):
        list(_checked_rows(rows, bad_vectors))
    with pytest.raises(AssertionError, match="inner derivation fails the deformation equations"):
        _oracle_check(oracle_rows, bad_dense)

    # one entry of one row, at a key that some inner vector holds; the
    # tampered oracle row goes to _checked_rows on its own numerators
    r, key = next((r, key) for r, row in enumerate(rows) for key in row if any(key in vec for vec in vectors))
    bad_rows = [dict(row) for row in oracle_rows]
    bad_rows[r][key] = oracle_rows[r][key] + delta
    _, re, im = clear_denominators(bad_rows[r].values())
    bad_numerators = list(rows)
    bad_numerators[r] = NumeratorRow((k, (a, b)) for k, a, b in zip(bad_rows[r], re, im))
    with pytest.raises(AssertionError, match="inner derivation fails the deformation equations"):
        list(_checked_rows(bad_numerators, vectors))
    with pytest.raises(AssertionError, match="inner derivation fails the deformation equations"):
        _oracle_check(bad_rows, dense)


def test_deformation_space_substitutes_every_inner_direction(monkeypatch):
    # every flattened key lies in some anticommutation row, since no column of J is zero
    entry = catalog("iwasawa_j3")
    sweep = deform._inner_vectors

    def tampered(g):
        vectors = sweep(g)
        key = next(iter(vectors[-1]))
        vectors[-1][key] = vectors[-1][key] + GaussianRational(0, 1)
        return vectors

    monkeypatch.setattr(deform, "_inner_vectors", tampered)
    with pytest.raises(AssertionError, match="inner derivation fails the deformation equations"):
        deformation_space(split(entry.algebra, entry.acs))
