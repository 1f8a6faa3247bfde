"""Differential tests for the constants of ``ComplexSplitting``.

The splitting contracts its constants from the sparse bracket table by a real
change of basis, on the int numerators of the table, of d_J R and of R^-1.
Two earlier versions are kept below as oracles: the dense loop,
``LieAlgebra.bracket`` on every pair of combined-frame vectors mapped through
the inverse of the complex combined frame, and the same sparse contraction
run on ``Fraction`` columns of R and R^-1.  Both must give the same
constants, entry for entry and in the same key order once the dense oracle's
zero values and empty rows are dropped, on flat pairs, on integrable (not
quasi-Kaehler) doublings, on scrambled frames and on structures conjugated so
that the columns of J are dense and J and R^-1 have denominators.
"""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chernflat.acs import AlmostComplexStructure, split
from chernflat.classify import random_frame_scramble
from chernflat.constructions import catalog, complexification, random_two_step
from chernflat.linalg import ExactMatrix, inverse, random_invertible
from chernflat.scalars import GaussianRational, ONE, ZERO, accumulate, clear_denominators

from helpers import combined_frame, random_two_step_real_algebra, real_basis

CATALOG = [
    "centro1_model(1)",
    "centro1_model(2)",
    "centro1_model(3)",
    "complex_heisenberg_bicomplex",
    "dim4_model",
    "dim5_irreducible",
    "iwasawa_e_frame",
    "iwasawa_j3",
]


# -- oracle: the dense loop over LieAlgebra.bracket ---------------------------


def _dense_constants(g, s) -> dict:
    combined = combined_frame(s)
    combined_inv = inverse(combined)
    n = g.dim
    constants = {}
    basis_vectors = [combined.column(alpha) for alpha in range(n)]
    for alpha in range(n):
        for beta in range(alpha + 1, n):
            v = g.bracket(basis_vectors[alpha], basis_vectors[beta])
            constants[(alpha, beta)] = combined_inv.matvec(v)
    return constants


# -- oracle: the contraction on Fraction columns of R and R^-1 ---------------------


def _fraction_change_basis(full: list, cols: list, inv_cols: list) -> dict:
    out = {}
    for p, col_p in enumerate(cols):
        for q in range(p + 1, len(cols)):
            image: dict = {}
            for i, a in col_p:
                for j, b in cols[q]:
                    ab = a * b
                    for k, c in full[i][j].items():
                        accumulate(image, k, ab * c)
            vec: dict = {}
            for k, v in image.items():
                for s, x in inv_cols[k]:
                    accumulate(vec, s, x * v)
            if vec:
                out[(p, q)] = dict(sorted(vec.items()))
    return out


def _fraction_frame_constants(g, s) -> dict:
    """The splitting's constants from R = [x, J x] and R^-1 as Fractions, as computed before the int version."""
    m = s.m
    n = 2 * m
    r = ExactMatrix.from_columns([*real_basis(s), *(s.acs.j.matvec(x) for x in real_basis(s))])
    r_inv = inverse(r)
    denom, numerators, _ = g.numerators()
    full = [[{k: x for k, (x, _) in vec.items()} for vec in row] for row in numerators]
    half = Fraction(1, 2 * denom)
    cols = [[(i, x.re) for i, x in enumerate(r.column(p)) if x] for p in range(n)]
    inv_cols = [[(t, x.re) for t, x in enumerate(r_inv.column(k)) if x] for k in range(n)]
    real = _fraction_change_basis(full, cols, inv_cols)

    def combination(*terms) -> dict:
        acc = {}
        for sign, p, q in terms:
            if p > q:
                p, q, sign = q, p, -sign
            for t, v in real.get((p, q), {}).items():
                acc[t] = acc.get(t, 0) + v if sign > 0 else acc.get(t, 0) - v
        return acc

    def in_frame(re: dict, im: dict) -> dict:
        top, bottom = {}, {}
        for k in range(m):
            a, b = re.get(k, 0), im.get(k, 0)
            c, d = re.get(m + k, 0), im.get(m + k, 0)
            if a - d or b + c:
                top[k] = GaussianRational((a - d) * half, (b + c) * half)
            if a + d or b - c:
                bottom[m + k] = GaussianRational((a + d) * half, (b - c) * half)
        return {**top, **bottom}

    constants = {}
    for alpha in range(n):
        for beta in range(alpha + 1, n):
            if beta < m:
                a, b = alpha, beta
                row = in_frame(
                    combination((1, a, b), (-1, m + a, m + b)),
                    combination((-1, a, m + b), (-1, m + a, b)),
                )
            elif alpha < m:
                a, b = alpha, beta - m
                row = in_frame(
                    combination((1, a, b), (1, m + a, m + b)),
                    combination((1, a, m + b), (-1, m + a, b)),
                )
            else:
                holo = constants.get((alpha - m, beta - m), {})
                row = {k - m: z.conjugate() for k, z in holo.items() if k >= m}
                row.update((k + m, z.conjugate()) for k, z in holo.items() if k < m)
            if row:
                constants[(alpha, beta)] = row
    return constants


def _without_zeros(dense: dict) -> dict:
    """The dense oracle as a sparse table: zero values and empty rows dropped, order kept."""
    out = {}
    for pair, vec in dense.items():
        row = {k: c for k, c in enumerate(vec) if c}
        if row:
            out[pair] = row
    return out


def _items(table: dict) -> list:
    """The table as nested item lists, so that a comparison sees the key order too."""
    return [(pair, list(row.items())) for pair, row in table.items()]


# -- inputs ---------------------------------------------------------------------


def _permutation(n: int, rng) -> ExactMatrix:
    image = list(range(n))
    rng.shuffle(image)
    return ExactMatrix([[ONE if image[c] == r else ZERO for c in range(n)] for r in range(n)])


BASES = ["iwasawa_j3", "dim4_model", "complex_heisenberg_bicomplex", "centro1_model(2)"]

LABELS = [
    *CATALOG,
    *(f"two-step-{seed}" for seed in range(4)),
    *(f"complexification-{seed}" for seed in range(3)),
    *(f"scrambled-centro1-{seed}" for seed in range(3)),
    *(f"{name}-{kind}" for name in BASES for kind in ("dense", "permuted")),
    "complexification-dense",
]


@functools.cache
def _conjugated(seed: int):
    """P J P^-1 for BASES[seed], with a dense rational P and with a permutation P.

    With a dense P every column of J is dense; with a permutation P the
    greedy real basis skips indices.
    """
    entry = catalog(BASES[seed])
    g, j = entry.algebra, entry.acs.j
    rng = random.Random(2000 + seed)
    p = random_invertible(g.dim, rng, complex_entries=False, span=1)
    dense = AlmostComplexStructure(p * j * inverse(p))
    p = _permutation(g.dim, rng)
    return g, dense, AlmostComplexStructure(p * j * inverse(p))


@functools.cache
def _pair(label: str):
    """The (g, acs) input named label, built on first use and kept.

    Nothing is built at import, so a splitting defect that breaks
    construction fails the tests that use the input, not the collection.
    """
    if label in CATALOG:
        entry = catalog(label)
        return entry.algebra, entry.acs
    kind, _, tail = label.rpartition("-")
    if kind == "two-step":
        return random_two_step(random.Random(int(tail)))
    if kind == "complexification" and tail != "dense":
        return complexification(random_two_step_real_algebra(random.Random(int(tail)), max_dim=5))
    if kind == "scrambled-centro1":
        center_one = catalog("centro1_model(2)")
        g, acs, _frame = random_frame_scramble(center_one.algebra, center_one.acs, random.Random(int(tail)))
        return g, acs
    if kind in BASES:
        g, dense, permuted = _conjugated(BASES.index(kind))
        return g, dense if tail == "dense" else permuted
    g, acs = complexification(random_two_step_real_algebra(random.Random(7), max_dim=4))
    p = random_invertible(g.dim, random.Random(7), complex_entries=False, span=1)
    return g, AlmostComplexStructure(p * acs.j * inverse(p))


@pytest.mark.parametrize("label", LABELS)
def test_constants_match_the_dense_oracle(label):
    g, acs = _pair(label)
    s = split(g, acs)
    assert list(s.constants) == sorted(s.constants)
    assert all(row and list(row) == sorted(row) and all(row.values()) for row in s.constants.values())
    assert _items(s.constants) == _items(_without_zeros(_dense_constants(g, s)))
    combined_inv = inverse(combined_frame(s))
    for k in range(g.dim):
        assert s.to_combined([ONE if t == k else ZERO for t in range(g.dim)]) == combined_inv.column(k)
    # R^-1 is kept as the int columns of d_R R^-1, d_R its least common denominator
    r_inv = inverse(ExactMatrix.from_columns([*real_basis(s), *(acs.j.matvec(x) for x in real_basis(s))]))
    d_r, inv_cols = s._r_inv
    assert d_r == clear_denominators(x for k in range(g.dim) for x in r_inv.column(k))[0]
    assert [[(t, Fraction(v, d_r)) for t, v in col] for col in inv_cols] == [
        [(t, x.re) for t, x in enumerate(r_inv.column(k)) if x] for k in range(g.dim)
    ]


@pytest.mark.parametrize("label", LABELS)
def test_constants_match_the_fraction_oracle(label):
    g, acs = _pair(label)
    s = split(g, acs)
    assert _items(s.constants) == _items(_fraction_frame_constants(g, s))


def test_inputs_cover_denominators_in_j_and_in_r_inverse():
    def r_inverse_denominator(s):
        r = ExactMatrix.from_columns([*real_basis(s), *(s.acs.j.matvec(x) for x in real_basis(s))])
        return clear_denominators(x for k in range(r.cols) for x in inverse(r).column(k))[0]

    pairs = [_pair(label) for label in LABELS]
    assert any(acs.numerators()[0] > 1 for _, acs in pairs)
    assert any(r_inverse_denominator(split(g, acs)) > 1 for g, acs in pairs)
    # and both at once, with a table denominator D > 1
    assert any(
        acs.numerators()[0] > 1 and g.numerators()[0] > 1 and r_inverse_denominator(split(g, acs)) > 1
        for g, acs in pairs
    )


_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=5)
_gaussians = st.builds(GaussianRational, _fractions, _fractions)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_to_combined_round_trips_gaussian_vectors(data):
    g, acs = _pair(data.draw(st.sampled_from(LABELS)))
    s = split(g, acs)
    v = tuple(data.draw(st.lists(_gaussians, min_size=g.dim, max_size=g.dim)))
    assert combined_frame(s).matvec(s.to_combined(v)) == v


def test_inputs_cover_dense_columns_and_skipped_indices():
    def support(acs):
        return max(sum(1 for c in acs.j.column(i) if c) for i in range(acs.dim))

    pairs = [_pair(label) for label in LABELS]
    assert max(support(acs) for _, acs in pairs) >= 4
    # a real basis other than the first m unit vectors
    assert any(
        list(split(g, acs).indices) != list(range(g.dim // 2))
        for g, acs in pairs
    )
    # pairs that are not Chern-flat, and pairs that are not quasi-Kaehler
    splittings = [split(g, acs) for g, acs in pairs]
    assert any(a < s.m <= b for s in splittings for a, b in s.constants)
    assert any(b < s.m and min(row) < s.m for s in splittings for (_a, b), row in s.constants.items())
