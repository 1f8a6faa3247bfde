"""Differential tests for the fraction-free elimination engine.

``linalg.Echelon`` keeps its rows as Gaussian-integer numerators and reduces
by cross-multiplication; ``linalg.det`` is Bareiss elimination on the same
numerators.  The GaussianRational (Fraction) engine and determinant they
replaced are kept below as the oracle.  The reduced row-echelon form is
unique, so rank, pivot columns, kernel bases, reduced bases, inverses and
determinants must be the same exact objects.
"""

import functools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from chernflat.constructions import catalog
from chernflat.lie import Subspace
from chernflat.linalg import (
    Echelon,
    ExactMatrix,
    SingularMatrixError,
    det,
    inverse,
    kernel_from_rows,
    leading_minors,
    rank,
    rank_of_rows,
)
from chernflat.scalars import GaussianRational, ONE, ZERO, clear_denominators, gaussian

from helpers import oracle_equation_rows
from oracles import random_two_step

# -- the Fraction oracle ---------------------------------------------------------


def _content_normalize(row: dict) -> dict:
    """Clear denominators and divide out the integer content of a sparse row."""
    _, re, im = clear_denominators(row.values())
    content = gcd(*re, *im)
    if content == 0:
        return {}
    return {
        c: GaussianRational(Fraction(a // content), Fraction(b // content))
        for c, a, b in zip(row, re, im)
    }


class _FractionEchelon:
    """The Gauss-Jordan engine that divided in GaussianRational arithmetic."""

    def __init__(self, ncols, pivot_limit=None):
        self.ncols = ncols
        self.pivot_limit = ncols if pivot_limit is None else pivot_limit
        self.pivot_rows = {}
        self.extra_rows = []

    def add(self, row):
        work = {c: gaussian(v) for c, v in row.items() if v}
        for c in [c for c in work if c in self.pivot_rows]:
            if c not in work:
                continue
            piv = self.pivot_rows[c]
            factor = work[c] / piv[c]
            for cc, vv in piv.items():
                cur = work.get(cc, ZERO) - factor * vv
                if cur:
                    work[cc] = cur
                else:
                    work.pop(cc, None)
        work = _content_normalize(work)
        if not work:
            return
        lead_candidates = [c for c in work if c < self.pivot_limit]
        if not lead_candidates:
            self.extra_rows.append(work)
            return
        lead = min(lead_candidates)
        for col, other in self.pivot_rows.items():
            if lead in other:
                factor = other[lead] / work[lead]
                for cc, vv in work.items():
                    cur = other.get(cc, ZERO) - factor * vv
                    if cur:
                        other[cc] = cur
                    else:
                        other.pop(cc, None)
                self.pivot_rows[col] = _content_normalize(other)
        self.pivot_rows[lead] = work

    def basis(self):
        rows = []
        for c in sorted(self.pivot_rows):
            row = self.pivot_rows[c]
            vec = [ZERO] * self.ncols
            for cc, vv in row.items():
                vec[cc] = vv / row[c]
            rows.append(tuple(vec))
        return rows

    def kernel_vectors(self):
        pivots = sorted(self.pivot_rows)
        basis = []
        for f in [c for c in range(self.ncols) if c not in self.pivot_rows]:
            vec = [ZERO] * self.ncols
            vec[f] = ONE
            for c in pivots:
                row = self.pivot_rows[c]
                if f in row:
                    vec[c] = -row[f] / row[c]
            basis.append(tuple(vec))
        return basis


def _oracle_solve(m, b):
    ech = _FractionEchelon(m.cols + b.cols, pivot_limit=m.cols)
    for i in range(m.rows):
        row = {j: m.entry(i, j) for j in range(m.cols) if m.entry(i, j)}
        for t in range(b.cols):
            if b.entry(i, t):
                row[m.cols + t] = b.entry(i, t)
        ech.add(row)
    if ech.extra_rows:
        return None
    out = [[ZERO] * b.cols for _ in range(m.cols)]
    for c, row in ech.pivot_rows.items():
        for t in range(b.cols):
            val = row.get(m.cols + t)
            if val:
                out[c][t] = val / row[c]
    return ExactMatrix(out)


def _oracle_det(m):
    """The dividing elimination det used before Bareiss."""
    n = m.rows
    work = [list(m.row(i)) for i in range(n)]
    sign = 1
    result = ONE
    for col in range(n):
        pivot_row = None
        for r in range(col, n):
            if work[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            return ZERO
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            sign = -sign
        piv = work[col][col]
        result = result * piv
        for r in range(col + 1, n):
            if work[r][col]:
                factor = work[r][col] / piv
                for c in range(col, n):
                    work[r][c] = work[r][c] - factor * work[col][c]
    return result if sign == 1 else -result


# -- inputs ----------------------------------------------------------------------

_DENOMS = st.sampled_from([1, 1, 1, 2, 3, 4, 6, 9, 35])
_PARTS = st.one_of(st.integers(-4, 4), st.integers(-(2**40), 2**40))
SCALARS = st.builds(
    lambda a, p, b, q: GaussianRational(Fraction(a, p), Fraction(b, q)), _PARTS, _DENOMS, _PARTS, _DENOMS
)


def _combine(rows, picks):
    out = {}
    for idx, coeff in picks:
        for c, v in rows[idx].items():
            cur = out.get(c, ZERO) + coeff * v
            if cur:
                out[c] = cur
            else:
                out.pop(c, None)
    return out


@st.composite
def systems(draw, max_cols=9, max_rows=8):
    """(ncols, rows): sparse Q(i) rows plus duplicates and combinations of them."""
    ncols = draw(st.integers(1, max_cols))
    rows = draw(
        st.lists(st.dictionaries(st.integers(0, ncols - 1), SCALARS, max_size=ncols), max_size=max_rows)
    )
    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        idx = st.integers(0, len(rows) - 1)
        picks = draw(st.lists(st.tuples(idx, SCALARS), min_size=1, max_size=3))
        rows.insert(draw(st.integers(0, len(rows))), _combine(rows, picks))
    return ncols, rows


def _dense(ncols, rows):
    return [[row.get(c, ZERO) for c in range(ncols)] for row in rows]


# -- the engine against the oracle -------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(systems())
def test_engine_matches_the_fraction_oracle(system):
    ncols, rows = system
    ech, oracle = Echelon(ncols), _FractionEchelon(ncols)
    for row in rows:
        before = ech.rank()
        grew = ech.add(row)
        oracle.add(row)
        assert grew == (ech.rank() > before)
    assert ech.rank() == len(oracle.pivot_rows)
    assert ech.pivot_columns() == sorted(oracle.pivot_rows)
    assert ech.basis() == oracle.basis()
    for row in ech._pivots.values():
        assert gcd(*[x for pair in row.values() for x in pair]) == 1
    assert ech.kernel_vectors() == oracle.kernel_vectors()


@settings(max_examples=120, deadline=None)
@given(systems())
def test_row_entry_points_match_the_fraction_oracle(system):
    ncols, rows = system
    oracle = _FractionEchelon(ncols)
    for row in rows:
        oracle.add(row)
    assert rank_of_rows(ncols, rows) == len(oracle.pivot_rows)
    assert kernel_from_rows(ncols, rows) == oracle.kernel_vectors()
    vectors = _dense(ncols, rows)
    assert Subspace(ncols, vectors).basis == oracle.basis()
    if rows:
        m = ExactMatrix(vectors)
        assert rank(m) == len(oracle.pivot_rows)
        assert kernel_from_rows(m.cols, [dict(enumerate(v)) for v in vectors]) == oracle.kernel_vectors()


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 6), st.data())
def test_inverse_and_det_match_the_fraction_oracle(n, data):
    entries = [data.draw(st.lists(SCALARS, min_size=n, max_size=n)) for _ in range(n)]
    if n > 1 and data.draw(st.booleans()):
        # a singular matrix: one row is a combination of the others
        picks = data.draw(st.lists(st.tuples(st.integers(1, n - 1), SCALARS), min_size=1, max_size=2))
        entries[0] = [sum((coeff * entries[i][c] for i, coeff in picks), ZERO) for c in range(n)]
    if data.draw(st.booleans()):
        # sparse: zero pivots force row swaps
        entries = [[v if data.draw(st.booleans()) else ZERO for v in row] for row in entries]
    m = ExactMatrix(entries)
    expected_det = _oracle_det(m)
    assert det(m) == expected_det
    expected = _oracle_solve(m, ExactMatrix.identity(n))
    assert (expected is None) == (expected_det == ZERO)
    if expected is None:
        with pytest.raises(SingularMatrixError):
            inverse(m)
    else:
        assert inverse(m) == expected


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 6), st.data())
def test_leading_minors_match_the_fraction_oracle(n, data):
    entries = [data.draw(st.lists(SCALARS | st.just(ZERO), min_size=n, max_size=n)) for _ in range(n)]
    m = ExactMatrix(entries)
    dets = [_oracle_det(ExactMatrix([row[:k] for row in entries[:k]])) for k in range(1, n + 1)]
    # one pass without row exchanges: it ends after the first zero minor
    stop = next((k for k, d in enumerate(dets, 1) if not d), n)
    assert list(leading_minors(m)) == dets[:stop]


def test_det_swaps_rows_and_clears_row_denominators():
    m = ExactMatrix([[0, 1, 2], [Fraction(1, 2), 0, GaussianRational(0, 1)], [3, Fraction(2, 3), 0]])
    assert det(m) == _oracle_det(m)
    assert det(m) == GaussianRational(Fraction(2, 3), 3)
    assert det(ExactMatrix([[GaussianRational(0, Fraction(1, 3))]])) == GaussianRational(0, Fraction(1, 3))
    assert det(ExactMatrix([[1, 2], [2, 4]])) == ZERO


# -- the deformation systems ------------------------------------------------------


CATALOG = [
    "abelian(4)",
    "centro1_model(1)",
    "centro1_model(2)",
    "complex_heisenberg_bicomplex",
    "dim4_model",
    "iwasawa_e_frame",
    "iwasawa_j3",
]
PAIRS = [*CATALOG, *(f"random_two_step-{seed}" for seed in range(3))]


@functools.cache
def _pair(label: str):
    """The (g, acs) input named label, built on first use, so a broken construction fails this test only."""
    if label in CATALOG:
        entry = catalog(label)
        return entry.algebra, entry.acs
    return random_two_step(random.Random(int(label.rpartition("-")[2])))[:2]


@pytest.mark.parametrize("label", PAIRS)
def test_deformation_systems_match_the_fraction_oracle(label):
    g, acs = _pair(label)
    n = g.dim
    rows = oracle_equation_rows(g, acs)
    oracle = _FractionEchelon(n * n)
    for row in rows:
        oracle.add(row)
    assert kernel_from_rows(n * n, rows) == oracle.kernel_vectors()
    assert rank_of_rows(n * n, rows) == len(oracle.pivot_rows)
