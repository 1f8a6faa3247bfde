"""Differential tests for the sparse bracket tables.

``LieAlgebra._ad_columns`` returns sparse columns, ``Subspace`` takes sparse
rows, and ``AdaptedConstants`` keeps its table as sparse dicts, reframed by
``acs._change_basis``, with Gaussian-integer numerator views that
``acs._closure_defect`` reads.  The dense ``reframed_constants`` those
replaced is kept below as an oracle, and the dense closure check
(``helpers.oracle_closure_defect``) is the other: they read dense m-tuples
and loop over every index.  The reframed tables, the first closure witness
and the ``ValueError`` text must be the same on both sides, also on wide
numerators.
"""

import functools
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from chernflat.acs import AdaptedConstants, _closure_defect, reframed_constants, split
from chernflat.constructions import catalog, random_two_step
from chernflat.lie import LieAlgebra, Subspace
from chernflat.linalg import ExactMatrix, NumeratorRow, inverse, random_invertible
from chernflat.scalars import GaussianRational, ONE, ZERO, gaussian

from helpers import CONJUGATE_AND_ORDER_TABLE, oracle_closure_defect, tampered_table, unchecked_constants

_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)
# mixed signs in both parts, zero included
_gaussians = st.builds(GaussianRational, _fractions, _fractions)
_nonzero = _gaussians.filter(bool)


# -- oracles: the dense layout and loops of the replaced code ---------------------


def _dense(m: int, table: dict) -> tuple:
    """(rows, full): the nonzero rows as m-tuples in table order, and the signed lookup."""
    zero_row = tuple([ZERO] * m)
    rows = {}
    for key, row in table.items():
        vec = tuple(gaussian(row.get(k, 0)) for k in range(m))
        if any(vec):
            rows[key] = vec
    full = [[zero_row] * m for _ in range(m)]
    for (i, j), vec in rows.items():
        full[i][j] = vec
        full[j][i] = tuple(-c for c in vec)
    return rows, full


def _oracle_reframed(m: int, table: dict, frame: ExactMatrix) -> dict:
    """The reframed constants as {(i, j): {k: coeff}}, rows in ascending (i, j)."""
    _, rows = _dense(m, table)
    g_inv = inverse(frame.conj())
    cols = [[frame.entry(a, i) for a in range(m)] for i in range(m)]
    out = {}
    for i in range(m):
        col_i = cols[i]
        for j in range(i + 1, m):
            col_j = cols[j]
            tmp = [ZERO] * m
            for a in range(m):
                fa = col_i[a]
                if not fa:
                    continue
                row_a = rows[a]
                for b in range(m):
                    if a == b:
                        continue
                    fb = col_j[b]
                    if not fb:
                        continue
                    cab = row_a[b]
                    coeff = fa * fb
                    for k in range(m):
                        if cab[k]:
                            tmp[k] = tmp[k] + coeff * cab[k]
            vec = [ZERO] * m
            for l in range(m):
                acc = ZERO
                for k in range(m):
                    if tmp[k]:
                        acc = acc + g_inv.entry(l, k) * tmp[k]
                vec[l] = acc
            if any(vec):
                out[(i, j)] = {k: c for k, c in enumerate(vec) if c}
    return out


def _closure_message(bad) -> str:
    return (
        "constants violate the quadratic closure relations at "
        f"(i, j, k, l) = {bad}; no Lie algebra has this adapted table"
    )


# -- inputs -----------------------------------------------------------------------


# numerators of 40 to 64 bits over small denominators, both signs, real or not
_wide = st.builds(lambda sign, n, d: Fraction(sign * n, d), st.sampled_from([1, -1]), st.integers(2**40, 2**64), st.integers(1, 7))
_wide_gaussians = st.one_of(st.builds(GaussianRational, _wide, _wide), st.builds(GaussianRational, _wide))


@st.composite
def two_step_tables(draw, coefficients=_gaussians):
    """(m, table): p generators bracketing onto q central directions, m = p + q <= 5.

    Rows (r, k) with r central are zero, so every closure sum vanishes.  The
    rows come in a drawn order and may hold zero coefficients or be empty.
    """
    m = draw(st.integers(2, 5))
    q = draw(st.integers(1, m - 1))
    p = m - q
    pairs = draw(st.permutations([(i, j) for i in range(p) for j in range(i + 1, p)]))
    table = {pair: draw(st.dictionaries(st.integers(p, m - 1), coefficients, max_size=q)) for pair in pairs}
    return m, table


@st.composite
def frames(draw, m: int) -> ExactMatrix:
    """An invertible frame: a sparse shear, or L D U with drawn dense factors."""

    def matrix(entry) -> ExactMatrix:
        return ExactMatrix([[entry(r, c) for c in range(m)] for r in range(m)])

    if draw(st.booleans()):
        a, b = draw(st.permutations(range(m)))[:2]
        return matrix(lambda r, c: draw(_nonzero) if (r, c) == (a, b) else ONE if r == c else ZERO)
    lower = matrix(lambda r, c: draw(_gaussians) if r > c else ONE if r == c else ZERO)
    diagonal = matrix(lambda r, c: draw(_nonzero) if r == c else ZERO)
    upper = matrix(lambda r, c: draw(_gaussians) if r < c else ONE if r == c else ZERO)
    return lower * diagonal * upper


def _assert_sparse(c: AdaptedConstants):
    """No zero coefficient and no empty row; every row's keys ascend in range; the views are the rows.

    full[a][b] holds D c_ab^k for every ordered pair, signed, and into[b][k]
    holds D c_ab^k at a, both on ints with keys ascending and no (0, 0).
    """
    for row in c._rows.values():
        assert row and all(row.values())
        assert list(row) == sorted(row) and all(0 <= k < c.m for k in row)
    d, full, into = c._numerators
    assert d == lcm(*(z.denominator for row in c._rows.values() for x in row.values() for z in (x.re, x.im)))
    for a in range(c.m):
        for b in range(c.m):
            row = c._rows.get((a, b), {}) if a < b else {k: -x for k, x in c._rows.get((b, a), {}).items()}
            assert list(full[a][b].items()) == [(k, ((x * d).re, (x * d).im)) for k, x in row.items()]
            assert all(type(u) is int and type(v) is int for u, v in full[a][b].values())
            assert list(into[a][b].items()) == [(i, full[i][a][b]) for i in range(c.m) if b in full[i][a]]


# -- closure relations ------------------------------------------------------------


def _closure_outcome(m: int, table: dict):
    try:
        AdaptedConstants(m, table)
    except ValueError as exc:
        return str(exc)
    return None


def _numerator_bits(c: AdaptedConstants) -> int:
    return max((abs(t).bit_length() for col in c._numerators[1] for row in col for z in row.values() for t in z), default=0)


@pytest.mark.parametrize("scale", [ONE, GaussianRational(Fraction(-(2**45) - 1, 3))], ids=["unit", "wide"])
def test_the_closure_check_takes_the_conjugate_and_the_least_l(scale):
    m, table = CONJUGATE_AND_ORDER_TABLE
    table = {pair: {k: scale * x for k, x in row.items()} for pair, row in table.items()}
    c = unchecked_constants(m, table)
    assert _numerator_bits(c) >= (40 if scale != ONE else 1)
    assert _closure_defect(c) == oracle_closure_defect(m, table) == (2, 4, 1, 2)
    assert _closure_outcome(m, table) == _closure_message((2, 4, 1, 2))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_first_closure_witness_matches_the_dense_oracle(data):
    m, table = data.draw(two_step_tables())
    frame = data.draw(frames(m))
    # a dense table in a drawn frame, with one entry tampered
    scrambled = _oracle_reframed(m, table, frame)
    bad_table = tampered_table(m, scrambled, random.Random(data.draw(st.integers(0, 2**32 - 1))))
    bad = oracle_closure_defect(m, bad_table)
    assert _closure_outcome(m, bad_table) == (None if bad is None else _closure_message(bad))


def test_tamperings_break_the_closure_relations_in_many_places():
    # the property above sees failures, at witnesses other than the first row
    table = {(0, 1): {3: GaussianRational(1, 1)}, (0, 2): {4: ONE}, (1, 2): {3: -ONE, 4: GaussianRational(0, 2)}}
    witnesses = set()
    for seed in range(40):
        rng = random.Random(seed)
        # a dense frame for even seeds, a sparse shear for odd ones
        if seed % 2:
            a, b = rng.sample(range(5), 2)
            frame = ExactMatrix([[ONE if r == c else GaussianRational(2, -1) if (r, c) == (a, b) else ZERO for c in range(5)] for r in range(5)])
        else:
            frame = random_invertible(5, rng, complex_entries=True, span=2)
        bad_table = tampered_table(5, _oracle_reframed(5, table, frame), rng)
        bad = oracle_closure_defect(5, bad_table)
        assert _closure_outcome(5, bad_table) == (None if bad is None else _closure_message(bad))
        if bad is not None:
            witnesses.add(bad)
    assert len(witnesses) >= 5
    assert len({w[:2] for w in witnesses}) >= 2 and len({w[3] for w in witnesses}) >= 2


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_the_integer_closure_check_returns_the_oracle_witness_on_wide_tables(data):
    # a valid table of wide numerators in a drawn frame, then with one entry tampered
    m, table = data.draw(two_step_tables(_wide_gaussians))
    moved = _oracle_reframed(m, table, data.draw(frames(m)))
    assert _closure_defect(unchecked_constants(m, moved)) is None is oracle_closure_defect(m, moved)
    bad_table = tampered_table(m, moved, random.Random(data.draw(st.integers(0, 2**32 - 1))))
    c = unchecked_constants(m, bad_table)
    assert _numerator_bits(c) >= 40 or not moved
    assert _closure_defect(c) == oracle_closure_defect(m, bad_table)


def test_holomorphic_constants_of_catalog_models_are_sparse():
    for name in ("iwasawa_j3", "dim4_model", "centro1_model(2)", "abelian(4)"):
        entry = catalog(name)
        c = split(entry.algebra, entry.acs).holomorphic()
        _assert_sparse(c)
        assert c.table() == _oracle_reframed(c.m, c.table(), ExactMatrix.identity(c.m))


# -- reframing --------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_reframing_matches_the_dense_oracle(data):
    m, table = data.draw(two_step_tables())
    frame = data.draw(frames(m))
    c = AdaptedConstants(m, table)
    reframed = reframed_constants(c, frame)
    expected = _oracle_reframed(m, table, frame)
    assert list(reframed.table().items()) == list(expected.items())
    _assert_sparse(reframed)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_reframing_back_cancels_to_the_sparse_table(data):
    # the table in the frame F^-1 is dense; reframing it by F cancels back
    # to the drawn rows, and the rows that were zero must be dropped
    m, table = data.draw(two_step_tables())
    frame = data.draw(frames(m))
    scrambled = _oracle_reframed(m, table, inverse(frame))
    c = AdaptedConstants(m, scrambled)
    back = reframed_constants(c, frame)
    assert back == AdaptedConstants(m, table)
    assert list(back.table().items()) == list(_oracle_reframed(m, scrambled, frame).items())
    _assert_sparse(back)


def test_reframed_rows_keep_ascending_keys():
    # W_4 = Z_4 + Z_1: the image of [Z_1, Z_2] reaches conj Z_1 after conj Z_3
    table = {(0, 1): {2: -2 * ONE, 3: -2 * ONE}}
    frame = ExactMatrix([[ONE if r == c or (r, c) == (0, 3) else ZERO for c in range(4)] for r in range(4)])
    reframed = reframed_constants(AdaptedConstants(4, table), frame)
    assert reframed.table() == _oracle_reframed(4, table, frame)
    assert list(reframed.table()[(0, 1)]) == [0, 2, 3]
    _assert_sparse(reframed)


# -- ad columns -------------------------------------------------------------------


@functools.cache
def _algebras() -> list:
    """The algebras the ad-column tests draw from, built on first use, so a broken construction fails only them."""
    out = [catalog(name).algebra for name in ("heisenberg3", "iwasawa_j3", "centro1_model(1)", "dim5_irreducible")]
    out += [random_two_step(random.Random(seed))[0] for seed in range(3)]
    out.append(LieAlgebra(3, {(0, 1): {1: GaussianRational(1, 1)}, (0, 2): {2: GaussianRational(0, -1)}}, field="Qi"))
    # terms cancel in a column of ad_x: [e_1 + e_2, e_3] = e_2 - e_2 and
    # [e_2 - e_3, e_1] = -e_2 + e_2
    out.append(LieAlgebra(3, {(0, 2): {1: ONE}, (1, 2): {1: -ONE}}))
    out.append(LieAlgebra(3, {(0, 1): {1: ONE}, (0, 2): {1: ONE}}))
    return out



@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ad_columns_are_sparse_and_match_the_dense_bracket(data):
    g = data.draw(st.sampled_from(_algebras()))
    entry = _gaussians if g.field == "Qi" else st.builds(GaussianRational, _fractions)
    x = data.draw(st.lists(entry, min_size=g.dim, max_size=g.dim))
    cols = g._ad_columns(x)
    ad_x = g.ad(x)
    for j, col in enumerate(cols):
        assert all(0 <= k < g.dim for k in col) and all(col.values())
        e_j = [ONE if t == j else ZERO for t in range(g.dim)]
        dense = g.bracket(x, e_j)
        assert col == {k: c for k, c in enumerate(dense) if c}
        assert ad_x.column(j) == dense


def test_ad_columns_drop_cancelled_entries():
    # both halves of the sweep: x_i c_ij into column j, and -x_j c_ij into column i
    g, h = _algebras()[-2:]
    assert g._ad_columns([ONE, ONE, ZERO]) == [{}, {}, {}]
    assert g._ad_columns([ONE, ZERO, ZERO]) == [{}, {}, {1: ONE}]
    assert h._ad_columns([ZERO, ONE, -ONE]) == [{}, {}, {}]
    assert h._ad_columns([ZERO, ONE, ZERO]) == [{1: -ONE}, {}, {}]


# -- Subspace ---------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_subspace_of_sparse_rows_equals_subspace_of_dense_vectors(data):
    n = data.draw(st.integers(1, 6))
    rows = data.draw(st.lists(st.dictionaries(st.integers(0, n - 1), _gaussians, max_size=n), max_size=5))
    dense = [tuple(row.get(k, ZERO) for k in range(n)) for row in rows]
    sparse = Subspace(n, rows)
    assert sparse == Subspace(n, dense)
    mixed = [row if t % 2 else vec for t, (row, vec) in enumerate(zip(rows, dense))]
    assert Subspace(n, mixed) == sparse


@pytest.mark.parametrize("row", [{3: ONE}, {-1: ONE}, {0: ONE, 5: ZERO}], ids=["past-the-end", "negative", "zero-value"])
def test_subspace_rejects_sparse_keys_out_of_range(row):
    with pytest.raises(ValueError, match="out of range"):
        Subspace(3, [{0: ONE}, row])


def test_subspace_still_rejects_dense_vectors_of_the_wrong_length():
    with pytest.raises(ValueError, match="vector length"):
        Subspace(3, [(ONE, ZERO)])
    assert Subspace(2, [{1: Fraction(1, 2)}]).basis == [(ZERO, ONE)]


def test_subspace_takes_a_numerator_row_as_it_is():
    # (1/2 + i, 3) spans the same line as its numerators (1 + 2i, 6) at any scale
    row = NumeratorRow({0: (1, 2), 1: (6, 0)})
    assert Subspace(2, [row]) == Subspace(2, [(GaussianRational(Fraction(1, 2), 1), gaussian(3))])
    assert Subspace(3, [row, {2: ONE}]).dim == 2
    with pytest.raises(ValueError, match="out of range"):
        Subspace(2, [NumeratorRow({2: (1, 0)})])


def _spans(space: Subspace, v) -> bool:
    """Whether v, a vector or sparse row as the constructor takes, lies in the span of space."""
    return Subspace(space.ambient_dim, [*space.basis, v]).dim == space.dim


def test_subspace_contains_takes_the_rows_the_constructor_takes():
    line = Subspace(2, [{0: ONE}])
    # a dict inside the span, with and without an explicit zero value
    assert _spans(line, {0: ONE, 1: ZERO})
    assert _spans(line, {0: Fraction(-3, 2)})
    assert _spans(line, {})
    # a dict outside it
    assert not _spans(line, {1: ONE})
    assert not _spans(line, {0: ONE, 1: GaussianRational(0, 1)})
    # dense vectors still work, and the two spellings agree
    assert _spans(line, (gaussian(2), ZERO)) and not _spans(line, (ONE, ONE))
    plane = Subspace(3, [{0: ONE, 1: ONE}, {2: ONE}])
    for row in ({0: ONE, 1: ONE, 2: gaussian(5)}, {0: ONE}, {2: -ONE}):
        dense = tuple(row.get(k, ZERO) for k in range(3))
        assert _spans(plane, row) == _spans(plane, dense)


@pytest.mark.parametrize("row", [{2: ONE}, {-1: ONE}, {0: ONE, 5: ZERO}], ids=["past-the-end", "negative", "zero-value"])
def test_subspace_contains_rejects_sparse_keys_out_of_range(row):
    with pytest.raises(ValueError, match="out of range"):
        _spans(Subspace(2, [{0: ONE}]), row)
    with pytest.raises(ValueError, match="vector length"):
        _spans(Subspace(2, [{0: ONE}]), (ONE,))
