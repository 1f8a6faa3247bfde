"""Differential tests for the flatness predicates and deformation rows on numerators.

``acs._ad_j_basis``, ``acs._add_j_image``, ``nijenhuis``, ``is_chern_flat``
(b), ``is_qk_chern_flat`` (3), ``deform._equation_rows`` and
``deform._checked_rows`` run on Gaussian-integer numerators: the signed
views over the common denominator D of the table (``LieAlgebra.numerators``)
and the nonzero entries of J over d_J (``AlmostComplexStructure.numerators``).
Their earlier versions in GaussianRational arithmetic are kept below as the
oracle; they read the table and J through ``helpers.oracle_signed_views``
and ``helpers.oracle_j_entries``, built from ``g.brackets`` and ``acs.j``.
The predicates must give the oracle's verdicts and witnesses, the Nijenhuis
values entry by entry, and the same AssertionError on an inconsistent input;
each deformation row must be d_J (anticommutation) or D (bracket) times the
oracle's row of the same kept index (``deform._kept_indices``), key for
key, and on a flat pair the kept rows must have the full system's kernel.
"""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from chernflat.acs import (
    AlmostComplexStructure,
    Verdict,
    _ad_j_basis,
    _sector_scan,
    is_chern_flat,
    is_qk_chern_flat,
    nijenhuis,
    split,
)
from chernflat.constructions import catalog, complexification, random_two_step
from chernflat.deform import _checked_rows, _equation_rows, _inner_vectors, _kept_indices, deformation_space
from chernflat.forms import coframe_element, exterior_d
from chernflat.lie import JacobiError, LieAlgebra, is_two_step
from chernflat.linalg import ExactMatrix, NumeratorRow, inverse, kernel_from_rows
from chernflat.scalars import GaussianRational, ZERO, accumulate, clear_denominators

from helpers import (
    oracle_j_entries,
    oracle_signed_views,
    random_doubled_pair,
    random_two_step_real_algebra,
    transported_pair,
)


# -- oracle: the predicates and rows in GaussianRational arithmetic ---------------


def _oracle_ad_j(g, acs):
    """[i][j] is [J e_i, e_j], as a sparse dict of GaussianRationals, by the ad sweep."""
    return [g._ad_columns(acs.j.column(i)) for i in range(g.dim)]


def _oracle_add_j_image(acc, by_col, vec):
    for k, x in vec.items():
        for r, y in by_col[k]:
            accumulate(acc, r, y * x)
    return acc


def _oracle_nijenhuis(s):
    g, acs = s.g, s.acs
    n = g.dim
    full = oracle_signed_views(g)[0]
    by_col = oracle_j_entries(acs)[1]
    ad_j = _oracle_ad_j(g, acs)
    values = {}
    for i in range(n):
        for j in range(i + 1, n):
            term: dict = {}
            for k, c in by_col[j]:
                for r, x in ad_j[i][k].items():
                    accumulate(term, r, c * x)
            for k, c in full[i][j].items():
                accumulate(term, k, -c)
            _oracle_add_j_image(term, by_col, ad_j[j][i])
            _oracle_add_j_image(term, by_col, {r: -x for r, x in ad_j[i][j].items()})
            if term:
                values[(i, j)] = tuple(term.get(r, ZERO) for r in range(n))
    if _sector_scan(s)[2] == (not values):
        raise AssertionError("Nijenhuis formula and eigenspace criterion disagree")
    return values


def _oracle_is_chern_flat(s):
    g, acs = s.g, s.acs
    mixed = _sector_scan(s)[0]
    verdict_a = Verdict(mixed is None, mixed)
    n = g.dim
    ad_j = _oracle_ad_j(g, acs)
    bad = next(
        ((i, j) for i in range(n) for j in range(i, n) if ad_j[i][j] != {r: -x for r, x in ad_j[j][i].items()}),
        None,
    )
    verdict_b = Verdict(True) if bad is None else Verdict(False, ("basis-pair", *bad))
    if verdict_a.ok != verdict_b.ok:
        raise AssertionError("Chern-flat characterizations disagree; internal inconsistency")
    return verdict_b if not verdict_b.ok else verdict_a


def _oracle_is_qk_chern_flat(s):
    g, acs = s.g, s.acs
    v1 = s.sector_relations_qk()
    v2 = Verdict(True)
    for k in range(s.m):
        d = exterior_d(s, coframe_element(s.m, s.m, k))
        if not d.component(2, 0).is_zero():
            v2 = Verdict(False, ("coframe-d-20", k))
            break
        if not d.component(1, 1).is_zero():
            v2 = Verdict(False, ("coframe-d-11", k))
            break
    n = g.dim
    full = oracle_signed_views(g)[0]
    by_col = oracle_j_entries(acs)[1]
    ad_j = _oracle_ad_j(g, acs)
    bad = next(
        ((i, j) for i in range(n) for j in range(n) if _oracle_add_j_image(dict(ad_j[i][j]), by_col, full[i][j])),
        None,
    )
    v3 = Verdict(True) if bad is None else Verdict(False, ("basis-pair", *bad))
    if not (v1.ok == v2.ok == v3.ok):
        raise AssertionError("quasi-Kaehler Chern-flat characterizations disagree")
    for v in (v1, v2, v3):
        if not v.ok:
            return v
    return Verdict(True)


def _oracle_anticommutation_rows(acs, columns=None):
    """The nonzero rows (a, b), row-major; only b in columns when it is given."""
    n = acs.dim
    by_row, by_col = oracle_j_entries(acs)
    for a in range(n):
        for b in range(n) if columns is None else sorted(columns):
            row: dict = {}
            for c, v in by_col[b]:
                accumulate(row, a * n + c, v)
            for c, v in by_row[a]:
                accumulate(row, c * n + b, v)
            if row:
                yield row


def _oracle_bracket_rows(g, pairs=None):
    """The nonzero rows (i, j, k), i != j, row-major; only (i, j) in pairs when it is given."""
    n = g.dim
    full, into = oracle_signed_views(g)
    for i in range(n):
        for jdx in range(n):
            if i == jdx or (pairs is not None and (i, jdx) not in pairs):
                continue
            bij = full[i][jdx]
            for k in range(n):
                ck = into[jdx][k]
                if not bij and not ck:
                    continue
                row: dict = {}
                for c, v in bij.items():
                    accumulate(row, k * n + c, v)
                for r, v in ck.items():
                    accumulate(row, r * n + i, v)
                if row:
                    yield row


def _oracle_checked_rows(rows, vectors):
    by_key: dict = {}
    for t, vec in enumerate(vectors):
        _, re, im = clear_denominators(vec.values())
        for key, u, v in zip(vec, re, im):
            by_key.setdefault(key, []).append((t, u, v))
    for row in rows:
        _, re, im = clear_denominators(row.values())
        acc_re = [0] * len(vectors)
        acc_im = [0] * len(vectors)
        for key, x, y in zip(row, re, im):
            for t, u, v in by_key.get(key, ()):
                acc_re[t] += x * u - y * v
                acc_im[t] += x * v + y * u
        if any(acc_re) or any(acc_im):
            raise AssertionError("inner derivation fails the deformation equations")
        yield row


# -- inputs -----------------------------------------------------------------------


@functools.cache
def _base_pairs() -> list:
    """The (label, g, acs) inputs the strategies draw from, built on first use and kept.

    Nothing is built at import, so a defect that breaks construction fails
    the tests that draw from them, not the collection.
    """
    out = []
    for name in ["iwasawa_j3", "dim4_model", "complex_heisenberg_bicomplex", "heisenberg3", "abelian(4)"]:
        entry = catalog(name)
        if entry.acs is not None:
            out.append((name, entry.algebra, entry.acs))
    for seed in range(3):
        out.append((f"two-step-{seed}", *random_two_step(random.Random(seed), max_generators=3, max_center=1)))
        out.append((f"doubled-{seed}", *random_doubled_pair(random.Random(seed), max_dim=4)))
        # integrable and, unless abelian, not quasi-Kaehler
        out.append((f"complexified-{seed}", *complexification(random_two_step_real_algebra(random.Random(seed), 4))))
    return [(label, g, acs) for label, g, acs in out if g.dim <= 8]


_unit = st.sampled_from([-1, 0, 1])
_scale = st.sampled_from([Fraction(1, 2), Fraction(-1, 3), Fraction(2, 3), Fraction(-3, 2), 1, -1])
_delta = st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool)


def _tampered(g, where, delta):
    """g with delta added to one table entry (i, j, k), or None if that breaks Jacobi."""
    entries = [(pair, k) for pair, vec in g.brackets.items() for k in vec]
    if not entries:
        return None
    pair, k = entries[where % len(entries)]
    table = {p: dict(vec) for p, vec in g.brackets.items()}
    table[pair][k] = table[pair][k] + delta
    try:
        return LieAlgebra(g.dim, table)
    except JacobiError:
        return None


@st.composite
def pairs(draw):
    """(kind, g, J): a base pair, then one of five changes; dense ones up to dimension 6."""
    kind = draw(st.sampled_from(["base", "dense-j", "dense-pair", "shear-j", "shear-pair", "tampered"]))
    base = _base_pairs()
    label, g, acs = draw(st.sampled_from([b for b in base if b[1].dim <= 6] if kind.startswith("dense") else base))
    n = g.dim
    if kind in ("dense-j", "dense-pair"):
        # L D U: unit triangular L and U with entries in {-1, 0, 1}, and a
        # rational diagonal D, so P is invertible and P^-1 stays small
        low, up = ([[draw(_unit) if c < r else int(c == r) for c in range(n)] for r in range(n)] for _ in "lu")
        diag = draw(st.lists(_scale, min_size=n, max_size=n))
        p = ExactMatrix(low) * ExactMatrix([[diag[r] if c == r else 0 for c in range(n)] for r in range(n)])
        p = p * ExactMatrix(up).transpose()
    elif kind in ("shear-j", "shear-pair"):
        a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
        rows[a][b] = draw(_delta)
        p = ExactMatrix(rows)
    if kind.endswith("-j"):
        return kind, g, AlmostComplexStructure(p * acs.j * inverse(p))
    if kind.endswith("-pair"):
        return kind, *transported_pair(g, acs, p)
    if kind == "tampered":
        h = _tampered(g, draw(st.integers(0, 100)), draw(_delta))
        assume(h is not None)
        return kind, h, acs
    return kind, g, acs


def _from_numerators(vec: dict, scale: int) -> dict:
    return {k: GaussianRational(Fraction(x, scale), Fraction(y, scale)) for k, (x, y) in vec.items()}


def _outcome(fn, *args):
    """fn(*args), or the type and text of the AssertionError it raises."""
    try:
        return fn(*args)
    except AssertionError as exc:
        return ("AssertionError", str(exc))


# -- tests ------------------------------------------------------------------------


def test_inputs_cover_every_kind_of_pair():
    base = _base_pairs()
    assert any(nijenhuis(split(g, acs)) == {} and not is_qk_chern_flat(split(g, acs)) for _, g, acs in base)
    assert any(is_qk_chern_flat(split(g, acs)) for _, g, acs in base)
    # a rational shear of J alone gives d_J > 1 and breaks flatness and
    # integrability; carried with the table, it keeps the pair flat with D > 1
    _, g, acs = base[0]
    n = g.dim
    p = ExactMatrix([[Fraction(1, 3) if (r, c) == (0, 1) else int(r == c) for c in range(n)] for r in range(n)])
    j = AlmostComplexStructure(p * acs.j * inverse(p))
    assert j.numerators()[0] == 3
    assert is_chern_flat(split(g, j)) == Verdict(False, ("basis-pair", 1, 1))
    assert nijenhuis(split(g, j))
    h, j = transported_pair(g, acs, p)
    assert j.numerators()[0] == 3 and h.numerators()[0] == 3
    assert is_qk_chern_flat(split(h, j))


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(case=pairs())
def test_predicates_match_the_gaussian_rational_oracle(case):
    kind, g, acs = case
    # a fresh splitting per side: the verdicts and the ad_J columns are kept on it
    assert _outcome(nijenhuis, split(g, acs)) == _outcome(_oracle_nijenhuis, split(g, acs))
    assert _outcome(is_chern_flat, split(g, acs)) == _outcome(_oracle_is_chern_flat, split(g, acs))
    assert _outcome(is_qk_chern_flat, split(g, acs)) == _outcome(_oracle_is_qk_chern_flat, split(g, acs))


def _assert_numerator_views(g):
    """g.numerators() is D times the oracle's signed views, place for place and in the same key order."""
    denom, full, into = g.numerators()
    views = oracle_signed_views(g)
    for num_view, view in ((full, views[0]), (into, views[1])):
        for num_row, row in zip(num_view, view):
            for num_vec, vec in zip(num_row, row):
                assert list(num_vec) == list(vec)
                assert _from_numerators(num_vec, denom) == vec
                assert all(type(x) is int and type(y) is int for x, y in num_vec.values())


def test_numerator_views_of_complex_tables():
    # nonzero imaginary parts of both signs, so a sign slip in either part of
    # the negated half of a view shows
    q = Fraction
    tables = [
        {(0, 1): {4: GaussianRational(q(1, 2), 3)}, (0, 2): {4: GaussianRational(0, q(-1, 5))},
         (2, 3): {4: GaussianRational(q(-2, 3), -1)}, (1, 3): {4: GaussianRational(q(3, 4), q(5, 6))}},
    ]
    s = split(*random_two_step(random.Random(1)))
    tables.append(s.constants)
    for table in tables:
        g = LieAlgebra(max(k for vec in table.values() for k in vec) + 1, table, field="Qi")
        assert any(c.im for vec in g.brackets.values() for c in vec.values())
        _assert_numerator_views(g)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(case=pairs())
def test_numerator_views_and_ad_j_columns_scale_the_oracle(case):
    _, g, acs = case
    _assert_numerator_views(g)
    denom = g.numerators()[0]
    d_j, by_row, by_col = acs.numerators()
    for num, exact in zip((by_row, by_col), oracle_j_entries(acs)):
        assert [[(c, Fraction(v, d_j)) for c, v in row] for row in num] == [[(c, x.re) for c, x in row] for row in exact]
    scale = d_j * denom
    ad_j = _ad_j_basis(split(g, acs))
    oracle = _oracle_ad_j(g, acs)
    for i in range(g.dim):
        for j in range(g.dim):
            assert _from_numerators(ad_j[i][j], scale) == oracle[i][j]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(case=pairs())
def test_deformation_rows_scale_the_oracle_rows(case):
    _, g, acs = case
    n = g.dim
    s = split(g, acs)
    columns, pairs = _kept_indices(s)
    rows = list(_equation_rows(s))
    anti = list(_oracle_anticommutation_rows(acs, columns))
    oracle = anti + list(_oracle_bracket_rows(g, set(pairs)))
    assert len(rows) == len(oracle)
    d_j, denom = acs.numerators()[0], g.numerators()[0]
    for t, (row, old) in enumerate(zip(rows, oracle)):
        scale = d_j if t < len(anti) else denom
        assert type(row) is NumeratorRow
        assert list(row) == list(old)
        assert _from_numerators(row, scale) == old
    assert kernel_from_rows(n * n, rows) == kernel_from_rows(n * n, oracle)
    if is_qk_chern_flat(s) and is_two_step(g):
        # on a flat pair the kept rows span the full system
        whole = list(_oracle_anticommutation_rows(acs)) + list(_oracle_bracket_rows(g))
        vectors = _inner_vectors(g)
        assert list(_checked_rows(rows, vectors)) == rows
        assert list(_oracle_checked_rows(whole, vectors)) == whole
        assert deformation_space(s).kernel == tuple(kernel_from_rows(n * n, whole))


def test_a_disagreeing_eigenspace_side_raises_in_both(monkeypatch):
    # a non-integrable pair whose sector scan claims no torsion
    _, g, acs = next((label, g, acs) for label, g, acs in _base_pairs() if nijenhuis(split(g, acs)))
    for fn in (nijenhuis, _oracle_nijenhuis):
        s = split(g, acs)
        s._sectors = (None, None, False)
        with pytest.raises(AssertionError, match="Nijenhuis formula and eigenspace criterion disagree"):
            fn(s)
    # a Chern-flat pair whose sector scan reports a mixed bracket
    _, g, acs = next((label, g, acs) for label, g, acs in _base_pairs() if is_chern_flat(split(g, acs)))
    for fn in (is_chern_flat, _oracle_is_chern_flat):
        s = split(g, acs)
        s._sectors = (("mixed-bracket", 0, 0), None, False)
        with pytest.raises(AssertionError, match="Chern-flat characterizations disagree"):
            fn(s)
