"""Differential tests for the bracket primitives the flatness predicates share.

``LieAlgebra.ad`` builds every [x, e_j] in one sweep over the sparse bracket
table, and ``LieAlgebra.numerators`` holds that table in every order, D
times over on Gaussian-integer numerators; the dense ``LieAlgebra.bracket``
is the reference of both.  The real-basis characterizations in ``acs`` read
[J e_i, e_j] through ``ad`` and [e_i, e_j] through the views, so they are
compared here with dense basis-pair loops over ``bracket``, kept below as the
oracle, on flat pairs and on pairs whose structure is conjugated out of
flatness.
"""

import inspect
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from chernflat import acs as acs_module, lie as lie_module
from chernflat.acs import (
    AdaptedConstants,
    AlmostComplexStructure,
    ComplexSplitting,
    Verdict,
    check_center_j_invariant,
    is_chern_flat,
    is_qk_chern_flat,
    nijenhuis,
    split,
    two_step_certificate,
)
from chernflat.classify import normal_form, random_frame_scramble
from chernflat.cli import main
from chernflat.constructions import catalog
from chernflat.deform import deformation_space
from chernflat.fileio import dumps_model
from chernflat.forms import coframe_element, exterior_d
from chernflat.lie import LieAlgebra, Subspace, center, lower_central_series
from chernflat.linalg import ExactMatrix, inverse, random_invertible
from chernflat.scalars import GaussianRational, ONE, ZERO, gaussian

from helpers import random_doubled_pair
from oracles import apply_j, basis_bracket, bracket, fingerprint, lie_derivative_direction, matvec, random_two_step

CATALOG = [
    "abelian(4)",
    "centro1_model(1)",
    "centro1_model(2)",
    "complex_heisenberg_bicomplex",
    "dim4_model",
    "dim5_irreducible",
    "heisenberg(5)",
    "heisenberg3",
    "iwasawa_e_frame",
    "iwasawa_j3",
]


def _max_bits(g: LieAlgebra) -> int:
    return max(
        max(abs(f.numerator).bit_length(), f.denominator.bit_length())
        for vec in g.brackets.values()
        for c in vec.values()
        for f in (c.re, c.im)
    )


def _complexified(g: LieAlgebra, acs: AlmostComplexStructure) -> LieAlgebra:
    """The complexified algebra in the eigenframe of (g, J), over Q(i)."""
    s = split(g, acs)
    return LieAlgebra(s.dim, s.constants, field="Qi")


@lru_cache(maxsize=None)
def _algebras() -> tuple:
    out = [catalog(name).algebra for name in CATALOG]
    out += [random_two_step(random.Random(seed))[0] for seed in range(4)]
    center_one = catalog("centro1_model(2)")
    for seed in range(3):
        g, acs, _frame = random_frame_scramble(split(center_one.algebra, center_one.acs), random.Random(seed))
        assert 10 <= _max_bits(g) <= 20
        out.append(g)
    out.append(_complexified(g, acs))
    iwasawa = catalog("iwasawa_j3")
    out.append(_complexified(iwasawa.algebra, iwasawa.acs))
    assert any(g.field == "Qi" for g in out)
    return tuple(out)


_rationals = st.fractions(min_value=-8, max_value=8, max_denominator=6)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ad_columns_match_the_dense_bracket(data):
    g = data.draw(st.sampled_from(_algebras()))
    if g.field == "Qi":
        entry = st.builds(GaussianRational, _rationals, _rationals)
    else:
        entry = st.builds(GaussianRational, _rationals)
    x = data.draw(st.lists(entry, min_size=g.dim, max_size=g.dim))
    ad_x = g.ad(x)
    for j in range(g.dim):
        e_j = [ONE if t == j else ZERO for t in range(g.dim)]
        assert ad_x.column(j) == bracket(g, x, e_j)


def test_ad_rejects_wrong_length():
    with pytest.raises(ValueError):
        catalog("heisenberg3").algebra.ad([ONE, ZERO])


@lru_cache(maxsize=None)
def _structures() -> list:
    """The standard J in dimensions 2..8, and P J P^-1 for dense rational P."""
    out = [AlmostComplexStructure.standard(n) for n in (2, 4, 6, 8)]
    for seed in range(4):
        j = out[seed].j
        p = random_invertible(j.rows, random.Random(3000 + seed), complex_entries=False, span=2)
        out.append(AlmostComplexStructure(p * j * inverse(p)))
    return out



@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sparse_apply_matches_the_dense_matvec(data):
    acs = data.draw(st.sampled_from(_structures()))
    entry = st.builds(GaussianRational, _rationals, _rationals) | st.just(ZERO)
    v = data.draw(st.lists(entry, min_size=acs.dim, max_size=acs.dim))
    assert apply_j(acs, v) == matvec(acs.j, v)
    assert all(type(x) is GaussianRational for x in apply_j(acs, v))
    with pytest.raises(ValueError, match="vector length mismatch"):
        apply_j(acs, v[1:])


# -- oracle: dense basis-pair loops over LieAlgebra.bracket -------------------


def _dense_nijenhuis(s):
    g, acs = s.g, s.acs
    n = g.dim
    values = {}
    for i in range(n):
        ei = [ZERO] * n
        ei[i] = ONE
        jei = apply_j(acs, ei)
        for j in range(i + 1, n):
            ej = [ZERO] * n
            ej[j] = ONE
            jej = apply_j(acs, ej)
            term = bracket(g, jei, jej)
            term = tuple(
                t - b - jc - jd
                for t, b, jc, jd in zip(
                    term,
                    basis_bracket(g, i, j),
                    apply_j(acs, bracket(g, jei, ej)),
                    apply_j(acs, bracket(g, ei, jej)),
                )
            )
            if any(term):
                values[(i, j)] = term
    splitting_zero = all(
        all(k < s.m for k in s.constants.get((a, b), {})) for a in range(s.m) for b in range(a + 1, s.m)
    )
    if splitting_zero != (not values):
        raise AssertionError("Nijenhuis formula and eigenspace criterion disagree")
    return values


def _dense_is_chern_flat(s):
    g, acs = s.g, s.acs
    verdict_a = Verdict(True)
    for a in range(s.m):
        for b in range(s.m):
            if (a, s.m + b) in s.constants:
                verdict_a = Verdict(False, ("mixed-bracket", a, b))
                break
        if not verdict_a:
            break
    verdict_b = Verdict(True)
    n = g.dim
    for i in range(n):
        ei = [ZERO] * n
        ei[i] = ONE
        jei = apply_j(acs, ei)
        for j in range(i, n):
            ej = [ZERO] * n
            ej[j] = ONE
            left = bracket(g, jei, ej)
            right = bracket(g, ei, apply_j(acs, ej))
            if left != right:
                verdict_b = Verdict(False, ("basis-pair", i, j))
                break
        if not verdict_b:
            break
    if verdict_a.ok != verdict_b.ok:
        raise AssertionError("Chern-flat characterizations disagree; internal inconsistency")
    return verdict_b if not verdict_b.ok else verdict_a


def _dense_is_qk_chern_flat(s):
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
    v3 = Verdict(True)
    n = g.dim
    for i in range(n):
        ei = [ZERO] * n
        ei[i] = ONE
        jei = apply_j(acs, ei)
        for j in range(n):
            ej = [ZERO] * n
            ej[j] = ONE
            w = basis_bracket(g, i, j)
            lhs = apply_j(acs, w)
            rhs = tuple(-c for c in bracket(g, jei, ej))
            if lhs != rhs:
                v3 = Verdict(False, ("basis-pair", i, j))
                break
        if not v3:
            break
    if not (v1.ok == v2.ok == v3.ok):
        raise AssertionError("quasi-Kaehler Chern-flat characterizations disagree")
    for v in (v1, v2, v3):
        if not v.ok:
            return v
    return Verdict(True)


def _base_pair(seed: int):
    rng = random.Random(seed)
    kind = seed % 3
    if kind == 0:
        return random_two_step(rng, max_generators=3, max_center=2)
    if kind == 1:
        return random_doubled_pair(rng, max_dim=5)
    entry = catalog(["iwasawa_j3", "dim4_model", "complex_heisenberg_bicomplex", "centro1_model(1)"][seed // 3 % 4])
    return entry.algebra, entry.acs


def _conjugator(n: int, seed: int) -> ExactMatrix:
    """Random invertible rational P: dense for even seeds, one shear for odd.

    A dense P breaks the structure at the first basis pair; a shear
    I + c E_ab breaks it further in, or not at all.
    """
    rng = random.Random(1000 + seed)
    if seed % 2 == 0:
        return random_invertible(n, rng, complex_entries=False, span=1)
    rows = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    a, b = rng.sample(range(n), 2)
    rows[a][b] = GaussianRational(rng.choice([-2, -1, 1, 2]))
    return ExactMatrix(rows)


# each base pair (g, J), then (g, P J P^-1)
PAIRS = [f"seed{seed}-{kind}" for seed in range(12) for kind in ("base", "conjugated")]


@lru_cache(maxsize=None)
def _pair(label: str):
    """The (g, acs) input named label, built on first use and kept.

    Nothing is built at import, so a defect that breaks construction fails
    the tests that use the input, not the collection.
    """
    seed, kind = label.removeprefix("seed").split("-")
    if kind == "base":
        return _base_pair(int(seed))
    g, acs = _pair(f"seed{seed}-base")
    p = _conjugator(g.dim, int(seed))
    return g, AlmostComplexStructure(p * acs.j * inverse(p))


@pytest.mark.parametrize("label", PAIRS)
def test_predicates_match_the_dense_oracle(label):
    g, acs = _pair(label)
    s = split(g, acs)
    assert is_chern_flat(s) == _dense_is_chern_flat(s)
    assert is_qk_chern_flat(s) == _dense_is_qk_chern_flat(s)
    assert nijenhuis(s) == _dense_nijenhuis(s)


def test_real_basis_checks_build_ad_j_once_per_splitting(monkeypatch):
    # the predicates of one verify job, nijenhuis first: it must split before reading
    entry = catalog("iwasawa_j3")
    g, acs = entry.algebra, entry.acs
    s = split(g, acs)
    sweeps, ad_calls = [], []
    basis = acs_module._ad_j_basis

    def counting(split_):
        # the integer sweep runs when the splitting holds no columns yet
        if split_._ad_j is None:
            sweeps.append(split_)
        return basis(split_)

    monkeypatch.setattr(acs_module, "_ad_j_basis", counting)
    sweep = LieAlgebra._ad_columns
    monkeypatch.setattr(LieAlgebra, "_ad_columns", lambda self, x: ad_calls.append(x) or sweep(self, x))
    assert nijenhuis(s) == _dense_nijenhuis(s)
    assert is_chern_flat(s)
    assert is_qk_chern_flat(s)
    assert check_center_j_invariant(s)
    assert sweeps == [s]
    # the GaussianRational ad sweep is no longer read by the real-basis checks
    assert ad_calls == []
    # a second splitting of the same pair sweeps once more, for itself
    t = split(g, acs)
    assert nijenhuis(t) == nijenhuis(s)
    assert is_chern_flat(t)
    assert sweeps == [s, t]


# -- the numerator views of the bracket table ------------------------------------


# every algebra of PAIRS and every catalog algebra, once each
VIEW_ALGEBRAS = [label for label in PAIRS if label.endswith("-base")] + CATALOG
# and two algebras over Q(i) with imaginary parts of both signs
NUMERATOR_VIEW_ALGEBRAS = VIEW_ALGEBRAS + ["qi-central", "two-step-complexified"]


def _qi_central() -> LieAlgebra:
    q = Fraction
    table = {
        (0, 1): {4: GaussianRational(q(1, 2), 3)}, (0, 2): {4: GaussianRational(0, q(-1, 5))},
        (2, 3): {4: GaussianRational(q(-2, 3), -1)}, (1, 3): {4: GaussianRational(q(3, 4), q(5, 6))},
    }
    return LieAlgebra(5, table, field="Qi")


_HALF = GaussianRational(Fraction(1, 2))
# the algebras that are neither a catalog entry nor the first algebra of a pair
_OTHER_ALGEBRAS = {
    "qi-central": _qi_central,
    "two-step-complexified": lambda: _complexified(*random_two_step(random.Random(1))),
    # [e_1, e_2] = e_2: the series stops at span(e_2)
    "affine-line": lambda: LieAlgebra(2, {(0, 1): {1: ONE}}),
    # sl(2): [g, g] = g
    "sl2": lambda: LieAlgebra(3, {(0, 1): {1: 2 * ONE}, (0, 2): {2: -2 * ONE}, (1, 2): {0: ONE}}),
    # e_1 acts on span(e_2, e_3, e_4) with one Jordan block of eigenvalue 1/2, and e_5 is central
    "jordan-block": lambda: LieAlgebra(
        5, {(0, 1): {1: _HALF, 2: ONE}, (0, 2): {2: _HALF, 3: ONE}, (0, 3): {3: _HALF}}
    ),
    "qi-heisenberg": lambda: LieAlgebra(3, {(0, 1): {2: GaussianRational(1, 2)}}, field="Qi"),
    "qi-affine": lambda: LieAlgebra(
        3, {(0, 1): {1: GaussianRational(1, 1)}, (0, 2): {2: GaussianRational(0, -1)}}, field="Qi"
    ),
}


@lru_cache(maxsize=None)
def _algebra(label: str) -> LieAlgebra:
    """The algebra named label, built on first use and kept, like _pair."""
    if label in CATALOG:
        return catalog(label).algebra
    if label in _OTHER_ALGEBRAS:
        return _OTHER_ALGEBRAS[label]()
    return _pair(label)[0]


@pytest.mark.parametrize("label", NUMERATOR_VIEW_ALGEBRAS)
def test_signed_views_match_the_dense_bracket(label):
    g = _algebra(label)
    # the signed views are the numerator views: D times the dense bracket
    denom, full, into = g.numerators()
    n = g.dim
    basis = [[ONE if t == i else ZERO for t in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            dense = bracket(g, basis[i], basis[j])
            assert basis_bracket(g, i, j) == dense
            assert full[i][j] == {k: ((c * denom).re, (c * denom).im) for k, c in enumerate(dense) if c}
            assert all(type(x) is int and type(y) is int for x, y in full[i][j].values())
            assert list(full[i][j]) == sorted(full[i][j])
            for k in range(n):
                assert g.structure_constant(i, j, k) == dense[k]
    for j in range(n):
        for k in range(n):
            assert into[j][k] == {i: full[i][j][k] for i in range(n) if k in full[i][j]}
            assert list(into[j][k]) == sorted(into[j][k])


def test_signed_view_algebras_include_complex_tables():
    fields = {_algebra(label).field for label in NUMERATOR_VIEW_ALGEBRAS}
    assert fields == {"Q", "Qi"}
    for g in map(_algebra, NUMERATOR_VIEW_ALGEBRAS[-2:]):
        assert {c.im > 0 for vec in g.brackets.values() for c in vec.values() if c.im} == {True, False}


def test_signed_views_are_built_once_per_algebra(monkeypatch, capsys, tmp_path):
    # a table's numerator views are built once, clearing its denominators
    # once: g's table when g is constructed, the holomorphic table when
    # s.holomorphic() builds the constants, and every reader of one verify
    # and one deform job shares them; a normal-form trial adds the rebuilt
    # table and its holomorphic table, and no reframed table builds views
    # that nothing reads
    entry = catalog("iwasawa_j3")
    calls = []
    clear = lie_module.clear_denominators
    monkeypatch.setattr(lie_module, "clear_denominators", lambda values: calls.append(1) or clear(values))
    path = tmp_path / "iwasawa.json"
    path.write_text(dumps_model(entry.algebra, entry.acs))
    for argv, builds in (
        (["verify", str(path)], 2),
        (["deform", str(path)], 2),
        (["normal-form", str(path), "--trials", "0"], 2),
        (["normal-form", str(path), "--trials", "2"], 6),
    ):
        assert main(argv) == 0
        assert len(calls) == builds
        calls.clear()
    capsys.readouterr()
    g, acs = LieAlgebra(entry.algebra.dim, entry.algebra.brackets), entry.acs
    s = split(g, acs)
    assert nijenhuis(s) == _dense_nijenhuis(s)
    assert is_chern_flat(s) and is_qk_chern_flat(s)
    assert check_center_j_invariant(s)
    assert two_step_certificate(s) and center(g).dim == 2
    assert deformation_space(s).dimension > 0
    assert g.structure_constant(1, 0, 2) == -g.structure_constant(0, 1, 2) == -ONE
    assert len(calls) == 2
    assert g.numerators() is g.numerators()
    assert s.holomorphic()._numerators is s.holomorphic()._numerators


def test_seeded_pairs_include_failures_of_every_predicate():
    # a pair that is not Chern-flat is not quasi-Kaehler Chern-flat either
    failing = [label for label in PAIRS if not is_chern_flat(split(*_pair(label))) and nijenhuis(split(*_pair(label)))]
    assert len(failing) >= len(PAIRS) // 3


# -- the splitting is the one handle on a pair -------------------------------------


# every question about one pair (g, J), with the parameters it takes besides s
PAIR_QUESTIONS = [
    (nijenhuis, []),
    (is_chern_flat, []),
    (is_qk_chern_flat, []),
    (check_center_j_invariant, []),
    (normal_form, []),
    (fingerprint, []),
    (deformation_space, []),
    (lie_derivative_direction, ["x"]),
]


def test_pair_questions_take_the_splitting_alone():
    for fn, extra in PAIR_QUESTIONS:
        assert list(inspect.signature(fn).parameters) == ["s", *extra], fn.__name__


def test_pair_questions_build_no_further_splitting(monkeypatch):
    # each question reads g and J from the splitting it is handed, so none builds its own
    built = []
    original = ComplexSplitting.__init__

    def counted(self, g, acs):
        built.append(g.dim)
        original(self, g, acs)

    answered = set()
    for name in [label for label in CATALOG if not label.startswith("heisenberg")]:
        entry = catalog(name)
        s = split(entry.algebra, entry.acs)
        x = [ONE] + [ZERO] * (s.dim - 1)
        monkeypatch.setattr(ComplexSplitting, "__init__", counted)
        for fn, extra in PAIR_QUESTIONS:
            try:
                fn(s, *[x for _ in extra])
            except ValueError:
                # a precondition this pair does not meet; NormalFormError is a ValueError
                continue
            answered.add(fn)
        monkeypatch.undo()
        assert built == [], name
    # every question answered on some pair, not only refused
    assert answered == {fn for fn, _ in PAIR_QUESTIONS}


# -- the lower central series ------------------------------------------------------


def _ad_sweep_series(g: LieAlgebra) -> list:
    """The lower central series with every term, [g, g] included, from ad sweeps: the oracle.

    Each term is the span of the columns [v, e_j] of ad_v for v in the basis
    of the term before, starting from the standard basis of g.  Nothing is
    kept on g.
    """
    full = [tuple(gaussian(1) if i == j else ZERO for i in range(g.dim)) for j in range(g.dim)]
    series = [Subspace(g.dim, full)]
    current = series[0]
    while True:
        images = (col for v in current.basis for col in g._ad_columns(v) if col)
        nxt = Subspace(g.dim, images)
        series.append(nxt)
        if nxt.dim == current.dim:
            break
        if nxt.dim == 0:
            break
        current = nxt
    return series


# those of the views, two that are not nilpotent, two over Q(i)
SERIES_ALGEBRAS = VIEW_ALGEBRAS + ["affine-line", "sl2", "jordan-block", "qi-heisenberg", "qi-affine"]


@pytest.mark.parametrize("label", SERIES_ALGEBRAS)
def test_lower_central_series_matches_the_ad_sweep(label):
    g = _algebra(label)
    fresh = LieAlgebra(g.dim, g.brackets, g.field)
    assert lower_central_series(fresh) == _ad_sweep_series(g)


def test_series_test_algebras_include_series_that_stop_at_a_nonzero_term():
    stops = [label for label in SERIES_ALGEBRAS if _ad_sweep_series(_algebra(label))[-1].dim]
    assert stops == ["affine-line", "sl2", "jordan-block", "qi-affine"]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_lower_central_series_matches_the_ad_sweep_on_random_two_step_pairs(seed):
    g, _ = random_two_step(random.Random(seed), max_generators=4, max_center=2)
    series = lower_central_series(g)
    assert series == _ad_sweep_series(g)
    assert len(series) == 3 and series[-1].dim == 0


def test_lower_central_series_reads_no_signed_view(monkeypatch):
    # the closure relations of two_step_certificate come through the views
    g = catalog("centro1_model(1)").algebra
    g = LieAlgebra(g.dim, g.brackets)
    monkeypatch.setattr(LieAlgebra, "numerators", lambda self: pytest.fail("series read the numerator views"))
    assert lower_central_series(g) == _ad_sweep_series(g)


# -- closure relations ----------------------------------------------------------


def test_closure_defect_reports_the_first_failure_in_table_order():
    # [Z_1, Z_3] on conj Z_2 and [Z_1, Z_2] on conj Z_3 break the closure
    # relations at both pairs; the table's own order decides which is named.
    with pytest.raises(ValueError, match=r"\(i, j, k, l\) = \(0, 2, 0, 2\)"):
        AdaptedConstants(3, {(0, 2): {1: ONE}, (0, 1): {2: ONE}})
    with pytest.raises(ValueError, match=r"\(i, j, k, l\) = \(0, 1, 0, 1\)"):
        AdaptedConstants(3, {(0, 1): {2: ONE}, (0, 2): {1: ONE}})
