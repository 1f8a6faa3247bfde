"""AdaptedConstants as the one holomorphic-constants type.

Properties of reframing and of the normal forms on random constants tables,
and a count of how often a normal-form run builds and checks the constants.
"""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from chernflat import acs, cli
from chernflat.acs import AdaptedConstants, reframed_constants, split
from chernflat.classify import (
    NormalFormError,
    center_one_normal_form,
    dim4_normal_form,
    fingerprint,
    normal_form,
    random_frame_scramble,
)
from chernflat.constructions import catalog, from_holomorphic_constants
from chernflat.fileio import dump_model
from chernflat.linalg import ExactMatrix, random_invertible
from chernflat.scalars import GaussianRational

_small = st.integers(-2, 2)


@st.composite
def two_step_constants(draw, m=None, central=None):
    """Constants of p generators bracketing onto q central directions, m = p + q.

    Rows (r, k) with r central are zero, so every closure sum vanishes.
    """
    m = m if m is not None else draw(st.integers(2, 5))
    q = central if central is not None else draw(st.integers(1, m - 1))
    p = m - q
    table = {}
    for i in range(p):
        for j in range(i + 1, p):
            row = {k: GaussianRational(draw(_small), draw(_small)) for k in range(p, m)}
            table[(i, j)] = row
    return AdaptedConstants(m, table)


def _frame(data, m) -> ExactMatrix:
    seed = data.draw(st.integers(0, 2**32 - 1), label="frame seed")
    return random_invertible(m, random.Random(seed), complex_entries=True, span=2)


def _outcome(reduce, c):
    """The constants a normal form reaches, or the message of its NormalFormError."""
    try:
        return reduce(c).constants
    except NormalFormError as exc:
        return str(exc)


@settings(max_examples=40, deadline=None)
@given(two_step_constants())
def test_reframing_by_the_identity_changes_nothing(c):
    assert reframed_constants(c, ExactMatrix.identity(c.m)) == c


@settings(max_examples=40, deadline=None)
@given(two_step_constants(), st.data())
def test_reframing_twice_is_reframing_by_the_product(c, data):
    f, g = _frame(data, c.m), _frame(data, c.m)
    assert reframed_constants(reframed_constants(c, f), g) == reframed_constants(c, f * g)


@settings(max_examples=40, deadline=None)
@given(two_step_constants(), st.data())
def test_a_reframed_table_passes_the_closure_check(c, data):
    reframed = reframed_constants(c, _frame(data, c.m))
    assert AdaptedConstants(c.m, reframed.table()) == reframed


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 2).flatmap(lambda q: two_step_constants(4, q)), st.data())
def test_dim4_normal_form_is_frame_independent(c, data):
    before = _outcome(dim4_normal_form, c)
    assert _outcome(dim4_normal_form, reframed_constants(c, _frame(data, 4))) == before


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([3, 5]).flatmap(lambda m: two_step_constants(m, 1)), st.data())
def test_center_one_normal_form_is_frame_independent(c, data):
    before = _outcome(center_one_normal_form, c)
    assert _outcome(center_one_normal_form, reframed_constants(c, _frame(data, c.m))) == before


@settings(max_examples=10, deadline=None)
@given(two_step_constants(), st.integers(0, 2**32 - 1))
def test_fingerprint_is_unchanged_by_a_frame_scramble(c, seed):
    g, j = from_holomorphic_constants(c.m, c.table())
    g2, j2, _frame = random_frame_scramble(split(g, j), random.Random(seed))
    assert fingerprint(g2, j2) == fingerprint(g, j)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([(3, 1), (4, 1), (4, 2), (5, 1)]).flatmap(lambda mq: two_step_constants(*mq)))
def test_normal_forms_are_idempotent(c):
    g, j = from_holomorphic_constants(c.m, c.table())
    try:
        result = normal_form(split(g, j))
    except NormalFormError:
        assume(False)
    # rebuild the pair from the normal-form constants and reduce it again
    again = normal_form(split(*from_holomorphic_constants(c.m, result.constants)))
    assert (again.constants, again.kind) == (result.constants, result.kind)


@pytest.mark.parametrize("name", ["dim4_model", "centro1_model(1)"])
@pytest.mark.parametrize("trials", [0, 2])
def test_normal_form_builds_and_checks_the_constants_once_per_splitting(monkeypatch, tmp_path, capsys, name, trials):
    entry = catalog(name)
    path = tmp_path / "model.json"
    dump_model(str(path), entry.algebra, entry.acs)
    counts = {"closure": 0, "build": 0, "split": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(acs, "_closure_defect", counting("closure", acs._closure_defect))
    monkeypatch.setattr(AdaptedConstants, "__init__", counting("build", AdaptedConstants.__init__))
    monkeypatch.setattr(acs.ComplexSplitting, "__init__", counting("split", acs.ComplexSplitting.__init__))
    assert cli.main(["normal-form", str(path), "--trials", str(trials), "--seed", "3"]) == 0
    capsys.readouterr()
    # the input and each trial's rebuilt copy are split, and each splitting
    # builds its constants, closure check included, exactly once
    assert counts == {"closure": 1 + trials, "build": 1 + trials, "split": 1 + trials}
