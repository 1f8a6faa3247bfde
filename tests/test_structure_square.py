"""Differential tests for the one J^2 = -I check of a structure and a model file.

``AlmostComplexStructure`` proves J^2 = -I row by row over the nonzero
entries of J, and ``fileio`` turns its failure into ``error[j-square]``.
The dense product ``j * j == -ExactMatrix.identity(n)`` that both used to
compute is kept below as the oracle, together with the order in which the
constructor and the loader reported their rejections.
"""

import json
import pathlib
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from chernflat.acs import AlmostComplexStructure, JSquareError
from chernflat.fileio import StructureShapeError, StructureSquareError, loads_model, resolve_model
from chernflat.linalg import ExactMatrix, det, inverse
from chernflat.scalars import GaussianRational, format_rational

MODELS = pathlib.Path(__file__).resolve().parent / "golden" / "models"


def _dense_structure_verdict(j: ExactMatrix):
    """(exception type, message) the constructor raises for j, or None: the oracle."""
    if not j.is_square():
        return ValueError, "J must be square"
    if j.rows % 2 != 0:
        return ValueError, "J needs even dimension"
    if not j.is_real():
        return ValueError, "J must have rational entries"
    if j * j != -ExactMatrix.identity(j.rows):
        return JSquareError, "J^2 = -I fails"
    return None


def _dense_load_verdict(j: ExactMatrix):
    """(exception type, message) loading a model with J = j raises, or None: the oracle."""
    if j * j != -ExactMatrix.identity(j.rows):
        return StructureSquareError, "'J' squared is not minus the identity"
    verdict = _dense_structure_verdict(j)
    return verdict and (StructureShapeError, verdict[1])


def _outcome(fn, *args):
    try:
        fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


def _model_text(j: ExactMatrix, zero_spelling: str) -> str:
    n = j.rows
    cells = [[format_rational(j.entry(r, c).re) for c in range(n)] for r in range(n)]
    cells = [[zero_spelling if cell == "0" else cell for cell in row] for row in cells]
    return json.dumps({"dim": n, "field": "Q", "brackets": [], "J": cells})


def _check_against_the_oracles(j: ExactMatrix, zero_spelling: str = "0"):
    assert _outcome(AlmostComplexStructure, j) == _dense_structure_verdict(j)
    assert _outcome(loads_model, _model_text(j, zero_spelling)) == _dense_load_verdict(j)


def _standard(n: int) -> ExactMatrix:
    return AlmostComplexStructure.standard(n).j


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)
zero_spellings = st.sampled_from(["0", "-0", "+0", "0/5", "00"])


@st.composite
def dense_rational_p(draw, n):
    p = ExactMatrix([[GaussianRational(draw(rationals)) for _ in range(n)] for _ in range(n)])
    assume(det(p))
    return p


@st.composite
def conjugated_structures(draw):
    """P J0 P^-1 for the standard J0 and a dense rational P, in dimension 2 to 8."""
    n = draw(st.sampled_from([2, 4, 6, 8]))
    p = draw(dense_rational_p(n))
    return p * _standard(n) * inverse(p)


@st.composite
def sheared_structures(draw):
    """S J0 S^-1 for the standard J0 and a shear S = I + c E_ab, in dimension 2 to 8: sparse."""
    n = draw(st.sampled_from([2, 4, 6, 8]))
    a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    rows = [[GaussianRational(int(r == c)) for c in range(n)] for r in range(n)]
    rows[a][b] = GaussianRational(draw(rationals))
    shear = ExactMatrix(rows)
    return shear * _standard(n) * inverse(shear)


structures = st.one_of(conjugated_structures(), sheared_structures())


@settings(max_examples=25, deadline=None)
@given(structures, zero_spellings)
def test_conjugated_structures_are_accepted_as_the_oracle_accepts(j, zero_spelling):
    assert _dense_structure_verdict(j) is None
    _check_against_the_oracles(j, zero_spelling)


@settings(max_examples=40, deadline=None)
@given(structures, st.data())
def test_one_tampered_entry_is_rejected_as_the_oracle_rejects(j, data):
    # in a sparse J most tamperings leave the diagonal of J^2 at -1
    n = j.rows
    r = data.draw(st.integers(0, n - 1))
    c = data.draw(st.integers(0, n - 1))
    delta = data.draw(rationals.filter(bool))
    rows = [[j.entry(a, b) for b in range(n)] for a in range(n)]
    rows[r][c] = rows[r][c] + GaussianRational(delta)
    tampered = ExactMatrix(rows)
    assert _dense_structure_verdict(tampered) == (JSquareError, "J^2 = -I fails")
    _check_against_the_oracles(tampered, data.draw(zero_spellings))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([1, 3, 5, 7]), st.data())
def test_odd_sizes_are_rejected_as_the_oracles_reject(n, data):
    cells = data.draw(st.lists(st.one_of(st.just(Fraction(0)), rationals), min_size=n * n, max_size=n * n))
    j = ExactMatrix([[GaussianRational(x) for x in cells[r * n : (r + 1) * n]] for r in range(n)])
    _check_against_the_oracles(j, data.draw(zero_spellings))
    with pytest.raises(StructureSquareError, match="^'J' squared is not minus the identity$"):
        loads_model(_model_text(j, "0"))


@pytest.mark.parametrize("n", range(1, 9))
def test_the_zero_matrix_is_rejected_as_the_oracles_reject(n):
    zero = ExactMatrix.zeros(n, n)
    _check_against_the_oracles(zero)
    assert _outcome(loads_model, _model_text(zero, "0"))[0] is StructureSquareError


def test_structure_rejections_keep_their_order_and_messages():
    with pytest.raises(ValueError, match="^J must be square$"):
        AlmostComplexStructure(ExactMatrix([[GaussianRational(0), GaussianRational(1)]]))
    with pytest.raises(ValueError, match="^J needs even dimension$"):
        AlmostComplexStructure(ExactMatrix([[GaussianRational(0, 1)]]))
    with pytest.raises(ValueError, match="^J must have rational entries$"):
        AlmostComplexStructure(ExactMatrix([[GaussianRational(0, 1), 0], [0, GaussianRational(0, 1)]]))
    with pytest.raises(JSquareError, match=r"^J\^2 = -I fails$"):
        AlmostComplexStructure(ExactMatrix([[1, 0], [0, 1]]))
    assert issubclass(JSquareError, ValueError)


@pytest.mark.parametrize("name", ["dim4_model_dense_p.json", "iwasawa_j3_conjugated.json"])
def test_loading_a_model_file_makes_no_dense_matrix_product(monkeypatch, name):
    products = []
    mul = ExactMatrix.__mul__
    monkeypatch.setattr(ExactMatrix, "__mul__", lambda a, b: products.append((a, b)) or mul(a, b))
    g, acs, _ = resolve_model(str(MODELS / name))
    assert products == []
    assert acs.j * acs.j == -ExactMatrix.identity(g.dim)


# -- the integer layout the constructor keeps ----------------------------------------


def _denominator(j: ExactMatrix) -> int:
    return lcm(*(j.entry(r, c).re.denominator for r in range(j.rows) for c in range(j.cols)))


_entries = st.builds(GaussianRational, rationals, rationals) | st.just(GaussianRational(0))


@settings(max_examples=40, deadline=None)
@given(structures.filter(lambda j: _denominator(j) > 1), st.data())
def test_the_numerator_layout_with_a_denominator_matches_the_dense_matrix(j, data):
    acs = AlmostComplexStructure(j)
    n = j.rows
    d, by_row, by_col = acs.numerators()
    assert d == _denominator(j) > 1
    assert by_row == [[(c, int(j.entry(r, c).re * d)) for c in range(n) if j.entry(r, c)] for r in range(n)]
    assert by_col == [[(r, int(j.entry(r, c).re * d)) for r in range(n) if j.entry(r, c)] for c in range(n)]
    assert all(type(v) is int for row in by_row + by_col for _, v in row)
    v = data.draw(st.lists(_entries, min_size=n, max_size=n))
    assert acs.apply(v) == j.matvec(v)
    assert all(type(x) is GaussianRational for x in acs.apply(v))
    # one tampered entry: the layout's proof fails exactly when the dense square is not -I
    rows = [[j.entry(a, b) for b in range(n)] for a in range(n)]
    r, c = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    rows[r][c] = rows[r][c] + GaussianRational(data.draw(rationals.filter(bool)))
    tampered = ExactMatrix(rows)
    rejected = _outcome(AlmostComplexStructure, tampered) == (JSquareError, "J^2 = -I fails")
    assert rejected == (tampered * tampered != -ExactMatrix.identity(n))
    assert rejected or _outcome(AlmostComplexStructure, tampered) is None


def test_a_second_structure_with_a_denominator_keeps_its_layout():
    # [[a, b], [c, -a]] squares to (a^2 + b c) I: moving b from -1 to -1/2 and
    # c from 1 to 2 keeps J^2 = -I; moving b alone does not
    half = GaussianRational(Fraction(-1, 2))
    acs = AlmostComplexStructure(ExactMatrix([[0, half], [2, 0]]))
    assert acs.numerators() == (2, [[(1, -1)], [(0, 4)]], [[(1, 4)], [(0, -1)]])
    with pytest.raises(JSquareError):
        AlmostComplexStructure(ExactMatrix([[0, half], [1, 0]]))
