import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chernflat.constructions import catalog
from chernflat.fileio import (
    CoefficientError,
    FieldTagError,
    IndexOrderError,
    IndexRangeError,
    JacobiFormatError,
    ModelFormatError,
    ParseError,
    StructureShapeError,
    StructureSquareError,
    UnknownCatalogError,
    dumps_model,
    load_metric_matrix,
    load_model,
    loads_model,
    resolve_model,
)
from chernflat.lie import LieAlgebra
from chernflat.linalg import ExactMatrix
from chernflat.scalars import GaussianRational, gaussian

from helpers import transported_pair
from oracles import random_two_step


def heisenberg_doc():
    return {
        "dim": 3,
        "field": "Q",
        "brackets": [{"i": 1, "j": 2, "out": [{"k": 3, "coeff": "1"}]}],
    }


def test_round_trip_through_text():
    for name in ("iwasawa_j3", "dim4_model", "heisenberg3", "centro1_model(2)"):
        entry = catalog(name)
        text = dumps_model(entry.algebra, entry.acs)
        g, acs = loads_model(text)
        assert g == entry.algebra
        assert acs == entry.acs


# -- round trips of drawn models ---------------------------------------------------


def _scrambled_pair(seed: int, entries: list):
    """A random_two_step pair carried by the rational frame P = L D U.

    L and U are unit triangular with their off-diagonal entries, and D is
    diagonal with its entries, taken in turn from entries (nonzero
    rationals), so J = P J_0 P^-1 is dense and has denominators.
    """
    g, acs = random_two_step(random.Random(seed), max_generators=3, max_center=1)
    n = g.dim
    draw = iter(entries * (n * n))
    low, up = ([[next(draw) if c < r else int(c == r) for c in range(n)] for r in range(n)] for _ in "lu")
    diag = ExactMatrix([[next(draw) if c == r else 0 for c in range(n)] for r in range(n)])
    return transported_pair(g, acs, ExactMatrix(low) * diag * ExactMatrix(up).transpose())


def _qi_algebra(p: int, q: int, coefficients: list) -> LieAlgebra:
    """A "Qi" algebra: p generators bracketing onto q central slots, two-step for any coefficients.

    [e_i, e_j] for i < j < p takes its coefficients on e_p..e_{p+q-1} in
    turn from coefficients.
    """
    draw = iter(coefficients * (p * p * q))
    brackets = {(i, j): {k: next(draw) for k in range(p, p + q)} for i in range(p) for j in range(i + 1, p)}
    return LieAlgebra(p + q, brackets, field="Qi")


_nonzero_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
_scrambled_pairs = st.builds(
    _scrambled_pair, st.integers(0, 2**16), st.lists(_nonzero_rationals, min_size=1, max_size=12)
)
_qi_models = st.builds(
    lambda g: (g, None),
    st.builds(
        _qi_algebra,
        st.integers(2, 4),
        st.integers(1, 2),
        st.lists(st.builds(GaussianRational, _rationals, _rationals), min_size=1, max_size=12),
    ),
)


@settings(max_examples=40, deadline=None)
@given(model=st.one_of(_scrambled_pairs, _qi_models))
def test_drawn_models_round_trip_through_text(model):
    g, acs = model
    text = dumps_model(g, acs)
    g2, acs2 = loads_model(text)
    assert g2 == g
    assert acs2 == acs
    assert dumps_model(g2, acs2) == text


def test_drawn_models_cover_dense_j_with_denominators_and_q_i_tables():
    g, acs = _scrambled_pair(3, [Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2)])
    entries = [acs.j.entry(r, c) for r in range(g.dim) for c in range(g.dim)]
    assert acs.numerators()[0] > 1
    assert sum(1 for x in entries if x) > g.dim * g.dim // 2
    assert any(c.re.denominator > 1 for vec in g.brackets.values() for c in vec.values())
    h = _qi_algebra(3, 2, [GaussianRational(Fraction(1, 2), Fraction(-1, 3)), GaussianRational(2, 0)])
    assert h.field == "Qi" and h.dim == 5
    assert any(not c.is_real() for vec in h.brackets.values() for c in vec.values())


def test_round_trip_through_file(tmp_path):
    entry = catalog("iwasawa_j3")
    path = tmp_path / "model.json"
    path.write_text(dumps_model(entry.algebra, entry.acs))
    g, acs = load_model(str(path))
    assert g == entry.algebra
    assert acs == entry.acs


def test_basic_document_loads():
    g, acs = loads_model(json.dumps(heisenberg_doc()))
    assert g.dim == 3
    assert acs is None
    assert g.brackets == {(0, 1): {2: gaussian(1)}}


def test_coefficients_accumulate_and_gaussian_field():
    doc = {
        "dim": 3,
        "field": "Qi",
        "brackets": [
            {"i": 1, "j": 2, "out": [{"k": 3, "coeff": "1/2+i"}, {"k": 3, "coeff": "1/2-i"}]}
        ],
    }
    g, _ = loads_model(json.dumps(doc))
    assert g.brackets == {(0, 1): {2: gaussian(1)}}
    assert g.field == "Qi"


def test_parse_error_code():
    with pytest.raises(ParseError) as exc:
        loads_model("{not json")
    assert exc.value.code == "parse"
    for doc in ([1, 2], {"field": "Q"}, {"dim": 0}, {"dim": 2, "brackets": 5}):
        with pytest.raises(ParseError):
            loads_model(json.dumps(doc))


def test_field_error_code():
    doc = heisenberg_doc()
    doc["field"] = "R"
    with pytest.raises(FieldTagError) as exc:
        loads_model(json.dumps(doc))
    assert exc.value.code == "field"


def test_index_order_and_range_codes():
    doc = heisenberg_doc()
    doc["brackets"][0]["i"], doc["brackets"][0]["j"] = 2, 1
    with pytest.raises(IndexOrderError) as exc:
        loads_model(json.dumps(doc))
    assert exc.value.code == "index-order"

    doc = heisenberg_doc()
    doc["brackets"][0]["j"] = 4
    with pytest.raises(IndexRangeError) as exc:
        loads_model(json.dumps(doc))
    assert exc.value.code == "index-range"

    doc = heisenberg_doc()
    doc["brackets"][0]["out"][0]["k"] = 9
    with pytest.raises(IndexRangeError):
        loads_model(json.dumps(doc))


def test_coefficient_error_code():
    for bad in ("1.5", "x", 3):
        doc = heisenberg_doc()
        doc["brackets"][0]["out"][0]["coeff"] = bad
        with pytest.raises(CoefficientError) as exc:
            loads_model(json.dumps(doc))
        assert exc.value.code == "coeff"
    doc = heisenberg_doc()
    doc["brackets"][0]["out"][0]["coeff"] = "i"
    with pytest.raises(CoefficientError):
        loads_model(json.dumps(doc))


def test_jacobi_error_code_with_defects():
    doc = {
        "dim": 3,
        "brackets": [
            {"i": 1, "j": 2, "out": [{"k": 3, "coeff": "1"}]},
            {"i": 1, "j": 3, "out": [{"k": 1, "coeff": "1"}]},
        ],
    }
    with pytest.raises(JacobiFormatError) as exc:
        loads_model(json.dumps(doc))
    assert exc.value.code == "jacobi"
    assert exc.value.defects


def test_structure_shape_and_square_codes():
    doc = heisenberg_doc()
    doc["dim"] = 4
    doc["J"] = [["0", "1"], ["-1", "0"]]
    with pytest.raises(StructureShapeError) as exc:
        loads_model(json.dumps(doc))
    assert exc.value.code == "j-shape"

    doc = heisenberg_doc()
    doc["dim"] = 2
    doc["brackets"] = []
    doc["J"] = [["1", "0"], ["0", "1"]]
    with pytest.raises(StructureSquareError) as exc:
        loads_model(json.dumps(doc))
    assert exc.value.code == "j-square"

    doc["J"] = [["i", "0"], ["0", "i"]]
    with pytest.raises(StructureShapeError):
        loads_model(json.dumps(doc))

    doc = heisenberg_doc()
    doc["field"] = "Qi"
    doc["J"] = [["0"] * 3 for _ in range(3)]
    with pytest.raises(FieldTagError):
        loads_model(json.dumps(doc))


def test_resolve_model_catalog_and_path(tmp_path):
    g, acs, label = resolve_model("@iwasawa_j3")
    assert label == "iwasawa_j3"
    assert g.dim == 6 and acs is not None

    with pytest.raises(UnknownCatalogError) as exc:
        resolve_model("@missing_thing")
    assert exc.value.code == "unknown-catalog"

    path = tmp_path / "h3.json"
    path.write_text(json.dumps(heisenberg_doc()))
    g2, acs2, label2 = resolve_model(str(path))
    assert g2.dim == 3 and acs2 is None and label2 == str(path)

    with pytest.raises(ParseError):
        resolve_model(str(tmp_path / "absent.json"))


def test_all_codes_are_model_format_errors():
    for cls in (
        ParseError,
        FieldTagError,
        IndexOrderError,
        IndexRangeError,
        CoefficientError,
        JacobiFormatError,
        StructureShapeError,
        StructureSquareError,
        UnknownCatalogError,
    ):
        assert issubclass(cls, ModelFormatError)
        assert cls.code != ModelFormatError.code


def test_load_metric_matrix(tmp_path):
    path = tmp_path / "h.json"
    path.write_text(json.dumps([["2", "i"], ["-i", "3"]]))
    mat = load_metric_matrix(str(path), 2)
    assert mat.entry(0, 0) == gaussian(2)
    assert mat.entry(0, 1) == GaussianRational(0, 1)
    path.write_text(json.dumps({"h": [["1", "0"], ["0", "1"]]}))
    mat = load_metric_matrix(str(path), 2)
    assert mat.rows == 2

    path.write_text(json.dumps([["1"]]))
    with pytest.raises(StructureShapeError):
        load_metric_matrix(str(path), 2)
    path.write_text(json.dumps([["1", "x"], ["0", "1"]]))
    with pytest.raises(CoefficientError):
        load_metric_matrix(str(path), 2)
