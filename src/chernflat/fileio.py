"""JSON model files: load, validate, dump; catalog references via @name.

The on-disk format is 1-based and string-valued so files are exact and
human-editable:

    {
      "dim": 6,
      "field": "Q",
      "brackets": [{"i": 1, "j": 2, "out": [{"k": 3, "coeff": "1"}]}],
      "J": [["0", "0", ...], ...]
    }

"field" is "Q" (rational constants) or "Qi" (Gaussian rational); "J" is an
optional row-major rational matrix and is only meaningful over "Q".  Every
rejection carries a stable machine-readable code on the exception.
"""

from __future__ import annotations

import json
from typing import Optional, Tuple

from .acs import AlmostComplexStructure, JSquareError
from .constructions import UnknownCatalogNameError, catalog
from .lie import JacobiError, LieAlgebra
from .linalg import ExactMatrix
from .scalars import ZERO, format_rational, format_scalar, parse_scalar

__all__ = [
    "ModelFormatError",
    "ParseError",
    "FieldTagError",
    "IndexOrderError",
    "IndexRangeError",
    "CoefficientError",
    "JacobiFormatError",
    "StructureShapeError",
    "StructureSquareError",
    "UnknownCatalogError",
    "loads_model",
    "load_model",
    "dumps_model",
    "dump_model",
    "resolve_model",
    "load_metric_matrix",
]


class ModelFormatError(ValueError):
    """Base for model-file rejections; .code identifies the rule violated."""

    code = "invalid"


class ParseError(ModelFormatError):
    code = "parse"


class FieldTagError(ModelFormatError):
    code = "field"


class IndexOrderError(ModelFormatError):
    code = "index-order"


class IndexRangeError(ModelFormatError):
    code = "index-range"


class CoefficientError(ModelFormatError):
    code = "coeff"


class JacobiFormatError(ModelFormatError):
    code = "jacobi"

    def __init__(self, message, defects=None):
        super().__init__(message)
        self.defects = defects or []


class StructureShapeError(ModelFormatError):
    code = "j-shape"


class StructureSquareError(ModelFormatError):
    code = "j-square"


class UnknownCatalogError(ModelFormatError):
    code = "unknown-catalog"


_NOT_SQUARE = "'J' squared is not minus the identity"


def loads_model(text: str) -> Tuple[LieAlgebra, Optional[AlmostComplexStructure]]:
    """Parse and validate a model document from its JSON text."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from None
    return _from_object(obj)


def _from_object(obj) -> Tuple[LieAlgebra, Optional[AlmostComplexStructure]]:
    if not isinstance(obj, dict):
        raise ParseError("top level must be a JSON object")
    if "dim" not in obj:
        raise ParseError("missing required key 'dim'")
    dim = obj["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError("'dim' must be a positive integer")
    field = obj.get("field", "Q")
    if field not in ("Q", "Qi"):
        raise FieldTagError(f"unknown field tag {field!r}; expected 'Q' or 'Qi'")

    raw_brackets = obj.get("brackets", [])
    if not isinstance(raw_brackets, list):
        raise ParseError("'brackets' must be a list")
    table: dict = {}
    for entry in raw_brackets:
        if not isinstance(entry, dict) or not {"i", "j", "out"} <= set(entry):
            raise ParseError("each bracket entry needs keys 'i', 'j', 'out'")
        i, j = entry["i"], entry["j"]
        for label, value in (("i", i), ("j", j)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ParseError(f"bracket index '{label}' must be an integer")
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise IndexRangeError(f"bracket pair ({i}, {j}) outside 1..{dim}")
        if i >= j:
            raise IndexOrderError(f"bracket pair ({i}, {j}) must satisfy i < j")
        if not isinstance(entry["out"], list):
            raise ParseError("bracket 'out' must be a list")
        vec = table.setdefault((i - 1, j - 1), {})
        for term in entry["out"]:
            if not isinstance(term, dict) or not {"k", "coeff"} <= set(term):
                raise ParseError("each output term needs keys 'k' and 'coeff'")
            k = term["k"]
            if not isinstance(k, int) or isinstance(k, bool):
                raise ParseError("output index 'k' must be an integer")
            if not (1 <= k <= dim):
                raise IndexRangeError(f"output index {k} outside 1..{dim}")
            if not isinstance(term["coeff"], str):
                raise CoefficientError("coefficients must be strings")
            try:
                coeff = parse_scalar(term["coeff"])
            except ValueError as exc:
                raise CoefficientError(f"bad coefficient {term['coeff']!r}: {exc}") from None
            if field == "Q" and not coeff.is_real():
                raise CoefficientError(
                    f"coefficient {term['coeff']!r} is not rational but field is 'Q'"
                )
            prev = vec.get(k - 1)
            vec[k - 1] = coeff if prev is None else prev + coeff

    try:
        algebra = LieAlgebra(dim, table, field=field)
    except JacobiError as exc:
        raise JacobiFormatError(str(exc), exc.defects) from None

    acs = None
    if "J" in obj and obj["J"] is not None:
        if field != "Q":
            raise FieldTagError("a structure matrix requires field 'Q'")
        raw_j = obj["J"]
        if not isinstance(raw_j, list) or len(raw_j) != dim or any(
            not isinstance(row, list) or len(row) != dim for row in raw_j
        ):
            raise StructureShapeError(f"'J' must be a {dim}x{dim} matrix")
        entries = []
        for row in raw_j:
            out_row = []
            for cell in row:
                if cell == "0":   # most cells; parse_scalar would give ZERO too
                    out_row.append(ZERO)
                    continue
                if not isinstance(cell, str):
                    raise StructureShapeError("'J' entries must be strings")
                try:
                    value = parse_scalar(cell)
                except ValueError as exc:
                    raise StructureShapeError(f"bad 'J' entry {cell!r}: {exc}") from None
                if not value.is_real():
                    raise StructureShapeError(f"'J' entry {cell!r} must be rational")
                out_row.append(value)
            entries.append(out_row)
        # no rational J of odd size squares to -I, since det(J)^2 = (-1)^dim
        if dim % 2:
            raise StructureSquareError(_NOT_SQUARE)
        try:
            acs = AlmostComplexStructure(ExactMatrix(entries))
        except JSquareError:
            raise StructureSquareError(_NOT_SQUARE) from None
    return algebra, acs


def load_model(path: str) -> Tuple[LieAlgebra, Optional[AlmostComplexStructure]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc}") from None
    return loads_model(text)


def dumps_model(g: LieAlgebra, acs: Optional[AlmostComplexStructure] = None) -> str:
    return json.dumps(model_object(g, acs), indent=2, sort_keys=True) + "\n"


def model_object(g: LieAlgebra, acs: Optional[AlmostComplexStructure] = None) -> dict:
    brackets = []
    for (i, j) in sorted(g.brackets):
        out = [
            {"k": k + 1, "coeff": format_scalar(c)}
            for k, c in sorted(g.brackets[(i, j)].items())
        ]
        brackets.append({"i": i + 1, "j": j + 1, "out": out})
    obj = {"dim": g.dim, "field": g.field, "brackets": brackets}
    if acs is not None:
        obj["J"] = [
            [format_rational(acs.j.entry(r, c).re) for c in range(g.dim)]
            for r in range(g.dim)
        ]
    return obj


def dump_model(path: str, g: LieAlgebra, acs: Optional[AlmostComplexStructure] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_model(g, acs))


def resolve_model(spec: str):
    """Load (algebra, structure, label) from '@name' or a file path."""
    if spec.startswith("@"):
        name = spec[1:]
        try:
            entry = catalog(name)
        except UnknownCatalogNameError as exc:
            raise UnknownCatalogError(str(exc)) from None
        return entry.algebra, entry.acs, name
    g, acs = load_model(spec)
    return g, acs, spec


def load_metric_matrix(path: str, m: int) -> ExactMatrix:
    """Read an m x m matrix of scalar strings for use as a metric."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from None
    if isinstance(obj, dict) and "h" in obj:
        obj = obj["h"]
    if not isinstance(obj, list) or len(obj) != m or any(
        not isinstance(row, list) or len(row) != m for row in obj
    ):
        raise StructureShapeError(f"metric must be a {m}x{m} matrix")
    entries = []
    for row in obj:
        out_row = []
        for cell in row:
            if not isinstance(cell, str):
                raise CoefficientError("metric entries must be strings")
            try:
                out_row.append(parse_scalar(cell))
            except ValueError as exc:
                raise CoefficientError(f"bad metric entry {cell!r}: {exc}") from None
        entries.append(out_row)
    return ExactMatrix(entries)
