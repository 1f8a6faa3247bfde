"""Builders for algebras with almost complex structures, and a model catalog.

Two doubling constructions take a real algebra h to a structure on h + h:
the ordinary one is complex-bilinear in the scaling action, the conjugate one
twists the scaling by conjugation.  Only the conjugate version produces the
sector shape (holomorphic brackets landing in the conjugate eigenspace) that
the flatness criteria detect; the ordinary version is the natural negative
control with vanishing torsion.

from_holomorphic_constants inverts the eigenspace splitting: given the
coefficients of [Z_i, Z_j] on the conjugate frame it reconstructs the unique
real algebra and standard structure whose splitting produces them.  The
round trip is asserted on every call.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .acs import AlmostComplexStructure, ComplexSplitting, SectorShapeError, split
from .lie import LieAlgebra, _clean_brackets
from .linalg import ExactMatrix
from .scalars import GaussianRational, accumulate, gaussian

__all__ = [
    "CatalogEntry",
    "UnknownCatalogNameError",
    "complexification",
    "conjugate_complexification",
    "from_holomorphic_constants",
    "catalog",
    "catalog_names",
    "iwasawa_frame_correspondence",
    "FrameIsomorphismReport",
    "verify_frame_isomorphism",
    "random_two_step",
]


def _doubling(g: LieAlgebra, conjugate_scaling: bool):
    """Brackets on g + g with basis (X_1..X_n, i X_1..i X_n)."""
    n = g.dim
    brackets: dict = {}

    def put(a: int, b: int, vec: dict, sign: Fraction):
        if a > b:
            a, b = b, a
            sign = -sign
        row = brackets.setdefault((a, b), {})
        for k, c in vec.items():
            accumulate(row, k, sign * c)

    for (i, j), vec in g.brackets.items():
        real_part = {k: c for k, c in vec.items()}
        imag_part = {n + k: c for k, c in vec.items()}
        # [X_i, X_j] = [X_i, X_j]
        put(i, j, real_part, Fraction(1))
        # [X_i, i X_j] = i [X_i, X_j], conjugated variant flips the sign;
        # [X_j, i X_i] picks up the opposite sign through bracket antisymmetry
        mixed_sign = Fraction(-1) if conjugate_scaling else Fraction(1)
        put(i, n + j, imag_part, mixed_sign)
        put(j, n + i, imag_part, -mixed_sign)
        # [i X_i, i X_j] = -[X_i, X_j] either way: i*i = -1 and conj(i*i) = -1
        put(n + i, n + j, real_part, Fraction(-1))

    return LieAlgebra(2 * n, brackets), AlmostComplexStructure.standard(2 * n)


def complexification(g: LieAlgebra):
    """Ordinary doubling: the scaling by i acts complex-bilinearly.

    The resulting structure is integrable (zero torsion); holomorphic
    brackets stay in the holomorphic eigenspace.
    """
    return _doubling(g, conjugate_scaling=False)


def conjugate_complexification(g: LieAlgebra):
    """Conjugate-twisted doubling: [X a, Y b] = conj(a b) [X, Y] on scalars.

    Holomorphic brackets of the result land entirely in the conjugate
    eigenspace, so the pair is quasi-Kaehler flat whenever g is 2-step.
    """
    return _doubling(g, conjugate_scaling=True)


def _assert_round_trip(s: ComplexSplitting, table: dict) -> None:
    """Raise AssertionError unless the splitting s has exactly these constants.

    table is a validated {(i, j): {k: coeff}}.  s must have the
    quasi-Kaehler sector shape, and its holomorphic constants must equal
    table, entry for entry.
    """
    try:
        recovered = s.holomorphic()
    except SectorShapeError:
        raise AssertionError("reconstruction produced unexpected sector components") from None
    if recovered.table() != table:
        raise AssertionError("splitting does not reproduce the requested constants")


def from_holomorphic_constants(m: int, constants: dict, check: bool = True):
    """Real algebra + standard structure realizing given (0,1)-valued constants.

    constants maps (i, j) with 0 <= i < j < m to {k: coeff}: the coefficient
    of the k-th conjugate frame vector in [Z_i, Z_j].  Coefficients may be
    complex.  The reconstructed real brackets are validated (Jacobi runs in
    the constructor) and, when check is set, the splitting of the result is
    asserted to reproduce the input exactly.
    """
    table = _clean_brackets(m, constants)

    brackets: dict = {}

    def add(a: int, b: int, k: int, c: Fraction):
        if c:
            accumulate(brackets.setdefault((a, b), {}), k, c)

    half = Fraction(1, 2)
    for (i, j), vec in table.items():
        for k, c in vec.items():
            a, b = c.re, c.im
            # [X_i, X_j] = (1/2) sum (a_k X_k - b_k X_{m+k}); conjugate block negated
            add(i, j, k, half * a)
            add(i, j, m + k, -half * b)
            add(m + i, m + j, k, -half * a)
            add(m + i, m + j, m + k, half * b)
            # [X_i, X_{m+j}] = -(1/2) sum (b_k X_k + a_k X_{m+k}), antisymmetric in (i, j)
            add(i, m + j, k, -half * b)
            add(i, m + j, m + k, -half * a)
            add(j, m + i, k, half * b)
            add(j, m + i, m + k, half * a)

    g = LieAlgebra(2 * m, {key: row for key, row in brackets.items() if row})
    acs = AlmostComplexStructure.standard(2 * m)
    if check:
        _assert_round_trip(split(g, acs), table)
    return g, acs


# -- fixed models ------------------------------------------------------------


def _heisenberg(dim: int) -> LieAlgebra:
    if dim < 3 or dim % 2 == 0:
        raise ValueError("heisenberg algebras have odd dimension >= 3")
    m = (dim - 1) // 2
    return LieAlgebra(dim, {(2 * t, 2 * t + 1): {dim - 1: Fraction(1)} for t in range(m)})


def _iwasawa_j3():
    g = LieAlgebra(
        6,
        {
            (0, 1): {2: Fraction(1)},
            (3, 4): {2: Fraction(-1)},
            (1, 3): {5: Fraction(1)},
            (0, 4): {5: Fraction(-1)},
        },
    )
    return g, AlmostComplexStructure.standard(6)


def _iwasawa_e_frame():
    g = LieAlgebra(
        6,
        {
            (0, 2): {4: Fraction(-1)},
            (1, 3): {4: Fraction(1)},
            (0, 3): {5: Fraction(-1)},
            (1, 2): {5: Fraction(-1)},
        },
    )
    cols = [
        [0, -1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
        [0, 0, 0, -1, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, -1, 0],
    ]
    j = ExactMatrix.from_columns([[gaussian(c) for c in col] for col in cols])
    return g, AlmostComplexStructure(j)


def _complex_heisenberg_bicomplex():
    g = LieAlgebra(
        6,
        {
            (0, 1): {2: Fraction(1)},
            (3, 4): {2: Fraction(-1)},
            (0, 4): {5: Fraction(1)},
            (1, 3): {5: Fraction(-1)},
        },
    )
    return g, AlmostComplexStructure.standard(6)


def _centro1(m: int):
    if m < 1:
        raise ValueError("parameter must be a positive integer")
    n = 2 * m + 1
    constants = {(i, j): {n - 1: 1} for i in range(n - 1) for j in range(i + 1, n - 1)}
    return from_holomorphic_constants(n, constants)


@dataclass(frozen=True)
class CatalogEntry:
    """A named model: algebra, optional structure, and documented properties.

    properties records the verdicts each model is expected to produce; the
    test suite recomputes every one of them from scratch.
    """

    name: str
    algebra: LieAlgebra
    acs: Optional[AlmostComplexStructure]
    description: str
    properties: dict


class UnknownCatalogNameError(ValueError):
    """Requested name is not in the catalog."""


_J_FLAT_TRUE = {
    "chern_flat": True,
    "qk_chern_flat": True,
    "nijenhuis_zero": False,
    "two_step": True,
    "quasi_kaehler_identity_metric": True,
}


def _abelian(n: int, name: str):
    if n < 1:
        raise ValueError(f"abelian dimension must be positive: {name}")
    props = {"nilpotency_step": 1, "center_dim": n}
    if n % 2:
        return LieAlgebra(n, {}), None, "abelian algebra", props
    # a zero bracket makes every structure integrable as well as flat
    props.update(_J_FLAT_TRUE, nijenhuis_zero=True)
    return LieAlgebra(n, {}), AlmostComplexStructure.standard(n), "abelian algebra", props


# name -> (builder of (algebra, structure), description, documented properties)
_MODELS = {
    "heisenberg3": (
        lambda: (_heisenberg(3), None),
        "3-dimensional algebra with one central bracket",
        {"nilpotency_step": 2, "center_dim": 1},
    ),
    "iwasawa_j3": (
        _iwasawa_j3,
        "conjugate doubling of heisenberg3 in its adapted frame",
        {**_J_FLAT_TRUE, "coupled_solution_dim": 2, "center_complex_dim": 1},
    ),
    "iwasawa_e_frame": (
        _iwasawa_e_frame,
        "the same model in its customary alternate frame",
        {**_J_FLAT_TRUE, "coupled_solution_dim": 2, "center_complex_dim": 1},
    ),
    "complex_heisenberg_bicomplex": (
        _complex_heisenberg_bicomplex,
        "ordinary doubling of heisenberg3: integrable, not quasi-Kaehler",
        {
            "chern_flat": True,
            "qk_chern_flat": False,
            "nijenhuis_zero": True,
            "two_step": True,
            "quasi_kaehler_identity_metric": False,
        },
    ),
    "dim4_model": (
        lambda: from_holomorphic_constants(4, {(0, 1): {2: 1}}),
        "complex-dimension-4 model with one holomorphic bracket",
        {**_J_FLAT_TRUE, "center_complex_dim": 2},
    ),
    "dim5_irreducible": (
        lambda: from_holomorphic_constants(5, {(0, 1): {2: 1}, (1, 3): {4: 1}}),
        "complex-dimension-5 model whose bracket image spans two directions",
        {**_J_FLAT_TRUE, "center_complex_dim": 2},
    ),
}

# family placeholder -> builder of (algebra, structure, description, properties)
# from the parameter k and the name as typed; a ValueError rejects k
_FAMILIES = {
    "abelian(n)": _abelian,
    "heisenberg(2k+1)": lambda k, _name: (
        _heisenberg(k),
        None,
        "odd-dimensional two-step algebra with 1-dimensional center",
        {"nilpotency_step": 2, "center_dim": 1},
    ),
    "centro1_model(k)": lambda k, _name: (
        *_centro1(k),
        "complex dimension 2k+1, every generator pair bracketing onto the last conjugate direction",
        {**_J_FLAT_TRUE, "center_complex_dim": 1},
    ),
}

_PARAM_RE = _re.compile(r"^([a-z0-9_]+)\((\d+)\)$")


def catalog(name: str) -> CatalogEntry:
    """Fetch a model by name; parametrized families use name(k) syntax."""
    if name in _MODELS:
        build, description, props = _MODELS[name]
        return CatalogEntry(name, *build(), description, dict(props))
    match = _PARAM_RE.match(name.strip())
    if match:
        base, arg = match.group(1), int(match.group(2))
        for placeholder, build in _FAMILIES.items():
            if placeholder.startswith(base + "("):
                try:
                    parts = build(arg, name)
                except ValueError as exc:
                    raise UnknownCatalogNameError(str(exc)) from None
                return CatalogEntry(name, *parts)
    raise UnknownCatalogNameError(f"unknown catalog name {name!r}")


def catalog_names() -> list:
    """Available names; parametrized families shown with a placeholder."""
    return sorted([*_MODELS, *_FAMILIES])


def iwasawa_frame_correspondence() -> ExactMatrix:
    """Isomorphism from the adapted frame model onto the alternate frame model.

    Column k gives the image of the k-th adapted basis vector in alternate
    frame coordinates; the map intertwines both the brackets and the two
    structures (verify_frame_isomorphism confirms this).
    """
    cols = [
        [1, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, -1],
        [0, -1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 1, 0],
    ]
    return ExactMatrix.from_columns([[gaussian(c) for c in col] for col in cols])


@dataclass(frozen=True)
class FrameIsomorphismReport:
    """Outcome of checking a linear map as a (J-compatible) isomorphism."""

    bracket_ok: bool
    j_ok: Optional[bool]
    witness: object = None

    def __bool__(self) -> bool:
        return self.bracket_ok and self.j_ok is not False


def verify_frame_isomorphism(
    g1: LieAlgebra,
    g2: LieAlgebra,
    phi: ExactMatrix,
    acs1: Optional[AlmostComplexStructure] = None,
    acs2: Optional[AlmostComplexStructure] = None,
) -> FrameIsomorphismReport:
    """Check phi[x, y] = [phi x, phi y] on basis pairs, and J-equivariance.

    The first failing basis pair is reported as the witness.  phi must be
    invertible for an isomorphism claim; singular maps are rejected outright.
    """
    if g1.dim != g2.dim or phi.rows != g1.dim or phi.cols != g1.dim:
        raise ValueError("dimension mismatch")
    from .linalg import rank

    if rank(phi) != phi.rows:
        raise ValueError("candidate map is singular")
    n = g1.dim
    cols = [phi.column(k) for k in range(n)]
    bracket_ok = True
    witness = None
    for i in range(n):
        for j in range(i + 1, n):
            lhs = phi.matvec(g1.basis_bracket(i, j))
            rhs = g2.bracket(cols[i], cols[j])
            if lhs != rhs:
                bracket_ok = False
                witness = ("bracket", i, j)
                break
        if not bracket_ok:
            break
    j_ok: Optional[bool] = None
    if acs1 is not None and acs2 is not None:
        j_ok = phi * acs1.j == acs2.j * phi
        if not j_ok and witness is None:
            witness = ("structure",)
    return FrameIsomorphismReport(bracket_ok, j_ok, witness)


def random_two_step(rng, max_generators: int = 4, max_center: int = 2, span: int = 2):
    """Random flat pair: generators bracketing onto dedicated central slots.

    Constants c_{ij} live on the last q conjugate directions, so the result
    is 2-step with the quasi-Kaehler sector shape by construction; at least
    one constant is forced nonzero.
    """
    p = rng.randint(2, max(2, max_generators))
    q = rng.randint(1, max(1, max_center))
    m = p + q
    while True:
        constants = {}
        for i in range(p):
            for j in range(i + 1, p):
                row = {}
                for k in range(p, m):
                    c = gaussian(rng.randint(-span, span)) + GaussianRational(
                        0, rng.randint(-span, span)
                    )
                    if c:
                        row[k] = c
                if row:
                    constants[(i, j)] = row
        if constants:
            return from_holomorphic_constants(m, constants)
