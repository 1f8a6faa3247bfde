"""Infinitesimal deformations of a flat structure on a two-step algebra.

A deformation direction is a real matrix L subject to two exact linear
conditions: it anticommutes with the structure, and it kills the bracket in
the strong sense L[x, y] + [Lx, y] = 0 for all x, y (running over ordered
basis pairs captures the companion identity L[x, y] + [x, Ly] = 0 as well).

The trivial directions come from the algebra itself: for two-step flat pairs
every inner derivation satisfies both conditions, which this module checks by
substitution rather than assuming.  The reported quotient dimension counts
essential deformations modulo those.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .acs import AlmostComplexStructure, ComplexSplitting, Verdict, is_qk_chern_flat, split
from .lie import LieAlgebra, is_two_step
from .linalg import ExactMatrix, kernel_from_rows, rank_of_rows
from .scalars import ZERO, gaussian

__all__ = [
    "DeformationSpace",
    "deformation_space",
    "satisfies_deformation_equations",
    "lie_derivative_direction",
]


def _flatten(mat: ExactMatrix) -> tuple:
    return tuple(mat.entry(r, c) for r in range(mat.rows) for c in range(mat.cols))


def _unflatten(vec, n: int) -> ExactMatrix:
    return ExactMatrix([[gaussian(vec[r * n + c]) for c in range(n)] for r in range(n)])


def _equation_rows(g: LieAlgebra, acs: AlmostComplexStructure):
    """Sparse rows over the n^2 unknowns L_{rc} (row-major flattening)."""
    n = g.dim
    j = acs.j
    rows = []
    # anticommutation: (L J + J L)_{ab} = 0
    for a in range(n):
        for b in range(n):
            row: dict = {}
            for c in range(n):
                v = j.entry(c, b)
                if v:
                    key = a * n + c
                    cur = row.get(key, ZERO) + v
                    if cur:
                        row[key] = cur
                    else:
                        row.pop(key, None)
            for c in range(n):
                v = j.entry(a, c)
                if v:
                    key = c * n + b
                    cur = row.get(key, ZERO) + v
                    if cur:
                        row[key] = cur
                    else:
                        row.pop(key, None)
            if row:
                rows.append(row)
    # bracket condition: (L [e_i, e_j] + [L e_i, e_j])_k = 0, ordered pairs
    for i in range(n):
        for jdx in range(n):
            if i == jdx:
                continue
            bij = g.basis_bracket(i, jdx)
            for k in range(n):
                row = {}
                for c in range(n):
                    if bij[c]:
                        key = k * n + c
                        cur = row.get(key, ZERO) + bij[c]
                        if cur:
                            row[key] = cur
                        else:
                            row.pop(key, None)
                for r in range(n):
                    v = g.structure_constant(r, jdx, k)
                    if v:
                        key = r * n + i
                        cur = row.get(key, ZERO) + v
                        if cur:
                            row[key] = cur
                        else:
                            row.pop(key, None)
                if row:
                    rows.append(row)
    return rows


@dataclass(frozen=True)
class DeformationSpace:
    """Solution space of the deformation equations with its trivial part.

    kernel holds flattened n x n matrices; dimension is its size,
    inner_rank the rank of the inner-derivation directions inside it, and
    quotient_dimension the count of essential deformations.
    """

    n: int
    kernel: tuple
    inner_rank: int
    quotient_dimension: int

    @property
    def dimension(self) -> int:
        return len(self.kernel)

    def matrices(self) -> list:
        return [_unflatten(v, self.n) for v in self.kernel]


def deformation_space(
    g: LieAlgebra, acs: AlmostComplexStructure, s: Optional[ComplexSplitting] = None
) -> DeformationSpace:
    """Solve the deformation equations and quotient out inner directions.

    Requires a flat two-step pair; under that hypothesis every inner
    derivation solves the equations, which is verified by substitution
    before the quotient is taken.
    """
    s = s or split(g, acs)
    if not is_qk_chern_flat(g, acs, s):
        raise ValueError("deformation space requires a quasi-Kaehler flat pair")
    if not is_two_step(g):
        raise ValueError("deformation space requires a two-step algebra")
    n = g.dim
    rows = _equation_rows(g, acs)
    kernel = kernel_from_rows(n * n, rows)

    inner_vectors = []
    for i in range(n):
        vec = _flatten(g.basis_ad(i))
        if any(vec):
            inner_vectors.append(vec)
    for vec in inner_vectors:
        for row in rows:
            acc = ZERO
            for key, coeff in row.items():
                if vec[key]:
                    acc = acc + coeff * vec[key]
            if acc:
                raise AssertionError("inner derivation fails the deformation equations")
    inner_rank = rank_of_rows(
        n * n, [{k: c for k, c in enumerate(vec) if c} for vec in inner_vectors]
    )
    return DeformationSpace(
        n=n,
        kernel=tuple(kernel),
        inner_rank=inner_rank,
        quotient_dimension=len(kernel) - inner_rank,
    )


def satisfies_deformation_equations(
    g: LieAlgebra, acs: AlmostComplexStructure, l_mat: ExactMatrix
) -> Verdict:
    """Check one matrix against both deformation conditions, with witness."""
    n = g.dim
    if l_mat.rows != n or l_mat.cols != n:
        raise ValueError("matrix size does not match the algebra")
    anti = l_mat * acs.j + acs.j * l_mat
    if not anti.is_zero():
        for a in range(n):
            for b in range(n):
                if anti.entry(a, b):
                    return Verdict(False, ("anticommutation", a, b))
    # column jdx of ad_l[i] is [L e_i, e_jdx]
    ad_l = [g.ad(l_mat.column(k)) for k in range(n)]
    for i in range(n):
        for jdx in range(n):
            if i == jdx:
                continue
            lhs = l_mat.matvec(g.basis_bracket(i, jdx))
            rhs = ad_l[i].column(jdx)
            if any(a + b for a, b in zip(lhs, rhs)):
                return Verdict(False, ("bracket", i, jdx))
    return Verdict(True)


def lie_derivative_direction(g: LieAlgebra, acs: AlmostComplexStructure, x) -> ExactMatrix:
    """Deformation direction induced by flowing the structure along x.

    Equals -2 J ad_x; for a flat pair this coincides with ad applied to
    2 J x (asserted), hence is always an inner direction.
    """
    if not is_qk_chern_flat(g, acs):
        raise ValueError("flow directions are computed for quasi-Kaehler flat pairs")
    ad_x = g.ad(x)
    m = (acs.j * ad_x) * gaussian(-2)
    jx2 = [c + c for c in acs.apply(x)]
    if m != g.ad(jx2):
        raise AssertionError("flow direction is not the expected inner derivation")
    return m
