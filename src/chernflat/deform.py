"""Infinitesimal deformations of a flat structure on a two-step algebra.

A deformation direction is a real matrix L subject to two exact linear
conditions: it anticommutes with the structure, M = LJ + JL = 0, and it
kills the bracket in the strong sense E(x, y) = L[x, y] + [Lx, y] = 0 for
all x, y (running over ordered basis pairs captures the companion identity
L[x, y] + [x, Ly] = 0 as well).

The trivial directions come from the algebra itself: for two-step flat pairs
every inner derivation satisfies both conditions, which this module checks by
substitution rather than assuming.  The reported quotient dimension counts
essential deformations modulo those.

The rows are read from the nonzero entries of J and the sparse bracket table,
not from a dense n^4 sweep, and are built on Gaussian-integer numerators: each
row is homogeneous, so scaling it changes neither its direction nor the kernel.
Each row is substituted into the inner directions and handed to the
elimination as it is built, so the system is never held whole.

Only a spanning subset of the rows is built.  Let S be the m indices the
splitting chose, so R = [e_S, J e_S] is a basis (s.indices), and w = R^-1 e_a
(s._r_inv).  Two identities, exact for every L, make the rest redundant:

1. M commutes with J, so M vanishes once it vanishes on e_S: the n m
   anticommutation rows (a, b), b in S, span all n^2 of them.
2. On a quasi-Kaehler Chern-flat pair, J[X, Y] = -[JX, Y] = -[X, JY], so
   E(Jx, y) - J E(x, y) = [Mx, y] - M[x, y].  Modulo the anticommutation
   rows, E(e_a, e_j) is then the sum over p of w_p E(e_S[p], e_j) and
   w_{m+p} J E(e_S[p], e_j).  The bracket rows of a pair (a, j) with a not
   in S follow from the kept pairs (S[p], j), unless w is nonzero at slot p
   or m + p for the p with S[p] = j: that would need the diagonal E(e_j, e_j),
   which is not in the system, so such a pair is kept.

The kept pairs are every (a, j) with a in S and j != a, plus those
exceptions; for the standard J they are the pairs (m + p, S[p]).  The row
space, and with it the canonical kernel basis, is unchanged, and the rows
span the skipped ones, so the substitution check is exactly as strong.  On
the benchmark's families the rows per job fall from 880 to 456 (conjugate
doubling, n = 12), 1516 to 778 (doubling, n = 14), 460 to 242 (doubling,
n = 10), 628 to 322 (center-one, n = 10) and 512 to 288 (dim4 scrambled,
n = 8; 400 to 224 on some inputs).

No row has i = j, and for a quasi-Kaehler flat pair none is needed, so the
equations hold for all x, y: taking x = y = e_i in identity 2,
(J_ii I - J) E(e_i, e_i) is minus the sum of J_ci E(e_c, e_i) over c != i,
modulo M; multiplying by -J, (I + J_ii J) E(e_i, e_i) is a combination of
off-diagonal rows modulo M, and I + J_ii J is invertible (its eigenvalues
are 1 ± i J_ii), so E(e_i, e_i) = 0 follows.

deformation_space and lie_derivative_direction take the splitting s of the
pair alone, as the predicates of acs do.
"""

from __future__ import annotations

from dataclasses import dataclass

# split is bound here too (perfbench/test_checks.py traces every binding of it)
from .acs import AlmostComplexStructure, ComplexSplitting, Verdict, is_qk_chern_flat, split  # noqa: F401
from .lie import LieAlgebra, is_two_step
from .linalg import ExactMatrix, NumeratorRow, kernel_from_rows, rank_of_rows
from .scalars import ZERO, accumulate_numerator, clear_denominators, gaussian

__all__ = [
    "DeformationSpace",
    "deformation_space",
    "satisfies_deformation_equations",
    "lie_derivative_direction",
]


def _kept_indices(s: ComplexSplitting) -> tuple:
    """(columns, pairs): the anticommutation columns and the bracket pairs whose rows span the system.

    columns is S = s.indices; pairs lists the ordered (a, j), a != j, in
    row-major order: every j for a in S, and for a not in S the j = S[p]
    where column a of R^-1 is nonzero at slot p or m + p.  The module
    docstring derives them; they span the full system only on a
    quasi-Kaehler Chern-flat pair.
    """
    n, m = s.dim, s.m
    columns = s.indices
    inv_cols = s._r_inv[1]
    in_s = set(columns)
    pairs = []
    for a in range(n):
        if a in in_s:
            pairs.extend((a, j) for j in range(n) if j != a)
        else:
            pairs.extend((a, j) for j in sorted({columns[t % m] for t, _ in inv_cols[a]}))
    return columns, pairs


def _equation_rows(s: ComplexSplitting):
    """Yield the kept sparse rows over the n^2 unknowns L_{rc} (row-major flattening).

    The rows are those of _kept_indices(s), anticommutation rows (a, b) then
    bracket rows (i, j, k), each in row-major order.  Both conditions are
    read from sparse numerator views: the nonzero entries of J over d_J
    (J.numerators()) and the table of g in every order over D
    (g.numerators()), full[i][j] = {k: c_ij^k} and into[j][k] = {r: c_rj^k}.
    So an anticommutation row is d_J times its equation and a bracket row D
    times its equation; each is a NumeratorRow.
    """
    n = s.dim
    _, full, into = s.g.numerators()
    _, by_row, by_col = s.acs.numerators()
    columns, pairs = _kept_indices(s)
    # anticommutation: (L J + J L)_{ab} = 0
    for a in range(n):
        for b in columns:
            row = NumeratorRow()
            for c, v in by_col[b]:
                accumulate_numerator(row, a * n + c, v, 0)
            for c, v in by_row[a]:
                accumulate_numerator(row, c * n + b, v, 0)
            if row:
                yield row
    # bracket condition: (L [e_i, e_j] + [L e_i, e_j])_k = 0
    for i, jdx in pairs:
        bij = full[i][jdx]
        for k in range(n):
            ck = into[jdx][k]
            if not bij and not ck:
                continue
            row = NumeratorRow()
            for c, (x, y) in bij.items():
                accumulate_numerator(row, k * n + c, x, y)
            for r, (x, y) in ck.items():
                accumulate_numerator(row, r * n + i, x, y)
            if row:
                yield row


def _inner_vectors(g: LieAlgebra) -> list:
    """The nonzero flattened ad_{e_i}, as sparse dicts in ascending key order.

    They are read from g.brackets in one pass, not from the views behind
    _equation_rows, so the substitution check compares two independent
    readings of the table: the pair (i, j) puts c_ij^k at key k n + j of
    ad_{e_i} and -c_ij^k at key k n + i of ad_{e_j}.
    """
    n = g.dim
    ads = [{} for _ in range(n)]
    for (i, j), vec in g.brackets.items():
        for k, c in vec.items():
            ads[i][k * n + j] = c
            ads[j][k * n + i] = -c
    return [dict(sorted(ad.items())) for ad in ads if ad]


def _checked_rows(rows, vectors: list):
    """Yield each numerator row after asserting that it vanishes on every vector.

    Each vector is scaled once by its own common denominator, so every sum
    runs on Gaussian-integer numerators.
    """
    # by_key[key] lists (vector index, re, im) of every vector entry at key
    by_key: dict = {}
    for t, vec in enumerate(vectors):
        _, re, im = clear_denominators(vec.values())
        for key, u, v in zip(vec, re, im):
            by_key.setdefault(key, []).append((t, u, v))
    for row in rows:
        acc_re = [0] * len(vectors)
        acc_im = [0] * len(vectors)
        for key, (x, y) in row.items():
            for t, u, v in by_key.get(key, ()):
                acc_re[t] += x * u - y * v
                acc_im[t] += x * v + y * u
        if any(acc_re) or any(acc_im):
            raise AssertionError("inner derivation fails the deformation equations")
        yield row


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
        n = self.n
        return [ExactMatrix([[gaussian(v[r * n + c]) for c in range(n)] for r in range(n)]) for v in self.kernel]


def deformation_space(s: ComplexSplitting) -> DeformationSpace:
    """Solve the deformation equations of the pair of s and quotient out inner directions.

    Requires a flat two-step pair; under that hypothesis every inner
    derivation solves the equations, which is verified by substitution
    before the quotient is taken.
    """
    if not is_qk_chern_flat(s):
        raise ValueError("deformation space requires a quasi-Kaehler flat pair")
    g = s.g
    if not is_two_step(g):
        raise ValueError("deformation space requires a two-step algebra")
    n = g.dim
    inner_vectors = _inner_vectors(g)
    kernel = kernel_from_rows(n * n, _checked_rows(_equation_rows(s), inner_vectors))
    inner_rank = rank_of_rows(n * n, inner_vectors)
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
    for a in range(n):
        for b in range(n):
            if anti.entry(a, b):
                return Verdict(False, ("anticommutation", a, b))
    for i in range(n):
        # column jdx is the sparse [L e_i, e_jdx]
        cols = g._ad_columns(l_mat.column(i))
        for jdx in range(n):
            if i == jdx:
                continue
            lhs = l_mat.matvec(g.basis_bracket(i, jdx))
            rhs = cols[jdx]
            if any(a + rhs.get(k, ZERO) for k, a in enumerate(lhs)):
                return Verdict(False, ("bracket", i, jdx))
    return Verdict(True)


def lie_derivative_direction(s: ComplexSplitting, x) -> ExactMatrix:
    """Deformation direction induced by flowing the structure of s along x.

    Equals -2 J ad_x; for a flat pair this coincides with ad applied to
    2 J x (asserted), hence is always an inner direction.
    """
    if not is_qk_chern_flat(s):
        raise ValueError("flow directions are computed for quasi-Kaehler flat pairs")
    g, acs = s.g, s.acs
    ad_x = g.ad(x)
    m = (acs.j * ad_x) * gaussian(-2)
    jx2 = [c + c for c in acs.apply(x)]
    if m != g.ad(jx2):
        raise AssertionError("flow direction is not the expected inner derivation")
    return m
