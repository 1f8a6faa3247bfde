"""Infinitesimal deformations of a flat structure on a two-step algebra.

A deformation direction is a real matrix L subject to two exact linear
conditions: it anticommutes with the structure, LJ + JL = 0, and it kills
the bracket in the strong sense E(x, y) = L[x, y] + [Lx, y] = 0 for all
x, y (over ordered pairs this also gives L[x, y] + [x, Ly] = 0).

The trivial directions come from the algebra itself: for two-step flat pairs
every inner derivation satisfies both conditions, which this module checks
rather than assuming.  The reported quotient dimension counts essential
deformations modulo those.

The system is not eliminated row by row; on a quasi-Kaehler Chern-flat pair
its solution space has a closed form.  Write [Z_a, Z_b] = sum_k c_ab^k
conj Z_k for the holomorphic constants; the sector shape also gives
[Z_a, conj Z_b] = 0.  L anticommutes with J exactly when it swaps the
eigenspaces, L Z_a = sum_k A_ka conj Z_k for a complex m x m matrix A, and
E is bilinear and real, so E = 0 says E(Z_a, conj Z_b) = 0 and
E(Z_a, Z_b) = 0 for all a, b:

- E(Z_a, conj Z_b) = sum_k A_ka [conj Z_k, conj Z_b] has coefficient
  sum_k A_ka conj(c_kb^l) on Z_l, so every column of A lies in
  K = {x : sum_k x_k conj(c_kb^l) = 0 for all b, l};
- E(Z_a, Z_b) = sum_k c_ab^k L conj Z_k has coefficient sum_k c_ab^k
  conj(A_lk) on Z_l, so every row of A lies in
  W = {y : sum_k y_k conj(c_ab^k) = 0 for all a < b}.

So the solutions are A in K (x) W, of real dimension 2 dim K dim W, and two
eliminations on m columns find bases of K and W, on the numerator views of
s.holomorphic(), the same int views its closure check reads.

That closure check decides two-step-ness, and the lower central series is
not computed.  Under the sector shape [[g, g], g] is spanned by the
[[Z_a, Z_b], conj Z_k] and their conjugates, and the coefficient of that
bracket on Z_l is sum_r c_ab^r conj(c_rk^l), the K row (k, l) evaluated on
the bracket vector c_ab.  So [[g, g], g] = 0 exactly when every c_ab lies
in K, which is what the closure relations say.  s.holomorphic() checks them
(acs._closure_defect) when it builds the constants, and a failure raises
the two-step ValueError.  Jacobi implies them under the sector shape, so
the check guards the reading of the constants.

In the basis
R = [e_S, J e_S] of the splitting (S = s.indices) the matrix A = P + iQ is
L_R = [[P, -Q], [-Q, -P]], and L = R L_R R^-1.  For A = x w^T that is
a1 b1^T + a2 b2^T with a1 = R [x_r; -x_i], a2 = R [-x_i; -x_r],
b1 = R^-T [w_r; -w_i] and b2 = R^-T [w_i; w_r], and A = i x w^T is the
same with i x for x.  Every product runs on ints: the numerators of x and
w, d_J R from J.numerators() and d_R R^-1 from s._r_inv.

The kernel is reported in the basis kernel_from_rows would give for the
whole system, the reduced echelon basis of the solution space read with the
keys in reverse order.  So the solution matrices go to one Echelon over the
n^2 keys, key t entered as n^2 - 1 - t; each must raise its rank.  Each
inner direction ad_{e_i}, read on ints from g.brackets apart from the
constants, must then reduce to zero in that echelon, and its coordinates
in the basis are its entries on the pivot keys, whose rank (on the same
ints) is the inner rank.  Every ad_z solves the equations exactly when
[[g, g], g] = 0, so this membership is a second, independent reading of
two-step-ness.  The tests compare all of it with the full row system.

deformation_space and lie_derivative_direction take the splitting s of the
pair alone, as the predicates of acs do.
"""

from __future__ import annotations

from dataclasses import dataclass

# split is bound here too (perfbench/test_checks.py traces every binding of it)
from .acs import ComplexSplitting, is_qk_chern_flat, split  # noqa: F401
from .lie import LieAlgebra
from .linalg import Echelon, ExactMatrix, NumeratorRow, kernel_from_rows, rank_of_rows
from .scalars import clear_denominators, gaussian

__all__ = [
    "DeformationSpace",
    "deformation_space",
    "lie_derivative_direction",
]


def _tensor_factors(s: ComplexSplitting) -> tuple:
    """(K, W): bases of the column space K and the row space W of the module docstring.

    Both are eliminations on m columns of the numerator views (D, full,
    into) of c = s.holomorphic(): the K row (b, l) is conj(into[b][l]),
    {a: D conj(c_ab^l)}, and the W row (a, b) is conj(full[a][b]), one per
    nonzero pair a < b.  The closure relations are the check c ran when it
    was built; a failure there raises the two-step ValueError of
    deformation_space.  The caller has proved the sector shape.
    """
    try:
        c = s.holomorphic()
    except ValueError:
        raise ValueError("deformation space requires a two-step algebra") from None
    _, full, into = c._numerators
    k_rows = (NumeratorRow((a, (x, -y)) for a, (x, y) in row.items()) for col in into for row in col if row)
    w_rows = (NumeratorRow((l, (x, -y)) for l, (x, y) in full[a][b].items()) for a, b in c._rows)
    return kernel_from_rows(s.m, k_rows), kernel_from_rows(s.m, w_rows)


def _solution_rows(s: ComplexSplitting, k_basis: list, w_basis: list):
    """Yield L for A = x w^T and A = i x w^T, x in k_basis and w in w_basis, as NumeratorRows.

    L = a1 b1^T + a2 b2^T (module docstring) is built on ints, at the
    positive scale d_J d_R times the denominators of x and w: a1 and a2
    through the int columns of d_J R (d_J e_S[p], and the J column of S[p]
    from J.numerators()), b1 and b2 through d_R R^-T (s._r_inv).  Entry
    L_rc sits at key n^2 - 1 - (r n + c).
    """
    n, m = s.dim, s.m
    last = n * n - 1
    d_j, _, by_col = s.acs.numerators()
    inv_cols = s._r_inv[1]

    def through_r(u: list) -> list:
        out = [0] * n
        for p, idx in enumerate(s.indices):
            out[idx] += d_j * u[p]
            for r, v in by_col[idx]:
                out[r] += v * u[m + p]
        return out

    lefts = []
    for x in k_basis:
        _, re, im = clear_denominators(x)
        for xr, xi in ((re, im), ([-t for t in im], re)):  # x, then i x
            lefts.append((through_r(xr + [-t for t in xi]), through_r([-t for t in xi + xr])))
    rights = []
    for w in w_basis:
        _, re, im = clear_denominators(w)
        pair = (re + [-t for t in im], im + re)
        rights.append([[sum(x * u[t] for t, x in col) for col in inv_cols] for u in pair])
    for a1, a2 in lefts:
        for b1, b2 in rights:
            row = NumeratorRow()
            for r in range(n):
                if a1[r] or a2[r]:
                    for c in range(n):
                        v = a1[r] * b1[c] + a2[r] * b2[c]
                        if v:
                            row[last - r * n - c] = (v, 0)
            yield row


def _inner_vectors(g: LieAlgebra) -> list:
    """The nonzero flattened ad_{e_i}, D times over, as NumeratorRows keyed as _solution_rows keys.

    They are read from the i < j rows of g.brackets with one
    clear_denominators pass, not from g.numerators(), which the constants
    of the splitting come through, nor from the holomorphic constants behind
    _solution_rows, so the membership check compares two independent
    readings of the table.  D is the table's common denominator; the pair
    (i, j) puts D c_ij^k at entry (k, j) of ad_{e_i} and -D c_ij^k at entry
    (k, i) of ad_{e_j}, and entry (r, c) sits at key n^2 - 1 - (r n + c).
    """
    n = g.dim
    last = n * n - 1
    _, re, im = clear_denominators(c for vec in g.brackets.values() for c in vec.values())
    nums = zip(re, im)
    ads = [NumeratorRow() for _ in range(n)]
    for (i, j), vec in g.brackets.items():
        for k, (a, b) in zip(vec, nums):
            ads[i][last - k * n - j] = (a, b)
            ads[j][last - k * n - i] = (-a, -b)
    return [ad for ad in ads if ad]


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

    Requires a quasi-Kaehler flat two-step pair, checked in that order.
    Under the sector shape [[g, g], g] = 0 says exactly that every bracket
    vector c_ab lies in K, which is the closure check of s.holomorphic(),
    exact on Gaussian-integer numerators.
    Every inner derivation then solves the equations, which is verified by
    membership in the solution space before the quotient is taken; that
    membership is a second reading of [[g, g], g] = 0, from g.brackets.
    """
    if not is_qk_chern_flat(s):
        raise ValueError("deformation space requires a quasi-Kaehler flat pair")
    n = s.dim
    ech = Echelon(n * n)
    for row in _solution_rows(s, *_tensor_factors(s)):
        if not ech.add(row):
            raise AssertionError("deformation directions from K and W are dependent")
    inner_vectors = _inner_vectors(s.g)
    for vec in inner_vectors:
        # a vector in the span reduces to zero and leaves the echelon as it was
        if ech.add(vec):
            raise AssertionError("inner derivation fails the deformation equations")
    # the reduced basis with its keys read back, last pivot first, is the canonical kernel basis
    kernel = tuple(tuple(reversed(v)) for v in reversed(ech.basis()))
    # an inner vector's coordinates in that basis are its entries on the pivot keys
    free = ech.pivot_columns()
    coordinates = [NumeratorRow((t, vec[key]) for t, key in enumerate(free) if key in vec) for vec in inner_vectors]
    inner_rank = rank_of_rows(len(free), coordinates)
    return DeformationSpace(
        n=n,
        kernel=kernel,
        inner_rank=inner_rank,
        quotient_dimension=len(kernel) - inner_rank,
    )


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
