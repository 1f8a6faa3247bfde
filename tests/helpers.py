"""Shared random generators for the test suite (all seeded, all exact)."""

from fractions import Fraction
from itertools import combinations

from chernflat.acs import AlmostComplexStructure, Verdict
from chernflat.constructions import conjugate_complexification
from chernflat.forms import HermitianMetric, InvariantForm
from chernflat.lie import LieAlgebra
from chernflat.linalg import ExactMatrix, NumeratorRow, inverse
from chernflat.scalars import GaussianRational, I, ONE, ZERO, accumulate, clear_denominators, gaussian


def random_two_step_real_algebra(rng, max_dim=6, span=2):
    """Random real algebra whose generators bracket onto dedicated central slots.

    Two-step (or abelian for unlucky draws avoided by the retry) by
    construction: triple brackets always hit a central slot bracketing to 0.
    """
    while True:
        n = rng.randint(2, max_dim)
        q = rng.randint(1, max(1, n - 1) if n > 2 else 1)
        q = min(q, n - 1, 2)
        p = n - q
        brackets = {}
        for i in range(p):
            for j in range(i + 1, p):
                row = {}
                for k in range(p, n):
                    c = Fraction(rng.randint(-span, span))
                    if c:
                        row[k] = c
                if row:
                    brackets[(i, j)] = row
        if brackets:
            return LieAlgebra(n, brackets)


def random_doubled_pair(rng, max_dim=6, span=2):
    """Conjugate doubling of a random two-step real algebra."""
    return conjugate_complexification(random_two_step_real_algebra(rng, max_dim, span))


def transported_pair(g, acs, p):
    """The pair carried by x -> P x: [x, y]' = P[P^-1 x, P^-1 y], J' = P J P^-1."""
    n = g.dim
    p_inv = inverse(p)
    cols = [p_inv.column(a) for a in range(n)]
    brackets = {}
    for a in range(n):
        for b in range(a + 1, n):
            vec = {k: c for k, c in enumerate(p.matvec(g.bracket(cols[a], cols[b]))) if c}
            if vec:
                brackets[(a, b)] = vec
    return LieAlgebra(n, brackets), AlmostComplexStructure(p * acs.j * p_inv)


def real_basis(s) -> list:
    """The rational basis x_k = e_idx of a splitting, idx in s.indices, as coordinate tuples."""
    return [tuple(ONE if t == idx else ZERO for t in range(s.dim)) for idx in s.indices]


def combined_frame(s) -> ExactMatrix:
    """The frame (Z_1..Z_m, conj Z_1..conj Z_m) of a splitting, as matrix columns.

    Z_k = x_k - i J x_k is built from real_basis(s) and the dense matrix
    acs.j, apart from the splitting's own code.
    """
    holo = [[a - I * b for a, b in zip(x, s.acs.j.matvec(x))] for x in real_basis(s)]
    return ExactMatrix.from_columns(holo + [[c.conjugate() for c in z] for z in holo])


def oracle_signed_views(g) -> tuple:
    """(full, into): the table of g in every order, on its GaussianRational coefficients.

    full[i][j] is {k: c_ij^k} for every ordered pair, c_ji = -c_ij, and
    into[j][k] is {i: c_ij^k}; keys ascend.  Read from g.brackets, it is the
    oracle of the numerator views that LieAlgebra builds.
    """
    n = g.dim
    full = [[{} for _ in range(n)] for _ in range(n)]
    into = [[{} for _ in range(n)] for _ in range(n)]
    for (i, j), vec in sorted(g.brackets.items()):
        for k, c in sorted(vec.items()):
            full[i][j][k] = into[j][k][i] = c
            full[j][i][k] = into[i][k][j] = -c
    return full, into


def oracle_j_entries(acs) -> tuple:
    """(by_row, by_col): the nonzero entries of J, read from acs.j.

    by_row[r] lists the pairs (c, J_rc) and by_col[c] the pairs (r, J_rc),
    in ascending order, as GaussianRationals.
    """
    n = acs.dim
    by_row = [[(c, x) for c in range(n) if (x := acs.j.entry(r, c))] for r in range(n)]
    by_col = [[(r, x) for r in range(n) if (x := acs.j.entry(r, c))] for c in range(n)]
    return by_row, by_col


def oracle_equation_rows(g, acs) -> list:
    """The full deformation system over the n^2 unknowns L_rc, key r n + c, from dense loops.

    Every nonzero anticommutation row (L J + J L)_ab, row-major, then every
    nonzero bracket row (L [e_i, e_j] + [L e_i, e_j])_k with i != j, read
    through J.entry, basis_bracket and structure_constant; Q(i) dicts.
    """
    n = g.dim
    j = acs.j
    rows = []
    for a in range(n):
        for b in range(n):
            row: dict = {}
            for c in range(n):
                accumulate(row, a * n + c, j.entry(c, b))
            for c in range(n):
                accumulate(row, c * n + b, j.entry(a, c))
            if row:
                rows.append(row)
    for i in range(n):
        for jdx in range(n):
            if i == jdx:
                continue
            bij = g.basis_bracket(i, jdx)
            for k in range(n):
                row = {}
                for c in range(n):
                    accumulate(row, k * n + c, bij[c])
                for r in range(n):
                    accumulate(row, r * n + i, g.structure_constant(r, jdx, k))
                if row:
                    rows.append(row)
    return rows


def oracle_solution_matrices(s, k_basis, w_basis) -> list:
    """The flattened L = R L_R R^-1 for A = x w^T and A = i x w^T, from dense matrices.

    x runs over k_basis, then the factor 1 or i, then w over w_basis, the
    order in which deform yields its solution rows.  A = P + i Q gives
    L_R = [[P, -Q], [-Q, -P]] in the basis R = [e_S, J e_S] of real_basis(s),
    and R^-1 is a dense inverse.  Row-major tuples, key r n + c.
    """
    n, m = s.dim, s.m
    basis = real_basis(s)
    r = ExactMatrix.from_columns([*basis, *(s.acs.j.matvec(x) for x in basis)])
    r_inv = inverse(r)
    out = []
    for x in k_basis:
        for phase in (ONE, I):
            for w in w_basis:
                a = [[phase * x[k] * w[l] for l in range(m)] for k in range(m)]
                top = [[z.re for z in row] + [-z.im for z in row] for row in a]
                bottom = [[-z.im for z in row] + [-z.re for z in row] for row in a]
                l_mat = r * ExactMatrix(top + bottom) * r_inv
                out.append(tuple(l_mat.entry(i, j) for i in range(n) for j in range(n)))
    return out


def assert_solution_rows_scale_the_oracle(s, rows, k_basis, w_basis) -> list:
    """Check deform's int solution rows against oracle_solution_matrices and return the latter.

    Row t holds the entry L_rc at key n^2 - 1 - (r n + c) as (re, 0), and it
    is d_J d_R d_x d_w times the dense matrix t, with d_x and d_w the common
    denominators of its factors; so the key sets agree as well.
    """
    n = s.dim
    last = n * n - 1
    dense = oracle_solution_matrices(s, k_basis, w_basis)
    assert len(rows) == len(dense) == 2 * len(k_basis) * len(w_basis)
    scales = [
        s.acs.numerators()[0] * s._r_inv[0] * clear_denominators(x)[0] * clear_denominators(w)[0]
        for x in k_basis
        for _ in (ONE, I)
        for w in w_basis
    ]
    for row, mat, scale in zip(rows, dense, scales):
        assert type(row) is NumeratorRow and not any(im for _, im in row.values())
        assert {last - key: gaussian(re) for key, (re, _) in row.items()} == {
            key: c * scale for key, c in enumerate(mat) if c
        }
    return dense


def oracle_inner_vectors(g) -> list:
    """The nonzero flattened ad_{e_i}, in ascending i, from the dense basis_ad matrices.

    Row-major tuples, key r n + c.
    """
    n = g.dim
    out = []
    for i in range(n):
        mat = g.basis_ad(i)
        vec = tuple(mat.entry(r, c) for r in range(n) for c in range(n))
        if any(vec):
            out.append(vec)
    return out


def assert_inner_vectors_scale_the_oracle(g, vectors) -> list:
    """Check deform's int inner vectors against oracle_inner_vectors and return the latter.

    Vector t holds the entry (r, c) of the dense vector t at key
    n^2 - 1 - (r n + c) as (re, im), and it is D times the dense vector,
    with D the table's common denominator; so the key sets agree as well.
    """
    n = g.dim
    last = n * n - 1
    dense = oracle_inner_vectors(g)
    scale = g.numerators()[0]
    assert len(vectors) == len(dense)
    for vec, mat in zip(vectors, dense):
        assert type(vec) is NumeratorRow
        assert {last - key: GaussianRational(re, im) for key, (re, im) in vec.items()} == {
            key: c * scale for key, c in enumerate(mat) if c
        }
    return dense


def echelon_row(vec) -> NumeratorRow:
    """A dense Q(i) vector over the n^2 keys as deform enters it: key t at n^2 - 1 - t, on numerators."""
    last = len(vec) - 1
    _, re, im = clear_denominators(vec)
    return NumeratorRow((last - key, (a, b)) for key, (a, b) in enumerate(zip(re, im)) if a or b)


def satisfies_deformation_equations(g, acs, l_mat) -> Verdict:
    """Check one matrix against both deformation conditions, with witness.

    The dense oracle of deform: L J + J L = 0 entry by entry, then
    L [e_i, e_j] + [L e_i, e_j] = 0 for every ordered pair i != j, read
    through the sparse ad columns of L e_i and basis_bracket.
    """
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


def random_gaussian(rng, span=3):
    return GaussianRational(rng.randint(-span, span), rng.randint(-span, span))


def random_hermitian_metric(rng, m, span=2):
    """Exact positive-definite conjugate-symmetric matrix: A^H A + d I."""
    a = ExactMatrix(
        [[random_gaussian(rng, span) for _ in range(m)] for _ in range(m)]
    )
    h = a.conj_transpose() * a + ExactMatrix.identity(m) * gaussian(rng.randint(1, 3))
    return HermitianMetric(h)


def random_pure_form(rng, m, degree, p, terms=3):
    """Random form of pure bidegree (p, degree - p) on an m + m coframe."""
    q = degree - p
    holo = list(combinations(range(m), p))
    anti = list(combinations(range(m, 2 * m), q))
    coeffs = {}
    for _ in range(terms):
        key = tuple(sorted(rng.choice(holo) + rng.choice(anti)))
        c = random_gaussian(rng)
        if c:
            coeffs[key] = c
    return InvariantForm(m, m, degree, coeffs)
