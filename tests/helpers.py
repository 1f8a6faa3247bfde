"""Shared random generators for the test suite (all seeded, all exact)."""

from fractions import Fraction
from itertools import combinations

from chernflat.acs import AlmostComplexStructure
from chernflat.constructions import conjugate_complexification
from chernflat.forms import HermitianMetric, InvariantForm
from chernflat.lie import LieAlgebra
from chernflat.linalg import ExactMatrix, inverse
from chernflat.scalars import GaussianRational, I, ONE, ZERO, gaussian


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
