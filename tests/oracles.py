"""Reference code the tests compare chernflat against, which nothing in src/ calls.

Each is a dense or second reading of something the library computes, a
checker of a claimed isomorphism, or a seeded generator of test pairs.  They
were library members whose only callers were tests, kept here as they were;
a former method takes its owner as the first argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from chernflat.acs import AlmostComplexStructure, ComplexSplitting, _sector_scan, is_qk_chern_flat
from chernflat.classify import _holomorphic_center_kernel
from chernflat.constructions import from_holomorphic_constants
from chernflat.deform import DeformationSpace
from chernflat.forms import InvariantForm, exterior_d
from chernflat.lie import LieAlgebra, Subspace, center, lower_central_series
from chernflat.linalg import ExactMatrix, det, rank
from chernflat.scalars import GaussianRational, I, ZERO, gaussian


def matvec(mat: ExactMatrix, vec: Sequence) -> tuple:
    v = [gaussian(x) for x in vec]
    if len(v) != mat.cols:
        raise ValueError("vector length mismatch in matvec")
    out = []
    for i in range(mat.rows):
        acc = ZERO
        row = mat.row(i)
        for k in range(mat.cols):
            if row[k] and v[k]:
                acc = acc + row[k] * v[k]
        out.append(acc)
    return tuple(out)


def basis_bracket(g: LieAlgebra, i: int, j: int) -> tuple:
    """[e_i, e_j] as a coordinate tuple."""
    return tuple(g.structure_constant(i, j, k) for k in range(g.dim))


def bracket(g: LieAlgebra, x: Sequence, y: Sequence) -> tuple:
    """Bilinear extension of the bracket to coordinate vectors."""
    xv = [gaussian(a) for a in x]
    yv = [gaussian(a) for a in y]
    if len(xv) != g.dim or len(yv) != g.dim:
        raise ValueError("vector length must match the algebra dimension")
    out = [ZERO] * g.dim
    for (i, j), vec in g.brackets.items():
        coeff = xv[i] * yv[j] - xv[j] * yv[i]
        if coeff:
            for k, c in vec.items():
                out[k] = out[k] + coeff * c
    return tuple(out)


def derived_subalgebra(g: LieAlgebra) -> Subspace:
    return lower_central_series(g)[1]


def apply_j(acs: AlmostComplexStructure, v) -> tuple:
    """J v, summed over the nonzero entries of J only, with the int multipliers d_J J_rc."""
    v = [gaussian(x) for x in v]
    d, by_row, _ = acs.numerators()
    if len(v) != len(by_row):
        raise ValueError("vector length mismatch in matvec")
    out = tuple(sum((v[c] * x for c, x in row if v[c]), ZERO) for row in by_row)
    if d > 1:
        scale = Fraction(1, d)
        out = tuple(z * scale for z in out)
    return out


def to_combined(s: ComplexSplitting, v) -> tuple:
    """Coordinates of a (complexified) vector in the combined frame.

    They are (1/2) [[I, iI], [I, -iI]] applied to the R-coordinates
    w = R^-1 v, summed over the int columns of d_R R^-1 and divided
    once by 2 d_R.
    """
    d_r, inv_cols = s._r_inv
    if len(v) != len(inv_cols):
        raise ValueError("vector length mismatch in to_combined")
    w = [ZERO] * len(inv_cols)
    for x, col in zip(map(gaussian, v), inv_cols):
        if x:
            for t, u in col:
                w[t] = w[t] + x * u
    m = s.m
    scale = Fraction(1, 2 * d_r)
    top = tuple((w[k] + I * w[m + k]) * scale for k in range(m))
    return top + tuple((w[k] - I * w[m + k]) * scale for k in range(m))


def bidegrees(f: InvariantForm) -> set:
    return {f.key_bidegree(k) for k in f.coeffs}


def pure_bidegree(f: InvariantForm) -> tuple:
    degs = bidegrees(f)
    if len(degs) > 1:
        raise ValueError(f"form mixes bidegrees {sorted(degs)}")
    if not degs:
        return (f.degree, 0) if f.mbar == 0 else None
    return next(iter(degs))


def evaluate(f: InvariantForm, vectors: Sequence[Sequence]) -> GaussianRational:
    """Evaluate f on vectors given in the coframe's dual-basis coordinates."""
    if len(vectors) != f.degree:
        raise ValueError("need exactly degree-many vectors")
    vecs = [[gaussian(c) for c in v] for v in vectors]
    total = ZERO
    for key, coeff in f.coeffs.items():
        minor = ExactMatrix([[vecs[t][idx] for t in range(len(vecs))] for idx in key])
        d = det(minor)
        if d:
            total = total + coeff * d
    return total


def two_form_from_skew_matrix(mat: ExactMatrix, m: int, mbar: int = 0) -> InvariantForm:
    """Sum of mat[i][j] theta^i ^ theta^j over i < j.

    With mbar = 0 the coframe is an abstract coordinate one, and the form is
    nondegenerate exactly when its top wedge power is nonzero.
    """
    if not mat.is_square() or mat.rows != m + mbar:
        raise ValueError("matrix size must match the coframe")
    out = {}
    for i in range(mat.rows):
        for j in range(i + 1, mat.rows):
            v = mat.entry(i, j)
            if v:
                out[(i, j)] = v
    return InvariantForm(m, mbar, 2, out)


_TYPE_SHIFTS = {
    "A": (2, -1),
    "del": (1, 0),
    "delbar": (0, 1),
    "Abar": (-1, 2),
}


def type_components(s: ComplexSplitting, f: InvariantForm, which: str) -> InvariantForm:
    """One graded piece (A, del, delbar, Abar) of the differential of a pure form."""
    if which not in _TYPE_SHIFTS:
        raise ValueError(f"unknown graded piece {which!r}; expected one of {sorted(_TYPE_SHIFTS)}")
    bideg = pure_bidegree(f)
    df = exterior_d(s, f)
    if bideg is None:
        return df
    dp, dq = _TYPE_SHIFTS[which]
    p, q = bideg[0] + dp, bideg[1] + dq
    if p < 0 or q < 0:
        return InvariantForm.zero(f.m, f.mbar, df.degree)
    return df.component(p, q)


def real_coframe_coefficients(s: ComplexSplitting, f: InvariantForm, basis: Sequence[Sequence]) -> dict:
    """Coefficients of f in the dual coframe of the given real basis.

    Returns {increasing index tuple: value} with zero entries omitted; for a
    2-form the (a, b) entry is just f evaluated on (basis[a], basis[b]).
    """
    coords = [to_combined(s, v) for v in basis]
    out = {}
    for key in combinations(range(len(basis)), f.degree):
        value = evaluate(f, [coords[t] for t in key])
        if value:
            out[key] = value
    return out


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
    if rank(phi) != phi.rows:
        raise ValueError("candidate map is singular")
    n = g1.dim
    cols = [phi.column(k) for k in range(n)]
    bracket_ok = True
    witness = None
    for i in range(n):
        for j in range(i + 1, n):
            lhs = matvec(phi, basis_bracket(g1, i, j))
            rhs = bracket(g2, cols[i], cols[j])
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


def _intersection_dim(basis1, basis2) -> int:
    """dim (U meet V) = dim U + dim V - dim (U + V), for bases of U and V."""
    if not basis1 or not basis2:
        return 0
    return len(basis1) + len(basis2) - Subspace(len(basis1[0]), [*basis1, *basis2]).dim


def complex_center_dimension(s: ComplexSplitting) -> int:
    """Complex dimension of the center's holomorphic part.

    Computed from the holomorphic-frame kernel and cross-checked against the
    real center intersected with its image under the structure; the two
    methods must agree.  Raises SectorShapeError without the quasi-Kaehler
    sector shape.
    """
    kern = _holomorphic_center_kernel(s.holomorphic())
    z_real = center(s.g)
    j_images = [apply_j(s.acs, v) for v in z_real.basis]
    inter = _intersection_dim(z_real.basis, j_images)
    if 2 * len(kern) != inter:
        raise AssertionError("holomorphic and real center computations disagree")
    return len(kern)


@dataclass(frozen=True)
class Fingerprint:
    """Frame-independent invariants of a pair (g, J)."""

    dim: int
    center_dim: int
    derived_dim: int
    lower_central_dims: tuple
    center_meet_derived: int
    complex_center_dim: Optional[int]
    qk_sectors: bool
    torsion_free: bool


def fingerprint(s: ComplexSplitting) -> Fingerprint:
    """Invariants of the pair of s preserved by J-equivariant isomorphisms.

    complex_center_dim is None without the quasi-Kaehler sector shape.
    """
    g = s.g
    z = center(g)
    d = derived_subalgebra(g)
    series = lower_central_series(g)
    qk = bool(s.sector_relations_qk())
    return Fingerprint(
        g.dim,
        z.dim,
        d.dim,
        tuple(t.dim for t in series),
        _intersection_dim(z.basis, d.basis),
        complex_center_dimension(s) if qk else None,
        qk,
        not _sector_scan(s)[2],
    )


def deformation_matrices(space: DeformationSpace) -> list:
    """The kernel vectors of space as n x n matrices."""
    n = space.n
    return [ExactMatrix([[gaussian(v[r * n + c]) for c in range(n)] for r in range(n)]) for v in space.kernel]


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
    jx2 = [c + c for c in apply_j(acs, x)]
    if m != g.ad(jx2):
        raise AssertionError("flow direction is not the expected inner derivation")
    return m
