"""Almost complex structures and the eigenspace splitting of the bracket.

An almost complex structure J (rational matrix with J^2 = -I) splits the
complexification of the algebra into +i and -i eigenspaces.  The splitting
carries the complexified structure constants organized by type sector, which
drives every flatness criterion in this package.  Each criterion that admits
two independent characterizations evaluates both and insists they agree; a
disagreement raises immediately instead of returning a guess.

Every predicate on a pair takes its splitting s = split(g, acs) alone and
reads g and J as s.g and s.acs, so what one keeps on s the others reuse.

Under the quasi-Kaehler sector shape the pair is determined by its
holomorphic constants.  They have one type, AdaptedConstants, which a
splitting builds once (ComplexSplitting.holomorphic) and which frame
changes (reframed_constants) and the normal forms read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping, Optional

from .lie import LieAlgebra, Subspace, _clean_brackets, _numerator_views, center, is_two_step
from .linalg import Echelon, ExactMatrix, NumeratorRow, inverse
from .scalars import GaussianRational, I, ONE, ZERO, accumulate, clear_denominators, gaussian

__all__ = [
    "AdaptedConstants",
    "AlmostComplexStructure",
    "ComplexSplitting",
    "JSquareError",
    "SectorShapeError",
    "Verdict",
    "split",
    "nijenhuis",
    "is_chern_flat",
    "is_qk_chern_flat",
    "check_center_j_invariant",
    "two_step_certificate",
    "reframed_constants",
]


class JSquareError(ValueError):
    """A square rational matrix of even size whose square is not -I."""


class AlmostComplexStructure:
    """A rational matrix J with J^2 = -I acting on a real algebra.

    Besides the matrix j, the constructor keeps one sparse layout of it,
    numerators(), and proves J^2 = -I exactly on that layout, one row at a
    time over the nonzero entries only: row r of (d_J J)^2 is the sum of
    d_J J_rc times row c of d_J J, and it must equal -d_J^2 e_r.  It raises
    JSquareError when that fails.
    """

    __slots__ = ("j", "_numerators")

    def __init__(self, j: ExactMatrix):
        if not j.is_square():
            raise ValueError("J must be square")
        if j.rows % 2 != 0:
            raise ValueError("J needs even dimension")
        if not j.is_real():
            raise ValueError("J must have rational entries")
        n = j.rows
        d, nums, _ = clear_denominators(x for r in range(n) for x in j.row(r))
        by_row = [[(c, v) for c, v in enumerate(nums[r * n : (r + 1) * n]) if v] for r in range(n)]
        by_col = [[] for _ in range(n)]
        for r, row in enumerate(by_row):
            for c, v in row:
                by_col[c].append((r, v))
        minus_dd = -d * d
        for r, row in enumerate(by_row):
            square: dict = {}
            for c, x in row:
                for k, y in by_row[c]:
                    square[k] = square.get(k, 0) + x * y
            if {k: v for k, v in square.items() if v} != {r: minus_dd}:
                raise JSquareError("J^2 = -I fails")
        self.j = j
        self._numerators = (d, by_row, by_col)

    @property
    def dim(self) -> int:
        return self.j.rows

    def numerators(self) -> tuple:
        """(d_J, by_row, by_col): the nonzero entries of J as ints over d_J, built by the constructor.

        d_J is the least common denominator of J; by_row[r] lists the pairs
        (c, d_J J_rc) and by_col[c] the pairs (r, d_J J_rc), both in
        ascending order.  Read-only: every caller shares them.
        """
        return self._numerators

    def apply(self, v) -> tuple:
        """J v, summed over the nonzero entries of J only, with the int multipliers d_J J_rc."""
        v = [gaussian(x) for x in v]
        d, by_row, _ = self._numerators
        if len(v) != len(by_row):
            raise ValueError("vector length mismatch in matvec")
        out = tuple(sum((v[c] * x for c, x in row if v[c]), ZERO) for row in by_row)
        if d > 1:
            scale = Fraction(1, d)
            out = tuple(z * scale for z in out)
        return out

    @classmethod
    def standard(cls, n: int) -> "AlmostComplexStructure":
        """Block structure sending e_k to e_{k+n/2} for k < n/2."""
        if n % 2 != 0:
            raise ValueError("standard structure needs even dimension")
        m = n // 2
        cols = [[ONE if r == m + k else ZERO for r in range(n)] for k in range(m)]
        cols += [[-ONE if r == k else ZERO for r in range(n)] for k in range(m)]
        return cls(ExactMatrix.from_columns(cols))

    def __eq__(self, other):
        if not isinstance(other, AlmostComplexStructure):
            return NotImplemented
        return self.j == other.j

    def __repr__(self):
        return f"AlmostComplexStructure(dim={self.dim})"


@dataclass(frozen=True)
class Verdict:
    """Boolean outcome plus a witness locating the first failure."""

    ok: bool
    witness: object = None

    def __bool__(self) -> bool:
        return self.ok


class SectorShapeError(ValueError):
    """A pair without the quasi-Kaehler sector shape; witness locates the failure."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"adapted constants need the quasi-Kaehler sector shape; witness {witness}")


class ComplexSplitting:
    """Eigenspace data of (g, J): frames, sectors, complexified constants.

    The +i eigenvectors are Z_k = x_k - i J x_k for a deterministic rational
    basis {x_k} chosen greedily so that R = [x_1..x_m, J x_1..J x_m] is a real
    basis.  The combined frame is (Z_1..Z_m, conj Z_1..conj Z_m) =
    R [[I, I], [-iI, iI]], so its inverse is (1/2) [[I, iI], [I, -iI]] R^-1 and
    only the rational R is inverted.  The structure constants are the sparse
    table {(alpha, beta): {gamma: c}} of the brackets of combined frame
    vectors, as in g.brackets: alpha < beta in ascending order, gamma
    ascending within a row, no zero value and no empty row.

    They are a change of basis of the real structure tensor: B_pq =
    R^-1 [R_p, R_q] is contracted from the sparse bracket table on ints (the
    numerators of the table, of d_J R and of R^-1), each bracket of the frame
    is a combination of four B_pq, and the (0,1)x(0,1) block is the conjugate
    of the (1,0)x(1,0) block.  The contraction reads the table's numerators,
    never the integer sweep behind the real-basis checks (_ad_j_basis), so
    the two sides of every cross-check evaluate brackets by independent code.

    The algebra is real, so every imaginary part of g.numerators() is 0.
    The splitting keeps one int view of the table, _real: _real[i][j] is
    {k: D c_ij^k} over the denominator D of g.numerators(), for every
    ordered pair, keys ascending as in the full view.  The contraction and
    every real-basis predicate read it; (re, im) pairs are built only for
    the rows handed to Echelon.

    The splitting keeps indices, the greedily chosen idx with x_k = e_idx
    (ascending), and R^-1 only as ints: _r_inv is (d_R, inv_cols), where
    inv_cols[k] lists the nonzero (t, d_R (R^-1)_tk) of column k, ascending
    in t, and d_R is the least common denominator of R^-1.  It is read off
    one elimination over the int columns of d_J R; to_combined and the
    deformation solution matrices read it too.
    """

    __slots__ = (
        "g", "acs", "m", "indices", "constants", "_r_inv", "_real",
        "_dtheta", "_ad_j", "_sectors", "_chern_flat", "_holomorphic",
    )

    def __init__(self, g: LieAlgebra, acs: AlmostComplexStructure):
        if g.field != "Q":
            raise ValueError("splitting requires a real (field 'Q') algebra")
        if acs.dim != g.dim:
            raise ValueError("J dimension does not match the algebra")
        n = g.dim
        m = n // 2
        d_j, _, by_col = acs.numerators()
        ech = Echelon(n)
        indices = []
        for idx in range(n):
            if len(indices) == m:
                break
            if not ech.add(NumeratorRow({idx: (1, 0)})):
                continue
            # J e_idx is column idx of J, d_J times it is a numerator row
            if not ech.add(NumeratorRow({r: (v, 0) for r, v in by_col[idx]})):
                raise AssertionError("greedy eigenbasis extension failed; J is not a complex structure on Q^n")
            indices.append(idx)
        if len(indices) != m:
            raise AssertionError("could not complete an adapted real basis")

        # for Z = x - i J x, J Z = i Z says exactly J (J x) = -x; here at scale d_J^2
        minus_dd = -d_j * d_j
        if any(_add_j_image({}, by_col, dict(by_col[idx])) != {idx: minus_dd} for idx in indices):
            raise AssertionError("eigenvector check failed: J Z != i Z")

        # R = [e_idx.., J e_idx..]: d_J R has int columns, and R^-1 is read over its lcm d_R
        cols = [[(idx, d_j)] for idx in indices] + [by_col[idx] for idx in indices]
        # one Gauss-Jordan pass over d_J [R^T | I] gives [I | R^-T]: the reduced row at
        # pivot k is d_k (e_k, column k of R^-1) with content one, so lcm d_k is d_R
        inv = Echelon(2 * n)
        for p, col in enumerate(cols):
            inv.add(NumeratorRow([*((i, (v, 0)) for i, v in col), (n + p, (d_j, 0))]))
        pivot_rows = inv.numerator_basis()
        d_r = lcm(*(row[k][0] for k, row in enumerate(pivot_rows)))
        inv_cols = [
            sorted((t - n, a * (d_r // row[k][0])) for t, (a, _) in row.items() if t >= n)
            for k, row in enumerate(pivot_rows)
        ]

        denom, numerators, _ = g.numerators()
        self.g = g
        self.acs = acs
        self.m = m
        self.indices = tuple(indices)
        self._r_inv = (d_r, inv_cols)
        self._real = [[{k: x for k, (x, _) in vec.items()} for vec in row] for row in numerators]
        self._dtheta = None
        self._ad_j = None
        self._sectors = None
        self._chern_flat = None
        self._holomorphic = None
        self.constants = _frame_constants(self._real, cols, inv_cols, d_j * d_j * d_r * denom)

    # -- frame bookkeeping ---------------------------------------------------

    @property
    def dim(self) -> int:
        return self.g.dim

    def to_combined(self, v) -> tuple:
        """Coordinates of a (complexified) vector in the combined frame.

        They are (1/2) [[I, iI], [I, -iI]] applied to the R-coordinates
        w = R^-1 v, summed over the int columns of d_R R^-1 and divided
        once by 2 d_R.
        """
        d_r, inv_cols = self._r_inv
        if len(v) != len(inv_cols):
            raise ValueError("vector length mismatch in to_combined")
        w = [ZERO] * len(inv_cols)
        for x, col in zip(map(gaussian, v), inv_cols):
            if x:
                for t, u in col:
                    w[t] = w[t] + x * u
        m = self.m
        scale = Fraction(1, 2 * d_r)
        top = tuple((w[k] + I * w[m + k]) * scale for k in range(m))
        return top + tuple((w[k] - I * w[m + k]) * scale for k in range(m))

    # -- sector views --------------------------------------------------------

    def sector_relations_qk(self) -> Verdict:
        """Mixed sector vanishes and (1,0)x(1,0) brackets land in (0,1)."""
        mixed, holomorphic, _ = _sector_scan(self)
        return Verdict(mixed is None and holomorphic is None, mixed or holomorphic)

    def holomorphic(self) -> "AdaptedConstants":
        """The holomorphic constants of the pair, built on the first call and kept.

        Raises SectorShapeError without the quasi-Kaehler sector shape; the
        AdaptedConstants constructor checks the closure relations.
        """
        if self._holomorphic is None:
            qk = self.sector_relations_qk()
            if not qk:
                raise SectorShapeError(qk.witness)
            self._holomorphic = AdaptedConstants(self.m, _holomorphic_table(self))
        return self._holomorphic


def _holomorphic_table(s: ComplexSplitting) -> dict:
    """{(a, b): {k: c_ab^k}}, a < b < m, with [Z_a, Z_b] = sum_k c_ab^k conj Z_k, read off s.constants.

    Only for a pair with the quasi-Kaehler sector shape, which leaves
    [Z_a, Z_b] only conj Z_k keys, k + m; nothing here checks it.
    """
    m = s.m
    return {(a, b): {k - m: c for k, c in row.items()} for (a, b), row in s.constants.items() if b < m}


def _sector_scan(s: ComplexSplitting) -> tuple:
    """(mixed, holomorphic, torsion) from one pass over s.constants, kept on s.

    mixed is the witness ("mixed-bracket", a, b) of the first [Z_a, conj Z_b]
    != 0 and holomorphic the witness ("holomorphic-component", a, b) of the
    first a < b with a (1,0)-component in [Z_a, Z_b], or None; torsion is
    whether some [Z_a, Z_b] has a (0,1)-component.  Pairs ascend, so "first"
    is row-major order; keys ascend within a row, so its first key tells
    whether it has a (1,0)-component and its last key whether it has a
    (0,1)-component.
    """
    if s._sectors is None:
        m = s.m
        mixed = holomorphic = None
        torsion = False
        for (alpha, beta), row in s.constants.items():
            if beta < m:
                if holomorphic is None and next(iter(row)) < m:
                    holomorphic = ("holomorphic-component", alpha, beta)
                torsion = torsion or next(reversed(row)) >= m
            elif alpha < m and mixed is None:
                mixed = ("mixed-bracket", alpha, beta - m)
        s._sectors = (mixed, holomorphic, torsion)
    return s._sectors


def _frame_constants(full: list, cols: list, inv_cols: list, scale: int) -> dict:
    """Sparse constants {(alpha, beta): {gamma: c}} of the combined frame of R = [x, J x].

    full is the splitting's int view of the table, D times the constants
    over their denominator D.  cols[p] lists the nonzero (i, t R_ip) of
    column p of R and inv_cols[k] the nonzero (s, u (R^-1)_sk), both ints,
    with scale = t^2 u D.  B_pq = R^-1 [R_p, R_q] is _change_basis of full;
    on these columns it gives scale B_pq.  Then [Z_a, Z_b] = B(a,b) -
    B(m+a,m+b) - i (B(a,m+b) + B(m+a,b)) and [Z_a, conj Z_b] = B(a,b) +
    B(m+a,m+b) + i (B(a,m+b) - B(m+a,b)), with B_qp = -B_pq.  An R-coordinate
    vector w has coefficient (w_k + i w_{m+k}) / 2 on Z_k and
    (w_k - i w_{m+k}) / 2 on conj Z_k, so every coefficient is one int sum
    divided once, by 2 scale.  The algebra is real, so [conj Z_a, conj Z_b]
    is the conjugate of [Z_a, Z_b] with key k moved to (k + m) mod 2m.
    Pairs and keys ascend, and zero values and empty rows are dropped.
    """
    n = len(cols)
    m = n // 2
    # ints throughout, divided once per coefficient: the splitting is verify's largest layer
    divisor = 2 * scale
    real = _change_basis(full, cols, inv_cols)

    def combination(*terms) -> dict:
        """The sum of sign * B_pq over terms (sign, p, q)."""
        acc = {}
        for sign, p, q in terms:
            if p > q:
                p, q, sign = q, p, -sign
            # B_pp = 0, and _change_basis drops zero rows
            for s, v in real.get((p, q), {}).items():
                acc[s] = acc.get(s, 0) + v if sign > 0 else acc.get(s, 0) - v
        return acc

    def in_frame(re: dict, im: dict) -> dict:
        """Sparse combined-frame coordinates of the R-coordinate vector (re + i im) / scale."""
        top, bottom = {}, {}
        for k in range(m):
            a, b = re.get(k, 0), im.get(k, 0)
            c, d = re.get(m + k, 0), im.get(m + k, 0)
            if a - d or b + c:
                top[k] = GaussianRational(Fraction(a - d, divisor), Fraction(b + c, divisor))
            if a + d or b - c:
                bottom[m + k] = GaussianRational(Fraction(a + d, divisor), Fraction(b - c, divisor))
        return {**top, **bottom}

    constants = {}
    for alpha in range(n):
        for beta in range(alpha + 1, n):
            if beta < m:
                a, b = alpha, beta
                row = in_frame(
                    combination((1, a, b), (-1, m + a, m + b)),
                    combination((-1, a, m + b), (-1, m + a, b)),
                )
            elif alpha < m:
                a, b = alpha, beta - m
                row = in_frame(
                    combination((1, a, b), (1, m + a, m + b)),
                    combination((1, a, m + b), (-1, m + a, b)),
                )
            else:
                holo = constants.get((alpha - m, beta - m), {})
                row = {k - m: z.conjugate() for k, z in holo.items() if k >= m}
                row.update((k + m, z.conjugate()) for k, z in holo.items() if k < m)
            if row:
                constants[(alpha, beta)] = row
    return constants


def _change_basis(full: list, cols: list, inv_cols: list) -> dict:
    """{(p, q): {s: sum_k G_sk sum_{i,j} F_ip F_jq full[i][j][k]}} for p < q.

    full[i][j] is the sparse signed bracket {k: c_ij^k}, cols[p] lists the
    nonzero (i, F_ip) of column p of the new frame F and inv_cols[k] the
    nonzero (s, G_sk) of column k of G, the inverse of the frame the images
    are expressed in.  Pairs come in ascending order, keys ascend within a
    row, and zero entries and rows are dropped.  It serves the splitting (on
    ints) and reframed_constants (on Q(i)).
    """
    out = {}
    for p, col_p in enumerate(cols):
        for q in range(p + 1, len(cols)):
            image: dict = {}
            for i, a in col_p:
                for j, b in cols[q]:
                    ab = a * b
                    for k, c in full[i][j].items():
                        accumulate(image, k, ab * c)
            vec: dict = {}
            for k, v in image.items():
                for s, x in inv_cols[k]:
                    accumulate(vec, s, x * v)
            if vec:
                out[(p, q)] = dict(sorted(vec.items()))
    return out


def split(g: LieAlgebra, acs: AlmostComplexStructure) -> ComplexSplitting:
    """Split the complexified algebra into J-eigenspaces."""
    return ComplexSplitting(g, acs)


def _closure_defect(c: "AdaptedConstants") -> Optional[tuple]:
    """First (i, j, k, l) with sum_r c_ij^rbar conj(c_rk^lbar) != 0, else None.

    The (i, j) run over the nonzero rows of c in table order, then k
    ascends, and l is the smallest index with a nonzero sum.  The sum is the
    coefficient of Z_l in [[Z_i, Z_j], conj Z_k].  Under the quasi-Kaehler
    sector shape it is the whole Jacobi sum of that triple, and its vanishing
    for all indices says [[g, g], g] = 0.  It is the conjugate of
    sum_r conj(c_ij^rbar) c_rk^lbar, which is what the sparse rows give.

    It runs on the full view of c._numerators, D times the constants, so
    each sum is D^2 times its value and only its zero set is read.  It is
    the one evaluation of the closure relations: s.holomorphic() runs it
    once per splitting, and deform and two_step_certificate read its
    outcome there.
    """
    _, full, _ = c._numerators
    # an r with c_rk = 0 for every k adds nothing to any sum
    live = [any(row) for row in full]
    for i, j in c._rows:
        conj_row = [(r, x, -y) for r, (x, y) in full[i][j].items() if live[r]]
        if not conj_row:
            continue
        for k in range(c.m):
            re: dict = {}
            im: dict = {}
            for r, x, y in conj_row:
                for l, (u, v) in full[r][k].items():
                    re[l] = re.get(l, 0) + x * u - y * v
                    im[l] = im.get(l, 0) + x * v + y * u
            bad = [l for l in re if re[l] or im[l]]
            if bad:
                return (i, j, k, min(bad))
    return None


class AdaptedConstants:
    """Holomorphic-sector structure constants, detached from the real algebra.

    For a pair with the quasi-Kaehler sector shape the only nonzero constants
    are the coefficients of [Z_i, Z_j] on the conjugate frame, so this table
    determines the pair completely.  It is the one input type of frame
    changes (reframed_constants) and normal-form reductions, which keeps
    repeated reframing loops cheap: no doubled real algebra is rebuilt along
    the way.  A splitting gives its constants through
    ComplexSplitting.holomorphic().

    The quadratic closure relations (the Jacobi identity specialized to this
    shape) are enforced eagerly; tables violating them are rejected.

    The table is kept sparse, with no zero coefficient: _rows is the
    validated {(i, j): {k: coeff}}, and _numerators is (D, full, into), its
    views on Gaussian-integer numerators, laid out as LieAlgebra.numerators()
    lays out a bracket table: full[i][j] is {k: D c_ij^kbar} for every
    ordered pair and into[j][k] is {i: D c_ij^kbar}.  The closure check,
    the center kernel of classify and the K and W rows of deform read them.
    """

    __slots__ = ("m", "_rows", "_numerators")

    def __init__(self, m: int, table: Mapping):
        self._fill(m, _clean_brackets(m, table))
        bad = _closure_defect(self)
        if bad is not None:
            raise ValueError(
                "constants violate the quadratic closure relations at "
                f"(i, j, k, l) = {bad}; no Lie algebra has this adapted table"
            )

    def _fill(self, m: int, rows: dict):
        """Keep the validated rows {(i, j): {k: coeff}} and their numerator views."""
        self.m = m
        self._rows = rows
        self._numerators = _numerator_views(m, rows)

    def table(self) -> dict:
        """Plain {(i, j): {k: coeff}} copy of the nonzero constants."""
        return {pair: dict(row) for pair, row in self._rows.items()}

    def __eq__(self, other):
        if not isinstance(other, AdaptedConstants):
            return NotImplemented
        return self.m == other.m and self._rows == other._rows

    def __repr__(self):
        return f"AdaptedConstants(m={self.m}, nonzero_pairs={len(self._rows)})"


def _ad_j_basis(s: ComplexSplitting) -> list:
    """The columns of ad_{J e_i} on numerators: entry [i][j] is d_J D [J e_i, e_j].

    d_J and D are the denominators of J.numerators() and g.numerators().
    Each column is a sparse dict {r: x} of ints with no zero value.  One
    integer sweep over the i < j half of the splitting's int view builds
    them all: [J e_i, e_b] is the sum of J_ai [e_a, e_b], so the pair (a, b),
    a < b, adds J_ai c_ab to column b of ad_{J e_i} and -J_bi c_ab to column
    a.  The sweep does its own negation, and the checks compare it with the
    int view, both halves.  Built once per splitting and kept on it.
    """
    if s._ad_j is None:
        n = s.dim
        full = s._real
        by_row = s.acs.numerators()[1]
        ad_j = [[{} for _ in range(n)] for _ in range(n)]
        for a in range(n):
            for b in range(a + 1, n):
                vec = full[a][b]
                if vec:
                    for i, v in by_row[a]:
                        _add_multiple(ad_j[i][b], v, vec)
                    for i, v in by_row[b]:
                        _add_multiple(ad_j[i][a], -v, vec)
        s._ad_j = ad_j
    return s._ad_j


def _add_multiple(acc: dict, v: int, vec: dict) -> dict:
    """Add v vec into acc, for an int v and an int dict vec {k: x}; returns acc."""
    for k, x in vec.items():
        accumulate(acc, k, v * x)
    return acc


def _add_j_image(acc: dict, by_col: list, vec: dict) -> dict:
    """Add J vec into acc on numerators, for by_col from J.numerators(); returns acc.

    vec and acc are int dicts {k: x}; with vec at scale t, the image is at
    scale d_J t.
    """
    for k, x in vec.items():
        for r, v in by_col[k]:
            accumulate(acc, r, v * x)
    return acc


def nijenhuis(s: ComplexSplitting) -> dict:
    """Nijenhuis tensor values N(e_i, e_j) for i < j; empty dict means zero.

    N(X,Y) = [JX, JY] - [X, Y] - J[JX, Y] - J[X, JY].  Vanishing is
    cross-checked against the splitting criterion ([10-sector brackets stay in
    the +i eigenspace]); disagreement raises.

    Every term is summed on numerators at the one scale d_J^2 D, and only the
    nonzero values are divided by it.
    """
    n = s.dim
    full = s._real
    d_j, _, by_col = s.acs.numerators()
    ad_j = _ad_j_basis(s)
    minus_dd = -d_j * d_j
    scale = d_j * d_j * s.g.numerators()[0]
    values = {}
    for i in range(n):
        for j in range(i + 1, n):
            # [J e_i, J e_j] = sum_k J_kj [J e_i, e_k]
            term: dict = {}
            for k, v in by_col[j]:
                _add_multiple(term, v, ad_j[i][k])
            _add_multiple(term, minus_dd, full[i][j])
            # [e_i, J e_j] = -[J e_j, e_i], so its J-image enters with a plus sign
            _add_j_image(term, by_col, _add_multiple(dict(ad_j[j][i]), -1, ad_j[i][j]))
            if term:
                vec = [ZERO] * n
                for r, x in term.items():
                    vec[r] = GaussianRational(Fraction(x, scale))
                values[(i, j)] = tuple(vec)
    if _sector_scan(s)[2] == (not values):
        raise AssertionError("Nijenhuis formula and eigenspace criterion disagree")
    return values


def is_chern_flat(s: ComplexSplitting) -> Verdict:
    """Mixed-sector flatness, checked through both characterizations.

    (a) every [Z_a, conj Z_b] vanishes; (b) [J e_i, e_j] = [e_i, J e_j] for
    all basis pairs (the diagonal pair encodes [J x, x] = 0).  Both are
    evaluated; disagreement raises.  The verdict is kept on the splitting, so
    a second call with the same s returns it without evaluating again.
    """
    if s._chern_flat is not None:
        return s._chern_flat
    mixed = _sector_scan(s)[0]
    verdict_a = Verdict(mixed is None, mixed)
    n = s.dim
    ad_j = _ad_j_basis(s)
    # [J e_i, e_j] against [e_i, J e_j] = -[J e_j, e_i], both at scale d_J D
    bad = next(
        (
            (i, j)
            for i in range(n)
            for j in range(i, n)
            if ad_j[i][j] != {r: -x for r, x in ad_j[j][i].items()}
        ),
        None,
    )
    verdict_b = Verdict(True) if bad is None else Verdict(False, ("basis-pair", *bad))
    if verdict_a.ok != verdict_b.ok:
        raise AssertionError("Chern-flat characterizations disagree; internal inconsistency")
    s._chern_flat = verdict_b if not verdict_b.ok else verdict_a
    return s._chern_flat


def is_qk_chern_flat(s: ComplexSplitting) -> Verdict:
    """Quasi-Kaehler Chern-flatness, via three equivalent conditions.

    (1) sector relations: mixed brackets vanish and (1,0)x(1,0) brackets land
        in the (0,1) eigenspace;
    (2) the differential of every (1,0)-coframe element has no (2,0) and no
        (1,1) component;
    (3) J[X,Y] = -[JX,Y] = -[X,JY] on all basis pairs.
    All three run on every call and must agree.
    """
    v1 = s.sector_relations_qk()

    from .forms import coframe_element, exterior_d  # deferred: forms builds on this module

    v2 = Verdict(True)
    for k in range(s.m):
        d = exterior_d(s, coframe_element(s.m, s.m, k))
        if not d.component(2, 0).is_zero():
            v2 = Verdict(False, ("coframe-d-20", k))
            break
        if not d.component(1, 1).is_zero():
            v2 = Verdict(False, ("coframe-d-11", k))
            break

    n = s.dim
    full = s._real
    by_col = s.acs.numerators()[2]
    ad_j = _ad_j_basis(s)
    # J[e_i, e_j] + [J e_i, e_j] must vanish; both terms are at scale d_J D
    bad = next(
        ((i, j) for i in range(n) for j in range(n) if _add_j_image(dict(ad_j[i][j]), by_col, full[i][j])),
        None,
    )
    v3 = Verdict(True) if bad is None else Verdict(False, ("basis-pair", *bad))

    if not (v1.ok == v2.ok == v3.ok):
        raise AssertionError("quasi-Kaehler Chern-flat characterizations disagree")
    for v in (v1, v2, v3):
        if not v.ok:
            return v
    return Verdict(True)


def check_center_j_invariant(s: ComplexSplitting) -> bool:
    """J-invariance of the center; requires a Chern-flat pair."""
    if not is_chern_flat(s):
        raise ValueError("center J-invariance check requires a Chern-flat pair")
    z = center(s.g)
    by_col = s.acs.numerators()[2]
    images = []
    for v in z.basis:
        # J v on the numerators of v, which are real: the center of a real
        # algebra is the kernel of real rows; only the direction counts
        re = clear_denominators(v)[1]
        image = _add_j_image({}, by_col, {k: a for k, a in enumerate(re) if a})
        images.append(NumeratorRow({r: (x, 0) for r, x in image.items()}))
    return Subspace(s.dim, [*z.basis, *images]).dim == z.dim


def two_step_certificate(s: ComplexSplitting) -> bool:
    """Quadratic vanishing certificate for 2-step nilpotency: returns True or raises.

    For each (i, j, k, l) the contraction over r of c_{ij}^{rbar} with the
    conjugate constants c_{rbar kbar}^{l} must vanish: these are the closure
    relations that s.holomorphic() checks when it builds the constants.
    Under the sector shape they are the Jacobi identity on (Z_i, Z_j,
    conj Z_k), which every LieAlgebra satisfies, so they hold for every
    splitting.  The certificate is cross-checked against the lower central
    series of the real algebra, and AssertionError reports a disagreement.
    Raises SectorShapeError without the quasi-Kaehler sector shape.
    """
    s.holomorphic()
    if not is_two_step(s.g):
        raise AssertionError("quadratic certificate and lower central series disagree")
    return True


def reframed_constants(c: AdaptedConstants, frame: ExactMatrix) -> AdaptedConstants:
    """The holomorphic constants after the (1,0)-frame change W = Z.frame.

    frame is an invertible m x m matrix whose column i expresses the new
    frame vector W_i in terms of the current holomorphic frame; the result
    holds [W_i, W_j] expressed on the conjugate frame.  An invertible frame
    change preserves the closure relations, so the result is not checked
    against them again.
    """
    if not isinstance(c, AdaptedConstants):
        raise TypeError("reframed_constants expects an AdaptedConstants table")
    m = c.m
    if frame.rows != m or frame.cols != m:
        raise ValueError("frame matrix must be m x m")
    g_inv = inverse(frame.conj())
    cols = [[(a, x) for a, x in enumerate(frame.column(i)) if x] for i in range(m)]
    inv_cols = [[(l, x) for l, x in enumerate(g_inv.column(k)) if x] for k in range(m)]
    full = [[{} for _ in range(m)] for _ in range(m)]
    for (i, j), vec in c._rows.items():
        full[i][j] = vec
        full[j][i] = {k: -x for k, x in vec.items()}
    reframed = object.__new__(AdaptedConstants)
    reframed._fill(m, _change_basis(full, cols, inv_cols))
    return reframed
