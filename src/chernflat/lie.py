"""Finite-dimensional Lie algebras given by exact structure constants.

The bracket tensor is stored sparsely for basis pairs (i, j) with i < j only;
the constructor also builds the table in every order once, on
Gaussian-integer numerators (LieAlgebra.numerators), for every reader that
needs [e_i, e_j] with i > j.  Indices are 0-based throughout the library
(file formats use 1-based indices and convert at the boundary).
Construction eagerly validates the Jacobi identity and reports every
violating triple.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .linalg import Echelon, ExactMatrix, NumeratorRow, kernel_from_rows
from .scalars import ONE, GaussianRational, ZERO, accumulate, clear_denominators, gaussian

__all__ = [
    "LieAlgebra",
    "JacobiError",
    "Subspace",
    "jacobi_defect",
    "lower_central_series",
    "derived_subalgebra",
    "center",
    "nilpotency_step",
    "is_two_step",
]


class JacobiError(ValueError):
    """Structure constants that fail the Jacobi identity."""

    def __init__(self, defects):
        self.defects = defects
        triples = ", ".join(str(tuple(i + 1 for i in t)) for t, _ in defects[:4])
        more = "" if len(defects) <= 4 else f" (+{len(defects) - 4} more)"
        super().__init__(f"Jacobi identity fails on basis triples {triples}{more}")


def _clean_brackets(dim: int, raw: Mapping) -> dict:
    """Copy of a table {(i, j): {k: coeff}} with GaussianRational coefficients and no zeros.

    Keys must satisfy 0 <= i < j < dim and targets 0 <= k < dim.  Pairs keep
    the order of the input and the targets of a row ascend.  It validates
    bracket tables and holomorphic-constants tables alike.
    """
    table = {}
    for (i, j), out in raw.items():
        if not (0 <= i < dim and 0 <= j < dim):
            raise ValueError(f"bracket pair ({i}, {j}) out of range for dimension {dim}")
        if i >= j:
            raise ValueError(f"bracket pair ({i}, {j}) must satisfy i < j")
        vec = {}
        for k, coeff in out.items():
            if not (0 <= k < dim):
                raise ValueError(f"bracket target index {k} out of range for dimension {dim}")
            c = gaussian(coeff)
            if c:
                vec[k] = c
        if vec:
            table[(i, j)] = dict(sorted(vec.items()))
    return table


def _numerator_views(dim: int, table: Mapping) -> tuple:
    """(D, full, into) of a cleaned table; see LieAlgebra.numerators."""
    entries = [(i, j, k, c) for (i, j), vec in sorted(table.items()) for k, c in vec.items()]
    denom, re, im = clear_denominators(c for _, _, _, c in entries)
    full = [[{} for _ in range(dim)] for _ in range(dim)]
    into = [[{} for _ in range(dim)] for _ in range(dim)]
    # ascending pairs (i, j), i < j, fill each into[j][k] in ascending i
    for (i, j, k, _), a, b in zip(entries, re, im):
        full[i][j][k] = into[j][k][i] = (a, b)
        full[j][i][k] = into[i][k][j] = (-a, -b)
    return denom, full, into


class LieAlgebra:
    """A Lie algebra over Q or Q(i), validated at construction time."""

    __slots__ = ("dim", "field", "brackets", "_series", "_center", "_numerators")

    def __init__(self, dim: int, brackets: Mapping, field: str = "Q"):
        if dim < 1:
            raise ValueError("dimension must be positive")
        if field not in ("Q", "Qi"):
            raise ValueError(f"unknown scalar field tag {field!r}")
        table = _clean_brackets(dim, brackets)
        if field == "Q":
            for (i, j), vec in table.items():
                for k, c in vec.items():
                    if not c.is_real():
                        raise ValueError(
                            f"field 'Q' requires rational structure constants; "
                            f"c[{i},{j}]^{k} = {c} is not real"
                        )
        self.dim = dim
        self.field = field
        self.brackets = table
        # lower_central_series and center keep their results here
        self._series = None
        self._center = None
        self._numerators = _numerator_views(dim, table)
        defects = jacobi_defect(dim, self._numerators)
        if defects:
            raise JacobiError(defects)

    # -- bracket evaluation --------------------------------------------------

    def numerators(self) -> tuple:
        """(D, full, into): the table in every order on Gaussian-integer numerators.

        D is the least common denominator of the table; full[i][j] is
        {k: (re, im)} with re + i im = D c_ij^k for every ordered pair, c_ji =
        -c_ij, and into[j][k] is {i: (re, im)} for D c_ij^k.  Keys ascend,
        and no value is (0, 0).  Checks of expressions linear in the table
        compare these at one scale and divide only what they report.  Built
        by the constructor, where the Jacobi check reads them; read-only,
        since every caller shares them.
        """
        return self._numerators

    def structure_constant(self, i: int, j: int, k: int) -> GaussianRational:
        if i > j:
            return -self.structure_constant(j, i, k)
        return self.brackets.get((i, j), {}).get(k, ZERO)

    def basis_bracket(self, i: int, j: int) -> tuple:
        """[e_i, e_j] as a coordinate tuple."""
        return tuple(self.structure_constant(i, j, k) for k in range(self.dim))

    def bracket(self, x: Sequence, y: Sequence) -> tuple:
        """Bilinear extension of the bracket to coordinate vectors."""
        xv = [gaussian(a) for a in x]
        yv = [gaussian(a) for a in y]
        if len(xv) != self.dim or len(yv) != self.dim:
            raise ValueError("vector length must match the algebra dimension")
        out = [ZERO] * self.dim
        for (i, j), vec in self.brackets.items():
            coeff = xv[i] * yv[j] - xv[j] * yv[i]
            if coeff:
                for k, c in vec.items():
                    out[k] = out[k] + coeff * c
        return tuple(out)

    def ad(self, x: Sequence) -> ExactMatrix:
        """Matrix of ad_x = [x, .] in the standard basis; see _ad_columns."""
        n = self.dim
        return ExactMatrix.from_columns([[col.get(k, ZERO) for k in range(n)] for col in self._ad_columns(x)])

    def _ad_columns(self, x: Sequence) -> list:
        """The columns [x, e_j] of ad_x, as sparse dicts {k: [x, e_j]_k} with no zero value.

        They are built in one sweep over the sparse table: the pair (i, j)
        adds x_i c_ij to column j and -x_j c_ij to column i.  Keys come in
        the order the sweep reaches them, not sorted.
        """
        xv = [gaussian(a) for a in x]
        if len(xv) != self.dim:
            raise ValueError("vector length must match the algebra dimension")
        cols = [{} for _ in range(self.dim)]
        for (i, j), vec in self.brackets.items():
            xi = xv[i]
            if xi:
                col = cols[j]
                for k, c in vec.items():
                    accumulate(col, k, xi * c)
            xj = xv[j]
            if xj:
                xj = -xj
                col = cols[i]
                for k, c in vec.items():
                    accumulate(col, k, xj * c)
        return cols

    def basis_ad(self, i: int) -> ExactMatrix:
        ei = [ZERO] * self.dim
        ei[i] = gaussian(1)
        return self.ad(ei)

    def is_abelian(self) -> bool:
        return not self.brackets

    def __eq__(self, other):
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.field == other.field
            and self.brackets == other.brackets
        )

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim}, field={self.field!r}, nonzero_pairs={len(self.brackets)})"


def jacobi_defect(dim: int, numerators: tuple) -> list:
    """All basis triples (i, j, k) where the Jacobi cyclic sum is nonzero.

    It reads the views (D, full, into) of LieAlgebra.numerators; a raw table
    is screened by constructing a LieAlgebra, whose constructor runs it.
    Each entry is ((i, j, k), vector) with i < j < k, in lexicographic order.

    The sum over r of c_ab^r c_rc^s is homogeneous of degree 2, so it runs on
    the numerator views over the common denominator D, and each nonzero sum
    is divided by D**2 only when it is reported.
    """
    denom, full, _ = numerators
    scale = denom * denom

    defects = []
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                acc_re: dict = {}
                acc_im: dict = {}
                for ab, c_idx in ((full[i][j], k), (full[j][k], i), (full[k][i], j)):
                    for r, (x, y) in ab.items():
                        for s, (u, v) in full[r][c_idx].items():
                            acc_re[s] = acc_re.get(s, 0) + x * u - y * v
                            acc_im[s] = acc_im.get(s, 0) + x * v + y * u
                if any(acc_re.values()) or any(acc_im.values()):
                    vec = [ZERO] * dim
                    for s, re in acc_re.items():
                        im = acc_im[s]
                        if re or im:
                            vec[s] = GaussianRational(Fraction(re, scale), Fraction(im, scale))
                    defects.append(((i, j, k), tuple(vec)))
    return defects


class Subspace:
    """A subspace of coordinate space with a canonical reduced basis.

    The spanning vectors are coordinate sequences of length ambient_dim or
    sparse rows, Mappings {index: coefficient} with indices in
    0..ambient_dim-1; a NumeratorRow goes to the elimination as it is.  The
    stored basis is the reduced row-echelon basis of the span (pivots scaled
    to 1, sorted by pivot column), so two Subspace objects are equal iff
    they describe the same subspace.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, vectors: Iterable):
        ech = Echelon(ambient_dim)
        for v in vectors:
            if isinstance(v, Mapping):
                if not all(0 <= c < ambient_dim for c in v):
                    raise ValueError("vector index out of range for ambient dimension")
                if isinstance(v, NumeratorRow):
                    ech.add(v)
                    continue
                items = v.items()
            elif len(v) != ambient_dim:
                raise ValueError("vector length must match ambient dimension")
            else:
                items = enumerate(v)
            ech.add({c: a for c, a in items if a})
        self.ambient_dim = ambient_dim
        self.basis = ech.basis()

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.ambient_dim})"


def lower_central_series(g: LieAlgebra) -> list:
    """Terms g ⊇ [g, g] ⊇ [[g, g], g] ⊇ ... until stabilization.

    By bilinearity [g, g] is the span of the table's vectors [e_i, e_j],
    i < j, read straight from g.brackets.  Each later term is spanned by the
    columns [d, e_j] of ad_d for d in the basis of the term before.  The
    series never reads the numerator views, which the closure relations of
    acs.two_step_certificate come through.  It is computed once per algebra
    and kept on it.
    """
    if g._series is None:
        n = g.dim
        current = Subspace(n, [{j: ONE} for j in range(n)])
        series = [current]
        nxt = Subspace(n, g.brackets.values())
        while True:
            series.append(nxt)
            if nxt.dim in (current.dim, 0):
                break
            current = nxt
            # streamed into the echelon, so only one ad_d is held at a time
            nxt = Subspace(n, (col for d in current.basis for col in g._ad_columns(d) if col))
        g._series = series
    return list(g._series)


def derived_subalgebra(g: LieAlgebra) -> Subspace:
    return lower_central_series(g)[1]


def center(g: LieAlgebra) -> Subspace:
    """Kernel of the stacked adjoint: {x : [x, e_j] = 0 for all j}.

    The center is computed once per algebra and kept on it.
    """
    if g._center is None:
        # the row (j, k) of the stacked adjoint is into[j][k], D c_ij^k at i
        rows = [NumeratorRow(row) for col in g.numerators()[2] for row in col if row]
        g._center = Subspace(g.dim, kernel_from_rows(g.dim, rows))
    return g._center


def nilpotency_step(g: LieAlgebra) -> int | None:
    """Smallest s with the (s+1)-th lower central term zero, or None."""
    series = lower_central_series(g)
    if series[-1].dim != 0:
        return None
    return len(series) - 1


def is_two_step(g: LieAlgebra) -> bool:
    """True when [[g, g], g] = 0 (abelian algebras included)."""
    step = nilpotency_step(g)
    return step is not None and step <= 2
