"""Exact dense linear algebra over Q(i).

Matrices are dense and tiny (ambient dimensions stay well under ~20), so a
straightforward representation is fine.  Elimination is Gauss-Jordan over
Q(i) and divides: each reduction step subtracts (entry / pivot) times a pivot
row in GaussianRational (Fraction) arithmetic.  After every combination a
stored row is rescaled to Gaussian-integer coefficients with integer content
one, which keeps coefficient growth under control.  The elimination engine
works on sparse row dictionaries so that the larger stacked systems
(deformation equations) stay cheap as well.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .scalars import GaussianRational, ZERO, ONE, clear_denominators, gaussian

__all__ = [
    "ExactMatrix",
    "SingularMatrixError",
    "rank",
    "kernel_basis",
    "solve",
    "inverse",
    "det",
    "kernel_from_rows",
    "rank_of_rows",
    "random_invertible",
]


class SingularMatrixError(ValueError):
    """Raised when a matrix expected to be invertible is not."""


class ExactMatrix:
    """Immutable-by-convention dense matrix with GaussianRational entries."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, entries: Sequence[Sequence]):
        data = [[gaussian(x) for x in row] for row in entries]
        if not data:
            raise ValueError("matrix needs at least one row")
        width = len(data[0])
        if width == 0 or any(len(row) != width for row in data):
            raise ValueError("matrix rows must be nonempty and of equal length")
        self.rows = len(data)
        self.cols = width
        self._e = data

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls([[ZERO] * cols for _ in range(rows)])

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence]) -> "ExactMatrix":
        cols = [list(c) for c in columns]
        if not cols:
            raise ValueError("need at least one column")
        height = len(cols[0])
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(height)])

    # -- access -------------------------------------------------------------

    def entry(self, i: int, j: int) -> GaussianRational:
        return self._e[i][j]

    def __getitem__(self, key):
        i, j = key
        return self._e[i][j]

    def row(self, i: int) -> tuple:
        return tuple(self._e[i])

    def column(self, j: int) -> tuple:
        return tuple(self._e[i][j] for i in range(self.rows))

    def to_rows(self) -> list:
        return [list(row) for row in self._e]

    # -- structure ----------------------------------------------------------

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix([[self._e[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def conj(self) -> "ExactMatrix":
        return ExactMatrix([[x.conjugate() for x in row] for row in self._e])

    def conj_transpose(self) -> "ExactMatrix":
        return self.conj().transpose()

    def is_real(self) -> bool:
        return all(x.is_real() for row in self._e for x in row)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(not x for row in self._e for x in row)

    def hstack(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        return ExactMatrix([self._e[i] + other._e[i] for i in range(self.rows)])

    def vstack(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.cols:
            raise ValueError("column count mismatch in vstack")
        return ExactMatrix(self._e + other._e)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix addition")
        return ExactMatrix(
            [[self._e[i][j] + other._e[i][j] for j in range(self.cols)] for i in range(self.rows)]
        )

    def __sub__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix subtraction")
        return ExactMatrix(
            [[self._e[i][j] - other._e[i][j] for j in range(self.cols)] for i in range(self.rows)]
        )

    def __neg__(self):
        return ExactMatrix([[-x for x in row] for row in self._e])

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch in matrix product")
            out = []
            for i in range(self.rows):
                row = []
                for j in range(other.cols):
                    acc = ZERO
                    for k in range(self.cols):
                        a = self._e[i][k]
                        if a:
                            acc = acc + a * other._e[k][j]
                    row.append(acc)
                out.append(row)
            return ExactMatrix(out)
        try:
            s = gaussian(other)
        except TypeError:
            return NotImplemented
        return ExactMatrix([[x * s for x in row] for row in self._e])

    def __rmul__(self, other):
        try:
            s = gaussian(other)
        except TypeError:
            return NotImplemented
        return ExactMatrix([[s * x for x in row] for row in self._e])

    def matvec(self, vec: Sequence) -> tuple:
        v = [gaussian(x) for x in vec]
        if len(v) != self.cols:
            raise ValueError("vector length mismatch in matvec")
        out = []
        for i in range(self.rows):
            acc = ZERO
            row = self._e[i]
            for k in range(self.cols):
                if row[k] and v[k]:
                    acc = acc + row[k] * v[k]
            out.append(acc)
        return tuple(out)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(self._e[i][j] == other._e[i][j] for i in range(self.rows) for j in range(self.cols))
        )

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self._e)
        return f"ExactMatrix({self.rows}x{self.cols}: {body})"


# -- elimination engine ------------------------------------------------------


def _content_normalize(row: dict) -> dict:
    """Clear denominators and divide out the integer content of a sparse row."""
    _, re, im = clear_denominators(row.values())
    content = gcd(*re, *im)
    if content == 0:
        return {}
    return {
        c: GaussianRational(Fraction(a // content), Fraction(b // content))
        for c, a, b in zip(row, re, im)
    }


class _Echelon:
    """Incrementally maintained reduced echelon form over Q(i).

    Rows arrive as sparse dicts (column -> scalar).  Pivoting is restricted to
    the first ``pivot_limit`` columns; rows whose surviving support lies
    entirely beyond that limit are kept aside (they witness inconsistency when
    the trailing columns hold right-hand sides).  Insertion order makes the
    result deterministic, and the pivot column set is the canonical leftmost
    one because each incoming row is fully reduced before choosing its pivot.
    """

    def __init__(self, ncols: int, pivot_limit: int | None = None):
        self.ncols = ncols
        self.pivot_limit = ncols if pivot_limit is None else pivot_limit
        self.pivot_rows: dict[int, dict] = {}
        self.extra_rows: list[dict] = []

    def add(self, row: dict) -> None:
        work = {c: gaussian(v) for c, v in row.items() if v}
        # A pivot row holds zeros at every other pivot column, so one pass
        # over the incoming row's pivoted columns fully reduces it.
        for c in [c for c in work if c in self.pivot_rows]:
            if c not in work:
                continue
            piv = self.pivot_rows[c]
            factor = work[c] / piv[c]
            for cc, vv in piv.items():
                cur = work.get(cc, ZERO) - factor * vv
                if cur:
                    work[cc] = cur
                else:
                    work.pop(cc, None)
        work = _content_normalize(work)
        if not work:
            return
        lead_candidates = [c for c in work if c < self.pivot_limit]
        if not lead_candidates:
            self.extra_rows.append(work)
            return
        lead = min(lead_candidates)
        for col, other in self.pivot_rows.items():
            if lead in other:
                factor = other[lead] / work[lead]
                for cc, vv in work.items():
                    cur = other.get(cc, ZERO) - factor * vv
                    if cur:
                        other[cc] = cur
                    else:
                        other.pop(cc, None)
                self.pivot_rows[col] = _content_normalize(other)
        self.pivot_rows[lead] = work

    def rank(self) -> int:
        return len(self.pivot_rows)

    def pivot_columns(self) -> list:
        return sorted(self.pivot_rows)

    def kernel_vectors(self) -> list:
        """Basis of the kernel (pivot_limit must equal ncols)."""
        pivots = self.pivot_columns()
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        basis = []
        for f in free:
            vec = [ZERO] * self.ncols
            vec[f] = ONE
            for c in pivots:
                row = self.pivot_rows[c]
                if f in row:
                    vec[c] = -row[f] / row[c]
            basis.append(tuple(vec))
        return basis


def _matrix_rows(m: ExactMatrix) -> Iterable[dict]:
    for i in range(m.rows):
        row = {j: m.entry(i, j) for j in range(m.cols) if m.entry(i, j)}
        yield row


def rank_of_rows(ncols: int, rows: Iterable[dict]) -> int:
    ech = _Echelon(ncols)
    for row in rows:
        ech.add(row)
    return ech.rank()


def kernel_from_rows(ncols: int, rows: Iterable[dict]) -> list:
    """Kernel basis (list of tuples) of a linear system given by sparse rows."""
    ech = _Echelon(ncols)
    for row in rows:
        ech.add(row)
    return ech.kernel_vectors()


def rank(m: ExactMatrix) -> int:
    return rank_of_rows(m.cols, _matrix_rows(m))


def kernel_basis(m: ExactMatrix) -> list:
    """Basis of {v : m v = 0} as a list of coordinate tuples."""
    return kernel_from_rows(m.cols, _matrix_rows(m))


def solve(m: ExactMatrix, rhs) -> "ExactMatrix | tuple | None":
    """Solve m x = rhs exactly; rhs may be a matrix or a coordinate tuple.

    Returns None when the system is inconsistent.  With an underdetermined
    system the particular solution with all free variables zero is returned.
    """
    vector_input = not isinstance(rhs, ExactMatrix)
    if vector_input:
        b = ExactMatrix.from_columns([list(rhs)])
    else:
        b = rhs
    if b.rows != m.rows:
        raise ValueError("right-hand side height mismatch")
    ech = _Echelon(m.cols + b.cols, pivot_limit=m.cols)
    for i in range(m.rows):
        row = {j: m.entry(i, j) for j in range(m.cols) if m.entry(i, j)}
        for t in range(b.cols):
            if b.entry(i, t):
                row[m.cols + t] = b.entry(i, t)
        ech.add(row)
    bad_cols = set()
    for row in ech.extra_rows:
        for c in row:
            bad_cols.add(c - m.cols)
    if bad_cols:
        return None
    out = [[ZERO] * b.cols for _ in range(m.cols)]
    for c, row in ech.pivot_rows.items():
        for t in range(b.cols):
            val = row.get(m.cols + t)
            if val:
                out[c][t] = val / row[c]
    x = ExactMatrix(out)
    if vector_input:
        return x.column(0)
    return x


def inverse(m: ExactMatrix) -> ExactMatrix:
    if not m.is_square():
        raise SingularMatrixError("only square matrices can be inverted")
    # [m | I] has full row rank, so a singular m leaves some row of I
    # unreduced past the pivot columns and solve reports it as inconsistent
    x = solve(m, ExactMatrix.identity(m.rows))
    if x is None:
        raise SingularMatrixError("matrix is singular over Q(i)")
    return x


def det(m: ExactMatrix) -> GaussianRational:
    """Exact determinant via elimination with pivot tracking."""
    if not m.is_square():
        raise ValueError("determinant needs a square matrix")
    n = m.rows
    work = m.to_rows()
    sign = 1
    result = ONE
    for col in range(n):
        pivot_row = None
        for r in range(col, n):
            if work[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            return ZERO
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            sign = -sign
        piv = work[col][col]
        result = result * piv
        for r in range(col + 1, n):
            if work[r][col]:
                factor = work[r][col] / piv
                for c in range(col, n):
                    work[r][c] = work[r][c] - factor * work[col][c]
    return result if sign == 1 else -result


def random_invertible(n: int, rng, complex_entries: bool = True, span: int = 2) -> ExactMatrix:
    """Seeded random invertible matrix with small Gaussian-integer entries."""
    while True:
        entries = []
        for _ in range(n):
            row = []
            for _ in range(n):
                re_part = rng.randint(-span, span)
                im_part = rng.randint(-1, 1) if complex_entries else 0
                row.append(GaussianRational(re_part, im_part))
            entries.append(row)
        m = ExactMatrix(entries)
        if det(m):
            return m
