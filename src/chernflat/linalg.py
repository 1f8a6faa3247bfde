"""Exact dense linear algebra over Q(i).

Matrices are dense and tiny (ambient dimensions stay well under ~20), so a
straightforward representation is fine.  Elimination is fraction-free
Gauss-Jordan on Python ints: the engine, :class:`Echelon`, stores each row as
Gaussian-integer numerators with integer content one and a positive integer
pivot, and reduces by cross-multiplying instead of dividing.  Scalars are
built only for the results (kernel vectors, reduced bases, inverses), each
divided once by its pivot.  The determinant is Bareiss elimination on the
same numerators, and one pass of it without row exchanges gives every
leading principal minor.  The engine works on sparse row dictionaries so
that the wider systems (the deformation solution matrices) stay cheap as well.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod
from typing import Iterable, Iterator, Sequence

from .scalars import GaussianRational, ZERO, ONE, clear_denominators, gaussian

__all__ = [
    "Echelon",
    "ExactMatrix",
    "NumeratorRow",
    "SingularMatrixError",
    "rank",
    "kernel_basis",
    "inverse",
    "det",
    "leading_minors",
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


class NumeratorRow(dict):
    """A sparse row already in the engine's layout: {col: (re, im)} of ints, no (0, 0) value.

    Only a row's direction matters, so a caller that has its row on
    Gaussian-integer numerators at any scale hands it over as this type and
    the engine skips the scaling step.  The engine may keep the row itself as
    a pivot row, so it must not be changed afterwards.
    """

    __slots__ = ()


def _numerators(row: dict) -> dict:
    """Gaussian-integer numerators of a sparse Q(i) row, zero entries dropped."""
    _, re, im = clear_denominators(row.values())
    return {c: (a, b) for c, a, b in zip(row, re, im) if a or b}


def _primitive(row: dict) -> dict:
    """A nonzero row divided by the gcd of all its real and imaginary parts."""
    content = gcd(*[a for a, _ in row.values()], *[b for _, b in row.values()])
    if content == 1:
        return row
    return {c: (a // content, b // content) for c, (a, b) in row.items()}


def _eliminate(row: dict, col: int, pivot: dict) -> dict:
    """d row - row[col] pivot, which vanishes at col; d = pivot[col] is a positive int.

    Both multipliers are first divided by their common integer factor.
    """
    d = pivot[col][0]
    x, y = row[col]
    common = gcd(d, x, y)
    if common > 1:
        d, x, y = d // common, x // common, y // common
    out = dict(row) if d == 1 else {c: (d * a, d * b) for c, (a, b) in row.items()}
    for c, (u, v) in pivot.items():
        a, b = out.get(c, (0, 0))
        a -= x * u - y * v
        b -= x * v + y * u
        if a or b:
            out[c] = (a, b)
        else:
            del out[c]
    return out


def _ratio(re: int, im: int, d: int) -> GaussianRational:
    return GaussianRational(Fraction(re, d), Fraction(im, d))


class Echelon:
    """Incrementally maintained reduced row-echelon form over Q(i).

    Rows arrive as sparse dicts (column -> scalar).  Only a row's direction
    matters, so each is scaled once to Gaussian-integer numerators, a dict
    column -> (re, im) of Python ints; a NumeratorRow is in that layout
    already and is taken as it is.  A pivot row has integer content one
    and is scaled by the conjugate of its pivot, so its pivot entry is a
    positive integer d; a row is reduced against it by cross-multiplying,
    d row - row[c] pivot, with no division in Q(i).  Scalars are built only
    for the outputs, each entry divided once by its pivot; since the reduced
    row-echelon form is unique, they are the same exact values any Q(i)
    elimination gives.

    The pivot column set is the canonical leftmost one because each incoming
    row is fully reduced before choosing its pivot.
    """

    __slots__ = ("ncols", "_pivots")

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._pivots: dict[int, dict] = {}

    def add(self, row: dict) -> bool:
        """Reduce a sparse row into the form; True when the rank grew."""
        work = row if isinstance(row, NumeratorRow) else _numerators(row)
        # A pivot row holds zeros at every other pivot column, so one pass
        # over the incoming row's pivoted columns fully reduces it.
        for c in [c for c in work if c in self._pivots]:
            work = _eliminate(work, c, self._pivots[c])
        if not work:
            return False
        lead = min(work)
        a, b = work[lead]
        if b:
            work = {c: (a * x + b * y, a * y - b * x) for c, (x, y) in work.items()}
        elif a < 0:
            work = {c: (-x, -y) for c, (x, y) in work.items()}
        work = _primitive(work)
        for col, other in self._pivots.items():
            if lead in other:
                self._pivots[col] = _primitive(_eliminate(other, lead, work))
        self._pivots[lead] = work
        return True

    def rank(self) -> int:
        return len(self._pivots)

    def pivot_columns(self) -> list:
        return sorted(self._pivots)

    def numerator_basis(self) -> list:
        """The reduced row-echelon basis on numerators, by pivot column.

        Each row is a pivot row as the form keeps it: {col: (re, im)} of ints
        with content one, whose entry at its pivot column is the positive int
        d it divides by.  Read-only: the form shares these rows.
        """
        return [self._pivots[c] for c in self.pivot_columns()]

    def basis(self) -> list:
        """The reduced row-echelon basis as tuples (pivot entries 1), by pivot column."""
        out = []
        for c in self.pivot_columns():
            row = self._pivots[c]
            d = row[c][0]
            vec = [ZERO] * self.ncols
            for cc, (a, b) in row.items():
                vec[cc] = _ratio(a, b, d)
            out.append(tuple(vec))
        return out

    def kernel_vectors(self) -> list:
        """Basis of the kernel."""
        pivots = self.pivot_columns()
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        basis = []
        for f in free:
            vec = [ZERO] * self.ncols
            vec[f] = ONE
            for c in pivots:
                row = self._pivots[c]
                if f in row:
                    a, b = row[f]
                    vec[c] = _ratio(-a, -b, row[c][0])
            basis.append(tuple(vec))
        return basis


def _matrix_rows(m: ExactMatrix) -> Iterable[dict]:
    for i in range(m.rows):
        row = {j: m.entry(i, j) for j in range(m.cols) if m.entry(i, j)}
        yield row


def rank_of_rows(ncols: int, rows: Iterable[dict]) -> int:
    ech = Echelon(ncols)
    for row in rows:
        ech.add(row)
    return ech.rank()


def kernel_from_rows(ncols: int, rows: Iterable[dict]) -> list:
    """Kernel basis (list of tuples) of a linear system given by sparse rows.

    Each row is a {col: scalar} dict or a NumeratorRow.
    """
    ech = Echelon(ncols)
    for row in rows:
        ech.add(row)
    return ech.kernel_vectors()


def rank(m: ExactMatrix) -> int:
    return rank_of_rows(m.cols, _matrix_rows(m))


def kernel_basis(m: ExactMatrix) -> list:
    """Basis of {v : m v = 0} as a list of coordinate tuples."""
    return kernel_from_rows(m.cols, _matrix_rows(m))


def inverse(m: ExactMatrix) -> ExactMatrix:
    """One Gauss-Jordan pass over [m | I]: its reduced form is [I | m^-1].

    [m | I] has full row rank, so every row gets a pivot; m is singular
    exactly when a pivot lands among the columns of I.
    """
    if not m.is_square():
        raise SingularMatrixError("only square matrices can be inverted")
    n = m.rows
    ech = Echelon(2 * n)
    for i in range(n):
        ech.add({**{j: x for j, x in enumerate(m.row(i)) if x}, n + i: ONE})
    if ech.pivot_columns()[-1] >= n:
        raise SingularMatrixError("matrix is singular over Q(i)")
    return ExactMatrix([row[n:] for row in ech.basis()])


def _numerator_rows(m: ExactMatrix) -> tuple:
    """(scales, work): row i of m times scales[i], its least common denominator, as (re, im) int pairs."""
    scales, work = [], []
    for i in range(m.rows):
        d, re, im = clear_denominators(m.row(i))
        scales.append(d)
        work.append(list(zip(re, im)))
    return scales, work


def _bareiss_step(work: list, k: int, prev: tuple) -> None:
    """Step k of fraction-free Bareiss elimination on square rows of Gaussian-integer pairs, in place.

    Every entry of the trailing block becomes (p_k a - b c) / p_(k-1), where
    p_k = work[k][k] is the pivot and prev = p_(k-1) the one before it; the
    division is exact in Z[i], because each entry is then a minor of the
    matrix the pass started from.
    """
    prev_re, prev_im = prev
    norm = prev_re * prev_re + prev_im * prev_im
    row_k = work[k]
    a, b = row_k[k]
    for r in range(k + 1, len(work)):
        row_r = work[r]
        x, y = row_r[k]
        for c in range(k + 1, len(work)):
            u, v = row_r[c]
            s, t = row_k[c]
            re = a * u - b * v - x * s + y * t
            im = a * v + b * u - x * t - y * s
            # divide by the previous pivot: multiply by its conjugate over its norm
            row_r[c] = ((re * prev_re + im * prev_im) // norm, (im * prev_re - re * prev_im) // norm)


def det(m: ExactMatrix) -> GaussianRational:
    """Exact determinant by fraction-free Bareiss elimination.

    Each row is scaled to Gaussian-integer numerators, and each step is
    _bareiss_step, with a row exchange first where the pivot is 0.  The last
    pivot is the scaled matrix's determinant, which the row scales divide
    out.
    """
    if not m.is_square():
        raise ValueError("determinant needs a square matrix")
    n = m.rows
    scales, work = _numerator_rows(m)
    sign = 1
    prev = (1, 0)
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if work[r][k] != (0, 0)), None)
        if pivot_row is None:
            return ZERO
        if pivot_row != k:
            work[k], work[pivot_row] = work[pivot_row], work[k]
            sign = -sign
        _bareiss_step(work, k, prev)
        prev = work[k][k]
    return _ratio(sign * prev[0], sign * prev[1], prod(scales))


def leading_minors(m: ExactMatrix) -> Iterator[GaussianRational]:
    """det of each leading k x k block of m, k = 1..n, from one Bareiss pass without row exchanges.

    With no exchange, pivot k of the pass is the k-th leading minor of the
    row-scaled numerators, so the first k row scales divide it out.  Each
    minor is yielded before the step that leads to the next, so a caller
    that stops early saves the rest of the pass.  The pass ends after the
    first zero minor, since only a row exchange could go on from it.
    """
    if not m.is_square():
        raise ValueError("leading minors need a square matrix")
    scales, work = _numerator_rows(m)
    prev = (1, 0)
    scale = 1
    for k in range(m.rows):
        scale *= scales[k]
        pivot = work[k][k]
        yield _ratio(*pivot, scale)
        if pivot == (0, 0):
            return
        _bareiss_step(work, k, prev)
        prev = pivot


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
