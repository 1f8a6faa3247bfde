"""Exact arithmetic for the benchmark's own answer checks and input builders.

Nothing here imports chernflat: the checks must reach their verdicts by a
separate route.  Gaussian rationals are pairs ``(re, im)`` of
:class:`fractions.Fraction`; rational elimination runs fraction-free on
Python integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def g(re, im=0):
    return (Fraction(re), Fraction(im))


def gadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def gsub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def gneg(x):
    return (-x[0], -x[1])


def gconj(x):
    return (x[0], -x[1])


def gdiv(x, y):
    n2 = y[0] * y[0] + y[1] * y[1]
    if not n2:
        raise ZeroDivisionError("division by zero in Q(i)")
    return ((x[0] * y[0] + x[1] * y[1]) / n2, (x[1] * y[0] - x[0] * y[1]) / n2)


def gnonzero(x) -> bool:
    return bool(x[0]) or bool(x[1])


def parse_scalar(text: str):
    """Read the scalar text format ``p/q``, ``r/s*i``, ``p/q+r/s*i``, ``i``, ``-i``."""
    s = text.replace(" ", "")
    if not s.endswith("i"):
        return g(Fraction(s))
    body = s[:-1]
    if body.endswith("*"):
        body = body[:-1]
    # the real part ends at the last sign that is not the leading one
    cut = max(body.rfind("+", 1), body.rfind("-", 1))
    if cut > 0:
        re_text, im_text = body[:cut], body[cut:]
    else:
        re_text, im_text = "0", body
    if im_text in ("", "+"):
        im = Fraction(1)
    elif im_text == "-":
        im = Fraction(-1)
    else:
        im = Fraction(im_text)
    return g(Fraction(re_text), im)


def format_scalar(x) -> str:
    re, im = x
    if not im:
        return str(re)
    mag = abs(im)
    imag = "i" if mag == 1 else f"{mag}*i"
    if not re:
        return imag if im > 0 else "-" + imag
    return f"{re}{'+' if im > 0 else '-'}{imag}"


def det(rows) -> tuple:
    """Determinant of a square matrix of Gaussian rationals (list of rows)."""
    work = [list(r) for r in rows]
    n = len(work)
    result = ONE
    for col in range(n):
        pivot = next((r for r in range(col, n) if gnonzero(work[r][col])), None)
        if pivot is None:
            return ZERO
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            result = gneg(result)
        piv = work[col][col]
        result = gmul(result, piv)
        for r in range(col + 1, n):
            if gnonzero(work[r][col]):
                f = gdiv(work[r][col], piv)
                for c in range(col, n):
                    work[r][c] = gsub(work[r][c], gmul(f, work[col][c]))
    return result


def _integer_row(row: dict) -> dict:
    """Scale a sparse rational row to coprime integers (zeros dropped)."""
    items = [(c, Fraction(v)) for c, v in row.items() if v]
    if not items:
        return {}
    lcm = 1
    for _, v in items:
        lcm = lcm * v.denominator // gcd(lcm, v.denominator)
    out = {c: int(v * lcm) for c, v in items}
    content = 0
    for v in out.values():
        content = gcd(content, v)
    return {c: v // content for c, v in out.items()}


class RationalEchelon:
    """Row echelon form over Q, kept fraction-free on integer rows.

    Each pivot row is stored under its leading column; an incoming row is
    cleared column by column from the left, so the pivot count is the rank.
    """

    def __init__(self):
        self.pivots: dict = {}

    def add(self, row: dict) -> bool:
        """Insert a row; True when it raised the rank."""
        work = _integer_row(row)
        while work:
            lead = min(work)
            piv = self.pivots.get(lead)
            if piv is None:
                self.pivots[lead] = work
                return True
            a, b = piv[lead], work[lead]
            merged = {c: a * v for c, v in work.items()}
            for c, v in piv.items():
                cur = merged.get(c, 0) - b * v
                if cur:
                    merged[c] = cur
                else:
                    merged.pop(c, None)
            content = 0
            for v in merged.values():
                content = gcd(content, v)
            work = {c: v // content for c, v in merged.items()} if content else {}
        return False

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def basis(self, ncols: int) -> list:
        """The pivot rows as dense integer vectors (a basis of the row span)."""
        return [[row.get(c, 0) for c in range(ncols)] for row in self.pivots.values()]


def inverse(rows) -> list:
    """Inverse of an invertible square Gaussian-rational matrix (Gauss-Jordan)."""
    n = len(rows)
    work = [list(r) + [ONE if c == r_idx else ZERO for c in range(n)] for r_idx, r in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if gnonzero(work[r][col])), None)
        if pivot is None:
            raise ZeroDivisionError("matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        piv = work[col][col]
        work[col] = [gdiv(v, piv) for v in work[col]]
        for r in range(n):
            if r != col and gnonzero(work[r][col]):
                f = work[r][col]
                work[r] = [gsub(v, gmul(f, p)) for v, p in zip(work[r], work[col])]
    return [row[n:] for row in work]
