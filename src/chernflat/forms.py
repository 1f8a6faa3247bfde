"""Invariant exterior forms on a split algebra, with type bigrading.

Conventions (fixed once; the identity-metric fixture on the standard
6-dimensional example pins them down):

  * evaluation:  (a ^ b)(X, Y) = a(X) b(Y) - a(Y) b(X), extended to higher
    degree by the determinant of coframe coordinates;
  * a monomial is stored on a strictly increasing tuple of combined coframe
    indices, (1,0) slots 0..m-1 first, then (0,1) slots m..2m-1, so the
    canonical order "holomorphic factors first" is automatic;
  * the differential acts on coframe duals by
    d(theta^gamma)(B_a, B_b) = -theta^gamma([B_a, B_b])
    and extends as an antiderivation.

Forms over an abstract coordinate coframe (no conjugate block) are supported
with mbar = 0: the 2-form of a skew matrix (two_form_from_skew_matrix) is
nondegenerate exactly when its top wedge power is nonzero.  The normal-form
module does not use them.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

from .acs import ComplexSplitting
from .linalg import ExactMatrix, det, kernel_from_rows, leading_minors
from .scalars import GaussianRational, I, ONE, ZERO, accumulate, format_scalar, gaussian, parse_scalar

__all__ = [
    "InvariantForm",
    "HermitianMetric",
    "coframe_element",
    "two_form_from_skew_matrix",
    "exterior_d",
    "type_components",
    "kaehler_form",
    "is_quasi_kaehler",
    "coupled_two_form_solutions",
    "SolutionReport",
    "real_coframe_coefficients",
    "format_form",
    "parse_form",
]


def _merge_keys(k1: tuple, k2: tuple):
    """Merge two strictly increasing index tuples; (merged, sign) or (None, 0)."""
    merged = []
    sign = 1
    i = j = 0
    while i < len(k1) and j < len(k2):
        a, b = k1[i], k2[j]
        if a == b:
            return None, 0
        if a < b:
            merged.append(a)
            i += 1
        else:
            merged.append(b)
            j += 1
            if (len(k1) - i) % 2 == 1:
                sign = -sign
    merged.extend(k1[i:])
    merged.extend(k2[j:])
    return tuple(merged), sign


def _sort_key(seq: Sequence[int]):
    """Sort an index sequence, tracking the permutation sign; dup -> (None, 0)."""
    items = list(seq)
    sign = 1
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(items)):
        if items[i - 1] == items[i]:
            return None, 0
    return tuple(items), sign


class InvariantForm:
    """Exact exterior form on a coframe with m holomorphic and mbar conjugate slots."""

    __slots__ = ("m", "mbar", "degree", "coeffs")

    def __init__(self, m: int, mbar: int, degree: int, coeffs: Optional[dict] = None):
        total = m + mbar
        if degree < 0 or degree > total:
            if coeffs:
                raise ValueError("degree outside the coframe range cannot carry terms")
        table = {}
        for key, value in (coeffs or {}).items():
            key = tuple(key)
            if len(key) != degree:
                raise ValueError(f"key {key} has wrong length for degree {degree}")
            if any(not (0 <= idx < total) for idx in key):
                raise ValueError(f"key {key} out of coframe range")
            if any(key[t] >= key[t + 1] for t in range(len(key) - 1)):
                raise ValueError(f"key {key} must be strictly increasing")
            v = gaussian(value)
            if v:
                table[key] = v
        self.m = m
        self.mbar = mbar
        self.degree = degree
        self.coeffs = table

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, m: int, mbar: int, degree: int) -> "InvariantForm":
        return cls(m, mbar, degree, {})

    @classmethod
    def monomial(cls, m: int, mbar: int, key: tuple, coeff=1) -> "InvariantForm":
        return cls(m, mbar, len(key), {tuple(key): coeff})

    # -- ring operations -----------------------------------------------------

    def _check_compatible(self, other: "InvariantForm"):
        if (self.m, self.mbar) != (other.m, other.mbar):
            raise ValueError("forms live on different coframes")

    def __add__(self, other):
        if not isinstance(other, InvariantForm):
            return NotImplemented
        self._check_compatible(other)
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        out = dict(self.coeffs)
        for key, v in other.coeffs.items():
            accumulate(out, key, v)
        return InvariantForm(self.m, self.mbar, self.degree, out)

    def __sub__(self, other):
        if not isinstance(other, InvariantForm):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return InvariantForm(
            self.m, self.mbar, self.degree, {k: -v for k, v in self.coeffs.items()}
        )

    def scale(self, scalar) -> "InvariantForm":
        s = gaussian(scalar)
        return InvariantForm(
            self.m, self.mbar, self.degree, {k: s * v for k, v in self.coeffs.items()}
        )

    def __rmul__(self, scalar):
        try:
            return self.scale(scalar)
        except TypeError:
            return NotImplemented

    def wedge(self, other: "InvariantForm") -> "InvariantForm":
        self._check_compatible(other)
        out: dict = {}
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                merged, sign = _merge_keys(k1, k2)
                if not sign:
                    continue
                accumulate(out, merged, v1 * v2 if sign > 0 else -(v1 * v2))
        return InvariantForm(self.m, self.mbar, self.degree + other.degree, out)

    def conjugate(self) -> "InvariantForm":
        if self.m != self.mbar:
            raise ValueError("conjugation needs a coframe with matching conjugate block")
        out: dict = {}
        for key, v in self.coeffs.items():
            swapped = [idx + self.m if idx < self.m else idx - self.m for idx in key]
            sorted_key, sign = _sort_key(swapped)
            if not sign:
                raise AssertionError("conjugation produced a degenerate key")
            term = v.conjugate() if sign > 0 else -v.conjugate()
            out[sorted_key] = out.get(sorted_key, ZERO) + term
        return InvariantForm(self.m, self.mbar, self.degree, out)

    # -- grading -------------------------------------------------------------

    def key_bidegree(self, key: tuple) -> tuple:
        p = sum(1 for idx in key if idx < self.m)
        return (p, len(key) - p)

    def component(self, p: int, q: int) -> "InvariantForm":
        if p + q != self.degree:
            return InvariantForm.zero(self.m, self.mbar, max(self.degree, 0))
        out = {k: v for k, v in self.coeffs.items() if self.key_bidegree(k) == (p, q)}
        return InvariantForm(self.m, self.mbar, self.degree, out)

    def bidegrees(self) -> set:
        return {self.key_bidegree(k) for k in self.coeffs}

    def pure_bidegree(self) -> tuple:
        degs = self.bidegrees()
        if len(degs) > 1:
            raise ValueError(f"form mixes bidegrees {sorted(degs)}")
        if not degs:
            return (self.degree, 0) if self.mbar == 0 else None
        return next(iter(degs))

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, vectors: Sequence[Sequence]) -> GaussianRational:
        """Evaluate on vectors given in the coframe's dual-basis coordinates."""
        if len(vectors) != self.degree:
            raise ValueError("need exactly degree-many vectors")
        vecs = [[gaussian(c) for c in v] for v in vectors]
        total = ZERO
        for key, coeff in self.coeffs.items():
            minor = ExactMatrix([[vecs[t][idx] for t in range(len(vecs))] for idx in key])
            d = det(minor)
            if d:
                total = total + coeff * d
        return total

    # -- comparisons ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, InvariantForm):
            return NotImplemented
        return (
            (self.m, self.mbar) == (other.m, other.mbar)
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"InvariantForm(degree={self.degree}, terms={len(self.coeffs)})"

    def __str__(self):
        return format_form(self)


def coframe_element(m: int, mbar: int, index: int) -> InvariantForm:
    """The degree-1 coframe dual theta^index."""
    return InvariantForm.monomial(m, mbar, (index,))


def two_form_from_skew_matrix(mat: ExactMatrix, m: int, mbar: int = 0) -> InvariantForm:
    """Sum of mat[i][j] theta^i ^ theta^j over i < j."""
    if not mat.is_square() or mat.rows != m + mbar:
        raise ValueError("matrix size must match the coframe")
    out = {}
    for i in range(mat.rows):
        for j in range(i + 1, mat.rows):
            v = mat.entry(i, j)
            if v:
                out[(i, j)] = v
    return InvariantForm(m, mbar, 2, out)


def _coframe_differentials(s: ComplexSplitting) -> list:
    if s._dtheta is None:
        table = [{} for _ in range(s.dim)]
        for pair, row in s.constants.items():
            for gamma, c in row.items():
                table[gamma][pair] = -c
        s._dtheta = table
    return s._dtheta


def exterior_d(s: ComplexSplitting, f: InvariantForm) -> InvariantForm:
    """Invariant exterior differential induced by the bracket."""
    if (f.m, f.mbar) != (s.m, s.m):
        raise ValueError("form does not live on this splitting's coframe")
    dtheta = _coframe_differentials(s)
    out: dict = {}
    for key, v in f.coeffs.items():
        for t, gamma in enumerate(key):
            rest = key[:t] + key[t + 1 :]
            pos_sign = 1 if t % 2 == 0 else -1
            for (a, b), c in dtheta[gamma].items():
                merged, sign = _merge_keys((a, b), rest)
                if not sign:
                    continue
                accumulate(out, merged, v * c if pos_sign * sign > 0 else -(v * c))
    return InvariantForm(f.m, f.mbar, f.degree + 1, out)


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
    bideg = f.pure_bidegree()
    df = exterior_d(s, f)
    if bideg is None:
        return df
    dp, dq = _TYPE_SHIFTS[which]
    p, q = bideg[0] + dp, bideg[1] + dq
    if p < 0 or q < 0:
        return InvariantForm.zero(f.m, f.mbar, df.degree)
    return df.component(p, q)


class HermitianMetric:
    """Positive-definite conjugate-symmetric coefficient matrix on the (1,0)-frame."""

    __slots__ = ("h",)

    def __init__(self, h: ExactMatrix):
        if not h.is_square():
            raise ValueError("metric matrix must be square")
        if h != h.conj_transpose():
            raise ValueError("metric matrix must equal its conjugate transpose")
        # Sylvester's criterion, on the minors of one Bareiss pass
        for k, d in enumerate(leading_minors(h), 1):
            if not d.is_real() or d.re <= 0:
                raise ValueError(f"leading principal minor {k} is not positive; metric is not positive definite")
        self.h = h

    @property
    def m(self) -> int:
        return self.h.rows

    @classmethod
    def identity(cls, m: int) -> "HermitianMetric":
        return cls(ExactMatrix.identity(m))

    def __eq__(self, other):
        if not isinstance(other, HermitianMetric):
            return NotImplemented
        return self.h == other.h


def kaehler_form(s: ComplexSplitting, metric: HermitianMetric) -> InvariantForm:
    """Fundamental (1,1)-form of the metric: (2i) sum h_jk zeta_j ^ conj(zeta_k).

    The real-coefficient normalization is the one reproducing the canonical
    identity-metric fixture exactly.
    """
    if metric.m != s.m:
        raise ValueError("metric size does not match the splitting")
    out = {}
    two_i = I + I
    for j in range(s.m):
        for k in range(s.m):
            v = metric.h.entry(j, k)
            if v:
                out[(j, s.m + k)] = two_i * v
    return InvariantForm(s.m, s.m, 2, out)


def is_quasi_kaehler(s: ComplexSplitting, metric: HermitianMetric) -> bool:
    """True when the fundamental form's differential has no (1,2) part."""
    omega = kaehler_form(s, metric)
    return exterior_d(s, omega).component(1, 2).is_zero()


@dataclass(frozen=True)
class SolutionReport:
    """Solution space of the coupled (2,0)-form system plus the closure audit."""

    dimension: int
    solutions: tuple
    all_closed: bool
    non_closed: tuple


def coupled_two_form_solutions(s: ComplexSplitting) -> SolutionReport:
    """Solve delbar(beta) + A(conj beta) = 0 over invariant (2,0)-forms.

    Unknown coefficients are split into rational real and imaginary parts so
    the conjugate-coupled system is one exact linear system; every solution
    is then audited for d-closedness.  The reported dimension is the real
    dimension of the solution space.  Raises SectorShapeError without the
    quasi-Kaehler sector shape.
    """
    s.holomorphic()
    m = s.m
    keys20 = list(combinations(range(m), 2))
    unknowns = 2 * len(keys20)

    target_keys = sorted(
        key for key in combinations(range(2 * m), 3) if sum(1 for idx in key if idx < m) == 2
    )
    target_index = {key: t for t, key in enumerate(target_keys)}

    columns = []
    for key in keys20:
        for part_scalar in (ONE, I):
            beta = InvariantForm.monomial(m, m, key, part_scalar)
            image = exterior_d(s, beta).component(2, 1) + exterior_d(s, beta.conjugate()).component(2, 1)
            col = [ZERO] * len(target_keys)
            for kk, v in image.coeffs.items():
                col[target_index[kk]] = v
            columns.append(col)

    rows = []
    for t in range(len(target_keys)):
        row_re = {}
        row_im = {}
        for u in range(unknowns):
            v = columns[u][t]
            if v.re:
                row_re[u] = gaussian(v.re)
            if v.im:
                row_im[u] = gaussian(v.im)
        if row_re:
            rows.append(row_re)
        if row_im:
            rows.append(row_im)

    kernel = kernel_from_rows(unknowns, rows)
    solutions = []
    for vec in kernel:
        coeffs = {}
        for idx, key in enumerate(keys20):
            c = vec[2 * idx] + I * vec[2 * idx + 1]
            if c:
                coeffs[key] = c
        solutions.append(InvariantForm(m, m, 2, coeffs))
    non_closed = tuple(f for f in solutions if not exterior_d(s, f).is_zero())
    return SolutionReport(
        dimension=len(kernel),
        solutions=tuple(solutions),
        all_closed=not non_closed,
        non_closed=non_closed,
    )


def real_coframe_coefficients(s: ComplexSplitting, f: InvariantForm, basis: Sequence[Sequence]) -> dict:
    """Coefficients of f in the dual coframe of the given real basis.

    Returns {increasing index tuple: value} with zero entries omitted; for a
    2-form the (a, b) entry is just f evaluated on (basis[a], basis[b]).
    """
    coords = [s.to_combined(v) for v in basis]
    out = {}
    for key in combinations(range(len(basis)), f.degree):
        value = f.evaluate([coords[t] for t in key])
        if value:
            out[key] = value
    return out


# -- text format -------------------------------------------------------------

_TOKEN_RE = _re.compile(r"^(zb|z)(\d+)$")


def format_form(f: InvariantForm) -> str:
    """Canonical text rendering; round-trips through parse_form."""
    if not f.coeffs:
        return "0"
    terms = []
    for key in sorted(f.coeffs):
        coeff = f.coeffs[key]
        cs = format_scalar(coeff)
        if coeff.re and coeff.im:
            cs = f"({cs})"
        if key:
            mono = "^".join(f"z{idx + 1}" if idx < f.m else f"zb{idx - f.m + 1}" for idx in key)
            terms.append(f"{cs}*{mono}")
        else:
            terms.append(cs)
    return " + ".join(terms)


def parse_form(text: str, m: int, mbar: int) -> InvariantForm:
    """Parse the form text format; all terms must share one degree."""
    s = text.strip()
    if s == "0":
        return InvariantForm.zero(m, mbar, 0)
    degree = None
    coeffs: dict = {}
    for raw_term in s.split(" + "):
        term = raw_term.strip()
        if not term:
            raise ValueError("empty term in form literal")
        # A coefficient string never contains the letters z or n, so the
        # coefficient/monomial boundary is the first '*' followed by one;
        # an n there starts a token that the check below rejects.
        split_at = None
        for pos, ch in enumerate(term):
            if ch == "*" and pos + 1 < len(term) and term[pos + 1] in "zn":
                split_at = pos
                break
        if split_at is not None:
            coeff_text, mono_text = term[:split_at], term[split_at + 1 :]
        elif term[0] in "zn":
            coeff_text, mono_text = "1", term
        else:
            coeff_text, mono_text = term, ""
        coeff_text = coeff_text.strip()
        if coeff_text.startswith("(") and coeff_text.endswith(")"):
            coeff_text = coeff_text[1:-1]
        coeff = parse_scalar(coeff_text)
        indices = []
        if mono_text:
            for token in mono_text.split("^"):
                mt = _TOKEN_RE.match(token.strip())
                if not mt:
                    raise ValueError(f"bad coframe token {token!r}")
                kind, num = mt.group(1), int(mt.group(2)) - 1
                if not 0 <= num < (m if kind == "z" else mbar):
                    raise ValueError(f"coframe token {token!r} out of range")
                indices.append(num if kind == "z" else m + num)
        key, sign = _sort_key(indices)
        if not sign:
            continue
        if sign < 0:
            coeff = -coeff
        if degree is None:
            degree = len(indices)
        elif degree != len(indices):
            raise ValueError("terms of different degree in one form literal")
        accumulate(coeffs, key, coeff)
    return InvariantForm(m, mbar, degree or 0, coeffs)
