"""Exact scalar arithmetic over Q and Q(i).

Rationals are plain :class:`fractions.Fraction` values (already canonical:
gcd-reduced, positive denominator).  :class:`GaussianRational` layers an exact
imaginary part on top so that every field operation stays inside Q(i) and
equality is decidable.  No floats ever enter or leave this module.

Text format (round-trips exactly):

    "p/q"           rational (also plain "p")
    "r/s*i"         purely imaginary ("i" and "-i" are accepted and printed)
    "p/q+r/s*i"     both parts
    "p/q-r/s*i"     negative imaginary part
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import lcm

__all__ = [
    "GaussianRational",
    "ZERO",
    "ONE",
    "I",
    "gaussian",
    "clear_denominators",
    "accumulate",
    "format_rational",
    "parse_scalar",
    "format_scalar",
]


class GaussianRational:
    """A complex number with exact rational real and imaginary parts.

    Instances are immutable by convention: attributes are assigned once in
    ``__init__`` and never rebound afterwards.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, GaussianRational):
            if im != 0:
                raise ValueError("cannot combine a GaussianRational with an extra imaginary part")
            self.re = re.re
            self.im = re.im
            return
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def _make(cls, re: Fraction, im: Fraction) -> "GaussianRational":
        z = object.__new__(cls)
        z.re = re
        z.im = im
        return z

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_real(self) -> bool:
        return not self.im

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational._make(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational._make(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational._make(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational._make(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        n2 = other.re * other.re + other.im * other.im
        if not n2:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational._make(
            (self.re * other.re + self.im * other.im) / n2,
            (self.im * other.re - self.re * other.im) / n2,
        )

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        return GaussianRational._make(-self.re, -self.im)

    def __pos__(self):
        return self

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return (ONE / self) ** (-exponent)
        out = ONE
        base = self
        k = exponent
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "GaussianRational":
        return GaussianRational._make(self.re, -self.im)

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"GaussianRational({format_scalar(self)!r})"


def _coerce(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational._make(Fraction(value), Fraction(0))
    return None


def gaussian(value) -> GaussianRational:
    """Coerce an int, Fraction or GaussianRational into Q(i)."""
    z = _coerce(value)
    if z is None:
        raise TypeError(f"cannot interpret {value!r} as an exact Q(i) scalar")
    return z


def clear_denominators(values) -> tuple:
    """Gaussian-integer numerators of Q(i) values over one shared denominator.

    Returns (d, re, im): d is the least common denominator of every real and
    imaginary part, and re[t] + i im[t] is values[t] times d, with re and im
    lists of ints in input order.  A homogeneous polynomial identity of
    degree t then holds for the values iff it holds, scaled by d**t, for the
    numerators, so exact checks can run on Python ints alone.
    """
    re_num, re_den, im_num, im_den = [], [], [], []
    for v in values:
        z = v if v.__class__ is GaussianRational else gaussian(v)
        q = z.re
        re_num.append(q.numerator)
        re_den.append(q.denominator)
        q = z.im
        im_num.append(q.numerator)
        im_den.append(q.denominator)
    d = lcm(*re_den, *im_den)
    re = [a * (d // b) for a, b in zip(re_num, re_den)]
    im = [a * (d // b) for a, b in zip(im_num, im_den)]
    return d, re, im


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def accumulate(acc: dict, key, value) -> None:
    """Add value into the sparse dict acc at key; drop the key if the sum is zero.

    A new key stores value itself, not a copy: scalars are immutable, so a
    sparse row can share the entries of the table it was read from.
    """
    cur = acc.get(key)
    cur = value if cur is None else cur + value
    if cur:
        acc[key] = cur
    else:
        acc.pop(key, None)


# -- text format ------------------------------------------------------------

# a denominator needs a nonzero digit: "1/0" is a malformed literal
_RAT = r"\d+(?:/0*[1-9]\d*)?"
_REAL_RE = _re.compile(rf"^([+-]?{_RAT})$")
_IMAG_RE = _re.compile(rf"^([+-]?)(?:({_RAT})\*)?i$")
_BOTH_RE = _re.compile(rf"^([+-]?{_RAT})([+-])(?:({_RAT})\*)?i$")


def format_rational(value) -> str:
    q = Fraction(value)
    return str(q)


def parse_scalar(text: str) -> GaussianRational:
    """Parse the exact scalar text format into a GaussianRational."""
    s = text.replace(" ", "")
    m = _REAL_RE.match(s)
    if m:
        return GaussianRational(Fraction(m.group(1)))
    m = _IMAG_RE.match(s)
    if m:
        sign, mag = m.group(1), m.group(2)
        im = Fraction(mag) if mag is not None else Fraction(1)
        if sign == "-":
            im = -im
        return GaussianRational(0, im)
    m = _BOTH_RE.match(s)
    if m:
        re_part = Fraction(m.group(1))
        im = Fraction(m.group(3)) if m.group(3) is not None else Fraction(1)
        if m.group(2) == "-":
            im = -im
        return GaussianRational(re_part, im)
    raise ValueError(f"not an exact scalar literal: {text!r}")


def format_scalar(value) -> str:
    """Format a scalar so that parse_scalar(format_scalar(z)) == z."""
    z = gaussian(value)
    if not z.im:
        return str(z.re)
    mag = abs(z.im)
    imag = "i" if mag == 1 else f"{mag}*i"
    if not z.re:
        return imag if z.im > 0 else "-" + imag
    sep = "+" if z.im > 0 else "-"
    return f"{z.re}{sep}{imag}"
