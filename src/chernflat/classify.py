"""Normal forms for flat two-step pairs.

The classification machinery works on the holomorphic constants of a pair
with the quasi-Kaehler sector shape: an AdaptedConstants table, which a
splitting gives through ComplexSplitting.holomorphic().  Two families admit
constructive normal forms:

  * complex dimension 4: every such non-abelian pair can be reframed so the
    only constant is c_{12} = 1 on the third conjugate direction (a counting
    argument on the center forces the bracket image to span a single
    direction, which the algorithm verifies rather than assumes);
  * complex center of dimension 1: the bracket degenerates to a skew pairing
    on a complement of the center, and a Darboux-style reduction reframes it
    so every generator pair has constant 1 on the last conjugate direction.

Every normal-form routine finishes by recomputing the constants in the frame
it produced and asserting they equal the advertised target exactly.
normal_form dispatches to the two routines, and the center-dimension check of
center_one_normal_form is the one that rejects the other dimensions.
normal_form, like the predicates of acs, takes the splitting s = split(g, acs)
of the pair alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .acs import (
    AdaptedConstants,
    ComplexSplitting,
    SectorShapeError,
    reframed_constants,
    split,
)
from .lie import is_two_step
from .linalg import Echelon, ExactMatrix, NumeratorRow, inverse, kernel_from_rows, random_invertible, rank
from .scalars import GaussianRational, ONE, ZERO

__all__ = [
    "NormalFormError",
    "NormalFormResult",
    "darboux_frame",
    "skew_to_all_ones",
    "dim4_normal_form",
    "center_one_normal_form",
    "normal_form",
    "random_frame_scramble",
]


class NormalFormError(ValueError):
    """Input outside the family a normal-form routine classifies."""


@dataclass(frozen=True)
class NormalFormResult:
    """A frame realizing a normal form, with the constants it achieves.

    frame columns express the new holomorphic frame in the splitting's
    Z-frame; constants are the recomputed structure constants in that frame
    (coefficients on the conjugate directions), already verified against the
    target shape.
    """

    kind: str
    frame: ExactMatrix
    constants: dict
    parameters: dict


# -- skew bilinear reduction -------------------------------------------------


def _skew_value(omega: ExactMatrix, x, y) -> GaussianRational:
    acc = ZERO
    for a, xa in enumerate(x):
        if not xa:
            continue
        for b, yb in enumerate(y):
            if yb:
                v = omega.entry(a, b)
                if v:
                    acc = acc + xa * v * yb
    return acc


def darboux_frame(omega: ExactMatrix):
    """Basis (u1, w1, .., uk, wk, kernel...) with omega(u_t, w_t) = 1.

    Returns (T, k) where the columns of T are the basis vectors and k is the
    number of hyperbolic pairs; in that basis the form is the standard block
    of k unit pairs followed by zeros.
    """
    if not omega.is_square():
        raise ValueError("skew form matrix must be square")
    r = omega.rows
    if omega.transpose() != -omega:
        raise ValueError("matrix is not skew-symmetric")
    remaining = []
    for t in range(r):
        v = [ZERO] * r
        v[t] = ONE
        remaining.append(v)
    pairs = []
    while True:
        found = None
        for a in range(len(remaining)):
            for b in range(a + 1, len(remaining)):
                val = _skew_value(omega, remaining[a], remaining[b])
                if val:
                    found = (a, b, val)
                    break
            if found:
                break
        if not found:
            break
        a, b, val = found
        u = remaining[a]
        w = [c / val for c in remaining[b]]
        pairs.extend([u, w])
        rest = []
        for t, x in enumerate(remaining):
            if t in (a, b):
                continue
            cu = _skew_value(omega, w, x)
            cw = _skew_value(omega, u, x)
            rest.append([xc + cu * uc - cw * wc for xc, uc, wc in zip(x, u, w)])
        remaining = rest
    cols = pairs + remaining
    t_mat = ExactMatrix.from_columns(cols)
    return t_mat, len(pairs) // 2


def _all_ones_upper(r: int) -> ExactMatrix:
    return ExactMatrix(
        [[ONE if a < b else (-ONE if a > b else ZERO) for b in range(r)] for a in range(r)]
    )


def skew_to_all_ones(omega: ExactMatrix) -> ExactMatrix:
    """T with T^t omega T having every above-diagonal entry equal to 1.

    Requires a nondegenerate skew form of even size.
    """
    r = omega.rows
    if r % 2 != 0:
        raise NormalFormError("skew form of odd size cannot be nondegenerate")
    t1, k1 = darboux_frame(omega)
    if 2 * k1 != r:
        raise NormalFormError("skew form is degenerate")
    target = _all_ones_upper(r)
    t2, k2 = darboux_frame(target)
    if 2 * k2 != r:
        raise AssertionError("all-ones target form should be nondegenerate")
    t_mat = t1 * inverse(t2)
    achieved = t_mat.transpose() * omega * t_mat
    if achieved != target:
        raise AssertionError("skew reduction failed to reach the target form")
    return t_mat


# -- center computations -----------------------------------------------------


def _holomorphic_center_kernel(c: AdaptedConstants):
    """Kernel vectors of a -> [sum a_i Z_i, Z_j] over all (j, target)."""
    # the row (j, k) is into[j][k], D c_ij^k at i
    return kernel_from_rows(c.m, (NumeratorRow(row) for col in c._numerators[2] for row in col if row))


# -- dimension-4 normal form -------------------------------------------------


def dim4_normal_form(c: AdaptedConstants) -> NormalFormResult:
    """Reframe the constants of a non-abelian flat two-step pair of complex dimension 4.

    Output constants are exactly {(0, 1): {2: 1}}: one bracket, coefficient
    one, landing on the third conjugate direction, fourth direction central.
    """
    if not isinstance(c, AdaptedConstants):
        raise TypeError("dim4_normal_form expects an AdaptedConstants table")
    if c.m != 4:
        raise NormalFormError("this normal form applies to complex dimension 4")
    m = 4
    nonzero = [(pair, tuple(row.get(k, ZERO) for k in range(m))) for pair, row in sorted(c._rows.items())]
    if not nonzero:
        raise NormalFormError("abelian algebra has no normal form in this family")

    conj_images = [[x.conjugate() for x in vec] for _, vec in nonzero]
    if rank(ExactMatrix.from_columns(conj_images)) != 1:
        raise NormalFormError("bracket image spans more than one direction; preconditions violated")

    (i, j), vec = nonzero[0]
    w1 = [ONE if t == i else ZERO for t in range(m)]
    w2 = [ONE if t == j else ZERO for t in range(m)]
    w3 = [x.conjugate() for x in vec]
    fourth = None
    for r in range(m):
        if r in (i, j):
            continue
        cand = [ONE if t == r else ZERO for t in range(m)]
        if rank(ExactMatrix.from_columns([w1, w2, w3, cand])) == 4:
            fourth = cand
            break
    if fourth is None:
        raise AssertionError("could not complete the frame; central direction missing")

    frame0 = ExactMatrix.from_columns([w1, w2, w3, fourth])
    inter = reframed_constants(c, frame0)
    c0 = inter.table()
    if c0.get((0, 1)) != {2: ONE}:
        raise AssertionError("conjugate-image substitution did not normalize the leading bracket")
    for key, row in c0.items():
        if 2 in key:
            raise AssertionError("third frame direction is not central")
        if set(row) - {2}:
            raise AssertionError("bracket image left the expected direction")
    alpha = c0.get((0, 3), {}).get(2, ZERO)
    beta = c0.get((1, 3), {}).get(2, ZERO)
    shear = [
        [ONE, ZERO, ZERO, beta],
        [ZERO, ONE, ZERO, -alpha],
        [ZERO, ZERO, ONE, ZERO],
        [ZERO, ZERO, ZERO, ONE],
    ]
    shear_mat = ExactMatrix(shear)
    frame = frame0 * shear_mat
    final = reframed_constants(inter, shear_mat).table()
    if final != {(0, 1): {2: ONE}}:
        raise AssertionError("final constants do not match the normal form target")
    return NormalFormResult("dim4", frame, final, {})


# -- center-one normal form --------------------------------------------------


def center_one_normal_form(c: AdaptedConstants) -> NormalFormResult:
    """Reframe the constants of a flat two-step pair whose complex center has dimension 1.

    Output constants are exactly {(i, j): {n-1: 1}} for all i < j < n-1:
    every pair of the 2k non-central directions brackets onto the last
    conjugate direction with coefficient one.
    """
    if not isinstance(c, AdaptedConstants):
        raise TypeError("center_one_normal_form expects an AdaptedConstants table")
    m = c.m
    kern = _holomorphic_center_kernel(c)
    if len(kern) != 1:
        raise NormalFormError(
            f"no constructive normal form for complex dimension {m} with complex center dimension {len(kern)}"
        )
    gen = list(kern[0])
    lead = next(t for t, x in enumerate(gen) if x)
    gen = [x / gen[lead] for x in gen]

    ech = Echelon(m)
    ech.add({t: x for t, x in enumerate(gen) if x})
    complement = []
    for t in range(m):
        if len(complement) == m - 1:
            break
        if ech.add({t: ONE}):
            complement.append([ONE if u == t else ZERO for u in range(m)])
    if len(complement) != m - 1:
        raise AssertionError("could not complete the center generator to a frame")

    frame0 = ExactMatrix.from_columns(complement + [gen])
    inter = reframed_constants(c, frame0)
    omega_entries = [[ZERO] * (m - 1) for _ in range(m - 1)]
    for (a, b), row in inter.table().items():
        if m - 1 in (a, b):
            raise AssertionError("center generator is not central in the new frame")
        if set(row) - {m - 1}:
            raise AssertionError("derived algebra is not contained in the center direction")
        v = row[m - 1]
        omega_entries[a][b] = v
        omega_entries[b][a] = -v
    omega = ExactMatrix(omega_entries)
    t_mat = skew_to_all_ones(omega)

    block = [
        [t_mat.entry(a, b) if a < m - 1 and b < m - 1 else (ONE if a == b else ZERO) for b in range(m)]
        for a in range(m)
    ]
    block_mat = ExactMatrix(block)
    frame = frame0 * block_mat
    final = reframed_constants(inter, block_mat).table()
    target = {(a, b): {m - 1: ONE} for a in range(m - 1) for b in range(a + 1, m - 1)}
    if final != target:
        raise AssertionError("final constants do not match the normal form target")
    return NormalFormResult("center_one", frame, final, {"pairs": (m - 1) // 2})


def normal_form(s: ComplexSplitting) -> NormalFormResult:
    """Dispatch the pair of s to the applicable normal form; raises NormalFormError outside."""
    try:
        c = s.holomorphic()
    except SectorShapeError:
        raise NormalFormError("normal forms require the quasi-Kaehler sector shape") from None
    if s.g.is_abelian():
        raise NormalFormError("abelian algebras are their own normal form; nothing to do")
    if not is_two_step(s.g):
        raise NormalFormError("normal form requires a two-step algebra")
    return dim4_normal_form(c) if c.m == 4 else center_one_normal_form(c)


# -- frame scrambles ---------------------------------------------------------


def random_frame_scramble(s: ComplexSplitting, rng):
    """Rebuild the pair of the splitting s from its constants in a random holomorphic frame.

    Returns (g2, acs2, frame); the frame is an invertible complex matrix and
    the new pair is isomorphic to the input through it.  Requires the
    quasi-Kaehler sector shape.
    """
    s2, frame = _scrambled_copy(s.holomorphic(), rng)
    return s2.g, s2.acs, frame


def _scrambled_copy(c: AdaptedConstants, rng):
    """random_frame_scramble from the holomorphic constants c of the input.

    Returns (s2, frame), where s2 is the splitting of the rebuilt pair
    (s2.g, s2.acs) that the round-trip assertion checked, so a caller can
    reuse it.
    """
    from .constructions import _assert_round_trip, from_holomorphic_constants

    frame = random_invertible(c.m, rng)
    constants = reframed_constants(c, frame).table()
    s2 = split(*from_holomorphic_constants(c.m, constants, check=False))
    _assert_round_trip(s2, constants)
    return s2, frame
