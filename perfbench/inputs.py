"""Seeded input models for the three workloads, built without chernflat.

A model is kept as ``Model``: the real dimension, the real bracket table
``{(i, j): {k: Fraction}}`` (0-based, i < j), the standard structure
(J e_k = e_{m+k}), how it was built, and, for models realized from
holomorphic constants, those constants ``{(i, j): {k: (re, im)}}`` in the
frame Z_k = e_k - i e_{m+k}.  ``model_json`` writes the 1-based file format
the CLI reads.

Every job draws its input from ``random.Random(f"{seed}:{workload}:{index}")``,
so the same seed gives the same inputs and no index repeats within a run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from exact import ONE, ZERO, det, g, gadd, gconj, gmul, gneg, gnonzero, inverse

HALF = Fraction(1, 2)


@dataclass
class Model:
    n: int
    brackets: dict
    family: str
    holomorphic: dict | None = None

    @property
    def m(self) -> int:
        return self.n // 2


def _add(table: dict, a: int, b: int, k: int, c) -> None:
    if a > b:
        a, b, c = b, a, -c
    row = table.setdefault((a, b), {})
    cur = row.get(k, 0) + c
    if cur:
        row[k] = cur
    else:
        row.pop(k, None)
        if not row:
            del table[(a, b)]


def random_two_step_real(rng, p: int, q: int, span: int = 3) -> dict:
    """[x_i, x_j] = sum_k c_ijk z_k on p generators and q central directions.

    Every such table satisfies Jacobi (all brackets are central).  Integer
    constants lie in [-span, span]; at least one is nonzero.
    """
    while True:
        table = {}
        for i in range(p):
            for j in range(i + 1, p):
                row = {p + k: Fraction(rng.randint(-span, span)) for k in range(q)}
                row = {k: c for k, c in row.items() if c}
                if row:
                    table[(i, j)] = row
        if table:
            return table


def doubling(h: dict, n: int, conjugate: bool) -> dict:
    """Brackets on h + ih (basis X_1..X_n, iX_1..iX_n).

    The ordinary doubling is complex-bilinear: [X, iY] = i[X, Y].  The
    conjugate doubling twists the scalars: [X, iY] = -i[X, Y].  In both,
    [iX, iY] = -[X, Y].
    """
    mixed = -1 if conjugate else 1
    out: dict = {}
    for (i, j), vec in h.items():
        for k, c in vec.items():
            _add(out, i, j, k, c)
            _add(out, i, n + j, n + k, mixed * c)
            _add(out, j, n + i, n + k, -mixed * c)
            _add(out, n + i, n + j, k, -c)
    return out


def realize(m: int, constants: dict) -> dict:
    """Real brackets of the pair whose only constants are [Z_i, Z_j] = c^k conj Z_k.

    With e_k = (Z_k + conj Z_k)/2 and e_{m+k} = i(Z_k - conj Z_k)/2 and
    c = a + b i, the bracket [e_i, e_j] = (a e_k - b e_{m+k})/2 and its
    companions follow by bilinearity.
    """
    out: dict = {}
    for (i, j), vec in constants.items():
        for k, (a, b) in vec.items():
            _add(out, i, j, k, HALF * a)
            _add(out, i, j, m + k, -HALF * b)
            _add(out, m + i, m + j, k, -HALF * a)
            _add(out, m + i, m + j, m + k, HALF * b)
            _add(out, i, m + j, k, -HALF * b)
            _add(out, i, m + j, m + k, -HALF * a)
            _add(out, j, m + i, k, HALF * b)
            _add(out, j, m + i, m + k, HALF * a)
    return out


def full_constants(m: int, constants: dict) -> list:
    """Dense antisymmetric c[a][b][k] from the i < j table."""
    full = [[[ZERO] * m for _ in range(m)] for _ in range(m)]
    for (a, b), vec in constants.items():
        for k, c in vec.items():
            full[a][b][k] = c
            full[b][a][k] = gneg(c)
    return full


def frame_products(m: int, constants: dict, frame: list) -> dict:
    """t_ij^k = sum_{a,b} F_ai F_bj c_ab^k: [W_i, W_j] on the old conjugate frame."""
    full = full_constants(m, constants)
    out = {}
    for i in range(m):
        for j in range(i + 1, m):
            t = [ZERO] * m
            for a in range(m):
                fa = frame[a][i]
                if not gnonzero(fa):
                    continue
                for b in range(m):
                    fb = frame[b][j]
                    if a == b or not gnonzero(fb):
                        continue
                    f = gmul(fa, fb)
                    for k, c in enumerate(full[a][b]):
                        if gnonzero(c):
                            t[k] = gadd(t[k], gmul(f, c))
            out[(i, j)] = t
    return out


def reframe(m: int, constants: dict, frame: list) -> dict:
    """Constants in the frame W_i = sum_a F_ai Z_a (F invertible)."""
    conj_inv = inverse([[gconj(v) for v in row] for row in frame])
    out = {}
    for key, t in frame_products(m, constants, frame).items():
        vec = {}
        for l in range(m):
            acc = ZERO
            for k in range(m):
                if gnonzero(t[k]):
                    acc = gadd(acc, gmul(conj_inv[l][k], t[k]))
            if gnonzero(acc):
                vec[l] = acc
        if vec:
            out[key] = vec
    return out


def random_frame(rng, m: int) -> list:
    """Invertible m x m frame, entries re in [-2, 2] and im in [-1, 1]."""
    while True:
        frame = [[g(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(m)] for _ in range(m)]
        if gnonzero(det(frame)):
            return frame


def center_one_constants(m: int) -> dict:
    return {(i, j): {m - 1: ONE} for i in range(m - 1) for j in range(i + 1, m - 1)}


DIM4_CONSTANTS = {(0, 1): {2: ONE}}


def holomorphic_model(m: int, constants: dict, family: str) -> Model:
    return Model(2 * m, realize(m, constants), family, constants)


def scrambled(rng, m: int, constants: dict, family: str) -> Model:
    return holomorphic_model(m, reframe(m, constants, random_frame(rng, m)), family)


def doubled(rng, dims, conjugate: bool, family: str) -> Model:
    p, q = rng.choice(dims)
    return Model(2 * (p + q), doubling(random_two_step_real(rng, p, q), p + q, conjugate), family)


def small_center_one(rng, m: int) -> Model:
    """The center-one shape with small nonzero Gaussian-integer constants."""
    consts = {}
    for key in center_one_constants(m):
        c = ZERO
        while not gnonzero(c):
            c = g(rng.randint(-2, 2), rng.randint(-1, 1))
        consts[key] = {m - 1: c}
    return holomorphic_model(m, consts, "center-one-small")


def max_bits(model: Model) -> int:
    """Largest numerator or denominator bit length among the real constants."""
    return max(
        (max(abs(c.numerator).bit_length(), c.denominator.bit_length())
         for vec in model.brackets.values() for c in vec.values()),
        default=0,
    )


def model_json(model: Model) -> dict:
    n, m = model.n, model.m
    brackets = [
        {"i": i + 1, "j": j + 1, "out": [{"k": k + 1, "coeff": str(c)} for k, c in sorted(vec.items())]}
        for (i, j), vec in sorted(model.brackets.items())
    ]
    j_rows = [["0"] * n for _ in range(n)]
    for k in range(m):
        j_rows[m + k][k] = "1"
        j_rows[k][m + k] = "-1"
    return {"dim": n, "field": "Q", "brackets": brackets, "J": j_rows}
