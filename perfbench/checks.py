"""Answer checks computed apart from chernflat.

Each check reads one job's exit code and JSON output and compares them with
facts that follow from how the input was built, or with exact eliminations
the benchmark runs itself (stdlib ``fractions`` and integers only).  A check
raises ``WrongAnswer`` on the first disagreement.
"""

from __future__ import annotations

import json

import inputs
from exact import ZERO, RationalEchelon, det, gadd, gconj, gmul, gnonzero, parse_scalar


class WrongAnswer(Exception):
    pass


def _expect(what: str, got, want) -> None:
    if got != want:
        raise WrongAnswer(f"{what}: got {got!r}, expected {want!r}")


# -- invariants of the real algebra ---------------------------------------------


def _bracket_with_basis(model: inputs.Model, v: list, j: int) -> dict:
    """[v, e_j] as a sparse vector."""
    out: dict = {}
    for (a, b), vec in model.brackets.items():
        if b == j and v[a]:
            coeff = v[a]
        elif a == j and v[b]:
            coeff = -v[b]
        else:
            continue
        for k, c in vec.items():
            out[k] = out.get(k, 0) + coeff * c
    return out


def center_dim(model: inputs.Model) -> int:
    """n minus the rank of x -> ([x, e_j])_j."""
    n = model.n
    ech = RationalEchelon()
    for j in range(n):
        for k in range(n):
            row = {}
            for i in range(n):
                if i < j:
                    c = model.brackets.get((i, j), {}).get(k, 0)
                elif i > j:
                    c = -model.brackets.get((j, i), {}).get(k, 0)
                else:
                    c = 0
                if c:
                    row[i] = c
            ech.add(row)
    return n - ech.rank


def nilpotency_step(model: inputs.Model):
    """Number of nonzero lower central terms, or None if the series stalls."""
    n = model.n
    current = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    step = 0
    while current:
        step += 1
        ech = RationalEchelon()
        for v in current:
            for j in range(n):
                ech.add(_bracket_with_basis(model, v, j))
        if ech.rank == len(current):
            return None
        current = ech.basis(n)
    return step


def deformation_rank(model: inputs.Model) -> int:
    """Rank of the system LJ + JL = 0, L[e_i, e_j] + [L e_i, e_j] = 0 (i != j).

    Unknowns are the entries L_rc, flattened row-major; J is the standard
    structure, J e_k = e_{m+k} and J e_{m+k} = -e_k.
    """
    n, m = model.n, model.m
    j_entries = {}
    for k in range(m):
        j_entries[(m + k, k)] = 1
        j_entries[(k, m + k)] = -1
    ech = RationalEchelon()
    for a in range(n):
        for b in range(n):
            row: dict = {}
            for (r, c), v in j_entries.items():
                if c == b:   # (L J)_ab picks L_{a r} J_{r b}
                    row[a * n + r] = row.get(a * n + r, 0) + v
                if r == a:   # (J L)_ab picks J_{a c} L_{c b}
                    row[c * n + b] = row.get(c * n + b, 0) + v
            ech.add(row)

    def bracket(i: int, j: int) -> dict:
        if i < j:
            return model.brackets.get((i, j), {})
        return {k: -c for k, c in model.brackets.get((j, i), {}).items()}

    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            bij = bracket(i, j)
            for k in range(n):
                row = {}
                for c, v in bij.items():
                    row[k * n + c] = row.get(k * n + c, 0) + v
                for r in range(n):
                    v = bracket(r, j).get(k, 0)
                    if v:
                        row[r * n + i] = row.get(r * n + i, 0) + v
                ech.add(row)
    return ech.rank


# -- per-command checks -----------------------------------------------------------


def _parse(stdout: str) -> dict:
    try:
        obj = json.loads(stdout)
    except ValueError:
        raise WrongAnswer(f"output is not JSON: {stdout[:200]!r}") from None
    if not isinstance(obj, dict):
        raise WrongAnswer("output is not a JSON object")
    return obj


def check_verify(job, code: int, stdout: str) -> None:
    out = _parse(stdout)
    model = job.model
    _expect("dim", out.get("dim"), model.n)
    _expect("field", out.get("field"), "Q")
    _expect("nilpotency-step", out.get("nilpotency-step"), nilpotency_step(model))
    _expect("two-step", out.get("two-step"), True)
    _expect("center-dim", out.get("center-dim"), center_dim(model))
    _expect("chern-flat", out.get("chern-flat"), True)
    _expect("center-j-invariant", out.get("center-j-invariant"), True)
    if job.family == "ordinary-complexification":
        # integrable, Chern-flat, but its holomorphic brackets stay holomorphic
        _expect("exit code", code, 1)
        _expect("nijenhuis-zero", out.get("nijenhuis-zero"), True)
        _expect("qk-chern-flat", out.get("qk-chern-flat"), False)
        _expect("verdict", out.get("verdict"), False)
        if "qk-chern-flat-witness" not in out:
            raise WrongAnswer("failing qk-chern-flat row carries no witness")
    else:
        # conjugate doublings and realized holomorphic constants have the
        # quasi-Kaehler sector shape by construction
        _expect("exit code", code, 0)
        _expect("qk-chern-flat", out.get("qk-chern-flat"), True)
        _expect("two-step-certificate", out.get("two-step-certificate"), True)
        _expect("nijenhuis-zero", out.get("nijenhuis-zero"), False)
        _expect("quasi-kaehler", out.get("quasi-kaehler"), True)
        _expect("verdict", out.get("verdict"), True)
        witnesses = sorted(k for k in out if k.endswith("-witness"))
        _expect("witness rows", witnesses, [])


def _target(kind: str, m: int) -> dict:
    if kind == "dim4":
        return {(0, 1): {2: (1, 0)}}
    return {key: {m - 1: (1, 0)} for key in inputs.center_one_constants(m)}


def check_normal_form(job, code: int, stdout: str) -> None:
    _expect("exit code", code, 0)
    out = _parse(stdout)
    m = job.model.m
    kind = "dim4" if job.family == "dim4-scrambled" else "center_one"
    _expect("kind", out.get("kind"), kind)
    _expect("parameters", out.get("parameters"), {} if kind == "dim4" else {"pairs": (m - 1) // 2})
    _expect(
        "self-test",
        out.get("self-test"),
        f"{job.trials} trials, seed {job.trial_seed}, all matched",
    )
    target = _target(kind, m)
    printed = {}
    for item in out.get("constants", []):
        key = (item["i"] - 1, item["j"] - 1)
        printed.setdefault(key, {})[item["k"] - 1] = parse_scalar(item["coeff"])
    _expect("constants", printed, target)

    rows = out.get("frame")
    if not (isinstance(rows, list) and len(rows) == m and all(len(r) == m for r in rows)):
        raise WrongAnswer(f"frame is not {m} x {m}")
    frame = [[parse_scalar(v) for v in row] for row in rows]
    if not gnonzero(det(frame)):
        raise WrongAnswer("printed frame is singular")
    # [W_i, W_j] = sum_l target_ij^l conj W_l with conj W_l = sum_k conj(F_kl) conj Z_k,
    # so the input constants pushed through F must equal conj(F) applied to the target.
    for (i, j), t in inputs.frame_products(m, job.model.holomorphic, frame).items():
        want = target.get((i, j), {})
        for k in range(m):
            acc = ZERO
            for l, c in want.items():
                acc = gadd(acc, gmul(gconj(frame[k][l]), c))
            if acc != t[k]:
                raise WrongAnswer(f"frame does not carry the input to the target at ({i + 1}, {j + 1}, {k + 1})")


def check_deform(job, code: int, stdout: str) -> None:
    _expect("exit code", code, 0)
    out = _parse(stdout)
    n = job.model.n
    _expect("dim", out.get("dim"), n)
    solution = n * n - deformation_rank(job.model)
    inner = n - center_dim(job.model)
    _expect("solution-dim", out.get("solution-dim"), solution)
    _expect("inner-rank", out.get("inner-rank"), inner)
    _expect("essential-dim", out.get("essential-dim"), solution - inner)


CHECKS = {"verify": check_verify, "normal-form": check_normal_form, "deform": check_deform}


def check(job, code: int, stdout: str) -> None:
    try:
        CHECKS[job.command](job, code, stdout)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        raise WrongAnswer(f"malformed output: {exc!r}") from None
