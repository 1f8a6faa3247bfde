"""Command-line interface.

Subcommands: verify, normal-form, deform, lemma, construct, catalog.
Models are JSON files or @name catalog references.  Exit codes: 0 when every
checked predicate holds, 1 when a predicate fails or a computation's
preconditions are not met, 2 for input errors (unreadable or invalid files,
unknown catalog names, malformed arguments), 3 for an internal inconsistency:
two characterizations of one property disagree (an AssertionError).
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from .acs import (
    SectorShapeError,
    check_center_j_invariant,
    is_chern_flat,
    is_qk_chern_flat,
    nijenhuis,
    split,
    two_step_certificate,
)
from .classify import NormalFormError, _scrambled_copy, normal_form
from .constructions import (
    UnknownCatalogNameError,
    catalog,
    catalog_names,
    complexification,
    conjugate_complexification,
    from_holomorphic_constants,
)
from .deform import deformation_space
from .fileio import (
    ModelFormatError,
    UnknownCatalogError,
    dumps_model,
    load_metric_matrix,
    model_object,
    resolve_model,
)
from .forms import HermitianMetric, coupled_two_form_solutions, format_form, is_quasi_kaehler
from .lie import JacobiError, center, is_two_step, nilpotency_step
from .scalars import format_scalar, parse_scalar

__all__ = ["main"]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "-"
    return str(value)


def _emit(rows, as_json: bool, out) -> None:
    if as_json:
        obj = {}
        for key, value in rows:
            obj[key] = value
        print(json.dumps(obj, indent=2, sort_keys=True), file=out)
    else:
        width = max((len(k) for k, _ in rows), default=0)
        for key, value in rows:
            print(f"{key.ljust(width)}  {_fmt(value)}", file=out)


def _constants_listing(constants: dict) -> list:
    out = []
    for (i, j) in sorted(constants):
        for k in sorted(constants[(i, j)]):
            out.append(
                {"i": i + 1, "j": j + 1, "k": k + 1, "coeff": format_scalar(constants[(i, j)][k])}
            )
    return out


def _witness_text(witness: tuple) -> str:
    """A library witness (kind, 0-based indices...) shown with 1-based indices."""
    return str((witness[0],) + tuple(i + 1 for i in witness[1:]))


def _cmd_verify(args) -> int:
    g, acs, label = resolve_model(args.model)
    if acs is None and args.metric:
        print("error: --metric needs a model with a structure matrix J", file=sys.stderr)
        return 2
    rows = [
        ("model", label),
        ("dim", g.dim),
        ("field", g.field),
        ("nilpotency-step", nilpotency_step(g)),
        ("two-step", is_two_step(g)),
        ("center-dim", center(g).dim),
    ]
    ok = True
    if acs is not None:
        s = split(g, acs)
        cf = is_chern_flat(s)
        qk = is_qk_chern_flat(s)
        torsion_zero = not nijenhuis(s)
        rows.append(("chern-flat", bool(cf)))
        if not cf:
            rows.append(("chern-flat-witness", _witness_text(cf.witness)))
        rows.append(("qk-chern-flat", bool(qk)))
        if not qk:
            rows.append(("qk-chern-flat-witness", _witness_text(qk.witness)))
        rows.append(("nijenhuis-zero", torsion_zero))
        if cf:
            rows.append(("center-j-invariant", check_center_j_invariant(s)))
        if qk:
            rows.append(("two-step-certificate", two_step_certificate(s)))
        if args.metric:
            try:
                metric = HermitianMetric(load_metric_matrix(args.metric, s.m))
            except ValueError as exc:
                if isinstance(exc, ModelFormatError):
                    raise
                print(f"error[metric]: {exc}", file=sys.stderr)
                return 2
        else:
            metric = HermitianMetric.identity(s.m)
        qkm = is_quasi_kaehler(s, metric)
        rows.append(("quasi-kaehler", qkm))
        ok = bool(cf) and bool(qk) and qkm
    rows.append(("verdict", ok))
    _emit(rows, args.format == "json", sys.stdout)
    return 0 if ok else 1


def _cmd_normal_form(args) -> int:
    if args.trials < 0:
        print(f"error: --trials must be 0 or more, got {args.trials}", file=sys.stderr)
        return 2
    g, acs, label = resolve_model(args.model)
    if acs is None:
        print("error: model has no structure matrix", file=sys.stderr)
        return 1
    s = split(g, acs)
    try:
        result = normal_form(s)
    except NormalFormError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    selftest = None
    if args.trials > 0:
        # A trial reads only the holomorphic constants of the input; keeping
        # those instead of the real algebra and its splitting lowers the peak
        # memory while a trial's rebuilt copy is alive.
        constants = s.holomorphic()
        del g, acs, s
        rng = random.Random(args.seed)
        for _ in range(args.trials):
            s2, _ = _scrambled_copy(constants, rng)
            try:
                repeat = normal_form(s2)
            except NormalFormError as exc:
                print(f"error: scrambled copy fell outside the family: {exc}", file=sys.stderr)
                return 1
            if repeat.constants != result.constants or repeat.kind != result.kind:
                print("error: scrambled copy produced a different normal form", file=sys.stderr)
                return 1
        selftest = f"{args.trials} trials, seed {args.seed}, all matched"
    frame_rows = [
        [format_scalar(result.frame.entry(r, c)) for c in range(result.frame.cols)]
        for r in range(result.frame.rows)
    ]
    if args.format == "json":
        obj = {
            "model": label,
            "kind": result.kind,
            "frame": frame_rows,
            "constants": _constants_listing(result.constants),
            "parameters": result.parameters,
        }
        if selftest is not None:
            obj["self-test"] = selftest
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        rows = [("model", label), ("kind", result.kind)]
        for key in sorted(result.parameters):
            rows.append((f"parameter.{key}", result.parameters[key]))
        for idx, row in enumerate(frame_rows):
            rows.append((f"frame[{idx + 1}]", "  ".join(row)))
        for item in _constants_listing(result.constants):
            rows.append((f"c[{item['i']},{item['j']}]", f"{item['coeff']} on conj {item['k']}"))
        if selftest is not None:
            rows.append(("self-test", selftest))
        _emit(rows, False, sys.stdout)
    return 0


def _cmd_deform(args) -> int:
    g, acs, label = resolve_model(args.model)
    if acs is None:
        print("error: model has no structure matrix", file=sys.stderr)
        return 1
    try:
        space = deformation_space(split(g, acs))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rows = [
        ("model", label),
        ("dim", space.n),
        ("solution-dim", space.dimension),
        ("inner-rank", space.inner_rank),
        ("essential-dim", space.quotient_dimension),
    ]
    _emit(rows, args.format == "json", sys.stdout)
    return 0


def _cmd_lemma(args) -> int:
    g, acs, label = resolve_model(args.model)
    if acs is None:
        print("error: model has no structure matrix", file=sys.stderr)
        return 1
    try:
        report = coupled_two_form_solutions(split(g, acs))
    except SectorShapeError as exc:
        print(
            "error: coupled system requires quasi-Kaehler sector relations; "
            f"witness {_witness_text(exc.witness)}",
            file=sys.stderr,
        )
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    solutions = [format_form(f) for f in report.solutions]
    if args.format == "json":
        obj = {
            "model": label,
            "real-dimension": report.dimension,
            "all-closed": report.all_closed,
            "solutions": solutions,
        }
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        rows = [
            ("model", label),
            ("real-dimension", report.dimension),
            ("all-closed", report.all_closed),
        ]
        for idx, text in enumerate(solutions):
            rows.append((f"solution[{idx + 1}]", text))
        _emit(rows, False, sys.stdout)
    return 0 if report.all_closed else 1


def _parse_constant_spec(spec: str):
    head, sep, coeff_text = spec.partition(":")
    if not sep:
        raise ValueError(f"expected 'i,j,k:coeff', got {spec!r}")
    parts = head.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected three indices in {spec!r}")
    try:
        i, j, k = (int(p) for p in parts)
    except ValueError:
        raise ValueError(f"indices must be integers in {spec!r}") from None
    coeff = parse_scalar(coeff_text.strip())
    return i, j, k, coeff


def _cmd_construct(args) -> int:
    if args.kind in ("complexification", "conjugate-complexification"):
        g, _acs, _label = resolve_model(args.source)
        if g.field != "Q":
            print("error: doubling constructions need a rational model", file=sys.stderr)
            return 2
        builder = complexification if args.kind == "complexification" else conjugate_complexification
        g2, acs2 = builder(g)
    else:
        try:
            m = int(args.source)
            if m < 1:
                raise ValueError
        except ValueError:
            print("error: holomorphic construction needs a positive dimension", file=sys.stderr)
            return 2
        constants: dict = {}
        for spec in args.set or []:
            try:
                i, j, k, coeff = _parse_constant_spec(spec)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            if not (1 <= i < j <= m) or not (1 <= k <= m):
                rule = f"need 1 <= i < j <= {m} and 1 <= k <= {m}"
                print(f"error: indices out of range in {spec!r}: {rule}", file=sys.stderr)
                return 2
            row = constants.setdefault((i - 1, j - 1), {})
            prev = row.get(k - 1)
            row[k - 1] = coeff if prev is None else prev + coeff
        try:
            g2, acs2 = from_holomorphic_constants(m, constants)
        except JacobiError as exc:
            print(f"error[jacobi]: {exc}", file=sys.stderr)
            return 2
    text = dumps_model(g2, acs2)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.output!r}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


def _cmd_catalog(args) -> int:
    if not args.name:
        names = catalog_names()
        if args.format == "json":
            print(json.dumps(names, indent=2))
        else:
            for name in names:
                print(name)
        return 0
    try:
        entry = catalog(args.name)
    except UnknownCatalogNameError as exc:
        raise UnknownCatalogError(str(exc)) from None
    if args.format == "json":
        obj = {
            "name": entry.name,
            "description": entry.description,
            "dim": entry.algebra.dim,
            "field": entry.algebra.field,
            "has-structure": entry.acs is not None,
            "properties": entry.properties,
            "model": model_object(entry.algebra, entry.acs),
        }
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        rows = [
            ("name", entry.name),
            ("description", entry.description),
            ("dim", entry.algebra.dim),
            ("field", entry.algebra.field),
            ("has-structure", entry.acs is not None),
        ]
        for key in sorted(entry.properties):
            rows.append((f"property.{key}", entry.properties[key]))
        _emit(rows, False, sys.stdout)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused after."""
    parser = argparse.ArgumentParser(
        prog="chernflat",
        description="Exact computations for algebras with almost complex structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("table", "json"), default="table")

    p_verify = sub.add_parser("verify", help="check flatness and compatibility predicates")
    p_verify.add_argument("model", help="model file path or @catalog-name")
    p_verify.add_argument("--metric", help="path to an m x m metric matrix (JSON)", default=None)
    add_format(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_nf = sub.add_parser("normal-form", help="compute the constructive normal form")
    p_nf.add_argument("model", help="model file path or @catalog-name")
    p_nf.add_argument("--seed", type=int, default=0, help="seed for the scramble self-test")
    p_nf.add_argument(
        "--trials", type=int, default=0, help="rerun on this many random reframings"
    )
    add_format(p_nf)
    p_nf.set_defaults(func=_cmd_normal_form)

    p_def = sub.add_parser("deform", help="dimension of the deformation space")
    p_def.add_argument("model", help="model file path or @catalog-name")
    add_format(p_def)
    p_def.set_defaults(func=_cmd_deform)

    p_lem = sub.add_parser("lemma", help="solve the coupled (2,0)-form system")
    p_lem.add_argument("model", help="model file path or @catalog-name")
    add_format(p_lem)
    p_lem.set_defaults(func=_cmd_lemma)

    p_con = sub.add_parser("construct", help="build a model and emit its JSON")
    p_con.add_argument(
        "kind",
        choices=("complexification", "conjugate-complexification", "holomorphic"),
    )
    p_con.add_argument(
        "source",
        help="source model (for doublings) or complex dimension (for holomorphic)",
    )
    p_con.add_argument(
        "--set",
        action="append",
        metavar="i,j,k:coeff",
        help="holomorphic constant (1-based, repeatable)",
    )
    p_con.add_argument("-o", "--output", default=None, help="write to a file instead of stdout")
    p_con.set_defaults(func=_cmd_construct)

    p_cat = sub.add_parser("catalog", help="list or show built-in models")
    p_cat.add_argument("name", nargs="?", default=None)
    add_format(p_cat)
    p_cat.set_defaults(func=_cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ModelFormatError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"error[internal]: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
