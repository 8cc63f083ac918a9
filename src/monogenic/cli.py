"""Command-line surface over the serialized interchange formats.

Subcommands: eval, ckprod, diff, growth, apply, hom2op, op2hom, verify.
Exit codes: 0 success, 1 verification failure, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction

from .clifford import Paravector
from .errors import DimensionMismatchError, InvariantViolationError, SerializationError
from .growth import ProximateOrder, growth_report, k_q, log_coeff_norms
from .operators import hom_to_op, op_apply, op_to_hom
from .series import ck_mul_left, series_derivative, series_eval
from . import serialize
from .verify import CHECK_NAMES, VerifyConfig, run_all, summary_table

USAGE_ERROR = 2
CHECK_FAILURE = 1


def _parse_point(text: str, exact: bool = False) -> Paravector:
    try:
        if exact:
            comps = [Fraction(v) for v in text.split(",")]
        else:
            comps = [float(v) for v in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise SerializationError(f"bad point {text!r}: expected comma-separated reals")
    if not all(map(math.isfinite, comps)):
        raise SerializationError(f"bad point {text!r}: every component must be finite")
    if len(comps) < 2:
        raise SerializationError("a point needs at least x0 and x1")
    return Paravector.from_components(comps)


def _parse_window(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise SerializationError(f"bad window {text!r}: expected q0:q1")


def _parse_index(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise SerializationError(f"bad multi-index {text!r}")


def _load_series(path: str, mode: str | None):
    f = serialize.obj_to_series(serialize.read_file(path))
    if mode is not None and f.mode() != mode and not f.is_zero():
        raise SerializationError(f"{path}: mode {f.mode()!r} does not match --mode {mode!r}")
    return f


def _check_one_mode(*sides) -> None:
    """Raise unless the nonzero sides, each a collection of series, share one
    mode (a side is exact when every series in it is)."""
    modes = {serialize.mode_of(side) for side in sides if not all(u.is_zero() for u in side)}
    if len(modes) > 1:
        raise SerializationError("mixed exact/float inputs; convert one side first")


def _check_out(path: str | None) -> None:
    """Refuse, before any work, an output path that is empty, a directory or in a missing one."""
    if path == "":
        raise SerializationError("--out '' is an empty path")
    if path is not None and os.path.isdir(path):
        raise SerializationError(f"--out {path!r} is a directory")
    if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
        raise SerializationError(f"--out {path!r}: no such directory")


def _check_finite(f, what: str) -> None:
    """Raise unless every coefficient of the float series f is finite, naming
    f and the index of the first that is not: JSON holds finite numbers only."""
    for m, a in f.coeffs.items():
        if not all(map(math.isfinite, a.coeffs.values())):
            raise SerializationError(f"{what} is not finite in floats at index {list(m)}")


def cmd_eval(args) -> int:
    f = _load_series(args.series, args.mode)
    exact = args.mode == "exact" and f.is_exact()
    point = _parse_point(args.point, exact=exact)
    value = series_eval(f, point, exact=exact)
    mode = "exact" if value.is_exact() else "float"
    if mode == "float" and not all(map(math.isfinite, value.coeffs.values())):
        raise SerializationError(f"the value at point {args.point!r} is not finite in floats")
    print(serialize.canonical_dumps(serialize.clifford_to_obj(value, mode)), end="")
    return 0


def cmd_ckprod(args) -> int:
    f = _load_series(args.f, args.mode)
    g = _load_series(args.g, args.mode)
    _check_one_mode([f], [g])
    out = ck_mul_left(f, g, args.degree)
    mode = f.mode()
    if mode == "float":
        _check_finite(out, "the CK product")
    serialize.write_file(args.out, serialize.series_to_obj(out, mode=mode))
    return 0


def cmd_diff(args) -> int:
    f = _load_series(args.series, args.mode)
    out = series_derivative(f, _parse_index(args.index))
    serialize.write_file(args.out, serialize.series_to_obj(out, mode=f.mode()))
    return 0


def cmd_growth(args) -> int:
    po = ProximateOrder.parse(args.po)
    window = _parse_window(args.window)
    obj = serialize.read_file(args.input)
    log_kq_bounds = None
    if isinstance(obj, dict) and obj.get("kind") == "log_norms":
        n, log_norms = serialize.obj_to_log_norms(obj)
    else:
        f = serialize.obj_to_series(obj).to_float()
        n, log_norms = f.n, log_coeff_norms(f)
        window = (window[0], min(window[1], f.degree))
        log_kq_bounds = {}
        for q in range(max(window[0], 1), window[1] + 1):
            lo, hi = k_q(f, q, samples=args.samples, seed=args.seed)
            if hi > 0.0:
                log_kq_bounds[q] = (
                    math.log(lo) if lo > 0 else -math.inf,
                    math.log(hi),
                )
    report = growth_report(
        po,
        window,
        n,
        log_norms=log_norms,
        log_kq_bounds=log_kq_bounds,
        sigma_test=args.sigma,
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(report.to_csv())
    print(f"order estimate: {report.order_estimate}")
    print(f"type estimate (coefficients): {report.type_estimate_coeffs}")
    print(f"type estimate (unit-ball peaks): {report.type_estimate_kq}")
    if report.member_verdict is not None:
        print(f"membership at sigma={args.sigma}: {report.member_verdict}")
    return 0


def cmd_apply(args) -> int:
    P = serialize.obj_to_operator(serialize.read_file(args.operator))
    f = _load_series(args.series, args.mode)
    if P.n != f.n:
        raise DimensionMismatchError(f"operator dimension {P.n} != series dimension {f.n}")
    _check_one_mode(P.entries.values(), [f])
    out = op_apply(P, f, args.degree)
    mode = f.mode()
    if mode == "float":
        _check_finite(out, "the applied series")
    serialize.write_file(args.out, serialize.series_to_obj(out, mode=mode))
    return 0


def cmd_hom2op(args) -> int:
    table = serialize.obj_to_homtable(serialize.read_file(args.table))
    P = hom_to_op(table)
    if serialize.mode_of(table.entries.values()) == "float":
        for m, u in P.entries.items():
            _check_finite(u, f"the operator coefficient at m={list(m)}")
    serialize.write_file(args.out, serialize.operator_to_obj(P))
    return 0


def cmd_op2hom(args) -> int:
    P = serialize.obj_to_operator(serialize.read_file(args.operator))
    table = op_to_hom(P, args.degree)
    if serialize.mode_of(P.entries.values()) == "float":
        for p, b in table.entries.items():
            _check_finite(b, f"the table entry at p={list(p)}")
    serialize.write_file(args.out, serialize.homtable_to_obj(table))
    return 0


def cmd_verify(args) -> int:
    if args.list:
        for name in CHECK_NAMES:
            print(name)
        return 0
    cfg = VerifyConfig()
    if args.config:
        cfg = VerifyConfig.from_dict(serialize.read_file(args.config))
    reports = run_all(cfg)
    if args.out:
        serialize.write_file(args.out, [rep.to_dict() for rep in reports])
    print(summary_table(reports))
    failed = [rep for rep in reports if not rep.passed]
    print(f"\n{len(reports) - len(failed)}/{len(reports)} checks passed")
    return CHECK_FAILURE if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monogenic",
        description="Calculus for entire monogenic functions over serialized series files.",
    )
    parser.add_argument("--mode", choices=["exact", "float"], default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=128)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a series at a point")
    p.add_argument("series")
    p.add_argument("--point", required=True, help="x0,x1,...,xn")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ckprod", help="CK product of two series files")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--degree", type=int, required=True, help="output truncation degree")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ckprod)

    p = sub.add_parser("diff", help="mixed partial derivative of a series file")
    p.add_argument("series")
    p.add_argument("--index", required=True, help="m1,...,mn")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("growth", help="growth diagnostics from a series or norms file")
    p.add_argument("input")
    p.add_argument("--po", required=True, help="family:rho[:a]")
    p.add_argument("--window", required=True, help="q0:q1")
    p.add_argument("--sigma", type=float, default=None, help="membership test weight")
    p.add_argument("--out", required=True, help="CSV report path")
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("apply", help="apply an operator file to a series file")
    p.add_argument("operator")
    p.add_argument("series")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("hom2op", help="invert a basis-value table into an operator")
    p.add_argument("table")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_hom2op)

    p = sub.add_parser("op2hom", help="basis-value table of an operator")
    p.add_argument("operator")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_op2hom)

    p = sub.add_parser("verify", help="run the lemma verification suite")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--out", default=None, help="JSON report path")
    p.add_argument("--list", action="store_true", help="print check names and exit")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed < 0:
        print(f"error: --seed must be a non-negative integer, got {args.seed}", file=sys.stderr)
        return USAGE_ERROR
    try:
        _check_out(getattr(args, "out", None))
        return args.func(args)
    except (ValueError, InvariantViolationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
