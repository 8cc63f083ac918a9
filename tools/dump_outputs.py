"""Print the package's outputs on fixed inputs, one value per line.

Two source trees give byte-identical dumps exactly when they compute the same
values, so a refactor can be compared with the commit it started from:

    diff <(PYTHONPATH=/path/to/other/src python tools/dump_outputs.py) \\
         <(PYTHONPATH=src python tools/dump_outputs.py)

The dump covers every ``CheckReport`` of ``run_all`` (n=2 and n=3, clean and
under each named corruption; name, instance, margin, passed, constants and
details), the decay certificates and application tails of two operators, the
sup-norm brackets of ``weighted_norm_ln``, ``max_modulus``, ``k_q`` and
``fueter_sup_unit_ball``, growth reports as CSV, ``ProximateOrder`` values,
Dirac residuals at n=2, 3 and 4 (``dirac_residual`` over a point set and at
each point alone, and the ``dirac_residuals`` rows of the basis at the points
of ``check_monogenicity``), a float series at n=4 and degree 8, where the 2^n
blades far outnumber the n+1 of a paravector (``max_modulus``, ``k_qs`` and
``series_eval``), and the output of the CLI commands on valid files (CK
products, operator application and the operator/table transforms in exact
and in float mode).  ``--quick`` keeps only n=2: the clean suite and, under
each corruption, the reports of the check it targets, and neither the
residual nor the n=4 section.  The script uses only names that have been
stable across releases, so it runs against older trees too; the one newer
name, ``ProximateOrder.ln_weight_peaks``, is skipped where it is missing,
and ``dirac_residuals`` is called one base point at a time where it takes
one.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import math
import os
import random
import sys
import tempfile

import numpy as np

from monogenic import cli, serialize
from monogenic.clifford import Paravector
from monogenic.fueter import basis_values, dirac_residuals, fueter_sup_unit_ball
from monogenic.growth import (
    ProximateOrder,
    axis_log_norms,
    growth_report,
    k_q,
    k_qs,
    log_coeff_norms,
    weighted_norm_ln,
)
from monogenic.operators import (
    HomTable,
    OperatorSymbol,
    gauge_coefficient_operator,
    op_class_check,
    op_to_hom,
    tail_bound_profile,
)
from monogenic.sampling import ball_points
from monogenic.series import dirac_residual, max_modulus, series_eval
from monogenic.verify import (
    CORRUPTION_TARGETS,
    VerifyConfig,
    axis_series,
    random_rational_operator,
    random_rational_series,
    run_all,
)

SCALES = (
    ProximateOrder("constant", 1.0),
    ProximateOrder("constant", 2.5),
    ProximateOrder("logshift", 1.0, math.log(2.0)),
    ProximateOrder("logshift", 0.7, -1.5),
    ProximateOrder("loglog", 1.0, 1.0),
    ProximateOrder("loglog", 2.0, -3.0),
)


def check_reports(dims, targets_only):
    for n in dims:
        for corruption in [None, *sorted(CORRUPTION_TARGETS)]:
            only = (CORRUPTION_TARGETS[corruption],) if corruption and targets_only else None
            for rep in run_all(VerifyConfig(n=n, corruption=corruption, only=only)):
                fields = (rep.name, rep.instance, rep.margin, rep.passed, rep.constants)
                yield f"check n={n} corruption={corruption} {fields + (rep.details,)!r}"


def scale_values():
    ln_grid = np.linspace(-6.0, 12.0, 37)
    for po in SCALES:
        yield f"scale {po!r}"
        yield f"  ln_t {po.ln_scale_at_ln_r(ln_grid).tolist()!r}"
        yield f"  slope {po.log_slope_at_ln_r(ln_grid).tolist()!r}"
        yield f"  scalar {[po.ln_scale_at_ln_r(float(L)) for L in ln_grid[::6]]!r}"
        yield f"  ln_phi {[po.ln_phi_at_ln_t(float(L)) for L in ln_grid]!r}"
        yield f"  ln_gq {[po.ln_gq(q) for q in range(0, 40)]!r}"
        yield f"  peaks {[po.ln_weight_peak(q, s) for q in (0, 1, 3, 10) for s in (0.5, 2.0)]!r}"
        if hasattr(po, "ln_weight_peaks"):  # absent from older trees
            batch = [po.ln_weight_peaks(range(0, 40), s) for s in (0.5, 2.0)]
            yield f"  batch peaks {[(ln_r.tolist(), v.tolist()) for ln_r, v in batch]!r}"
        yield f"  scale/phi {[(po.scale(r), po.phi(r)) for r in (0.01, 0.5, 2.0, 30.0)]!r}"
        yield f"  exponent {[po.exponent(r) for r in (0.01, 2.0, 30.0)]!r}"
        yield f"  dict {po.to_dict()!r}"


def brackets(dims):
    series = [axis_series(2, 1.0, 1.0, 10), random_rational_series(2, 6, 5).to_float()]
    if 3 in dims:
        series.append(random_rational_series(3, 5, 9).to_float())
    for i, f in enumerate(series):
        for po in SCALES[::2]:
            for sigma in (0.5, 1.0, 3.0):
                for samples in (0, 32):
                    got = weighted_norm_ln(f, po, sigma, samples=samples, seed=i)
                    yield f"weighted_norm_ln {i} {po!r} {sigma} {samples} {got!r}"
        for r in (0.0, 0.5, 2.0):
            yield f"max_modulus {i} {r} {max_modulus(f, r, samples=16, seed=1)!r}"
        for q in range(f.degree + 1):
            yield f"k_q {i} {q} {k_q(f, q, samples=24)!r}"
    for m in ((0, 0), (2, 1), (0, 4), (1, 1, 1)):
        yield f"fueter_sup_unit_ball {m} {fueter_sup_unit_ball(m, 20, seed=3)!r}"


def residual_rows(evaluate, points, h):
    """``dirac_residuals`` over a point set; older trees take one base point
    per call."""
    if "points" in inspect.signature(dirac_residuals).parameters:
        return dirac_residuals(evaluate, points, h)
    return [dirac_residuals(evaluate, x, h) for x in points]


def residuals():
    for n in (2, 3, 4):
        f = random_rational_series(n, 4, 20 + n).to_float()
        draw = random.Random(n).uniform
        points = [Paravector(draw(-0.7, 0.7), [draw(-0.7, 0.7) for _ in range(n)]) for _ in range(12)]
        # a series, whose residual is rounding noise, and a point function
        # that is not monogenic
        for name, g in (("series", f), ("x0 f", lambda x: series_eval(f, x).scale(x.x0))):
            yield f"dirac_residual n={n} {name} set {dirac_residual(g, points)!r}"
            yield f"dirac_residual n={n} {name} alone {[dirac_residual(g, [x]) for x in points]!r}"
        # the rows of check_monogenicity's kernel at its points (seed 0)
        rows = residual_rows(lambda pts: basis_values(pts, 5), ball_points(n, 1.2, 12, seed=0), 1e-5)
        for k, row in enumerate(rows):
            yield f"dirac_residuals n={n} point {k} {row!r}"


def wide_series():
    f = random_rational_series(4, 8, 41).to_float()
    for r in (0.5, 1.5):
        yield f"max_modulus n=4 {r} {max_modulus(f, r, samples=32, seed=2)!r}"
    yield f"k_qs n=4 {k_qs(f, range(9), samples=24, seed=1).tolist()!r}"
    draw = random.Random(4).uniform
    for _ in range(3):
        x = Paravector(draw(-1.0, 1.0), [draw(-1.0, 1.0) for _ in range(4)])
        yield f"series_eval n=4 {x!r} {sorted(series_eval(f, x).coeffs.items())!r}"


def growth_reports():
    po, loglog = SCALES[0], SCALES[4]
    norms = axis_log_norms(2, 1.0, 1.0, 1, 40)
    for scale in (po, loglog):
        report = growth_report(scale, (5, 40), 2, log_norms=norms, sigma_test=1.0)
        yield from report.to_csv().splitlines()
        yield repr((report.order_estimate, report.type_estimate_coeffs, report.type_estimate_kq))
        yield repr(report.member_verdict)
    f = random_rational_series(2, 6, 3).to_float()
    bounds = {}
    for q in range(1, 7):
        lo, hi = k_q(f, q, samples=16)
        bounds[q] = (math.log(lo) if lo > 0 else -math.inf, math.log(hi))
    report = growth_report(loglog, (1, 6), 2, log_norms=log_coeff_norms(f), log_kq_bounds=bounds)
    yield from report.to_csv().splitlines()


def operator_profiles():
    po, loglog = SCALES[0], SCALES[4]
    gauge = gauge_coefficient_operator(2, po, 12, lambda q: q * math.log(0.2))
    rational = random_rational_operator(2, 4, 2, 11)
    for name, P in (("gauge", gauge), ("rational", rational)):
        for po2 in (po, loglog):
            cert = op_class_check(P, po, po2, sigma_grid=(0.5, 1.0), lambda_grid=(0.1, 0.2, 0.4))
            yield f"op_class_check {name} {po2!r} {cert!r}"
            yield f"tail_bound_profile {name} {tail_bound_profile(P, po, po2, 1.0, 1.0, 2.1)!r}"


def cli_outputs(quick):
    f = random_rational_series(2, 4, 15)
    g = random_rational_series(2, 3, 16)
    P = random_rational_operator(2, 3, 2, 17)
    with tempfile.TemporaryDirectory() as work:

        def path(name):
            return os.path.join(work, name)

        serialize.write_file(path("f.json"), serialize.series_to_obj(f))
        serialize.write_file(path("g.json"), serialize.series_to_obj(g))
        serialize.write_file(path("ff.json"), serialize.series_to_obj(f.to_float(), "float"))
        serialize.write_file(path("P.json"), serialize.operator_to_obj(P))
        H = op_to_hom(P, 4)
        serialize.write_file(path("H.json"), serialize.homtable_to_obj(H))
        float_P = OperatorSymbol(2, {m: u.to_float() for m, u in P.entries.items()})
        float_H = HomTable(2, 4, {p: b.to_float() for p, b in H.entries.items()})
        serialize.write_file(path("gf.json"), serialize.series_to_obj(g.to_float(), "float"))
        serialize.write_file(path("Pf.json"), serialize.operator_to_obj(float_P))
        serialize.write_file(path("Hf.json"), serialize.homtable_to_obj(float_H))
        serialize.write_file(path("cfg.json"), {"n": 2, "seed": 1})
        out = path("out")
        commands = [
            ["ckprod", path("f.json"), path("g.json"), "--degree", "6", "--out", out],
            ["apply", path("P.json"), path("f.json"), "--degree", "5", "--out", out],
            ["op2hom", path("P.json"), "--degree", "4", "--out", out],
            ["hom2op", path("H.json"), "--out", out],
            ["ckprod", path("ff.json"), path("gf.json"), "--degree", "6", "--out", out],
            ["apply", path("Pf.json"), path("ff.json"), "--degree", "5", "--out", out],
            ["op2hom", path("Pf.json"), "--degree", "4", "--out", out],
            ["hom2op", path("Hf.json"), "--out", out],
            ["diff", path("f.json"), "--index", "1,2", "--out", out],
            ["--mode", "exact", "eval", path("f.json"), "--point", "1/2,1,-3/4"],
            ["eval", path("ff.json"), "--point", "0.5,1,-0.75"],
            ["growth", path("ff.json"), "--po", "constant:1", "--window", "1:4", "--out", out],
            ["growth", path("ff.json"), "--po", "loglog:1:1", "--window", "2:4", "--sigma", "2",
             "--out", out],
            ["diff", path("ff.json"), "--index", "1,2", "--out", out],
        ]
        if not quick:
            commands.append(["verify", "--config", path("cfg.json"), "--out", out])
        for argv in commands:
            if os.path.exists(out):
                os.remove(out)
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(["--samples", "16", *argv])
            yield f"cli {' '.join(argv).replace(work + os.sep, '')} exit={code}"
            yield from stdout.getvalue().splitlines()
            if os.path.exists(out):
                with open(out, encoding="utf-8") as fh:
                    yield from fh.read().splitlines()


def dump(quick: bool):
    dims = (2,) if quick else (2, 3)
    yield from check_reports(dims, targets_only=quick)
    yield from scale_values()
    yield from brackets(dims)
    if not quick:
        yield from residuals()
        yield from wide_series()
    yield from growth_reports()
    yield from operator_profiles()
    yield from cli_outputs(quick)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="n=2 only, and under a corruption only its target"
    )
    args = parser.parse_args(argv)
    for line in dump(args.quick):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
