"""Acceptance criteria, one test per criterion, each printing a status line.

Expected values follow the oracle-first rule: brute-force or closed-form
reference computations live inside this module and never call the code path
they are checking.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from monogenic.clifford import CliffordNumber, Paravector, cl_mul
from monogenic.fueter import (
    FueterCache,
    basis_values,
    dirac_residuals,
    fueter_derivative_rule,
    fueter_eval,
)
from monogenic.growth import (
    ProximateOrder,
    axis_log_norms,
    order_from_coeffs,
    type_from_coeffs,
    type_from_kq,
)
from monogenic.multiindex import (
    enumerate_up_to,
    ln_c_nm,
    mi_abs,
    mi_factorial,
)
from monogenic.operators import (
    HomTable,
    OperatorSymbol,
    convergence_threshold,
    gauge_coefficient_operator,
    hom_to_op,
    op_apply,
    op_class_check,
    op_to_hom,
    reconstruct_from_blackbox,
    tail_bound_profile,
)
from monogenic.series import (
    MonogenicSeries,
    ck_mul_left,
    dirac_residual,
    series_derivative,
)
from monogenic.verify import (
    CORRUPTION_TARGETS,
    VerifyConfig,
    brute_force_ck,
    check_cauchy,
    random_rational_operator,
    random_rational_series,
    run_all,
)

from conftest import random_clifford, random_point


@contextmanager
def criterion(number: int, label: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {number:2d}] PASS {label} ({elapsed:.2f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s budget"


def test_criterion_01_algebra_exactness():
    with criterion(1, "Clifford associativity/distributivity, 1000 rational triples", 5.0):
        for n in (2, 3):
            rng = random.Random(1000 + n)
            for _ in range(1000):
                a = random_clifford(n, rng, span=4)
                b = random_clifford(n, rng, span=4)
                c = random_clifford(n, rng, span=4)
                assert cl_mul(cl_mul(a, b), c) == cl_mul(a, cl_mul(b, c))
                assert cl_mul(a, b + c) == cl_mul(a, b) + cl_mul(a, c)


def _residual_tables(n, indices, points, h):
    """Central-difference Dirac of every basis element at every point, with
    one shared evaluation cache per offset point (independent assembly)."""
    out = []
    for x in points:
        tables = []
        for axis in range(n + 1):
            for sign in (h, -h):
                comps = list(x.components())
                comps[axis] += sign
                cache = FueterCache(Paravector.from_components(comps))
                tables.append({m: cache.value(m) for m in indices})
        residuals = {}
        for m in indices:
            acc = CliffordNumber.zero(n)
            for axis in range(n + 1):
                diff = (tables[2 * axis][m] - tables[2 * axis + 1][m]).scale(1.0 / (2 * h))
                acc = acc + (diff if axis == 0 else cl_mul(CliffordNumber.unit(n, axis), diff))
            residuals[m] = acc
        out.append(residuals)
    return out


def test_criterion_02_monogenicity():
    with criterion(2, "Dirac residuals: all |m|<=6 (n<=3) and 50 random series", 30.0):
        h = 1e-5
        rng = random.Random(2)
        for n in (1, 2, 3):
            indices = enumerate_up_to(n, 6)
            points = [random_point(n, rng, radius=1.2) for _ in range(20)]
            tables = _residual_tables(n, indices, points, h)
            for x, residuals in zip(points, tables):
                r = x.norm()
                for m, res in residuals.items():
                    assert res.norm() <= 1e-6 * (1.0 + r ** mi_abs(m))
        # 50 random truncated series, residuals assembled from the same tables
        for n in (2, 3):
            indices = enumerate_up_to(n, 4)
            points = [random_point(n, rng, radius=1.1) for _ in range(20)]
            tables = _residual_tables(n, indices, points, h)
            for k in range(25):
                f = random_rational_series(n, 4, 7000 + k, density=0.5).to_float()
                for x, residuals in zip(points, tables):
                    acc = CliffordNumber.zero(n)
                    for m, a in f.coeffs.items():
                        acc = acc + cl_mul(residuals[m], a)
                    bound = 1e-6 * (1.0 + f.coeff_upper_bound(x.norm()))
                    assert acc.norm() <= bound
        # production entry point agrees on a sample
        f = random_rational_series(2, 4, 7001, density=0.5).to_float()
        pts = [random_point(2, rng, radius=1.1) for _ in range(5)]
        res = dirac_residual(f, pts, h=h)
        assert res <= 1e-6 * (1.0 + max(f.coeff_upper_bound(p.norm()) for p in pts))


def test_array_residuals_equal_clifford_assembly():
    """The blade-array residuals of every |m| <= 5 at n=1..4 are the norms of
    the independent CliffordNumber assembly, bit for bit.  Each norm is taken
    with the blades in mask order, the order that ``row_norms`` adds them
    in: the assembly's insertion order depends on which blades its values
    carry."""
    h = 1e-5
    rng = random.Random(15)
    in_mask_order = lambda c: CliffordNumber(c.dim, dict(sorted(c.coeffs.items())))
    for n in (1, 2, 3, 4):
        indices = enumerate_up_to(n, 5)
        points = [random_point(n, rng, radius=1.2) for _ in range(3)]
        points.append(Paravector(0.0, [0.5] + [0.0] * (n - 1)))
        got = dirac_residuals(lambda pts: basis_values(pts, 5), points, h)
        for x, row, residuals in zip(points, got, _residual_tables(n, indices, points, h)):
            assert row == [in_mask_order(residuals[m]).norm() for m in indices], (n, x)


def test_criterion_03_normalization():
    with criterion(3, "derivative rule at 0: m! on the diagonal, 0 off it (exact)", 10.0):
        n = 2
        indices = enumerate_up_to(n, 6)
        origin = Paravector(Fraction(0), [Fraction(0)] * n)
        for m in indices:
            base = MonogenicSeries.basis_element(n, m, exact=True)
            for p in indices:
                expected = Fraction(mi_factorial(m)) if p == m else Fraction(0)
                # series route: coefficient shift then value at 0
                via_series = series_derivative(base, p).coeff((0,) * n)
                assert via_series == (
                    CliffordNumber.scalar(n, expected)
                    if expected
                    else CliffordNumber.zero(n)
                )
                # recursion route: fold the one-step rule, evaluate exactly
                scalar, target = Fraction(1), m
                for axis in range(1, n + 1):
                    for _ in range(p[axis - 1]):
                        step, target = fueter_derivative_rule(target, axis)
                        scalar *= step
                        if target is None:
                            break
                    if target is None:
                        break
                if target is None or scalar == 0:
                    value = CliffordNumber.zero(n)
                else:
                    value = fueter_eval(target, origin).scale(scalar)
                assert value == (
                    CliffordNumber.scalar(n, expected)
                    if expected
                    else CliffordNumber.zero(n)
                )


def test_criterion_04_ck_product():
    with criterion(4, "CK product: brute-force oracle, associativity, unit laws (exact)", 10.0):
        unit = MonogenicSeries.unit(2)
        for seed in range(10):
            f = random_rational_series(2, 5, 8800 + seed)
            g = random_rational_series(2, 5, 9900 + seed)
            for q_out in (5, 10):
                assert ck_mul_left(f, g, q_out).coeffs == brute_force_ck(f, g, q_out).coeffs
            assert ck_mul_left(f, unit, 5).coeffs == f.coeffs
            assert ck_mul_left(unit, f, 5).coeffs == f.coeffs
        for seed in range(5):
            f = random_rational_series(2, 3, 100 + seed)
            g = random_rational_series(2, 3, 200 + seed)
            h = random_rational_series(2, 3, 300 + seed)
            left = ck_mul_left(ck_mul_left(f, g, 5), h, 5)
            right = ck_mul_left(f, ck_mul_left(g, h, 5), 5)
            assert left.coeffs == right.coeffs


def test_criterion_05_cauchy_inequality():
    with criterion(5, "coefficient inequality on 100 random series, 4 radii", 20.0):
        for seed in range(100):
            f = random_rational_series(2, 5, 31337 + seed)
            report = check_cauchy(f, (0.5, 1.0, 2.0, 4.0))
            assert report.passed and report.margin >= 0.0


def test_criterion_06_gauge_supermultiplicative():
    with criterion(6, "gauge sequence supermultiplicative, p,q<=50, 3 families", 5.0):
        for po in (
            ProximateOrder("constant", 1.0),
            ProximateOrder("logshift", 1.0, math.log(2.0)),
            ProximateOrder("loglog", 1.0, 1.0),
        ):
            lngq = {q: po.ln_gq(q) for q in range(1, 101)}
            for p in range(1, 51):
                for q in range(p, 51):
                    assert lngq[p] + lngq[q] <= lngq[p + q] + 1e-9


def test_criterion_07_phi_round_trip():
    with criterion(7, "scale inverse round trip <= 1e-10 rel, 200-point grids", 5.0):
        for po in (
            ProximateOrder("constant", 1.0),
            ProximateOrder("logshift", 1.0, math.log(2.0)),
            ProximateOrder("loglog", 1.0, 1.0),
        ):
            lo, hi = math.log(1e-3), math.log(1e8)
            for i in range(200):
                ln_r = lo + (hi - lo) * i / 199.0
                back = po.ln_phi_at_ln_t(po.ln_scale_at_ln_r(ln_r))
                assert abs(math.expm1(back - ln_r)) <= 1e-10


def classical_order_oracle(ln_coeffs: dict[int, float], window) -> float:
    """One-variable coefficient order estimator (same window semantics),
    computed directly from the scalar sequence."""
    best = -math.inf
    for q, ln_c in ln_coeffs.items():
        if window[0] <= q <= window[1] and q >= 1:
            denom = -ln_c
            best = max(best, math.inf if denom <= 0 else q * math.log(q) / denom)
    return best


def classical_type_oracle(ln_coeffs: dict[int, float], rho: float, window) -> float:
    best = -math.inf
    for q, ln_c in ln_coeffs.items():
        if window[0] <= q <= window[1] and q >= 1:
            best = max(best, math.log(q) + (rho / q) * ln_c)
    return math.exp(best) / (math.e * rho)


def test_criterion_08_growth_estimators():
    with criterion(8, "order/type estimators on axis families (log domain)", 30.0):
        n = 2
        for rho, sigma in [(1.0, 1.0), (2.0, 0.5), (0.5, 2.0)]:
            po = ProximateOrder("constant", rho)
            # coefficient family dressed with the Cauchy constants, so the
            # estimator's c(n,m) division reduces it to the 1-D sequence
            plain = axis_log_norms(n, rho, sigma, 100, 500)
            dressed = {m: v + ln_c_nm(n, m) for m, v in plain.items()}
            scalar_seq = {mi_abs(m): v for m, v in plain.items()}

            est_order = order_from_coeffs(dressed, (100, 200), n)
            oracle_order = classical_order_oracle(scalar_seq, (100, 200))
            assert abs(est_order - oracle_order) <= 0.02 * oracle_order

            # at a window the formula's 1/ln(q) bias allows, the true order
            # is recovered within the same 2%
            huge = {}
            for k in range(8):
                q = int(2e25) + k * int(1e24)
                huge[(q, 0)] = (q / rho) * (1.0 + math.log(rho * sigma) - math.log(q))
            far = order_from_coeffs(huge, (int(1e25), int(1e26)), n)
            assert abs(far - rho) <= 0.02 * rho

            est_type = type_from_coeffs(plain, rho, (200, 500))
            oracle_type = classical_type_oracle(scalar_seq, rho, (200, 500))
            assert abs(est_type - sigma) <= 0.10 * sigma
            assert abs(est_type - oracle_type) <= 1e-9 * sigma
            est_type_dressed = type_from_coeffs(dressed, rho, (200, 500))
            assert abs(est_type_dressed - sigma) <= 0.10 * sigma

            est_kq = type_from_kq(scalar_seq, po, (200, 500))
            assert abs(est_kq - sigma) <= 0.10 * sigma
            assert abs(est_kq - est_type) <= 0.15 * sigma


def test_criterion_09_membership():
    with criterion(9, "membership surrogate of the (1,1) family in [0.9, 1.1]", 10.0):
        po = ProximateOrder("constant", 1.0)
        norms = axis_log_norms(2, 1.0, 1.0, 200, 500)
        kq = {mi_abs(m): v for m, v in norms.items()}
        assert 0.9 <= type_from_kq(kq, po, (200, 500)) <= 1.1


def test_criterion_10_operator_round_trips():
    with criterion(10, "operator/table round trips + blackbox agreement (exact)", 60.0):
        rng = random.Random(10)
        for i in range(25):
            order = 4 + i % 5  # table degrees 4..8
            P = random_rational_operator(2, order, 2, 5000 + i)
            assert hom_to_op(op_to_hom(P, order)) == P
        for i in range(25):
            degree = 4 + i % 5
            entries = {}
            for j, p in enumerate(enumerate_up_to(2, degree)):
                entries[p] = random_rational_series(2, 2, 977 * i + j, density=0.4)
            H = HomTable(n=2, degree=degree, entries=entries)
            assert op_to_hom(hom_to_op(H), degree) == H

        g = random_rational_series(2, 2, 61)
        h = random_rational_series(2, 2, 67)

        def F(f):
            return ck_mul_left(g, series_derivative(f, (1, 0)), 12) + ck_mul_left(
                h, series_derivative(f, (0, 2)), 12
            )

        P = reconstruct_from_blackbox(F, 2, 6)
        for s in enumerate_up_to(2, 6):
            basis = MonogenicSeries.basis_element(2, s)
            assert op_apply(P, basis, 12).coeffs == F(basis).truncate(12).coeffs


def test_criterion_11_tail_convergence():
    with criterion(11, "assembled application tail halves per step beyond M=10", 30.0):
        po = ProximateOrder("constant", 1.0)
        k = 1.05 * 2.0
        tau = 1.0  # the type of the (1,1) axis family
        n_const = math.sqrt(6.0)  # envelope of c(2,m)^(1/|m|)
        eps_star = convergence_threshold(n_const, k, tau, po.rho)
        rate = eps_star / 2.5
        P = gauge_coefficient_operator(2, po, 40, lambda q: q * math.log(rate))
        cert = op_class_check(
            P, po, po, sigma_grid=(0.5, 1.0), lambda_grid=(rate, 2 * rate)
        )
        assert cert.all_rates and cert.scale_check.ok
        profile = tail_bound_profile(P, po, po, sigma=1.0, tau=tau, k=k)
        for M in range(10, 21):
            assert profile[M + 1] <= profile[M] - math.log(2.0)


def test_criterion_12_negative_controls():
    with criterion(12, "every check fails on its designated corrupted input", 60.0):
        for corruption, target in sorted(CORRUPTION_TARGETS.items()):
            reports = run_all(VerifyConfig(corruption=corruption, only=(target,)))
            assert reports, f"no run for {target}"
            assert any(
                not r.passed for r in reports if r.name == target
            ), f"{corruption} did not break {target}"
