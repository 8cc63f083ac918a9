import math
import random
from fractions import Fraction

import pytest

from monogenic.clifford import CliffordNumber
from monogenic.errors import DimensionMismatchError
from monogenic.growth import ProximateOrder
from monogenic.multiindex import enumerate_up_to, mi_factorial
from monogenic.operators import (
    HomTable,
    OperatorSymbol,
    compare_scales,
    convergence_threshold,
    gauge_coefficient_operator,
    hom_to_op,
    op_apply,
    op_class_check,
    op_to_hom,
    reconstruct_from_blackbox,
    tail_bound_profile,
)
from monogenic.series import MonogenicSeries, ck_mul_left, series_derivative, series_eval
from monogenic.verify import random_rational_operator, random_rational_series

PO1 = ProximateOrder("constant", 1.0)


def test_identity_operator_application():
    I = OperatorSymbol.identity(2)
    f = random_rational_series(2, 4, 3)
    assert op_apply(I, f, 4).coeffs == f.coeffs
    assert op_apply(I, f, 2).coeffs == f.truncate(2).coeffs


def test_single_derivative_operator():
    P = OperatorSymbol(2, {(1, 0): MonogenicSeries.unit(2)})
    f = MonogenicSeries.basis_element(2, (2, 0))
    out = op_apply(P, f, 4)
    assert out.coeffs == {(1, 0): CliffordNumber.scalar(2, Fraction(2))}


def test_op_apply_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        op_apply(OperatorSymbol.identity(3), MonogenicSeries.unit(2), 2)


def test_op_apply_right_linearity():
    P = random_rational_operator(2, 3, 2, 5)
    f = random_rational_series(2, 3, 6)
    g = random_rational_series(2, 3, 7)
    c = CliffordNumber(2, {0b01: Fraction(2), 0: Fraction(1, 3)})
    d = CliffordNumber(2, {0b11: Fraction(-1)})
    combo = f.scale_right(c) + g.scale_right(d)
    left = op_apply(P, combo, 6)
    right = op_apply(P, f, 6).scale_right(c) + op_apply(P, g, 6).scale_right(d)
    assert left.coeffs == right.coeffs


def test_hom_table_of_identity():
    table = op_to_hom(OperatorSymbol.identity(2), 3)
    for p in enumerate_up_to(2, 3):
        expected = {p: CliffordNumber.scalar(2, Fraction(1, mi_factorial(p)))}
        assert table.entries[p].coeffs == expected


def test_hom_table_of_multiplication_operator():
    g = random_rational_series(2, 2, 17)
    P = OperatorSymbol(2, {(0, 0): g})
    table = op_to_hom(P, 3)
    for p in enumerate_up_to(2, 3):
        shift = MonogenicSeries.basis_element(2, p).scale(Fraction(1, mi_factorial(p)))
        expected = ck_mul_left(g, shift, g.degree + 3)
        assert table.entries[p].coeffs == expected.coeffs


def test_round_trip_exact_many_seeds():
    for seed in range(12):
        P = random_rational_operator(2, 6, 2, seed)
        assert hom_to_op(op_to_hom(P, 6)) == P


def test_round_trip_float_many_seeds():
    # float mode takes the same transform with float factors; it inverts up to roundoff
    rng = random.Random(41)
    for seed in range(6):
        exact = random_rational_operator(2, 5, 2, seed)
        P = OperatorSymbol(
            2, {m: u.to_float().scale(rng.uniform(0.1, 3.0)) for m, u in exact.entries.items()}
        )
        back = hom_to_op(op_to_hom(P, 5))
        values = lambda op: {
            (m, k, mask): v
            for m, u in op.entries.items()
            for k, a in u.coeffs.items()
            for mask, v in a.coeffs.items()
        }
        want, got = values(P), values(back)
        scale = max(abs(v) for v in want.values())
        for key in set(want) | set(got):
            assert abs(got.get(key, 0.0) - want.get(key, 0.0)) <= 1e-12 * scale


def test_hom_round_trip_exact():
    for seed in range(6):
        entries = {}
        for i, p in enumerate(enumerate_up_to(2, 4)):
            entries[p] = random_rational_series(2, 2, 31 * seed + i, density=0.5)
        H = HomTable(n=2, degree=4, entries=entries)
        assert op_to_hom(hom_to_op(H), 4) == H


def test_incomplete_table_rejected():
    entries = {(0, 0): MonogenicSeries.unit(2)}
    with pytest.raises(ValueError, match="incomplete"):
        hom_to_op(HomTable(n=2, degree=2, entries=entries))


def test_derivative_hom_inverts_to_derivative_operator():
    # values of the first-axis derivative on the basis invert to the
    # operator with unit coefficient at (1,0) and nothing else
    def F(f):
        return series_derivative(f, (1, 0))

    P = reconstruct_from_blackbox(F, 2, 5)
    assert set(P.entries) == {(1, 0)}
    assert P.entries[(1, 0)].coeffs == MonogenicSeries.unit(2).coeffs


def test_reconstruct_identity_and_multiplication():
    assert reconstruct_from_blackbox(lambda f: f, 2, 4) == OperatorSymbol.identity(2)
    g = random_rational_series(2, 2, 23)
    P = reconstruct_from_blackbox(lambda f: ck_mul_left(g, f, g.degree + 4), 2, 4)
    assert set(P.entries) == {(0, 0)}
    assert P.entries[(0, 0)].coeffs == g.coeffs


def test_reconstruct_composed_map_telescopes():
    g = random_rational_series(2, 2, 29)

    def F(f):
        return ck_mul_left(g, series_derivative(f, (1, 0)), g.degree + 6)

    P = reconstruct_from_blackbox(F, 2, 4)
    assert set(P.entries) == {(1, 0)}
    assert P.entries[(1, 0)].coeffs == g.coeffs


def test_reconstruct_agrees_on_whole_basis():
    g = random_rational_series(2, 2, 41)
    h = random_rational_series(2, 2, 43)

    def F(f):
        return ck_mul_left(g, series_derivative(f, (1, 0)), 12) + ck_mul_left(
            h, series_derivative(f, (0, 2)), 12
        )

    P = reconstruct_from_blackbox(F, 2, 5)
    for s in enumerate_up_to(2, 5):
        basis = MonogenicSeries.basis_element(2, s)
        assert op_apply(P, basis, 12).coeffs == F(basis).truncate(12).coeffs


def test_compare_scales():
    assert compare_scales(PO1, PO1).ok
    assert compare_scales(PO1, ProximateOrder("constant", 2.0)).ok
    bad = compare_scales(ProximateOrder("constant", 2.0), PO1)
    assert not bad.ok and bad.tail_slope > 0


def test_class_check_finite_support_passes():
    P = random_rational_operator(2, 2, 1, 3)
    cert = op_class_check(P, PO1, PO1, sigma_grid=(0.5, 1.0), lambda_grid=(0.5, 1.0))
    assert cert.all_rates and cert.all_weights
    assert cert.scale_check.ok


def test_class_check_boundary_family():
    lam0 = 0.25
    P = gauge_coefficient_operator(2, PO1, 14, lambda q: q * math.log(lam0))
    cert = op_class_check(P, PO1, PO1, sigma_grid=(1.0,), lambda_grid=(lam0, 2 * lam0, lam0 / 2))
    # passes exactly at rates >= lam0 (constant 1 there), fails below
    assert cert.cell_ok[(lam0, 1.0)]
    assert cert.ln_constant[(lam0, 1.0)] == pytest.approx(0.0, abs=1e-7)
    assert cert.cell_ok[(2 * lam0, 1.0)]
    assert not cert.cell_ok[(lam0 / 2, 1.0)]
    assert not cert.all_rates


def test_class_check_factorial_growth_negative():
    P = gauge_coefficient_operator(2, PO1, 12, lambda q: math.lgamma(q + 1))
    cert = op_class_check(P, PO1, PO1, sigma_grid=(0.5, 1.0), lambda_grid=(0.5, 1.0, 4.0))
    assert not any(cert.cell_ok.values())
    assert not cert.all_rates and not cert.all_weights


def test_class_check_super_decay_passes_all_rates():
    # support must reach past the requirement hump at q ~ 1/rate before the
    # factorial decay is witnessed on the grid
    P = gauge_coefficient_operator(2, PO1, 30, lambda q: -math.lgamma(q + 1))
    cert = op_class_check(P, PO1, PO1, sigma_grid=(1.0,), lambda_grid=(0.05, 0.5, 2.0))
    assert cert.all_rates and cert.all_weights


def test_tail_bound_decays_geometrically():
    k = 1.05 * 2.0
    tau = 1.0
    n_const = math.sqrt(6.0)
    eps_star = convergence_threshold(n_const, k, tau, 1.0)
    rate = eps_star / 2.5
    P = gauge_coefficient_operator(2, PO1, 30, lambda q: q * math.log(rate))
    profile = tail_bound_profile(P, PO1, PO1, sigma=1.0, tau=tau, k=k)
    for M in range(8, 20):
        assert profile[M + 1] <= profile[M] - math.log(2.0)


def test_tail_bound_flat_above_threshold():
    k = 1.05 * 2.0
    tau = 1.0
    eps_star = convergence_threshold(math.sqrt(6.0), k, tau, 1.0)
    P = gauge_coefficient_operator(2, PO1, 30, lambda q: q * math.log(3.0 * eps_star))
    profile = tail_bound_profile(P, PO1, PO1, sigma=1.0, tau=tau, k=k)
    # above the threshold the assembled tail no longer halves per step
    assert any(profile[M + 1] > profile[M] - math.log(2.0) for M in range(8, 20))
