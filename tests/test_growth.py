import math

import numpy as np
import pytest

from monogenic.errors import InvariantViolationError, UndefinedOrderError
from monogenic.growth import (
    GrowthReport,
    ProximateOrder,
    axis_log_norms,
    growth_report,
    k_q,
    log_coeff_norms,
    log_kq_upper,
    membership_limsup,
    order_from_coeffs,
    type_from_coeffs,
    type_from_kq,
    weighted_norm_ln,
)
from monogenic.multiindex import mi_abs
from monogenic.series import MonogenicSeries, max_modulus
from monogenic.clifford import CliffordNumber
from monogenic.verify import random_rational_series

FAMILIES = (
    ProximateOrder("constant", 1.0),
    ProximateOrder("constant", 2.0),
    ProximateOrder("constant", 0.5),
    ProximateOrder("logshift", 1.0, math.log(2.0)),
    ProximateOrder("logshift", 2.0, -0.4),
    ProximateOrder("loglog", 1.0, 1.0),
    ProximateOrder("loglog", 1.5, -0.8),
)


def test_exponent_values():
    assert ProximateOrder("constant", 2.0).exponent(57.0) == 2.0
    po = ProximateOrder("logshift", 1.0, math.log(3.0))
    # the scale is exactly 3r, i.e. the exponent is 1 + ln(3)/ln(r)
    for r in (10.0, 1e4):
        assert po.scale(r) == pytest.approx(3.0 * r, rel=1e-12)
    po3 = ProximateOrder("loglog", 1.0, 1.0)
    r = math.exp(math.e)
    assert po3.exponent(r) == pytest.approx(1.0 + 1.0 / math.e, rel=1e-12)


def test_exponent_singularity_at_one():
    po = ProximateOrder("logshift", 1.0, 0.5)
    with pytest.raises(ValueError):
        po.exponent(1.0)
    assert ProximateOrder("constant", 1.5).exponent(1.0) == 1.5


def test_invalid_parameters():
    with pytest.raises(ValueError):
        ProximateOrder("constant", 0.0)
    with pytest.raises(ValueError):
        ProximateOrder("powerlog", 1.0)
    for rho, a, name in [(math.inf, 0.0, "rho"), (math.nan, 0.0, "rho"), (1.0, math.nan, "a")]:
        with pytest.raises(ValueError, match=f"proximate-order {name} must be finite"):
            ProximateOrder("loglog", rho, a)
    # no constant-scale formula reads a, so a nonzero one is refused
    with pytest.raises(ValueError, match="no parameter a"):
        ProximateOrder("constant", 1.0, 5.0)


@pytest.mark.parametrize("po", FAMILIES, ids=lambda p: f"{p.family}-{p.rho}-{p.a}")
def test_scale_strictly_increasing_and_onto(po):
    grid = np.linspace(math.log(1e-6), math.log(1e9), 400)
    values = np.asarray(po.ln_scale_at_ln_r(grid))
    assert np.all(np.diff(values) > 0)
    # pinned to 0 at 0+ and unbounded above
    assert po.ln_scale_at_ln_r(math.log(1e-300)) < -100
    assert po.ln_scale_at_ln_r(math.log(1e300)) > 100


@pytest.mark.parametrize("po", FAMILIES, ids=lambda p: f"{p.family}-{p.rho}-{p.a}")
def test_cap_is_c1(po):
    if po.ln_cutover == -math.inf:
        return
    eps = 1e-7
    left = po.ln_scale_at_ln_r(po.ln_cutover - eps)
    right = po.ln_scale_at_ln_r(po.ln_cutover + eps)
    assert right - left == pytest.approx(2 * eps * po.log_slope_at_ln_r(po.ln_cutover), rel=1e-3)


@pytest.mark.parametrize("po", FAMILIES, ids=lambda p: f"{p.family}-{p.rho}-{p.a}")
def test_decay_quantity_vanishes(po):
    # rho'(r) r ln r decreases along the tail (past the loglog extremum at
    # ln r = e^2) and is tiny far out; evaluated through the closed form,
    # far beyond float range for r itself
    tail = [abs(po.decay_at_ln_r(L)) for L in np.linspace(8.0, math.log(1e8), 40)]
    assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))
    assert abs(po.decay_at_ln_r(1e4)) < 1e-3


@pytest.mark.parametrize("po", FAMILIES, ids=lambda p: f"{p.family}-{p.rho}-{p.a}")
def test_phi_round_trip(po):
    worst = 0.0
    for ln_r in np.linspace(math.log(1e-3), math.log(1e8), 200):
        back = po.ln_phi_at_ln_t(po.ln_scale_at_ln_r(ln_r))
        worst = max(worst, abs(math.expm1(back - ln_r)))
    assert worst <= 1e-10


def test_phi_closed_form_constant():
    po = ProximateOrder("constant", 2.0)
    assert po.phi(4.0) == pytest.approx(2.0, rel=1e-14)
    for t in (0.1, 1.0, 7.0, 1e5):
        assert po.phi(t) == pytest.approx(t**0.5, rel=1e-13)


def test_gauge_sequence_constant_closed_form():
    po = ProximateOrder("constant", 1.0)
    assert po.gq(1) == pytest.approx(1.0 / math.e, rel=1e-14)
    for rho in (0.5, 1.0, 2.0):
        p = ProximateOrder("constant", rho)
        for q in (1, 5, 30):
            expected = (q / rho) * (math.log(q) - 1.0 - math.log(rho))
            assert p.ln_gq(q) == pytest.approx(expected, rel=1e-12, abs=1e-12)
    assert po.ln_gq(0) == 0.0


@pytest.mark.parametrize("po", FAMILIES, ids=lambda p: f"{p.family}-{p.rho}-{p.a}")
def test_gauge_supermultiplicative(po):
    lngq = {q: po.ln_gq(q) for q in range(1, 101)}
    worst = min(
        lngq[p + q] - lngq[p] - lngq[q] for p in range(1, 51) for q in range(p, 51)
    )
    assert worst >= -1e-9


def test_phi_raises_on_non_monotone_scale():
    po = ProximateOrder("loglog", 1.0, 1.0)

    class Broken(ProximateOrder):
        def ln_scale_at_ln_r(self, ln_r):
            return -super().ln_scale_at_ln_r(ln_r)

    broken = Broken("loglog", 1.0, 1.0)
    with pytest.raises(InvariantViolationError):
        broken.ln_phi_at_ln_t(po._cap_ln_t1 + 5.0)


def test_weighted_norm_constant_series():
    po = ProximateOrder("constant", 1.0)
    c = MonogenicSeries(2, 0, {(0, 0): CliffordNumber.scalar(2, 4.0)})
    ln_lo, ln_up = weighted_norm_ln(c, po, 3.0)
    assert math.exp(ln_lo) == pytest.approx(4.0, rel=1e-12)
    assert math.exp(ln_up) == pytest.approx(4.0, rel=1e-12)


def test_weighted_norm_axis_closed_form():
    # 1-D calculus oracle: sup_r r^q e^{-sigma r^rho} = (q/(e rho sigma))^(q/rho)
    for rho, sigma, q in [(1.0, 1.0, 5), (2.0, 0.5, 8), (0.5, 2.0, 3)]:
        po = ProximateOrder("constant", rho)
        f = MonogenicSeries.basis_element(2, (q, 0), exact=False)
        ln_lo, ln_up = weighted_norm_ln(f, po, sigma, samples=64)
        expected = (q / (math.e * rho * sigma)) ** (q / rho)
        assert math.exp(ln_up) == pytest.approx(expected, rel=1e-9)
        assert math.exp(ln_lo) == pytest.approx(expected, rel=1e-6)


def test_weighted_norm_bracket_and_zero():
    po = ProximateOrder("loglog", 1.0, 1.0)
    f = random_rational_series(2, 4, 5).to_float()
    ln_lo, ln_up = weighted_norm_ln(f, po, 0.7, samples=32)
    assert -math.inf < ln_lo <= ln_up + 1e-9
    ln_lo, ln_up = weighted_norm_ln(MonogenicSeries(2, 3), po, 1.0)
    assert ln_lo == -math.inf and ln_up == -math.inf


def test_weighted_norm_unsampled_evaluates_nothing(monkeypatch):
    import monogenic.fueter as fueter
    import monogenic.growth as growth

    def refuse(*args, **kwargs):
        raise AssertionError("samples=0 must not evaluate the series")

    kernel = fueter.basis_values
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return kernel(*args, **kwargs)

    f = random_rational_series(2, 5, 7).to_float()
    for po in (ProximateOrder("constant", 1.0), ProximateOrder("loglog", 1.0, 1.0)):
        with monkeypatch.context() as patch:
            patch.setattr(fueter, "basis_values", counted)
            _, ln_up = weighted_norm_ln(f, po, 0.9, samples=32)
        # the sampled side reaches the kernel, with 32 points per candidate radius
        assert calls and sum(calls) % 32 == 0
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(growth, "series_eval", refuse)
            patch.setattr(growth, "sphere_directions", refuse)
            patch.setattr(growth, "basis_combination", refuse)
            patch.setattr(fueter, "basis_values", refuse)
            assert weighted_norm_ln(f, po, 0.9, samples=0) == (-math.inf, ln_up)


def test_negative_sample_count_rejected():
    po = ProximateOrder("constant", 1.0)
    f = random_rational_series(2, 3, 5).to_float()
    with pytest.raises(ValueError, match="samples"):
        weighted_norm_ln(f, po, 1.0, samples=-1)
    with pytest.raises(ValueError, match="samples"):
        k_q(f, 2, samples=-3)
    with pytest.raises(ValueError, match="samples"):
        max_modulus(f, 1.0, samples=-1)


def test_k_q_bounds():
    f = MonogenicSeries(
        2,
        6,
        {
            (6, 0): CliffordNumber.scalar(2, 2.5),
            (1, 1): CliffordNumber.scalar(2, 1.0),
        },
    )
    lo, up = k_q(f, 6, samples=64)
    assert lo == pytest.approx(2.5, rel=1e-12)
    assert up == pytest.approx(2.5, rel=1e-12)
    assert k_q(f, 3) == (0.0, 0.0)
    lo2, up2 = k_q(f, 2, samples=256)
    assert 0.0 < lo2 <= up2 == pytest.approx(1.0)


def test_order_and_type_from_coeffs():
    for rho, sigma in [(1.0, 1.0), (2.0, 0.5), (0.5, 2.0)]:
        norms = axis_log_norms(2, rho, sigma, 100, 500)
        # type recovery is exact for this family at any window
        assert type_from_coeffs(norms, rho, (200, 500)) == pytest.approx(sigma, rel=1e-9)
        est = order_from_coeffs(norms, (100, 200), 2)
        # finite windows carry the documented 1/ln(q) bias
        assert est == pytest.approx(rho * 1.26, rel=0.03)


def test_order_estimator_errors():
    with pytest.raises(UndefinedOrderError):
        order_from_coeffs({}, (10, 20), 2)
    norms = axis_log_norms(2, 1.0, 1.0, 1, 5)
    with pytest.raises(UndefinedOrderError):
        order_from_coeffs(norms, (10, 20), 2)  # beyond the top degree


def test_type_of_constant_is_zero():
    assert type_from_coeffs({(0, 0): 1.7}, 1.0, (0, 5)) == 0.0
    with pytest.raises(UndefinedOrderError):
        type_from_coeffs({(0, 0): 1.7}, 1.0, (1, 5))


def test_sup_unit_ball_sample_validation():
    from monogenic.fueter import fueter_sup_unit_ball

    with pytest.raises(ValueError):
        fueter_sup_unit_ball((1, 0), 0)


def test_order_estimator_insensitive_to_scaling():
    norms = axis_log_norms(2, 1.0, 1.0, 100, 200)
    doubled = {m: v + math.log(2.0) for m, v in norms.items()}
    a = order_from_coeffs(norms, (100, 200), 2)
    b = order_from_coeffs(doubled, (100, 200), 2)
    assert abs(a - b) / a <= 0.01


def test_type_scaling_law():
    rho = 1.0
    norms = axis_log_norms(2, rho, 1.0, 200, 400)
    lam = 1.7
    scaled = {m: v + mi_abs(m) * math.log(lam) for m, v in norms.items()}
    t0 = type_from_coeffs(norms, rho, (200, 400))
    t1 = type_from_coeffs(scaled, rho, (200, 400))
    assert t1 / t0 == pytest.approx(lam**rho, rel=1e-9)


def test_type_from_kq_and_membership():
    for rho, sigma in [(1.0, 1.0), (2.0, 0.5)]:
        po = ProximateOrder("constant", rho)
        norms = axis_log_norms(2, rho, sigma, 200, 500)
        kq = {mi_abs(m): v for m, v in norms.items()}
        assert type_from_kq(kq, po, (200, 500)) == pytest.approx(sigma, rel=1e-9)
        rep = membership_limsup(kq, po, (200, 500), log_norms=norms, n=2)
        assert rep.kq_value == pytest.approx(sigma, rel=1e-9)
        assert rep.coeff_value <= rep.dimension_slack * rep.kq_value * (1 + 1e-9)
    with pytest.raises(UndefinedOrderError):
        type_from_kq({3: 0.0}, ProximateOrder("constant", 1.0), (10, 20))
    # one functional: type_from_kq is the membership surrogate, and the
    # coefficient type is the classical formula (1/(e rho)) max |m| |a_m|^(rho/|m|)
    random_norms = log_coeff_norms(random_rational_series(2, 8, 11).to_float())
    for po in (FAMILIES[1], FAMILIES[4], FAMILIES[6]):  # constant, logshift, loglog
        axis = (axis_log_norms(2, po.rho, 1.5, 200, 500), (200, 500))
        for norms, window in (axis, (random_norms, (1, 8))):
            kq = log_kq_upper(norms)
            assert type_from_kq(kq, po, window) == membership_limsup(kq, po, window).kq_value
            classical = max(
                mi_abs(m) * math.exp(po.rho * v / mi_abs(m))
                for m, v in norms.items()
                if window[0] <= mi_abs(m) <= window[1]
            ) / (math.e * po.rho)
            assert type_from_coeffs(norms, po.rho, window) == pytest.approx(classical, rel=1e-12)


def test_membership_coeff_variant_with_real_parts():
    # random homogeneous data: coefficient variant within the n^rho slack
    po = ProximateOrder("constant", 1.0)
    f = random_rational_series(2, 8, 11).to_float()
    norms = log_coeff_norms(f)
    kq = log_kq_upper(norms)
    rep = membership_limsup(kq, po, (1, 8), log_norms=norms, n=2)
    assert rep.coeff_value <= rep.dimension_slack * rep.kq_value * (1 + 1e-9)


def test_weighted_norm_upper_vs_dense_scan():
    # brute oracle: dense scan of the coefficient envelope times the weight;
    # the reported upper must dominate it and stay within the book-keeping
    # slack (sum over degrees) of it
    for po in (ProximateOrder("constant", 1.3), ProximateOrder("loglog", 1.0, 1.0)):
        f = random_rational_series(2, 6, 13).to_float()
        sigma = 0.8
        degree_norms = f.degree_norms()
        best = -math.inf
        for ln_r in np.linspace(math.log(1e-6), math.log(1e3), 40000):
            r = math.exp(ln_r)
            u = sum(v * r**q for q, v in degree_norms.items())
            best = max(best, math.log(u) - sigma * math.exp(po.ln_scale_at_ln_r(ln_r)))
        _, ln_up = weighted_norm_ln(f, po, sigma, samples=0)
        assert ln_up >= best - 1e-9
        assert ln_up <= best + math.log(len(degree_norms) + 1)


def test_growth_report_from_kq_only():
    po = ProximateOrder("constant", 1.0)
    norms = axis_log_norms(2, 1.0, 2.0, 1, 60)
    kq = {mi_abs(m): (v - 0.1, v) for m, v in norms.items()}
    rep = growth_report(po, (20, 60), 2, log_kq_bounds=kq, sigma_test=2.0)
    assert rep.order_estimate is None and rep.type_estimate_coeffs is None
    assert rep.type_estimate_kq == pytest.approx(2.0, rel=1e-9)
    assert rep.member_verdict is True
    with pytest.raises(ValueError):
        growth_report(po, (20, 60), 2)


def test_growth_report_csv_shape():
    po = ProximateOrder("constant", 1.0)
    norms = axis_log_norms(2, 1.0, 1.0, 1, 40)
    rep = growth_report(po, (5, 40), 2, log_norms=norms, sigma_test=1.0)
    assert isinstance(rep, GrowthReport)
    csv = rep.to_csv()
    head, *rows = csv.strip().split("\n")
    assert head == "q,ln_Kq_lower,ln_Kq_upper,ln_Gq,kq_rhs,membership_value"
    assert len(rows) == len(rep.qs)
    # kq_rhs and membership_value are one per-degree type under two headers
    assert all(row.split(",")[4] == row.split(",")[5] for row in rows)
    assert rep.member_verdict is True
