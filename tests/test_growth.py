import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import monogenic
import monogenic.growth as growth
from monogenic.errors import InvariantViolationError, UndefinedOrderError
from monogenic.growth import (
    GrowthReport,
    ProximateOrder,
    axis_log_norms,
    growth_report,
    k_q,
    k_qs,
    log_coeff_norms,
    logsumexp,
    order_from_coeffs,
    type_from_coeffs,
    type_from_kq,
    weighted_norm_ln,
    weighted_upper_ln,
)
from monogenic.multiindex import mi_abs
from monogenic.series import MonogenicSeries, max_modulus
from monogenic.clifford import CliffordNumber
from monogenic.fueter import contraction_operand
from monogenic import verify
from monogenic.verify import _derivative_norms, axis_series, random_rational_series

from conftest import assert_refused


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
    # a loglog cutover, cap slope or cap value ln t1 beyond the float range
    for a in (9e307, 1e308, -1e308, 1e307, -9e307):
        with pytest.raises(ValueError, match=re.escape(f"loglog scale with rho=1.0, a={a} has its cutover beyond")):
            ProximateOrder("loglog", 1.0, a)


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


def decay_at_ln_r(po: ProximateOrder, ln_r: float) -> float:
    """rho'(r) * r * ln(r) of the raw family, in closed form."""
    if po.family == "constant":
        return 0.0
    if po.family == "logshift":
        return -po.a / ln_r
    return po.a * (1.0 - math.log(ln_r)) / ln_r


@pytest.mark.parametrize("po", FAMILIES, ids=lambda p: f"{p.family}-{p.rho}-{p.a}")
def test_decay_quantity_vanishes(po):
    # rho'(r) r ln r decreases along the tail (past the loglog extremum at
    # ln r = e^2) and is tiny far out; evaluated through the closed form,
    # far beyond float range for r itself
    tail = [abs(decay_at_ln_r(po, L)) for L in np.linspace(8.0, math.log(1e8), 40)]
    assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))
    assert abs(decay_at_ln_r(po, 1e4)) < 1e-3


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
    assert math.exp(po.ln_gq(1)) == pytest.approx(1.0 / math.e, rel=1e-14)
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


def test_peak_raises_on_non_monotone_scale():
    class Broken(ProximateOrder):
        def ln_scale_at_ln_r(self, ln_r):
            return -super().ln_scale_at_ln_r(ln_r)

    broken = Broken("loglog", 1.0, 1.0)
    # the peak of q = 100, sigma = 1 lies above the cutover ln r1 = 2
    assert ProximateOrder("loglog", 1.0, 1.0).ln_weight_peak(100.0, 1.0)[0] > 2.0
    with pytest.raises(InvariantViolationError):
        broken.ln_weight_peak(100.0, 1.0)
    with pytest.raises(InvariantViolationError):
        broken.ln_weight_peaks([1.0, 10.0, 100.0], 1.0)


@pytest.mark.parametrize("q", [-1.0, math.nan, math.inf, -math.inf])
def test_peak_rejects_bad_degrees(q):
    po = ProximateOrder("loglog", 1.0, 1.0)
    with pytest.raises(ValueError, match=r"q must be finite and >= 0, got"):
        po.ln_weight_peak(q, 1.0)
    with pytest.raises(ValueError, match=r"q must be finite and >= 0, got"):
        po.ln_weight_peaks([2.0, q], 1.0)


@pytest.mark.parametrize("q", [-1.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("po", [ProximateOrder("constant", 1.0), ProximateOrder("loglog", 1.0, 1.0)])
def test_gauge_rejects_bad_degrees(po, q):
    with pytest.raises(ValueError, match=r"q must be finite and >= 0, got"):
        po.ln_gqs([2.0, q])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("ln_t", [1.7e308, 5.4e307, np.finfo(float).max])
def test_inverse_beyond_the_float_range_is_inf(ln_t):
    # 0.3 L + 2 ln L stays below 5.4e307 for every float L
    assert ProximateOrder("loglog", 0.3, 2.0).ln_phis([ln_t]).tolist() == [math.inf]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rho, a", [(0.3, 2.0), (0.3, -2.0), (1.0, 1.0), (2.0, -1.0), (5.0, 3.0)])
def test_inverse_near_the_top_of_the_float_range(rho, a):
    """Finite roots of ln t up to the float range solve without a warning;
    for rho >= 1 every finite ln t has one."""
    po = ProximateOrder("loglog", rho, a)
    ln_t = np.array([1e307, 3e307, 4e307, 5e307] + ([1.7e308, np.finfo(float).max] if rho >= 1 else []))
    ln_r = po.ln_phis(ln_t)
    assert np.isfinite(ln_r).all()
    assert po.ln_scale_at_ln_r(ln_r) == pytest.approx(ln_t, rel=1e-15)


@pytest.mark.parametrize("po", FAMILIES, ids=lambda p: f"{p.family}-{p.rho}-{p.a}")
def test_peak_of_extreme_finite_degree_and_weight(po):
    # ln q - ln sigma = 1381.6 stays finite where q/sigma overflows
    ln_r, value = po.ln_weight_peak(1e300, 1e-300)
    assert math.isfinite(ln_r) and math.isfinite(value) and value > 0
    assert po.ln_weight_peak(0.0, 1e-300) == (math.log(1e-8), 0.0)


@pytest.mark.parametrize("spec", ["constant:1", "logshift:0.7:-1.5", "loglog:1:1", "loglog:0.5:-3"])
def test_inverse_at_infinities_and_nan(spec):
    po = ProximateOrder.parse(spec)
    assert po.ln_phi_at_ln_t(math.inf) == math.inf
    assert po.ln_phi_at_ln_t(-math.inf) == -math.inf
    assert po.phi(math.inf) == math.inf
    with pytest.raises(ValueError, match="nan"):
        po.ln_phi_at_ln_t(math.nan)
    with pytest.raises(ValueError, match="nan"):
        po.ln_phis([1.0, math.nan])


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

    kernel = fueter._basis_block
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].shape[1])  # the points are (n+1, P)
        return kernel(*args, **kwargs)

    f = random_rational_series(2, 5, 7).to_float()
    for po in (ProximateOrder("constant", 1.0), ProximateOrder("loglog", 1.0, 1.0)):
        with monkeypatch.context() as patch:
            patch.setattr(fueter, "_basis_block", counted)
            _, ln_up = weighted_norm_ln(f, po, 0.9, samples=32)
        # the sampled side reaches the kernel, with its 32 unit directions
        assert calls and sum(calls) % 32 == 0
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(growth, "series_eval", refuse)
            patch.setattr(growth, "sampled_sups", refuse)
            patch.setattr(fueter, "_basis_block", refuse)
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


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
def test_non_finite_sigma_rejected(sigma):
    po = ProximateOrder("constant", 1.0)
    f = random_rational_series(2, 3, 5).to_float()
    for samples in (0, 8):
        with pytest.raises(ValueError, match=r"sigma must be finite and > 0, got"):
            weighted_norm_ln(f, po, sigma, samples=samples)
    with pytest.raises(ValueError, match=r"sigma must be finite and > 0, got"):
        po.ln_weight_peak(2.0, sigma)


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
    with pytest.raises(ValueError, match="degree must be >= 0, got -1"):
        k_q(f, -1)
    lo2, up2 = k_q(f, 2, samples=256)
    assert 0.0 < lo2 <= up2 == pytest.approx(1.0)


def test_k_qs_rows_are_k_q():
    """Each row of ``k_qs`` is ``k_q`` of its degree, bit for bit; the upper
    side is the degree's coefficient bound, the bits of the homogeneous
    part's ``max_modulus`` at r = 1, and the lower side is that bracket's
    sampled side to rounding.  A degree without coefficients is (0, 0)."""
    f = random_rational_series(3, 6, 11).to_float()
    f = MonogenicSeries(3, 8, {m: a for m, a in f.coeffs.items() if mi_abs(m) != 4})
    qs = [0, 1, 3, 4, 6, 8, 2]
    got = k_qs(f, qs, samples=40, seed=2)
    assert got.shape == (len(qs), 2)
    assert [tuple(row) for row in got.tolist()] == [k_q(f, q, samples=40, seed=2) for q in qs]
    norms = f.degree_norms()
    assert got[:, 1].tolist() == [norms.get(q, 0.0) for q in qs]
    for q, (lower, upper) in zip(qs, got.tolist()):
        part_lower, part_upper = max_modulus(f.homogeneous_part(q), 1.0, 40, seed=2)
        assert upper == part_upper
        assert lower == pytest.approx(part_lower, rel=1e-12, abs=0.0)
    assert got[[3, 5]].tolist() == [[0.0, 0.0]] * 2
    assert k_qs(f, [], samples=40).shape == (0, 2)
    assert k_qs(MonogenicSeries(3, 4), [0, 2]).tolist() == [[0.0, 0.0]] * 2


def test_sampled_sides_evaluate_one_direction_set_once(monkeypatch, tmp_path):
    """``weighted_norm_ln`` at several candidate radii and CLI ``growth``
    over every degree of its window evaluate the basis at the sampled unit
    directions, each once; a window that stops below the series' degree
    evaluates the basis only up to the window's last degree."""
    import monogenic.fueter as fueter
    from monogenic import serialize
    from monogenic.cli import main
    from monogenic.sampling import sphere_directions

    kernel, seen, degrees = fueter._basis_block, [], set()
    monkeypatch.setattr(
        fueter, "_basis_block", lambda pts, q, *a: seen.append(pts.T) or degrees.add(q) or kernel(pts, q, *a)
    )
    f = random_rational_series(3, 6, 7).to_float()
    po = ProximateOrder("loglog", 1.0, 1.0)
    assert len(weighted_upper_ln(f.degree_norms(), po, 0.8)[1]) > 1
    weighted_norm_ln(f, po, 0.8, samples=32, seed=3)
    assert np.array_equal(np.concatenate(seen), sphere_directions(4, 32, seed=3))
    path = tmp_path / "f.json"
    serialize.write_file(str(path), serialize.series_to_obj(f))
    for window, degree in [("1:6", 6), ("1:2", 2)]:
        seen.clear()
        degrees.clear()
        argv = ["--samples", "40", "--seed", "5", "growth", str(path), "--po", "loglog:1:1",
                "--window", window, "--out", str(tmp_path / "r.csv")]
        assert main(argv) == 0
        assert np.array_equal(np.concatenate(seen), sphere_directions(4, 40, seed=5))
        assert degrees == {degree}


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
    with pytest.raises(UndefinedOrderError):
        type_from_kq({3: 0.0}, ProximateOrder("constant", 1.0), (10, 20))
    # the coefficient type is the classical formula (1/(e rho)) max |m| |a_m|^(rho/|m|)
    random_norms = log_coeff_norms(random_rational_series(2, 8, 11).to_float())
    for po in (FAMILIES[1], FAMILIES[4], FAMILIES[6]):  # constant, logshift, loglog
        axis = (axis_log_norms(2, po.rho, 1.5, 200, 500), (200, 500))
        for norms, window in (axis, (random_norms, (1, 8))):
            classical = max(
                mi_abs(m) * math.exp(po.rho * v / mi_abs(m))
                for m, v in norms.items()
                if window[0] <= mi_abs(m) <= window[1]
            ) / (math.e * po.rho)
            assert type_from_coeffs(norms, po.rho, window) == pytest.approx(classical, rel=1e-12)


@pytest.mark.parametrize("ln_norm, rho", [(800.0, 1.0), (1.0, 800.0), (1e308, 1.0)])
def test_type_beyond_the_float_range_is_inf(ln_norm, rho):
    """A type whose log is beyond the float range is inf, not an
    OverflowError, in every estimator that exponentiates one."""
    po, window = ProximateOrder("constant", rho), (1, 1)
    norms = {(1, 0): ln_norm}
    assert type_from_kq({1: ln_norm}, po, window) == math.inf
    assert type_from_coeffs(norms, rho, window) == math.inf
    report = growth_report(po, window, 2, log_norms=norms, sigma_test=1.0)
    assert report.membership_value == [math.inf] and report.type_estimate_kq == math.inf
    assert report.type_estimate_coeffs == math.inf and report.member_verdict is False


def test_parse_reads_family_rho_and_a():
    assert ProximateOrder.parse("logshift:1:0.5") == ProximateOrder("logshift", 1.0, 0.5)
    with pytest.raises(ValueError):
        ProximateOrder.parse("constant")


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


def full_grid_envelope(f, po, sigma):
    """The reference for weighted_norm_ln's grid work: ln U at every point of
    the grid, then (ln_upper, the sampled side's candidate radii)."""
    qs, lnA = growth._degree_log_norms(f.degree_norms())
    peak_pairs = [po.ln_weight_peak(float(q), sigma) for q in qs]
    peaks = np.array([p[0] for p in peak_pairs])
    upper_sum_form = float(logsumexp(lnA + np.array([p[1] for p in peak_pairs])))
    lo = min(peaks.min() - 1.0, growth._LN_R_MIN)
    hi = peaks.max() + 1.0
    grid = np.linspace(lo, hi, growth._ENVELOPE_CELLS + 1)
    ln_t = po.ln_scale_at_ln_r(grid)
    ln_u = logsumexp(lnA[None, :] + qs[None, :] * grid[:, None], axis=1)
    cell_env = ln_u[1:] - sigma * np.exp(ln_t[:-1])
    right_edge = float(ln_u[-1] - sigma * math.exp(ln_t[-1]))
    upper_env = max(float(cell_env.max()), right_edge, float(ln_u[0]))
    best = int(np.argmax(ln_u - sigma * np.exp(ln_t)))
    candidates = list({grid[best], *peaks.tolist()})
    return min(upper_sum_form, upper_env), [math.exp(L) for L in candidates]


def pruned_envelope(f, po, sigma):
    """weighted_norm_ln's (ln_upper, candidate radii), the radii caught on
    their way to the sampler, which is not run."""
    radii = []

    def catch(operand, rs, samples, seed):
        radii.extend(rs)
        return [0.0] * len(rs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(growth, "sampled_sups", catch)
        _, ln_up = weighted_norm_ln(f, po, sigma, samples=4)
    assert weighted_norm_ln(f, po, sigma, samples=0) == (-math.inf, ln_up)
    return ln_up, radii


SCALES = st.one_of(
    st.builds(lambda rho: ProximateOrder("constant", rho), st.floats(0.3, 3.0)),
    st.builds(lambda rho, a: ProximateOrder("logshift", rho, a), st.floats(0.3, 3.0),
              st.floats(-2.0, 2.0)),
    st.builds(lambda rho, a: ProximateOrder("loglog", rho, a), st.floats(0.3, 3.0),
              st.floats(-2.0, 2.0)),
)
SIGMAS = st.one_of(st.sampled_from([1e-6, 1e6]), st.floats(-6.0, 6.0).map(lambda e: 10.0**e))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(1, 8), st.integers(0, 10**6), SCALES, SIGMAS)
@example(2, 6, 13, ProximateOrder("loglog", 1.0, -0.8), 1e-6)
@example(3, 8, 1, ProximateOrder("loglog", 1.5, -2.0), 1e6)
def test_pruned_envelope_matches_full_grid(n, degree, seed, po, sigma):
    f = random_rational_series(n, degree, seed).to_float()
    assume(any(q > 0 for q in f.degree_norms()))  # else no grid: empty or constant
    assert pruned_envelope(f, po, sigma) == full_grid_envelope(f, po, sigma)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 8), st.integers(0, 10**6), st.booleans(), SCALES, SIGMAS)
@example(2, 10, 0, False, ProximateOrder("constant", 1.0), 1.0)
@example(2, 3, 0, True, ProximateOrder("logshift", 1.0, 0.5), 1.0)
def test_weighted_upper_side_is_a_function_of_the_degree_data(n, degree, seed, exact, po, sigma):
    """For every family, the upper side of weighted_norm_ln is
    weighted_upper_ln of the series' degree norms, bit for bit (also for
    the axis family, a series with no coefficients and a constant)."""
    for f in (
        random_rational_series(n, degree, seed) if exact else random_rational_series(n, degree, seed).to_float(),
        axis_series(n, 1.0, sigma, degree),
        random_rational_series(n, degree, seed).truncate(0),
        MonogenicSeries(n, degree),
    ):
        ln_up, radii = weighted_upper_ln(f.degree_norms(), po, sigma)
        assert weighted_norm_ln(f, po, sigma, samples=0)[1] == ln_up
        assert (len(radii) > 0) == any(q > 0 and v > 0 for q, v in f.degree_norms().items())


@pytest.mark.parametrize(
    "po, n, degree, seed, bracket",
    [
        (ProximateOrder("constant", 1.0), 2, 5, 4, (5.055593537901822, 6.65803709632126)),
        (ProximateOrder("constant", 1.0), 3, 4, 8, (5.040424237793012, 6.521998258622862)),
        (ProximateOrder("logshift", 1.5, 0.5), 2, 5, 4, (1.9420341817092406, 2.7989032969586676)),
        (ProximateOrder("logshift", 1.5, 0.5), 3, 4, 8, (2.0998515491666803, 3.563195857066926)),
        (ProximateOrder("loglog", 0.8, -1.0), 2, 5, 4, (17.019936367775756, 18.93298965872838)),
        (ProximateOrder("loglog", 0.8, -1.0), 3, 4, 8, (14.344534554293658, 15.836347719004754)),
    ],
)
def test_sampled_brackets_are_pinned(po, n, degree, seed, bracket):
    """samples > 0 brackets as weighted_norm_ln gave them before its upper
    side became weighted_upper_ln (the lower side of the loglog n=2 case is
    re-pinned for the Kronecker directions of ``sphere_directions``); the
    sampled side runs through BLAS, so the pin allows 1e-12 relative."""
    f = random_rational_series(n, degree, seed).to_float()
    assert weighted_norm_ln(f, po, 0.7, samples=16, seed=2) == pytest.approx(bracket, rel=1e-12)


@pytest.mark.parametrize("chunk", [1, 100, 5000])
def test_envelope_chunks_keep_every_bit(monkeypatch, chunk):
    """ln U is evaluated _ENVELOPE_CHUNK values at a time; any chunk gives
    the full grid's result, since each row is computed on its own."""
    f = random_rational_series(3, 8, 1).to_float()
    po = ProximateOrder("loglog", 1.5, -2.0)
    monkeypatch.setattr(growth, "_ENVELOPE_CHUNK", chunk)
    assert pruned_envelope(f, po, 0.5) == full_grid_envelope(f, po, 0.5)


def norm_table(table):
    """A stand-in series with the given per-degree norm sums, the only data
    the envelope reads; lets a norm reach the edges of the float range,
    which a coefficient's norm (a square root of a sum of squares) cannot.
    Its ``operand`` is that of no coefficients: it reaches only the sampler."""
    return SimpleNamespace(
        n=2, coeffs={}, degree_norms=lambda: dict(table), operand=lambda: contraction_operand(2, {})
    )


LN_NORMS = st.one_of(st.sampled_from([-700.0, 700.0]), st.floats(-700.0, 700.0))


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.integers(0, 40), LN_NORMS, min_size=1, max_size=6), SCALES, SIGMAS)
@example({25: -700.0}, ProximateOrder("constant", 0.5), 1e-6)
@example({0: 700.0, 30: -700.0}, ProximateOrder("loglog", 0.5, -1.5), 1e-6)
@example({1: 700.0, 40: -700.0}, ProximateOrder("logshift", 2.0, 1.0), 1e6)
@example({0: 0.0, 1: 0.0}, ProximateOrder("constant", 1.0), 1.0)
@example({0: 5.0, 5: 0.0}, ProximateOrder("constant", 2.0), 1.0)
def test_pruned_envelope_matches_full_grid_on_extreme_norms(ln_norms, po, sigma):
    # single degrees, a constant plus one degree, and coefficient logs of
    # +-700 that cancel against q*ln r near the peaks of small or large sigma;
    # the last example has its maximum on a run of tied grid values from the
    # left end (the weight is below half an ulp of ln U there), where the
    # argmax is the first of them
    assume(any(q > 0 for q in ln_norms))  # else no grid: a constant series
    f = norm_table({q: math.exp(v) for q, v in ln_norms.items()})
    assert pruned_envelope(f, po, sigma) == full_grid_envelope(f, po, sigma)


@pytest.mark.parametrize(
    "lo, hi",
    [(-19.420680743952367, 3.4361164856185686), (-27.24, -25.24), (0.3, 7.9), (-1e6, 2.5e5), (1e15, 3e15)],
)
def test_envelope_grid_is_linspace(lo, hi):
    """The envelope computes its grid points one index at a time; they are
    np.linspace's, bit for bit, at every index and in any batch."""
    cells = growth._ENVELOPE_CELLS
    want = np.linspace(lo, hi, cells + 1)
    got = growth._envelope_grid(lo, hi, np.arange(cells + 1))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    for i in (0, 1, 7, cells // 2, cells - 1, cells):
        assert float(growth._envelope_grid(lo, hi, i)) == want[i]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("po", verify.FAMILIES)
def test_envelope_matches_full_grid_on_the_derivative_bound_tables(n, po):
    """The traffic the suite serves: check_derivative_bound takes the upper
    side of every d^m f of its axis series at the weight k*sigma.  These
    tables (up to 25 degrees) have a flat maximum, where the most blocks
    are refined."""
    sigma = 1.05 * 2.0**po.rho * verify.SIGMA
    tables = _derivative_norms(axis_series(n, 1.0, verify.SIGMA, 24), verify.Q_MAX_DERIV)
    assert max(len(t) for t in tables.values()) == 25
    for table in tables.values():
        ln_up, radii = weighted_upper_ln(table, po, sigma)
        assert (ln_up, [math.exp(L) for L in radii]) == full_grid_envelope(norm_table(table), po, sigma)


@pytest.mark.parametrize(
    "po, full_grid_kib", [(ProximateOrder("constant", 1.0), 955), (ProximateOrder("loglog", 1.0, 1.0), 1272)]
)
def test_envelope_allocates_no_grid_sized_arrays(po, full_grid_kib):
    """One call on a 25-degree table peaks under tracemalloc at most a
    quarter of what the envelope took when it built its grid arrays in full
    (full_grid_kib, numpy 2.4): no array of _ENVELOPE_CELLS + 1 points is
    built."""
    table = {q: 1.0 / math.factorial(q) for q in range(25)}
    weighted_upper_ln(table, po, 2.0)  # first-call caches are not counted
    tracemalloc.start()
    try:
        weighted_upper_ln(table, po, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= full_grid_kib * 1024 / 4


def bisect_root(func, lo=-8.0, hi=8.0):
    """The root of an increasing scalar function by bisection: the bracket
    grows until func changes sign, then halves until it is two adjacent
    floats.  The reference of the scale solves."""
    while func(lo) >= 0:
        lo *= 2.0
    while func(hi) <= 0:
        hi *= 2.0
    while True:
        mid = lo + 0.5 * (hi - lo)
        if mid in (lo, hi):
            return mid
        if func(mid) < 0:
            lo = mid
        else:
            hi = mid


def peak_excess(po, q, sigma):
    """ln t + ln(d ln t/d ln r) - ln(q/sigma) at ln r: zero at the peak."""
    target = math.log(q) - math.log(sigma)
    return lambda L: po.ln_scale_at_ln_r(L) + math.log(po.log_slope_at_ln_r(L)) - target


DEGREES = st.lists(st.floats(1.0, 1e4), min_size=1, max_size=6)
WEIGHTS = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)


@settings(max_examples=80, deadline=None)
@given(SCALES, DEGREES, WEIGHTS)
@example(ProximateOrder("loglog", 0.3, 2.0), [1.0, 1e4], 1e3)
@example(ProximateOrder("loglog", 0.3, -2.0), [1.0, 1e4], 1e-3)
@example(ProximateOrder("loglog", 3.0, 2.0), [1.0, 3.0], 1e3)
def test_weight_peaks_match_bisection(po, qs, sigma):
    ln_r, values = po.ln_weight_peaks([0.0, *qs], sigma)
    assert (ln_r[0], values[0]) == (math.log(1e-8), 0.0)
    for i, q in enumerate(qs, start=1):
        excess = peak_excess(po, q, sigma)
        assert ln_r[i] == pytest.approx(bisect_root(excess), rel=1e-12, abs=1e-12)
        assert abs(excess(ln_r[i])) <= 1e-12 * (1.0 + abs(math.log(q / sigma)))
        weight = sigma * math.exp(po.ln_scale_at_ln_r(ln_r[i]))
        assert values[i] == pytest.approx(q * ln_r[i] - weight, rel=1e-12, abs=1e-12 * q)
        # an entry's bits do not depend on its batch
        assert po.ln_weight_peak(q, sigma) == (ln_r[i], values[i])


@settings(max_examples=80, deadline=None)
@given(SCALES, st.lists(st.floats(-30.0, 60.0), min_size=1, max_size=6))
@example(ProximateOrder("loglog", 0.3, -2.0), [-1.0, 0.0, 1e-3, 40.0])
@example(ProximateOrder("loglog", 0.3, 2.0), [5.0, 5.5, 1e3])
def test_scale_inverse_matches_bisection(po, ln_ts):
    ln_phi = po.ln_phis(ln_ts)
    for y, L in zip(ln_ts, ln_phi):
        ref = bisect_root(lambda x: po.ln_scale_at_ln_r(x) - y, -100.0, 100.0)
        assert L == pytest.approx(ref, rel=1e-12, abs=1e-12)
        assert po.ln_phi_at_ln_t(y) == L


def test_weight_peak_is_the_larger_of_two_local_maxima():
    # rho < 1/8: above the cutover the excess first falls, and q/sigma in
    # (0.0768, 0.0796) gives one stationary maximum on the cap and one above
    # it; the dense scan of the objective finds the global one
    po = ProximateOrder("loglog", 0.05, 0.04)
    grid = np.linspace(-5.0, 10.0, 300001)
    ln_t = po.ln_scale_at_ln_r(grid)
    for ratio, in_cap in ((0.0769, True), (0.0775, True), (0.078, False), (0.079, False)):
        for q in (1.0, 50.0):
            sigma = q / ratio
            best = (q * grid - sigma * np.exp(ln_t)).max()
            ln_r, value = po.ln_weight_peak(q, sigma)
            assert (ln_r < po.ln_cutover) == in_cap
            assert best - 1e-9 * q <= value <= best + 1e-6 * q


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


@pytest.mark.parametrize("power", [-200, 160, 200])
@pytest.mark.parametrize("exact", [False, True])
def test_weighted_norm_of_extreme_coefficients(power, exact):
    # the squared coefficient norm underflows or overflows; the bracket must
    # still be the unit-coefficient bracket shifted by ln(scale)
    po = ProximateOrder("constant", 1.0)
    coeff = Fraction(10) ** power
    scale = float(coeff)
    if not exact:
        coeff = scale
    f = MonogenicSeries(2, 1, {(1, 0): CliffordNumber.scalar(2, coeff)})
    unit = MonogenicSeries(2, 1, {(1, 0): CliffordNumber.scalar(2, 1.0)})
    ln_lower, ln_upper = weighted_norm_ln(f, po, 1.0, samples=0)
    assert ln_lower == -math.inf and math.isfinite(ln_upper)
    expected = weighted_norm_ln(unit, po, 1.0, samples=0)[1] + math.log(scale)
    assert ln_upper == pytest.approx(expected, rel=1e-12)
    sampled_lower, sampled_upper = weighted_norm_ln(f, po, 1.0, samples=8)
    assert math.isfinite(sampled_lower) and sampled_lower <= sampled_upper == ln_upper


RUNTIME_SCRIPT = """
import os, sys, tempfile
import monogenic
from monogenic import serialize
from monogenic.cli import main
from monogenic.growth import ProximateOrder, weighted_norm_ln
from monogenic.series import max_modulus
from monogenic.verify import VerifyConfig, random_rational_series, run_all

run_all(VerifyConfig(n=2))
f = random_rational_series(3, 4, 3).to_float()
max_modulus(f, 1.0, samples=128)
weighted_norm_ln(f, ProximateOrder("loglog", 1.0, 1.0), 1.0, samples=8)
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "f.json")
    serialize.write_file(path, serialize.series_to_obj(random_rational_series(2, 4, 3).to_float()))
    code = main(["--samples", "8", "growth", path, "--po", "loglog:1:1", "--window", "1:4",
                 "--sigma", "1", "--out", os.path.join(tmp, "r.csv")])
assert code == 0, code
print(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))
print("numpy.random" in sys.modules)
"""


@pytest.fixture(scope="module")
def runtime_output():
    """The last two lines a fresh interpreter prints after the suite, the
    sampled sides and CLI ``growth``: the scipy modules it loaded and
    whether numpy.random is loaded (a subprocess, since pytest plugins may
    import either)."""
    src = os.path.dirname(os.path.dirname(monogenic.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", RUNTIME_SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-2:]


def test_runtime_loads_no_scipy(runtime_output):
    assert runtime_output[0] == "[]"


def test_runtime_loads_no_numpy_random(runtime_output):
    # numpy.random alone costs about 5.7 MB of resident memory
    assert runtime_output[1] == "False"


def test_scale_refusals_are_one_line():
    """``scale``, ``exponent`` and ``phi`` are defined on the positive
    reals only; each refuses r or t <= 0 with one line, an array with one
    such entry included."""
    for po in (ProximateOrder("constant", 1.5), ProximateOrder("loglog", 1.0, 1.0)):
        for bad in (0.0, -2.0):
            assert_refused(lambda: po.scale(bad), ValueError, "scale is defined for r > 0")
            assert_refused(lambda: po.exponent(bad), ValueError, "exponent is defined for r > 0")
            assert_refused(lambda: po.phi(bad), ValueError, "phi is defined for t > 0")
        assert_refused(lambda: po.scale(np.array([1.0, 0.0])), ValueError, "scale is defined for r > 0")


def test_order_of_a_window_with_only_the_constant_term():
    """``order_from_coeffs`` on a window whose only coefficient is the
    constant term raises ``UndefinedOrderError``; ``growth_report`` then
    gives no order or coefficient type estimate and reports the rest."""
    log_norms = {(0, 0): 0.0, (3, 0): -2.0}
    assert_refused(
        lambda: order_from_coeffs(log_norms, (0, 2), 2), UndefinedOrderError, "window contains only the constant term"
    )
    report = growth_report(ProximateOrder("constant", 1.0), (0, 2), 2, log_norms, log_kq_bounds={1: (-1.0, 0.5)})
    assert report.order_estimate is None and report.type_estimate_coeffs is None
    assert report.qs == [1] and report.type_estimate_kq == report.membership_value[0]
