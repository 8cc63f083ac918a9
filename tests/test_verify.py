import math
import re

import numpy as np
import pytest

from monogenic import fueter, operators, series, verify
from monogenic.clifford import CliffordNumber
from monogenic.fueter import basis_values
from monogenic.growth import ProximateOrder
from monogenic.multiindex import enumerate_up_to
from monogenic.sampling import ball_points
from monogenic.series import MonogenicSeries
from monogenic.verify import (
    CHECK_NAMES,
    CORRUPTION_TARGETS,
    VerifyConfig,
    axis_series,
    check_cauchy,
    check_ck_norm_bound,
    check_coeff_bound,
    check_derivative_bound,
    check_monogenicity,
    check_vm_norm_bound,
    check_y_sigma,
    random_rational_series,
    run_all,
    summary_table,
)

from conftest import assert_refused, reference_derivative

PO1 = ProximateOrder("constant", 1.0)


def test_default_suite_all_pass():
    reports = run_all(VerifyConfig())
    assert reports
    failed = [r for r in reports if not r.passed]
    assert not failed, summary_table(reports)
    assert {r.name for r in reports} == set(CHECK_NAMES)
    # whichever check made it, a report carries its margin as a Python float
    assert all(type(r.margin) is float for r in reports)


def test_suite_deterministic():
    a = [r.to_dict() for r in run_all(VerifyConfig())]
    b = [r.to_dict() for r in run_all(VerifyConfig())]
    assert a == b


@pytest.mark.parametrize("corruption", sorted(CORRUPTION_TARGETS))
def test_negative_controls(corruption):
    target = CORRUPTION_TARGETS[corruption]
    for n in (1, 2, 3):
        if (n, corruption) == (1, "ordered-words"):
            # every word at n=1 is a power of z_1, so the control cannot fail
            with pytest.raises(ValueError, match="'ordered-words' .* n=1"):
                VerifyConfig(n=n, corruption=corruption, only=(target,))
            continue
        reports = run_all(VerifyConfig(n=n, corruption=corruption, only=(target,)))
        assert reports, f"no reports produced for {target} at n={n}"
        assert any(
            not r.passed for r in reports if r.name == target
        ), f"corruption {corruption} did not break {target} at n={n}"
        for r in reports:
            assert type(r.margin) is float, r
            assert all(type(v) is float for v in r.constants.values()), r


#: dimension -> the number of seeds of its control sweep
SWEEP_SEEDS = {2: 20, 3: 20, 4: 3}


@pytest.mark.parametrize("n", sorted(SWEEP_SEEDS))
def test_every_control_fails_its_target_over_a_seed_sweep(n):
    """Each negative control fails the check it targets at every seed of a
    sweep, not only at the default seed."""
    missed = [
        (corruption, seed)
        for corruption, target in sorted(CORRUPTION_TARGETS.items())
        for seed in range(SWEEP_SEEDS[n])
        if all(r.passed for r in run_all(VerifyConfig(n=n, seed=seed, corruption=corruption, only=(target,))))
    ]
    assert not missed


#: control -> every check it fails on the full suite: its target, and for
#: two controls a second check that reads the same corrupted scale
CONTROL_FAILS = {
    "shrunk-modulus": {"cauchy-inequality"},
    "ordered-words": {"fueter-monogenicity"},
    "skewed-normalization": {"fueter-normalization"},
    "dropped-convolution-term": {"ck-product-oracle"},
    "jittered-gauge": {"gauge-supermultiplicativity"},
    "perturbed-inverse": {"scale-inverse-roundtrip"},
    "broken-scale": {"subadditive-power", "scaling-bound"},
    "inverted-weights": {"y-sigma-bound"},
    "inflated-basis-norms": {"vm-norm-bound"},
    "inflated-derivatives": {"derivative-bound"},
    "inflated-coefficients": {"coefficient-radius-bound"},
    "shrunk-weight": {"ck-norm-bound"},
    "mismatched-scale": {"type-formula", "membership-criterion"},
    "overweight-tail": {"density-reexpansion"},
    "misindexed-inversion": {"operator-roundtrip"},
}


def test_every_check_has_a_control():
    """The controls' sets cover every check, and each holds its target."""
    assert set(CONTROL_FAILS) == set(CORRUPTION_TARGETS)
    assert all(target in CONTROL_FAILS[c] for c, target in CORRUPTION_TARGETS.items())
    assert set().union(*CONTROL_FAILS.values()) == set(CHECK_NAMES)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_each_control_fails_exactly_its_set(n):
    """On the full suite a control fails the checks of its set and no other."""
    failed = {
        corruption: {r.name for r in run_all(VerifyConfig(n=n, corruption=corruption)) if not r.passed}
        for corruption in CONTROL_FAILS
    }
    assert failed == CONTROL_FAILS


def test_type_formula_and_membership_read_different_functionals(monkeypatch):
    """type-formula reads the gauge G_q and membership-criterion the weight
    peaks: a fault in either fails its check alone."""
    checks = ("type-formula", "membership-criterion")

    def failed():
        return {r.name for r in run_all(VerifyConfig(only=checks)) if not r.passed}

    assert failed() == set()
    ln_gqs, peaks = ProximateOrder.ln_gqs, ProximateOrder.ln_weight_peaks
    monkeypatch.setattr(ProximateOrder, "ln_gqs", lambda self, qs: ln_gqs(self, qs) + 0.5 * np.asarray(qs, float))
    assert failed() == {"type-formula"}
    monkeypatch.setattr(ProximateOrder, "ln_gqs", ln_gqs)

    def shifted(self, qs, sigma):
        ln_r, values = peaks(self, qs, sigma)
        return ln_r, values - 0.5 * np.asarray(qs, float)

    monkeypatch.setattr(ProximateOrder, "ln_weight_peaks", shifted)
    assert failed() == {"membership-criterion"}


@pytest.mark.parametrize("n", [2, 3])
def test_shrunk_modulus_fails_by_ln_2_or_more(n):
    """The corrupted Cauchy bound is half the least own term of the series,
    so the check fails by at least ln 2 at every seed, including those (68,
    216, 231, 248 at n=3) where a bound shrunk by a fixed factor passed."""
    for seed in range(300):
        (rep,) = run_all(VerifyConfig(n=n, seed=seed, corruption="shrunk-modulus", only=("cauchy-inequality",)))
        assert rep.margin <= -math.log(2.0) + 1e-12, (seed, rep)


@pytest.mark.parametrize("n", [2, 3])
def test_operator_roundtrip_applies_in_one_kernel_call(monkeypatch, n):
    """The round-trip check applies the operator to all its basis elements
    in one ``ck_sums`` call, beside the one of op_to_hom and of hom_to_op."""
    calls = []
    kernel = operators.ck_sums
    monkeypatch.setattr(operators, "ck_sums", lambda *args, **kw: calls.append(args) or kernel(*args, **kw))
    (rep,) = run_all(VerifyConfig(n=n, only=("operator-roundtrip",)))
    assert rep.passed, rep
    assert len(calls) == 3


@pytest.mark.parametrize(
    "n, worst_index, margin",
    [(2, (1, 4), -16.588796512596737), (3, (1, 2, 2), -16.588796513172735)],
)
def test_ordered_words_control_is_pinned(n, worst_index, margin):
    """The unsymmetrised words fail the Dirac-residual check at the same
    worst index and margin as their point-by-point cl_mul form did."""
    rep = check_monogenicity(n, corruption="ordered-words")
    assert not rep.passed
    assert rep.details["worst"][0] == worst_index
    assert rep.margin == pytest.approx(margin, rel=1e-12)


@pytest.mark.parametrize(
    "name, limit",
    [("coefficient-radius-bound", 200), ("subadditive-power", 650), ("scaling-bound", 360)],
)
def test_grid_checks_evaluate_each_scale_value_once(monkeypatch, name, limit):
    """t(r) is evaluated once per grid point, not once per factor, pair half
    or coefficient index."""
    check = {
        "coefficient-radius-bound": lambda: check_coeff_bound(
            random_rational_series(3, verify.SERIES_DEGREE, 0).to_float(), PO1, verify.SIGMA, s=4.0
        ),
        "subadditive-power": lambda: verify.check_subadditive_power(PO1),
        "scaling-bound": lambda: verify.check_scaling_bound(PO1),
    }[name]
    calls = []
    scale = ProximateOrder.scale

    def counted(self, r):
        calls.append(r)
        return scale(self, r)

    monkeypatch.setattr(ProximateOrder, "scale", counted)
    rep = check()
    assert rep.name == name and rep.passed, rep
    assert len(calls) <= limit


@pytest.mark.parametrize(
    "rho, overflow",
    [
        (50.0, lambda: math.exp(1e3)),  # t(r) leaves the float range
        (1100.0, lambda: 2.0**1100.0),  # k^rho does, before any t(r)
    ],
)
def test_scale_beyond_float_range_is_reported(monkeypatch, rho, overflow):
    """The check raises the OverflowError, and run_all reports it as that
    check's failure."""
    with pytest.raises(OverflowError) as err:
        overflow()
    with pytest.raises(OverflowError, match=f"^{re.escape(str(err.value))}$"):
        verify.check_scaling_bound(ProximateOrder("constant", rho))
    raising = lambda c, po, cor: verify.check_scaling_bound(ProximateOrder("constant", rho), corruption=cor)
    monkeypatch.setitem(verify._PER_FAMILY, "scaling-bound", raising)
    reports = run_all(VerifyConfig(only=("scaling-bound",)))
    assert len(reports) == len(verify.FAMILIES)
    for rep in reports:
        assert rep.instance == f"raised OverflowError: {err.value}"
        assert rep.margin == -math.inf and not rep.passed


def test_only_filter():
    reports = run_all(VerifyConfig(only=("cauchy-inequality",)))
    assert {r.name for r in reports} == {"cauchy-inequality"}


def test_cauchy_equality_for_single_basis_coefficient():
    # a single unit coefficient saturates the inequality at every radius
    from monogenic.series import MonogenicSeries

    f = MonogenicSeries.basis_element(2, (3, 0), exact=False)
    rep = check_cauchy(f, (0.5, 1.0, 2.0))
    assert rep.passed
    assert rep.margin == pytest.approx(math.log(4.0), rel=1e-9)  # ln c(2,(3,0))


def test_vm_norm_bound_constant_grows_with_sigma_prime():
    values = []
    for sp in (0.3, 0.5, 0.7):
        rep = check_vm_norm_bound(PO1, 1.0, sp, q_max=20)
        assert rep.passed
        values.append(rep.constants["ln_C"])
    assert values[0] <= values[1] + 1e-9 <= values[2] + 2e-9


def test_y_sigma_reports_threshold():
    rep = check_y_sigma(PO1, 1.0, 0.5)
    assert rep.passed
    assert rep.constants["T1"] == 1.0
    assert rep.margin == pytest.approx(math.log(2.0), abs=5e-2)


def test_derivative_bound_zero_order_reduces_to_monotonicity():
    f = axis_series(2, 1.0, 1.0, 10)
    rep = check_derivative_bound(f, PO1, 1.0, q_max=0)
    assert rep.passed
    # k sigma >= sigma so the zero-order constant is at most 1
    assert rep.constants["ln_C_sigma"] <= 1e-9


def derivative_tables(f, q_max):
    """``degree_norms`` of d^m f, one per-coefficient derivative per index:
    the reference for the one-pass table of ``check_derivative_bound``."""
    tables = {m: reference_derivative(f, m) for m in enumerate_up_to(f.n, q_max)}
    return {m: d.degree_norms() for m, d in tables.items() if not d.is_zero()}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_one_pass_derivative_norms_match_bit_for_bit_on_the_axis_family(n):
    f = axis_series(n, 1.0, 1.0, 24)
    got, want = verify._derivative_norms(f, 12), derivative_tables(f, 12)
    assert set(got) == set(want)
    for m, table in want.items():
        assert list(got[m].items()) == list(table.items())


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_one_pass_derivative_norms_within_four_ulps_on_multi_blade_series(n, exact):
    """norm(c a) and c norm(a) round apart on multi-blade values; the
    relative gap is at most 4 eps (1.8 eps is the worst seen over seeds
    0-19), with the same degrees in the same order."""
    eps = 2.0**-52
    for seed in range(5):
        f = random_rational_series(n, 5, seed)
        f = f if exact else f.to_float()
        got, want = verify._derivative_norms(f, 4), derivative_tables(f, 4)
        assert set(got) == set(want)
        for m, table in want.items():
            assert list(got[m]) == list(table)
            for q, value in table.items():
                assert abs(got[m][q] - value) <= 4 * eps * value


def test_derivative_weights_beyond_the_float_range_round_to_inf():
    """A weight k!/(k-m)! past the float range is inf in the one-pass
    tables, as the derivative rounds it, and the check reports a
    failed bound instead of raising OverflowError."""
    f = MonogenicSeries(1, 200, {(200,): CliffordNumber.scalar(1, 1.0)})
    got, want = verify._derivative_norms(f, 180), derivative_tables(f, 180)
    assert list(got) == list(want) and got[(180,)] == {20: math.inf}
    for m, table in want.items():
        assert list(got[m].items()) == list(table.items())
    rep = check_derivative_bound(f, PO1, 1.0, 180)
    assert rep.margin == -math.inf and not rep.passed


@pytest.mark.parametrize("corruption", [None, "inflated-derivatives"])
@pytest.mark.parametrize("n", [2, 3])
def test_derivative_bound_makes_no_series_derivative_call(monkeypatch, n, corruption):
    """The check reads its derivative norms from one pass over f: it builds
    no d^m f table, neither by ``series_derivative`` nor by the kernel."""
    calls = []

    def counted(name, fn):
        return lambda *args, **kw: calls.append(name) or fn(*args, **kw)

    monkeypatch.setattr(series, "series_derivative", counted("series_derivative", series.series_derivative))
    monkeypatch.setattr(series, "ck_sums", counted("series.ck_sums", series.ck_sums))
    monkeypatch.setattr(verify, "ck_sums", counted("verify.ck_sums", verify.ck_sums))
    (rep,) = run_all(VerifyConfig(n=n, corruption=corruption, only=("derivative-bound",)))
    assert rep.passed == (corruption is None)
    assert calls == []


def test_derivative_bound_of_a_zero_series_is_a_one_line_error(monkeypatch):
    with pytest.raises(ValueError, match="^derivative-bound: ") as err:
        check_derivative_bound(MonogenicSeries(2, 3), PO1, 1.0, 12)
    assert "\n" not in str(err.value)
    monkeypatch.setattr(verify, "axis_series", lambda n, rho, sigma, degree: MonogenicSeries(n, degree))
    (rep,) = run_all(VerifyConfig(only=("derivative-bound",)))
    assert rep.instance == f"raised ValueError: {err.value}"
    assert rep.margin == -math.inf and not rep.passed


def _counted(monkeypatch, owner, name):
    """Wrap owner.name so that each call is counted; returns the count list."""
    calls = []
    inner = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_residual_layer_makes_one_call_per_point_set(monkeypatch):
    """``dirac_residuals`` evaluates all offset points of its base points in
    one call, ``check_monogenicity`` makes one kernel call per run and
    ``dirac_residual`` one ``dirac_residuals`` call."""
    points = ball_points(3, 1.2, 12, seed=4)
    for size in (1, 2, 12):
        seen = []
        rows = fueter.dirac_residuals(lambda pts: seen.append(len(pts)) or basis_values(pts, 3), points[:size])
        assert seen == [8 * size] and len(rows) == size
    for name, corruption in (("basis_values", None), ("ordered_words", "ordered-words")):
        calls = _counted(monkeypatch, verify, name)
        check_monogenicity(3, seed=4, corruption=corruption)
        assert calls == [name]
    calls = _counted(monkeypatch, series, "dirac_residuals")
    f = random_rational_series(3, 4, 5).to_float()
    series.dirac_residual(f, points)
    series.dirac_residual(lambda x: series.series_eval(f, x), points)
    assert calls == ["dirac_residuals"] * 2


def test_checks_take_each_norm_and_float_copy_once(monkeypatch):
    """``check_cauchy`` takes each coefficient norm once (the series keeps
    them), and ``check_ck_norm_bound`` makes one float copy of each factor;
    their reports do not change."""
    f, g = random_rational_series(3, 5, 5), random_rational_series(3, 3, 6)
    want = (check_cauchy(f, verify.RADII).to_dict(), check_ck_norm_bound(f, g, PO1, 1.0, 0.5).to_dict())
    f, g = random_rational_series(3, 5, 5), random_rational_series(3, 3, 6)
    norms = _counted(monkeypatch, CliffordNumber, "norm")
    assert check_cauchy(f, verify.RADII).to_dict() == want[0]
    assert len(norms) == len(f.coeffs)
    copies = _counted(monkeypatch, MonogenicSeries, "to_float")
    assert check_ck_norm_bound(f, g, PO1, 1.0, 0.5).to_dict() == want[1]
    assert copies == ["to_float"] * 2


def test_ck_norm_bound_unit_factor():
    from monogenic.series import MonogenicSeries

    g1 = random_rational_series(2, 4, 9)
    unit = MonogenicSeries.unit(2)
    rep = check_ck_norm_bound(g1, unit, PO1, 1.0, 1.0)
    assert rep.passed
    # multiplying by the unit only inflates the weight: constant about 1
    assert rep.constants["ln_C"] <= 1e-6
    # the weight's exponent is the scale's order
    assert rep.details["weight_exponent"] == PO1.rho


def test_coeff_bound_axis_instance():
    f = axis_series(2, 1.0, 1.0, 12)
    rep = check_coeff_bound(f, PO1, 1.0, s=3.0)
    assert rep.passed and math.isfinite(rep.constants["C_eta"])


def test_config_from_dict_round_trip():
    cfg = VerifyConfig.from_dict(
        {"n": 3, "seed": 3, "corruption": "mismatched-scale", "only": ["type-formula"]}
    )
    assert cfg == VerifyConfig(n=3, seed=3, corruption="mismatched-scale", only=("type-formula",))
    reports = run_all(cfg)
    assert [(r.name, r.passed) for r in reports] == [("type-formula", False)]


@pytest.mark.parametrize(
    "make",
    [lambda seed: random_rational_series(2, 3, seed), lambda seed: verify.random_rational_operator(2, 2, 1, seed)],
)
def test_random_rational_generators_reject_a_negative_seed(make):
    # random.Random(-1) draws the stream of random.Random(1)
    with pytest.raises(ValueError, match=re.escape("seed must be a non-negative integer, got -1")):
        make(-1)


def test_cauchy_check_of_the_zero_series_passes_with_margin_zero():
    """The zero series has no coefficient to bound: every radius is
    skipped, and the report passes with margin 0.0 and no worst point."""
    report = check_cauchy(MonogenicSeries(2, 3), (0.5, 1.0, 2.0))
    assert report.passed and report.margin == 0.0 and report.details["worst_at"] is None


def test_vm_norm_bound_refuses_sigma_prime_not_below_sigma():
    po = ProximateOrder("constant", 1.0)
    for sigma_prime in (0.0, 1.0, 2.0):
        assert_refused(lambda: check_vm_norm_bound(po, 1.0, sigma_prime), ValueError, "need 0 < sigma' < sigma")
