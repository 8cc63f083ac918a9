import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monogenic import fueter
from monogenic.clifford import CliffordNumber, Paravector
from monogenic.errors import DimensionMismatchError
from monogenic.multiindex import enumerate_up_to, mi_add, mi_abs
from monogenic.growth import ProximateOrder, weighted_norm_ln
from monogenic.series import (
    MonogenicSeries,
    ck_mul_left,
    dirac_residual,
    max_modulus,
    series_derivative,
    series_eval,
    taylor_coefficient,
)
from monogenic.verify import brute_force_ck, random_rational_series

from conftest import DYADIC_VALUE, exact_clifford, exact_series, random_point, scale_right


def test_constant_series_everywhere():
    c = CliffordNumber(2, {0b11: Fraction(3, 2)})
    f = MonogenicSeries(2, 0, {(0, 0): c})
    for x in [Paravector(0.0, [0.0, 0.0]), Paravector(1.0, [2.0, -3.0])]:
        assert series_eval(f, x) == c.to_float()


def test_eval_single_basis_coefficient():
    f = MonogenicSeries.basis_element(2, (1, 0), exact=False)
    x = Paravector(0.5, [0.25, 9.0])
    value = series_eval(f, x)
    assert value == CliffordNumber(2, {0: 0.25, 0b01: -0.5})
    # restriction to the first axis is the plain monomial
    g = MonogenicSeries.basis_element(2, (2, 0), exact=False)
    x_axis = Paravector(0.0, [1.5, 0.0])
    got = series_eval(g, x_axis)
    assert got[0] == pytest.approx(1.5**2, rel=1e-15)


def test_derivative_shift_and_commutativity(rng):
    f = random_rational_series(2, 5, 99)
    assert series_derivative(f, (0, 0)) is f
    d = series_derivative(MonogenicSeries.basis_element(2, (2, 0)), (1, 0))
    assert d.coeffs == {(1, 0): CliffordNumber.scalar(2, Fraction(2))}
    d12 = series_derivative(series_derivative(f, (1, 0)), (0, 1))
    d21 = series_derivative(series_derivative(f, (0, 1)), (1, 0))
    assert d12.coeffs == d21.coeffs
    assert series_derivative(f, (6, 0)).is_zero()


def test_derivative_matches_rule_numerically(rng):
    f = random_rational_series(2, 4, 5).to_float()
    df = series_derivative(f, (1, 0))
    h = 1e-6
    for _ in range(5):
        x = random_point(2, rng)
        plus, minus = list(x.components()), list(x.components())
        plus[1] += h
        minus[1] -= h
        approx = (
            series_eval(f, Paravector.from_components(plus))
            - series_eval(f, Paravector.from_components(minus))
        ).scale(1.0 / (2 * h))
        exact = series_eval(df, x)
        assert (approx - exact).norm() <= 1e-6 * (1.0 + exact.norm())


def test_taylor_round_trip_exact():
    f = random_rational_series(2, 5, 123)
    for m in f.coeffs:
        assert taylor_coefficient(f, m) == f.coeffs[m]
    empty = tuple(m for m in enumerate_up_to(2, 5) if m not in f.coeffs)
    for m in empty[:5]:
        assert taylor_coefficient(f, m).is_zero()


def test_ck_unit_laws_and_single_term():
    f = random_rational_series(2, 4, 7)
    unit = MonogenicSeries.unit(2)
    assert ck_mul_left(f, unit, 4).coeffs == f.coeffs
    assert ck_mul_left(unit, f, 4).coeffs == f.coeffs
    a = MonogenicSeries.basis_element(2, (1, 0))
    b = MonogenicSeries.basis_element(2, (0, 1))
    prod = ck_mul_left(a, b, 2)
    assert prod.coeffs == {(1, 1): CliffordNumber.scalar(2, Fraction(1))}


def test_ck_against_brute_force_exact():
    for seed in range(6):
        f = random_rational_series(2, 5, seed)
        g = random_rational_series(2, 5, 1000 + seed)
        for q_out in (3, 5, 10):
            assert ck_mul_left(f, g, q_out).coeffs == brute_force_ck(f, g, q_out).coeffs


def test_ck_truncation_coherence():
    f = random_rational_series(2, 5, 21)
    g = random_rational_series(2, 5, 22)
    full = ck_mul_left(f, g, 8)
    assert full.truncate(4).coeffs == ck_mul_left(f, g, 4).coeffs


def test_ck_associative_up_to_truncation():
    for seed in range(4):
        f = random_rational_series(2, 3, seed)
        g = random_rational_series(2, 3, 50 + seed)
        h = random_rational_series(2, 3, 90 + seed)
        q = 5
        left = ck_mul_left(ck_mul_left(f, g, q), h, q)
        right = ck_mul_left(f, ck_mul_left(g, h, q), q)
        assert left.coeffs == right.coeffs


def test_ck_noncommutative_in_general():
    a = MonogenicSeries(2, 0, {(0, 0): CliffordNumber.unit(2, 1)})
    b = MonogenicSeries(2, 0, {(0, 0): CliffordNumber.unit(2, 2)})
    assert ck_mul_left(a, b, 0).coeffs != ck_mul_left(b, a, 0).coeffs


def test_ck_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        ck_mul_left(MonogenicSeries.unit(2), MonogenicSeries.unit(3), 2)


def test_negative_index_and_point_dimension_rejected():
    one = CliffordNumber.scalar(2, 1.0)
    with pytest.raises(ValueError, match="negative"):
        MonogenicSeries(2, 4, {(3, -1): one})
    f = MonogenicSeries(2, 2, {(1, 0): one})
    with pytest.raises(ValueError, match="negative"):
        series_derivative(f, (-1, 1))
    with pytest.raises(DimensionMismatchError):
        series_eval(f, Paravector(0.0, [1.0]))


def test_kernel_rejects_points_of_another_width():
    """The operand knows n: points of width n+1 for another n raise one line."""
    f = random_rational_series(3, 4, 5).to_float()
    for call in (
        lambda: fueter.basis_combination(f.operand(), [[0.1, 0.2]]),
        lambda: fueter.sampled_sups(2, f.operand(), [1.0], 8),
    ):
        with pytest.raises(DimensionMismatchError) as err:
            call()
        assert "\n" not in str(err.value) and "dimension 3" in str(err.value)


def test_float_series_builds_its_operand_once(monkeypatch):
    """One float series contracts with one kept operand: its coefficients
    become blade rows once over evaluations and sampled sup norms."""
    calls = []
    rows = fueter.blade_rows

    def counted(*args):
        calls.append(args[0])
        return rows(*args)

    monkeypatch.setattr(fueter, "blade_rows", counted)
    f = random_rational_series(3, 5, 11).to_float()
    rng = random.Random(3)
    for _ in range(10):
        series_eval(f, Paravector(rng.uniform(-1, 1), [rng.uniform(-1, 1) for _ in range(3)]))
    max_modulus(f, 0.5, samples=8)
    max_modulus(f, 2.0, samples=8)
    lower, _ = weighted_norm_ln(f, ProximateOrder("constant", 1.0), 1.0, samples=8)
    assert lower > -math.inf  # the sampled side ran
    assert calls == [3]


def test_dirac_residual_small_for_series(rng):
    f = random_rational_series(2, 4, 31).to_float()
    points = [random_point(2, rng, radius=1.2) for _ in range(10)]
    res = dirac_residual(f, points, h=1e-5)
    bound = 1e-6 * (1.0 + max(f.coeff_upper_bound(p.norm()) for p in points))
    assert res <= bound


def test_dirac_residual_detects_corruption(rng):
    f = random_rational_series(2, 4, 31).to_float()
    points = [random_point(2, rng, radius=1.0) for _ in range(10)]

    def corrupted(x):
        return series_eval(f, x).scale(x.x0)

    assert dirac_residual(corrupted, points, h=1e-5) > 1e-2
    # K stacked functions: each gets the residual of that function alone
    x = points[0]
    funcs = [lambda p: series_eval(f, p), corrupted]

    def evaluate(pts):
        xs = [Paravector.from_components(p) for p in pts.tolist()]
        return np.stack([fueter.blade_rows(2, [g(y) for g in funcs]) for y in xs])

    residuals = fueter.dirac_residuals(evaluate, x, h=1e-5)
    assert residuals == [dirac_residual(f, [x], h=1e-5), dirac_residual(corrupted, [x], h=1e-5)]
    assert residuals[0] < 1e-6 < residuals[1]


def test_dirac_residual_rejects_value_of_another_dimension():
    x = Paravector(0.1, [0.2, 0.3])
    for dim in (1, 3):
        with pytest.raises(DimensionMismatchError):
            dirac_residual(lambda p: CliffordNumber.scalar(dim, p.x0), [x])
    with pytest.raises(DimensionMismatchError):
        dirac_residual(MonogenicSeries.basis_element(1, (1,), exact=False), [x])


@pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf, 0.0, -1e-5])
def test_dirac_residual_rejects_bad_step(h):
    f = MonogenicSeries.basis_element(2, (1, 1), exact=False)
    with pytest.raises(ValueError, match="step h must be positive and finite"):
        dirac_residual(f, [Paravector(0.1, [0.2, 0.3])], h=h)


def test_dirac_residual_nan_is_not_monogenic():
    """A NaN point or a NaN value gives a NaN residual, wherever it sits
    among the points, never the 0.0 that reads as monogenic."""
    f = MonogenicSeries.basis_element(2, (1, 1), exact=False)
    good, bad = Paravector(0.1, [0.2, 0.3]), Paravector(math.nan, [0.2, 0.3])
    assert math.isnan(dirac_residual(f, [good, bad]))
    assert math.isnan(dirac_residual(f, [bad, good]))
    assert math.isnan(dirac_residual(lambda x: CliffordNumber.scalar(2, math.nan), [good]))
    assert dirac_residual(f, []) == 0.0


def test_dirac_residual_constant_is_roundoff():
    f = MonogenicSeries(2, 0, {(0, 0): CliffordNumber.scalar(2, 2.5)})
    assert dirac_residual(f, [Paravector(0.4, [0.1, 0.2])], h=1e-5) <= 1e-10


def test_max_modulus_axis_family():
    f = MonogenicSeries.basis_element(2, (5, 0), exact=False)
    for r in (0.5, 1.0, 2.0):
        lower, upper = max_modulus(f, r, samples=64)
        assert upper == pytest.approx(r**5, rel=1e-12)
        assert lower == pytest.approx(r**5, rel=1e-12)  # axis point is sampled
    lower, upper = max_modulus(f, 0.0)
    assert lower == upper == 0.0


@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf, -1.0])
def test_max_modulus_rejects_bad_radius(r):
    f = MonogenicSeries.basis_element(2, (2, 0), exact=False)
    for samples in (0, 8):
        with pytest.raises(ValueError, match="radius must be finite and >= 0, got"):
            max_modulus(f, r, samples=samples)


def test_max_modulus_bracket(rng):
    f = random_rational_series(2, 4, 77).to_float()
    lower, upper = max_modulus(f, 1.7, samples=64)
    assert lower <= upper * (1 + 1e-12)
    c = MonogenicSeries(2, 0, {(0, 0): CliffordNumber.scalar(2, -3.0)})
    lo, up = max_modulus(c, 2.0, samples=8)
    assert lo == pytest.approx(3.0) and up == pytest.approx(3.0)


def test_max_modulus_of_empty_series_builds_no_sign_table(monkeypatch):
    def refuse(n):
        raise AssertionError(f"blade sign table built for n={n}")

    monkeypatch.setattr(fueter, "_blade_signs", refuse)
    assert max_modulus(MonogenicSeries(10, 1), 1.0, samples=8) == (0.0, 0.0)


def test_cauchy_inequality_upper_bound_form():
    from monogenic.multiindex import ln_c_nm

    for seed in range(10):
        f = random_rational_series(2, 5, 400 + seed)
        for r in (0.5, 1.0, 2.0, 4.0):
            upper = f.coeff_upper_bound(r)
            for m, a in f.coeffs.items():
                bound = math.exp(ln_c_nm(2, m)) * upper / r ** mi_abs(m)
                assert a.norm() <= bound * (1 + 1e-12)


def test_homogeneous_part():
    f = random_rational_series(2, 5, 3)
    p2 = f.homogeneous_part(2)
    assert all(mi_abs(m) == 2 for m in p2.coeffs)
    zero = Paravector(0.0, [0.0, 0.0])
    if not p2.is_zero():
        assert series_eval(p2, zero).is_zero() or series_eval(p2, zero).norm() == 0.0


def small_series(n=2, degree=3):
    from monogenic.multiindex import enumerate_up_to

    indices = enumerate_up_to(n, degree)
    coeff = st.integers(-3, 3).map(Fraction)
    blade = st.dictionaries(st.integers(0, (1 << n) - 1), coeff, max_size=3).map(
        lambda d: CliffordNumber(n, d)
    )
    return st.dictionaries(st.sampled_from(indices), blade, max_size=6).map(
        lambda d: MonogenicSeries(n, degree, d)
    )


@settings(max_examples=60, deadline=None)
@given(small_series(), small_series(), small_series())
def test_ck_bilinear_and_truncation_coherent(f, g, h):
    q = 6
    left = ck_mul_left(f, g + h, q)
    right = ck_mul_left(f, g, q) + ck_mul_left(f, h, q)
    assert left.coeffs == right.coeffs
    assert ck_mul_left(f, g, q).truncate(3).coeffs == ck_mul_left(f, g, 3).coeffs


@st.composite
def exact_ck_case(draw):
    """Two exact series of one dimension n <= 4 and degree <= 5.  Half of the
    cases with degree >= 1 are f = V_m a + V_(m+e_i) a, g = V_(k+e_i) b - V_k b,
    whose two pairs meeting at m + k + e_i cancel to zero."""
    n = draw(st.integers(1, 4))
    degree = draw(st.integers(0, 5))
    if degree == 0 or draw(st.booleans()):
        return draw(exact_series(n, degree)), draw(exact_series(n, degree))
    low = enumerate_up_to(n, degree - 1)
    m, k = draw(st.sampled_from(low)), draw(st.sampled_from(low))
    axis = draw(st.integers(0, n - 1))
    step = tuple(int(j == axis) for j in range(n))
    a, b = draw(exact_clifford(n, min_blades=1)), draw(exact_clifford(n, min_blades=1))
    f = MonogenicSeries(n, degree, {m: a, mi_add(m, step): a})
    g = MonogenicSeries(n, degree, {mi_add(k, step): b, k: -b})
    return f, g


# (1 + e123)(1 - e123) = 0 in dimension 3: the whole product cancels
_ZERO_DIVISORS = tuple(
    MonogenicSeries(3, 1, {(0, 1, 0): CliffordNumber(3, {0: 1, 0b111: s})}) for s in (1, -1)
)


@settings(max_examples=100, deadline=None)
@given(exact_ck_case())
@example(_ZERO_DIVISORS)
@example((MonogenicSeries(2, 3), random_rational_series(2, 3, 4)))
@example((random_rational_series(2, 3, 4), MonogenicSeries(2, 3)))
def test_exact_ck_kernel_matches_brute_force(case):
    """The fraction-free exact kernel against the Fraction double loop of
    ``brute_force_ck`` at every truncation: equal coefficients, the same
    index order and the same declared degree; int inputs give ints."""
    f, g = case
    for q_out in range(2 * f.degree + 1):
        got, want = ck_mul_left(f, g, q_out), brute_force_ck(f, g, q_out)
        assert got.degree == want.degree == q_out
        assert list(got.coeffs) == list(want.coeffs)
        assert got.coeffs == want.coeffs
        if all(type(v) is int for h in case for a in h.coeffs.values() for v in a.coeffs.values()):
            assert all(type(v) is int for a in got.coeffs.values() for v in a.coeffs.values())


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_float_ck_keeps_non_finite_values_in_their_blades(bad):
    """An inf or NaN coefficient reaches only the blades its products reach,
    as in the double loop of ``brute_force_ck`` (the other sums are small
    integers, so every order of adding them gives the same bits)."""
    f = MonogenicSeries(2, 1, {(0, 0): CliffordNumber(2, {0: 1.0}), (1, 0): CliffordNumber(2, {1: 2.0, 3: -1.0})})
    g = MonogenicSeries(2, 1, {(0, 0): CliffordNumber(2, {0: bad, 1: 3.0}), (0, 1): CliffordNumber(2, {2: 5.0})})
    for left, right in ((f, g), (g, f)):
        got, want = ck_mul_left(left, right, 2), brute_force_ck(left, right, 2)
        assert list(got.coeffs) == list(want.coeffs)
        for p, a in want.coeffs.items():
            assert {k: str(v) for k, v in got.coeffs[p].coeffs.items()} == {k: str(v) for k, v in a.coeffs.items()}


def test_ck_of_exact_and_float_values_is_float():
    """A float anywhere makes the product float, as in the double loop."""
    f = MonogenicSeries(2, 1, {(1, 0): CliffordNumber(2, {0: Fraction(1, 3), 1: 2})})
    g = MonogenicSeries(2, 1, {(0, 1): CliffordNumber(2, {0: 0.5, 3: 1.5})})
    got, want = ck_mul_left(f, g, 2), brute_force_ck(f, g, 2)
    assert got.coeffs == want.coeffs
    assert all(type(v) is float for a in got.coeffs.values() for v in a.coeffs.values())


def test_exact_ck_of_zero_divisors_is_zero():
    assert ck_mul_left(*_ZERO_DIVISORS, 2).is_zero()


@settings(max_examples=40, deadline=None)
@given(small_series())
def test_taylor_round_trip_property(f):
    for m in f.coeffs:
        assert taylor_coefficient(f, m) == f.coeffs[m]


def test_right_module_action():
    f = random_rational_series(2, 3, 8)
    c = CliffordNumber(2, {0b11: Fraction(2), 0: Fraction(-1)})
    g = scale_right(f, c)
    x = Paravector(0.3, [0.1, -0.7])
    from monogenic.clifford import cl_mul

    assert (series_eval(g, x) - cl_mul(series_eval(f, x), c.to_float())).norm() <= 1e-12


def _float_error_within(value: CliffordNumber, exact: CliffordNumber, f: MonogenicSeries, x) -> bool:
    """Float value within 1e-12 of the exact one, relative to the larger of the
    exact norm and the coefficient envelope sum |a_m| |x|^|m|: rounding error
    scales with the terms, and terms can cancel to an exact zero."""
    masks = set(value.coeffs) | set(exact.coeffs)
    err_sq = sum((Fraction(value[k]) - exact[k]) ** 2 for k in masks)
    scale = max(math.sqrt(exact.norm_sq()), f.coeff_upper_bound(math.sqrt(x.norm_sq())))
    return err_sq <= (Fraction(1e-12) * Fraction(scale)) ** 2


@st.composite
def dyadic_series_and_point(draw):
    n = draw(st.integers(1, 4))
    degree = draw(st.integers(0, 6))
    blade = st.dictionaries(st.integers(0, (1 << n) - 1), DYADIC_VALUE, min_size=1, max_size=4)
    indices = draw(st.lists(st.sampled_from(enumerate_up_to(n, degree)), max_size=5, unique=True))
    coeffs = {m: CliffordNumber(n, draw(blade)) for m in indices}
    coordinate = st.one_of(st.just(Fraction(0)), DYADIC_VALUE)
    comps = draw(st.lists(coordinate, min_size=n + 1, max_size=n + 1))
    return MonogenicSeries(n, degree, coeffs), Paravector.from_components(comps)


_DENSE_3 = MonogenicSeries(
    3,
    4,
    {m: CliffordNumber(3, {0: Fraction(1), 0b101: Fraction(-3, 4)}) for m in enumerate_up_to(3, 4)},
)


@settings(max_examples=150, deadline=None)
@given(dyadic_series_and_point())
@example((_DENSE_3, Paravector.from_components([Fraction(0)] * 4)))
@example((_DENSE_3, Paravector.from_components([Fraction(0), Fraction(3, 2), Fraction(0), Fraction(-1, 4)])))
def test_float_eval_matches_exact_mode(case):
    """Float series_eval (the batched kernel) against the exact-mode oracle;
    a float value carries only its nonzero blades."""
    f, x = case
    exact = series_eval(f, x, exact=True)
    value = series_eval(f.to_float(), Paravector.from_components([float(c) for c in x.components()]))
    assert all(v != 0.0 for v in value.coeffs.values())
    assert _float_error_within(value, exact, f, x)


def test_kernel_blocks_agree_with_exact_mode():
    """More points than three blocks of the kernel hold: every row is the
    exact value at its point."""
    n, degree = 5, 4
    per_block = fueter._BLOCK_FLOATS // (len(enumerate_up_to(n, degree)) << n)
    rng = random.Random(17)
    points = [
        Paravector.from_components([Fraction(rng.randint(-6, 6), 4) for _ in range(n + 1)])
        for _ in range(3 * per_block + 5)
    ]
    f = MonogenicSeries(
        n,
        degree,
        {
            (0,) * n: CliffordNumber.scalar(n, Fraction(1, 2)),
            (1, 0, 2, 0, 1): CliffordNumber(n, {0b10011: Fraction(3), 0b1: Fraction(-1, 8)}),
            (0, 1, 0, 1, 0): CliffordNumber.scalar(n, Fraction(-5, 2)),
            (0, 0, 0, 0, 3): CliffordNumber(n, {0b11111: Fraction(7, 4)}),
        },
    )
    rows = fueter.basis_combination(f.operand(), [[float(c) for c in x.components()] for x in points])
    assert len(rows) == len(points) > 3 * per_block
    for x, row in zip(points, rows.tolist()):
        value = CliffordNumber(n, dict(enumerate(row)))
        assert _float_error_within(value, series_eval(f, x, exact=True), f, x)
