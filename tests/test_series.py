import math
import random
import tracemalloc
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monogenic import fueter
from monogenic import series as series_module
from monogenic.clifford import CliffordNumber, Paravector, blade_product, cl_mul
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

from conftest import (
    DYADIC_VALUE,
    EXACT_VALUE,
    INF_FLOOR,
    exact_clifford,
    assert_refused,
    exact_series,
    random_point,
    reference_derivative,
    scale_right,
)


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


@st.composite
def derivative_case(draw):
    """A series of dimension n <= 4, exact (some numerators beyond 2^63) or
    float (signed zeros, inf and NaN included), with index entries small or
    near 200, so that weights pass the float range; and an order that is
    one of its indices or any index, so that some orders empty it."""
    n = draw(st.integers(1, 4))
    value = draw(st.sampled_from([st.one_of(EXACT_VALUE, st.integers(2**62, 2**70)), st.floats()]))
    index = st.tuples(*[st.one_of(st.integers(0, 4), st.integers(150, 200))] * n)
    blades = st.dictionaries(st.integers(0, (1 << n) - 1), value, max_size=4)
    coeffs = draw(st.dictionaries(index, blades.map(lambda d: CliffordNumber(n, d)), max_size=5))
    degree = max(map(sum, coeffs), default=0) + draw(st.integers(0, 2))
    order = draw(st.one_of(index, st.sampled_from(list(coeffs) or [(0,) * n])))
    return MonogenicSeries(n, degree, coeffs), order


def _blade_key(value):
    """An exact value as it is (compared with ==); a float as its repr, which
    tells every two floats apart but NaNs."""
    return repr(value) if isinstance(value, float) else value


@settings(max_examples=200, deadline=None)
@given(derivative_case())
@example((MonogenicSeries(1, 200, {(200,): CliffordNumber(1, {0: 1.0, 1: 0.0})}), (170,)))  # 0 * inf
@example((MonogenicSeries(1, 173, {(173,): CliffordNumber(1, {0: 1.0})}), (164,)))  # 173!/9!, just finite
@example((MonogenicSeries(1, 200, {(200,): CliffordNumber(1, {1: 3, 0: Fraction(1, 3)})}), (170,)))
@example((MonogenicSeries(2, 4, {(1, 3): CliffordNumber(2, {0: 1e300})}), (0, 3)))  # overflow to inf
@example((MonogenicSeries(2, 4, {(1, 3): CliffordNumber(2, {0: 2.0})}), (2, 0)))  # nothing left
@example((MonogenicSeries(2, 4, {(1, 3): CliffordNumber(2, {0: 2.0})}), (3, 2)))  # beyond the degree
def test_series_derivative_matches_the_per_coefficient_loop(case):
    """The kernel's shift against the loop over coefficients at n = 1..4:
    the same degree and indices in the same order, and each coefficient's
    nonzero blades in mask order, equal in exact mode and the same bits in
    float mode.  The zero order returns f itself."""
    f, p = case
    got, want = series_derivative(f, p), reference_derivative(f, p)
    if not any(p):
        assert got is f is want
        return
    assert got.degree == want.degree
    layout = [(m, [(mask, _blade_key(v)) for mask, v in a.coeffs.items()]) for m, a in got.coeffs.items()]
    expected = [
        (m, [(mask, _blade_key(v)) for mask, v in sorted(a.coeffs.items()) if v != 0])
        for m, a in want.coeffs.items()
    ]
    assert layout == [(m, blades) for m, blades in expected if blades]


def test_series_derivative_drops_zero_blades_and_sorts_by_mask():
    """Stored float zeros leave the derivative, as they leave every kernel
    result, and blades come in mask order; the per-coefficient loop keeps
    both zeros and the input order."""
    f = MonogenicSeries(2, 3, {
        (2, 1): CliffordNumber(2, {3: 1.5, 0: 0.0, 1: -0.0, 2: 2.0}),
        (1, 0): CliffordNumber(2, {0: 0.0}),
    })
    got, want = series_derivative(f, (1, 0)), reference_derivative(f, (1, 0))
    assert [(m, list(a.coeffs.items())) for m, a in got.coeffs.items()] == [((1, 1), [(2, 4.0), (3, 3.0)])]
    assert [(m, list(a.coeffs.items())) for m, a in want.coeffs.items()] == [
        ((1, 1), [(3, 3.0), (0, 0.0), (1, -0.0), (2, 4.0)]),
        ((0, 0), [(0, 0.0)]),
    ]


def test_inf_floor_is_where_a_float_conversion_overflows():
    assert series_module._INF_FLOOR == INF_FLOOR
    assert float(INF_FLOOR - 1) == 2.0**1023 * (2 - 2.0**-52)
    with pytest.raises(OverflowError):
        float(INF_FLOOR)


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
    with pytest.raises(DimensionMismatchError) as err:
        fueter.basis_combination(f.operand(), [[0.1, 0.2]])
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

    (residuals,) = fueter.dirac_residuals(evaluate, [x], h=1e-5)
    assert residuals == [dirac_residual(f, [x], h=1e-5), dirac_residual(corrupted, [x], h=1e-5)]
    assert residuals[0] < 1e-6 < residuals[1]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dirac_residual_of_a_series_has_the_bits_of_series_eval(rng, n):
    """A series is the point function ``series_eval``: its residual has the
    bits of the residual assembled from ``CliffordNumber`` values of that
    function (``clifford_residual``), also at points with zero coordinates."""
    f = random_rational_series(n, 4, 50 + n).to_float()
    points = [random_point(n, rng, radius=1.2) for _ in range(4)]
    points += [Paravector(0.0, [0.0] * n), Paravector(0.0, [0.0] * (n - 1) + [0.75])]
    for x in points:
        want = clifford_residual(lambda p: series_eval(f, p), x, 1e-5).norm()
        assert dirac_residual(f, [x]).hex() == want.hex()


def clifford_residual(g, x: Paravector, h: float) -> CliffordNumber:
    """The central-difference Dirac residual of the point function g at x,
    assembled from ``CliffordNumber`` values."""
    acc = CliffordNumber.zero(x.dim)
    for axis in range(x.dim + 1):
        ends = [list(x.components()) for _ in range(2)]
        ends[0][axis] += h
        ends[1][axis] -= h
        plus, minus = (g(Paravector.from_components(c)) for c in ends)
        diff = (plus - minus).scale(1.0 / (2 * h))
        acc = acc + (diff if axis == 0 else cl_mul(CliffordNumber.unit(x.dim, axis), diff))
    return acc


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dirac_residual_does_not_depend_on_its_batch(rng, n):
    """The residual of one function at a point is the norm of the residual
    assembled from ``CliffordNumber`` values bit for bit, and over a point
    set it is the max of the one-point residuals, for sets of 1, 2 and 12
    points: for a series, whose residual is rounding noise, and for a point
    function that is not monogenic, whose residual rows carry every bit."""
    f, h = random_rational_series(n, 4, 60 + n).to_float(), 1e-5
    points = [random_point(n, rng, radius=1.2) for _ in range(12)]
    for g in (f, lambda x: series_eval(f, x).scale(x.x0)):
        point_form = partial(series_eval, f) if g is f else g
        single = [dirac_residual(g, [x], h) for x in points]
        want = [clifford_residual(point_form, x, h).norm() for x in points]
        assert [v.hex() for v in single] == [v.hex() for v in want]
        for size in (1, 2, 12):
            assert dirac_residual(g, points[:size], h).hex() == max(single[:size]).hex()


def test_dirac_residual_rejects_value_of_another_dimension():
    x = Paravector(0.1, [0.2, 0.3])
    for dim in (1, 3):
        with pytest.raises(DimensionMismatchError):
            dirac_residual(lambda p: CliffordNumber.scalar(dim, p.x0), [x])
    with pytest.raises(DimensionMismatchError):
        dirac_residual(MonogenicSeries.basis_element(1, (1,), exact=False), [x])
    # base points of different dimensions in one set
    with pytest.raises(DimensionMismatchError):
        dirac_residual(MonogenicSeries.basis_element(2, (1, 0), exact=False), [x, Paravector(0.1, [0.2])])


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

    monkeypatch.setattr(fueter, "blade_partners", refuse)
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


def test_coeff_upper_bound_adds_in_order():
    """The degree sums are added in order, one by one: 1e16 + 1 + 1 rounds
    to 1e16 twice, where a compensated sum (the builtin sum() from Python
    3.12 on) gives 1e16 + 2."""
    f = MonogenicSeries(1, 2, {(q,): CliffordNumber.scalar(1, v) for q, v in enumerate([1e16, 1.0, 1.0])})
    assert f.coeff_upper_bound(1.0) == 1e16


def test_norms_of_an_exact_coefficient_beyond_the_float_range_are_inf():
    big = CliffordNumber.scalar(2, 10**400)
    f = MonogenicSeries(2, 1, {(1, 0): big, (0, 0): CliffordNumber.scalar(2, 3)})
    assert f.degree_norms() == {1: math.inf, 0: 3.0}
    assert f.coeff_upper_bound(2.0) == math.inf
    # at r = 0 only the constant's term counts: no inf * 0 = nan
    assert f.coeff_upper_bound(0.0) == 3.0
    assert max_modulus(f, 0.0) == (3.0, 3.0)
    assert max_modulus(MonogenicSeries(2, 0, {(0, 0): big}), 0.0) == (math.inf, math.inf)
    # the sampled side needs the float copy, which does not exist
    with pytest.raises(ValueError, match="does not fit in a float"):
        max_modulus(f, 1.0)
    g = MonogenicSeries(1, 200, {(200,): CliffordNumber.scalar(1, 1)})
    assert series_derivative(g, (180,)).degree_norms() == {20: math.inf}


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


def fraction_brute_force_ck(f, g, q_out):
    """The double loop of ``brute_force_ck`` on the values as they are, one
    ``cl_mul`` per index pair in the values' own arithmetic: the reference
    for its integer-numerator form."""
    out = {}
    for m, a in f.coeffs.items():
        for k, b in g.coeffs.items():
            p = mi_add(m, k)
            if mi_abs(p) > q_out:
                continue
            out[p] = out.get(p, CliffordNumber.zero(f.n)) + cl_mul(a, b)
    return MonogenicSeries(f.n, q_out, {m: v for m, v in out.items() if not v.is_zero()})


@st.composite
def oracle_case(draw):
    """Two series for ``brute_force_ck``: exact ones as in ``exact_ck_case``
    (mixed denominators, cancelling pairs, empty sides), int-only ones, their
    float copies, or exact ones with some coefficients made float."""
    kind = draw(st.sampled_from(["exact", "int", "float", "mixed"]))
    if kind == "int":
        n, degree = draw(st.integers(1, 4)), draw(st.integers(0, 4))
        ints = st.integers(-9, 9)
        return draw(exact_series(n, degree, value=ints)), draw(exact_series(n, degree, value=ints))
    f, g = draw(exact_ck_case())
    if kind == "float":
        return f.to_float(), g.to_float()
    if kind == "mixed":
        f, g = (
            MonogenicSeries(
                h.n, h.degree, {m: a.to_float() if draw(st.booleans()) else a for m, a in h.coeffs.items()}
            )
            for h in (f, g)
        )
    return f, g


@settings(max_examples=150, deadline=None)
@given(oracle_case())
@example(_ZERO_DIVISORS)
@example((MonogenicSeries(2, 3), random_rational_series(2, 3, 4)))
@example((random_rational_series(2, 3, 4).to_float(), random_rational_series(2, 3, 5)))
def test_integer_oracle_matches_fraction_double_loop(case):
    """``brute_force_ck`` on integer numerators against the double loop in
    the values' own arithmetic: equal values, the same index order and the
    same declared degree; int inputs give ints, a float makes it float."""
    f, g = case
    for q_out in range(2 * f.degree + 1):
        got, want = brute_force_ck(f, g, q_out), fraction_brute_force_ck(f, g, q_out)
        assert got.degree == want.degree == q_out
        assert list(got.coeffs) == list(want.coeffs)
        assert got.coeffs == want.coeffs
        assert got.is_exact() == want.is_exact()
        if all(type(v) is int for h in case for a in h.coeffs.values() for v in a.coeffs.values()):
            assert all(type(v) is int for a in got.coeffs.values() for v in a.coeffs.values())


def test_integer_oracle_does_no_fraction_arithmetic(monkeypatch):
    """Exact values enter the pair loop as int numerators: no Fraction is
    added, subtracted, negated or multiplied; Fractions are only built."""
    f, g = random_rational_series(3, 4, 0), random_rational_series(3, 4, 1)
    want = fraction_brute_force_ck(f, g, 8)
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__"):
        op = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name, lambda *args, op=op, name=name: calls.append(name) or op(*args))
    got = brute_force_ck(f, g, 8)
    monkeypatch.undo()
    assert calls == []
    assert got == want and not got.is_zero()


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


# ---------------------------------------------------------------------------
# The kernel's bookkeeping against plain-loop references
# ---------------------------------------------------------------------------


def reference_slots(n, a_start, a_index, b_start, b_index, pairs, groups, q_out):
    """The triple listing of ``series._slots`` as a loop over every pair row
    (group, i, j), a-row and b-row: the reference for its array form.  Each
    result (group, p = m + k) is numbered when it first appears."""
    number, heads, ia, ib, slot = {}, [], [], [], []
    for g, i, j in pairs:
        assert 0 <= g < groups
        for a in range(a_start[i], a_start[i + 1]):
            for b in range(b_start[j], b_start[j + 1]):
                if mi_abs(a_index[a]) + mi_abs(b_index[b]) <= q_out:
                    p = mi_add(a_index[a], b_index[b])
                    if (g, p) not in number:
                        number[g, p] = len(heads)
                        heads.append((g, p))
                    ia.append(a)
                    ib.append(b)
                    slot.append(number[g, p])
    return ia, ib, slot, heads


@st.composite
def slots_case(draw):
    """Inputs of ``_slots``: index tables per side (some empty), pair rows
    of up to 40 groups in any order (repeats allowed), index entries small
    or beyond 2^63, and a truncation below, inside or far above the
    degrees."""
    n = draw(st.integers(1, 3))
    entry = st.one_of(st.integers(0, 3), st.integers(2**62, 2**64))
    index = st.tuples(*[entry] * n)
    sides = []
    for _ in range(2):
        tables = draw(st.lists(st.lists(index, max_size=4, unique=True), min_size=1, max_size=3))
        starts = [0]
        for table in tables:
            starts.append(starts[-1] + len(table))
        sides.append((starts, [m for table in tables for m in table]))
    groups = draw(st.integers(0, draw(st.sampled_from([3, 40]))))
    row = st.tuples(
        st.integers(0, groups - 1), st.integers(0, len(sides[0][0]) - 2), st.integers(0, len(sides[1][0]) - 2)
    )
    pairs = draw(st.lists(row, max_size=4 * groups)) if groups else []
    q_out = draw(st.one_of(st.integers(-1, 8), st.integers(2**62, 2**66), st.just(10**30)))
    return n, sides[0][0], sides[0][1], sides[1][0], sides[1][1], pairs, groups, q_out


@settings(max_examples=300, deadline=None)
@given(slots_case())
@example((1, [0, 0], [], [0, 1], [(2,)], [(0, 0, 0)], 1, 5))  # an empty side
@example((2, [0, 2], [(0, 1), (1, 0)], [0, 1], [(1, 1)], [(0, 0, 0), (0, 0, 0)], 1, 1))  # below every pair
@example((2, [0, 2], [(0, 1), (1, 0)], [0, 2], [(1, 1), (0, 2)], [(0, 0, 0), (1, 0, 0), (0, 0, 0)], 2, 4))
@example((3, [0, 1], [(2**20, 0, 5)], [0, 1], [(3, 2**20, 1)], [(g, 0, 0) for g in range(40)], 40, 2**22))  # keys near 2^63
def test_slots_match_the_loop_listing(case):
    """``_slots`` gives the reference's a-rows, b-rows, slots and heads
    exactly, in the same order, whether its keys are int64 or Python ints;
    the pair rows come as a list or as one array."""
    want = reference_slots(*case)
    for pairs in (case[5], np.array(case[5], np.intp).reshape(-1, 3)):
        ia, ib, slot, heads = series_module._slots(*case[:5], pairs, *case[6:])
        assert (ia.tolist(), ib.tolist(), slot.tolist(), heads) == want
        assert all(type(e) is int for _, p in heads for e in p)


def test_truncated_slots_list_only_the_kept_triples():
    """A product truncated far below its inputs lists only the triples it
    keeps: two shuffled degree-20 tables at n = 3 are 1,771 x 1,771 pairs of
    rows, 3.1M triples before the cap, a few hundred after it.  The listing
    is the loop listing of the rows of degree <= q_out, mapped back to their
    places, and the traced memory stays far below that of the 3.1M triples
    (25 MB per int64 array)."""
    n, q_out = 3, 4
    rng = random.Random(11)
    a_index, b_index = enumerate_up_to(n, 20), enumerate_up_to(n, 20)
    rng.shuffle(a_index)
    rng.shuffle(b_index)
    tracemalloc.start()
    try:
        got = series_module._slots(n, [0, len(a_index)], a_index, [0, len(b_index)], b_index, [(0, 0, 0)], 1, q_out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    low_a, low_b = ([i for i, m in enumerate(index) if mi_abs(m) <= q_out] for index in (a_index, b_index))
    ia, ib, slot, heads = reference_slots(
        n, [0, len(low_a)], [a_index[i] for i in low_a], [0, len(low_b)], [b_index[i] for i in low_b],
        [(0, 0, 0)], 1, q_out,
    )
    assert got[0].tolist() == [low_a[i] for i in ia]
    assert got[1].tolist() == [low_b[i] for i in ib]
    assert (got[2].tolist(), got[3]) == (slot, heads)
    assert 0 < len(ia) < 1000
    assert peak < 4 << 20


def reference_float_sums(n, left, right, pairs, groups, q_out):
    """The float kernel as the per-blade loop that the array contraction
    replaced: each triple's product summed over the live left blades in mask
    order onto +0.0, then added to its result in triple order; a blade that
    a value does not have adds nothing, even against inf or NaN."""
    starts, index, rows = [], [], []
    for side in (left, right):
        bounds = [0]
        for table in side:
            index.extend(table)
            rows.extend(table.values())
            bounds.append(bounds[-1] + len(table))
        starts.append(bounds)
    a_index, b_index = index[: starts[0][-1]], index[starts[0][-1] :]
    a_rows, b_rows = rows[: starts[0][-1]], rows[starts[0][-1] :]
    ia, ib, slot, heads = reference_slots(n, starts[0], a_index, starts[1], b_index, pairs, groups, q_out)
    signs = [[blade_product(a, b, n)[0] for b in range(1 << n)] for a in range(1 << n)]
    live = sorted({mask for table in left for c in table.values() for mask in c.coeffs})
    sums = [[0.0] * (1 << n) for _ in heads]
    for a_row, b_row, s in zip(ia, ib, slot):
        av, bv = a_rows[a_row].coeffs, b_rows[b_row].coeffs
        prod = [0.0] * (1 << n)
        for a in live:
            for c in range(1 << n):
                x, y = bv.get(a ^ c, 0.0), av.get(a, 0.0)
                prod[c] += 0.0 if x == 0 or y == 0 else x * signs[a][a ^ c] * y
        sums[s] = [u + v for u, v in zip(sums[s], prod)]
    out = [{} for _ in range(groups)]
    for (g, p), row in zip(heads, sums):
        if any(row):
            out[g][p] = {mask: v for mask, v in enumerate(row) if v}
    return out


def _float_tables(r, n, count, bad):
    """``count`` tables of random float values from 1e-8 to 1e8 (so that the
    order of a sum shows in its bits), a few of them inf or NaN."""
    tables = []
    for _ in range(count):
        table = {}
        for m in enumerate_up_to(n, 2):
            if r.random() < 0.6:
                blades = r.sample(range(1 << n), r.randint(1, 1 << n))
                value = {k: r.choice([-1, 1]) * 10 ** r.uniform(-8, 8) for k in blades}
                if r.random() < bad:
                    value[blades[0]] = r.choice([math.inf, -math.inf, math.nan])
                table[m] = CliffordNumber(n, value)
        tables.append(table)
    return tables


@pytest.mark.parametrize("seed", range(24))
def test_float_sums_keep_the_per_blade_bits(seed):
    """Float ``ck_sums`` equals the per-blade loop bit for bit at n = 1..4
    (up to 16 live blades, past the 8 where numpy's pairwise summation
    would start), with and without non-finite values."""
    r = random.Random(seed)
    n = 1 + seed % 4
    left, right = _float_tables(r, n, 3, seed % 3 == 0 and 0.2), _float_tables(r, n, 2, 0.0)
    pairs = [(r.randrange(4), r.randrange(3), r.randrange(2)) for _ in range(r.randint(0, 12))]
    q_out = r.randint(0, 4)
    got = series_module.ck_sums(n, left, right, pairs, 4, q_out)
    want = reference_float_sums(n, left, right, pairs, 4, q_out)
    assert [list(t) for t in got] == [list(t) for t in want]
    for g_table, w_table in zip(got, want):
        for p, value in g_table.items():
            assert {k: v.hex() for k, v in value.coeffs.items()} == {k: v.hex() for k, v in w_table[p].items()}


def test_series_refusals_are_one_line():
    """A dimension below 1, a negative degree, a coefficient of another
    dimension and a sum of series of different dimensions each raise one
    line."""
    one = CliffordNumber.scalar(3, Fraction(1))
    assert_refused(lambda: MonogenicSeries(0, 1), ValueError, "dimension must be >= 1, got 0")
    assert_refused(lambda: MonogenicSeries(2, -1), ValueError, "degree must be >= 0, got -1")
    assert_refused(
        lambda: MonogenicSeries(2, 1, {(1, 0): one}),
        DimensionMismatchError,
        "coefficient at (1, 0) lives in dimension 3, series in 2",
    )
    assert_refused(
        lambda: MonogenicSeries.unit(2) + MonogenicSeries.unit(3),
        DimensionMismatchError,
        "adding series of different dimension",
    )
