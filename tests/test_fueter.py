from fractions import Fraction

import numpy as np
import pytest

from monogenic.clifford import CliffordNumber, Paravector, cl_mul
from monogenic.fueter import (
    FueterCache,
    basis_values,
    fueter_derivative_rule,
    fueter_eval,
    fueter_sup_unit_ball,
    fueter_var,
    ordered_word_eval,
)
from monogenic.multiindex import enumerate_up_to, mi_abs
from monogenic.series import MonogenicSeries, dirac_residual

from conftest import random_point


def test_fueter_var_values():
    zero = Paravector.zero(2)
    assert fueter_var(1, zero).is_zero() or all(
        v == 0 for v in fueter_var(1, zero).coeffs.values()
    )
    x = Paravector(0, [1, 0])
    assert fueter_var(1, x) == CliffordNumber(2, {0: 1})
    e0 = Paravector(1, [0, 0])
    assert fueter_var(2, e0) == CliffordNumber(2, {0b10: -1})
    with pytest.raises(ValueError):
        fueter_var(3, x)


def test_low_degree_closed_forms():
    x = Paravector(Fraction(1, 3), [Fraction(2), Fraction(-1, 2)])
    assert fueter_eval((0, 0), x, exact=True) == CliffordNumber.scalar(2, Fraction(1))
    v = fueter_eval((1, 0), x, exact=True)
    assert v == CliffordNumber(2, {0: Fraction(2), 0b01: Fraction(-1, 3)})
    # the mixed element at the time axis vanishes: (e1 e2 + e2 e1)/2 = 0
    e0 = Paravector(Fraction(1), [Fraction(0), Fraction(0)])
    assert fueter_eval((1, 1), e0, exact=True).is_zero()


def test_symmetrization_oracle_exact():
    """Recursion equals the explicit permutation-sum definition."""
    from itertools import permutations

    x = Paravector(Fraction(1, 2), [Fraction(1, 3), Fraction(-2)])
    zs = [fueter_var(i, x) for i in (1, 2)]
    for m in [(2, 0), (1, 1), (2, 1), (1, 2), (3, 1)]:
        letters = [0] * m[0] + [1] * m[1]
        total = CliffordNumber.zero(2)
        count = 0
        for word in permutations(letters):
            term = CliffordNumber.scalar(2, Fraction(1))
            for letter in word:
                term = cl_mul(term, zs[letter])
            total = total + term
            count += 1
        expected = total.scale(Fraction(1, count))
        assert fueter_eval(m, x, exact=True) == expected


def test_left_and_right_recursions_agree():
    """Appending z on the left instead of the right regroups the same
    permutation sum, so both recursions produce identical values."""
    x = Paravector(Fraction(2, 3), [Fraction(-1), Fraction(1, 2)])

    def left_recursion(m, memo):
        if m in memo:
            return memo[m]
        q = mi_abs(m)
        acc = CliffordNumber.zero(2)
        for i, mi in enumerate(m):
            if mi:
                prev = left_recursion(
                    tuple(v - 1 if j == i else v for j, v in enumerate(m)), memo
                )
                acc = acc + cl_mul(fueter_var(i + 1, x), prev).scale(mi)
        out = acc.scale(Fraction(1, q))
        memo[m] = out
        return out

    memo = {(0, 0): CliffordNumber.scalar(2, Fraction(1))}
    for m in enumerate_up_to(2, 5):
        assert left_recursion(m, memo) == fueter_eval(m, x, exact=True)


@pytest.mark.parametrize(
    "m, axis, expected",
    [
        ((2, 0), 1, (2, (1, 0))),
        ((0, 1), 1, (0, None)),
        ((1, 1), 2, (1, (1, 0))),
    ],
)
def test_derivative_rule(m, axis, expected):
    assert fueter_derivative_rule(m, axis) == expected


def test_derivative_rule_against_finite_differences(rng):
    h = 1e-5
    for m in [(2, 0), (1, 1), (2, 1), (0, 3)]:
        for _ in range(3):
            x = random_point(2, rng)
            for axis in (1, 2):
                comps = list(x.components())
                plus, minus = list(comps), list(comps)
                plus[axis] += h
                minus[axis] -= h
                approx = (
                    fueter_eval(m, Paravector.from_components(plus))
                    - fueter_eval(m, Paravector.from_components(minus))
                ).scale(1.0 / (2 * h))
                factor, lowered = fueter_derivative_rule(m, axis)
                exact = (
                    fueter_eval(lowered, x).scale(float(factor))
                    if lowered is not None
                    else CliffordNumber.zero(2)
                )
                assert (approx - exact).norm() <= 1e-7 * (1.0 + exact.norm())


def test_norm_bound_on_samples(rng):
    for m in [(1, 0), (1, 1), (2, 1), (3, 2)]:
        q = mi_abs(m)
        for _ in range(25):
            x = random_point(2, rng, radius=1.5)
            assert fueter_eval(m, x).norm() <= x.norm() ** q * (1 + 1e-12)


def test_sup_unit_ball():
    assert fueter_sup_unit_ball((0, 0), 8) == pytest.approx(1.0)
    # axis-supported indices attain the bound on the first axis
    assert fueter_sup_unit_ball((4, 0), 64) == pytest.approx(1.0, abs=1e-12)
    mixed = fueter_sup_unit_ball((1, 1), 512)
    assert 0.0 < mixed <= 1.0 + 1e-12


def test_monogenicity_residuals(rng):
    points = [random_point(3, rng, radius=1.2) for _ in range(5)]
    for m in [(1, 1, 0), (2, 0, 1), (1, 1, 1)]:
        f = MonogenicSeries.basis_element(3, m, exact=False)
        res = dirac_residual(f, points, h=1e-5)
        bound = 1e-6 * (1.0 + max(p.norm() for p in points) ** mi_abs(m))
        assert res <= bound


def test_ordered_words_are_not_monogenic(rng):
    points = [random_point(2, rng, radius=1.0) for _ in range(5)]
    res = dirac_residual(lambda x: ordered_word_eval((1, 1), x), points, h=1e-5)
    assert res > 1e-2


def test_cache_shares_subterms():
    x = Paravector(0.1, [0.2, 0.3])
    cache = FueterCache(x)
    cache.value((3, 2))
    assert (1, 1) in cache._memo and (2, 2) in cache._memo


def test_axis_relabeling_symmetry():
    """Swapping the two vector axes of both the index and the point relabels
    the value: scalar/e12 parts transform by identity/sign, e1 and e2 swap."""
    x = Paravector(Fraction(1, 3), [Fraction(1, 2), Fraction(-2)])
    x_swapped = Paravector(x.x0, [x.xv[1], x.xv[0]])
    for m in [(2, 1), (1, 3), (2, 2)]:
        v = fueter_eval(m, x, exact=True)
        w = fueter_eval((m[1], m[0]), x_swapped, exact=True)
        assert w[0b00] == v[0b00]
        assert w[0b01] == v[0b10]
        assert w[0b10] == v[0b01]
        assert w[0b11] == -v[0b11]


def test_basis_values_equal_float_fueter_cache(rng):
    """The batched kernel gives every basis value bit for bit as the float
    FueterCache does, the origin and points with zero coordinates included."""
    for n in range(1, 5):
        points = [random_point(n, rng, radius=1.5) for _ in range(3)]
        points += [Paravector(0.0, [0.0] * n), Paravector(0.0, [1.25] + [0.0] * (n - 1))]
        points.append(Paravector(-0.75, [0.0] * (n - 1) + [0.5]))
        for degree in (0, 1, 3, 6):
            values = basis_values([x.components() for x in points], degree)
            assert values.shape == (len(points), len(enumerate_up_to(n, degree)), 1 << n)
            for x, table in zip(points, values):
                cache = FueterCache(x)
                for m, row in zip(enumerate_up_to(n, degree), table):
                    expected = np.zeros(1 << n)
                    for mask, value in cache.value(m).coeffs.items():
                        expected[mask] = value
                    assert (row == expected).all(), (n, m, x)
