import math
import random
from fractions import Fraction
from functools import reduce
from itertools import permutations
from operator import add

import numpy as np
import pytest

from monogenic import fueter
from monogenic.clifford import CliffordNumber, Paravector, blade_product, cl_mul
from monogenic.fueter import (
    FueterCache,
    basis_values,
    blade_rows,
    dirac_residuals,
    fueter_derivative_rule,
    fueter_eval,
    fueter_sup_unit_ball,
    fueter_var,
    ordered_words,
)
from monogenic.multiindex import enumerate_up_to, mi_abs
from monogenic.sampling import sphere_directions
from monogenic.series import MonogenicSeries, dirac_residual, max_modulus
from monogenic.verify import random_rational_series

from conftest import assert_refused, random_point


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
    assert fueter_eval((0, 0), x) == CliffordNumber.scalar(2, Fraction(1))
    v = fueter_eval((1, 0), x)
    assert v == CliffordNumber(2, {0: Fraction(2), 0b01: Fraction(-1, 3)})
    # the mixed element at the time axis vanishes: (e1 e2 + e2 e1)/2 = 0
    e0 = Paravector(Fraction(1), [Fraction(0), Fraction(0)])
    assert fueter_eval((1, 1), e0).is_zero()


@pytest.mark.parametrize("n", range(1, 8))
def test_blade_partners_is_the_table_of_blade_product(n):
    """The array-built sign table equals blade_product entry for entry."""
    partner, sign = fueter.blade_partners(n)
    assert partner.shape == sign.shape == (1 << n, 1 << n)
    assert not (partner.flags.writeable or sign.flags.writeable)
    want = [[blade_product(a, a ^ c, n) for c in range(1 << n)] for a in range(1 << n)]
    assert sign.tolist() == [[s for s, _ in row] for row in want]
    assert [[c for _, c in row] for row in want] == [list(range(1 << n))] * (1 << n)
    assert partner.tolist() == [[a ^ c for c in range(1 << n)] for a in range(1 << n)]


def test_cache_arithmetic_follows_the_point():
    """A float point gives floats everywhere, V_0 included; an exact point,
    ints among its components, gives Fractions."""
    points = [(Paravector(0.1, [0.2, 0.3]), float), (Paravector(0, [2, Fraction(-1, 2)]), Fraction)]
    for x, kind in points:
        cache = FueterCache(x)
        for m in enumerate_up_to(2, 3):
            assert {type(v) for v in cache.value(m).coeffs.values()} <= {kind}, (x, m)
        assert type(cache.value((0, 0))[0]) is kind


def test_symmetrization_oracle_exact():
    """The recursion equals the definition, the average of the distinct
    orderings of the word z_1^m_1 ... z_n^m_n taken with ``cl_mul``, exactly
    at an exact point: n = 1..4 with |m| <= 4 and n = 5 with |m| <= 3.  The
    average is paravector-valued: the cache keeps the blades 1, e_1, ...,
    e_n only, and at an exact point that drops nothing.  At a float point,
    the blades that the cache drops from its step (m_i V_(m - e_i) z_i
    summed, times 1/|m|) are rounding residue, at most 1e-12 of the value's
    norm, and it keeps the others as they are."""
    for n, top in [(1, 4), (2, 4), (3, 4), (4, 4), (5, 3)]:
        draw = random.Random(n)
        x = Paravector(Fraction(-2, 3), [Fraction(draw.randint(-6, 6), draw.randint(1, 5)) for _ in range(n)])
        xf = Paravector.from_components(map(float, x.components()))
        exact, floats = FueterCache(x), FueterCache(xf)
        one, zero = CliffordNumber.scalar(n, Fraction(1)), CliffordNumber.zero(n)
        for m in enumerate_up_to(n, top)[1:]:
            words = set(permutations([i + 1 for i, k in enumerate(m) for _ in range(k)]))
            total = reduce(add, (reduce(cl_mul, (fueter_var(i, x) for i in w), one) for w in words), zero)
            assert exact.value(m) == total.scale(Fraction(1, len(words))), m
            lower = lambda i: tuple(v - (j == i) for j, v in enumerate(m))
            terms = (cl_mul(floats.value(lower(i)), fueter_var(i + 1, xf)).scale(m[i]) for i in range(n) if m[i])
            step = reduce(add, terms).scale(1.0 / mi_abs(m))
            kept = {mask: v for mask, v in step.coeffs.items() if mask & (mask - 1) == 0}
            assert floats.value(m).coeffs == kept, m
            dropped = CliffordNumber(n, {mask: v for mask, v in step.coeffs.items() if mask not in kept})
            assert dropped.norm() <= 1e-12 * step.norm(), m


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
        assert left_recursion(m, memo) == fueter_eval(m, x)


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


def test_derivative_rule_refuses_an_axis_out_of_range():
    for axis in (0, 3):
        assert_refused(lambda: fueter_derivative_rule((1, 2), axis), ValueError, f"axis {axis} out of range 1..2")


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


def ordered_word_oracle(m, x):
    """The point form of ``ordered_words``: z_1^m_1 ... z_n^m_n as ``cl_mul``
    products taken factor by factor from the left."""
    out = CliffordNumber.scalar(x.dim, 1.0)
    for i, mi in enumerate(m):
        z = fueter_var(i + 1, x)
        for _ in range(mi):
            out = cl_mul(out, z)
    return out


def test_ordered_words_equal_the_point_form(rng):
    """The batched words equal the cl_mul products at random points, the
    origin and points with zero coordinates: every nonzero blade bit for bit
    (a zero blade may differ in sign)."""
    for n in range(1, 5):
        points = [random_point(n, rng, radius=1.5) for _ in range(10)]
        points += [Paravector(0.0, [0.0] * n), Paravector(0.0, [1.25] + [0.0] * (n - 1))]
        points += [Paravector(-0.75, [0.0] * (n - 1) + [0.5]), Paravector(0.5, [0.0] * n)]
        indices = enumerate_up_to(n, 5)
        values = ordered_words([x.components() for x in points], 5)
        assert values.shape == (len(points), len(indices), 1 << n)
        for x, table in zip(points, values):
            expected = blade_rows(n, [ordered_word_oracle(m, x) for m in indices])
            assert (table == expected).all(), (n, x)


def test_ordered_words_are_not_monogenic(rng):
    points = [random_point(2, rng, radius=1.0) for _ in range(5)]
    row = enumerate_up_to(2, 2).index((1, 1))
    residuals = np.array(dirac_residuals(lambda pts: ordered_words(pts, 2), points, h=1e-5))
    assert residuals[:, row].max() > 1e-2
    # the pure powers z_i^k are monogenic: only the mixed word fails
    for m in [(1, 0), (0, 2)]:
        row = enumerate_up_to(2, 2).index(m)
        assert residuals[:, row].max() <= 1e-6


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_dirac_residuals_are_the_clifford_norm_of_each_row(n):
    """Each residual equals ``CliffordNumber.norm`` of its row bit for bit,
    whether all rows share one call or each row is the only one (K = 1):
    rows of wide magnitudes (the order of the sum shows in its last bit),
    rows whose squares underflow or overflow (the hypot path), rows with a
    NaN or an inf, and a zero row.  Only the value at x + h e_0 is nonzero
    and h = 1/2, so each residual row is that value's row exactly."""
    r = np.random.default_rng(n)
    size = 1 << n
    rows = [r.standard_normal(size) * 10.0 ** r.uniform(-8, 8, size) for _ in range(16)]
    rows += [
        np.zeros(size),
        np.full(size, 3e-170),
        np.full(size, -2e160),
        np.where(np.arange(size) == size - 1, np.nan, 1.5),
        np.where(np.arange(size) == 0, np.inf, 1e-300),
        np.where(np.arange(size) == 0, -np.inf, np.nan),
    ]

    def residuals(rows):
        values = np.zeros((2 * n + 2, len(rows), size))
        values[0] = rows
        (got,) = dirac_residuals(lambda pts: values, [Paravector(0.25, [0.5] * n)], h=0.5)
        assert all(type(v) is float for v in got)
        return [v.hex() for v in got]

    want = [CliffordNumber(n, dict(enumerate(row))).norm().hex() for row in np.array(rows).tolist()]
    assert residuals(rows) == want
    assert [residuals([row]) for row in rows] == [[v] for v in want]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sampled_moduli_are_the_clifford_norm_of_each_row(monkeypatch, n):
    """Every sampled sup is the largest ``CliffordNumber.norm`` of the rows
    evaluated at its radius, bit for bit.  Each row is checked alone by
    making it the degree sum of every direction of a call: the values of a
    series whose coefficients span 16 decades (the order of a sum shows in
    its last bit), such rows scaled until every square underflows or
    overflows (the hypot path), rows with a NaN or an inf, and a zero row.
    At n=1 the pairwise and the ordered sums of two squares agree."""
    r = np.random.default_rng(n)
    size = 1 << n
    wide = lambda: r.standard_normal(size) * 10.0 ** r.uniform(-8, 8, size)
    f = MonogenicSeries(n, 3, {m: CliffordNumber(n, dict(enumerate(wide().tolist()))) for m in enumerate_up_to(n, 3)})
    rows = np.concatenate([
        fueter.basis_combination(f.operand(), r.standard_normal((48, n + 1)) * 2.0),
        [wide() * 1e-180 for _ in range(8)] + [wide() * 1e170 for _ in range(8)],
        [np.zeros(size), np.full(size, 3e-170), np.full(size, -2e160)],
        [np.where(np.arange(size) == size - 1, np.nan, 1.5)],
        [np.where(np.arange(size) == 0, np.inf, 1e-300)],
        [np.where(np.arange(size) == 0, -np.inf, np.nan)],
    ])
    norm = lambda row: CliffordNumber(n, dict(enumerate(row))).norm()
    kernel = fueter._degree_sums
    got = []
    for row in rows:
        monkeypatch.setattr(fueter, "_degree_sums", lambda *_: iter([np.tile(row, (1, 8, 1))]))
        got += fueter.sampled_sups(f.operand(), [1.0], 8)
    assert [v.hex() for v in got] == [norm(row).hex() for row in rows.tolist()]
    # a sampled lower side is the largest of those norms over its own rows,
    # the degree sums taken by Horner's rule in r, highest degree first
    seen = []
    monkeypatch.setattr(fueter, "_degree_sums", lambda *args: (seen.append(s) or s for s in kernel(*args)))
    lower, _ = max_modulus(f, 1.5, samples=64)
    horner = [reduce(lambda acc, s: acc * 1.5 + s, sums[::-1], 0.0) for sums in seen]
    assert seen and lower == max(norm(row) for block in horner for row in block.tolist())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sampled_sups_match_the_scaled_directions(n):
    """Horner's rule in r on the unit directions' degree sums gives the max
    modulus of the values at the directions scaled to each radius, to 1e-12
    of the coefficient bound, over more directions than one block holds at
    n = 3, 4."""
    f = random_rational_series(n, 5, 40 + n).to_float()
    dirs = sphere_directions(n + 1, 64, seed=2)
    radii = [0.3, 1.0, math.e, 7.3]
    for r, sup in zip(radii, fueter.sampled_sups(f.operand(), radii, 64, seed=2)):
        direct = fueter.row_norms(fueter.basis_combination(f.operand(), r * dirs)).max()
        assert abs(sup - direct) <= 1e-12 * f.coeff_upper_bound(r)


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
        v = fueter_eval(m, x)
        w = fueter_eval((m[1], m[0]), x_swapped)
        assert w[0b00] == v[0b00]
        assert w[0b01] == v[0b10]
        assert w[0b10] == v[0b01]
        assert w[0b11] == -v[0b11]


def test_basis_values_equal_float_fueter_cache(rng):
    """The batched kernel gives every basis value bit for bit as the float
    FueterCache does, the origin and points with zero coordinates included,
    up to degree 8 (degree 4 at n = 5) and, there, in a batch of more points
    than one block of ``basis_combination`` holds.  A blade outside the
    paravector set is exactly 0.0."""
    for n in range(1, 6):
        degrees = (0, 1, 3, 4) if n == 5 else (0, 1, 3, 6, 8)
        points = [random_point(n, rng, radius=1.5) for _ in range(3)]
        points += [Paravector(0.0, [0.0] * n), Paravector(0.0, [1.25] + [0.0] * (n - 1))]
        points.append(Paravector(-0.75, [0.0] * (n - 1) + [0.5]))
        outside = [mask for mask in range(1 << n) if mask & (mask - 1)]
        for degree in degrees:
            if degree == degrees[-1]:
                width = fueter._blade_set(n, False)[1].shape[1]
                block = fueter._BLOCK_FLOATS // (len(enumerate_up_to(n, degree)) * n * width)
                points += [random_point(n, rng, radius=1.5) for _ in range(block + 1)]
            values = basis_values([x.components() for x in points], degree)
            assert values.shape == (len(points), len(enumerate_up_to(n, degree)), 1 << n)
            assert not values[..., outside].any()
            for x, table in zip(points, values):
                cache = FueterCache(x)
                for m, row in zip(enumerate_up_to(n, degree), table):
                    expected = np.zeros(1 << n)
                    for mask, value in cache.value(m).coeffs.items():
                        expected[mask] = value
                    assert (row == expected).all(), (n, m, x)


def full_blade_basis(points, degree):
    """The basis recursion on dense rows of all 2^n blades, (P, #indices,
    2^n), with V e_i read from ``blade_partners``: the kernel as it was
    before it carried the paravector blades only, a reference for where a
    value is not finite."""
    pts = np.asarray(points)
    n = pts.shape[1] - 1
    partner, sign = fueter.blade_partners(n)
    indices = enumerate_up_to(n, degree)
    values = {indices[0]: np.zeros((len(pts), 1 << n))}
    values[indices[0]][:, 0] = 1.0
    for m in indices[1:]:
        acc = np.zeros((len(pts), 1 << n))
        for i in np.flatnonzero(m):
            v, flip = values[tuple(k - (j == i) for j, k in enumerate(m))], partner[1 << i]
            acc += m[i] * (v * pts[:, i + 1, None] - v[:, flip] * (sign[flip, flip ^ (1 << i)] * pts[:, :1]))
        values[m] = acc * (1.0 / mi_abs(m))
    return np.stack([values[m] for m in indices], axis=1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_basis_values_at_non_finite_points(n):
    """At 300 points whose components are drawn from 0, -0, +-inf, NaN,
    +-1e200, 1e-300 and two plain values, a paravector blade of the kernel
    is non-finite exactly where the full-blade recursion's is, and
    ``basis_combination`` leaks no numpy warning."""
    draw = np.random.default_rng(n)
    values = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e200, -1e200, 1e-300, 0.75, -1.5])
    points = values[draw.integers(0, len(values), (300, n + 1))]
    paravector = [0] + [1 << i for i in range(n)]
    with np.errstate(all="ignore"):
        got, want = basis_values(points, 4), full_blade_basis(points, 4)
    assert (np.isfinite(got[..., paravector]) == np.isfinite(want[..., paravector])).all()
    assert not np.isfinite(want[..., paravector]).all()
    f = random_rational_series(n, 4, 11).to_float()
    assert fueter.basis_combination(f.operand(), points).shape == (300, 1 << n)
