import math
from fractions import Fraction

import pytest

from monogenic.multiindex import (
    MultiIndex,
    enumerate_degree,
    enumerate_up_to,
    ln_c_nm,
    mi_abs,
    mi_factorial,
)

from conftest import assert_refused


def mi_leq(p: MultiIndex, m: MultiIndex) -> bool:
    """Componentwise partial order p <= m."""
    return all(a <= b for a, b in zip(p, m))


def rising_factorial(base: int, count: int) -> int:
    out = 1
    for k in range(count):
        out *= base + k
    return out


def c_nm(n: int, m: MultiIndex) -> Fraction:
    """Exact Cauchy constant: the rising factorial n(n+1)...(n+|m|-1) over m!,
    the oracle for ``ln_c_nm``; c(n, 0) = 1."""
    return Fraction(rising_factorial(n, mi_abs(m)), mi_factorial(m))


def stars_and_bars(n: int, q: int) -> int:
    return math.comb(q + n - 1, n - 1)


def test_enumerate_degree_basics():
    assert enumerate_degree(2, 0) == ((0, 0),)
    assert enumerate_degree(2, 2) == ((0, 2), (1, 1), (2, 0))
    assert enumerate_degree(3, 1) == ((0, 0, 1), (0, 1, 0), (1, 0, 0))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumerate_degree_cardinality(n):
    for q in range(0, 31):
        got = enumerate_degree(n, q)
        assert len(got) == stars_and_bars(n, q)
        assert list(got) == sorted(got)
        assert all(mi_abs(m) == q and len(m) == n for m in got)


def test_enumerate_degree_has_no_depth_limit():
    """The listing is not recursive: a dimension far above the recursion
    limit lists its indices like any other."""
    n = 5000
    got = enumerate_degree(n, 1)
    assert len(got) == n and got == tuple(sorted(got))
    assert got[0] == (0,) * (n - 1) + (1,) and got[-1] == (1,) + (0,) * (n - 1)


def test_enumerate_up_to():
    idx = enumerate_up_to(2, 3)
    assert len(idx) == sum(stars_and_bars(2, q) for q in range(4))
    assert idx[0] == (0, 0)


@pytest.mark.parametrize(
    "n, m, expected",
    [
        (2, (0, 0), Fraction(1)),
        (2, (1, 1), Fraction(6)),  # 2*3 / (1*1)
        (3, (2, 0, 0), Fraction(6)),  # 3*4 / 2
        (1, (5,), Fraction(1)),
    ],
)
def test_c_nm_values(n, m, expected):
    assert c_nm(n, m) == expected


def test_c_nm_times_factorial_is_integer():
    for n in (1, 2, 3):
        for q in range(8):
            for m in enumerate_degree(n, q):
                value = c_nm(n, m) * mi_factorial(m)
                assert value.denominator == 1
                assert value == rising_factorial(n, q)


def test_ln_c_nm_matches_exact():
    for n in (2, 3):
        for m in [(4, 1), (0, 7), (2, 2)][: n + 1]:
            m = m + (0,) * (n - len(m))
            assert math.isclose(ln_c_nm(n, m), math.log(c_nm(n, m)), rel_tol=1e-12)


def degree_sum_c(n: int, q: int) -> Fraction:
    """Sum of c(n, m) over all |m| = q."""
    return sum((c_nm(n, m) for m in enumerate_degree(n, q)), Fraction(0))


def c_upper_root(n: int, q_max: int) -> float:
    """max of c(n, m)^(1/|m|) over 1 <= |m| <= q_max, and at least n."""
    best = float(n)
    for q in range(1, q_max + 1):
        for m in enumerate_degree(n, q):
            best = max(best, math.exp(ln_c_nm(n, m) / q))
    return best


def test_degree_sum_closed_form():
    # independent identity: the numerator depends only on |m|, so the sum is
    # binom(n+q-1, q) * n^q
    for n in (1, 2, 3):
        for q in range(0, 41, 5):
            assert degree_sum_c(n, q) == Fraction(math.comb(n + q - 1, q) * n**q)


def test_degree_sum_root_tends_to_n_from_above():
    # the q-th roots decrease towards n (they never drop below n)
    for n in (1, 2, 3):
        prev = math.inf
        for q in range(1, 61):
            root = float(degree_sum_c(n, q)) ** (1.0 / q) if n < 3 else math.exp(
                (math.log(math.comb(n + q - 1, q)) + q * math.log(n)) / q
            )
            assert n - 1e-9 <= root <= prev + 1e-9
            prev = root


def test_degree_sum_example_value():
    # n=2, q=40: 41 * 2^40, so the 40th root is 2 * 41^(1/40) ~ 2.1946
    v = degree_sum_c(2, 40)
    assert v == 41 * 2**40
    assert float(v) ** (1 / 40) == pytest.approx(2.19459, abs=1e-4)


def test_c_upper_root():
    # the envelope constant for c(n,m)^(1/|m|); the max sits at m=(1,1)
    assert c_upper_root(2, 12) == pytest.approx(math.sqrt(6.0), rel=1e-12)
    assert c_upper_root(1, 12) == 1.0


def test_partial_order():
    assert mi_leq((1, 0), (2, 3))
    assert not mi_leq((1, 4), (2, 3))


def test_enumerate_degree_refuses_a_dimension_below_one():
    for n in (0, -1):
        assert_refused(lambda: enumerate_degree(n, 2), ValueError, f"n must be >= 1, got {n}")
