import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monogenic.clifford import (
    CliffordNumber,
    Paravector,
    blade_product,
    cl_mul,
)
from monogenic.errors import DimensionMismatchError

from conftest import random_clifford


def rewrite_oracle(a_mask: int, b_mask: int, n: int) -> tuple[int, int]:
    """Term-rewriting reference: concatenate the unit strings, bubble-sort
    with a sign flip per swap, cancel adjacent equal units with a flip."""
    word = [i for i in range(n) if a_mask >> i & 1] + [
        i for i in range(n) if b_mask >> i & 1
    ]
    sign = 1
    changed = True
    while changed:
        changed = False
        i = 0
        while i + 1 < len(word):
            if word[i] == word[i + 1]:
                del word[i : i + 2]
                sign = -sign
                changed = True
            elif word[i] > word[i + 1]:
                word[i], word[i + 1] = word[i + 1], word[i]
                sign = -sign
                changed = True
            else:
                i += 1
    mask = 0
    for i in word:
        mask |= 1 << i
    return sign, mask


@pytest.mark.parametrize(
    "a, b, expected",
    [
        (0b001, 0b001, (-1, 0)),  # a unit squares to -1
        (0b000, 0b010, (1, 0b010)),  # scalar is the identity
        (0b011, 0b010, (-1, 0b001)),  # e12 * e2 = -e1
    ],
)
def test_blade_product_reference_cases(a, b, expected):
    assert blade_product(a, b, 2) == expected
    assert rewrite_oracle(a, b, 2) == expected


def test_blade_product_matches_rewrite_oracle_exhaustively():
    for n in (1, 2, 3):
        for a in range(1 << n):
            for b in range(1 << n):
                assert blade_product(a, b, n) == rewrite_oracle(a, b, n)


def test_blade_product_anticommutes_and_mask_is_xor():
    for i in range(3):
        for j in range(3):
            si, mi = blade_product(1 << i, 1 << j, 3)
            sj, mj = blade_product(1 << j, 1 << i, 3)
            assert mi == mj == (1 << i) ^ (1 << j)
            if i != j:
                assert si == -sj


def test_blade_mask_out_of_range():
    with pytest.raises(DimensionMismatchError):
        blade_product(0b100, 0b001, 2)


def small_cliffords(n):
    coeff = st.integers(-4, 4).map(Fraction)
    return st.dictionaries(st.integers(0, (1 << n) - 1), coeff, max_size=1 << n).map(
        lambda d: CliffordNumber(n, d)
    )


@settings(max_examples=120, deadline=None)
@given(small_cliffords(2), small_cliffords(2), small_cliffords(2))
def test_mul_associative_and_distributive_exact(a, b, c):
    assert cl_mul(cl_mul(a, b), c) == cl_mul(a, cl_mul(b, c))
    assert cl_mul(a, b + c) == cl_mul(a, b) + cl_mul(a, c)


def test_unit_and_dimension_mismatch():
    one = CliffordNumber.scalar(2, Fraction(1))
    b = CliffordNumber(2, {0b10: Fraction(3, 2)})
    assert cl_mul(one, b) == b
    assert cl_mul(b, one) == b
    with pytest.raises(DimensionMismatchError):
        cl_mul(b, CliffordNumber.scalar(3, Fraction(1)))


def test_mul_matches_defining_relations():
    e1 = CliffordNumber.unit(2, 1)
    e2 = CliffordNumber.unit(2, 2)
    assert cl_mul(e1, e2) == CliffordNumber(2, {0b11: 1})
    assert cl_mul(e1, e1) == CliffordNumber.scalar(2, -1)


def test_norm_values():
    assert CliffordNumber.zero(3).norm() == 0.0
    v = CliffordNumber(2, {0b01: 1.0, 0b10: 1.0})
    assert math.isclose(v.norm(), math.sqrt(2.0), rel_tol=1e-15)
    x = Paravector(0.3, [0.4, 1.2])
    assert math.isclose(
        x.to_clifford().norm() ** 2, 0.3**2 + 0.4**2 + 1.2**2, rel_tol=1e-14
    )


def test_paravector_embedding_grades():
    x = Paravector(2.0, [1.0, 0.0, -1.0])
    c = x.to_clifford()
    assert c.grades() <= {0, 1}
    assert c[0] == 2.0 and c[0b001] == 1.0 and c[0b100] == -1.0


def test_paravector_norm_multiplicative_exact():
    # squared norms stay rational, so the product rule is checked exactly
    rng = random.Random(7)
    for _ in range(100):
        x = Paravector(Fraction(rng.randint(-4, 4), 3), [Fraction(rng.randint(-4, 4), 2) for _ in range(3)])
        y = random_clifford(3, rng)
        prod = cl_mul(x.to_clifford(), y)
        assert prod.norm_sq() == x.norm_sq() * y.norm_sq()


def test_paravector_norm_multiplicative_float():
    rng = random.Random(11)
    for _ in range(200):
        x = Paravector(rng.uniform(-2, 2), [rng.uniform(-2, 2) for _ in range(3)])
        y = random_clifford(3, rng).to_float()
        expected = x.norm() * y.norm()
        got = cl_mul(x.to_clifford(), y).norm()
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-300)


def test_paravector_left_mul_norm_unit_cases():
    y = CliffordNumber(3, {0b101: 2.0, 0: -1.0})
    e0 = Paravector(1.0, [0.0, 0.0, 0.0])
    assert cl_mul(e0.to_clifford(), y).norm() == pytest.approx(y.norm(), rel=1e-15)
    e1 = Paravector(0.0, [1.0, 0.0, 0.0])
    e2 = CliffordNumber.unit(3, 2)
    assert cl_mul(e1.to_clifford(), e2).norm() == pytest.approx(1.0, rel=1e-15)


def test_exact_zero_coefficients_dropped():
    c = CliffordNumber(2, {0: Fraction(0), 1: Fraction(2)})
    assert 0 not in c.coeffs
    # float zeros are data, not structural zeros
    f = CliffordNumber(2, {0: 0.0})
    assert 0 in f.coeffs
