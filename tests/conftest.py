import math
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from monogenic.clifford import CliffordNumber, Paravector, cl_mul
from monogenic.multiindex import check_index, enumerate_up_to, mi_abs, mi_factorial
from monogenic.series import MonogenicSeries


def random_clifford(n: int, rng: random.Random, span: int = 5) -> CliffordNumber:
    table = {}
    for mask in range(1 << n):
        if rng.random() < 0.6:
            num = rng.randint(-span, span)
            if num:
                table[mask] = Fraction(num, rng.randint(1, 4))
    return CliffordNumber(n, table)


def random_point(n: int, rng: random.Random, radius: float = 1.0) -> Paravector:
    comps = [rng.uniform(-1, 1) for _ in range(n + 1)]
    scale = radius / max(1e-9, sum(c * c for c in comps) ** 0.5)
    comps = [c * scale * rng.uniform(0.2, 1.0) for c in comps]
    return Paravector(comps[0], comps[1:])


def scale_right(f: MonogenicSeries, c: CliffordNumber) -> MonogenicSeries:
    """Right module action f*c: every coefficient multiplied by c on the right."""
    return MonogenicSeries(f.n, f.degree, {m: cl_mul(a, c) for m, a in f.coeffs.items()})


def assert_refused(call, error: type, message: str) -> None:
    """call() raises ``error`` with a one-line message that contains ``message``."""
    with pytest.raises(error) as err:
        call()
    assert message in str(err.value) and "\n" not in str(err.value), str(err.value)


#: the least integer that a float conversion rounds to inf
INF_FLOOR = 2**1024 - 2**970


def reference_derivative(f: MonogenicSeries, p) -> MonogenicSeries:
    """d^p f as a loop over f's coefficients, (d^p f)_m = ((m+p)!/m!) a_{m+p},
    each coefficient scaled by its weight in Python arithmetic: the
    per-coefficient reference for ``series_derivative``, which takes the
    shift on the CK kernel's rows.  Beside a float value a weight beyond the
    float range is inf, as an IEEE conversion rounds it.  Blades stay in
    input order, stored float zeros included."""
    check_index(p, f.n)
    drop = mi_abs(p)
    if drop == 0:
        return f
    new_degree = f.degree - drop
    if new_degree < 0:
        return MonogenicSeries(f.n, 0)
    out = {}
    for m, a in f.coeffs.items():
        if not all(mi >= pi for mi, pi in zip(m, p)):
            continue
        target = tuple(mi - pi for mi, pi in zip(m, p))
        weight = mi_factorial(m) // mi_factorial(target)
        out[target] = a.scale(weight if weight < INF_FLOOR or a.is_exact() else math.inf)
    return MonogenicSeries(f.n, new_degree, out)


#: exact coefficients: ints, and Fractions whose denominators include the
#: coprime 89 and 97, so common denominators grow large
EXACT_VALUE = st.one_of(
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-60, 60), st.sampled_from([1, 2, 3, 4, 7, 12, 89, 97])),
)


#: small dyadic rationals: exact values whose float copies are exact too
DYADIC_VALUE = st.builds(Fraction, st.integers(-8, 8), st.sampled_from([1, 2, 4, 8]))


def exact_clifford(n: int, min_blades: int = 0, value=EXACT_VALUE) -> st.SearchStrategy:
    return st.dictionaries(
        st.integers(0, (1 << n) - 1), value, min_size=min_blades, max_size=6
    ).map(lambda d: CliffordNumber(n, d))


def exact_series(n: int, degree: int, max_terms: int = 5, value=EXACT_VALUE) -> st.SearchStrategy:
    """Sparse exact series of dimension n and degree ``degree``; may be empty."""
    indices = enumerate_up_to(n, degree)
    return st.dictionaries(
        st.sampled_from(indices), exact_clifford(n, value=value), max_size=max_terms
    ).map(lambda d: MonogenicSeries(n, degree, d))


@pytest.fixture
def rng():
    return random.Random(20240817)
