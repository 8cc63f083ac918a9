import random
from fractions import Fraction

import pytest

from monogenic.clifford import CliffordNumber, Paravector, cl_mul
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


@pytest.fixture
def rng():
    return random.Random(20240817)
