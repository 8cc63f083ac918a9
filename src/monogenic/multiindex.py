"""Multi-index combinatorics: degree enumeration, factorials, Cauchy constants.

Multi-indices are plain tuples of non-negative ints.  Everything here is
exact big-integer / rational arithmetic; callers convert to float only at
the boundary.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

MultiIndex = tuple[int, ...]


def mi_abs(m: MultiIndex) -> int:
    return sum(m)


def mi_factorial(m: MultiIndex) -> int:
    out = 1
    for part in m:
        out *= math.factorial(part)
    return out


def mi_add(m: MultiIndex, p: MultiIndex) -> MultiIndex:
    return tuple(a + b for a, b in zip(m, p))


def mi_sub(m: MultiIndex, p: MultiIndex) -> MultiIndex:
    """Componentwise difference m - p; caller guarantees p <= m."""
    return tuple(a - b for a, b in zip(m, p))


def mi_leq(p: MultiIndex, m: MultiIndex) -> bool:
    """Componentwise partial order p <= m."""
    return all(a <= b for a, b in zip(p, m))


def iter_degree(n: int, q: int) -> Iterator[MultiIndex]:
    if n == 1:
        yield (q,)
        return
    for first in range(q + 1):
        for rest in iter_degree(n - 1, q - first):
            yield (first, *rest)


@lru_cache(maxsize=None)
def enumerate_degree(n: int, q: int) -> tuple[MultiIndex, ...]:
    """All multi-indices of length n with |m| = q, in lexicographic order.

    Cardinality is C(q+n-1, n-1).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if q < 0:
        return ()
    return tuple(sorted(iter_degree(n, q)))


def enumerate_up_to(n: int, q_max: int) -> list[MultiIndex]:
    """All multi-indices with |m| <= q_max, degree-major then lexicographic."""
    out: list[MultiIndex] = []
    for q in range(q_max + 1):
        out.extend(enumerate_degree(n, q))
    return out


def rising_factorial(base: int, count: int) -> int:
    out = 1
    for k in range(count):
        out *= base + k
    return out


def c_nm(n: int, m: MultiIndex) -> Fraction:
    """Cauchy constant: rising factorial n(n+1)...(n+|m|-1) divided by m!.

    c(n, 0) = 1 by the empty-product convention.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return Fraction(rising_factorial(n, mi_abs(m)), mi_factorial(m))


def ln_c_nm(n: int, m: MultiIndex) -> float:
    """log of c(n, m), stable for large degrees."""
    q = mi_abs(m)
    out = math.lgamma(n + q) - math.lgamma(n)
    for part in m:
        out -= math.lgamma(part + 1)
    return out
