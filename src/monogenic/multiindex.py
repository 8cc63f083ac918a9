"""Multi-index combinatorics: degree enumeration, factorials, Cauchy constants.

Multi-indices are plain tuples of non-negative ints.  Everything here is
exact big-integer arithmetic except ``ln_c_nm``, the logarithm of the
Cauchy constant.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from typing import Iterator

from .errors import DimensionMismatchError

MultiIndex = tuple[int, ...]


def check_index(m: MultiIndex, n: int, degree: int | None = None) -> None:
    """Raise unless m is a multi-index of length n (with |m| <= degree when a
    degree is given): DimensionMismatchError for a wrong length, ValueError
    for a negative entry or a degree above the bound."""
    if len(m) != n:
        raise DimensionMismatchError(f"index {m} has length {len(m)}, not {n}")
    if min(m, default=0) < 0:
        raise ValueError(f"index {m} has a negative entry")
    if degree is not None and sum(m) > degree:
        raise ValueError(f"index {m} exceeds degree {degree}")


def mi_abs(m: MultiIndex) -> int:
    return sum(m)


def mi_factorial(m: MultiIndex) -> int:
    out = 1
    for part in m:
        out *= math.factorial(part)
    return out


def mi_add(m: MultiIndex, p: MultiIndex) -> MultiIndex:
    return tuple(a + b for a, b in zip(m, p))


def iter_degree(n: int, q: int) -> Iterator[MultiIndex]:
    """The multi-indices of length n with |m| = q in lexicographic order:
    the gaps between n - 1 bars among q + n - 1 places, the bar positions in
    lexicographic order (no recursion, so n is not bounded by its depth)."""
    for bars in combinations(range(q + n - 1), n - 1):
        yield tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, q + n - 1)))


@lru_cache(maxsize=None)
def enumerate_degree(n: int, q: int) -> tuple[MultiIndex, ...]:
    """All multi-indices of length n with |m| = q, in lexicographic order.

    Cardinality is C(q+n-1, n-1).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if q < 0:
        return ()
    return tuple(iter_degree(n, q))


def enumerate_up_to(n: int, q_max: int) -> list[MultiIndex]:
    """All multi-indices with |m| <= q_max, degree-major then lexicographic."""
    out: list[MultiIndex] = []
    for q in range(q_max + 1):
        out.extend(enumerate_degree(n, q))
    return out


def ln_c_nm(n: int, m: MultiIndex) -> float:
    """log of the Cauchy constant c(n, m) = n(n+1)...(n+|m|-1) / m!, stable
    for large degrees; c(n, 0) = 1."""
    q = mi_abs(m)
    out = math.lgamma(n + q) - math.lgamma(n)
    for part in m:
        out -= math.lgamma(part + 1)
    return out
