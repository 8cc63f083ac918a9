"""Degree-truncated Taylor series in the monogenic polynomial basis.

A series is a table {m -> a_m} with all |m| <= degree, representing
f(x) = sum_m V_m(x) a_m: basis factor on the left, Clifford coefficient on
the right (left-monogenic convention throughout).  Series are immutable
values; every product states its output truncation degree explicitly.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from typing import Callable, Iterable, Mapping

import numpy as np

from .clifford import (
    CliffordNumber,
    Paravector,
    blade_signs,
    cl_mul,
    from_numerators,
    integer_numerators,
)
from .errors import DimensionMismatchError
from .fueter import (
    FueterCache,
    basis_combination,
    blade_rows,
    contraction_operand,
    dirac_residuals,
    sampled_sups,
)
from .multiindex import (
    MultiIndex,
    check_index,
    mi_abs,
    mi_add,
    mi_factorial,
)


class MonogenicSeries:
    """Truncated expansion f = sum V_m(x) a_m with right Clifford coefficients."""

    __slots__ = ("n", "degree", "_coeffs", "_operand")

    def __init__(self, n: int, degree: int, coeffs: Mapping[MultiIndex, CliffordNumber] | None = None):
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        if degree < 0:
            raise ValueError(f"degree must be >= 0, got {degree}")
        self.n = n
        self.degree = degree
        table: dict[MultiIndex, CliffordNumber] = {}
        if coeffs:
            for m, a in coeffs.items():
                check_index(m, n, degree)
                if a.dim != n:
                    raise DimensionMismatchError(
                        f"coefficient at {m} lives in dimension {a.dim}, series in {n}"
                    )
                if not a.is_zero():
                    table[m] = a
        self._coeffs = table
        self._operand = None

    @property
    def coeffs(self) -> dict[MultiIndex, CliffordNumber]:
        """Coefficient table (treat as read-only)."""
        return self._coeffs

    def operand(self) -> tuple:
        """The float ``fueter.contraction_operand`` of the coefficients, which
        float evaluation and the sampled sup norms contract with: built on
        first use and kept, since a series does not change."""
        if self._operand is None:
            self._operand = contraction_operand(self.n, self._coeffs)
        return self._operand

    @classmethod
    def unit(cls, n: int, degree: int = 0, exact: bool = True) -> "MonogenicSeries":
        value = Fraction(1) if exact else 1.0
        return cls(n, degree, {(0,) * n: CliffordNumber.scalar(n, value)})

    @classmethod
    def basis_element(cls, n: int, m: MultiIndex, exact: bool = True) -> "MonogenicSeries":
        """The series of the basis polynomial itself: single coefficient 1 at m."""
        value = Fraction(1) if exact else 1.0
        return cls(n, mi_abs(m), {tuple(m): CliffordNumber.scalar(n, value)})

    def coeff(self, m: MultiIndex) -> CliffordNumber:
        return self._coeffs.get(tuple(m), CliffordNumber.zero(self.n))

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_exact(self) -> bool:
        return all(a.is_exact() for a in self._coeffs.values())

    def mode(self) -> str:
        return "exact" if self.is_exact() else "float"

    def to_float(self) -> "MonogenicSeries":
        return MonogenicSeries(
            self.n, self.degree, {m: a.to_float() for m, a in self._coeffs.items()}
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MonogenicSeries):
            return NotImplemented
        return (
            self.n == other.n
            and self.degree == other.degree
            and self._coeffs == other._coeffs
        )

    def __add__(self, other: "MonogenicSeries") -> "MonogenicSeries":
        if self.n != other.n:
            raise DimensionMismatchError("adding series of different dimension")
        out = dict(self._coeffs)
        for m, a in other._coeffs.items():
            out[m] = out.get(m, CliffordNumber.zero(self.n)) + a
        return MonogenicSeries(self.n, max(self.degree, other.degree), out)

    def scale(self, factor) -> "MonogenicSeries":
        return MonogenicSeries(
            self.n, self.degree, {m: a.scale(factor) for m, a in self._coeffs.items()}
        )

    def truncate(self, degree: int) -> "MonogenicSeries":
        return MonogenicSeries(
            self.n,
            degree,
            {m: a for m, a in self._coeffs.items() if mi_abs(m) <= degree},
        )

    def homogeneous_part(self, q: int) -> "MonogenicSeries":
        """The degree-q slice: sum over |m| = q of V_m a_m."""
        return MonogenicSeries(
            self.n, q, {m: a for m, a in self._coeffs.items() if mi_abs(m) == q}
        )

    def degree_norms(self) -> dict[int, float]:
        """Per-degree sums of coefficient norms (the triangle-inequality data)."""
        out: dict[int, float] = {}
        for m, a in self._coeffs.items():
            q = mi_abs(m)
            out[q] = out.get(q, 0.0) + a.norm()
        return out

    def coeff_upper_bound(self, r: float) -> float:
        """sum_m norm(a_m) r^|m|: an upper bound for the max modulus at radius r."""
        return sum((norm * r**q for q, norm in self.degree_norms().items()), 0.0)

    def __repr__(self) -> str:
        return (
            f"MonogenicSeries(n={self.n}, degree={self.degree}, "
            f"{len(self._coeffs)} coefficients)"
        )


def series_eval(f: MonogenicSeries, x: Paravector, exact: bool = False) -> CliffordNumber:
    """Evaluate sum V_m(x) a_m.

    Float mode contracts the series' kept ``operand`` with the batched
    kernel ``basis_combination`` and keeps only the blades whose value is
    nonzero.  Exact mode shares one ``FueterCache`` for the point, in the
    point's arithmetic, and is the reference the kernel is tested against.
    """
    if x.dim != f.n:
        raise DimensionMismatchError(f"point of dimension {x.dim}, series of dimension {f.n}")
    if not exact:
        row = basis_combination(f.operand(), [x.components()])[0].tolist()
        return from_numerators(f.n, row, None)
    cache = FueterCache(x)
    acc = CliffordNumber.zero(f.n)
    for m, a in f._coeffs.items():
        acc = acc + cl_mul(cache.value(m), a)
    return acc


def series_derivative(f: MonogenicSeries, p: MultiIndex) -> MonogenicSeries:
    """Mixed partial of order p: coefficient shift (d^p f)_m = ((m+p)!/m!) a_{m+p}."""
    check_index(p, f.n)
    drop = mi_abs(p)
    if drop == 0:
        return f
    new_degree = f.degree - drop
    if new_degree < 0:
        return MonogenicSeries(f.n, 0)
    out: dict[MultiIndex, CliffordNumber] = {}
    for m, a in f._coeffs.items():
        if not all(mi >= pi for mi, pi in zip(m, p)):
            continue
        target = tuple(mi - pi for mi, pi in zip(m, p))
        out[target] = a.scale(mi_factorial(m) // mi_factorial(target))
    return MonogenicSeries(f.n, new_degree, out)


def ck_mul_left(f: MonogenicSeries, g: MonogenicSeries, q_out: int) -> MonogenicSeries:
    """Cauchy-Kowalewski product: coefficient convolution c_p = sum a_m b_k
    over m + k = p (Clifford product in that order), truncated at |p| <= q_out.

    One pair of ``ck_sums``: the indices p come in the order of their first
    pair, looping over f and then g."""
    if f.n != g.n:
        raise DimensionMismatchError("CK product of series with different dimension")
    (out,) = ck_sums(f.n, [f._coeffs], [g._coeffs], [[(0, 0)]], q_out)
    return MonogenicSeries(f.n, q_out, out)


def ck_sums(
    n: int,
    left: list[Mapping[MultiIndex, CliffordNumber]],
    right: list[Mapping[MultiIndex, CliffordNumber]],
    groups: Iterable[Iterable[tuple[int, int]]],
    q_out: int,
) -> list[dict[MultiIndex, CliffordNumber]]:
    """Per group of pairs (i, j), the sum of the CK products left[i] (ck)
    right[j] truncated at |p| <= q_out: the one convolution of both modes,
    row[ma ^ mb] += sign * va * vb on a dense row per index p.

    The mode is decided once, in the numerator step.  When every value is
    exact and not every one is an int, each side is written over its common
    denominator (``integer_numerators``) and each result blade is divided
    once by the product of the two.  Otherwise (ints, floats or a mix) the
    values are their own numerators and nothing is divided.  Every result
    keeps only its nonzero blades, in mask order; a group's indices come in
    the order of their first pair."""
    kinds = {type(v) for t in (*left, *right) for c in t.values() for v in c.coeffs.values()}
    if Fraction in kinds and kinds <= {int, Fraction}:
        den_l, left_nums = integer_numerators(*left)
        den_r, right_nums = integer_numerators(*right)
        den = den_l * den_r
    else:  # ints, floats or a mix: the values are their own numerators
        den = None
        left_nums, right_nums = (
            [{key: list(c.coeffs.items()) for key, c in t.items()} for t in side]
            for side in (left, right)
        )
    signs = blade_signs(n)
    size = 1 << n
    a_lists, b_lists = (
        [[(m, mi_abs(m), a) for m, a in t.items()] for t in side] for side in (left_nums, right_nums)
    )
    out = []
    for group in groups:
        acc: defaultdict[MultiIndex, list] = defaultdict(lambda: [0] * size)
        for i, j in group:
            b_list = b_lists[j]
            for m, qm, a in a_lists[i]:
                if qm > q_out:
                    continue
                for k, qk, b in b_list:
                    if qm + qk > q_out:
                        continue
                    row = acc[mi_add(m, k)]
                    for ma, va in a:
                        sign = signs[ma]
                        for mb, vb in b:
                            row[ma ^ mb] += sign[mb] * va * vb
        out.append({p: from_numerators(n, row, den) for p, row in acc.items()})
    return out


def dirac_residual(
    f: MonogenicSeries | Callable[[Paravector], CliffordNumber],
    points: list[Paravector],
    h: float = 1e-5,
) -> float:
    """Max over points (NaN if any is NaN) of the Dirac residual of a series or point function."""
    func = (lambda x: series_eval(f, x)) if isinstance(f, MonogenicSeries) else f
    evaluate = lambda pts: blade_rows(
        pts.shape[1] - 1, [func(Paravector.from_components(p)) for p in pts.tolist()]
    )[:, None]
    return float(np.max([dirac_residuals(evaluate, x, h)[0] for x in points], initial=0.0))


def max_modulus(
    f: MonogenicSeries, r: float, samples: int = 128, seed: int = 0
) -> tuple[float, float]:
    """(sampled lower bound, coefficient upper bound) for sup of norm(f) on the
    sphere of radius r.  Directions are deterministic and include the axes;
    ``samples=0`` keeps the axis points only."""
    if not 0 <= r < np.inf:
        raise ValueError(f"radius must be finite and >= 0, got {r}")
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    upper = f.coeff_upper_bound(r)
    if r == 0:
        exact = f.coeff((0,) * f.n).norm()
        return exact, max(upper, exact)
    (lower,) = sampled_sups(f.n, f.operand(), [r], samples, seed)
    return lower, upper


def taylor_coefficient(f: MonogenicSeries, m: MultiIndex) -> CliffordNumber:
    """Recover a_m as (d^m f)(0) / m!; exact round trip in exact mode."""
    shifted = series_derivative(f, m)
    value = shifted.coeff((0,) * f.n)
    fact = mi_factorial(m)
    return value.scale(Fraction(1, fact) if value.is_exact() else 1.0 / fact)
