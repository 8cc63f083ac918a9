"""Degree-truncated Taylor series in the monogenic polynomial basis.

A series is a table {m -> a_m} with all |m| <= degree, representing
f(x) = sum_m V_m(x) a_m: basis factor on the left, Clifford coefficient on
the right (left-monogenic convention throughout).  Series are immutable
values; every product states its output truncation degree explicitly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Hashable, Mapping

import numpy as np

from .clifford import CliffordNumber, Paravector, cl_mul
from .errors import DimensionMismatchError
from .fueter import FueterCache, basis_combination
from .multiindex import (
    MultiIndex,
    mi_abs,
    mi_add,
    mi_factorial,
)
from .sampling import sphere_directions


class MonogenicSeries:
    """Truncated expansion f = sum V_m(x) a_m with right Clifford coefficients."""

    __slots__ = ("n", "degree", "_coeffs")

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
                if len(m) != n:
                    raise DimensionMismatchError(f"index {m} has length != {n}")
                if min(m) < 0:
                    raise ValueError(f"index {m} has a negative entry")
                if mi_abs(m) > degree:
                    raise ValueError(f"index {m} exceeds truncation degree {degree}")
                if a.dim != n:
                    raise DimensionMismatchError(
                        f"coefficient at {m} lives in dimension {a.dim}, series in {n}"
                    )
                if not a.is_zero():
                    table[m] = a
        self._coeffs = table

    @property
    def coeffs(self) -> dict[MultiIndex, CliffordNumber]:
        """Coefficient table (treat as read-only)."""
        return self._coeffs

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

    def scale_right(self, c: CliffordNumber) -> "MonogenicSeries":
        """Right module action f*c: multiplies every coefficient by c on the right."""
        return MonogenicSeries(
            self.n, self.degree, {m: cl_mul(a, c) for m, a in self._coeffs.items()}
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
            self.n, max(q, 0), {m: a for m, a in self._coeffs.items() if mi_abs(m) == q}
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

    Float mode goes through the batched kernel ``basis_combination`` and keeps
    only the blades whose value is nonzero.  Exact mode shares one
    ``FueterCache`` for the point and is the reference the kernel is tested
    against.
    """
    if x.dim != f.n:
        raise DimensionMismatchError(f"point of dimension {x.dim}, series of dimension {f.n}")
    if not exact:
        row = basis_combination(f._coeffs, [x.components()])[0].tolist()
        return CliffordNumber(f.n, {mask: v for mask, v in enumerate(row) if v != 0.0})
    cache = FueterCache(x, exact=True)
    acc = CliffordNumber.zero(f.n)
    for m, a in f._coeffs.items():
        acc = acc + cl_mul(cache.value(m), a)
    return acc


def series_derivative(f: MonogenicSeries, p: MultiIndex) -> MonogenicSeries:
    """Mixed partial of order p: coefficient shift (d^p f)_m = ((m+p)!/m!) a_{m+p}."""
    if len(p) != f.n:
        raise DimensionMismatchError(f"index {p} has length != {f.n}")
    if min(p) < 0:
        raise ValueError(f"index {p} has a negative entry")
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
        factor = mi_factorial(m) // mi_factorial(target)
        out[target] = a.scale(Fraction(factor) if a.is_exact() else float(factor))
    return MonogenicSeries(f.n, new_degree, out)


def ck_mul_left(f: MonogenicSeries, g: MonogenicSeries, q_out: int) -> MonogenicSeries:
    """Cauchy-Kowalewski product: coefficient convolution c_p = sum a_m b_k
    over m + k = p (Clifford product in that order), truncated at |p| <= q_out."""
    if f.n != g.n:
        raise DimensionMismatchError("CK product of series with different dimension")
    out: dict[MultiIndex, CliffordNumber] = {}
    for m, a in f._coeffs.items():
        qm = mi_abs(m)
        if qm > q_out:
            continue
        for k, b in g._coeffs.items():
            if qm + mi_abs(k) > q_out:
                continue
            p = mi_add(m, k)
            term = cl_mul(a, b)
            prev = out.get(p)
            out[p] = term if prev is None else prev + term
    return MonogenicSeries(f.n, q_out, out)


PointFunction = Callable[[Paravector], CliffordNumber]


def dirac_residuals(
    evaluate: Callable[[Paravector], Mapping[Hashable, CliffordNumber]],
    x: Paravector,
    h: float = 1e-5,
) -> dict[Hashable, float]:
    """Central-difference Dirac residual norm(d/dx0 f + sum_i e_i d/dx_i f) at x
    for every key of a keyed table of functions; small exactly when the keyed
    function is monogenic.  ``evaluate`` is called once per offset point, so a
    table can share one basis cache per point."""
    if h <= 0:
        raise ValueError("step h must be positive")
    n = x.dim
    tables = []
    for axis in range(n + 1):
        for sign in (1.0, -1.0):
            comps = list(x.components())
            comps[axis] += sign * h
            tables.append(evaluate(Paravector.from_components(comps)))
    out = {}
    for key in tables[0]:
        acc = CliffordNumber.zero(n)
        for axis in range(n + 1):
            diff = (tables[2 * axis][key] - tables[2 * axis + 1][key]).scale(1.0 / (2.0 * h))
            acc = acc + (diff if axis == 0 else cl_mul(CliffordNumber.unit(n, axis), diff))
        out[key] = acc.norm()
    return out


def dirac_residual(
    f: MonogenicSeries | PointFunction,
    points: list[Paravector],
    h: float = 1e-5,
) -> float:
    """Max over points of the Dirac residual of one series or point function."""
    func = (lambda x: series_eval(f, x)) if isinstance(f, MonogenicSeries) else f
    evaluate = lambda x: {0: func(x)}
    return max([0.0] + [dirac_residuals(evaluate, x, h)[0] for x in points])


def max_modulus(
    f: MonogenicSeries, r: float, samples: int = 128, seed: int = 0
) -> tuple[float, float]:
    """(sampled lower bound, coefficient upper bound) for sup of norm(f) on the
    sphere of radius r.  Directions are deterministic and include the axes;
    ``samples=0`` keeps the axis points only."""
    if r < 0:
        raise ValueError("radius must be >= 0")
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    upper = f.coeff_upper_bound(r)
    if r == 0:
        exact = f.coeff((0,) * f.n).norm()
        return exact, max(upper, exact)
    points = r * sphere_directions(f.n + 1, samples, seed=seed)
    lower = float(np.linalg.norm(basis_combination(f._coeffs, points), axis=1).max())
    return lower, upper


def taylor_coefficient(f: MonogenicSeries, m: MultiIndex) -> CliffordNumber:
    """Recover a_m as (d^m f)(0) / m!; exact round trip in exact mode."""
    shifted = series_derivative(f, m)
    value = shifted.coeff((0,) * f.n)
    fact = mi_factorial(m)
    return value.scale(Fraction(1, fact) if value.is_exact() else 1.0 / fact)
