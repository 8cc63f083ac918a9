"""Arithmetic in the real Clifford algebra with n anticommuting square-root-of-minus-one units.

Elements are stored as sparse blade tables: a blade is a subset of the unit
indices {1..n}, encoded as an n-bit mask (bit i-1 set means unit i is a
factor, factors ordered by increasing index).  Coefficients are either exact
``fractions.Fraction``/``int`` values (exact mode) or binary64 floats (float
mode).  ``cl_mul`` multiplies two single values in either mode.  The array
kernels (``series.ck_sums`` and the float kernels of ``fueter``) work on
dense rows of 2^n values instead, with the blade sign table that ``fueter``
owns (``fueter.blade_partners``, the signs of ``blade_product`` computed with
array bit operations), and ``from_table`` turns the nonzero blades of such a
row back into a value.

Values are immutable after construction and every operation is a pure
function, so instances may be shared freely between threads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from operator import add
from typing import Iterable, Mapping, Union

from .errors import DimensionMismatchError

Scalar = Union[int, float, Fraction]

SCALAR_BLADE = 0


def _is_exact(value: Scalar) -> bool:
    return isinstance(value, (int, Fraction))


def _to_float(value: Scalar) -> float:
    try:
        return float(value)
    except OverflowError:  # an exact value beyond the float range
        exponent = math.log10(abs(value.numerator)) - math.log10(value.denominator)
        raise ValueError(f"value of about 1e{exponent:.0f} does not fit in a float") from None


def blade_product(a: int, b: int, dim: int) -> tuple[int, int]:
    """Product of two basis blades: returns ``(sign, mask)`` with mask = a XOR b.

    The sign counts the transpositions needed to interleave the two factor
    strings plus one flip per repeated unit (each unit squares to -1).
    """
    limit = 1 << dim
    if not (0 <= a < limit and 0 <= b < limit):
        raise DimensionMismatchError(
            f"blade mask out of range for dimension {dim}: {a:#x}, {b:#x}"
        )
    swaps = 0
    rest = a >> 1
    while rest:
        swaps += (rest & b).bit_count()
        rest >>= 1
    flips = swaps + (a & b).bit_count()
    sign = -1 if flips & 1 else 1
    return sign, a ^ b


class CliffordNumber:
    """A sparse element of the dimension-n Clifford algebra.

    ``coeffs`` maps blade masks to scalars; absent masks mean coefficient 0.
    Exact zero coefficients are dropped so exact-mode equality is structural.
    """

    __slots__ = ("dim", "_coeffs")

    def __init__(self, dim: int, coeffs: Mapping[int, Scalar] | None = None):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        self.dim = dim
        table: dict[int, Scalar] = {}
        if coeffs:
            for mask, value in coeffs.items():
                if mask < 0 or mask >> dim:
                    raise DimensionMismatchError(
                        f"blade mask {mask:#x} out of range for dimension {dim}"
                    )
                if value == 0 and _is_exact(value):
                    continue
                table[mask] = value
        self._coeffs = table

    @property
    def coeffs(self) -> dict[int, Scalar]:
        """The blade table (treat as read-only)."""
        return self._coeffs

    @classmethod
    def scalar(cls, dim: int, value: Scalar) -> "CliffordNumber":
        return cls(dim, {SCALAR_BLADE: value})

    @classmethod
    def zero(cls, dim: int) -> "CliffordNumber":
        return cls(dim)

    @classmethod
    def unit(cls, dim: int, axis: int) -> "CliffordNumber":
        """The basis unit e_axis, axis in 1..dim."""
        if not 1 <= axis <= dim:
            raise ValueError(f"axis {axis} out of range 1..{dim}")
        return cls(dim, {1 << (axis - 1): 1})

    def __getitem__(self, mask: int) -> Scalar:
        return self._coeffs.get(mask, 0)

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_exact(self) -> bool:
        return all(_is_exact(v) for v in self._coeffs.values())

    def _check_dim(self, other: "CliffordNumber") -> None:
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"mixing algebras of dimension {self.dim} and {other.dim}"
            )

    def __add__(self, other: "CliffordNumber") -> "CliffordNumber":
        self._check_dim(other)
        out = dict(self._coeffs)
        for mask, value in other._coeffs.items():
            out[mask] = out.get(mask, 0) + value
        return CliffordNumber(self.dim, out)

    def __sub__(self, other: "CliffordNumber") -> "CliffordNumber":
        return self + (-other)

    def __neg__(self) -> "CliffordNumber":
        return CliffordNumber(self.dim, {m: -v for m, v in self._coeffs.items()})

    def scale(self, factor: Scalar) -> "CliffordNumber":
        if factor == 0 and _is_exact(factor):
            return CliffordNumber.zero(self.dim)
        return CliffordNumber(self.dim, {m: v * factor for m, v in self._coeffs.items()})

    def __mul__(self, other: "CliffordNumber") -> "CliffordNumber":
        return cl_mul(self, other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CliffordNumber):
            return NotImplemented
        return self.dim == other.dim and self._coeffs == other._coeffs

    def norm_sq(self) -> Scalar:
        """Sum of squared blade coefficients, added one by one in table
        order (the builtin sum compensates float sums on Python 3.12 and
        later); exact in exact mode."""
        total = 0
        for v in self._coeffs.values():
            total += v * v
        return total

    def norm(self) -> float:
        """Euclidean norm of the blade coefficients.  Where the sum of squares
        underflows to 0 or overflows for nonzero coefficients, math.hypot
        scales them instead; an exact coefficient beyond the float range
        gives inf."""
        try:
            value = math.sqrt(self.norm_sq())
        except OverflowError:  # an exact sum of squares beyond the float range
            value = math.inf
        if (value == 0.0 or value == math.inf) and self._coeffs:
            try:
                return math.hypot(*map(float, self._coeffs.values()))
            except OverflowError:  # an exact coefficient beyond the float range
                return math.inf
        return value

    def to_float(self) -> "CliffordNumber":
        """The float copy; ValueError if a coefficient is beyond the float range."""
        return CliffordNumber(self.dim, {m: _to_float(v) for m, v in self._coeffs.items()})

    def __repr__(self) -> str:
        if not self._coeffs:
            return f"CliffordNumber(dim={self.dim}, 0)"
        parts = []
        for mask in sorted(self._coeffs):
            name = "1" if mask == SCALAR_BLADE else "e" + "".join(
                str(i + 1) for i in range(self.dim) if mask >> i & 1
            )
            parts.append(f"{self._coeffs[mask]!r}*{name}")
        return f"CliffordNumber(dim={self.dim}, {' + '.join(parts)})"


def cl_mul(a: CliffordNumber, b: CliffordNumber) -> CliffordNumber:
    """Bilinear, associative Clifford product (exact when the operands are)."""
    a._check_dim(b)
    out: dict[int, Scalar] = {}
    for ma, va in a._coeffs.items():
        for mb, vb in b._coeffs.items():
            sign, mask = blade_product(ma, mb, a.dim)
            term = va * vb
            out[mask] = out.get(mask, 0) + (term if sign > 0 else -term)
    return CliffordNumber(a.dim, out)


def from_table(dim: int, table: dict[int, Scalar]) -> CliffordNumber:
    """The value with the blade table {mask: value}, taken as it is: the
    masks must be in range and the values nonzero, and neither is checked
    again.  The way back from the dense rows of the array kernels."""
    value = CliffordNumber.__new__(CliffordNumber)
    value.dim = dim
    value._coeffs = table
    return value


class Paravector:
    """A point x0 + x1*e1 + ... + xn*en of real (n+1)-space inside the algebra."""

    __slots__ = ("x0", "xv")

    def __init__(self, x0: Scalar, xv: Iterable[Scalar]):
        self.x0 = x0
        self.xv = tuple(xv)

    @property
    def dim(self) -> int:
        return len(self.xv)

    @classmethod
    def zero(cls, dim: int) -> "Paravector":
        return cls(0, (0,) * dim)

    @classmethod
    def from_components(cls, comps: Iterable[Scalar]) -> "Paravector":
        comps = tuple(comps)
        return cls(comps[0], comps[1:])

    def components(self) -> tuple[Scalar, ...]:
        return (self.x0, *self.xv)

    def to_clifford(self) -> CliffordNumber:
        table: dict[int, Scalar] = {SCALAR_BLADE: self.x0}
        for i, value in enumerate(self.xv):
            table[1 << i] = value
        return CliffordNumber(len(self.xv), table)

    def norm_sq(self) -> Scalar:
        return self.x0 * self.x0 + reduce(add, (v * v for v in self.xv), 0)

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def __repr__(self) -> str:
        return f"Paravector({self.x0!r}, {self.xv!r})"

