"""The homogeneous monogenic polynomial basis and its exact derivative rule.

The basis element attached to a multi-index m is the fully symmetrised
product of the degree-one monogenic variables z_i = x_i - x0*e_i, normalised
so that applying the derivative rule m times and evaluating at the origin
yields exactly m!.  Equivalently, its restriction to the hyperplane x0 = 0
is the plain monomial x^m.

Evaluation uses the right-factor recursion

    V_m(x) = (1/|m|) * sum_i  m_i * V_{m-e_i}(x) * z_i(x),      V_0 = 1,

which regroups the permutation sum by last factor: it costs O(prod(m_i+1))
per point instead of |m|! and is exact in exact mode.

``FueterCache`` runs it one point at a time on ``CliffordNumber`` values; in
exact mode it is the reference.  ``basis_values`` runs the same recursion in
float mode over a batch of points at once on dense numpy blade arrays, and
``basis_combination`` contracts it with series coefficients; float series
evaluation and the sampled sup norms go through these two.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Mapping

import numpy as np

from .clifford import CliffordNumber, Paravector, blade_product, cl_mul
from .multiindex import MultiIndex, enumerate_degree, enumerate_up_to, mi_abs
from .sampling import sphere_directions


def fueter_var(axis: int, x: Paravector) -> CliffordNumber:
    """The degree-one monogenic variable z_axis = x_axis - x0 * e_axis."""
    n = x.dim
    if not 1 <= axis <= n:
        raise ValueError(f"axis {axis} out of range 1..{n}")
    return CliffordNumber(n, {0: x.xv[axis - 1], 1 << (axis - 1): -x.x0})


class FueterCache:
    """Memoised basis evaluation at one fixed point.

    The memo is confined to this object; share one cache per point per task.
    """

    def __init__(self, x: Paravector, exact: bool = False):
        self.x = x
        self.n = x.dim
        self.exact = exact
        self._vars = [fueter_var(i, x) for i in range(1, self.n + 1)]
        one: CliffordNumber = CliffordNumber.scalar(self.n, Fraction(1) if exact else 1.0)
        self._memo: dict[MultiIndex, CliffordNumber] = {(0,) * self.n: one}

    def value(self, m: MultiIndex) -> CliffordNumber:
        memo = self._memo
        got = memo.get(m)
        if got is not None:
            return got
        q = mi_abs(m)
        acc = CliffordNumber.zero(self.n)
        for i, mi in enumerate(m):
            if mi == 0:
                continue
            prev = self.value(tuple(v - 1 if j == i else v for j, v in enumerate(m)))
            acc = acc + cl_mul(prev, self._vars[i]).scale(mi)
        weight = Fraction(1, q) if self.exact else 1.0 / q
        out = acc.scale(weight)
        memo[m] = out
        return out


def fueter_eval(m: MultiIndex, x: Paravector, exact: bool = False) -> CliffordNumber:
    """Evaluate the basis element for m at x (fresh cache; see FueterCache)."""
    return FueterCache(x, exact=exact).value(m)


def fueter_derivative_rule(m: MultiIndex, axis: int) -> tuple[int, MultiIndex | None]:
    """d/dx_axis V_m = m_axis * V_{m - e_axis}; returns (m_axis, lowered index).

    If the variable is absent the derivative is zero: returns (0, None).
    """
    if not 1 <= axis <= len(m):
        raise ValueError(f"axis {axis} out of range 1..{len(m)}")
    mi = m[axis - 1]
    if mi == 0:
        return 0, None
    lowered = tuple(v - 1 if j == axis - 1 else v for j, v in enumerate(m))
    return mi, lowered


def fueter_sup_unit_ball(m: MultiIndex, samples: int, seed: int = 0) -> float:
    """Sampled max of the basis element's norm over the closed unit ball.

    The element is homogeneous so the sup sits on the sphere; axis points are
    always in the sample set, and the value never exceeds 1.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n = len(m)
    dirs = sphere_directions(n + 1, samples, seed=seed)
    values = basis_combination({tuple(m): CliffordNumber.scalar(n, 1.0)}, dirs)
    # the true sup is <= 1; trim float jitter at attaining points
    return min(float(np.linalg.norm(values, axis=1).max()), 1.0)


def ordered_word_eval(m: MultiIndex, x: Paravector) -> CliffordNumber:
    """The unsymmetrised product z_1^m_1 * ... * z_n^m_n.

    Deliberately not monogenic for mixed m; used as a negative control for
    the Dirac-residual checks.
    """
    out = CliffordNumber.scalar(x.dim, 1.0)
    for i, mi in enumerate(m):
        z = fueter_var(i + 1, x)
        for _ in range(mi):
            out = cl_mul(out, z)
    return out


# ---------------------------------------------------------------------------
# Batched float evaluation
# ---------------------------------------------------------------------------

#: floats in one block of basis values (points x indices x blades), 512 KiB:
#: ``basis_combination`` evaluates its points in blocks of this size
_BLOCK_FLOATS = 1 << 16


@lru_cache(maxsize=None)
def _blade_signs(n: int) -> np.ndarray:
    """The 2^n x 2^n blade sign table: e_a e_b = signs[a, b] * e_(a XOR b)."""
    size = 1 << n
    table = np.array(
        [[blade_product(a, b, n)[0] for b in range(size)] for a in range(size)], dtype=float
    )
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _layout(n: int, degree: int) -> tuple[dict[MultiIndex, int], tuple]:
    """Row of every index |m| <= degree (the order of ``enumerate_up_to``) and,
    per degree q >= 1, the rows lo:hi of that degree with one step per axis i:
    the rows (relative to lo) of the indices with m_i > 0, the rows of their
    predecessors m - e_i, the factors m_i, and right multiplication by e_i as
    a blade permutation k -> k XOR e_i with the sign of e_(k XOR e_i) e_i."""
    position = {m: row for row, m in enumerate(enumerate_up_to(n, degree))}
    signs = _blade_signs(n)
    blades = np.arange(1 << n)
    steps = []
    lo = 1
    for q in range(1, degree + 1):
        block = enumerate_degree(n, q)
        axes = []
        for i in range(n):
            rows = [k for k, m in enumerate(block) if m[i] > 0]
            prev = [position[tuple(v - (j == i) for j, v in enumerate(block[k]))] for k in rows]
            mult = np.array([[float(block[k][i])] for k in rows])
            flip = blades ^ (1 << i)
            axes.append((i + 1, np.array(rows), np.array(prev), mult, flip, signs[flip, 1 << i]))
        steps.append((lo, lo + len(block), tuple(axes)))
        lo += len(block)
    return position, tuple(steps)


def basis_values(points, degree: int) -> np.ndarray:
    """Float values of every basis element with |m| <= degree at a batch of
    points: an array (P, #indices, 2^n) of blade coefficients.

    ``points`` is (P, n+1) with rows (x0, x1, ..., xn); the middle axis follows
    ``enumerate_up_to(n, degree)``.  The recursion runs degree by degree over
    all points at once and multiplies in the order ``FueterCache`` does, so
    each value equals the float ``FueterCache(x).value(m)``.  The array holds
    every point; ``basis_combination`` bounds its size by working in blocks.
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[1] - 1
    position, steps = _layout(n, degree)
    out = np.zeros((len(pts), len(position), 1 << n))
    out[:, 0, 0] = 1.0
    x0 = pts[:, :1, None]
    for q, (lo, hi, axes) in enumerate(steps, start=1):
        acc = out[:, lo:hi]
        for axis, rows, prev, mult, flip, sign in axes:
            v = out[:, prev]
            # V z_i = V x_i - x0 (V e_i), summed over i in axis order
            acc[:, rows] += (v * pts[:, axis, None, None] - x0 * (v[:, :, flip] * sign)) * mult
        acc *= 1.0 / q
    return out


def basis_combination(coeffs: Mapping[MultiIndex, CliffordNumber], points) -> np.ndarray:
    """sum_m V_m(x) a_m at every point: an array (P, 2^n), one row per point.

    ``points`` is (P, n+1) as for ``basis_values``; the points are evaluated
    in blocks of at most ``_BLOCK_FLOATS`` basis-value floats.
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[1] - 1
    size = 1 << n
    degree = max(map(mi_abs, coeffs), default=0)
    position, _ = _layout(n, degree)
    rows = [position[m] for m in coeffs]
    dense = np.zeros((len(rows), size))
    for s, a in enumerate(coeffs.values()):
        for mask, value in a.coeffs.items():
            dense[s, mask] = value
    # right multiplication by a: (v a)[k] = sum_b v[b] signs[b, b^k] a[b^k]
    blades = np.arange(size)[:, None]
    xor = blades ^ blades.T
    right = (_blade_signs(n)[blades, xor] * dense[:, xor]).reshape(len(rows) * size, size)
    out = np.empty((len(pts), size))
    step = max(1, _BLOCK_FLOATS // (len(position) * size))
    for start in range(0, len(pts), step):
        values = basis_values(pts[start : start + step], degree)[:, rows]
        out[start : start + step] = values.reshape(len(values), -1) @ right
    return out
