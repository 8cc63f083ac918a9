"""The homogeneous monogenic polynomial basis and its exact derivative rule.

The basis element attached to a multi-index m is the fully symmetrised
product of the degree-one monogenic variables z_i = x_i - x0*e_i, normalised
so that applying the derivative rule m times and evaluating at the origin
yields exactly m!.  Equivalently, its restriction to the hyperplane x0 = 0
is the plain monomial x^m.

Evaluation uses the right-factor recursion

    V_m(x) = (1/|m|) * sum_i  m_i * V_{m-e_i}(x) * z_i(x),      V_0 = 1,

which regroups the permutation sum by last factor: it costs O(prod(m_i+1))
per point instead of |m|! and is exact at an exact point.

``FueterCache`` runs it one point at a time on ``CliffordNumber`` values; at
an exact point it is the reference.  ``basis_values`` runs it in floats over
a batch of points on dense numpy blade arrays, and ``basis_combination``
contracts it with series coefficients; float series evaluation, the sampled
sup norms and the Dirac residuals (``dirac_residuals``) use these blade arrays.
``ordered_words`` builds the unsymmetrised words z_1^m_1 ... z_n^m_n, the
non-monogenic negative control, on the same arrays; both take every factor
through one step, ``_times_z``: V z_j = V x_j - x0 (V e_j).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, Collection, Mapping

import numpy as np

from .clifford import CliffordNumber, Paravector, blade_signs, cl_mul
from .errors import DimensionMismatchError
from .multiindex import MultiIndex, enumerate_degree, enumerate_up_to, mi_abs
from .sampling import sphere_directions


def fueter_var(axis: int, x: Paravector) -> CliffordNumber:
    """The degree-one monogenic variable z_axis = x_axis - x0 * e_axis."""
    n = x.dim
    if not 1 <= axis <= n:
        raise ValueError(f"axis {axis} out of range 1..{n}")
    return CliffordNumber(n, {0: x.xv[axis - 1], 1 << (axis - 1): -x.x0})


class FueterCache:
    """Memoised basis evaluation at one fixed point, in the point's arithmetic:
    V_0 is Fraction(1) at an exact point and 1.0 otherwise, and the weights are
    Fraction(1, |m|), whose float is 1.0/|m|.

    The memo is confined to this object; share one cache per point per task.
    """

    def __init__(self, x: Paravector):
        self.n = x.dim
        self._vars = [fueter_var(i, x) for i in range(1, self.n + 1)]
        one = Fraction(1) if x.to_clifford().is_exact() else 1.0
        self._memo = {(0,) * self.n: CliffordNumber.scalar(self.n, one)}

    def value(self, m: MultiIndex) -> CliffordNumber:
        memo = self._memo
        got = memo.get(m)
        if got is not None:
            return got
        acc = CliffordNumber.zero(self.n)
        for i, mi in enumerate(m):
            if mi == 0:
                continue
            prev = self.value(tuple(v - 1 if j == i else v for j, v in enumerate(m)))
            acc = acc + cl_mul(prev, self._vars[i]).scale(mi)
        memo[m] = out = acc.scale(Fraction(1, mi_abs(m)))
        return out


def fueter_eval(m: MultiIndex, x: Paravector) -> CliffordNumber:
    """Evaluate the basis element for m at x (fresh cache; see FueterCache)."""
    return FueterCache(x).value(m)


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
    (sup,) = sampled_sups(n, {tuple(m): CliffordNumber.scalar(n, 1.0)}, [1.0], samples, seed)
    # the true sup is <= 1; trim float jitter at attaining points
    return min(sup, 1.0)


# ---------------------------------------------------------------------------
# Batched float evaluation
# ---------------------------------------------------------------------------

#: floats in one block of basis values (points x indices x blades), 512 KiB:
#: ``basis_combination`` evaluates its points in blocks of this size
_BLOCK_FLOATS = 1 << 16


@lru_cache(maxsize=None)
def _blade_signs(n: int) -> np.ndarray:
    """``clifford.blade_signs(n)`` as a read-only float array:
    e_a e_b = signs[a, b] * e_(a XOR b)."""
    table = np.array(blade_signs(n), dtype=float)
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


def _times_z(values: np.ndarray, pts: np.ndarray, axis: int, flip, sign) -> np.ndarray:
    """V z_axis = V x_axis - x0 (V e_axis) of a blade array V (P, K, 2^n) at
    points (P, n+1), with V e_axis from ``_layout``'s ``flip`` and ``sign``."""
    return values * pts[:, axis, None, None] - pts[:, :1, None] * (values[:, :, flip] * sign)


def basis_values(points, degree: int) -> np.ndarray:
    """Float values of every basis element with |m| <= degree at a batch of
    points: an array (P, #indices, 2^n) of blade coefficients.

    ``points`` is (P, n+1) with rows (x0, x1, ..., xn); the middle axis follows
    ``enumerate_up_to(n, degree)``.  The recursion runs degree by degree over
    all points at once and multiplies in the order ``FueterCache`` does, so
    each value equals ``FueterCache(x).value(m)`` at a float x.  The array holds
    every point; ``basis_combination`` bounds its size by working in blocks.
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[1] - 1
    position, steps = _layout(n, degree)
    out = np.zeros((len(pts), len(position), 1 << n))
    out[:, 0, 0] = 1.0
    for q, (lo, hi, axes) in enumerate(steps, start=1):
        acc = out[:, lo:hi]
        for axis, rows, prev, mult, flip, sign in axes:
            acc[:, rows] += _times_z(out[:, prev], pts, axis, flip, sign) * mult
        acc *= 1.0 / q
    return out


def ordered_words(points, degree: int) -> np.ndarray:
    """The unsymmetrised words z_1^m_1 ... z_n^m_n, not monogenic for mixed m,
    laid out as ``basis_values``.  W_m = W_(m - e_j) z_j with j the last axis
    where m_j > 0: the axes write their rows in turn, so the last one wins."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[1] - 1
    position, steps = _layout(n, degree)
    out = np.zeros((len(pts), len(position), 1 << n))
    out[:, 0, 0] = 1.0
    for lo, _, axes in steps:
        for axis, rows, prev, _, flip, sign in axes:
            out[:, lo + rows] = _times_z(out[:, prev], pts, axis, flip, sign)
    return out


def blade_rows(n: int, values: Collection[CliffordNumber]) -> np.ndarray:
    """The blade coefficients of each value as one float row: (len, 2^n)."""
    out = np.zeros((len(values), 1 << n))
    for s, a in enumerate(values):
        if a.dim != n:
            raise DimensionMismatchError(f"a value of dimension {a.dim} among rows of {n}")
        try:
            for mask, value in a.coeffs.items():
                out[s, mask] = value
        except OverflowError:  # an exact value beyond the float range
            a.to_float()  # raises the ValueError that names it
            raise
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
    dense = blade_rows(n, coeffs.values())
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


def dirac_residuals(
    evaluate: Callable[[np.ndarray], np.ndarray], x: Paravector, h: float = 1e-5
) -> list[float]:
    """Central-difference Dirac residual norm(d/dx0 f + sum_i e_i d/dx_i f) at x
    of K functions; small exactly when a function is monogenic.  ``evaluate``
    maps the offset points x + h e_0, x - h e_0, x + h e_1, ... (an array
    (2(n+1), n+1)) to their values, an array (2(n+1), K, 2^n); e_i acts by a
    signed blade permutation, and each residual is the ``CliffordNumber.norm``
    of its row (squares summed in mask order), so a NaN value gives NaN."""
    if not 0 < h < np.inf:
        raise ValueError(f"step h must be positive and finite, got {h}")
    n = x.dim
    points = np.array([x.components()] * (2 * n + 2), dtype=float)
    points[range(2 * n + 2), np.arange(2 * n + 2) // 2] += [h, -h] * (n + 1)
    values = evaluate(points)
    diff = (values[0::2] - values[1::2]) * (1.0 / (2.0 * h))
    acc = diff[0]
    for axis in range(1, n + 1):
        flip = np.arange(1 << n) ^ (1 << (axis - 1))  # (e_i d)[k] = sign(e_i e_flip) d[flip]
        acc = acc + diff[axis][:, flip] * _blade_signs(n)[1 << (axis - 1), flip]
    return [CliffordNumber(n, dict(enumerate(row))).norm() for row in acc.tolist()]


def sampled_sups(
    n: int, coeffs: Mapping[MultiIndex, CliffordNumber], radii, samples: int, seed: int = 0
) -> list[float]:
    """Sampled max of norm(sum_m V_m(x) a_m) on the sphere of each radius.

    One set of about ``samples`` directions (``sphere_directions``, axis points
    included) is scaled to every radius, and all points go through one
    ``basis_combination`` call.  An empty table is zero everywhere, and no
    point or sign table is built for it.
    """
    if not coeffs:
        return [0.0] * len(radii)
    dirs = sphere_directions(n + 1, samples, seed=seed)
    points = np.concatenate([r * dirs for r in radii])
    values = basis_combination(coeffs, points)
    with np.errstate(over="ignore"):
        moduli = np.linalg.norm(values, axis=1)
    # where the sum of squares underflows to 0 or overflows, hypot scales
    redo = ((moduli == 0.0) | (moduli == np.inf)) & np.isfinite(values).all(axis=1)
    moduli[redo] = np.hypot.reduce(values[redo], axis=1)
    return moduli.reshape(len(radii), -1).max(axis=1).tolist()
