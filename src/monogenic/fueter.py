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

Each V_m is paravector-valued: it lives in the n+1 blades 1, e_1, ..., e_n
(H. Malonek, "Power series representation for monogenic functions in
R^{m+1} based on a permutational product", Complex Variables 15, 1990).

``FueterCache`` runs it one point at a time on ``CliffordNumber`` values and
keeps the paravector blades of each; at an exact point it is the reference.
``basis_values`` runs it in floats over a batch of points on dense numpy
arrays of those n+1 blades, one step per degree: the values of degree q - 1
are multiplied by all n variables z_i in one array operation
(``_z_products``: V z_i = V x_i - x0 (V e_i)), and each row of degree q
gathers and sums its products.  ``ordered_words`` builds the unsymmetrised
words z_1^m_1 ... z_n^m_n, the non-monogenic negative control, from the
same products on all 2^n blades, as the words are not paravector-valued.
One table per blade set (``_blade_set``) gives right multiplication by
each e_i inside it.  Each batched evaluation works in blocks of points
(``_point_blocks``) whose products of one degree hold at most 512 KiB
(``_BLOCK_FLOATS``) at the width of the blade set evaluated.
``basis_combination`` contracts the values with a coefficient table
through its ``contraction_operand``, the (S(n+1), 2^n) matrix of right
multiplication by the S coefficients, which a float series builds once and
keeps; float series evaluation and the Dirac residuals (``dirac_residuals``,
all base points in one call) use it.  Each point's row is a product of its
own (``_contract``), so no bit of it depends on which points share the call.

A sampled sup uses V_m(r d) = r^|m| V_m(d): the basis is evaluated once, at
unit directions d, and each block's degree-q rows are contracted apart into
S_q(d) = sum_(|m| = q) V_m(d) a_m, (Q+1, P_block, 2^n) (``_degree_sums``).
``sampled_sups`` takes each radius by Horner's rule ((S_Q r + S_(Q-1)) r +
...) r + S_0 begun at 0, and ``degree_sups`` takes each S_q itself.

This module owns the Clifford array layer: ``blade_partners`` is the one
sign table that every array kernel reads (``series.ck_sums`` too), and
``row_norms`` is the one modulus of a blade row.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import pairwise
from typing import Callable, Collection, Mapping, Sequence

import numpy as np

from .clifford import CliffordNumber, Paravector, cl_mul
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
    Fraction(1, |m|), whose float is 1.0/|m|.  Each value keeps its
    paravector blades 1, e_1, ..., e_n only: V_m is paravector-valued
    (Malonek, Complex Variables 15, 1990), so at an exact point the other
    blades are exact zeros, and at a float point they are rounding residue,
    which the batched kernel does not carry either.

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
        weight = Fraction(1, mi_abs(m))
        paravector = {mask: v * weight for mask, v in acc.coeffs.items() if not mask & (mask - 1)}
        memo[m] = out = CliffordNumber(self.n, paravector)
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
    operand = contraction_operand(n, {tuple(m): CliffordNumber.scalar(n, 1.0)})
    (sup,) = sampled_sups(operand, [1.0], samples, seed)
    # the true sup is <= 1; trim float jitter at attaining points
    return min(sup, 1.0)


# ---------------------------------------------------------------------------
# Batched float evaluation
# ---------------------------------------------------------------------------

#: floats in the largest array of one block of points, 512 KiB: the products
#: of a degree's values with all n variables, at most #indices x width x n
#: per point, with the width of the blade set evaluated (``_blade_set``);
#: every batched evaluation works in blocks of this size
_BLOCK_FLOATS = 1 << 16


@lru_cache(maxsize=None)
def blade_partners(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The one blade sign table, read-only: for each left blade a and result
    blade c, the partner a ^ c and the sign in e_a e_(a ^ c) = sign * e_c,
    both (2^n, 2^n) int arrays.  A kernel casts the signs to its data's type
    where it multiplies: a mixed-type multiply is one more numpy loop to
    page in."""
    blades = np.arange(1 << n)
    partner = blades[:, None] ^ blades
    # as in blade_product, e_a e_b = (-1)^f e_(a ^ b), where each unit i of
    # b counts the units of a at i and above (a swap past each higher unit,
    # a square for the unit i itself): f is odd when b has an odd number of
    # units among the i where a has an odd number at i and above (odd_above)
    counts = [x.bit_count() for x in range(1 << n)]
    parity_sign = np.array([1 - 2 * (c & 1) for c in counts])
    odd_above = np.array([sum(1 << i for i in range(n) if counts[a >> i] & 1) for a in range(1 << n)])
    sign = parity_sign[partner & odd_above[:, None]]
    partner.flags.writeable = sign.flags.writeable = False
    return partner, sign


@lru_cache(maxsize=None)
def _layout(n: int, degree: int) -> tuple[dict[MultiIndex, int], tuple]:
    """Row of every index |m| <= degree (the order of ``enumerate_up_to``)
    and per degree q >= 1 a step (lo, hi, plo, gather, mult, last) from the
    rows plo:lo of degree q - 1 to the rows lo:hi of degree q.  Its tables
    index the products of ``_z_products``: ``gather[i, k]`` is V_(m - e_(i+1))
    z_(i+1) for the index m of row lo + k, or the zero row where m_(i+1) = 0,
    ``mult[i, k]`` is m_(i+1), and ``last[k]`` the product of the last axis
    with m_j > 0."""
    position = {m: row for row, m in enumerate(enumerate_up_to(n, degree))}
    steps = []
    plo, lo = 0, 1
    for q in range(1, degree + 1):
        block = enumerate_degree(n, q)
        zero = (lo - plo) * n
        gather = np.full((n, len(block)), zero)
        for k, m in enumerate(block):
            for i in range(n):
                if m[i]:
                    prev = tuple(v - (j == i) for j, v in enumerate(m))
                    gather[i, k] = (position[prev] - plo) * n + i
        last = [next(g for g in col[::-1] if g != zero) for col in gather.T.tolist()]
        mult = np.array(block, dtype=float).T[:, :, None, None]
        steps.append((lo, lo + len(block), plo, gather, mult, np.array(last)))
        plo, lo = lo, lo + len(block)
    return position, tuple(steps)


@lru_cache(maxsize=None)
def _blade_set(n: int, words: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The blades that a batched evaluation carries, ascending: all 2^n for
    the words, the n+1 paravector blades 1, e_1, ..., e_n for the basis.
    With them the one right-multiplication table of the set, read from
    ``blade_partners``: (V e_i)[b] = sign(e_(b ^ e_i) e_i) V[b ^ e_i] as a
    slot permutation ``flips`` (n, width) and its signs ``signs`` (n, width,
    1, float).  Where b ^ e_i lies outside the set (a paravector set with
    n >= 2), the set has one more slot, last, that holds zero: such a
    partner reads it with sign 0, and so does the slot itself."""
    partner, sign = blade_partners(n)
    blades = np.arange(1 << n) if words else np.array([0] + [1 << i for i in range(n)])
    slot = np.full(1 << n, len(blades))  # a blade outside the set: the zero slot
    slot[blades] = range(len(blades))
    masks = partner[[1 << i for i in range(n)]][:, blades]
    flips = slot[masks]
    inside = flips < len(blades)
    signs = np.where(inside, sign[masks, blades], 0)
    if not inside.all():
        flips = np.column_stack([flips, [len(blades)] * n])
        signs = np.column_stack([signs, [0] * n])
    return blades, flips, signs[..., None].astype(float)


def _z_products(block: np.ndarray, pts: np.ndarray, flips, sx0: np.ndarray) -> np.ndarray:
    """Every product V z_i = V x_i - x0 (V e_i), i = 1..n, of a block V
    (K, width, P) of blade-set arrays at points (n+1, P), with V e_i from
    ``_blade_set``'s ``flips`` and sx0 = signs x0, (n, width, P): an array
    (K n + 1, width, P) whose row r n + i - 1 is V_r z_i and whose last row
    is zero."""
    k, size, count = block.shape
    out = np.empty((k * len(flips) + 1, size, count))
    out[-1] = 0.0
    prod = out[:-1].reshape(k, len(flips), size, count)
    np.multiply(block[:, None], pts[1:, None], out=prod)
    prod -= block[:, flips] * sx0
    return out


def _basis_block(pts: np.ndarray, degree: int, words: bool = False) -> np.ndarray:
    """``basis_values`` (``ordered_words`` with ``words``) with the points on
    the last axis and the blades of ``_blade_set``: points (n+1, P), values
    (#indices, width, P), whose zero slot, if any, is last."""
    n = len(pts) - 1
    position, steps = _layout(n, degree)
    _, flips, signs = _blade_set(n, words)
    sx0 = signs * pts[0]
    out = np.zeros((len(position), flips.shape[1], pts.shape[1]))
    out[0, 0] = 1.0
    for q, (lo, hi, plo, gather, mult, last) in enumerate(steps, start=1):
        products = _z_products(out[plo:lo], pts, flips, sx0)
        if words:
            out[lo:hi] = products[last]
            continue
        terms = products[gather]
        terms *= mult
        acc = out[lo:hi]
        for term in terms:
            acc += term
        acc *= 1.0 / q
    return out


def _point_blocks(pts: np.ndarray, degree: int, words: bool = False) -> list[slice]:
    """Consecutive blocks of the points (P, n+1) whose products of one degree
    hold at most ``_BLOCK_FLOATS`` floats, at the width of the blade set
    evaluated; the recursion is pointwise, so no bit depends on the blocks.
    A block's values are best passed on unnamed, so that they are freed
    before the next block is evaluated."""
    n = pts.shape[1] - 1
    width = _blade_set(n, words)[1].shape[1]
    step = max(1, _BLOCK_FLOATS // (len(_layout(n, degree)[0]) * n * width))
    return [slice(start, start + step) for start in range(0, len(pts), step)]


def _evaluate(points, degree: int, words: bool) -> np.ndarray:
    """``_basis_block`` at points (P, n+1), a block of points at a time,
    scattered into blade arrays of 2^n (0.0 at a blade outside the set; a
    set of all 2^n blades is one slice, which costs no gather)."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[1] - 1
    blades = _blade_set(n, words)[0]
    columns = slice(None) if len(blades) == 1 << n else blades
    out = np.zeros((len(pts), len(_layout(n, degree)[0]), 1 << n))
    for block in _point_blocks(pts, degree, words):
        out[block, :, columns] = _basis_block(pts[block].T, degree, words)[:, : len(blades)].transpose(2, 0, 1)
    return out


def basis_values(points, degree: int) -> np.ndarray:
    """Float values of every basis element with |m| <= degree at a batch of
    points: an array (P, #indices, 2^n) of blade coefficients, 0.0 at every
    blade but 1, e_1, ..., e_n.

    ``points`` is (P, n+1) with rows (x0, x1, ..., xn); the middle axis follows
    ``enumerate_up_to(n, degree)``.  Each row m of degree q sums its products
    m_i V_(m - e_i) z_i in axis order onto +0.0; an absent axis adds a zero
    row, which changes no bit of a sum that starts at +0.0.  So it multiplies
    and adds in the order ``FueterCache`` does, and each value equals
    ``FueterCache(x).value(m)`` at a float x.
    """
    return _evaluate(points, degree, False)


def ordered_words(points, degree: int) -> np.ndarray:
    """The unsymmetrised words z_1^m_1 ... z_n^m_n, not monogenic for mixed m,
    laid out as ``basis_values``: W_m = W_(m - e_j) z_j with j the last axis
    where m_j > 0, one gather of the products per degree.  Each blade of a
    product is a sum of two products, one signed by +-1, so the words equal
    the ``cl_mul`` products taken factor by factor."""
    return _evaluate(points, degree, True)


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


def contraction_operand(
    n: int, coeffs: Mapping[MultiIndex, CliffordNumber]
) -> tuple[int, np.ndarray, np.ndarray]:
    """What ``basis_combination`` needs of a coefficient table, built once
    per table: (degree, rows, right), with degree the largest |m|, rows the
    row of each index among ``enumerate_up_to(n, degree)``, ascending, and
    right the (#coeffs (n+1), 2^n) matrix of right multiplication by the
    coefficients in that order, so that each degree is one slice of both.
    Its rows are those that a paravector value reads: each V_m is
    paravector-valued (Malonek, Complex Variables 15, 1990), so only its
    blades 1, e_1, ..., e_n multiply a coefficient.  A ``MonogenicSeries``
    keeps its operand.  An empty table builds no layout or sign table."""
    if not coeffs:
        return 0, np.empty(0, dtype=np.intp), np.empty((0, 1 << n))
    degree = max(map(mi_abs, coeffs))
    position = _layout(n, degree)[0]
    order = sorted(coeffs, key=position.__getitem__)
    rows = np.array([position[m] for m in order], dtype=np.intp)
    dense = blade_rows(n, [coeffs[m] for m in order])
    # right multiplication by a: (v a)[k] = sum_b v[b] sign[b, k] a[b ^ k],
    # over the paravector blades b
    blades = _blade_set(n, False)[0]
    partner, sign = blade_partners(n)
    right = (sign[blades].astype(float) * dense[:, partner[blades]]).reshape(-1, 1 << n)
    right.flags.writeable = False
    return degree, rows, right


def basis_combination(operand: tuple[int, np.ndarray, np.ndarray], points) -> np.ndarray:
    """sum_m V_m(x) a_m at every point: an array (P, 2^n), one row per point.

    ``operand`` is the table's ``contraction_operand`` and ``points`` is
    (P, n+1) as for ``basis_values``; points of another width raise
    ``DimensionMismatchError``.  A value beyond the float range is inf or
    NaN, without a warning.  A row has the bits of its one-point call.
    """
    degree, rows, right = operand
    n = right.shape[1].bit_length() - 1
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != n + 1:
        raise DimensionMismatchError(
            f"points of shape {pts.shape} for a series of dimension {n}: expected rows of {n + 1}"
        )
    out = np.empty((len(pts), right.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        for block in _point_blocks(pts, degree):
            out[block] = _contract(_basis_block(pts[block].T, degree)[rows, : n + 1], right)
    return out


def _contract(values: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Values (K, n+1, P) of a block's operand rows times ``right``: (P, 2^n),
    one stacked matmul of C-contiguous (P, 1, K (n+1)) rows, which takes each
    row as a one-point call does; a gemm over all rows, or strided rows, would
    not, as BLAS picks its summation order by shape."""
    return np.matmul(np.ascontiguousarray(values.reshape(-1, values.shape[2]).T)[:, None], right)[:, 0]


def _degree_sums(operand: tuple[int, np.ndarray, np.ndarray], samples: int, seed: int):
    """The degree sums S_q(d), q = 0..Q, at about ``samples`` unit directions
    (``sphere_directions``, axis points included), one array (Q+1, P_block,
    2^n) per block of them: one basis evaluation and one product per degree."""
    degree, rows, right = operand
    n = right.shape[1].bit_length() - 1
    cuts = np.searchsorted(rows, [0, 1] + [step[1] for step in _layout(n, degree)[1]]).tolist()
    parts = [(rows[a:b], right[a * (n + 1) : b * (n + 1)]) for a, b in pairwise(cuts)]
    dirs = sphere_directions(n + 1, samples, seed=seed)
    for block in _point_blocks(dirs, degree):
        values = _basis_block(dirs[block].T, degree)
        yield np.stack([_contract(values[rq, : n + 1], part) for rq, part in parts])


def row_norms(rows: np.ndarray) -> np.ndarray:
    """The ``CliffordNumber.norm`` of each blade row of an array (K, 2^n),
    bit for bit and whatever K: the one blade-row modulus, of the sampled
    sups and the Dirac residuals.  The squares are added column by column
    in mask order, a plain float sum (numpy's own sum is pairwise along a
    single row), then the square root; only a row whose sum underflows to
    0 or overflows goes through math.hypot.  A NaN value gives NaN."""
    with np.errstate(over="ignore"):
        norms = np.sqrt(reduce(np.add, (rows * rows).T))
    for k in np.flatnonzero((norms == 0.0) | (norms == np.inf)).tolist():
        norms[k] = math.hypot(*rows[k].tolist())
    return norms


def dirac_residuals(
    evaluate: Callable[[np.ndarray], np.ndarray], points: Sequence[Paravector], h: float = 1e-5
) -> list[list[float]]:
    """Central-difference Dirac residuals norm(d/dx0 f + sum_i e_i d/dx_i f)
    of K functions at P base points x, one row of K per point; small exactly
    where a function is monogenic.  ``evaluate`` is called once, on the
    offset points x + h e_0, x - h e_0, x + h e_1, ... of each point in turn
    (an array (2(n+1) P, n+1)), and returns their values (2(n+1) P, K, 2^n);
    e_i acts by the signed blade permutation of ``blade_partners``.  Each
    residual is the ``row_norms`` of its row: the residual assembled from
    ``CliffordNumber`` values, bit for bit, whatever shares the call.  No
    point gives no row and no call; base points of different dimensions
    raise ``DimensionMismatchError``."""
    if not 0 < h < np.inf:
        raise ValueError(f"step h must be positive and finite, got {h}")
    if not points:
        return []
    n = points[0].dim
    if any(x.dim != n for x in points):
        raise DimensionMismatchError(f"base points of dimensions {sorted({x.dim for x in points})}")
    offsets = np.array([[x.components()] * (2 * n + 2) for x in points], dtype=float)
    offsets[:, range(2 * n + 2), np.arange(2 * n + 2) // 2] += [h, -h] * (n + 1)
    values = evaluate(offsets.reshape(-1, n + 1)).reshape(len(points), 2 * n + 2, -1, 1 << n)
    diff = (values[:, 0::2] - values[:, 1::2]) * (1.0 / (2.0 * h))
    partner, sign = blade_partners(n)
    acc = diff[:, 0]
    for axis in range(1, n + 1):
        e = 1 << (axis - 1)  # (e_i d)[k] = sign(e_i e_(e_i ^ k)) d[e_i ^ k]
        acc = acc + diff[:, axis][..., partner[e]] * sign[e].astype(float)
    return row_norms(acc.reshape(-1, 1 << n)).reshape(len(points), -1).tolist()


def _maxima(blocks) -> list[float]:
    """The largest ``row_norms`` of each of the K row sets over blocks of
    rows (K, P_block, 2^n); NaN if a row is."""
    with np.errstate(over="ignore", invalid="ignore"):
        maxima = (row_norms(b.reshape(-1, b.shape[2])).reshape(len(b), -1).max(1) for b in blocks)
        return reduce(np.maximum, maxima).tolist()


def sampled_sups(operand: tuple, radii, samples: int, seed: int = 0) -> list[float]:
    """Sampled max of norm(sum_m V_m(x) a_m) on the sphere of each radius,
    for the table whose ``contraction_operand`` is given: the largest
    ``row_norms`` of its values at the radius, by Horner's rule on the
    degree sums at the directions."""
    r = np.array(radii, dtype=float)[:, None, None]
    horner = lambda sums: reduce(lambda acc, s: acc * r + s, sums[::-1], np.zeros_like(r))
    return _maxima(map(horner, _degree_sums(operand, samples, seed)))


def degree_sups(operand: tuple, samples: int, seed: int = 0) -> list[float]:
    """Sampled max of norm(S_q) on the unit sphere for q = 0..Q, the
    directions of ``sampled_sups``: each homogeneous part's unit-ball sup."""
    return _maxima(_degree_sums(operand, samples, seed))
