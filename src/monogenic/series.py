"""Degree-truncated Taylor series in the monogenic polynomial basis.

A series is a table {m -> a_m} with all |m| <= degree, representing
f(x) = sum_m V_m(x) a_m: basis factor on the left, Clifford coefficient on
the right (left-monogenic convention throughout).  Series are immutable
values; every product states its output truncation degree explicitly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial, reduce
from itertools import accumulate, chain, islice
from operator import add, attrgetter, mul
from typing import Callable, Mapping

import numpy as np

from .clifford import CliffordNumber, Paravector, cl_mul, from_table
from .errors import DimensionMismatchError
from .fueter import (
    FueterCache,
    basis_combination,
    blade_partners,
    blade_rows,
    contraction_operand,
    dirac_residuals,
    sampled_sups,
)
from .multiindex import (
    MultiIndex,
    check_index,
    mi_abs,
    mi_factorial,
)


class MonogenicSeries:
    """Truncated expansion f = sum V_m(x) a_m with right Clifford coefficients."""

    __slots__ = ("n", "degree", "_coeffs", "_operand", "_norms")

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
        self._operand = self._norms = None

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

    def norms(self) -> tuple[float, ...]:
        """The ``CliffordNumber.norm`` of each coefficient, in table order:
        computed on first use and kept, as ``operand`` is.  The log norms,
        the degree norms and the coefficient upper bound read them."""
        if self._norms is None:
            self._norms = tuple(a.norm() for a in self._coeffs.values())
        return self._norms

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
        for m, norm in zip(self._coeffs, self.norms()):
            q = mi_abs(m)
            out[q] = out.get(q, 0.0) + norm
        return out

    def coeff_upper_bound(self, r: float) -> float:
        """sum_m norm(a_m) r^|m|, added in order: an upper bound for the max
        modulus at radius r.  A term whose power r^|m| is 0 is left out, so
        the infinite norm of an exact coefficient beyond the float range
        gives inf only where its term counts (never nan)."""
        terms = ((norm, r**q) for q, norm in self.degree_norms().items())
        return reduce(add, (norm * power for norm, power in terms if power), 0.0)

    def __repr__(self) -> str:
        return f"MonogenicSeries(n={self.n}, degree={self.degree}, {len(self._coeffs)} coefficients)"


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
        return from_table(f.n, {mask: v for mask, v in enumerate(row) if v})
    cache = FueterCache(x)
    acc = CliffordNumber.zero(f.n)
    for m, a in f._coeffs.items():
        acc = acc + cl_mul(cache.value(m), a)
    return acc


def series_derivative(f: MonogenicSeries, p: MultiIndex) -> MonogenicSeries:
    """Mixed partial of order p, (d^p f)_m = ((m+p)!/m!) a_{m+p}: the unit
    (ck) d^p f, the kernel's one-order call.  Indices come in f's order,
    blades in mask order, and zero blades are dropped."""
    check_index(p, f.n)
    drop = mi_abs(p)
    if drop == 0:
        return f
    new_degree = f.degree - drop
    if new_degree < 0:
        return MonogenicSeries(f.n, 0)
    unit = {(0,) * f.n: CliffordNumber.scalar(f.n, 1)}
    (out,) = ck_sums(f.n, [unit], [f._coeffs], [(0, 0, 0)], 1, new_degree, orders=[p])
    return MonogenicSeries(f.n, new_degree, out)


def ck_mul_left(f: MonogenicSeries, g: MonogenicSeries, q_out: int) -> MonogenicSeries:
    """Cauchy-Kowalewski product: coefficient convolution c_p = sum a_m b_k
    over m + k = p (Clifford product in that order), truncated at |p| <= q_out.

    One pair row of ``ck_sums``: the indices p come in the order of their
    first pair, looping over f and then g."""
    if f.n != g.n:
        raise DimensionMismatchError("CK product of series with different dimension")
    (out,) = ck_sums(f.n, [f._coeffs], [g._coeffs], [(0, 0, 0)], 1, q_out)
    return MonogenicSeries(f.n, q_out, out)


def _flatten(side: list) -> tuple[list[int], list[MultiIndex], np.ndarray, list[int], list]:
    """One side's tables as flat lists: (the first row of each table and the
    end, the index m of each row, and for every stored blade its row, its
    mask and its value).  A row is one coefficient."""
    values = [c.coeffs for t in side for c in t.values()]
    starts = [0, *accumulate(map(len, side))]
    index = list(chain.from_iterable(side))
    rows = np.repeat(np.arange(len(values)), list(map(len, values)))
    masks = list(chain.from_iterable(values))
    return starts, index, rows, masks, list(chain.from_iterable(map(dict.values, values)))


def _numerators(values: list) -> tuple[int, list[int]]:
    """Exact values as integer numerators over den, the lcm of their
    denominators: (den, numerators)."""
    dens = list(map(attrgetter("denominator"), values))
    den = math.lcm(*set(dens))
    nums = map(attrgetter("numerator"), values)
    if den == 1:
        return 1, list(nums)
    scale = {d: den // d for d in set(dens)}
    return den, list(map(mul, nums, map(scale.__getitem__, dens)))


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For item counts c_0, c_1, ...: the owner of each of the sum(c) items,
    owner by owner, and the item's place among its owner's."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys in increasing order, as the position of the first
    item with each, and the number of each item's key among them.  Stable
    sorts: np.unique pages in 0.5 MB more on its first call in a process."""
    order = np.argsort(keys, kind="stable")
    new = np.ones(len(order), bool)
    new[1:] = keys[order[1:]] != keys[order[:-1]]
    number = np.empty(len(order), np.intp)
    number[order] = np.cumsum(new) - 1
    return order[new], number


def _slots(
    n: int,
    a_start: list[int],
    a_index: list[MultiIndex],
    b_start: list[int],
    b_index: list[MultiIndex],
    pairs: np.ndarray | list,
    groups: int,
    q_out: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[tuple[int, MultiIndex]]]:
    """Every (pair, a-row, b-row) triple of the pair rows (group, i, j) with
    |m| + |k| <= q_out, row by row with a-rows before b-rows: the a-row,
    b-row and result slot of each triple, and the (group, p) of each slot.
    Slots are numbered in order of first appearance.

    The triples are a ragged expansion of the (pair, a-row) segments, and
    only the kept ones are listed: the b-rows a segment keeps depend only on
    its b-table and on how many distinct b-degrees fit beside |m|, and each
    such (table, rank) takes its kept rows once, in table order.  A result
    is one key, the group times radix^n plus key(p) in the radix of the
    largest index entries, so key(m + k) = key(m) + key(k); int64 while
    radix^n groups fits, and Python ints otherwise."""
    gid, pi, pj = np.asarray(pairs, np.intp).reshape(-1, 3).T
    a_start, b_start = np.asarray(a_start, np.intp), np.asarray(b_start, np.intp)
    seg_pair, local = _ragged(np.diff(a_start)[pi])
    if not len(seg_pair) or not b_index:
        return (np.empty(0, np.intp),) * 3 + ([],)
    seg_a = a_start[pi][seg_pair] + local

    radix = max(map(max, a_index)) + max(map(max, b_index)) + 1
    shift = radix**n
    dtype = np.int64 if groups * shift < 2**63 else object
    a_mi, b_mi = (np.array(index, dtype).reshape(-1, n) for index in (a_index, b_index))
    # below n (radix - 1) every |p| fits the keys' type, and none is above it
    cut = max(-1, min(q_out, n * (radix - 1)))
    # a b-row is kept beside an a-row when its rank among the distinct
    # b-degrees is below the number of them that fit beside |m|
    a_deg, b_deg = a_mi.sum(axis=1), b_mi.sum(axis=1)
    first, b_rank = _distinct(b_deg)
    levels = b_deg[first]
    span = len(levels) + 1
    seg_key = pj[seg_pair] * span + np.searchsorted(levels, cut - a_deg[seg_a], side="right")
    # the (table, rank) keys in use, each expanded once over its table
    combo, seg_combo = _distinct(seg_key)
    table, rank = seg_key[combo] // span, seg_key[combo] % span
    owner, local = _ragged(np.diff(b_start)[table])
    rows = b_start[table][owner] + local
    keep = b_rank[rows] < rank[owner]
    rows, width = rows[keep], np.bincount(owner[keep], minlength=len(combo))
    seg, local = _ragged(width[seg_combo])
    ia, ib, pair = seg_a[seg], rows[(np.cumsum(width) - width)[seg_combo][seg] + local], seg_pair[seg]
    powers = np.array([radix**e for e in range(n - 1, -1, -1)], dtype)
    keys = gid[pair].astype(dtype) * shift + (a_mi @ powers)[ia] + (b_mi @ powers)[ib]

    # number the distinct keys in order of their first triple
    first, key_id = _distinct(keys)
    seen = np.argsort(first, kind="stable")
    slot, head = np.argsort(seen, kind="stable")[key_id], first[seen]
    p = (a_mi[ia[head]] + b_mi[ib[head]]).tolist()
    return ia, ib, slot, list(zip(gid[pair[head]].tolist(), map(tuple, p)))


def _shifted(n: int, b_start: list, b_index: list, b_row: np.ndarray, orders: list) -> tuple:
    """d^s of each right table by each s of orders: table j * len(orders) + i
    is the rows l >= s = orders[i] of table j, in order, moved to l - s.
    Returns the starts, the indices, each blade's row and source blade, and
    each row's weight prod_a l_a! / (l_a - s_a)!, int64 while top(l)^|s| fits."""
    dtype = np.int64 if max(map(max, chain(b_index, orders)), default=0) < 2**63 else object
    table, local = _ragged(np.repeat(np.diff(b_start), len(orders)))
    src = np.asarray(b_start, np.intp)[table // len(orders)] + local
    l = np.array(b_index, dtype).reshape(-1, n)[src]
    s = np.array(orders, dtype).reshape(-1, n)[table % len(orders)]
    keep = (l >= s).all(axis=1)
    l, s, src, table = l[keep], s[keep], src[keep], table[keep]
    if int(l.max(initial=0)).bit_length() * int(s.sum(axis=1).max(initial=0)) >= 63:
        l, s = l.astype(object), s.astype(object)
    weight = np.ones(len(l), l.dtype)
    for t in range(int(s.max(initial=0))):  # the factors l_a - t with t < s_a
        weight *= np.where(s > t, l - t, 1).prod(axis=1)
    counts = np.bincount(b_row, minlength=len(b_index))
    row, local = _ragged(counts[src])
    blade = (np.cumsum(counts) - counts)[src][row] + local
    starts = [0, *np.cumsum(np.bincount(table, minlength=(len(b_start) - 1) * len(orders))).tolist()]
    return starts, list(map(tuple, (l - s).tolist())), row, blade, weight


_INF_FLOOR = 2**1024 - 2**970  # the least integer that a float conversion rounds to inf

#: numerators in one block of blade products
_BLOCK = 1 << 15


def ck_sums(
    n: int,
    left: list[Mapping[MultiIndex, CliffordNumber]],
    right: list[Mapping[MultiIndex, CliffordNumber]],
    pairs: np.ndarray | list,
    groups: int,
    q_out: int,
    orders: list[MultiIndex] | None = None,
) -> list[dict[MultiIndex, CliffordNumber]]:
    """Per group g < groups, the sum of the CK products left[i] (ck)
    right[j] over its pair rows (g, i, j), one flat (k, 3) int array,
    truncated at |p| <= q_out: the one convolution of both modes.  With
    ``orders``, the pair takes d^s right[j] with s = orders[i]
    (``_shifted``), weighted before any product; ``series_derivative`` is
    the call of one order with the unit on the left.

    The bookkeeping is on arrays, with no Python step per group or triple.
    Each side is one dense array of numerators, 2^n blades by coefficients.
    Every (pair, m, k) triple with |m| + |k| <= q_out is listed at once by
    ``_slots``, row by row with m before k, and the products of a block of
    triples are scatter-added into one row per (group, p).
    Exact values multiply in int64 when max|a| max|b| 2^n #triples < 2^63
    proves that no sum overflows, and in Python ints (object arrays)
    otherwise; each distinct result numerator becomes one Fraction.
    Int-only input gives ints; a float anywhere makes the call float64.
    Every result keeps only its nonzero blades, in mask order, and one with
    none is left out; a group's indices come in the order of their first
    pair."""
    (a_start, a_index, a_row, a_mask, a_vals), (b_start, b_index, b_row, b_mask, b_vals) = (
        _flatten(side) for side in (left, right)
    )
    pairs = np.asarray(pairs, np.intp).reshape(-1, 3)
    if orders is not None:  # the pair (i, j) meets table j * len(orders) + i
        b_start, b_index, b_row, blade, weight = _shifted(n, b_start, b_index, b_row, orders)
        b_mask = np.array(b_mask, np.intp)[blade]
        pairs = pairs @ [[1, 0, 0], [0, 1, 1], [0, 0, len(orders)]]
    ia, ib, slot, heads = _slots(n, a_start, a_index, b_start, b_index, pairs, groups, q_out)
    out: list[dict[MultiIndex, CliffordNumber]] = [{} for _ in range(groups)]
    if not heads:
        return out
    kinds = set(map(type, chain(a_vals, b_vals)))
    exact = kinds <= {int, Fraction}
    size = 1 << n
    if exact:
        (den_a, a_vals), (den_b, b_vals) = _numerators(a_vals), _numerators(b_vals)
        den = den_a * den_b
        top_a, top_b = (max(map(abs, vals), default=0) for vals in (a_vals, b_vals))
        if orders is not None:  # the weights scale the right numerators
            top_b *= int(weight.max(initial=1))
        # each side must also fit on its own, for when the other is empty
        fits = max(top_a, top_b) < 2**63 and top_a * top_b * size * len(slot) < 2**63
        dtype = np.int64 if fits else object
    else:
        dtype = np.float64
        if orders is not None and weight.dtype == object:  # rounded as IEEE does
            weight = np.where(weight < _INF_FLOOR, weight, np.inf)
    # both sides blade-major, so that the triples of a block are the last
    # axis of every array in the products and each multiply runs along them
    A, B = np.zeros((size, len(a_index)), dtype), np.zeros((size, len(b_index)), dtype)
    A[a_mask, a_row] = np.array(a_vals, dtype)
    partner, sign = blade_partners(n)
    live = sorted(set(a_mask))
    A, partner, sign = A[live], partner[live], sign[live, :, None].astype(dtype)
    sums = np.zeros((len(heads), size), dtype)
    step = max(1, _BLOCK // (len(live) * size))
    with np.errstate(over="ignore", invalid="ignore"):
        b_vals = np.array(b_vals, dtype)  # a weight multiplies stored blades only
        B[b_mask, b_row] = b_vals if orders is None else b_vals[blade] * weight.astype(dtype)[b_row]
        # a blade that a value does not have adds nothing, even against inf or NaN
        unfinite = not exact and not (np.isfinite(A).all() and np.isfinite(B).all())
        for lo in range(0, len(slot), step):
            # terms[a, c, t] = sign[a, a ^ c] B[a ^ c, t] A[a, t]: the part of
            # e_c in e_a times the right value, for each triple t
            at, terms = A.take(ia[lo : lo + step], axis=1)[:, None], B.take(ib[lo : lo + step], axis=1)[partner]
            zero = (terms == 0) | (at == 0) if unfinite else None
            terms *= sign
            terms *= at
            if unfinite:
                terms[zero] = 0
            # the sum over a, one reduction along the first axis, adds in
            # mask order
            np.add.at(sums, slot[lo : lo + step], terms.sum(axis=0).T)

    row, mask = np.nonzero(sums)
    values = sums[row, mask].tolist()
    if exact and Fraction in kinds:
        table = {v: Fraction(v, den) for v in set(values)}
        values = list(map(table.__getitem__, values))
    blades = zip(mask.tolist(), values)
    for (g, p), count in zip(heads, np.count_nonzero(sums, axis=1).tolist()):
        if count:
            out[g][p] = from_table(n, dict(islice(blades, count)))
    return out


def dirac_residual(
    f: MonogenicSeries | Callable[[Paravector], CliffordNumber],
    points: list[Paravector],
    h: float = 1e-5,
) -> float:
    """Max over the points (NaN if any is NaN, 0.0 for none) of the Dirac
    residual of a series or point function, in one ``dirac_residuals``
    call.  A series is one ``basis_combination`` call on all offset points;
    a point function's values go into rows by ``blade_rows``, which raises
    ``DimensionMismatchError`` for a value of another dimension."""
    if isinstance(f, MonogenicSeries):
        evaluate = partial(basis_combination, f.operand())
    else:
        evaluate = lambda pts: blade_rows(
            pts.shape[1] - 1, [f(Paravector.from_components(p)) for p in pts.tolist()]
        )
    return float(np.max(dirac_residuals(lambda pts: evaluate(pts)[:, None], points, h), initial=0.0))


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
    if f.is_zero():  # no point is built, in any dimension
        return 0.0, upper
    if r == 0:
        exact = f.coeff((0,) * f.n).norm()
        return exact, max(upper, exact)
    (lower,) = sampled_sups(f.operand(), [r], samples, seed)
    return lower, upper


def taylor_coefficient(f: MonogenicSeries, m: MultiIndex) -> CliffordNumber:
    """Recover a_m as (d^m f)(0) / m!; exact round trip in exact mode."""
    value = series_derivative(f, m).coeff((0,) * f.n)
    fact = mi_factorial(m)
    return value.scale(Fraction(1, fact) if value.is_exact() else 1.0 / fact)
