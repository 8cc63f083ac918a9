"""Formal differential operators of unbounded order with monogenic coefficients.

An operator is a finitely supported table {m -> u_m} standing for
P = sum_m u_m(x) (ck) d^m, acting on series by CK-multiplying each mixed
partial by its coefficient.  The table of values on the polynomial basis,
b_p = P(V_p)/p!, determines the operator and vice versa:

    b_p = sum_{m <= p} u_m (ck) V_{p-m} / (p-m)!
    u_m = sum_{p <= m} b_p (ck) V_{m-p}(-x) / (m-p)!

and the two maps invert each other exactly (the inner multi-binomial sums
telescope to (1-1)^{m-p}).  V_k(-x) is realised coefficient-side as the sign
(-1)^|k|, never by point negation.  The application and both maps are each
one call of the CK kernel ``series.ck_sums``: it takes each d^m f on its
own rows, and its own listing gives the pairs (m, p - m).

Class membership in the decay-certified operator families is decided on
finite grids: for each (rate, weight) pair the smallest admissible constant
is fitted and the trend of the per-degree requirement is examined; nothing
asymptotic is ever claimed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping

import numpy as np

from .clifford import CliffordNumber
from .errors import DimensionMismatchError
from .growth import ProximateOrder, ln_sum, per_degree, tail_ln_sums, weighted_norm_ln
from .multiindex import (
    MultiIndex,
    check_index,
    enumerate_up_to,
    ln_c_nm,
    mi_abs,
    mi_factorial,
)
from .series import MonogenicSeries, _slots, ck_sums


def _check_entries(
    n: int, entries: Mapping[MultiIndex, MonogenicSeries], degree: int | None = None
) -> None:
    """Raise unless every key is a multi-index of length n (of degree at most
    ``degree`` when given) and every entry a series in dimension n."""
    for m, u in entries.items():
        check_index(m, n, degree)
        if u.n != n:
            raise DimensionMismatchError(f"entry at {m} does not live in dimension {n}")


def _same_tables(
    a: Mapping[MultiIndex, MonogenicSeries], b: Mapping[MultiIndex, MonogenicSeries]
) -> bool:
    """Whether two tables of series have the same nonzero coefficients at
    every index, a missing entry counting as zero (declared truncation
    degrees ignored)."""
    zero: dict = {}
    return all(
        (a[m].coeffs if m in a else zero) == (b[m].coeffs if m in b else zero)
        for m in a.keys() | b.keys()
    )


class OperatorSymbol:
    """Finitely supported coefficient table of a formal differential operator."""

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries: Mapping[MultiIndex, MonogenicSeries] | None = None):
        if n < 1:
            raise ValueError(f"operator dimension must be >= 1, got {n}")
        self.n = n
        entries = entries or {}
        _check_entries(n, entries)
        self.entries = {tuple(m): u for m, u in entries.items() if not u.is_zero()}

    @classmethod
    def identity(cls, n: int, exact: bool = True) -> "OperatorSymbol":
        return cls(n, {(0,) * n: MonogenicSeries.unit(n, exact=exact)})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OperatorSymbol):
            return NotImplemented
        return self.n == other.n and _same_tables(self.entries, other.entries)

    def __repr__(self) -> str:
        order = max(map(mi_abs, self.entries), default=0)
        return f"OperatorSymbol(n={self.n}, {len(self.entries)} coefficients, order<= {order})"


@dataclass
class HomTable:
    """Values of a right-linear map on the polynomial basis: p -> F(V_p)/p!.

    Complete tables carry an entry (possibly zero) for every |p| <= degree.
    """

    n: int
    degree: int
    entries: dict[MultiIndex, MonogenicSeries]

    def __post_init__(self):
        if self.n < 1 or self.degree < 0:
            raise ValueError(
                f"hom table needs n >= 1 and degree >= 0, got n={self.n}, degree={self.degree}"
            )
        _check_entries(self.n, self.entries, self.degree)

    def missing(self) -> list[MultiIndex]:
        return [p for p in enumerate_up_to(self.n, self.degree) if p not in self.entries]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HomTable):
            return NotImplemented
        return (self.n, self.degree) == (other.n, other.degree) and _same_tables(
            self.entries, other.entries
        )


def op_apply(P: OperatorSymbol, f: MonogenicSeries, q_out: int) -> MonogenicSeries:
    """Apply the operator: sum_m u_m (ck) d^m f, truncated at q_out; exact in exact mode."""
    return apply_each(P, [f], q_out)[0]


def apply_each(P: OperatorSymbol, fs: list[MonogenicSeries], q_out: int) -> list[MonogenicSeries]:
    """``op_apply`` of P to each series f in one ``ck_sums`` call: the pair
    rows (j, i, j) of u_{m_i} and f_j, group j for f_j, under the orders
    m_i, so the kernel takes d^m f."""
    for f in fs:
        if f.n != P.n:
            raise DimensionMismatchError(f"operator dimension {P.n} != series dimension {f.n}")
    j, i = np.indices((len(fs), len(P.entries))).reshape(2, -1)
    left, right = [u.coeffs for u in P.entries.values()], [f.coeffs for f in fs]
    tables = ck_sums(P.n, left, right, np.stack([j, i, j], axis=1), len(fs), q_out, orders=list(P.entries))
    return [MonogenicSeries(P.n, q_out, table) for table in tables]


def _basis_transform(
    n: int, degree: int, entries: Mapping[MultiIndex, MonogenicSeries], sign: int
) -> dict[MultiIndex, MonogenicSeries]:
    """t -> sum_{s <= t} entries[s] (ck) sign^|t-s| V_{t-s} / (t-s)! for every
    |t| <= degree: the forward map with sign +1, its inverse with sign -1.

    For each t one ``ck_sums`` group of the pairs (entries[s], sign^|k| / k!
    V_k), k = t - s, in entry order: the kernel's listing (``_slots``) of
    every |s + k| <= degree, with an empty entry at the zero index first so
    that the t come in the order of the indices, gives the pair rows
    (t, s, k) as its slot, a-row and b-row columns.  The kernel rounds the
    Fraction factors to floats beside a float entry.  Nothing is truncated."""
    indices = enumerate_up_to(n, degree)
    factors = [{k: CliffordNumber.scalar(n, Fraction(sign ** mi_abs(k), mi_factorial(k)))} for k in indices]
    sources = [(0,) * n, *entries]
    s, k, t, _ = _slots(n, [0, len(sources)], sources, [0, len(indices)], indices, [(0, 0, 0)], 1, degree)
    q_out = max((u.degree for u in entries.values()), default=0) + degree
    left = [{}, *(u.coeffs for u in entries.values())]
    tables = ck_sums(n, left, factors, np.stack([t, s, k], axis=1), len(indices), q_out)
    return {
        t: MonogenicSeries(n, max(map(mi_abs, table), default=0), table)
        for t, table in zip(indices, tables)
    }


def op_to_hom(P: OperatorSymbol, q_table: int) -> HomTable:
    """Basis-value table of the operator up to degree q_table.

    Each value is carried at full degree (coefficient degree bound plus
    q_table) so the inversion below loses nothing.
    """
    return HomTable(n=P.n, degree=q_table, entries=_basis_transform(P.n, q_table, P.entries, 1))


def hom_to_op(H: HomTable) -> OperatorSymbol:
    """Invert a complete basis-value table into the operator coefficients."""
    if gaps := H.missing():
        raise ValueError(f"hom table incomplete: no entries for {gaps[:4]}{'...' if len(gaps) > 4 else ''}")
    return OperatorSymbol(H.n, _basis_transform(H.n, H.degree, H.entries, -1))


def reconstruct_from_blackbox(
    F: Callable[[MonogenicSeries], MonogenicSeries],
    n: int,
    q: int,
    exact: bool = True,
) -> OperatorSymbol:
    """Unique operator agreeing with the right-linear map F on all polynomials
    of degree <= q, built from the values F(V_s) alone."""
    entries: dict[MultiIndex, MonogenicSeries] = {}
    for s in enumerate_up_to(n, q):
        value = F(MonogenicSeries.basis_element(n, s, exact=exact))
        fact = mi_factorial(s)
        factor = Fraction(1, fact) if exact else 1.0 / fact
        entries[s] = value.scale(factor)
    return hom_to_op(HomTable(n=n, degree=q, entries=entries))


# ---------------------------------------------------------------------------
# Decay-class certificates
# ---------------------------------------------------------------------------


@dataclass
class ScaleComparison:
    """Finite-scale check of t1(r) = O(t2(r)): the gap ln t1 - ln t2 on a log
    grid must not grow along the tail."""

    max_gap: float
    tail_slope: float
    ok: bool


def compare_scales(po1: ProximateOrder, po2: ProximateOrder) -> ScaleComparison:
    """The gap ln t1 - ln t2 on 400 points of ln r in [0, 19]; its slope is
    fitted on the last quarter."""
    points = 400
    grid = np.linspace(0.0, 19.0, points)
    gap = np.asarray(po1.ln_scale_at_ln_r(grid)) - np.asarray(po2.ln_scale_at_ln_r(grid))
    tail = gap[3 * points // 4 :]
    slope = float(np.polyfit(grid[3 * points // 4 :], tail, 1)[0])
    return ScaleComparison(max_gap=float(gap.max()), tail_slope=slope, ok=slope <= 1e-9)


@dataclass
class ClassCertificate:
    """Grid verdicts for the two quantifier patterns of the decay classes.

    For every (rate, weight) cell the fitted constant is
    exp(max_q requirement_q) with requirement_q the per-degree log excess
    ln ||u_m||_weight + ln m! - ln G_q - q ln rate; the cell passes when the
    requirement trend over the top half of the support does not increase.
    all_rates: every rate has an admissible weight (operators continuous on
    the inductive-limit spaces).  all_weights: every weight has an
    admissible rate (the projective-limit pattern).
    """

    rates: tuple[float, ...]
    weights: tuple[float, ...]
    ln_constant: dict[tuple[float, float], float]
    trend: dict[tuple[float, float], float]
    cell_ok: dict[tuple[float, float], bool]
    scale_check: ScaleComparison
    all_rates: bool = field(init=False)
    all_weights: bool = field(init=False)

    def __post_init__(self):
        self.all_rates = all(
            any(self.cell_ok[(lam, sig)] for sig in self.weights) for lam in self.rates
        )
        self.all_weights = all(
            any(self.cell_ok[(lam, sig)] for lam in self.rates) for sig in self.weights
        )


def _requirement_profile(
    P: OperatorSymbol, po1: ProximateOrder, po2: ProximateOrder, sigma: float
) -> dict[int, float]:
    """Per-degree q: max over |m| = q of ln ||u_m||_{po2,sigma} + ln m! - ln G_q."""
    reqs = {}
    for m, u in P.entries.items():
        _, ln_up = weighted_norm_ln(u, po2, sigma, samples=0)
        reqs[m] = ln_up + math.log(mi_factorial(m)) - po1.ln_gq(mi_abs(m))
    return per_degree(reqs, max)


TREND_TOL = 1e-7


def op_class_check(
    P: OperatorSymbol,
    po1: ProximateOrder,
    po2: ProximateOrder,
    sigma_grid: tuple[float, ...],
    lambda_grid: tuple[float, ...],
) -> ClassCertificate:
    """Certify the coefficient decay pattern of P against both quantifier
    shapes on the supplied grids; negative cells are verdicts, not errors."""
    scale_check = compare_scales(po1, po2)
    profiles = {sigma: _requirement_profile(P, po1, po2, sigma) for sigma in sigma_grid}
    ln_constant: dict[tuple[float, float], float] = {}
    trend: dict[tuple[float, float], float] = {}
    cell_ok: dict[tuple[float, float], bool] = {}
    for lam in lambda_grid:
        ln_lam = math.log(lam)
        for sigma in sigma_grid:
            profile = profiles[sigma]
            if not profile:
                ln_constant[(lam, sigma)] = -math.inf
                trend[(lam, sigma)] = 0.0
                cell_ok[(lam, sigma)] = True
                continue
            qs = sorted(profile)
            reqs = [profile[q] - q * ln_lam for q in qs]
            ln_constant[(lam, sigma)] = max(reqs)
            top = max(len(qs) // 2, min(len(qs), 2))
            tail_q, tail_r = qs[-top:], reqs[-top:]
            if len(tail_q) >= 2 and tail_q[-1] > tail_q[0]:
                slope = float(np.polyfit(tail_q, tail_r, 1)[0])
            else:
                slope = 0.0
            trend[(lam, sigma)] = slope
            cell_ok[(lam, sigma)] = slope <= TREND_TOL
    return ClassCertificate(
        rates=tuple(lambda_grid),
        weights=tuple(sigma_grid),
        ln_constant=ln_constant,
        trend=trend,
        cell_ok=cell_ok,
        scale_check=scale_check,
    )


# ---------------------------------------------------------------------------
# Continuity surrogate: assembled tail of the application bound
# ---------------------------------------------------------------------------


def tail_bound_profile(
    P: OperatorSymbol,
    po1: ProximateOrder,
    po2: ProximateOrder,
    sigma: float,
    tau: float,
    k: float,
) -> dict[int, float]:
    """ln of the assembled application-tail bound after dropping degrees <= M,
    for every M up to the operator's order bound.

    Per entry the derivative bound contributes m! (2k tau)^{q/rho1} c(n,m) / G_q
    and the coefficient contributes its weighted norm at the given weight; the
    multiplicative constants shared by every term are dropped (only decay in M
    is at stake).
    """
    terms: dict[MultiIndex, float] = {}
    ln_2kt = math.log(2.0 * k * tau)
    for m, u in P.entries.items():
        q = mi_abs(m)
        _, ln_up = weighted_norm_ln(u, po2, sigma, samples=0)
        terms[m] = (
            ln_up
            + math.log(mi_factorial(m))
            + (q / po1.rho) * ln_2kt
            + ln_c_nm(P.n, m)
            - po1.ln_gq(q)
        )
    per_q = per_degree(terms, ln_sum)
    return tail_ln_sums(per_q, max(per_q))


def convergence_threshold(n_const: float, k: float, tau: float, rho1: float) -> float:
    """The geometric-decay threshold for the tail: rates below
    1 / (C(n) (2 k tau)^(1/rho1)) make the assembled sum converge."""
    return 1.0 / (n_const * (2.0 * k * tau) ** (1.0 / rho1))


def gauge_coefficient_operator(
    n: int,
    po: ProximateOrder,
    q_max: int,
    ln_rate_fn: Callable[[int], float],
) -> OperatorSymbol:
    """Synthetic operator with scalar constant coefficients
    u_m = exp(ln G_q - ln m! + ln_rate_fn(q)): the extremal families used to
    probe the decay classes (rate_fn q*ln(lam) sits exactly on the boundary)."""
    entries = {}
    for m in enumerate_up_to(n, q_max):
        q = mi_abs(m)
        value = math.exp(po.ln_gq(q) - math.log(mi_factorial(m)) + ln_rate_fn(q))
        entries[m] = MonogenicSeries(n, 0, {(0,) * n: CliffordNumber.scalar(n, value)})
    return OperatorSymbol(n, entries)
