"""Proximate growth scales and coefficient-side growth estimation.

A proximate order is a slowly varying refinement rho(r) of a constant growth
order rho: rho(r) -> rho and rho'(r)*r*ln(r) -> 0.  We work with its
normalisation, the strictly increasing bijection t(r) = r^rho(r) of (0, inf)
onto itself, its inverse phi, and the gauge sequence

    G_q = phi(q)^q / (e*rho)^(q/rho),

which is supermultiplicative and controls extremal coefficient decay.

Only three parametric families are supported; each admits a verified
monotone normalisation.  Arbitrary user scales are deliberately excluded:
the whole calculus rests on monotonicity of t.

All quantities of factorial scale (G_q, K_q, coefficient norms at large
degree) are carried as natural logarithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import InvariantViolationError, UndefinedOrderError
from .fueter import sampled_sups
from .multiindex import MultiIndex, ln_c_nm, mi_abs

# series_eval is not called here but stays bound: the benchmark's tracer
# self-test (bench/test_bench.py) expects to wrap it as growth.series_eval
from .series import MonogenicSeries, max_modulus, series_eval  # noqa: F401

FAMILIES = ("constant", "logshift", "loglog")

_LN_R_MIN = math.log(1e-8)
_FLOAT_MAX = np.finfo(float).max

#: cells of the log-radius grid on which weighted_norm_ln certifies its
#: upper envelope
_ENVELOPE_CELLS = 20000
#: cells per block of that grid in the first, coarse pass; divides
#: _ENVELOPE_CELLS
_ENVELOPE_BLOCK = 100
#: values (grid points times degrees) per logsumexp call of the envelope:
#: bounds its temporary arrays, and with them the peak resident memory, when
#: many grid points or degrees are evaluated at once
_ENVELOPE_CHUNK = 1 << 14


def _check_sigma(sigma: float) -> None:
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be finite and > 0, got {sigma}")


def _check_qs(qs) -> np.ndarray:
    q = np.array(qs, dtype=float, ndmin=1)
    bad = ~(np.isfinite(q) & (q >= 0))
    if bad.any():
        raise ValueError(f"q must be finite and >= 0, got {q[bad][0]}")
    return q


def logsumexp(a, axis: int = -1):
    """ln of the sum of e^a along an axis (the last by default): a scalar for
    1-D input, an array of one value per row otherwise; -inf for an empty
    or all -inf sum.  Bit for bit ``scipy.special.logsumexp`` (scipy 1.17.1),
    whose algorithm it follows operation for operation."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if a.shape[axis] == 0:
        return np.full(np.delete(a.shape, axis), -np.inf)[()]
    a_max = a.max(axis=axis, keepdims=True)
    tied = a == a_max
    m = tied.sum(axis=axis, keepdims=True, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # every tied maximum is taken out of the sum and counted in m
        s = np.exp(np.where(tied, -np.inf, a) - a_max).sum(axis=axis, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        bad = ~np.isfinite(out)
        if bad.any():
            out = np.where(bad, np.log(np.exp(a).sum(axis=axis, keepdims=True)), out)
    return np.squeeze(out, axis=axis)[()]


@dataclass(frozen=True)
class ProximateOrder:
    """One of the supported growth-scale families.

    constant:  rho(r) = rho                      t(r) = r^rho
    logshift:  rho(r) = rho + a/ln(r)            t(r) = e^a * r^rho
    loglog:    rho(r) = rho + a*ln(ln r)/ln(r)   t(r) = r^rho * (ln r)^a  (large r)

    The loglog family is only monotone for large r; below the cutover radius
    the scale is replaced by the power law matching value and slope there
    (a C1 join), pinned to t(0+) = 0.  For constant and logshift the raw
    scale is already a monotone bijection and the cap is the identity;
    constant is logshift with a = 0, and they share one code path.
    """

    family: str
    rho: float
    a: float = 0.0
    # cutover: ln r1 of the power-law cap; -inf when no cap is needed
    ln_cutover: float = field(init=False)
    _cap_slope: float = field(init=False)
    _cap_ln_t1: float = field(init=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown proximate-order family {self.family!r}")
        for name, value in (("rho", self.rho), ("a", self.a)):
            if not math.isfinite(value):
                raise ValueError(f"proximate-order {name} must be finite, got {value}")
        if not self.rho > 0:
            raise ValueError(f"order must be positive, got {self.rho}")
        if self.family == "constant" and self.a != 0.0:
            raise ValueError(f"the constant scale takes no parameter a, got a={self.a}")
        if self.family == "loglog":
            ln_r1 = max(2.0, 2.0 * abs(self.a) / self.rho)
            slope = self.rho + self.a / ln_r1
            ln_t1 = self.rho * ln_r1 + self.a * math.log(ln_r1)
        else:
            ln_r1, slope, ln_t1 = -math.inf, self.rho, -math.inf
        object.__setattr__(self, "ln_cutover", ln_r1)
        object.__setattr__(self, "_cap_slope", slope)
        object.__setattr__(self, "_cap_ln_t1", ln_t1)

    # -- the normalised scale t(r) = r^rho^(r), in log coordinates ---------

    def ln_scale_at_ln_r(self, ln_r):
        """ln t at ln r; accepts scalars or numpy arrays."""
        ln_r = np.asarray(ln_r, dtype=float)
        if self.family != "loglog":
            out = self.a + self.rho * ln_r
        else:
            safe = np.maximum(ln_r, self.ln_cutover)
            raw = self.rho * safe + self.a * np.log(safe)
            cap = self._cap_ln_t1 + self._cap_slope * (np.minimum(ln_r, self.ln_cutover) - self.ln_cutover)
            out = np.where(ln_r >= self.ln_cutover, raw, cap)
        return out if out.ndim else float(out)

    def log_slope_at_ln_r(self, ln_r):
        """d ln t / d ln r; positive everywhere (strict monotonicity)."""
        ln_r = np.asarray(ln_r, dtype=float)
        if self.family != "loglog":
            out = np.full_like(ln_r, self.rho)
        else:
            safe = np.maximum(ln_r, self.ln_cutover)
            out = np.where(ln_r >= self.ln_cutover, self.rho + self.a / safe, self._cap_slope)
        return out if out.ndim else float(out)

    def scale(self, r):
        """t(r) = r^rho^(r); strictly increasing from (0,inf) onto (0,inf).
        Accepts scalars or numpy arrays; raises if any r <= 0."""
        r = np.asarray(r, dtype=float)
        if (r <= 0).any():
            raise ValueError("scale is defined for r > 0")
        ln_t = np.asarray(self.ln_scale_at_ln_r(np.log(r)))
        with np.errstate(over="ignore"):
            out = np.exp(ln_t)
        if (np.isinf(out) & np.isfinite(ln_t)).any():
            raise OverflowError("math range error")  # as math.exp reports it
        return out if out.ndim else float(out)

    def exponent(self, r: float) -> float:
        """The normalised exponent at r, i.e. ln t(r) / ln r.

        Singular at r = 1 for scales with t(1) != 1 (any representation
        r^exponent forces value 1 there); raises in that case.
        """
        if r <= 0:
            raise ValueError("exponent is defined for r > 0")
        ln_r = math.log(r)
        if abs(ln_r) < 1e-300:
            if self.family == "constant":
                return self.rho
            raise ValueError("exponent representation is singular at r = 1")
        return self.ln_scale_at_ln_r(ln_r) / ln_r

    # -- inverse phi --------------------------------------------------------

    @np.errstate(over="ignore")
    def ln_phis(self, ln_t) -> np.ndarray:
        """ln of the inverse at each entry of ln_t, as a 1-D array: the ln r
        with ln t(r) = ln_t; +-inf at +-inf, inf where the root lies beyond the
        float range, ValueError at nan.  Closed form where ln t is affine in
        L = ln r (constant, logshift, the loglog cap).  Above the cap L solves
        h = rho L + a ln L - ln t = 0, L >= L1 = max(2, 2|a|/rho), where
        h' = rho + a/L >= rho/2: L1 + 2 (ln t - ln t1)/rho brackets the root,
        an iterate is within 2|h|/rho of it, and Newton steps stop once |h| is
        within its rounding level 4 eps (rho L + |a ln L| + |ln t|)."""
        y = np.array(ln_t, dtype=float, ndmin=1)
        if np.isnan(y).any():
            raise ValueError("ln t must not be nan")
        if self.family != "loglog":
            return (y - self.a) / self.rho
        out = self.ln_cutover + (y - self._cap_ln_t1) / self._cap_slope
        top = self.rho * _FLOAT_MAX + self.a * math.log(_FLOAT_MAX)  # ln t at the largest L
        out[y > top] = math.inf
        raw = (y > self._cap_ln_t1) & (y <= top) & (y < math.inf)
        y = y[raw]
        hi = np.minimum(self.ln_cutover + 2.0 * (y - self._cap_ln_t1) / self.rho, _FLOAT_MAX)
        out[raw] = self._solve_above_cutover(y, np.full_like(y, self.ln_cutover), hi, peak=False)
        return out

    @np.errstate(over="ignore")
    def _solve_above_cutover(self, target, lo, hi, peak: bool) -> np.ndarray:
        """Per entry, the root in [lo, hi] of the increasing f = ln t - target,
        or ln t + ln(d ln t/dL) - target for a ``peak``, above the loglog
        cutover.  Newton steps bisect where they would leave the bracket; an
        entry stops once |f| is within 4 eps times the sum of its terms' sizes
        (capped at the largest float; where a term overflows, f is inf, right
        of the root), takes one last step and is frozen, so its bits do not
        depend on the batch.  InvariantViolationError if the scale's own methods disagree."""
        rho, a = self.rho, self.a

        def residual(L, t):
            ln_L = np.log(L)
            g = rho + a / L
            ln_g = np.log(g) if peak else 0.0
            size = rho * L + np.abs(a * ln_L) + np.abs(ln_g) + np.abs(t)
            level = 4.0 * np.finfo(float).eps * np.minimum(size, _FLOAT_MAX)
            return rho * L + a * ln_L + ln_g - t, g - a / (L * L * g) if peak else g, level

        L = np.clip((target - (math.log(rho) if peak else 0.0)) / rho, lo, hi)
        todo = np.arange(len(L))
        for _ in range(100):  # a solve that has not stopped by then fails the check below
            here = L[todo]
            value, slope, level = residual(here, target[todo])
            left = lo[todo] = np.where(value < 0, here, lo[todo])
            right = hi[todo] = np.where(value < 0, hi[todo], here)
            step = here - value / slope
            done = np.abs(value) <= level
            inside = (step >= left) & (step <= right)
            L[todo] = np.where(inside, step, np.where(done, here, left + 0.5 * (right - left)))
            todo = todo[~done]
            if not todo.size:
                break
        ln_g = np.log(self.log_slope_at_ln_r(L)) if peak else 0.0
        bad = ~(np.abs(self.ln_scale_at_ln_r(L) + ln_g - target) <= residual(L, target)[2])
        if bad.any():
            raise InvariantViolationError(f"scale solve misses its root at ln r = {L[bad][0]}: not monotone")
        return L

    def ln_phi_at_ln_t(self, ln_t: float) -> float:
        """ln of the inverse at one ln t (``ln_phis``)."""
        return float(self.ln_phis(ln_t)[0])

    def phi(self, t: float) -> float:
        """Inverse of the normalised scale: phi(t(r)) = r."""
        if t <= 0:
            raise ValueError("phi is defined for t > 0")
        return math.exp(self.ln_phi_at_ln_t(math.log(t)))

    # -- the gauge sequence -------------------------------------------------

    def ln_gqs(self, qs) -> np.ndarray:
        """ln G_q = q*ln(phi(q)) - (q/rho)(1 + ln rho) for each q of qs, a
        1-D array; G_0 = 1 by convention."""
        q = _check_qs(qs)
        out, pos = np.zeros_like(q), q != 0
        q = q[pos]
        out[pos] = q * self.ln_phis(np.log(q)) - (q / self.rho) * (1.0 + math.log(self.rho))
        return out

    def ln_gq(self, q: int) -> float:
        """ln G_q for one q (``ln_gqs``)."""
        return float(self.ln_gqs(q)[0])

    # -- peaks of r^q * exp(-sigma*t(r)) -------------------------------------

    def ln_weight_peaks(self, qs, sigma: float) -> tuple[np.ndarray, np.ndarray]:
        """(ln r*, peak value) of q*ln r - sigma*t(r) over r > 0 for each q of
        qs, as two 1-D arrays; for q = 0 the sup 0 is approached as r -> 0
        and ln r* = ln 1e-8 is reported.

        In L = ln r the objective's slope is q (1 - e^E), with the excess
        E = ln t + ln g - ln q + ln sigma, g = d ln t/dL.  Where ln t is affine
        (constant, logshift, the loglog cap) E rises and the peak is closed
        form: L* = (ln q - ln sigma - ln rho - a)/rho, or the same with the
        cap's slope and end.  Above the loglog cutover L1, E' = ((rho L + a)^2
        - a)/(L (rho L + a)) with rho L + a = L g > 0: E rises for a <= 0, and
        for a > 0 above Lm = (sqrt(a) - a)/rho, below L1 >= 2 when rho > 1/8.
        Otherwise E falls up to Lm: a root above L1 lies above max(L1, Lm),
        and the cap may hold a second local maximum, so the larger value
        wins.  E >= rho L + ln rho - ln q + ln sigma for a >= 0 and E' >= rho/2
        for a < 0 bound the Newton solve's bracket from above.
        """
        _check_sigma(sigma)
        q_all = _check_qs(qs)
        ln_r, values = np.full_like(q_all, _LN_R_MIN), np.zeros_like(q_all)
        pos = q_all > 0
        q, ln_sigma = q_all[pos], math.log(sigma)
        target = np.log(q) - ln_sigma

        def value(L):
            # sigma t(r*) = q/g at the peak: finite where t(r*) itself overflows
            return q * L - np.exp(ln_sigma + self.ln_scale_at_ln_r(L))

        rho, a, ln_r1, s = self.rho, self.a, self.ln_cutover, self._cap_slope
        if self.family != "loglog":
            peak = (target - math.log(rho) - a) / rho
            ln_r[pos], values[pos] = peak, value(peak)
            return ln_r, values
        peak = ln_r1 + (target - math.log(s) - self._cap_ln_t1) / s
        lo = np.full_like(target, max(ln_r1, (math.sqrt(a) - a) / rho if a > 0 else ln_r1))
        e_lo = self.ln_scale_at_ln_r(lo) + np.log(self.log_slope_at_ln_r(lo)) - target
        solve = (peak > ln_r1) | (e_lo < 0)
        above = np.full_like(target, math.nan)
        t, lo, e_lo = target[solve], lo[solve], e_lo[solve]
        hi = np.maximum(lo, (t - math.log(rho)) / rho) if a >= 0 else lo - 2.0 * e_lo / rho
        above[solve] = self._solve_above_cutover(t, lo, hi, peak=True)
        peak = np.minimum(peak, ln_r1)
        v_above, v_cap = value(above), value(peak)
        take = v_above > v_cap
        ln_r[pos], values[pos] = np.where(take, above, peak), np.where(take, v_above, v_cap)
        return ln_r, values

    def ln_weight_peak(self, q: float, sigma: float) -> tuple[float, float]:
        """(ln r*, peak value) of q*ln r - sigma*t(r) over r > 0 for one q
        (``ln_weight_peaks``)."""
        ln_r, values = self.ln_weight_peaks(q, sigma)
        return float(ln_r[0]), float(values[0])

    def to_dict(self) -> dict:
        return {"family": self.family, "rho": self.rho, "a": self.a}

    @classmethod
    def parse(cls, spec: str) -> "ProximateOrder":
        """Parse 'family:rho' or 'family:rho:a' (the CLI --po format)."""
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"expected family:rho[:a], got {spec!r}")
        a = float(parts[2]) if len(parts) == 3 else 0.0
        return cls(parts[0], float(parts[1]), a)


# ---------------------------------------------------------------------------
# Weighted sup norms of truncated series
# ---------------------------------------------------------------------------


def _degree_log_norms(norms: Mapping[int, float]) -> tuple[np.ndarray, np.ndarray]:
    qs = np.array(sorted(q for q, v in norms.items() if v > 0.0), dtype=float)
    lnA = np.array([math.log(norms[int(q)]) for q in qs])
    return qs, lnA


def weighted_upper_ln(
    norms: Mapping[int, float], po: ProximateOrder, sigma: float
) -> tuple[float, list[float]]:
    """The upper side of ``weighted_norm_ln`` from a series' degree data
    alone: ``norms`` maps each degree q to the sum of the coefficient norms
    at degree q (``MonogenicSeries.degree_norms``).  Returns (ln upper, the
    ln radii where the lower side samples: the grid argmax and every
    per-degree peak).  The radii are empty when no degree has a nonzero
    norm (ln upper -inf) and for a constant, whose sup is its norm,
    approached as r -> 0.

    The upper bound is the per-degree peak bounds (sum over degrees of the
    sup of each triangle-inequality term) intersected with a cell envelope
    on a grid of ``_ENVELOPE_CELLS`` cells in ln r covering every per-degree
    peak -- on each cell the envelope multiplies the increasing factor at
    the right edge by the decreasing weight at the left edge, so the bound
    is rigorous for the coefficient-envelope functional.  The envelope is
    certified in two passes: the coefficient envelope ln U is evaluated at
    every ``_ENVELOPE_BLOCK``-th grid point first, which bounds every cell
    of the block between two such points (ln U and t both increase), and
    then only on the blocks whose bound can reach the best value already
    found.  The result is the maximum over the whole grid, bit for bit.
    """
    _check_sigma(sigma)
    qs, lnA = _degree_log_norms(norms)
    if len(qs) == 0:
        return -math.inf, []
    if len(qs) == 1 and qs[0] == 0:
        return float(lnA[0]), []
    peaks, peak_values = po.ln_weight_peaks(qs, sigma)
    upper_sum_form = float(logsumexp(lnA + peak_values))

    lo = min(peaks.min() - 1.0, _LN_R_MIN)
    hi = peaks.max() + 1.0
    grid = np.linspace(lo, hi, _ENVELOPE_CELLS + 1)
    ln_t = po.ln_scale_at_ln_r(grid)
    weight = sigma * np.exp(ln_t)
    # ln U, the logsumexp over degrees of lnA + q*ln r, at the grid points
    # evaluated so far and -inf elsewhere.  Each row is computed on its own,
    # so a value does not depend on which other rows are evaluated with it.
    ln_u = np.full(len(grid), -math.inf)
    # rows per logsumexp call, so that each of its temporary arrays holds
    # about _ENVELOPE_CHUNK values whatever the number of rows
    step = max(1, _ENVELOPE_CHUNK // len(qs))

    def evaluate(idx):
        """Fill ln U at the grid points idx; return the cell envelope and the
        grid values over every point evaluated so far."""
        for start in range(0, len(idx), step):
            rows = idx[start : start + step]
            ln_u[rows] = logsumexp(lnA[None, :] + qs[None, :] * grid[rows, None], axis=1)
        # every per-degree term rises toward its peak and falls past it, so
        # left of the window everything is below U at the left edge (weight
        # <= 1) and right of it everything is below the last edge value
        right_edge = float(ln_u[-1] - sigma * math.exp(ln_t[-1]))
        cells = max(float((ln_u[1:] - weight[:-1]).max()), right_edge, float(ln_u[0]))
        return cells, ln_u - weight

    edges = np.arange(0, len(grid), _ENVELOPE_BLOCK)
    upper_env, grid_vals = evaluate(edges)
    # Every cell and grid point of the block between edges e and e' has a
    # value of at most ln U(e') minus the block's least weight, since ln U
    # increases with r -- up to rounding.  A computed ln U row is lnA + q*ln r
    # (a few ulps of M = max|lnA| + q_max*max|ln r|; the terms can cancel, so
    # |ln U| does not bound the error) followed by logsumexp (a few ulps of
    # M plus ln of the degree count).  Two rows are thus off their exact,
    # increasing values by under 16*eps*(M + 1) together, and the slack is
    # four times that.  The weight enters at its computed minimum and needs
    # no slack.  A block whose bound is below a value already found holds
    # neither the envelope maximum nor the grid argmax and is skipped.
    magnitude = np.abs(lnA).max() + qs.max() * max(abs(lo), abs(hi))
    slack = 64.0 * np.finfo(float).eps * (magnitude + 1.0)
    least_weight = weight[:-1].reshape(-1, _ENVELOPE_BLOCK).min(axis=1)
    bounds = ln_u[edges[1:]] - least_weight + slack
    starts = edges[:-1][bounds >= min(upper_env, float(grid_vals.max()))]
    upper_env, grid_vals = evaluate((starts[:, None] + np.arange(1, _ENVELOPE_BLOCK)).ravel())
    best = int(np.argmax(grid_vals))
    return min(upper_sum_form, upper_env), list({grid[best], *peaks.tolist()})


def weighted_norm_ln(
    f: MonogenicSeries,
    po: ProximateOrder,
    sigma: float,
    samples: int = 32,
    seed: int = 0,
) -> tuple[float, float]:
    """Natural-log bracket of sup_x norm(f(x)) * exp(-sigma * t(norm(x))).

    Upper bound: ``weighted_upper_ln`` of the series' degree norms.  Lower
    bound: sampled max modulus at the candidate radii near the peak that it
    returns (the grid argmax and every per-degree peak; axis directions
    always included).  A series with no coefficients, or only a constant
    one, is exact at once.  ``samples=0`` returns the upper side only, with
    the trivial lower bound -inf: no point is evaluated.
    """
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    ln_upper, candidates = weighted_upper_ln(f.degree_norms(), po, sigma)
    if not candidates:
        return ln_upper, ln_upper
    if samples == 0:
        return -math.inf, ln_upper

    sups = sampled_sups(f.n, f.operand(), [math.exp(L) for L in candidates], samples, seed)
    ln_lower = -math.inf
    for L, sampled in zip(candidates, sups):
        if sampled > 0.0:
            value = math.log(sampled) - sigma * math.exp(po.ln_scale_at_ln_r(L))
            ln_lower = max(ln_lower, value)
    return ln_lower, ln_upper


def k_q(
    f: MonogenicSeries, q: int, samples: int = 256, seed: int = 0
) -> tuple[float, float]:
    """Bracket of the unit-ball sup of the degree-q homogeneous part.

    Lower: sampled max on the unit sphere (the part is homogeneous, so the
    ball sup sits on the boundary), axis points included.  Upper: sum of
    coefficient norms, since each basis polynomial has unit-ball sup <= 1.
    ``samples=0`` keeps the axis points only; a negative count or q raises.
    """
    return max_modulus(f.homogeneous_part(q), 1.0, samples, seed=seed)


# ---------------------------------------------------------------------------
# Log-domain coefficient data
# ---------------------------------------------------------------------------


def log_coeff_norms(f: MonogenicSeries) -> dict[MultiIndex, float]:
    """ln of each nonzero coefficient norm."""
    out = {}
    for m, a in f.coeffs.items():
        norm = a.norm()
        if norm > 0:
            out[m] = math.log(norm)
    return out


def ln_sum(values) -> float:
    """ln of the sum of e^v over the values (a log-sum-exp)."""
    return float(logsumexp(values))


def per_degree(
    values: Mapping[MultiIndex, float], reduce: Callable[[list[float]], float]
) -> dict[int, float]:
    """Reduce a table keyed by multi-index degree by degree: q -> reduce of
    the values with |m| = q (``max``, or ``ln_sum`` for the log of a sum),
    degrees in order of first appearance, values in table order."""
    buckets: dict[int, list[float]] = {}
    for m, v in values.items():
        buckets.setdefault(mi_abs(m), []).append(v)
    return {q: reduce(vals) for q, vals in buckets.items()}


def tail_ln_sums(per_q: Mapping[int, float], count: int) -> dict[int, float]:
    """M -> ln sum_{q > M} e^{per_q[q]} for M = 0..count-1, summed in
    ascending q; -inf where no degree exceeds M."""
    qs = sorted(per_q)
    out = {}
    for M in range(count):
        vals = [per_q[q] for q in qs if q > M]
        out[M] = ln_sum(vals) if vals else -math.inf
    return out


def log_kq_upper(log_norms: Mapping[MultiIndex, float]) -> dict[int, float]:
    """Per-degree ln of the coefficient-norm sums (upper bounds for K_q)."""
    return per_degree(log_norms, ln_sum)


def log_kq_lower_from_norms(
    log_norms: Mapping[MultiIndex, float], n: int
) -> dict[int, float]:
    """Per-degree max of ln(norm(a_m)/c(n,m)), a K_q lower bound by the
    coefficient inequality norm(a_m) <= c(n,m) * K_q."""
    return per_degree({m: v - ln_c_nm(n, m) for m, v in log_norms.items()}, max)


def axis_log_norms(
    n: int, rho: float, sigma: float, q_lo: int, q_hi: int
) -> dict[MultiIndex, float]:
    """Synthetic family supported on the first axis with order rho, type sigma:
    scalar coefficients norm (e*rho*sigma/q)^(q/rho) at m = (q, 0, ..., 0)."""
    out = {}
    for q in range(max(q_lo, 1), q_hi + 1):
        m = (q,) + (0,) * (n - 1)
        out[m] = (q / rho) * (1.0 + math.log(rho * sigma) - math.log(q))
    return out


# ---------------------------------------------------------------------------
# Order / type estimators (finite-window surrogates of limit superiors)
# ---------------------------------------------------------------------------


def _window_indices(
    log_norms: Mapping[MultiIndex, float], window: tuple[int, int]
) -> list[MultiIndex]:
    q_lo, q_hi = window
    picked = [m for m in log_norms if q_lo <= mi_abs(m) <= q_hi]
    if not picked:
        raise UndefinedOrderError(
            f"no nonzero coefficients with degree in [{q_lo}, {q_hi}]"
        )
    return picked


def order_from_coeffs(
    log_norms: Mapping[MultiIndex, float], window: tuple[int, int], n: int
) -> float:
    """Growth order from coefficients: the finite-window max of

        |m| ln|m| / ( ln c(n,m) - ln norm(a_m) ).

    The ratio converges like 1/ln q, so small windows carry a systematic
    bias of that size; the window is the caller's statement of scale.
    """
    best = -math.inf
    for m in _window_indices(log_norms, window):
        q = mi_abs(m)
        if q == 0:
            continue
        denom = ln_c_nm(n, m) - log_norms[m]
        ratio = math.inf if denom <= 0 else q * math.log(q) / denom
        best = max(best, ratio)
    if best == -math.inf:
        raise UndefinedOrderError("window contains only the constant term")
    return best


def _ln_type(rho: float, q: int, ln_k: float, ln_gq: float) -> float:
    """ln (K G_q)^(rho/q): the type that degree q >= 1 reads off a part whose
    unit-ball sup (or coefficient norm) is K."""
    return (rho / q) * (ln_k + ln_gq)


def _max_ln_type(
    ln_k: Mapping[int, float], po: ProximateOrder, window: tuple[int, int]
) -> float:
    """Max of _ln_type over the degrees 1 <= q in the window with K > 0, -inf
    if there are none.  It increases with K, so per degree only the largest
    K matters."""
    q_lo, q_hi = window
    picked = [q for q, v in ln_k.items() if q_lo <= q <= q_hi and q >= 1 and v > -math.inf]
    ln_gq = po.ln_gqs(picked).tolist()
    return max((_ln_type(po.rho, q, ln_k[q], g) for q, g in zip(picked, ln_gq)), default=-math.inf)


def type_from_coeffs(
    log_norms: Mapping[MultiIndex, float], rho: float, window: tuple[int, int]
) -> float:
    """Growth type for a known order: (1/(e*rho)) * max |m| * norm(a_m)^(rho/|m|),
    i.e. the type functional of the constant scale of order rho with K the
    largest coefficient norm of each degree.

    A window holding only the constant term gives type 0 (bounded function)."""
    _window_indices(log_norms, window)  # raises on an empty window
    po = ProximateOrder("constant", rho)
    return math.exp(_max_ln_type(per_degree(log_norms, max), po, window))


def type_from_kq(
    log_kq: Mapping[int, float], po: ProximateOrder, window: tuple[int, int]
) -> float:
    """Type from unit-ball peaks of homogeneous parts: max_q (K_q G_q)^(rho/q)."""
    best = _max_ln_type(log_kq, po, window)
    if best == -math.inf:
        raise UndefinedOrderError(f"no positive K_q in window [{window[0]}, {window[1]}]")
    return math.exp(best)


@dataclass
class MembershipReport:
    """Finite-window surrogate of the coefficient membership criterion."""

    window: tuple[int, int]
    kq_value: float
    coeff_value: float | None = None
    dimension_slack: float | None = None


def membership_limsup(
    log_kq: Mapping[int, float],
    po: ProximateOrder,
    window: tuple[int, int],
    log_norms: Mapping[MultiIndex, float] | None = None,
    n: int | None = None,
) -> MembershipReport:
    """max over the window of (K_q G_q)^(rho/q): the weighted space a function
    enters is read off from whether this stays <= sigma.

    When coefficient data is supplied the per-degree variant
    (max_m norm(a_m) G_q)^(rho/q) is also reported together with the n^rho
    slack that relates the two criteria.
    """
    report = MembershipReport(window=window, kq_value=math.exp(_max_ln_type(log_kq, po, window)))
    if log_norms is not None and n is not None:
        report.coeff_value = math.exp(_max_ln_type(per_degree(log_norms, max), po, window))
        report.dimension_slack = float(n) ** po.rho
    return report


# ---------------------------------------------------------------------------
# Growth reports
# ---------------------------------------------------------------------------

GROWTH_CSV_COLUMNS = ("q", "ln_Kq_lower", "ln_Kq_upper", "ln_Gq", "kq_rhs", "membership_value")


@dataclass
class GrowthReport:
    """Per-degree growth diagnostics plus window estimates.

    membership_value is the per-degree type (K_q G_q)^(rho/q) with the upper
    K_q consumed.  The CSV writes it under both kq_rhs and membership_value,
    so the column layout stays stable.
    """

    po: ProximateOrder
    window: tuple[int, int]
    qs: list[int]
    ln_kq_lower: list[float]
    ln_kq_upper: list[float]
    ln_gq: list[float]
    membership_value: list[float]
    order_estimate: float | None
    type_estimate_coeffs: float | None
    type_estimate_kq: float
    sigma_test: float | None = None
    member_verdict: bool | None = None

    def rows(self) -> list[tuple]:
        """One tuple per degree in GROWTH_CSV_COLUMNS order."""
        member = self.membership_value
        return list(zip(self.qs, self.ln_kq_lower, self.ln_kq_upper, self.ln_gq, member, member))

    def to_csv(self) -> str:
        lines = [",".join(GROWTH_CSV_COLUMNS)]
        for row in self.rows():
            lines.append(
                ",".join([str(row[0])] + [format(v, ".17g") for v in row[1:]])
            )
        return "\n".join(lines) + "\n"


def growth_report(
    po: ProximateOrder,
    window: tuple[int, int],
    n: int,
    log_norms: Mapping[MultiIndex, float] | None = None,
    log_kq_bounds: Mapping[int, tuple[float, float]] | None = None,
    sigma_test: float | None = None,
) -> GrowthReport:
    """Assemble per-degree diagnostics from coefficient norms and/or K_q data.

    With only coefficient norms, K_q is bracketed by the coefficient
    inequalities (max norm/c below, norm sum above).
    """
    if log_norms is None and log_kq_bounds is None:
        raise ValueError("need coefficient norms or K_q data")
    if sigma_test is not None:
        _check_sigma(sigma_test)
    if log_kq_bounds is not None:
        bounds = {int(q): (float(v[0]), float(v[1])) for q, v in log_kq_bounds.items()}
    else:
        lower = log_kq_lower_from_norms(log_norms, n)
        upper = log_kq_upper(log_norms)
        bounds = {q: (lower[q], upper[q]) for q in upper}
    q_lo, q_hi = window
    qs = sorted(q for q in bounds if q_lo <= q <= q_hi and q >= 1)
    if not qs:
        raise UndefinedOrderError(f"no degrees with data in window [{q_lo}, {q_hi}]")
    ln_gq = po.ln_gqs(qs).tolist()
    member = [math.exp(_ln_type(po.rho, q, bounds[q][1], g)) for q, g in zip(qs, ln_gq)]
    order_est = None
    type_coeffs = None
    if log_norms is not None:
        try:
            order_est = order_from_coeffs(log_norms, window, n)
            type_coeffs = type_from_coeffs(log_norms, po.rho, window)
        except UndefinedOrderError:
            pass
    report = GrowthReport(
        po=po,
        window=window,
        qs=qs,
        ln_kq_lower=[bounds[q][0] for q in qs],
        ln_kq_upper=[bounds[q][1] for q in qs],
        ln_gq=ln_gq,
        membership_value=member,
        order_estimate=order_est,
        type_estimate_coeffs=type_coeffs,
        type_estimate_kq=max(member),
        sigma_test=sigma_test,
    )
    if sigma_test is not None:
        report.member_verdict = max(member) <= sigma_test * (1.0 + 1e-9)
    return report
