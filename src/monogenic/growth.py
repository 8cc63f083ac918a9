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
from typing import Mapping

import numpy as np
from scipy.optimize import brentq
from scipy.special import logsumexp

from .errors import InvariantViolationError, UndefinedOrderError
from .fueter import basis_combination
from .multiindex import MultiIndex, ln_c_nm, mi_abs
from .sampling import sphere_directions

# series_eval is not called here but stays bound: the benchmark's tracer
# self-test (bench/test_bench.py) expects to wrap it as growth.series_eval
from .series import MonogenicSeries, max_modulus, series_eval  # noqa: F401

FAMILIES = ("constant", "logshift", "loglog")

_LN_R_MIN = math.log(1e-8)


@dataclass(frozen=True)
class ProximateOrder:
    """One of the supported growth-scale families.

    constant:  rho(r) = rho                      t(r) = r^rho
    logshift:  rho(r) = rho + a/ln(r)            t(r) = e^a * r^rho
    loglog:    rho(r) = rho + a*ln(ln r)/ln(r)   t(r) = r^rho * (ln r)^a  (large r)

    The loglog family is only monotone for large r; below the cutover radius
    the scale is replaced by the power law matching value and slope there
    (a C1 join), pinned to t(0+) = 0.  For constant and logshift the raw
    scale is already a monotone bijection and the cap is the identity.
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
        if self.family == "constant":
            out = self.rho * ln_r
        elif self.family == "logshift":
            out = self.a + self.rho * ln_r
        else:
            safe = np.maximum(ln_r, self.ln_cutover)
            raw = self.rho * safe + self.a * np.log(safe)
            cap = self._cap_ln_t1 + self._cap_slope * (ln_r - self.ln_cutover)
            out = np.where(ln_r >= self.ln_cutover, raw, cap)
        return out if out.ndim else float(out)

    def log_slope_at_ln_r(self, ln_r):
        """d ln t / d ln r; positive everywhere (strict monotonicity)."""
        ln_r = np.asarray(ln_r, dtype=float)
        if self.family in ("constant", "logshift"):
            out = np.full_like(ln_r, self.rho)
        else:
            safe = np.maximum(ln_r, self.ln_cutover)
            out = np.where(ln_r >= self.ln_cutover, self.rho + self.a / safe, self._cap_slope)
        return out if out.ndim else float(out)

    def scale(self, r: float) -> float:
        """t(r) = r^rho^(r); strictly increasing from (0,inf) onto (0,inf)."""
        if r <= 0:
            raise ValueError("scale is defined for r > 0")
        return math.exp(self.ln_scale_at_ln_r(math.log(r)))

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

    def decay_at_ln_r(self, ln_r: float) -> float:
        """rho'(r) * r * ln(r) of the raw family; tends to 0 as r grows."""
        if self.family == "constant":
            return 0.0
        if self.family == "logshift":
            return -self.a / ln_r
        return self.a * (1.0 - math.log(ln_r)) / ln_r

    # -- inverse phi --------------------------------------------------------

    def ln_phi_at_ln_t(self, ln_t: float) -> float:
        """ln of the inverse: the unique ln r with ln t(r) = ln_t."""
        if self.family == "constant":
            return ln_t / self.rho
        if self.family == "logshift":
            return (ln_t - self.a) / self.rho
        if ln_t <= self._cap_ln_t1:
            return self.ln_cutover + (ln_t - self._cap_ln_t1) / self._cap_slope
        lo = self.ln_cutover
        hi = max(lo + 1.0, (ln_t - self.a * math.log(lo)) / self.rho + 1.0)
        for _ in range(200):
            if self.ln_scale_at_ln_r(hi) >= ln_t:
                break
            hi = lo + 2.0 * (hi - lo)
        else:
            raise InvariantViolationError("failed to bracket the scale inverse")
        func = lambda L: self.ln_scale_at_ln_r(L) - ln_t
        if func(lo) > 0 or func(hi) < 0:
            raise InvariantViolationError("scale is not monotone on the bracket")
        return float(brentq(func, lo, hi, xtol=1e-13, rtol=8.9e-16))

    def phi(self, t: float) -> float:
        """Inverse of the normalised scale: phi(t(r)) = r."""
        if t <= 0:
            raise ValueError("phi is defined for t > 0")
        return math.exp(self.ln_phi_at_ln_t(math.log(t)))

    # -- the gauge sequence -------------------------------------------------

    def ln_gq(self, q: int) -> float:
        """ln G_q = q*ln(phi(q)) - (q/rho)(1 + ln rho); G_0 = 1 by convention."""
        if q < 0:
            raise ValueError("q must be >= 0")
        if q == 0:
            return 0.0
        ln_phi_q = self.ln_phi_at_ln_t(math.log(q))
        return q * ln_phi_q - (q / self.rho) * (1.0 + math.log(self.rho))

    def gq(self, q: int) -> float:
        return math.exp(self.ln_gq(q))

    # -- peaks of r^q * exp(-sigma*t(r)) -------------------------------------

    def ln_weight_peak(self, q: float, sigma: float) -> tuple[float, float]:
        """(ln r*, peak value) of q*ln r - sigma*t(r) over r > 0.

        For q = 0 the sup is 0, approached as r -> 0.  The objective's
        stationarity condition sigma * t(r) * dlnt/dlnr = q has a unique
        root because both factors increase.
        """
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        if q == 0:
            return _LN_R_MIN, 0.0
        target = math.log(q / sigma)

        def excess(L):
            return self.ln_scale_at_ln_r(L) + math.log(self.log_slope_at_ln_r(L)) - target

        lo, hi = -5.0, 5.0
        for _ in range(300):
            if excess(lo) < 0:
                break
            lo -= 5.0
        for _ in range(300):
            if excess(hi) > 0:
                break
            hi += 5.0
        L_star = float(brentq(excess, lo, hi, xtol=1e-12, rtol=8.9e-16))
        value = q * L_star - sigma * math.exp(self.ln_scale_at_ln_r(L_star))
        return L_star, value

    def to_dict(self) -> dict:
        return {"family": self.family, "rho": self.rho, "a": self.a}

    @classmethod
    def from_dict(cls, data: Mapping) -> "ProximateOrder":
        return cls(str(data["family"]), float(data["rho"]), float(data.get("a", 0.0)))

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


def _degree_log_norms(f: MonogenicSeries) -> tuple[np.ndarray, np.ndarray]:
    table = f.degree_norms()
    qs = np.array(sorted(q for q, v in table.items() if v > 0.0), dtype=float)
    lnA = np.array([math.log(table[int(q)]) for q in qs])
    return qs, lnA


def weighted_norm_ln(
    f: MonogenicSeries,
    po: ProximateOrder,
    sigma: float,
    samples: int = 32,
    seed: int = 0,
    cells: int = 20000,
) -> tuple[float, float]:
    """Natural-log bracket of sup_x norm(f(x)) * exp(-sigma * t(norm(x))).

    Upper bound: per-degree peak bounds (sum over degrees of the sup of each
    triangle-inequality term) intersected with a cell envelope on a window
    covering every per-degree peak -- on each cell the envelope multiplies
    the increasing factor at the right edge by the decreasing weight at the
    left edge, so the bound is rigorous for the coefficient-envelope
    functional.  Lower bound: sampled max modulus at candidate radii near the
    peak (axis directions always included).  ``samples=0`` returns the upper
    side only, with the trivial lower bound -inf: no point is evaluated.
    """
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    qs, lnA = _degree_log_norms(f)
    if len(qs) == 0:
        return -math.inf, -math.inf
    if len(qs) == 1 and qs[0] == 0:
        # constant series: the sup is the constant's norm, approached as r -> 0
        return float(lnA[0]), float(lnA[0])
    peak_pairs = [po.ln_weight_peak(float(q), sigma) for q in qs]
    peaks = np.array([p[0] for p in peak_pairs])
    term_sups = lnA + np.array([p[1] for p in peak_pairs])
    upper_sum_form = float(logsumexp(term_sups))

    lo = min(peaks.min() - 1.0, _LN_R_MIN)
    hi = peaks.max() + 1.0
    grid = np.linspace(lo, hi, cells + 1)
    ln_t = po.ln_scale_at_ln_r(grid)
    # ln U at every grid point: logsumexp over degrees of lnA + q*ln r
    powers = lnA[None, :] + qs[None, :] * grid[:, None]
    ln_u = logsumexp(powers, axis=1)
    cell_env = ln_u[1:] - sigma * np.exp(ln_t[:-1])
    # every per-degree term rises toward its peak and falls past it, so left
    # of the window everything is below U at the left edge (weight <= 1) and
    # right of it everything is below the last edge value
    right_edge = float(ln_u[-1] - sigma * math.exp(ln_t[-1]))
    upper_env = max(float(cell_env.max()), right_edge, float(ln_u[0]))
    ln_upper = min(upper_sum_form, upper_env)
    if samples == 0:
        return -math.inf, ln_upper

    grid_vals = ln_u - sigma * np.exp(ln_t)
    best = int(np.argmax(grid_vals))
    candidates = list({grid[best], *peaks.tolist()})
    # one set of directions, scaled to every candidate radius, in one evaluation
    dirs = sphere_directions(f.n + 1, samples, seed=seed)
    points = np.concatenate([math.exp(L) * dirs for L in candidates])
    moduli = np.linalg.norm(basis_combination(f.coeffs, points), axis=1)
    ln_lower = -math.inf
    for L, sampled in zip(candidates, moduli.reshape(len(candidates), -1).max(axis=1).tolist()):
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
    ``samples=0`` keeps the axis points only; a negative count raises.
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


def log_kq_upper(log_norms: Mapping[MultiIndex, float]) -> dict[int, float]:
    """Per-degree ln of the coefficient-norm sums (upper bounds for K_q)."""
    buckets: dict[int, list[float]] = {}
    for m, v in log_norms.items():
        buckets.setdefault(mi_abs(m), []).append(v)
    return {q: float(logsumexp(vals)) for q, vals in buckets.items()}


def log_kq_lower_from_norms(
    log_norms: Mapping[MultiIndex, float], n: int
) -> dict[int, float]:
    """Per-degree max of ln(norm(a_m)/c(n,m)), a K_q lower bound by the
    coefficient inequality norm(a_m) <= c(n,m) * K_q."""
    return _degree_max({m: v - ln_c_nm(n, m) for m, v in log_norms.items()})


def _degree_max(values: Mapping[MultiIndex, float]) -> dict[int, float]:
    """Per-degree max of a table keyed by multi-index."""
    out: dict[int, float] = {}
    for m, v in values.items():
        q = mi_abs(m)
        if q not in out or v > out[q]:
            out[q] = v
    return out


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
    return max((_ln_type(po.rho, q, ln_k[q], po.ln_gq(q)) for q in picked), default=-math.inf)


def type_from_coeffs(
    log_norms: Mapping[MultiIndex, float], rho: float, window: tuple[int, int]
) -> float:
    """Growth type for a known order: (1/(e*rho)) * max |m| * norm(a_m)^(rho/|m|),
    i.e. the type functional of the constant scale of order rho with K the
    largest coefficient norm of each degree.

    A window holding only the constant term gives type 0 (bounded function)."""
    _window_indices(log_norms, window)  # raises on an empty window
    po = ProximateOrder("constant", rho)
    return math.exp(_max_ln_type(_degree_max(log_norms), po, window))


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
        report.coeff_value = math.exp(_max_ln_type(_degree_max(log_norms), po, window))
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
    bounds: dict[int, tuple[float, float]] = {}
    if log_kq_bounds is not None:
        bounds.update({int(q): (float(v[0]), float(v[1])) for q, v in log_kq_bounds.items()})
    elif log_norms is not None:
        lower = log_kq_lower_from_norms(log_norms, n)
        upper = log_kq_upper(log_norms)
        bounds = {q: (lower[q], upper[q]) for q in upper}
    q_lo, q_hi = window
    qs = sorted(q for q in bounds if q_lo <= q <= q_hi and q >= 1)
    if not qs:
        raise UndefinedOrderError(f"no degrees with data in window [{q_lo}, {q_hi}]")
    ln_gq = [po.ln_gq(q) for q in qs]
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
