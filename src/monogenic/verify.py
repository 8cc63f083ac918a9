"""Margin-reporting checks for the quantitative growth and operator lemmas.

Each check verifies an inequality at desk scale and reports the worst margin
(bound minus achieved, log domain where the quantities are carried in logs)
together with any fitted constants.  The lemmas assert existence of
constants; the checks exhibit witnesses on finite ranges and fail when no
witness fitted on the lower half of an instance range covers the upper half
(or when a single-instance constant exceeds a generous cap).  Every check
has a designated corruption that must drive it to failure; corruptions are
injected by name so negative controls are reproducible.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, fields
from fractions import Fraction

import numpy as np
from scipy.special import logsumexp

from .clifford import CliffordNumber, Paravector, cl_mul
from .errors import SerializationError
from .fueter import basis_values, ordered_word_eval
from .growth import (
    ProximateOrder,
    axis_log_norms,
    membership_limsup,
    type_from_kq,
    weighted_norm_ln,
)
from .multiindex import (
    enumerate_up_to,
    ln_c_nm,
    mi_abs,
    mi_add,
    mi_factorial,
)
from .operators import OperatorSymbol, hom_to_op, op_apply, op_to_hom
from .sampling import ball_points
from .serialize import obj_to_scale
from .series import MonogenicSeries, ck_mul_left, dirac_residuals, series_derivative

LOG_TOL = 1e-9

CHECK_NAMES = (
    "cauchy-inequality",
    "ck-norm-bound",
    "ck-product-oracle",
    "coefficient-radius-bound",
    "density-reexpansion",
    "derivative-bound",
    "fueter-monogenicity",
    "fueter-normalization",
    "gauge-supermultiplicativity",
    "membership-criterion",
    "operator-roundtrip",
    "scale-inverse-roundtrip",
    "scaling-bound",
    "subadditive-power",
    "type-formula",
    "vm-norm-bound",
    "y-sigma-bound",
)

#: corruption name -> the check it must break
CORRUPTION_TARGETS = {
    "shrunk-modulus": "cauchy-inequality",
    "ordered-words": "fueter-monogenicity",
    "skewed-normalization": "fueter-normalization",
    "dropped-convolution-term": "ck-product-oracle",
    "jittered-gauge": "gauge-supermultiplicativity",
    "perturbed-inverse": "scale-inverse-roundtrip",
    "broken-scale": "subadditive-power",
    "inverted-weights": "y-sigma-bound",
    "inflated-basis-norms": "vm-norm-bound",
    "inflated-derivatives": "derivative-bound",
    "inflated-coefficients": "coefficient-radius-bound",
    "shrunk-weight": "ck-norm-bound",
    "mismatched-scale": "type-formula",
    "overweight-tail": "density-reexpansion",
    "misindexed-inversion": "operator-roundtrip",
}


def _json_float(value: float) -> float | str:
    return value if math.isfinite(value) else str(value)


@dataclass
class CheckReport:
    name: str
    instance: str
    margin: float
    constants: dict[str, float] = field(default_factory=dict)
    passed: bool = False
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready form; non-finite floats become "inf", "-inf" or "nan"."""
        return {
            "name": self.name,
            "instance": self.instance,
            "margin": _json_float(self.margin),
            "constants": {k: _json_float(v) for k, v in self.constants.items()},
            "passed": self.passed,
            "details": {k: str(v) for k, v in self.details.items()},
        }


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _require(ok: bool, name: str, what: str, value) -> None:
    if not ok:
        raise ValueError(f"verify config {name!r} must be {what}, got {value!r}")


@dataclass
class VerifyConfig:
    n: int = 2
    seed: int = 0
    sigma: float = 1.0
    sigma_prime: float = 0.5
    eta: float = 0.1
    delta: float = 1.0
    q_super: int = 50
    q_max_vm: int = 30
    q_max_deriv: int = 12
    series_degree: int = 5
    window_type: tuple[int, int] = (200, 500)
    radii: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)
    families: tuple[ProximateOrder, ...] = (
        ProximateOrder("constant", 1.0),
        ProximateOrder("logshift", 1.0, math.log(2.0)),
        ProximateOrder("loglog", 1.0, 1.0),
    )
    constant_cap_ln: float = 40.0
    corruption: str | None = None
    only: tuple[str, ...] | None = None

    def __post_init__(self):
        for name in ("n", "q_super", "q_max_vm", "q_max_deriv", "series_degree"):
            value = getattr(self, name)
            _require(_is_int(value) and value >= 1, name, "an integer >= 1", value)
        _require(_is_int(self.seed), "seed", "an integer", self.seed)
        for name in ("sigma", "sigma_prime"):
            value = getattr(self, name)
            _require(_is_real(value) and value > 0, name, "a finite number > 0", value)
        _require(self.sigma_prime < self.sigma, "sigma_prime", "below sigma", self.sigma_prime)
        for name in ("eta", "delta"):
            value = getattr(self, name)
            _require(_is_real(value) and value >= 0, name, "a finite number >= 0", value)
        cap = self.constant_cap_ln
        _require(_is_real(cap), "constant_cap_ln", "a finite number", cap)
        w = self.window_type
        ok = isinstance(w, (tuple, list)) and len(w) == 2 and all(map(_is_int, w))
        _require(ok and 1 <= w[0] <= w[1], "window_type", "two integers 1 <= lo <= hi", w)
        radii = self.radii
        ok = isinstance(radii, (tuple, list)) and len(radii) > 0
        ok = ok and all(_is_real(r) and r > 0 for r in radii)
        _require(ok, "radii", "a non-empty list of finite numbers > 0", radii)
        if not self.families:
            raise ValueError("need at least one scale family")
        if self.corruption is not None and self.corruption not in CORRUPTION_TARGETS:
            raise ValueError(f"unknown corruption {self.corruption!r}")
        unknown = sorted(set(self.only or ()) - set(CHECK_NAMES))
        if unknown:
            raise ValueError(f"unknown check names in 'only': {unknown}")

    @classmethod
    def from_dict(cls, data: dict) -> "VerifyConfig":
        if not isinstance(data, dict):
            raise SerializationError("verify config must be a JSON object")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise SerializationError(f"unknown verify config keys: {unknown}")
        kwargs = dict(data)
        for key in ("families", "window_type", "radii", "only"):
            if kwargs.get(key) is not None:
                if not isinstance(kwargs[key], list):
                    raise SerializationError(f"verify config {key!r} must be a list")
                kwargs[key] = tuple(kwargs[key])
        if kwargs.get("families") is not None:
            kwargs["families"] = tuple(obj_to_scale(item) for item in kwargs["families"])
        return cls(**kwargs)


def random_rational_series(
    n: int, degree: int, seed: int, density: float = 0.7, span: int = 6
) -> MonogenicSeries:
    """Seeded random series with small-denominator rational coefficients."""
    rng = random.Random(seed)
    coeffs = {}
    for m in enumerate_up_to(n, degree):
        if rng.random() > density:
            continue
        table = {}
        for mask in range(1 << n):
            if rng.random() < 0.5:
                num = rng.randint(-span, span)
                den = rng.randint(1, 4)
                if num:
                    table[mask] = Fraction(num, den)
        if table:
            coeffs[m] = CliffordNumber(n, table)
    return MonogenicSeries(n, degree, coeffs)


def random_rational_operator(n: int, order: int, degree: int, seed: int) -> OperatorSymbol:
    rng = random.Random(seed)
    entries = {}
    for m in enumerate_up_to(n, order):
        if rng.random() < 0.4:
            continue
        u = random_rational_series(n, degree, rng.randrange(1 << 30), density=0.5)
        if not u.is_zero():
            entries[m] = u
    return OperatorSymbol(n, entries)


def axis_series(n: int, rho: float, sigma: float, degree: int) -> MonogenicSeries:
    """Float-mode axis family truncated at ``degree`` (norms as in axis_log_norms)."""
    coeffs = {}
    for m, ln_norm in axis_log_norms(n, rho, sigma, 1, degree).items():
        coeffs[m] = CliffordNumber.scalar(n, math.exp(ln_norm))
    coeffs[(0,) * n] = CliffordNumber.scalar(n, 1.0)
    return MonogenicSeries(n, degree, coeffs)


def _report(name, instance, margin, constants=None, details=None):
    return CheckReport(
        name=name,
        instance=instance,
        margin=margin,
        constants=constants or {},
        passed=bool(margin >= -LOG_TOL),
        details=details or {},
    )


# ---------------------------------------------------------------------------
# Series-side checks
# ---------------------------------------------------------------------------


def check_cauchy(
    f: MonogenicSeries, radii: tuple[float, ...], corruption: str | None = None
) -> CheckReport:
    """Coefficient inequality norm(a_m) <= c(n,m) * M_upper(r, f) / r^|m| for
    every stored index and radius; a theorem for the coefficient upper bound."""
    shrink = 0.02 if corruption == "shrunk-modulus" else 1.0
    margin = math.inf
    worst = None
    for r in radii:
        upper = f.coeff_upper_bound(r) * shrink
        if upper <= 0.0:
            continue
        ln_upper = math.log(upper)
        for m, a in f.coeffs.items():
            norm = a.norm()
            if norm == 0.0:
                continue
            gap = ln_c_nm(f.n, m) + ln_upper - mi_abs(m) * math.log(r) - math.log(norm)
            if gap < margin:
                margin, worst = gap, (m, r)
    if margin is math.inf:
        margin = 0.0
    return _report(
        "cauchy-inequality",
        f"series n={f.n} deg={f.degree}, radii={radii}",
        margin,
        details={"worst_at": worst, "bracket": "coefficient upper bound"},
    )


def check_monogenicity(
    n: int,
    q_max: int = 5,
    points: int = 12,
    h: float = 1e-5,
    seed: int = 0,
    corruption: str | None = None,
) -> CheckReport:
    """Finite-difference Dirac residual of every basis element with |m| <= q_max
    stays below 1e-6 * (1 + norm(x)^|m|) at sampled points."""
    indices = enumerate_up_to(n, q_max)

    def evaluate(p: Paravector) -> dict:
        if corruption == "ordered-words":
            return {m: ordered_word_eval(m, p) for m in indices}
        # every blade, in mask order: each residual sums the same squares in
        # the same order whichever blades happen to be zero
        table = basis_values([p.components()], q_max)[0].tolist()
        return {m: CliffordNumber(n, dict(enumerate(row))) for m, row in zip(indices, table)}

    margin = math.inf
    worst = None
    for point in ball_points(n, 1.2, points, seed=seed):
        residuals = dirac_residuals(evaluate, point, h)
        r = point.norm()
        for m, res in residuals.items():
            bound = 1e-6 * (1.0 + r ** mi_abs(m))
            gap = bound - res
            if gap < margin:
                margin, worst = gap, (m, res)
    return _report(
        "fueter-monogenicity",
        f"n={n}, |m|<={q_max}, {points} points, h={h}",
        margin,
        details={"worst": worst},
    )


def check_normalization(
    n: int, q_max: int = 4, corruption: str | None = None
) -> CheckReport:
    """Exact-mode consistency forced by the Taylor theorem: applying the
    derivative rule p times to the m-th basis element and evaluating at 0
    gives m! when p = m and 0 otherwise."""
    indices = enumerate_up_to(n, q_max)
    origin = (0,) * n
    failures = 0
    for m in indices:
        base = MonogenicSeries.basis_element(n, m, exact=True)
        if corruption == "skewed-normalization":
            base = base.scale(Fraction(1, mi_factorial(m) + 1))
        for p in indices:
            value = series_derivative(base, p).coeff(origin)
            expected = (
                CliffordNumber.scalar(n, Fraction(mi_factorial(m)))
                if p == m
                else CliffordNumber.zero(n)
            )
            if value != expected:
                failures += 1
    margin = 0.0 if failures == 0 else -math.inf
    return _report(
        "fueter-normalization",
        f"n={n}, |m|,|p|<={q_max} exact",
        margin,
        details={"failures": failures},
    )


def brute_force_ck(f: MonogenicSeries, g: MonogenicSeries, q_out: int) -> MonogenicSeries:
    """Independent convolution: explicit double loop over all index pairs."""
    out: dict = {}
    for m, a in f.coeffs.items():
        for k, b in g.coeffs.items():
            p = mi_add(m, k)
            if mi_abs(p) > q_out:
                continue
            term = cl_mul(a, b)
            out[p] = out.get(p, CliffordNumber.zero(f.n)) + term
    return MonogenicSeries(f.n, q_out, {m: v for m, v in out.items() if not v.is_zero()})


def check_ck_oracle(
    n: int, degree: int = 4, seed: int = 0, corruption: str | None = None
) -> CheckReport:
    """CK product against the brute-force convolution, plus unit laws."""
    f = random_rational_series(n, degree, seed)
    g = random_rational_series(n, degree, seed + 1)
    q_out = 2 * degree
    fast = ck_mul_left(f, g, q_out)
    if corruption == "dropped-convolution-term":
        table = dict(fast.coeffs)
        if table:
            top = max(table, key=mi_abs)
            del table[top]
        fast = MonogenicSeries(n, q_out, table)
    brute = brute_force_ck(f, g, q_out)
    unit = MonogenicSeries.unit(n)
    ok = (
        fast.coeffs == brute.coeffs
        and ck_mul_left(f, unit, f.degree).coeffs == f.coeffs
        and ck_mul_left(unit, f, f.degree).coeffs == f.coeffs
    )
    return _report(
        "ck-product-oracle",
        f"n={n}, deg={degree}, rational",
        0.0 if ok else -math.inf,
    )


# ---------------------------------------------------------------------------
# Growth-scale checks
# ---------------------------------------------------------------------------


def check_supermultiplicativity(
    po: ProximateOrder, q_max: int = 50, corruption: str | None = None
) -> CheckReport:
    """ln G_p + ln G_q <= ln G_{p+q} for all p, q up to q_max."""
    jitter = 2.0 if corruption == "jittered-gauge" else 0.0
    lngq = {}
    for q in range(1, 2 * q_max + 1):
        lngq[q] = po.ln_gq(q) + jitter * ((-1) ** q)
    margin = math.inf
    for p in range(1, q_max + 1):
        for q in range(p, q_max + 1):
            margin = min(margin, lngq[p + q] - lngq[p] - lngq[q])
    return _report(
        "gauge-supermultiplicativity",
        f"{po.family}(rho={po.rho}, a={po.a}), p,q<={q_max}",
        margin,
    )


def check_phi_roundtrip(
    po: ProximateOrder, points: int = 200, corruption: str | None = None
) -> CheckReport:
    """phi(t(r)) returns r within 1e-10 relative on a log grid of radii."""
    bump = 1e-8 if corruption == "perturbed-inverse" else 0.0
    worst = 0.0
    for ln_r in np.linspace(math.log(1e-3), math.log(1e8), points):
        r = math.exp(ln_r)
        back = math.exp(po.ln_phi_at_ln_t(po.ln_scale_at_ln_r(ln_r))) * (1.0 + bump)
        worst = max(worst, abs(back - r) / r)
    return _report(
        "scale-inverse-roundtrip",
        f"{po.family}(rho={po.rho}, a={po.a}), {points} radii in [1e-3, 1e8]",
        math.log(1e-10) - math.log(worst) if worst > 0 else math.inf,
        constants={"worst_rel_err": worst},
    )


class _BrokenScale:
    """Exponential pseudo-scale (order infinity): the designated corruption for
    the subadditivity and scaling checks."""

    family = "broken"
    rho = 1.0
    a = 0.0

    def scale(self, r: float) -> float:
        return math.exp(r) - 1.0


def check_subadditive_power(
    po, grid_max: float = 100.0, corruption: str | None = None
) -> CheckReport:
    """t(r+s) <= k (t(r) + t(s)) + B with k = 1.05 * 2^rho: B fitted on the
    small-argument half of the grid must cover the large-argument half."""
    scale = _BrokenScale() if corruption == "broken-scale" else po
    k = 1.05 * 2.0**scale.rho
    rs = np.geomspace(grid_max * 1e-3, grid_max, 25)
    t = {r: scale.scale(r) for r in rs}
    fit_b, margin = 0.0, math.inf
    half = grid_max / 2.0
    for r in rs:
        for s in rs:
            deficit = scale.scale(r + s) - k * (t[r] + t[s])
            if max(r, s) <= half:
                fit_b = max(fit_b, deficit)
    for r in rs:
        for s in rs:
            if max(r, s) > half:
                slack = k * (t[r] + t[s]) + fit_b - scale.scale(r + s)
                margin = min(margin, slack / (1.0 + scale.scale(r + s)))
    return _report(
        "subadditive-power",
        f"{scale.family}(rho={scale.rho}), r,s in (0, {grid_max}]",
        margin,
        constants={"k": k, "B": fit_b},
    )


def check_scaling_bound(
    po, eta: float = 0.1, factors: tuple[float, ...] = (2.0, 3.0),
    corruption: str | None = None,
) -> CheckReport:
    """t(k*r) <= (1+eta) k^rho t(r) + C_eta on r in [0.1, 1e6].

    The deficit t(kr) - (1+eta) k^rho t(r) is a single hump for genuine
    scales: C_eta is fitted as its max over the grid, and the check demands
    the hump is over by the last half-decade (relative deficit <= 0 there),
    which is the finite-scale shadow of the asymptotic statement.
    """
    scale = _BrokenScale() if corruption == "broken-scale" else po
    if corruption == "broken-scale":
        # keep the exponential pseudo-scale inside float range at k*r
        grid = np.geomspace(0.1, 200.0, 120)
        tail_from = 200.0 / math.sqrt(10.0)
    else:
        grid = np.geomspace(0.1, 1e6, 120)
        tail_from = 1e6 / math.sqrt(10.0)
    margin = math.inf
    constants = {}
    for k in factors:
        lead = (1.0 + eta) * k**scale.rho
        c_eta = 0.0
        for r in grid:
            c_eta = max(c_eta, scale.scale(k * r) - lead * scale.scale(r))
        constants[f"C_eta_k{k:g}"] = c_eta
        for r in grid:
            if r >= tail_from:
                t_kr = scale.scale(k * r)
                deficit = t_kr - lead * scale.scale(r)
                margin = min(margin, -deficit / (1.0 + t_kr))
    return _report(
        "scaling-bound",
        f"{scale.family}(rho={scale.rho}), eta={eta}, k in {factors}",
        margin,
        constants=constants,
    )


def check_y_sigma(
    po: ProximateOrder,
    sigma: float = 1.0,
    sigma_prime: float = 0.5,
    t_cap: float = 1e4,
    corruption: str | None = None,
) -> CheckReport:
    """Search a bounded grid for the threshold above which
    ln(phi(t)/phi(u)) - sigma t/u + (1/rho) ln(e rho) <= -(1/rho) ln(sigma').

    Reports the smallest working threshold; failure means the bounded search
    was exhausted, with no claim beyond the grid.
    """
    if corruption == "inverted-weights":
        sigma, sigma_prime = sigma_prime, sigma
    rho = po.rho
    rhs = -math.log(sigma_prime) / rho
    offset = math.log(math.e * rho) / rho
    grid = np.geomspace(1.0, t_cap, 60)
    ln_phi = {v: po.ln_phi_at_ln_t(math.log(v)) for v in grid}
    thresholds = [1.0, 10.0, 100.0, 1e3, 1e4]
    best_t1 = None
    margin = -math.inf
    for t1 in thresholds:
        worst = math.inf
        for u in grid:
            if u < t1:
                continue
            for t in grid:
                if t < t1:
                    continue
                y = ln_phi[t] - ln_phi[u] - sigma * t / u
                worst = min(worst, rhs - (y + offset))
        if worst >= -LOG_TOL:
            best_t1, margin = t1, worst
            break
    if best_t1 is None:
        margin = -math.inf
    return _report(
        "y-sigma-bound",
        f"{po.family}(rho={po.rho}), sigma={sigma}, sigma'={sigma_prime}",
        margin,
        constants={"T1": best_t1 if best_t1 is not None else math.inf},
    )


def check_vm_norm_bound(
    po: ProximateOrder,
    sigma: float,
    sigma_prime: float,
    q_max: int = 30,
    corruption: str | None = None,
) -> CheckReport:
    """Weighted norms of the basis elements against sigma'^{-q/rho} G_q: the
    constant fitted on degrees <= q_max/2 must cover the upper degrees.

    The per-degree norm is exact: the axis element attains sup_r r^q w(r).
    """
    if not 0 < sigma_prime < sigma:
        raise ValueError("need 0 < sigma' < sigma")
    rho = po.rho
    reqs = {}
    for q in range(q_max + 1):
        lhs = po.ln_weight_peak(q, sigma)[1]
        if corruption == "inflated-basis-norms":
            lhs += 0.5 * q * math.log(q + 1.0)
        rhs = -(q / rho) * math.log(sigma_prime) + po.ln_gq(q)
        reqs[q] = lhs - rhs
    half = q_max // 2
    ln_c = max(v for q, v in reqs.items() if q <= half)
    margin = min(ln_c - v for q, v in reqs.items() if q > half)
    return _report(
        "vm-norm-bound",
        f"{po.family}(rho={po.rho}), sigma={sigma}, sigma'={sigma_prime}, |m|<={q_max}",
        margin,
        constants={"ln_C": ln_c},
        details={"bracket": "exact per-degree sup"},
    )


def check_derivative_bound(
    f: MonogenicSeries,
    po: ProximateOrder,
    sigma: float,
    q_max: int,
    corruption: str | None = None,
) -> CheckReport:
    """Derivative norms at the inflated weight k*sigma against the gauge decay
    (2 k c(n,m)^{rho/q} sigma)^{q/rho} / G_q, constant fitted on low degrees."""
    rho = po.rho
    k = 1.05 * 2.0**rho
    inflate = 1.5 if corruption == "inflated-derivatives" else 0.0
    _, ln_f = weighted_norm_ln(f, po, sigma, samples=0)
    per_q: dict[int, float] = {}
    for m in enumerate_up_to(f.n, min(q_max, f.degree)):
        df = series_derivative(f, m)
        if df.is_zero():
            continue
        q = mi_abs(m)
        _, ln_df = weighted_norm_ln(df, po, k * sigma, samples=0)
        lhs = ln_df - math.log(mi_factorial(m)) + inflate * q * math.log(q + 1.0)
        rhs = ln_f + (q / rho) * math.log(2.0 * k * sigma) + ln_c_nm(f.n, m) - po.ln_gq(q)
        req = lhs - rhs
        if q not in per_q or req > per_q[q]:
            per_q[q] = req
    qs = sorted(per_q)
    half = qs[len(qs) // 2]
    ln_c = max(per_q[q] for q in qs if q <= half)
    margin = min((ln_c - per_q[q] for q in qs if q > half), default=0.0)
    return _report(
        "derivative-bound",
        f"n={f.n} deg={f.degree}, {po.family}(rho={po.rho}), sigma={sigma}, |m|<={q_max}",
        margin,
        constants={"ln_C_sigma": ln_c, "k": k},
        details={"bracket": "upper/upper"},
    )


def check_coeff_bound(
    f: MonogenicSeries,
    po: ProximateOrder,
    sigma: float,
    s: float,
    eta: float = 0.1,
    corruption: str | None = None,
) -> CheckReport:
    """Pointwise coefficient bound at every radius r >= 0.1 on a log grid:

        norm(a_m) e^{-sigma (1+eta)(s+1)^rho t(r)} <= e^{sigma C_eta}
            * ||f|| c(n,m) / (s r)^|m|

    with C_eta fitted from the scaling bound for the factor s+1.  The bound
    degenerates as r -> 0 (right side diverges); radii below 0.1 are
    excluded by the grid, not failed.
    """
    rho = po.rho
    lead = (1.0 + eta) * (s + 1.0) ** rho
    fit_grid = np.geomspace(0.1, 1e5, 80)
    c_eta = max(
        0.0, max(po.scale((s + 1.0) * r) - lead * po.scale(r) for r in fit_grid)
    )
    inflate = 50.0 if corruption == "inflated-coefficients" else 0.0
    _, ln_f = weighted_norm_ln(f, po, sigma, samples=0)
    margin = math.inf
    grid = np.geomspace(0.1, 100.0, 40)
    for m, a in f.coeffs.items():
        norm = a.norm()
        if norm == 0.0:
            continue
        q = mi_abs(m)
        ln_norm = math.log(norm) + inflate
        for r in grid:
            lhs = ln_norm - sigma * lead * po.scale(r)
            rhs = sigma * c_eta + ln_f + ln_c_nm(f.n, m) - q * math.log(s * r)
            margin = min(margin, rhs - lhs)
    return _report(
        "coefficient-radius-bound",
        f"n={f.n} deg={f.degree}, {po.family}(rho={po.rho}), s={s}, eta={eta}",
        margin,
        constants={"C_eta": c_eta},
    )


def check_ck_norm_bound(
    g1: MonogenicSeries,
    g2: MonogenicSeries,
    po: ProximateOrder,
    tau1: float,
    tau2: float,
    delta: float = 1.0,
    eta: float = 0.1,
    cap_ln: float = 40.0,
    weight_exponent: float | None = None,
    corruption: str | None = None,
) -> CheckReport:
    """CK-product norm at the inflated weight (1+eta)(n+delta+1)^e (tau1+tau2)
    against the product of the factor norms; the fitted constant must stay
    below a generous cap.

    The exponent e defaults to the scale's order; passing another value lets
    a two-scale setting measure which of the candidate exponents gives the
    tighter constant (they coincide for a single scale).
    """
    n = g1.n
    rho = po.rho
    exponent = rho if weight_exponent is None else weight_exponent
    weight = (1.0 + eta) * (n + delta + 1.0) ** exponent * (tau1 + tau2)
    if corruption == "shrunk-weight":
        weight = 1e-6
    product = ck_mul_left(g1.to_float(), g2.to_float(), g1.degree + g2.degree)
    _, ln_lhs = weighted_norm_ln(product, po, weight, samples=0)
    _, ln_g1 = weighted_norm_ln(g1.to_float(), po, tau1, samples=0)
    _, ln_g2 = weighted_norm_ln(g2.to_float(), po, tau2, samples=0)
    ln_c = ln_lhs - ln_g1 - ln_g2
    return _report(
        "ck-norm-bound",
        f"n={n}, degrees {g1.degree}+{g2.degree}, {po.family}(rho={rho}), "
        f"tau=({tau1},{tau2}), delta={delta}, eta={eta}",
        cap_ln - ln_c,
        constants={"ln_C": ln_c, "weight": weight},
        details={"bracket": "upper/upper", "weight_exponent": exponent},
    )


def _axis_type_fixture(rho, sigma, window, n, corruption):
    """(scale, coefficient log norms, per-degree ln K_q) of the axis family of
    order rho and type sigma on the window; the scale's order doubles under
    the mismatched-scale corruption."""
    po = ProximateOrder("constant", 2.0 * rho if corruption == "mismatched-scale" else rho)
    log_norms = axis_log_norms(n, rho, sigma, window[0], window[1])
    return po, log_norms, {mi_abs(m): v for m, v in log_norms.items()}


def check_type_formula(
    rho: float,
    sigma: float,
    window: tuple[int, int],
    n: int = 2,
    corruption: str | None = None,
) -> CheckReport:
    """Recover the type of the synthetic axis family from unit-ball peaks of
    its homogeneous parts; 10% relative accuracy at the configured window."""
    po, _, log_kq = _axis_type_fixture(rho, sigma, window, n, corruption)
    est = type_from_kq(log_kq, po, window)
    rel_err = abs(est - sigma) / sigma
    small = type_from_kq(log_kq, po, (window[0], window[0] + 20))
    return _report(
        "type-formula",
        f"axis family rho={rho}, sigma={sigma}, window={window}",
        0.10 - rel_err,
        constants={"estimate": est, "rel_err": rel_err},
        details={"small_window_estimate": small},
    )


def check_membership(
    rho: float,
    sigma: float,
    window: tuple[int, int],
    n: int = 2,
    corruption: str | None = None,
) -> CheckReport:
    """The membership surrogate max (K_q G_q)^{rho/q} of the axis family of
    type sigma lands within 10% of sigma."""
    po, log_norms, log_kq = _axis_type_fixture(rho, sigma, window, n, corruption)
    report = membership_limsup(log_kq, po, window, log_norms=log_norms, n=n)
    rel_err = abs(report.kq_value - sigma) / sigma
    return _report(
        "membership-criterion",
        f"axis family rho={rho}, sigma={sigma}, window={window}",
        0.10 - rel_err,
        constants={"value": report.kq_value},
        details={"coeff_value": report.coeff_value, "slack": report.dimension_slack},
    )


def check_density(
    n: int,
    po: ProximateOrder,
    sigma: float,
    degree: int = 24,
    eps_factor: float = 0.5,
    corruption: str | None = None,
) -> CheckReport:
    """Partial Taylor sums of a truncated function converge in the weighted
    norm at n^rho sigma + eps: tail norms must decrease monotonically and at
    least halve between the quarter and three-quarter truncation points."""
    rho = po.rho
    source_type = 10.0 * sigma if corruption == "overweight-tail" else sigma
    weight = float(n) ** rho * sigma + eps_factor * sigma
    log_norms = axis_log_norms(n, rho, source_type, 1, degree)
    per_degree = {}
    for m, v in log_norms.items():
        q = mi_abs(m)
        per_degree[q] = v + po.ln_weight_peak(q, weight)[1]
    qs = sorted(per_degree)
    tails = {}
    for j in range(degree):
        vals = [per_degree[q] for q in qs if q > j]
        tails[j] = float(logsumexp(vals)) if vals else -math.inf
    mono = min(
        tails[j] - tails[j + 1] for j in range(degree - 1) if tails[j + 1] > -math.inf
    )
    halving = tails[degree // 4] - tails[3 * degree // 4] - math.log(2.0)
    margin = min(mono, halving)
    return _report(
        "density-reexpansion",
        f"axis family n={n}, {po.family}(rho={rho}), sigma={sigma}, deg={degree}",
        margin,
        constants={"final_tail_ln": tails[degree - 1]},
    )


def check_operator_roundtrip(
    n: int, order: int = 4, degree: int = 2, seed: int = 0, corruption: str | None = None
) -> CheckReport:
    """Exact-mode inversion: recovering the coefficient table from the
    basis-value table is the identity (margin exactly 0 in rational mode)."""
    P = random_rational_operator(n, order, degree, seed)
    table = op_to_hom(P, order)
    if corruption == "misindexed-inversion":
        # drop the alternating sign of the inversion: apply the forward map again
        back = OperatorSymbol(n, op_to_hom(OperatorSymbol(n, table.entries), table.degree).entries)
    else:
        back = hom_to_op(table)
    ok = back == P
    basis_ok = True
    for s in enumerate_up_to(n, min(order, 3)):
        direct = op_apply(P, MonogenicSeries.basis_element(n, s), q_out=order + degree + 3)
        fact = mi_factorial(s)
        from_table = table.entries[s].scale(Fraction(fact)) if s in table.entries else None
        if from_table is None or direct.coeffs != from_table.truncate(order + degree + 3).coeffs:
            basis_ok = False
    margin = 0.0 if (ok and basis_ok) else -math.inf
    return _report(
        "operator-roundtrip",
        f"n={n}, order<={order}, rational, seed={seed}",
        margin,
        details={"table_roundtrip": ok, "basis_agreement": basis_ok},
    )


# ---------------------------------------------------------------------------
# Suite driver
# ---------------------------------------------------------------------------


def run_all(config: VerifyConfig | None = None) -> list[CheckReport]:
    """Run every check (or the configured subset); individual failures are
    collected, never thrown."""
    cfg = config or VerifyConfig()
    cor = cfg.corruption
    n = cfg.n
    po0 = cfg.families[0]
    plan: list[tuple[str, object]] = [
        (
            "cauchy-inequality",
            lambda: check_cauchy(
                random_rational_series(n, cfg.series_degree, cfg.seed), cfg.radii, corruption=cor
            ),
        ),
        ("fueter-monogenicity", lambda: check_monogenicity(n, seed=cfg.seed, corruption=cor)),
        ("fueter-normalization", lambda: check_normalization(n, corruption=cor)),
        ("ck-product-oracle", lambda: check_ck_oracle(n, seed=cfg.seed, corruption=cor)),
        (
            "vm-norm-bound",
            lambda: check_vm_norm_bound(
                po0, cfg.sigma, cfg.sigma_prime, cfg.q_max_vm, corruption=cor
            ),
        ),
        (
            "derivative-bound",
            lambda: check_derivative_bound(
                axis_series(n, 1.0, cfg.sigma, 24), po0, cfg.sigma, cfg.q_max_deriv, corruption=cor
            ),
        ),
        (
            "coefficient-radius-bound",
            lambda: check_coeff_bound(
                random_rational_series(n, cfg.series_degree, cfg.seed).to_float(),
                po0,
                cfg.sigma,
                s=float(n + 1),
                eta=cfg.eta,
                corruption=cor,
            ),
        ),
        (
            "ck-norm-bound",
            lambda: check_ck_norm_bound(
                random_rational_series(n, cfg.series_degree, cfg.seed),
                random_rational_series(n, cfg.series_degree, cfg.seed + 7),
                po0,
                cfg.sigma,
                cfg.sigma,
                delta=cfg.delta,
                eta=cfg.eta,
                cap_ln=cfg.constant_cap_ln,
                corruption=cor,
            ),
        ),
        ("type-formula", lambda: check_type_formula(1.0, 1.0, cfg.window_type, n, corruption=cor)),
        (
            "membership-criterion",
            lambda: check_membership(1.0, 1.0, cfg.window_type, n, corruption=cor),
        ),
        ("density-reexpansion", lambda: check_density(n, po0, cfg.sigma, corruption=cor)),
        ("operator-roundtrip", lambda: check_operator_roundtrip(n, seed=cfg.seed, corruption=cor)),
    ]
    for po in cfg.families:
        plan.extend(
            [
                (
                    "gauge-supermultiplicativity",
                    lambda po=po: check_supermultiplicativity(po, cfg.q_super, corruption=cor),
                ),
                ("scale-inverse-roundtrip", lambda po=po: check_phi_roundtrip(po, corruption=cor)),
                ("subadditive-power", lambda po=po: check_subadditive_power(po, corruption=cor)),
                (
                    "scaling-bound",
                    lambda po=po: check_scaling_bound(po, eta=cfg.eta, corruption=cor),
                ),
                (
                    "y-sigma-bound",
                    lambda po=po: check_y_sigma(
                        po, cfg.sigma, cfg.sigma_prime, corruption=cor
                    ),
                ),
            ]
        )
    reports: list[CheckReport] = []
    for name, thunk in plan:
        if cfg.only is not None and name not in cfg.only:
            continue
        try:
            reports.append(thunk())
        except Exception as exc:  # collected, not thrown
            reports.append(
                CheckReport(
                    name=name,
                    instance=f"raised {type(exc).__name__}: {exc}",
                    margin=-math.inf,
                    passed=False,
                )
            )
    reports.sort(key=lambda rep: (rep.name, rep.instance))
    return reports


def summary_table(reports: list[CheckReport]) -> str:
    """Human-readable fixed-width table, one row per report."""
    lines = [f"{'check':34} {'pass':5} {'margin':>12}  instance"]
    for rep in reports:
        margin = "-inf" if rep.margin == -math.inf else f"{rep.margin:.3e}"
        lines.append(
            f"{rep.name:34} {'ok' if rep.passed else 'FAIL':5} {margin:>12}  {rep.instance}"
        )
    return "\n".join(lines)
