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
from itertools import product
from dataclasses import dataclass, field, fields
from fractions import Fraction

import numpy as np

from .clifford import CliffordNumber, Paravector, cl_mul
from .errors import SerializationError
from .fueter import basis_values, dirac_residuals, ordered_words
from .growth import (
    ProximateOrder,
    axis_log_norms,
    ln_sum,
    log_coeff_norms,
    per_degree,
    tail_ln_sums,
    type_from_kq,
    weighted_norm_ln,
    weighted_upper_ln,
)
from .multiindex import (
    MultiIndex,
    enumerate_up_to,
    ln_c_nm,
    mi_abs,
    mi_add,
    mi_factorial,
)
from .operators import OperatorSymbol, apply_each, hom_to_op, op_to_hom
from .sampling import ball_points, seeded_rng
from .serialize import is_integer
from .series import _INF_FLOOR, MonogenicSeries, ck_mul_left, ck_sums

LOG_TOL = 1e-9

# The suite's own values: the weights, sizes and scale families at which
# ``run_all`` exhibits the constants of the lemmas.  The rest are the checks'
# own defaults: delta and the cap on ln C of ck-norm-bound, and the degree
# limits of gauge-supermultiplicativity and vm-norm-bound.
SIGMA, SIGMA_PRIME, ETA = 1.0, 0.5, 0.1
Q_MAX_DERIV = 12
SERIES_DEGREE = 5
WINDOW_TYPE = (200, 500)
RADII = (0.5, 1.0, 2.0, 4.0)
FAMILIES = (
    ProximateOrder("constant", 1.0),
    ProximateOrder("logshift", 1.0, math.log(2.0)),
    ProximateOrder("loglog", 1.0, 1.0),
)

#: corruption name -> the check it must break.  Two controls also break a
#: second check: broken-scale fails scaling-bound, and mismatched-scale (the
#: weight's order doubled) fails membership-criterion.
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


@dataclass
class VerifyConfig:
    """What a ``run_all`` call may choose: the dimension n, the seed of the
    random series and operators, a named corruption and a subset of checks.
    The weights, sizes and scale families are the suite's own (the module
    constants above and the checks' defaults); other values are reached by
    calling the ``check_*`` functions directly."""

    n: int = 2
    seed: int = 0
    corruption: str | None = None
    only: tuple[str, ...] | None = None

    def __post_init__(self):
        for name, low in (("n", 1), ("seed", 0)):
            value = getattr(self, name)
            if not (is_integer(value) and value >= low):
                raise ValueError(f"verify config {name!r} must be an integer >= {low}, got {value!r}")
        cor = self.corruption
        if cor is not None and not (isinstance(cor, str) and cor in CORRUPTION_TARGETS):
            raise ValueError(f"unknown corruption {cor!r}")
        if cor == "ordered-words" and self.n == 1:
            # every word at n=1 is a power of z_1, so it is monogenic
            raise ValueError("corruption 'ordered-words' cannot break its check at n=1")
        # compared by equality, not hashed, so an entry of any JSON type is reported
        unknown = [name for name in self.only or () if name not in CHECK_NAMES]
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
        if kwargs.get("only") is not None:
            if not isinstance(kwargs["only"], list):
                raise SerializationError("verify config 'only' must be a list")
            kwargs["only"] = tuple(kwargs["only"])
        return cls(**kwargs)


def random_rational_series(
    n: int, degree: int, seed: int, density: float = 0.7
) -> MonogenicSeries:
    """Seeded random series with small-denominator rational coefficients."""
    rng = seeded_rng(seed)
    coeffs = {}
    for m in enumerate_up_to(n, degree):
        if rng.random() > density:
            continue
        table = {}
        for mask in range(1 << n):
            if rng.random() < 0.5:
                num = rng.randint(-6, 6)
                den = rng.randint(1, 4)
                if num:
                    table[mask] = Fraction(num, den)
        if table:
            coeffs[m] = CliffordNumber(n, table)
    return MonogenicSeries(n, degree, coeffs)


def random_rational_operator(n: int, order: int, degree: int, seed: int) -> OperatorSymbol:
    rng = seeded_rng(seed)
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
    margin = float(margin)
    return CheckReport(
        name=name,
        instance=instance,
        margin=margin,
        constants=constants or {},
        passed=margin >= -LOG_TOL,
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
    log_norms = log_coeff_norms(f)
    margin, worst = math.inf, None
    for r in radii:
        upper = f.coeff_upper_bound(r)
        if upper <= 0.0:
            continue
        ln_upper = math.log(upper)
        if corruption == "shrunk-modulus":  # half the least own term |a_m| r^|m| / c(n, m)
            ln_upper = min(v + mi_abs(m) * math.log(r) - ln_c_nm(f.n, m) for m, v in log_norms.items())
            ln_upper -= math.log(2.0)
        for m, ln_norm in log_norms.items():
            gap = ln_c_nm(f.n, m) + ln_upper - mi_abs(m) * math.log(r) - ln_norm
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


def check_monogenicity(n: int, seed: int = 0, corruption: str | None = None) -> CheckReport:
    """Finite-difference Dirac residual (step h = 1e-5) of every basis element
    with |m| <= 5 (``basis_values``, or ``ordered_words`` for the control)
    stays below 1e-6 * (1 + norm(x)^|m|) at 12 sampled points."""
    q_max, h = 5, 1e-5
    indices = enumerate_up_to(n, q_max)
    evaluate = ordered_words if corruption == "ordered-words" else basis_values
    points = ball_points(n, 1.2, 12, seed=seed)
    residuals = dirac_residuals(lambda pts: evaluate(pts, q_max), points, h)
    # each point's bound per degree by Python's power: numpy's differs in the last bit
    bounds = np.array([[1e-6 * (1.0 + r**q) for q in range(q_max + 1)] for r in map(Paravector.norm, points)])
    gaps = bounds[:, [mi_abs(m) for m in indices]] - residuals
    p, k = divmod(int(np.argmin(gaps)), len(indices))  # the first least gap
    margin, worst = float(gaps[p, k]), (indices[k], residuals[p][k])
    return _report(
        "fueter-monogenicity",
        f"n={n}, |m|<={q_max}, {len(points)} points, h={h}",
        margin,
        details={"worst": worst},
    )


def check_normalization(n: int, corruption: str | None = None) -> CheckReport:
    """Exact-mode consistency forced by the Taylor theorem: applying the
    derivative rule p times to the m-th basis element and evaluating at 0
    gives m! when p = m and 0 otherwise, for all |m|, |p| <= 4.

    Every d^p V_m is one group of one ``ck_sums`` call, the unit (ck)
    d^p V_m as ``series_derivative`` takes it: the pair row (g, i, j) for
    p = orders[i] and m = indices[j], truncated at degree 0, since only the
    value at 0 is read."""
    q_max = 4
    indices = enumerate_up_to(n, q_max)
    origin, count = (0,) * n, len(indices)
    skew = corruption == "skewed-normalization"
    bases = [{m: CliffordNumber.scalar(n, Fraction(1, mi_factorial(m) + 1 if skew else 1))} for m in indices]
    unit = {origin: CliffordNumber.scalar(n, 1)}
    g = np.arange(count * count)
    pairs = np.stack([g, g // count, g % count], axis=1)
    values = ck_sums(n, [unit] * count, bases, pairs, count * count, 0, orders=indices)
    failures = 0
    for (p, m), value in zip(product(indices, indices), values):
        expected = {origin: CliffordNumber.scalar(n, Fraction(mi_factorial(m)))} if p == m else {}
        failures += value != expected
    margin = 0.0 if failures == 0 else -math.inf
    return _report(
        "fueter-normalization",
        f"n={n}, |m|,|p|<={q_max} exact",
        margin,
        details={"failures": failures},
    )


def _over_lcm(f: MonogenicSeries, exact: bool) -> tuple[int, dict]:
    """(den, f's coefficients as integer numerators over den), den the lcm
    of f's denominators; (1, the coefficients as they are) if not exact."""
    if not exact:
        return 1, f.coeffs
    den = math.lcm(*(v.denominator for a in f.coeffs.values() for v in a.coeffs.values()))
    return den, {
        m: CliffordNumber(f.n, {b: v.numerator * (den // v.denominator) for b, v in a.coeffs.items()})
        for m, a in f.coeffs.items()
    }


def brute_force_ck(f: MonogenicSeries, g: MonogenicSeries, q_out: int) -> MonogenicSeries:
    """Independent convolution: explicit double loop over all index pairs
    through ``cl_mul``, sharing no inner loop with the CK kernel
    ``series.ck_sums``.

    Exact input runs the loop on Python ints: each side is written over the
    lcm of its own denominators, den_f and den_g.  A product of two
    numerators is then exact over den_f * den_g, and so is every sum of such
    products, so each result blade is one ``Fraction(v, den_f * den_g)`` at
    the end.  A float anywhere leaves both sides as they are, over 1, and
    int-only input gives ints."""
    values = [v for s in (f, g) for a in s.coeffs.values() for v in a.coeffs.values()]
    exact = all(isinstance(v, (int, Fraction)) for v in values)
    (den_f, left), (den_g, right) = _over_lcm(f, exact), _over_lcm(g, exact)
    out: dict = {}
    for m, a in left.items():
        for k, b in right.items():
            p = mi_add(m, k)
            if mi_abs(p) > q_out:
                continue
            term = cl_mul(a, b)
            out[p] = out.get(p, CliffordNumber.zero(f.n)) + term
    if exact and any(isinstance(v, Fraction) for v in values):
        den = den_f * den_g
        out = {
            p: CliffordNumber(f.n, {mask: Fraction(v, den) for mask, v in c.coeffs.items()})
            for p, c in out.items()
        }
    return MonogenicSeries(f.n, q_out, {m: v for m, v in out.items() if not v.is_zero()})


def check_ck_oracle(n: int, seed: int = 0, corruption: str | None = None) -> CheckReport:
    """CK product of two degree-4 series against the brute-force convolution,
    plus unit laws."""
    degree = 4
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
    # lngq[i] = ln G_{i+1}; (p, q) are the 0-based indices of the pairs p <= q
    degrees = np.arange(1, 2 * q_max + 1)
    lngq = po.ln_gqs(degrees) + jitter * (-1.0) ** degrees
    p, q = np.triu_indices(q_max)
    return _report(
        "gauge-supermultiplicativity",
        f"{po.family}(rho={po.rho}, a={po.a}), p,q<={q_max}",
        (lngq[p + q + 1] - lngq[p] - lngq[q]).min(initial=math.inf),
    )


def check_phi_roundtrip(po: ProximateOrder, corruption: str | None = None) -> CheckReport:
    """phi(t(r)) returns r within 1e-10 relative on a log grid of 200 radii."""
    points = 200
    bump = 1e-8 if corruption == "perturbed-inverse" else 0.0
    ln_r = np.linspace(math.log(1e-3), math.log(1e8), points)
    r = np.exp(ln_r)
    back = np.exp(po.ln_phis(po.ln_scale_at_ln_r(ln_r))) * (1.0 + bump)
    worst = float((np.abs(back - r) / r).max())
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

    def scale(self, r):
        if (np.asarray(r) <= 0).any():
            raise ValueError("scale is defined for r > 0")
        return np.exp(r) - 1.0


def check_subadditive_power(po, corruption: str | None = None) -> CheckReport:
    """t(r+s) <= k (t(r) + t(s)) + B with k = 1.05 * 2^rho for r, s in
    (0, 100]: B fitted on the small-argument half of the grid must cover the
    large-argument half."""
    grid_max = 100.0
    scale = _BrokenScale() if corruption == "broken-scale" else po
    k = 1.05 * 2.0**scale.rho
    rs = np.geomspace(grid_max * 1e-3, grid_max, 25)
    t = scale.scale(rs)
    t_sum = scale.scale(rs[:, None] + rs[None, :])
    bound = k * (t[:, None] + t[None, :])
    fit = np.maximum.outer(rs, rs) <= grid_max / 2.0
    fit_b = float(max(0.0, (t_sum - bound)[fit].max()))
    slack = (bound + fit_b - t_sum) / (1.0 + t_sum)
    return _report(
        "subadditive-power",
        f"{scale.family}(rho={scale.rho}), r,s in (0, {grid_max}]",
        slack[~fit].min(),
        constants={"k": k, "B": fit_b},
    )


def _fit_c_eta(scale, k: float, eta: float, grid, t=None):
    """C_eta of the scaling bound t(k r) <= (1+eta) k^rho t(r) + C_eta on a
    grid of radii r: max(0, max_r deficit) as a Python float, with deficit =
    t(k r) - lead t(r) and lead = (1+eta) k^rho.  The lead comes before any
    t value, so a k^rho beyond the float range raises first; t(r) is
    evaluated unless given.  Returns (C_eta, lead, deficit, t(r), t(k r))."""
    lead = (1.0 + eta) * k**scale.rho
    if t is None:
        t = scale.scale(grid)
    t_k = scale.scale(k * grid)
    deficit = t_k - lead * t
    return float(max(0.0, deficit.max())), lead, deficit, t, t_k


def check_scaling_bound(po, eta: float = ETA, corruption: str | None = None) -> CheckReport:
    """t(k*r) <= (1+eta) k^rho t(r) + C_eta for k = 2, 3 on r in [0.1, 1e6].

    The deficit t(kr) - (1+eta) k^rho t(r) is a single hump for genuine
    scales: C_eta is fitted as its max over the grid, and the check demands
    the hump is over by the last half-decade (relative deficit <= 0 there),
    which is the finite-scale shadow of the asymptotic statement.
    """
    factors = (2.0, 3.0)
    scale = _BrokenScale() if corruption == "broken-scale" else po
    # the exponential pseudo-scale stays inside float range at k*r up to 200
    top = 200.0 if corruption == "broken-scale" else 1e6
    grid = np.geomspace(0.1, top, 120)
    tail = grid >= top / math.sqrt(10.0)
    margin, constants, t = math.inf, {}, None
    for k in factors:
        c_eta, _, deficit, t, t_k = _fit_c_eta(scale, k, eta, grid, t)
        constants[f"C_eta_k{k:g}"] = c_eta
        margin = min(margin, (-deficit / (1.0 + t_k))[tail].min())
    return _report(
        "scaling-bound",
        f"{scale.family}(rho={scale.rho}), eta={eta}, k in {factors}",
        margin,
        constants=constants,
    )


def check_y_sigma(
    po: ProximateOrder,
    sigma: float = SIGMA,
    sigma_prime: float = SIGMA_PRIME,
    corruption: str | None = None,
) -> CheckReport:
    """Search a bounded grid (t, u in [1, 1e4]) for the threshold above which
    ln(phi(t)/phi(u)) - sigma t/u + (1/rho) ln(e rho) <= -(1/rho) ln(sigma').

    Reports the smallest working threshold; failure means the bounded search
    was exhausted, with no claim beyond the grid.
    """
    if corruption == "inverted-weights":
        sigma, sigma_prime = sigma_prime, sigma
    rho = po.rho
    rhs = -math.log(sigma_prime) / rho
    offset = math.log(math.e * rho) / rho
    grid = np.geomspace(1.0, 1e4, 60)
    ln_phi = po.ln_phis(np.log(grid))
    # rows u, columns t
    y = ln_phi[None, :] - ln_phi[:, None] - sigma * grid[None, :] / grid[:, None]
    gap = rhs - (y + offset)
    best_t1 = None
    margin = -math.inf
    for t1 in (1.0, 10.0, 100.0, 1e3, 1e4):
        above = grid >= t1
        worst = gap[above][:, above].min()
        if worst >= -LOG_TOL:
            best_t1, margin = t1, worst
            break
    return _report(
        "y-sigma-bound",
        f"{po.family}(rho={po.rho}), sigma={sigma}, sigma'={sigma_prime}",
        margin,
        constants={"T1": best_t1 if best_t1 is not None else math.inf},
    )


def _fitted_cover(reqs: dict[int, float], half: int) -> tuple[float, float]:
    """(ln C, margin) of a per-degree requirement table: C is the largest
    requirement at degrees <= half, the margin the least ln C - requirement
    over the degrees above half (0 if there are none), in ascending degree."""
    qs = sorted(reqs)
    ln_c = max(reqs[q] for q in qs if q <= half)
    margin = min((ln_c - reqs[q] for q in qs if q > half), default=0.0)
    return ln_c, margin


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
    q = np.arange(q_max + 1)
    lhs = po.ln_weight_peaks(q, sigma)[1]
    if corruption == "inflated-basis-norms":
        lhs += 0.5 * q * np.log(q + 1.0)
    rhs = -(q / po.rho) * math.log(sigma_prime) + po.ln_gqs(q)
    ln_c, margin = _fitted_cover(dict(enumerate((lhs - rhs).tolist())), q_max // 2)
    return _report(
        "vm-norm-bound",
        f"{po.family}(rho={po.rho}), sigma={sigma}, sigma'={sigma_prime}, |m|<={q_max}",
        margin,
        constants={"ln_C": ln_c},
        details={"bracket": "exact per-degree sup"},
    )


def _derivative_norms(f: MonogenicSeries, q_max: int) -> dict[MultiIndex, dict[int, float]]:
    """m -> the ``degree_norms`` of d^m f, for every |m| <= q_max with d^m f
    nonzero, in one pass over f's coefficients: a_k adds (k!/(k-m)!) norm(a_k)
    at degree |k| - |m| of each m <= k.  Each table sums in f's order, as
    ``series_derivative(f, m).degree_norms()`` does; on one-blade float
    coefficients the two agree bit for bit (norm(c a) = c norm(a) is then
    one rounding either way), on others to a few ulps.  It stays a loop of
    its own, off the CK kernel: it needs norms only, and the kernel's d^m f
    tables for them take three times as long (2.7 against 0.8 ms for the
    n = 3 check, |m| <= 12)."""
    out: dict[MultiIndex, dict[int, float]] = {}
    for k, a in f.coeffs.items():
        norm, q_k, fact = a.norm(), mi_abs(k), mi_factorial(k)
        for m in product(*(range(min(e, q_max) + 1) for e in k)):
            q = sum(m)
            if q > q_max:
                continue
            table = out.setdefault(m, {})
            shift = fact // mi_factorial(tuple(e - d for e, d in zip(k, m)))
            shift = shift if shift < _INF_FLOOR else math.inf  # as the kernel rounds a weight
            table[q_k - q] = table.get(q_k - q, 0.0) + norm * shift
    return out


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
    q_top = min(q_max, f.degree)
    norms = _derivative_norms(f, q_top)
    reqs = {}
    for m in enumerate_up_to(f.n, q_top):
        if m not in norms:  # d^m f = 0
            continue
        q = mi_abs(m)
        ln_df, _ = weighted_upper_ln(norms[m], po, k * sigma)
        lhs = ln_df - math.log(mi_factorial(m)) + inflate * q * math.log(q + 1.0)
        rhs = ln_f + (q / rho) * math.log(2.0 * k * sigma) + ln_c_nm(f.n, m) - po.ln_gq(q)
        reqs[m] = lhs - rhs
    if not reqs:
        raise ValueError(f"derivative-bound: no derivative of order <= {q_max} is nonzero (zero series)")
    per_q = per_degree(reqs, max)
    ln_c, margin = _fitted_cover(per_q, sorted(per_q)[len(per_q) // 2])
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
    eta: float = ETA,
    corruption: str | None = None,
) -> CheckReport:
    """Pointwise coefficient bound at every radius r >= 0.1 on a log grid:

        norm(a_m) e^{-sigma (1+eta)(s+1)^rho t(r)} <= e^{sigma C_eta}
            * ||f|| c(n,m) / (s r)^|m|

    with C_eta fitted from the scaling bound for the factor s+1.  The bound
    degenerates as r -> 0 (right side diverges); radii below 0.1 are
    excluded by the grid, not failed.
    """
    c_eta, lead, *_ = _fit_c_eta(po, s + 1.0, eta, np.geomspace(0.1, 1e5, 80))
    inflate = 50.0 if corruption == "inflated-coefficients" else 0.0
    _, ln_f = weighted_norm_ln(f, po, sigma, samples=0)
    grid = np.geomspace(0.1, 100.0, 40)
    decay = sigma * lead * po.scale(grid)
    ln_sr = np.log(s * grid)
    margin = math.inf
    for m, ln_norm in log_coeff_norms(f).items():
        lhs = ln_norm + inflate - decay
        rhs = sigma * c_eta + ln_f + ln_c_nm(f.n, m) - mi_abs(m) * ln_sr
        margin = min(margin, (rhs - lhs).min())
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
    eta: float = ETA,
    cap_ln: float = 40.0,
    corruption: str | None = None,
) -> CheckReport:
    """CK-product norm at the inflated weight (1+eta)(n+delta+1)^rho
    (tau1+tau2), rho the scale's order, against the product of the factor
    norms; the fitted constant must stay below a generous cap."""
    n = g1.n
    rho = po.rho
    weight = (1.0 + eta) * (n + delta + 1.0) ** rho * (tau1 + tau2)
    if corruption == "shrunk-weight":
        weight = 1e-6
    g1, g2 = g1.to_float(), g2.to_float()
    product = ck_mul_left(g1, g2, g1.degree + g2.degree)
    _, ln_lhs = weighted_norm_ln(product, po, weight, samples=0)
    _, ln_g1 = weighted_norm_ln(g1, po, tau1, samples=0)
    _, ln_g2 = weighted_norm_ln(g2, po, tau2, samples=0)
    ln_c = ln_lhs - ln_g1 - ln_g2
    return _report(
        "ck-norm-bound",
        f"n={n}, degrees {g1.degree}+{g2.degree}, {po.family}(rho={rho}), "
        f"tau=({tau1},{tau2}), delta={delta}, eta={eta}",
        cap_ln - ln_c,
        constants={"ln_C": ln_c, "weight": weight},
        details={"bracket": "upper/upper", "weight_exponent": rho},
    )


def _axis_type_fixture(rho, sigma, window, n, corruption):
    """(scale, degree -> ln a_q) of the axis family of order rho and type
    sigma on the window: its one coefficient per degree, a positive scalar,
    is also its ln K_q.  The scale's order doubles under the mismatched-scale
    corruption."""
    po = ProximateOrder("constant", 2.0 * rho if corruption == "mismatched-scale" else rho)
    log_norms = axis_log_norms(n, rho, sigma, window[0], window[1])
    return po, {mi_abs(m): v for m, v in log_norms.items()}


def check_type_formula(
    rho: float,
    sigma: float,
    window: tuple[int, int],
    n: int = 2,
    corruption: str | None = None,
) -> CheckReport:
    """Recover the type of the synthetic axis family from unit-ball peaks of
    its homogeneous parts; 10% relative accuracy at the configured window."""
    po, log_kq = _axis_type_fixture(rho, sigma, window, n, corruption)
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
    """The weighted-norm side of the membership criterion: the axis family
    f = sum_q a_q V_(q,0,...,0) of type sigma has a finite norm
    ||f||_s = sup_x |f(x)| e^{-s t(|x|)} at s = (1+eps) sigma and not at
    s = (1-eps) sigma, eps = 0.1, read as the drift of a closed-form bracket
    of ln ||f||_s when the degrees above the window's middle q_mid are added.

    The bracket: the a_q are positive scalars and V_(q,0,...,0) = z_1^q with
    |z_1| <= |x|, equal on the x_1 axis, so the sup of |f| on the sphere of
    radius r is sum_q a_q r^q.  With p_q(s) = sup_r (q ln r - s t(r))
    (``ProximateOrder.ln_weight_peaks``), each term T_q = ln a_q + p_q(s) is
    the weighted norm of one summand, which the positive sum dominates, and
    the sup of the sum is at most the sum of the sups:

        max_q T_q <= ln ||f||_s <= logsumexp_q T_q.

    For this family T_q = (q/rho) ln(sigma/s) under the constant scale of
    order rho.  Above the type the terms fall with q, so the upper side
    barely moves when the top half is added; below it they rise, and the
    lower side grows by the drift D = (q_hi - q_mid)/rho * ln(1/(1-eps)).
    The margin is the least of D/2 - (rise of the upper side above the
    type) and (growth of the lower side below it) - D/2.  The mismatched
    scale doubles the weight's order: every term then falls with q and the
    lower side does not grow.
    """
    eps = 0.1
    po, table = _axis_type_fixture(rho, sigma, window, n, corruption)
    qs, ln_a = np.array(list(table), dtype=float), np.array(list(table.values()))
    q_mid = (window[0] + window[1]) // 2
    low = qs <= q_mid
    above = ln_a + po.ln_weight_peaks(qs, (1.0 + eps) * sigma)[1]
    below = ln_a + po.ln_weight_peaks(qs, (1.0 - eps) * sigma)[1]
    rise = ln_sum(above) - ln_sum(above[low])
    growth = float(below.max() - below[low].max())
    drift = (window[1] - q_mid) / rho * -math.log1p(-eps)
    return _report(
        "membership-criterion",
        f"axis family rho={rho}, sigma={sigma}, window={window}, eps={eps}",
        min(0.5 * drift - rise, growth - 0.5 * drift),
        constants={"rise_above": rise, "growth_below": growth, "drift": drift},
        details={"bracket": "closed-form lower/upper"},
    )


def check_density(
    n: int, po: ProximateOrder, sigma: float, corruption: str | None = None
) -> CheckReport:
    """Partial Taylor sums of a degree-24 truncation converge in the weighted
    norm at n^rho sigma + sigma/2: tail norms must decrease monotonically and
    at least halve between the quarter and three-quarter truncation points."""
    degree = 24
    rho = po.rho
    source_type = 10.0 * sigma if corruption == "overweight-tail" else sigma
    weight = float(n) ** rho * sigma + 0.5 * sigma
    log_norms = axis_log_norms(n, rho, source_type, 1, degree)
    # the axis family has one index per degree, so the max is that term
    peak_values = po.ln_weight_peaks([mi_abs(m) for m in log_norms], weight)[1].tolist()
    terms = {m: v + p for (m, v), p in zip(log_norms.items(), peak_values)}
    tails = tail_ln_sums(per_degree(terms, max), degree)
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


def check_operator_roundtrip(n: int, seed: int = 0, corruption: str | None = None) -> CheckReport:
    """Exact-mode inversion: recovering the coefficient table from the
    basis-value table of a random order-4 operator with degree-2 coefficients
    is the identity (margin exactly 0 in rational mode)."""
    order, degree = 4, 2
    P = random_rational_operator(n, order, degree, seed)
    table = op_to_hom(P, order)
    if corruption == "misindexed-inversion":
        # drop the alternating sign of the inversion: apply the forward map again
        back = OperatorSymbol(n, op_to_hom(OperatorSymbol(n, table.entries), table.degree).entries)
    else:
        back = hom_to_op(table)
    ok = back == P
    # P(V_s) = s! b_s, for every basis element at once
    q_out, basis = order + degree + 3, enumerate_up_to(n, min(order, 3))
    direct = apply_each(P, [MonogenicSeries.basis_element(n, s) for s in basis], q_out)
    want = [table.entries[s].scale(Fraction(mi_factorial(s))).truncate(q_out).coeffs for s in basis]
    basis_ok = [d.coeffs for d in direct] == want
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


def _series(cfg: VerifyConfig, offset: int = 0) -> MonogenicSeries:
    return random_rational_series(cfg.n, SERIES_DEGREE, cfg.seed + offset)


#: check name -> how ``run_all`` calls it with the config, a scale family and
#: the corruption; these run once, with the first family
_ONCE = {
    "cauchy-inequality": lambda c, po, cor: check_cauchy(_series(c), RADII, corruption=cor),
    "fueter-monogenicity": lambda c, po, cor: check_monogenicity(c.n, c.seed, corruption=cor),
    "fueter-normalization": lambda c, po, cor: check_normalization(c.n, corruption=cor),
    "ck-product-oracle": lambda c, po, cor: check_ck_oracle(c.n, c.seed, corruption=cor),
    "vm-norm-bound": lambda c, po, cor: check_vm_norm_bound(po, SIGMA, SIGMA_PRIME, corruption=cor),
    "derivative-bound": lambda c, po, cor: check_derivative_bound(
        axis_series(c.n, 1.0, SIGMA, 24), po, SIGMA, Q_MAX_DERIV, corruption=cor
    ),
    "coefficient-radius-bound": lambda c, po, cor: check_coeff_bound(
        _series(c).to_float(), po, SIGMA, s=float(c.n + 1), corruption=cor
    ),
    "ck-norm-bound": lambda c, po, cor: check_ck_norm_bound(
        _series(c), _series(c, 7), po, SIGMA, SIGMA, corruption=cor
    ),
    "type-formula": lambda c, po, cor: check_type_formula(1.0, 1.0, WINDOW_TYPE, c.n, corruption=cor),
    "membership-criterion": lambda c, po, cor: check_membership(1.0, 1.0, WINDOW_TYPE, c.n, corruption=cor),
    "density-reexpansion": lambda c, po, cor: check_density(c.n, po, SIGMA, corruption=cor),
    "operator-roundtrip": lambda c, po, cor: check_operator_roundtrip(c.n, c.seed, corruption=cor),
}

#: the same for the checks that run once per scale family
_PER_FAMILY = {
    "gauge-supermultiplicativity": lambda c, po, cor: check_supermultiplicativity(po, corruption=cor),
    "scale-inverse-roundtrip": lambda c, po, cor: check_phi_roundtrip(po, corruption=cor),
    "subadditive-power": lambda c, po, cor: check_subadditive_power(po, corruption=cor),
    "scaling-bound": lambda c, po, cor: check_scaling_bound(po, corruption=cor),
    "y-sigma-bound": lambda c, po, cor: check_y_sigma(po, corruption=cor),
}

CHECK_NAMES = tuple(sorted({**_ONCE, **_PER_FAMILY}))


def run_all(config: VerifyConfig | None = None) -> list[CheckReport]:
    """Run every check (or the configured subset); individual failures are
    collected, never thrown.  A MemoryError is thrown: it says that the
    configured sizes do not fit, not that a check failed."""
    cfg = config or VerifyConfig()
    plan = [(name, call, FAMILIES[0]) for name, call in _ONCE.items()]
    plan += [(name, call, po) for name, call in _PER_FAMILY.items() for po in FAMILIES]
    reports: list[CheckReport] = []
    for name, call, po in plan:
        if cfg.only is not None and name not in cfg.only:
            continue
        try:
            reports.append(call(cfg, po, cfg.corruption))
        except MemoryError:
            raise
        except Exception as exc:  # collected, not thrown
            reports.append(_report(name, f"raised {type(exc).__name__}: {exc}", -math.inf))
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
